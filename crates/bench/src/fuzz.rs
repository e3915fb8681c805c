//! The N-way differential coherence fuzz gate.
//!
//! Generated [`WorkloadSpec`]s (see `warden_rt::workload`) run under every
//! registered protocol with the invariant checker armed; the gate then
//! asserts the protocols are *semantically interchangeable* on each
//! workload:
//!
//! 1. every final image's digest equals the logical (phase-1) execution's
//!    image digest — and therefore every other protocol's,
//! 2. image digests agree with the reference protocol,
//! 3. no protocol reports an invariant violation,
//! 4. each protocol's cache levels exactly partition its accesses,
//! 5. a serial DRF replay of the trace through the raw coherence engine
//!    observes identical per-load value sequences under every protocol.
//!
//! A disagreement is **shrunk** — knobs greedily halved while the failure
//! reproduces — and archived as a replayable `.seed` file whose token
//! feeds straight back into `fuzzgen --replay`. Injecting a seeded
//! [`ProtocolMutation`] through the same gate (`--mutate`) proves the gate
//! is alive: a deliberately broken protocol must be caught.

use crate::campaign::panic_message;
use crate::error::{HarnessError, RunFailure};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use warden_coherence::{CoherenceSystem, ProtocolId, ProtocolMutation, RegionId};
use warden_rt::workload::{SharingPattern, WorkloadGen, WorkloadSpec};
use warden_rt::{Event, RegionToken, RmwOp, TaskId, TraceProgram};
use warden_sim::{simulate_with_options, FaultPlan, MachineConfig, SimOptions, SimOutcome};

/// Every injectable protocol defect, by stable kebab-case name (the
/// `--mutate` vocabulary).
pub const MUTATIONS: [(&str, ProtocolMutation); 9] = [
    ("skip-ward-entry-sync", ProtocolMutation::SkipWardEntrySync),
    (
        "skip-reconciliation-writeback",
        ProtocolMutation::SkipReconciliationWriteback,
    ),
    (
        "coarse-sector-merge",
        ProtocolMutation::CoarseSectorMerge { sector_bytes: 16 },
    ),
    ("skip-self-invalidate", ProtocolMutation::SkipSelfInvalidate),
    ("skip-self-downgrade", ProtocolMutation::SkipSelfDowngrade),
    (
        "skip-ward-registration",
        ProtocolMutation::SkipWardRegistration,
    ),
    ("dls-cache-private", ProtocolMutation::DlsCachePrivate),
    ("dls-dirty-private", ProtocolMutation::DlsDirtyPrivate),
    ("dls-skip-llc-dirty", ProtocolMutation::DlsSkipLlcDirty),
];

/// Parse a `--mutate` argument of the form `<protocol>:<mutation>`, e.g.
/// `si:skip-self-invalidate`.
pub fn parse_mutation_spec(s: &str) -> Result<(ProtocolId, ProtocolMutation), HarnessError> {
    let usage = || {
        let names: Vec<&str> = MUTATIONS.iter().map(|(n, _)| *n).collect();
        HarnessError::Args(format!(
            "--mutate wants <protocol>:<mutation>, got {s:?}; mutations: {}",
            names.join(", ")
        ))
    };
    let (proto, mutation) = s.split_once(':').ok_or_else(usage)?;
    let proto =
        ProtocolId::from_name(proto).map_err(|e| HarnessError::Args(format!("--mutate: {e}")))?;
    let m = MUTATIONS
        .iter()
        .find(|(n, _)| *n == mutation)
        .map(|(_, m)| *m)
        .ok_or_else(usage)?;
    Ok((proto, m))
}

/// What one fuzz-gate invocation runs.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Generated workloads to run.
    pub workloads: usize,
    /// Generator stream seed.
    pub seed: u64,
    /// Sharing patterns the stream cycles through.
    pub patterns: Vec<SharingPattern>,
    /// Protocols under test; the first is the reference.
    pub protocols: Vec<ProtocolId>,
    /// The machine every workload replays on.
    pub machine: MachineConfig,
    /// A deliberate defect injected into one protocol's runs — the gate
    /// must then *catch* it (disagreement expected, not forbidden).
    pub mutate: Option<(ProtocolId, ProtocolMutation)>,
    /// Where shrunk failing seeds are archived (`<token>.seed` files).
    pub artifacts: Option<PathBuf>,
}

impl FuzzOptions {
    /// A small default gate: every pattern, all protocols, the zoo's
    /// dual-socket 6-core machine.
    pub fn new(workloads: usize, seed: u64) -> FuzzOptions {
        FuzzOptions {
            workloads,
            seed,
            patterns: SharingPattern::ALL.to_vec(),
            protocols: ProtocolId::ALL.to_vec(),
            machine: MachineConfig::dual_socket().with_cores(3),
            mutate: None,
            artifacts: None,
        }
    }
}

/// One confirmed protocol disagreement, shrunk and (optionally) archived.
#[derive(Clone, Debug)]
pub struct Disagreement {
    /// Token of the *minimal* still-failing spec.
    pub token: String,
    /// Token of the originally generated spec.
    pub original_token: String,
    /// The diverging protocol.
    pub protocol: String,
    /// What diverged.
    pub detail: String,
    /// The archived `.seed` file, when an artifact dir was given.
    pub archived: Option<PathBuf>,
}

/// The gate's summary.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Workloads generated and checked.
    pub workloads: usize,
    /// Simulations executed (workloads × protocols).
    pub runs: usize,
    /// Confirmed disagreements, shrunk to minimal reproducers.
    pub disagreements: Vec<Disagreement>,
}

/// Run the differential gate: generate `opts.workloads` specs, check each
/// with [`check_spec`] (one capture, every protocol, the five agreement
/// obligations), and shrink + archive any failure. Each check runs under
/// `catch_unwind`: a workload whose capture or simulation panics fails
/// typed, by token, while the remaining workloads are still checked.
///
/// # Errors
///
/// A bad pattern list or an archive write failure is a [`HarnessError`],
/// and panicking workloads come back as [`HarnessError::RunsFailed`] with
/// ids `fuzz/<token>`. Protocol *disagreements* are not errors — they come
/// back in the report so a mutation gate can assert they happened.
pub fn run_fuzz_gate(opts: &FuzzOptions) -> Result<FuzzReport, HarnessError> {
    assert!(
        !opts.protocols.is_empty(),
        "protocol list must be non-empty"
    );
    let gen = WorkloadGen::with_patterns(opts.seed, &opts.patterns)
        .map_err(|e| HarnessError::Args(e.to_string()))?;
    let mut report = FuzzReport::default();
    let mut failures = Vec::new();
    for spec in gen.take(opts.workloads) {
        report.workloads += 1;
        report.runs += opts.protocols.len();
        let verdict = match catch_unwind(AssertUnwindSafe(|| {
            check_spec(&spec, &opts.machine, &opts.protocols, opts.mutate)
        })) {
            Ok(verdict) => verdict,
            Err(payload) => {
                failures.push(RunFailure {
                    id: format!("fuzz/{}", spec.token()),
                    reason: format!("panicked: {}", panic_message(payload.as_ref())),
                });
                continue;
            }
        };
        let Some((protocol, detail)) = verdict else {
            continue;
        };
        let minimal = shrink(spec, &opts.machine, &opts.protocols, opts.mutate);
        let archived = opts
            .artifacts
            .as_deref()
            .map(|dir| archive_seed(dir, &minimal, &spec, &protocol, &detail, opts.mutate))
            .transpose()?;
        report.disagreements.push(Disagreement {
            token: minimal.token(),
            original_token: spec.token(),
            protocol,
            detail,
            archived,
        });
    }
    if !failures.is_empty() {
        return Err(HarnessError::RunsFailed(failures));
    }
    Ok(report)
}

/// Check one spec directly: build, simulate under every protocol, and
/// return the first disagreement — `None` means the protocols agree. The
/// gate, the shrinker and the replay of archived seeds all judge a spec
/// here.
pub fn check_spec(
    spec: &WorkloadSpec,
    machine: &MachineConfig,
    protocols: &[ProtocolId],
    mutate: Option<(ProtocolId, ProtocolMutation)>,
) -> Option<(String, String)> {
    let program = spec.build();
    let outcomes: Vec<SimOutcome> = protocols
        .iter()
        .map(|&p| simulate_with_options(&program, machine, p, &sim_opts(p, mutate)))
        .collect();
    differential_verdict(&program, machine, protocols, &outcomes, mutate)
}

fn sim_opts(proto: ProtocolId, mutate: Option<(ProtocolId, ProtocolMutation)>) -> SimOptions {
    let faults = match mutate {
        Some((p, m)) if p == proto => Some(FaultPlan::mutation_only(1, m)),
        _ => None,
    };
    SimOptions {
        check: true,
        faults,
        ..SimOptions::default()
    }
}

/// The five agreement obligations over one workload's outcomes. Returns
/// the first failure as `(protocol, detail)`.
fn differential_verdict(
    program: &TraceProgram,
    machine: &MachineConfig,
    protocols: &[ProtocolId],
    outcomes: &[SimOutcome],
    mutate: Option<(ProtocolId, ProtocolMutation)>,
) -> Option<(String, String)> {
    let logical = program.memory.digest();
    for (&proto, out) in protocols.iter().zip(outcomes) {
        if let Some(v) = out.violations.first() {
            return Some((
                proto.name().into(),
                format!(
                    "invariant violation ({} total); first: {v}",
                    out.violations.len()
                ),
            ));
        }
        if out.memory_image_digest != logical {
            return Some((
                proto.name().into(),
                format!(
                    "final image digest {:#018x} differs from the logical image's {logical:#018x}",
                    out.memory_image_digest
                ),
            ));
        }
        if out.memory_image_digest != outcomes[0].memory_image_digest {
            return Some((
                proto.name().into(),
                format!(
                    "image digest {:#018x} diverged from {}'s {:#018x}",
                    out.memory_image_digest,
                    protocols[0].name(),
                    outcomes[0].memory_image_digest
                ),
            ));
        }
        let c = &out.stats.coherence;
        let served = c.l1_hits + c.l2_hits + c.llc_hits + c.llc_misses;
        if served != c.accesses() + c.ward_stale_retries {
            return Some((
                proto.name().into(),
                format!(
                    "cache levels do not partition the accesses: {served} served vs {} issued",
                    c.accesses() + c.ward_stale_retries
                ),
            ));
        }
    }
    // Serial DRF replay: per-load observed values must agree pairwise.
    let reference = observed_sequence(program, machine, protocols[0], mutate);
    for &proto in &protocols[1..] {
        let got = observed_sequence(program, machine, proto, mutate);
        if got != reference {
            return Some((
                proto.name().into(),
                format!(
                    "observed-value sequence diverged from {} (first difference at load #{})",
                    protocols[0].name(),
                    reference
                        .iter()
                        .zip(&got)
                        .position(|(a, b)| a != b)
                        .unwrap_or(reference.len().min(got.len()))
                ),
            ));
        }
    }
    None
}

/// Replay the trace serially (depth-first over the fork tree, one
/// `task_sync` fence at every task boundary — the discipline a DRF
/// fork-join program gives the hardware) through the raw coherence engine,
/// recording the value every load observes. Ends with the final image
/// digest as one last pseudo-observation.
fn observed_sequence(
    program: &TraceProgram,
    machine: &MachineConfig,
    proto: ProtocolId,
    mutate: Option<(ProtocolId, ProtocolMutation)>,
) -> Vec<u64> {
    let mut sys = CoherenceSystem::new(machine.topo, machine.lat, machine.cache, proto);
    if let Some((p, m)) = mutate {
        if p == proto {
            sys.inject_mutation(m);
        }
    }
    if sys.try_set_memory(program.initial_memory.clone()).is_err() {
        unreachable!("caches are cold before the first access");
    }
    let ncores = machine.num_cores();
    let mut seen = Vec::new();
    let mut regions: HashMap<RegionToken, Option<RegionId>> = HashMap::new();
    replay_task(&mut sys, program, 0, ncores, &mut seen, &mut regions);
    seen.push(sys.final_memory_image().digest());
    seen
}

fn replay_task(
    sys: &mut CoherenceSystem,
    program: &TraceProgram,
    task: TaskId,
    ncores: usize,
    seen: &mut Vec<u64>,
    regions: &mut HashMap<RegionToken, Option<RegionId>>,
) {
    let core = task % ncores;
    sys.task_sync(core);
    for ev in &program.tasks[task].events {
        match ev {
            Event::Load { addr, size } => {
                sys.load(core, *addr, u64::from(*size));
                seen.push(sys.observe(core, *addr, u64::from(*size)));
            }
            Event::Store { addr, size, val } => {
                sys.store(core, *addr, &val.to_le_bytes()[..usize::from(*size)]);
            }
            Event::Rmw {
                addr,
                size,
                val,
                op,
            } => {
                match op {
                    RmwOp::Swap => {
                        sys.rmw(core, *addr, &val.to_le_bytes()[..usize::from(*size)]);
                    }
                    RmwOp::Add => {
                        sys.rmw_add(core, *addr, u64::from(*size), *val);
                    }
                }
                seen.push(sys.observe(core, *addr, u64::from(*size)));
            }
            Event::Compute { .. } => {}
            Event::Fork { children } => {
                sys.task_sync(core); // release before the children start
                for &child in children {
                    replay_task(sys, program, child, ncores, seen, regions);
                }
                sys.task_sync(core); // acquire the children's results
            }
            Event::RegionAdd { start, end, token } => {
                regions.insert(*token, sys.add_region(*start, *end));
            }
            Event::RegionRemove { token } => {
                if let Some(Some(id)) = regions.remove(token) {
                    sys.remove_region(id);
                }
            }
        }
    }
    sys.task_sync(core); // release this task's writes to the joiner
}

/// Greedily halve each knob while the disagreement still reproduces,
/// yielding a (locally) minimal failing spec. Bounded: each pass shrinks
/// at least one knob or stops, and knobs only ever decrease.
fn shrink(
    spec: WorkloadSpec,
    machine: &MachineConfig,
    protocols: &[ProtocolId],
    mutate: Option<(ProtocolId, ProtocolMutation)>,
) -> WorkloadSpec {
    let candidates = |s: WorkloadSpec| {
        [
            WorkloadSpec {
                rounds: (s.rounds / 2).max(1),
                ..s
            },
            WorkloadSpec {
                tasks: (s.tasks / 2).max(2),
                ..s
            },
            WorkloadSpec {
                ops: (s.ops / 2).max(1),
                ..s
            },
            WorkloadSpec {
                footprint: (s.footprint / 2).max(512),
                ..s
            },
        ]
    };
    let mut best = spec;
    for _ in 0..64 {
        let step = candidates(best).into_iter().find(|c| {
            *c != best
                && c.validate().is_ok()
                && check_spec(c, machine, protocols, mutate).is_some()
        });
        match step {
            Some(smaller) => best = smaller,
            None => break,
        }
    }
    best
}

fn archive_seed(
    dir: &Path,
    minimal: &WorkloadSpec,
    original: &WorkloadSpec,
    protocol: &str,
    detail: &str,
    mutate: Option<(ProtocolId, ProtocolMutation)>,
) -> Result<PathBuf, HarnessError> {
    std::fs::create_dir_all(dir).map_err(|e| HarnessError::Io {
        path: dir.to_path_buf(),
        source: e,
    })?;
    let mutate_flag = mutate
        .and_then(|(p, m)| {
            MUTATIONS
                .iter()
                .find(|(_, cand)| format!("{cand:?}") == format!("{m:?}"))
                .map(|(name, _)| format!(" --mutate {}:{name}", p.name()))
        })
        .unwrap_or_default();
    let body = format!(
        "token: {}\noriginal: {}\nprotocol: {}\ndetail: {}\nreplay: cargo run -p warden-bench \
         --release --bin fuzzgen -- --replay {}{}\n",
        minimal.token(),
        original.token(),
        protocol,
        detail,
        minimal.token(),
        mutate_flag,
    );
    let path = dir.join(format!("{}.seed", minimal.token()));
    std::fs::write(&path, body).map_err(|e| HarnessError::Io {
        path: path.clone(),
        source: e,
    })?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_machine() -> MachineConfig {
        MachineConfig::dual_socket().with_cores(2)
    }

    #[test]
    fn mutation_specs_parse_and_reject() {
        let (p, m) = parse_mutation_spec("si:skip-self-invalidate").unwrap();
        assert_eq!(p, ProtocolId::SelfInv);
        assert!(matches!(m, ProtocolMutation::SkipSelfInvalidate));
        let (p, m) = parse_mutation_spec("warden:coarse-sector-merge").unwrap();
        assert_eq!(p, ProtocolId::Warden);
        assert!(matches!(
            m,
            ProtocolMutation::CoarseSectorMerge { sector_bytes: 16 }
        ));
        for bad in [
            "",
            "si",
            "si:",
            ":skip-self-invalidate",
            "zz:skip-self-invalidate",
            "si:nope",
        ] {
            assert!(
                matches!(parse_mutation_spec(bad), Err(HarnessError::Args(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn clean_specs_pass_the_direct_check() {
        let m = small_machine();
        for pattern in SharingPattern::ALL {
            let spec = WorkloadSpec::new(pattern, 99);
            assert_eq!(
                check_spec(&spec, &m, &ProtocolId::ALL, None),
                None,
                "{pattern} disagreed without a mutation"
            );
        }
    }

    #[test]
    fn a_panicking_workload_fails_typed_by_token() {
        let mut opts = FuzzOptions::new(2, 7);
        // A zero CPI denominator makes every engine construction panic.
        opts.machine.cpi_den = 0;
        let tokens: Vec<String> = WorkloadGen::with_patterns(7, &opts.patterns)
            .unwrap()
            .take(2)
            .map(|s| format!("fuzz/{}", s.token()))
            .collect();
        match run_fuzz_gate(&opts) {
            Err(HarnessError::RunsFailed(fails)) => {
                let ids: Vec<String> = fails.iter().map(|f| f.id.clone()).collect();
                assert_eq!(ids, tokens, "every workload is checked and named");
                assert!(fails.iter().all(|f| f.reason.starts_with("panicked: ")));
            }
            other => panic!("expected RunsFailed, got {other:?}"),
        }
    }

    #[test]
    fn observed_sequences_are_deterministic_per_protocol() {
        let m = small_machine();
        let program = WorkloadSpec::new(SharingPattern::Migratory, 4).build();
        for proto in ProtocolId::ALL {
            let a = observed_sequence(&program, &m, proto, None);
            let b = observed_sequence(&program, &m, proto, None);
            assert_eq!(a, b, "{proto}");
            assert!(!a.is_empty());
        }
    }
}
