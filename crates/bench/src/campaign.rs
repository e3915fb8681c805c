//! The supervised benchmark campaign runner.
//!
//! The paper's evaluation sweeps benchmarks × protocols × machines; at
//! paper scale a single crash, panic or OOM used to lose the whole sweep
//! because nothing was persisted until a figure binary finished. This
//! module runs that matrix as a **campaign**: a queue of [`RunSpec`]s
//! executed by worker threads under a supervisor that
//!
//! * isolates panics with `catch_unwind` (one exploding run cannot take
//!   down the sweep): each cell runs once and yields either an outcome or
//!   a typed [`RunFailure`],
//! * persists every finished run in a [`ResultStore`] and keeps a durable
//!   `manifest.json` of per-run status, both written atomically.
//!
//! # Crash safety and resume
//!
//! A campaign directory is a result store plus a manifest:
//!
//! ```text
//! <dir>/manifest.json  per-run status (derived, for humans and CI)
//! <dir>/<key>.rec      finished outcomes (framed + checksummed)
//! <dir>/quarantine/    damaged entries the store set aside
//! ```
//!
//! Entries are named by the run's [`RunKey`] — workload token, machine,
//! protocol and options — so any campaign that simulates the same cell
//! finds it, whatever its run id. The store's entries are the source of
//! truth: on startup the store's fsck verifies each one (quarantining
//! damage) and the campaign skips exactly the runs whose result entries
//! verify.
//! `manifest.json` is derived state, rewritten atomically after every
//! completion — a torn manifest can never corrupt a resume, and a
//! `kill -9` at any instant loses at most the runs in flight, which the
//! next invocation reruns from step 0. Crash safety is per cell: a
//! paper-scale cell replays in well under a second, so an engine's mid-run
//! state is never persisted.
//!
//! # One capture per workload
//!
//! As the paper evaluates each benchmark from one execution, a worker
//! claims a workload, not a cell: the cells left to execute are grouped by
//! [`Workload::token`], and a worker pops one group, captures its trace
//! once (under `catch_unwind`: a panicking capture fails each cell of the
//! group typed, and the other groups complete), replays every cell of the
//! group on it, and drops it before the next claim. So a worker holds one
//! trace at a time, and a workload whose cells all resume from records is
//! never captured.
//!
//! # Why a cell runs once, unwatched
//!
//! A replay is deterministic, so running a failed cell again repeats the
//! same failure: the supervisor reports it instead, and a later invocation
//! reruns it from step 0. A replay also always terminates, within a step
//! count fixed by its trace (see [`SimEngine::run`]), so no wall-clock
//! watchdog guards it.

use crate::error::{HarnessError, RunFailure};
use crate::storage::{FaultyStorage, RealStorage, Storage};
use crate::store::{result_file_name, ResultStore};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use warden_coherence::ProtocolId;
use warden_pbbs::{Bench, Scale};
use warden_rt::TraceProgram;
use warden_sim::checkpoint;
use warden_sim::{Comparison, MachineConfig, RunKey, SimEngine, SimOptions, SimOutcome};

/// What one campaign run simulates: a PBBS benchmark at a scale, or an
/// arbitrary trace builder (the ablations' custom programs).
#[derive(Clone)]
pub struct Workload {
    token: String,
    builder: Builder,
}

#[derive(Clone)]
enum Builder {
    Bench(Bench, Scale),
    Custom(Arc<dyn Fn() -> TraceProgram + Send + Sync>),
}

impl Workload {
    /// A PBBS suite benchmark at the given scale.
    pub fn bench(bench: Bench, scale: Scale) -> Workload {
        Workload {
            token: bench.token(scale),
            builder: Builder::Bench(bench, scale),
        }
    }

    /// An arbitrary trace builder. The `token` names the workload in run
    /// identities — two customs with the same token are assumed to build
    /// the same program.
    pub fn custom(
        token: impl Into<String>,
        build: impl Fn() -> TraceProgram + Send + Sync + 'static,
    ) -> Workload {
        Workload {
            token: format!("custom:{}", token.into()),
            builder: Builder::Custom(Arc::new(build)),
        }
    }

    /// The workload's identity token, hashed into [`RunKey::program`]
    /// (`bench:<name>:<Scale>` or `custom:<token>`).
    pub fn token(&self) -> &str {
        &self.token
    }

    /// Build the trace program (potentially expensive).
    pub fn build(&self) -> TraceProgram {
        match &self.builder {
            Builder::Bench(b, scale) => b.build(*scale),
            Builder::Custom(f) => f(),
        }
    }
}

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Workload").field(&self.token).finish()
    }
}

/// One cell of the campaign matrix: a workload on a machine under a
/// protocol with simulator options.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Unique id within the campaign (names the run in the manifest).
    pub id: String,
    /// What to simulate.
    pub workload: Workload,
    /// The machine description.
    pub machine: MachineConfig,
    /// The coherence protocol.
    pub protocol: ProtocolId,
    /// Simulator options (energy model, checker, fault plan).
    pub opts: SimOptions,
}

impl RunSpec {
    /// The cell's identity: the key its result entry is stored under.
    /// Changing any input re-runs the cell; the id is not part of it.
    pub fn key(&self) -> RunKey {
        RunKey::new(
            self.workload.token(),
            &self.machine,
            self.protocol,
            &self.opts,
        )
    }
}

/// Supervisor policy for one campaign invocation.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Campaign state directory: a result store plus the manifest.
    pub dir: PathBuf,
    /// Worker threads executing runs.
    pub workers: usize,
    /// Suppress progress lines on stderr.
    pub quiet: bool,
    /// Test hook: stop the supervisor after this many completions in this
    /// invocation, leaving the rest queued (simulates a mid-campaign kill).
    #[doc(hidden)]
    pub abort_after_runs: Option<usize>,
    /// Test hook: put the result store on this fault-injecting storage
    /// instead of the real filesystem.
    #[doc(hidden)]
    pub storage_faults: Option<Arc<FaultyStorage>>,
}

impl CampaignConfig {
    /// A durable campaign rooted at `dir`, run by up to 4 workers.
    pub fn new(dir: impl Into<PathBuf>) -> CampaignConfig {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().min(4))
            .unwrap_or(1);
        CampaignConfig {
            dir: dir.into(),
            workers,
            quiet: false,
            abort_after_runs: None,
            storage_faults: None,
        }
    }

    /// A campaign in a fresh directory under the system temp dir, claimed
    /// by [`checkpoint::unique_dir`] (`warden-campaign-<pid>-<n>`), so
    /// stale state never carries over and concurrent ephemeral campaigns
    /// never share a directory. Used when no `--campaign-dir` is given:
    /// the binaries still get panic isolation without durable resume. If
    /// no directory can be created, [`run_campaign`] reports the I/O error.
    pub fn ephemeral() -> CampaignConfig {
        let tmp = std::env::temp_dir();
        let name = "warden-campaign";
        CampaignConfig::new(
            checkpoint::unique_dir(&tmp, name)
                .unwrap_or_else(|_| tmp.join(format!("{name}-{}", std::process::id()))),
        )
    }
}

/// One finished run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The spec's id.
    pub id: String,
    /// The simulation outcome.
    pub outcome: SimOutcome,
    /// True when the outcome was loaded from a prior invocation's record
    /// instead of being simulated again.
    pub reused: bool,
}

// ---------------------------------------------------------------------------
// The manifest.

#[derive(Clone)]
struct ManifestEntry {
    status: &'static str,
    record: String,
    note: String,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn render_manifest(entries: &BTreeMap<String, ManifestEntry>) -> String {
    let mut s = String::from("{\n  \"version\": 2,\n  \"runs\": [\n");
    let last = entries.len().saturating_sub(1);
    for (i, (id, e)) in entries.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"id\": {}, \"status\": \"{}\", \"record\": {}, \"note\": {}}}{}\n",
            json_str(id),
            e.status,
            json_str(&e.record),
            json_str(&e.note),
            if i == last { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

// ---------------------------------------------------------------------------
// The supervisor.

struct Shared<'a> {
    specs: &'a [RunSpec],
    cfg: &'a CampaignConfig,
    keys: Vec<RunKey>,
    store: ResultStore,
    /// The cells still to execute, one group per workload token.
    queue: Mutex<VecDeque<Vec<usize>>>,
    slots: Mutex<Vec<Option<RunResult>>>,
    manifest: Mutex<BTreeMap<String, ManifestEntry>>,
    failures: Mutex<Vec<RunFailure>>,
    completed: AtomicUsize,
}

impl Shared<'_> {
    fn write_manifest(&self) {
        // The lock is held through the write: every write goes through the
        // same `manifest.json.tmp`, and the latest entries must land last.
        let entries = self.manifest.lock().expect("manifest lock");
        // Manifest persistence is best-effort derived state; the result
        // entries are authoritative, so a failed write must not fail the
        // run that just completed.
        if let Err(e) = checkpoint::write_atomic(
            &self.cfg.dir.join("manifest.json"),
            render_manifest(&entries).as_bytes(),
        ) {
            if !self.cfg.quiet {
                eprintln!("  [warn] cannot write manifest: {e}");
            }
        }
    }

    fn set_status(&self, id: &str, status: &'static str, note: String) {
        if let Some(e) = self.manifest.lock().expect("manifest lock").get_mut(id) {
            e.status = status;
            e.note = note;
        }
        self.write_manifest();
    }

    /// Whether the `abort_after_runs` test hook has stopped the supervisor.
    /// It counts completed cells and is consulted before each cell.
    fn stopped(&self) -> bool {
        let completed = self.completed.load(Ordering::Relaxed);
        self.cfg
            .abort_after_runs
            .is_some_and(|limit| completed >= limit)
    }

    /// Persist and record cell `i`'s outcome, or note why it failed.
    fn finish(&self, i: usize, outcome: Result<SimOutcome, String>) {
        let spec = &self.specs[i];
        // Without a durable record the result would silently vanish on
        // resume; treat persist failure as run failure.
        let outcome = outcome.and_then(|o| {
            self.store
                .put_result(&self.keys[i], &o)
                .map(|()| o)
                .map_err(|e| format!("cannot persist result record: {e}"))
        });
        match outcome {
            Ok(outcome) => {
                self.slots.lock().expect("slots lock")[i] = Some(RunResult {
                    id: spec.id.clone(),
                    outcome,
                    reused: false,
                });
                self.set_status(&spec.id, "done", String::new());
                self.completed.fetch_add(1, Ordering::Relaxed);
                if !self.cfg.quiet {
                    eprintln!("  [done] {}", spec.id);
                }
            }
            Err(reason) => {
                let fail = RunFailure {
                    id: spec.id.clone(),
                    reason,
                };
                if !self.cfg.quiet {
                    eprintln!("  [fail] {fail}");
                }
                self.set_status(&spec.id, "failed", fail.reason.clone());
                self.failures.lock().expect("failures lock").push(fail);
            }
        }
    }
}

/// Simulate one spec against its workload's program from step 0 to
/// completion, once, under `catch_unwind`: a panic becomes the reason the
/// run failed.
fn run_one(program: &TraceProgram, spec: &RunSpec) -> Result<SimOutcome, String> {
    catch_unwind(AssertUnwindSafe(|| {
        SimEngine::new(program, &spec.machine, spec.protocol, &spec.opts).run()
    }))
    .map_err(|payload| format!("panicked: {}", panic_message(payload.as_ref())))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn worker(sh: &Shared<'_>) {
    while !sh.stopped() {
        let next = sh.queue.lock().expect("queue lock").pop_front();
        let Some(group) = next else { break };
        // One capture serves the whole group; it is dropped before the next
        // claim, so a worker holds one trace at a time.
        let program = catch_unwind(AssertUnwindSafe(|| sh.specs[group[0]].workload.build()))
            .map_err(|payload| {
                format!(
                    "trace capture panicked: {}",
                    panic_message(payload.as_ref())
                )
            });
        for i in group {
            if sh.stopped() {
                return;
            }
            let outcome = program.as_ref().map_err(Clone::clone);
            sh.finish(i, outcome.and_then(|p| run_one(p, &sh.specs[i])));
        }
    }
}

/// Run a campaign over `specs`, resuming from any completed work already
/// stored under the campaign directory. The cells left to execute are
/// grouped by workload token (groups in order of first appearance, cells in
/// spec order), and each group's trace is captured once. Results come back
/// in spec order.
///
/// # Errors
///
/// [`HarnessError::RunsFailed`] when any run failed (it or its group's
/// trace capture panicked, or its record could not be persisted),
/// [`HarnessError::Aborted`] when the `abort_after_runs` test hook stopped
/// the supervisor with cells left to run, [`HarnessError::Failed`] when
/// two specs share an id or a [`RunKey`], and I/O errors for an unusable
/// campaign directory.
/// Completed runs stay durable across all of these — re-invoking resumes
/// from them.
pub fn run_campaign(
    specs: &[RunSpec],
    cfg: &CampaignConfig,
) -> Result<Vec<RunResult>, HarnessError> {
    let keys: Vec<RunKey> = specs.iter().map(RunSpec::key).collect();
    {
        let mut ids = std::collections::HashSet::new();
        let mut cells = std::collections::HashMap::new();
        for (s, key) in specs.iter().zip(&keys) {
            if !ids.insert(&s.id) {
                return Err(HarnessError::Failed(format!(
                    "duplicate campaign run id {:?}",
                    s.id
                )));
            }
            if let Some(first) = cells.insert(key, &s.id) {
                return Err(HarnessError::Failed(format!(
                    "campaign runs {first:?} and {:?} simulate the same cell",
                    s.id
                )));
            }
        }
    }
    let storage: Arc<dyn Storage> = match &cfg.storage_faults {
        Some(faulty) => faulty.clone(),
        None => Arc::new(RealStorage),
    };
    let store = ResultStore::open(&cfg.dir, storage).map_err(|msg| HarnessError::Io {
        path: cfg.dir.clone(),
        source: std::io::Error::other(msg),
    })?;

    let mut slots: Vec<Option<RunResult>> = Vec::with_capacity(specs.len());
    let mut manifest = BTreeMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of = std::collections::HashMap::new();
    for (i, (spec, key)) in specs.iter().zip(&keys).enumerate() {
        let reused = store.result(key);
        let status = if reused.is_some() { "done" } else { "pending" };
        manifest.insert(
            spec.id.clone(),
            ManifestEntry {
                status,
                record: result_file_name(key),
                note: String::new(),
            },
        );
        match reused {
            Some(outcome) => slots.push(Some(RunResult {
                id: spec.id.clone(),
                outcome,
                reused: true,
            })),
            None => {
                slots.push(None);
                let g = *group_of.entry(spec.workload.token()).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[g].push(i);
            }
        }
    }
    let to_execute: usize = groups.iter().map(Vec::len).sum();
    if !cfg.quiet {
        eprintln!(
            "campaign: {} run(s), {} reused from records, {} to execute, \
             {} workload(s) to capture ({} worker(s))",
            specs.len(),
            specs.len() - to_execute,
            to_execute,
            groups.len(),
            cfg.workers.max(1)
        );
    }

    let sh = Shared {
        specs,
        cfg,
        keys,
        store,
        queue: Mutex::new(groups.into()),
        slots: Mutex::new(slots),
        manifest: Mutex::new(manifest),
        failures: Mutex::new(Vec::new()),
        completed: AtomicUsize::new(0),
    };
    sh.write_manifest();

    if to_execute > 0 {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..cfg.workers.max(1))
                .map(|_| scope.spawn(|| worker(&sh)))
                .collect();
            for handle in workers {
                if handle.join().is_err() {
                    // Workers isolate run panics internally; a panic here is
                    // a supervisor bug — surface it as a campaign failure.
                    sh.failures.lock().expect("failures lock").push(RunFailure {
                        id: "(supervisor)".into(),
                        reason: "worker thread panicked outside run isolation".into(),
                    });
                }
            }
        });
    }

    let stopped = sh.stopped();
    let failures = sh.failures.into_inner().expect("failures lock");
    if !failures.is_empty() {
        return Err(HarnessError::RunsFailed(failures));
    }
    let slots = sh.slots.into_inner().expect("slots lock");
    let mut out = Vec::with_capacity(specs.len());
    for (spec, slot) in specs.iter().zip(slots) {
        match slot {
            Some(r) => out.push(r),
            None if stopped => {
                return Err(HarnessError::Aborted {
                    completed: sh.completed.into_inner(),
                })
            }
            None => {
                return Err(HarnessError::Failed(format!(
                    "campaign ended without a result for {:?}",
                    spec.id
                )))
            }
        }
    }
    Ok(out)
}

/// One figure panel of a [`protocol_campaign`]: a machine, the benchmarks
/// and the protocols it runs them under (the first is the agreement
/// reference).
pub type Panel<'a> = (&'a MachineConfig, &'a [Bench], &'a [ProtocolId]);

/// One benchmark's outcomes across a [`Panel`]'s protocol list. All
/// outcomes agree on the final memory image — the campaign verified it.
#[derive(Clone, Debug)]
pub struct ProtocolRun {
    /// The benchmark.
    pub bench: Bench,
    /// One outcome per requested protocol, in request order.
    pub outcomes: Vec<SimOutcome>,
}

impl ProtocolRun {
    /// The outcome under `protocol`, if the run requested it.
    pub fn outcome(&self, protocol: ProtocolId) -> Option<&SimOutcome> {
        self.outcomes.iter().find(|o| o.protocol == protocol)
    }

    /// WARDen compared against the MESI baseline.
    ///
    /// # Panics
    ///
    /// Panics, naming the benchmark, if the run lacks either protocol —
    /// the caller asked for a comparison it did not simulate.
    pub fn comparison(&self) -> Comparison {
        let name = self.bench.name();
        let get = |p| {
            self.outcome(p)
                .unwrap_or_else(|| panic!("{name}: the run has no {p} outcome to compare"))
        };
        Comparison::of(name, get(ProtocolId::Mesi), get(ProtocolId::Warden))
    }
}

/// Run every panel's `benches` × `protocols` at `scale` through one
/// campaign, so each benchmark's trace is captured once whatever the
/// number of panels, machines and protocols it appears in. Returns one
/// `Vec<ProtocolRun>` per panel, in panel order. Every protocol must
/// produce the same final memory image as its panel's first (the
/// reference); a disagreement is a typed error naming the machine, the
/// benchmark and the diverging protocol, not a panic. When the invariant
/// checker is on ([`SimOptions::check`]), any reported violation also
/// fails the campaign.
pub fn protocol_campaign(
    panels: &[Panel<'_>],
    scale: Scale,
    opts: &SimOptions,
    cfg: &CampaignConfig,
) -> Result<Vec<Vec<ProtocolRun>>, HarnessError> {
    if panels.iter().any(|(_, _, protocols)| protocols.is_empty()) {
        return Err(HarnessError::Failed(
            "a protocol campaign needs at least one protocol per panel".into(),
        ));
    }
    let scale_token = format!("{scale:?}").to_lowercase();
    let mut specs = Vec::new();
    for &(machine, benches, protocols) in panels {
        for &bench in benches {
            for &protocol in protocols {
                specs.push(RunSpec {
                    id: format!(
                        "{}/{scale_token}/{}/{}",
                        machine.name,
                        bench.name(),
                        protocol.name()
                    ),
                    workload: Workload::bench(bench, scale),
                    machine: machine.clone(),
                    protocol,
                    opts: opts.clone(),
                });
            }
        }
    }
    let mut outcomes = run_campaign(&specs, cfg)?.into_iter().map(|r| r.outcome);
    panels
        .iter()
        .map(|&(machine, benches, protocols)| {
            benches
                .iter()
                .map(|&bench| {
                    let outcomes: Vec<SimOutcome> =
                        outcomes.by_ref().take(protocols.len()).collect();
                    let name = format!("{}/{}", machine.name, bench.name());
                    check_agreement(&name, protocols, &outcomes)?;
                    Ok(ProtocolRun { bench, outcomes })
                })
                .collect()
        })
        .collect()
}

/// Every outcome must match the first protocol's final memory image and
/// report no invariant violation; `name` labels the group in the error.
pub(crate) fn check_agreement(
    name: &str,
    protocols: &[ProtocolId],
    outcomes: &[SimOutcome],
) -> Result<(), HarnessError> {
    let reference = outcomes[0].memory_image_digest;
    for (o, &p) in outcomes.iter().zip(protocols) {
        if o.memory_image_digest != reference {
            return Err(HarnessError::Failed(format!(
                "{name}: protocol {} diverged from {} on the final memory image \
                 ({:#018x} vs {:#018x})",
                p.name(),
                protocols[0].name(),
                o.memory_image_digest,
                reference,
            )));
        }
        if !o.violations.is_empty() {
            return Err(HarnessError::Failed(format!(
                "{name}: protocol {} reported {} invariant violation(s); first: {}",
                p.name(),
                o.violations.len(),
                o.violations[0],
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn spec(id: &str, protocol: ProtocolId) -> RunSpec {
        RunSpec {
            id: id.into(),
            workload: Workload::bench(Bench::MakeArray, Scale::Tiny),
            machine: MachineConfig::dual_socket().with_cores(2),
            protocol,
            opts: SimOptions::default(),
        }
    }

    fn quiet(cfg: CampaignConfig) -> CampaignConfig {
        CampaignConfig {
            quiet: true,
            workers: 1,
            ..cfg
        }
    }

    /// A benchmark workload's token is the suite's own token for it, and
    /// each of the key's four components separates cells.
    #[test]
    fn bench_tokens_agree_and_keys_separate_matrix_cells() {
        for bench in Bench::ALL {
            for scale in [Scale::Tiny, Scale::Paper] {
                assert_eq!(Workload::bench(bench, scale).token(), bench.token(scale));
            }
        }
        let base = spec("cell", ProtocolId::Mesi);
        assert_eq!(base.key(), base.clone().key());
        let mut other = base.clone();
        other.id = "renamed".into();
        assert_eq!(base.key(), other.key(), "the id is not part of the cell");
        let mut variants = vec![base.clone(); 4];
        variants[0].workload = Workload::bench(Bench::MakeArray, Scale::Paper);
        variants[1].machine = MachineConfig::single_socket();
        variants[2].protocol = ProtocolId::Warden;
        variants[3].opts.check = true;
        for other in variants {
            assert_ne!(base.key(), other.key(), "{other:?}");
        }
    }

    /// A finished run is stored under its key and found by any spec of the
    /// same cell, whatever its id; a different cell misses.
    #[test]
    fn records_are_found_by_key_not_by_id() {
        let cfg = quiet(CampaignConfig::ephemeral());
        let first = run_campaign(&[spec("a", ProtocolId::Mesi)], &cfg).expect("first run");
        let again = run_campaign(&[spec("b", ProtocolId::Mesi)], &cfg).expect("second run");
        assert!(again[0].reused, "same cell, new id: reused");
        assert_eq!(
            again[0].outcome.memory_image_digest,
            first[0].outcome.memory_image_digest
        );
        let other = run_campaign(&[spec("c", ProtocolId::Warden)], &cfg).expect("other cell");
        assert!(!other[0].reused, "another protocol is another cell");
        let store = ResultStore::open(&cfg.dir, Arc::new(RealStorage))
            .expect("the campaign directory is a result store");
        let key = spec("a", ProtocolId::Mesi).key();
        assert!(cfg.dir.join(result_file_name(&key)).is_file());
        assert!(store.result(&key).is_some());
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn an_empty_protocol_list_is_a_typed_error() {
        let cfg = quiet(CampaignConfig::ephemeral());
        let machine = MachineConfig::dual_socket().with_cores(2);
        let panel: Panel = (&machine, &[Bench::MakeArray], &[]);
        let err =
            protocol_campaign(&[panel], Scale::Tiny, &SimOptions::default(), &cfg).unwrap_err();
        assert!(matches!(err, HarnessError::Failed(_)), "{err}");
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn a_divergence_is_reported_on_one_line() {
        let program = Bench::MakeArray.build(Scale::Tiny);
        let machine = MachineConfig::dual_socket().with_cores(2);
        let out = warden_sim::simulate(&program, &machine, ProtocolId::Mesi);
        let mut diverged = out.clone();
        diverged.memory_image_digest ^= 1;
        let protocols = [ProtocolId::Mesi, ProtocolId::Warden];
        check_agreement("make_array", &protocols, &[out.clone(), out.clone()])
            .expect("equal images agree");
        let err = check_agreement("make_array", &protocols, &[out, diverged]).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("final memory image (0x"),
            "one space before the digests: {msg}"
        );
        assert!(!msg.contains("  "), "no run of spaces: {msg}");
    }

    #[test]
    fn manifest_renders_escaped_json() {
        let mut entries = BTreeMap::new();
        entries.insert(
            "a\"b".to_string(),
            ManifestEntry {
                status: "done",
                record: "0123456789abcdef.rec".into(),
                note: "line\nbreak".into(),
            },
        );
        let s = render_manifest(&entries);
        assert!(s.contains(r#""id": "a\"b""#), "{s}");
        assert!(s.contains(r#""status": "done""#));
        assert!(s.contains(r#""note": "line\nbreak""#));
        assert!(s.ends_with("  ]\n}\n"));
    }

    #[test]
    fn duplicate_ids_and_duplicate_cells_are_rejected() {
        let cfg = CampaignConfig::ephemeral();
        let dup = spec("dup", ProtocolId::Mesi);
        let err = run_campaign(&[dup.clone(), dup], &cfg).unwrap_err();
        assert!(matches!(err, HarnessError::Failed(_)));
        let err = run_campaign(
            &[spec("one", ProtocolId::Mesi), spec("two", ProtocolId::Mesi)],
            &cfg,
        )
        .unwrap_err();
        assert!(err.to_string().contains("same cell"), "{err}");
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    /// Workers finishing at once all persist their manifest updates: once
    /// `set_status` returns, `manifest.json` shows it, and the last write
    /// lists every run as done.
    #[test]
    fn concurrent_manifest_updates_all_persist() {
        const THREADS: usize = 4;
        const RUNS: usize = 25;
        let specs: Vec<RunSpec> = (0..THREADS * RUNS)
            .map(|i| spec(&format!("run-{i}"), ProtocolId::Mesi))
            .collect();
        let cfg = quiet(CampaignConfig::ephemeral());
        let manifest = specs
            .iter()
            .map(|s| {
                let entry = ManifestEntry {
                    status: "pending",
                    record: result_file_name(&s.key()),
                    note: String::new(),
                };
                (s.id.clone(), entry)
            })
            .collect();
        let sh = Shared {
            specs: &specs,
            cfg: &cfg,
            keys: specs.iter().map(RunSpec::key).collect(),
            store: ResultStore::open(&cfg.dir, Arc::new(RealStorage)).expect("open store"),
            queue: Mutex::new(VecDeque::new()),
            slots: Mutex::new(Vec::new()),
            manifest: Mutex::new(manifest),
            failures: Mutex::new(Vec::new()),
            completed: AtomicUsize::new(0),
        };
        sh.write_manifest();
        let path = cfg.dir.join("manifest.json");
        let shows = |id: &str, status: &str| {
            let text = fs::read_to_string(&path).unwrap_or_default();
            text.contains(&format!(
                "{{\"id\": {}, \"status\": \"{status}\"",
                json_str(id)
            ))
        };
        std::thread::scope(|s| {
            for chunk in specs.chunks(RUNS) {
                let (sh, shows) = (&sh, &shows);
                s.spawn(move || {
                    for spec in chunk {
                        sh.set_status(&spec.id, "running", String::new());
                        sh.set_status(&spec.id, "done", String::new());
                        assert!(shows(&spec.id, "done"), "{} not persisted", spec.id);
                    }
                });
            }
        });
        for spec in &specs {
            assert!(
                shows(&spec.id, "done"),
                "final manifest: {} not done",
                spec.id
            );
        }
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    /// Ephemeral campaigns running at once in one process each get their
    /// own directory, so none deletes another's records mid-run.
    #[test]
    fn concurrent_ephemeral_campaigns_all_succeed() {
        let specs: Vec<RunSpec> = [Bench::MakeArray, Bench::Primes, Bench::Fib]
            .into_iter()
            .flat_map(|bench| {
                [ProtocolId::Mesi, ProtocolId::Warden].map(|protocol| RunSpec {
                    id: format!("{}-{}", bench.name(), protocol.name()),
                    workload: Workload::bench(bench, Scale::Tiny),
                    machine: MachineConfig::dual_socket().with_cores(2),
                    protocol,
                    opts: SimOptions::default(),
                })
            })
            .collect();
        let dirs: Vec<PathBuf> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    s.spawn(|| {
                        let cfg = CampaignConfig {
                            quiet: true,
                            workers: 1,
                            ..CampaignConfig::ephemeral()
                        };
                        let results = run_campaign(&specs, &cfg).expect("campaign succeeds");
                        assert_eq!(results.len(), specs.len());
                        assert!(results.iter().all(|r| !r.reused), "fresh directory");
                        cfg.dir
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let unique: std::collections::HashSet<_> = dirs.iter().collect();
        assert_eq!(
            unique.len(),
            dirs.len(),
            "every campaign owns its directory"
        );
        for dir in &dirs {
            let _ = fs::remove_dir_all(dir);
        }
    }
}
