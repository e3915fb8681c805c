//! Strict command-line parsing shared by every harness binary.
//!
//! All binaries share one flag vocabulary, and each names the subset it
//! reads. Anything starting with `--` that is not in the list below is
//! rejected with an error naming the valid flags — a typo like `--chek`
//! fails the run instead of silently proceeding unchecked — and a valid
//! flag the binary does not read is rejected with an error naming the ones
//! it does, so `breakdown --obs d` fails instead of writing nothing to `d`.
//!
//! | flag                   | meaning |
//! |------------------------|---------|
//! | `--scale tiny\|paper`  | input scale (default `paper`) |
//! | `--check`              | run the coherence invariant checker |
//! | `--faults <seed>`      | inject the benign seeded fault plan |
//! | `--markdown <path>`    | `all_figures`: also write the report as markdown |
//! | `--obs <dir>`          | `all_figures`, `replay`: record one direct run per protocol; export traces + epoch tables here |
//! | `--campaign-dir <dir>` | durable campaign state (resume after a crash) |
//! | `--jobs <n>`           | campaign worker threads |
//! | `--quiet`              | suppress campaign progress lines |
//! | `--fuzz-workloads <n>` | `fuzzgen`: generated workloads per gate run |
//! | `--fuzz-seed <seed>`   | `fuzzgen`: workload-generator stream seed |
//! | `--protocols <names|all>` | `replay`, `fuzzgen`: protocols to run |
//! | `--patterns <names|all>` | `fuzzgen`: sharing patterns to generate |
//! | `--mutate <protocol:mutation>` | `fuzzgen`: inject a protocol defect the gate must catch |
//! | `--artifacts <dir>`    | `fuzzgen`: archive shrunk failing seeds here |
//! | `--atlas <dir>`        | `fuzzgen`: run the coherence-atlas sweep into this directory |
//! | `--replay <token>`     | `fuzzgen`: re-check one archived workload token |
//!
//! Non-flag arguments are collected in [`HarnessArgs::positional`] for the
//! binaries that take them (`record`, `replay`).

use crate::campaign::CampaignConfig;
use crate::error::HarnessError;
use std::path::PathBuf;
use warden_coherence::{ProtocolId, ProtocolMutation};
use warden_pbbs::Scale;
use warden_rt::workload::SharingPattern;
use warden_sim::{FaultPlan, SimOptions};

/// Every flag the harness binaries understand, with value placeholders —
/// printed by the unknown-flag error.
pub const VALID_FLAGS: &[&str] = &[
    "--artifacts <dir>",
    "--atlas <dir>",
    "--campaign-dir <dir>",
    "--check",
    "--faults <seed>",
    "--fuzz-seed <seed>",
    "--fuzz-workloads <n>",
    "--jobs <n>",
    "--markdown <path>",
    "--mutate <protocol:mutation>",
    "--obs <dir>",
    "--patterns <names|all>",
    "--protocols <names|all>",
    "--quiet",
    "--replay <token>",
    "--scale <tiny|paper>",
];

/// Parsed command line shared by the harness binaries.
#[derive(Clone, Debug, Default)]
pub struct HarnessArgs {
    /// Input scale (`--scale`, default paper).
    pub scale: Scale,
    /// `--check`: run the coherence invariant checker on every simulated
    /// run ([`SimOptions::check`]).
    pub check: bool,
    /// `--faults <seed>`: replay every run under the benign seeded fault
    /// plan ([`FaultPlan::benign`]: CAM-exhaustion storms, forced
    /// reconciliations, latency spikes), none of which may change the
    /// final memory image.
    pub faults: Option<u64>,
    /// `--markdown <path>`, if given.
    pub markdown: Option<PathBuf>,
    /// `--obs <dir>`: `all_figures` and `replay` record one direct run per
    /// protocol and write Perfetto trace + epoch-summary exports into this
    /// directory. Campaign runs never record.
    pub obs: Option<PathBuf>,
    /// `--campaign-dir <dir>`, if given (otherwise campaigns use an
    /// ephemeral directory under the system temp dir).
    pub campaign_dir: Option<PathBuf>,
    /// `--jobs <n>` override for the campaign worker count.
    pub jobs: Option<usize>,
    /// `--quiet`: suppress campaign progress lines on stderr.
    pub quiet: bool,
    /// `--protocols <names|all>`: which registered coherence protocols a
    /// binary runs, as comma-separated registry names (`mesi,warden,si`) or
    /// `all`. `None` keeps each binary's default (usually MESI + WARDen).
    pub protocols: Option<Vec<ProtocolId>>,
    /// `--fuzz-workloads <n>`: generated workloads per `fuzzgen` gate run.
    pub fuzz_workloads: Option<usize>,
    /// `--fuzz-seed <seed>`: the workload-generator stream seed.
    pub fuzz_seed: Option<u64>,
    /// `--patterns <names|all>`: the sharing patterns `fuzzgen` generates,
    /// as comma-separated registry names (`ping-pong,migratory`) or `all`.
    pub patterns: Option<Vec<SharingPattern>>,
    /// `--mutate <protocol:mutation>`: a deliberate protocol defect the
    /// fuzz gate must catch (e.g. `si:skip-self-invalidate`).
    pub mutate: Option<(ProtocolId, ProtocolMutation)>,
    /// `--artifacts <dir>`: where `fuzzgen` archives shrunk failing seeds.
    pub artifacts: Option<PathBuf>,
    /// `--atlas <dir>`: run the coherence-atlas sweep and write its figure
    /// + records files into this directory.
    pub atlas: Option<PathBuf>,
    /// `--replay <token>`: re-check one archived workload token instead of
    /// generating a stream.
    pub replay: Option<String>,
    /// Non-flag arguments, in order (used by `record` and `replay`).
    pub positional: Vec<String>,
}

/// Parse a `--patterns` value: `all` or comma-separated pattern names,
/// resolved through [`SharingPattern::from_name`] so an unknown name is a
/// typed usage error listing the registry.
pub fn parse_patterns(v: &str) -> Result<Vec<SharingPattern>, HarnessError> {
    if v == "all" {
        return Ok(SharingPattern::ALL.to_vec());
    }
    let mut out = Vec::new();
    for name in v.split(',').map(str::trim).filter(|n| !n.is_empty()) {
        let p = SharingPattern::from_name(name).map_err(|e| HarnessError::Args(e.to_string()))?;
        if !out.contains(&p) {
            out.push(p);
        }
    }
    if out.is_empty() {
        return Err(HarnessError::Args(
            "--patterns needs at least one pattern name (or `all`)".into(),
        ));
    }
    Ok(out)
}

/// Parse a `--protocols` value: `all` or comma-separated registry names,
/// resolved through [`ProtocolId::from_name`] so an unknown name is a typed
/// usage error listing the registry.
pub fn parse_protocols(v: &str) -> Result<Vec<ProtocolId>, HarnessError> {
    if v == "all" {
        return Ok(ProtocolId::ALL.to_vec());
    }
    let mut out = Vec::new();
    for name in v.split(',').map(str::trim).filter(|n| !n.is_empty()) {
        let p = ProtocolId::from_name(name).map_err(|e| HarnessError::Args(e.to_string()))?;
        if !out.contains(&p) {
            out.push(p);
        }
    }
    if out.is_empty() {
        return Err(HarnessError::Args(
            "--protocols needs at least one protocol name (or `all`)".into(),
        ));
    }
    Ok(out)
}

/// The name of a [`VALID_FLAGS`] entry, without its value placeholder.
fn flag_name(entry: &str) -> &str {
    entry.split(' ').next().unwrap_or(entry)
}

/// A valid flag that the running binary does not read.
fn not_read(flag: &str, reads: &[&str]) -> HarnessError {
    let listed: Vec<&str> = VALID_FLAGS
        .iter()
        .copied()
        .filter(|f| reads.contains(&flag_name(f)))
        .collect();
    HarnessError::Args(if listed.is_empty() {
        format!("this binary reads no flags, got {flag:?}")
    } else {
        format!(
            "this binary does not read {flag:?}; its flags: {}",
            listed.join(", ")
        )
    })
}

fn unknown(flag: &str) -> HarnessError {
    HarnessError::Args(format!(
        "unrecognized flag {flag:?}; valid flags: {}",
        VALID_FLAGS.join(", ")
    ))
}

fn value(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    placeholder: &str,
) -> Result<String, HarnessError> {
    it.next()
        .ok_or_else(|| HarnessError::Args(format!("{flag} needs a value: {flag} {placeholder}")))
}

fn number<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    placeholder: &str,
) -> Result<T, HarnessError> {
    let v = value(it, flag, placeholder)?;
    v.parse().map_err(|_| {
        HarnessError::Args(format!("{flag} needs a number ({placeholder}), got {v:?}"))
    })
}

impl HarnessArgs {
    /// Parse the process arguments for a binary that reads the flags named
    /// in `reads` (names without placeholders, such as `"--scale"`).
    /// Unknown `--` flags are rejected with an error listing
    /// [`VALID_FLAGS`]; a valid flag outside `reads` is rejected with an
    /// error listing `reads`.
    pub fn parse(reads: &[&str]) -> Result<HarnessArgs, HarnessError> {
        HarnessArgs::parse_from(std::env::args().skip(1), reads)
    }

    /// Parse from an explicit argument list (tests).
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        reads: &[&str],
    ) -> Result<HarnessArgs, HarnessError> {
        debug_assert!(
            reads
                .iter()
                .all(|r| VALID_FLAGS.iter().any(|f| flag_name(f) == *r)),
            "{reads:?} names a flag outside VALID_FLAGS"
        );
        let mut out = HarnessArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if a.starts_with("--") && !reads.contains(&a.as_str()) {
                return Err(if VALID_FLAGS.iter().any(|f| flag_name(f) == a) {
                    not_read(&a, reads)
                } else {
                    unknown(&a)
                });
            }
            match a.as_str() {
                "--check" => out.check = true,
                "--quiet" => out.quiet = true,
                "--scale" => {
                    let v = value(&mut it, "--scale", "<tiny|paper>")?;
                    out.scale = match v.as_str() {
                        "tiny" => Scale::Tiny,
                        "paper" => Scale::Paper,
                        _ => {
                            return Err(HarnessError::Args(format!(
                                "--scale must be `tiny` or `paper`, got {v:?}"
                            )))
                        }
                    };
                }
                "--faults" => out.faults = Some(number(&mut it, "--faults", "<seed>")?),
                "--markdown" => {
                    out.markdown = Some(PathBuf::from(value(&mut it, "--markdown", "<path>")?))
                }
                "--obs" => out.obs = Some(PathBuf::from(value(&mut it, "--obs", "<dir>")?)),
                "--campaign-dir" => {
                    out.campaign_dir =
                        Some(PathBuf::from(value(&mut it, "--campaign-dir", "<dir>")?))
                }
                "--jobs" => {
                    let n: usize = number(&mut it, "--jobs", "<n>")?;
                    if n == 0 {
                        return Err(HarnessError::Args("--jobs must be at least 1".into()));
                    }
                    out.jobs = Some(n);
                }
                "--protocols" => {
                    let v = value(&mut it, "--protocols", "<names|all>")?;
                    out.protocols = Some(parse_protocols(&v)?);
                }
                "--fuzz-workloads" => {
                    let n: usize = number(&mut it, "--fuzz-workloads", "<n>")?;
                    if n == 0 {
                        return Err(HarnessError::Args(
                            "--fuzz-workloads must be at least 1".into(),
                        ));
                    }
                    out.fuzz_workloads = Some(n);
                }
                "--fuzz-seed" => out.fuzz_seed = Some(number(&mut it, "--fuzz-seed", "<seed>")?),
                "--patterns" => {
                    let v = value(&mut it, "--patterns", "<names|all>")?;
                    out.patterns = Some(parse_patterns(&v)?);
                }
                "--mutate" => {
                    let v = value(&mut it, "--mutate", "<protocol:mutation>")?;
                    out.mutate = Some(crate::fuzz::parse_mutation_spec(&v)?);
                }
                "--artifacts" => {
                    out.artifacts = Some(PathBuf::from(value(&mut it, "--artifacts", "<dir>")?))
                }
                "--atlas" => out.atlas = Some(PathBuf::from(value(&mut it, "--atlas", "<dir>")?)),
                "--replay" => out.replay = Some(value(&mut it, "--replay", "<token>")?),
                _ if a.starts_with("--") => return Err(unknown(&a)),
                _ => out.positional.push(a),
            }
        }
        Ok(out)
    }

    /// The simulator options the robustness switches (`--check`,
    /// `--faults`) select.
    pub fn sim_options(&self) -> SimOptions {
        SimOptions {
            check: self.check,
            faults: self.faults.map(FaultPlan::benign),
            ..SimOptions::default()
        }
    }

    /// The campaign configuration these flags select: durable under
    /// `--campaign-dir`, otherwise a fresh ephemeral directory,
    /// with `--jobs` and `--quiet` applied.
    pub fn campaign_config(&self) -> CampaignConfig {
        let mut cfg = match &self.campaign_dir {
            Some(dir) => CampaignConfig::new(dir.clone()),
            None => CampaignConfig::ephemeral(),
        };
        if let Some(jobs) = self.jobs {
            cfg.workers = jobs;
        }
        cfg.quiet = self.quiet;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse as a binary that reads every flag.
    fn parse(args: &[&str]) -> Result<HarnessArgs, HarnessError> {
        let all: Vec<&str> = VALID_FLAGS.iter().map(|f| flag_name(f)).collect();
        HarnessArgs::parse_from(args.iter().map(|s| s.to_string()), &all)
    }

    #[test]
    fn defaults_and_full_vocabulary() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, Scale::Paper);
        assert!(!a.check && a.faults.is_none() && a.positional.is_empty());
        assert!(a.obs.is_none());

        let a = parse(&[
            "--scale",
            "tiny",
            "--check",
            "--faults",
            "7",
            "--markdown",
            "out.md",
            "--obs",
            "obs.out",
            "--campaign-dir",
            "camp",
            "--jobs",
            "3",
            "--quiet",
            "--fuzz-workloads",
            "5",
            "--fuzz-seed",
            "2023",
            "--patterns",
            "ping-pong,migratory",
            "--mutate",
            "si:skip-self-invalidate",
            "--artifacts",
            "seeds",
            "--atlas",
            "atlas.out",
            "--replay",
            "migratory-s0000000000000007-t4-r3-o24-f4096",
            "primes",
        ])
        .unwrap();
        assert_eq!(a.scale, Scale::Tiny);
        assert!(a.check);
        assert_eq!(a.faults, Some(7));
        assert_eq!(a.markdown.as_deref(), Some(std::path::Path::new("out.md")));
        assert_eq!(a.obs.as_deref(), Some(std::path::Path::new("obs.out")));
        assert_eq!(
            a.campaign_dir.as_deref(),
            Some(std::path::Path::new("camp"))
        );
        assert_eq!(a.jobs, Some(3));
        assert!(a.quiet);
        assert_eq!((a.fuzz_workloads, a.fuzz_seed), (Some(5), Some(2023)));
        assert_eq!(
            a.patterns.as_deref(),
            Some(&[SharingPattern::PingPong, SharingPattern::Migratory][..])
        );
        let (mp, mm) = a.mutate.expect("--mutate parsed");
        assert_eq!(mp, ProtocolId::SelfInv);
        assert!(matches!(mm, ProtocolMutation::SkipSelfInvalidate));
        assert_eq!(a.artifacts.as_deref(), Some(std::path::Path::new("seeds")));
        assert_eq!(a.atlas.as_deref(), Some(std::path::Path::new("atlas.out")));
        assert_eq!(
            a.replay.as_deref(),
            Some("migratory-s0000000000000007-t4-r3-o24-f4096")
        );
        assert_eq!(a.positional, vec!["primes".to_string()]);

        let cfg = a.campaign_config();
        assert_eq!(cfg.workers, 3);
        assert!(cfg.quiet);
    }

    #[test]
    fn run_options_select_sim_options() {
        let s = parse(&["--check", "--faults", "7"]).unwrap().sim_options();
        assert!(s.check);
        assert_eq!(s.faults.as_ref().map(|p| p.seed), Some(7));
        assert!(s.faults.unwrap().is_benign());
        let d = parse(&[]).unwrap().sim_options();
        assert!(!d.check && d.faults.is_none());
    }

    #[test]
    fn unknown_flags_are_rejected_with_the_valid_list() {
        let err = parse(&["--chek"]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let msg = err.to_string();
        assert!(msg.contains("--chek"), "{msg}");
        for flag in VALID_FLAGS {
            assert!(msg.contains(flag), "{msg} should list {flag}");
        }
        // Serve-stack knobs that no script set are gone, not ignored.
        for gone in ["--queue-cap", "--disk-budget", "--checkpoint-every"] {
            let msg = parse(&[gone, "1"]).unwrap_err().to_string();
            assert!(msg.contains("unrecognized flag"), "{gone}: {msg}");
            assert!(!VALID_FLAGS.iter().any(|f| f.starts_with(gone)), "{gone}");
        }
    }

    #[test]
    fn flags_a_binary_does_not_read_are_rejected() {
        let reads = ["--scale", "--quiet"];
        let parse_as =
            |args: &[&str]| HarnessArgs::parse_from(args.iter().map(|s| s.to_string()), &reads);
        let a = parse_as(&["--scale", "tiny", "--quiet", "primes"]).unwrap();
        assert_eq!(a.scale, Scale::Tiny);
        assert!(a.quiet);
        let err = parse_as(&["--obs", "d"]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let msg = err.to_string();
        assert!(msg.contains("\"--obs\""), "{msg}");
        assert!(
            msg.contains("--quiet, --scale <tiny|paper>") && !msg.contains("--check"),
            "{msg}"
        );
        // An unknown flag still lists the whole vocabulary.
        let msg = parse_as(&["--chek"]).unwrap_err().to_string();
        assert!(
            msg.contains("unrecognized flag") && msg.contains("--check"),
            "{msg}"
        );
        let msg = HarnessArgs::parse_from(["--check".to_string()], &[])
            .unwrap_err()
            .to_string();
        assert!(msg.contains("reads no flags"), "{msg}");
    }

    #[test]
    fn bad_values_are_rejected() {
        assert!(parse(&["--scale", "medium"]).is_err());
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--faults", "xyz"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        // Retired serve-stack, daemon and throughput-baseline flags fail
        // as unknown flags, whatever the value.
        for gone in [
            ["--queue-cap", "0"],
            ["--disk-budget", "0"],
            ["--checkpoint-every", "soon"],
            ["--addr", "127.0.0.1:0"],
            ["--uds", "sock"],
            ["--clients", "8"],
            ["--iters", "4"],
            ["--spawn", "1"],
            ["--chaos", "1"],
            ["--chaos-seed", "42"],
            ["--request-deadline-ms", "1500"],
            ["--cache-budget", "65536"],
            ["--disk-cache", "tier"],
            ["--storage-chaos", "1"],
            ["--storage-chaos-seed", "13"],
            ["--out", "BENCH.json"],
            ["--baseline", "before.json"],
            ["--runs", "3"],
        ] {
            let msg = parse(&gone).unwrap_err().to_string();
            assert!(msg.contains("unrecognized flag"), "{gone:?}: {msg}");
            assert!(
                !VALID_FLAGS
                    .iter()
                    .any(|f| f.split(' ').next() == Some(gone[0])),
                "{gone:?}"
            );
        }
        assert!(parse(&["--fuzz-workloads", "0"]).is_err());
        assert!(parse(&["--fuzz-seed", "lots"]).is_err());
        assert!(parse(&["--patterns", "zigzag"]).is_err());
        assert!(parse(&["--patterns", ""]).is_err());
        assert!(parse(&["--mutate", "si"]).is_err());
        assert!(parse(&["--mutate", "si:nope"]).is_err());
        assert!(parse(&["--replay"]).is_err());
    }

    #[test]
    fn patterns_parse_all_and_dedupe() {
        assert_eq!(parse_patterns("all").unwrap(), SharingPattern::ALL.to_vec());
        assert_eq!(
            parse_patterns("migratory, migratory,ping-pong").unwrap(),
            vec![SharingPattern::Migratory, SharingPattern::PingPong]
        );
    }
}
