//! Running benchmarks under both protocols and collecting comparisons.

use crate::args::HarnessArgs;
use crate::error::HarnessError;
use warden_coherence::ProtocolId;
use warden_pbbs::{Bench, Scale};
use warden_rt::TraceProgram;
use warden_sim::{simulate, Comparison, FaultPlan, MachineConfig, SimOptions, SimOutcome};

/// Scale selection shared by the harness binaries (`--scale tiny` on the
/// command line switches every figure to fast test inputs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SuiteScale {
    /// Unit-test inputs, seconds for the whole set.
    Tiny,
    /// The evaluation inputs.
    #[default]
    Paper,
}

impl SuiteScale {
    /// Parse from process arguments (`--scale tiny|paper`, default paper).
    ///
    /// Parsing is strict: an unrecognized `--` flag anywhere on the command
    /// line is rejected with an error listing the valid flags
    /// ([`crate::args::VALID_FLAGS`]) — a typo like `--scael` fails the run
    /// instead of silently selecting the default.
    pub fn from_args() -> Result<SuiteScale, HarnessError> {
        Ok(HarnessArgs::parse()?.scale)
    }

    /// The pbbs scale this maps to.
    pub fn pbbs(self) -> Scale {
        match self {
            SuiteScale::Tiny => Scale::Tiny,
            SuiteScale::Paper => Scale::Paper,
        }
    }
}

/// Robustness switches shared by the harness binaries: `--check` turns on
/// the coherence invariant checker for every simulated run, and
/// `--faults <seed>` replays the run under the benign seeded fault plan
/// (CAM-exhaustion storms, forced reconciliations, latency spikes, degraded
/// links) — none of which may change the final memory image.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Enable the invariant checker ([`SimOptions::check`]).
    pub check: bool,
    /// Seed for [`FaultPlan::benign`], if fault injection was requested.
    pub faults: Option<u64>,
    /// Enable the observability recorder ([`SimOptions::obs`]): every run
    /// carries a protocol-event timeline, metrics registry, and per-epoch
    /// summaries in its outcome. Passive — stats and the final memory image
    /// are bit-identical with it on or off.
    pub obs: bool,
}

impl RunOptions {
    /// Parse from process arguments (`--check`, `--faults <seed>`).
    ///
    /// Parsing is strict: an unparsable seed or an unrecognized `--` flag
    /// is a hard error listing the valid flags
    /// ([`crate::args::VALID_FLAGS`]) — a typo like `--chek` fails the run
    /// instead of silently proceeding unchecked.
    pub fn from_args() -> Result<RunOptions, HarnessError> {
        Ok(HarnessArgs::parse()?.run)
    }

    /// The simulator options these switches select.
    pub fn sim_options(&self) -> SimOptions {
        SimOptions {
            check: self.check,
            faults: self.faults.map(FaultPlan::benign),
            obs: self.obs,
            ..SimOptions::default()
        }
    }
}

/// One benchmark's results on one machine: both runs and the comparison.
#[derive(Clone, Debug)]
pub struct BenchRun {
    /// Which benchmark.
    pub bench: Bench,
    /// The MESI baseline run.
    pub mesi: SimOutcome,
    /// The WARDen run.
    pub warden: SimOutcome,
    /// Derived comparison (speedup, savings, reductions).
    pub cmp: Comparison,
}

/// Run one traced program under both protocols on `machine`.
///
/// # Panics
///
/// Panics if the two protocols produce different final memory images —
/// WARDen's reconciliation must be semantically transparent.
pub fn run_pair(
    name: &str,
    program: &TraceProgram,
    machine: &MachineConfig,
) -> (SimOutcome, SimOutcome, Comparison) {
    let mesi = simulate(program, machine, ProtocolId::Mesi);
    let warden = simulate(program, machine, ProtocolId::Warden);
    assert_eq!(
        mesi.memory_image_digest, warden.memory_image_digest,
        "{name}: protocols disagree on the final memory image"
    );
    let cmp = Comparison::of(name, &mesi, &warden);
    (mesi, warden, cmp)
}

/// Trace and run one benchmark under both protocols.
pub fn run_bench(bench: Bench, scale: Scale, machine: &MachineConfig) -> BenchRun {
    let program = bench.build(scale);
    let (mesi, warden, cmp) = run_pair(bench.name(), &program, machine);
    BenchRun {
        bench,
        mesi,
        warden,
        cmp,
    }
}

/// Run a set of benchmarks in-process, printing one progress line each.
///
/// This is the unsupervised path kept for tests and library callers; the
/// harness binaries route through [`crate::campaign::campaign_suite`],
/// which adds panic isolation, watchdog deadlines, retries and durable
/// crash-safe resume.
pub fn suite(benches: &[Bench], scale: Scale, machine: &MachineConfig) -> Vec<BenchRun> {
    benches
        .iter()
        .map(|&b| {
            eprint!("  {:<14}\r", b.name());
            run_bench(b, scale, machine)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_consistent_images() {
        let m = MachineConfig::single_socket().with_cores(2);
        let r = run_bench(Bench::MakeArray, Scale::Tiny, &m);
        assert!(r.cmp.speedup > 0.5);
        assert_eq!(r.mesi.memory_image_digest, r.warden.memory_image_digest);
    }

    #[test]
    fn run_options_select_sim_options() {
        let o = RunOptions {
            check: true,
            faults: Some(7),
            obs: true,
        };
        let s = o.sim_options();
        assert!(s.check);
        assert!(s.obs);
        assert_eq!(s.faults.as_ref().map(|p| p.seed), Some(7));
        assert!(s.faults.unwrap().is_benign());
        let d = RunOptions::default().sim_options();
        assert!(!d.check && d.faults.is_none() && !d.obs);
    }

    #[test]
    fn scale_parsing_defaults_to_paper() {
        assert_eq!(SuiteScale::Paper.pbbs(), Scale::Paper);
        assert_eq!(SuiteScale::Tiny.pbbs(), Scale::Tiny);
    }
}
