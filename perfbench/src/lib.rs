//! The repository benchmark: host time of the WARDen simulator over fixed
//! workloads, end to end and layer by layer.
//!
//! Every layer is reached only through its public functions — trace
//! capture (`Bench::build`), the replay engine (`SimEngine::new`, `step`,
//! `finish`), the coherence datapath (`CoherenceSystem` loads, stores,
//! atomics, regions and `task_sync`), the record codec (`sim::checkpoint`)
//! and the campaign runner (`run_campaign`). The untraced run yields the
//! end-to-end metrics; the traced run wraps those calls in [`Spans`] and
//! yields the per-layer metrics. Every output is checked, and a failed
//! check is counted, never fatal. See `README.md` beside this crate for the
//! metric definitions.

mod spans;

pub use spans::Spans;

use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use warden_bench::campaign::{run_campaign, CampaignConfig, RunSpec, Workload as CampaignWorkload};
use warden_coherence::{CoherenceSystem, ProtocolId, RegionId};
use warden_mem::codec::{fnv1a64, Encoder};
use warden_pbbs::{Bench, Scale};
use warden_rt::{summarize, Event, RegionToken, RmwOp, TaskId, TraceProgram};
use warden_sim::{checkpoint, MachineConfig, SimEngine, SimOptions, SimOutcome, SimStats};

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (traced run): name and unit.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("rt.capture_s", "s"),
    ("rt.events", "count"),
    ("rt.footprint_blocks", "count"),
    ("sim.new_s", "s"),
    ("sim.step_s", "s"),
    ("sim.ns_per_step", "ns"),
    ("sim.finish_s", "s"),
    ("sim.steps", "count"),
    ("sim.steps_per_event", "ratio"),
    ("sim.steal_success", "ratio"),
    ("coherence.direct_s", "s"),
    ("coherence.direct_ns_per_access", "ns"),
    ("coherence.check_s", "s"),
    ("coherence.accesses", "count"),
    ("coherence.dir_lookups_per_access", "ratio"),
    ("coherence.private_hit_rate", "ratio"),
    ("coherence.llc_miss_rate", "ratio"),
    ("coherence.inv_dg", "count"),
    ("coherence.msgs", "count"),
    ("coherence.recon_blocks", "count"),
    ("coherence.region_overflows", "count"),
    ("campaign.run_s", "s"),
    ("campaign.resume_s", "s"),
    ("campaign.record_encode_s", "s"),
    ("campaign.record_write_s", "s"),
    ("campaign.record_read_s", "s"),
    ("campaign.records", "count"),
    ("campaign.files", "count"),
    ("campaign.bytes", "B"),
    ("trace.overhead", "ratio"),
];

/// Trace capture repeats on every worker at least this many times per
/// mode, and for at least `SETUP_MIN` of host time per mode; `setup_s` is
/// the median of all the captures.
const SETUP_REPS: usize = 3;
const SETUP_MIN: Duration = Duration::from_secs(3);

/// The benchmark's workloads: PBBS kernels replayed under every protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// All 14 PBBS kernels on the paper's 2×12-core machine: the coherence
    /// datapath does most of the work.
    PbbsDual,
    /// fib, nqueens and quickhull on a 48-core machine: the scheduler does.
    ForkJoin48,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::PbbsDual, Workload::ForkJoin48];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PbbsDual => "pbbs-dual",
            Workload::ForkJoin48 => "forkjoin-48",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn benches(self) -> &'static [Bench] {
        match self {
            Workload::PbbsDual => &Bench::ALL,
            Workload::ForkJoin48 => &[Bench::Fib, Bench::Nqueens, Bench::Quickhull],
        }
    }

    fn machine(self) -> MachineConfig {
        match self {
            Workload::PbbsDual => MachineConfig::dual_socket(),
            Workload::ForkJoin48 => MachineConfig::many_socket(4),
        }
    }
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Seeds the machine's scheduler RNG (victim choice when stealing).
    pub seed: u64,
    /// Measured passes repeat until this much host time has elapsed (half
    /// of it in a traced run).
    pub seconds: f64,
    /// Traced run: alternate untraced and traced passes, report per-layer
    /// metrics.
    pub trace: bool,
    /// Where campaign directories are created (and removed again).
    pub work_dir: PathBuf,
    /// PBBS input scale (the benchmark uses `Scale::Paper`).
    pub scale: Scale,
}

impl Config {
    /// The benchmark's configuration of `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            work_dir: PathBuf::from(".perfbench_work"),
            scale: Scale::Paper,
        }
    }
}

/// Output checks: a failure is counted and the run goes on.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Checked items (simulation runs and record round trips).
    pub attempted: u64,
    /// Items that failed a check.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

impl Checks {
    fn fail(&mut self, what: String) {
        self.fail_n(1, what);
    }

    /// Count `n` failed items under one log line.
    fn fail_n(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }

    /// Add another set of checks to these.
    fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 16usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    /// Failed checks ÷ attempted items.
    pub fn fail_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Exact work done by one pass, printed next to wall time so "faster" can
/// be told apart from "did less work".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Simulation runs per pass.
    pub runs: u64,
    /// Trace events replayed, summed over runs.
    pub events: u64,
    /// Scheduler steps, summed over runs.
    pub steps: u64,
    /// Directory lookups, summed over runs.
    pub dir_lookups: u64,
    /// FNV-1a over every run's label and `SimStats::fields()`.
    pub fingerprint: u64,
}

/// What one invocation measured.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Output checks.
    pub checks: Checks,
    /// Work counters of one pass.
    pub work: Work,
    /// Replay seconds of each measured pass, untraced and traced.
    pub pass_secs: [Vec<f64>; 2],
    /// Every metric measured, by name (see [`END_TO_END`], [`PER_LAYER`]).
    pub metrics: BTreeMap<&'static str, f64>,
    /// The traced run's spans as a Chrome trace.
    pub trace_json: Option<String>,
}

impl Report {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// The value of metric `name` (0 when it was not measured: per-layer
    /// metrics in an untraced run).
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}

/// Run one benchmark invocation.
pub fn run(cfg: &Config) -> Report {
    let mut report = replay_workload(cfg);
    report.set("peak_rss_mib", peak_rss_mib());
    report
}

// ---------------------------------------------------------------------------
// Shared pieces.

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident memory of this process, from `/proc/self/status`.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host-time samples split by mode: index 0 untraced, 1 traced.
type ByMode = [Vec<f64>; 2];

/// Worker threads: one per core. Every timed phase runs on all of them at
/// once, each taking its own samples, so a run of a given length times
/// every cell as often as the machine allows.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `f(worker)` on every worker at once; the results in worker order.
fn on_every_worker<T: Send>(f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers()).map(|w| s.spawn(move || f(w))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a benchmark worker panicked"))
            .collect()
    })
}

/// Capture every benchmark's trace repeatedly on every worker (alternating
/// modes when traced) and keep worker 0's last set.
fn capture(
    spans: &mut Spans,
    trace: bool,
    benches: &[Bench],
    scale: Scale,
) -> (Vec<TraceProgram>, ByMode) {
    let modes = if trace { 2 } else { 1 };
    let parent = &*spans;
    let per_worker = on_every_worker(|w| {
        let mut spans = parent.for_track(w as u32 + 1);
        let mut secs: ByMode = Default::default();
        let mut programs = Vec::new();
        let start = Instant::now();
        let mut rep = 0;
        while rep < modes * SETUP_REPS || start.elapsed() < SETUP_MIN * modes as u32 {
            let traced = trace && rep % 2 == 1;
            rep += 1;
            spans.set_on(traced);
            programs.clear();
            let t0 = Instant::now();
            for &b in benches {
                programs.push(spans.span("rt.capture", b.name(), || b.build(scale)));
            }
            secs[usize::from(traced)].push(t0.elapsed().as_secs_f64());
        }
        (programs, secs, spans)
    });
    let mut kept = None;
    let mut secs: ByMode = Default::default();
    for (programs, [untraced, traced], worker_spans) in per_worker {
        kept.get_or_insert(programs);
        secs[0].extend(untraced);
        secs[1].extend(traced);
        spans.merge(worker_spans);
    }
    (kept.unwrap_or_default(), secs)
}

/// One simulation run.
pub struct CellRun {
    /// The replay's outcome.
    pub outcome: SimOutcome,
    /// Scheduler steps taken.
    pub steps: u64,
    /// Host seconds from `SimEngine::new` through `finish`.
    pub secs: f64,
}

/// Replay `program` under every protocol through `SimEngine::new`, `step`
/// and `finish`, checking that no run reports an invariant violation and
/// that every protocol's final image digest agrees with the first's.
pub fn replay_group(
    spans: &mut Spans,
    checks: &mut Checks,
    name: &str,
    program: &TraceProgram,
    machine: &MachineConfig,
    opts: &(dyn Fn(ProtocolId) -> SimOptions + Sync),
) -> Vec<CellRun> {
    let mut runs: Vec<CellRun> = Vec::with_capacity(ProtocolId::ALL.len());
    for proto in ProtocolId::ALL {
        let label = format!("{name}/{}", proto.name());
        let opts = opts(proto);
        let t0 = Instant::now();
        let mut eng = spans.span("sim.new", &label, || {
            SimEngine::new(program, machine, proto, &opts)
        });
        spans.span("sim.step", &label, || while eng.step() {});
        let steps = eng.steps();
        let outcome = spans.span("sim.finish", &label, || eng.finish());
        let secs = t0.elapsed().as_secs_f64();

        checks.attempted += 1;
        if let Some(v) = outcome.violations.first() {
            checks.fail(format!("{label}: invariant violation: {v}"));
        } else if let Some(first) = runs.first() {
            if outcome.memory_image_digest != first.outcome.memory_image_digest {
                checks.fail(format!(
                    "{label}: image digest {:#018x} differs from {}'s {:#018x}",
                    outcome.memory_image_digest,
                    first.outcome.protocol.name(),
                    first.outcome.memory_image_digest
                ));
            }
        }
        runs.push(CellRun {
            outcome,
            steps,
            secs,
        });
    }
    runs
}

/// Sums of exact counters over a set of runs.
#[derive(Default)]
struct Totals {
    /// The machine's idle tick: an idle core that finds no victim advances
    /// its clock by one tick, so `idle_cycles / idle_tick` counts the
    /// steal probes that failed.
    idle_tick: u64,
    events: u64,
    steps: u64,
    steals: u64,
    /// Steal probes: the engine's `steal_attempts` (a victim existed, so
    /// they always succeed) plus the failed probes.
    steal_probes: u64,
    accesses: u64,
    dir_lookups: u64,
    private_hits: u64,
    llc_hits: u64,
    llc_misses: u64,
    inv_dg: u64,
    msgs: u64,
    recon_blocks: u64,
    region_overflows: u64,
    fp: Encoder,
}

impl Totals {
    fn add(&mut self, label: &str, events: u64, steps: u64, s: &SimStats) {
        let c = &s.coherence;
        self.events += events;
        self.steps += steps;
        self.steals += s.steals;
        self.steal_probes += s.steal_attempts + s.idle_cycles / self.idle_tick.max(1);
        self.accesses += c.accesses();
        self.dir_lookups += c.dir_lookups;
        self.private_hits += c.l1_hits + c.l2_hits;
        self.llc_hits += c.llc_hits;
        self.llc_misses += c.llc_misses;
        self.inv_dg += c.inv_plus_dg();
        self.msgs += c.total_messages();
        self.recon_blocks += c.recon_blocks;
        self.region_overflows += c.region_overflows;
        self.fp.put_str(label);
        for (name, v) in s.fields() {
            self.fp.put_str(&name);
            self.fp.put_u64(v);
        }
    }

    fn work(&self, runs: usize) -> Work {
        Work {
            runs: runs as u64,
            events: self.events,
            steps: self.steps,
            dir_lookups: self.dir_lookups,
            fingerprint: fnv1a64(self.fp.bytes()),
        }
    }

    fn report_into(&self, r: &mut Report) {
        let served = self.private_hits + self.llc_hits + self.llc_misses;
        r.set("sim.steps", self.steps as f64);
        r.set(
            "sim.steps_per_event",
            ratio(self.steps as f64, self.events as f64),
        );
        r.set(
            "sim.steal_success",
            ratio(self.steals as f64, self.steal_probes as f64),
        );
        r.set("coherence.accesses", self.accesses as f64);
        r.set(
            "coherence.dir_lookups_per_access",
            ratio(self.dir_lookups as f64, self.accesses as f64),
        );
        r.set(
            "coherence.private_hit_rate",
            ratio(self.private_hits as f64, served as f64),
        );
        r.set(
            "coherence.llc_miss_rate",
            ratio(
                self.llc_misses as f64,
                (self.llc_hits + self.llc_misses) as f64,
            ),
        );
        r.set("coherence.inv_dg", self.inv_dg as f64);
        r.set("coherence.msgs", self.msgs as f64);
        r.set("coherence.recon_blocks", self.recon_blocks as f64);
        r.set("coherence.region_overflows", self.region_overflows as f64);
    }
}

/// Per-layer metrics of the traced sim spans, per pass.
fn sim_spans_into(r: &mut Report, spans: &Spans, passes: f64, steps_per_pass: u64) {
    let per = |name| ratio(spans.total_s(name), passes);
    r.set("sim.new_s", per("sim.new"));
    r.set("sim.step_s", per("sim.step"));
    r.set("sim.finish_s", per("sim.finish"));
    r.set(
        "sim.ns_per_step",
        ratio(per("sim.step") * 1e9, steps_per_pass as f64),
    );
}

/// The rt-layer exact counts over a set of captured traces.
fn rt_counts_into(r: &mut Report, programs: &[TraceProgram]) {
    let events: u64 = programs.iter().map(TraceProgram::total_events).sum();
    let blocks: u64 = programs.iter().map(|p| summarize(p).distinct_blocks).sum();
    r.set("rt.events", events as f64);
    r.set("rt.footprint_blocks", blocks as f64);
}

/// Serial replay of every trace under every protocol straight through the
/// coherence datapath (no scheduler), checking that the protocols agree on
/// the final image. Sets `coherence.direct_s` and its per-access cost.
fn direct_into(
    r: &mut Report,
    spans: &mut Spans,
    names: &[String],
    programs: &[TraceProgram],
    machine: &MachineConfig,
) {
    let mut accesses = 0u64;
    for (name, program) in names.iter().zip(programs) {
        let mut reference = None;
        for proto in ProtocolId::ALL {
            let label = format!("{name}/{}", proto.name());
            let mut sys = CoherenceSystem::new(machine.topo, machine.lat, machine.cache, proto);
            sys.set_memory(program.initial_memory.clone());
            let mut regions = HashMap::new();
            spans.span("coherence.direct", &label, || {
                direct_task(
                    &mut sys,
                    program,
                    0,
                    machine.num_cores(),
                    &mut regions,
                    &mut accesses,
                )
            });
            let digest = sys.final_memory_image().digest();
            r.checks.attempted += 1;
            match reference {
                None => reference = Some(digest),
                Some(d) if d != digest => r
                    .checks
                    .fail(format!("{label}: direct-replay image diverged")),
                Some(_) => {}
            }
        }
    }
    let secs = spans.total_s("coherence.direct");
    r.set("coherence.direct_s", secs);
    r.set(
        "coherence.direct_ns_per_access",
        ratio(secs * 1e9, accesses as f64),
    );
}

/// Depth-first replay of one task: a `task_sync` fence at every task
/// boundary and around each fork, as a data-race-free fork-join program
/// gives the hardware.
fn direct_task(
    sys: &mut CoherenceSystem,
    program: &TraceProgram,
    task: TaskId,
    ncores: usize,
    regions: &mut HashMap<RegionToken, Option<RegionId>>,
    accesses: &mut u64,
) {
    let core = task % ncores;
    sys.task_sync(core);
    for ev in &program.tasks[task].events {
        match ev {
            Event::Load { addr, size } => {
                sys.load(core, *addr, u64::from(*size));
                *accesses += 1;
            }
            Event::Store { addr, size, val } => {
                sys.store(core, *addr, &val.to_le_bytes()[..usize::from(*size)]);
                *accesses += 1;
            }
            Event::Rmw {
                addr,
                size,
                val,
                op,
            } => {
                match op {
                    RmwOp::Swap => sys.rmw(core, *addr, &val.to_le_bytes()[..usize::from(*size)]),
                    RmwOp::Add => sys.rmw_add(core, *addr, u64::from(*size), *val),
                };
                *accesses += 1;
            }
            Event::Compute { .. } => {}
            Event::Fork { children } => {
                sys.task_sync(core);
                for &child in children {
                    direct_task(sys, program, child, ncores, regions, accesses);
                }
                sys.task_sync(core);
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
    sys.task_sync(core);
}

// ---------------------------------------------------------------------------
// The workloads: captured traces replayed under every protocol.

/// One cell's replay: host seconds, scheduler steps, statistics.
struct CellSample {
    secs: f64,
    steps: u64,
    stats: SimStats,
}

/// One replay of a group (a trace under every protocol): the `item`-th
/// handed out, so group `item % groups` in round `item / groups`.
struct GroupSample {
    item: usize,
    traced: bool,
    cells: Vec<CellSample>,
}

/// Replay the groups on every worker, each worker taking the next item
/// from a shared counter, so the groups cycle in rounds; in a traced run
/// odd rounds are traced. Workers stop taking items once `min_rounds`
/// rounds are handed out and `budget` has passed. Samples in item order.
#[allow(clippy::too_many_arguments)]
fn replay_rounds(
    spans: &mut Spans,
    checks: &mut Checks,
    names: &[String],
    programs: &[TraceProgram],
    machine: &MachineConfig,
    opts: &(dyn Fn(ProtocolId) -> SimOptions + Sync),
    trace: bool,
    min_rounds: usize,
    budget: Duration,
) -> Vec<GroupSample> {
    let groups = programs.len();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let parent = &*spans;
    let per_worker = on_every_worker(|w| {
        let mut spans = parent.for_track(w as u32 + 1);
        let mut checks = Checks::default();
        let mut samples = Vec::new();
        loop {
            // Relaxed: the counter only has to hand out distinct items.
            let item = next.fetch_add(1, Ordering::Relaxed);
            if item >= min_rounds * groups && start.elapsed() >= budget {
                break;
            }
            let g = item % groups;
            let traced = trace && (item / groups) % 2 == 1;
            spans.set_on(traced);
            let cells = replay_group(
                &mut spans,
                &mut checks,
                &names[g],
                &programs[g],
                machine,
                opts,
            )
            .into_iter()
            .map(|run| CellSample {
                secs: run.secs,
                steps: run.steps,
                stats: run.outcome.stats,
            })
            .collect();
            samples.push(GroupSample {
                item,
                traced,
                cells,
            });
        }
        (samples, checks, spans)
    });
    let mut all = Vec::new();
    for (samples, worker_checks, worker_spans) in per_worker {
        all.extend(samples);
        checks.absorb(worker_checks);
        spans.merge(worker_spans);
    }
    all.sort_by_key(|s| s.item);
    all
}

fn replay_workload(cfg: &Config) -> Report {
    let benches = cfg.workload.benches();
    let machine = cfg.workload.machine().with_seed(cfg.seed);
    let mut r = Report::default();
    let mut spans = Spans::new();
    let names: Vec<String> = benches.iter().map(|b| b.name().to_string()).collect();
    let (programs, setup) = capture(&mut spans, cfg.trace, benches, cfg.scale);
    let nproto = ProtocolId::ALL.len();
    let ncells = programs.len() * nproto;
    let cell_events: Vec<u64> = programs
        .iter()
        .flat_map(|p| [p.total_events(); ProtocolId::ALL.len()])
        .collect();
    let labels: Vec<String> = names
        .iter()
        .flat_map(|n| ProtocolId::ALL.map(|p| format!("{n}/{}", p.name())))
        .collect();

    // A traced run spends half its time on passes and the rest on the
    // layers the passes do not reach.
    let budget = Duration::from_secs_f64(if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    });
    let defaults = |_| SimOptions::default();
    let samples = replay_rounds(
        &mut spans,
        &mut r.checks,
        &names,
        &programs,
        &machine,
        &defaults,
        cfg.trace,
        2,
        budget,
    );

    // Per-cell replay seconds and per-round totals by mode; the first and
    // last replay of each group.
    let groups = programs.len();
    let mut secs: [Vec<Vec<f64>>; 2] = [vec![Vec::new(); ncells], vec![Vec::new(); ncells]];
    let mut rounds: BTreeMap<usize, (bool, usize, f64)> = BTreeMap::new();
    let mut first: Vec<Option<&GroupSample>> = vec![None; groups];
    let mut last: Vec<Option<&GroupSample>> = vec![None; groups];
    for s in &samples {
        let g = s.item % groups;
        let round = rounds.entry(s.item / groups).or_insert((s.traced, 0, 0.0));
        round.1 += 1;
        for (k, cell) in s.cells.iter().enumerate() {
            secs[usize::from(s.traced)][g * nproto + k].push(cell.secs);
            round.2 += cell.secs;
        }
        first[g].get_or_insert(s);
        last[g] = Some(s);
    }
    for &(traced, seen, total) in rounds.values() {
        if seen == groups {
            r.pass_secs[usize::from(traced)].push(total);
        }
    }

    // Replays are deterministic: each group's last replay must repeat its
    // first.
    let mut totals = Totals {
        idle_tick: machine.idle_tick,
        ..Totals::default()
    };
    let mut first_stats: Vec<SimStats> = Vec::with_capacity(ncells);
    for (g, (a, b)) in first.iter().zip(&last).enumerate() {
        let (Some(a), Some(b)) = (a, b) else { continue };
        for (k, (x, y)) in a.cells.iter().zip(&b.cells).enumerate() {
            let i = g * nproto + k;
            if x.stats != y.stats {
                r.checks
                    .fail(format!("{}: stats differ between passes", labels[i]));
            }
            totals.add(&labels[i], cell_events[i], y.steps, &y.stats);
            first_stats.push(x.stats.clone());
        }
    }
    r.work = totals.work(ncells);

    // wall = median setup + the sum of per-cell fastest replay times. A
    // replay is deterministic, so its spread is the host's alone, and the
    // host only ever adds time: the fastest of a cell's many replays is its
    // steadiest estimate.
    let wall = |mode: usize| -> (f64, f64) {
        let replay: f64 = secs[mode].iter().map(|s| fastest(s)).sum();
        (median(&setup[mode]) + replay, replay)
    };
    let (wall_s, replay_s) = wall(0);
    r.set("wall_s", wall_s);
    r.set("setup_s", median(&setup[0]));
    r.set("events_per_s", ratio(r.work.events as f64, replay_s));

    if cfg.trace {
        r.set("rt.capture_s", median(&setup[1]));
        rt_counts_into(&mut r, &programs);
        let traced_passes = samples.iter().filter(|s| s.traced).count() as f64 / groups as f64;
        sim_spans_into(&mut r, &spans, traced_passes, totals.steps);
        totals.report_into(&mut r);
        r.set("trace.overhead", ratio(wall(1).0, wall_s));

        // The checker's cost: one more round with it on, against the
        // untraced replay part of `wall_s` (spans off, so `sim.*` stays
        // the checker-free replay).
        spans.set_on(false);
        let check_on = |_| SimOptions {
            check: true,
            ..SimOptions::default()
        };
        let checked_s: f64 = replay_rounds(
            &mut spans,
            &mut r.checks,
            &names,
            &programs,
            &machine,
            &check_on,
            false,
            1,
            Duration::ZERO,
        )
        .iter()
        .flat_map(|s| &s.cells)
        .map(|c| c.secs)
        .sum();
        r.set("coherence.check_s", checked_s - replay_s);

        spans.set_on(true);
        direct_into(&mut r, &mut spans, &names, &programs, &machine);
        campaign_into(&mut r, &mut spans, cfg, &machine, &labels, &first_stats);
        r.trace_json = Some(spans.chrome_json(cfg.workload.name()));
    }
    r
}

// ---------------------------------------------------------------------------
// The campaign layer: durable runs, their resume, and the record codec.

static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

/// A new, empty directory under `root` whose name no other invocation —
/// in this process or another — can share: pid plus a counter, claimed by
/// an exclusive `create_dir`.
fn fresh_dir(root: &Path, kind: &str) -> std::io::Result<PathBuf> {
    fs::create_dir_all(root)?;
    loop {
        // Relaxed: the counter only has to hand out distinct values.
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("{kind}-{}-{n}", std::process::id()));
        match fs::create_dir(&dir) {
            Ok(()) => return Ok(dir),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Record files, all files, and their total bytes under `dir`.
fn dir_totals(dir: &Path) -> (u64, u64, u64) {
    let (mut records, mut files, mut bytes) = (0, 0, 0);
    let mut todo = vec![dir.to_path_buf()];
    while let Some(d) = todo.pop() {
        for e in fs::read_dir(&d).into_iter().flatten().flatten() {
            let Ok(m) = e.metadata() else { continue };
            if m.is_dir() {
                todo.push(e.path());
            } else {
                records += u64::from(e.path().extension().is_some_and(|x| x == "rec"));
                files += 1;
                bytes += m.len();
            }
        }
    }
    (records, files, bytes)
}

/// The workload's cells through `run_campaign` into a fresh durable
/// directory, as `all_figures --campaign-dir` runs them, then again over
/// the same directory, which must reuse every record; every run must
/// reproduce the replay's statistics (`expect`, per cell `labels`). Then
/// the record codec and durable writer over the outcomes.
fn campaign_into(
    r: &mut Report,
    spans: &mut Spans,
    cfg: &Config,
    machine: &MachineConfig,
    labels: &[String],
    expect: &[SimStats],
) {
    let n = labels.len() as u64;
    let dir = match fresh_dir(&cfg.work_dir, "campaign") {
        Ok(d) => d,
        Err(e) => {
            r.checks.attempted += n;
            r.checks
                .fail_n(n, format!("cannot create a campaign directory: {e}"));
            return;
        }
    };
    let specs: Vec<RunSpec> = cfg
        .workload
        .benches()
        .iter()
        .flat_map(|&b| ProtocolId::ALL.map(|p| (b, p)))
        .zip(labels)
        .map(|((bench, protocol), id)| RunSpec {
            id: id.clone(),
            workload: CampaignWorkload::bench(bench, cfg.scale),
            machine: machine.clone(),
            protocol,
            opts: SimOptions::default(),
        })
        .collect();
    let mut ccfg = CampaignConfig::new(&dir);
    ccfg.workers = workers();
    ccfg.quiet = true;
    // Keep only what the checks need of the first call's outcomes, so one
    // set of final memory images is resident at a time.
    let first = spans
        .span("campaign.run", "first", || run_campaign(&specs, &ccfg))
        .map(|runs| {
            runs.iter()
                .map(|run| (run.outcome.stats.clone(), run.outcome.memory_image_digest))
                .collect::<Vec<_>>()
        });
    let (records, files, bytes) = dir_totals(&dir);
    let resumed = spans.span("campaign.resume", "resume", || run_campaign(&specs, &ccfg));
    let _ = fs::remove_dir_all(&dir);
    r.set("campaign.run_s", spans.total_s("campaign.run"));
    r.set("campaign.resume_s", spans.total_s("campaign.resume"));
    r.set("campaign.records", records as f64);
    r.set("campaign.files", files as f64);
    r.set("campaign.bytes", bytes as f64);

    r.checks.attempted += n;
    let (first, resumed) = match (first, resumed) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            r.checks.fail_n(n, format!("campaign failed: {e}"));
            return;
        }
    };
    let cells = first.iter().zip(&resumed).zip(labels.iter().zip(expect));
    for (((stats, digest), again), (id, want)) in cells {
        if stats != want {
            r.checks
                .fail(format!("{id}: the campaign run differs from the replay"));
        } else if !again.reused || again.outcome.memory_image_digest != *digest {
            r.checks
                .fail(format!("{id}: the resume did not reuse its record"));
        }
    }
    let outcomes: Vec<(String, SimOutcome)> = resumed
        .into_iter()
        .map(|run| (run.id, run.outcome))
        .collect();
    records_into(r, spans, &cfg.work_dir, &outcomes);
}

/// Time the record codec and durable writer over `outcomes`: encode and
/// frame each, `write_atomic` it, then read, unframe and decode it back,
/// checking the round trip.
fn records_into(
    r: &mut Report,
    spans: &mut Spans,
    work_dir: &Path,
    outcomes: &[(String, SimOutcome)],
) {
    let dir = match fresh_dir(work_dir, "records") {
        Ok(d) => d,
        Err(e) => {
            r.checks.attempted += 1;
            r.checks
                .fail(format!("cannot create a records directory: {e}"));
            return;
        }
    };
    let mut written = Vec::with_capacity(outcomes.len());
    for (i, (label, out)) in outcomes.iter().enumerate() {
        let bytes = spans.span("campaign.record_encode", label, || {
            checkpoint::frame(&checkpoint::encode_outcome(out))
        });
        let path = dir.join(format!("{i}.rec"));
        let ok = spans.span("campaign.record_write", label, || {
            checkpoint::write_atomic(&path, &bytes)
        });
        written.push((path, ok));
    }
    for ((path, wrote), (label, out)) in written.iter().zip(outcomes) {
        r.checks.attempted += 1;
        let back = spans.span("campaign.record_read", label, || {
            let bytes = fs::read(path).ok()?;
            let payload = checkpoint::unframe(&bytes).ok()?;
            checkpoint::decode_outcome(payload).ok()
        });
        let same = back.is_some_and(|b| {
            b.stats == out.stats && b.memory_image_digest == out.memory_image_digest
        });
        if wrote.is_err() || !same {
            r.checks.fail(format!("{label}: record did not round-trip"));
        }
    }
    let _ = fs::remove_dir_all(&dir);
    r.set(
        "campaign.record_encode_s",
        spans.total_s("campaign.record_encode"),
    );
    r.set(
        "campaign.record_write_s",
        spans.total_s("campaign.record_write"),
    );
    r.set(
        "campaign.record_read_s",
        spans.total_s("campaign.record_read"),
    );
}
