//! The timing replay engine: schedules a captured fork-join DAG onto
//! simulated cores with work stealing, drives every memory event through the
//! coherence system, and measures cycles, traffic and energy.
//!
//! The engine is *access-atomic and clock-ordered*: at every step the core
//! with the smallest local clock executes its next event, so cross-core
//! interactions (steals, invalidations, reconciliations) happen in a
//! deterministic global order given the seed. A tournament tree over
//! `(clock, core)` (`CorePicker`) makes that pick in `O(log cores)`. An idle
//! core that finds every deque empty can only tick its clock until some
//! core forks, so it *parks* instead: it leaves the tree, and its ticks are
//! added in closed form when it rejoins (see [`SimEngine::step`]).
//!
//! The engine runs in one of two modes: the one-shot helpers
//! ([`simulate`], [`simulate_with_options`], [`try_simulate`]) replay a
//! whole trace and return the [`SimOutcome`], while [`SimEngine`] exposes
//! the same replay a few scheduler steps at a time, so a caller can watch
//! its progress, poll a cancellation token or record it.

use crate::cancel::CancelToken;
use crate::config::{ComputeCost, MachineConfig};
use crate::energy::{energy_of, EnergyBreakdown, EnergyParams};
use crate::error::SimError;
use crate::faults::{FaultInjector, FaultPlan};
use crate::obs::{timed, ObsRecorder, ObsReport};
use crate::stats::SimStats;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use warden_coherence::{CoherenceSystem, InvariantViolation, ProtocolId, RegionId};
use warden_mem::Memory;
use warden_rt::{Event, TaskId, TraceProgram};

/// The result of one replay.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// ProtocolId the machine ran.
    pub protocol: ProtocolId,
    /// Machine name (from [`MachineConfig`]).
    pub machine: String,
    /// All measurements.
    pub stats: SimStats,
    /// Energy computed from the measurements.
    pub energy: EnergyBreakdown,
    /// Digest of the final memory image after flushing all caches
    /// (equal digests across protocols ⇒ same final memory).
    pub memory_image_digest: u64,
    /// The final memory image itself (for exact comparisons in tests).
    pub final_memory: Memory,
    /// Peak simultaneous WARD regions observed by the directory.
    pub region_peak: usize,
    /// Invariant violations found by the checker (always empty unless
    /// [`SimOptions::check`] was set; must be empty on an unmutated run).
    pub violations: Vec<InvariantViolation>,
}

/// Options for [`simulate_with_options`].
#[derive(Clone, Debug, Default)]
pub struct SimOptions {
    /// Energy parameters.
    pub energy: EnergyParams,
    /// An optional deterministic fault-injection campaign.
    pub faults: Option<FaultPlan>,
    /// Run the coherence invariant checker after every directory
    /// transaction; violations land in [`SimOutcome::violations`].
    pub check: bool,
    /// Cooperative cancellation: when set, [`SimEngine::run_with_cancel`]
    /// (and [`try_simulate`]) poll the token every
    /// [`CANCEL_CHECK_EVENTS`] [`SimEngine::step`] calls and return a typed
    /// [`SimError::Cancelled`] once it trips. `None` (the default) costs
    /// nothing: the cancellable run loop collapses to the plain one. The
    /// token is **not** part of the options fingerprint — the same
    /// simulation requested with different tokens is the same
    /// content-addressed computation.
    pub cancel: Option<CancelToken>,
}

/// [`SimEngine::step`] calls between polls of the cancellation token in
/// [`SimEngine::run_with_cancel`]. One call runs one step of a busy or
/// stealing core (parked idle ticks ride along for free), so at the
/// measured millions of events per second this bounds cancellation latency
/// to well under a millisecond, while keeping the hot loop free of
/// per-event atomic loads.
pub const CANCEL_CHECK_EVENTS: u64 = 4096;

struct Core {
    clock: u64,
    deque: VecDeque<TaskId>,
    current: Option<TaskId>,
    /// Outstanding store completion times.
    store_buffer: BinaryHeap<Reverse<u64>>,
}

struct TaskRun {
    next_event: usize,
    /// Forked children not yet completed. `u64`, not `u32`: the count comes
    /// from `children.len()`, and narrowing it was the one genuinely lossy
    /// cast on the replay path — a fork wider than `u32::MAX` would have
    /// wrapped and deadlocked the join.
    pending_children: u64,
}

/// Replay `program` on `machine` under `protocol`.
///
/// The replay is deterministic: the same inputs produce identical statistics
/// and memory images.
///
/// # Panics
///
/// Panics if the trace is malformed (see
/// [`TraceProgram::check_invariants`]).
pub fn simulate(
    program: &TraceProgram,
    machine: &MachineConfig,
    protocol: ProtocolId,
) -> SimOutcome {
    simulate_with_options(program, machine, protocol, &SimOptions::default())
}

/// [`simulate_with_options`] behind up-front validation: rejects an
/// inconsistent machine or out-of-range fault plan with a typed
/// [`SimError`] instead of panicking mid-replay.
pub fn try_simulate(
    program: &TraceProgram,
    machine: &MachineConfig,
    protocol: ProtocolId,
    opts: &SimOptions,
) -> Result<SimOutcome, SimError> {
    SimEngine::try_new(program, machine, protocol, opts)?.run_with_cancel()
}

/// [`simulate`] with full control: energy parameters, the invariant
/// checker, and deterministic fault injection.
pub fn simulate_with_options(
    program: &TraceProgram,
    machine: &MachineConfig,
    protocol: ProtocolId,
    opts: &SimOptions,
) -> SimOutcome {
    SimEngine::new(program, machine, protocol, opts).run()
}

/// A steppable replay: the whole simulation state of one run, advanced a
/// few scheduler steps at a time (see [`Self::step`]).
///
/// `SimEngine::new(p, m, proto, opts).run()` is exactly
/// [`simulate_with_options`]`(p, m, proto, opts)`. The state lives only in
/// memory: a run that is interrupted starts again from step 0, and the
/// durable unit is the finished outcome's record
/// ([`crate::checkpoint::encode_outcome`]).
pub struct SimEngine<'a> {
    program: &'a TraceProgram,
    machine: &'a MachineConfig,
    protocol: ProtocolId,
    opts: SimOptions,
    coh: CoherenceSystem,
    injector: Option<FaultInjector>,
    /// Installed only by [`Self::run_observed`], which consumes the engine.
    recorder: Option<ObsRecorder>,
    rng: SmallRng,
    cores: Vec<Core>,
    tasks: Vec<TaskRun>,
    /// Live region-token → directory id bindings, sorted by token. A flat
    /// sorted vec: traces hold few simultaneous regions, and lookups are
    /// binary searches.
    regions: Vec<(u32, RegionId)>,
    stats: SimStats,
    completed: usize,
    makespan: u64,
    /// Scheduler steps run so far, not counting the ticks parked cores
    /// have taken since they parked (see [`Self::steps`]).
    steps: u64,
    /// The `(clock, core)` argmin over the unparked cores, kept current by
    /// [`Self::step`]; a parked core's leaf holds the padding key.
    picker: CorePicker,
    /// The machine's CPI with its denominator's reciprocal precomputed.
    compute: ComputeCost,
    /// Cores whose deque is non-empty, one bit per core (machines have at
    /// most 64 cores: the directory's sharer sets are `u64` bitmasks).
    stocked: u64,
    /// Parked cores: idle while `stocked == 0`, out of the picker, each at
    /// the clock it parked at. Non-zero only while `stocked` is zero.
    parked: u64,
}

impl fmt::Debug for SimEngine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimEngine")
            .field("program", &self.program.name)
            .field("machine", &self.machine.name)
            .field("protocol", &self.protocol)
            .field("completed", &self.completed)
            .field("steps", &self.steps())
            .finish_non_exhaustive()
    }
}

impl<'a> SimEngine<'a> {
    /// Set up a replay of `program` on `machine` under `protocol`, ready at
    /// the first instruction boundary.
    ///
    /// # Panics
    ///
    /// Panics if the trace is malformed (see
    /// [`TraceProgram::check_invariants`]) or the machine's `cpi_den` is
    /// zero; use [`Self::try_new`] to validate the machine and fault plan
    /// up front.
    pub fn new(
        program: &'a TraceProgram,
        machine: &'a MachineConfig,
        protocol: ProtocolId,
        opts: &SimOptions,
    ) -> SimEngine<'a> {
        let mut coh = CoherenceSystem::new(machine.topo, machine.lat, machine.cache, protocol);
        coh.set_memory(program.initial_memory.clone());
        if opts.check {
            coh.enable_checker();
        }
        let injector = opts
            .faults
            .clone()
            .map(|plan| FaultInjector::new(plan, program.address_range));
        if let Some(inj) = &injector {
            inj.install_mutations(&mut coh);
        }
        let rng = SmallRng::seed_from_u64(machine.seed);

        let ncores = machine.num_cores();
        let mut cores: Vec<Core> = (0..ncores)
            .map(|_| Core {
                clock: 0,
                deque: VecDeque::new(),
                current: None,
                store_buffer: BinaryHeap::new(),
            })
            .collect();
        let tasks: Vec<TaskRun> = program
            .tasks
            .iter()
            .map(|_| TaskRun {
                next_event: 0,
                pending_children: 0,
            })
            .collect();
        let stats = SimStats {
            tasks: program.tasks.len() as u64,
            ..SimStats::default()
        };
        cores[0].current = Some(0); // root starts on core 0

        SimEngine {
            program,
            machine,
            protocol,
            opts: opts.clone(),
            coh,
            injector,
            recorder: None,
            rng,
            cores,
            tasks,
            regions: Vec::new(),
            stats,
            completed: 0,
            makespan: 0,
            steps: 0,
            picker: CorePicker::new(ncores),
            compute: machine.compute_cost(),
            stocked: 0,
            parked: 0,
        }
    }

    /// [`Self::new`] behind up-front validation of the machine description
    /// and fault plan.
    pub fn try_new(
        program: &'a TraceProgram,
        machine: &'a MachineConfig,
        protocol: ProtocolId,
        opts: &SimOptions,
    ) -> Result<SimEngine<'a>, SimError> {
        machine.validate()?;
        if let Some(plan) = &opts.faults {
            plan.validate()?;
        }
        Ok(SimEngine::new(program, machine, protocol, opts))
    }

    /// Whether every task of the trace has run to completion.
    pub fn is_done(&self) -> bool {
        self.completed >= self.program.tasks.len()
    }

    /// Scheduler steps executed so far: every event, task completion,
    /// steal and idle tick, as if each idle tick had been stepped on its
    /// own. Parked cores count the ticks they take before the next step.
    pub fn steps(&self) -> u64 {
        let key = self.picker.winner();
        let tick = self.machine.idle_tick;
        let parked: u64 = set_bits(self.parked)
            .map(|i| idle_ticks_before(self.cores[i].clock, i, key, tick))
            .sum();
        self.steps + parked
    }

    /// Tasks that have run to completion so far.
    pub fn completed_tasks(&self) -> usize {
        self.completed
    }

    /// The protocol this engine replays under.
    pub fn protocol(&self) -> ProtocolId {
        self.protocol
    }

    /// Advance the replay by at least one scheduler step: one event, task
    /// completion or steal on the unparked core with the smallest
    /// `(clock, core)`, plus the idle ticks parked cores take meanwhile.
    /// Returns `true` while more work remains; once it returns `false` the
    /// replay is complete and [`Self::finish`] produces the outcome.
    ///
    /// An idle core picked while every deque is empty can do nothing but
    /// add `idle_tick` to its clock, step after step, until some core forks.
    /// Instead of stepping it, the engine parks it: the core leaves the
    /// picker at the clock `c` it parked at. When a step at key `(T, b)`
    /// forks onto the empty deques or completes the last task, every parked
    /// core `i` takes at once the `n` ticks a step-by-step replay would
    /// have run before that step, those with `(c + j·idle_tick, i) <
    /// (T, b)` (`idle_ticks_before`), and rejoins the picker. Readers of
    /// clocks ([`Self::steps`], [`Self::finish`]) see the same
    /// ticks counted up to the next step, so every observable number equals
    /// the tick-by-tick replay's.
    pub fn step(&mut self) -> bool {
        loop {
            if self.is_done() {
                return false;
            }
            let key @ (_, cid) = self.picker.winner();
            if cfg!(debug_assertions) {
                self.check_schedule(cid);
            }
            if self.cores[cid].current.is_none() && self.stocked == 0 {
                self.parked |= 1 << cid;
                self.picker.park(cid);
                continue;
            }
            self.step_inner(cid);
            // Only the picked core's clock moves in a step.
            self.picker.update(cid, self.cores[cid].clock);
            self.steps += 1;
            // Parked cores exist only while every deque is empty, so a
            // non-empty one now means this step forked.
            if self.parked != 0 && (self.stocked != 0 || self.is_done()) {
                self.unpark_all(key);
            }
            return !self.is_done();
        }
    }

    /// Give every parked core the idle ticks it takes before the step at
    /// `key`, then put it back in the picker.
    fn unpark_all(&mut self, key: (u64, usize)) {
        let tick = self.machine.idle_tick;
        for i in set_bits(std::mem::take(&mut self.parked)) {
            let n = idle_ticks_before(self.cores[i].clock, i, key, tick);
            self.cores[i].clock += n * tick;
            self.stats.idle_cycles += n * tick;
            self.steps += n;
            self.picker.update(i, self.cores[i].clock);
        }
    }

    /// Unpark every parked core at the next step's key, so clocks, idle
    /// cycles and the step count read as in a tick-by-tick replay paused
    /// before that step. Each rejoining core's key lands after the next
    /// step's, so the schedule does not change.
    fn settle(&mut self) {
        if self.parked != 0 {
            self.unpark_all(self.picker.winner());
        }
    }

    /// The cores whose deque is non-empty, by a scan (`stocked` keeps the
    /// same set current step by step).
    fn nonempty_deques(&self) -> u64 {
        (0..self.cores.len())
            .filter(|&i| !self.cores[i].deque.is_empty())
            .fold(0, |m, i| m | 1 << i)
    }

    /// The scheduler invariants, checked at every pick of a debug build:
    /// the picker's winner is the `(clock, core)` argmin over the unparked
    /// cores, `stocked` is the set of non-empty deques, a parked core runs
    /// no task, and cores park only while every deque is empty.
    fn check_schedule(&self, cid: usize) {
        let is_parked = |i: usize| self.parked & (1 << i) != 0;
        let argmin = (0..self.cores.len())
            .filter(|&i| !is_parked(i))
            .min_by_key(|&i| (self.cores[i].clock, i));
        assert_eq!(
            Some(cid),
            argmin,
            "tournament tree diverged from the (clock, core) argmin"
        );
        assert_eq!(
            self.stocked,
            self.nonempty_deques(),
            "stocked is not the non-empty deques"
        );
        assert!(
            set_bits(self.parked).all(|i| self.cores[i].current.is_none()),
            "a parked core holds a task"
        );
        assert!(
            self.parked == 0 || self.stocked == 0,
            "a core is parked while a deque holds work"
        );
    }

    /// Run the replay to completion and produce the outcome. Ignores any
    /// [`SimOptions::cancel`] token; use [`Self::run_with_cancel`] for the
    /// cooperative path.
    pub fn run(mut self) -> SimOutcome {
        while self.step() {}
        self.finish()
    }

    /// Run the replay to completion, polling the [`SimOptions::cancel`]
    /// token (if any) every [`CANCEL_CHECK_EVENTS`] [`Self::step`] calls. With
    /// no token installed this is exactly [`Self::run`] — the per-step
    /// loop carries no extra branch. With a token, a trip is observed
    /// within one check interval and surfaces as a typed
    /// [`SimError::Cancelled`]; the partially-advanced engine is dropped
    /// (a cancelled replay publishes nothing).
    pub fn run_with_cancel(mut self) -> Result<SimOutcome, SimError> {
        let Some(token) = self.opts.cancel.clone() else {
            return Ok(self.run());
        };
        loop {
            if token.is_cancelled() {
                return Err(SimError::Cancelled {
                    steps: self.steps(),
                });
            }
            let mut burst = 0u64;
            while burst < CANCEL_CHECK_EVENTS {
                if !self.step() {
                    return Ok(self.finish());
                }
                burst += 1;
            }
        }
    }

    /// Execute one step on `cid`, the core with the smallest clock (ties:
    /// lowest id). Advances no clock but `cid`'s.
    fn step_inner(&mut self, cid: usize) {
        let program = self.program;
        let machine = self.machine;

        let Some(task) = self.cores[cid].current else {
            acquire_work(
                cid,
                &mut self.cores,
                &mut self.stocked,
                machine,
                &mut self.rng,
                &mut self.stats,
                &mut self.coh,
            );
            return;
        };

        let events = &program.tasks[task].events;
        let next = self.tasks[task].next_event;
        if next == events.len() {
            // Task complete: a sync point — lazy protocols self-downgrade
            // and self-invalidate here so the join edge publishes this
            // task's writes (free for the eager protocols).
            self.completed += 1;
            let sync = self.coh.task_sync(cid);
            self.cores[cid].clock += sync;
            self.stats.region_cycles += sync;
            self.makespan = self.makespan.max(self.cores[cid].clock);
            self.cores[cid].current = None;
            if let Some(parent) = program.tasks[task].parent {
                self.tasks[parent].pending_children -= 1;
                if self.tasks[parent].pending_children == 0 {
                    // The last finisher resumes the parent (work stealing's
                    // "last one home continues" rule).
                    self.cores[cid].current = Some(parent);
                }
            }
            return;
        }

        if next.is_multiple_of(FETCH_CHUNK) {
            fetch_next_chunk(events, next);
        }
        let ev = &events[next];
        self.tasks[task].next_event = next + 1;
        let coh = &mut self.coh;
        let injector = &mut self.injector;
        let recorder = &mut self.recorder;
        let stats = &mut self.stats;
        let regions = &mut self.regions;
        let tasks = &mut self.tasks;
        let stocked = &mut self.stocked;
        let core = &mut self.cores[cid];
        // Observability bookkeeping filled in by the access arms and
        // consumed after the match (where the core borrow has ended); both
        // stay untouched when recording is off.
        let mut obs_access: Option<u64> = None;
        let mut obs_fault_extra = 0u64;
        match ev {
            Event::Compute { amount } => {
                let c = self.compute.cycles(*amount);
                core.clock += c;
                stats.compute_cycles += c;
                stats.instructions += *amount;
            }
            Event::Load { addr, size } => {
                drain_store_buffer(core);
                let lat = timed(recorder, "access.load", || {
                    coh.load(cid, *addr, *size as u64)
                });
                core.clock += lat;
                stats.load_cycles += lat;
                stats.instructions += 1;
                stats.memory_accesses += 1;
                if let Some(inj) = injector.as_mut() {
                    let extra = inj.after_access(coh);
                    core.clock += extra;
                    obs_fault_extra += extra;
                }
                obs_access = Some(lat);
            }
            Event::Store { addr, size, val } => {
                drain_store_buffer(core);
                // Missing stores occupy a write MSHR; a burst of long-latency
                // stores back-pressures the core once all MSHRs are busy.
                if core.store_buffer.len() >= machine.store_mshrs.min(machine.store_buffer) {
                    let Reverse(t) = core.store_buffer.pop().expect("non-empty");
                    if t > core.clock {
                        stats.store_stall_cycles += t - core.clock;
                        core.clock = t;
                    }
                }
                let bytes = val.to_le_bytes();
                let lat = timed(recorder, "access.store", || {
                    coh.store(cid, *addr, &bytes[..*size as usize])
                });
                if lat > machine.lat.l2 {
                    core.store_buffer.push(Reverse(core.clock + lat));
                }
                core.clock += 1; // issue cost; completion hidden by the buffer
                stats.store_issue_cycles += 1;
                stats.instructions += 1;
                stats.memory_accesses += 1;
                if let Some(inj) = injector.as_mut() {
                    let extra = inj.after_access(coh);
                    core.clock += extra;
                    obs_fault_extra += extra;
                }
                obs_access = Some(lat);
            }
            Event::Rmw {
                addr,
                size,
                val,
                op,
            } => {
                drain_store_buffer(core);
                let lat = timed(recorder, "access.rmw", || match op {
                    warden_rt::RmwOp::Swap => {
                        let bytes = val.to_le_bytes();
                        coh.rmw(cid, *addr, &bytes[..*size as usize])
                    }
                    warden_rt::RmwOp::Add => coh.rmw_add(cid, *addr, *size as u64, *val),
                });
                core.clock += lat;
                stats.rmw_cycles += lat;
                stats.instructions += 1;
                stats.memory_accesses += 1;
                if let Some(inj) = injector.as_mut() {
                    let extra = inj.after_access(coh);
                    core.clock += extra;
                    obs_fault_extra += extra;
                }
                obs_access = Some(lat);
            }
            Event::Fork { children } => {
                // The fork edge is a sync point: writes made before the
                // fork must be visible to whichever core runs a child.
                let sync = coh.task_sync(cid);
                core.clock += sync;
                stats.region_cycles += sync;
                tasks[task].pending_children = children.len() as u64;
                core.current = Some(children[0]);
                for &c in &children[1..] {
                    core.deque.push_back(c);
                }
                if !core.deque.is_empty() {
                    *stocked |= 1 << cid;
                }
            }
            Event::RegionAdd { start, end, token } => {
                if coh.uses_regions() {
                    core.clock += machine.lat.region_instr;
                    stats.region_cycles += machine.lat.region_instr;
                    stats.instructions += 1;
                    if let Some(id) = coh.add_region(*start, *end) {
                        match regions.binary_search_by_key(token, |&(t, _)| t) {
                            Ok(pos) => regions[pos].1 = id,
                            Err(pos) => regions.insert(pos, (*token, id)),
                        }
                    }
                    if let Some(inj) = injector.as_mut() {
                        let extra = inj.after_region_add(coh);
                        core.clock += extra;
                        obs_fault_extra += extra;
                    }
                }
            }
            Event::RegionRemove { token } => {
                if coh.uses_regions() {
                    stats.instructions += 1;
                    match regions
                        .binary_search_by_key(token, |&(t, _)| t)
                        .ok()
                        .map(|pos| regions.remove(pos).1)
                    {
                        Some(id) => {
                            let lat = timed(recorder, "reconcile-walk", || coh.remove_region(id));
                            core.clock += lat;
                            stats.region_cycles += lat;
                        }
                        None => {
                            // The add overflowed: the remove is a no-op
                            // instruction.
                            core.clock += machine.lat.region_instr;
                            stats.region_cycles += machine.lat.region_instr;
                        }
                    }
                }
            }
        }
        if let Some(rec) = self.recorder.as_mut() {
            let clock = self.cores[cid].clock;
            if let Some(lat) = obs_access {
                rec.note_access(clock, lat, machine.lat.l2);
            }
            if obs_fault_extra > 0 {
                rec.note_fault_stall(clock, cid, obs_fault_extra);
            }
            rec.drain(&mut self.coh, clock, cid);
        }
        self.makespan = self.makespan.max(self.cores[cid].clock);
    }

    /// Run the replay to completion with the observability recorder
    /// installed, and return the outcome together with its [`ObsReport`]:
    /// cycle-stamped event timeline, per-epoch summaries, latency
    /// histograms and the Perfetto exporter. Recording is passive — the
    /// outcome is bit-identical to [`Self::run`]'s. Events are recorded
    /// from this call on, so call it on a freshly built engine for a whole
    /// run's history. Ignores any [`SimOptions::cancel`] token, like
    /// [`Self::run`].
    pub fn run_observed(mut self) -> (SimOutcome, ObsReport) {
        self.coh.enable_obs();
        self.recorder = Some(ObsRecorder::new());
        while self.step() {}
        let (outcome, report) = self.conclude();
        (outcome, report.expect("the recorder was installed above"))
    }

    /// Consume the engine and produce the [`SimOutcome`] (end-of-run
    /// cleanup, cache flush, energy accounting). Meaningful once
    /// [`Self::step`] has returned `false`; calling it earlier reports the
    /// partial run as-is.
    pub fn finish(self) -> SimOutcome {
        self.conclude().0
    }

    /// [`Self::finish`], also folding the recorder (if installed) into its
    /// report.
    fn conclude(mut self) -> (SimOutcome, Option<ObsReport>) {
        self.settle();
        if let Some(inj) = self.injector.as_mut() {
            // End-of-run cleanup: release decoys still pinned, so region
            // state matches a fault-free run (unbilled, like the flush
            // below).
            inj.finish(&mut self.coh);
            self.stats.faults = inj.stats;
        }
        if let Some(rec) = self.recorder.as_mut() {
            // End-of-run cleanup events (e.g. decoy-region releases) land
            // at the makespan, attributed to core 0.
            rec.drain(&mut self.coh, self.makespan, 0);
        }
        let obs = self.recorder.take().map(ObsRecorder::into_report);
        let violations = self.coh.take_violations();
        let region_peak = self.coh.region_peak();
        self.coh.flush_all();
        self.stats.cycles = self.makespan;
        self.stats.core_cycles_total = self.cores.iter().map(|c| c.clock).sum();
        self.stats.coherence = *self.coh.stats();
        let energy = energy_of(&self.stats, self.machine.topo, &self.opts.energy);
        // The engine is consumed: move the final image out instead of
        // cloning it (the clone used to rival the replay itself on
        // multi-megabyte images).
        let final_memory = self.coh.take_memory();
        let outcome = SimOutcome {
            protocol: self.protocol,
            machine: self.machine.name.clone(),
            memory_image_digest: final_memory.digest(),
            final_memory,
            stats: self.stats,
            energy,
            region_peak,
            violations,
        };
        (outcome, obs)
    }
}

/// A fixed-size winner (tournament) tree over the cores' `(clock, core)`
/// keys: the root holds the argmin, i.e. the core the engine steps next.
///
/// Node `1` is the root, node `i` has children `2i` and `2i + 1`, and the
/// leaves `64..128` are the cores: a machine has at most 64 (the directory's
/// sharer sets are `u64` bitmasks), so every tree has the same six levels.
/// A key packs `(clock, core)` into one integer, `clock << 64 | core`, whose
/// order is the tuple's, so each node is the smaller of its children's keys
/// by a branch-free integer `min`; clock ties go to the lower core id. The
/// padding key `u128::MAX` loses to every real core (core ids are below
/// 64); leaves past the machine's cores and parked cores hold it. A step
/// moves only the picked core's clock, so [`Self::update`] replays one
/// leaf-to-root path.
#[derive(Clone, Debug)]
struct CorePicker {
    /// `2 * LEAVES` keys; index 0 is unused.
    nodes: [u128; 2 * CorePicker::LEAVES],
}

impl CorePicker {
    /// Leaf count: the most cores a machine has.
    const LEAVES: usize = 64;

    const PAD: u128 = u128::MAX;

    /// A tree over `ncores` cores, all at clock 0.
    fn new(ncores: usize) -> CorePicker {
        assert!(
            (1..=CorePicker::LEAVES).contains(&ncores),
            "1 to 64 cores, not {ncores}"
        );
        let mut picker = CorePicker {
            nodes: [CorePicker::PAD; 2 * CorePicker::LEAVES],
        };
        picker.rebuild(std::iter::repeat_n(0, ncores));
        picker
    }

    /// The packed key of `core` at `clock`: `clock · 2^64 + core` with
    /// `core < 2^64`, so keys compare by clock first and by core on a tie.
    fn key(clock: u64, core: usize) -> u128 {
        u128::from(clock) << 64 | core as u128
    }

    /// `(clock, core)` back from a packed key; the padding key reads as
    /// `(u64::MAX, usize::MAX)`.
    fn unpack(key: u128) -> (u64, usize) {
        ((key >> 64) as u64, key as u64 as usize)
    }

    /// The smallest `(clock, core)` key.
    fn winner(&self) -> (u64, usize) {
        CorePicker::unpack(self.nodes[1])
    }

    /// Set `core`'s clock and replay its path to the root.
    fn update(&mut self, core: usize, clock: u64) {
        self.set(core, CorePicker::key(clock, core));
    }

    /// Take `core` out of the running: its leaf gets the padding key.
    fn park(&mut self, core: usize) {
        self.set(core, CorePicker::PAD);
    }

    /// Give `core`'s leaf `key` and replay its path to the root. Each node
    /// on the path becomes the smaller of the key just written below it and
    /// that key's sibling, so the climb reads only siblings, never a node
    /// it has just stored. The six levels unroll into straight-line code,
    /// and each pick is a conditional move: which key wins is a coin flip.
    /// Kept out of line, because inlined into the engine's step loop the
    /// compiler turns those moves back into branches, which mispredict.
    #[inline(never)]
    fn set(&mut self, core: usize, mut key: u128) {
        let mut i = CorePicker::LEAVES + core;
        self.nodes[i] = key;
        for _ in 0..CorePicker::LEAVES.trailing_zeros() {
            let sibling = self.nodes[i ^ 1];
            key = std::hint::select_unpredictable(sibling < key, sibling, key);
            i /= 2;
            self.nodes[i] = key;
        }
    }

    /// Reload every leaf from `clocks` (core order) and recompute every
    /// internal node.
    fn rebuild(&mut self, clocks: impl Iterator<Item = u64>) {
        let leaves = CorePicker::LEAVES;
        self.nodes[leaves..].fill(CorePicker::PAD);
        for (core, clock) in clocks.enumerate() {
            self.nodes[leaves + core] = CorePicker::key(clock, core);
        }
        for i in (1..leaves).rev() {
            self.nodes[i] = self.nodes[2 * i].min(self.nodes[2 * i + 1]);
        }
    }
}

/// Bytes per host cache line.
const HOST_LINE: usize = 64;

/// Bytes per trace event (24, asserted where `Event` is defined).
const EVENT_BYTES: usize = size_of::<Event>();

/// Greatest common divisor, for the chunk size below.
const fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Events per read-ahead chunk: the fewest whole events that end on a line
/// boundary, `lcm(EVENT_BYTES, HOST_LINE) / EVENT_BYTES`, so 8 events.
const FETCH_CHUNK: usize = HOST_LINE / gcd(EVENT_BYTES, HOST_LINE);

/// Host lines one chunk fills: 3 for 24-byte events.
const FETCH_LINES: usize = FETCH_CHUNK * EVENT_BYTES / HOST_LINE;

// Reading ahead a single line measured slower than a chunk (DESIGN.md §7k).
const _: () = assert!(FETCH_LINES >= 3);

/// Touch every host line the chunk after the one starting at `next` starts
/// an event in, so that chunk's line misses overlap here instead of each
/// stalling the step that reaches it. A task's events are read one per
/// step, and the steps rotate over up to 64 tasks' streams, which the
/// host's prefetchers do not follow, and `#![forbid(unsafe_code)]` leaves no
/// prefetch instruction.
///
/// A chunk fills whole lines, so every chunk of a task starts at the
/// array's own offset within a line. Each read takes the first event that
/// starts at or after a line boundary, found from byte offsets; the tag
/// leads the event, so the read lands in that line. Unless the array is
/// line-aligned a chunk straddles [`FETCH_LINES`]` + 1` lines, hence one
/// read more; when the last of them holds no start of this chunk, that read
/// takes the following chunk's first event. `black_box` keeps the otherwise
/// unused reads; the indices clamp to the last event instead of branching.
fn fetch_next_chunk(events: &[Event], next: usize) {
    let last = events.len() - 1;
    let first = next + FETCH_CHUNK;
    let phase = events.as_ptr() as usize % HOST_LINE;
    for line in 0..=FETCH_LINES {
        let offset = (line * HOST_LINE).saturating_sub(phase);
        let ev = &events[(first + offset.div_ceil(EVENT_BYTES)).min(last)];
        std::hint::black_box(std::mem::discriminant(ev));
    }
}

fn drain_store_buffer(core: &mut Core) {
    while let Some(&Reverse(t)) = core.store_buffer.peek() {
        if t <= core.clock {
            core.store_buffer.pop();
        } else {
            break;
        }
    }
}

/// The number of idle ticks a core parked at clock `parked_at` takes before
/// the step at `key` runs: the count of `j ≥ 0` with
/// `(parked_at + j·tick, core) < key`. A tick-by-tick replay runs exactly
/// these, because it executes steps in `(clock, core)` order. `tick` is
/// non-zero ([`MachineConfig::validate`]).
fn idle_ticks_before(parked_at: u64, core: usize, (t, b): (u64, usize), tick: u64) -> u64 {
    match t.checked_sub(parked_at) {
        None => 0,
        // `d / tick` ticks land strictly before `t`; one more lands before
        // `t` too when the division has a remainder, or lands on `t` and
        // wins the tie on core id.
        Some(d) => d / tick + u64::from(d % tick != 0 || core < b),
    }
}

/// The set bits of `mask`, lowest first.
fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (i < 64).then_some(i)
    })
}

/// An idle core takes work: its own deque first, else it steals from a
/// random victim. The engine calls this only while some deque is
/// non-empty (an idle core that finds them all empty parks instead), so a
/// core with an empty deque always finds a victim.
///
/// The victims are the set bits of `stocked` (the thief's own bit is clear:
/// its deque is empty), and `gen_range(0..count)` picks the k-th of them in
/// core order: the same draw and the same victim as a scan over all cores,
/// so replays stay bit-identical.
///
/// Taking a task — popped or stolen — is a sync point for the lazy
/// protocols: the consumer self-invalidates so it observes everything the
/// producer published at its fork edge. The sync must not perturb the RNG
/// draw sequence (replays are bit-identical across protocols' schedules),
/// so it runs strictly after the steal decision.
fn acquire_work(
    cid: usize,
    cores: &mut [Core],
    stocked: &mut u64,
    machine: &MachineConfig,
    rng: &mut SmallRng,
    stats: &mut SimStats,
    coh: &mut CoherenceSystem,
) {
    let (task, from) = match cores[cid].deque.pop_back() {
        Some(t) => (t, cid),
        None => {
            stats.steal_attempts += 1;
            let k = rng.gen_range(0..stocked.count_ones() as usize);
            let victim = set_bits(*stocked).nth(k).expect("k < victim count");
            let stolen = cores[victim].deque.pop_front().expect("victim non-empty");
            cores[cid].clock += machine.steal_cost;
            stats.steal_cycles += machine.steal_cost;
            stats.steals += 1;
            (stolen, victim)
        }
    };
    if cores[from].deque.is_empty() {
        *stocked &= !(1 << from);
    }
    cores[cid].current = Some(task);
    let sync = coh.task_sync(cid);
    cores[cid].clock += sync;
    stats.region_cycles += sync;
}

#[cfg(test)]
mod tests {
    use super::*;
    use warden_rt::{trace_program, MarkPolicy, RtOptions};

    fn tiny_machine() -> MachineConfig {
        MachineConfig::dual_socket().with_cores(2)
    }

    /// A fork-join trace (a small fib) that leaves most of a 48-core
    /// machine idle, so cores park for most of the run.
    fn fork_join_program() -> TraceProgram {
        use warden_rt::TaskCtx;
        fn fib(ctx: &mut TaskCtx<'_>, n: u64) -> u64 {
            if n < 2 {
                ctx.work(40);
                return n;
            }
            let (a, b) = ctx.fork2(|c| fib(c, n - 1), |c| fib(c, n - 2));
            a + b
        }
        trace_program("fib", RtOptions::default(), |ctx| {
            let out = ctx.alloc::<u64>(1);
            let r = fib(ctx, 11);
            ctx.write(&out, 0, r);
        })
    }

    fn sample_program() -> TraceProgram {
        trace_program("sample", RtOptions::default(), |ctx| {
            let xs = ctx.tabulate::<u64>(512, 32, &|_c, i| i * 3 + 1);
            let sum = ctx.reduce(0, 512, 32, &|c, i| c.read(&xs, i), &|a, b| a + b, 0);
            assert_eq!(sum, (0..512u64).map(|i| i * 3 + 1).sum());
        })
    }

    #[test]
    fn replay_is_deterministic() {
        let p = sample_program();
        let m = tiny_machine();
        let a = simulate(&p, &m, ProtocolId::Warden);
        let b = simulate(&p, &m, ProtocolId::Warden);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.memory_image_digest, b.memory_image_digest);
    }

    #[test]
    fn protocols_produce_identical_memory_images() {
        let p = sample_program();
        let m = tiny_machine();
        let mesi = simulate(&p, &m, ProtocolId::Mesi);
        let warden = simulate(&p, &m, ProtocolId::Warden);
        assert_eq!(mesi.memory_image_digest, warden.memory_image_digest);
        let (lo, _) = p.address_range;
        let len = p.address_range.1 - lo;
        assert_eq!(
            mesi.final_memory
                .first_difference(&warden.final_memory, lo, len),
            None
        );
    }

    #[test]
    fn replay_image_matches_logical_image() {
        let p = sample_program();
        let m = tiny_machine();
        let out = simulate(&p, &m, ProtocolId::Warden);
        let (lo, hi) = p.address_range;
        assert_eq!(
            out.final_memory.first_difference(&p.memory, lo, hi - lo),
            None,
            "replayed memory must reproduce the program's logical result"
        );
    }

    #[test]
    fn engine_stepping_matches_one_shot_simulation() {
        let p = sample_program();
        let m = tiny_machine();
        let opts = SimOptions::default();
        let mut eng = SimEngine::new(&p, &m, ProtocolId::Warden, &opts);
        assert!(!eng.is_done());
        while eng.step() {}
        assert!(eng.is_done());
        assert!(eng.steps() > 0);
        assert_eq!(eng.completed_tasks(), p.tasks.len());
        let stepped = eng.finish();
        let oneshot = simulate(&p, &m, ProtocolId::Warden);
        assert_eq!(stepped.stats, oneshot.stats);
        assert_eq!(stepped.memory_image_digest, oneshot.memory_image_digest);
    }

    #[test]
    fn pre_cancelled_token_rejects_the_replay() {
        let p = sample_program();
        let m = tiny_machine();
        let token = CancelToken::new();
        token.cancel();
        let opts = SimOptions {
            cancel: Some(token),
            ..SimOptions::default()
        };
        match try_simulate(&p, &m, ProtocolId::Warden, &opts) {
            Err(SimError::Cancelled { steps }) => assert_eq!(steps, 0),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn uncancelled_token_is_bit_identical_to_plain_run() {
        let p = sample_program();
        let m = tiny_machine();
        let opts = SimOptions {
            cancel: Some(CancelToken::new()),
            ..SimOptions::default()
        };
        let with_token =
            try_simulate(&p, &m, ProtocolId::Warden, &opts).expect("runs to completion");
        let plain = simulate(&p, &m, ProtocolId::Warden);
        assert_eq!(with_token.stats, plain.stats);
        assert_eq!(with_token.memory_image_digest, plain.memory_image_digest);
    }

    #[test]
    fn mid_run_cancellation_stops_at_the_next_poll_boundary() {
        // Deterministic mid-run cancellation: advance the engine partway by
        // hand, flip the token (as the campaign watchdog does from another
        // thread), then hand the rest of the replay to `run_with_cancel`.
        // It must stop at its first poll rather than finish the program:
        // the step count it reports is the one at the flip.
        let p = sample_program();
        let m = tiny_machine();
        let full = {
            let mut eng = SimEngine::new(&p, &m, ProtocolId::Warden, &SimOptions::default());
            while eng.step() {}
            eng.steps()
        };
        let token = CancelToken::new();
        let opts = SimOptions {
            cancel: Some(token.clone()),
            ..SimOptions::default()
        };
        let mut eng = SimEngine::try_new(&p, &m, ProtocolId::Warden, &opts).expect("valid machine");
        while eng.steps() < full / 2 {
            assert!(eng.step(), "half the run must not exhaust the program");
        }
        let head = eng.steps();
        token.cancel();
        match eng.run_with_cancel() {
            Err(SimError::Cancelled { steps }) => {
                assert_eq!(steps, head, "cancellation observed at the first poll");
                assert!(steps < full);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn observability_is_passive_and_reports() {
        use crate::obs::SimEvent;
        let p = sample_program();
        let m = tiny_machine();
        let plain = simulate(&p, &m, ProtocolId::Warden);
        let (observed, rep) =
            SimEngine::new(&p, &m, ProtocolId::Warden, &SimOptions::default()).run_observed();
        assert_eq!(
            observed.stats, plain.stats,
            "recording must not perturb the run"
        );
        assert_eq!(observed.memory_image_digest, plain.memory_image_digest);

        assert!(!rep.timeline.is_empty());
        assert!(
            rep.metrics.counter("GetS").unwrap_or(0)
                + rep.metrics.counter("GetS.ward").unwrap_or(0)
                > 0,
            "read misses must be observed"
        );
        assert!(
            !rep.region_spans.is_empty(),
            "leaf heaps must open WARD regions"
        );
        assert!(rep.metrics.hist("miss_latency_cycles").unwrap().count() > 0);
        // With nothing dropped, the epoch summaries account for exactly the
        // protocol events on the timeline.
        assert_eq!(rep.dropped_events, 0);
        let epoch_events: u64 = rep.epochs.iter().map(|e| e.events).sum();
        let proto_events = rep
            .timeline
            .iter()
            .filter(|t| matches!(t.event, SimEvent::Protocol(_)))
            .count() as u64;
        assert_eq!(epoch_events, proto_events);
        // The host profile saw the instrumented phases.
        assert!(rep.spans.get("access.load").is_some());
        assert!(rep.spans.get("reconcile-walk").is_some());
        // And the timeline exports as a well-formed Perfetto trace.
        warden_obs::validate_trace(&rep.trace_event_json("sample")).expect("well-formed trace");
    }

    #[test]
    fn warden_reduces_downgrades_on_leaf_result_flow() {
        // The pattern the paper's marking actually captures: every leaf
        // allocates a result buffer in its own (WARD) heap, fills it, and
        // the parent reads it after the join. Under MESI those reads
        // downgrade the child cores' dirty copies; under WARDen the
        // completion-time reconciliation already pushed the data to the
        // LLC.
        use warden_rt::{SimSlice, TaskCtx};
        fn rec(ctx: &mut TaskCtx<'_>, depth: u32) -> SimSlice<u64> {
            if depth == 0 {
                let buf = ctx.alloc::<u64>(64);
                for i in 0..64 {
                    ctx.write(&buf, i, i * 7);
                }
                return buf;
            }
            let (a, b) = ctx.fork2(|c| rec(c, depth - 1), |c| rec(c, depth - 1));
            // The parent consumes both children's buffers.
            let mut acc = 0u64;
            for i in 0..64 {
                acc = acc
                    .wrapping_add(ctx.read(&a, i))
                    .wrapping_add(ctx.read(&b, i));
            }
            let out = ctx.alloc::<u64>(64);
            for i in 0..64 {
                ctx.write(&out, i, acc.wrapping_add(i));
            }
            out
        }
        let p = trace_program("leafres", RtOptions::default(), |ctx| {
            let _ = rec(ctx, 7);
        });
        let m = tiny_machine();
        let mesi = simulate(&p, &m, ProtocolId::Mesi);
        let warden = simulate(&p, &m, ProtocolId::Warden);
        let (md, wd) = (
            mesi.stats.coherence.downgrades,
            warden.stats.coherence.downgrades,
        );
        assert!(
            (wd as f64) < 0.5 * md as f64,
            "WARDen should eliminate most result-read downgrades (mesi {md}, warden {wd})"
        );
        assert!(
            warden.stats.cycles < mesi.stats.cycles,
            "and run faster (mesi {}, warden {})",
            mesi.stats.cycles,
            warden.stats.cycles
        );
        assert_eq!(mesi.memory_image_digest, warden.memory_image_digest);
    }

    #[test]
    fn warden_overhead_is_bounded_on_unfavourable_work() {
        // Ancestor-tabulate traffic is *not* captured by leaf-heap marking
        // (paper §4.1's conservatism); WARDen must still stay close to MESI
        // — the "benchmarks which benefit minimally" of §7.2.
        let p = trace_program("forky", RtOptions::default(), |ctx| {
            let xs = ctx.tabulate::<u64>(4096, 16, &|c, i| {
                c.work(20);
                i
            });
            let _ = ctx.reduce(0, 4096, 16, &|c, i| c.read(&xs, i), &|a, b| a + b, 0);
        });
        let m = tiny_machine();
        let mesi = simulate(&p, &m, ProtocolId::Mesi);
        let warden = simulate(&p, &m, ProtocolId::Warden);
        assert!(
            (warden.stats.cycles as f64) < 1.10 * mesi.stats.cycles as f64,
            "overhead must stay within 10% (mesi {}, warden {})",
            mesi.stats.cycles,
            warden.stats.cycles
        );
    }

    #[test]
    fn mesi_sees_no_region_activity() {
        let p = sample_program();
        let out = simulate(&p, &tiny_machine(), ProtocolId::Mesi);
        assert_eq!(out.stats.coherence.region_adds, 0);
        assert_eq!(out.region_peak, 0);
    }

    #[test]
    fn unmarked_traces_make_warden_behave_like_mesi() {
        let p = trace_program(
            "nomark",
            RtOptions {
                mark: MarkPolicy::None,
                ..RtOptions::default()
            },
            |ctx| {
                let xs = ctx.tabulate::<u64>(256, 32, &|_c, i| i);
                let _ = ctx.reduce(0, 256, 32, &|c, i| c.read(&xs, i), &|a, b| a + b, 0);
            },
        );
        let m = tiny_machine();
        let mesi = simulate(&p, &m, ProtocolId::Mesi);
        let warden = simulate(&p, &m, ProtocolId::Warden);
        // A legacy (unmarked) application runs unencumbered: identical
        // timing and traffic (Figure 1's legacy path).
        assert_eq!(mesi.stats.cycles, warden.stats.cycles);
        assert_eq!(
            mesi.stats.coherence.inv_plus_dg(),
            warden.stats.coherence.inv_plus_dg()
        );
    }

    #[test]
    fn work_stealing_uses_multiple_cores() {
        let p = sample_program();
        let out = simulate(&p, &tiny_machine(), ProtocolId::Mesi);
        assert!(out.stats.steals > 0, "parallel work must be stolen");
    }

    #[test]
    fn more_cores_do_not_slow_down_parallel_work() {
        let p = trace_program("wide", RtOptions::default(), |ctx| {
            ctx.parallel_for(0, 4096, 64, &|c, _i| c.work(400));
        });
        let m1 = MachineConfig::single_socket().with_cores(1);
        let m4 = MachineConfig::single_socket().with_cores(4);
        let t1 = simulate(&p, &m1, ProtocolId::Mesi).stats.cycles;
        let t4 = simulate(&p, &m4, ProtocolId::Mesi).stats.cycles;
        assert!(
            (t4 as f64) < 0.5 * t1 as f64,
            "4 cores should be at least 2x faster ({t4} vs {t1})"
        );
    }

    #[test]
    fn single_core_runs_to_completion_without_steals() {
        let p = sample_program();
        let m = MachineConfig::single_socket().with_cores(1);
        let out = simulate(&p, &m, ProtocolId::Warden);
        assert_eq!(out.stats.steals, 0);
        assert_eq!(out.stats.tasks, p.tasks.len() as u64);
    }

    #[test]
    fn fewer_store_mshrs_slow_invalidation_storms() {
        // Two tasks ping-pong stores on a shared ancestor array: with one
        // write MSHR, every missing store serializes; with many, the buffer
        // hides them.
        let p = trace_program("storms", RtOptions::default(), |ctx| {
            let xs = ctx.alloc::<u64>(512);
            ctx.fork2(
                |c| {
                    for i in 0..512 {
                        c.write(&xs, i, i);
                    }
                },
                |c| {
                    for i in 0..512 {
                        c.write(&xs, i, i + 1);
                    }
                },
            );
        });
        let base = MachineConfig::dual_socket().with_cores(2);
        let mut narrow = base.clone();
        narrow.store_mshrs = 1;
        let mut wide = base.clone();
        wide.store_mshrs = 56;
        let t_narrow = simulate(&p, &narrow, ProtocolId::Mesi).stats;
        let t_wide = simulate(&p, &wide, ProtocolId::Mesi).stats;
        assert!(
            t_narrow.cycles > t_wide.cycles,
            "1 MSHR ({}) must be slower than 56 ({})",
            t_narrow.cycles,
            t_wide.cycles
        );
        assert!(t_narrow.store_stall_cycles > t_wide.store_stall_cycles);
    }

    #[test]
    fn store_hits_bypass_the_miss_queue() {
        // A single core rewriting one block: after the cold-start misses,
        // every store is an L1 hit and must add no stall cycles — 100x the
        // hit-stores, identical stalls.
        let run = |iters: u64| {
            let p = trace_program("hits", RtOptions::default(), move |ctx| {
                let xs = ctx.alloc::<u64>(4);
                for i in 0..iters {
                    ctx.write(&xs, i % 4, i);
                }
            });
            let mut m = MachineConfig::single_socket().with_cores(1);
            m.store_mshrs = 1;
            simulate(&p, &m, ProtocolId::Mesi).stats.store_stall_cycles
        };
        assert_eq!(run(50), run(5_000));
    }

    #[test]
    fn makespan_is_at_least_the_critical_path() {
        let p = trace_program("serialwork", RtOptions::default(), |ctx| {
            ctx.work(100_000);
        });
        let m = MachineConfig::dual_socket();
        let out = simulate(&p, &m, ProtocolId::Mesi);
        // CPI 1/2 on 100k instructions = 50k cycles minimum.
        assert!(out.stats.cycles >= m.compute_cycles(100_000));
        assert!(out.stats.instructions >= 100_000);
    }

    #[test]
    fn disaggregated_is_slower_than_dual_socket() {
        let p = sample_program();
        let dual = simulate(&p, &MachineConfig::dual_socket(), ProtocolId::Mesi);
        let disagg = simulate(&p, &MachineConfig::disaggregated(), ProtocolId::Mesi);
        assert!(
            disagg.stats.cycles > dual.stats.cycles,
            "1 µs remote accesses must hurt ({} vs {})",
            disagg.stats.cycles,
            dual.stats.cycles
        );
    }

    #[test]
    fn region_capacity_overflow_is_harmless() {
        let p = sample_program();
        let mut m = tiny_machine();
        m.cache.region_capacity = 1;
        let mesi = simulate(&p, &m, ProtocolId::Mesi);
        let warden = simulate(&p, &m, ProtocolId::Warden);
        assert!(warden.stats.coherence.region_overflows > 0);
        assert_eq!(mesi.memory_image_digest, warden.memory_image_digest);
    }

    #[test]
    fn energy_params_scale_reported_energy() {
        let p = sample_program();
        let m = tiny_machine();
        let cheap = simulate(&p, &m, ProtocolId::Mesi);
        let pricey = simulate_with_options(
            &p,
            &m,
            ProtocolId::Mesi,
            &SimOptions {
                energy: EnergyParams {
                    e_dram: 100.0,
                    ..EnergyParams::default()
                },
                ..SimOptions::default()
            },
        );
        assert!(pricey.energy.in_processor_nj > cheap.energy.in_processor_nj);
        assert_eq!(pricey.stats.cycles, cheap.stats.cycles, "energy is passive");
    }

    #[test]
    fn cycle_categories_conserve_core_time() {
        // Every clock advance in the engine is classified into exactly one
        // category, so the categories must sum to the cores' total time —
        // also on 48 cores, where parked cores' idle ticks are added in
        // closed form, and with injected fault stalls.
        let (sample, fib) = (sample_program(), fork_join_program());
        let plain = SimOptions::default();
        let benign = SimOptions {
            faults: Some(FaultPlan::benign(3)),
            ..SimOptions::default()
        };
        for (bench, p, m, opts) in [
            ("sample", &sample, tiny_machine(), &plain),
            ("sample", &sample, MachineConfig::dual_socket(), &plain),
            ("fib", &fib, MachineConfig::many_socket(4), &plain),
            ("fib", &fib, MachineConfig::many_socket(4), &benign),
        ] {
            for proto in ProtocolId::ALL {
                let s = simulate_with_options(p, &m, proto, opts).stats;
                let classified: u64 = s.cycle_breakdown().iter().map(|&(_, c)| c).sum();
                assert_eq!(
                    classified, s.core_cycles_total,
                    "{bench} on {} {proto}: breakdown must conserve core time",
                    m.name
                );
            }
        }
    }

    #[test]
    fn warden_shifts_cycles_from_loads_to_compute_share() {
        // The mechanism of the speedup: WARDen removes load-stall cycles
        // (downgrade chains), leaving compute untouched.
        let p = trace_program("shift", RtOptions::default(), |ctx| {
            let xs = ctx.tabulate::<u64>(2048, 32, &|c, i| {
                c.work(10);
                i
            });
            let _ = ctx.reduce(0, 2048, 32, &|c, i| c.read(&xs, i), &|a, b| a + b, 0);
        });
        let m = tiny_machine();
        let mesi = simulate(&p, &m, ProtocolId::Mesi).stats;
        let warden = simulate(&p, &m, ProtocolId::Warden).stats;
        assert!(warden.load_cycles < mesi.load_cycles);
        assert_eq!(warden.compute_cycles, mesi.compute_cycles);
    }

    #[test]
    fn seeds_change_schedules_not_results() {
        let p = sample_program();
        let base = tiny_machine();
        let a = simulate(&p, &base.clone().with_seed(1), ProtocolId::Warden);
        let b = simulate(&p, &base.clone().with_seed(2), ProtocolId::Warden);
        assert_eq!(a.memory_image_digest, b.memory_image_digest);
        // Cycle counts may differ (different steal schedules) but stay in
        // the same ballpark.
        let ratio = a.stats.cycles as f64 / b.stats.cycles as f64;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }

    /// The `(clock, core)` argmin over the unparked cores: the key the
    /// tree's root must hold (`None` while every core is parked).
    fn argmin(clocks: &[u64], parked: u64) -> Option<(u64, usize)> {
        (0..clocks.len())
            .filter(|&i| parked & 1 << i == 0)
            .map(|i| (clocks[i], i))
            .min()
    }

    /// Drive the picker the way the engine does, checking its winner
    /// against the argmin before every op and after the last. An op
    /// `(inc, action)` parks the picked core (action 0), unparks every
    /// parked core at its clock (action 1), or advances only the picked
    /// core's clock by `inc`, saturating at `u64::MAX`, and updates its
    /// leaf (any other action).
    fn drive(picker: &mut CorePicker, clocks: &mut [u64], ops: &[(u64, u8)]) {
        let mut parked = 0u64;
        let check = |picker: &CorePicker, clocks: &[u64], parked: u64| {
            let want = argmin(clocks, parked);
            assert_eq!(
                picker.winner(),
                want.unwrap_or((u64::MAX, usize::MAX)),
                "ncores={} clocks={clocks:?} parked={parked:#x}",
                clocks.len()
            );
            want.map(|(_, core)| core)
        };
        for &(inc, action) in ops {
            let picked = check(picker, clocks, parked);
            match (action, picked) {
                (0, Some(core)) => {
                    parked |= 1 << core;
                    picker.park(core);
                }
                (1, _) => {
                    for i in set_bits(std::mem::take(&mut parked)) {
                        picker.update(i, clocks[i]);
                    }
                }
                (_, Some(core)) => {
                    clocks[core] = clocks[core].saturating_add(inc);
                    picker.update(core, clocks[core]);
                }
                _ => {}
            }
        }
        check(picker, clocks, parked);
    }

    /// The packed key orders exactly like the `(clock, core)` tuple and
    /// unpacks to it, and every real key loses only to the padding key:
    /// over every pair of keys built from the boundary clocks (0, the
    /// middle of the range, `u64::MAX` and their neighbours) and the
    /// boundary core ids of a 64-core machine.
    #[test]
    fn packed_keys_order_like_clock_core_tuples() {
        let clocks = [
            0,
            1,
            2,
            u64::MAX / 2,
            u64::MAX / 2 + 1,
            u64::MAX - 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        let cores = [0usize, 1, 2, 31, 32, 62, 63];
        let tuples: Vec<(u64, usize)> = clocks
            .iter()
            .flat_map(|&c| cores.iter().map(move |&i| (c, i)))
            .collect();
        for &a in &tuples {
            let ka = CorePicker::key(a.0, a.1);
            assert_eq!(CorePicker::unpack(ka), a);
            assert!(ka < CorePicker::PAD, "{a:?} must beat the padding key");
            for &b in &tuples {
                assert_eq!(
                    ka.cmp(&CorePicker::key(b.0, b.1)),
                    a.cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
        assert_eq!(CorePicker::unpack(CorePicker::PAD), (u64::MAX, usize::MAX));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The closed-form tick count equals a tick-by-tick count of the
        /// parked core's keys `(c + j·tick, i)` that precede the step's key
        /// `(T, b)`: with `T` below, at and above `c`, `T − c` a multiple of
        /// the tick or not, the parked core's id below or above the
        /// stepping core's, and ticks of 1, 60 and others.
        #[test]
        fn idle_ticks_before_matches_a_tick_by_tick_count(
            c in 20_000u64..1_000_000,
            tick in proptest::prop_oneof![
                proptest::strategy::Just(1u64),
                proptest::strategy::Just(60u64),
                1u64..200,
            ],
            gap in (0u64..50, 0u64..200, proptest::prelude::any::<bool>()),
            side in 0usize..3,
            ids in (0usize..64, 0usize..64),
        ) {
            let (whole, rem, exact) = gap;
            let (i, b) = (ids.0, if ids.0 == ids.1 { (ids.1 + 1) % 64 } else { ids.1 });
            let offset = whole * tick + if exact { 0 } else { rem % tick };
            let t = match side {
                0 => c - offset - 1,
                1 => c,
                _ => c + offset,
            };
            let mut brute = 0;
            while (c + brute * tick, i) < (t, b) {
                brute += 1;
            }
            proptest::prop_assert_eq!(idle_ticks_before(c, i, (t, b), tick), brute);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// At every core count from 1 to 64 (so padded leaves take part),
        /// the tree's pick is the `(clock, core)` argmin under random clock
        /// increments, zero-cost steps and their ties included, with cores
        /// parking (their leaves take the padding key) and rejoining, every
        /// core parked at once included — from the all-zero start and after
        /// a rebuild from arbitrary clocks: small ones, ones at and near
        /// `u64::MAX` (where increments saturate, so cores tie there), and
        /// one clock shared by every core.
        #[test]
        fn core_picker_matches_the_argmin(
            start in proptest::collection::vec(
                proptest::prop_oneof![0u64..8, u64::MAX - 8..=u64::MAX],
                64,
            ),
            same in proptest::prelude::any::<bool>(),
            ops in proptest::collection::vec(
                (
                    // One increment in 17 jumps to `u64::MAX`.
                    proptest::strategy::Strategy::prop_map(0u64..17, |i| {
                        if i == 16 { u64::MAX } else { i % 4 }
                    }),
                    0u8..8,
                ),
                0..300,
            ),
        ) {
            for ncores in 1usize..=64 {
                let mut picker = CorePicker::new(ncores);
                let mut clocks = vec![0u64; ncores];
                drive(&mut picker, &mut clocks, &ops);

                let mut clocks = if same {
                    vec![start[0]; ncores]
                } else {
                    start[..ncores].to_vec()
                };
                picker.rebuild(clocks.iter().copied());
                drive(&mut picker, &mut clocks, &ops);
            }
        }
    }
}
