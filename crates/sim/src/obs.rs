//! Cycle-stamped observability for the replay engine.
//!
//! The coherence layer emits typed, timestamp-free [`ProtocolEvent`]s
//! (it has no clock); this module is where they become *observability*:
//! the engine drains the event buffer after every access and hands the
//! batch to an [`ObsRecorder`], which
//!
//! * stamps each event with the issuing core's cycle counter into a bounded
//!   timeline ([`TimedEvent`], capped at [`MAX_TIMELINE_EVENTS`]),
//! * accumulates per-epoch summaries ([`EpochSummary`], epoch = `cycle >>
//!   epoch_shift`),
//! * feeds log2-bucket histograms (miss latency, reconciliation walk size,
//!   WARD-region lifetime), and
//! * tracks live regions so each add/remove pair becomes a [`RegionSpan`]
//!   renderable as a Perfetto duration slice.
//!
//! The finished run hands all of it out as an [`ObsReport`], which exports
//! a Chrome trace-event JSON timeline ([`ObsReport::trace_event_json`]) that
//! Perfetto and `chrome://tracing` load directly, plus plain-text epoch and
//! summary renderings for the harness's `--obs` flag.
//!
//! Recording is a property of one direct run
//! ([`crate::SimEngine::run_observed`]) and purely passive: it never
//! touches clocks, the RNG or any statistic, so an instrumented run produces
//! bit-identical [`crate::SimStats`] and memory images. The recorder lives
//! in memory only: no campaign record carries it, and the
//! wall-clock [`SpanSet`] profile is outside every determinism guarantee.

use std::fmt::Write as _;
use warden_coherence::{CoherenceSystem, ProtocolEvent};
use warden_obs::{ArgVal, Hist, MetricsRegistry, SpanSet, TraceBuilder};

/// Default epoch width exponent: epochs are `1 << 14 = 16384` cycles.
pub const DEFAULT_EPOCH_SHIFT: u32 = 14;

/// Hard cap on timeline length; events past it are counted in
/// [`ObsReport::dropped_events`] instead of stored (epoch summaries and
/// histograms keep accumulating — only the per-event timeline is bounded).
pub const MAX_TIMELINE_EVENTS: usize = 1_000_000;

/// Epoch summaries stop growing past this many epochs; later cycles fold
/// into the last epoch so a pathological makespan cannot balloon memory.
const MAX_EPOCHS: usize = 1 << 20;

/// One observable simulation-level action: a protocol event, or something
/// only the engine can see (injected fault stalls).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimEvent {
    /// A coherence-protocol event drained from the directory.
    Protocol(ProtocolEvent),
    /// A fault-injection stall charged to a core after an access.
    FaultStall {
        /// The stalled core.
        core: usize,
        /// Extra cycles the injector charged.
        cycles: u64,
    },
}

impl SimEvent {
    /// Short stable name (Perfetto event name, summary key).
    pub fn name(&self) -> &'static str {
        match self {
            SimEvent::Protocol(p) => p.name(),
            SimEvent::FaultStall { .. } => "FaultStall",
        }
    }
}

/// A [`SimEvent`] stamped with the issuing core's cycle counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedEvent {
    /// The issuing core's clock *after* the access that produced the event.
    pub cycle: u64,
    /// The core whose access drained the event (directory-side events are
    /// attributed to the core that triggered them).
    pub core: usize,
    /// What happened.
    pub event: SimEvent,
}

/// One completed WARD region: its directory id, the cycle it was added,
/// the cycle its reconciliation walk completed, and how many dirty blocks
/// that walk visited. Exported as a Perfetto duration slice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionSpan {
    /// Directory-assigned region id.
    pub id: u64,
    /// Cycle the Add-Region was accepted.
    pub birth: u64,
    /// Cycle the Remove-Region (reconciliation walk) completed.
    pub death: u64,
    /// Dirty blocks the reconciliation walk visited.
    pub blocks: u64,
}

/// Activity within one epoch (`1 << epoch_shift` cycles) of simulated time.
/// The epoch index is the summary's position in [`ObsReport::epochs`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochSummary {
    /// ProtocolId events observed.
    pub events: u64,
    /// Demand accesses slower than an L2 hit (they reached the directory).
    pub misses: u64,
    /// Summed latency of those misses, in cycles.
    pub miss_cycles: u64,
    /// Blocks reconciled (write-mask merges at the LLC).
    pub reconciles: u64,
    /// Add-Region instructions accepted.
    pub region_adds: u64,
    /// Remove-Region walks completed.
    pub region_removes: u64,
    /// Dirty-owner snapshots taken on W entry.
    pub ward_entry_syncs: u64,
    /// Atomics that escaped the W state coherently.
    pub rmw_escapes: u64,
    /// Private and LLC evictions.
    pub evictions: u64,
    /// Cycles the fault injector stalled cores.
    pub fault_stall_cycles: u64,
}

impl EpochSummary {
    /// Whether nothing at all happened in this epoch.
    pub fn is_empty(&self) -> bool {
        *self == EpochSummary::default()
    }
}

/// The engine-side recorder: owns every accumulator while an observed run
/// is live.
#[derive(Clone, Debug)]
pub(crate) struct ObsRecorder {
    epoch_shift: u32,
    timeline: Vec<TimedEvent>,
    dropped: u64,
    epochs: Vec<EpochSummary>,
    /// Per-event-kind counts, keyed by [`SimEvent::name`].
    counts: MetricsRegistry,
    miss_latency: Hist,
    recon_blocks: Hist,
    region_lifetime: Hist,
    /// Live regions: `(directory id, birth cycle)`, sorted by id.
    region_births: Vec<(u64, u64)>,
    region_spans: Vec<RegionSpan>,
    /// Host-side profile.
    spans: SpanSet,
    /// Drain scratch; transient.
    scratch: Vec<ProtocolEvent>,
}

impl ObsRecorder {
    pub(crate) fn new() -> ObsRecorder {
        ObsRecorder {
            epoch_shift: DEFAULT_EPOCH_SHIFT,
            timeline: Vec::new(),
            dropped: 0,
            epochs: Vec::new(),
            counts: MetricsRegistry::new(),
            miss_latency: Hist::new(),
            recon_blocks: Hist::new(),
            region_lifetime: Hist::new(),
            region_births: Vec::new(),
            region_spans: Vec::new(),
            spans: SpanSet::new(),
            scratch: Vec::new(),
        }
    }

    fn epoch_mut(&mut self, cycle: u64) -> &mut EpochSummary {
        let idx = ((cycle >> self.epoch_shift) as usize).min(MAX_EPOCHS - 1);
        if idx >= self.epochs.len() {
            self.epochs.resize(idx + 1, EpochSummary::default());
        }
        &mut self.epochs[idx]
    }

    fn push(&mut self, ev: TimedEvent) {
        if self.timeline.len() < MAX_TIMELINE_EVENTS {
            self.timeline.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Record a demand access that completed with latency `lat`; anything
    /// slower than an L2 hit reached the directory and counts as a miss.
    pub(crate) fn note_access(&mut self, cycle: u64, lat: u64, l2_lat: u64) {
        if lat > l2_lat {
            self.miss_latency.add(lat);
            let e = self.epoch_mut(cycle);
            e.misses += 1;
            e.miss_cycles += lat;
        }
    }

    /// Record `cycles` of injector-charged stall on `core`.
    pub(crate) fn note_fault_stall(&mut self, cycle: u64, core: usize, cycles: u64) {
        self.epoch_mut(cycle).fault_stall_cycles += cycles;
        self.counts.add_counter("FaultStall", 1);
        self.push(TimedEvent {
            cycle,
            core,
            event: SimEvent::FaultStall { core, cycles },
        });
    }

    /// Drain the coherence system's event buffer, stamping every event
    /// with `cycle` and attributing it to `core`.
    pub(crate) fn drain(&mut self, coh: &mut CoherenceSystem, cycle: u64, core: usize) {
        let mut buf = std::mem::take(&mut self.scratch);
        coh.drain_events(&mut buf);
        for ev in buf.drain(..) {
            // Classification is the protocol's own judgement — the same
            // wire event can be demand traffic under MESI and sync traffic
            // under self-invalidation.
            let class = coh.classify_event(&ev);
            self.counts.add_counter(class.name(), 1);
            self.record_protocol(cycle, core, ev);
        }
        self.scratch = buf;
    }

    fn record_protocol(&mut self, cycle: u64, core: usize, ev: ProtocolEvent) {
        self.counts.add_counter(ev.name(), 1);
        {
            let e = self.epoch_mut(cycle);
            e.events += 1;
            match ev {
                ProtocolEvent::Reconcile { .. } => e.reconciles += 1,
                ProtocolEvent::RegionAdd { .. } => e.region_adds += 1,
                ProtocolEvent::RegionRemove { .. } => e.region_removes += 1,
                ProtocolEvent::WardEntrySync { .. } => e.ward_entry_syncs += 1,
                ProtocolEvent::RmwEscape { .. } => e.rmw_escapes += 1,
                ProtocolEvent::PrivEviction { .. } | ProtocolEvent::LlcEviction { .. } => {
                    e.evictions += 1
                }
                _ => {}
            }
        }
        match ev {
            ProtocolEvent::RegionAdd { id, .. } => {
                match self.region_births.binary_search_by_key(&id, |&(i, _)| i) {
                    Ok(pos) => self.region_births[pos].1 = cycle,
                    Err(pos) => self.region_births.insert(pos, (id, cycle)),
                }
            }
            ProtocolEvent::RegionRemove { id, blocks } => {
                self.recon_blocks.add(blocks);
                if let Ok(pos) = self.region_births.binary_search_by_key(&id, |&(i, _)| i) {
                    let (_, birth) = self.region_births.remove(pos);
                    self.region_lifetime.add(cycle.saturating_sub(birth));
                    if self.region_spans.len() < MAX_TIMELINE_EVENTS {
                        self.region_spans.push(RegionSpan {
                            id,
                            birth,
                            death: cycle.max(birth),
                            blocks,
                        });
                    }
                }
            }
            _ => {}
        }
        self.push(TimedEvent {
            cycle,
            core,
            event: SimEvent::Protocol(ev),
        });
    }

    /// Fold the accumulators into the run's [`ObsReport`].
    pub(crate) fn into_report(self) -> ObsReport {
        let mut metrics = self.counts;
        metrics.set_counter("timeline.events", self.timeline.len() as u64);
        metrics.set_counter("timeline.dropped", self.dropped);
        metrics.set_hist("miss_latency_cycles", self.miss_latency);
        metrics.set_hist("recon_walk_blocks", self.recon_blocks);
        metrics.set_hist("region_lifetime_cycles", self.region_lifetime);
        ObsReport {
            epoch_shift: self.epoch_shift,
            metrics,
            epochs: self.epochs,
            timeline: self.timeline,
            region_spans: self.region_spans,
            dropped_events: self.dropped,
            spans: self.spans,
        }
    }
}

/// Time `f` under `name` when a recorder is present, or just run it.
pub(crate) fn timed<R>(rec: &mut Option<ObsRecorder>, name: &str, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(r) => r.spans.time(name, f),
        None => f(),
    }
}

/// Everything the observability layer learned about one finished run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsReport {
    /// Epoch width exponent: epoch `i` covers cycles `[i << shift, (i+1)
    /// << shift)`.
    pub epoch_shift: u32,
    /// Named counters (per event kind, timeline accounting) and histograms
    /// (`miss_latency_cycles`, `recon_walk_blocks`,
    /// `region_lifetime_cycles`).
    pub metrics: MetricsRegistry,
    /// Dense per-epoch activity, indexed by epoch number.
    pub epochs: Vec<EpochSummary>,
    /// Cycle-stamped events, in drain order (bounded; see
    /// [`MAX_TIMELINE_EVENTS`]).
    pub timeline: Vec<TimedEvent>,
    /// Completed WARD regions as duration slices.
    pub region_spans: Vec<RegionSpan>,
    /// Events the timeline cap discarded (summaries still counted them).
    pub dropped_events: u64,
    /// Host wall-clock profile of the instrumented phases, outside any
    /// determinism guarantee.
    pub spans: SpanSet,
}

impl ObsReport {
    /// Export the run as Chrome trace-event JSON (the format Perfetto and
    /// `chrome://tracing` open directly).
    ///
    /// Simulated cycles map 1:1 onto trace timestamps. Each core is a
    /// thread; protocol events are thread-scoped instants on the issuing
    /// core's track, completed WARD regions are duration slices on a
    /// dedicated `ward regions` track, and per-epoch activity renders as
    /// counter tracks sampled at each epoch boundary.
    pub fn trace_event_json(&self, label: &str) -> String {
        const PID: u32 = 1;
        const REGION_TID: u32 = 1000;
        let mut tb = TraceBuilder::new();
        tb.process_name(PID, label);
        let mut tids: Vec<u32> = self.timeline.iter().map(|e| e.core as u32).collect();
        tids.sort_unstable();
        tids.dedup();
        for &t in &tids {
            tb.thread_name(PID, t, &format!("core {t}"));
        }
        if !self.region_spans.is_empty() {
            tb.thread_name(PID, REGION_TID, "ward regions");
        }
        for te in &self.timeline {
            let tid = te.core as u32;
            match te.event {
                SimEvent::Protocol(p) => {
                    tb.instant(p.name(), te.cycle, PID, tid, protocol_args(&p));
                }
                SimEvent::FaultStall { core, cycles } => {
                    tb.instant(
                        "FaultStall",
                        te.cycle,
                        PID,
                        core as u32,
                        vec![("cycles".to_string(), ArgVal::U64(cycles))],
                    );
                }
            }
        }
        for rs in &self.region_spans {
            tb.complete(
                "ward-region",
                rs.birth,
                rs.death - rs.birth,
                PID,
                REGION_TID,
                vec![
                    ("id".to_string(), ArgVal::U64(rs.id)),
                    ("blocks".to_string(), ArgVal::U64(rs.blocks)),
                ],
            );
        }
        for (i, e) in self.epochs.iter().enumerate() {
            let ts = (i as u64) << self.epoch_shift;
            tb.counter(
                "protocol activity",
                ts,
                PID,
                vec![
                    ("events".to_string(), ArgVal::U64(e.events)),
                    ("misses".to_string(), ArgVal::U64(e.misses)),
                    ("reconciles".to_string(), ArgVal::U64(e.reconciles)),
                ],
            );
        }
        tb.to_json()
    }

    /// Plain-text per-epoch activity table (one row per non-empty epoch).
    pub fn render_epochs(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>8} {:>12} {:>8} {:>8} {:>12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "epoch",
            "start_cycle",
            "events",
            "misses",
            "miss_cyc",
            "recon",
            "radd",
            "rrem",
            "wsync",
            "rmwesc",
            "evict"
        );
        for (i, e) in self.epochs.iter().enumerate() {
            if e.is_empty() {
                continue;
            }
            let _ = writeln!(
                out,
                "{:>8} {:>12} {:>8} {:>8} {:>12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                i,
                (i as u64) << self.epoch_shift,
                e.events,
                e.misses,
                e.miss_cycles,
                e.reconciles,
                e.region_adds,
                e.region_removes,
                e.ward_entry_syncs,
                e.rmw_escapes,
                e.evictions
            );
        }
        out
    }

    /// Plain-text summary: event counts, histograms and (when the run was
    /// profiled on this host) the wall-clock span table.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== event counts ==");
        for (name, v) in self.metrics.counters() {
            let _ = writeln!(out, "{name:<24} {v}");
        }
        let _ = writeln!(out, "== histograms ==");
        for (name, h) in self.metrics.hists() {
            let _ = writeln!(out, "{name:<24} {h}");
        }
        if !self.spans.is_empty() {
            let _ = writeln!(out, "== host wall-clock spans ==");
            let _ = writeln!(out, "{}", self.spans);
        }
        out
    }
}

/// Perfetto args for a protocol event: enough to identify what it touched.
fn protocol_args(p: &ProtocolEvent) -> Vec<(String, ArgVal)> {
    let u = |name: &str, v: u64| (name.to_string(), ArgVal::U64(v));
    match *p {
        ProtocolEvent::GetS { block, .. }
        | ProtocolEvent::GetM { block, .. }
        | ProtocolEvent::RmwEscape { block, .. }
        | ProtocolEvent::PrivEviction { block, .. }
        | ProtocolEvent::LlcEviction { block, .. }
        | ProtocolEvent::WardEntrySync { block, .. } => vec![u("block", block.0)],
        ProtocolEvent::Reconcile {
            block,
            holders,
            writebacks,
            drops,
        } => vec![
            u("block", block.0),
            u("holders", holders as u64),
            u("writebacks", writebacks as u64),
            u("drops", drops as u64),
        ],
        ProtocolEvent::RegionAdd { id, start, end } => {
            vec![u("id", id), u("start", start.0), u("end", end.0)]
        }
        ProtocolEvent::RegionOverflow { start, end } => {
            vec![u("start", start.0), u("end", end.0)]
        }
        ProtocolEvent::RegionRemove { id, blocks } => vec![u("id", id), u("blocks", blocks)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warden_obs::validate_trace;

    #[test]
    fn recorder_builds_epochs_histograms_and_spans() {
        let mut rec = ObsRecorder::new();
        let e0 = 1u64 << DEFAULT_EPOCH_SHIFT;
        rec.note_access(10, 5, 12); // L2 hit: not a miss
        rec.note_access(10, 40, 12); // miss
        rec.record_protocol(
            20,
            0,
            ProtocolEvent::RegionAdd {
                id: 7,
                start: warden_mem::Addr(0),
                end: warden_mem::Addr(4096),
            },
        );
        rec.record_protocol(e0 + 1, 1, ProtocolEvent::RegionRemove { id: 7, blocks: 9 });
        rec.note_fault_stall(e0 + 2, 1, 77);

        let rep = rec.into_report();
        assert_eq!(rep.epochs.len(), 2);
        assert_eq!(rep.epochs[0].misses, 1);
        assert_eq!(rep.epochs[0].miss_cycles, 40);
        assert_eq!(rep.epochs[0].region_adds, 1);
        assert_eq!(rep.epochs[1].region_removes, 1);
        assert_eq!(rep.epochs[1].fault_stall_cycles, 77);
        assert_eq!(rep.region_spans.len(), 1);
        let rs = rep.region_spans[0];
        assert_eq!((rs.id, rs.birth, rs.death, rs.blocks), (7, 20, e0 + 1, 9));
        assert_eq!(rep.metrics.counter("RegionAdd"), Some(1));
        assert_eq!(rep.metrics.counter("FaultStall"), Some(1));
        let lifetimes = rep.metrics.hist("region_lifetime_cycles").unwrap();
        assert_eq!(lifetimes.count(), 1);
        assert_eq!(lifetimes.max(), Some(e0 + 1 - 20));
        assert_eq!(rep.metrics.hist("recon_walk_blocks").unwrap().sum(), 9);
        assert_eq!(rep.metrics.hist("miss_latency_cycles").unwrap().count(), 1);
        assert_eq!(rep.timeline.len(), 3);
        assert_eq!(rep.dropped_events, 0);
    }

    #[test]
    fn timeline_cap_counts_drops() {
        let mut rec = ObsRecorder::new();
        rec.timeline = vec![
            TimedEvent {
                cycle: 0,
                core: 0,
                event: SimEvent::FaultStall { core: 0, cycles: 1 },
            };
            MAX_TIMELINE_EVENTS
        ];
        rec.note_fault_stall(1, 0, 1);
        assert_eq!(rec.timeline.len(), MAX_TIMELINE_EVENTS);
        assert_eq!(rec.dropped, 1);
        let rep = rec.into_report();
        assert_eq!(rep.dropped_events, 1);
        assert_eq!(rep.metrics.counter("timeline.dropped"), Some(1));
        // The epoch summary still saw the dropped event's effect.
        assert_eq!(rep.epochs[0].fault_stall_cycles, 1);
    }

    #[test]
    fn trace_export_is_wellformed_and_counts_match() {
        let mut rec = ObsRecorder::new();
        rec.record_protocol(
            2,
            0,
            ProtocolEvent::RegionAdd {
                id: 1,
                start: warden_mem::Addr(0),
                end: warden_mem::Addr(4096),
            },
        );
        rec.record_protocol(40, 1, ProtocolEvent::RegionRemove { id: 1, blocks: 3 });
        rec.note_fault_stall(50, 1, 5);
        let rep = rec.into_report();
        let json = rep.trace_event_json("unit \"test\"");
        let stats = validate_trace(&json).expect("well-formed trace");
        assert_eq!(stats.instants, 3, "two protocol events + one stall");
        assert_eq!(stats.complete, 1, "one region span");
        assert_eq!(stats.counters, rep.epochs.len());
        assert!(stats.metadata >= 3, "process + core threads + region track");
    }

    #[test]
    fn renderers_cover_activity() {
        let mut rec = ObsRecorder::new();
        rec.note_access(1, 80, 12);
        rec.record_protocol(1, 0, ProtocolEvent::RegionRemove { id: 5, blocks: 2 });
        rec.spans.add("access.load", 10);
        let rep = rec.into_report();
        let epochs = rep.render_epochs();
        assert!(epochs.contains("start_cycle"));
        assert!(epochs.lines().count() >= 2, "header plus one epoch row");
        let summary = rep.render_summary();
        assert!(summary.contains("RegionRemove"));
        assert!(summary.contains("miss_latency_cycles"));
        assert!(summary.contains("access.load"));
    }
}
