//! Seeded, deterministic fault injection for replay runs.
//!
//! A [`FaultPlan`] describes a campaign of stress events injected while the
//! engine replays a trace:
//!
//! * **Region-CAM exhaustion storms** — decoy WARD regions at addresses the
//!   program never touches periodically fill the directory's region CAM, so
//!   real Add-Region instructions overflow into the safe MESI-fallback path.
//! * **Forced mid-region reconciliations** — random address ranges are
//!   reconciled on demand while their regions are still active (the blocks
//!   re-enter W on their next access).
//! * **Latency spikes** — random memory accesses stall for extra cycles
//!   (modelling contention the timing model doesn't otherwise capture,
//!   remote-link congestion included: the paper models a remote socket or
//!   node by its latency alone).
//! * **ProtocolId mutations** — deliberate protocol defects
//!   ([`ProtocolMutation`]) the invariant checker must detect.
//!
//! Everything is driven by one private [`SmallRng`] seeded from the plan, so
//! a `(program, machine, plan)` triple replays identically. A plan without
//! mutations is *benign*: it perturbs schedules, latencies and statistics
//! but never the final memory image (the engine's tests assert bit-identical
//! images against fault-free runs).

use crate::error::SimError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use warden_coherence::{CoherenceSystem, ProtocolId, ProtocolMutation, RegionId};
use warden_mem::codec::{CodecError, Decoder, Encoder};
use warden_mem::{Addr, PAGE_SIZE};

/// Base address of the decoy regions used for CAM-exhaustion storms; far
/// above any address the trace runtime allocates, so decoys never alias
/// program data.
const DECOY_BASE: u64 = 1 << 45;

/// Most decoy regions one storm will pin (bounds the work of releasing
/// them; the paper's CAM holds 1024 entries).
const MAX_DECOYS_PER_STORM: u64 = 2048;

/// Description of one deterministic fault-injection campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of the injector's private RNG (independent of the machine's
    /// scheduling seed).
    pub seed: u64,
    /// Every this-many Add-Region instructions, flood the region CAM with
    /// decoy regions until it overflows (0 disables storms).
    pub cam_storm_period: u64,
    /// Memory accesses a CAM storm lasts before the decoys are released.
    pub cam_storm_len: u64,
    /// Every this-many memory accesses, force-reconcile a random page range
    /// of the program's address space (0 disables).
    pub forced_reconcile_period: u64,
    /// Pages per forced reconciliation walk.
    pub forced_reconcile_pages: u64,
    /// Per-access probability of a latency spike, in `[0, 1]`.
    pub spike_prob: f64,
    /// Extra stall cycles one spike costs.
    pub spike_cycles: u64,
    /// ProtocolId defects to install (empty for a benign plan).
    pub mutations: Vec<ProtocolMutation>,
}

impl FaultPlan {
    /// A benign plan exercising every non-mutating fault with moderate
    /// intensity: storms, forced reconciliations and spikes, but no
    /// protocol defects — the final memory image must match a
    /// fault-free run bit for bit.
    pub fn benign(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            cam_storm_period: 3,
            cam_storm_len: 400,
            forced_reconcile_period: 900,
            forced_reconcile_pages: 4,
            spike_prob: 0.01,
            spike_cycles: 800,
            mutations: Vec::new(),
        }
    }

    /// A plan that injects nothing but the given protocol defect (for
    /// checker-detection tests).
    pub fn mutation_only(seed: u64, m: ProtocolMutation) -> FaultPlan {
        FaultPlan {
            cam_storm_period: 0,
            forced_reconcile_period: 0,
            spike_prob: 0.0,
            mutations: vec![m],
            ..FaultPlan::benign(seed)
        }
    }

    /// Add a protocol defect to the plan.
    pub fn with_mutation(mut self, m: ProtocolMutation) -> FaultPlan {
        self.mutations.push(m);
        self
    }

    /// Whether the plan corrupts protocol semantics (mutated runs must not
    /// be held to image-equality).
    pub fn is_benign(&self) -> bool {
        self.mutations.is_empty()
    }

    /// Check the plan's parameters for plausibility: a probability in
    /// `[0, 1]` and non-zero windows for enabled faults.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |msg: String| Err(SimError::BadFaultPlan(msg));
        if !(0.0..=1.0).contains(&self.spike_prob) {
            return bad(format!(
                "spike probability {} outside [0, 1]",
                self.spike_prob
            ));
        }
        if self.cam_storm_period > 0 && self.cam_storm_len == 0 {
            return bad("cam_storm_len must be non-zero when storms are enabled".into());
        }
        if self.forced_reconcile_period > 0 && self.forced_reconcile_pages == 0 {
            return bad("forced_reconcile_pages must be non-zero when enabled".into());
        }
        Ok(())
    }
}

/// Counters for everything the injector did, accounted separately from the
/// regular timing categories (`stall_cycles` is the eighth entry of
/// [`crate::SimStats::cycle_breakdown`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Latency spikes injected.
    pub latency_spikes: u64,
    /// CAM-exhaustion storms started.
    pub cam_storms: u64,
    /// Decoy regions pinned across all storms.
    pub decoy_regions: u64,
    /// Forced mid-region reconciliation walks performed.
    pub forced_reconciles: u64,
    /// Total extra stall cycles injected into core clocks (spikes, storm
    /// decoys and their release, forced-reconciliation walks). Every injected
    /// cycle is classified here and nowhere else, keeping the engine's
    /// cycle-conservation invariant intact.
    pub stall_cycles: u64,
}

/// Every [`FaultStats`] counter in declaration order — shared by the encode
/// and decode macros so a newly added counter fails to compile unless it is
/// wired into both.
macro_rules! for_each_fault_counter {
    ($m:ident, $($args:tt)*) => {
        $m!(
            $($args)*:
            latency_spikes,
            cam_storms,
            decoy_regions,
            forced_reconciles,
            stall_cycles,
        );
    };
}

impl FaultStats {
    /// Serialize every counter, in declaration order, for a campaign
    /// result record.
    pub(crate) fn encode_into(&self, enc: &mut Encoder) {
        macro_rules! put {
            ($self:ident, $enc:ident: $($f:ident),* $(,)?) => {
                $( $enc.put_u64($self.$f); )*
            };
        }
        for_each_fault_counter!(put, self, enc);
    }

    /// Decode counters serialized by [`Self::encode_into`].
    pub(crate) fn decode_from(dec: &mut Decoder<'_>) -> Result<FaultStats, CodecError> {
        let mut s = FaultStats::default();
        macro_rules! take {
            ($s:ident, $dec:ident: $($f:ident),* $(,)?) => {
                $( $s.$f = $dec.take_u64()?; )*
            };
        }
        for_each_fault_counter!(take, s, dec);
        Ok(s)
    }

    /// Every counter as `(name, value)` pairs in declaration order, for
    /// golden-stats snapshots.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        macro_rules! list {
            ($self:ident: $($f:ident),* $(,)?) => {
                return vec![ $( (stringify!($f), $self.$f) ),* ];
            };
        }
        for_each_fault_counter!(list, self);
    }
}

/// The live injector driving one replay's [`FaultPlan`].
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    rng: SmallRng,
    /// Memory accesses observed so far (the injector's clock).
    accesses: u64,
    /// Add-Region instructions observed so far.
    region_adds: u64,
    /// Decoy regions currently pinned in the CAM.
    decoys: Vec<RegionId>,
    /// Access count at which the current storm's decoys release.
    decoys_release_at: u64,
    /// Next decoy page index (decoys never reuse addresses within a run).
    next_decoy_page: u64,
    /// Program address range, for forced-reconciliation targets.
    addr_lo: Addr,
    addr_hi: Addr,
    /// Statistics, merged into [`crate::SimStats`] when the run ends.
    pub(crate) stats: FaultStats,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan, addr_range: (Addr, Addr)) -> FaultInjector {
        let rng = SmallRng::seed_from_u64(plan.seed);
        FaultInjector {
            plan,
            rng,
            accesses: 0,
            region_adds: 0,
            decoys: Vec::new(),
            decoys_release_at: 0,
            next_decoy_page: 0,
            addr_lo: addr_range.0,
            addr_hi: addr_range.1,
            stats: FaultStats::default(),
        }
    }

    /// Install the plan's protocol mutations into a fresh system.
    pub(crate) fn install_mutations(&self, coh: &mut CoherenceSystem) {
        for &m in &self.plan.mutations {
            coh.inject_mutation(m);
        }
    }

    /// Called after every demand memory access (load/store/rmw). Returns
    /// extra stall cycles to add to the issuing core's clock; all
    /// bookkeeping is internal.
    pub(crate) fn after_access(&mut self, coh: &mut CoherenceSystem) -> u64 {
        self.accesses += 1;
        let mut extra = 0u64;

        // Release an expired CAM storm.
        if !self.decoys.is_empty() && self.accesses >= self.decoys_release_at {
            for id in std::mem::take(&mut self.decoys) {
                extra += coh.remove_region(id);
            }
        }

        // Latency spike.
        if self.plan.spike_prob > 0.0 && self.rng.gen::<f64>() < self.plan.spike_prob {
            self.stats.latency_spikes += 1;
            extra += self.plan.spike_cycles;
        }

        // Forced mid-region reconciliation of a random page range.
        if self.plan.forced_reconcile_period > 0
            && self
                .accesses
                .is_multiple_of(self.plan.forced_reconcile_period)
            && self.addr_hi > self.addr_lo
        {
            let pages = (self.addr_hi.0 - self.addr_lo.0).div_ceil(PAGE_SIZE);
            let first = self.rng.gen_range(0..pages);
            let start = Addr((self.addr_lo.0 / PAGE_SIZE + first) * PAGE_SIZE);
            let end = start + self.plan.forced_reconcile_pages * PAGE_SIZE;
            extra += coh.force_reconcile(start, end);
            self.stats.forced_reconciles += 1;
        }

        self.stats.stall_cycles += extra;
        extra
    }

    /// Called after every Add-Region instruction the trace executes.
    /// Periodically floods the region CAM with decoys so subsequent real
    /// adds overflow into the MESI-fallback path. Returns extra stall
    /// cycles for the issuing core.
    pub(crate) fn after_region_add(&mut self, coh: &mut CoherenceSystem) -> u64 {
        if coh.protocol() != ProtocolId::Warden || self.plan.cam_storm_period == 0 {
            return 0;
        }
        self.region_adds += 1;
        if !self.region_adds.is_multiple_of(self.plan.cam_storm_period) || !self.decoys.is_empty() {
            return 0;
        }
        self.stats.cam_storms += 1;
        let mut extra = 0u64;
        for _ in 0..MAX_DECOYS_PER_STORM {
            let base = Addr(DECOY_BASE + self.next_decoy_page * PAGE_SIZE);
            self.next_decoy_page += 1;
            match coh.add_region(base, base + PAGE_SIZE) {
                Some(id) => {
                    self.decoys.push(id);
                    self.stats.decoy_regions += 1;
                    extra += 1; // nominal CAM-insert cost per decoy
                }
                None => break, // CAM full: the storm achieved exhaustion
            }
        }
        self.decoys_release_at = self.accesses + self.plan.cam_storm_len;
        self.stats.stall_cycles += extra;
        extra
    }

    /// Release any decoys still pinned (end of run), so the final region
    /// state matches a fault-free run.
    pub(crate) fn finish(&mut self, coh: &mut CoherenceSystem) {
        for id in std::mem::take(&mut self.decoys) {
            coh.remove_region(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_plans_validate() {
        FaultPlan::benign(7)
            .validate()
            .expect("benign plan is valid");
        FaultPlan::mutation_only(7, ProtocolMutation::SkipWardEntrySync)
            .validate()
            .expect("mutation-only plan is valid");
    }

    #[test]
    fn out_of_range_parameters_are_rejected() {
        let cases: Vec<(&str, FaultPlan)> = vec![
            (
                "spike probability",
                FaultPlan {
                    spike_prob: 1.5,
                    ..FaultPlan::benign(0)
                },
            ),
            (
                "cam_storm_len",
                FaultPlan {
                    cam_storm_len: 0,
                    ..FaultPlan::benign(0)
                },
            ),
            (
                "forced_reconcile_pages",
                FaultPlan {
                    forced_reconcile_pages: 0,
                    ..FaultPlan::benign(0)
                },
            ),
        ];
        for (what, plan) in cases {
            assert!(
                matches!(plan.validate(), Err(SimError::BadFaultPlan(_))),
                "{what} should be rejected"
            );
        }
    }

    #[test]
    fn mutation_only_plans_are_not_benign() {
        assert!(FaultPlan::benign(1).is_benign());
        assert!(
            !FaultPlan::mutation_only(1, ProtocolMutation::SkipReconciliationWriteback).is_benign()
        );
        assert!(!FaultPlan::benign(1)
            .with_mutation(ProtocolMutation::CoarseSectorMerge { sector_bytes: 8 })
            .is_benign());
    }
}
