//! Statistics produced by a timing replay.

use crate::faults::FaultStats;
use warden_coherence::CoherenceStats;
use warden_mem::codec::{CodecError, Decoder, Encoder};

/// Every scalar counter of [`SimStats`] in declaration order — shared by
/// the encode and decode macros so a newly added counter fails to compile
/// unless it is wired into both (the nested coherence and fault counters
/// have their own canonical lists).
macro_rules! for_each_sim_counter {
    ($m:ident, $($args:tt)*) => {
        $m!(
            $($args)*:
            cycles,
            instructions,
            memory_accesses,
            steals,
            steal_attempts,
            idle_cycles,
            store_stall_cycles,
            tasks,
            compute_cycles,
            load_cycles,
            rmw_cycles,
            store_issue_cycles,
            region_cycles,
            steal_cycles,
            core_cycles_total,
        );
    };
}

/// Everything measured during one replay of a program on one machine under
/// one protocol.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Makespan: the cycle at which the last task event completed.
    pub cycles: u64,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// Demand memory accesses replayed.
    pub memory_accesses: u64,
    /// Successful steals.
    pub steals: u64,
    /// Steal attempts (including failed probes).
    pub steal_attempts: u64,
    /// Cycles cores spent idle (no runnable work found).
    pub idle_cycles: u64,
    /// Cycles cores stalled on a full store buffer.
    pub store_stall_cycles: u64,
    /// Tasks executed.
    pub tasks: u64,
    /// Cycles spent in pure compute (summed over cores).
    pub compute_cycles: u64,
    /// Cycles cores were blocked on loads.
    pub load_cycles: u64,
    /// Cycles cores were blocked on atomics.
    pub rmw_cycles: u64,
    /// Store issue cycles (one per store; completion hides in the buffer).
    pub store_issue_cycles: u64,
    /// Cycles charged by Add/Remove-Region instructions and reconciliation.
    pub region_cycles: u64,
    /// Cycles spent performing steals.
    pub steal_cycles: u64,
    /// The sum of all cores' final clocks. Exactly equal to the sum of the
    /// per-category cycle counters above (every clock advance is classified
    /// once) — asserted by the engine's tests.
    pub core_cycles_total: u64,
    /// All coherence-engine counters.
    pub coherence: CoherenceStats,
    /// Fault-injection counters (all zero on fault-free runs).
    pub faults: FaultStats,
}

impl SimStats {
    /// System IPC: instructions per cycle of makespan, aggregated over the
    /// whole machine (the metric behind the paper's Figure 11).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.instructions as f64 / self.cycles as f64
    }

    /// Invalidations + downgrades per 1000 instructions (Figure 9's unit).
    pub fn inv_dg_per_kilo_instr(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.coherence.inv_plus_dg() as f64 * 1000.0 / self.instructions as f64
    }

    /// Fraction of memory accesses that were served in the WARD state.
    pub fn ward_serve_fraction(&self) -> f64 {
        if self.memory_accesses == 0 {
            return 0.0;
        }
        self.coherence.ward_serves as f64 / self.memory_accesses as f64
    }

    /// Serialize every measurement, in declaration order, for a campaign
    /// result record.
    pub fn encode_into(&self, enc: &mut Encoder) {
        macro_rules! put {
            ($self:ident, $enc:ident: $($f:ident),* $(,)?) => {
                $( $enc.put_u64($self.$f); )*
            };
        }
        for_each_sim_counter!(put, self, enc);
        self.coherence.encode_into(enc);
        self.faults.encode_into(enc);
    }

    /// Decode measurements serialized by [`Self::encode_into`].
    pub fn decode_from(dec: &mut Decoder<'_>) -> Result<SimStats, CodecError> {
        let mut s = SimStats::default();
        macro_rules! take {
            ($s:ident, $dec:ident: $($f:ident),* $(,)?) => {
                $( $s.$f = $dec.take_u64()?; )*
            };
        }
        for_each_sim_counter!(take, s, dec);
        s.coherence = CoherenceStats::decode_from(dec)?;
        s.faults = FaultStats::decode_from(dec)?;
        Ok(s)
    }

    /// Every measurement as `(name, value)` pairs in declaration order,
    /// with nested coherence and fault counters flattened under
    /// `coherence.` / `faults.` prefixes — the surface the golden-stats
    /// snapshot tests freeze.
    pub fn fields(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        macro_rules! list {
            ($self:ident: $($f:ident),* $(,)?) => {
                $( out.push((stringify!($f).to_string(), $self.$f)); )*
            };
        }
        for_each_sim_counter!(list, self);
        for (n, v) in self.coherence.fields() {
            out.push((format!("coherence.{n}"), v));
        }
        for (n, v) in self.faults.fields() {
            out.push((format!("faults.{n}"), v));
        }
        out
    }

    /// The classified per-category cycle totals, in display order:
    /// (label, cycles) over all cores.
    pub fn cycle_breakdown(&self) -> [(&'static str, u64); 8] {
        [
            ("compute", self.compute_cycles),
            ("loads", self.load_cycles),
            ("atomics", self.rmw_cycles),
            (
                "store issue+stall",
                self.store_issue_cycles + self.store_stall_cycles,
            ),
            ("region ops", self.region_cycles),
            ("steals", self.steal_cycles),
            ("idle", self.idle_cycles),
            ("fault stalls", self.faults.stall_cycles),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_is_instructions_per_cycle() {
        let s = SimStats {
            cycles: 100,
            instructions: 250,
            ..SimStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn inv_dg_per_kilo() {
        let mut s = SimStats {
            instructions: 10_000,
            ..SimStats::default()
        };
        s.coherence.invalidations = 30;
        s.coherence.downgrades = 20;
        assert!((s.inv_dg_per_kilo_instr() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn codec_roundtrip_covers_every_field() {
        // Distinct values per scalar field so a swapped or skipped field in
        // the codec cannot cancel out.
        let mut s = SimStats::default();
        let mut i = 1u64;
        macro_rules! fill {
            ($s:ident, $i:ident: $($f:ident),* $(,)?) => {
                $( $s.$f = $i; $i += 1; )*
            };
        }
        for_each_sim_counter!(fill, s, i);
        assert!(i > 15, "expected at least 15 scalar counters");
        s.coherence.downgrades = 99;
        s.faults.latency_spikes = 77;
        let mut enc = Encoder::new();
        s.encode_into(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = SimStats::decode_from(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn zero_division_guards() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.inv_dg_per_kilo_instr(), 0.0);
        assert_eq!(s.ward_serve_fraction(), 0.0);
    }
}
