//! Event counters collected by the coherence engine.

use std::fmt;
use std::ops::{Add, AddAssign};
use warden_mem::codec::{CodecError, Decoder, Encoder};

/// Every counter field in declaration order — the canonical field list shared
/// by the accumulation, encode and decode macros so a newly added counter
/// fails to compile unless it is wired into all three.
macro_rules! for_each_counter {
    ($m:ident, $($args:tt)*) => {
        $m!(
            $($args)*:
            loads,
            stores,
            rmws,
            l1_hits,
            l2_hits,
            llc_hits,
            llc_misses,
            invalidations,
            downgrades,
            fwd_gets,
            fwd_getm,
            inv_msgs,
            upgrades,
            writebacks,
            llc_evictions,
            llc_writebacks,
            inclusion_invalidations,
            ward_serves,
            ward_transitions,
            ward_avoided_inv,
            ward_avoided_dg,
            ward_rmw_escapes,
            ward_entry_syncs,
            ward_stale_retries,
            recon_blocks,
            recon_writebacks,
            recon_drops,
            region_adds,
            region_removes,
            region_overflows,
            region_peak,
            ctrl_intra,
            ctrl_inter,
            data_intra,
            data_inter,
            dram_reads,
            dram_writes,
            dir_lookups,
        );
    };
}

/// Aggregate counters for one simulated run of the coherence system.
///
/// The evaluation figures are computed from differences between a MESI run
/// and a WARDen run of the same trace, so the engine only needs to count
/// events faithfully — it never needs "what MESI would have done" style
/// shadow accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// Demand loads processed.
    pub loads: u64,
    /// Demand stores processed.
    pub stores: u64,
    /// Atomic read-modify-writes processed.
    pub rmws: u64,

    /// Loads/stores that hit in the L1.
    pub l1_hits: u64,
    /// Accesses that missed L1 but hit the private L2.
    pub l2_hits: u64,
    /// Accesses served by the home LLC slice (data present).
    pub llc_hits: u64,
    /// Accesses that had to fetch from memory.
    pub llc_misses: u64,

    /// Private-cache copies invalidated by coherence (counted per cache, so
    /// a copy resident in both L1 and L2 counts twice — matching the paper's
    /// "invalidations and downgrades are counted per cache").
    pub invalidations: u64,
    /// Private-cache copies downgraded M/E→S by coherence (per cache).
    pub downgrades: u64,
    /// Fwd-GetS interventions sent to a dirty owner.
    pub fwd_gets: u64,
    /// Fwd-GetM interventions sent to an owner.
    pub fwd_getm: u64,
    /// Invalidation messages sent to sharers.
    pub inv_msgs: u64,
    /// S→M upgrade transactions.
    pub upgrades: u64,

    /// Dirty blocks written back on private-cache eviction (PutM).
    pub writebacks: u64,
    /// LLC lines evicted.
    pub llc_evictions: u64,
    /// LLC lines written back to memory on eviction.
    pub llc_writebacks: u64,
    /// Private copies invalidated due to LLC inclusion victims.
    pub inclusion_invalidations: u64,

    /// Requests served in the W state without invalidating or downgrading
    /// any other copy.
    pub ward_serves: u64,
    /// Blocks that transitioned into the W state.
    pub ward_transitions: u64,
    /// Invalidations a MESI directory would have sent but the W state
    /// suppressed (analysis counter, not used by the timing model).
    pub ward_avoided_inv: u64,
    /// Downgrades a MESI directory would have sent but the W state
    /// suppressed (analysis counter).
    pub ward_avoided_dg: u64,
    /// Atomic RMWs that targeted a W block and forced an on-demand
    /// single-block reconciliation (coherent escape).
    pub ward_rmw_escapes: u64,
    /// Dirty-owner snapshots performed as blocks entered the W state (the
    /// sound-entry intervention: one per block per region epoch).
    pub ward_entry_syncs: u64,
    /// Write misses that found a stale W entry outside any active region and
    /// retried the directory transaction after reconciling the block. Each
    /// retry re-runs the LLC lookup, so the cache-level accounting identity
    /// is `l1_hits + l2_hits + llc_hits + llc_misses ==
    /// accesses() + ward_stale_retries`.
    pub ward_stale_retries: u64,

    /// Blocks processed by reconciliation (had at least one private copy).
    pub recon_blocks: u64,
    /// Dirty private copies written back during reconciliation.
    pub recon_writebacks: u64,
    /// Clean private copies dropped during reconciliation.
    pub recon_drops: u64,

    /// Add-Region instructions accepted.
    pub region_adds: u64,
    /// Remove-Region instructions processed.
    pub region_removes: u64,
    /// Add-Region instructions rejected because the region store was full
    /// (those addresses fall back to plain MESI).
    pub region_overflows: u64,
    /// Peak simultaneous regions.
    pub region_peak: u64,

    /// Control messages that stayed within a socket.
    pub ctrl_intra: u64,
    /// Control messages that crossed the inter-socket link.
    pub ctrl_inter: u64,
    /// Data (block) messages that stayed within a socket.
    pub data_intra: u64,
    /// Data (block) messages that crossed the inter-socket link.
    pub data_inter: u64,

    /// Blocks read from memory.
    pub dram_reads: u64,
    /// Blocks written to memory.
    pub dram_writes: u64,
    /// Directory lookups performed.
    pub dir_lookups: u64,
}

impl CoherenceStats {
    /// Fresh, all-zero counters.
    pub fn new() -> CoherenceStats {
        CoherenceStats::default()
    }

    /// Total demand accesses.
    pub fn accesses(&self) -> u64 {
        self.loads + self.stores + self.rmws
    }

    /// Invalidations plus downgrades — the cost metric of paper Figure 9.
    pub fn inv_plus_dg(&self) -> u64 {
        self.invalidations + self.downgrades
    }

    /// All protocol messages (control + data).
    pub fn total_messages(&self) -> u64 {
        self.ctrl_intra + self.ctrl_inter + self.data_intra + self.data_inter
    }

    /// Messages that crossed the inter-socket link.
    pub fn intersocket_messages(&self) -> u64 {
        self.ctrl_inter + self.data_inter
    }

    /// Every counter as a `(name, value)` pair, in declaration order — the
    /// canonical flat view the golden-stats fixtures and the observability
    /// exporters print. Driven by the same macro as the codec, so a new
    /// counter shows up here (and in the goldens) automatically.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        macro_rules! list {
            ($self:ident: $($f:ident),* $(,)?) => {
                return vec![ $( (stringify!($f), $self.$f) ),* ];
            };
        }
        for_each_counter!(list, self);
    }

    /// Serialize every counter, in declaration order, for a campaign
    /// result record.
    pub fn encode_into(&self, enc: &mut Encoder) {
        macro_rules! put {
            ($self:ident, $enc:ident: $($f:ident),* $(,)?) => {
                $( $enc.put_u64($self.$f); )*
            };
        }
        for_each_counter!(put, self, enc);
    }

    /// Decode counters serialized by [`Self::encode_into`].
    pub fn decode_from(dec: &mut Decoder<'_>) -> Result<CoherenceStats, CodecError> {
        let mut s = CoherenceStats::new();
        macro_rules! take {
            ($s:ident, $dec:ident: $($f:ident),* $(,)?) => {
                $( $s.$f = $dec.take_u64()?; )*
            };
        }
        for_each_counter!(take, s, dec);
        Ok(s)
    }
}

impl Add for CoherenceStats {
    type Output = CoherenceStats;
    fn add(mut self, rhs: CoherenceStats) -> CoherenceStats {
        self += rhs;
        self
    }
}

impl AddAssign for CoherenceStats {
    fn add_assign(&mut self, rhs: CoherenceStats) {
        macro_rules! acc {
            ($($f:ident),* $(,)?) => { $( self.$f += rhs.$f; )* };
        }
        acc!(
            loads,
            stores,
            rmws,
            l1_hits,
            l2_hits,
            llc_hits,
            llc_misses,
            invalidations,
            downgrades,
            fwd_gets,
            fwd_getm,
            inv_msgs,
            upgrades,
            writebacks,
            llc_evictions,
            llc_writebacks,
            inclusion_invalidations,
            ward_serves,
            ward_transitions,
            ward_avoided_inv,
            ward_avoided_dg,
            ward_rmw_escapes,
            ward_entry_syncs,
            ward_stale_retries,
            recon_blocks,
            recon_writebacks,
            recon_drops,
            region_adds,
            region_removes,
            region_overflows,
            ctrl_intra,
            ctrl_inter,
            data_intra,
            data_inter,
            dram_reads,
            dram_writes,
            dir_lookups,
        );
        self.region_peak = self.region_peak.max(rhs.region_peak);
    }
}

impl fmt::Display for CoherenceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "accesses {} (L1 {} / L2 {} / LLC {} / mem {})",
            self.accesses(),
            self.l1_hits,
            self.l2_hits,
            self.llc_hits,
            self.llc_misses
        )?;
        writeln!(
            f,
            "inv {} dg {} ward-serves {} recon-blocks {}",
            self.invalidations, self.downgrades, self.ward_serves, self.recon_blocks
        )?;
        write!(
            f,
            "msgs intra {}c/{}d inter {}c/{}d",
            self.ctrl_intra, self.data_intra, self.ctrl_inter, self.data_inter
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_all_fields() {
        let mut a = CoherenceStats::new();
        a.loads = 1;
        a.invalidations = 2;
        a.region_peak = 5;
        let mut b = CoherenceStats::new();
        b.loads = 10;
        b.downgrades = 3;
        b.region_peak = 2;
        let c = a + b;
        assert_eq!(c.loads, 11);
        assert_eq!(c.inv_plus_dg(), 5);
        // Peak is a max, not a sum.
        assert_eq!(c.region_peak, 5);
    }

    #[test]
    fn derived_metrics() {
        let mut s = CoherenceStats::new();
        s.loads = 3;
        s.stores = 2;
        s.rmws = 1;
        s.ctrl_intra = 4;
        s.data_inter = 6;
        assert_eq!(s.accesses(), 6);
        assert_eq!(s.total_messages(), 10);
        assert_eq!(s.intersocket_messages(), 6);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", CoherenceStats::new()).is_empty());
    }

    #[test]
    fn codec_roundtrip_covers_every_field() {
        // Give each field a distinct value so a swapped or skipped field in
        // the codec cannot cancel out.
        let mut s = CoherenceStats::new();
        let mut i = 1u64;
        macro_rules! fill {
            ($s:ident, $i:ident: $($f:ident),* $(,)?) => {
                $( $s.$f = $i; $i += 1; )*
            };
        }
        for_each_counter!(fill, s, i);
        assert!(i > 38, "expected at least 38 counters");
        assert_eq!(s.fields().len() as u64, i - 1, "fields() covers the list");
        let mut enc = Encoder::new();
        s.encode_into(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = CoherenceStats::decode_from(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back, s);
    }
}
