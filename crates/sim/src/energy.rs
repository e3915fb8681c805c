//! McPAT-lite: an event-energy model.
//!
//! The paper measures energy with McPAT inside Sniper and reports
//! *percentage savings*. Percentages depend on event-count ratios rather
//! than absolute joules, so an event-energy model with published-ballpark
//! per-event costs reproduces the comparisons. All constants are documented
//! and adjustable.

use crate::stats::SimStats;
use warden_coherence::Topology;

/// Per-event and static energy parameters (nanojoules / watts).
///
/// Defaults are 22 nm-class ballpark figures: tens of picojoules for small
/// SRAM arrays, ~1 nJ for a large LLC slice access, ~15–20 nJ for DRAM, and
/// order-of-magnitude costlier messages across the inter-socket link than
/// within the on-chip network.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyParams {
    /// Core dynamic energy per retired instruction (nJ).
    pub e_instr: f64,
    /// L1 access (nJ).
    pub e_l1: f64,
    /// L2 access (nJ).
    pub e_l2: f64,
    /// LLC slice access (nJ).
    pub e_llc: f64,
    /// Directory lookup (nJ).
    pub e_dir: f64,
    /// DRAM access (nJ per 64 B block).
    pub e_dram: f64,
    /// Control message within a socket (nJ).
    pub e_ctrl_intra: f64,
    /// Control message crossing the inter-socket link (nJ).
    pub e_ctrl_inter: f64,
    /// 64 B data message within a socket (nJ).
    pub e_data_intra: f64,
    /// 64 B data message crossing the inter-socket link (nJ).
    pub e_data_inter: f64,
    /// Static power per core (W).
    pub p_static_core: f64,
    /// Static power per socket uncore (W).
    pub p_static_uncore: f64,
    /// Clock frequency (GHz) — converts static watts to nJ/cycle.
    pub freq_ghz: f64,
}

impl Default for EnergyParams {
    fn default() -> EnergyParams {
        EnergyParams {
            e_instr: 0.07,
            e_l1: 0.02,
            e_l2: 0.06,
            e_llc: 0.8,
            e_dir: 0.1,
            e_dram: 18.0,
            e_ctrl_intra: 0.08,
            e_ctrl_inter: 2.0,
            e_data_intra: 0.6,
            e_data_inter: 8.0,
            p_static_core: 0.8,
            p_static_uncore: 2.0,
            freq_ghz: 3.3,
        }
    }
}

/// Energy totals for one run, split the way the paper's figures are
/// (interconnect vs. total processor).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Network/coherence-message energy (nJ) — "Interconnect" in Figures 7/8,
    /// "Network" in Figure 12.
    pub interconnect_nj: f64,
    /// Core + cache + DRAM dynamic energy (nJ) — "In-Processor" of Figure 12.
    pub in_processor_nj: f64,
    /// Static (leakage + clock) energy over the run (nJ).
    pub static_nj: f64,
}

impl EnergyBreakdown {
    /// Total processor energy: everything (the paper's "Total Processor").
    pub fn total_nj(&self) -> f64 {
        self.interconnect_nj + self.in_processor_nj + self.static_nj
    }

    /// Percent saved relative to a baseline (positive = this run is better).
    pub fn total_savings_vs(&self, baseline: &EnergyBreakdown) -> f64 {
        100.0 * (1.0 - self.total_nj() / baseline.total_nj())
    }

    /// Percent interconnect energy saved relative to a baseline.
    pub fn interconnect_savings_vs(&self, baseline: &EnergyBreakdown) -> f64 {
        100.0 * (1.0 - self.interconnect_nj / baseline.interconnect_nj)
    }

    /// Percent in-processor (dynamic, non-network) energy saved.
    pub fn in_processor_savings_vs(&self, baseline: &EnergyBreakdown) -> f64 {
        100.0 * (1.0 - self.in_processor_nj / baseline.in_processor_nj)
    }
}

/// Compute the energy of a finished run from its statistics.
pub fn energy_of(stats: &SimStats, topo: Topology, p: &EnergyParams) -> EnergyBreakdown {
    let c = &stats.coherence;
    let accesses = c.accesses() as f64;
    let l1_probes = accesses;
    let l2_probes = accesses - c.l1_hits as f64;
    let llc_probes = (c.llc_hits + c.llc_misses) as f64;
    let dram = (c.dram_reads + c.dram_writes) as f64;

    let in_processor = stats.instructions as f64 * p.e_instr
        + l1_probes * p.e_l1
        + l2_probes * p.e_l2
        + llc_probes * p.e_llc
        + c.dir_lookups as f64 * p.e_dir
        + dram * p.e_dram;

    let interconnect = c.ctrl_intra as f64 * p.e_ctrl_intra
        + c.ctrl_inter as f64 * p.e_ctrl_inter
        + c.data_intra as f64 * p.e_data_intra
        + c.data_inter as f64 * p.e_data_inter;

    let static_nj_per_cycle = (topo.num_cores() as f64 * p.p_static_core
        + topo.num_sockets() as f64 * p.p_static_uncore)
        / p.freq_ghz;
    let static_nj = stats.cycles as f64 * static_nj_per_cycle;

    EnergyBreakdown {
        interconnect_nj: interconnect,
        in_processor_nj: in_processor,
        static_nj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warden_coherence::CoherenceStats;

    fn stats(cycles: u64, instrs: u64, f: impl FnOnce(&mut CoherenceStats)) -> SimStats {
        let mut s = SimStats {
            cycles,
            instructions: instrs,
            ..SimStats::default()
        };
        f(&mut s.coherence);
        s
    }

    #[test]
    fn fewer_messages_means_less_interconnect_energy() {
        let topo = Topology::new(2, 12);
        let p = EnergyParams::default();
        let noisy = stats(1000, 100, |c| {
            c.ctrl_inter = 100;
            c.data_inter = 50;
        });
        let quiet = stats(1000, 100, |c| {
            c.ctrl_inter = 10;
            c.data_inter = 5;
        });
        let en = energy_of(&noisy, topo, &p);
        let eq = energy_of(&quiet, topo, &p);
        assert!(eq.interconnect_nj < en.interconnect_nj);
        assert!(eq.interconnect_savings_vs(&en) > 80.0);
    }

    #[test]
    fn shorter_runs_save_static_energy() {
        let topo = Topology::new(1, 12);
        let p = EnergyParams::default();
        let slow = energy_of(&stats(2000, 100, |_| {}), topo, &p);
        let fast = energy_of(&stats(1000, 100, |_| {}), topo, &p);
        assert!(fast.static_nj < slow.static_nj);
        assert!(fast.total_savings_vs(&slow) > 0.0);
    }

    #[test]
    fn intersocket_messages_cost_more() {
        let p = EnergyParams::default();
        assert!(p.e_ctrl_inter > p.e_ctrl_intra);
        assert!(p.e_data_inter > p.e_data_intra);
    }

    #[test]
    fn total_is_sum_of_parts() {
        let b = EnergyBreakdown {
            interconnect_nj: 1.0,
            in_processor_nj: 2.0,
            static_nj: 3.0,
        };
        assert_eq!(b.total_nj(), 6.0);
    }
}
