//! Comparison of runs: the derived metrics each evaluation figure plots.

use crate::engine::SimOutcome;

/// Derived comparison of a WARDen run against its MESI baseline for one
/// benchmark on one machine — one column of Figures 7–11.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Benchmark name.
    pub name: String,
    /// Normalized speedup: baseline cycles / WARDen cycles (Figures 7a/8a).
    pub speedup: f64,
    /// Total processor energy savings, percent (Figures 7b/8b).
    pub total_energy_savings_pct: f64,
    /// Interconnect energy savings, percent (Figures 7b/8b).
    pub interconnect_energy_savings_pct: f64,
    /// In-processor (dynamic, non-network) energy savings, percent
    /// (Figure 12b).
    pub in_processor_energy_savings_pct: f64,
    /// Invalidations+downgrades avoided per 1000 instructions (Figure 9).
    pub inv_dg_reduced_per_kilo: f64,
    /// Share of the avoided events that were downgrades, percent
    /// (Figure 10).
    pub downgrade_share_pct: f64,
    /// Share that were invalidations, percent (Figure 10).
    pub invalidation_share_pct: f64,
    /// IPC improvement, percent (Figure 11).
    pub ipc_improvement_pct: f64,
    /// Fraction of memory accesses WARDen served in the W state (the §7.2
    /// "accesses in a WARD region" discussion).
    pub ward_serve_fraction: f64,
    /// Reconciled blocks per million cycles (the §6.2 "one block per 50,000
    /// cycles" observation).
    pub recon_blocks_per_mcycle: f64,
}

impl Comparison {
    /// Build the comparison from a MESI baseline and a WARDen run of the
    /// same program on the same machine.
    ///
    /// # Panics
    ///
    /// Panics if the runs disagree on machine or if either ran zero cycles.
    pub fn of(name: &str, mesi: &SimOutcome, warden: &SimOutcome) -> Comparison {
        assert_eq!(mesi.machine, warden.machine, "mismatched machines");
        assert!(mesi.stats.cycles > 0 && warden.stats.cycles > 0);
        let base_ipk = mesi.stats.inv_dg_per_kilo_instr();
        let ward_ipk = warden.stats.inv_dg_per_kilo_instr();
        let reduced = (base_ipk - ward_ipk).max(0.0);
        // Shares are computed from the positive parts so the two always sum
        // to 100% (a slight increase on one axis reads as a 0% share, like
        // the paper's stacked percentages).
        let dg_red = (mesi.stats.coherence.downgrades as i64
            - warden.stats.coherence.downgrades as i64)
            .max(0);
        let inv_red = (mesi.stats.coherence.invalidations as i64
            - warden.stats.coherence.invalidations as i64)
            .max(0);
        let total_red = (dg_red + inv_red).max(1) as f64;
        Comparison {
            name: name.to_owned(),
            speedup: mesi.stats.cycles as f64 / warden.stats.cycles as f64,
            total_energy_savings_pct: warden.energy.total_savings_vs(&mesi.energy),
            interconnect_energy_savings_pct: warden.energy.interconnect_savings_vs(&mesi.energy),
            in_processor_energy_savings_pct: warden.energy.in_processor_savings_vs(&mesi.energy),
            inv_dg_reduced_per_kilo: reduced,
            downgrade_share_pct: 100.0 * dg_red as f64 / total_red,
            invalidation_share_pct: 100.0 * inv_red as f64 / total_red,
            ipc_improvement_pct: 100.0 * (warden.stats.ipc() / mesi.stats.ipc() - 1.0),
            ward_serve_fraction: warden.stats.ward_serve_fraction(),
            recon_blocks_per_mcycle: warden.stats.coherence.recon_blocks as f64 * 1e6
                / warden.stats.cycles as f64,
        }
    }
}

/// Geometric mean of the speedups of a set of comparisons (the paper's MEAN
/// bars use the arithmetic mean of normalized speedups; both are reported by
/// the harness).
pub fn geomean_speedup(rows: &[Comparison]) -> f64 {
    if rows.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = rows.iter().map(|r| r.speedup.ln()).sum();
    (log_sum / rows.len() as f64).exp()
}

/// Arithmetic mean of an extracted metric.
pub fn mean(rows: &[Comparison], f: impl Fn(&Comparison) -> f64) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(f).sum::<f64>() / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::EnergyBreakdown;
    use crate::stats::SimStats;
    use warden_coherence::ProtocolId;
    use warden_mem::Memory;

    fn outcome(cycles: u64, instrs: u64, inv: u64, dg: u64) -> SimOutcome {
        let mut stats = SimStats {
            cycles,
            instructions: instrs,
            ..SimStats::default()
        };
        stats.coherence.invalidations = inv;
        stats.coherence.downgrades = dg;
        SimOutcome {
            protocol: ProtocolId::Mesi,
            machine: "m".into(),
            stats,
            energy: EnergyBreakdown {
                interconnect_nj: 100.0,
                in_processor_nj: 200.0,
                static_nj: 50.0,
            },
            memory_image_digest: 0,
            final_memory: Memory::new(),
            region_peak: 0,
            violations: Vec::new(),
        }
    }

    #[test]
    fn speedup_is_cycle_ratio() {
        let mesi = outcome(2000, 1000, 100, 100);
        let warden = outcome(1000, 1000, 10, 10);
        let c = Comparison::of("x", &mesi, &warden);
        assert!((c.speedup - 2.0).abs() < 1e-9);
        // (200-20)/1000 instr = 180 per 1000.
        assert!((c.inv_dg_reduced_per_kilo - 180.0).abs() < 1e-9);
        assert!((c.downgrade_share_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_of_equal_speedups() {
        let mesi = outcome(3000, 1000, 0, 0);
        let warden = outcome(1000, 1000, 0, 0);
        let c = Comparison::of("x", &mesi, &warden);
        let g = geomean_speedup(&[c.clone(), c]);
        assert!((g - 3.0).abs() < 1e-9);
    }

    #[test]
    fn mean_extracts_metric() {
        let mesi = outcome(2000, 1000, 10, 30);
        let warden = outcome(1000, 1000, 0, 0);
        let c = Comparison::of("x", &mesi, &warden);
        assert!((mean(&[c], |r| r.speedup) - 2.0).abs() < 1e-9);
        assert_eq!(mean(&[], |r| r.speedup), 0.0);
    }
}
