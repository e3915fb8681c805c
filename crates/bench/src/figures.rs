//! Renderers for each table/figure, shared by the per-figure binaries and
//! `all_figures`.

use crate::campaign::ProtocolRun;
use crate::fmt::{bar, f2, pct, table};
use crate::paper;
use warden_cacti::{CacheBitBudget, RegionCam};
use warden_coherence::ProtocolId;
use warden_sim::{mean, table1, Comparison, MachineConfig};

/// Table 1: simulator latency validation.
pub fn render_table1(machine: &MachineConfig, iterations: u64) -> String {
    let rows: Vec<Vec<String>> = table1(machine, iterations)
        .into_iter()
        .map(|r| {
            vec![
                r.scenario.to_string(),
                f2(r.paper_real_hw),
                f2(r.paper_sniper),
                f2(r.measured),
            ]
        })
        .collect();
    format!(
        "Table 1: true-sharing ping-pong latency (cycles/iteration)\n\n{}",
        table(
            &[
                "Scenario",
                "Paper real HW",
                "Paper Sniper",
                "This simulator"
            ],
            &rows
        )
    )
}

/// Table 2: simulated system specification.
pub fn render_table2(machine: &MachineConfig) -> String {
    let rows = vec![
        vec!["L1 size".into(), "32 KB".into()],
        vec!["L2 size".into(), "256 KB".into()],
        vec!["L3 size (per core)".into(), "2.5 MB".into()],
        vec!["Cache block size".into(), "64 B".into()],
        vec!["L1/L2 associativity".into(), "8".into()],
        vec!["L3 associativity".into(), "20".into()],
        vec![
            "L1/L2/L3 latencies".into(),
            format!(
                "{}-{}-{} cycles",
                machine.lat.l1, machine.lat.l2, machine.lat.l3
            ),
        ],
        vec!["Frequency".into(), "3.3 GHz".into()],
        vec![
            "Cores per socket".into(),
            machine.topo.cores_per_socket().to_string(),
        ],
        vec!["Sockets".into(), machine.topo.num_sockets().to_string()],
        vec![
            "Intersocket latency".into(),
            format!("{} cycles", machine.lat.intersocket),
        ],
    ];
    format!(
        "Table 2: simulated system specification ({})\n\n{}",
        machine.name,
        table(&["Parameter", "Value"], &rows)
    )
}

/// Each run's WARDen-vs-MESI comparison ([`ProtocolRun::comparison`]),
/// one per run in order.
pub fn comparisons(runs: &[ProtocolRun]) -> Vec<Comparison> {
    runs.iter().map(ProtocolRun::comparison).collect()
}

fn speedup_energy_figure(
    title: &str,
    runs: &[ProtocolRun],
    paper_means: (f64, f64, f64),
) -> String {
    let cmps = comparisons(runs);
    let mut rows: Vec<Vec<String>> = cmps
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                f2(c.speedup),
                bar(c.speedup, 2.2, 24),
                pct(c.interconnect_energy_savings_pct),
                pct(c.total_energy_savings_pct),
            ]
        })
        .collect();
    let mean_speedup = mean(&cmps, |c| c.speedup);
    rows.push(vec![
        "MEAN".into(),
        f2(mean_speedup),
        bar(mean_speedup, 2.2, 24),
        pct(mean(&cmps, |c| c.interconnect_energy_savings_pct)),
        pct(mean(&cmps, |c| c.total_energy_savings_pct)),
    ]);
    let (p_speed, p_int, p_tot) = paper_means;
    format!(
        "{title}\n\n{}\nPaper means: speedup {p_speed}x, interconnect energy {p_int}%, total processor energy {p_tot}%\n",
        table(
            &["Benchmark", "Speedup", "", "Interconnect savings", "Total savings"],
            &rows
        )
    )
}

/// Figure 7: single-socket performance and energy.
pub fn render_fig7(runs: &[ProtocolRun]) -> String {
    speedup_energy_figure(
        "Figure 7: performance and energy gains on single socket",
        runs,
        (
            paper::FIG7_MEAN_SPEEDUP,
            paper::FIG7_MEAN_INTERCONNECT_ENERGY,
            paper::FIG7_MEAN_TOTAL_ENERGY,
        ),
    )
}

/// Figure 8: dual-socket performance and energy.
pub fn render_fig8(runs: &[ProtocolRun]) -> String {
    speedup_energy_figure(
        "Figure 8: performance and energy gains on dual socket",
        runs,
        (
            paper::FIG8_MEAN_SPEEDUP,
            paper::FIG8_MEAN_INTERCONNECT_ENERGY,
            paper::FIG8_MEAN_TOTAL_ENERGY,
        ),
    )
}

/// Figure 9: speedup vs invalidation+downgrade reduction (dual socket).
pub fn render_fig9(runs: &[ProtocolRun]) -> String {
    let rows: Vec<Vec<String>> = comparisons(runs)
        .into_iter()
        .map(|c| {
            vec![
                c.name,
                f2(c.inv_dg_reduced_per_kilo),
                bar(c.inv_dg_reduced_per_kilo, 60.0, 20),
                f2(c.speedup),
                format!("{:.0}%", 100.0 * c.ward_serve_fraction),
                f2(c.recon_blocks_per_mcycle / 1000.0 * 50.0), // blocks per 50k cycles
            ]
        })
        .collect();
    format!(
        "Figure 9: dual-socket speedup with the reduction in invalidations and downgrades\n\n{}\n\
         (paper: positive correlation between reductions and speedup; §6.2 observes\n \
         ~1 reconciled block per 50k cycles at much larger input scales)\n",
        table(
            &[
                "Benchmark",
                "Inv+Down reduced /k-instr",
                "",
                "Speedup",
                "W-state serves",
                "Recon blocks /50k cyc",
            ],
            &rows
        )
    )
}

/// Figure 10: share of the reduction from downgrades vs invalidations.
pub fn render_fig10(runs: &[ProtocolRun]) -> String {
    let rows: Vec<Vec<String>> = comparisons(runs)
        .into_iter()
        .map(|c| {
            let paper_dg = paper::fig10_downgrade_share(&c.name)
                .map(pct)
                .unwrap_or_else(|| "-".into());
            vec![
                c.name,
                pct(c.downgrade_share_pct),
                pct(c.invalidation_share_pct),
                paper_dg,
            ]
        })
        .collect();
    format!(
        "Figure 10: percent of the avoided events that were downgrades vs invalidations\n\n{}",
        table(
            &[
                "Benchmark",
                "Downgrade %",
                "Invalidation %",
                "Paper downgrade %"
            ],
            &rows
        )
    )
}

/// Figure 11: percentage IPC improvement.
pub fn render_fig11(runs: &[ProtocolRun]) -> String {
    let rows: Vec<Vec<String>> = comparisons(runs)
        .into_iter()
        .map(|c| {
            vec![
                c.name,
                pct(c.ipc_improvement_pct),
                bar(c.ipc_improvement_pct.max(0.0), 80.0, 20),
            ]
        })
        .collect();
    format!(
        "Figure 11: percentage IPC improvement (dual socket)\n\n{}",
        table(&["Benchmark", "IPC improvement", ""], &rows)
    )
}

/// Figure 12: disaggregated machine (speedup + energy split), titled for
/// the benchmark subset it shows (the paper's, or this reproduction's
/// most-promising one).
pub fn render_fig12_titled(runs: &[ProtocolRun], title: &str) -> String {
    let cmps = comparisons(runs);
    let mut rows: Vec<Vec<String>> = cmps
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                f2(c.speedup),
                bar(c.speedup, 8.0, 24),
                pct(c.in_processor_energy_savings_pct),
                pct(c.interconnect_energy_savings_pct),
                pct(c.total_energy_savings_pct),
            ]
        })
        .collect();
    let mean_speedup = mean(&cmps, |c| c.speedup);
    rows.push(vec![
        "MEAN".into(),
        f2(mean_speedup),
        bar(mean_speedup, 8.0, 24),
        pct(mean(&cmps, |c| c.in_processor_energy_savings_pct)),
        pct(mean(&cmps, |c| c.interconnect_energy_savings_pct)),
        pct(mean(&cmps, |c| c.total_energy_savings_pct)),
    ]);
    format!(
        "{title}\n\n{}\n\
         Paper means: speedup {}x, network energy {}%, processor energy {}%\n",
        table(
            &[
                "Benchmark",
                "Speedup",
                "",
                "In-processor savings",
                "Network savings",
                "Total savings"
            ],
            &rows
        ),
        paper::FIG12_MEAN_SPEEDUP,
        paper::FIG12_MEAN_NETWORK_ENERGY,
        paper::FIG12_MEAN_PROCESSOR_ENERGY,
    )
}

/// Protocol zoo: per-benchmark cycles for every requested protocol,
/// normalized to the first one (the reference: MSI in `all_figures`). All
/// rows come from runs that already agreed on the final memory image.
pub fn render_protocol_zoo(runs: &[ProtocolRun], protocols: &[ProtocolId]) -> String {
    let mut headers: Vec<String> = vec!["Benchmark".into()];
    for &p in protocols {
        headers.push(format!("{p} cycles"));
    }
    for &p in &protocols[1..] {
        headers.push(format!("{p} vs {}", protocols[0]));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            let mut row = vec![r.bench.name().to_string()];
            for o in &r.outcomes {
                row.push(o.stats.cycles.to_string());
            }
            let base = r.outcomes[0].stats.cycles.max(1) as f64;
            for o in &r.outcomes[1..] {
                row.push(format!("{}x", f2(base / o.stats.cycles.max(1) as f64)));
            }
            row
        })
        .collect();
    format!(
        "Protocol zoo: replay cycles across every registered protocol\n\n{}",
        table(&header_refs, &rows)
    )
}

/// The coherence atlas: per-machine cycle tables plus the cross-machine
/// win-region grid (which protocol is fastest for each sharing pattern at
/// each machine point).
pub fn render_coherence_atlas(atlas: &crate::atlas::Atlas) -> String {
    use std::collections::BTreeMap;
    let per_group = ProtocolId::ALL.len();
    let mut s = format!(
        "Coherence atlas: protocol win regions across the machine space (seed {})\n",
        atlas.seed
    );

    // One table per machine: patterns × protocol cycles, winner last.
    let mut machine_order: Vec<&str> = Vec::new();
    for group in atlas.cells.chunks(per_group) {
        let m = group[0].machine.as_str();
        if machine_order.last() != Some(&m) {
            machine_order.push(m);
        }
    }
    let mut headers: Vec<String> = vec!["Pattern".into()];
    for p in ProtocolId::ALL {
        headers.push(format!("{p} cycles"));
    }
    headers.push("winner".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    for machine in &machine_order {
        let rows: Vec<Vec<String>> = atlas
            .cells
            .chunks(per_group)
            .filter(|g| g[0].machine == *machine)
            .map(|g| {
                let mut row = vec![g[0].pattern.to_string()];
                for c in g {
                    row.push(c.cycles.to_string());
                }
                let best = g.iter().min_by_key(|c| c.cycles).expect("non-empty group");
                row.push(best.protocol.name().to_string());
                row
            })
            .collect();
        s.push_str(&format!("\n{machine}\n\n{}", table(&header_refs, &rows)));
    }

    // The win-region grid: rows = patterns, columns = machines.
    let mut wins: BTreeMap<(String, String), &'static str> = BTreeMap::new();
    for (machine, pattern, proto) in atlas.winners() {
        wins.insert((pattern.to_string(), machine.to_string()), proto.name());
    }
    let mut grid_headers: Vec<&str> = vec!["Pattern \\ Machine"];
    grid_headers.extend(machine_order.iter().copied());
    let patterns: Vec<String> = {
        let mut seen = Vec::new();
        for g in atlas.cells.chunks(per_group) {
            let p = g[0].pattern.to_string();
            if !seen.contains(&p) {
                seen.push(p);
            }
        }
        seen
    };
    let grid_rows: Vec<Vec<String>> = patterns
        .iter()
        .map(|p| {
            let mut row = vec![p.clone()];
            for m in &machine_order {
                row.push(
                    wins.get(&(p.clone(), (*m).to_string()))
                        .copied()
                        .unwrap_or("-")
                        .to_string(),
                );
            }
            row
        })
        .collect();
    s.push_str(&format!(
        "\nWin regions (fastest protocol per cell)\n\n{}",
        table(&grid_headers, &grid_rows)
    ));
    s
}

/// §6.1 hardware-cost estimates.
pub fn render_area() -> String {
    let sector = CacheBitBudget::llc_line().sectoring_overhead();
    let cam = RegionCam::paper().area_fraction_of(CacheBitBudget::total_chip_bits(12));
    let rows = vec![
        vec![
            "Byte sectoring (per cache)".into(),
            format!("{:.1}%", sector * 100.0),
            format!("{:.1}%", paper::AREA_SECTORING * 100.0),
        ],
        vec![
            "1024-entry region store (of chip caches)".into(),
            format!("{:.3}%", cam * 100.0),
            format!("< {:.2}%", paper::AREA_REGION_CAM_BOUND * 100.0),
        ],
    ];
    format!(
        "Hardware cost estimates (paper §6.1, CACTI-style)\n\n{}",
        table(&["Structure", "This model", "Paper"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use warden_pbbs::{Bench, Scale};
    use warden_sim::simulate;

    /// One tiny benchmark on a 2-core dual-socket machine, simulated
    /// directly under each of `protocols`.
    fn tiny_run(bench: Bench, protocols: &[ProtocolId]) -> ProtocolRun {
        let program = bench.build(Scale::Tiny);
        let m = MachineConfig::dual_socket().with_cores(2);
        let outcomes = protocols
            .iter()
            .map(|&p| simulate(&program, &m, p))
            .collect();
        ProtocolRun { bench, outcomes }
    }

    fn figures(runs: &[ProtocolRun]) -> [String; 6] {
        [
            render_fig7(runs),
            render_fig8(runs),
            render_fig9(runs),
            render_fig10(runs),
            render_fig11(runs),
            render_fig12_titled(runs, "Figure 12"),
        ]
    }

    #[test]
    fn renders_are_nonempty() {
        let m = MachineConfig::dual_socket().with_cores(2);
        assert!(render_table1(&m, 50).contains("Same core"));
        assert!(render_table2(&m).contains("L1 size"));
        assert!(render_area().contains("sectoring"));
        let runs = [tiny_run(
            Bench::MakeArray,
            &[ProtocolId::Mesi, ProtocolId::Warden],
        )];
        for s in figures(&runs) {
            assert!(s.contains("make_array"), "{s}");
        }
    }

    /// The figures look MESI and WARDen up by protocol: a run of every
    /// protocol, where both sit at other positions, renders the same text.
    #[test]
    fn figures_find_mesi_and_warden_by_protocol() {
        let all = tiny_run(Bench::Msort, &ProtocolId::ALL);
        let pair = ProtocolRun {
            bench: all.bench,
            outcomes: [ProtocolId::Mesi, ProtocolId::Warden]
                .map(|p| all.outcome(p).expect("every protocol ran").clone())
                .to_vec(),
        };
        assert_eq!(figures(&[pair]), figures(&[all]));
    }

    #[test]
    #[should_panic(expected = "make_array: the run has no WARDen outcome")]
    fn a_run_without_warden_panics_naming_the_benchmark() {
        render_fig8(&[tiny_run(Bench::MakeArray, &[ProtocolId::Mesi])]);
    }
}
