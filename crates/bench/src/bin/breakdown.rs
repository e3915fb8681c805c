//! Cycle breakdown per benchmark: where core time goes under MESI vs
//! WARDen. This is the causal view behind the speedups — WARDen removes
//! load-stall cycles (downgrade chains) and store back-pressure while
//! compute stays fixed.

use warden_bench::fmt::table;
use warden_bench::{harness_main, protocol_campaign, HarnessArgs, HarnessError};
use warden_coherence::ProtocolId;
use warden_pbbs::Bench;
use warden_sim::{MachineConfig, SimStats};

fn pct_row(stats: &SimStats) -> Vec<String> {
    let total = stats.core_cycles_total.max(1) as f64;
    stats
        .cycle_breakdown()
        .iter()
        .map(|&(_, c)| format!("{:.1}%", 100.0 * c as f64 / total))
        .collect()
}

fn main() {
    harness_main(run);
}

fn run() -> Result<(), HarnessError> {
    let args = HarnessArgs::parse(&[
        "--scale",
        "--check",
        "--faults",
        "--campaign-dir",
        "--jobs",
        "--quiet",
    ])?;
    let cfg = args.campaign_config();
    let machine = MachineConfig::dual_socket();
    let labels: Vec<&str> = SimStats::default()
        .cycle_breakdown()
        .iter()
        .map(|&(l, _)| l)
        .collect();
    let mut headers = vec!["benchmark", "protocol", "cycles"];
    headers.extend(labels.iter());
    let runs = protocol_campaign(
        &Bench::ALL,
        args.scale,
        &machine,
        &[ProtocolId::Mesi, ProtocolId::Warden],
        &args.sim_options(),
        &cfg,
    )?;
    let mut rows = Vec::new();
    for r in &runs {
        for o in &r.outcomes {
            let mut row = vec![
                r.bench.name().to_string(),
                o.protocol.to_string(),
                o.stats.cycles.to_string(),
            ];
            row.extend(pct_row(&o.stats));
            rows.push(row);
        }
    }
    println!(
        "Cycle breakdown (percent of total core time, dual socket)\n\n{}",
        table(&headers, &rows)
    );
    Ok(())
}
