//! The §7.3 "many sockets" projection: WARDen's advantage as the machine
//! grows — 1, 2 and 4 sockets, then the disaggregated two-node system.
//! (The paper argues, without a figure, that rising interconnect latencies
//! make WARDen increasingly valuable; this binary puts numbers on it.)

use warden_bench::fmt::{f2, table};
use warden_bench::{harness_main, protocol_campaign, HarnessArgs, HarnessError, Panel};
use warden_coherence::ProtocolId;
use warden_pbbs::Bench;
use warden_sim::MachineConfig;

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
    let machines = [
        MachineConfig::single_socket(),
        MachineConfig::dual_socket(),
        MachineConfig::many_socket(4),
        MachineConfig::disaggregated(),
    ];
    let benches = [
        Bench::MakeArray,
        Bench::Msort,
        Bench::Primes,
        Bench::SuffixArray,
        Bench::Tokens,
    ];
    // One campaign over all four machines: each benchmark is captured once
    // and replayed on every machine.
    let pair = [ProtocolId::Mesi, ProtocolId::Warden];
    let panels: Vec<Panel> = machines
        .iter()
        .map(|m| (m, &benches[..], &pair[..]))
        .collect();
    let columns = protocol_campaign(&panels, args.scale, &args.sim_options(), &cfg)?;
    let mut rows = Vec::new();
    for (i, bench) in benches.iter().enumerate() {
        let mut row = vec![bench.name().to_string()];
        for col in &columns {
            row.push(format!("{}x", f2(col[i].comparison().speedup)));
        }
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("benchmark")
        .chain(machines.iter().map(|m| m.name.as_str()))
        .collect();
    println!(
        "WARDen speedup over MESI as the machine scales (paper §7.3 / Figure 1)\n\n{}",
        table(&headers, &rows)
    );
    Ok(())
}
