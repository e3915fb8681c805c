//! Ablations of the design choices called out in DESIGN.md:
//!
//! 1. **Marking policy** — no marking (legacy path) vs. no-unmark-at-fork
//!    (drops the §5.3 flush) vs. the full policy.
//! 2. **Region-store capacity** — sweep the CAM size; overflowed regions
//!    fall back to MESI.
//! 3. **Sectoring granularity** — byte (paper) vs. word vs. block: coarse
//!    sectors corrupt reconciliation when different tasks write adjacent
//!    sub-sector bytes, which the memory-image comparison exposes.
//! 4. **Store MSHRs** — how much store-miss overlap hides invalidation
//!    latency (the Figure 10 loads-vs-stores argument).
//! 5. **Protocol baselines** — what the E state buys (MSI vs. MESI) and
//!    what WARDen adds on top.
//!
//! Every simulation routes through the campaign runner, so a killed sweep
//! resumes from its completed cells when `--campaign-dir` is given. The
//! sectoring ablation deliberately produces corrupted final memory at coarse
//! granularities, so ablations 1–4 use the raw campaign API (no digest
//! enforcement) and the sectoring one compares images itself. Ablation 5
//! runs suite benchmarks through `protocol_campaign`, which fails on a
//! diverging image or an invariant violation.

use warden_bench::fmt::{f2, table};
use warden_bench::{
    harness_main, protocol_campaign, run_campaign, CampaignConfig, HarnessArgs, HarnessError,
    Panel, RunSpec, Workload,
};
use warden_coherence::ProtocolId;
use warden_pbbs::{primes, Bench, Scale};
use warden_rt::{trace_program, MarkPolicy, RtOptions};
use warden_sim::{Comparison, MachineConfig, SimOptions, SimOutcome};

fn scaled(scale: Scale, tiny: u64, paper: u64) -> u64 {
    match scale {
        Scale::Tiny => tiny,
        Scale::Paper => paper,
    }
}

/// Mesi/Warden spec pair for one ablation cell.
fn pair(id: &str, workload: &Workload, machine: &MachineConfig, opts: &SimOptions) -> [RunSpec; 2] {
    [ProtocolId::Mesi, ProtocolId::Warden].map(|protocol| RunSpec {
        id: format!(
            "{id}/{}",
            if protocol == ProtocolId::Mesi {
                "mesi"
            } else {
                "warden"
            }
        ),
        workload: workload.clone(),
        machine: machine.clone(),
        protocol,
        opts: opts.clone(),
    })
}

fn speedup(name: &str, mesi: &SimOutcome, warden: &SimOutcome) -> f64 {
    Comparison::of(name, mesi, warden).speedup
}

struct Ctx<'a> {
    scale: Scale,
    machine: &'a MachineConfig,
    opts: &'a SimOptions,
    cfg: &'a CampaignConfig,
}

fn marking_policy(ctx: &Ctx) -> Result<String, HarnessError> {
    let n = scaled(ctx.scale, 4096, 65_536);
    // One program traced under each policy: tabulate + reduce has both the
    // fork-path flow the §5.3 flush accelerates and ancestor-array traffic.
    let build = |mark: MarkPolicy| {
        move || {
            let opts = RtOptions {
                mark,
                ..RtOptions::default()
            };
            trace_program("tabreduce", opts, move |ctx| {
                let xs = ctx.tabulate::<u64>(n, 64, &|c, i| {
                    c.work(8);
                    i ^ 0x5a5a
                });
                let _ = ctx.reduce(
                    0,
                    n,
                    64,
                    &|c, i| c.read(&xs, i),
                    &|a, b| a.wrapping_add(b),
                    0,
                );
            })
        }
    };
    let variants = [
        (MarkPolicy::None, "none", "no marking (legacy app)"),
        (
            MarkPolicy::NoUnmarkAtFork,
            "no-fork-flush",
            "marking, no §5.3 fork flush",
        ),
        (MarkPolicy::LeafHeaps, "full", "full policy (paper §4.2)"),
    ];
    let mut specs = Vec::new();
    for (mark, token, _) in variants {
        let w = Workload::custom(format!("abl1/{token}/{n}"), build(mark));
        specs.extend(pair(&format!("abl1/{token}"), &w, ctx.machine, ctx.opts));
    }
    let results = run_campaign(&specs, ctx.cfg)?;
    let rows: Vec<Vec<String>> = variants
        .iter()
        .enumerate()
        .map(|(i, (_, _, label))| {
            vec![
                label.to_string(),
                f2(speedup(
                    "tabreduce",
                    &results[2 * i].outcome,
                    &results[2 * i + 1].outcome,
                )),
            ]
        })
        .collect();
    Ok(format!(
        "Ablation 1: WARD marking policy (WARDen speedup over MESI, tabulate+reduce)\n\n{}",
        table(&["Policy", "Speedup"], &rows)
    ))
}

fn region_capacity(ctx: &Ctx) -> Result<String, HarnessError> {
    let n = scaled(ctx.scale, 2000, 65_536);
    let w = Workload::custom(format!("abl2/primes/{n}"), move || primes(n, 2));
    let caps = [8usize, 32, 128, 1024];
    let mut specs = Vec::new();
    for cap in caps {
        let mut machine = ctx.machine.clone();
        machine.cache.region_capacity = cap;
        specs.extend(pair(&format!("abl2/cap{cap}"), &w, &machine, ctx.opts));
    }
    let results = run_campaign(&specs, ctx.cfg)?;
    let rows: Vec<Vec<String>> = caps
        .iter()
        .enumerate()
        .map(|(i, cap)| {
            let (mesi, warden) = (&results[2 * i].outcome, &results[2 * i + 1].outcome);
            vec![
                cap.to_string(),
                warden.stats.coherence.region_overflows.to_string(),
                warden.region_peak.to_string(),
                f2(speedup("primes", mesi, warden)),
            ]
        })
        .collect();
    Ok(format!(
        "Ablation 2: region-store capacity (primes; overflowed regions fall back to MESI)\n\n{}",
        table(&["Capacity", "Overflows", "Peak live", "Speedup"], &rows)
    ))
}

fn sectoring(ctx: &Ctx) -> Result<String, HarnessError> {
    // Concurrent tasks write *different* values at adjacent bytes of a
    // declared WARD region (sound: no cross-task reads inside the scope, as
    // the runtime checker verifies). Reconciliation merges the per-copy
    // write masks — only byte sectors can separate the neighbours.
    // An odd element count keeps the parallel-for split points unaligned to
    // cache blocks, so neighbouring tasks genuinely share boundary blocks.
    let n = scaled(ctx.scale, 16_383, 131_071);
    let w = Workload::custom(format!("abl3/sector-demo/{n}"), move || {
        trace_program("sector-demo", RtOptions::default(), move |ctx| {
            let xs = ctx.alloc::<u8>(n);
            ctx.ward_scope(&xs, |ctx| {
                ctx.parallel_for(0, n, 509, &|c, i| c.write(&xs, i, (i % 251) as u8));
            });
        })
    });
    let grains = [1u64, 8, 64];
    let mut specs = Vec::new();
    for g in grains {
        let mut machine = ctx.machine.clone();
        machine.cache.sector_bytes = g;
        specs.extend(pair(&format!("abl3/sector{g}"), &w, &machine, ctx.opts));
    }
    let results = run_campaign(&specs, ctx.cfg)?;
    let rows: Vec<Vec<String>> = grains
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let (mesi, warden) = (&results[2 * i].outcome, &results[2 * i + 1].outcome);
            let correct = mesi.memory_image_digest == warden.memory_image_digest;
            vec![
                format!("{g} B"),
                if correct {
                    "identical".into()
                } else {
                    "CORRUPTED".into()
                },
                f2(speedup("sector-demo", mesi, warden)),
            ]
        })
        .collect();
    Ok(format!(
        "Ablation 3: write-mask sector granularity (neighbouring tasks write adjacent\nbytes of a WARD region with different values)\n\n{}\n\
         Byte sectoring (the paper's choice, §6.1: \"to match the smallest granularity\n\
         in software\") is required for correctness: coarser masks turn adjacent\n\
         sub-sector writes into lossy true-sharing merges.\n",
        table(&["Sector", "Final memory vs MESI", "Speedup"], &rows)
    ))
}

fn store_mshrs(ctx: &Ctx) -> Result<String, HarnessError> {
    let n = scaled(ctx.scale, 2000, 65_536);
    let w = Workload::custom(format!("abl4/primes/{n}"), move || primes(n, 2));
    let mshrs = [1usize, 4, 10, 56];
    let mut specs = Vec::new();
    for m in mshrs {
        let mut machine = ctx.machine.clone();
        machine.store_mshrs = m;
        specs.extend(pair(&format!("abl4/mshr{m}"), &w, &machine, ctx.opts));
    }
    let results = run_campaign(&specs, ctx.cfg)?;
    let rows: Vec<Vec<String>> = mshrs
        .iter()
        .enumerate()
        .map(|(i, m)| {
            vec![
                m.to_string(),
                f2(speedup(
                    "primes",
                    &results[2 * i].outcome,
                    &results[2 * i + 1].outcome,
                )),
            ]
        })
        .collect();
    Ok(format!(
        "Ablation 4: outstanding store misses (primes — benign-WAW stores dominate;\nmore overlap hides the invalidation latency MESI pays)\n\n{}",
        table(&["Store MSHRs", "WARDen speedup"], &rows)
    ))
}

fn baselines(ctx: &Ctx) -> Result<String, HarnessError> {
    // What does the E state buy, and how much more does WARDen add? All
    // cycles normalized to the MSI baseline.
    let benches = [Bench::MakeArray, Bench::Msort, Bench::Tokens];
    let protocols = [ProtocolId::Msi, ProtocolId::Mesi, ProtocolId::Warden];
    let panel: Panel = (ctx.machine, &benches, &protocols);
    let runs = protocol_campaign(&[panel], ctx.scale, ctx.opts, ctx.cfg)?.remove(0);
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            let cycles = |p| r.outcome(p).expect("protocol requested").stats.cycles as f64;
            let msi = cycles(ProtocolId::Msi);
            vec![
                r.bench.name().to_string(),
                "1.00".into(),
                f2(msi / cycles(ProtocolId::Mesi)),
                f2(msi / cycles(ProtocolId::Warden)),
            ]
        })
        .collect();
    Ok(format!(
        "Ablation 5: protocol baselines (speedup over plain MSI)\n\n{}",
        table(&["Benchmark", "MSI", "MESI", "WARDen"], &rows)
    ))
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
    let ctx = Ctx {
        scale: args.scale,
        machine: &machine,
        opts: &args.sim_options(),
        cfg: &cfg,
    };
    println!("{}\n", marking_policy(&ctx)?);
    println!("{}\n", region_capacity(&ctx)?);
    println!("{}\n", sectoring(&ctx)?);
    println!("{}\n", store_mshrs(&ctx)?);
    println!("{}", baselines(&ctx)?);
    Ok(())
}
