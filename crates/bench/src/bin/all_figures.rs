//! Regenerates every table and figure in one run, printing paper-vs-measured
//! summaries. With `--markdown <path>` it also writes the report in the
//! EXPERIMENTS.md format. With `--campaign-dir <dir>` every simulation is
//! persisted as it finishes, so a killed run resumes from completed work.

//! With `--obs <dir>` one dual-socket benchmark is re-run with the
//! observability recorder on and its Perfetto trace + per-epoch activity
//! table are exported into the directory (see EXPERIMENTS.md for the
//! walkthrough).

use warden_bench::figures::*;
use warden_bench::fmt::f2;
use warden_bench::{
    campaign_suite, export_outcome, harness_main, paper, protocol_campaign, BenchRun, HarnessArgs,
    HarnessError,
};
use warden_coherence::ProtocolId;
use warden_pbbs::Bench;
use warden_sim::{mean, MachineConfig, SimEngine};

fn mean_of(runs: &[BenchRun], f: impl Fn(&warden_sim::Comparison) -> f64) -> f64 {
    let cmps: Vec<_> = runs.iter().map(|r| r.cmp.clone()).collect();
    mean(&cmps, f)
}

fn main() {
    harness_main(run);
}

fn run() -> Result<(), HarnessError> {
    let args = HarnessArgs::parse(&[
        "--scale",
        "--check",
        "--faults",
        "--markdown",
        "--obs",
        "--campaign-dir",
        "--jobs",
        "--deadline-ms",
        "--retries",
        "--quiet",
        "--protocols",
    ])?;
    let cfg = args.campaign_config();
    let scale = args.scale.pbbs();
    let opts = args.sim_options();
    let t0 = std::time::Instant::now();

    eprintln!("Table 1 (ping-pong validation)…");
    let dual = MachineConfig::dual_socket();
    let table1_txt = render_table1(&dual, 10_000);
    let table2_txt = render_table2(&dual);

    eprintln!("Figure 7 (single socket)…");
    let single_runs = campaign_suite(
        &Bench::ALL,
        scale,
        &MachineConfig::single_socket(),
        &opts,
        &cfg,
    )?;
    let fig7_txt = render_fig7(&single_runs);

    eprintln!("Figures 8–11 (dual socket)…");
    let dual_runs = campaign_suite(&Bench::ALL, scale, &dual, &opts, &cfg)?;
    let fig8_txt = render_fig8(&dual_runs);
    let fig9_txt = render_fig9(&dual_runs);
    let fig10_txt = render_fig10(&dual_runs);
    let fig11_txt = render_fig11(&dual_runs);

    eprintln!("Figure 12 (disaggregated)…");
    let disagg = MachineConfig::disaggregated();
    let disagg_runs = campaign_suite(&Bench::DISAGGREGATED, scale, &disagg, &opts, &cfg)?;
    let fig12_txt = render_fig12_titled(
        &disagg_runs,
        "Figure 12 (paper's subset): disaggregated machine (1 µs remote)",
    );
    let disagg_ours = campaign_suite(&Bench::DISAGGREGATED_OURS, scale, &disagg, &opts, &cfg)?;
    let fig12b_txt = render_fig12_titled(
        &disagg_ours,
        "Figure 12 (this reproduction's most-promising subset, same selection rule)",
    );

    eprintln!("Protocol zoo (dual socket, every registered protocol)…");
    let zoo_protocols = args
        .protocols
        .clone()
        .unwrap_or_else(|| ProtocolId::ALL.to_vec());
    let zoo_runs = protocol_campaign(&Bench::ALL, scale, &dual, &zoo_protocols, &opts, &cfg)?;
    let zoo_txt = render_protocol_zoo(&zoo_runs, &zoo_protocols);

    let area_txt = render_area();

    let all = [
        &table1_txt,
        &table2_txt,
        &fig7_txt,
        &fig8_txt,
        &fig9_txt,
        &fig10_txt,
        &fig11_txt,
        &fig12_txt,
        &fig12b_txt,
        &zoo_txt,
        &area_txt,
    ];
    for section in all {
        println!("{section}\n");
    }

    // Headline paper-vs-measured summary.
    let summary = format!(
        "Headline paper-vs-measured summary\n\
         -----------------------------------\n\
         single-socket mean speedup:   paper {}x, measured {}x\n\
         dual-socket mean speedup:     paper {}x, measured {}x\n\
         dual interconnect savings:    paper {}%, measured {}%\n\
         dual total energy savings:    paper {}%, measured {}%\n\
         disaggregated mean speedup:   paper {}x, measured {}x\n",
        paper::FIG7_MEAN_SPEEDUP,
        f2(mean_of(&single_runs, |c| c.speedup)),
        paper::FIG8_MEAN_SPEEDUP,
        f2(mean_of(&dual_runs, |c| c.speedup)),
        paper::FIG8_MEAN_INTERCONNECT_ENERGY,
        f2(mean_of(&dual_runs, |c| c.interconnect_energy_savings_pct)),
        paper::FIG8_MEAN_TOTAL_ENERGY,
        f2(mean_of(&dual_runs, |c| c.total_energy_savings_pct)),
        paper::FIG12_MEAN_SPEEDUP,
        f2(mean_of(&disagg_ours, |c| c.speedup)),
    );
    println!("{summary}");

    if let Some(dir) = &args.obs {
        eprintln!("Observability export (suffix-array, dual socket)…");
        let program = Bench::SuffixArray.build(scale);
        for proto in [ProtocolId::Mesi, ProtocolId::Warden] {
            let (_, report) = SimEngine::new(&program, &dual, proto, &opts).run_observed();
            for p in export_outcome(dir, &program.name, proto, &report)? {
                eprintln!("wrote {}", p.display());
            }
        }
    }
    eprintln!("total wall time {:?}", t0.elapsed());

    if let Some(path) = &args.markdown {
        let mut md = String::new();
        md.push_str("<!-- Generated by `cargo run -p warden-bench --release --bin all_figures -- --markdown EXPERIMENTS.md` -->\n\n");
        md.push_str("# EXPERIMENTS — paper vs. measured\n\n");
        md.push_str("All results measured on this repository's simulator (deterministic;\n");
        md.push_str("re-running the command reproduces them exactly). See DESIGN.md for the\n");
        md.push_str("substitutions relative to the paper's Sniper/MPL setup.\n\n");
        md.push_str("```text\n");
        md.push_str(&summary);
        md.push_str("```\n");
        for (title, body) in [
            ("Table 1", &table1_txt),
            ("Table 2", &table2_txt),
            ("Figure 7", &fig7_txt),
            ("Figure 8", &fig8_txt),
            ("Figure 9", &fig9_txt),
            ("Figure 10", &fig10_txt),
            ("Figure 11", &fig11_txt),
            ("Figure 12 — paper's subset", &fig12_txt),
            ("Figure 12 — this reproduction's subset", &fig12b_txt),
            ("Hardware cost (§6.1)", &area_txt),
        ] {
            md.push_str(&format!("\n## {title}\n\n```text\n{body}\n```\n"));
        }
        md.push_str(FIDELITY_ANALYSIS);
        md.push_str(CAMPAIGN_WALKTHROUGH);
        md.push_str(OBS_WALKTHROUGH);
        std::fs::write(path, md).map_err(|e| HarnessError::Io {
            path: path.clone(),
            source: e,
        })?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

/// The standing interpretation of the measured-vs-paper gaps, kept in the
/// generator so a regenerated EXPERIMENTS.md retains it.
const FIDELITY_ANALYSIS: &str = r#"
## Fidelity analysis — what matches, what does not, and why

### Reproduced faithfully

* **Table 1 ordering and magnitude.** Same-core ≪ same-socket ≪ cross-socket,
  with the two coherence-bound scenarios within ~10% of the paper's Sniper
  numbers (262 vs 286, 1252 vs 1214 cycles/iteration).
* **Transparency.** On every benchmark and on randomized property-test
  workloads, the WARDen machine produces byte-identical final memory to the
  MESI baseline — the paper's central safety claim, checked with real data
  in the caches.
* **The causal chain of Figure 9.** Speedup tracks the invalidation+downgrade
  reduction: the four benchmarks with the largest reductions (primes,
  make_array, suffix-array, msort, 13–128 events per kilo-instruction) are
  exactly the four with the largest speedups (1.37–1.84x), while benchmarks
  with reductions below ~2/k-instr sit at 0.99–1.05x.
* **Figure 10's downgrade dominance.** Most benchmarks' avoided events are
  downgrades (69–100%); `nqueens` measures 72.9% against the paper's 77.7%,
  and `ray` 71.4% against 86.4%. `primes` is invalidation-dominated (98.8%)
  — the benign-WAW storm — matching the paper's observation that store-side
  events are largely hidden by the store buffer, which is why primes'
  enormous reduction yields a (comparatively) modest speedup in both works.
* **Scaling with hardware (Figure 1's thesis).** Mean speedup grows
  single-socket (1.03x) → dual-socket (1.18x) → disaggregated (1.98x on the
  most-promising subset), and §6.1's area estimates reproduce analytically
  (7.9%, <0.05%).

### Known gaps, with causes

* **Magnitudes are smaller than the paper's** (dual 1.18x vs 1.46x mean).
  Two structural reasons. First, MPL heap-allocates *everything* — stack
  frames, closures, boxed intermediates — so nearly all traffic flows
  through WARD-markable leaf heaps ("90%+ of accesses" in §7.2); our
  benchmarks allocate arrays and task metadata but model scalar compute as
  register work, so the coherence-bound fraction of execution is lower.
  Second, our kernels read *preloaded* inputs (cold, as if from disk),
  whereas ML programs build input structures in the heap, giving the paper
  more cross-core heap flow to accelerate.
* **Interconnect-energy savings are near zero** (1.7% vs the paper's 52.9%).
  With seconds-scale inputs, the paper's W blocks are mostly evicted (and
  written back) naturally before their region ends — reconciliation touched
  ~1 block per 50k cycles — so region removal adds almost no traffic. Our
  scaled-down footprints fit in the caches, so reconciliation performs the
  write-backs that eviction would otherwise have done; the messages moved,
  the savings did not. (End-of-run cache drains are charged to both
  protocols to keep the comparison symmetric.)
* **Benchmark-by-benchmark ranking differs.** The paper's best performers
  (palindrome 2.1x, ray 1.75x) are compute/read-heavy in our ports and gain
  ~1.0x, while our best (make_array 1.57x, primes 1.84x) shine through
  result-flow flushing and benign-WAW elimination. Without the original ML
  sources, per-benchmark allocation behaviour cannot be matched exactly;
  Figure 12 therefore also reports the paper's own "most promising" selection
  rule applied to this reproduction.
* **Figure 11's `ray` anomaly (IPC drop despite speedup) does not reproduce**:
  it stems from busy-wait spin loops executing fewer cheap instructions when
  synchronization gets faster, and this simulator's join model is greedy
  (no spinning), so instruction counts barely change between protocols.
"#;

/// The interrupt/resume walkthrough appended to the generated report (kept
/// here for the same reason as the fidelity analysis).
const CAMPAIGN_WALKTHROUGH: &str = r#"
## Interrupting and resuming a campaign

`all_figures` routes its simulations through the campaign runner, one
campaign per machine suite. Without flags the campaign state lives in a
per-process temp directory (supervision without durability); pass
`--campaign-dir <dir>` to make the run crash-safe:

```console
$ cargo run -p warden-bench --release --bin all_figures -- --scale tiny --campaign-dir /tmp/figures.campaign
Figure 7 (single socket)…
campaign: 28 run(s), 0 reused from records, 28 to execute (4 worker(s))
  [done] single-socket/tiny/dedup/warden (attempt 1)
  ...
^C                                   # or kill -9, an OOM kill, a power cut
```

Re-running the *same command* resumes instead of restarting:

```console
$ cargo run -p warden-bench --release --bin all_figures -- --scale tiny --campaign-dir /tmp/figures.campaign
Figure 7 (single socket)…
campaign: 28 run(s), 17 reused from records, 11 to execute (4 worker(s))
  ...
```

Completed runs load from their checksummed result records; the runs that
were mid-flight when the process died run again from step zero, which
costs well under a second per run. The final report is bit-identical to
an uninterrupted run — `ci.sh smoke` enforces exactly this, with `kill -9`.

Inside the campaign directory:

The directory is a result store plus a manifest:

* `<key>.rec` — one checksummed, atomically-written result record per
  completed run, named by the run's key (a hash of the workload token,
  machine, protocol and simulator options) and holding the full outcome.
  Records are the source of truth for resume: opening the directory
  verifies every entry and moves a damaged one to `quarantine/`, and its
  run is simulated again.
* `manifest.json` — the human-readable progress ledger, rewritten
  atomically after every completion. It is *derived* state: resume never
  parses it, so a torn manifest cannot corrupt anything.

Supervision knobs (all binaries): `--jobs <n>` worker threads,
`--deadline-ms <ms>` per-run watchdog deadline (an expired run is
cancelled and retried from step zero), `--retries <n>` attempts beyond the first (panics are
caught and retried with exponential backoff), `--quiet` to silence
progress lines.
"#;

/// The Perfetto walkthrough appended to the generated report (kept here
/// for the same reason as the fidelity analysis).
const OBS_WALKTHROUGH: &str = r#"
## Reading a reconciliation timeline in Perfetto

One direct run per protocol can record a protocol-event timeline.
`--obs <dir>` affects only `replay` and `all_figures`; campaign runs and
their records never carry a timeline. Recording is passive, so the
reported stats are bit-identical either way. The export is Chrome
trace-event JSON:

```console
$ cargo run -p warden-bench --release --bin all_figures -- --scale tiny --obs obs.out
$ cargo run -p warden-bench --release --bin obs_lint -- obs.out/suffix_array-warden.trace.json
obs.out/suffix_array-warden.trace.json: ok — 3463 events (314 slices, 3115 instants, 8 counter samples, 26 metadata)
```

Open <https://ui.perfetto.dev> → *Open trace file* →
`suffix_array-warden.trace.json` (timestamps are simulated cycles,
displayed as µs). Three kinds of tracks appear:

* **One track per core** (`core 0` … `core 23`): an instant per protocol
  event — GetS/GetM misses, WardEntrySync snapshots, RmwEscape atomics,
  per-block Reconcile merges, evictions. Click any event for its
  arguments (block address, directory state found, holder/writeback/drop
  counts).
* **`ward regions`**: one slice per WARD region from Add-Region to
  Remove-Region, with its id and how many dirty blocks its closing walk
  visited. On the dual-socket `suffix_array` run this track shows the
  suite's characteristic rhythm: 314 short-lived leaf-heap regions (mean
  lifetime ~500 cycles) opening and closing in waves that follow the
  merge tree.
* **`protocol activity`**: a per-epoch (2^14 cycles) counter track of
  events / misses / reconciles, the zoomed-out view of the same story.

The reconciliation picture to look for: `Reconcile` instants cluster at
the *end* of each `ward regions` slice (the Remove-Region walk), and the
companion `suffix_array-warden.epochs.txt` shows the walks are almost all
tiny — `recon_walk_blocks n=314 mean=2.0 max=17`, i.e. most blocks a
region wrote were already evicted (and written back) before the region
ended, so reconciliation merges the few survivors. The MESI trace of the
same program (`suffix_array-mesi.trace.json`) has no region track and no
Reconcile events, and its `miss_latency_cycles` histogram sits ~21%
higher (mean 489 vs 402 cycles) — the invalidation/downgrade round
trips WARDen's W state suppresses.

A dropped-event count (`timeline.dropped` in the epochs file, also a
counter in the trace) is always present: the timeline is capped at 1M
events per run, so a truncated export says so instead of lying by
omission.
"#;
