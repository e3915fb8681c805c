//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the repository benchmark and prints its metrics:
//! human-readable lines first, then, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! untraced, the per-layer metrics with `--trace 1`). The traced run also
//! writes its spans as a Chrome trace under `.perfbench_work/`. Exits 1
//! when a check failed, 2 on a bad command line.

use std::process::ExitCode;
use warden_perfbench::{run, Config, Report, Workload, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: perfbench --workload <pbbs-dual|forkjoin-48> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad("out of range 0..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    Ok(Config::new(
        workload.ok_or_else(|| missing("--workload"))?,
        seed.ok_or_else(|| missing("--seed"))?,
        seconds.ok_or_else(|| missing("--seconds"))?,
        trace.ok_or_else(|| missing("--trace"))?,
    ))
}

fn print_human(cfg: &Config, r: &Report) {
    let w = &r.work;
    let secs = |v: &[f64]| {
        let s: Vec<String> = v.iter().map(|x| format!("{x:.3}")).collect();
        format!("[{}]", s.join(", "))
    };
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
    );
    println!(
        "  pass seconds: untraced {} traced {}",
        secs(&r.pass_secs[0]),
        secs(&r.pass_secs[1])
    );
    println!(
        "  work per pass: runs={} events={} steps={} dir_lookups={} stats_fingerprint={:#018x}",
        w.runs, w.events, w.steps, w.dir_lookups, w.fingerprint
    );
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        if let Some(v) = r.metrics.get(name) {
            println!("  {name:<34} {v:>18.6} {unit}");
        }
    }
    println!(
        "  checks: attempted={} failed={} fail_frac={}",
        r.checks.attempted,
        r.checks.failed,
        r.checks.fail_frac()
    );
    for f in &r.checks.failures {
        println!("  FAILED: {f}");
    }
}

fn json(cfg: &Config, r: &Report) -> String {
    let listed: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = listed
        .iter()
        .map(|(name, unit)| {
            let v = r.get(name);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.checks.failed == 0,
        r.checks.attempted.max(1),
        r.checks.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let r = run(&cfg);
    print_human(&cfg, &r);
    if let Some(trace) = &r.trace_json {
        let path = cfg.work_dir.join(format!(
            "{}-seed{}.trace.json",
            cfg.workload.name(),
            cfg.seed
        ));
        match std::fs::create_dir_all(&cfg.work_dir).and_then(|()| std::fs::write(&path, trace)) {
            Ok(()) => println!("  chrome trace: {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", json(&cfg, &r));
    if r.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
