//! Replay-throughput measurement backing `bench_baseline` and
//! `BENCH_hotpath.json`.
//!
//! The hot-path baseline answers one question: *how many trace events per
//! wall-clock second does the replay engine sustain on the paper kernels?*
//! Each kernel is traced once, then replayed `runs` times under each
//! protocol; the **median** wall time is the sample (robust to a stray
//! scheduler hiccup). Because replay is deterministic, the simulated cycle
//! count is a constant per (kernel, protocol) — so the ratio of
//! `cycles_per_sec` between two builds equals the ratio of wall times, and
//! either rate works as "replay throughput".
//!
//! `render_report` emits a small stable JSON document; `parse_report` reads
//! the same document back (only the `"kernels"` section), so a run on an
//! old build can be carried forward as the `"baseline"` section of the next
//! report and the per-kernel speedup computed in one place.

use crate::error::HarnessError;
use std::time::Instant;
use warden_coherence::ProtocolId;
use warden_pbbs::{Bench, Scale};
use warden_sim::{simulate, MachineConfig};

/// The kernels tracked by the baseline. `fib` and `msort` are the paper's
/// classic divide-and-conquer pair; `dedup`, `suffix-array`, and `nqueens`
/// stand in for irregular-access kernels (this repo's pbbs port has no
/// `bfs`): `suffix-array` has the widest resident footprint in the suite
/// and `nqueens` the deepest task tree relative to its trace length.
pub const KERNELS: &[Bench] = &[
    Bench::Fib,
    Bench::Msort,
    Bench::Dedup,
    Bench::SuffixArray,
    Bench::Nqueens,
];

/// Schema tag written into (and required from) every report.
pub const SCHEMA: &str = "warden-hotpath-v1";

/// One (kernel, protocol) throughput sample.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelSample {
    /// Benchmark name (`fib`, `msort`, `bfs`).
    pub kernel: String,
    /// `mesi` or `warden`.
    pub protocol: String,
    /// Trace events replayed per run (constant per kernel+scale).
    pub events: u64,
    /// Simulated makespan in cycles (deterministic per kernel+protocol).
    pub sim_cycles: u64,
    /// Median wall time of the replay, in nanoseconds.
    pub median_wall_ns: u64,
    /// Replay throughput: `events / median wall seconds`.
    pub events_per_sec: f64,
    /// Simulated cycles retired per wall second.
    pub cycles_per_sec: f64,
}

/// The machine every baseline sample runs on (recorded in the report).
pub fn baseline_machine() -> MachineConfig {
    MachineConfig::dual_socket().with_cores(4)
}

fn protocol_name(p: ProtocolId) -> &'static str {
    p.name()
}

/// Replay `bench` under `protocol` `runs` times and take the median wall
/// time. The trace is built once, outside the timed region.
pub fn measure_kernel(
    bench: Bench,
    scale: Scale,
    machine: &MachineConfig,
    protocol: ProtocolId,
    runs: u32,
) -> KernelSample {
    assert!(runs > 0, "need at least one run");
    let program = bench.build(scale);
    let mut walls: Vec<u64> = Vec::with_capacity(runs as usize);
    let mut sim_cycles = 0;
    for _ in 0..runs {
        let t0 = Instant::now();
        let out = simulate(&program, machine, protocol);
        walls.push(t0.elapsed().as_nanos().max(1) as u64);
        sim_cycles = out.stats.cycles;
    }
    walls.sort_unstable();
    let median_wall_ns = walls[walls.len() / 2];
    let secs = median_wall_ns as f64 / 1e9;
    let events = program.total_events();
    KernelSample {
        kernel: bench.name().to_string(),
        protocol: protocol_name(protocol).to_string(),
        events,
        sim_cycles,
        median_wall_ns,
        events_per_sec: events as f64 / secs,
        cycles_per_sec: sim_cycles as f64 / secs,
    }
}

/// Measure every tracked kernel under MESI and WARDen on the baseline
/// machine.
pub fn measure_suite(scale: Scale, runs: u32) -> Vec<KernelSample> {
    let machine = baseline_machine();
    let mut out = Vec::new();
    for &bench in KERNELS {
        for protocol in [ProtocolId::Mesi, ProtocolId::Warden] {
            eprint!("  {:<8} {:<6}\r", bench.name(), protocol_name(protocol));
            out.push(measure_kernel(bench, scale, &machine, protocol, runs));
        }
    }
    out
}

fn sample_json(s: &KernelSample) -> String {
    format!(
        "    {{\"kernel\":\"{}\",\"protocol\":\"{}\",\"events\":{},\"sim_cycles\":{},\
         \"median_wall_ns\":{},\"events_per_sec\":{:.1},\"cycles_per_sec\":{:.1}}}",
        s.kernel,
        s.protocol,
        s.events,
        s.sim_cycles,
        s.median_wall_ns,
        s.events_per_sec,
        s.cycles_per_sec
    )
}

fn section(name: &str, samples: &[KernelSample]) -> String {
    let body: Vec<String> = samples.iter().map(sample_json).collect();
    format!("  \"{}\": [\n{}\n  ]", name, body.join(",\n"))
}

/// The baseline sample matching `s`, if any.
fn matching<'a>(baseline: &'a [KernelSample], s: &KernelSample) -> Option<&'a KernelSample> {
    baseline
        .iter()
        .find(|b| b.kernel == s.kernel && b.protocol == s.protocol)
}

/// Per-(kernel, protocol) throughput ratio `current / baseline`.
pub fn speedups(current: &[KernelSample], baseline: &[KernelSample]) -> Vec<(String, String, f64)> {
    current
        .iter()
        .filter_map(|s| {
            matching(baseline, s).map(|b| {
                (
                    s.kernel.clone(),
                    s.protocol.clone(),
                    s.events_per_sec / b.events_per_sec,
                )
            })
        })
        .collect()
}

/// Render the JSON report. With a `baseline`, the report also carries that
/// sample set plus the per-kernel speedup ratios.
pub fn render_report(
    current: &[KernelSample],
    baseline: Option<&[KernelSample]>,
    scale: Scale,
    runs: u32,
) -> String {
    let scale_name = match scale {
        Scale::Tiny => "tiny",
        Scale::Paper => "paper",
    };
    let mut sections = vec![
        format!("  \"schema\": \"{SCHEMA}\""),
        format!("  \"scale\": \"{scale_name}\""),
        format!("  \"machine\": \"{}\"", baseline_machine().name),
        format!("  \"runs\": {runs}"),
        section("kernels", current),
    ];
    if let Some(base) = baseline {
        sections.push(section("baseline", base));
        let sp: Vec<String> = speedups(current, base)
            .iter()
            .map(|(k, p, r)| {
                format!("    {{\"kernel\":\"{k}\",\"protocol\":\"{p}\",\"ratio\":{r:.3}}}")
            })
            .collect();
        sections.push(format!("  \"speedup\": [\n{}\n  ]", sp.join(",\n")));
    }
    format!("{{\n{}\n}}\n", sections.join(",\n"))
}

fn field<'a>(obj: &'a str, key: &str) -> Result<&'a str, HarnessError> {
    let tag = format!("\"{key}\":");
    let start = obj
        .find(&tag)
        .ok_or_else(|| HarnessError::Args(format!("baseline report missing {key:?} in {obj:?}")))?
        + tag.len();
    let rest = &obj[start..];
    let end = rest
        .find([',', '}'])
        .ok_or_else(|| HarnessError::Args(format!("unterminated {key:?} in {obj:?}")))?;
    Ok(rest[..end].trim().trim_matches('"'))
}

fn num<T: std::str::FromStr>(obj: &str, key: &str) -> Result<T, HarnessError> {
    field(obj, key)?
        .parse()
        .map_err(|_| HarnessError::Args(format!("bad number for {key:?} in {obj:?}")))
}

/// Parse the `"kernels"` section back out of a report written by
/// [`render_report`]. Only this tool's own reports are accepted (the
/// schema tag is checked); this is a reader for a fixed format, not a
/// general JSON parser.
pub fn parse_report(json: &str) -> Result<Vec<KernelSample>, HarnessError> {
    parse_section(json, "kernels")
}

fn parse_section(json: &str, name: &str) -> Result<Vec<KernelSample>, HarnessError> {
    if !json.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(HarnessError::Args(format!(
            "baseline report does not carry schema {SCHEMA:?}"
        )));
    }
    let tag = format!("\"{name}\": [");
    let start = json
        .find(&tag)
        .ok_or_else(|| HarnessError::Args(format!("baseline report has no {name:?} section")))?;
    let rest = &json[start..];
    let end = rest
        .find(']')
        .ok_or_else(|| HarnessError::Args(format!("unterminated {name:?} section")))?;
    let mut out = Vec::new();
    for obj in rest[..end].split('{').skip(1) {
        out.push(KernelSample {
            kernel: field(obj, "kernel")?.to_string(),
            protocol: field(obj, "protocol")?.to_string(),
            events: num(obj, "events")?,
            sim_cycles: num(obj, "sim_cycles")?,
            median_wall_ns: num(obj, "median_wall_ns")?,
            events_per_sec: num(obj, "events_per_sec")?,
            cycles_per_sec: num(obj, "cycles_per_sec")?,
        });
    }
    if out.is_empty() {
        return Err(HarnessError::Args(format!(
            "baseline report has an empty {name:?} section"
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kernel: &str, protocol: &str, eps: f64) -> KernelSample {
        KernelSample {
            kernel: kernel.into(),
            protocol: protocol.into(),
            events: 1000,
            sim_cycles: 2500,
            median_wall_ns: 1_000_000,
            events_per_sec: eps,
            cycles_per_sec: eps * 2.5,
        }
    }

    #[test]
    fn report_round_trips_through_parse() {
        let samples = vec![sample("fib", "mesi", 1e6), sample("fib", "warden", 2e6)];
        let json = render_report(&samples, None, Scale::Tiny, 5);
        let parsed = parse_report(&json).unwrap();
        assert_eq!(parsed, samples);
    }

    #[test]
    fn baseline_section_yields_speedups() {
        let before = vec![sample("fib", "mesi", 1e6)];
        let after = vec![sample("fib", "mesi", 2e6)];
        let json = render_report(&after, Some(&before), Scale::Tiny, 5);
        assert!(json.contains("\"baseline\""));
        assert!(json.contains("\"ratio\":2.000"), "{json}");
        // Parsing recovers the *current* samples, not the baseline.
        assert_eq!(parse_report(&json).unwrap(), after);
    }

    #[test]
    fn foreign_documents_are_rejected() {
        assert!(parse_report("{}").is_err());
        assert!(parse_report("{\"schema\": \"warden-hotpath-v1\"}").is_err());
    }

    #[test]
    fn measure_produces_consistent_rates() {
        let machine = MachineConfig::single_socket().with_cores(2);
        let s = measure_kernel(Bench::Fib, Scale::Tiny, &machine, ProtocolId::Mesi, 1);
        assert!(s.events > 0 && s.sim_cycles > 0);
        let secs = s.median_wall_ns as f64 / 1e9;
        assert!((s.events_per_sec - s.events as f64 / secs).abs() < 1.0);
        assert!((s.cycles_per_sec - s.sim_cycles as f64 / secs).abs() < 1.0);
    }
}
