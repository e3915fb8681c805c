//! Oracle-backed load generator for `warden-serve`:
//!
//! ```console
//! $ cargo run -p warden-bench --release --bin loadgen -- \
//!       --spawn --clients 8 --iters 6 --scale tiny
//! ```
//!
//! The plan is five benchmarks × {MESI, WARDen} on a dual-socket machine
//! (2 cores/socket at `--scale tiny`, the full 12 at `paper`). Every
//! expected outcome is first computed *directly* through the supervised
//! campaign runner; the clients then drive the server concurrently and
//! every `Outcome` response must match its oracle digest bit for bit.
//! The exit status is the conformance verdict.
//!
//! | flag                 | effect |
//! |----------------------|--------|
//! | `--spawn`            | start an in-process server and drive it |
//! | `--addr <host:port>` | connect to (or, with `--spawn`, bind) this TCP address |
//! | `--uds <path>`       | connect over (or bind) a Unix socket instead |
//! | `--clients <n>`      | concurrent connections (default 8) |
//! | `--iters <n>`        | requests per client (default 6) |
//! | `--queue-cap <n>`    | `--spawn`: bounded queue capacity |
//! | `--jobs <n>`         | `--spawn`: server workers; always: oracle workers |
//! | `--scale tiny|paper` | input scale for the plan |
//! | `--check`            | run the invariant checker inside each simulation |
//! | `--obs <dir>`        | `--spawn`: write the server timeline as `loadgen.trace.json` |
//! | `--out <path>`       | write the metrics + conformance JSON report |
//! | `--chaos`            | interpose the fault-injecting proxy; drive with resilient clients |
//! | `--chaos-seed <n>`   | seed for the deterministic fault stream (default 0xC4A05EED) |
//! | `--request-deadline-ms <ms>` | `--spawn`: per-request deadline on the server |
//! | `--cache-budget <bytes>`     | `--spawn`: result-cache byte budget |
//! | `--disk-cache <dir>` | `--spawn`: crash-safe disk tier directory |
//! | `--disk-budget <bytes>`      | `--spawn`: disk-tier byte budget |
//! | `--checkpoint-every <steps>` | `--spawn`: steps between prefix-checkpoint frames |
//! | `--storage-chaos`    | `--spawn`: inject seeded storage faults into the disk tier |
//! | `--storage-chaos-seed <seed>` | seed for the storage-fault stream |
//!
//! With `--chaos` the same conformance suite runs through a seeded
//! fault-injecting TCP proxy (torn frames, partial writes, byte delays,
//! slow-loris half-open connections, mid-flight resets) and
//! [`warden_serve::ResilientClient`]s that must absorb every fault: the
//! run still demands bit-identical outcomes, and afterwards the server's
//! own metrics must show zero in-flight work, an empty queue, and — when
//! a budget is set — cache residency that never exceeded it.

use std::time::Duration;
use warden_bench::chaos::{ChaosConfig, ChaosProxy, Upstream};
use warden_bench::loadgen::{drive, drive_resilient, metrics_json, oracle, Target};
use warden_bench::runner::SuiteScale;
use warden_bench::{harness_main, HarnessArgs, HarnessError};
use warden_coherence::ProtocolId;
use warden_pbbs::{Bench, Scale};
use warden_serve::{
    MachinePreset, MachineSpec, RetryPolicy, ServeConfig, Server, ServerOptions, SimRequest,
};

fn main() {
    harness_main(run);
}

fn run() -> Result<(), HarnessError> {
    let args = HarnessArgs::parse()?;
    if !args.positional.is_empty() {
        return Err(HarnessError::Args(format!(
            "loadgen takes no positional arguments, got {:?}",
            args.positional
        )));
    }
    if !args.spawn && args.addr.is_none() && args.uds.is_none() {
        return Err(HarnessError::Args(
            "loadgen needs a target: --spawn, --addr <host:port> or --uds <path>".into(),
        ));
    }

    let scale = match args.scale {
        SuiteScale::Tiny => Scale::Tiny,
        SuiteScale::Paper => Scale::Paper,
    };
    // Small machines keep tiny-scale replays fast without changing what is
    // being proven: the digests cover the full outcome either way.
    let machine = match scale {
        Scale::Tiny => MachineSpec::new(MachinePreset::DualSocket).with_cores(2),
        Scale::Paper => MachineSpec::new(MachinePreset::DualSocket),
    };
    let benches = [
        Bench::Fib,
        Bench::MakeArray,
        Bench::Primes,
        Bench::Msort,
        Bench::Tokens,
    ];
    let protocols = args
        .protocols
        .clone()
        .unwrap_or_else(|| vec![ProtocolId::Mesi, ProtocolId::Warden]);
    let mut requests = Vec::new();
    for bench in benches {
        for &protocol in &protocols {
            requests.push(SimRequest {
                bench,
                scale,
                machine,
                protocol,
                check: args.run.check,
            });
        }
    }

    // The oracle must compute its digests itself: a server reading the
    // oracle's own records would conform trivially.
    if args.campaign_dir.is_some() && args.campaign_dir == args.disk_cache {
        return Err(HarnessError::Args(
            "--campaign-dir must differ from --disk-cache: the oracle keeps its own store".into(),
        ));
    }
    eprintln!(
        "loadgen: computing {} oracle digest(s) through the campaign runner",
        requests.len()
    );
    let plan = oracle(&requests, &args.campaign_config())?;

    let clients = args.clients.unwrap_or(8);
    let iters = args.iters.unwrap_or(6);
    let (disk, storage_faults) = args.disk_config()?;
    if disk.is_some() && !args.spawn {
        return Err(HarnessError::Args(
            "--disk-cache configures the spawned server; it requires --spawn".into(),
        ));
    }
    let (server, target) = if args.spawn {
        let mut opts = ServerOptions::default();
        if let Some(ms) = args.request_deadline_ms {
            opts.request_deadline = Some(Duration::from_millis(ms));
        }
        if let Some(bytes) = args.cache_budget {
            opts.cache_budget_bytes = bytes;
        }
        if args.chaos {
            // Tighten the stall bound so the proxy's slow-loris hold
            // (750 ms) trips it well inside the run.
            opts.frame_stall = Duration::from_millis(250);
        }
        let cfg = ServeConfig {
            tcp: match (&args.addr, &args.uds) {
                (Some(addr), _) => Some(addr.clone()),
                (None, Some(_)) => None,
                (None, None) => Some("127.0.0.1:0".to_string()),
            },
            uds: args.uds.clone(),
            workers: args.jobs.unwrap_or(2),
            queue_cap: args.queue_cap.unwrap_or(16),
            record_trace: args.obs.is_some(),
            opts,
            disk,
            storage_faults,
            ..ServeConfig::default()
        };
        let server = Server::start(cfg).map_err(|e| HarnessError::Failed(e.to_string()))?;
        let target = match (server.uds_path(), server.tcp_addr()) {
            (Some(path), _) => Target::Uds(path.clone()),
            (None, Some(addr)) => Target::Tcp(addr.to_string()),
            (None, None) => unreachable!("a started server has a listener"),
        };
        (Some(server), target)
    } else if let Some(path) = &args.uds {
        (None, Target::Uds(path.clone()))
    } else {
        (None, Target::Tcp(args.addr.clone().expect("checked above")))
    };

    let (outcome, chaos_report) = if args.chaos {
        let upstream = match &target {
            Target::Tcp(addr) => Upstream::Tcp(addr.clone()),
            Target::Uds(path) => Upstream::Uds(path.clone()),
        };
        let chaos_cfg = ChaosConfig {
            seed: args
                .chaos_seed
                .unwrap_or_else(|| ChaosConfig::default().seed),
            loris_hold: Duration::from_millis(750),
            ..ChaosConfig::default()
        };
        let seed = chaos_cfg.seed;
        let proxy = ChaosProxy::start(upstream, chaos_cfg)
            .map_err(|e| HarnessError::Failed(format!("chaos proxy failed to start: {e}")))?;
        eprintln!(
            "loadgen: chaos proxy on {} (seed {seed:#x}) fronting {target:?}; \
             driving {clients} resilient client(s) x {iters} request(s)",
            proxy.addr()
        );
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(200),
            call_deadline: Some(Duration::from_secs(120)),
            frame_stall: Duration::from_millis(500),
            seed,
        };
        let outcome = drive_resilient(
            &Target::Tcp(proxy.addr().to_string()),
            &plan,
            clients,
            iters,
            &policy,
        );
        (outcome, Some(proxy.stop()))
    } else {
        eprintln!("loadgen: driving {target:?} with {clients} client(s) x {iters} request(s)");
        (drive(&target, &plan, clients, iters), None)
    };

    // Drain the spawned server even when the drive failed, so its report
    // (and trace) survive for diagnosis.
    let shutdown = server.map(Server::shutdown);
    let report = outcome?;

    let metrics = match &shutdown {
        Some(s) => s.metrics.clone(),
        None => {
            // Remote server: pull its snapshot over the wire.
            let fetched = match &target {
                Target::Tcp(addr) => {
                    warden_serve::Client::connect(addr).and_then(|mut c| c.metrics())
                }
                #[cfg(unix)]
                Target::Uds(path) => {
                    warden_serve::Client::connect_uds(path).and_then(|mut c| c.metrics())
                }
                #[cfg(not(unix))]
                Target::Uds(_) => Err(warden_serve::ServeError::Config(
                    "Unix sockets are unavailable on this platform".into(),
                )),
            };
            fetched.map_err(|e| HarnessError::Failed(format!("metrics fetch failed: {e}")))?
        }
    };

    println!(
        "loadgen: {} response(s), {} cache-served, {} busy retr(ies), {} mismatch(es)",
        report.responses, report.cache_hits, report.busy_retries, report.mismatches
    );
    let s = &report.served;
    println!(
        "loadgen: warm/cold split — memory {} ({} us), coalesced {} ({} us), \
         disk {} ({} us), resume {} ({} us), full {} ({} us); hit ratio {:.1}%",
        s.memory_hit.count,
        s.memory_hit.mean_us(),
        s.coalesced.count,
        s.coalesced.mean_us(),
        s.disk_hit.count,
        s.disk_hit.mean_us(),
        s.prefix_resume.count,
        s.prefix_resume.mean_us(),
        s.full_sim.count,
        s.full_sim.mean_us(),
        s.hit_ratio().unwrap_or(0.0) * 100.0
    );
    let expected = clients as u64 * iters as u64;
    if report.responses != expected {
        return Err(HarnessError::Failed(format!(
            "expected {expected} responses, got {}",
            report.responses
        )));
    }
    if report.cache_hits == 0 && expected > plan.len() as u64 {
        return Err(HarnessError::Failed(
            "a plan smaller than the request count must produce cache hits".into(),
        ));
    }

    if let Some(chaos) = &chaos_report {
        println!(
            "loadgen: chaos injected {} fault(s) over {} connection(s) \
             (torn {}, partial {}, delay {}, loris {}, reset {}); \
             clients retried {} time(s), reconnected {} time(s)",
            chaos.faulted(),
            chaos.connections,
            chaos.torn_frames,
            chaos.partial_writes,
            chaos.byte_delays,
            chaos.slow_loris,
            chaos.resets,
            report.retries,
            report.reconnects
        );
        if chaos.connections < clients as u64 {
            return Err(HarnessError::Failed(format!(
                "chaos proxy saw {} connection(s) for {clients} client(s) — \
                 the drive did not go through the proxy",
                chaos.connections
            )));
        }
        let counter = |name: &str| -> u64 {
            metrics
                .counters()
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        // A clean post-drain server: nothing in flight, nothing queued —
        // no fault may leak a single-flight slot or wedge a worker.
        let inflight = counter("serve_inflight_current");
        let queued = counter("serve_queue_depth_current");
        if inflight != 0 || queued != 0 {
            return Err(HarnessError::Failed(format!(
                "chaos run leaked work: {inflight} in flight, {queued} queued after drain"
            )));
        }
        if let Some(budget) = args.cache_budget {
            let peak = counter("cache_resident_peak");
            if peak > budget {
                return Err(HarnessError::Failed(format!(
                    "cache residency peaked at {peak} bytes, over the {budget}-byte budget"
                )));
            }
            println!("loadgen: cache peak {peak} B stayed within the {budget} B budget");
        }
    }

    if let (Some(dir), Some(s)) = (&args.obs, &shutdown) {
        std::fs::create_dir_all(dir).map_err(|e| HarnessError::Io {
            path: dir.clone(),
            source: e,
        })?;
        let path = dir.join("loadgen.trace.json");
        let json = s.trace_json.as_deref().unwrap_or("{}");
        std::fs::write(&path, json).map_err(|e| HarnessError::Io {
            path: path.clone(),
            source: e,
        })?;
        println!("loadgen: wrote {}", path.display());
    }
    if let Some(out) = &args.out {
        std::fs::write(out, metrics_json(&metrics, &report)).map_err(|e| HarnessError::Io {
            path: out.clone(),
            source: e,
        })?;
        println!("loadgen: wrote {}", out.display());
    }
    println!("loadgen: conformance OK — every response matched its oracle digest");
    Ok(())
}
