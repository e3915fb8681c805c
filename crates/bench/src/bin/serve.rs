//! Run a `warden-serve` simulation server:
//!
//! ```console
//! $ cargo run -p warden-bench --release --bin serve -- --addr 127.0.0.1:7878
//! serve: listening on 127.0.0.1:7878 (2 workers, queue 16)
//! ```
//!
//! The server runs until stdin reaches EOF, a line reading `quit`
//! arrives, or the process receives SIGTERM — all three trigger the same
//! graceful drain: queued simulations finish, every blocked client
//! receives its reply, and only then do the threads join. SIGTERM-as-drain
//! makes the daemon a well-behaved citizen under process supervisors
//! (systemd, Kubernetes, CI runners) that signal before killing.
//!
//! | flag                 | effect |
//! |----------------------|--------|
//! | `--addr <host:port>` | TCP bind address (default `127.0.0.1:7878`) |
//! | `--uds <path>`       | also (or only) bind a Unix socket |
//! | `--jobs <n>`         | worker threads (default 2) |
//! | `--request-deadline-ms <ms>` | per-request deadline (queue wait + simulation) |
//! | `--cache-budget <bytes>`     | result-cache byte budget |
//! | `--disk-cache <dir>` | crash-safe disk tier: results + prefix checkpoints |
//! | `--storage-chaos`    | inject seeded storage faults (drills only) |
//! | `--storage-chaos-seed <seed>` | seed for the storage-fault stream |
//! | `--obs <dir>`        | record a request timeline; write `serve.trace.json` there |
//! | `--out <path>`       | write a final metrics JSON report |

use std::io::BufRead;
use std::time::Duration;
use warden_bench::loadgen::{metrics_json, LoadReport};
use warden_bench::{harness_main, HarnessArgs, HarnessError};
use warden_serve::{drain_requested, install_sigterm_drain, ServeConfig, Server};

fn main() {
    harness_main(run);
}

fn run() -> Result<(), HarnessError> {
    let args = HarnessArgs::parse()?;
    if !args.positional.is_empty() {
        return Err(HarnessError::Args(format!(
            "serve takes no positional arguments, got {:?}",
            args.positional
        )));
    }
    let (disk, storage_faults) = args.disk_config()?;
    let cfg = ServeConfig {
        tcp: match (&args.addr, &args.uds) {
            (Some(addr), _) => Some(addr.clone()),
            (None, Some(_)) => None,
            (None, None) => Some("127.0.0.1:7878".to_string()),
        },
        uds: args.uds.clone(),
        workers: args.jobs.unwrap_or(2),
        record_trace: args.obs.is_some(),
        disk,
        storage_faults,
        request_deadline: args.request_deadline_ms.map(Duration::from_millis),
        cache_budget_bytes: args.cache_budget.unwrap_or(u64::MAX),
        ..ServeConfig::default()
    };
    let workers = cfg.workers;
    let queue_cap = cfg.queue_cap;
    let chaos = cfg.storage_faults.is_some();
    let disk_dir = cfg.disk.clone();
    let server = Server::start(cfg).map_err(|e| HarnessError::Failed(e.to_string()))?;
    if let Some(addr) = server.tcp_addr() {
        println!("serve: listening on {addr} ({workers} workers, queue {queue_cap})");
    }
    if let Some(dir) = disk_dir {
        println!(
            "serve: disk tier at {}{}",
            dir.display(),
            if chaos { " (storage chaos ON)" } else { "" }
        );
    }
    if let Some(path) = server.uds_path() {
        println!("serve: listening on {}", path.display());
    }
    let sigterm = install_sigterm_drain();
    println!(
        "serve: EOF or `quit` on stdin{} drains and exits",
        if sigterm { " (or SIGTERM)" } else { "" }
    );

    // stdin is read on its own thread so the control loop can also poll
    // the SIGTERM flag; either source requests the same graceful drain.
    let (quit_tx, quit_rx) = std::sync::mpsc::channel::<()>();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            match line {
                Ok(l) if l.trim() == "quit" => break,
                Ok(_) => {}
                Err(_) => break,
            }
        }
        // EOF, `quit`, or a read error — all mean drain. A closed channel
        // (the server already shut down) is fine to ignore.
        let _ = quit_tx.send(());
    });
    loop {
        if drain_requested() {
            eprintln!("serve: SIGTERM — draining");
            break;
        }
        match quit_rx.recv_timeout(Duration::from_millis(100)) {
            Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
        }
    }

    let report = server.shutdown();
    eprintln!(
        "serve: drained — {} request(s), cache {}/{} hit+coalesced/miss",
        report.metrics.counter("serve_requests").unwrap_or(0),
        report.cache.hits + report.cache.coalesced,
        report.cache.misses,
    );
    if let Some(dir) = &args.obs {
        std::fs::create_dir_all(dir).map_err(|e| HarnessError::Io {
            path: dir.clone(),
            source: e,
        })?;
        let path = dir.join("serve.trace.json");
        let json = report.trace_json.as_deref().unwrap_or("{}");
        std::fs::write(&path, json).map_err(|e| HarnessError::Io {
            path: path.clone(),
            source: e,
        })?;
        println!("serve: wrote {}", path.display());
    }
    if let Some(out) = &args.out {
        let json = metrics_json(&report.metrics, &LoadReport::default());
        std::fs::write(out, json).map_err(|e| HarnessError::Io {
            path: out.clone(),
            source: e,
        })?;
        println!("serve: wrote {}", out.display());
    }
    Ok(())
}
