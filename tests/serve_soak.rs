//! End-to-end soak of `warden-serve`: an in-process server driven by
//! concurrent clients over real TCP sockets, held to the digest of a
//! directly computed [`warden::sim::simulate_with_options`] outcome —
//! bit-identical conformance, not approximate agreement. Also covered:
//! backpressure recovery without `Busy` leaks, typed oversized-frame
//! rejection on the wire, and a graceful drain that completes every
//! in-flight request.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use warden::bench::loadgen::{drive, Expectation, Target};
use warden::coherence::ProtocolId;
use warden::obs::validate_trace;
use warden::pbbs::{Bench, Scale};
use warden::serve::proto::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use warden::serve::{
    outcome_digest, Client, FrameEvent, MachinePreset, MachineSpec, RealStorage, Request,
    ResilientClient, Response, ResultStore, ResultStoreConfig, RetryPolicy, ServeConfig,
    ServedFrom, Server, ServerOptions, SimRequest, StorageFaultPlan,
};
use warden::sim::checkpoint::unique_dir;
use warden::sim::{simulate_with_options, RunKey, SimEngine, SimOptions};

/// A fresh scratch directory for one durability drill.
fn scratch_dir(name: &str) -> std::path::PathBuf {
    unique_dir(&std::env::temp_dir(), &format!("warden-soak-{name}")).expect("scratch dir")
}

/// Four benchmarks × both protocols on a small dual-socket machine: the
/// soak plan, with every expected digest computed directly.
fn plan() -> Vec<Expectation> {
    let machine = MachineSpec::new(MachinePreset::DualSocket).with_cores(2);
    let resolved = machine.to_machine().expect("valid machine");
    let mut plan = Vec::new();
    for bench in [Bench::Fib, Bench::MakeArray, Bench::Primes, Bench::Tokens] {
        let program = bench.build(Scale::Tiny);
        for protocol in [ProtocolId::Mesi, ProtocolId::Warden] {
            let out = simulate_with_options(&program, &resolved, protocol, &SimOptions::default());
            plan.push(Expectation {
                req: SimRequest {
                    bench,
                    scale: Scale::Tiny,
                    machine,
                    protocol,
                    check: false,
                },
                digest: outcome_digest(&out),
            });
        }
    }
    plan
}

#[test]
fn soak_concurrent_clients_conform_bit_for_bit() {
    let server = Server::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        workers: 3,
        queue_cap: 32,
        record_trace: true,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.tcp_addr().expect("tcp bound").to_string();
    let plan = plan();

    // 8 clients × 8 requests, every response checked against the direct
    // simulation digest inside `drive`.
    let report = drive(&Target::Tcp(addr.clone()), &plan, 8, plan.len()).expect("conformance");
    assert_eq!(report.responses, 64);
    assert_eq!(report.mismatches, 0);
    assert!(
        report.cache_hits > 0,
        "64 requests over 8 unique keys must hit the cache"
    );

    // The cache-hit ratio is also visible through the wire metrics.
    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("pong");
    let metrics = client.metrics().expect("metrics over the wire");
    let hits = metrics.counter("cache_hits").unwrap_or(0)
        + metrics.counter("cache_coalesced").unwrap_or(0);
    let misses = metrics.counter("cache_misses").unwrap_or(0);
    assert_eq!(misses, plan.len() as u64, "one simulation per unique key");
    assert!(hits > 0, "hit ratio must be positive");
    assert_eq!(metrics.counter("serve_internal_error"), Some(0));
    assert!(
        metrics.counter("serve_latency_us_why").is_none(),
        "sanity: absent counters read as None"
    );
    drop(client);

    let report = server.shutdown();
    assert_eq!(report.cache.failures, 0);
    // The recorded timeline is valid trace-event JSON with one slice per
    // completed simulation.
    let trace = report.trace_json.expect("recording was on");
    let stats = validate_trace(&trace).expect("timeline lints");
    assert_eq!(stats.complete, 64, "one slice per served simulation");
}

#[test]
fn backpressure_rejects_typed_then_recovers_without_leaks() {
    // One worker, a one-slot queue: concurrent distinct requests MUST see
    // Busy, and retrying MUST eventually serve all of them.
    let server = Server::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        workers: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.tcp_addr().expect("tcp bound").to_string();

    // Distinct machines make distinct cache keys, so nothing coalesces and
    // the queue actually fills.
    let plan: Vec<Expectation> = [1u32, 2, 3, 4]
        .iter()
        .map(|&cores| {
            let machine = MachineSpec::new(MachinePreset::DualSocket).with_cores(cores);
            let resolved = machine.to_machine().unwrap();
            let program = Bench::Fib.build(Scale::Tiny);
            let out = simulate_with_options(
                &program,
                &resolved,
                ProtocolId::Warden,
                &SimOptions::default(),
            );
            Expectation {
                req: SimRequest {
                    bench: Bench::Fib,
                    scale: Scale::Tiny,
                    machine,
                    protocol: ProtocolId::Warden,
                    check: false,
                },
                digest: outcome_digest(&out),
            }
        })
        .collect();

    let report = drive(&Target::Tcp(addr.clone()), &plan, 8, 4).expect("all served eventually");
    assert_eq!(report.responses, 32);
    assert_eq!(report.mismatches, 0);

    // Recovery: the queue drained, so a fresh request must succeed with no
    // Busy on the first attempt — backpressure leaves no residue.
    let snapshot = server.metrics_snapshot();
    assert_eq!(snapshot.counter("serve_queue_depth_current"), Some(0));
    assert_eq!(snapshot.counter("serve_inflight_current"), Some(0));
    let busy_before = snapshot.counter("serve_busy").unwrap_or(0);
    let mut client = Client::connect(&addr).expect("connect");
    match client.call(&Request::Simulate(plan[0].req)).expect("call") {
        Response::Outcome { summary, served } => {
            assert_eq!(summary.outcome_digest, plan[0].digest);
            assert!(
                served.cache_hit(),
                "recovered server still has the cached result"
            );
        }
        other => panic!("expected an outcome after recovery, got {other:?}"),
    }
    let busy_after = server.metrics_snapshot().counter("serve_busy").unwrap_or(0);
    assert_eq!(busy_after, busy_before, "no Busy after recovery");
    drop(client);
    server.shutdown();
}

#[test]
fn oversized_frames_are_rejected_typed_on_the_wire() {
    let server = Server::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        max_frame: 64,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.tcp_addr().expect("tcp bound").to_string();

    // Hand-craft a frame header promising a payload far over the cap; the
    // server must answer `TooLarge` without reading (or allocating) it.
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut raw = Vec::new();
    raw.extend_from_slice(b"WSRV");
    raw.push(warden::serve::proto::PROTO_VERSION);
    raw.extend_from_slice(&(1_000_000u32).to_le_bytes());
    stream.write_all(&raw).expect("header sent");
    // Read the reply directly — the server answers TooLarge and hangs up.
    match warden::serve::proto::read_frame(&mut stream, 1 << 20).expect("response frame") {
        warden::serve::FrameEvent::Frame(payload) => {
            match Response::decode(&payload).expect("typed response") {
                Response::TooLarge { len, max } => assert_eq!((len, max), (1_000_000, 64)),
                other => panic!("expected TooLarge, got {other:?}"),
            }
        }
        other => panic!("expected a response frame, got {other:?}"),
    }
    let report = server.shutdown();
    assert_eq!(report.metrics.counter("serve_too_large"), Some(1));
}

#[test]
fn graceful_drain_completes_every_inflight_request() {
    let server = Server::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        workers: 1,
        queue_cap: 8,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.tcp_addr().expect("tcp bound").to_string();

    // Six requests with distinct cache keys funneled through ONE worker:
    // while the first simulates, the rest wait in the queue.
    let n = 6usize;
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let req = SimRequest {
                    bench: Bench::Fib,
                    scale: Scale::Tiny,
                    machine: MachineSpec::new(MachinePreset::ManySocket(i as u32 % 5 + 1))
                        .with_cores(2),
                    protocol: ProtocolId::Warden,
                    check: i >= 5,
                };
                client.call(&Request::Simulate(req)).expect("reply arrives")
            })
        })
        .collect();

    // Wait until all six are accepted (completed + queued + running == 6),
    // so none can be turned away by the drain flag — then shut down while
    // most still sit in the queue.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let m = server.metrics_snapshot();
        let completed = m.hist("serve_latency_us").map(|h| h.count()).unwrap_or(0);
        let queued = m.counter("serve_queue_depth_current").unwrap_or(0);
        let running = m.counter("serve_inflight_current").unwrap_or(0);
        if completed + queued + running == n as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "requests never reached the server"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    let report = server.shutdown();

    // The drain completed every accepted request: each blocked client got a
    // real outcome, none were dropped or answered `Draining`.
    for h in handles {
        match h.join().expect("client thread") {
            Response::Outcome { .. } => {}
            other => panic!("in-flight request lost to the drain: {other:?}"),
        }
    }
    assert_eq!(report.metrics.counter("serve_draining"), Some(0));
    assert_eq!(
        report.metrics.hist("serve_latency_us").map(|h| h.count()),
        Some(n as u64)
    );

    // After the drain the port is released: a fresh server can bind it.
    let rebound = Server::start(ServeConfig {
        tcp: Some(addr),
        ..ServeConfig::default()
    })
    .expect("address is reusable after a clean drain");
    rebound.shutdown();
}

#[test]
fn deadline_drill_cancels_the_long_request_and_frees_the_worker() {
    // A deadline far below what a paper-scale msort replay on a four-socket
    // machine costs (hundreds of ms even in release builds, seconds in
    // debug), but comfortably above scheduler jitter.
    let deadline = Duration::from_millis(200);
    let server = Server::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        workers: 1,
        queue_cap: 4,
        opts: ServerOptions {
            request_deadline: Some(deadline),
            ..ServerOptions::default()
        },
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.tcp_addr().expect("tcp bound").to_string();

    let long_req = SimRequest {
        bench: Bench::Msort,
        scale: Scale::Paper,
        machine: MachineSpec::new(MachinePreset::ManySocket(4)),
        protocol: ProtocolId::Mesi,
        check: true,
    };
    let mut client = Client::connect(&addr).expect("connect");
    let started = Instant::now();
    match client
        .call(&Request::Simulate(long_req))
        .expect("typed reply")
    {
        Response::DeadlineExceeded {
            deadline_ms,
            elapsed_ms,
        } => {
            assert_eq!(deadline_ms, deadline.as_millis() as u64);
            assert!(
                elapsed_ms >= deadline_ms,
                "the reply cannot predate its own deadline ({elapsed_ms} ms)"
            );
        }
        other => panic!("a paper-scale msort cannot finish inside {deadline:?}: {other:?}"),
    }
    let waited = started.elapsed();
    assert!(
        waited < deadline * 2,
        "the typed reply took {waited:?}, over twice the {deadline:?} deadline"
    );

    // The drill's second half: the worker becomes healthy again and serves
    // a real, correct outcome. Until it finishes tearing down the
    // cancelled replay, a quick request can itself expire in the queue
    // (its deadline covers queue wait too — by design), so retry; the
    // point under test is that the worker *recovers*, bounded below.
    let quick = SimRequest {
        bench: Bench::Fib,
        scale: Scale::Tiny,
        machine: MachineSpec::new(MachinePreset::DualSocket).with_cores(2),
        protocol: ProtocolId::Warden,
        check: false,
    };
    let program = Bench::Fib.build(Scale::Tiny);
    let resolved = quick.machine.to_machine().expect("valid machine");
    let direct = simulate_with_options(
        &program,
        &resolved,
        ProtocolId::Warden,
        &SimOptions::default(),
    );
    let recovery = Instant::now() + Duration::from_secs(60);
    loop {
        match client.call(&Request::Simulate(quick)).expect("reply") {
            Response::Outcome { summary, .. } => {
                assert_eq!(summary.outcome_digest, outcome_digest(&direct));
                break;
            }
            Response::DeadlineExceeded { .. } => {
                assert!(
                    Instant::now() < recovery,
                    "the worker never recovered from the cancellation"
                );
                std::thread::sleep(Duration::from_millis(25));
            }
            other => panic!("the worker must serve after a cancellation, got {other:?}"),
        }
    }
    drop(client);

    let report = server.shutdown();
    assert!(
        report
            .metrics
            .counter("serve_deadline_exceeded")
            .unwrap_or(0)
            >= 1,
        "the drill's long request must be counted"
    );
    assert!(
        report.cache.cancelled >= 1,
        "the expired flight must be torn down through the cancel token, \
         not simulated to completion: {:?}",
        report.cache
    );
    assert_eq!(
        report.cache.failures, 0,
        "cancellation is not a failure: {:?}",
        report.cache
    );
}

#[test]
fn slow_loris_connections_are_reclaimed_within_the_stall_bound() {
    let server = Server::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        opts: ServerOptions {
            frame_stall: Duration::from_millis(200),
            ..ServerOptions::default()
        },
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.tcp_addr().expect("tcp bound").to_string();

    // Four connections each drip a few bytes of a frame, then go silent
    // while staying open — the classic slow loris.
    let loris: Vec<TcpStream> = (0..4usize)
        .map(|i| {
            let mut s = TcpStream::connect(&addr).expect("connect");
            s.write_all(&b"WSRV\x01"[..2 + i % 3]).expect("drip");
            s
        })
        .collect();

    // The stall bound (not the peers closing — they never do) must free
    // every slot. Generous wall deadline for loaded CI machines; the
    // per-connection bound under test is the 200 ms stall.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let m = server.metrics_snapshot();
        let stalled = m.counter("serve_stalled").unwrap_or(0);
        let live = m.counter("serve_conns_current").unwrap_or(u64::MAX);
        if stalled == 4 && live == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "slow-loris slots not reclaimed: {stalled} stalled, {live} still live"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The server shut the drip-feeders down: their sockets read EOF (or a
    // reset), never a response frame.
    for mut s in loris {
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut sink = [0u8; 16];
        match s.read(&mut sink) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("a stalled connection got {n} bytes of response"),
        }
    }

    // And the listener still serves honest clients.
    let mut client = Client::connect(&addr).expect("connect");
    client.ping().expect("pong after the loris purge");
    drop(client);
    let report = server.shutdown();
    assert_eq!(report.metrics.counter("serve_stalled"), Some(4));
}

/// A proxy that tears the first response mid-header, then relays every
/// later connection faithfully — the deterministic core of the chaos
/// harness's torn-frame fault, used to pin retry-from-cache semantics.
fn tear_first_response_proxy(upstream: String) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("proxy bind");
    let addr = listener.local_addr().expect("proxy addr");
    std::thread::spawn(move || {
        // Connection 1: forward the request, tear the response.
        if let Ok((mut conn, _)) = listener.accept() {
            let mut up = TcpStream::connect(&upstream).expect("upstream");
            if let Ok(FrameEvent::Frame(req)) = read_frame(&mut conn, DEFAULT_MAX_FRAME) {
                write_frame(&mut up, &req, DEFAULT_MAX_FRAME).expect("forward request");
                if let Ok(FrameEvent::Frame(_)) = read_frame(&mut up, DEFAULT_MAX_FRAME) {
                    // The server answered in full; the client gets five
                    // bytes of frame header and then a closed socket.
                    let _ = conn.write_all(b"WSRV\x02");
                }
            }
            // Dropping both sockets closes the torn connection.
        }
        // Connection 2 (the retry): relay frames faithfully until EOF.
        if let Ok((mut conn, _)) = listener.accept() {
            let mut up = TcpStream::connect(&upstream).expect("upstream");
            while let Ok(FrameEvent::Frame(req)) = read_frame(&mut conn, DEFAULT_MAX_FRAME) {
                write_frame(&mut up, &req, DEFAULT_MAX_FRAME).expect("forward request");
                match read_frame(&mut up, DEFAULT_MAX_FRAME) {
                    Ok(FrameEvent::Frame(resp)) => {
                        if write_frame(&mut conn, &resp, DEFAULT_MAX_FRAME).is_err() {
                            break;
                        }
                    }
                    _ => break,
                }
            }
        }
    });
    addr
}

#[test]
fn a_retried_request_is_served_from_cache_not_recomputed() {
    let server = Server::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.tcp_addr().expect("tcp bound").to_string();
    let proxy = tear_first_response_proxy(addr);

    let req = SimRequest {
        bench: Bench::Primes,
        scale: Scale::Tiny,
        machine: MachineSpec::new(MachinePreset::DualSocket).with_cores(2),
        protocol: ProtocolId::Warden,
        check: false,
    };
    let program = Bench::Primes.build(Scale::Tiny);
    let resolved = req.machine.to_machine().expect("valid machine");
    let direct = simulate_with_options(
        &program,
        &resolved,
        ProtocolId::Warden,
        &SimOptions::default(),
    );

    let mut client = ResilientClient::tcp(
        proxy.to_string(),
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(50),
            call_deadline: Some(Duration::from_secs(30)),
            frame_stall: Duration::from_millis(500),
            seed: 11,
        },
    )
    .expect("valid retry policy");
    let (summary, served) = client.simulate(req).expect("the retry must succeed");

    // The conformance core: the first attempt's computation was completed
    // and cached by the server even though its response was torn on the
    // wire, so the safe re-issue is answered from cache — same digest,
    // zero recomputation.
    assert_eq!(summary.outcome_digest, outcome_digest(&direct));
    assert!(
        served.cache_hit(),
        "the retried request must be served from cache"
    );
    assert_eq!(client.retries(), 1, "exactly one retry absorbed the tear");
    assert_eq!(client.reconnects(), 2, "initial dial plus one re-dial");

    let report = server.shutdown();
    assert_eq!(report.cache.misses, 1, "one simulation, not two");
    assert_eq!(report.cache.hits, 1, "the retry was a cache hit");
    assert_eq!(report.metrics.counter("serve_simulate"), Some(2));
}

#[test]
fn restart_warm_serves_bit_identically_from_disk_without_resimulating() {
    let dir = scratch_dir("restart-warm");
    let plan = plan();

    // Cold process: every unique key is simulated once and persisted.
    let server = Server::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        workers: 2,
        disk: Some(ResultStoreConfig::at(&dir)),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.tcp_addr().expect("tcp bound").to_string();
    let report = drive(&Target::Tcp(addr), &plan, 2, plan.len()).expect("cold conformance");
    assert_eq!(report.mismatches, 0);
    assert_eq!(report.served.full_sim.count, plan.len() as u64);
    let down = server.shutdown();
    let disk = down.disk.expect("disk tier enabled");
    assert!(
        disk.writes >= plan.len() as u64,
        "every result must be persisted: {disk:?}"
    );

    // "Restarted" process on the same directory: the same mix must be
    // served bit-identically (drive checks every digest against the
    // oracle) with ZERO re-simulations — each unique key warms from disk
    // once, repeats hit memory.
    let server = Server::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        workers: 2,
        disk: Some(ResultStoreConfig::at(&dir)),
        ..ServeConfig::default()
    })
    .expect("server restarts on the populated directory");
    let addr = server.tcp_addr().expect("tcp bound").to_string();
    let report = drive(&Target::Tcp(addr), &plan, 2, plan.len()).expect("warm conformance");
    assert_eq!(report.mismatches, 0);
    assert_eq!(
        report.served.full_sim.count, 0,
        "a warm restart must not re-simulate: {:?}",
        report.served
    );
    assert_eq!(report.served.prefix_resume.count, 0);
    assert_eq!(
        report.served.disk_hit.count,
        plan.len() as u64,
        "one disk warm-up per unique key"
    );
    let down = server.shutdown();
    assert_eq!(down.metrics.counter("serve_full_sims"), Some(0));
    assert_eq!(
        down.metrics.counter("disk_hits"),
        Some(plan.len() as u64),
        "the wire metrics agree with the client-side split"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_prefix_sharing_request_resumes_from_a_persisted_checkpoint() {
    let dir = scratch_dir("prefix-resume");
    let req = SimRequest {
        bench: Bench::Tokens,
        scale: Scale::Tiny,
        machine: MachineSpec::new(MachinePreset::DualSocket).with_cores(2),
        protocol: ProtocolId::Warden,
        check: false,
    };
    let program = Bench::Tokens.build(Scale::Tiny);
    let resolved = req.machine.to_machine().expect("valid machine");
    let opts = SimOptions::default();
    let direct = simulate_with_options(&program, &resolved, ProtocolId::Warden, &opts);

    // Run a prefix of the same replay directly and persist its frame
    // through the tier — byte-for-byte what an interrupted leader leaves
    // behind (the serving path's options differ only by the cancel token,
    // which the options fingerprint deliberately excludes).
    let mut eng =
        SimEngine::try_new(&program, &resolved, ProtocolId::Warden, &opts).expect("engine");
    for _ in 0..500 {
        if !eng.step() {
            break;
        }
    }
    let steps = eng.steps();
    let frame = eng.snapshot_to_bytes();
    let key = RunKey::new(
        &Bench::Tokens.token(Scale::Tiny),
        &resolved,
        ProtocolId::Warden,
        &opts,
    );
    {
        let tier = ResultStore::open(ResultStoreConfig::at(&dir), Arc::new(RealStorage))
            .expect("tier opens");
        tier.put_checkpoint(&key, steps, &frame);
        assert_eq!(tier.stats().checkpoints_written, 1);
    }

    let server = Server::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        disk: Some(ResultStoreConfig::at(&dir)),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.tcp_addr().expect("tcp bound").to_string();
    let mut client = Client::connect(&addr).expect("connect");
    match client.call(&Request::Simulate(req)).expect("reply") {
        Response::Outcome { summary, served } => {
            assert_eq!(
                summary.outcome_digest,
                outcome_digest(&direct),
                "a resumed run must land on the full run's digest"
            );
            assert_eq!(served, ServedFrom::Resumed, "provenance is on the wire");
        }
        other => panic!("expected an outcome, got {other:?}"),
    }
    drop(client);
    let report = server.shutdown();
    assert_eq!(report.metrics.counter("resume_from_checkpoint"), Some(1));
    assert_eq!(
        report.metrics.counter("serve_full_sims"),
        Some(0),
        "the checkpoint spared the from-scratch replay"
    );
    let disk = report.disk.expect("disk tier enabled");
    assert_eq!(disk.checkpoint_hits, 1, "{disk:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_full_disk_degrades_to_memory_serving_and_never_fails_a_request() {
    let dir = scratch_dir("enospc");
    let plan = plan();
    let server = Server::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        workers: 2,
        disk: Some(ResultStoreConfig::at(&dir)),
        storage_faults: Some(StorageFaultPlan {
            torn_write_prob: 0.0,
            enospc_prob: 1.0,
            corrupt_read_prob: 0.0,
            crash_before_rename_prob: 0.0,
            crash_after_rename_prob: 0.0,
            ..StorageFaultPlan::default()
        }),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.tcp_addr().expect("tcp bound").to_string();

    // Every write hits ENOSPC, yet every request is answered correctly:
    // the memory cache and recompute carry the load.
    let report = drive(&Target::Tcp(addr), &plan, 4, plan.len()).expect("no failed requests");
    assert_eq!(report.mismatches, 0);
    assert_eq!(report.responses, 4 * plan.len() as u64);

    let down = server.shutdown();
    assert_eq!(down.metrics.counter("serve_internal_error"), Some(0));
    let disk = down.disk.expect("disk tier enabled");
    assert_eq!(disk.writes, 0, "nothing lands on a full disk: {disk:?}");
    assert_eq!(
        disk.enospc_degraded,
        plan.len() as u64,
        "each unique key's persist attempt degraded, typed: {disk:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_disk_entries_are_quarantined_and_recomputed_never_served() {
    let dir = scratch_dir("quarantine");
    let exp = plan().remove(0);

    // Populate one result entry.
    let server = Server::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        disk: Some(ResultStoreConfig::at(&dir)),
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.tcp_addr().expect("tcp bound").to_string();
    let mut client = Client::connect(&addr).expect("connect");
    match client.call(&Request::Simulate(exp.req)).expect("reply") {
        Response::Outcome { summary, .. } => assert_eq!(summary.outcome_digest, exp.digest),
        other => panic!("expected an outcome, got {other:?}"),
    }
    drop(client);
    server.shutdown();

    // Flip one byte in the middle of every persisted entry.
    let mut flipped = 0usize;
    for entry in std::fs::read_dir(&dir).expect("read dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rec") {
            let mut bytes = std::fs::read(&path).expect("entry bytes");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&path, &bytes).expect("corrupt entry");
            flipped += 1;
        }
    }
    assert!(
        flipped > 0,
        "the first server must have persisted its result"
    );

    // Restart: fsck sets the damage aside (never panics, never trusts
    // it), and the request is recomputed from scratch — still correct.
    let server = Server::start(ServeConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        disk: Some(ResultStoreConfig::at(&dir)),
        ..ServeConfig::default()
    })
    .expect("fsck never refuses to start over damage");
    let addr = server.tcp_addr().expect("tcp bound").to_string();
    let mut client = Client::connect(&addr).expect("connect");
    match client.call(&Request::Simulate(exp.req)).expect("reply") {
        Response::Outcome { summary, served } => {
            assert_eq!(summary.outcome_digest, exp.digest);
            assert_eq!(served, ServedFrom::Fresh, "corrupt bytes are never served");
        }
        other => panic!("expected an outcome, got {other:?}"),
    }
    drop(client);
    let report = server.shutdown();
    let disk = report.disk.expect("disk tier enabled");
    assert!(disk.quarantined >= 1, "fsck counted the damage: {disk:?}");
    assert_eq!(disk.hits, 0, "a quarantined entry cannot hit: {disk:?}");
    let evidence = std::fs::read_dir(dir.join("quarantine"))
        .expect("quarantine dir")
        .count();
    assert!(
        evidence >= 1,
        "the damaged entry was set aside, not deleted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
