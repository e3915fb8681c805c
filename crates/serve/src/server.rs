//! The simulation server: listeners, connection threads, a bounded request
//! queue, and the worker pool that runs replays through the single-flight
//! result cache.
//!
//! Threading model (all `std`, no runtime dependency):
//!
//! - one **acceptor** thread per listener (TCP and/or Unix socket), polling
//!   a non-blocking `accept` so it can observe the drain flag;
//! - one **connection** thread per client, reading frames with a short
//!   read timeout ([`proto::read_frame`] distinguishes an idle connection
//!   from a torn frame) and answering `Ping`/`Metrics` inline;
//! - a **bounded queue** in between: `Simulate` requests are enqueued if
//!   there is room and rejected with a typed [`Response::Busy`] otherwise —
//!   overload degrades into fast rejections, never an unbounded pileup;
//! - `workers` **worker** threads popping jobs and computing through the
//!   [`SingleFlight`] cache, so N identical concurrent requests cost one
//!   simulation. Panics inside a replay are caught per-flight (the
//!   campaign-runner isolation discipline) and surface as typed
//!   [`Response::Error`]s.
//!
//! Shutdown is a drain, not an abort: [`Server::shutdown`] stops intake
//! (new `Simulate` requests get [`Response::Draining`]), lets the workers
//! finish every queued job — each blocked client receives its reply — and
//! only then joins the threads.

use crate::cache::{CacheStats, Computed, FlightError, SingleFlight, Source};
use crate::disk::{DiskStats, ResultStore};
use crate::error::ServeError;
use crate::proto::{
    self, summarize_outcome, ErrorKind, FrameEvent, OutcomeSummary, Request, Response, ServedFrom,
    SimRequest,
};
use crate::storage::{FaultyStorage, RealStorage, Storage, StorageFaultPlan};
use std::cell::Cell;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use warden_obs::{ArgVal, AtomicGauge, Gauge, Hist, MetricsRegistry, TraceBuilder};
use warden_rt::TraceProgram;
use warden_sim::{CancelToken, MachineConfig, RunKey, SimEngine, SimError, SimOptions, SimOutcome};

/// Per-connection socket read timeout: the tick at which an idle
/// connection re-checks the drain flag, and the resolution of the
/// mid-frame stall clock.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// How long a started request frame may sit with no new bytes before the
/// connection is dropped as a slow loris ([`ServeError::Stalled`]). The
/// only request frame is a `SimRequest` well under 1 KiB, so an honest
/// client never stalls this long mid-frame.
const FRAME_STALL: Duration = Duration::from_millis(250);

/// How long an acceptor sleeps between polls of its non-blocking listener
/// (bounds both accept latency and drain latency).
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// The backoff hint carried in [`Response::Busy`] replies.
const BUSY_RETRY_MS: u32 = 25;

/// Scheduler steps between the periodic checkpoint frames a running
/// replay persists to the disk tier — coarse enough to cost nothing on
/// tiny traces, fine enough that a paper-scale replay leaves several
/// frames behind.
const CHECKPOINT_EVERY: u64 = 250_000;

/// How to run a [`Server`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// TCP bind address (e.g. `127.0.0.1:0`); `None` disables TCP.
    pub tcp: Option<String>,
    /// Unix-socket path; `None` disables it. Ignored off Unix.
    pub uds: Option<PathBuf>,
    /// Worker threads running simulations.
    pub workers: usize,
    /// Bounded request-queue capacity; a full queue answers `Busy`.
    pub queue_cap: usize,
    /// Record a Chrome trace-event timeline of every request.
    pub record_trace: bool,
    /// Directory of the crash-safe result store behind the memory cache
    /// (`None` disables it): finished results survive restarts, and
    /// periodic checkpoint frames let an interrupted replay resume instead
    /// of restarting at cycle 0. A campaign directory works as-is.
    pub disk: Option<PathBuf>,
    /// Inject seeded storage faults under the disk tier (chaos drills;
    /// requires `disk`). The tier degrades on every injected failure —
    /// requests are still served from memory and recompute.
    pub storage_faults: Option<StorageFaultPlan>,
    /// Deadline for one `Simulate` request, covering queue wait *plus*
    /// simulation. On expiry the client gets a typed
    /// [`Response::DeadlineExceeded`] immediately and the replay is
    /// cooperatively cancelled so the worker frees up. `None` waits
    /// without bound.
    pub request_deadline: Option<Duration>,
    /// Byte budget for the whole result cache (`u64::MAX` = unbounded);
    /// cost-aware eviction keeps residency under it at all times.
    pub cache_budget_bytes: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            tcp: Some("127.0.0.1:0".to_string()),
            uds: None,
            workers: 2,
            queue_cap: 16,
            record_trace: false,
            disk: None,
            storage_faults: None,
            request_deadline: None,
            cache_budget_bytes: u64::MAX,
        }
    }
}

/// What the server hands back after a graceful drain.
#[derive(Clone, Debug)]
pub struct ShutdownReport {
    /// Final metrics snapshot (counters, flattened gauges, histograms).
    pub metrics: MetricsRegistry,
    /// Final result-cache counters.
    pub cache: CacheStats,
    /// Final disk-tier counters, when the tier was configured.
    pub disk: Option<DiskStats>,
    /// The recorded timeline as trace-event JSON, if recording was on.
    pub trace_json: Option<String>,
}

struct Job {
    req: SimRequest,
    reply: SyncSender<Response>,
    enqueued: Instant,
    /// Cancelled by the connection thread when the request's deadline
    /// expires; polled by the replay engine every
    /// [`warden_sim::CANCEL_CHECK_EVENTS`] scheduler steps.
    cancel: CancelToken,
}

/// Mutable serving metrics, updated under one short-lived lock.
struct Meters {
    latency_us: Hist,
    queue_wait_us: Hist,
    queue_depth: Gauge,
    inflight: Gauge,
}

struct Inner {
    cfg: ServeConfig,
    draining: AtomicBool,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    results: SingleFlight<RunKey, Arc<OutcomeSummary>>,
    /// Built traces, keyed by [`RunKey::program`] and also single-flight:
    /// concurrent cold requests for the same benchmark build its trace
    /// once.
    traces: SingleFlight<u64, Arc<TraceProgram>>,
    meters: Mutex<Meters>,
    requests: AtomicU64,
    pings: AtomicU64,
    metrics_reqs: AtomicU64,
    simulates: AtomicU64,
    busy: AtomicU64,
    too_large: AtomicU64,
    drain_rejects: AtomicU64,
    bad_requests: AtomicU64,
    internal_errors: AtomicU64,
    deadline_exceeded: AtomicU64,
    expired_in_queue: AtomicU64,
    stalled_conns: AtomicU64,
    /// Replays resumed from a persisted checkpoint frame instead of
    /// starting at cycle 0.
    resumes: AtomicU64,
    /// Replays that ran from cycle 0 to completion.
    full_sims: AtomicU64,
    disk: Option<Arc<ResultStore>>,
    faults: Option<Arc<FaultyStorage>>,
    conns_live: AtomicGauge,
    trace: Option<Mutex<TraceBuilder>>,
    trace_dropped: AtomicU64,
    started: Instant,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

/// Events kept in a recorded timeline before further ones are counted as
/// dropped instead of queued (a soak run must not grow without bound).
const TRACE_EVENT_CAP: usize = 100_000;

impl Inner {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    fn trace_event(&self, f: impl FnOnce(&mut TraceBuilder)) {
        if let Some(trace) = &self.trace {
            let mut t = trace.lock().expect("trace lock");
            if t.len() < TRACE_EVENT_CAP {
                f(&mut t);
            } else {
                self.trace_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot everything into one [`MetricsRegistry`] (gauges flattened
    /// through [`Gauge::export_into`], cache counters included).
    fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.set_counter("serve_requests", self.requests.load(Ordering::Relaxed));
        reg.set_counter("serve_ping", self.pings.load(Ordering::Relaxed));
        reg.set_counter("serve_metrics", self.metrics_reqs.load(Ordering::Relaxed));
        reg.set_counter("serve_simulate", self.simulates.load(Ordering::Relaxed));
        reg.set_counter("serve_busy", self.busy.load(Ordering::Relaxed));
        reg.set_counter("serve_too_large", self.too_large.load(Ordering::Relaxed));
        reg.set_counter("serve_draining", self.drain_rejects.load(Ordering::Relaxed));
        reg.set_counter(
            "serve_bad_request",
            self.bad_requests.load(Ordering::Relaxed),
        );
        reg.set_counter(
            "serve_internal_error",
            self.internal_errors.load(Ordering::Relaxed),
        );
        reg.set_counter(
            "serve_deadline_exceeded",
            self.deadline_exceeded.load(Ordering::Relaxed),
        );
        reg.set_counter(
            "serve_expired_in_queue",
            self.expired_in_queue.load(Ordering::Relaxed),
        );
        reg.set_counter("serve_stalled", self.stalled_conns.load(Ordering::Relaxed));
        self.conns_live.export_into(&mut reg, "serve_conns");
        let c = self.results.stats();
        reg.set_counter("cache_hits", c.hits);
        reg.set_counter("cache_misses", c.misses);
        reg.set_counter("cache_coalesced", c.coalesced);
        reg.set_counter("cache_failures", c.failures);
        reg.set_counter("cache_cancelled", c.cancelled);
        reg.set_counter("cache_evictions", c.evictions);
        reg.set_counter("cache_evicted_bytes", c.evicted_bytes);
        reg.set_counter("cache_resident_bytes", c.resident_bytes);
        reg.set_counter("cache_resident_peak", c.resident_peak);
        reg.set_counter(
            "resume_from_checkpoint",
            self.resumes.load(Ordering::Relaxed),
        );
        reg.set_counter("serve_full_sims", self.full_sims.load(Ordering::Relaxed));
        if let Some(disk) = &self.disk {
            let d = disk.stats();
            reg.set_counter("disk_hits", d.hits);
            reg.set_counter("disk_misses", d.misses);
            reg.set_counter("disk_checkpoint_hits", d.checkpoint_hits);
            reg.set_counter("disk_checkpoints_written", d.checkpoints_written);
            reg.set_counter("disk_writes", d.writes);
            reg.set_counter("disk_quarantined", d.quarantined);
            reg.set_counter("disk_enospc_degraded", d.enospc_degraded);
            reg.set_counter("disk_write_errors", d.write_errors);
            reg.set_counter("disk_read_errors", d.read_errors);
        }
        if let Some(faults) = &self.faults {
            let f = faults.stats();
            reg.set_counter("storage_faults_injected", f.injected());
            reg.set_counter("storage_fault_torn_writes", f.torn_writes);
            reg.set_counter("storage_fault_enospc", f.enospc);
            reg.set_counter("storage_fault_corrupt_reads", f.corrupt_reads);
            reg.set_counter("storage_fault_crash_before_rename", f.crash_before_rename);
            reg.set_counter("storage_fault_crash_after_rename", f.crash_after_rename);
        }
        reg.set_counter(
            "trace_events_dropped",
            self.trace_dropped.load(Ordering::Relaxed),
        );
        let m = self.meters.lock().expect("meters lock");
        m.queue_depth.export_into(&mut reg, "serve_queue_depth");
        m.inflight.export_into(&mut reg, "serve_inflight");
        reg.set_hist("serve_latency_us", m.latency_us.clone());
        reg.set_hist("serve_queue_wait_us", m.queue_wait_us.clone());
        reg
    }

    /// Enqueue a simulation or reject it; on success, block until a worker
    /// replies or the request's deadline (queue wait + simulation) expires.
    /// Called from connection threads, so blocking here holds only this
    /// client's thread. On expiry the job's cancel token fires — the
    /// replay engine observes it within one poll interval, the worker
    /// frees up, and this client gets a typed `DeadlineExceeded` *now*,
    /// not when the worker notices.
    fn submit(&self, req: SimRequest) -> Response {
        let (tx, rx) = mpsc::sync_channel(1);
        let cancel = CancelToken::new();
        let accepted = Instant::now();
        {
            let mut q = self.queue.lock().expect("queue lock");
            // Checked under the queue lock: after `shutdown` flips the
            // flag and takes this lock once, no job can slip in.
            if self.draining() {
                self.drain_rejects.fetch_add(1, Ordering::Relaxed);
                return Response::Draining;
            }
            if q.len() >= self.cfg.queue_cap {
                self.busy.fetch_add(1, Ordering::Relaxed);
                let ts = self.now_us();
                self.trace_event(|t| {
                    t.instant(
                        "busy",
                        ts,
                        1,
                        0,
                        vec![("queue_len".into(), ArgVal::U64(q.len() as u64))],
                    )
                });
                return Response::Busy {
                    queue_len: q.len() as u32,
                    queue_cap: self.cfg.queue_cap as u32,
                    retry_after_ms: BUSY_RETRY_MS,
                };
            }
            q.push_back(Job {
                req,
                reply: tx,
                enqueued: accepted,
                cancel: cancel.clone(),
            });
            let depth = q.len() as u64;
            self.meters
                .lock()
                .expect("meters lock")
                .queue_depth
                .set(depth);
            self.queue_cv.notify_one();
        }
        let worker_died = |inner: &Inner| {
            inner.internal_errors.fetch_add(1, Ordering::Relaxed);
            Response::Error {
                kind: ErrorKind::Internal,
                msg: "worker dropped the request".to_string(),
            }
        };
        match self.cfg.request_deadline {
            None => match rx.recv() {
                Ok(resp) => resp,
                Err(_) => worker_died(self),
            },
            Some(deadline) => match rx.recv_timeout(deadline) {
                Ok(resp) => resp,
                Err(RecvTimeoutError::Timeout) => {
                    cancel.cancel();
                    self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                    let ts = self.now_us();
                    self.trace_event(|t| {
                        t.instant(
                            "deadline_exceeded",
                            ts,
                            1,
                            0,
                            vec![(
                                "deadline_ms".into(),
                                ArgVal::U64(deadline.as_millis() as u64),
                            )],
                        )
                    });
                    Response::DeadlineExceeded {
                        deadline_ms: deadline.as_millis() as u64,
                        elapsed_ms: accepted.elapsed().as_millis() as u64,
                    }
                }
                Err(RecvTimeoutError::Disconnected) => worker_died(self),
            },
        }
    }

    /// Resolve and run one simulation request, through both caches. The
    /// cancel token rides inside [`SimOptions`] but is excluded from the
    /// options fingerprint, so two requests for the same work with
    /// different tokens still share one cache entry.
    fn run_simulate(&self, req: &SimRequest, cancel: &CancelToken, enqueued: Instant) -> Response {
        let machine = match req.machine.to_machine() {
            Ok(m) => m,
            Err(e) => {
                self.bad_requests.fetch_add(1, Ordering::Relaxed);
                return Response::Error {
                    kind: ErrorKind::BadRequest,
                    msg: e.to_string(),
                };
            }
        };
        let opts = SimOptions {
            check: req.check,
            cancel: Some(cancel.clone()),
            ..SimOptions::default()
        };
        let key = RunKey::new(&req.bench.token(req.scale), &machine, req.protocol, &opts);
        // Set by the leader closure: whether this flight's result came off
        // the disk tier, resumed from a checkpoint frame, or ran from
        // cycle 0. Callers that hit the memory cache or coalesced never run
        // the closure, so `Source` overrides it below.
        let leader_served = Cell::new(ServedFrom::Fresh);
        let computed = self.results.get_or_compute_with(key, || {
            self.leader_compute(&key, req, &machine, &opts, &leader_served)
        });
        match computed {
            Ok((summary, source)) => Response::Outcome {
                summary: Box::new((*summary).clone()),
                served: match source {
                    Source::Cached => ServedFrom::Memory,
                    Source::Coalesced => ServedFrom::Coalesced,
                    Source::Fresh => leader_served.get(),
                },
            },
            Err(FlightError::Cancelled) => {
                // The connection thread already answered the client when
                // the deadline fired; this reply goes to a dead receiver
                // and exists so the worker's bookkeeping stays uniform.
                let deadline_ms = self
                    .cfg
                    .request_deadline
                    .map_or(0, |d| d.as_millis() as u64);
                Response::DeadlineExceeded {
                    deadline_ms,
                    elapsed_ms: enqueued.elapsed().as_millis() as u64,
                }
            }
            Err(FlightError::Failed(msg)) => {
                self.internal_errors.fetch_add(1, Ordering::Relaxed);
                Response::Error {
                    kind: ErrorKind::Internal,
                    msg,
                }
            }
        }
    }

    /// The single-flight leader's compute path, in durability order:
    /// 1. the result store may hold the finished result (a prior process
    ///    or a campaign computed it — zero re-simulation, and no trace is
    ///    built);
    /// 2. a persisted checkpoint frame may hold a prefix of the run (a
    ///    crashed, cancelled or evicted flight got partway — resume from
    ///    its step count instead of cycle 0);
    /// 3. otherwise simulate from scratch.
    ///
    /// While a simulation runs, periodic frames (and a final frame on
    /// cooperative cancellation) are persisted so the *next* attempt
    /// starts where this one stopped. Every disk failure degrades to the
    /// slower path with a typed counter bump; no request fails because
    /// storage did.
    fn leader_compute(
        &self,
        key: &RunKey,
        req: &SimRequest,
        machine: &MachineConfig,
        opts: &SimOptions,
        served: &Cell<ServedFrom>,
    ) -> Result<Computed<Arc<OutcomeSummary>>, String> {
        if let Some(disk) = &self.disk {
            if let Some(out) = disk.result(key) {
                served.set(ServedFrom::Disk);
                return Ok(Computed::Ready(Arc::new(summarize_outcome(&out))));
            }
        }
        let (trace, _) = self
            .traces
            .get_or_compute(key.program, || Ok(Arc::new(req.bench.build(req.scale))))
            .map_err(|msg| format!("trace construction failed: {msg}"))?;
        let began = Instant::now();
        let mut engine: Option<SimEngine<'_>> = None;
        if let Some(disk) = &self.disk {
            if let Some((_steps, frame)) = disk.checkpoint(key) {
                match SimEngine::resume_from_bytes(&trace, machine, req.protocol, opts, &frame) {
                    Ok(eng) => {
                        served.set(ServedFrom::Resumed);
                        self.resumes.fetch_add(1, Ordering::Relaxed);
                        engine = Some(eng);
                    }
                    // The outer frame verified but the engine refused the
                    // payload (identity mismatch, inner corruption): set
                    // it aside and run from cycle 0.
                    Err(_) => disk.quarantine_checkpoint(key),
                }
            }
        }
        let result: Result<SimOutcome, SimError> = match engine {
            Some(eng) => self.run_framed(eng, key),
            None => SimEngine::try_new(&trace, machine, req.protocol, opts)
                .and_then(|eng| self.run_framed(eng, key)),
        };
        match result {
            Ok(out) => {
                if served.get() == ServedFrom::Fresh {
                    self.full_sims.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(disk) = &self.disk {
                    // A failed persist is counted in the store's stats;
                    // the result is still served from memory.
                    let _ = disk.put_result(key, &out, began.elapsed().as_micros() as u64);
                }
                Ok(Computed::Ready(Arc::new(summarize_outcome(&out))))
            }
            // A cancelled leader vacates its slot: waiters coalesced on
            // this flight loop back and retry under their own deadlines
            // instead of inheriting this request's failure. With a disk
            // tier, the final frame written at cancellation means the
            // retry resumes rather than restarts.
            Err(SimError::Cancelled { .. }) => Ok(Computed::Cancelled),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Run an engine to completion, persisting periodic checkpoint frames
    /// when the disk tier is on.
    fn run_framed(&self, eng: SimEngine<'_>, key: &RunKey) -> Result<SimOutcome, SimError> {
        match &self.disk {
            Some(disk) => eng.run_with_cancel_frames(CHECKPOINT_EVERY, |steps, frame| {
                disk.put_checkpoint(key, steps, frame)
            }),
            None => eng.run_with_cancel(),
        }
    }
}

fn worker_loop(inner: &Inner, worker_id: u32) {
    loop {
        let job = {
            let mut q = inner.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = q.pop_front() {
                    let depth = q.len() as u64;
                    let mut m = inner.meters.lock().expect("meters lock");
                    m.queue_depth.set(depth);
                    m.inflight.add(1);
                    break job;
                }
                if inner.draining() {
                    return;
                }
                q = inner.queue_cv.wait(q).expect("queue lock");
            }
        };
        let Job {
            req,
            reply,
            enqueued,
            cancel,
        } = job;
        let waited_us = enqueued.elapsed().as_micros() as u64;
        if cancel.is_cancelled() {
            // The client's deadline expired while this job sat queued; its
            // connection thread already replied. Skip the replay entirely.
            inner.expired_in_queue.fetch_add(1, Ordering::Relaxed);
            inner.meters.lock().expect("meters lock").inflight.sub(1);
            continue;
        }
        let start = inner.now_us();
        let began = Instant::now();
        let response = inner.run_simulate(&req, &cancel, enqueued);
        let compute_us = began.elapsed().as_micros() as u64;
        {
            let mut m = inner.meters.lock().expect("meters lock");
            m.latency_us.add(waited_us + compute_us);
            m.queue_wait_us.add(waited_us);
            m.inflight.sub(1);
        }
        let served = match &response {
            Response::Outcome { served, .. } => Some(*served),
            _ => None,
        };
        inner.trace_event(|t| {
            t.complete(
                &format!("{}/{:?}", req.bench.name(), req.protocol),
                start,
                compute_us.max(1),
                1,
                worker_id + 1,
                vec![
                    (
                        "cache_hit".into(),
                        ArgVal::U64(served.is_some_and(ServedFrom::cache_hit) as u64),
                    ),
                    (
                        "served".into(),
                        ArgVal::Str(served.map_or("rejected", ServedFrom::label).into()),
                    ),
                    ("queue_wait_us".into(), ArgVal::U64(waited_us)),
                ],
            )
        });
        // The client may have vanished; a dead receiver is not an error.
        let _ = reply.send(response);
    }
}

/// Serve one connection until EOF, error, stall, or drain.
fn connection_loop(inner: &Arc<Inner>, stream: &mut (impl Read + Write)) {
    let max = proto::DEFAULT_MAX_FRAME;
    let stall = Some(FRAME_STALL);
    loop {
        match proto::read_frame_stall_bounded(stream, max, stall) {
            Ok(FrameEvent::Idle) => {
                if inner.draining() {
                    return;
                }
            }
            Ok(FrameEvent::Eof) => return,
            Ok(FrameEvent::Frame(payload)) => {
                inner.requests.fetch_add(1, Ordering::Relaxed);
                let response = match Request::decode(&payload) {
                    Ok(Request::Ping) => {
                        inner.pings.fetch_add(1, Ordering::Relaxed);
                        Response::Pong
                    }
                    Ok(Request::Metrics) => {
                        inner.metrics_reqs.fetch_add(1, Ordering::Relaxed);
                        Response::Metrics(inner.metrics_snapshot())
                    }
                    Ok(Request::Simulate(req)) => {
                        inner.simulates.fetch_add(1, Ordering::Relaxed);
                        inner.submit(req)
                    }
                    Err(e) => {
                        // The frame was well-delimited, so the stream is
                        // still in sync: answer and keep the connection.
                        inner.bad_requests.fetch_add(1, Ordering::Relaxed);
                        Response::Error {
                            kind: ErrorKind::BadRequest,
                            msg: e.to_string(),
                        }
                    }
                };
                if proto::write_frame(stream, &response.encode(), max).is_err() {
                    return;
                }
            }
            Err(ServeError::FrameTooLarge { len, max }) => {
                // The oversized payload was never read, so the stream is
                // desynced: reply, then hang up.
                inner.too_large.fetch_add(1, Ordering::Relaxed);
                let resp = Response::TooLarge { len, max };
                let _ = proto::write_frame(stream, &resp.encode(), max);
                return;
            }
            Err(ServeError::Stalled { .. }) => {
                // Slow-loris: the peer started a frame and drip-fed (or
                // abandoned) it. The stream is desynced mid-frame, so no
                // reply is possible — free the connection slot.
                inner.stalled_conns.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(e @ (ServeError::BadMagic(_) | ServeError::BadVersion(_))) => {
                inner.bad_requests.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error {
                    kind: ErrorKind::BadRequest,
                    msg: e.to_string(),
                };
                let _ = proto::write_frame(stream, &resp.encode(), max);
                return;
            }
            Err(_) => return,
        }
    }
}

fn spawn_conn(inner: &Arc<Inner>, mut stream: impl Read + Write + Send + 'static) {
    let inner2 = Arc::clone(inner);
    inner.conns_live.add(1);
    let handle = std::thread::spawn(move || {
        connection_loop(&inner2, &mut stream);
        inner2.conns_live.sub(1);
    });
    let mut conns = inner.conns.lock().expect("conns lock");
    // Reap finished handlers so a long-lived server's handle list stays
    // proportional to *live* connections, not historical ones.
    conns.retain(|h| !h.is_finished());
    conns.push(handle);
}

fn tcp_acceptor(inner: Arc<Inner>, listener: TcpListener) {
    while !inner.draining() {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                spawn_conn(&inner, stream);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

#[cfg(unix)]
fn uds_acceptor(inner: Arc<Inner>, listener: std::os::unix::net::UnixListener) {
    while !inner.draining() {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                spawn_conn(&inner, stream);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// leaks the serving threads; tests and binaries should always drain.
pub struct Server {
    inner: Arc<Inner>,
    acceptors: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    uds_path: Option<PathBuf>,
}

impl Server {
    /// Bind the configured listeners and start serving.
    pub fn start(cfg: ServeConfig) -> Result<Server, ServeError> {
        if cfg.tcp.is_none() && cfg.uds.is_none() {
            return Err(ServeError::Config(
                "at least one of a TCP address or a Unix-socket path is required".into(),
            ));
        }
        if cfg.workers == 0 {
            return Err(ServeError::Config("at least one worker is required".into()));
        }
        if cfg.queue_cap == 0 {
            return Err(ServeError::Config(
                "the request queue needs a non-zero capacity".into(),
            ));
        }
        if cfg.request_deadline.is_some_and(|d| d.is_zero()) {
            return Err(ServeError::Config(
                "a request deadline must be non-zero (use None for unbounded)".into(),
            ));
        }
        if cfg.cache_budget_bytes == 0 {
            return Err(ServeError::Config(
                "the cache byte budget must be non-zero (use u64::MAX for unbounded)".into(),
            ));
        }
        if cfg.storage_faults.is_some() && cfg.disk.is_none() {
            return Err(ServeError::Config(
                "storage-fault injection requires a disk tier to inject into".into(),
            ));
        }
        if let Some(plan) = &cfg.storage_faults {
            plan.validate().map_err(ServeError::Config)?;
        }
        let mut faults = None;
        let disk = match &cfg.disk {
            None => None,
            Some(dir) => {
                let storage: Arc<dyn Storage> = match cfg.storage_faults {
                    None => Arc::new(RealStorage),
                    Some(plan) => {
                        let faulty = Arc::new(FaultyStorage::new(RealStorage, plan));
                        faults = Some(Arc::clone(&faulty));
                        faulty
                    }
                };
                Some(Arc::new(
                    ResultStore::open(dir.clone(), storage).map_err(ServeError::Config)?,
                ))
            }
        };
        let trace = cfg.record_trace.then(|| {
            let mut t = TraceBuilder::new();
            t.process_name(1, "warden-serve");
            for w in 0..cfg.workers {
                t.thread_name(1, w as u32 + 1, &format!("worker-{w}"));
            }
            Mutex::new(t)
        });
        let inner = Arc::new(Inner {
            draining: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            // Weigh cached summaries by their exact wire size: it is what
            // a hit actually ships, and it makes the byte budget auditable
            // from the outside.
            results: SingleFlight::bounded(cfg.cache_budget_bytes, |v: &Arc<OutcomeSummary>| {
                v.wire_size()
            }),
            traces: SingleFlight::new(),
            meters: Mutex::new(Meters {
                latency_us: Hist::new(),
                queue_wait_us: Hist::new(),
                queue_depth: Gauge::new(),
                inflight: Gauge::new(),
            }),
            requests: AtomicU64::new(0),
            pings: AtomicU64::new(0),
            metrics_reqs: AtomicU64::new(0),
            simulates: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            too_large: AtomicU64::new(0),
            drain_rejects: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            internal_errors: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            expired_in_queue: AtomicU64::new(0),
            stalled_conns: AtomicU64::new(0),
            resumes: AtomicU64::new(0),
            full_sims: AtomicU64::new(0),
            disk,
            faults,
            conns_live: AtomicGauge::new(),
            trace,
            trace_dropped: AtomicU64::new(0),
            started: Instant::now(),
            conns: Mutex::new(Vec::new()),
            cfg: cfg.clone(),
        });

        let mut acceptors = Vec::new();
        let mut tcp_addr = None;
        if let Some(addr) = &cfg.tcp {
            let listener = TcpListener::bind(addr).map_err(|e| {
                ServeError::Config(format!("cannot bind TCP listener on {addr}: {e}"))
            })?;
            listener.set_nonblocking(true)?;
            tcp_addr = Some(listener.local_addr()?);
            let inner2 = Arc::clone(&inner);
            acceptors.push(std::thread::spawn(move || tcp_acceptor(inner2, listener)));
        }
        let mut uds_path = None;
        #[cfg(unix)]
        if let Some(path) = &cfg.uds {
            // A stale socket file from a previous run would fail the bind.
            let _ = std::fs::remove_file(path);
            let listener = std::os::unix::net::UnixListener::bind(path).map_err(|e| {
                ServeError::Config(format!("cannot bind Unix socket {}: {e}", path.display()))
            })?;
            listener.set_nonblocking(true)?;
            uds_path = Some(path.clone());
            let inner2 = Arc::clone(&inner);
            acceptors.push(std::thread::spawn(move || uds_acceptor(inner2, listener)));
        }
        #[cfg(not(unix))]
        if cfg.uds.is_some() && cfg.tcp.is_none() {
            return Err(ServeError::Config(
                "Unix sockets are unavailable on this platform".into(),
            ));
        }

        let workers = (0..cfg.workers)
            .map(|w| {
                let inner2 = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner2, w as u32))
            })
            .collect();

        Ok(Server {
            inner,
            acceptors,
            workers,
            tcp_addr,
            uds_path,
        })
    }

    /// The bound TCP address (with the real port when `127.0.0.1:0` was
    /// requested).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound Unix-socket path.
    pub fn uds_path(&self) -> Option<&PathBuf> {
        self.uds_path.as_ref()
    }

    /// A live metrics snapshot.
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        self.inner.metrics_snapshot()
    }

    /// Live result-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.results.stats()
    }

    /// Live disk-tier counters, when the tier is configured.
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.inner.disk.as_ref().map(|d| d.stats())
    }

    /// Drain and stop: refuse new work, finish every queued job (each
    /// blocked client gets its reply), then join acceptors, workers and
    /// connection threads, in that order.
    pub fn shutdown(self) -> ShutdownReport {
        self.inner.draining.store(true, Ordering::SeqCst);
        // Take the queue lock once so every in-flight `submit` has either
        // enqueued (and will be drained) or will observe the flag.
        drop(self.inner.queue.lock().expect("queue lock"));
        self.inner.queue_cv.notify_all();
        for a in self.acceptors {
            let _ = a.join();
        }
        for w in self.workers {
            let _ = w.join();
        }
        let conns = std::mem::take(&mut *self.inner.conns.lock().expect("conns lock"));
        for c in conns {
            let _ = c.join();
        }
        if let Some(path) = &self.uds_path {
            let _ = std::fs::remove_file(path);
        }
        let trace_json = self
            .inner
            .trace
            .as_ref()
            .map(|t| t.lock().expect("trace lock").to_json());
        ShutdownReport {
            metrics: self.inner.metrics_snapshot(),
            cache: self.inner.results.stats(),
            disk: self.inner.disk.as_ref().map(|d| d.stats()),
            trace_json,
        }
    }
}
