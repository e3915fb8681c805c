//! A blocking client for the `warden-serve` wire protocol.
//!
//! Generic over any `Read + Write` stream, so the same request/response
//! logic drives TCP sockets, Unix sockets and in-memory test doubles.
//! Client sockets stay fully blocking — simulations take real time, and
//! [`proto::read_frame`] only reports [`FrameEvent::Idle`] on a read
//! timeout, which a blocking socket never produces.

use crate::error::ServeError;
use crate::proto::{
    self, FrameEvent, OutcomeSummary, Request, Response, ServedFrom, SimRequest, DEFAULT_MAX_FRAME,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A connected client.
pub struct Client<S> {
    stream: S,
}

impl Client<TcpStream> {
    /// Connect over TCP.
    pub fn connect(addr: &str) -> Result<Client<TcpStream>, ServeError> {
        let stream = TcpStream::connect(addr).map_err(ServeError::Io)?;
        let _ = stream.set_nodelay(true);
        Ok(Client::over(stream))
    }
}

#[cfg(unix)]
impl Client<std::os::unix::net::UnixStream> {
    /// Connect over a Unix socket.
    pub fn connect_uds(
        path: &std::path::Path,
    ) -> Result<Client<std::os::unix::net::UnixStream>, ServeError> {
        let stream = std::os::unix::net::UnixStream::connect(path).map_err(ServeError::Io)?;
        Ok(Client::over(stream))
    }
}

impl<S: Read + Write> Client<S> {
    /// Wrap an already-connected stream.
    pub fn over(stream: S) -> Client<S> {
        Client { stream }
    }

    /// Send one request and wait for its response.
    pub fn call(&mut self, req: &Request) -> Result<Response, ServeError> {
        proto::write_frame(&mut self.stream, &req.encode(), DEFAULT_MAX_FRAME)?;
        loop {
            match proto::read_frame(&mut self.stream, DEFAULT_MAX_FRAME)? {
                FrameEvent::Frame(payload) => return Ok(Response::decode(&payload)?),
                FrameEvent::Idle => continue,
                FrameEvent::Eof => {
                    return Err(ServeError::UnexpectedResponse(
                        "server closed the connection before replying".to_string(),
                    ))
                }
            }
        }
    }

    /// Liveness check: send `Ping`, expect `Pong`.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ServeError::UnexpectedResponse(format!(
                "ping answered with {other:?}"
            ))),
        }
    }

    /// Fetch the server's metrics snapshot.
    pub fn metrics(&mut self) -> Result<warden_obs::MetricsRegistry, ServeError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(reg) => Ok(reg),
            other => Err(ServeError::UnexpectedResponse(format!(
                "metrics answered with {other:?}"
            ))),
        }
    }

    /// Run one simulation, retrying `Busy` with a linear backoff for up to
    /// `tries` attempts. Returns the summary and its provenance (which
    /// cache tier served it, or that it was resumed or freshly computed).
    /// `Draining`, `Error` and exhausted retries are typed failures.
    pub fn simulate(
        &mut self,
        req: SimRequest,
        tries: usize,
    ) -> Result<(OutcomeSummary, ServedFrom), ServeError> {
        let mut last_busy = None;
        for attempt in 0..tries.max(1) {
            match self.call(&Request::Simulate(req))? {
                Response::Outcome { summary, served } => return Ok((*summary, served)),
                Response::Busy {
                    queue_len,
                    queue_cap,
                    retry_after_ms,
                } => {
                    last_busy = Some((queue_len, queue_cap));
                    // Honor the server's hint as the backoff floor.
                    let backoff = (5 * (attempt as u64 + 1)).max(retry_after_ms as u64);
                    std::thread::sleep(Duration::from_millis(backoff));
                }
                other => {
                    return Err(ServeError::UnexpectedResponse(format!(
                        "simulate answered with {other:?}"
                    )))
                }
            }
        }
        let (len, cap) = last_busy.unwrap_or((0, 0));
        Err(ServeError::UnexpectedResponse(format!(
            "server still busy after {tries} attempts (queue {len}/{cap})"
        )))
    }
}

// ---------------------------------------------------------------------------
// The resilient client.

/// How a [`ResilientClient`] retries: attempt budget, exponential backoff
/// with deterministic jitter, an overall per-call deadline, and the
/// mid-frame stall bound it tolerates from the server.
///
/// Re-issuing a `Simulate` after a connection failure is safe because
/// requests are **content-addressed**: a retry of work the server already
/// finished is served from the result cache (or coalesced onto the
/// in-flight computation), never recomputed — the conformance suite pins
/// this.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts per call (first try included). At least 1.
    pub max_attempts: u32,
    /// Backoff before retry `n` is `base_backoff × 2ⁿ`, capped at
    /// [`RetryPolicy::max_backoff`], clamped to at least one millisecond,
    /// then jittered uniformly over `[exp/2, exp]` of that clamped value.
    /// The clamp is what keeps a zero (or sub-millisecond) base from
    /// degenerating into a hot spin of back-to-back retries.
    pub base_backoff: Duration,
    /// Upper bound on one backoff sleep.
    pub max_backoff: Duration,
    /// Overall wall-clock budget for one call, covering every reconnect,
    /// backoff and wait. `None` relies on the attempt budget alone.
    pub call_deadline: Option<Duration>,
    /// How long the server may stall mid-frame before this client drops
    /// the connection and retries.
    pub frame_stall: Duration,
    /// Seed for the jitter PRNG — equal seeds retry on equal schedules,
    /// which keeps chaos runs reproducible.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            call_deadline: None,
            frame_stall: Duration::from_secs(2),
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// Reject policies that cannot make progress. Called by the
    /// [`ResilientClient`] constructors, so a nonsensical policy fails
    /// loudly at build time instead of mid-retry-storm.
    pub fn validate(&self) -> Result<(), ServeError> {
        let bad = |msg: String| Err(ServeError::Config(msg));
        if self.max_attempts == 0 {
            return bad("retry policy: max_attempts must be at least 1".into());
        }
        if self.max_backoff < self.base_backoff {
            return bad(format!(
                "retry policy: max_backoff ({:?}) must be >= base_backoff ({:?})",
                self.max_backoff, self.base_backoff
            ));
        }
        if self.frame_stall.is_zero() {
            return bad("retry policy: frame_stall must be positive".into());
        }
        if let Some(d) = self.call_deadline {
            if d.is_zero() {
                return bad("retry policy: call_deadline, when set, must be positive".into());
            }
        }
        Ok(())
    }
}

enum Endpoint {
    Tcp(String),
    #[cfg(unix)]
    Uds(std::path::PathBuf),
}

trait Conn: Read + Write + Send {}
impl<T: Read + Write + Send> Conn for T {}

/// A self-healing client: dials lazily, reconnects after any transport
/// failure, retries with jittered exponential backoff, honors the
/// server's `Busy` retry-after hint as its backoff floor, and enforces an
/// overall per-call deadline. Built for hostile networks — the chaos
/// harness drives the full conformance suite through it.
pub struct ResilientClient {
    endpoint: Endpoint,
    policy: RetryPolicy,
    conn: Option<Box<dyn Conn>>,
    rng: u64,
    /// Reconnections performed over this client's lifetime.
    reconnects: u64,
    /// Retried calls (any attempt after the first) over its lifetime.
    retries: u64,
}

/// The poll tick for deadline checks while waiting on a response.
const POLL_TICK: Duration = Duration::from_millis(25);

impl ResilientClient {
    /// A client for a TCP endpoint. Validates the policy, but does not
    /// dial until the first call.
    pub fn tcp(
        addr: impl Into<String>,
        policy: RetryPolicy,
    ) -> Result<ResilientClient, ServeError> {
        ResilientClient::over_endpoint(Endpoint::Tcp(addr.into()), policy)
    }

    /// A client for a Unix-socket endpoint. Validates the policy, but does
    /// not dial until the first call.
    #[cfg(unix)]
    pub fn uds(
        path: impl Into<std::path::PathBuf>,
        policy: RetryPolicy,
    ) -> Result<ResilientClient, ServeError> {
        ResilientClient::over_endpoint(Endpoint::Uds(path.into()), policy)
    }

    fn over_endpoint(
        endpoint: Endpoint,
        policy: RetryPolicy,
    ) -> Result<ResilientClient, ServeError> {
        policy.validate()?;
        Ok(ResilientClient {
            endpoint,
            rng: policy.seed | 1,
            policy,
            conn: None,
            reconnects: 0,
            retries: 0,
        })
    }

    /// Reconnections performed so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Calls that needed at least one retry so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64* — deterministic jitter, no dependencies.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Backoff for retry `attempt` (0-based): `base_backoff × 2^attempt`
    /// capped at `max_backoff`, clamped to ≥1 ms, jittered uniformly over
    /// `[exp/2, exp]`, then floored at the server's latest retry-after
    /// hint. The clamp happens before the jitter: a zero or
    /// sub-millisecond base truncates `exp_ms` to 0, and without it every
    /// retry would sleep 0 ms and hot-spin against the server.
    fn backoff(&mut self, attempt: u32, floor_ms: u64) -> Duration {
        let exp = self
            .policy
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.policy.max_backoff);
        let exp_ms = (exp.as_millis() as u64).max(1);
        let lo = exp_ms - exp_ms / 2;
        let jittered = lo + self.next_rand() % (exp_ms - lo + 1);
        Duration::from_millis(jittered.max(floor_ms))
    }

    fn dial(&mut self) -> Result<(), ServeError> {
        let conn: Box<dyn Conn> = match &self.endpoint {
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr).map_err(ServeError::Io)?;
                let _ = s.set_nodelay(true);
                let _ = s.set_read_timeout(Some(POLL_TICK));
                Box::new(s)
            }
            #[cfg(unix)]
            Endpoint::Uds(path) => {
                let s = std::os::unix::net::UnixStream::connect(path).map_err(ServeError::Io)?;
                let _ = s.set_read_timeout(Some(POLL_TICK));
                Box::new(s)
            }
        };
        self.conn = Some(conn);
        self.reconnects += 1;
        Ok(())
    }

    /// Remaining budget, or a typed deadline error once it is spent.
    fn remaining(&self, started: Instant) -> Result<Option<Duration>, ServeError> {
        match self.policy.call_deadline {
            None => Ok(None),
            Some(d) => match d.checked_sub(started.elapsed()) {
                Some(rem) if !rem.is_zero() => Ok(Some(rem)),
                _ => Err(ServeError::Deadline {
                    deadline_ms: d.as_millis() as u64,
                }),
            },
        }
    }

    /// One wire round trip on the current connection. Any error leaves the
    /// connection dropped so the next attempt redials.
    fn round_trip(&mut self, req: &Request, started: Instant) -> Result<Response, ServeError> {
        if self.conn.is_none() {
            self.dial()?;
        }
        let result = (|| {
            let conn = self.conn.as_mut().expect("dialed above");
            proto::write_frame(conn, &req.encode(), DEFAULT_MAX_FRAME)?;
            loop {
                match proto::read_frame_stall_bounded(
                    conn,
                    DEFAULT_MAX_FRAME,
                    Some(self.policy.frame_stall),
                )? {
                    FrameEvent::Frame(payload) => return Ok(Response::decode(&payload)?),
                    FrameEvent::Eof => {
                        return Err(ServeError::Io(std::io::ErrorKind::ConnectionReset.into()))
                    }
                    FrameEvent::Idle => {
                        // Deadline check per poll tick while waiting.
                        if let Some(d) = self.policy.call_deadline {
                            if started.elapsed() >= d {
                                return Err(ServeError::Deadline {
                                    deadline_ms: d.as_millis() as u64,
                                });
                            }
                        }
                    }
                }
            }
        })();
        if result.is_err() {
            // Never reuse a stream in an unknown framing state.
            self.conn = None;
        }
        result
    }

    /// Run one simulation to completion: reconnect, back off (honoring the
    /// server's `Busy` hint), and re-issue through transport failures and
    /// server-side deadline rejections, within the attempt budget and the
    /// overall call deadline. Non-transient answers (`Draining`, typed
    /// `Error`s) fail immediately.
    pub fn simulate(
        &mut self,
        req: SimRequest,
    ) -> Result<(OutcomeSummary, ServedFrom), ServeError> {
        let started = Instant::now();
        let attempts = self.policy.max_attempts.max(1);
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                self.retries += 1;
            }
            let mut floor_ms = 0;
            match self.round_trip(&Request::Simulate(req), started) {
                Ok(Response::Outcome { summary, served }) => return Ok((*summary, served)),
                Ok(Response::Busy { retry_after_ms, .. }) => {
                    floor_ms = retry_after_ms as u64;
                    last = format!("busy (retry-after {retry_after_ms} ms)");
                }
                Ok(Response::DeadlineExceeded {
                    deadline_ms,
                    elapsed_ms,
                }) => {
                    // The server gave up on this attempt, but a concurrent
                    // identical request may still finish and populate the
                    // cache — re-issuing is cheap and safe.
                    last =
                        format!("server deadline {deadline_ms} ms exceeded after {elapsed_ms} ms");
                }
                // `Draining`, typed `Error`s and anything else non-transient
                // fail the call immediately: retrying cannot change them.
                Ok(other) => {
                    return Err(ServeError::UnexpectedResponse(format!(
                        "simulate answered with {other:?}"
                    )));
                }
                Err(e @ ServeError::Deadline { .. }) => return Err(e),
                Err(e) => last = e.to_string(),
            }
            if attempt + 1 == attempts {
                break; // No attempt follows, so nothing to back off for.
            }
            // Back off before the next attempt, never past the deadline.
            let mut pause = self.backoff(attempt, floor_ms);
            if let Some(rem) = self.remaining(started)? {
                pause = pause.min(rem);
            }
            std::thread::sleep(pause);
            self.remaining(started)?;
        }
        Err(ServeError::RetriesExhausted { attempts, last })
    }

    /// Liveness check: one round trip (dialing first if needed), no
    /// retries.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        let started = Instant::now();
        match self.round_trip(&Request::Ping, started)? {
            Response::Pong => Ok(()),
            other => Err(ServeError::UnexpectedResponse(format!(
                "ping answered with {other:?}"
            ))),
        }
    }

    /// Fetch the server's metrics snapshot (single attempt — metrics are
    /// cheap and callers poll anyway).
    pub fn metrics(&mut self) -> Result<warden_obs::MetricsRegistry, ServeError> {
        let started = Instant::now();
        match self.round_trip(&Request::Metrics, started)? {
            Response::Metrics(reg) => Ok(reg),
            other => Err(ServeError::UnexpectedResponse(format!(
                "metrics answered with {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{MachinePreset, MachineSpec};
    use warden_coherence::ProtocolId;
    use warden_pbbs::{Bench, Scale};

    fn client_with(policy: RetryPolicy) -> ResilientClient {
        // The endpoint is never dialed by the backoff tests.
        ResilientClient::tcp("127.0.0.1:1", policy).expect("valid policy")
    }

    #[test]
    fn backoff_stays_within_half_to_full_exponential() {
        let base = 10u64;
        let mut c = client_with(RetryPolicy {
            base_backoff: Duration::from_millis(base),
            seed: 0xFEED,
            ..RetryPolicy::default()
        });
        for attempt in 0..10u32 {
            let exp = (base << attempt.min(16)).min(500);
            let lo = exp - exp / 2;
            for _ in 0..100 {
                let b = c.backoff(attempt, 0).as_millis() as u64;
                assert!(
                    (lo..=exp).contains(&b),
                    "attempt {attempt}: backoff {b} ms outside [{lo}, {exp}]"
                );
            }
        }
    }

    #[test]
    fn backoff_schedule_is_deterministic_per_seed() {
        let policy = RetryPolicy {
            seed: 42,
            ..RetryPolicy::default()
        };
        let mut a = client_with(policy.clone());
        let mut b = client_with(policy);
        for attempt in 0..6 {
            assert_eq!(a.backoff(attempt, 0), b.backoff(attempt, 0));
        }
    }

    #[test]
    fn zero_base_backoff_still_sleeps_at_least_one_millisecond() {
        // Regression: `exp_ms` used to truncate to 0 for a zero or
        // sub-millisecond base, making every retry sleep 0 ms (a hot
        // spin). The clamp guarantees ≥1 ms before jittering.
        for base in [
            Duration::ZERO,
            Duration::from_micros(1),
            Duration::from_micros(900),
        ] {
            let mut c = client_with(RetryPolicy {
                base_backoff: base,
                max_backoff: Duration::from_millis(500),
                seed: 7,
                ..RetryPolicy::default()
            });
            for attempt in 0..8 {
                let b = c.backoff(attempt, 0);
                assert!(
                    b >= Duration::from_millis(1),
                    "base {base:?}, attempt {attempt}: backoff {b:?} is a hot spin"
                );
            }
        }
    }

    #[test]
    fn busy_hint_floors_the_backoff() {
        let mut c = client_with(RetryPolicy {
            base_backoff: Duration::from_millis(2),
            seed: 3,
            ..RetryPolicy::default()
        });
        for _ in 0..50 {
            assert!(c.backoff(0, 40) >= Duration::from_millis(40));
        }
    }

    #[test]
    fn nonsensical_policies_are_rejected_at_construction() {
        let cases = [
            RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            },
            RetryPolicy {
                base_backoff: Duration::from_millis(100),
                max_backoff: Duration::from_millis(10),
                ..RetryPolicy::default()
            },
            RetryPolicy {
                frame_stall: Duration::ZERO,
                ..RetryPolicy::default()
            },
            RetryPolicy {
                call_deadline: Some(Duration::ZERO),
                ..RetryPolicy::default()
            },
        ];
        for policy in cases {
            let err = ResilientClient::tcp("127.0.0.1:1", policy.clone())
                .err()
                .unwrap_or_else(|| panic!("policy {policy:?} must be rejected"));
            assert!(matches!(err, ServeError::Config(_)));
        }
        // A zero base is VALID (the backoff clamp handles it); only an
        // inconsistent max/base pair is not.
        assert!(RetryPolicy {
            base_backoff: Duration::ZERO,
            ..RetryPolicy::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn zero_base_retry_storm_takes_real_wall_time() {
        // A server that always answers Busy with no retry-after hint, the
        // worst case for the old bug: floor 0 + zero base = 0 ms sleeps,
        // i.e. the whole retry budget burned in a busy loop. With the
        // clamp, 6 attempts must spend ≥6 ms asleep.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::spawn(move || {
            if let Ok((mut stream, _)) = listener.accept() {
                loop {
                    match proto::read_frame(&mut stream, proto::DEFAULT_MAX_FRAME) {
                        Ok(FrameEvent::Frame(_)) => {
                            let busy = Response::Busy {
                                queue_len: 1,
                                queue_cap: 1,
                                retry_after_ms: 0,
                            };
                            if proto::write_frame(
                                &mut stream,
                                &busy.encode(),
                                proto::DEFAULT_MAX_FRAME,
                            )
                            .is_err()
                            {
                                return;
                            }
                        }
                        _ => return,
                    }
                }
            }
        });

        let attempts = 6u32;
        let mut client = ResilientClient::tcp(
            addr,
            RetryPolicy {
                max_attempts: attempts,
                base_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
                call_deadline: None,
                frame_stall: Duration::from_secs(2),
                seed: 5,
            },
        )
        .expect("valid policy");
        let req = SimRequest {
            bench: Bench::Fib,
            scale: Scale::Tiny,
            machine: MachineSpec::new(MachinePreset::DualSocket).with_cores(2),
            protocol: ProtocolId::Warden,
            check: false,
        };
        let started = Instant::now();
        let err = client.simulate(req).expect_err("server only says Busy");
        let elapsed = started.elapsed();
        assert!(matches!(err, ServeError::RetriesExhausted { .. }));
        // One ≥1 ms sleep between each pair of attempts; none after the
        // last.
        assert!(
            elapsed >= Duration::from_millis(attempts as u64 - 1),
            "retry storm completed in {elapsed:?} — backoff sleeps collapsed to zero"
        );
    }

    #[test]
    fn an_exhausted_call_does_not_sleep_after_its_last_attempt() {
        // Nobody listens on the port, so the single attempt fails at once.
        // Its 400 ms backoff would only delay the error: no retry follows.
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").port()
        };
        let mut client = ResilientClient::tcp(
            format!("127.0.0.1:{port}"),
            RetryPolicy {
                max_attempts: 1,
                base_backoff: Duration::from_millis(400),
                max_backoff: Duration::from_millis(400),
                ..RetryPolicy::default()
            },
        )
        .expect("valid policy");
        let req = SimRequest {
            bench: Bench::Fib,
            scale: Scale::Tiny,
            machine: MachineSpec::new(MachinePreset::DualSocket).with_cores(2),
            protocol: ProtocolId::Warden,
            check: false,
        };
        let started = Instant::now();
        let err = client.simulate(req).expect_err("nothing listens");
        let elapsed = started.elapsed();
        assert!(
            matches!(err, ServeError::RetriesExhausted { attempts: 1, .. }),
            "{err:?}"
        );
        assert!(
            elapsed < Duration::from_millis(150),
            "an exhausted call slept {elapsed:?} after its last attempt"
        );
    }
}
