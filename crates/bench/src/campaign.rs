//! The supervised benchmark campaign runner.
//!
//! The paper's evaluation sweeps benchmarks × protocols × machines; at
//! paper scale a single crash, panic or OOM used to lose the whole sweep
//! because nothing was persisted until a figure binary finished. This
//! module runs that matrix as a **campaign**: a queue of [`RunSpec`]s
//! executed by worker threads under a supervisor that
//!
//! * isolates panics with `catch_unwind` (one exploding run cannot take
//!   down the sweep),
//! * enforces a per-run wall-clock deadline via a watchdog thread that
//!   flags a cancellation token the run polls between step batches,
//! * retries failed runs with bounded exponential backoff — a run
//!   cancelled on deadline snapshots its engine first, so the retry
//!   *continues* from the checkpoint instead of starting over,
//! * persists every finished run as a checksummed record file and keeps a
//!   durable `manifest.json` of per-run status, both written atomically.
//!
//! # Crash safety and resume
//!
//! A campaign directory holds three kinds of state:
//!
//! ```text
//! <dir>/manifest.json      per-run status (derived, for humans and CI)
//! <dir>/records/<run>.rec  finished outcomes (framed + checksummed)
//! <dir>/ckpt/<run>/        mid-run engine checkpoints (two rotating slots)
//! ```
//!
//! The checksummed record files are the source of truth: on startup the
//! campaign re-validates each one (frame checksum **and** an embedded
//! fingerprint of the run's program/machine/protocol/options identity) and
//! only skips runs whose records verify. `manifest.json` is derived state,
//! rewritten atomically after every completion — a torn manifest can never
//! corrupt a resume, and a `kill -9` at any instant loses at most the runs
//! in flight, which themselves resume from their newest engine checkpoint.

use crate::error::{HarnessError, RunFailure};
use crate::runner::BenchRun;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use warden_coherence::ProtocolId;
use warden_pbbs::{Bench, Scale};
use warden_rt::TraceProgram;
use warden_sim::checkpoint::{self, options_fingerprint, CheckpointError, CheckpointStore};
use warden_sim::{Comparison, MachineConfig, SimEngine, SimOptions, SimOutcome};

use warden_mem::codec::{fnv1a64, Decoder, Encoder};

/// What one campaign run simulates: a PBBS benchmark at a scale, or an
/// arbitrary trace builder (the ablations' custom programs).
#[derive(Clone)]
pub struct Workload {
    token: String,
    builder: Builder,
}

#[derive(Clone)]
enum Builder {
    Bench(Bench, Scale),
    Custom(Arc<dyn Fn() -> TraceProgram + Send + Sync>),
}

impl Workload {
    /// A PBBS suite benchmark at the given scale.
    pub fn bench(bench: Bench, scale: Scale) -> Workload {
        Workload {
            token: format!("bench:{}:{scale:?}", bench.name()),
            builder: Builder::Bench(bench, scale),
        }
    }

    /// An arbitrary trace builder. The `token` names the workload in run
    /// identities — two customs with the same token are assumed to build
    /// the same program.
    pub fn custom(
        token: impl Into<String>,
        build: impl Fn() -> TraceProgram + Send + Sync + 'static,
    ) -> Workload {
        Workload {
            token: format!("custom:{}", token.into()),
            builder: Builder::Custom(Arc::new(build)),
        }
    }

    /// The workload's identity token as embedded in run fingerprints
    /// (`bench:<name>:<scale>` or `custom:<token>`).
    pub fn token(&self) -> &str {
        &self.token
    }

    /// Build the trace program (potentially expensive).
    pub fn build(&self) -> TraceProgram {
        match &self.builder {
            Builder::Bench(b, scale) => b.build(*scale),
            Builder::Custom(f) => f(),
        }
    }
}

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Workload").field(&self.token).finish()
    }
}

/// One cell of the campaign matrix: a workload on a machine under a
/// protocol with simulator options.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Unique id within the campaign (also names the record file).
    pub id: String,
    /// What to simulate.
    pub workload: Workload,
    /// The machine description.
    pub machine: MachineConfig,
    /// The coherence protocol.
    pub protocol: ProtocolId,
    /// Simulator options (energy model, checker, fault plan).
    pub opts: SimOptions,
}

fn protocol_name(p: ProtocolId) -> &'static str {
    p.name()
}

impl RunSpec {
    /// Fingerprint binding a result record to this spec's identity: the id,
    /// workload token, machine fingerprint, protocol and options
    /// fingerprint. A record whose fingerprint differs is ignored on
    /// resume, so changing any input re-runs the cell.
    pub fn fingerprint(&self) -> u64 {
        let mut enc = Encoder::new();
        enc.put_str(&self.id);
        enc.put_str(&self.workload.token);
        enc.put_u64(self.machine.fingerprint());
        enc.put_str(protocol_name(self.protocol));
        enc.put_u64(options_fingerprint(&self.opts));
        fnv1a64(enc.bytes())
    }

    /// Filesystem-safe name derived from the id.
    fn slug(&self) -> String {
        self.id
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '-'
                }
            })
            .collect()
    }
}

/// Supervisor policy for one campaign invocation.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Campaign state directory (manifest, records, checkpoints).
    pub dir: PathBuf,
    /// Worker threads executing runs.
    pub workers: usize,
    /// Per-run wall-clock deadline enforced by the watchdog.
    pub deadline: Duration,
    /// Retries per run beyond the first attempt.
    pub retries: u32,
    /// Base backoff between attempts (doubled each retry, capped).
    pub backoff: Duration,
    /// Engine steps between mid-run checkpoints (the cancellation token is
    /// polled on the same cadence).
    pub checkpoint_every_steps: u64,
    /// Suppress progress lines on stderr.
    pub quiet: bool,
    /// Test hook: panic the first N attempts of every run (chaos monkey).
    #[doc(hidden)]
    pub chaos_panic_attempts: u32,
    /// Test hook: stop the supervisor after this many completions in this
    /// invocation, leaving the rest queued (simulates a mid-campaign kill).
    #[doc(hidden)]
    pub abort_after_runs: Option<usize>,
}

impl CampaignConfig {
    /// A durable campaign rooted at `dir`, with default supervision policy:
    /// up to 4 workers, a 24 h per-run deadline, 2 retries with 50 ms base
    /// backoff, and a checkpoint every 2 M engine steps.
    pub fn new(dir: impl Into<PathBuf>) -> CampaignConfig {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().min(4))
            .unwrap_or(1);
        CampaignConfig {
            dir: dir.into(),
            workers,
            deadline: Duration::from_secs(24 * 3600),
            retries: 2,
            backoff: Duration::from_millis(50),
            checkpoint_every_steps: 2_000_000,
            quiet: false,
            chaos_panic_attempts: 0,
            abort_after_runs: None,
        }
    }

    /// A campaign in a fresh directory under the system temp dir, named
    /// `warden-campaign-<pid>-<n>` and claimed with an exclusive
    /// `create_dir` (a name that already exists is skipped, never wiped),
    /// so stale state never carries over and concurrent ephemeral
    /// campaigns in one process never share a directory. Used when no
    /// `--campaign-dir` is given: the binaries still get supervision
    /// (isolation, deadlines, retries) without durable resume. If the
    /// directory cannot be created, [`run_campaign`] reports the I/O error.
    pub fn ephemeral() -> CampaignConfig {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("warden-campaign-{}-{n}", std::process::id()));
            match fs::create_dir(&dir) {
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                _ => return CampaignConfig::new(dir),
            }
        }
    }
}

/// One finished run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The spec's id.
    pub id: String,
    /// The simulation outcome.
    pub outcome: SimOutcome,
    /// Attempts made in this invocation (0 when `reused`).
    pub attempts: u32,
    /// True when the outcome was loaded from a prior invocation's record
    /// instead of being simulated again.
    pub reused: bool,
}

// ---------------------------------------------------------------------------
// Durable result records.

fn encode_record(fingerprint: u64, id: &str, out: &SimOutcome) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u64(fingerprint);
    enc.put_str(id);
    enc.put_bytes(&checkpoint::encode_outcome(out));
    checkpoint::frame(enc.bytes())
}

fn decode_record(bytes: &[u8], fingerprint: u64, id: &str) -> Option<SimOutcome> {
    let payload = checkpoint::unframe(bytes).ok()?;
    let mut dec = Decoder::new(payload);
    if dec.take_u64().ok()? != fingerprint || dec.take_str().ok()? != id {
        return None;
    }
    let inner = dec.take_bytes().ok()?.to_vec();
    dec.finish().ok()?;
    checkpoint::decode_outcome(&inner).ok()
}

// ---------------------------------------------------------------------------
// The manifest.

#[derive(Clone)]
struct ManifestEntry {
    status: &'static str,
    attempts: u32,
    record: String,
    note: String,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn render_manifest(entries: &BTreeMap<String, ManifestEntry>) -> String {
    let mut s = String::from("{\n  \"version\": 1,\n  \"runs\": [\n");
    let last = entries.len().saturating_sub(1);
    for (i, (id, e)) in entries.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"id\": {}, \"status\": \"{}\", \"attempts\": {}, \"record\": {}, \
             \"note\": {}}}{}\n",
            json_str(id),
            e.status,
            e.attempts,
            json_str(&e.record),
            json_str(&e.note),
            if i == last { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

// ---------------------------------------------------------------------------
// The supervisor.

struct WatchEntry {
    deadline: Instant,
    cancel: Arc<AtomicBool>,
}

struct Shared<'a> {
    specs: &'a [RunSpec],
    cfg: &'a CampaignConfig,
    records_dir: PathBuf,
    queue: Mutex<VecDeque<usize>>,
    slots: Mutex<Vec<Option<RunResult>>>,
    manifest: Mutex<BTreeMap<String, ManifestEntry>>,
    watch: Mutex<Vec<WatchEntry>>,
    failures: Mutex<Vec<RunFailure>>,
    completed: AtomicUsize,
    aborted: AtomicBool,
    stop_watchdog: AtomicBool,
}

impl Shared<'_> {
    fn write_manifest(&self) {
        let rendered = {
            let entries = self.manifest.lock().expect("manifest lock");
            render_manifest(&entries)
        };
        // Manifest persistence is best-effort derived state; the record
        // files are authoritative, so a failed write must not fail the run
        // that just completed.
        if let Err(e) =
            checkpoint::write_atomic(&self.cfg.dir.join("manifest.json"), rendered.as_bytes())
        {
            if !self.cfg.quiet {
                eprintln!("  [warn] cannot write manifest: {e}");
            }
        }
    }

    fn set_status(&self, id: &str, status: &'static str, attempts: u32, note: String) {
        if let Some(e) = self.manifest.lock().expect("manifest lock").get_mut(id) {
            e.status = status;
            e.attempts = attempts;
            e.note = note;
        }
        self.write_manifest();
    }
}

enum ExecError {
    Deadline,
    Checkpoint(CheckpointError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Deadline => write!(f, "deadline exceeded (progress checkpointed)"),
            ExecError::Checkpoint(e) => write!(f, "checkpoint failure: {e}"),
        }
    }
}

/// Simulate one spec to completion, checkpointing every
/// `checkpoint_every_steps` and polling the cancellation token on the same
/// cadence. Resumes from the newest verifiable checkpoint in `store`; an
/// unreadable or identity-mismatched checkpoint falls back to a fresh start
/// (the safe choice — the engine replays deterministically).
fn execute(
    spec: &RunSpec,
    store: &CheckpointStore,
    every: u64,
    cancel: &AtomicBool,
    chaos_panic: bool,
    quiet: bool,
) -> Result<SimOutcome, ExecError> {
    if chaos_panic {
        panic!("chaos monkey: injected panic (test hook)");
    }
    let program = spec.workload.build();
    let mut eng =
        match SimEngine::try_resume(&program, &spec.machine, spec.protocol, &spec.opts, store) {
            Ok(Some(eng)) => {
                if !quiet {
                    eprintln!("  [resume] {} from step {}", spec.id, eng.steps());
                }
                eng
            }
            Ok(None) => SimEngine::new(&program, &spec.machine, spec.protocol, &spec.opts),
            Err(e) => {
                if !quiet {
                    eprintln!("  [warn] {}: discarding unusable checkpoint ({e})", spec.id);
                }
                SimEngine::new(&program, &spec.machine, spec.protocol, &spec.opts)
            }
        };
    let every = every.max(1);
    loop {
        let mut running = true;
        for _ in 0..every {
            if !eng.step() {
                running = false;
                break;
            }
        }
        if !running {
            break;
        }
        if cancel.load(Ordering::Relaxed) {
            // Persist progress so the retry continues instead of restarting.
            let _ = eng.try_snapshot(store);
            return Err(ExecError::Deadline);
        }
        eng.try_snapshot(store).map_err(ExecError::Checkpoint)?;
    }
    let out = eng.finish();
    let _ = store.clear();
    Ok(out)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn run_one(sh: &Shared<'_>, spec: &RunSpec) -> Result<(SimOutcome, u32), RunFailure> {
    let ckpt_dir = sh.cfg.dir.join("ckpt").join(spec.slug());
    let store = CheckpointStore::new(&ckpt_dir).map_err(|e| RunFailure {
        id: spec.id.clone(),
        attempts: 0,
        reason: format!("cannot open checkpoint store: {e}"),
    })?;
    let attempts = sh.cfg.retries + 1;
    for attempt in 1..=attempts {
        let chaos = attempt <= sh.cfg.chaos_panic_attempts;
        let cancel = Arc::new(AtomicBool::new(false));
        sh.watch.lock().expect("watch lock").push(WatchEntry {
            deadline: Instant::now() + sh.cfg.deadline,
            cancel: Arc::clone(&cancel),
        });
        let result = catch_unwind(AssertUnwindSafe(|| {
            execute(
                spec,
                &store,
                sh.cfg.checkpoint_every_steps,
                &cancel,
                chaos,
                sh.cfg.quiet,
            )
        }));
        sh.watch
            .lock()
            .expect("watch lock")
            .retain(|e| !Arc::ptr_eq(&e.cancel, &cancel));
        let reason = match result {
            Ok(Ok(out)) => return Ok((out, attempt)),
            Ok(Err(e)) => e.to_string(),
            Err(payload) => format!("panicked: {}", panic_message(payload.as_ref())),
        };
        if attempt < attempts {
            if !sh.cfg.quiet {
                eprintln!(
                    "  [retry] {} attempt {attempt}/{attempts} failed: {reason}",
                    spec.id
                );
            }
            let shift = (attempt - 1).min(6);
            std::thread::sleep(sh.cfg.backoff * (1u32 << shift));
        } else {
            return Err(RunFailure {
                id: spec.id.clone(),
                attempts,
                reason,
            });
        }
    }
    unreachable!("the retry loop always returns")
}

fn worker(sh: &Shared<'_>) {
    loop {
        if sh.aborted.load(Ordering::Relaxed) {
            break;
        }
        if let Some(limit) = sh.cfg.abort_after_runs {
            if sh.completed.load(Ordering::Relaxed) >= limit {
                sh.aborted.store(true, Ordering::Relaxed);
                break;
            }
        }
        let next = sh.queue.lock().expect("queue lock").pop_front();
        let Some(i) = next else { break };
        let spec = &sh.specs[i];
        match run_one(sh, spec) {
            Ok((outcome, attempts)) => {
                let rec_path = sh.records_dir.join(format!("{}.rec", spec.slug()));
                let bytes = encode_record(spec.fingerprint(), &spec.id, &outcome);
                if let Err(e) = checkpoint::write_atomic(&rec_path, &bytes) {
                    // Without a durable record the result would silently
                    // vanish on resume; treat persist failure as run failure.
                    let fail = RunFailure {
                        id: spec.id.clone(),
                        attempts,
                        reason: format!("cannot persist result record: {e}"),
                    };
                    sh.set_status(&spec.id, "failed", attempts, fail.reason.clone());
                    sh.failures.lock().expect("failures lock").push(fail);
                    continue;
                }
                sh.slots.lock().expect("slots lock")[i] = Some(RunResult {
                    id: spec.id.clone(),
                    outcome,
                    attempts,
                    reused: false,
                });
                sh.set_status(&spec.id, "done", attempts, String::new());
                sh.completed.fetch_add(1, Ordering::Relaxed);
                if !sh.cfg.quiet {
                    eprintln!("  [done] {} (attempt {attempts})", spec.id);
                }
            }
            Err(fail) => {
                if !sh.cfg.quiet {
                    eprintln!("  [fail] {fail}");
                }
                sh.set_status(&spec.id, "failed", fail.attempts, fail.reason.clone());
                sh.failures.lock().expect("failures lock").push(fail);
            }
        }
    }
}

/// Run a campaign over `specs`, resuming from any completed work already
/// recorded under the campaign directory. Results come back in spec order.
///
/// # Errors
///
/// [`HarnessError::RunsFailed`] when any run exhausted its retries,
/// [`HarnessError::Aborted`] when the `abort_after_runs` test hook stopped
/// the supervisor early, and I/O / checkpoint errors for an unusable
/// campaign directory. Completed runs stay durable across all of these —
/// re-invoking resumes from them.
pub fn run_campaign(
    specs: &[RunSpec],
    cfg: &CampaignConfig,
) -> Result<Vec<RunResult>, HarnessError> {
    {
        let mut seen = std::collections::HashSet::new();
        for s in specs {
            if !seen.insert(&s.id) {
                return Err(HarnessError::Failed(format!(
                    "duplicate campaign run id {:?}",
                    s.id
                )));
            }
        }
    }
    let records_dir = cfg.dir.join("records");
    fs::create_dir_all(&records_dir).map_err(|e| HarnessError::Io {
        path: records_dir.clone(),
        source: e,
    })?;

    let mut slots: Vec<Option<RunResult>> = Vec::with_capacity(specs.len());
    let mut manifest = BTreeMap::new();
    let mut todo = VecDeque::new();
    for (i, spec) in specs.iter().enumerate() {
        let rec_name = format!("{}.rec", spec.slug());
        let reused = fs::read(records_dir.join(&rec_name))
            .ok()
            .and_then(|bytes| decode_record(&bytes, spec.fingerprint(), &spec.id));
        let status = if reused.is_some() { "done" } else { "pending" };
        manifest.insert(
            spec.id.clone(),
            ManifestEntry {
                status,
                attempts: 0,
                record: format!("records/{rec_name}"),
                note: String::new(),
            },
        );
        match reused {
            Some(outcome) => slots.push(Some(RunResult {
                id: spec.id.clone(),
                outcome,
                attempts: 0,
                reused: true,
            })),
            None => {
                slots.push(None);
                todo.push_back(i);
            }
        }
    }
    let reused_count = specs.len() - todo.len();
    if !cfg.quiet {
        eprintln!(
            "campaign: {} run(s), {} reused from records, {} to execute ({} worker(s))",
            specs.len(),
            reused_count,
            todo.len(),
            cfg.workers.max(1)
        );
    }

    let sh = Shared {
        specs,
        cfg,
        records_dir,
        queue: Mutex::new(todo),
        slots: Mutex::new(slots),
        manifest: Mutex::new(manifest),
        watch: Mutex::new(Vec::new()),
        failures: Mutex::new(Vec::new()),
        completed: AtomicUsize::new(0),
        aborted: AtomicBool::new(false),
        stop_watchdog: AtomicBool::new(false),
    };
    sh.write_manifest();

    if !sh.queue.lock().expect("queue lock").is_empty() {
        std::thread::scope(|scope| {
            let watchdog = scope.spawn(|| {
                while !sh.stop_watchdog.load(Ordering::Relaxed) {
                    let now = Instant::now();
                    for entry in sh.watch.lock().expect("watch lock").iter() {
                        if now >= entry.deadline {
                            entry.cancel.store(true, Ordering::Relaxed);
                        }
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
            let workers: Vec<_> = (0..cfg.workers.max(1))
                .map(|_| scope.spawn(|| worker(&sh)))
                .collect();
            for handle in workers {
                if handle.join().is_err() {
                    // Workers isolate run panics internally; a panic here is
                    // a supervisor bug — surface it as a campaign failure.
                    sh.failures.lock().expect("failures lock").push(RunFailure {
                        id: "(supervisor)".into(),
                        attempts: 1,
                        reason: "worker thread panicked outside run isolation".into(),
                    });
                }
            }
            sh.stop_watchdog.store(true, Ordering::Relaxed);
            let _ = watchdog.join();
        });
    }

    let failures = sh.failures.into_inner().expect("failures lock");
    if !failures.is_empty() {
        return Err(HarnessError::RunsFailed(failures));
    }
    if sh.aborted.load(Ordering::Relaxed) {
        return Err(HarnessError::Aborted {
            completed: sh.completed.load(Ordering::Relaxed),
        });
    }
    let slots = sh.slots.into_inner().expect("slots lock");
    let mut out = Vec::with_capacity(specs.len());
    for (spec, slot) in specs.iter().zip(slots) {
        match slot {
            Some(r) => out.push(r),
            None => {
                return Err(HarnessError::Failed(format!(
                    "campaign ended without a result for {:?}",
                    spec.id
                )))
            }
        }
    }
    Ok(out)
}

/// Run `benches` × {MESI, WARDen} on `machine` through the campaign and
/// pair the outcomes into [`BenchRun`]s, verifying that both protocols
/// produced the same final memory image (a disagreement is a typed
/// [`HarnessError::ImageMismatch`], not a panic).
pub fn campaign_suite(
    benches: &[Bench],
    scale: Scale,
    machine: &MachineConfig,
    opts: &SimOptions,
    cfg: &CampaignConfig,
) -> Result<Vec<BenchRun>, HarnessError> {
    let runs = protocol_campaign(
        benches,
        scale,
        machine,
        &[ProtocolId::Mesi, ProtocolId::Warden],
        opts,
        cfg,
    )?;
    Ok(runs
        .into_iter()
        .map(|r| {
            let [mesi, warden]: [SimOutcome; 2] =
                r.outcomes.try_into().expect("two protocols requested");
            let cmp = Comparison::of(r.bench.name(), &mesi, &warden);
            BenchRun {
                bench: r.bench,
                mesi,
                warden,
                cmp,
            }
        })
        .collect())
}

/// One benchmark's outcomes across a protocol list (parallel to the
/// `protocols` argument of [`protocol_campaign`]). All outcomes agree on
/// the final memory image — the campaign verified it.
#[derive(Clone, Debug)]
pub struct ProtocolRun {
    /// The benchmark.
    pub bench: Bench,
    /// One outcome per requested protocol, in request order.
    pub outcomes: Vec<SimOutcome>,
}

/// Run `benches` × `protocols` on `machine` through the campaign. Every
/// protocol must produce the same final memory image as the first one
/// requested (the reference); a disagreement is a typed error naming the
/// benchmark and the diverging protocol, not a panic. When the invariant
/// checker is on ([`SimOptions::check`]), any reported violation also
/// fails the campaign.
pub fn protocol_campaign(
    benches: &[Bench],
    scale: Scale,
    machine: &MachineConfig,
    protocols: &[ProtocolId],
    opts: &SimOptions,
    cfg: &CampaignConfig,
) -> Result<Vec<ProtocolRun>, HarnessError> {
    assert!(!protocols.is_empty(), "protocol list must be non-empty");
    let scale_token = format!("{scale:?}").to_lowercase();
    let mut specs = Vec::with_capacity(benches.len() * protocols.len());
    for &bench in benches {
        for &protocol in protocols {
            specs.push(RunSpec {
                id: format!(
                    "{}/{scale_token}/{}/{}",
                    machine.name,
                    bench.name(),
                    protocol_name(protocol)
                ),
                workload: Workload::bench(bench, scale),
                machine: machine.clone(),
                protocol,
                opts: opts.clone(),
            });
        }
    }
    let results = run_campaign(&specs, cfg)?;
    let mut runs = Vec::with_capacity(benches.len());
    for (i, &bench) in benches.iter().enumerate() {
        let outcomes: Vec<SimOutcome> = results[i * protocols.len()..(i + 1) * protocols.len()]
            .iter()
            .map(|r| r.outcome.clone())
            .collect();
        let reference = outcomes[0].memory_image_digest;
        for (o, &p) in outcomes.iter().zip(protocols) {
            if o.memory_image_digest != reference {
                return Err(HarnessError::Failed(format!(
                    "{}: protocol {} diverged from {} on the final memory image                      ({:#018x} vs {:#018x})",
                    bench.name(),
                    protocol_name(p),
                    protocol_name(protocols[0]),
                    o.memory_image_digest,
                    reference,
                )));
            }
            if !o.violations.is_empty() {
                return Err(HarnessError::Failed(format!(
                    "{}: protocol {} reported {} invariant violation(s); first: {}",
                    bench.name(),
                    protocol_name(p),
                    o.violations.len(),
                    o.violations[0],
                )));
            }
        }
        runs.push(ProtocolRun { bench, outcomes });
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip_binds_identity() {
        let spec = RunSpec {
            id: "t/x".into(),
            workload: Workload::bench(Bench::MakeArray, Scale::Tiny),
            machine: MachineConfig::dual_socket().with_cores(2),
            protocol: ProtocolId::Warden,
            opts: SimOptions::default(),
        };
        let program = spec.workload.build();
        let out = warden_sim::simulate(&program, &spec.machine, spec.protocol);
        let bytes = encode_record(spec.fingerprint(), &spec.id, &out);
        let back = decode_record(&bytes, spec.fingerprint(), &spec.id).expect("verifies");
        assert_eq!(back.stats, out.stats);
        assert_eq!(back.memory_image_digest, out.memory_image_digest);
        // Wrong identity or id: the record is ignored, never misattributed.
        assert!(decode_record(&bytes, spec.fingerprint() ^ 1, &spec.id).is_none());
        assert!(decode_record(&bytes, spec.fingerprint(), "t/y").is_none());
        // Every strict prefix is rejected by the frame.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_record(&bytes[..cut], spec.fingerprint(), &spec.id).is_none());
        }
    }

    #[test]
    fn fingerprints_separate_matrix_cells() {
        let base = RunSpec {
            id: "cell".into(),
            workload: Workload::bench(Bench::MakeArray, Scale::Tiny),
            machine: MachineConfig::dual_socket().with_cores(2),
            protocol: ProtocolId::Mesi,
            opts: SimOptions::default(),
        };
        let mut other = base.clone();
        other.protocol = ProtocolId::Warden;
        assert_ne!(base.fingerprint(), other.fingerprint());
        let mut other = base.clone();
        other.workload = Workload::bench(Bench::MakeArray, Scale::Paper);
        assert_ne!(base.fingerprint(), other.fingerprint());
        let mut other = base.clone();
        other.machine = MachineConfig::single_socket();
        assert_ne!(base.fingerprint(), other.fingerprint());
        let mut other = base.clone();
        other.opts.check = true;
        assert_ne!(base.fingerprint(), other.fingerprint());
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
    }

    #[test]
    fn manifest_renders_escaped_json() {
        let mut entries = BTreeMap::new();
        entries.insert(
            "a\"b".to_string(),
            ManifestEntry {
                status: "done",
                attempts: 2,
                record: "records/a-b.rec".into(),
                note: "line\nbreak".into(),
            },
        );
        let s = render_manifest(&entries);
        assert!(s.contains(r#""id": "a\"b""#), "{s}");
        assert!(s.contains(r#""status": "done""#));
        assert!(s.contains(r#""note": "line\nbreak""#));
        assert!(s.ends_with("  ]\n}\n"));
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let spec = RunSpec {
            id: "dup".into(),
            workload: Workload::bench(Bench::MakeArray, Scale::Tiny),
            machine: MachineConfig::dual_socket().with_cores(2),
            protocol: ProtocolId::Mesi,
            opts: SimOptions::default(),
        };
        let cfg = CampaignConfig::ephemeral();
        let err = run_campaign(&[spec.clone(), spec], &cfg).unwrap_err();
        assert!(matches!(err, HarnessError::Failed(_)));
    }

    /// Ephemeral campaigns running at once in one process each get their
    /// own directory, so none deletes another's records mid-run.
    #[test]
    fn concurrent_ephemeral_campaigns_all_succeed() {
        let specs: Vec<RunSpec> = [Bench::MakeArray, Bench::Primes, Bench::Fib]
            .into_iter()
            .flat_map(|bench| {
                [ProtocolId::Mesi, ProtocolId::Warden].map(|protocol| RunSpec {
                    id: format!("{}-{}", bench.name(), protocol.name()),
                    workload: Workload::bench(bench, Scale::Tiny),
                    machine: MachineConfig::dual_socket().with_cores(2),
                    protocol,
                    opts: SimOptions::default(),
                })
            })
            .collect();
        let dirs: Vec<PathBuf> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    s.spawn(|| {
                        let cfg = CampaignConfig {
                            quiet: true,
                            workers: 1,
                            ..CampaignConfig::ephemeral()
                        };
                        let results = run_campaign(&specs, &cfg).expect("campaign succeeds");
                        assert_eq!(results.len(), specs.len());
                        assert!(results.iter().all(|r| !r.reused), "fresh directory");
                        cfg.dir
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let unique: std::collections::HashSet<_> = dirs.iter().collect();
        assert_eq!(
            unique.len(),
            dirs.len(),
            "every campaign owns its directory"
        );
        for dir in &dirs {
            let _ = fs::remove_dir_all(dir);
        }
    }
}
