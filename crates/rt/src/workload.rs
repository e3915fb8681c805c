//! Seeded synthetic sharing-pattern workloads — the differential fuzz
//! lab's trace generator.
//!
//! The paper evaluates WARDen on a fixed 14-benchmark suite; this module
//! generates *adversarial* fork-join programs that sweep the sharing-pattern
//! space the benchmarks only sample: ping-pong, producer-consumer, false
//! sharing, read-mostly, WAW-heavy WARD-friendly and WARD-hostile shapes,
//! and migratory data. Every generated program
//!
//! * is **data-race-free by construction** under its declared pattern —
//!   concurrent tasks touch disjoint bytes (or race only with same-value
//!   WAW writes inside a declared [`TaskCtx::ward_scope`]), and all
//!   cross-round sharing is ordered by fork-join barriers. Generation runs
//!   under the runtime's strict disentanglement and scope checkers, so a
//!   discipline bug in a pattern body panics at generation time rather than
//!   producing an invalid trace;
//! * is **deterministic**: a [`WorkloadSpec`] is a pure function of its
//!   seed and knobs (all randomness flows from a splitmix64 stream), so two
//!   builds of the same spec are event-identical and the spec's
//!   [`WorkloadSpec::token`] is a complete replayable reproducer;
//! * flows through the standard [`TraceProgram`] representation and the
//!   `trace_io` codec, so every downstream layer — simulator, invariant
//!   checker, observability, serving, campaigns — consumes
//!   generated workloads exactly like hand-written benchmarks.
//!
//! [`WorkloadGen`] is the seeded stream of specs the fuzz gate draws from;
//! a single [`WorkloadSpec`] can also be parsed back from an archived
//! failure token with [`WorkloadSpec::from_token`].

use crate::{trace_program, RtOptions, TaskCtx, TraceProgram};
use std::fmt;

/// Generation failed or a spec/tokens was malformed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkloadGenError {
    /// A knob is outside its supported range.
    BadKnob(String),
    /// A sharing-pattern name not in [`SharingPattern::ALL`].
    UnknownPattern(String),
    /// A replay token that does not parse back into a spec.
    BadToken {
        /// The offending token.
        token: String,
        /// What failed to parse.
        why: String,
    },
}

impl fmt::Display for WorkloadGenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadGenError::BadKnob(msg) => write!(f, "invalid workload knob: {msg}"),
            WorkloadGenError::UnknownPattern(name) => {
                let names: Vec<&str> = SharingPattern::ALL.iter().map(|p| p.name()).collect();
                write!(
                    f,
                    "unknown sharing pattern {name:?}; known patterns: {}",
                    names.join(", ")
                )
            }
            WorkloadGenError::BadToken { token, why } => {
                write!(f, "malformed workload token {token:?}: {why}")
            }
        }
    }
}

impl std::error::Error for WorkloadGenError {}

/// The synthetic sharing patterns the generator can emit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SharingPattern {
    /// One rotating writer per round updates a hot double-buffered pair of
    /// cache blocks that every task reads the following round — the classic
    /// true-sharing latency stress (paper Table 1).
    PingPong,
    /// Task pairs: even tasks produce into per-pair segments, odd tasks
    /// consume the segment their producer filled the previous round.
    ProducerConsumer,
    /// Concurrent tasks write *distinct words of the same cache blocks* —
    /// no data race, maximal coherence traffic. The written area is a
    /// declared WARD region, so WARD-style protocols may keep it incoherent.
    FalseSharing,
    /// A shared table read at random by every task, with one private result
    /// slot written per task — the read-scaling best case, declared (and
    /// dynamically verified) DRF.
    ReadMostly,
    /// WAW-heavy and WARD-friendly: tasks race same-value writes across a
    /// large declared WARD region with few sync points, the §2.3 benign-WAW
    /// shape that DRF-based designs must forbid.
    WawFriendly,
    /// WAW-heavy and WARD-hostile: a fresh tiny region is declared, raced
    /// over and reconciled every round, so region add/remove and
    /// reconciliation costs dominate the little useful work.
    WawHostile,
    /// A data chunk read-modify-written by a single rotating owner per
    /// round while the other tasks do private work — migratory sharing.
    Migratory,
}

impl SharingPattern {
    /// Every pattern, in the canonical order used by sweeps and atlases.
    pub const ALL: [SharingPattern; 7] = [
        SharingPattern::PingPong,
        SharingPattern::ProducerConsumer,
        SharingPattern::FalseSharing,
        SharingPattern::ReadMostly,
        SharingPattern::WawFriendly,
        SharingPattern::WawHostile,
        SharingPattern::Migratory,
    ];

    /// Stable registry name (also the token prefix).
    pub fn name(&self) -> &'static str {
        match self {
            SharingPattern::PingPong => "ping-pong",
            SharingPattern::ProducerConsumer => "producer-consumer",
            SharingPattern::FalseSharing => "false-sharing",
            SharingPattern::ReadMostly => "read-mostly",
            SharingPattern::WawFriendly => "waw-friendly",
            SharingPattern::WawHostile => "waw-hostile",
            SharingPattern::Migratory => "migratory",
        }
    }

    /// Resolve a registry name back to the pattern.
    pub fn from_name(name: &str) -> Result<SharingPattern, WorkloadGenError> {
        SharingPattern::ALL
            .into_iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| WorkloadGenError::UnknownPattern(name.to_string()))
    }
}

impl fmt::Display for SharingPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Knob bounds enforced by [`WorkloadSpec::validate`].
mod bounds {
    /// Parallel leaf tasks per round (the "core count" knob).
    pub const TASKS: std::ops::RangeInclusive<u32> = 2..=64;
    /// Fork-join rounds.
    pub const ROUNDS: std::ops::RangeInclusive<u32> = 1..=256;
    /// Memory operations per task per round.
    pub const OPS: std::ops::RangeInclusive<u32> = 1..=4096;
    /// Shared working-set bytes.
    pub const FOOTPRINT: std::ops::RangeInclusive<u64> = 512..=1 << 20;
}

/// One fully specified synthetic workload: a pattern plus the seed and size
/// knobs. The spec is `Copy` and tiny; [`WorkloadSpec::build`] materializes
/// the actual trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WorkloadSpec {
    /// The sharing pattern.
    pub pattern: SharingPattern,
    /// Seed for every random choice the pattern body makes.
    pub seed: u64,
    /// Parallel leaf tasks per fork-join round (2..=64).
    pub tasks: u32,
    /// Fork-join rounds (1..=256).
    pub rounds: u32,
    /// Memory operations per task per round (1..=4096).
    pub ops: u32,
    /// Shared working-set size in bytes (512..=1 MiB); patterns round it
    /// to whole slots and clamp where a shape needs a minimum (e.g. a
    /// declared region must contain a whole page).
    pub footprint: u64,
}

impl WorkloadSpec {
    /// A small, valid default spec for `pattern` derived from `seed`.
    pub fn new(pattern: SharingPattern, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            pattern,
            seed,
            tasks: 4,
            rounds: 3,
            ops: 24,
            footprint: 4096,
        }
    }

    /// Check every knob against its supported range.
    pub fn validate(&self) -> Result<(), WorkloadGenError> {
        let bad = |msg: String| Err(WorkloadGenError::BadKnob(msg));
        if !bounds::TASKS.contains(&self.tasks) {
            return bad(format!(
                "tasks = {} outside {:?}",
                self.tasks,
                bounds::TASKS
            ));
        }
        if !bounds::ROUNDS.contains(&self.rounds) {
            return bad(format!(
                "rounds = {} outside {:?}",
                self.rounds,
                bounds::ROUNDS
            ));
        }
        if !bounds::OPS.contains(&self.ops) {
            return bad(format!("ops = {} outside {:?}", self.ops, bounds::OPS));
        }
        if !bounds::FOOTPRINT.contains(&self.footprint) {
            return bad(format!(
                "footprint = {} outside {:?}",
                self.footprint,
                bounds::FOOTPRINT
            ));
        }
        Ok(())
    }

    /// The complete replayable identity of this spec: pattern name, seed
    /// and every knob. Filesystem-safe; parses back with
    /// [`WorkloadSpec::from_token`].
    pub fn token(&self) -> String {
        format!(
            "{}-s{:016x}-t{}-r{}-o{}-f{}",
            self.pattern.name(),
            self.seed,
            self.tasks,
            self.rounds,
            self.ops,
            self.footprint
        )
    }

    /// Parse a [`WorkloadSpec::token`] back into a (validated) spec —
    /// how an archived failing seed is replayed.
    pub fn from_token(token: &str) -> Result<WorkloadSpec, WorkloadGenError> {
        let bad = |why: &str| WorkloadGenError::BadToken {
            token: token.to_string(),
            why: why.to_string(),
        };
        // Pattern names contain '-', so peel the five knob segments off the
        // right; whatever remains is the pattern name.
        let parts: Vec<&str> = token.rsplitn(6, '-').collect();
        if parts.len() != 6 {
            return Err(bad("expected <pattern>-s<seed>-t<n>-r<n>-o<n>-f<n>"));
        }
        let seg = |part: &str, prefix: char| -> Result<String, WorkloadGenError> {
            part.strip_prefix(prefix)
                .map(str::to_string)
                .ok_or_else(|| bad(&format!("segment {part:?} should start with {prefix:?}")))
        };
        let pattern = SharingPattern::from_name(parts[5])?;
        let seed = u64::from_str_radix(&seg(parts[4], 's')?, 16)
            .map_err(|_| bad("seed is not a 64-bit hex number"))?;
        let num = |part: &str, prefix: char| -> Result<u64, WorkloadGenError> {
            seg(part, prefix)?
                .parse()
                .map_err(|_| bad(&format!("{prefix} knob is not a number")))
        };
        let spec = WorkloadSpec {
            pattern,
            seed,
            tasks: num(parts[3], 't')? as u32,
            rounds: num(parts[2], 'r')? as u32,
            ops: num(parts[1], 'o')? as u32,
            footprint: num(parts[0], 'f')?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Materialize the trace: run the pattern body through the runtime
    /// under strict checking (default [`RtOptions`]), so the generated
    /// program is proven disentangled — and scope-disciplined — at build
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`WorkloadSpec::validate`] (a spec from
    /// [`WorkloadGen`] or [`WorkloadSpec::from_token`] is always valid).
    pub fn build(&self) -> TraceProgram {
        if let Err(e) = self.validate() {
            panic!("cannot build workload: {e}");
        }
        let spec = *self;
        trace_program(&self.token(), RtOptions::default(), move |ctx| {
            spec.run(ctx)
        })
    }

    fn run(&self, ctx: &mut TaskCtx<'_>) {
        match self.pattern {
            SharingPattern::PingPong => self.ping_pong(ctx),
            SharingPattern::ProducerConsumer => self.producer_consumer(ctx),
            SharingPattern::FalseSharing => self.false_sharing(ctx),
            SharingPattern::ReadMostly => self.read_mostly(ctx),
            SharingPattern::WawFriendly => self.waw_friendly(ctx),
            SharingPattern::WawHostile => self.waw_hostile(ctx),
            SharingPattern::Migratory => self.migratory(ctx),
        }
    }

    fn knobs(&self) -> (u64, u64, u64) {
        (
            u64::from(self.tasks),
            u64::from(self.rounds),
            u64::from(self.ops),
        )
    }

    /// Two hot cache blocks, double-buffered: each round one rotating
    /// writer fills this round's block while every task re-reads the block
    /// written last round. The join between rounds orders the handoff, so
    /// the trace is DRF while the blocks bounce between cores.
    fn ping_pong(&self, ctx: &mut TaskCtx<'_>) {
        let (t, rounds, ops) = self.knobs();
        let hot = ctx.alloc::<u64>(16); // two blocks of 8 words
        let scratch = ctx.alloc::<u64>(t * 8);
        for k in 0..16 {
            ctx.write(&hot, k, mix3(self.seed, 0, 0, k));
        }
        let reads = ops.min(64);
        for r in 0..rounds {
            let writer = r % t;
            let wbuf = (r % 2) * 8;
            let rbuf = ((r + 1) % 2) * 8;
            let seed = self.seed;
            ctx.parallel_for(0, t, 1, &|c, i| {
                if i == writer {
                    for k in 0..8 {
                        c.write(&hot, wbuf + k, mix3(seed, r, 1, k));
                    }
                }
                for n in 0..reads {
                    let _ = c.read(&hot, rbuf + (n % 8));
                }
                c.write(&scratch, i * 8 + (r % 8), r + i);
                c.work(4);
            });
        }
    }

    /// Even tasks produce into per-pair segments of the current buffer;
    /// odd tasks consume the segment their producer filled last round
    /// (double-buffered, so the round's writes and reads never overlap).
    fn producer_consumer(&self, ctx: &mut TaskCtx<'_>) {
        let (t, rounds, ops) = self.knobs();
        let pairs = (t / 2).max(1);
        let seg = ((self.footprint / 8) / (2 * pairs)).clamp(8, 512);
        let shared = ctx.alloc::<u64>(2 * pairs * seg);
        // Pre-fill the odd buffer: it is "previous" for round 0.
        for p in 0..pairs {
            for k in 0..seg.min(16) {
                ctx.write(&shared, (pairs + p) * seg + k, mix3(self.seed, p, 0, k));
            }
        }
        for r in 0..rounds {
            let cur = r % 2;
            let prev = 1 - cur;
            let seed = self.seed;
            ctx.parallel_for(0, t, 1, &|c, i| {
                let pair = i / 2;
                if pair >= pairs {
                    c.work(8); // odd task count: the tail task only computes
                    return;
                }
                if i % 2 == 0 {
                    for n in 0..ops {
                        c.write(&shared, (cur * pairs + pair) * seg + (n % seg), {
                            mix3(seed, r, pair, n)
                        });
                    }
                } else {
                    for n in 0..ops {
                        let _ = c.read(&shared, (prev * pairs + pair) * seg + (n % seg));
                    }
                    c.work(2);
                }
            });
        }
    }

    /// Groups of up to eight tasks hammer *distinct words of the same
    /// cache blocks* — byte-disjoint (hence race-free) but maximally
    /// coherence-hostile. The block area is a declared WARD region, so
    /// protocols with a W state may leave it incoherent until the
    /// end-of-round reconciliation. Values are a function of the slot
    /// alone: deferred writes from different rounds (the leaf-heap
    /// re-marks can keep pages in a region past each scope's exit) then
    /// merge to the same image regardless of reconciliation order — the
    /// benign-WAW discipline the paper licenses.
    fn false_sharing(&self, ctx: &mut TaskCtx<'_>) {
        let (t, rounds, ops) = self.knobs();
        let groups = t.div_ceil(8);
        // At least two pages of blocks so the declared scope contains a
        // whole page after inward rounding; `groups` divides the stripes.
        let blocks = (self.footprint / 64).clamp(groups.max(128), 1024);
        let per_group = blocks / groups;
        let shared = ctx.alloc::<u64>(blocks * 8);
        for _round in 0..rounds {
            let seed = self.seed;
            ctx.ward_scope(&shared, |ctx| {
                ctx.parallel_for(0, t, 1, &|c, i| {
                    let word = i % 8;
                    let group = i / 8;
                    for n in 0..ops {
                        let b = group + (n % per_group) * groups;
                        let slot = b * 8 + word;
                        c.write(&shared, slot, mix3(seed, 3, 0, slot));
                    }
                    c.work(2);
                });
            });
        }
        // Phase-1 validation only (see `waw_friendly` for why a traced
        // read after the scopes would not be DRF).
        for k in 0..8 {
            let _ = ctx.peek(&shared, k);
        }
    }

    /// Every task streams seeded random reads out of a shared table and
    /// writes one private (block-padded) result slot. The table accesses
    /// run inside a `drf_scope`, so full data-race freedom is dynamically
    /// verified during generation.
    fn read_mostly(&self, ctx: &mut TaskCtx<'_>) {
        let (t, rounds, ops) = self.knobs();
        let slots = (self.footprint / 8).clamp(2048, 16_384);
        let seed = self.seed;
        // Build the table with a fork-join `tabulate` (the house idiom): a
        // plain root-task write loop would leave the fill deferred in the
        // root core's cache under WARD (fresh pages are auto-marked), and
        // the scope below keeps the pages marked, so the readers would see
        // protocol-dependent values.
        let shared = ctx.tabulate::<u64>(slots, 512, &|_c, k| mix3(seed, 0, 7, k));
        let out = ctx.alloc::<u64>(t * 8);
        ctx.drf_scope(&shared, |ctx| {
            for r in 0..rounds {
                ctx.parallel_for(0, t, 1, &|c, i| {
                    let mut acc = 0u64;
                    for n in 0..ops {
                        let idx = mix3(seed, r, i, n) % slots;
                        acc ^= c.read(&shared, idx);
                    }
                    c.work(ops / 4 + 1);
                    c.write(&out, i * 8, acc);
                });
            }
        });
    }

    /// Benign WAW at scale: tasks race writes across one large declared
    /// WARD region, but every write to a slot stores the same seeded value
    /// (a function of the slot alone), so any interleaving yields the same
    /// image — the §2.3 discipline DRF-based designs must reject.
    fn waw_friendly(&self, ctx: &mut TaskCtx<'_>) {
        let (t, rounds, ops) = self.knobs();
        let slots = (self.footprint / 8).clamp(2048, 131_072);
        let shared = ctx.alloc::<u64>(slots);
        let seed = self.seed;
        ctx.ward_scope(&shared, |ctx| {
            for r in 0..rounds {
                ctx.parallel_for(0, t, 1, &|c, i| {
                    for n in 0..ops {
                        let slot = mix3(seed, r ^ 0xa5, i ^ n, n) % slots;
                        c.write(&shared, slot, mix3(seed, 11, 0, slot));
                    }
                    c.work(2);
                });
            }
        });
        // Validate through phase-1 memory only: the leaf-heap re-marking of
        // §4.1 may keep these pages inside a WARD region past the scope's
        // exit, so a *traced* root read here would be a cross-task RAW with
        // a protocol-dependent answer (exactly what WARD licenses).
        for k in 0..8 {
            let v = ctx.peek(&shared, k);
            assert!(
                v == 0 || v == mix3(seed, 11, 0, k),
                "slot {k}: unexpected value {v:#x}"
            );
        }
    }

    /// WARD overhead with no WARD benefit: every round allocates a fresh
    /// two-page buffer, declares it, races a handful of same-value writes
    /// across it and immediately reconciles — region add/remove churn
    /// dominates the almost-nonexistent useful work.
    fn waw_hostile(&self, ctx: &mut TaskCtx<'_>) {
        let (t, rounds, ops) = self.knobs();
        let writes = ops.min(16);
        for r in 0..rounds {
            let tiny = ctx.alloc::<u64>(1024); // two pages: scope keeps >= 1
            let seed = self.seed;
            ctx.ward_scope(&tiny, |ctx| {
                ctx.parallel_for(0, t, 1, &|c, i| {
                    for n in 0..writes {
                        let slot = mix3(seed, r, i.wrapping_add(n), 3) % 1024;
                        c.write(&tiny, slot, mix3(seed, 13, 0, slot));
                    }
                    c.work(1);
                });
            });
            // Phase-1 validation only (see `waw_friendly` for why a traced
            // read after the scope would not be DRF).
            let _ = ctx.peek(&tiny, r % 1024);
        }
    }

    /// One rotating owner per round read-modify-writes the shared chunk
    /// while everyone else computes privately — the chunk migrates from
    /// cache to cache with the ownership.
    fn migratory(&self, ctx: &mut TaskCtx<'_>) {
        let (t, rounds, ops) = self.knobs();
        let slots = (self.footprint / 8).clamp(16, 4096);
        let shared = ctx.alloc::<u64>(slots);
        for k in 0..slots.min(1024) {
            ctx.write(&shared, k, mix3(self.seed, 5, 0, k));
        }
        let scratch = ctx.alloc::<u64>(t * 8);
        for r in 0..rounds {
            let owner = r % t;
            let seed = self.seed;
            ctx.parallel_for(0, t, 1, &|c, i| {
                if i == owner {
                    for n in 0..ops {
                        let idx = (r.wrapping_mul(17).wrapping_add(n)) % slots;
                        let v = c.read(&shared, idx);
                        c.write(&shared, idx, v.wrapping_add(1));
                    }
                } else {
                    c.write(&scratch, i * 8, mix3(seed, r, i, 0));
                    c.work(ops / 2 + 1);
                }
            });
        }
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.token())
    }
}

/// A seeded, endless stream of workload specs cycling through a pattern
/// set with varied knobs — what the differential fuzz gate draws from.
/// Equal seeds (and pattern sets) produce identical streams.
#[derive(Clone, Debug)]
pub struct WorkloadGen {
    state: u64,
    patterns: Vec<SharingPattern>,
    emitted: u64,
}

impl WorkloadGen {
    /// A stream over every pattern.
    pub fn new(seed: u64) -> WorkloadGen {
        WorkloadGen::with_patterns(seed, &SharingPattern::ALL).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A stream restricted to `patterns` (must be non-empty).
    pub fn with_patterns(
        seed: u64,
        patterns: &[SharingPattern],
    ) -> Result<WorkloadGen, WorkloadGenError> {
        if patterns.is_empty() {
            return Err(WorkloadGenError::BadKnob(
                "a workload stream needs at least one pattern".into(),
            ));
        }
        Ok(WorkloadGen {
            state: splitmix64(seed ^ 0x57a7_2d3e_9f4b_0c61),
            patterns: patterns.to_vec(),
            emitted: 0,
        })
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.state)
    }

    /// The next spec in the stream (always valid).
    pub fn next_spec(&mut self) -> WorkloadSpec {
        const FOOTPRINTS: [u64; 6] = [512, 1024, 2048, 4096, 8192, 16384];
        let pattern = self.patterns[(self.emitted % self.patterns.len() as u64) as usize];
        self.emitted += 1;
        let seed = self.next_u64();
        let spec = WorkloadSpec {
            pattern,
            seed,
            tasks: 2 + (self.next_u64() % 7) as u32,
            rounds: 2 + (self.next_u64() % 5) as u32,
            ops: 4 + (self.next_u64() % 61) as u32,
            footprint: FOOTPRINTS[(self.next_u64() % FOOTPRINTS.len() as u64) as usize],
        };
        debug_assert!(spec.validate().is_ok());
        spec
    }
}

impl Iterator for WorkloadGen {
    type Item = WorkloadSpec;

    fn next(&mut self) -> Option<WorkloadSpec> {
        Some(self.next_spec())
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A pure hash of (seed, a, b, c): every "random" choice a pattern body
/// makes flows through this, so leaf closures stay `Fn` and the trace is a
/// pure function of the spec.
fn mix3(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    splitmix64(seed ^ a.rotate_left(21) ^ b.rotate_left(42) ^ c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pattern_builds_a_valid_trace() {
        for pattern in SharingPattern::ALL {
            let spec = WorkloadSpec::new(pattern, 42);
            let p = spec.build();
            p.check_invariants()
                .unwrap_or_else(|e| panic!("{pattern}: {e}"));
            assert!(p.stats.tasks > 1, "{pattern}: no parallelism");
            assert!(p.stats.memory_accesses > 0, "{pattern}: no memory traffic");
        }
    }

    #[test]
    fn equal_specs_build_identical_traces() {
        for pattern in SharingPattern::ALL {
            let spec = WorkloadSpec::new(pattern, 7);
            let a = spec.build();
            let b = spec.build();
            assert_eq!(a.stats, b.stats, "{pattern}");
            assert_eq!(a.tasks.len(), b.tasks.len(), "{pattern}");
            for (ta, tb) in a.tasks.iter().zip(&b.tasks) {
                assert_eq!(ta.events, tb.events, "{pattern}");
            }
            assert_eq!(a.fingerprint(), b.fingerprint(), "{pattern}");
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = WorkloadSpec::new(SharingPattern::ReadMostly, 1).build();
        let b = WorkloadSpec::new(SharingPattern::ReadMostly, 2).build();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn tokens_round_trip() {
        let mut gen = WorkloadGen::new(0xfeed);
        for _ in 0..32 {
            let spec = gen.next_spec();
            let token = spec.token();
            let back = WorkloadSpec::from_token(&token).expect("token parses");
            assert_eq!(back, spec, "{token}");
            assert!(
                token.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'),
                "token {token:?} is not filesystem-safe"
            );
        }
    }

    #[test]
    fn malformed_tokens_are_typed_errors() {
        for bad in [
            "",
            "ping-pong",
            "ping-pong-s00-t4-r3-o24", // missing footprint
            "no-such-pattern-s0000000000000000-t4-r3-o24-f4096",
            "ping-pong-sZZ-t4-r3-o24-f4096",
            "ping-pong-s0000000000000000-tmany-r3-o24-f4096",
            "ping-pong-s0000000000000000-t99-r3-o24-f4096", // knob out of range
        ] {
            assert!(WorkloadSpec::from_token(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn knob_bounds_are_enforced() {
        let ok = WorkloadSpec::new(SharingPattern::PingPong, 0);
        ok.validate().unwrap();
        for (mutate, what) in [
            (
                &(|s: &mut WorkloadSpec| s.tasks = 1) as &dyn Fn(&mut WorkloadSpec),
                "one task",
            ),
            (&|s: &mut WorkloadSpec| s.tasks = 65, "65 tasks"),
            (&|s: &mut WorkloadSpec| s.rounds = 0, "zero rounds"),
            (&|s: &mut WorkloadSpec| s.rounds = 257, "257 rounds"),
            (&|s: &mut WorkloadSpec| s.ops = 0, "zero ops"),
            (&|s: &mut WorkloadSpec| s.ops = 4097, "4097 ops"),
            (
                &|s: &mut WorkloadSpec| s.footprint = 256,
                "footprint below 512",
            ),
            (
                &|s: &mut WorkloadSpec| s.footprint = (1 << 20) + 1,
                "footprint above 1 MiB",
            ),
        ] {
            let mut s = ok;
            mutate(&mut s);
            assert!(
                matches!(s.validate(), Err(WorkloadGenError::BadKnob(_))),
                "{what} should be rejected"
            );
        }
    }

    #[test]
    fn streams_are_deterministic_and_respect_pattern_filters() {
        let a: Vec<WorkloadSpec> = WorkloadGen::new(9).take(20).collect();
        let b: Vec<WorkloadSpec> = WorkloadGen::new(9).take(20).collect();
        assert_eq!(a, b);
        let c: Vec<WorkloadSpec> = WorkloadGen::new(10).take(20).collect();
        assert_ne!(a, c);

        let only = [SharingPattern::Migratory, SharingPattern::PingPong];
        let filtered = WorkloadGen::with_patterns(9, &only).unwrap();
        for (i, spec) in filtered.take(10).enumerate() {
            assert_eq!(spec.pattern, only[i % 2]);
        }
        assert!(WorkloadGen::with_patterns(9, &[]).is_err());
    }

    #[test]
    fn waw_patterns_mark_regions_and_hostile_churns_more() {
        let friendly = WorkloadSpec::new(SharingPattern::WawFriendly, 3).build();
        let mut hostile_spec = WorkloadSpec::new(SharingPattern::WawHostile, 3);
        hostile_spec.rounds = 8;
        let hostile = hostile_spec.build();
        assert!(friendly.stats.regions_marked > 0);
        assert!(hostile.stats.regions_marked > 0);
        // The hostile shape exists to churn regions: per memory access it
        // marks far more often than the friendly bulk-write shape.
        let churn = |p: &TraceProgram| p.stats.regions_marked * 1000 / p.stats.memory_accesses;
        assert!(
            churn(&hostile) > churn(&friendly),
            "hostile {} vs friendly {}",
            churn(&hostile),
            churn(&friendly)
        );
    }
}
