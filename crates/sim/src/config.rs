//! Machine configurations for the evaluated systems (paper Table 2 and §7.3).

use crate::error::SimError;
use warden_coherence::{CacheConfig, CoherenceError, Divisor, LatencyModel, Topology};

/// Full description of one simulated machine.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Human-readable name used in reports.
    pub name: String,
    /// Socket/core layout.
    pub topo: Topology,
    /// Latency model.
    pub lat: LatencyModel,
    /// Cache geometries and region-store capacity.
    pub cache: CacheConfig,
    /// Average cycles-per-instruction for non-memory work, expressed as a
    /// rational `cpi_num / cpi_den` (the default ½ models a superscalar
    /// core retiring two ALU ops per cycle).
    pub cpi_num: u64,
    /// See [`Self::cpi_num`].
    pub cpi_den: u64,
    /// Store-buffer entries per core (Skylake-class: 56). Store latency is
    /// hidden until the buffer fills (the mechanism behind the paper's
    /// Figure 10 discussion of loads vs. stores).
    pub store_buffer: usize,
    /// Outstanding store *misses* per core (write MSHRs): stores that miss
    /// the private hierarchy drain at most this many at a time, so a burst
    /// of invalidation-heavy stores eventually back-pressures the core.
    pub store_mshrs: usize,
    /// Cycles charged to a thief per steal attempt (deque CAS + bookkeeping).
    pub steal_cost: u64,
    /// Cycles an idle core waits before re-probing for work.
    pub idle_tick: u64,
    /// RNG seed for steal-victim selection (runs are deterministic given a
    /// seed).
    pub seed: u64,
}

impl MachineConfig {
    fn base(name: &str, sockets: usize, lat: LatencyModel) -> MachineConfig {
        let cores_per_socket = 12;
        MachineConfig {
            name: name.to_owned(),
            topo: Topology::new(sockets, cores_per_socket),
            lat,
            cache: CacheConfig::paper(cores_per_socket),
            cpi_num: 1,
            cpi_den: 2,
            store_buffer: 56,
            store_mshrs: 10,
            steal_cost: 120,
            idle_tick: 60,
            seed: 0xC60_2023,
        }
    }

    /// The paper's single-socket machine: 12 cores, Table 2 caches.
    pub fn single_socket() -> MachineConfig {
        MachineConfig::base("single-socket", 1, LatencyModel::xeon_gold_6126())
    }

    /// The paper's dual-socket machine: 2 × 12 cores.
    pub fn dual_socket() -> MachineConfig {
        MachineConfig::base("dual-socket", 2, LatencyModel::xeon_gold_6126())
    }

    /// The §7.3 disaggregated machine: two nodes with a 1 µs (3300-cycle)
    /// remote access time.
    pub fn disaggregated() -> MachineConfig {
        MachineConfig::base("disaggregated", 2, LatencyModel::disaggregated())
    }

    /// A hypothetical many-socket machine (§7.3's "many sockets" future).
    ///
    /// # Panics
    ///
    /// Panics if `sockets` is zero, or if its `sockets * 12` cores would
    /// overflow the 64-wide sharer bitmask.
    pub fn many_socket(sockets: usize) -> MachineConfig {
        let cores_per_socket = 12;
        assert!(sockets > 0, "a machine needs at least one socket");
        let cores = sockets
            .checked_mul(cores_per_socket)
            .unwrap_or_else(|| panic!("{sockets} sockets overflow the core count"));
        assert!(
            cores <= 64,
            "{sockets} sockets x {cores_per_socket} cores = {cores} cores exceed the 64-wide \
             sharer bitmask"
        );
        MachineConfig::base(
            &format!("{sockets}-socket"),
            sockets,
            LatencyModel::xeon_gold_6126(),
        )
    }

    /// An arbitrary machine-space sweep point: `sockets` × `cores_per_socket`
    /// under latency model `lat`, fully validated with typed errors.
    ///
    /// Sweep drivers (the coherence atlas, `fuzzgen`) construct machines from
    /// mechanically enumerated knobs, so every extreme point — a zero or
    /// 65+ socket count, 1-core sockets, a zero-latency link — must surface
    /// as a [`SimError`] *before* [`Topology::new`]'s debug assertions can
    /// fire. 1-core sockets are legal (the paper's "many thin sockets"
    /// direction); the impossible geometries and latencies are not.
    pub fn sweep_point(
        name: &str,
        sockets: usize,
        cores_per_socket: usize,
        lat: LatencyModel,
    ) -> Result<MachineConfig, SimError> {
        let bad = |msg: String| SimError::Config(CoherenceError::BadConfig(msg));
        if sockets == 0 {
            return Err(bad("a sweep point needs at least one socket".into()));
        }
        if cores_per_socket == 0 {
            return Err(bad(
                "a sweep point needs at least one core per socket".into()
            ));
        }
        let cores = sockets
            .checked_mul(cores_per_socket)
            .ok_or_else(|| bad(format!("{sockets} sockets overflow the core count")))?;
        if cores > 64 {
            return Err(bad(format!(
                "{sockets} sockets x {cores_per_socket} cores = {cores} cores exceed the \
                 64-wide sharer bitmask"
            )));
        }
        let m = MachineConfig {
            name: name.to_owned(),
            topo: Topology::new(sockets, cores_per_socket),
            cache: CacheConfig::paper(cores_per_socket),
            ..MachineConfig::base(name, 1, lat)
        };
        m.validate()?;
        Ok(m)
    }

    /// Override the core count per socket (smaller machines simulate faster;
    /// useful for tests and examples).
    pub fn with_cores(mut self, cores_per_socket: usize) -> MachineConfig {
        self.topo = Topology::new(self.topo.num_sockets(), cores_per_socket);
        self.cache = CacheConfig {
            llc_slice: warden_mem::CacheGeometry::new(2_621_440 * cores_per_socket as u64, 20),
            ..self.cache
        };
        self
    }

    /// Override the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> MachineConfig {
        self.seed = seed;
        self
    }

    /// Total core count.
    pub fn num_cores(&self) -> usize {
        self.topo.num_cores()
    }

    /// Cycles for `n` instructions of pure compute.
    ///
    /// # Panics
    ///
    /// Panics if `cpi_den` is zero, or (in debug builds) if `n * cpi_num`
    /// overflows.
    pub fn compute_cycles(&self, n: u64) -> u64 {
        self.compute_cost().cycles(n)
    }

    /// [`Self::compute_cycles`] with the reciprocal of `cpi_den` computed
    /// once, for the replay's per-event path.
    ///
    /// # Panics
    ///
    /// Panics if `cpi_den` is zero.
    pub(crate) fn compute_cost(&self) -> ComputeCost {
        ComputeCost {
            num: self.cpi_num,
            den: Divisor::new(self.cpi_den),
        }
    }

    /// A stable fingerprint over every parameter that affects a replay.
    ///
    /// Checkpoints embed this value so a snapshot taken on one machine
    /// description can never silently resume under a different one; two
    /// configurations with equal fingerprints replay identically.
    pub fn fingerprint(&self) -> u64 {
        use warden_mem::codec::{fnv1a64, Encoder};
        let mut enc = Encoder::new();
        enc.put_str(&self.name);
        enc.put_usize(self.topo.num_sockets());
        enc.put_usize(self.topo.cores_per_socket());
        for v in [
            self.lat.l1,
            self.lat.l2,
            self.lat.l3,
            self.lat.fwd,
            self.lat.intersocket,
            self.lat.dram,
            self.lat.region_instr,
            self.lat.reconcile_per_block,
        ] {
            enc.put_u64(v);
        }
        for g in [self.cache.l1, self.cache.l2, self.cache.llc_slice] {
            enc.put_u64(g.size_bytes());
            enc.put_u32(g.associativity());
        }
        enc.put_usize(self.cache.region_capacity);
        enc.put_u64(self.cache.sector_bytes);
        enc.put_u64(self.cpi_num);
        enc.put_u64(self.cpi_den);
        enc.put_usize(self.store_buffer);
        enc.put_usize(self.store_mshrs);
        enc.put_u64(self.steal_cost);
        enc.put_u64(self.idle_tick);
        enc.put_u64(self.seed);
        fnv1a64(enc.bytes())
    }

    /// Check the whole machine description for consistency: cache
    /// geometry/region/sector constraints ([`CacheConfig::validate`]),
    /// latency ordering ([`LatencyModel::validate`]), a well-defined CPI
    /// fraction, at least one store-buffer entry and write MSHR, and a
    /// non-zero idle tick (a zero tick would let an idle core spin without
    /// advancing time). All preset constructors produce valid machines —
    /// asserted by this module's tests.
    pub fn validate(&self) -> Result<(), SimError> {
        self.cache.validate()?;
        self.lat.validate()?;
        let bad = |msg: String| Err(SimError::Config(CoherenceError::BadConfig(msg)));
        if self.cpi_den == 0 {
            return bad("cpi denominator must be non-zero".into());
        }
        if self.cpi_num == 0 {
            return bad("cpi numerator must be non-zero (compute must take time)".into());
        }
        if self.store_buffer == 0 {
            return bad("store buffer needs at least one entry".into());
        }
        if self.store_mshrs == 0 {
            return bad("at least one write MSHR is required".into());
        }
        if self.idle_tick == 0 {
            return bad("idle tick must be non-zero (idle cores must advance time)".into());
        }
        Ok(())
    }
}

/// A machine's CPI as a numerator and a precomputed reciprocal of its
/// denominator (see [`MachineConfig::compute_cost`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ComputeCost {
    num: u64,
    den: Divisor,
}

impl ComputeCost {
    /// `(n * cpi_num).div_ceil(cpi_den)`: the same product, so the same
    /// overflow (a panic in debug builds, wrapping in release).
    pub(crate) fn cycles(self, n: u64) -> u64 {
        self.den.div_ceil(n * self.num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs() {
        assert_eq!(MachineConfig::single_socket().num_cores(), 12);
        assert_eq!(MachineConfig::dual_socket().num_cores(), 24);
        assert_eq!(MachineConfig::disaggregated().lat.intersocket, 3300);
        assert_eq!(MachineConfig::many_socket(4).num_cores(), 48);
    }

    #[test]
    fn many_socket_fits_up_to_the_sharer_bitmask() {
        // 5 sockets x 12 cores = 60 <= 64: the widest machine that fits.
        let m = MachineConfig::many_socket(5);
        assert_eq!(m.num_cores(), 60);
        assert_eq!(m.name, "5-socket");
        m.validate().expect("preset validates");
    }

    #[test]
    #[should_panic(expected = "at least one socket")]
    fn many_socket_panics_on_zero_sockets() {
        let _ = MachineConfig::many_socket(0);
    }

    #[test]
    #[should_panic(expected = "sharer bitmask")]
    fn many_socket_still_panics_on_overflow() {
        let _ = MachineConfig::many_socket(6);
    }

    #[test]
    fn sweep_points_cover_extremes_with_typed_errors() {
        use warden_coherence::LatencyModel;
        // 1-core sockets are a legal sweep direction, not an error.
        let thin = MachineConfig::sweep_point("4s1c", 4, 1, LatencyModel::xeon_gold_6126())
            .expect("1-core sockets are valid");
        assert_eq!(thin.num_cores(), 4);
        assert_eq!(thin.topo.cores_per_socket(), 1);
        thin.validate().unwrap();
        // The CXL-class preset flows through like any other latency model.
        let cxl = MachineConfig::sweep_point("2s2c-cxl", 2, 2, LatencyModel::cxl()).unwrap();
        assert_eq!(cxl.lat.intersocket, 600);

        let expect_bad = |r: Result<MachineConfig, SimError>, what: &str| {
            let err = r.expect_err(what);
            assert!(matches!(err, SimError::Config(_)), "{what}: {err}");
        };
        let lat = LatencyModel::xeon_gold_6126;
        expect_bad(
            MachineConfig::sweep_point("0s", 0, 4, lat()),
            "zero sockets",
        );
        expect_bad(
            MachineConfig::sweep_point("0c", 2, 0, lat()),
            "zero cores per socket",
        );
        expect_bad(
            MachineConfig::sweep_point("wide", 65, 1, lat()),
            ">64 sockets",
        );
        expect_bad(
            MachineConfig::sweep_point("dense", 8, 12, lat()),
            "96 cores exceed the sharer bitmask",
        );
        expect_bad(
            MachineConfig::sweep_point("huge", usize::MAX, 2, lat()),
            "core-count overflow",
        );
        let mut zero_link = lat();
        zero_link.intersocket = 0;
        expect_bad(
            MachineConfig::sweep_point("0link", 2, 2, zero_link),
            "zero-latency inter-socket link",
        );
        let mut zero_l1 = lat();
        zero_l1.l1 = 0;
        expect_bad(
            MachineConfig::sweep_point("0l1", 1, 2, zero_l1),
            "zero-latency l1",
        );
    }

    #[test]
    fn sweep_point_fingerprints_bind_the_geometry() {
        use warden_coherence::LatencyModel;
        let a = MachineConfig::sweep_point("p", 2, 2, LatencyModel::xeon_gold_6126()).unwrap();
        let b = MachineConfig::sweep_point("p", 4, 1, LatencyModel::xeon_gold_6126()).unwrap();
        let c = MachineConfig::sweep_point("p", 2, 2, LatencyModel::cxl()).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(
            a.fingerprint(),
            MachineConfig::sweep_point("p", 2, 2, LatencyModel::xeon_gold_6126())
                .unwrap()
                .fingerprint()
        );
    }

    #[test]
    fn compute_cycles_rounds_up() {
        let m = MachineConfig::single_socket();
        assert_eq!(m.compute_cycles(4), 2);
        assert_eq!(m.compute_cycles(5), 3);
        assert_eq!(m.compute_cycles(0), 0);
    }

    /// `compute_cycles` (through the precomputed reciprocal) equals the
    /// plain `(n * cpi_num).div_ceil(cpi_den)` for the shipped CPI ratio of
    /// every preset and for others (whole, non-power-of-two and improper
    /// fractions): for every `n` up to 20,000, the 20,000 `n` below the
    /// overflow point of `n * cpi_num` and random `n` between. Past that
    /// point both overflow alike: a panic in debug builds, the same wrapped
    /// product in release.
    #[test]
    fn compute_cycles_equals_the_plain_expression() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xC1);
        let shipped = [
            MachineConfig::single_socket(),
            MachineConfig::dual_socket(),
            MachineConfig::disaggregated(),
            MachineConfig::many_socket(4),
            MachineConfig::sweep_point("p", 3, 5, LatencyModel::cxl()).unwrap(),
        ]
        .map(|m| (m.cpi_num, m.cpi_den));
        let others = [(1, 1), (1, 3), (2, 3), (3, 4), (7, 5), (5, 1), (1, 1 << 40)];
        for (num, den) in shipped.into_iter().chain(others) {
            let m = MachineConfig {
                cpi_num: num,
                cpi_den: den,
                ..MachineConfig::dual_socket()
            };
            let cost = m.compute_cost();
            let limit = u64::MAX / num;
            let ns = (0..=20_000)
                .chain(limit - 20_000..=limit)
                .chain((0..20_000).map(|_| rng.gen_range(0..=limit)));
            for n in ns {
                assert_eq!(
                    cost.cycles(n),
                    (n * num).div_ceil(den),
                    "{n} at {num}/{den}"
                );
            }
            for n in [limit.saturating_add(1), u64::MAX] {
                if n <= limit {
                    continue;
                }
                let plain = std::panic::catch_unwind(|| (n * num).div_ceil(den)).ok();
                let fast = std::panic::catch_unwind(|| cost.cycles(n)).ok();
                assert_eq!(fast, plain, "overflow at {n} x {num}/{den}");
                assert_eq!(plain.is_none(), cfg!(debug_assertions));
            }
        }
    }

    #[test]
    fn with_cores_scales_llc() {
        let m = MachineConfig::single_socket().with_cores(4);
        assert_eq!(m.num_cores(), 4);
        assert_eq!(m.cache.llc_slice.size_bytes(), 4 * 2_621_440);
    }

    #[test]
    fn presets_validate() {
        for m in [
            MachineConfig::single_socket(),
            MachineConfig::dual_socket(),
            MachineConfig::disaggregated(),
            MachineConfig::many_socket(4),
            MachineConfig::dual_socket().with_cores(2),
        ] {
            m.validate().unwrap_or_else(|e| panic!("{}: {e}", m.name));
        }
    }

    #[test]
    fn fingerprints_distinguish_machines_and_are_stable() {
        let a = MachineConfig::dual_socket();
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        assert_ne!(
            a.fingerprint(),
            MachineConfig::single_socket().fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            MachineConfig::disaggregated().fingerprint()
        );
        assert_ne!(a.fingerprint(), a.clone().with_seed(7).fingerprint());
        assert_ne!(a.fingerprint(), a.clone().with_cores(2).fingerprint());
        let mut b = a.clone();
        b.store_mshrs -= 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn each_bad_field_is_rejected() {
        let expect_bad = |mutate: &dyn Fn(&mut MachineConfig), what: &str| {
            let mut m = MachineConfig::single_socket();
            mutate(&mut m);
            assert!(
                matches!(m.validate(), Err(SimError::Config(_))),
                "{what} should be rejected"
            );
        };
        expect_bad(&|m| m.cpi_den = 0, "zero cpi denominator");
        expect_bad(&|m| m.cpi_num = 0, "zero cpi numerator");
        expect_bad(&|m| m.store_buffer = 0, "zero store buffer");
        expect_bad(&|m| m.store_mshrs = 0, "zero write MSHRs");
        expect_bad(&|m| m.idle_tick = 0, "zero idle tick");
        expect_bad(&|m| m.cache.region_capacity = 0, "zero region capacity");
        expect_bad(&|m| m.cache.sector_bytes = 3, "non-power-of-two sector");
        expect_bad(&|m| m.cache.sector_bytes = 128, "sector wider than a block");
        expect_bad(&|m| m.lat.l2 = m.lat.l1, "l1 !< l2 ordering");
        expect_bad(&|m| m.lat.l3 = m.lat.l2, "l2 !< l3 ordering");
        expect_bad(&|m| m.lat.dram = 10, "dram below l3");
        expect_bad(&|m| m.lat.intersocket = 10, "intersocket below l3");
        expect_bad(&|m| m.lat.l1 = 0, "zero l1 latency");
        expect_bad(
            &|m| {
                m.cache.l2 = warden_mem::CacheGeometry::new(512, 2);
                m.cache.l1 = warden_mem::CacheGeometry::new(1024, 2);
            },
            "L1 bigger than inclusive L2",
        );
    }
}
