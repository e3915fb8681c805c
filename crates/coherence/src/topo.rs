//! Machine topology and latency model.

use std::fmt;

/// Identifies one hardware core (one hardware thread in the paper's terms).
pub type CoreId = usize;

/// Identifies one socket (one LLC slice + directory + memory controller).
pub type SocketId = usize;

/// Core/socket layout of the simulated machine.
///
/// # Example
///
/// ```
/// use warden_coherence::Topology;
/// let t = Topology::new(2, 12);
/// assert_eq!(t.num_cores(), 24);
/// assert_eq!(t.socket_of(13), 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Topology {
    /// The socket count, which [`Self::home_of`] takes blocks modulo.
    sockets: Divisor,
    /// The cores per socket, which [`Self::socket_of`] divides by.
    cores_per_socket: Divisor,
}

impl Topology {
    /// Create a topology of `num_sockets` sockets with `cores_per_socket`
    /// cores each.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero or the machine exceeds 64 cores
    /// (the sharer-bitmask width).
    pub fn new(num_sockets: usize, cores_per_socket: usize) -> Topology {
        assert!(num_sockets > 0 && cores_per_socket > 0, "empty machine");
        assert!(
            num_sockets * cores_per_socket <= 64,
            "at most 64 cores supported (sharer bitmask width)"
        );
        Topology {
            sockets: Divisor::new(num_sockets as u64),
            cores_per_socket: Divisor::new(cores_per_socket as u64),
        }
    }

    /// Number of sockets.
    pub fn num_sockets(self) -> usize {
        self.sockets.get() as usize
    }

    /// Cores per socket.
    pub fn cores_per_socket(self) -> usize {
        self.cores_per_socket.get() as usize
    }

    /// Total cores in the machine.
    pub fn num_cores(self) -> usize {
        self.num_sockets() * self.cores_per_socket()
    }

    /// The socket a core belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn socket_of(self, core: CoreId) -> SocketId {
        assert!(core < self.num_cores(), "core {core} out of range");
        self.cores_per_socket.quotient(core as u64) as usize
    }

    /// Home socket (directory + LLC slice) of a cache block, interleaved by
    /// block address.
    pub fn home_of(self, block: warden_mem::BlockAddr) -> SocketId {
        self.sockets.remainder(block.0) as usize
    }
}

/// Exact division and remainder by a divisor fixed at construction, by two
/// multiplications with its reciprocal instead of a hardware divide.
///
/// With `M = ⌈2^128 / d⌉` and `M·d = 2^128 + e` (`0 ≤ e < d`), every 64-bit
/// `n = q·d + r` has `M·n / 2^128 = q + (r + e·n / 2^128) / d`, and
/// `e·n < 2^128`, so the floor is `q` and the fraction times `d` floors to
/// `r`: both are exact for every `n` and every non-zero `d` (Lemire, Kaser
/// and Kurz, "Faster remainder by direct computation", 2019). `M` is kept
/// modulo 2^128, which drops only `d = 1`'s top bit (`M = 2^128`):
/// [`Self::quotient`] adds it back, and [`Self::remainder`] never needed it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Divisor {
    d: u64,
    /// `⌈2^128 / d⌉ mod 2^128`.
    m: u128,
}

impl Divisor {
    /// The reciprocal of `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn new(d: u64) -> Divisor {
        assert!(d > 0, "division by zero");
        Divisor {
            d,
            m: (u128::MAX / u128::from(d)).wrapping_add(1),
        }
    }

    /// The divisor itself.
    pub fn get(self) -> u64 {
        self.d
    }

    /// `n / d`.
    pub fn quotient(self, n: u64) -> u64 {
        let q = mul_hi(self.m, n);
        if self.d == 1 {
            n
        } else {
            q
        }
    }

    /// `n % d`.
    pub fn remainder(self, n: u64) -> u64 {
        mul_hi(self.m.wrapping_mul(u128::from(n)), self.d)
    }

    /// `n.div_ceil(d)`.
    pub fn div_ceil(self, n: u64) -> u64 {
        let q = self.quotient(n);
        q + u64::from(q * self.d != n)
    }
}

/// `⌊a·b / 2^128⌋`: the top 64 bits of a 128 × 64-bit product.
fn mul_hi(a: u128, b: u64) -> u64 {
    let b = u128::from(b);
    let lo = (a as u64 as u128 * b) >> 64;
    (((a >> 64) * b + lo) >> 64) as u64
}

/// Access latencies in cycles, mirroring the paper's Table 2 plus the
/// cross-socket and memory figures implied by Table 1.
///
/// All figures are one-transaction contributions; the protocol engine
/// composes them per request path (e.g. an L2 miss that must forward to a
/// remote dirty owner pays `l3 + fwd + intersocket × crossings`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// L1 hit latency (paper: 6).
    pub l1: u64,
    /// L2 hit latency (paper: 16).
    pub l2: u64,
    /// L3/LLC + directory access latency (paper: 71).
    pub l3: u64,
    /// Extra latency to probe and retrieve data from another core's private
    /// cache (the forward/intervention hop of Fwd-GetS / Fwd-GetM).
    pub fwd: u64,
    /// One crossing of the inter-socket interconnect.
    pub intersocket: u64,
    /// Main-memory access beyond the LLC (per access).
    pub dram: u64,
    /// Cycles charged to the core executing an Add/Remove-Region instruction.
    pub region_instr: u64,
    /// Cycles charged (to the removing core) per block flushed during
    /// reconciliation; small because reconciliation overlaps with execution
    /// (paper §6.1 estimates it by a cache flush).
    pub reconcile_per_block: u64,
}

impl LatencyModel {
    /// Latencies for the paper's Xeon Gold 6126 model (Table 2), with
    /// forward/inter-socket/DRAM values fitted to Table 1's ping-pong
    /// validation numbers.
    pub fn xeon_gold_6126() -> LatencyModel {
        LatencyModel {
            l1: 6,
            l2: 16,
            l3: 71,
            fwd: 60,
            intersocket: 330,
            dram: 230,
            region_instr: 4,
            reconcile_per_block: 4,
        }
    }

    /// Latencies for a disaggregated two-node machine with a 1 µs remote
    /// access time (paper §7.3): at 3.3 GHz, 1 µs = 3300 cycles for both the
    /// remote-node crossing and the (remote) memory pool.
    pub fn disaggregated() -> LatencyModel {
        LatencyModel {
            intersocket: 3300,
            dram: 3300,
            ..LatencyModel::xeon_gold_6126()
        }
    }

    /// Latencies for a CXL-class memory expander: local caches and DRAM as
    /// on the Xeon model, but the cross-socket link runs over CXL.mem at
    /// roughly 180 ns (~600 cycles at 3.3 GHz) — between the paper's native
    /// NUMA point and its 1 µs disaggregated point (§7.3).
    pub fn cxl() -> LatencyModel {
        LatencyModel {
            intersocket: 600,
            ..LatencyModel::xeon_gold_6126()
        }
    }

    /// Check the model's physical plausibility: non-zero hit latencies
    /// strictly ordered L1 < L2 < L3, with remote figures (DRAM and the
    /// inter-socket crossing) above the L3. The latency composition in the
    /// protocol engine assumes this ordering (e.g. hit classification and
    /// the remote-transaction threshold used by the fault injector).
    pub fn validate(&self) -> Result<(), crate::CoherenceError> {
        let bad = |msg: String| Err(crate::CoherenceError::BadConfig(msg));
        if self.l1 == 0 {
            return bad("l1 latency must be non-zero".into());
        }
        if !(self.l1 < self.l2 && self.l2 < self.l3) {
            return bad(format!(
                "hit latencies must be ordered l1 < l2 < l3, got {}/{}/{}",
                self.l1, self.l2, self.l3
            ));
        }
        if self.dram <= self.l3 {
            return bad(format!(
                "dram latency {} must exceed l3 latency {}",
                self.dram, self.l3
            ));
        }
        if self.intersocket <= self.l3 {
            return bad(format!(
                "intersocket latency {} must exceed l3 latency {}",
                self.intersocket, self.l3
            ));
        }
        Ok(())
    }
}

impl fmt::Display for LatencyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "L1/L2/L3 {}-{}-{} cycles, fwd {}, intersocket {}, dram {}",
            self.l1, self.l2, self.l3, self.fwd, self.intersocket, self.dram
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warden_mem::BlockAddr;

    #[test]
    fn latency_presets_are_valid_and_ordered_by_remoteness() {
        for lat in [
            LatencyModel::xeon_gold_6126(),
            LatencyModel::cxl(),
            LatencyModel::disaggregated(),
        ] {
            lat.validate().unwrap();
        }
        let native = LatencyModel::xeon_gold_6126().intersocket;
        let cxl = LatencyModel::cxl().intersocket;
        let disagg = LatencyModel::disaggregated().intersocket;
        assert!(native < cxl && cxl < disagg);
    }

    #[test]
    fn socket_mapping() {
        let t = Topology::new(2, 12);
        assert_eq!(t.socket_of(0), 0);
        assert_eq!(t.socket_of(11), 0);
        assert_eq!(t.socket_of(12), 1);
        assert_eq!(t.socket_of(23), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn socket_of_out_of_range_panics() {
        Topology::new(1, 4).socket_of(4);
    }

    #[test]
    fn home_interleaves_blocks() {
        let t = Topology::new(2, 12);
        assert_eq!(t.home_of(BlockAddr(0)), 0);
        assert_eq!(t.home_of(BlockAddr(1)), 1);
        assert_eq!(t.home_of(BlockAddr(2)), 0);
    }

    #[test]
    fn single_socket_homes_everything_locally() {
        let t = Topology::new(1, 12);
        for b in 0..100 {
            assert_eq!(t.home_of(BlockAddr(b)), 0);
        }
    }

    /// `socket_of` is the plain quotient for every socket width the 64-core
    /// sharer mask allows, every socket count that fits with it, and every
    /// core of each such machine.
    #[test]
    fn socket_of_is_the_plain_quotient_on_every_machine() {
        for cps in 1..=64 {
            for sockets in 1..=64 / cps {
                let t = Topology::new(sockets, cps);
                for core in 0..t.num_cores() {
                    assert_eq!(t.socket_of(core), core / cps, "{sockets}x{cps} core {core}");
                }
            }
        }
    }

    /// `home_of` is the plain remainder for every socket count from 1 to 64,
    /// over the edge blocks (0, 1 and the last block of the address space)
    /// and random blocks, both block-sized and full 64-bit.
    #[test]
    fn home_of_is_the_plain_remainder_for_every_socket_count() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5EED);
        let blocks: Vec<u64> = [0, 1, u64::MAX >> 6, u64::MAX]
            .into_iter()
            .chain((0..2000).map(|i| rng.gen::<u64>() >> (6 * (i % 2))))
            .collect();
        for sockets in 1..=64 {
            let t = Topology::new(sockets, 1);
            for &b in &blocks {
                assert_eq!(
                    t.home_of(BlockAddr(b)),
                    (b % sockets as u64) as usize,
                    "{sockets} sockets, block {b:#x}"
                );
            }
        }
    }

    /// `Divisor` agrees with the hardware `/`, `%` and `div_ceil` at the
    /// edges of both operands: every divisor up to 300, powers of two and
    /// their neighbours up to `u64::MAX`, and random divisors, each against
    /// dividends near 0, near multiples of the divisor, near `u64::MAX`,
    /// and random.
    #[test]
    fn divisor_matches_the_hardware_divide() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xD1F);
        let mut divisors: Vec<u64> = (1..=300).collect();
        for k in 1..64 {
            divisors.extend([(1u64 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        divisors.extend([u64::MAX - 1, u64::MAX]);
        divisors.extend((0..200).map(|i| (rng.gen::<u64>() >> (i % 64)).max(1)));
        for d in divisors {
            let div = Divisor::new(d);
            assert_eq!(div.get(), d);
            let mut ns = vec![0, 1, 2, u64::MAX - 1, u64::MAX];
            for base in [d, u64::MAX / d * d, u64::MAX / d / 2 * d] {
                ns.extend([base.wrapping_sub(1), base, base.wrapping_add(1)]);
            }
            ns.extend((0..50).map(|_| rng.gen::<u64>()));
            for n in ns {
                assert_eq!(div.quotient(n), n / d, "{n} / {d}");
                assert_eq!(div.remainder(n), n % d, "{n} % {d}");
                assert_eq!(div.div_ceil(n), n.div_ceil(d), "{n} div_ceil {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn divisor_of_zero_panics() {
        Divisor::new(0);
    }

    #[test]
    #[should_panic(expected = "64 cores")]
    fn too_many_cores_rejected() {
        Topology::new(8, 12);
    }

    #[test]
    fn paper_latency_values() {
        let l = LatencyModel::xeon_gold_6126();
        assert_eq!((l.l1, l.l2, l.l3), (6, 16, 71));
        let d = LatencyModel::disaggregated();
        assert_eq!(d.intersocket, 3300);
        assert_eq!(d.l1, 6);
    }
}
