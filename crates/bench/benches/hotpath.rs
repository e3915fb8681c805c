//! Criterion suite for the replay hot path: the three lookups every demand
//! access can touch (region CAM, directory page masks, backing memory) and
//! the end-to-end replay of the baseline kernels under both protocols.
//!
//! These complement `benches/microbench.rs` (single coherence transactions)
//! by hammering exactly the structures the flat-index layout optimizes.
//! Run with `cargo bench --bench hotpath`; `--test` smoke-runs the harness
//! without the timing loops (used by `ci.sh bench`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use warden_coherence::{
    AddRegion, CacheConfig, CoherenceSystem, LatencyModel, ProtocolId, RegionStore, Topology,
};
use warden_mem::{Addr, Memory, PAGE_SIZE};
use warden_pbbs::Scale;
use warden_sim::{simulate, MachineConfig};

/// Region-CAM lookups against a half-full store: the per-access
/// "is this address WARD?" question, both when it hits and when it misses.
fn region_lookup(c: &mut Criterion) {
    let mut store = RegionStore::new(1024);
    for i in 0..512u64 {
        match store.add(Addr(2 * i * PAGE_SIZE), Addr((2 * i + 1) * PAGE_SIZE)) {
            AddRegion::Added(_) => {}
            AddRegion::Overflow => unreachable!(),
        }
    }
    let mut g = c.benchmark_group("hotpath/region_lookup");
    g.bench_function("hit", |b| {
        let mut page = 0u64;
        b.iter(|| {
            page = (page + 2) % 1024;
            store.contains(black_box(Addr(page * PAGE_SIZE)))
        });
    });
    g.bench_function("miss", |b| {
        let mut page = 0u64;
        b.iter(|| {
            page = (page + 2) % 1024;
            store.contains(black_box(Addr((page + 1) * PAGE_SIZE)))
        });
    });
    g.finish();
}

/// Directory accesses streaming over many pages: every store walks the
/// per-page Owned/Ward block-mask index.
fn dir_access(c: &mut Criterion) {
    let mut sys = CoherenceSystem::new(
        Topology::new(2, 4),
        LatencyModel::xeon_gold_6126(),
        CacheConfig::paper(4),
        ProtocolId::Mesi,
    );
    let mut a = 0u64;
    c.bench_function("hotpath/dir_store_stream", |b| {
        b.iter(|| {
            a = (a + 64) % (256 * PAGE_SIZE);
            sys.store(0, black_box(Addr(a)), &[1]);
            sys.store(5, black_box(Addr(a)), &[2]);
        });
    });
}

/// Backing-memory block reads across a wide address range: the page-table
/// lookup behind every LLC miss.
fn memory_access(c: &mut Criterion) {
    let mut mem = Memory::new();
    for page in 0..512u64 {
        mem.write_bytes(Addr(page * PAGE_SIZE), &[page as u8; 64]);
    }
    let mut a = 0u64;
    c.bench_function("hotpath/memory_read_block", |b| {
        b.iter(|| {
            a = (a + PAGE_SIZE + 64) % (512 * PAGE_SIZE);
            mem.read_block(black_box(Addr(a).block()))
        });
    });
}

/// End-to-end replay of the baseline kernels (tiny traces) under both
/// protocols — the number `bench_baseline` tracks, in criterion form.
fn replay(c: &mut Criterion) {
    let machine = MachineConfig::dual_socket().with_cores(4);
    for &bench in warden_bench::hotpath::KERNELS {
        let program = bench.build(Scale::Tiny);
        let name = format!("hotpath/replay/{}", bench.name());
        let mut g = c.benchmark_group(&name);
        g.bench_function("mesi", |b| {
            b.iter(|| simulate(&program, &machine, ProtocolId::Mesi))
        });
        g.bench_function("warden", |b| {
            b.iter(|| simulate(&program, &machine, ProtocolId::Warden))
        });
        g.finish();
    }
}

criterion_group!(benches, region_lookup, dir_access, memory_access, replay);
criterion_main!(benches);
