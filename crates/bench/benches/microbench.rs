//! Criterion microbenchmarks of the simulator's hot paths: the region
//! store, the cache arrays, the backing memory, individual coherence
//! transactions, trace capture, and end-to-end replay.
//!
//! Run with `cargo bench -p warden-bench --bench microbench`; `-- --test`
//! executes every body once without the timing loops.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use warden_coherence::{
    CacheConfig, CoherenceSystem, LatencyModel, ProtocolId, RegionStore, Topology,
};
use warden_mem::{Addr, BlockAddr, CacheArray, CacheGeometry, Memory, PAGE_SIZE};
use warden_pbbs::{Bench, Scale};
use warden_rt::{trace_program, RtOptions};
use warden_sim::{pingpong, simulate, MachineConfig, Placement};

fn region_store(c: &mut Criterion) {
    c.bench_function("region_store/add_remove", |b| {
        let mut store = RegionStore::new(1024);
        b.iter(|| {
            let id = match store.add(Addr(0), Addr(PAGE_SIZE)) {
                warden_coherence::AddRegion::Added(id) => id,
                warden_coherence::AddRegion::Overflow => unreachable!(),
            };
            store.remove(black_box(id));
        });
    });
    c.bench_function("region_store/lookup", |b| {
        let mut store = RegionStore::new(1024);
        for i in 0..512u64 {
            store.add(Addr(2 * i * PAGE_SIZE), Addr((2 * i + 1) * PAGE_SIZE));
        }
        b.iter(|| store.contains(black_box(Addr(100 * PAGE_SIZE + 7))));
    });
    // The per-access "is this address WARD?" question for an address
    // between regions.
    c.bench_function("region_store/lookup_miss", |b| {
        let mut store = RegionStore::new(1024);
        for i in 0..512u64 {
            store.add(Addr(2 * i * PAGE_SIZE), Addr((2 * i + 1) * PAGE_SIZE));
        }
        let mut page = 0u64;
        b.iter(|| {
            page = (page + 2) % 1024;
            store.contains(black_box(Addr((page + 1) * PAGE_SIZE)))
        });
    });
}

fn cache_array(c: &mut Criterion) {
    c.bench_function("cache_array/insert_evict", |b| {
        let mut arr: CacheArray<u64> = CacheArray::new(CacheGeometry::new(32 * 1024, 8));
        let mut i = 0u64;
        b.iter(|| {
            arr.insert(BlockAddr(i), i);
            i += 1;
        });
    });
    c.bench_function("cache_array/hit", |b| {
        let mut arr: CacheArray<u64> = CacheArray::new(CacheGeometry::new(32 * 1024, 8));
        arr.insert(BlockAddr(42), 1);
        b.iter(|| arr.get(black_box(BlockAddr(42))).copied());
    });
}

/// Block reads across a wide address range: the page-table lookup behind
/// every LLC miss.
fn memory(c: &mut Criterion) {
    c.bench_function("memory/read_block", |b| {
        let mut mem = Memory::new();
        for page in 0..512u64 {
            mem.write_bytes(Addr(page * PAGE_SIZE), &[page as u8; 64]);
        }
        let mut a = 0u64;
        b.iter(|| {
            a = (a + PAGE_SIZE + 64) % (512 * PAGE_SIZE);
            mem.read_block(black_box(Addr(a).block()))
        });
    });
}

fn coherence(c: &mut Criterion) {
    let mk = |protocol| {
        CoherenceSystem::new(
            Topology::new(2, 12),
            LatencyModel::xeon_gold_6126(),
            CacheConfig::paper(12),
            protocol,
        )
    };
    c.bench_function("coherence/l1_hit_load", |b| {
        let mut sys = mk(ProtocolId::Mesi);
        sys.load(0, Addr(0x1000), 8);
        b.iter(|| sys.load(0, black_box(Addr(0x1000)), 8));
    });
    c.bench_function("coherence/sharing_store", |b| {
        let mut sys = mk(ProtocolId::Mesi);
        b.iter(|| {
            // Two cores trading a line: the expensive MESI path.
            sys.store(0, Addr(0x2000), &[1]);
            sys.store(13, Addr(0x2000), &[2]);
        });
    });
    c.bench_function("coherence/ward_serve", |b| {
        let mut sys = mk(ProtocolId::Warden);
        sys.add_region(Addr(0), Addr(PAGE_SIZE)).unwrap();
        b.iter(|| {
            sys.store(0, Addr(64), &[1]);
            sys.store(13, Addr(64), &[2]);
        });
    });
    c.bench_function("coherence/region_cycle_with_reconcile", |b| {
        let mut sys = mk(ProtocolId::Warden);
        b.iter(|| {
            let id = sys.add_region(Addr(0), Addr(PAGE_SIZE)).unwrap();
            sys.store(0, Addr(0), &[1]);
            sys.store(13, Addr(8), &[2]);
            sys.remove_region(id);
        });
    });
    // Stores streaming over 256 pages from two sockets: every store walks
    // the directory's per-page block masks.
    c.bench_function("coherence/dir_store_stream", |b| {
        let mut sys = mk(ProtocolId::Mesi);
        let mut a = 0u64;
        b.iter(|| {
            a = (a + 64) % (256 * PAGE_SIZE);
            sys.store(0, black_box(Addr(a)), &[1]);
            sys.store(13, black_box(Addr(a)), &[2]);
        });
    });
}

fn end_to_end(c: &mut Criterion) {
    c.bench_function("pingpong/diff_socket_1k", |b| {
        let m = MachineConfig::dual_socket();
        b.iter(|| pingpong(&m, Placement::DiffSocket, 1000));
    });
    c.bench_function("trace/tabulate_reduce_4k", |b| {
        b.iter(|| {
            trace_program("bench", RtOptions::default(), |ctx| {
                let xs = ctx.tabulate::<u64>(4096, 256, &|_c, i| i);
                let _ = ctx.reduce(0, 4096, 256, &|c, i| c.read(&xs, i), &|a, b| a + b, 0);
            })
        });
    });
    let program = Bench::MakeArray.build(Scale::Tiny);
    let machine = MachineConfig::dual_socket().with_cores(2);
    c.bench_function("replay/make_array_tiny_mesi", |b| {
        b.iter(|| simulate(&program, &machine, ProtocolId::Mesi));
    });
    c.bench_function("replay/make_array_tiny_warden", |b| {
        b.iter(|| simulate(&program, &machine, ProtocolId::Warden));
    });
}

criterion_group!(
    benches,
    region_store,
    cache_array,
    memory,
    coherence,
    end_to_end
);
criterion_main!(benches);
