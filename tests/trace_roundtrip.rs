//! Record/replay integration: a serialized trace must replay to the exact
//! same simulation results as the original.

use warden::pbbs::{Bench, Scale};
use warden::prelude::*;
use warden::rt::{trace_io, TraceProgram};

#[test]
fn serialized_traces_replay_identically() {
    let m = MachineConfig::dual_socket().with_cores(3);
    for bench in [Bench::Msort, Bench::Primes, Bench::Nn, Bench::Dedup] {
        let original = bench.build(Scale::Tiny);
        let mut buf = Vec::new();
        trace_io::write_trace(&mut buf, &original).unwrap();
        let restored = trace_io::read_trace(&mut buf.as_slice()).unwrap();
        restored.check_invariants().unwrap();
        for proto in [ProtocolId::Mesi, ProtocolId::Warden] {
            let a = simulate(&original, &m, proto);
            let b = simulate(&restored, &m, proto);
            assert_eq!(a.stats, b.stats, "{} {proto}", bench.name());
            assert_eq!(a.memory_image_digest, b.memory_image_digest);
            assert_eq!(a.energy, b.energy);
        }
    }
}

#[test]
fn trace_files_round_trip_through_disk() {
    let p = Bench::Tokens.build(Scale::Tiny);
    let path = std::env::temp_dir().join("warden_roundtrip_test.trace");
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
        trace_io::write_trace(&mut f, &p).unwrap();
    }
    let mut f = std::io::BufReader::new(std::fs::File::open(&path).unwrap());
    let q = trace_io::read_trace(&mut f).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(q.name, p.name);
    assert_eq!(q.stats, p.stats);
    assert_eq!(q.memory.digest(), p.memory.digest());
}

#[test]
fn traces_keep_no_growth_slack() {
    let slack = |p: &TraceProgram| -> Vec<(usize, usize, usize)> {
        p.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.events.capacity() != t.events.len())
            .map(|(i, t)| (i, t.events.len(), t.events.capacity()))
            .collect()
    };
    for bench in Bench::ALL {
        let captured = bench.build(Scale::Tiny);
        assert_eq!(slack(&captured), [], "{} captured", bench.name());
        let mut buf = Vec::new();
        trace_io::write_trace(&mut buf, &captured).unwrap();
        let decoded = trace_io::read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(slack(&decoded), [], "{} decoded", bench.name());
    }
}
