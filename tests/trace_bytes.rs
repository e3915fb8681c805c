//! Exact guard for the trace-file encoding.
//!
//! `trace_io::write_trace` serializes a captured program: its tasks and
//! events, its stats, and its initial and final memory images (every
//! non-zero page in ascending address order, 4 KiB each). This suite pins
//! the FNV-1a-64 of the written bytes, plus their length, for every PBBS
//! kernel at tiny scale. A change to how a memory image is stored or walked
//! must leave every line untouched; only a deliberate format or workload
//! change may move one.
//!
//! To regenerate after an intentional format or workload change:
//!
//! ```console
//! $ UPDATE_TRACE_BYTES=1 cargo test --test trace_bytes
//! $ git diff tests/fixtures/trace_bytes.txt
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use warden::mem::codec::fnv1a64;
use warden::pbbs::{Bench, Scale};
use warden::rt::trace_io;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/trace_bytes.txt")
}

/// One fixture line per kernel: `<bench> len=<bytes> fnv=<hash>`.
fn measure() -> String {
    let mut out = String::new();
    for bench in Bench::ALL {
        let program = bench.build(Scale::Tiny);
        let mut buf = Vec::new();
        trace_io::write_trace(&mut buf, &program).unwrap();
        writeln!(
            out,
            "{} len={} fnv={:#018x}",
            bench.name(),
            buf.len(),
            fnv1a64(&buf)
        )
        .unwrap();
    }
    out
}

#[test]
fn trace_files_encode_exactly_the_pinned_bytes() {
    let measured = measure();
    let path = fixture_path();
    if std::env::var("UPDATE_TRACE_BYTES").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).unwrap();
        std::fs::write(&path, &measured).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let pinned: Vec<&str> = pinned.lines().collect();
    let measured: Vec<&str> = measured.lines().collect();
    assert_eq!(
        pinned.len(),
        Bench::ALL.len(),
        "one fixture line per kernel"
    );
    let drifted: Vec<String> = pinned
        .iter()
        .zip(&measured)
        .filter(|(p, m)| p != m)
        .map(|(p, m)| format!("  pinned   {p}\n  measured {m}"))
        .collect();
    assert!(
        drifted.is_empty() && pinned.len() == measured.len(),
        "{} of {} kernels drifted from the pinned trace bytes:\n{}",
        drifted.len(),
        pinned.len(),
        drifted.join("\n")
    );
}
