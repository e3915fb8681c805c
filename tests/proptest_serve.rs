//! Property tests of the `warden-serve` wire protocol and the result
//! store's on-disk entry codec: every request and response variant must survive
//! encode→decode exactly; every strict prefix of a valid payload must fail
//! with a typed [`CodecError`] (never panic, never silently decode to
//! something else); every strict prefix of a complete *frame* must fail
//! [`read_frame`] with a typed error rather than yield a frame; and every
//! truncation or byte flip of a persisted [`DiskEntry`] must decode to a
//! typed [`CheckpointError`] — the quarantine-and-continue contract of the
//! fsck scan.

use proptest::prelude::*;
use warden::coherence::ProtocolId;
use warden::mem::codec::CodecError;
use warden::obs::{Hist, MetricsRegistry};
use warden::pbbs::{Bench, Scale};
use warden::serve::proto::{read_frame, write_frame, DEFAULT_MAX_FRAME};
use warden::serve::{
    DiskBody, DiskEntry, ErrorKind, FrameEvent, MachinePreset, MachineSpec, OutcomeSummary,
    Request, Response, ServeError, ServedFrom, SimRequest,
};
use warden::sim::{RunKey, SimStats};

fn bench() -> impl Strategy<Value = Bench> {
    (0usize..Bench::ALL.len()).prop_map(|i| Bench::ALL[i])
}

fn scale() -> impl Strategy<Value = Scale> {
    prop_oneof![Just(Scale::Tiny), Just(Scale::Paper)]
}

fn protocol() -> impl Strategy<Value = ProtocolId> {
    prop_oneof![
        Just(ProtocolId::Msi),
        Just(ProtocolId::Mesi),
        Just(ProtocolId::Warden)
    ]
}

fn machine_spec() -> impl Strategy<Value = MachineSpec> {
    let preset = prop_oneof![
        Just(MachinePreset::SingleSocket),
        Just(MachinePreset::DualSocket),
        Just(MachinePreset::Disaggregated),
        any::<u32>().prop_map(MachinePreset::ManySocket),
    ];
    // The codec must round-trip impossible machines too — rejecting them is
    // the server's job (`to_machine`), not the wire's.
    (preset, any::<bool>(), any::<u32>()).prop_map(|(preset, has_cores, cores)| MachineSpec {
        preset,
        cores_per_socket: has_cores.then_some(cores),
    })
}

/// A short machine/message string from a fixed safe alphabet (the vendored
/// proptest has no regex strategies).
fn short_string() -> impl Strategy<Value = String> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789- _.!";
    proptest::collection::vec(0usize..ALPHABET.len(), 0..24)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i] as char).collect())
}

fn sim_request() -> impl Strategy<Value = SimRequest> {
    (bench(), scale(), machine_spec(), protocol(), any::<bool>()).prop_map(
        |(bench, scale, machine, protocol, check)| SimRequest {
            bench,
            scale,
            machine,
            protocol,
            check,
        },
    )
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        sim_request().prop_map(Request::Simulate),
        Just(Request::Metrics),
    ]
}

fn stats() -> impl Strategy<Value = SimStats> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(cycles, instructions, memory_accesses, tasks, steals)| SimStats {
                cycles,
                instructions,
                memory_accesses,
                tasks,
                steals,
                ..SimStats::default()
            },
        )
}

fn summary() -> impl Strategy<Value = OutcomeSummary> {
    (
        protocol(),
        short_string(),
        stats(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(protocol, machine, stats, memory_image_digest, region_peak, outcome_digest)| {
                OutcomeSummary {
                    protocol,
                    machine,
                    stats,
                    memory_image_digest,
                    region_peak,
                    outcome_digest,
                }
            },
        )
}

fn registry() -> impl Strategy<Value = MetricsRegistry> {
    (
        proptest::collection::vec(any::<u64>(), 0..6),
        proptest::collection::vec(any::<u64>(), 0..16),
    )
        .prop_map(|(counters, samples)| {
            let mut reg = MetricsRegistry::new();
            for (i, v) in counters.iter().enumerate() {
                reg.set_counter(&format!("serve.counter.{i}"), *v);
            }
            let mut h = Hist::new();
            for v in &samples {
                h.add(*v);
            }
            reg.set_hist("serve_latency_us", h);
            reg
        })
}

fn served_from() -> impl Strategy<Value = ServedFrom> {
    (0usize..ServedFrom::ALL.len()).prop_map(|i| ServedFrom::ALL[i])
}

fn run_key() -> impl Strategy<Value = RunKey> {
    let protocol = (0usize..ProtocolId::ALL.len()).prop_map(|i| ProtocolId::ALL[i]);
    (any::<u64>(), any::<u64>(), protocol, any::<u64>()).prop_map(
        |(program, machine, protocol, options)| RunKey {
            program,
            machine,
            protocol,
            options,
        },
    )
}

fn disk_entry() -> impl Strategy<Value = DiskEntry> {
    let bytes = || proptest::collection::vec(any::<u8>(), 0..96);
    let body = prop_oneof![
        (bytes(), any::<u64>()).prop_map(|(outcome, compute_us)| DiskBody::Result {
            outcome,
            compute_us
        }),
        (any::<u64>(), bytes()).prop_map(|(steps, frame)| DiskBody::Checkpoint { steps, frame }),
    ];
    (run_key(), body).prop_map(|(key, body)| DiskEntry { key, body })
}

fn response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Pong),
        (summary(), served_from()).prop_map(|(summary, served)| Response::Outcome {
            summary: Box::new(summary),
            served
        }),
        (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
            |(queue_len, queue_cap, retry_after_ms)| Response::Busy {
                queue_len,
                queue_cap,
                retry_after_ms
            }
        ),
        (any::<u64>(), any::<u64>()).prop_map(|(len, max)| Response::TooLarge { len, max }),
        Just(Response::Draining),
        (
            prop_oneof![Just(ErrorKind::BadRequest), Just(ErrorKind::Internal)],
            short_string()
        )
            .prop_map(|(kind, msg)| Response::Error { kind, msg }),
        registry().prop_map(Response::Metrics),
        (any::<u64>(), any::<u64>()).prop_map(|(deadline_ms, elapsed_ms)| {
            Response::DeadlineExceeded {
                deadline_ms,
                elapsed_ms,
            }
        }),
    ]
}

/// Full payload decodes back to the value; every strict prefix fails with
/// a typed error.
fn assert_payload_roundtrip<T: PartialEq + std::fmt::Debug>(
    value: &T,
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, CodecError>,
) {
    let back = decode(bytes).expect("full payload decodes");
    assert_eq!(&back, value);
    for cut in 0..bytes.len() {
        match decode(&bytes[..cut]) {
            Err(_) => {}
            Ok(early) => panic!(
                "strict prefix ({cut} of {} bytes) decoded to {early:?}",
                bytes.len()
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn requests_roundtrip_and_reject_prefixes(req in request()) {
        assert_payload_roundtrip(&req, &req.encode(), Request::decode);
    }

    #[test]
    fn responses_roundtrip_and_reject_prefixes(resp in response()) {
        assert_payload_roundtrip(&resp, &resp.encode(), Response::decode);
    }

    #[test]
    fn frames_roundtrip_and_reject_prefixes(req in request()) {
        let payload = req.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload, DEFAULT_MAX_FRAME).unwrap();
        match read_frame(&mut &wire[..], DEFAULT_MAX_FRAME).unwrap() {
            FrameEvent::Frame(p) => prop_assert_eq!(p, payload),
            other => return Err(TestCaseError::fail(format!("expected frame, got {other:?}"))),
        }
        // Every strict prefix is a torn frame: a typed I/O error, never a
        // frame, never a panic. The empty prefix alone is a clean EOF.
        for cut in 0..wire.len() {
            match read_frame(&mut &wire[..cut], DEFAULT_MAX_FRAME) {
                Ok(FrameEvent::Eof) => prop_assert_eq!(cut, 0, "EOF mid-frame"),
                Ok(FrameEvent::Frame(_)) => {
                    return Err(TestCaseError::fail(format!(
                        "prefix of {cut} bytes yielded a frame"
                    )))
                }
                Ok(FrameEvent::Idle) => {
                    return Err(TestCaseError::fail("in-memory reader cannot be idle"))
                }
                Err(ServeError::Io(e)) => {
                    prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
                }
                Err(other) => {
                    return Err(TestCaseError::fail(format!(
                        "prefix of {cut} bytes: unexpected error {other}"
                    )))
                }
            }
        }
    }

    #[test]
    fn corrupt_tags_never_panic(req in request(), pos in any::<u16>(), byte in any::<u8>()) {
        let mut bytes = req.encode();
        let i = pos as usize % bytes.len();
        bytes[i] = byte;
        // Decoding corrupted bytes may legitimately succeed (the flip can
        // be a no-op or still-valid encoding); it must simply never panic.
        let _ = Request::decode(&bytes);
    }

    #[test]
    fn disk_entries_roundtrip_and_every_prefix_is_a_typed_error(entry in disk_entry()) {
        let image = entry.encode();
        prop_assert_eq!(DiskEntry::decode(&image).expect("full image decodes"), entry);
        // The durability contract behind the fsck scan: a write torn at
        // ANY byte boundary decodes to a typed error — quarantine and
        // continue — never a panic, never a wrong entry.
        for cut in 0..image.len() {
            prop_assert!(
                DiskEntry::decode(&image[..cut]).is_err(),
                "a {cut}-byte prefix of a {}-byte entry decoded",
                image.len()
            );
        }
    }

    #[test]
    fn corrupt_disk_entries_are_typed_errors_never_wrong_data(
        entry in disk_entry(),
        pos in any::<u32>(),
        byte in any::<u8>(),
    ) {
        let mut image = entry.encode();
        let i = pos as usize % image.len();
        let original = image[i];
        image[i] = byte;
        match DiskEntry::decode(&image) {
            // The whole image — header, payload and footer — is under the
            // frame checksum, so any real flip is caught.
            Err(_) => prop_assert_ne!(byte, original),
            Ok(back) => {
                prop_assert_eq!(byte, original);
                prop_assert_eq!(back, entry);
            }
        }
    }
}
