//! Property tests of the result store's on-disk entry codec: every result
//! record survives encode→decode exactly, and every truncation or byte flip of a
//! persisted [`DiskEntry`] decodes to a typed error, never a panic and never
//! wrong data. This is the quarantine-and-continue contract of the store's
//! fsck scan.

use proptest::prelude::*;
use warden::bench::store::DiskEntry;
use warden::coherence::ProtocolId;
use warden::sim::RunKey;

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
    let outcome = proptest::collection::vec(any::<u8>(), 0..96);
    (run_key(), outcome).prop_map(|(key, outcome)| DiskEntry { key, outcome })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
