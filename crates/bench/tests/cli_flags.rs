//! The harness binaries reject a valid flag they do not read, with the
//! usage exit code, before doing any work.

use std::process::Command;

#[test]
fn breakdown_rejects_obs() {
    let dir = std::env::temp_dir().join(format!("warden-cli-flags-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_breakdown"))
        .arg("--obs")
        .arg(&dir)
        .output()
        .expect("breakdown starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("does not read \"--obs\""), "{stderr}");
    assert!(stderr.contains("--campaign-dir <dir>"), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(!dir.exists());
}

/// Every figure comes from one campaign over every registered protocol, so
/// `all_figures` has no protocol list to choose.
#[test]
fn all_figures_rejects_protocols() {
    let out = Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .args(["--protocols", "all"])
        .output()
        .expect("all_figures starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("does not read \"--protocols\""), "{stderr}");
    assert!(out.stdout.is_empty());
}

/// Only the atlas runs a campaign; the gate and `--replay` check specs
/// directly, so they have no campaign directory or workers to set.
#[test]
fn fuzzgen_rejects_campaign_flags_outside_the_atlas() {
    let dir = std::env::temp_dir().join(format!("warden-cli-fuzz-{}", std::process::id()));
    let token = "migratory-s0000000000000007-t4-r3-o24-f4096";
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    for args in [
        &["--fuzz-workloads", "1", "--campaign-dir", dir_arg][..],
        &["--replay", token, "--jobs", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fuzzgen"))
            .args(args)
            .output()
            .expect("fuzzgen starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("apply only to --atlas"), "{stderr}");
        assert!(out.stdout.is_empty());
    }
    assert!(!dir.exists());
}
