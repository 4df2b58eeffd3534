//! `oddci headend --standby` over a snapshot this build does not read
//! exits with an argument error naming the file and the version, and
//! never panics or adopts.

use oddci_live::snapshot::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use oddci_live::SNAPSHOT_FILE;
use oddci_wire::frame::crc32_parts;
use std::process::Command;

/// A version-1 container (serde_json payload) with a valid checksum.
fn version_1_snapshot() -> Vec<u8> {
    let payload = br#"{"epoch":0,"taken_at_us":0,"shards":[]}"#;
    let mut bytes = SNAPSHOT_MAGIC.to_vec();
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(payload);
    let crc = crc32_parts(&[&bytes[4..]]);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

#[test]
fn standby_refuses_a_version_1_snapshot_cleanly() {
    assert_eq!(SNAPSHOT_VERSION, 2);
    let dir = std::env::temp_dir().join(format!("oddci-cli-standby-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join(SNAPSHOT_FILE), version_1_snapshot()).expect("write snapshot");

    let out = Command::new(env!("CARGO_BIN_EXE_oddci"))
        .args([
            "headend",
            "--listen",
            "127.0.0.1:0",
            "--pnas",
            "1",
            "--standby",
        ])
        .arg(&dir)
        .output()
        .expect("oddci runs");
    let _ = std::fs::remove_dir_all(&dir);

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "an argument error: {stderr}");
    assert!(stderr.contains("cannot read snapshot"), "{stderr}");
    assert!(
        stderr.contains("unsupported snapshot version 1 (this build reads 2)"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
