//! `mp5serve --restore` at the process boundary: a snapshot whose
//! checksum holds over a state no switch can run is a diagnostic and
//! exit 1, never a panic.

use std::process::Command;

/// FNV-1a 64, the `@checksum` trailer of a `v1` snapshot such as the
/// golden one edited here: `v1` files still load, so the forgery stays
/// `v1`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn an_index_map_naming_a_missing_pipeline_is_rejected() {
    let golden = format!(
        "{}/../../tests/golden/plain.snap",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(golden).expect("the golden snapshot");
    let body = &text[..text.rfind("@checksum ").expect("a trailer")];
    // Pipeline 9 of a 4-pipeline switch owns index 3 of register 0.
    let body = body.replacen("\"index_map\":[[0,1,2,3]", "\"index_map\":[[0,1,2,9]", 1);
    assert!(body.contains("[[0,1,2,9]"), "the edit applies");
    let path = std::env::temp_dir().join(format!("mp5serve-bad-{}.snap", std::process::id()));
    let sum = fnv1a64(body.as_bytes());
    std::fs::write(&path, format!("{body}@checksum {sum:016x}\n")).expect("temp file");
    let out = Command::new(env!("CARGO_BIN_EXE_mp5serve"))
        .arg("--restore")
        .arg(&path)
        .output()
        .expect("mp5serve starts");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("restore rejected"), "{stderr}");
}
