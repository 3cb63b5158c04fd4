//! `bench-snapshot` driven through its own argument handling.

use std::process::Command;

#[test]
fn out_creates_a_missing_nested_directory_and_writes_the_snapshot_there() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("snapshot_cli");
    let _ = std::fs::remove_dir_all(&root);
    let out = root.join("missing").join("nested");
    let run = Command::new(env!("CARGO_BIN_EXE_bench-snapshot"))
        .args(["--scale", "smoke", "--rounds", "1", "--out"])
        .arg(&out)
        .output()
        .expect("bench-snapshot starts");
    assert!(
        run.status.success(),
        "bench-snapshot failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let written: Vec<String> = std::fs::read_dir(&out)
        .expect("--out directory exists")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(written.len(), 1, "{written:?}");
    assert!(
        written[0].starts_with("BENCH_") && written[0].ends_with(".json"),
        "{written:?}"
    );
    std::fs::remove_dir_all(&root).expect("clean up");
}
