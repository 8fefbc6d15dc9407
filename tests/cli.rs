//! End-to-end checks of the `huffduff` binary: argument errors and a
//! malformed trace are refused with a failing exit code, before any victim
//! is built or any output is written. Every case here fails fast, so the
//! suite stays cheap in a debug build.

use std::path::PathBuf;
use std::process::{Command, Output};

fn huffduff(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_huffduff"))
        .args(args)
        .output()
        .expect("the huffduff binary runs")
}

/// A fresh path under the cargo-provided scratch directory for this test.
fn scratch(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn unparsable_seed_fails_before_building_a_victim() {
    for (case, bad) in [
        ("hex", &["--seed", "0x1f"][..]),
        ("missing", &["--seed"][..]),
    ] {
        let out = scratch(&format!("cli_bad_seed_{case}.csv"));
        let out_arg = out.to_str().expect("utf-8 temp path");
        let mut args = vec!["trace", "--model", "vgg-s", "--out", out_arg];
        args.extend_from_slice(bad);
        let run = huffduff(&args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!run.status.success(), "{case}: accepted {bad:?}");
        assert!(stderr.contains("usage:"), "{case}: no usage line: {stderr}");
        assert!(!out.exists(), "{case}: wrote a trace for a bad seed");
    }
}

#[test]
fn analyze_rejects_an_overflowing_address_range() {
    let input = scratch("cli_overflow.csv");
    std::fs::write(&input, "0,W,0xffffffffffffffff,64\n").expect("write the trace");
    let run = huffduff(&[
        "analyze",
        "--input",
        input.to_str().expect("utf-8 temp path"),
    ]);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!run.status.success(), "an overflowing range was analyzed");
    assert!(
        stderr.contains("addr + bytes overflows"),
        "unhelpful error: {stderr}"
    );
}
