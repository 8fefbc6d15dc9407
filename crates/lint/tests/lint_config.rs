//! Pins the native-lint configuration that carries the project invariants
//! (no panics in library code, no wall-clock reads, no bare threads,
//! `unsafe` only in `hd_tensor::simd`) by reading the files clippy reads,
//! so a crate cannot silently drop out of coverage. CI runs clippy itself.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    hd_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The directory of every `crates/*` member.
fn members(root: &Path) -> Vec<PathBuf> {
    let dirs = std::fs::read_dir(root.join("crates")).expect("read crates/");
    let mut dirs: Vec<PathBuf> = dirs.map(|e| e.expect("dir entry").path()).collect();
    dirs.retain(|d| d.join("Cargo.toml").is_file());
    dirs.sort();
    dirs
}

#[test]
fn every_library_denies_panics() {
    let root = root();
    // Every member but the bench harness is library code, plus the root crate.
    let mut libs: Vec<PathBuf> = members(&root)
        .into_iter()
        .filter(|d| !d.ends_with("bench"))
        .map(|d| d.join("src/lib.rs"))
        .collect();
    libs.push(root.join("src/lib.rs"));
    assert!(libs.len() >= 11, "library set suspiciously small: {libs:?}");
    let deny = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]";
    for lib in libs {
        let src = read(&lib);
        assert!(
            src.lines().any(|l| l == deny),
            "{} lacks `{deny}`",
            lib.display()
        );
    }
}

#[test]
fn every_member_manifest_opts_into_workspace_lints() {
    let root = root();
    let ws = read(&root.join("Cargo.toml"));
    for entry in [
        "[workspace.lints.rust]\nunsafe_code = \"deny\"\n",
        "\nundocumented_unsafe_blocks = \"deny\"\n",
        "\nallow_attributes = \"deny\"\n",
        "\nallow_attributes_without_reason = \"deny\"\n",
    ] {
        assert!(ws.contains(entry), "workspace manifest lacks {entry:?}");
    }
    let manifests = members(&root).into_iter().map(|d| d.join("Cargo.toml"));
    for m in manifests.chain([root.join("Cargo.toml")]) {
        let opted_in = read(&m).contains("\n[lints]\nworkspace = true\n");
        assert!(
            opted_in,
            "{} does not opt into the workspace lints",
            m.display()
        );
    }
}

#[test]
fn clippy_toml_bans_wallclock_and_bare_threads() {
    let cfg = read(&root().join("clippy.toml"));
    for entry in [
        "\"std::time::Instant::now\"",
        "\"std::thread::spawn\"",
        "\"std::time::SystemTime\"",
        "allow-unwrap-in-tests = true",
        "allow-expect-in-tests = true",
        "allow-panic-in-tests = true",
    ] {
        assert!(cfg.contains(entry), "clippy.toml lacks {entry}");
    }
}
