//! Stamps the binary with the compiler version and, when the benchmark is
//! built inside a git checkout, the commit it was built from.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    println!("cargo:rustc-env=STEALBENCH_RUSTC={version}");

    // Read the commit straight from `.git` (no `git` process, which could
    // wander into an enclosing repository). Only paths that exist are
    // watched: a missing watched path would rerun this script every build.
    let git = Path::new("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok();
    let mut watched = vec!["build.rs".to_string()];
    let commit = match head.as_deref().map(str::trim) {
        Some(h) if h.starts_with("ref: ") => {
            let reference = &h["ref: ".len()..];
            watched.push("../.git/HEAD".into());
            let loose = git.join(reference);
            if loose.exists() {
                watched.push(format!("../.git/{reference}"));
            }
            std::fs::read_to_string(&loose)
                .ok()
                .map(|s| s.trim().to_string())
                .or_else(|| packed_ref(git, reference))
        }
        Some(h) if !h.is_empty() => {
            watched.push("../.git/HEAD".into());
            Some(h.to_string())
        }
        _ => None,
    };
    if git.join("packed-refs").exists() {
        watched.push("../.git/packed-refs".into());
    }
    for path in watched {
        println!("cargo:rerun-if-changed={path}");
    }
    println!(
        "cargo:rustc-env=STEALBENCH_COMMIT={}",
        commit.unwrap_or_else(|| "unknown".to_string())
    );
}

fn packed_ref(git: &Path, reference: &str) -> Option<String> {
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
}
