//! Stamps the binary with the compiler version and the source revision, so
//! every result line names what produced it.

use std::process::Command;

fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = output_of(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    // A source checkout without git metadata builds as revision "unknown".
    let revision = output_of("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={revision}");
    println!("cargo:rerun-if-changed=build.rs");
    // Only watch git metadata that exists: a missing watched path would
    // rerun this script (and relink the benchmark) on every invocation.
    for watched in ["../.git/HEAD", "../.git/refs/heads"] {
        if std::path::Path::new(watched).exists() {
            println!("cargo:rerun-if-changed={watched}");
        }
    }
}
