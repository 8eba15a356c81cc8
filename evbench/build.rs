//! Records the toolchain and commit the benchmark was built from, for
//! the host block of every result.

use std::process::Command;

fn output_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
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
    // Outside a git checkout there is no commit to name.
    let commit = output_of("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=EVBENCH_RUSTC={version}");
    println!("cargo:rustc-env=EVBENCH_COMMIT={commit}");
}
