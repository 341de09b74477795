//! The host a result was measured on, recorded with every result.

use serde::{Map, Value};
use std::process::Command;

/// First line of a command's standard output, if it ran.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

fn text(v: Option<String>) -> Value {
    Value::Str(v.unwrap_or_else(|| "unknown".to_string()))
}

/// Core counts, CPU model, toolchain, source revision, build profile
/// and the workload seed.
pub fn describe(workload: &str, seed: u64, commit: Option<String>) -> Value {
    let mut m = Map::new();
    m.insert("workload", Value::Str(workload.to_string()));
    m.insert("seed", Value::UInt(u128::from(seed)));
    m.insert("nproc", text(command_line("nproc", &[])));
    m.insert(
        "available_parallelism",
        std::thread::available_parallelism().map_or(Value::Null, |n| Value::UInt(n.get() as u128)),
    );
    m.insert("cpu_model", text(cpu_model()));
    m.insert("rustc", text(command_line("rustc", &["--version"])));
    m.insert("git_commit", text(commit));
    m.insert(
        "build_profile",
        Value::Str(
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
    );
    Value::Object(m)
}

/// Resets the peak resident set size of process `pid` to its current
/// one, so the next reading covers only what runs after. `false` where
/// the kernel does not allow it; the peak then keeps counting from the
/// process's start.
pub fn reset_peak_rss(pid: &str) -> bool {
    std::fs::write(format!("/proc/{pid}/clear_refs"), "5").is_ok()
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
