//! Environment hygiene and the host descriptor recorded with every result.

use serde::{Deserialize, Serialize};
use std::process::Command;

/// `MANTIS_*` knobs the crates read from the environment. The benchmark
/// pins every one of these settings itself, so a stray export in the
/// caller's shell must not reach a testbed builder.
pub const SCRUBBED_ENV: [&str; 6] = [
    "MANTIS_WORKERS",
    "MANTIS_PIPES",
    "MANTIS_SWITCHES",
    "MANTIS_REMOTE",
    "MANTIS_FLOWS",
    "MANTIS_BENCH_QUICK",
];

/// Clear every knob in [`SCRUBBED_ENV`]. Call before any testbed is built
/// and before any thread is spawned.
pub fn scrub_env() {
    for name in SCRUBBED_ENV {
        std::env::remove_var(name);
    }
}

/// Where and how a result was produced.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct HostInfo {
    pub cores: usize,
    pub rustc: String,
    pub profile: String,
    pub commit: String,
    /// 1-minute load average when the run started.
    pub load1: f64,
    /// The run started with more runnable work than cores: its timings
    /// are suspect.
    pub loaded: bool,
    pub seed: u64,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl HostInfo {
    pub fn capture(seed: u64) -> HostInfo {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let load1 = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0.0);
        // The driver's checkout is not a git repository; say so plainly.
        let commit = command_line("git", &["rev-parse", "--short=12", "HEAD"])
            .unwrap_or_else(|| "unknown".into());
        HostInfo {
            cores,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug".into()
            } else {
                "release".into()
            },
            commit,
            load1,
            loaded: load1 > cores as f64,
            seed,
        }
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
