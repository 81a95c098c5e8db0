//! Facts about the host a result was measured on, and per-process
//! resource readings (Linux `/proc`).

use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::clock;

/// Milliseconds a fixed pure-CPU loop takes. Timed beside every sample
/// so a slow host phase shows up; other metrics are not normalised by
/// it.
pub fn calib_ms() -> f64 {
    let start = clock::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..black_box(8_000_000u32) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    clock::secs_since(start) * 1e3
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time (user + system, all threads) this process has used, in
/// seconds, at the kernel's 100 Hz accounting resolution.
pub fn cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Host description recorded with every result.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// CPU model name.
    pub cpu_model: String,
    /// Online logical CPUs.
    pub nproc: usize,
    /// `std::thread::available_parallelism` (affinity-aware).
    pub available_parallelism: usize,
    /// Commit of the measured tree, or `unknown` outside a git checkout.
    pub git_commit: String,
}

impl HostFacts {
    /// Reads the host facts.
    pub fn read() -> HostFacts {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
        let nproc = cpuinfo
            .lines()
            .filter(|l| l.starts_with("processor"))
            .count();
        HostFacts {
            cpu_model,
            nproc,
            available_parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
            git_commit: git_commit(),
        }
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"cpu_model": "{}", "nproc": {}, "available_parallelism": {}, "git_commit": "{}"}}"#,
            self.cpu_model.replace(['"', '\\'], "?"),
            self.nproc,
            self.available_parallelism,
            self.git_commit
        )
    }
}

/// `HEAD` of the current directory's checkout. Git is asked only when
/// the directory is itself a checkout, so it never reads a repository
/// above it.
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| s.chars().all(|c| c.is_ascii_hexdigit()) && !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
