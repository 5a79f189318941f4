//! What the run records about its host and process, read from `/proc`.

use std::fs;

/// The host and build a result came from.
pub struct HostInfo {
    pub cores: usize,
    pub cpu: String,
    pub rustc: &'static str,
    pub commit: String,
}

impl HostInfo {
    pub fn collect() -> Self {
        HostInfo {
            cores: std::thread::available_parallelism().map_or(1, |p| p.get()),
            cpu: cpu_model().unwrap_or_else(|| "unknown".into()),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
        }
    }
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git (which would search parent directories too).
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(hash.trim().to_string());
    }
    fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
}

fn status_field(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Threads of this process right now.
pub fn threads() -> usize {
    fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// Context switches, voluntary and not, summed over the live threads.
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches").unwrap_or(0)
        })
        .sum()
}
