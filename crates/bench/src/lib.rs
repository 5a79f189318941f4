//! Experiment harnesses reproducing the paper's figures and claims.
//!
//! This crate hosts no library logic of its own — see the `src/bin/`
//! binaries (one per experiment, mapped onto the paper's figures and tables
//! in `docs/ARCHITECTURE.md`) and the Criterion benches under `benches/`.
//!
//! Shared helpers for the binaries live here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fastbft_sim::SimDuration;

/// The Δ used across the experiment binaries.
pub const DELTA: SimDuration = SimDuration::DELTA;

/// Cores this process may run on, as recorded in the `--json` snapshots.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The host CPU's model name from `/proc/cpuinfo`, or `"unknown"` where
/// that file is absent.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Renders a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Renders a markdown-style header + separator.
pub fn header(cells: &[&str]) -> String {
    let head = format!("| {} |", cells.join(" | "));
    let sep = format!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    format!("{head}\n{sep}")
}
