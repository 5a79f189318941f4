//! Commit-path latency percentiles, read off the metrics plane.
//!
//! Where `tcp_latency` times a single decision from the outside with a
//! stopwatch, this experiment reads the *internal* per-slot latency
//! histograms (`commit_latency_fast_us` / `commit_latency_slow_us`,
//! recorded between slot open and decision on each replica) and reports
//! cluster-wide percentiles per commit path — the paper's fast-vs-slow
//! distinction as a deployment would actually observe it:
//!
//! * `n4_fast` — the minimal `n = 4, f = t = 1` system, clean run: the
//!   slow path is off (`t = f`), every decision is a 2-delay fast commit;
//! * `n7_fast` — `n = 7, f = 2, t = 1`, clean run: both paths armed and
//!   racing. The fast quorum (`n − t = 6`) is reachable, but the slow
//!   quorum (5) is smaller, so on an unevenly scheduled runner the slow
//!   path's extra phase can finish before the sixth ack lands — the two
//!   histograms show how the race actually splits;
//! * `n7_slow` — the same system with two seats replaced by silent
//!   actors: only 5 live replicas remain, the fast quorum is unreachable
//!   and the slow quorum (`⌈(n+f+1)/2⌉ = 5`) is exactly reachable, so
//!   **every** decision is a 3-delay slow commit. A slot first-led by a
//!   silent seat also needs a view change. Once a node has applied
//!   `DEFAULT_PIPELINE_DEPTH` (16) slots it counts the dead seats as
//!   silent and starts that view change the moment such a slot opens;
//!   the slots opened before that wait out the full view timeout, and
//!   those are what the percentile tail shows.
//!
//! `--json` switches the output to a machine-readable JSON object that
//! also names the host (cores and CPU model); `BENCH_latency.json` is a
//! committed snapshot of it:
//!
//! ```bash
//! cargo run --release -p fastbft_bench --bin commit_latency -- --json
//! ```

use std::time::Duration;

use fastbft_bench::{cpu_model, header, host_cores, row};
use fastbft_core::replica::ReplicaOptions;
use fastbft_crypto::KeyDirectory;
use fastbft_obs::{Histogram, MetricsRegistry};
use fastbft_runtime::spawn;
use fastbft_sim::{ScriptedActor, SimDuration};
use fastbft_smr::runtime::{smr_actors_metered, SmrClusterHandle};
use fastbft_smr::CountingMachine;
use fastbft_types::{Config, ProcessId, Value};

const COMMANDS: u64 = 48;
const TICK: Duration = Duration::from_micros(50);

#[derive(Clone, Copy)]
struct Scenario {
    name: &'static str,
    n: usize,
    f: usize,
    /// Seats replaced by silent actors before spawn, counted from the
    /// back of the seat order.
    silent: usize,
    /// The commit path this scenario is constructed to exercise.
    path: &'static str,
    seed: u64,
}

const SCENARIOS: [Scenario; 3] = [
    Scenario {
        name: "n4_fast",
        n: 4,
        f: 1,
        silent: 0,
        path: "fast",
        seed: 41,
    },
    Scenario {
        name: "n7_fast",
        n: 7,
        f: 2,
        silent: 0,
        path: "fast",
        seed: 71,
    },
    Scenario {
        name: "n7_slow",
        n: 7,
        f: 2,
        silent: 2,
        path: "slow",
        seed: 72,
    },
];

/// Cluster-wide percentile summary of one commit path's latency
/// histogram (all replicas' samples merged).
struct PathSummary {
    samples: u64,
    mean_us: u64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    p999_us: u64,
    max_us: u64,
}

fn summarize(merged: &Histogram) -> PathSummary {
    let samples = merged.count();
    PathSummary {
        samples,
        mean_us: merged.sum().checked_div(samples).unwrap_or(0),
        p50_us: merged.quantile(0.5),
        p90_us: merged.quantile(0.9),
        p99_us: merged.quantile(0.99),
        p999_us: merged.quantile(0.999),
        max_us: merged.max(),
    }
}

struct Outcome {
    scenario: Scenario,
    fast: PathSummary,
    slow: PathSummary,
}

fn run_scenario(s: Scenario) -> Outcome {
    let cfg = Config::new(s.n, s.f, 1).unwrap();
    let (pairs, dir) = KeyDirectory::generate(s.n, s.seed);
    let idle = Value::from_u64(u64::MAX);
    // Clean runs get the throughput bench's generous timeout so the
    // percentiles measure the commit path, not spurious view-change churn
    // on a loaded runner; the degraded run keeps the default short timeout
    // so slots first-led by a dead seat recover (and are honestly counted
    // in the slow-path tail).
    let opts = if s.silent == 0 {
        ReplicaOptions {
            base_timeout: SimDuration(SimDuration::DELTA.0 * 200),
            ..ReplicaOptions::default()
        }
    } else {
        ReplicaOptions::default()
    };
    let registry = MetricsRegistry::new(s.n);
    let mut actors = smr_actors_metered(
        cfg,
        &pairs,
        &dir,
        CountingMachine::new(),
        vec![Vec::new(); s.n],
        idle.clone(),
        opts,
        1,
        None,
        &registry,
    );
    // Silent seats are inert from the first tick — unlike stopping a
    // spawned seat, no startup slot can sneak through on the fast path
    // while they are still live.
    for seat in actors.iter_mut().skip(s.n - s.silent) {
        *seat = Box::new(ScriptedActor::silent());
    }
    let mut cluster = SmrClusterHandle::new(spawn(actors, TICK), s.n, idle);
    cluster.attach_metrics(registry.clone());
    let live: Vec<ProcessId> = cfg.processes().take(s.n - s.silent).collect();

    for i in 0..COMMANDS {
        cluster.submit(Value::from_u64(i));
    }
    assert!(
        cluster.await_commands(live.clone(), COMMANDS, Duration::from_secs(120)),
        "{}: cluster did not apply all {COMMANDS} commands",
        s.name
    );
    assert!(cluster.logs_agree(), "{}: log divergence", s.name);
    cluster.shutdown();

    // Merge the per-replica histograms into one cluster-wide distribution
    // per path.
    let fast = Histogram::new();
    let slow = Histogram::new();
    for i in 0..s.n {
        fast.merge_from(&registry.metrics(i).commit_latency_fast_us);
        slow.merge_from(&registry.metrics(i).commit_latency_slow_us);
    }

    // The construction forces the path: with fewer than n − t live
    // replicas a fast-path decision is impossible, and n = 4 (t = f) has
    // the slow path disabled outright.
    if s.silent > 0 {
        assert_eq!(fast.count(), 0, "{}: impossible fast-path commit", s.name);
        assert!(slow.count() > 0, "{}: no slow-path samples", s.name);
    } else {
        assert!(fast.count() > 0, "{}: no fast-path samples", s.name);
        if s.n == 4 {
            assert_eq!(slow.count(), 0, "{}: slow path is off at t = f", s.name);
        }
    }

    Outcome {
        scenario: s,
        fast: summarize(&fast),
        slow: summarize(&slow),
    }
}

fn json_path(p: &PathSummary) -> String {
    format!(
        "{{\"samples\": {}, \"mean_us\": {}, \"p50_us\": {}, \"p90_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \"max_us\": {}}}",
        p.samples, p.mean_us, p.p50_us, p.p90_us, p.p99_us, p.p999_us, p.max_us
    )
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let outcomes: Vec<Outcome> = SCENARIOS.into_iter().map(run_scenario).collect();

    if json {
        println!("{{");
        println!("  \"bench\": \"commit_latency\",");
        println!("  \"version\": 2,");
        println!(
            "  \"config\": {{\"commands\": {COMMANDS}, \"tick_us\": {}, \"batch\": 1, \"host_cores\": {}, \"cpu_model\": {:?}}},",
            TICK.as_micros(),
            host_cores(),
            cpu_model()
        );
        println!(
            "  \"unit_note\": \"per-slot open-to-decision latency in us, cluster-wide merge of per-replica histograms; quantiles are upper bounds within 1/16 relative error\","
        );
        println!("  \"scenarios\": [");
        for (i, o) in outcomes.iter().enumerate() {
            let comma = if i + 1 < outcomes.len() { "," } else { "" };
            println!(
                "    {{\"name\": \"{}\", \"n\": {}, \"f\": {}, \"t\": 1, \"silent_seats\": {}, \"path\": \"{}\", \"fast\": {}, \"slow\": {}}}{comma}",
                o.scenario.name,
                o.scenario.n,
                o.scenario.f,
                o.scenario.silent,
                o.scenario.path,
                json_path(&o.fast),
                json_path(&o.slow)
            );
        }
        println!("  ]");
        println!("}}");
        return;
    }

    println!("# commit-path latency percentiles from the metrics plane");
    println!("# {COMMANDS} commands per scenario, batch 1, channel transport\n");
    println!(
        "{}",
        header(&[
            "scenario",
            "path",
            "samples",
            "mean",
            "p50",
            "p99",
            "p999",
            "max (µs)",
        ])
    );
    for o in &outcomes {
        for (path, p) in [("fast", &o.fast), ("slow", &o.slow)] {
            if p.samples == 0 {
                continue;
            }
            println!(
                "{}",
                row(&[
                    o.scenario.name.to_string(),
                    path.to_string(),
                    p.samples.to_string(),
                    p.mean_us.to_string(),
                    p.p50_us.to_string(),
                    p.p99_us.to_string(),
                    p.p999_us.to_string(),
                    p.max_us.to_string(),
                ])
            );
        }
    }
    println!("\nshape: the fast path decides in two message delays, the slow path in");
    println!("three — and with the fast quorum unreachable (n7_slow) the tail also");
    println!("carries the view timeouts of slots first-led by a silent seat before");
    println!("the seats count as silent. (JSON for tooling: rerun with --json;");
    println!("committed snapshot: BENCH_latency.json)");
}
