//! E9 — replicated state machine throughput: simulated and wall-clock.
//!
//! Two measurements backing the paper's §1.1 motivation (SMR is the reason
//! consensus latency matters):
//!
//! 1. simulated SMR throughput (commands committed per Δ) for the minimal
//!    `f = t = 1` system and a larger `f = 2, t = 1` system;
//! 2. **wall-clock commands/sec on the thread runtime**, sweeping batch
//!    size {1, 8, 64} over both transports — in-process channels and
//!    `fastbft-net`'s authenticated loopback TCP — plus a wider
//!    `n ∈ {4, 7} × payload {8 B, 1 KiB}` sweep at batch {1, 64}, and an
//!    **adaptive-batching** head-to-head: the same live single-command
//!    submission stream over TCP through fixed batch 1 and through the
//!    self-tuning batcher with one apply worker.
//!
//! Methodology: every wall-clock configuration first scales its workload
//! until a run takes at least [`MIN_ELAPSED_MS`] (timing a sub-50 ms run
//! on a shared runner mostly measures scheduler noise), then runs
//! [`TRIALS`] times at that size. The **best** trial is the headline
//! number — the machine this runs on (a shared 1-core container in CI)
//! suffers multi-× CPU-availability swings, and best-of-k reports the
//! pipeline's capability rather than the noisiest neighbor — with the
//! **median** alongside as the noise-resistant central tendency.
//! The clock starts after listeners bind and threads spawn; lazy first
//! dials are counted (they are part of protocol throughput).
//!
//! `--json` switches the output to a machine-readable JSON object
//! (`BENCH_smr_throughput.json` is a committed snapshot of it), and
//! `--shards a,b,c` overrides the default {1, 2, 4} multi-group sweep —
//! useful for probing scaling on a big machine without editing the bin:
//!
//! ```bash
//! cargo run --release -p fastbft_bench --bin smr_throughput -- --json
//! cargo run --release -p fastbft_bench --bin smr_throughput -- --shards 1,4,8
//! ```

use std::time::{Duration, Instant};

use fastbft_bench::{header, row};
use fastbft_core::replica::ReplicaOptions;
use fastbft_crypto::KeyDirectory;
use fastbft_net::tcp_seats;
use fastbft_runtime::{spawn, spawn_with};
use fastbft_sim::{SimDuration, SimTime};
use fastbft_smr::runtime::{smr_actors, smr_actors_configured, SmrClusterHandle};
use fastbft_smr::{
    AdaptiveBatch, Batching, CountingMachine, KvCommand, ShardedKvHandle, SmrSimCluster,
};
use fastbft_types::{Config, Value};

/// Starting workload per configuration; the calibration loop scales it
/// ×4 until a run clears the work floor.
const COMMANDS: u64 = 256;
/// Minimum elapsed time for a trustworthy measurement (see module docs).
const MIN_ELAPSED_MS: f64 = 50.0;
/// Calibration ceiling — a configuration fast enough to finish 32k
/// commands under the floor is reported at this size anyway.
const MAX_COMMANDS: u64 = 32_768;
/// Shard counts for the multi-group sweep (1 = the single-group
/// baseline the scaling ratios are computed against).
const SHARD_SWEEP: [usize; 3] = [1, 2, 4];
const TICK: Duration = Duration::from_micros(50);
const BATCHES: [usize; 3] = [1, 8, 64];
/// Wall-clock trials per configuration; the best is reported, the median
/// retained (see the methodology note in the module docs).
const TRIALS: usize = 3;
/// Apply workers on the adaptive head-to-head point (0 everywhere else —
/// the inline default).
const ADAPTIVE_APPLY_WORKERS: usize = 1;
/// The committed PR-3 baseline this PR's pipeline is measured against:
/// TCP loopback, n = 4, 8-byte commands, batch 1.
const PR3_TCP_BATCH1_BASELINE: f64 = 6835.0;
/// The committed PR-4 baselines for the protocol-hash-bound sweep points
/// (n = 7, 1 KiB commands, TCP loopback) that PR 5's digest-carried
/// statements attack: before hash-then-sign, every signature re-hashed the
/// full value bytes, so these points were flat across batch sizes.
const PR4_N7_1KIB_TCP_BATCH1_BASELINE: f64 = 367.0;
const PR4_N7_1KIB_TCP_BATCH64_BASELINE: f64 = 438.0;

fn simulated_throughput(n: usize, f: usize, t: usize, batch: usize, commands: u64) -> (u64, f64) {
    let cfg = Config::new(n, f, t).unwrap();
    let queue: Vec<Value> = (0..commands).map(Value::from_u64).collect();
    let mut cluster = SmrSimCluster::new_batched(
        cfg,
        1,
        CountingMachine::new(),
        vec![queue; n],
        Value::from_u64(u64::MAX),
        ReplicaOptions::default(),
        batch,
    );
    let report = cluster.run_until_commands(commands, SimTime(10_000_000));
    assert!(report.logs_consistent);
    (report.commands_everywhere, report.commands_per_delta)
}

#[derive(Clone, Copy, PartialEq)]
enum TransportKind {
    Channel,
    TcpLoopback,
}

impl TransportKind {
    fn label(self) -> &'static str {
        match self {
            TransportKind::Channel => "channel",
            TransportKind::TcpLoopback => "tcp_loopback",
        }
    }
}

/// One wall-clock configuration of the runtime sweep.
#[derive(Clone, Copy)]
struct SweepPoint {
    n: usize,
    f: usize,
    payload_bytes: usize,
    kind: TransportKind,
    batch: usize,
}

struct Throughput {
    commands_per_sec: f64,
    elapsed_ms: f64,
}

/// A command value of exactly `payload_bytes` (≥ 8): a distinct `u64`
/// counter followed by zero padding.
fn payload_value(i: u64, payload_bytes: usize) -> Value {
    let mut bytes = vec![0u8; payload_bytes.max(8)];
    bytes[..8].copy_from_slice(&i.to_be_bytes());
    Value::new(bytes)
}

/// The bench's wall-clock replica options: the default 8·Δ view timeout is
/// calibrated for the simulator, where a round takes exactly Δ. On the
/// wall clock (1-core runners, 16-deep slot pipeline, n² messages per
/// slot) a slot can legitimately sit longer than that behind its
/// predecessors; a throughput bench must not measure spurious view-change
/// churn, so give slots a generous timeout (failure recovery is
/// tcp_latency's and the tests' job).
fn bench_opts() -> ReplicaOptions {
    ReplicaOptions {
        base_timeout: SimDuration(SimDuration::DELTA.0 * 200),
        ..ReplicaOptions::default()
    }
}

/// Runs `commands` preloaded client commands (broadcast to every replica)
/// through an SMR cluster to full application on *all* replicas, and
/// reports commands/sec for the slowest replica.
fn one_trial(p: SweepPoint, seed: u64, commands: u64) -> Throughput {
    let cfg = Config::new(p.n, p.f, 1).unwrap();
    let (pairs, dir) = KeyDirectory::generate(p.n, seed);
    let idle = Value::from_u64(u64::MAX);
    let queue: Vec<Value> = (0..commands)
        .map(|i| payload_value(i, p.payload_bytes))
        .collect();
    let actors = smr_actors(
        cfg,
        &pairs,
        &dir,
        CountingMachine::new(),
        vec![queue; p.n],
        idle.clone(),
        bench_opts(),
        p.batch,
    );
    let inner = match p.kind {
        TransportKind::Channel => spawn(actors, TICK),
        TransportKind::TcpLoopback => {
            let (seats, _addrs) =
                tcp_seats(actors, pairs, dir, Default::default()).expect("loopback bind");
            spawn_with(seats, TICK)
        }
    };
    let mut cluster = SmrClusterHandle::new(inner, p.n, idle);
    // Clock starts after listener binds and thread spawns: setup cost is
    // not protocol throughput (the lazy first TCP dials legitimately are).
    let start = Instant::now();
    let ok = cluster.await_commands(cfg.processes(), commands, Duration::from_secs(120));
    let elapsed = start.elapsed();
    assert!(ok, "cluster did not apply all {commands} commands");
    assert!(cluster.logs_agree(), "log divergence");
    cluster.shutdown();
    Throughput {
        commands_per_sec: commands as f64 / elapsed.as_secs_f64(),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
    }
}

/// A live single-command submission stream over loopback TCP (n = 4,
/// 8 B commands): every command is submitted individually to the running
/// cluster — the client shape that historically forced one slot per
/// command. `adaptive` routes it through the self-tuning batcher plus one
/// apply worker; otherwise fixed batch 1, inline apply (the old path).
fn one_live_trial(adaptive: bool, seed: u64, commands: u64) -> Throughput {
    let cfg = Config::new(4, 1, 1).unwrap();
    let (pairs, dir) = KeyDirectory::generate(cfg.n(), seed);
    let idle = Value::from_u64(u64::MAX);
    let opts = ReplicaOptions {
        apply_workers: if adaptive { ADAPTIVE_APPLY_WORKERS } else { 0 },
        ..bench_opts()
    };
    let batching = if adaptive {
        Batching::Adaptive(AdaptiveBatch::default())
    } else {
        Batching::Fixed(1)
    };
    let actors = smr_actors_configured(
        cfg,
        &pairs,
        &dir,
        CountingMachine::new(),
        vec![Vec::new(); cfg.n()],
        idle.clone(),
        opts,
        batching,
        None,
        None,
    );
    let (seats, _addrs) = tcp_seats(actors, pairs, dir, Default::default()).expect("loopback bind");
    let mut cluster = SmrClusterHandle::new(spawn_with(seats, TICK), cfg.n(), idle);
    let start = Instant::now();
    for i in 0..commands {
        cluster.submit(payload_value(i, 8));
    }
    let ok = cluster.await_commands(cfg.processes(), commands, Duration::from_secs(120));
    let elapsed = start.elapsed();
    assert!(ok, "live cluster did not apply all {commands} commands");
    assert!(cluster.logs_agree(), "log divergence");
    cluster.shutdown();
    Throughput {
        commands_per_sec: commands as f64 / elapsed.as_secs_f64(),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
    }
}

/// All [`TRIALS`] runs of one configuration at its calibrated workload:
/// the best (the reported number, per the methodology note), the median,
/// and every run's throughput, so the JSON output carries the
/// trial-to-trial spread — the reader can judge how noisy the runner was
/// instead of trusting a single scalar.
struct TrialSet {
    best: Throughput,
    /// Per-run commands/sec, in run order.
    runs: Vec<f64>,
    /// The calibrated workload every run used.
    commands: u64,
}

impl TrialSet {
    /// (max − min) / max of the per-run throughputs, in percent: 0 means
    /// perfectly stable trials, large values mean a noisy runner.
    fn spread_pct(&self) -> f64 {
        let min = self.runs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self.runs.iter().copied().fold(0.0, f64::max);
        if max > 0.0 {
            (max - min) / max * 100.0
        } else {
            0.0
        }
    }

    /// The middle per-run throughput (upper middle for an even count) —
    /// resistant to a single noisy trial in either direction.
    fn median(&self) -> f64 {
        let mut sorted = self.runs.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[sorted.len() / 2]
    }

    fn runs_json(&self) -> String {
        let parts: Vec<String> = self.runs.iter().map(|r| format!("{r:.0}")).collect();
        format!("[{}]", parts.join(", "))
    }

    /// The shared JSON fields of one configuration's entry.
    fn fields_json(&self) -> String {
        format!(
            "\"unit\": \"commands_per_sec\", \"commands\": {}, \"commands_per_sec\": {:.0}, \"median_commands_per_sec\": {:.0}, \"elapsed_ms\": {:.2}, \"runs_commands_per_sec\": {}, \"spread_pct\": {:.1}",
            self.commands,
            self.best.commands_per_sec,
            self.median(),
            self.best.elapsed_ms,
            self.runs_json(),
            self.spread_pct()
        )
    }
}

/// Calibrates the workload for one configuration: runs [`TRIALS`] trials,
/// and if the *fastest* of them — the one that becomes the headline
/// number — finished under [`MIN_ELAPSED_MS`], scales the workload ×4
/// (capped at [`MAX_COMMANDS`]) and reruns. Judging the floor on the best
/// trial rather than a single probe matters: one run inflated by a
/// startup hiccup (a lazy-dial race eating a view-change timeout) would
/// otherwise "clear" the floor at a size where the clean runs are still
/// sub-millisecond noise. Under-floor rounds are fast by definition, so
/// the retries cost little.
fn calibrated(run: impl Fn(u64, u64) -> Throughput, seed: u64) -> TrialSet {
    let mut commands = COMMANDS;
    let mut seed_off = 0u64;
    loop {
        let trials: Vec<Throughput> = (0..TRIALS)
            .map(|t| run(seed + seed_off + t as u64, commands))
            .collect();
        let best_elapsed = trials
            .iter()
            .map(|t| t.elapsed_ms)
            .fold(f64::INFINITY, f64::min);
        if best_elapsed >= MIN_ELAPSED_MS || commands >= MAX_COMMANDS {
            return best_of(trials, commands);
        }
        commands = (commands * 4).min(MAX_COMMANDS);
        seed_off += TRIALS as u64;
    }
}

fn best_of(trials: Vec<Throughput>, commands: u64) -> TrialSet {
    let runs = trials.iter().map(|t| t.commands_per_sec).collect();
    let best = trials
        .into_iter()
        .max_by(|a, b| a.commands_per_sec.total_cmp(&b.commands_per_sec))
        .expect("TRIALS >= 1");
    TrialSet {
        best,
        runs,
        commands,
    }
}

/// Best of [`TRIALS`] calibrated runs of one configuration (see the
/// methodology note), with the individual runs retained.
fn runtime_throughput(p: SweepPoint, seed: u64) -> TrialSet {
    calibrated(|s, commands| one_trial(p, s, commands), seed)
}

/// One trial of the sharded KV runtime: `shards` independent consensus
/// groups multiplexed over one in-process mesh (per-group leader
/// stagger, routing by key digest), `commands` live-submitted puts to
/// full application on all replicas of every group. `verify_workers > 0`
/// additionally attaches a verify pool to every seat. The channel mesh
/// keeps this point CPU-bound: it measures how the *protocol* datapath
/// scales with cores, without TCP writer threads oversubscribing small
/// runners.
fn one_shard_trial(shards: usize, verify_workers: usize, seed: u64, commands: u64) -> Throughput {
    let cfg = Config::new(4, 1, 1).unwrap();
    let mut cluster =
        ShardedKvHandle::spawn_channel(cfg, seed, shards, bench_opts(), 1, TICK, verify_workers);
    let puts: Vec<Value> = (0..commands)
        .map(|i| {
            KvCommand::Put {
                key: format!("key-{i}"),
                value: "v".into(),
            }
            .to_value()
        })
        .collect();
    let start = Instant::now();
    for command in puts {
        cluster.submit(command);
    }
    let ok = cluster.await_submitted(Duration::from_secs(120));
    let elapsed = start.elapsed();
    assert!(ok, "sharded cluster did not apply all {commands} commands");
    assert!(cluster.logs_agree(), "sharded log divergence");
    cluster.shutdown();
    Throughput {
        commands_per_sec: commands as f64 / elapsed.as_secs_f64(),
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
    }
}

fn shard_throughput(shards: usize, verify_workers: usize, seed: u64) -> TrialSet {
    calibrated(
        |s, commands| one_shard_trial(shards, verify_workers, s, commands),
        seed,
    )
}

/// Parses `--shards a,b,c` (or `--shards=a,b,c`) into a custom shard
/// sweep; the committed JSON snapshot and its CI gates use the default
/// [`SHARD_SWEEP`].
fn shard_sweep_arg() -> Vec<usize> {
    let args: Vec<String> = std::env::args().collect();
    for (i, arg) in args.iter().enumerate() {
        let list = match arg.strip_prefix("--shards=") {
            Some(rest) => Some(rest.to_string()),
            None if arg == "--shards" => args.get(i + 1).cloned(),
            None => None,
        };
        if let Some(list) = list {
            let parsed: Vec<usize> = list
                .split(',')
                .filter_map(|s| s.trim().parse().ok())
                .filter(|&s| s >= 1)
                .collect();
            assert!(!parsed.is_empty(), "--shards wants a list like 1,2,4");
            return parsed;
        }
    }
    SHARD_SWEEP.to_vec()
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");

    // transport × batch sweep on the wall-clock runtime (n = 4, 8 B).
    let mut results: Vec<(TransportKind, Vec<(usize, TrialSet)>)> = Vec::new();
    for (i, kind) in [TransportKind::Channel, TransportKind::TcpLoopback]
        .into_iter()
        .enumerate()
    {
        let mut per_batch = Vec::new();
        for (j, batch) in BATCHES.into_iter().enumerate() {
            let seed = 300 + (i * 30 + j * 10) as u64;
            let p = SweepPoint {
                n: 4,
                f: 1,
                payload_bytes: 8,
                kind,
                batch,
            };
            per_batch.push((batch, runtime_throughput(p, seed)));
        }
        results.push((kind, per_batch));
    }

    // Adaptive head-to-head: one live single-command stream over TCP,
    // fixed batch 1 vs. the self-tuning batcher + apply worker. The
    // workload is calibrated on the adaptive (fast) side, then the fixed
    // side runs the *same* command count so the speedup compares like
    // with like in the same process on the same runner.
    let adaptive_ts = calibrated(|s, commands| one_live_trial(true, s, commands), 2000);
    let live_commands = adaptive_ts.commands;
    let fixed_live_ts = best_of(
        (0..TRIALS)
            .map(|t| one_live_trial(false, 2100 + t as u64, live_commands))
            .collect(),
        live_commands,
    );
    let adaptive_speedup = adaptive_ts.best.commands_per_sec / fixed_live_ts.best.commands_per_sec;

    // n × payload sweep, both transports, batch {1, 64}.
    let mut sweep: Vec<(SweepPoint, TrialSet)> = Vec::new();
    let mut seed = 900;
    for (n, f) in [(4usize, 1usize), (7, 2)] {
        for payload_bytes in [8usize, 1024] {
            for kind in [TransportKind::Channel, TransportKind::TcpLoopback] {
                for batch in [1usize, 64] {
                    let p = SweepPoint {
                        n,
                        f,
                        payload_bytes,
                        kind,
                        batch,
                    };
                    seed += 10;
                    sweep.push((p, runtime_throughput(p, seed)));
                }
            }
        }
    }

    // Sharded multi-group sweep (n = 4 per group, channel mesh, KV puts,
    // batch 1): how throughput scales with independent groups when cores
    // are available. Verify pools use the replica default (cores − 1; 0 =
    // inline on a single-core runner).
    let verify_workers = ReplicaOptions::default_verify_workers();
    let host_cores = fastbft_bench::host_cores();
    let mut shard_results: Vec<(usize, TrialSet)> = Vec::new();
    for (i, shards) in shard_sweep_arg().into_iter().enumerate() {
        let seed = 1700 + (i * 10) as u64;
        shard_results.push((shards, shard_throughput(shards, verify_workers, seed)));
    }

    if json {
        println!("{{");
        println!("  \"bench\": \"smr_throughput\",");
        println!("  \"version\": 6,");
        println!(
            "  \"config\": {{\"commands_floor\": {COMMANDS}, \"min_elapsed_ms\": {MIN_ELAPSED_MS:.0}, \"max_commands\": {MAX_COMMANDS}, \"tick_us\": {}, \"trials\": {TRIALS}, \"host_cores\": {host_cores}, \"verify_workers\": {verify_workers}, \"apply_workers\": {ADAPTIVE_APPLY_WORKERS}}},",
            TICK.as_micros()
        );
        println!(
            "  \"unit_note\": \"client commands per second until the last replica has applied all of them; per configuration the workload is scaled x4 until a run takes >= min_elapsed_ms, then best of {TRIALS} trials at that size is reported (shared-core CI runners have multi-x CPU swings) with median_commands_per_sec alongside; runs_commands_per_sec lists every trial and spread_pct = (max-min)/max\","
        );
        println!("  \"baseline_pr3\": {{\"tcp_loopback_batch_1\": {PR3_TCP_BATCH1_BASELINE:.0}}},");
        println!(
            "  \"baseline_pr4\": {{\"n7_payload1024_tcp_batch_1\": {PR4_N7_1KIB_TCP_BATCH1_BASELINE:.0}, \"n7_payload1024_tcp_batch_64\": {PR4_N7_1KIB_TCP_BATCH64_BASELINE:.0}}},"
        );
        println!("  \"transports\": {{");
        for (i, (kind, per_batch)) in results.iter().enumerate() {
            println!("    \"{}\": {{", kind.label());
            for (j, (batch, ts)) in per_batch.iter().enumerate() {
                let comma = if j + 1 < per_batch.len() { "," } else { "" };
                println!("      \"batch_{batch}\": {{{}}}{comma}", ts.fields_json());
            }
            let comma = if i + 1 < results.len() { "," } else { "" };
            println!("    }}{comma}");
        }
        println!("  }},");
        println!("  \"adaptive\": {{");
        println!(
            "    \"note\": \"live single-command submission over tcp_loopback, n = 4, 8 B commands: fixed batch 1 + inline apply vs. adaptive batching + {ADAPTIVE_APPLY_WORKERS} apply worker, same command count in the same run\","
        );
        println!(
            "    \"fixed_batch_1\": {{{}}},",
            fixed_live_ts.fields_json()
        );
        println!("    \"adaptive\": {{{}}},", adaptive_ts.fields_json());
        println!("    \"speedup\": {adaptive_speedup:.2}");
        println!("  }},");
        println!("  \"shards\": {{");
        for (i, (shards, ts)) in shard_results.iter().enumerate() {
            let comma = if i + 1 < shard_results.len() { "," } else { "" };
            println!("    \"shards_{shards}\": {{{}}}{comma}", ts.fields_json());
        }
        println!("  }},");
        println!("  \"sweep\": [");
        for (i, (p, ts)) in sweep.iter().enumerate() {
            let comma = if i + 1 < sweep.len() { "," } else { "" };
            println!(
                "    {{\"n\": {}, \"payload_bytes\": {}, \"transport\": \"{}\", \"batch\": {}, {}}}{comma}",
                p.n,
                p.payload_bytes,
                p.kind.label(),
                p.batch,
                ts.fields_json()
            );
        }
        println!("  ]");
        println!("}}");
        return;
    }

    println!("# E9 — SMR throughput: simulated commands/Δ and wall-clock commands/sec\n");

    println!(
        "{}",
        header(&["config", "batch", "commands applied", "commands per Δ"])
    );
    for (n, f, t) in [(4usize, 1usize, 1usize), (8, 2, 1)] {
        for batch in [1usize, 8, 32] {
            let (applied, per_delta) = simulated_throughput(n, f, t, batch, 96);
            println!(
                "{}",
                row(&[
                    format!("n={n}, f={f}, t={t}"),
                    batch.to_string(),
                    applied.to_string(),
                    format!("{per_delta:.3}"),
                ])
            );
            assert!(applied >= 96);
        }
    }

    println!("\nthread runtime, n = 4, 8 B commands, calibrated workload to full application on all replicas (best of {TRIALS}):");
    println!(
        "{}",
        header(&[
            "transport",
            "batch",
            "commands",
            "commands/sec",
            "median",
            "spread"
        ])
    );
    for (kind, per_batch) in &results {
        for (batch, ts) in per_batch {
            println!(
                "{}",
                row(&[
                    kind.label().to_string(),
                    batch.to_string(),
                    ts.commands.to_string(),
                    format!("{:.0}", ts.best.commands_per_sec),
                    format!("{:.0}", ts.median()),
                    format!("{:.1}%", ts.spread_pct()),
                ])
            );
        }
    }

    println!("\nadaptive batching, live single-command stream over TCP (n = 4, 8 B, {live_commands} commands):");
    println!("{}", header(&["mode", "commands/sec", "median", "spread"]));
    for (label, ts) in [
        ("fixed batch 1", &fixed_live_ts),
        ("adaptive + apply worker", &adaptive_ts),
    ] {
        println!(
            "{}",
            row(&[
                label.to_string(),
                format!("{:.0}", ts.best.commands_per_sec),
                format!("{:.0}", ts.median()),
                format!("{:.1}%", ts.spread_pct()),
            ])
        );
    }
    println!("speedup: {adaptive_speedup:.2}x");

    println!("\nsharded KV, n = 4 per group, channel mesh, batch 1, calibrated live puts");
    println!(
        "({host_cores} host cores, {verify_workers} verify workers per seat, best of {TRIALS}):"
    );
    println!(
        "{}",
        header(&["shards", "commands", "commands/sec", "median", "spread"])
    );
    for (shards, ts) in &shard_results {
        println!(
            "{}",
            row(&[
                shards.to_string(),
                ts.commands.to_string(),
                format!("{:.0}", ts.best.commands_per_sec),
                format!("{:.0}", ts.median()),
                format!("{:.1}%", ts.spread_pct()),
            ])
        );
    }

    println!("\nn × payload sweep (best of {TRIALS}):");
    println!(
        "{}",
        header(&[
            "n",
            "payload",
            "transport",
            "batch",
            "commands/sec",
            "median",
            "spread"
        ])
    );
    for (p, ts) in &sweep {
        println!(
            "{}",
            row(&[
                p.n.to_string(),
                format!("{} B", p.payload_bytes),
                p.kind.label().to_string(),
                p.batch.to_string(),
                format!("{:.0}", ts.best.commands_per_sec),
                format!("{:.0}", ts.median()),
                format!("{:.1}%", ts.spread_pct()),
            ])
        );
    }

    println!("\nshape: batching amortizes the two message delays, and on TCP the send");
    println!("pipeline (encode-once broadcast, per-peer writer threads, one coalesced");
    println!("frame + MAC per drain, slot pipelining) amortizes the per-frame HMAC and");
    println!("syscall cost — throughput rises with batch size on both transports and");
    println!("the TCP-vs-channel gap narrows as drains coalesce. The adaptive batcher");
    println!("gives a live batch-1 submission stream the batch-64 curve without any");
    println!("client-side batching. (JSON for tooling: rerun with --json; committed");
    println!("snapshot: BENCH_smr_throughput.json)");
}
