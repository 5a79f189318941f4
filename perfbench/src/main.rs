//! End-to-end benchmark of the fastbft replicated KV store.
//!
//! Drives a live `fastbft_smr` cluster, deployed as in `examples/tcp_kv.rs`
//! (adaptive batching, one apply worker, default `ReplicaOptions`, a 50 µs
//! tick), from a single-threaded client in this process, and reports what
//! a client sees: throughput, commit latency from submit (or due time) to
//! the f+1-th apply, failures, stalls, set-up time and memory. Before it
//! prints a number it checks the run: every command applied anywhere was
//! applied exactly once on every live replica, the live replicas' logs
//! agree by index, and their final state digests are equal.
//!
//! With `--trace 1` it instead runs the workload twice for half as long,
//! untraced and then with timing wrappers around each layer, and reports
//! per-layer metrics, plus exact message counts from the simulator and unit
//! costs of the crypto and wire layers. No message delay is injected: latency here is
//! processor, scheduler and kernel time.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload n4-small-closed --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--workload all` runs every workload in turn, each in its own process.
//! The last line of standard output is one JSON object.

mod calib;
mod cluster;
mod drive;
mod host;
mod metrics;
mod simcount;
mod tracker;
mod workload;
mod wrap;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use cluster::Live;
use drive::{drive, Outcome};
use host::HostInfo;
use metrics::{EndToEnd, Layers, Metric};
use workload::{command, Rng, Workload, WORKLOADS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_TRIALS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What one run reports.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        )
    }
}

/// Command 0 of every cluster: the set-up probe.
fn probe(w: Workload, seed: u64) -> fastbft_types::Value {
    command(&mut Rng::new(seed.wrapping_add(1)), 0, w.payload)
}

/// One load run on a started cluster, through the correctness gate.
struct Pass {
    tracker: tracker::Tracker,
    /// The cluster clock origin the tracker's times count from.
    origin: std::time::Instant,
    outcome: Outcome,
    e2e: EndToEnd,
    /// `VmHWM` when the load ended, before the gate and the metrics
    /// allocate their own working memory.
    peak_rss_mb: f64,
    probes: Option<cluster::Probes>,
}

fn load_and_check(mut live: Live, seed: u64, seconds: f64) -> Result<Pass, String> {
    let w = live.workload;
    let mut rng = Rng::new(seed);
    let outcome = drive(&mut live, &mut rng, seconds);
    let peak_rss_mb = host::peak_rss_mb();
    let origin = live.origin;
    let (mut tracker, digests, probes) = live.stop();
    let skipped = tracker.verdict(&digests)?;
    if skipped > 0 {
        println!("note: {skipped} apply(s) skipped by snapshot installs (state digests agree)");
    }
    if !outcome.settled {
        eprintln!("note: some commands never settled; they count as failed");
    }
    let e2e = EndToEnd::measure(&tracker, &outcome, w);
    if e2e.attempted == 0 {
        return Err("no command fell in the measured window".into());
    }
    Ok(Pass {
        tracker,
        origin,
        outcome,
        e2e,
        peak_rss_mb,
        probes,
    })
}

fn print_e2e(label: &str, e: &EndToEnd) {
    println!(
        "{label}: throughput {:.1} cmds/s, commit p50 {:.1} us p99 {:.1} us over {} samples, \
         {} of {} failed, longest stall {:.2} ms, p90 over 100 ms sub-windows {:.2} ms",
        e.throughput_cps,
        e.p50_us(),
        e.p99_us(),
        e.latencies_ns.len(),
        e.failed,
        e.attempted,
        e.stall_max_ns as f64 / 1e6,
        metrics::quantile(&e.stalls_ns, 0.9) as f64 / 1e6,
    );
}

fn run_untraced(w: Workload, a: &Args) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUP_TRIALS);
    let mut kept = None;
    for trial in 0..SETUP_TRIALS {
        let live = Live::start(w, a.seed, false, probe(w, a.seed))?;
        setups.push(live.setup_s);
        if trial + 1 == SETUP_TRIALS {
            kept = Some(live);
        } else {
            live.stop();
        }
    }
    setups.sort_by(f64::total_cmp);
    let setup_s = setups[SETUP_TRIALS / 2];
    let pass = load_and_check(kept.expect("at least one set-up"), a.seed, a.seconds)?;
    print_e2e("measured", &pass.e2e);
    Ok(Report {
        attempted: pass.e2e.attempted,
        failed: pass.e2e.failed,
        metrics: pass.e2e.metrics(setup_s, pass.peak_rss_mb),
    })
}

/// Splits `--seconds` between an untraced and a traced pass of the same
/// workload; the pair prices the tracing itself (`obs.*`).
fn run_traced(w: Workload, a: &Args) -> Result<Report, String> {
    let half = a.seconds / 2.0;
    let untraced = load_and_check(
        Live::start(w, a.seed, false, probe(w, a.seed))?,
        a.seed,
        half,
    )?;
    print_e2e("untraced", &untraced.e2e);
    let traced = load_and_check(
        Live::start(w, a.seed, true, probe(w, a.seed))?,
        a.seed,
        half,
    )?;
    print_e2e("traced", &traced.e2e);
    let probes = traced.probes.as_ref().expect("traced pass has probes");
    let (Some(before), Some(after)) = (&traced.outcome.before, &traced.outcome.after) else {
        return Err("traced pass took no window snapshots".into());
    };
    let samples = probes.ctx.take_samples();
    // Mean frame size on TCP; the channel transport has no frames, so
    // there the mean encoded message stands in.
    let frame_bytes = {
        let delta = |name| after.obs[drive::obs(name)] - before.obs[drive::obs(name)];
        delta("bytes_out")
            .checked_div(delta("frames_out"))
            .map_or_else(|| calib::mean_encoded(&samples), |b| b as usize)
    };
    let calib = calib::calibrate(w.payload, frame_bytes, &samples);
    let (sim_msgs, sim_bytes) = simcount::exact_counts(w)?;
    let layers = Layers {
        w,
        before,
        after,
        registry: &probes.registry,
        tracker: &traced.tracker,
        e2e: &traced.e2e,
        untraced: &untraced.e2e,
        calib: &calib,
        sim_msgs_per_cmd: sim_msgs,
        sim_bytes_per_cmd: sim_bytes,
    };
    let metrics = layers.metrics();
    write_spans(w, a.seed, &traced);
    Ok(Report {
        attempted: traced.e2e.attempted,
        failed: traced.e2e.failed,
        metrics,
    })
}

/// Most client-command spans written per traced run.
const COMMAND_SPANS: usize = 10_000;

/// Writes the traced pass's spans, the layers' and the client's, as CSV
/// under `perfbench/out/`.
fn write_spans(w: Workload, seed: u64, pass: &Pass) {
    let Some(probes) = &pass.probes else { return };
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{seed}.csv", w.name));
    // Layer spans count from the trace origin, commands from the cluster's.
    let t = &pass.tracker;
    let shift = pass
        .origin
        .saturating_duration_since(probes.ctx.origin)
        .as_nanos() as u64;
    let mut csv = String::from("name,seat,start_ns,end_ns,id\n");
    for s in probes.ctx.take_spans() {
        let _ = writeln!(
            csv,
            "{},p{},{},{},{}",
            s.name,
            s.seat + 1,
            s.start_ns,
            s.end_ns,
            s.id
        );
    }
    let in_window = |ns: u64| ns >= pass.outcome.w0 && ns < pass.outcome.w1;
    for id in (0..t.len() as u32)
        .filter(|&id| in_window(t.origin_ns[id as usize]))
        .take(COMMAND_SPANS)
    {
        if let Some(ack) = t.ack(id) {
            let start = t.origin_ns[id as usize] + shift;
            let _ = writeln!(csv, "client.command,client,{start},{},{id}", ack + shift);
        }
    }
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, csv)) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("note: spans not written to {}: {e}", path.display()),
    }
}

/// Runs every workload in its own process and prints their reports.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut combined = Vec::new();
    for w in WORKLOADS {
        println!("== {}", w.name);
        let out = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let out = match out {
            Ok(out) if out.status.success() => out,
            Ok(out) => {
                eprintln!("perfbench: {} failed ({})", w.name, out.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        combined.push((
            w.name,
            stdout.lines().last().unwrap_or_default().to_string(),
        ));
    }
    let body: Vec<String> = combined
        .iter()
        .map(|(name, json)| format!("\"{name}\": {json}"))
        .collect();
    println!("{{{}}}", body.join(", "));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if a.workload == "all" {
        return run_all(&a);
    }
    let Some(w) = workload::find(&a.workload) else {
        eprintln!("perfbench: unknown workload {}", a.workload);
        return ExitCode::from(2);
    };
    let host = HostInfo::collect();
    println!(
        "workload {} seed {} seconds {} trace {} | host cores {} cpu \"{}\" | {} | commit {}",
        w.name,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        host.cores,
        host.cpu,
        host.rustc,
        host.commit,
    );
    let report = if a.trace {
        run_traced(w, &a)
    } else {
        run_untraced(w, &a)
    };
    match report {
        Ok(report) => {
            for m in &report.metrics {
                println!("{:<30} {:>14.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}
