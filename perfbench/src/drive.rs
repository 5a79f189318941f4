//! The single-threaded client: offers one workload's load to a live
//! cluster, snapshots the layer counters around the measured window, and
//! waits for the cluster to settle.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use fastbft_obs::{Counter, Metrics};

use crate::cluster::Live;
use crate::host;
use crate::workload::{command, Load, Rng};
use crate::wrap::COUNTERS;

/// Load offered before the measured window, so lazy set-up finishes and
/// the adaptive batcher settles first.
pub const WARMUP: Duration = Duration::from_secs(1);

/// A command not acked this long after its latency origin has failed.
pub const DEADLINE: Duration = Duration::from_secs(2);

/// Longest wait, after the window, for every command to settle.
const DRAIN_CAP: Duration = Duration::from_secs(20);

/// Longest the client sleeps between looks at the clock.
const MAX_WAIT: Duration = Duration::from_millis(1);

/// Picks one counter out of a replica's metrics block.
type Pick = fn(&Metrics) -> &Counter;

/// Metrics-plane counters the traced run differences over the window.
pub const OBS: [(&str, Pick); 11] = [
    ("commit_fast", |m| &m.commit_fast_total),
    ("commit_slow", |m| &m.commit_slow_total),
    ("view_change", |m| &m.view_change_total),
    ("cert_hit", |m| &m.cert_cache_hit_total),
    ("cert_miss", |m| &m.cert_cache_miss_total),
    ("sig_miss", |m| &m.sig_memo_miss_total),
    ("bytes_out", |m| &m.bytes_out_total),
    ("frames_out", |m| &m.frames_out_total),
    ("frames_in", |m| &m.frames_in_total),
    ("send_drop", |m| &m.send_drop_total),
    ("send_drop_unreachable", |m| &m.send_drop_unreachable_total),
];

/// Index of a named entry of [`OBS`].
pub fn obs(name: &str) -> usize {
    OBS.iter()
        .position(|(n, _)| *n == name)
        .expect("known metrics-plane counter")
}

/// Every cumulative layer counter at one instant of a traced run.
#[derive(Clone, Debug)]
pub struct Snap {
    pub at_ns: u64,
    pub seats: Vec<[u64; COUNTERS]>,
    pub apply_ns: u64,
    pub apply_calls: u64,
    pub obs: [u64; OBS.len()],
    pub tcp_msgs: u64,
    pub tcp_frames: u64,
    pub ctx_switches: u64,
    pub threads: usize,
}

impl Snap {
    fn take(live: &Live) -> Option<Snap> {
        let p = live.probes.as_ref()?;
        Some(Snap {
            at_ns: live.now_ns(),
            seats: p.ctx.seats.iter().map(|s| s.snapshot()).collect(),
            apply_ns: p.ctx.apply_ns.load(Ordering::Relaxed),
            apply_calls: p.ctx.apply_calls.load(Ordering::Relaxed),
            obs: std::array::from_fn(|i| p.registry.total(OBS[i].1)),
            tcp_msgs: p.tcp.iter().map(|s| s.messages_sent()).sum(),
            tcp_frames: p.tcp.iter().map(|s| s.frames_sent()).sum(),
            ctx_switches: host::context_switches(),
            threads: host::threads(),
        })
    }
}

/// What one load run leaves for the metrics.
pub struct Outcome {
    /// The measured window on the cluster clock, in ns.
    pub w0: u64,
    pub w1: u64,
    /// Layer counters at the window's edges (traced runs only).
    pub before: Option<Snap>,
    pub after: Option<Snap>,
    /// Whether every command settled before the drain gave up.
    pub settled: bool,
}

/// Offers the workload's load for the warm-up plus `seconds`, then waits
/// until the cluster settles (see [`Tracker::settled`]).
///
/// [`Tracker::settled`]: crate::tracker::Tracker::settled
pub fn drive(live: &mut Live, rng: &mut Rng, seconds: f64) -> Outcome {
    let w = live.workload;
    let load_start = live.now_ns();
    let w0 = load_start + WARMUP.as_nanos() as u64;
    let w1 = w0 + (seconds * 1e9) as u64;
    let mut started = false;
    let mut before = None;
    let mut next = |live: &mut Live, origin: u64| {
        let id = u32::try_from(live.tracker.len()).expect("fewer than 2^32 commands");
        live.submit(command(rng, id, w.payload), origin);
    };
    let mut window_edge = |live: &mut Live, now: u64| {
        if !started && now >= w0 {
            started = true;
            before = Snap::take(live);
            set_recording(live, true);
        }
    };
    match w.load {
        Load::Open { rate } => {
            let period = 1e9 / rate;
            let mut k = 0u64;
            loop {
                let now = live.now_ns();
                window_edge(live, now);
                if now >= w1 {
                    break;
                }
                loop {
                    let due = load_start + (k as f64 * period) as u64;
                    if due > now || due >= w1 {
                        break;
                    }
                    next(live, due);
                    k += 1;
                }
                let next_due = load_start + (k as f64 * period) as u64;
                let wait = Duration::from_nanos(next_due.saturating_sub(live.now_ns()));
                live.pump(wait.min(MAX_WAIT));
                live.tracker.newly_acked.clear();
            }
        }
        Load::Closed { outstanding } => {
            for _ in 0..outstanding {
                let now = live.now_ns();
                next(live, now);
            }
            live.tracker.newly_acked.clear();
            loop {
                let now = live.now_ns();
                window_edge(live, now);
                if now >= w1 {
                    break;
                }
                live.pump(MAX_WAIT);
                let acked = live.tracker.newly_acked.len();
                live.tracker.newly_acked.clear();
                for _ in 0..acked {
                    let now = live.now_ns();
                    if now < w1 {
                        next(live, now);
                    }
                }
            }
        }
    }
    let after = Snap::take(live);
    set_recording(live, false);
    let give_up = Instant::now() + DRAIN_CAP;
    let mut settled = false;
    while Instant::now() < give_up {
        if live.tracker.settled(live.now_ns(), DEADLINE) {
            settled = true;
            break;
        }
        live.pump(Duration::from_millis(5));
    }
    Outcome {
        w0,
        w1,
        before,
        after,
        settled,
    }
}

fn set_recording(live: &Live, on: bool) {
    if let Some(p) = &live.probes {
        p.ctx.recording.store(on, Ordering::Relaxed);
    }
}
