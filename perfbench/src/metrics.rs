//! Turning a run's records into the reported metrics.

use fastbft_obs::{Histogram, MetricsRegistry};

use crate::calib::Calib;
use crate::drive::{obs, Outcome, Snap, DEADLINE};
use crate::tracker::Tracker;
use crate::workload::{Load, Net, Workload};
use crate::wrap::C;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank quantile of sorted samples (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// What a client of the cluster saw in the measured window.
pub struct EndToEnd {
    /// Commands due (open loop) or submitted (closed loop) in the window.
    pub attempted: u64,
    /// Of those, not acked within [`DEADLINE`].
    pub failed: u64,
    /// Acks stamped inside the window, per second.
    pub throughput_cps: f64,
    /// Submit-to-ack latencies of the acked attempted commands, sorted.
    pub latencies_ns: Vec<u64>,
    /// The longest stall of the whole window.
    pub stall_max_ns: u64,
    /// The longest stall of each [`STALL_WINDOW`] of the window, sorted.
    pub stalls_ns: Vec<u64>,
    /// How late the generator submitted, sorted (open loop only).
    pub gen_lag_ns: Vec<u64>,
}

impl EndToEnd {
    pub fn measure(t: &Tracker, o: &Outcome, w: Workload) -> Self {
        let deadline = DEADLINE.as_nanos() as u64;
        let in_window = |ns: u64| ns >= o.w0 && ns < o.w1;
        let mut attempted = 0;
        let mut latencies_ns = Vec::new();
        let mut gen_lag_ns = Vec::new();
        let mut acks_in_window = 0u64;
        // (time, +1 submit / -1 ack) for the stall sweep.
        let mut steps: Vec<(u64, i64)> = Vec::with_capacity(2 * t.len());
        for id in 0..t.len() {
            let origin = t.origin_ns[id];
            let ack = t.ack(id as u32);
            steps.push((t.submit_ns[id], 1));
            if let Some(ack) = ack {
                steps.push((ack, -1));
                if in_window(ack) {
                    acks_in_window += 1;
                }
            }
            if !in_window(origin) {
                continue;
            }
            attempted += 1;
            if matches!(w.load, Load::Open { .. }) {
                gen_lag_ns.push(t.submit_ns[id].saturating_sub(origin));
            }
            if let Some(latency) = ack.map(|a| a.saturating_sub(origin)) {
                if latency <= deadline {
                    latencies_ns.push(latency);
                }
            }
        }
        latencies_ns.sort_unstable();
        gen_lag_ns.sort_unstable();
        let mut stalls_ns = stalls(steps.clone(), o.w0, o.w1, STALL_WINDOW);
        stalls_ns.sort_unstable();
        EndToEnd {
            attempted,
            failed: attempted - latencies_ns.len() as u64,
            throughput_cps: acks_in_window as f64 / ((o.w1 - o.w0) as f64 / 1e9),
            latencies_ns,
            stall_max_ns: stalls(steps, o.w0, o.w1, o.w1 - o.w0)[0],
            stalls_ns,
            gen_lag_ns,
        }
    }

    pub fn p50_us(&self) -> f64 {
        quantile(&self.latencies_ns, 0.5) as f64 / 1e3
    }

    pub fn p99_us(&self) -> f64 {
        quantile(&self.latencies_ns, 0.99) as f64 / 1e3
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
        vec![
            m("throughput_cps", self.throughput_cps, "1/s"),
            m("commit_p50_us", self.p50_us(), "us"),
            m("commit_p99_us", self.p99_us(), "us"),
            m(
                "acked_frac",
                1.0 - ratio(self.failed as f64, self.attempted as f64),
                "ratio",
            ),
            m(
                "stall_p90_ms",
                quantile(&self.stalls_ns, 0.9) as f64 / 1e6,
                "ms",
            ),
            m("setup_s", setup_s, "s"),
            m("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
    }
}

/// Sub-window of the stall statistic: short enough that the 90th
/// percentile has dozens of sub-windows beyond it.
const STALL_WINDOW: u64 = 100_000_000;

/// For each `sub`-long sub-window of `[w0, w1)`, the longest stretch in it
/// during which commands were outstanding and none was acked. `steps` are
/// `(time, +1)` for a submit and `(time, -1)` for an ack.
fn stalls(mut steps: Vec<(u64, i64)>, w0: u64, w1: u64, sub: u64) -> Vec<u64> {
    steps.sort_unstable();
    let k = ((w1 - w0) / sub).max(1);
    let end = w0 + k * sub;
    let mut longest = vec![0u64; k as usize];
    // Credits the stall `[from, to)` to every sub-window it overlaps.
    let mut credit = |from: u64, to: u64| {
        let (from, to) = (from.max(w0), to.min(end));
        if from >= to {
            return;
        }
        for i in (from - w0) / sub..=(to - 1 - w0) / sub {
            let lo = from.max(w0 + i * sub);
            let hi = to.min(w0 + (i + 1) * sub);
            let slot = &mut longest[i as usize];
            *slot = (*slot).max(hi - lo);
        }
    };
    let mut outstanding = 0i64;
    let mut since = 0;
    for (at, step) in steps {
        if step > 0 {
            if outstanding == 0 {
                since = at;
            }
        } else {
            if outstanding > 0 {
                credit(since, at);
            }
            since = at;
        }
        outstanding += step;
    }
    if outstanding > 0 {
        credit(since, end);
    }
    longest
}

/// Inputs of the per-layer metrics of one traced run.
pub struct Layers<'a> {
    pub w: Workload,
    pub before: &'a Snap,
    pub after: &'a Snap,
    pub registry: &'a MetricsRegistry,
    pub tracker: &'a Tracker,
    pub e2e: &'a EndToEnd,
    /// The untraced pass of the same run, for the cost of tracing.
    pub untraced: &'a EndToEnd,
    pub calib: &'a Calib,
    pub sim_msgs_per_cmd: f64,
    pub sim_bytes_per_cmd: f64,
}

impl Layers<'_> {
    fn obs(&self, name: &str) -> f64 {
        let i = obs(name);
        (self.after.obs[i] - self.before.obs[i]) as f64
    }

    fn seat(&self, seat: usize, c: C) -> f64 {
        (self.after.seats[seat][c as usize] - self.before.seats[seat][c as usize]) as f64
    }

    fn seats(&self, c: C) -> f64 {
        (0..self.after.seats.len()).map(|s| self.seat(s, c)).sum()
    }

    fn merged(&self, pick: impl Fn(&fastbft_obs::Metrics) -> &Histogram) -> Histogram {
        let merged = Histogram::new();
        for i in 0..self.registry.len() {
            merged.merge_from(pick(self.registry.metrics(i)));
        }
        merged
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let w = self.w;
        let live = w.live();
        let window_ns = (self.after.at_ns - self.before.at_ns) as f64;
        let cmds = self.e2e.throughput_cps * window_ns / 1e9;
        let commits = self.obs("commit_fast") + self.obs("commit_slow");
        let slots = commits / live.len() as f64;
        let busy: Vec<f64> = live
            .iter()
            .map(|&s| self.seat(s, C::BusyNs) / window_ns)
            .collect();
        let batches = self.merged(|m| &m.batch_size);
        let slot_latency = self.merged(|m| &m.commit_latency_fast_us);
        slot_latency.merge_from(&self.merged(|m| &m.commit_latency_slow_us));
        let writer_peak = (0..self.registry.len())
            .map(|i| self.registry.metrics(i).writer_queue_depth_peak.get())
            .max()
            .unwrap_or(0);
        let tcp = w.net == Net::Tcp;
        let frames = self.obs("frames_out") + self.obs("frames_in");
        let c = self.calib;
        // Estimated crypto work: one signature per emitted message, one
        // check per received one plus the certificate shares checked
        // afresh, a MAC per frame at each end, and a digest of every
        // command on every live replica.
        let received = self.seats(C::Events) - self.seats(C::ClientCalls);
        let crypto_ns = (received + self.obs("sig_miss")) * c.verify_ns
            + self.seats(C::SendCalls) * c.sign_ns
            + frames * c.frame_mac_ns
            + cmds * live.len() as f64 * w.payload as f64 / 1024.0 * c.digest_ns_per_kib;
        vec![
            m(
                "smr.client_us_per_cmd",
                ratio(self.seats(C::ClientNs), self.seats(C::ClientCalls)) / 1e3,
                "us",
            ),
            m(
                "smr.cmds_per_slot",
                ratio(batches.sum() as f64, batches.count() as f64),
                "count",
            ),
            m(
                "smr.apply_us_per_cmd",
                ratio(
                    (self.after.apply_ns - self.before.apply_ns) as f64,
                    (self.after.apply_calls - self.before.apply_calls) as f64,
                ) / 1e3,
                "us",
            ),
            m("smr.replica_lag_max", self.tracker.lag_max as f64, "count"),
            m(
                "core.handler_us_per_slot",
                ratio(self.seats(C::ConsensusNs), slots) / 1e3,
                "us",
            ),
            m(
                "core.msgs_per_slot",
                ratio(self.seats(C::SentMsgs), slots),
                "count",
            ),
            m(
                "core.sig_verifies_per_slot",
                ratio(self.obs("sig_miss"), slots),
                "count",
            ),
            m(
                "core.cert_cache_hit_ratio",
                ratio(
                    self.obs("cert_hit"),
                    self.obs("cert_hit") + self.obs("cert_miss"),
                ),
                "ratio",
            ),
            m(
                "core.fast_share",
                ratio(self.obs("commit_fast"), commits),
                "ratio",
            ),
            m(
                "core.view_changes_per_kcmd",
                ratio(self.obs("view_change"), cmds / 1e3),
                "count",
            ),
            m(
                "core.timer_us_per_s",
                self.seats(C::TimerNs) / 1e3 / (window_ns / 1e9),
                "us/s",
            ),
            m("core.slot_p50_us", slot_latency.quantile(0.5) as f64, "us"),
            m(
                "runtime.busy_frac",
                busy.iter().sum::<f64>() / busy.len() as f64,
                "ratio",
            ),
            m(
                "runtime.busy_frac_max",
                busy.iter().copied().fold(0.0, f64::max),
                "ratio",
            ),
            m(
                "runtime.events_per_wakeup",
                ratio(self.seats(C::Events), self.seats(C::Wakeups)),
                "count",
            ),
            m("runtime.threads", self.after.threads as f64, "count"),
            m(
                "runtime.ctx_switches_per_cmd",
                ratio(
                    (self.after.ctx_switches - self.before.ctx_switches) as f64,
                    cmds,
                ),
                "count",
            ),
            m(
                "net.send_us_per_msg",
                if tcp {
                    ratio(self.seats(C::SendNs), self.seats(C::SentMsgs)) / 1e3
                } else {
                    0.0
                },
                "us",
            ),
            m(
                "net.msgs_per_frame",
                ratio(
                    (self.after.tcp_msgs - self.before.tcp_msgs) as f64,
                    (self.after.tcp_frames - self.before.tcp_frames) as f64,
                ),
                "count",
            ),
            m(
                "net.bytes_out_per_cmd",
                ratio(self.obs("bytes_out"), cmds),
                "B",
            ),
            m("net.writer_queue_peak", writer_peak as f64, "count"),
            m(
                "net.send_drops",
                self.obs("send_drop") + self.obs("send_drop_unreachable"),
                "count",
            ),
            m("crypto.sign_ns", c.sign_ns, "ns"),
            m("crypto.verify_ns", c.verify_ns, "ns"),
            m("crypto.digest_ns_per_kib", c.digest_ns_per_kib, "ns"),
            m("crypto.frame_mac_ns", c.frame_mac_ns, "ns"),
            m("crypto.est_us_per_cmd", ratio(crypto_ns, cmds) / 1e3, "us"),
            m("wire.encode_ns_per_msg", c.encode_ns, "ns"),
            m("wire.decode_ns_per_msg", c.decode_ns, "ns"),
            m(
                "obs.overhead_frac",
                1.0 - ratio(self.e2e.throughput_cps, self.untraced.throughput_cps),
                "ratio",
            ),
            m(
                "obs.overhead_p50_frac",
                ratio(self.e2e.p50_us(), self.untraced.p50_us()) - 1.0,
                "ratio",
            ),
            m(
                "gen.lag_p99_us",
                quantile(&self.e2e.gen_lag_ns, 0.99) as f64 / 1e3,
                "us",
            ),
            m("sim.msgs_per_cmd", self.sim_msgs_per_cmd, "count"),
            m("sim.bytes_per_cmd", self.sim_bytes_per_cmd, "B"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn stalls_count_only_outstanding_time_inside_the_window() {
        // Submit at 0, ack at 50; idle; submit at 100, ack at 400.
        let steps = vec![(0, 1), (50, -1), (100, 1), (400, -1)];
        assert_eq!(stalls(steps.clone(), 0, 1_000, 1_000), [300]);
        // The window clips the second stall.
        assert_eq!(stalls(steps.clone(), 0, 200, 200), [100]);
        // Sub-windows split a stall at their edges.
        assert_eq!(stalls(steps, 0, 400, 200), [100, 200]);
        // A command still outstanding at the window's end counts to w1.
        assert_eq!(stalls(vec![(10, 1)], 0, 100, 100), [90]);
    }
}
