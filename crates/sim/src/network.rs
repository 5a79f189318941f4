//! The partial-synchrony network model (§2.1 of the paper).
//!
//! Channels are reliable and authenticated: every sent message is eventually
//! delivered, unmodified, with its true sender. Delivery *times* are where
//! the adversary lives:
//!
//! * before GST, delays are chosen by a [`DelayPolicy`] (random within
//!   bounds, fixed, or a fully scripted closure);
//! * from GST on, every message — including those still in flight — is
//!   delivered within Δ of `max(send_time, gst)`, which is exactly the
//!   partial-synchrony guarantee of Dwork–Lynch–Stockmeyer as stated in the
//!   paper.
//!
//! Scripted executions (the lower-bound constructions, the figure replays)
//! set `gst = SimTime::NEVER` and control every delivery explicitly.

use fastbft_types::ProcessId;
use rand::rngs::StdRng;
use rand::Rng;

use crate::time::{SimDuration, SimTime};

/// Everything known about a message at the instant it is sent; scripted
/// delay policies key off these fields.
#[derive(Clone, Copy, Debug)]
pub struct SendInfo {
    /// Sending process.
    pub from: ProcessId,
    /// Receiving process.
    pub to: ProcessId,
    /// Virtual time of the send.
    pub sent_at: SimTime,
    /// Per-execution sequence number of the send (unique, monotonic).
    pub seq: u64,
    /// The message's kind label ([`SimMessage::kind`](crate::SimMessage::kind)),
    /// so scripted schedules can single out one message type.
    pub kind: &'static str,
}

/// How pre-GST delays are chosen.
pub enum DelayPolicy {
    /// Every message takes exactly Δ. With `gst = 0` this is the "gracious"
    /// synchronous execution of the paper's common case and of the T-faulty
    /// two-step executions (messages sent in round `i` delivered at the start
    /// of round `i + 1`).
    ExactlyDelta,
    /// Uniformly random delay in `[min, max]` (inclusive).
    Uniform {
        /// Minimum delay.
        min: SimDuration,
        /// Maximum delay.
        max: SimDuration,
    },
    /// Fully scripted: the closure returns the **delivery time** for each
    /// message. The kernel clamps it to be at least the send time, and the
    /// GST bound still applies afterwards.
    Scripted(Box<dyn FnMut(&SendInfo) -> SimTime + Send>),
}

impl std::fmt::Debug for DelayPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DelayPolicy::ExactlyDelta => write!(f, "ExactlyDelta"),
            DelayPolicy::Uniform { min, max } => write!(f, "Uniform({min:?}..{max:?})"),
            DelayPolicy::Scripted(_) => write!(f, "Scripted(..)"),
        }
    }
}

/// The network model: Δ, GST and the pre-GST delay policy.
#[derive(Debug)]
pub struct Network {
    /// The known bound Δ on post-GST message delay.
    pub delta: SimDuration,
    /// Global stabilization time. `SimTime::ZERO` = synchronous from the
    /// start; `SimTime::NEVER` = the bound never kicks in (scripted runs).
    pub gst: SimTime,
    /// Pre-GST delay policy.
    pub policy: DelayPolicy,
}

impl Network {
    /// A network that is synchronous from the start with delay exactly Δ —
    /// the common-case environment for latency experiments.
    pub fn synchronous(delta: SimDuration) -> Self {
        Network {
            delta,
            gst: SimTime::ZERO,
            policy: DelayPolicy::ExactlyDelta,
        }
    }

    /// A network that is chaotic (uniform random delays in
    /// `[delta/10, pre_gst_max]`) until `gst`, then Δ-bounded.
    pub fn partially_synchronous(
        delta: SimDuration,
        gst: SimTime,
        pre_gst_max: SimDuration,
    ) -> Self {
        Network {
            delta,
            gst,
            policy: DelayPolicy::Uniform {
                min: delta / 10,
                max: pre_gst_max,
            },
        }
    }

    /// A fully scripted network: the closure dictates every delivery time and
    /// the GST bound never interferes.
    pub fn scripted(
        delta: SimDuration,
        schedule: impl FnMut(&SendInfo) -> SimTime + Send + 'static,
    ) -> Self {
        Network {
            delta,
            gst: SimTime::NEVER,
            policy: DelayPolicy::Scripted(Box::new(schedule)),
        }
    }

    /// Computes the delivery time for a message described by `info`.
    ///
    /// Post-GST admissibility is enforced here: the result never exceeds
    /// `max(sent_at, gst) + Δ`, and is never before the send itself.
    pub fn delivery_time(&mut self, info: &SendInfo, rng: &mut StdRng) -> SimTime {
        let proposed = match &mut self.policy {
            DelayPolicy::ExactlyDelta => info.sent_at + self.delta,
            DelayPolicy::Uniform { min, max } => {
                let (lo, hi) = (min.0, max.0.max(min.0));
                info.sent_at + SimDuration(rng.gen_range(lo..=hi))
            }
            DelayPolicy::Scripted(f) => f(info),
        };
        // Reliable channel: delivery no earlier than the send…
        let proposed = proposed.max(info.sent_at);
        // …and partial synchrony: no later than max(send, GST) + Δ.
        if self.gst == SimTime::NEVER {
            proposed
        } else {
            let deadline = info.sent_at.max(self.gst) + self.delta;
            proposed.min(deadline)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn info(sent_at: u64) -> SendInfo {
        SendInfo {
            from: ProcessId(1),
            to: ProcessId(2),
            sent_at: SimTime(sent_at),
            seq: 0,
            kind: "test",
        }
    }

    #[test]
    fn synchronous_is_exactly_delta() {
        let mut net = Network::synchronous(SimDuration(100));
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(net.delivery_time(&info(0), &mut rng), SimTime(100));
        assert_eq!(net.delivery_time(&info(250), &mut rng), SimTime(350));
    }

    #[test]
    fn uniform_respects_gst_deadline() {
        let mut net =
            Network::partially_synchronous(SimDuration(100), SimTime(1_000), SimDuration(10_000));
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            // Sent before GST: must arrive by gst + delta.
            let d = net.delivery_time(&info(0), &mut rng);
            assert!(d <= SimTime(1_100), "pre-GST message late: {d}");
            // Sent after GST: must arrive within delta of the send.
            let d = net.delivery_time(&info(2_000), &mut rng);
            assert!(d >= SimTime(2_000) && d <= SimTime(2_100));
        }
    }

    #[test]
    fn scripted_is_unclamped_by_gst() {
        let mut net = Network::scripted(SimDuration(100), |i| i.sent_at + SimDuration(9_999));
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(net.delivery_time(&info(5), &mut rng), SimTime(10_004));
    }

    #[test]
    fn delivery_never_precedes_send() {
        let mut net = Network::scripted(SimDuration(100), |_| SimTime::ZERO);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(net.delivery_time(&info(500), &mut rng), SimTime(500));
    }

    #[test]
    fn uniform_determinism_under_seed() {
        let run = |seed: u64| {
            let mut net =
                Network::partially_synchronous(SimDuration(100), SimTime(10_000), SimDuration(500));
            let mut rng = StdRng::seed_from_u64(seed);
            (0..32)
                .map(|i| net.delivery_time(&info(i * 7), &mut rng).0)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
