//! The silent-leader skip: a slot whose view-1 leader has sent nothing for
//! the last `DEFAULT_PIPELINE_DEPTH` applied slots starts its view change
//! the moment it opens, instead of waiting out a whole view timeout.
//!
//! Most scenarios run a deterministic simulation of `SmrNode`s, each inside
//! a [`Probe`] that stamps every slot's open, decision and first wish in
//! virtual time. Silent seats are inert actors, a stopped-and-restarted
//! seat is a partition that heals, and a Byzantine seat that never proposes
//! is a network that drops its proposals. The fault-free regressions run
//! the stock `SmrSimCluster`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fastbft_core::message::{Message, WishMsg};
use fastbft_core::replica::ReplicaOptions;
use fastbft_crypto::KeyDirectory;
use fastbft_obs::{MetricsHandle, MetricsRegistry};
use fastbft_sim::{
    Actor, Effects, Network, Outgoing, ScriptedActor, SimDuration, SimTime, Simulation, TimerId,
};
use fastbft_smr::{
    offset_logs_consistent, KvCommand, KvStore, SlotMessage, SmrNode, SmrSimCluster,
};
use fastbft_types::{Config, ProcessId, Value, View};

/// The skip's silence gap (`DEFAULT_PIPELINE_DEPTH`): before a node has
/// applied this many slots, no seat can count as silent.
const GAP: u64 = 16;

fn base_timeout() -> SimDuration {
    ReplicaOptions::default().base_timeout
}

fn put(i: usize) -> Value {
    KvCommand::Put {
        key: format!("k{i}"),
        value: format!("v{i}"),
    }
    .to_value()
}

/// The view-1 leader of `slot` (slot leadership rotates, no stagger).
fn first_leader(cfg: Config, slot: u64) -> ProcessId {
    cfg.with_leader_offset(slot).leader(View::FIRST)
}

/// What one node saw of one slot, in virtual time.
#[derive(Clone, Copy, Debug, Default)]
struct SlotLog {
    /// When the node opened the slot, and how many slots it had applied
    /// just before.
    opened: Option<(SimTime, u64)>,
    /// When the node's instance decided, and whether on the fast path.
    decided: Option<(SimTime, bool)>,
    /// The first view this node wished for in the slot.
    first_wish: Option<View>,
}

/// An `SmrNode` that stamps its slots as they open, decide and wish.
///
/// A slot opens when its replica arms its first view timer (slot timers
/// are `slot << 32 | generation`). A decision is attributed to the slot
/// whose message was being handled when this node's fast or slow commit
/// counter moved.
struct Probe {
    node: SmrNode<KvStore>,
    metrics: MetricsHandle,
    slots: BTreeMap<u64, SlotLog>,
}

impl Probe {
    fn commits(&self) -> (u64, u64) {
        let m = self.metrics.get().expect("probed nodes are metered");
        (m.commit_fast_total.get(), m.commit_slow_total.get())
    }

    /// Records what `fx` shows after a callback that started with
    /// `applied` slots applied and the commit counters at `commits`.
    fn observe(
        &mut self,
        fx: &Effects<SlotMessage>,
        applied: u64,
        commits: (u64, u64),
        slot: Option<u64>,
    ) {
        let now = fx.now();
        for (_, timer) in fx.timers_set() {
            let s = timer.0 >> 32;
            if s < 1 << 31 {
                let log = self.slots.entry(s).or_default();
                log.opened.get_or_insert((now, applied));
            }
        }
        for out in fx.outgoing() {
            let (Outgoing::To(_, msg) | Outgoing::All(msg)) = out;
            if let SlotMessage::Consensus {
                slot,
                inner: Message::Wish(w),
            } = msg
            {
                self.slots
                    .entry(*slot)
                    .or_default()
                    .first_wish
                    .get_or_insert(w.view);
            }
        }
        let (fast, slow) = self.commits();
        if let Some(s) = slot {
            if fast + slow > commits.0 + commits.1 {
                let log = self.slots.entry(s).or_default();
                log.decided.get_or_insert((now, fast > commits.0));
            }
        }
    }
}

impl Actor<SlotMessage> for Probe {
    fn on_start(&mut self, fx: &mut Effects<SlotMessage>) {
        let (applied, commits) = (self.node.applied(), self.commits());
        self.node.on_start(fx);
        self.observe(fx, applied, commits, None);
    }

    fn on_message(&mut self, from: ProcessId, msg: SlotMessage, fx: &mut Effects<SlotMessage>) {
        let (applied, commits) = (self.node.applied(), self.commits());
        let slot = match &msg {
            SlotMessage::Consensus { slot, .. } => Some(*slot),
            _ => None,
        };
        self.node.on_message(from, msg, fx);
        self.observe(fx, applied, commits, slot);
    }

    fn on_timer(&mut self, timer: TimerId, fx: &mut Effects<SlotMessage>) {
        let (applied, commits) = (self.node.applied(), self.commits());
        self.node.on_timer(timer, fx);
        self.observe(fx, applied, commits, None);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// A simulated cluster of probed nodes; `silent` seats (0-based) are
/// inert from the first tick. Every live node queues the same commands.
struct Cluster {
    sim: Simulation<SlotMessage>,
    cfg: Config,
    registry: MetricsRegistry,
    silent: Vec<usize>,
}

impl Cluster {
    fn new(cfg: Config, seed: u64, commands: usize, silent: &[usize], network: Network) -> Self {
        let (pairs, dir) = KeyDirectory::generate(cfg.n(), seed);
        let registry = MetricsRegistry::new(cfg.n());
        let queue: Vec<Value> = (0..commands).map(put).collect();
        let mut sim = Simulation::new(network, seed);
        for (i, pair) in pairs.into_iter().enumerate() {
            let actor: Box<dyn Actor<SlotMessage>> = if silent.contains(&i) {
                Box::new(ScriptedActor::silent())
            } else {
                let metrics = registry.replica(i);
                let opts = ReplicaOptions {
                    metrics: metrics.clone(),
                    ..ReplicaOptions::default()
                };
                let node = SmrNode::new(
                    cfg,
                    pair,
                    dir.clone(),
                    KvStore::new(),
                    queue.clone(),
                    KvCommand::Noop.to_value(),
                )
                .with_options(opts);
                Box::new(Probe {
                    node,
                    metrics,
                    slots: BTreeMap::new(),
                })
            };
            sim.add_actor(actor);
        }
        sim.start();
        Cluster {
            sim,
            cfg,
            registry,
            silent: silent.to_vec(),
        }
    }

    fn live(&self) -> Vec<usize> {
        (0..self.cfg.n())
            .filter(|i| !self.silent.contains(i))
            .collect()
    }

    fn probe(&self, i: usize) -> &Probe {
        self.sim
            .actor(ProcessId::from_index(i))
            .as_any()
            .and_then(|a| a.downcast_ref::<Probe>())
            .expect("live seats are probes")
    }

    /// Runs until every node in `who` applied `slots` slots.
    fn run_until_applied(&mut self, who: &[usize], slots: u64) {
        let horizon = SimTime(20_000_000);
        while who.iter().any(|&i| self.probe(i).node.applied() < slots) {
            assert!(
                self.sim.now() < horizon && self.sim.step(),
                "stalled at {:?}: applied {:?}",
                self.sim.now(),
                who.iter()
                    .map(|&i| self.probe(i).node.applied())
                    .collect::<Vec<_>>()
            );
        }
    }

    fn skips(&self) -> u64 {
        self.registry.total(|m| &m.leader_skip_total)
    }

    /// The leader-skip flight-recorder events of seat `i`.
    fn skip_events(&self, i: usize) -> Vec<String> {
        self.registry
            .metrics(i)
            .recorder
            .snapshot()
            .into_iter()
            .filter(|e| e.kind == "leader-skip")
            .map(|e| e.detail)
            .collect()
    }

    fn assert_logs_agree(&self) {
        let logs: Vec<(u64, &[Value])> = self
            .live()
            .into_iter()
            .map(|i| (self.probe(i).node.log_offset(), self.probe(i).node.log()))
            .collect();
        assert!(offset_logs_consistent(&logs), "logs diverge");
    }
}

/// Open-to-decide of every slot `i` opened once it had applied the first
/// `GAP` slots, with the slot number.
fn settled_latencies(probe: &Probe) -> Vec<(u64, SimDuration)> {
    probe
        .slots
        .iter()
        .filter_map(|(&slot, log)| match (log.opened, log.decided) {
            (Some((open, applied)), Some((decide, _))) if applied >= GAP => {
                Some((slot, decide.since(open)))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn two_non_adjacent_silent_seats_cost_no_view_timeout() {
    // n = 7 with p3 and p5 silent, the seats `n7-crashed-open` stops.
    let cfg = Config::new(7, 2, 1).unwrap();
    let mut c = Cluster::new(
        cfg,
        3,
        160,
        &[2, 4],
        Network::synchronous(SimDuration::DELTA),
    );
    let live = c.live();
    c.run_until_applied(&live, 120);
    c.assert_logs_agree();
    assert!(c.skips() > 0, "no slot skipped its silent leader");
    for &i in &live {
        let lat = settled_latencies(c.probe(i));
        assert!(
            lat.len() >= 80,
            "p{}: only {} settled slots",
            i + 1,
            lat.len()
        );
        for (slot, d) in lat {
            assert!(
                d <= base_timeout(),
                "p{}: slot {slot} (first leader {}) took {d:?} from open to decide",
                i + 1,
                first_leader(cfg, slot)
            );
        }
    }
}

#[test]
fn adjacent_silent_seats_skip_to_the_first_live_leader() {
    // p6 and p7 silent, as in `commit_latency`'s n7_slow: a slot first-led
    // by p6 has p7 as its view-2 leader too, so it wishes for view 3 (p1);
    // a slot first-led by p7 wishes for view 2 (p1).
    let cfg = Config::new(7, 2, 1).unwrap();
    let mut c = Cluster::new(
        cfg,
        5,
        160,
        &[5, 6],
        Network::synchronous(SimDuration::DELTA),
    );
    let live = c.live();
    c.run_until_applied(&live, 120);
    c.assert_logs_agree();
    let mut checked = 0;
    for &i in &live {
        let probe = c.probe(i);
        for (&slot, log) in &probe.slots {
            let Some((_, applied)) = log.opened else {
                continue;
            };
            if applied < GAP || slot >= 120 {
                continue;
            }
            let want = match first_leader(cfg, slot).0 {
                6 => Some(View(3)),
                7 => Some(View(2)),
                _ => None,
            };
            if let Some(view) = want {
                let leader = cfg.with_leader_offset(slot).leader(view);
                assert_eq!(leader, ProcessId(1), "slot {slot}: wished-for leader");
                assert_eq!(log.first_wish, Some(view), "p{}: slot {slot}", i + 1);
                checked += 1;
            } else {
                assert_eq!(log.first_wish, None, "p{}: slot {slot} wished", i + 1);
            }
        }
        for (slot, d) in settled_latencies(probe) {
            assert!(d <= base_timeout(), "p{}: slot {slot} took {d:?}", i + 1);
        }
        let events = c.skip_events(i);
        assert!(
            events.iter().any(|e| e.contains("leader p6 silent")
                && e.contains("(tip none)")
                && e.ends_with("wished view 3")),
            "p{}: {events:?}",
            i + 1
        );
    }
    assert!(checked >= 5 * 20, "only {checked} skipped slots checked");
}

#[test]
fn restarted_seat_regains_view_one_leadership() {
    // n = 4: p4 is stopped (cut off both ways) until the other three have
    // applied 48 slots, then restarts and catches up.
    let cfg = Config::new(4, 1, 1).unwrap();
    let stopped = ProcessId(4);
    let restarted = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&restarted);
    let delta = SimDuration::DELTA;
    let network = Network::scripted(delta, move |info| {
        if !flag.load(Ordering::Relaxed) && (info.from == stopped || info.to == stopped) {
            SimTime::NEVER
        } else {
            info.sent_at + delta
        }
    });
    let mut c = Cluster::new(cfg, 7, 200, &[], network);
    c.run_until_applied(&[0, 1, 2], 48);
    let skips_while_stopped = c.skips();
    assert!(skips_while_stopped > 0, "no slot skipped the stopped seat");
    assert!(c
        .skip_events(0)
        .iter()
        .any(|e| e.contains("leader p4 silent")));
    restarted.store(true, Ordering::Relaxed);
    let rejoin = c.probe(0).node.applied();
    c.run_until_applied(&[0, 1, 2, 3], 160);
    c.assert_logs_agree();

    // Every slot p4 first-leads from one pipeline past its rejoin on is
    // decided on the fast path at every node, and nobody ever wished to
    // leave view 1 for it.
    let mut regained = 0;
    for slot in rejoin + 2 * GAP..150 {
        if first_leader(cfg, slot) != stopped {
            continue;
        }
        for i in 0..4 {
            let log = c.probe(i).slots.get(&slot).copied().unwrap_or_default();
            assert_eq!(log.first_wish, None, "p{}: wished in slot {slot}", i + 1);
            if let Some((_, fast)) = log.decided {
                assert!(fast, "p{}: slot {slot} decided on the slow path", i + 1);
            }
        }
        let (_, fast) = c
            .probe(3)
            .slots
            .get(&slot)
            .and_then(|log| log.decided)
            .expect("the restarted seat decides the slots it leads");
        assert!(fast);
        regained += 1;
    }
    assert!(
        regained >= 10,
        "only {regained} slots led by p4 after rejoin"
    );
}

#[test]
fn fault_free_runs_never_skip() {
    // Fixed seeds at n = 4 and n = 7, on a synchronous network and on one
    // with random delays up to 3Δ before GST: no peer ever trails a whole
    // pipeline, so no slot skips its leader.
    for (n, f) in [(4, 1), (7, 2)] {
        let cfg = Config::new(n, f, 1).unwrap();
        for seed in 1..=5 {
            for synchronous in [true, false] {
                let network = if synchronous {
                    Network::synchronous(SimDuration::DELTA)
                } else {
                    Network::partially_synchronous(
                        SimDuration::DELTA,
                        SimTime(3_000),
                        SimDuration::DELTA * 3,
                    )
                };
                let metrics = MetricsHandle::standalone();
                let opts = ReplicaOptions {
                    metrics: metrics.clone(),
                    ..ReplicaOptions::default()
                };
                let queue: Vec<Value> = (0..120).map(put).collect();
                let mut cluster = SmrSimCluster::new_with_network(
                    cfg,
                    seed,
                    KvStore::new(),
                    vec![queue; n],
                    KvCommand::Noop.to_value(),
                    opts,
                    1,
                    network,
                );
                let report = cluster.run_until_commands(120, SimTime(50_000_000));
                assert!(report.commands_everywhere >= 120, "n={n} seed={seed}");
                assert!(report.logs_consistent, "n={n} seed={seed}");
                let m = metrics.get().unwrap();
                assert_eq!(
                    m.leader_skip_total.get(),
                    0,
                    "n={n} seed={seed} synchronous={synchronous}: {:?}",
                    m.recorder.snapshot()
                );
            }
        }
    }
}

#[test]
fn chatty_byzantine_leader_is_not_skipped() {
    // The known limit: p4 acks and wishes like a correct seat but never
    // proposes. It is never silent, so nothing is skipped, and every slot
    // it first-leads waits out the view-1 timeout before a view change.
    let cfg = Config::new(4, 1, 1).unwrap();
    let byzantine = ProcessId(4);
    let delta = SimDuration::DELTA;
    let network = Network::scripted(delta, move |info| {
        if info.from == byzantine && info.kind == "propose" {
            SimTime::NEVER
        } else {
            info.sent_at + delta
        }
    });
    let mut c = Cluster::new(cfg, 9, 120, &[], network);
    c.run_until_applied(&[0, 1, 2], 80);
    c.assert_logs_agree();
    assert_eq!(c.skips(), 0, "a chatty seat was skipped");
    let mut paid = 0;
    for i in 0..3 {
        for (slot, d) in settled_latencies(c.probe(i)) {
            if slot < 80 && first_leader(cfg, slot) == byzantine {
                // Nodes open a slot up to a couple of Δ apart, and the
                // earliest timeout's wishes pull the others along.
                assert!(
                    d + delta * 2 >= base_timeout(),
                    "p{}: slot {slot} decided after only {d:?}",
                    i + 1
                );
                paid += 1;
            }
        }
    }
    assert!(
        paid >= 3 * 10,
        "only {paid} slots led by the Byzantine seat"
    );
}

#[test]
fn a_huge_claimed_tip_neither_overflows_nor_silences() {
    // A frame tagged with the largest slot sets its sender's tip there;
    // the silence check must neither overflow on it nor count the sender
    // silent.
    let cfg = Config::new(4, 1, 1).unwrap();
    let metrics = MetricsHandle::standalone();
    let opts = ReplicaOptions {
        metrics: metrics.clone(),
        ..ReplicaOptions::default()
    };
    let queue: Vec<Value> = (0..60).map(put).collect();
    let mut cluster = SmrSimCluster::new(
        cfg,
        2,
        KvStore::new(),
        vec![queue; 4],
        KvCommand::Noop.to_value(),
        opts,
    );
    cluster.inject_message(
        ProcessId(4),
        ProcessId(1),
        SlotMessage::Consensus {
            slot: u64::MAX,
            inner: Message::Wish(WishMsg { view: View(2) }),
        },
        SimTime::ZERO,
    );
    let report = cluster.run_until_commands(60, SimTime(50_000_000));
    assert!(report.commands_everywhere >= 60 && report.logs_consistent);
    assert_eq!(metrics.get().unwrap().leader_skip_total.get(), 0);
}
