//! Value recovery: acks and `Commit`s name the value by digest, so a
//! replica the leader starved of its proposal can hold a decision quorum
//! without the bytes. It must still decide the acked value, by asking the
//! quorum for the proposal, and must not be fooled by replies that carry a
//! different value or a forged leader signature.

use fastbft_core::certs::ProgressCert;
use fastbft_core::message::{AckMsg, Message, ProposeMsg};
use fastbft_core::payload::propose_payload;
use fastbft_core::replica::{Replica, ReplicaOptions};
use fastbft_crypto::{value_digest, KeyDirectory, KeyPair};
use fastbft_sim::{ConsensusChecker, Network, ScriptedActor, SimDuration, SimTime, Simulation};
use fastbft_types::{Config, ProcessId, Value, View};

const DELTA: SimDuration = SimDuration::DELTA;

fn at(deltas: u64) -> SimTime {
    SimTime(DELTA.0 * deltas)
}

fn propose(leader: &KeyPair, value: &Value, signed_for: View) -> ProposeMsg {
    ProposeMsg {
        value: value.clone(),
        view: View::FIRST,
        cert: ProgressCert::Genesis,
        sig: leader.sign(&propose_payload(value, signed_for)),
    }
}

/// `leader(1)` proposes `x` to every correct replica but `starved`, acks
/// `x` to everyone, and — once `starved` has asked — sends it two bogus
/// value replies that arrive a Δ before the honest ones: a genuinely
/// signed proposal of another value, and `x` under a τ̂ that signs the
/// wrong statement.
fn run(n: usize, f: usize, t: usize, starved: ProcessId) -> Simulation<Message> {
    let cfg = Config::new(n, f, t).unwrap();
    let (pairs, dir) = KeyDirectory::generate(n, 11);
    let leader = cfg.leader(View::FIRST);
    let keys = &pairs[leader.index()];
    let x = Value::new(vec![0x42; 1024]);
    let y = Value::new(vec![0x24; 1024]);

    let fed: Vec<ProcessId> = cfg
        .processes()
        .filter(|p| *p != starved && *p != leader)
        .collect();
    let script = ScriptedActor::silent()
        .with_multicast_at(
            SimTime::ZERO,
            fed,
            Message::Propose(propose(keys, &x, View::FIRST)),
        )
        .with_broadcast_at(
            at(1),
            Message::Ack(AckMsg {
                digest: *value_digest(&x),
                view: View::FIRST,
                share: None,
            }),
        )
        .with_send_at(
            at(2),
            starved,
            Message::ValueReply(propose(keys, &y, View::FIRST)),
        )
        .with_send_at(
            at(2),
            starved,
            Message::ValueReply(propose(keys, &x, View(2))),
        );

    let opts = ReplicaOptions {
        base_timeout: SimDuration(DELTA.0 * 40),
        ..ReplicaOptions::default()
    };
    let mut sim = Simulation::new(Network::synchronous(DELTA), 5);
    for p in cfg.processes() {
        if p == leader {
            sim.add_actor(Box::new(script.clone()));
        } else {
            sim.add_actor(Box::new(Replica::with_options(
                cfg,
                pairs[p.index()].clone(),
                dir.clone(),
                Value::from_u64(p.0.into()),
                opts.clone(),
            )));
        }
    }
    sim.start();
    sim.run_until(at(30));

    let checker =
        ConsensusChecker::new(cfg.processes().map(|p| (p, x.clone()))).with_byzantine_set([leader]);
    assert!(checker.check_safety(sim.trace()).is_empty());
    for p in cfg.processes().filter(|p| *p != leader) {
        let (when, value) = sim.decision(p).expect("every correct replica decides");
        assert_eq!(*value, x, "{p} decided the proposal's value");
        // The fed replicas decide in two delays; the starved one needs a
        // request and a reply more, and the bogus replies a Δ earlier did
        // not end its wait.
        let expected = if p == starved { at(4) } else { at(2) };
        assert_eq!(*when, expected, "{p} decision time");
    }
    sim
}

#[test]
fn starved_replica_decides_through_value_request() {
    for (n, f, t) in [(4, 1, 1), (7, 2, 1)] {
        let cfg = Config::new(n, f, t).unwrap();
        let leader = cfg.leader(View::FIRST);
        let starved = cfg.processes().find(|p| *p != leader).unwrap();
        let sim = run(n, f, t, starved);

        let stats = sim.trace().message_stats(SimTime::NEVER);
        // One request to each member of the ack quorum (the starved
        // replica never acked, so it is not one of them)…
        let quorum = cfg.fast_quorum();
        assert_eq!(stats.by_kind["ValueReq"].0, quorum, "n={n}");
        // …answered once by each correct member (the scripted leader's
        // two bogus replies are the rest).
        assert_eq!(stats.by_kind["ValueReply"].0, quorum - 1 + 2, "n={n}");
        // Value bytes crossed the wire only in proposals and replies.
        let (acks, ack_bytes) = stats.by_kind["ack"];
        assert!(
            ack_bytes / acks < 200,
            "acks carry digests, not 1 KiB values"
        );
    }
}
