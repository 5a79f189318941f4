//! What a settled slot answers. Acks, shares and `Commit`s carry the
//! value's digest, so a late one for a settled slot whose digest names the
//! committed value draws no `Backfill`: its sender accepted that value and
//! holds the bytes. A replica that is really stuck on such a slot times
//! out and wishes, and the `Backfill` answering the wish settles it.

use fastbft_core::replica::ReplicaOptions;
use fastbft_sim::{Network, SimDuration, SimTime};
use fastbft_smr::{KvCommand, KvStore, SmrSimCluster};
use fastbft_types::{Config, ProcessId, Value};

fn put(i: usize) -> Value {
    KvCommand::Put {
        key: format!("k{}", i % 16),
        value: format!("v{i}"),
    }
    .to_value()
}

fn options() -> ReplicaOptions {
    ReplicaOptions {
        verify_workers: 0,
        ..ReplicaOptions::default()
    }
}

/// A fault-free n = 7 run moves each value once per replica per slot:
/// no settled slot is ever asked about, so no `Backfill` is sent.
#[test]
fn fault_free_run_sends_no_backfill() {
    const COMMANDS: usize = 200;
    let cfg = Config::new(7, 2, 1).unwrap();
    let queue: Vec<Value> = (0..COMMANDS).map(put).collect();
    let mut cluster = SmrSimCluster::new_batched(
        cfg,
        3,
        KvStore::new(),
        vec![queue; 7],
        KvCommand::Noop.to_value(),
        options(),
        8,
    );
    let report = cluster.run_until_commands(COMMANDS as u64, SimTime(2_000_000));
    assert!(report.logs_consistent, "{report:?}");
    assert!(report.commands_everywhere >= COMMANDS as u64, "{report:?}");

    let stats = cluster.trace().message_stats(SimTime::NEVER);
    assert_eq!(stats.by_kind.get("backfill"), None, "{:?}", stats.by_kind);
    assert_eq!(stats.by_kind.get("ValueReq"), None, "{:?}", stats.by_kind);
    assert!(stats.by_kind["ack"].0 > 0);
}

/// The victim gets slot 0's proposal but none of its acks, shares or
/// `Commit`s; everyone else settles slot 0 and moves on. After the heal,
/// the victim's slot-0 timer fires, its wish draws `Backfill` from the
/// replicas that settled the slot, and f + 1 matching replies settle it.
#[test]
fn replica_cut_off_from_a_slots_quorum_settles_through_backfill() {
    const COMMANDS: usize = 24;
    let cfg = Config::new(7, 2, 1).unwrap();
    let victim = ProcessId(5);
    let delta = SimDuration::DELTA;
    // Slot 0: proposal at 0, acks at Δ, `Commit`s at 2Δ. Slot 1's
    // proposal leaves at 2Δ and its acks at 3Δ, so the cut covers exactly
    // slot 0's quorum traffic toward the victim.
    let heal = SimTime(3 * delta.0);
    let network = Network::scripted(delta, move |info| {
        let quorum_traffic = matches!(info.kind, "ack" | "sig" | "Commit");
        if info.to == victim && quorum_traffic && info.sent_at < heal {
            SimTime::NEVER
        } else {
            info.sent_at + delta
        }
    });
    let queue: Vec<Value> = (0..COMMANDS).map(put).collect();
    let mut cluster = SmrSimCluster::new_with_network(
        cfg,
        5,
        KvStore::new(),
        vec![queue; 7],
        KvCommand::Noop.to_value(),
        options(),
        1,
        network,
    );
    let report = cluster.run_until_commands(COMMANDS as u64, SimTime(2_000_000));
    assert!(report.logs_consistent, "{report:?}");
    assert!(
        report.commands_everywhere >= COMMANDS as u64,
        "the victim must settle slot 0 and catch up: {report:?}"
    );
    let digest = cluster.machine(ProcessId(1)).state_digest();
    assert_eq!(cluster.machine(victim).state_digest(), digest);

    let stats = cluster.trace().message_stats(SimTime::NEVER);
    let (backfills, _) = stats.by_kind["backfill"];
    assert!(
        backfills > cfg.f(),
        "f + 1 matching backfills settle the slot: {:?}",
        stats.by_kind
    );
    assert!(stats.by_kind["wish"].0 > 0, "the victim wished");
}
