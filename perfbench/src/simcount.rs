//! The exact-count pass: a workload's cluster shape, command size and
//! crashed seats, with a fixed command list, under the deterministic
//! simulator. Its message and byte counts repeat exactly from run to run,
//! so claims about counts can rest on them rather than on the live run.
//!
//! The list reaches the replicas over virtual time at the workload's
//! offered rate (a closed loop's `outstanding` commands per Δ), each
//! command to every replica as the live client does, so batches form as
//! they do under load rather than all at once. Each proposal drains up to
//! the adaptive batcher's cap: the adaptive batcher itself steers by a
//! wall-clock latency average, which would make the counts vary.

use fastbft_core::replica::ReplicaOptions;
use fastbft_crypto::KeyDirectory;
use fastbft_sim::{
    Actor, Effects, Network, ScriptedActor, SimDuration, SimTime, Simulation, TimerId,
};
use fastbft_smr::{AdaptiveBatch, Batching, KvCommand, KvStore, SlotMessage, SmrNode};
use fastbft_types::{Config, ProcessId, Value};

use crate::cluster::TICK;
use crate::workload::{command, Load, Rng, Workload};

/// Commands in the fixed list.
const COMMANDS: u32 = 1024;

/// Ticks between two feeds of the simulated client.
const FEED_TICKS: u64 = 10;

/// The feed timer's id; `SmrNode` timers are `slot << 32 | generation`
/// or one of a few ids just below `u64::MAX`, so this one is free.
const FEED_TIMER: TimerId = TimerId(u64::MAX - 1024);

/// Seed of the keys, the command list and the simulator: fixed, so the
/// counts do not depend on the run's `--seed`.
const SEED: u64 = 1;

/// Virtual-time bound on the pass.
const HORIZON: SimTime = SimTime(10_000_000);

/// Messages and bytes sent per command until every live replica applied
/// the whole list.
pub fn exact_counts(w: Workload) -> Result<(f64, f64), String> {
    let cfg = Config::new(w.n, w.f, w.t).map_err(|e| format!("config: {e:?}"))?;
    let (pairs, dir) = KeyDirectory::generate(cfg.n(), SEED);
    let mut rng = Rng::new(SEED);
    let cmds: Vec<_> = (0..COMMANDS)
        .map(|id| command(&mut rng, id, w.payload))
        .collect();
    // The simulator owns no threads, so the apply worker stays inline.
    let opts = ReplicaOptions {
        apply_workers: 0,
        ..ReplicaOptions::default()
    };
    let mut sim = Simulation::new(Network::synchronous(SimDuration::DELTA), SEED);
    for (i, pair) in pairs.into_iter().enumerate() {
        let actor: Box<dyn Actor<SlotMessage>> = if w.crashed.contains(&i) {
            Box::new(ScriptedActor::silent())
        } else {
            let node = SmrNode::new(
                cfg,
                pair,
                dir.clone(),
                KvStore::new(),
                Vec::new(),
                KvCommand::Noop.to_value(),
            )
            .with_batching(Batching::Fixed(AdaptiveBatch::default().max_batch_cmds))
            .with_options(opts.clone());
            Box::new(Fed {
                node,
                cmds: cmds.clone(),
                fed: 0,
                per_tick: per_tick(w),
                ticks: 0,
            })
        };
        sim.add_actor(actor);
    }
    sim.start();
    let live = w.live();
    let applied = |sim: &Simulation<SlotMessage>| {
        live.iter()
            .map(|&i| {
                sim.actor(ProcessId::from_index(i))
                    .as_any()
                    .and_then(|a| a.downcast_ref::<Fed>())
                    .map(|fed| &fed.node)
                    .map_or(0, SmrNode::commands_applied)
            })
            .min()
            .unwrap_or(0)
    };
    while applied(&sim) < u64::from(COMMANDS) {
        if sim.now() > HORIZON || !sim.step() {
            return Err(format!(
                "simulated {} cluster stopped after {} of {COMMANDS} commands",
                w.name,
                applied(&sim)
            ));
        }
    }
    let stats = sim.trace().message_stats(SimTime::NEVER);
    let per_cmd = |x: usize| x as f64 / f64::from(COMMANDS);
    Ok((per_cmd(stats.messages), per_cmd(stats.bytes)))
}

/// Commands the workload offers per protocol tick.
fn per_tick(w: Workload) -> f64 {
    match w.load {
        Load::Open { rate } => rate * TICK.as_secs_f64(),
        Load::Closed { outstanding } => outstanding as f64 / SimDuration::DELTA.0 as f64,
    }
}

/// An `SmrNode` whose client commands arrive over virtual time: every
/// [`FEED_TICKS`] its feed timer hands it the commands that fell due.
struct Fed {
    node: SmrNode<KvStore>,
    cmds: Vec<Value>,
    fed: usize,
    per_tick: f64,
    ticks: u64,
}

impl Actor<SlotMessage> for Fed {
    fn on_start(&mut self, fx: &mut Effects<SlotMessage>) {
        self.node.on_start(fx);
        fx.set_timer(SimDuration(FEED_TICKS), FEED_TIMER);
    }

    fn on_message(&mut self, from: ProcessId, msg: SlotMessage, fx: &mut Effects<SlotMessage>) {
        self.node.on_message(from, msg, fx);
    }

    fn on_timer(&mut self, timer: TimerId, fx: &mut Effects<SlotMessage>) {
        if timer != FEED_TIMER {
            return self.node.on_timer(timer, fx);
        }
        self.ticks += FEED_TICKS;
        let due = ((self.ticks as f64 * self.per_tick) as usize).min(self.cmds.len());
        while self.fed < due {
            self.node.on_client(self.cmds[self.fed].clone(), fx);
            self.fed += 1;
        }
        if self.fed < self.cmds.len() {
            fx.set_timer(SimDuration(FEED_TICKS), FEED_TIMER);
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn counts_repeat_exactly() {
        for w in WORKLOADS {
            let first = exact_counts(w).unwrap();
            assert!(first.0 > 0.0 && first.1 > 0.0, "{}", w.name);
            assert_eq!(first, exact_counts(w).unwrap(), "{}", w.name);
        }
    }
}
