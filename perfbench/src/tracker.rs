//! Client-side bookkeeping: which replica applied which command where,
//! when each command was acked, and the correctness gate over all of it.
//!
//! Every `Applied` event of the cluster passes through [`Tracker::on_event`].
//! A command is *acked* once f+1 replicas applied it — the matching replies
//! a BFT client waits for — at the replica-side `Applied::elapsed` stamp of
//! the (f+1)-th, so a starved client thread does not inflate latency.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Duration;

use fastbft_runtime::Applied;
use fastbft_types::Value;

use crate::workload::command_id;

/// Log entry of a replica's idle filler.
const NOOP: u32 = u32::MAX;
/// A log index no replica reported yet.
const HOLE: u32 = u32::MAX - 1;

/// Violations kept verbatim; later ones are only counted.
const VIOLATIONS_KEPT: usize = 8;

/// A growable bitset.
#[derive(Clone, Default)]
struct Bits(Vec<u64>);

impl Bits {
    fn get(&self, i: usize) -> bool {
        self.0.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Sets bit `i`; returns whether it was set already.
    fn set(&mut self, i: usize) -> bool {
        let word = i / 64;
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        let was = self.get(i);
        self.0[word] |= 1 << (i % 64);
        was
    }
}

/// The per-command state is kept compact (about 35 bytes a command), as
/// it shares the process's peak memory with the cluster under test.
pub struct Tracker {
    quorum: u8,
    live: Vec<usize>,
    idle: Value,
    /// Fingerprints of the submitted commands by id: enough to tell a
    /// forged or corrupted command from the submitted one.
    cmds: Vec<u32>,
    /// Latency origin per id (due time in an open loop, submit time in a
    /// closed one), in ns on the cluster clock.
    pub origin_ns: Vec<u64>,
    /// When the client actually submitted each id.
    pub submit_ns: Vec<u64>,
    /// Replicas that applied each id (saturates at the quorum).
    votes: Vec<u8>,
    /// Latest apply stamp among the first `quorum` appliers.
    ack_ns: Vec<u64>,
    /// Per replica, the ids it applied.
    applied: Vec<Bits>,
    /// The log by index, as the first replica to reach each index reported
    /// it; every later report must match.
    log: Vec<u32>,
    /// Per replica, the log indexes it reported, and one past the highest.
    reported: Vec<Bits>,
    frontier: Vec<usize>,
    /// Commands each replica applied.
    replica_cmds: Vec<u64>,
    acked: u64,
    /// Most commands a live replica trailed the ack frontier by.
    pub lag_max: u64,
    /// Ids acked since the client last looked.
    pub newly_acked: Vec<u32>,
    violations: Vec<String>,
    violation_count: usize,
}

impl Tracker {
    pub fn new(n: usize, f: usize, live: Vec<usize>, idle: Value) -> Self {
        Tracker {
            quorum: u8::try_from(f + 1).expect("f + 1 fits a u8"),
            live,
            idle,
            cmds: Vec::new(),
            origin_ns: Vec::new(),
            submit_ns: Vec::new(),
            votes: Vec::new(),
            ack_ns: Vec::new(),
            applied: vec![Bits::default(); n],
            log: Vec::new(),
            reported: vec![Bits::default(); n],
            frontier: vec![0; n],
            replica_cmds: vec![0; n],
            acked: 0,
            lag_max: 0,
            newly_acked: Vec::new(),
            violations: Vec::new(),
            violation_count: 0,
        }
    }

    /// Registers command `cmd` as the next id; returns that id.
    pub fn submitted(&mut self, cmd: &Value, origin_ns: u64, submit_ns: u64) -> u32 {
        let id = u32::try_from(self.cmds.len()).expect("fewer than 2^32 commands");
        debug_assert_eq!(command_id(cmd), Some(id));
        self.cmds.push(fingerprint(cmd));
        self.origin_ns.push(origin_ns);
        self.submit_ns.push(submit_ns);
        self.votes.push(0);
        self.ack_ns.push(0);
        id
    }

    pub fn len(&self) -> usize {
        self.cmds.len()
    }

    /// The ack stamp of `id`, if f+1 replicas applied it.
    pub fn ack(&self, id: u32) -> Option<u64> {
        (self.votes[id as usize] >= self.quorum).then(|| self.ack_ns[id as usize])
    }

    fn violation(&mut self, what: String) {
        self.violation_count += 1;
        if self.violations.len() < VIOLATIONS_KEPT {
            self.violations.push(what);
        }
    }

    pub fn on_event(&mut self, ev: Applied) {
        let r = ev.process.index();
        let id = if ev.command == self.idle {
            NOOP
        } else {
            match command_id(&ev.command)
                .filter(|&id| self.cmds.get(id as usize) == Some(&fingerprint(&ev.command)))
            {
                Some(id) => id,
                None => {
                    self.violation(format!(
                        "p{} applied a command nobody submitted at index {}",
                        r + 1,
                        ev.index
                    ));
                    return;
                }
            }
        };
        let index = usize::try_from(ev.index).expect("log index fits usize");
        if index >= self.log.len() {
            self.log.resize(index + 1, HOLE);
        }
        if self.log[index] == HOLE {
            self.log[index] = id;
        } else if self.log[index] != id {
            self.violation(format!("live replicas disagree at log index {index}"));
        }
        self.reported[r].set(index);
        self.frontier[r] = self.frontier[r].max(index + 1);
        if id == NOOP {
            return;
        }
        if self.applied[r].set(id as usize) {
            self.violation(format!("p{} applied command {id} twice", r + 1));
            return;
        }
        self.replica_cmds[r] += 1;
        let i = id as usize;
        if self.votes[i] < self.quorum {
            self.votes[i] += 1;
            self.ack_ns[i] = self.ack_ns[i].max(ev.elapsed.as_nanos() as u64);
            if self.votes[i] == self.quorum {
                self.acked += 1;
                self.newly_acked.push(id);
                for &l in &self.live {
                    self.lag_max = self
                        .lag_max
                        .max(self.acked.saturating_sub(self.replica_cmds[l]));
                }
            }
        }
    }

    /// Whether the live replicas' logs reach the same index, and every
    /// submitted command is acked or past `deadline`.
    pub fn settled(&self, now_ns: u64, deadline: Duration) -> bool {
        let deadline = deadline.as_nanos() as u64;
        let frontier = self.frontier[self.live[0]];
        self.live.iter().all(|&r| self.frontier[r] == frontier)
            && (0..self.cmds.len()).all(|i| {
                self.votes[i] >= self.quorum || now_ns.saturating_sub(self.origin_ns[i]) > deadline
            })
    }

    /// The correctness gate, run after the cluster stopped (log agreement
    /// and duplicates were checked as events arrived). `digests` are the
    /// live replicas' final state digests. On success, returns how many
    /// applies replicas skipped by installing a snapshot.
    pub fn verdict(&mut self, digests: &[fastbft_crypto::Digest]) -> Result<usize, String> {
        let mut index_of = vec![u32::MAX; self.cmds.len()];
        for (index, &id) in self.log.iter().enumerate() {
            if id != NOOP && id != HOLE {
                index_of[id as usize] = u32::try_from(index).expect("log index fits u32");
            }
        }
        // Every command applied anywhere is applied on every live replica,
        // or sits at an index the replica skipped by installing a snapshot
        // — whose state the digest comparison below checks.
        let mut skipped = 0;
        for &r in &self.live.clone() {
            let mut missing = 0;
            for (i, &index) in index_of.iter().enumerate() {
                if self.votes[i] == 0 || self.applied[r].get(i) {
                    continue;
                }
                let index = index as usize;
                if index < self.frontier[r] && !self.reported[r].get(index) {
                    skipped += 1;
                } else {
                    missing += 1;
                }
            }
            if missing > 0 {
                self.violation(format!(
                    "p{} never applied {missing} command(s) other replicas applied",
                    r + 1
                ));
            }
        }
        if digests.windows(2).any(|w| w[0] != w[1]) {
            self.violation("final state digests differ across live replicas".into());
        }
        if self.violation_count == 0 {
            Ok(skipped)
        } else {
            Err(format!(
                "{} correctness violation(s): {}",
                self.violation_count,
                self.violations.join("; ")
            ))
        }
    }
}

/// A deterministic 32-bit hash of a command's bytes.
fn fingerprint(cmd: &Value) -> u32 {
    let mut h = DefaultHasher::new();
    cmd.as_bytes().hash(&mut h);
    h.finish() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{command, Rng};
    use fastbft_types::ProcessId;

    fn ev(p: u32, index: u64, command: &Value, ms: u64) -> Applied {
        Applied {
            process: ProcessId(p),
            index,
            command: command.clone(),
            elapsed: Duration::from_millis(ms),
        }
    }

    fn tracker_with(cmds: usize) -> (Tracker, Vec<Value>) {
        let mut t = Tracker::new(4, 1, vec![0, 1, 2, 3], Value::from_u64(0));
        let mut rng = Rng::new(1);
        let cmds: Vec<Value> = (0..cmds as u32).map(|i| command(&mut rng, i, 32)).collect();
        for c in &cmds {
            t.submitted(c, 0, 0);
        }
        (t, cmds)
    }

    #[test]
    fn ack_is_the_f_plus_first_apply() {
        let (mut t, cmds) = tracker_with(1);
        t.on_event(ev(3, 0, &cmds[0], 5));
        assert_eq!(t.ack(0), None);
        t.on_event(ev(1, 0, &cmds[0], 7));
        assert_eq!(t.ack(0), Some(7_000_000));
        t.on_event(ev(2, 0, &cmds[0], 9));
        assert_eq!(
            t.ack(0),
            Some(7_000_000),
            "later applies do not move the ack"
        );
        assert_eq!(t.lag_max, 1, "two replicas trail the one acked command");
        t.on_event(ev(4, 0, &cmds[0], 9));
        assert!(t.settled(0, Duration::ZERO));
        assert_eq!(t.verdict(&[]), Ok(0));
    }

    #[test]
    fn applies_skipped_by_a_snapshot_install_pass_the_gate() {
        let (mut t, cmds) = tracker_with(3);
        for p in 1..=3 {
            for (i, c) in cmds.iter().enumerate() {
                t.on_event(ev(p, i as u64, c, 1));
            }
        }
        // p4 installs a snapshot covering index 1 and resumes at index 2.
        t.on_event(ev(4, 0, &cmds[0], 1));
        assert!(!t.settled(0, Duration::ZERO));
        t.on_event(ev(4, 2, &cmds[2], 1));
        assert!(t.settled(0, Duration::ZERO));
        let d = fastbft_crypto::digest(b"state");
        assert_eq!(t.verdict(&[d; 4]), Ok(1));
    }

    #[test]
    fn the_gate_catches_duplicates_divergence_and_gaps() {
        let (mut t, cmds) = tracker_with(2);
        for p in 1..=4 {
            t.on_event(ev(p, 0, &cmds[0], 1));
        }
        t.on_event(ev(1, 1, &cmds[0], 2));
        assert!(t.verdict(&[]).unwrap_err().contains("twice"));

        let (mut t, cmds) = tracker_with(2);
        t.on_event(ev(1, 0, &cmds[0], 1));
        t.on_event(ev(2, 0, &cmds[1], 1));
        assert!(t.verdict(&[]).unwrap_err().contains("disagree"));

        let (mut t, cmds) = tracker_with(1);
        t.on_event(ev(1, 0, &cmds[0], 1));
        t.on_event(ev(2, 0, &cmds[0], 1));
        assert!(!t.settled(0, Duration::from_secs(1)));
        assert!(t.verdict(&[]).unwrap_err().contains("never applied"));

        // A gap in a replica's log covers only what sits in the gap.
        let (mut t, cmds) = tracker_with(2);
        for p in 1..=3 {
            t.on_event(ev(p, 0, &cmds[0], 1));
            t.on_event(ev(p, 1, &cmds[1], 1));
        }
        t.on_event(ev(4, 1, &cmds[1], 1));
        t.on_event(ev(4, 2, &Value::from_u64(0), 1));
        assert!(t.verdict(&[]).is_ok(), "index 0 is a hole in p4's log");
        let (mut t, cmds) = tracker_with(2);
        for p in 1..=4 {
            t.on_event(ev(p, 0, &cmds[0], 1));
        }
        for p in 1..=3 {
            t.on_event(ev(p, 1, &cmds[1], 1));
        }
        assert!(t.verdict(&[]).unwrap_err().contains("never applied"));

        let (mut t, _) = tracker_with(0);
        t.on_event(ev(1, 0, &Value::from_u64(42), 1));
        assert!(t.verdict(&[]).unwrap_err().contains("nobody submitted"));

        let (mut t, _) = tracker_with(0);
        let d = fastbft_crypto::digest(b"a");
        let e = fastbft_crypto::digest(b"b");
        assert!(t.verdict(&[d, e]).unwrap_err().contains("digests"));
    }
}
