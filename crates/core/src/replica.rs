//! The replica: one process's complete protocol state machine.
//!
//! Implements the generalized protocol of Appendix A (the vanilla `5f − 1`
//! protocol of §3 is the special case `t = f`, which disables the slow
//! path):
//!
//! * **fast path** — leader proposes; every process acks to everyone;
//!   `n − t` acks for the same `(x, v)` decide `x` (two message delays);
//! * **slow path** — each ack is accompanied by a signature share;
//!   `⌈(n+f+1)/2⌉` shares form a commit certificate, which is broadcast in a
//!   `Commit` message; `⌈(n+f+1)/2⌉` `Commit`s decide (three delays);
//! * **view change** — on entering view `v`, every process sends its signed
//!   vote to `leader(v)`; the leader collects `n − f` valid votes, runs the
//!   selection algorithm, has its choice certified by `f + 1` processes
//!   (bounded certificates) and proposes;
//! * **view synchronization** — a wish/enter synchronizer with doubling
//!   timeouts providing the three properties the paper requires (§3).
//!
//! The replica is an I/O-free [`Actor`]: all effects go through
//! [`Effects`], so the same code runs under the simulator, the thread
//! runtime and the property tests.
//!
//! # Digest-carried acks and commits
//!
//! Only the leader's proposal carries the value's bytes. Acks, shares and
//! `Commit`s carry the 32-byte digest `H(x)` that their signatures cover
//! anyway, and the replica tallies them by `(view, digest)`. Three rules
//! keep that equivalent to shipping the bytes:
//!
//! 1. **Decide only with the bytes.** A fast or slow decision quorum for a
//!    digest decides only once the replica holds a value with that digest
//!    — the proposal it accepted or buffered for that view — and is
//!    re-checked whenever such a proposal arrives. A replica whose quorum
//!    outran the proposal (a Byzantine leader withheld it) sends one
//!    [`ValueRequestMsg`] for the view to the quorum's senders; each
//!    answers at most once with the leader-signed proposal it accepted,
//!    which must pass the `τ̂`/`σ̂` checks of any proposal and match the
//!    quorum's digest.
//! 2. **Commit only your own accepted value.** A replica assembles and
//!    broadcasts `Commit(x, v, cc)` only for the `x` it accepted in `v`.
//! 3. **Keep a received commit certificate only with its bytes**, so
//!    `latest_cc` is always a complete certificate that fits in a vote.
//!
//! Decisions are therefore exactly those the value-carrying protocol makes
//! (the same signed quorums, over statements that already bound `H(x)`),
//! possibly later, never different: by collision resistance the bytes a
//! replica holds for `H(x)` are `x`.
//!
//! ## Why the view change stays safe
//!
//! Zyzzyva's fast-path bug was a decision the view change could not
//! recover, so the argument is restated here rather than assumed.
//!
//! *Slow path (Appendix A).* If `x` is decided on the slow path in view
//! `v`, some `⌈(n+f+1)/2⌉` processes sent `Commit(x, v, cc)`. Any `n − f`
//! votes of a later view share at least `⌈(n+f+1)/2⌉ − f ≥ f + 1` processes
//! with them (because `n ≥ 3f + 1`), so the vote of at least one correct
//! `Commit` sender reaches the new leader, carrying `cc` or a newer
//! certificate, and the selection algorithm keeps `x`. This needs each
//! correct `Commit` sender to put the *whole* certificate, value bytes
//! included, into its votes. Rule 2 gives exactly that: a correct process
//! commits only the value it accepted, whose bytes it holds, and stores the
//! certificate as `latest_cc` as it sends. Receivers that lack the bytes
//! do not keep the certificate (rule 3). That costs nothing, because the
//! argument counts on the senders, never on the receivers.
//!
//! *Fast path (§3.2).* An ack is still sent only after accepting the
//! proposal, so the `vote_q` of every correct ack sender holds the bytes
//! the selection algorithm reads. A replica that decided through a
//! [`ValueRequestMsg`] decided a value that `n − t` processes acked, under
//! a leader signature it checked, just as if the proposal had reached it
//! directly.

use std::collections::{BTreeMap, BTreeSet};

use fastbft_crypto::{value_digest, Digest, KeyDirectory, KeyPair, Signature, SignatureSet};
use fastbft_obs::MetricsHandle;
use fastbft_sim::{Actor, Effects, SimDuration, TimerId};
use fastbft_types::{Config, ProcessId, Value, View};

use crate::certs::{
    verify_commit_sigs, CertCache, CertMode, CommitCert, ProgressCert, SignedVote, Vote, VoteData,
};
use crate::message::{
    AckMsg, CertAckMsg, CertRequestMsg, CommitMsg, Message, ProposeMsg, SigShareMsg,
    ValueRequestMsg, VoteMsg, WishMsg,
};
use crate::payload::{ack_statement, certack_payload, certack_statement, propose_payload};
use crate::selection::{select, Outcome};

/// Tuning knobs for a [`Replica`].
#[derive(Clone, Debug)]
pub struct ReplicaOptions {
    /// Progress-certificate construction (bounded vs naive; E7 ablation).
    pub cert_mode: CertMode,
    /// Whether the slow path runs. `None` (default) enables it exactly when
    /// `t < f` — the vanilla protocol (`t = f`) has no slow path in the
    /// paper, and the generalized protocol needs it.
    pub slow_path: Option<bool>,
    /// View-1 timeout; doubles on every view change (view synchronizer).
    pub base_timeout: SimDuration,
    /// Observability handle. Disabled by default; wire one up from a
    /// [`fastbft_obs::MetricsRegistry`] to record commit paths, view
    /// changes and certificate-cache traffic. Carried by `ReplicaOptions`
    /// so it threads unchanged through every construction path (the SMR
    /// multiplexer clones the options into each per-slot replica).
    pub metrics: MetricsHandle,
    /// Entry bound for the certificate-verification cache
    /// ([`CertCache`]); on overflow the cache resets and certificates are
    /// simply re-verified. 0 disables memoization.
    pub cert_cache_capacity: usize,
    /// Worker threads for the runtime's inbound verify/decode pool. This
    /// is a *runtime* knob — the replica itself never spawns threads; it
    /// rides here so it threads through every construction path the same
    /// way `metrics` does. `0` (the value every simulator path uses) means
    /// fully inline verification: bit-for-bit the single-threaded
    /// datapath. Defaults to
    /// [`default_verify_workers`](ReplicaOptions::default_verify_workers)
    /// — cores − 1, which is 0 on a single-core host.
    pub verify_workers: usize,
    /// Whether the SMR layer executes decided commands on a dedicated
    /// apply worker thread instead of inline on the event loop. Like
    /// [`verify_workers`](ReplicaOptions::verify_workers) this is a
    /// *runtime* knob riding here so it threads through every construction
    /// path: the per-slot replica never touches it. `0` (the default, and
    /// the value every simulator path uses) keeps apply inline —
    /// bit-for-bit the single-threaded datapath; any non-zero value runs
    /// **one** dedicated in-order apply worker (apply is sequential by
    /// definition, so more threads could not help).
    pub apply_workers: usize,
}

impl Default for ReplicaOptions {
    fn default() -> Self {
        ReplicaOptions {
            cert_mode: CertMode::Bounded,
            slow_path: None,
            base_timeout: SimDuration(SimDuration::DELTA.0 * 8),
            metrics: MetricsHandle::none(),
            cert_cache_capacity: crate::certs::DEFAULT_CERT_CACHE_CAPACITY,
            verify_workers: Self::default_verify_workers(),
            apply_workers: 0,
        }
    }
}

impl ReplicaOptions {
    /// The default verify-pool width for a multicore deployment: every
    /// available core except the one the event loop occupies. On a
    /// single-core host this is 0 — fully inline, no pool.
    pub fn default_verify_workers() -> usize {
        std::thread::available_parallelism()
            .map(|p| p.get().saturating_sub(1))
            .unwrap_or(0)
    }
}

/// Which of the paper's two commit paths decided a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitPath {
    /// Two message delays: `n − t` matching acks (§3, the headline path).
    Fast,
    /// Three message delays: a commit certificate of `⌈(n+f+1)/2⌉` shares
    /// followed by a quorum of `Commit`s (Appendix A).
    Slow,
}

/// Leader-side state for the view currently led.
#[derive(Debug)]
struct LeaderState {
    view: View,
    /// Value selected and awaiting certification.
    selected: Option<Value>,
    /// Snapshot of votes the selection ran over (sent in CertRequest).
    snapshot: Vec<SignedVote>,
    /// Collected CertAck signatures.
    certacks: SignatureSet,
    /// CertRequest already sent.
    requested: bool,
    /// Propose already sent.
    proposed: bool,
}

/// A correct process running the protocol. See module docs.
#[derive(Debug)]
pub struct Replica {
    cfg: Config,
    id: ProcessId,
    keys: KeyPair,
    dir: KeyDirectory,
    input: Value,
    cert_mode: CertMode,
    slow_path: bool,
    base_timeout: SimDuration,

    view: View,
    /// The paper's `vote_q`: the last proposal acknowledged.
    vote: Vote,
    /// The proposal acknowledged in each view (at most one per view). It
    /// holds the bytes acks and `Commit`s name by digest, and it is what
    /// a [`ValueRequestMsg`] is answered with.
    accepted: BTreeMap<View, ProposeMsg>,
    /// Latest commit certificate collected (piggybacked on votes).
    latest_cc: Option<CommitCert>,
    decided: Option<Value>,

    /// Distinct ack senders per `(view, digest)`.
    ack_tally: BTreeMap<(View, Digest), BTreeSet<ProcessId>>,
    /// Slow path: signature shares per `(view, digest)`.
    share_tally: BTreeMap<(View, Digest), SignatureSet>,
    /// Slow path: distinct `Commit` senders per `(view, digest)`.
    commit_tally: BTreeMap<(View, Digest), BTreeSet<ProcessId>>,
    /// Views whose `Commit` we already broadcast (one per view: only for
    /// the value accepted in it).
    commit_sent: BTreeSet<View>,
    /// Views whose withheld proposal we asked the quorum for.
    value_requests: BTreeSet<View>,
    /// `(requester, view)` pairs already answered with a proposal.
    value_replies: BTreeSet<(ProcessId, View)>,

    /// Valid proposals for views we have not entered yet.
    pending_proposes: BTreeMap<View, ProposeMsg>,
    /// Votes received per destination view (we may lead that view later).
    votes_in: BTreeMap<View, BTreeMap<ProcessId, SignedVote>>,
    leader: Option<LeaderState>,

    /// View synchronizer: highest wish seen per process.
    wishes: BTreeMap<ProcessId, View>,
    /// Highest wish we have broadcast.
    my_wish: Option<View>,
    /// Timer generation; stale timers are ignored.
    timer_gen: u64,
    /// Backoff relief earned by successful commits: each decision shaves
    /// one doubling off the view-timeout exponent, so a cluster that
    /// escalated through views during a fault window shrinks back toward
    /// `base_timeout` once progress resumes instead of keeping
    /// multi-second timers forever (see [`Replica::timeout_for`]).
    backoff_relief: u32,

    /// Canonical instances of values seen in messages. Every statement
    /// embeds the value's memoized digest, but a value decoded from the
    /// wire arrives as a fresh allocation with a cold cache — interning
    /// swaps it for the first-seen instance so the bytes are hashed once
    /// per replica (and duplicate copies of a hot value share storage).
    ///
    /// Values land here **before** validation, so the set is bounded
    /// against Byzantine value spray two ways: a count *and* total-bytes
    /// cap (beyond either, new values pass through uninterned), and a
    /// full reset at every view change — hostile garbage is held for at
    /// most one view, and honest traffic re-warms at one hash per value.
    interned: BTreeSet<Value>,
    /// Total bytes held by `interned` (see [`INTERN_BYTES_CAP`]).
    interned_bytes: usize,
    /// Memo of certificates already verified (commit certs are broadcast
    /// by everyone and piggybacked on votes; progress certs ride every
    /// re-proposal).
    cert_cache: CertCache,
    /// Observability handle (see [`ReplicaOptions::metrics`]).
    metrics: MetricsHandle,
    /// Which path produced the first decision, for path attribution.
    decided_path: Option<CommitPath>,
}

/// Backstop bound on the value interner; beyond it new values pass through
/// uninterned (correctness unaffected — their digests are just per-copy).
/// Correct executions see a handful of distinct values per view, so honest
/// traffic sits far below both caps.
const INTERN_CAP: usize = 1024;

/// Total-bytes bound on the value interner: values are interned from
/// messages *before* signature checks, so without a byte cap a Byzantine
/// peer could pin `INTERN_CAP × MAX_FRAME_LEN` of garbage. With it (plus
/// the per-view reset in `enter_view`) hostile spray is bounded to a few
/// MiB for at most one view.
const INTERN_BYTES_CAP: usize = 4 << 20;

impl Replica {
    /// Creates a replica with default options.
    pub fn new(cfg: Config, keys: KeyPair, dir: KeyDirectory, input: Value) -> Self {
        Replica::with_options(cfg, keys, dir, input, ReplicaOptions::default())
    }

    /// Creates a replica with explicit options.
    pub fn with_options(
        cfg: Config,
        keys: KeyPair,
        dir: KeyDirectory,
        input: Value,
        opts: ReplicaOptions,
    ) -> Self {
        let slow_path = opts.slow_path.unwrap_or(cfg.t() < cfg.f());
        Replica {
            id: keys.id(),
            cfg,
            keys,
            dir,
            input,
            cert_mode: opts.cert_mode,
            slow_path,
            base_timeout: opts.base_timeout,
            view: View::FIRST,
            vote: None,
            accepted: BTreeMap::new(),
            latest_cc: None,
            decided: None,
            ack_tally: BTreeMap::new(),
            share_tally: BTreeMap::new(),
            commit_tally: BTreeMap::new(),
            commit_sent: BTreeSet::new(),
            value_requests: BTreeSet::new(),
            value_replies: BTreeSet::new(),
            pending_proposes: BTreeMap::new(),
            votes_in: BTreeMap::new(),
            leader: None,
            wishes: BTreeMap::new(),
            my_wish: None,
            timer_gen: 0,
            backoff_relief: 0,
            interned: BTreeSet::new(),
            interned_bytes: 0,
            cert_cache: CertCache::with_capacity(opts.cert_cache_capacity, opts.metrics.clone()),
            metrics: opts.metrics,
            decided_path: None,
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// The decided value, if any.
    pub fn decided(&self) -> Option<&Value> {
        self.decided.as_ref()
    }

    /// The current vote (`vote_q`).
    pub fn vote(&self) -> &Vote {
        &self.vote
    }

    /// Whether the slow path is active.
    pub fn slow_path_enabled(&self) -> bool {
        self.slow_path
    }

    /// Which commit path produced the decision, if this replica decided.
    pub fn decided_path(&self) -> Option<CommitPath> {
        self.decided_path
    }

    // -- internals -----------------------------------------------------------

    /// Returns the canonical instance of `value` (see the `interned` field).
    fn intern(&mut self, value: Value) -> Value {
        if let Some(canonical) = self.interned.get(&value) {
            return canonical.clone();
        }
        if self.interned.len() < INTERN_CAP
            && self.interned_bytes.saturating_add(value.len()) <= INTERN_BYTES_CAP
        {
            self.interned_bytes += value.len();
            self.interned.insert(value.clone());
        }
        value
    }

    fn timeout_for(&self, view: View) -> SimDuration {
        // Doubling timeouts: after GST some view's timeout exceeds the time a
        // correct leader needs, giving it the paper's required ≥ 5Δ of quiet.
        // Commits earn relief (see `backoff_relief`): escalation is driven by
        // *failed* views, so resumed progress walks the exponent back down —
        // liveness is unaffected, because while no commits happen relief
        // stays put and the timeouts still double without bound (to the cap).
        let exp = ((view.0.saturating_sub(1)).min(12) as u32).saturating_sub(self.backoff_relief);
        SimDuration(self.base_timeout.0.saturating_mul(1 << exp))
    }

    /// The view-change timeout this replica would arm right now — the
    /// doubling schedule at the current view, minus any commit-earned
    /// backoff relief.
    pub fn current_timeout(&self) -> SimDuration {
        self.timeout_for(self.view)
    }

    fn arm_timer(&mut self, fx: &mut Effects<Message>) {
        self.timer_gen += 1;
        fx.set_timer(self.timeout_for(self.view), TimerId(self.timer_gen));
    }

    fn try_decide(&mut self, value: &Value, path: CommitPath, fx: &mut Effects<Message>) {
        match &self.decided {
            None => {
                self.decided = Some(value.clone());
                self.decided_path = Some(path);
                self.backoff_relief = (self.backoff_relief + 1).min(12);
                if let Some(m) = self.metrics.get() {
                    match path {
                        CommitPath::Fast => m.commit_fast_total.inc(),
                        CommitPath::Slow => m.commit_slow_total.inc(),
                    }
                    m.recorder.record(
                        match path {
                            CommitPath::Fast => "commit-fast",
                            CommitPath::Slow => "commit-slow",
                        },
                        format!("p{} decided in view {}", self.id.0, self.view.0),
                    );
                }
                fx.decide(value.clone());
            }
            Some(prev) if prev != value => {
                // Should be unreachable for n ≥ 3f + 2t − 1; surfacing the
                // second decision lets the checker catch safety violations in
                // deliberately under-provisioned runs (lower-bound demo).
                fx.decide(value.clone());
            }
            Some(_) => {}
        }
    }

    /// The vote we send to the leader of `dest_view`, with the freshest
    /// eligible commit certificate piggybacked (Appendix A.2).
    fn current_vote_for(&self, dest_view: View) -> Vote {
        let mut vote = self.vote.clone();
        if let Some(vd) = &mut vote {
            vd.commit_cert = self.latest_cc.clone().filter(|cc| cc.view < dest_view);
        }
        vote
    }

    fn enter_view(&mut self, v: View, fx: &mut Effects<Message>) {
        debug_assert!(v > self.view);
        if let Some(m) = self.metrics.get() {
            m.view_change_total.inc();
            m.recorder.record(
                "view-change",
                format!("p{} entered view {} (leader p{})", self.id.0, v.0, {
                    self.cfg.leader(v).0
                }),
            );
        }
        self.view = v;
        self.leader = None;
        // Reset the interner: any Byzantine garbage it absorbed is released
        // here, and the handful of honest hot values re-warm at one hash
        // each (their clones elsewhere keep their memoized digests).
        self.interned.clear();
        self.interned_bytes = 0;
        self.arm_timer(fx);

        // Send our vote to the new leader (§3.2: "Whenever a correct process
        // changes its current view, it sends vote(vote_q, φ_vote)").
        let leader = self.cfg.leader(v);
        let signed = SignedVote::sign(&self.keys, self.current_vote_for(v), v);
        if leader == self.id {
            self.votes_in.entry(v).or_default().insert(self.id, signed);
            self.leader = Some(LeaderState {
                view: v,
                selected: None,
                snapshot: Vec::new(),
                certacks: SignatureSet::new(),
                requested: false,
                proposed: false,
            });
            self.try_leader_progress(fx);
        } else {
            fx.send(
                leader,
                Message::Vote(VoteMsg {
                    view: v,
                    vote: signed,
                }),
            );
        }

        // A proposal for this view may have arrived while we lagged behind.
        if let Some(p) = self.pending_proposes.remove(&v) {
            self.accept_proposal(p, fx);
        }
        // Old buffered proposals are useless now.
        self.pending_proposes = self.pending_proposes.split_off(&v);
    }

    /// Handles a verified proposal for the **current** view.
    fn accept_proposal(&mut self, p: ProposeMsg, fx: &mut Effects<Message>) {
        if self.accepted.contains_key(&p.view) {
            return; // only the first proposal per view is acknowledged
        }
        debug_assert_eq!(p.view, self.view);
        let view = p.view;
        let digest = *value_digest(&p.value);
        self.vote = Some(VoteData {
            value: p.value.clone(),
            view,
            progress_cert: p.cert.clone(),
            leader_sig: p.sig.clone(),
            commit_cert: None,
        });
        self.accepted.insert(view, p);
        // The slow-path share rides inside the ack, and both name the
        // value by digest: its bytes already reached everyone in the
        // proposal (see `AckMsg`).
        let share = self
            .slow_path
            .then(|| self.keys.sign(&ack_statement(&digest, view)));
        fx.broadcast(Message::Ack(AckMsg {
            digest,
            view,
            share,
        }));
        // Shares, acks and `Commit`s may have outrun the proposal.
        self.try_commit(view, &digest, fx);
        self.check_decision(view, &digest, fx);
    }

    /// The leader-signature and progress-certificate checks every proposal
    /// faces (§3.1), whoever relayed it.
    fn proposal_valid(&mut self, p: &ProposeMsg) -> bool {
        p.view >= View::FIRST
            && p.sig.signer == self.cfg.leader(p.view)
            && self.dir.verify(&propose_payload(&p.value, p.view), &p.sig)
            && p.cert
                .verify_cached(&self.cfg, &self.dir, &p.value, p.view, &mut self.cert_cache)
    }

    fn on_propose(&mut self, from: ProcessId, p: ProposeMsg, fx: &mut Effects<Message>) {
        // Authentication and validity (§3.1): correct leader id, valid τ,
        // valid progress certificate for (x̂, v).
        if from != self.cfg.leader(p.view) || !self.proposal_valid(&p) {
            return;
        }
        if p.view > self.view {
            // We are behind; keep the proposal for when the synchronizer
            // catches us up (the leader sends it exactly once). Its bytes
            // may already complete a decision quorum.
            let view = p.view;
            let digest = *value_digest(&p.value);
            self.pending_proposes.entry(view).or_insert(p);
            self.check_decision(view, &digest, fx);
        } else if p.view == self.view {
            self.accept_proposal(p, fx);
        }
        // p.view < self.view: stale, ignore.
    }

    /// The value with `digest` proposed in `view`, if this replica holds
    /// its bytes: the proposal it accepted or buffered for that view.
    fn held_value(&self, view: View, digest: &Digest) -> Option<&Value> {
        self.accepted
            .get(&view)
            .into_iter()
            .chain(self.pending_proposes.get(&view))
            .map(|p| &p.value)
            .find(|x| value_digest(x) == digest)
    }

    /// The path on which `(view, digest)` has a decision quorum, if any.
    fn quorum_path(&self, view: View, digest: &Digest) -> Option<CommitPath> {
        let key = (view, *digest);
        let count = |tally: &BTreeMap<(View, Digest), BTreeSet<ProcessId>>| {
            tally.get(&key).map_or(0, BTreeSet::len)
        };
        if count(&self.ack_tally) >= self.cfg.fast_quorum() {
            Some(CommitPath::Fast)
        } else if count(&self.commit_tally) >= self.cfg.slow_quorum() {
            Some(CommitPath::Slow)
        } else {
            None
        }
    }

    /// Decides `(view, digest)` once it has a decision quorum **and** this
    /// replica holds the bytes (rule 1 of the module docs); with a quorum
    /// but no bytes, asks the quorum for the proposal.
    fn check_decision(&mut self, view: View, digest: &Digest, fx: &mut Effects<Message>) {
        if self
            .decided
            .as_ref()
            .is_some_and(|x| value_digest(x) == digest)
        {
            return;
        }
        let Some(path) = self.quorum_path(view, digest) else {
            return;
        };
        if let Some(x) = self.held_value(view, digest).cloned() {
            self.try_decide(&x, path, fx);
        } else {
            self.request_value(view, digest, fx);
        }
    }

    /// Asks the senders of `(view, digest)`'s decision quorum for the
    /// proposal they accepted — once per view. Every correct ack sender
    /// accepted it, and so did every correct `Commit` sender (rule 2), and
    /// both quorums contain a correct process.
    fn request_value(&mut self, view: View, digest: &Digest, fx: &mut Effects<Message>) {
        if !self.value_requests.insert(view) {
            return;
        }
        let key = (view, *digest);
        let senders: BTreeSet<ProcessId> = [&self.ack_tally, &self.commit_tally]
            .into_iter()
            .filter_map(|tally| tally.get(&key))
            .flatten()
            .copied()
            .filter(|p| *p != self.id)
            .collect();
        for to in senders {
            fx.send(to, Message::ValueRequest(ValueRequestMsg { view }));
        }
    }

    fn on_value_request(&mut self, from: ProcessId, r: ValueRequestMsg, fx: &mut Effects<Message>) {
        let Some(p) = self.accepted.get(&r.view) else {
            return;
        };
        if from == self.id || !self.value_replies.insert((from, r.view)) {
            return; // at most one answer per (requester, view)
        }
        fx.send(from, Message::ValueReply(p.clone()));
    }

    /// A relayed proposal answering our [`ValueRequestMsg`]: checked like
    /// any proposal except for who sent it, and useful only if its digest
    /// has a decision quorum here.
    fn on_value_reply(&mut self, p: ProposeMsg, fx: &mut Effects<Message>) {
        if !self.value_requests.contains(&p.view) {
            return;
        }
        let digest = *value_digest(&p.value);
        let Some(path) = self.quorum_path(p.view, &digest) else {
            return; // not the digest the quorum backs
        };
        if !self.proposal_valid(&p) {
            return;
        }
        self.try_decide(&p.value, path, fx);
    }

    fn on_ack(&mut self, from: ProcessId, a: AckMsg, fx: &mut Effects<Message>) {
        if let Some(sig) = a.share {
            self.on_share(from, a.digest, a.view, sig, fx);
        }
        let senders = self.ack_tally.entry((a.view, a.digest)).or_default();
        senders.insert(from);
        if senders.len() >= self.cfg.fast_quorum() {
            self.check_decision(a.view, &a.digest, fx);
        }
    }

    fn on_sig_share(&mut self, from: ProcessId, s: SigShareMsg, fx: &mut Effects<Message>) {
        self.on_share(from, s.digest, s.view, s.sig, fx);
    }

    /// Handles one slow-path share `φ_ack`, whether it rode inside an ack
    /// or arrived as a standalone [`SigShareMsg`].
    fn on_share(
        &mut self,
        from: ProcessId,
        digest: Digest,
        view: View,
        sig: Signature,
        fx: &mut Effects<Message>,
    ) {
        if !self.slow_path {
            return;
        }
        let payload = ack_statement(&digest, view);
        if sig.signer != from || !self.dir.verify(&payload, &sig) {
            return;
        }
        // The share just verified over `payload`: record that, so verifying
        // the assembled commit certificate re-does none of the HMAC work.
        self.share_tally
            .entry((view, digest))
            .or_default()
            .insert_verified(sig, &payload);
        self.try_commit(view, &digest, fx);
    }

    /// Assembles and broadcasts `Commit(x, v, cc)` once `⌈(n+f+1)/2⌉`
    /// shares back `(view, digest)` — but only if `x` is the value this
    /// replica accepted itself in `view` (rule 2 of the module docs, which
    /// carries the slow path's view-change safety argument).
    fn try_commit(&mut self, view: View, digest: &Digest, fx: &mut Effects<Message>) {
        if self.commit_sent.contains(&view) {
            return;
        }
        let Some(sigs) = self.share_tally.get(&(view, *digest)) else {
            return;
        };
        if sigs.len() < self.cfg.slow_quorum() {
            return;
        }
        let Some(accepted) = self.accepted.get(&view) else {
            return;
        };
        if value_digest(&accepted.value) != digest {
            return;
        }
        self.commit_sent.insert(view);
        let cert = CommitCert {
            value: accepted.value.clone(),
            view,
            sigs: sigs.clone(),
        };
        let msg = CommitMsg::of(&cert);
        self.store_cc(cert);
        fx.broadcast(Message::Commit(msg));
    }

    fn store_cc(&mut self, cc: CommitCert) {
        let newer = self
            .latest_cc
            .as_ref()
            .is_none_or(|have| cc.view > have.view);
        if newer {
            self.latest_cc = Some(cc);
        }
    }

    fn on_commit(&mut self, from: ProcessId, c: CommitMsg, fx: &mut Effects<Message>) {
        if !self.slow_path {
            return;
        }
        if !verify_commit_sigs(
            &self.cfg,
            &self.dir,
            &c.digest,
            c.view,
            &c.sigs,
            &mut self.cert_cache,
        ) {
            return;
        }
        let (view, digest) = (c.view, c.digest);
        // Rule 3: a received certificate is kept only with its bytes.
        if let Some(x) = self.held_value(view, &digest).cloned() {
            self.store_cc(c.into_cert(x));
        }
        let senders = self.commit_tally.entry((view, digest)).or_default();
        senders.insert(from);
        if senders.len() >= self.cfg.slow_quorum() {
            self.check_decision(view, &digest, fx);
        }
    }

    fn on_vote(&mut self, from: ProcessId, v: VoteMsg, fx: &mut Effects<Message>) {
        if v.vote.voter != from {
            return; // votes travel directly from their signer
        }
        if v.view < self.view && self.cfg.leader(v.view) != self.id {
            return; // stale and not ours to lead
        }
        if !v
            .vote
            .is_valid_cached(&self.cfg, &self.dir, v.view, &mut self.cert_cache)
        {
            return;
        }
        if self.cfg.leader(v.view) != self.id {
            return;
        }
        self.votes_in
            .entry(v.view)
            .or_default()
            .insert(v.vote.voter, v.vote);
        self.try_leader_progress(fx);
    }

    fn try_leader_progress(&mut self, fx: &mut Effects<Message>) {
        let Some(ls) = &self.leader else { return };
        if ls.proposed || ls.requested {
            return;
        }
        let view = ls.view;
        debug_assert_eq!(view, self.view);
        let votes = self.votes_in.entry(view).or_default();
        let Ok(result) = select(&self.cfg, view, votes) else {
            return; // need more votes
        };
        let value = match result.outcome {
            Outcome::Constrained(x) => x,
            Outcome::Free => self.input.clone(),
        };
        let snapshot: Vec<SignedVote> = votes.values().cloned().collect();

        match self.cert_mode {
            CertMode::Bounded => {
                // Ask 2f + 1 processes (the smallest ids other than ourself)
                // to confirm the selection; certify it ourselves right away.
                let ls = self.leader.as_mut().expect("leader state checked above");
                ls.selected = Some(value.clone());
                ls.snapshot = snapshot.clone();
                ls.requested = true;
                let payload = certack_payload(&value, view);
                ls.certacks
                    .insert_verified(self.keys.sign(&payload), &payload);
                let targets: Vec<ProcessId> = self
                    .cfg
                    .processes()
                    .filter(|p| *p != self.id)
                    .take(self.cfg.cert_request_targets())
                    .collect();
                for to in targets {
                    fx.send(
                        to,
                        Message::CertRequest(CertRequestMsg {
                            view,
                            value: value.clone(),
                            votes: snapshot.clone(),
                        }),
                    );
                }
                // f + 1 = 2 can already be satisfied by self + nobody only
                // when f = 0, which Config forbids; still, check.
                self.try_propose_certified(fx);
            }
            CertMode::Naive => {
                // The certificate is the vote set itself; propose directly.
                let ls = self.leader.as_mut().expect("leader state checked above");
                ls.proposed = true;
                let sig = self.keys.sign(&propose_payload(&value, view));
                fx.broadcast(Message::Propose(ProposeMsg {
                    value,
                    view,
                    cert: ProgressCert::Naive(snapshot),
                    sig,
                }));
            }
        }
    }

    fn try_propose_certified(&mut self, fx: &mut Effects<Message>) {
        let Some(ls) = &mut self.leader else { return };
        if ls.proposed || !ls.requested {
            return;
        }
        let Some(value) = ls.selected.clone() else {
            return;
        };
        if ls.certacks.len() < self.cfg.cert_quorum() {
            return;
        }
        ls.proposed = true;
        let view = ls.view;
        let cert = ProgressCert::Bounded(ls.certacks.clone());
        let sig = self.keys.sign(&propose_payload(&value, view));
        fx.broadcast(Message::Propose(ProposeMsg {
            value,
            view,
            cert,
            sig,
        }));
    }

    fn on_cert_request(&mut self, from: ProcessId, req: CertRequestMsg, fx: &mut Effects<Message>) {
        // The statement we are asked to sign is self-contained: "the
        // selection algorithm over these (valid, view-v) votes permits x̂".
        // Verifying it does not depend on our current view.
        if from != self.cfg.leader(req.view) {
            return;
        }
        let mut map = BTreeMap::new();
        for sv in &req.votes {
            if !sv.is_valid_cached(&self.cfg, &self.dir, req.view, &mut self.cert_cache) {
                return;
            }
            if map.insert(sv.voter, sv.clone()).is_some() {
                return; // duplicate voter: malformed request
            }
        }
        let Ok(result) = select(&self.cfg, req.view, &map) else {
            return;
        };
        let acceptable = match result.outcome {
            Outcome::Constrained(x) => x == req.value,
            Outcome::Free => true,
        };
        if !acceptable {
            return;
        }
        let sig = self.keys.sign(&certack_payload(&req.value, req.view));
        fx.send(
            from,
            Message::CertAck(CertAckMsg {
                view: req.view,
                digest: *value_digest(&req.value),
                sig,
            }),
        );
    }

    fn on_cert_ack(&mut self, from: ProcessId, ack: CertAckMsg, fx: &mut Effects<Message>) {
        let Some(ls) = &mut self.leader else { return };
        if ls.view != ack.view || ls.selected.as_ref().map(value_digest) != Some(&ack.digest) {
            return;
        }
        let payload = certack_statement(&ack.digest, ack.view);
        if ack.sig.signer != from || !self.dir.verify(&payload, &ack.sig) {
            return;
        }
        // Verified just above: pre-memoize it in the assembling certificate.
        ls.certacks.insert_verified(ack.sig, &payload);
        self.try_propose_certified(fx);
    }

    // -- view synchronizer ----------------------------------------------------

    fn on_wish(&mut self, from: ProcessId, w: WishMsg, fx: &mut Effects<Message>) {
        let entry = self.wishes.entry(from).or_insert(w.view);
        if w.view > *entry {
            *entry = w.view;
        }
        self.sync_check(fx);
    }

    /// `k`-th largest wish (1-based) across processes, if at least `k`
    /// processes have wished.
    fn kth_largest_wish(&self, k: usize) -> Option<View> {
        let mut views: Vec<View> = self.wishes.values().copied().collect();
        views.sort_unstable_by(|a, b| b.cmp(a));
        views.get(k - 1).copied()
    }

    fn sync_check(&mut self, fx: &mut Effects<Message>) {
        // Adopt: f + 1 processes wish ≥ W ⇒ at least one is correct, so a
        // correct process timed out; join the wish so laggards cannot stall.
        if let Some(w1) = self.kth_largest_wish(self.cfg.f() + 1) {
            if self.my_wish.is_none_or(|mine| w1 > mine) && w1 > self.view {
                self.my_wish = Some(w1);
                self.broadcast_wish(w1, fx);
            }
        }
        // Enter: 2f + 1 processes wish ≥ W ⇒ f + 1 correct processes agreed
        // to move; entering is safe and all correct processes will follow.
        if let Some(w2) = self.kth_largest_wish(2 * self.cfg.f() + 1) {
            if w2 > self.view {
                self.enter_view(w2, fx);
            }
        }
    }

    /// Wishes to move to `view`, or keeps a higher wish already sent, and
    /// broadcasts it. This is the synchronizer's one way in: the view timer
    /// wishes for the next view through it, and a caller that already knows
    /// the current leader is silent (the SMR layer's slot-leader skip) can
    /// wish for a later view the moment the instance starts. A wish only
    /// *starts* a view change, which the protocol allows at any moment:
    /// entering a view still takes `2f + 1` wishes.
    pub fn wish(&mut self, view: View, fx: &mut Effects<Message>) {
        let wish = self.my_wish.map_or(view, |mine| mine.max(view));
        self.my_wish = Some(wish);
        self.broadcast_wish(wish, fx);
    }

    fn broadcast_wish(&mut self, view: View, fx: &mut Effects<Message>) {
        // Record our own wish immediately (our broadcast also reaches us,
        // but counting it now avoids an extra Δ of latency).
        let entry = self.wishes.entry(self.id).or_insert(view);
        if view > *entry {
            *entry = view;
        }
        fx.broadcast_others(Message::Wish(WishMsg { view }));
        self.sync_check(fx);
    }
}

impl Actor<Message> for Replica {
    fn on_start(&mut self, fx: &mut Effects<Message>) {
        self.arm_timer(fx);
        if self.cfg.leader(View::FIRST) == self.id {
            // View 1: any value is safe; propose our input with the trivial
            // certificate (§3.1).
            let value = self.input.clone();
            let sig = self.keys.sign(&propose_payload(&value, View::FIRST));
            fx.broadcast(Message::Propose(ProposeMsg {
                value,
                view: View::FIRST,
                cert: ProgressCert::Genesis,
                sig,
            }));
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: Message, fx: &mut Effects<Message>) {
        // Swap each carried value for its canonical interned instance
        // before handling: statement building needs the value digest, and
        // interning is what makes that digest memoized per replica rather
        // than recomputed for every decoded copy. Only proposals and
        // CertRequests carry values; everything else carries digests.
        match msg {
            Message::Propose(mut p) => {
                p.value = self.intern(p.value);
                self.on_propose(from, p, fx);
            }
            Message::Ack(a) => self.on_ack(from, a, fx),
            Message::SigShare(s) => self.on_sig_share(from, s, fx),
            Message::Commit(c) => self.on_commit(from, c, fx),
            Message::Vote(v) => self.on_vote(from, v, fx),
            Message::CertRequest(mut r) => {
                r.value = self.intern(r.value);
                self.on_cert_request(from, r, fx);
            }
            Message::CertAck(a) => self.on_cert_ack(from, a, fx),
            Message::Wish(w) => self.on_wish(from, w, fx),
            Message::ValueRequest(r) => self.on_value_request(from, r, fx),
            Message::ValueReply(mut p) => {
                p.value = self.intern(p.value);
                self.on_value_reply(p, fx);
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, fx: &mut Effects<Message>) {
        if timer.0 != self.timer_gen {
            return; // stale timer from an earlier view
        }
        if self.decided.is_some() {
            return; // nothing left to synchronize for
        }
        // Timeout: wish to move past the current view.
        self.wish(self.view.next(), fx);
        // Re-arm so we keep escalating if the next leader stalls too.
        self.arm_timer(fx);
    }

    fn label(&self) -> &'static str {
        "replica"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbft_sim::SimMessage;

    fn fixture(n: usize, f: usize, t: usize) -> (Config, Vec<KeyPair>, KeyDirectory) {
        let cfg = Config::new(n, f, t).unwrap();
        let (pairs, dir) = KeyDirectory::generate(n, 7);
        (cfg, pairs, dir)
    }

    fn replica(
        cfg: &Config,
        pairs: &[KeyPair],
        dir: &KeyDirectory,
        i: usize,
        input: u64,
    ) -> Replica {
        Replica::new(*cfg, pairs[i].clone(), dir.clone(), Value::from_u64(input))
    }

    fn fx(id: u32, n: usize) -> Effects<Message> {
        Effects::new(ProcessId(id), n, fastbft_sim::SimTime::ZERO)
    }

    #[test]
    fn leader_of_view_one_proposes_on_start() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let leader_id = cfg.leader(View::FIRST);
        let mut r = replica(&cfg, &pairs, &dir, leader_id.index(), 42);
        let mut buf = fx(leader_id.0, 4);
        r.on_start(&mut buf);
        assert_eq!(r.view(), View::FIRST);
        assert_eq!(r.decided(), None);
        // A propose went to every process (broadcast includes self).
        let proposes = buf
            .sent()
            .iter()
            .filter(|(_, m)| matches!(m, Message::Propose(_)))
            .count();
        assert_eq!(proposes, 4);
        // Non-leaders send nothing at start.
        let mut r2 = replica(&cfg, &pairs, &dir, 0, 1); // p1 ≠ leader(1)
        let mut buf2 = fx(1, 4);
        r2.on_start(&mut buf2);
        assert!(buf2.sent().is_empty());
        assert_eq!(buf2.timers_set().len(), 1);
    }

    #[test]
    fn first_valid_proposal_is_adopted() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let leader = cfg.leader(View::FIRST);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1); // p1, not leader(1)=p2
        let x = Value::from_u64(9);
        let p = ProposeMsg {
            value: x.clone(),
            view: View::FIRST,
            cert: ProgressCert::Genesis,
            sig: pairs[leader.index()].sign(&propose_payload(&x, View::FIRST)),
        };
        let mut buf = fx(1, 4);
        r.on_message(leader, Message::Propose(p.clone()), &mut buf);
        assert_eq!(r.vote().as_ref().map(|vd| vd.value.clone()), Some(x));
        // A second (equivocating) proposal in the same view is not adopted.
        let y = Value::from_u64(10);
        let p2 = ProposeMsg {
            value: y.clone(),
            view: View::FIRST,
            cert: ProgressCert::Genesis,
            sig: pairs[leader.index()].sign(&propose_payload(&y, View::FIRST)),
        };
        let mut buf2 = fx(1, 4);
        r.on_message(leader, Message::Propose(p2), &mut buf2);
        assert_ne!(r.vote().as_ref().map(|vd| vd.value.clone()), Some(y));
    }

    #[test]
    fn proposal_from_non_leader_rejected() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let x = Value::from_u64(9);
        // p3 is not leader(1); even with its own valid signature the
        // proposal must be ignored.
        let p = ProposeMsg {
            value: x.clone(),
            view: View::FIRST,
            cert: ProgressCert::Genesis,
            sig: pairs[2].sign(&propose_payload(&x, View::FIRST)),
        };
        let mut buf = fx(1, 4);
        r.on_message(ProcessId(3), Message::Propose(p), &mut buf);
        assert!(r.vote().is_none());
    }

    /// `leader(1)`'s genuine view-1 proposal of `x`.
    fn propose_v1(cfg: &Config, pairs: &[KeyPair], x: &Value) -> ProposeMsg {
        ProposeMsg {
            value: x.clone(),
            view: View::FIRST,
            cert: ProgressCert::Genesis,
            sig: pairs[cfg.leader(View::FIRST).index()].sign(&propose_payload(x, View::FIRST)),
        }
    }

    fn ack(x: &Value, view: View) -> Message {
        Message::Ack(AckMsg {
            digest: *value_digest(x),
            view,
            share: None,
        })
    }

    /// Hands `r` the view-1 proposal of `x` from its leader.
    fn give_proposal(r: &mut Replica, cfg: &Config, pairs: &[KeyPair], x: &Value, n: usize) {
        let mut buf = fx(r.id().0, n);
        let p = propose_v1(cfg, pairs, x);
        r.on_message(cfg.leader(View::FIRST), Message::Propose(p), &mut buf);
    }

    fn value_requests(buf: &Effects<Message>) -> Vec<ProcessId> {
        buf.sent()
            .iter()
            .filter(|(_, m)| matches!(m, Message::ValueRequest(_)))
            .map(|(to, _)| *to)
            .collect()
    }

    #[test]
    fn fast_quorum_of_acks_decides() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let x = Value::from_u64(5);
        give_proposal(&mut r, &cfg, &pairs, &x, 4);
        let mut buf = fx(1, 4);
        for sender in [2u32, 3, 4] {
            r.on_message(ProcessId(sender), ack(&x, View::FIRST), &mut buf);
        }
        // fast quorum for (4,1,1) is 3.
        assert_eq!(r.decided(), Some(&x));
        assert!(value_requests(&buf).is_empty());
    }

    /// Rule 1: a quorum of digest-carried acks decides nothing until the
    /// bytes are here; it asks the quorum for them, once, and decides as
    /// soon as the proposal shows up.
    #[test]
    fn ack_quorum_without_bytes_waits_and_asks() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let x = Value::from_u64(5);
        let mut buf = fx(1, 4);
        for sender in [2u32, 3, 4, 4] {
            r.on_message(ProcessId(sender), ack(&x, View::FIRST), &mut buf);
        }
        assert_eq!(r.decided(), None);
        assert_eq!(
            value_requests(&buf),
            vec![ProcessId(2), ProcessId(3), ProcessId(4)],
            "one request per quorum sender, however many acks arrive"
        );
        give_proposal(&mut r, &cfg, &pairs, &x, 4);
        assert_eq!(r.decided(), Some(&x));
        assert_eq!(r.decided_path(), Some(CommitPath::Fast));
    }

    #[test]
    fn value_reply_decides_and_bad_replies_are_ignored() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let x = Value::from_u64(5);
        let y = Value::from_u64(6);
        let mut buf = fx(1, 4);
        // An unsolicited reply is ignored even when genuine.
        r.on_message(
            ProcessId(3),
            Message::ValueReply(propose_v1(&cfg, &pairs, &y)),
            &mut buf,
        );
        for sender in [2u32, 3, 4] {
            r.on_message(ProcessId(sender), ack(&x, View::FIRST), &mut buf);
        }
        // Wrong digest: a genuine proposal, but not of the acked value.
        r.on_message(
            ProcessId(3),
            Message::ValueReply(propose_v1(&cfg, &pairs, &y)),
            &mut buf,
        );
        assert_eq!(r.decided(), None);
        // Right digest, but τ̂ is not leader(1)'s.
        let mut forged = propose_v1(&cfg, &pairs, &x);
        forged.sig = pairs[2].sign(&propose_payload(&x, View::FIRST));
        r.on_message(ProcessId(3), Message::ValueReply(forged), &mut buf);
        assert_eq!(r.decided(), None);
        // The genuine proposal, relayed by a non-leader, decides.
        r.on_message(
            ProcessId(4),
            Message::ValueReply(propose_v1(&cfg, &pairs, &x)),
            &mut buf,
        );
        assert_eq!(r.decided(), Some(&x));
    }

    #[test]
    fn value_requests_are_answered_once_per_requester_and_view() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let x = Value::from_u64(5);
        let req = |view| Message::ValueRequest(ValueRequestMsg { view });
        let mut buf = fx(1, 4);
        // Nothing accepted yet: nothing to answer with.
        r.on_message(ProcessId(3), req(View::FIRST), &mut buf);
        assert!(buf.sent().is_empty());
        give_proposal(&mut r, &cfg, &pairs, &x, 4);
        let mut buf = fx(1, 4);
        for _ in 0..3 {
            r.on_message(ProcessId(3), req(View::FIRST), &mut buf);
            r.on_message(ProcessId(4), req(View::FIRST), &mut buf);
            r.on_message(ProcessId(4), req(View(2)), &mut buf);
        }
        let replies: Vec<_> = buf
            .sent()
            .iter()
            .map(|(to, m)| match m {
                Message::ValueReply(p) => (*to, p.value.clone()),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(replies, vec![(ProcessId(3), x.clone()), (ProcessId(4), x)]);
    }

    #[test]
    fn view_timeout_shrinks_back_after_a_commit() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let base = r.current_timeout();
        assert_eq!(base, r.timeout_for(View::FIRST));
        // The doubling schedule, untouched while nothing commits.
        assert_eq!(r.timeout_for(View(4)).0, base.0 * 8);

        // A fast-quorum decision earns one doubling of relief.
        let x = Value::from_u64(5);
        give_proposal(&mut r, &cfg, &pairs, &x, 4);
        let mut buf = fx(1, 4);
        for sender in [2u32, 3, 4] {
            r.on_message(ProcessId(sender), ack(&x, View::FIRST), &mut buf);
        }
        assert_eq!(r.decided(), Some(&x));
        assert_eq!(r.timeout_for(View(4)).0, base.0 * 4, "one doubling shaved");

        // Relief never pushes the timeout below the base schedule floor,
        // even when it exceeds the view's own exponent.
        r.backoff_relief = 50;
        assert_eq!(r.timeout_for(View(4)), base);
        assert_eq!(r.timeout_for(View::FIRST), base);
        // And the escalation cap still binds above it.
        r.backoff_relief = 0;
        assert_eq!(r.timeout_for(View(40)).0, base.0 * (1 << 12));
    }

    #[test]
    fn duplicate_acks_do_not_double_count() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let x = Value::from_u64(5);
        give_proposal(&mut r, &cfg, &pairs, &x, 4);
        let mut buf = fx(1, 4);
        for _ in 0..5 {
            r.on_message(ProcessId(2), ack(&x, View::FIRST), &mut buf);
        }
        assert_eq!(r.decided(), None);
    }

    #[test]
    fn acks_for_different_values_do_not_mix() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let mut buf = fx(1, 4);
        for (sender, val) in [(2u32, 5u64), (3, 6), (4, 7)] {
            r.on_message(
                ProcessId(sender),
                ack(&Value::from_u64(val), View::FIRST),
                &mut buf,
            );
        }
        assert_eq!(r.decided(), None);
        assert!(value_requests(&buf).is_empty());
    }

    #[test]
    fn slow_path_disabled_for_vanilla_config() {
        // t = f ⇒ vanilla protocol: no slow path by default.
        let (cfg, pairs, dir) = fixture(9, 2, 2);
        let r = replica(&cfg, &pairs, &dir, 0, 1);
        assert!(!r.slow_path_enabled());
        // t < f ⇒ generalized: slow path on.
        let (cfg, pairs, dir) = fixture(8, 2, 1);
        let r = replica(&cfg, &pairs, &dir, 0, 1);
        assert!(r.slow_path_enabled());
    }

    /// Six shares over `x` in view 1, each from its own signer.
    fn share_msgs(pairs: &[KeyPair], x: &Value) -> Vec<(ProcessId, Message)> {
        let digest = *value_digest(x);
        pairs
            .iter()
            .enumerate()
            .take(6)
            .map(|(i, pair)| {
                let sig = pair.sign(&ack_statement(&digest, View::FIRST));
                let msg = Message::SigShare(SigShareMsg {
                    digest,
                    view: View::FIRST,
                    sig,
                });
                (ProcessId::from_index(i), msg)
            })
            .collect()
    }

    #[test]
    fn sig_shares_assemble_commit_cert() {
        let (cfg, pairs, dir) = fixture(8, 2, 1); // slow quorum ceil(11/2)=6
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let x = Value::new(vec![3; 1024]);
        let mut buf = fx(1, 8);
        // The shares outrun the proposal: no Commit yet.
        for (from, msg) in share_msgs(&pairs, &x) {
            r.on_message(from, msg, &mut buf);
        }
        assert!(r.latest_cc.is_none());
        let mut buf = fx(1, 8);
        let p = propose_v1(&cfg, &pairs, &x);
        r.on_message(cfg.leader(View::FIRST), Message::Propose(p), &mut buf);
        // The replica stored the assembled commit certificate and
        // broadcast it by digest.
        let cc = r.latest_cc.clone().expect("commit certificate assembled");
        assert_eq!(cc.value, x);
        let commits: Vec<_> = buf
            .sent()
            .iter()
            .filter_map(|(_, m)| match m {
                Message::Commit(c) => Some(c.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(commits.len(), 8, "one broadcast, to every process");
        assert_eq!(commits[0], CommitMsg::of(&cc));
    }

    /// Rule 2: shares for a value this replica did not accept never make
    /// it send a `Commit`.
    #[test]
    fn commit_only_for_own_accepted_value() {
        let (cfg, pairs, dir) = fixture(8, 2, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let x = Value::from_u64(3);
        let y = Value::from_u64(4);
        give_proposal(&mut r, &cfg, &pairs, &y, 8);
        let mut buf = fx(1, 8);
        for (from, msg) in share_msgs(&pairs, &x) {
            r.on_message(from, msg, &mut buf);
        }
        assert!(r.latest_cc.is_none());
        assert!(!buf
            .sent()
            .iter()
            .any(|(_, m)| matches!(m, Message::Commit(_))));
    }

    #[test]
    fn forged_sig_share_ignored() {
        let (cfg, pairs, dir) = fixture(8, 2, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let x = Value::from_u64(3);
        give_proposal(&mut r, &cfg, &pairs, &x, 8);
        let mut buf = fx(1, 8);
        for (from, msg) in share_msgs(&pairs, &x) {
            // Signature by i but claimed from sender i+1: must be dropped.
            let claimed = ProcessId::from_index((from.index() + 1) % 8);
            r.on_message(claimed, msg, &mut buf);
        }
        assert!(r.latest_cc.is_none());
    }

    fn commit_cert(pairs: &[KeyPair], x: &Value, signers: usize) -> CommitCert {
        CommitCert {
            value: x.clone(),
            view: View::FIRST,
            sigs: pairs[..signers]
                .iter()
                .map(|p| p.sign(&ack_statement(value_digest(x), View::FIRST)))
                .collect(),
        }
    }

    #[test]
    fn commit_quorum_decides_slow() {
        let (cfg, pairs, dir) = fixture(8, 2, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let x = Value::from_u64(4);
        let cc = commit_cert(&pairs, &x, 6);
        let mut buf = fx(1, 8);
        for sender in 1..=6u32 {
            r.on_message(
                ProcessId(sender),
                Message::Commit(CommitMsg::of(&cc)),
                &mut buf,
            );
        }
        // Rule 3: without the bytes, the certificate is not kept and
        // nothing is decided; the commit senders are asked instead.
        assert_eq!(r.decided(), None);
        assert!(r.latest_cc.is_none());
        assert_eq!(value_requests(&buf).len(), 5, "senders other than self");
        give_proposal(&mut r, &cfg, &pairs, &x, 8);
        assert_eq!(r.decided(), Some(&x));
        assert_eq!(r.decided_path(), Some(CommitPath::Slow));
    }

    #[test]
    fn received_commit_cert_kept_with_bytes() {
        let (cfg, pairs, dir) = fixture(8, 2, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let x = Value::from_u64(4);
        give_proposal(&mut r, &cfg, &pairs, &x, 8);
        let cc = commit_cert(&pairs, &x, 6);
        let mut buf = fx(1, 8);
        r.on_message(ProcessId(5), Message::Commit(CommitMsg::of(&cc)), &mut buf);
        assert_eq!(r.latest_cc, Some(cc));
    }

    #[test]
    fn invalid_commit_cert_rejected() {
        let (cfg, pairs, dir) = fixture(8, 2, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let x = Value::from_u64(4);
        give_proposal(&mut r, &cfg, &pairs, &x, 8);
        // Only 3 shares: below the slow quorum of 6.
        let cc = commit_cert(&pairs, &x, 3);
        let mut buf = fx(1, 8);
        for sender in 1..=6u32 {
            r.on_message(
                ProcessId(sender),
                Message::Commit(CommitMsg::of(&cc)),
                &mut buf,
            );
        }
        assert_eq!(r.decided(), None);
    }

    #[test]
    fn future_proposal_buffered_until_view_entered() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let x = Value::from_u64(8);
        let v2 = View(2);
        let leader2 = cfg.leader(v2);
        // A valid view-2 proposal needs a progress certificate; build one
        // from f + 1 = 2 CertAck signatures.
        let cert: SignatureSet = pairs[..2]
            .iter()
            .map(|p| p.sign(&certack_payload(&x, v2)))
            .collect();
        let p = ProposeMsg {
            value: x.clone(),
            view: v2,
            cert: ProgressCert::Bounded(cert),
            sig: pairs[leader2.index()].sign(&propose_payload(&x, v2)),
        };
        let mut buf = fx(1, 4);
        r.on_message(leader2, Message::Propose(p), &mut buf);
        assert!(r.vote().is_none(), "not adopted while still in view 1");

        // Drive the synchronizer: 2f + 1 = 3 wishes for view 2.
        let mut buf2 = fx(1, 4);
        for sender in [2u32, 3, 4] {
            r.on_message(
                ProcessId(sender),
                Message::Wish(WishMsg { view: v2 }),
                &mut buf2,
            );
        }
        assert_eq!(r.view(), v2);
        assert_eq!(r.vote().as_ref().map(|vd| vd.value.clone()), Some(x));
    }

    #[test]
    fn wish_quorum_enters_view() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let mut buf = fx(1, 4);
        // f + 1 = 2 wishes adopt, 2f + 1 = 3 enter.
        r.on_message(
            ProcessId(2),
            Message::Wish(WishMsg { view: View(5) }),
            &mut buf,
        );
        assert_eq!(r.view(), View::FIRST);
        r.on_message(
            ProcessId(3),
            Message::Wish(WishMsg { view: View(5) }),
            &mut buf,
        );
        // Now we adopted the wish ourselves (counts as the third).
        assert_eq!(r.view(), View(5));
    }

    #[test]
    fn early_wish_starts_a_view_change_without_entering_it() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let mut buf = fx(1, 4);
        r.on_start(&mut buf);
        // Wishing straight past a silent view-1 leader broadcasts the wish
        // but, alone, does not leave view 1.
        let mut wished = fx(1, 4);
        r.wish(View(3), &mut wished);
        assert_eq!(r.view(), View::FIRST);
        assert_eq!(r.my_wish, Some(View(3)));
        let sent: Vec<View> = wished
            .sent()
            .into_iter()
            .filter_map(|(_, m)| match m {
                Message::Wish(w) => Some(w.view),
                _ => None,
            })
            .collect();
        assert_eq!(sent, vec![View(3); 3]);
        // A lower wish keeps the higher one, and so does the view-1
        // timeout, which wishes through the same entry point.
        let mut lower = fx(1, 4);
        r.wish(View(2), &mut lower);
        assert_eq!(r.my_wish, Some(View(3)));
        let mut timed_out = fx(1, 4);
        r.on_timer(TimerId(1), &mut timed_out);
        assert_eq!(r.my_wish, Some(View(3)));
        // Two more wishes make 2f + 1: the replica enters view 3.
        for sender in [2u32, 3] {
            r.on_message(
                ProcessId(sender),
                Message::Wish(WishMsg { view: View(3) }),
                &mut buf,
            );
        }
        assert_eq!(r.view(), View(3));
    }

    #[test]
    fn byzantine_wishes_alone_cannot_move_view() {
        let (cfg, pairs, dir) = fixture(9, 2, 2); // f = 2
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        let mut buf = fx(1, 9);
        // Only f = 2 wishes: below the f + 1 echo threshold.
        for sender in [2u32, 3] {
            r.on_message(
                ProcessId(sender),
                Message::Wish(WishMsg { view: View(9) }),
                &mut buf,
            );
        }
        assert_eq!(r.view(), View::FIRST);
        assert_eq!(r.my_wish, None);
    }

    #[test]
    fn message_kind_labels_cover_all_variants() {
        // Exercised here to keep labels stable for the figure renderers.
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let _ = (cfg, dir);
        let x = Value::from_u64(1);
        assert_eq!(ack(&x, View(1)).kind(), "ack");
        assert_eq!(
            Message::Propose(ProposeMsg {
                value: x,
                view: View(1),
                cert: ProgressCert::Genesis,
                sig: pairs[0].sign(b"x"),
            })
            .kind(),
            "propose"
        );
    }

    /// The interner absorbs unvalidated message values, so Byzantine value
    /// spray must be bounded by bytes (not just count) and released at the
    /// next view change.
    #[test]
    fn interner_is_byte_bounded_and_resets_on_view_change() {
        let (cfg, pairs, dir) = fixture(4, 1, 1);
        let mut r = replica(&cfg, &pairs, &dir, 0, 1);
        // Spray large distinct values: interned bytes must never exceed the
        // cap even though the count cap is far away.
        let big = 1 << 20; // 1 MiB each
        for i in 0..16u8 {
            r.intern(Value::new(vec![i; big]));
        }
        assert!(r.interned_bytes <= INTERN_BYTES_CAP);
        assert!(r.interned.len() < 16, "byte cap did not bite");
        // Values beyond the cap still pass through unharmed.
        let v = Value::new(vec![0xEE; big]);
        assert_eq!(r.intern(v.clone()), v);
        // A view change releases everything.
        let mut buf = fx(1, 4);
        r.enter_view(View(2), &mut buf);
        assert!(r.interned.is_empty());
        assert_eq!(r.interned_bytes, 0);
        // …and the interner works again afterwards.
        let w = Value::from_u64(9);
        r.intern(w.clone());
        assert_eq!(r.interned.len(), 1);
        assert_eq!(r.interned_bytes, 8);
    }
}
