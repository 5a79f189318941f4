//! Votes, progress certificates and commit certificates.
//!
//! * [`VoteData`] / [`Vote`] — the paper's `vote_q = (x, u, σ, τ)` (§3.2),
//!   extended with the latest commit certificate (Appendix A.2);
//! * [`SignedVote`] — a vote plus `φ_vote = sign_q((vote, vote_q, v))`,
//!   bound to the destination view `v`;
//! * [`ProgressCert`] — the paper's `σ`: proof that a value is safe in a
//!   view. Comes in the **bounded** form the paper contributes (`f + 1`
//!   CertAck signatures) and the **naive** form it discusses and rejects
//!   (the full vote set, verified by re-running the selection algorithm) —
//!   kept for the certificate-growth ablation (experiment E7);
//! * [`CommitCert`] — the paper's slow-path commit certificate:
//!   `⌈(n+f+1)/2⌉` signature shares over `(ack, x, v)`.

use std::cell::RefCell;
use std::collections::HashSet;

use fastbft_crypto::{
    sha256::Sha256, value_digest, Digest, KeyDirectory, KeyPair, SigVerifyStats, Signature,
    SignatureSet,
};
use fastbft_obs::MetricsHandle;
use fastbft_types::wire::{Decode, Encode, WireError, WireReader};
use fastbft_types::{Config, ProcessId, Value, View};

use crate::payload::{
    ack_payload, ack_statement, certack_payload, propose_payload, vote_payload, Statement,
};
use crate::selection::{select, Outcome, SelectionError};

thread_local! {
    /// Reused encode scratch for vote statements and certificate
    /// fingerprints: signing or validating a vote previously built a
    /// throwaway `to_wire_bytes()` `Vec` per call — the hot paths here are
    /// per-vote at every view change, so the allocation was pure overhead.
    static ENCODE_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// The statement `φ_vote` signs for `vote` destined to `dest_view`,
/// built through the reused thread-local scratch buffer.
fn vote_statement(vote: &Vote, dest_view: View) -> Statement {
    ENCODE_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        buf.clear();
        vote.encode(&mut buf);
        vote_payload(&buf, dest_view)
    })
}

/// SHA-256 of a value's canonical encoding, via the reused scratch buffer.
fn encoded_digest(value: &impl Encode) -> Digest {
    ENCODE_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        buf.clear();
        value.encode(&mut buf);
        Sha256::digest_of(&buf)
    })
}

/// Which progress-certificate construction the protocol uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CertMode {
    /// The paper's contribution: constant-size certificates built from
    /// `f + 1` CertAck signatures via the extra view-change round-trip.
    #[default]
    Bounded,
    /// The naive scheme §3.2 discusses: the certificate is the whole vote
    /// set; verifiers re-run the selection algorithm. Certificate size (and
    /// verification time) grows with the view number — the ablation of E7.
    Naive,
}

/// A progress certificate: transferable proof that value `x` is safe in
/// view `v` (no other value was or will be decided in any view `< v`).
#[derive(Clone, Debug, PartialEq)]
pub enum ProgressCert {
    /// The trivial certificate for view 1, where any value is safe (`⊥`).
    Genesis,
    /// `f + 1` signatures over `(CertAck, x, v)` — at least one is from a
    /// correct process that re-ran the selection algorithm (§3.2).
    Bounded(SignatureSet),
    /// The full set of `≥ n − f` signed votes; verified by re-running the
    /// selection algorithm locally.
    Naive(Vec<SignedVote>),
}

impl ProgressCert {
    /// Verifies that this certificate proves `x` safe in `v`.
    pub fn verify(&self, cfg: &Config, dir: &KeyDirectory, x: &Value, v: View) -> bool {
        match self {
            ProgressCert::Genesis => v.is_first(),
            ProgressCert::Bounded(sigs) => {
                sigs.verify(&certack_payload(x, v), dir, cfg.cert_quorum())
            }
            ProgressCert::Naive(votes) => {
                // Re-run the selection algorithm on the presented votes, as a
                // CertRequest verifier would (the naive scheme makes *every*
                // propose recipient such a verifier).
                let mut map = std::collections::BTreeMap::new();
                for sv in votes {
                    if !sv.is_valid(cfg, dir, v) {
                        return false;
                    }
                    if map.insert(sv.voter, sv.clone()).is_some() {
                        return false; // duplicate voter
                    }
                }
                match select(cfg, v, &map) {
                    Ok(result) => match result.outcome {
                        Outcome::Constrained(ref y) => y == x,
                        Outcome::Free => true,
                    },
                    Err(SelectionError::NeedMoreVotes { .. }) => false,
                }
            }
        }
    }

    /// Encoded size in bytes (the E7 metric).
    pub fn wire_size(&self) -> usize {
        self.to_wire_bytes().len()
    }

    /// [`ProgressCert::verify`] through a [`CertCache`]: a certificate that
    /// already verified for `(x, v)` (e.g. re-delivered with a re-proposal,
    /// or embedded in several votes) is recognized by fingerprint and does
    /// no signature work.
    pub fn verify_cached(
        &self,
        cfg: &Config,
        dir: &KeyDirectory,
        x: &Value,
        v: View,
        cache: &mut CertCache,
    ) -> bool {
        match self {
            // The trivial certificate has nothing worth caching.
            ProgressCert::Genesis => v.is_first(),
            ProgressCert::Bounded(sigs) => {
                let key = (
                    CertKind::BoundedProgress,
                    v,
                    *value_digest(x),
                    encoded_digest(sigs),
                );
                cache.check(key, |metrics| {
                    let stats =
                        sigs.verify_with_stats(&certack_payload(x, v), dir, cfg.cert_quorum());
                    note_sig_stats(metrics, stats);
                    stats.ok
                })
            }
            ProgressCert::Naive(votes) => {
                let key = (
                    CertKind::NaiveProgress,
                    v,
                    *value_digest(x),
                    encoded_digest(votes),
                );
                // The naive scheme's per-vote signatures are not memoized
                // (E7 ablation path) — no signature-memo stats to record.
                cache.check(key, |_| self.verify(cfg, dir, x, v))
            }
        }
    }
}

/// Certificate kind discriminant for [`CertCache`] fingerprints.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum CertKind {
    BoundedProgress,
    NaiveProgress,
    Commit,
}

/// Fingerprint of a successfully verified certificate: kind, view, value
/// digest, and the digest of the certificate evidence's canonical encoding.
///
/// Hashing the evidence bytes (not just the signer set) is what makes the
/// cache sound: a Byzantine peer re-sending a cert with the right signers
/// but tampered signature tags produces a different fingerprint and is
/// re-verified (and rejected) instead of riding an earlier cert's success.
type CertFingerprint = (CertKind, View, Digest, Digest);

/// Memo of certificates that have already verified **successfully**.
///
/// Commit certificates are broadcast by every process and re-delivered with
/// every re-proposal and piggybacked vote, so the same `(view, value,
/// evidence)` certificate reaches a replica many times; this cache turns
/// each re-verification into one fingerprint hash (a few SHA-256 blocks
/// over the signature tags) instead of a full multi-signer HMAC walk.
/// Failures are never cached — garbage stays cheap to reject and cannot
/// poison the memo — so every entry corresponds to a certificate that
/// genuinely carried a quorum of valid signatures, which bounds the cache
/// by real protocol traffic (a capacity backstop guards the pathological
/// case anyway).
#[derive(Debug)]
pub struct CertCache {
    seen: HashSet<CertFingerprint>,
    /// Bound on memoized entries; on overflow the memo resets.
    capacity: usize,
    /// Observability handle: cache hits/misses and the signature-memo
    /// work of cache-missing verifications are recorded here (disabled by
    /// default — [`CertCache::with_metrics`] enables it).
    metrics: MetricsHandle,
}

/// Default backstop bound on [`CertCache`] entries; on overflow the memo
/// resets (correctness is unaffected — certificates are simply
/// re-verified). Deployments tune this through
/// `ReplicaOptions::cert_cache_capacity`.
pub const DEFAULT_CERT_CACHE_CAPACITY: usize = 4096;

impl Default for CertCache {
    fn default() -> Self {
        CertCache::new()
    }
}

impl CertCache {
    /// Creates an empty cache with the default capacity.
    pub fn new() -> Self {
        CertCache::with_capacity(DEFAULT_CERT_CACHE_CAPACITY, MetricsHandle::none())
    }

    /// An empty cache with the default capacity that records hits, misses
    /// and signature-memo stats into `metrics`.
    pub fn with_metrics(metrics: MetricsHandle) -> Self {
        CertCache::with_capacity(DEFAULT_CERT_CACHE_CAPACITY, metrics)
    }

    /// An empty cache bounded at `capacity` memoized certificates. A
    /// capacity of 0 disables memoization entirely (every certificate is
    /// re-verified); hit/miss metrics still flow.
    pub fn with_capacity(capacity: usize, metrics: MetricsHandle) -> Self {
        CertCache {
            seen: HashSet::new(),
            capacity,
            metrics,
        }
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of memoized certificates (for tests and monitoring).
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Returns `true` if `key` is memoized; otherwise runs `verify` and
    /// memoizes a success. The closure receives the cache's metrics
    /// handle so verifications can attribute their signature-memo work.
    fn check(&mut self, key: CertFingerprint, verify: impl FnOnce(&MetricsHandle) -> bool) -> bool {
        if self.seen.contains(&key) {
            if let Some(m) = self.metrics.get() {
                m.cert_cache_hit_total.inc();
            }
            return true;
        }
        if let Some(m) = self.metrics.get() {
            m.cert_cache_miss_total.inc();
        }
        let ok = verify(&self.metrics);
        if ok && self.capacity > 0 {
            if self.seen.len() >= self.capacity {
                self.seen.clear();
            }
            self.seen.insert(key);
        }
        ok
    }
}

/// Records one certificate verification's signature-memo split, if the
/// handle is live.
fn note_sig_stats(metrics: &MetricsHandle, stats: SigVerifyStats) {
    if let Some(m) = metrics.get() {
        m.sig_memo_hit_total.add(stats.memo_hits);
        m.sig_memo_miss_total.add(stats.fresh_checks);
    }
}

impl Encode for ProgressCert {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ProgressCert::Genesis => buf.push(0),
            ProgressCert::Bounded(sigs) => {
                buf.push(1);
                sigs.encode(buf);
            }
            ProgressCert::Naive(votes) => {
                buf.push(2);
                votes.encode(buf);
            }
        }
    }
}

impl Decode for ProgressCert {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            0 => Ok(ProgressCert::Genesis),
            1 => Ok(ProgressCert::Bounded(SignatureSet::decode(r)?)),
            2 => Ok(ProgressCert::Naive(Vec::<SignedVote>::decode(r)?)),
            tag => Err(WireError::InvalidTag {
                tag,
                context: "ProgressCert",
            }),
        }
    }
}

/// A commit certificate: `⌈(n+f+1)/2⌉` signature shares over `(ack, x, v)`
/// (Appendix A). Holding one proves no other value can be decided in `v`.
#[derive(Clone, Debug, PartialEq)]
pub struct CommitCert {
    /// The committed value.
    pub value: Value,
    /// The view the shares were produced in.
    pub view: View,
    /// The signature shares.
    pub sigs: SignatureSet,
}

impl CommitCert {
    /// Verifies the certificate against the slow-path quorum.
    pub fn verify(&self, cfg: &Config, dir: &KeyDirectory) -> bool {
        self.sigs
            .verify(&ack_payload(&self.value, self.view), dir, cfg.slow_quorum())
    }

    /// [`CommitCert::verify`] through a [`CertCache`]: the same certificate
    /// re-delivered (every process broadcasts its `Commit`, and votes
    /// piggyback the latest one) is recognized by fingerprint instead of
    /// re-walking its signature quorum.
    pub fn verify_cached(&self, cfg: &Config, dir: &KeyDirectory, cache: &mut CertCache) -> bool {
        verify_commit_sigs(
            cfg,
            dir,
            value_digest(&self.value),
            self.view,
            &self.sigs,
            cache,
        )
    }

    /// Encoded size in bytes.
    pub fn wire_size(&self) -> usize {
        self.to_wire_bytes().len()
    }
}

fastbft_types::impl_wire_struct!(CommitCert { value, view, sigs });

/// Verifies commit-certificate evidence — `⌈(n+f+1)/2⌉` shares over
/// `(ack, digest, view)` — through a [`CertCache`], knowing only the
/// value's digest. This is the check a digest-carried `Commit` message
/// faces; [`CommitCert::verify_cached`] is the same check, so a
/// certificate verified in either form is memoized for both.
pub fn verify_commit_sigs(
    cfg: &Config,
    dir: &KeyDirectory,
    digest: &Digest,
    view: View,
    sigs: &SignatureSet,
    cache: &mut CertCache,
) -> bool {
    let key = (CertKind::Commit, view, *digest, encoded_digest(sigs));
    cache.check(key, |metrics| {
        let stats = sigs.verify_with_stats(&ack_statement(digest, view), dir, cfg.slow_quorum());
        note_sig_stats(metrics, stats);
        stats.ok
    })
}

/// The paper's `vote_q = (x, u, σ, τ)`, plus the piggybacked latest commit
/// certificate of the generalized protocol.
#[derive(Clone, Debug, PartialEq)]
pub struct VoteData {
    /// The value this process last acknowledged (`x`).
    pub value: Value,
    /// The view in which it acknowledged (`u`).
    pub view: View,
    /// The progress certificate from the propose it acknowledged (`σ`).
    pub progress_cert: ProgressCert,
    /// `τ = sign_{leader(u)}((propose, x, u))`.
    pub leader_sig: Signature,
    /// The most recent commit certificate this process has collected, if any
    /// (Appendix A.2: "each process will add to their vote the latest commit
    /// certificate that they have collected").
    pub commit_cert: Option<CommitCert>,
}

fastbft_types::impl_wire_struct!(VoteData {
    value,
    view,
    progress_cert,
    leader_sig,
    commit_cert
});

/// A vote: `nil` ([`None`]) until the process first acknowledges a proposal,
/// then the data of the latest acknowledged proposal.
pub type Vote = Option<VoteData>;

/// A vote signed for a specific destination view:
/// `(vote_q, φ_vote = sign_q((vote, vote_q, v)))`.
#[derive(Clone, Debug, PartialEq)]
pub struct SignedVote {
    /// The voting process.
    pub voter: ProcessId,
    /// Its vote.
    pub vote: Vote,
    /// `φ_vote`, binding the vote to the destination view.
    pub sig: Signature,
}

fastbft_types::impl_wire_struct!(SignedVote { voter, vote, sig });

impl SignedVote {
    /// Creates and signs a vote destined for the leader of `dest_view`.
    pub fn sign(keypair: &KeyPair, vote: Vote, dest_view: View) -> Self {
        let payload = vote_statement(&vote, dest_view);
        SignedVote {
            voter: keypair.id(),
            vote,
            sig: keypair.sign(&payload),
        }
    }

    /// Full validity check (the paper's "valid vote", §3.2): the vote
    /// signature is valid for `dest_view`, and — for non-nil votes — the
    /// embedded view precedes `dest_view`, `τ` is a valid signature by
    /// `leader(u)` over `(propose, x, u)`, the progress certificate proves
    /// `x` safe in `u`, and any piggybacked commit certificate is valid and
    /// no newer than `u`.
    pub fn is_valid(&self, cfg: &Config, dir: &KeyDirectory, dest_view: View) -> bool {
        self.validate(cfg, dir, dest_view, None)
    }

    /// [`SignedVote::is_valid`] with the embedded certificates checked
    /// through a [`CertCache`] — the same commit certificate is typically
    /// piggybacked by many voters, and a leader validates each vote both on
    /// arrival and (as a CertRequest verifier would) in snapshots.
    pub fn is_valid_cached(
        &self,
        cfg: &Config,
        dir: &KeyDirectory,
        dest_view: View,
        cache: &mut CertCache,
    ) -> bool {
        self.validate(cfg, dir, dest_view, Some(cache))
    }

    fn validate(
        &self,
        cfg: &Config,
        dir: &KeyDirectory,
        dest_view: View,
        mut cache: Option<&mut CertCache>,
    ) -> bool {
        if self.sig.signer != self.voter {
            return false;
        }
        let payload = vote_statement(&self.vote, dest_view);
        if !dir.verify(&payload, &self.sig) {
            return false;
        }
        let Some(vd) = &self.vote else {
            return true; // nil votes are valid by definition
        };
        if vd.view >= dest_view || vd.view.0 < 1 {
            return false;
        }
        if vd.leader_sig.signer != cfg.leader(vd.view) {
            return false;
        }
        if !dir.verify(&propose_payload(&vd.value, vd.view), &vd.leader_sig) {
            return false;
        }
        let pc_ok = match cache.as_deref_mut() {
            Some(c) => vd
                .progress_cert
                .verify_cached(cfg, dir, &vd.value, vd.view, c),
            None => vd.progress_cert.verify(cfg, dir, &vd.value, vd.view),
        };
        if !pc_ok {
            return false;
        }
        if let Some(cc) = &vd.commit_cert {
            if cc.view > vd.view {
                return false;
            }
            let cc_ok = match cache {
                Some(c) => cc.verify_cached(cfg, dir, c),
                None => cc.verify(cfg, dir),
            };
            if !cc_ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbft_types::wire::roundtrip;

    fn setup() -> (Config, Vec<KeyPair>, KeyDirectory) {
        let cfg = Config::new(4, 1, 1).unwrap();
        let (pairs, dir) = KeyDirectory::generate(4, 1);
        (cfg, pairs, dir)
    }

    /// A valid propose signature for view 1 by its leader (p2 under the
    /// paper's leader map).
    fn tau(pairs: &[KeyPair], cfg: &Config, x: &Value, v: View) -> Signature {
        pairs[cfg.leader(v).index()].sign(&propose_payload(x, v))
    }

    #[test]
    fn genesis_cert_only_valid_in_view_one() {
        let (cfg, _pairs, dir) = setup();
        let x = Value::from_u64(1);
        assert!(ProgressCert::Genesis.verify(&cfg, &dir, &x, View(1)));
        assert!(!ProgressCert::Genesis.verify(&cfg, &dir, &x, View(2)));
    }

    #[test]
    fn bounded_cert_requires_f_plus_one_signers() {
        let (cfg, pairs, dir) = setup();
        let x = Value::from_u64(1);
        let v = View(3);
        let payload = certack_payload(&x, v);
        let one: SignatureSet = [pairs[0].sign(&payload)].into_iter().collect();
        assert!(!ProgressCert::Bounded(one).verify(&cfg, &dir, &x, v));
        let two: SignatureSet = pairs[..2].iter().map(|p| p.sign(&payload)).collect();
        assert!(ProgressCert::Bounded(two).verify(&cfg, &dir, &x, v));
        // Signatures over the wrong value do not certify x.
        let wrong: SignatureSet = pairs[..2]
            .iter()
            .map(|p| p.sign(&certack_payload(&Value::from_u64(2), v)))
            .collect();
        assert!(!ProgressCert::Bounded(wrong).verify(&cfg, &dir, &x, v));
    }

    #[test]
    fn commit_cert_requires_slow_quorum() {
        let (cfg, pairs, dir) = setup();
        let x = Value::from_u64(5);
        let v = View(1);
        let payload = ack_payload(&x, v);
        // slow quorum for (4,1,1) is ceil(6/2) = 3.
        let cc = CommitCert {
            value: x.clone(),
            view: v,
            sigs: pairs[..3].iter().map(|p| p.sign(&payload)).collect(),
        };
        assert!(cc.verify(&cfg, &dir));
        let small = CommitCert {
            value: x.clone(),
            view: v,
            sigs: pairs[..2].iter().map(|p| p.sign(&payload)).collect(),
        };
        assert!(!small.verify(&cfg, &dir));
    }

    #[test]
    fn nil_votes_validate_and_roundtrip() {
        let (cfg, pairs, dir) = setup();
        let sv = SignedVote::sign(&pairs[2], None, View(4));
        assert!(sv.is_valid(&cfg, &dir, View(4)));
        // …but not for a different destination view (replay defence).
        assert!(!sv.is_valid(&cfg, &dir, View(5)));
        roundtrip(&sv);
    }

    #[test]
    fn real_vote_validates() {
        let (cfg, pairs, dir) = setup();
        let x = Value::from_u64(9);
        let vd = VoteData {
            value: x.clone(),
            view: View(1),
            progress_cert: ProgressCert::Genesis,
            leader_sig: tau(&pairs, &cfg, &x, View(1)),
            commit_cert: None,
        };
        let sv = SignedVote::sign(&pairs[0], Some(vd), View(2));
        assert!(sv.is_valid(&cfg, &dir, View(2)));
        roundtrip(&sv);
    }

    #[test]
    fn vote_with_forged_leader_sig_rejected() {
        let (cfg, pairs, dir) = setup();
        let x = Value::from_u64(9);
        // p3 signs instead of leader(1) = p2.
        let vd = VoteData {
            value: x.clone(),
            view: View(1),
            progress_cert: ProgressCert::Genesis,
            leader_sig: pairs[2].sign(&propose_payload(&x, View(1))),
            commit_cert: None,
        };
        let sv = SignedVote::sign(&pairs[0], Some(vd), View(2));
        assert!(!sv.is_valid(&cfg, &dir, View(2)));
    }

    #[test]
    fn vote_view_must_precede_destination() {
        let (cfg, pairs, dir) = setup();
        let x = Value::from_u64(9);
        let vd = VoteData {
            value: x.clone(),
            view: View(3),
            progress_cert: ProgressCert::Genesis, // also invalid for view 3
            leader_sig: tau(&pairs, &cfg, &x, View(3)),
            commit_cert: None,
        };
        // view 3 not < dest view 3
        let sv = SignedVote::sign(&pairs[0], Some(vd), View(3));
        assert!(!sv.is_valid(&cfg, &dir, View(3)));
    }

    #[test]
    fn vote_with_stale_commit_cert_ok_future_cc_rejected() {
        let (cfg, pairs, dir) = setup();
        let x = Value::from_u64(9);
        let cc = CommitCert {
            value: x.clone(),
            view: View(1),
            sigs: pairs[..3]
                .iter()
                .map(|p| p.sign(&ack_payload(&x, View(1))))
                .collect(),
        };
        let make = |cc_view: View| {
            let mut cc = cc.clone();
            cc.view = cc_view;
            VoteData {
                value: x.clone(),
                view: View(1),
                progress_cert: ProgressCert::Genesis,
                leader_sig: tau(&pairs, &cfg, &x, View(1)),
                commit_cert: Some(cc),
            }
        };
        let good = SignedVote::sign(&pairs[0], Some(make(View(1))), View(2));
        assert!(good.is_valid(&cfg, &dir, View(2)));
        // cc.view > vote.view is malformed.
        let bad = SignedVote::sign(&pairs[0], Some(make(View(2))), View(3));
        assert!(!bad.is_valid(&cfg, &dir, View(3)));
    }

    #[test]
    fn tampered_vote_rejected() {
        let (cfg, pairs, dir) = setup();
        let x = Value::from_u64(9);
        let vd = VoteData {
            value: x.clone(),
            view: View(1),
            progress_cert: ProgressCert::Genesis,
            leader_sig: tau(&pairs, &cfg, &x, View(1)),
            commit_cert: None,
        };
        let mut sv = SignedVote::sign(&pairs[0], Some(vd), View(2));
        // Tamper with the embedded value after signing.
        if let Some(vd) = &mut sv.vote {
            vd.value = Value::from_u64(10);
        }
        assert!(!sv.is_valid(&cfg, &dir, View(2)));
        // Claiming someone else's voter id also fails.
        let sv2 = SignedVote {
            voter: ProcessId(3),
            ..SignedVote::sign(&pairs[0], None, View(2))
        };
        assert!(!sv2.is_valid(&cfg, &dir, View(2)));
    }

    #[test]
    fn cert_cache_makes_redelivered_certs_free() {
        let (cfg, pairs, dir) = setup();
        let x = Value::from_u64(5);
        let payload = ack_payload(&x, View(1));
        let cc = CommitCert {
            value: x.clone(),
            view: View(1),
            sigs: pairs[..3].iter().map(|p| p.sign(&payload)).collect(),
        };
        let mut cache = CertCache::new();
        assert!(cc.verify_cached(&cfg, &dir, &mut cache));
        assert_eq!(cache.len(), 1);
        // A re-delivered copy arrives freshly decoded (no SignatureSet
        // memo): the replica-level cache must still skip every HMAC.
        let redelivered: CommitCert = fastbft_types::wire::from_bytes(&cc.to_wire_bytes()).unwrap();
        let before = dir.verifications_performed();
        assert!(redelivered.verify_cached(&cfg, &dir, &mut cache));
        assert_eq!(dir.verifications_performed(), before);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cert_cache_reverifies_tampered_evidence() {
        let (cfg, pairs, dir) = setup();
        let x = Value::from_u64(5);
        let payload = ack_payload(&x, View(1));
        let cc = CommitCert {
            value: x.clone(),
            view: View(1),
            sigs: pairs[..3].iter().map(|p| p.sign(&payload)).collect(),
        };
        let mut cache = CertCache::new();
        assert!(cc.verify_cached(&cfg, &dir, &mut cache));
        // Same (view, value, signer set) but one forged tag: the evidence
        // fingerprint differs, so the cache must NOT vouch for it.
        let mut forged = cc.clone();
        forged.sigs = cc
            .sigs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if i == 0 {
                    Signature::from_parts(s.signer, [0u8; 32])
                } else {
                    s.clone()
                }
            })
            .collect();
        let fresh: CommitCert = fastbft_types::wire::from_bytes(&forged.to_wire_bytes()).unwrap();
        assert!(!fresh.verify_cached(&cfg, &dir, &mut cache));
        // Failures are not memoized.
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cert_cache_capacity_bounds_and_evicts() {
        let (cfg, pairs, dir) = setup();
        let mut cache = CertCache::with_capacity(4, MetricsHandle::none());
        assert_eq!(cache.capacity(), 4);
        let cert_for = |view: u64| {
            let x = Value::from_u64(view);
            let payload = ack_payload(&x, View(view));
            CommitCert {
                value: x,
                view: View(view),
                sigs: pairs[..3].iter().map(|p| p.sign(&payload)).collect(),
            }
        };
        // Fill to capacity: all four distinct certs are memoized.
        for view in 1..=4 {
            assert!(cert_for(view).verify_cached(&cfg, &dir, &mut cache));
        }
        assert_eq!(cache.len(), 4);
        // A fifth distinct cert overflows: the memo resets wholesale and
        // only the newcomer remains …
        assert!(cert_for(5).verify_cached(&cfg, &dir, &mut cache));
        assert_eq!(cache.len(), 1);
        // … so an evicted cert re-verifies (paying its HMACs again) and is
        // re-admitted. Correctness is unaffected either way.
        let evicted: CommitCert =
            fastbft_types::wire::from_bytes(&cert_for(1).to_wire_bytes()).unwrap();
        let before = dir.verifications_performed();
        assert!(evicted.verify_cached(&cfg, &dir, &mut cache));
        #[cfg(debug_assertions)]
        assert!(dir.verifications_performed() > before);
        #[cfg(not(debug_assertions))]
        let _ = before;
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cert_cache_capacity_zero_disables_memoization() {
        let (cfg, pairs, dir) = setup();
        let x = Value::from_u64(5);
        let payload = ack_payload(&x, View(1));
        let cc = CommitCert {
            value: x.clone(),
            view: View(1),
            sigs: pairs[..3].iter().map(|p| p.sign(&payload)).collect(),
        };
        let mut cache = CertCache::with_capacity(0, MetricsHandle::none());
        assert!(cc.verify_cached(&cfg, &dir, &mut cache));
        assert!(cache.is_empty());
        // Nothing was memoized, but verification still succeeds.
        let fresh: CommitCert = fastbft_types::wire::from_bytes(&cc.to_wire_bytes()).unwrap();
        assert!(fresh.verify_cached(&cfg, &dir, &mut cache));
        assert!(cache.is_empty());
    }

    #[test]
    fn progress_cert_cache_hits_and_misses() {
        let (cfg, pairs, dir) = setup();
        let x = Value::from_u64(1);
        let v = View(3);
        let set: SignatureSet = pairs[..2]
            .iter()
            .map(|p| p.sign(&certack_payload(&x, v)))
            .collect();
        let cert = ProgressCert::Bounded(set);
        let mut cache = CertCache::new();
        assert!(cert.verify_cached(&cfg, &dir, &x, v, &mut cache));
        let fresh: ProgressCert = fastbft_types::wire::from_bytes(&cert.to_wire_bytes()).unwrap();
        let before = dir.verifications_performed();
        assert!(fresh.verify_cached(&cfg, &dir, &x, v, &mut cache));
        assert_eq!(dir.verifications_performed(), before);
        // The same evidence must not certify a different value or view.
        assert!(!fresh.verify_cached(&cfg, &dir, &Value::from_u64(2), v, &mut cache));
        assert!(!fresh.verify_cached(&cfg, &dir, &x, View(4), &mut cache));
        // Genesis stays view-1-only through the cache.
        assert!(ProgressCert::Genesis.verify_cached(&cfg, &dir, &x, View(1), &mut cache));
        assert!(!ProgressCert::Genesis.verify_cached(&cfg, &dir, &x, View(2), &mut cache));
    }

    #[test]
    fn progress_cert_wire_roundtrips() {
        let (_, pairs, _) = setup();
        roundtrip(&ProgressCert::Genesis);
        let set: SignatureSet = pairs[..2].iter().map(|p| p.sign(b"s")).collect();
        roundtrip(&ProgressCert::Bounded(set));
        let votes = vec![
            SignedVote::sign(&pairs[0], None, View(2)),
            SignedVote::sign(&pairs[1], None, View(2)),
        ];
        roundtrip(&ProgressCert::Naive(votes));
    }

    #[test]
    fn bounded_cert_size_is_constant_in_view() {
        let (_, pairs, _) = setup();
        let x = Value::from_u64(1);
        let size_at = |v: View| {
            let set: SignatureSet = pairs[..2]
                .iter()
                .map(|p| p.sign(&certack_payload(&x, v)))
                .collect();
            ProgressCert::Bounded(set).wire_size()
        };
        assert_eq!(size_at(View(2)), size_at(View(2_000_000)));
    }
}
