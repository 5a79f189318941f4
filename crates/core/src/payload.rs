//! Canonical byte strings for every signed statement in the protocol.
//!
//! The paper signs tuples like `(propose, x, v)`; here each tuple becomes a
//! domain-separated canonical byte string. Domain separation bytes guarantee
//! that a signature over one statement kind can never be replayed as another
//! (e.g. an ack share can't pose as a CertAck), and including the view binds
//! every statement to its view, which is what makes vote replay across views
//! impossible (§3.2).
//!
//! # Digest-carried statements (hash-then-sign)
//!
//! Statements embed the SHA-256 **digest** of the value (or vote encoding),
//! not the bytes themselves: every statement is the fixed-size
//! `tag ‖ H(m) ‖ v` ([`Statement`], [`STATEMENT_LEN`] bytes on the stack —
//! no per-call allocation). This is the standard hash-then-sign shape (PBFT
//! signs request digests; HotStuff-family certificates verify in O(sigs),
//! not O(sigs × payload)): signing and verifying cost the same for an
//! 8-byte label and a 1 KiB command batch, because the value is hashed once
//! per process ([`Value::digest_with`] memoizes it) while each signature
//! only ever touches the 32-byte digest. The paper's §3.2 replay and
//! domain-separation arguments carry over by collision resistance of
//! SHA-256: two distinct values (or votes) would need colliding digests to
//! alias a statement.
//!
//! **Compatibility note:** switching the signed bytes from
//! `tag ‖ m ‖ v` to `tag ‖ H(m) ‖ v` changes every signature and MAC-based
//! certificate **protocol-wide** — processes on the two formats cannot
//! validate each other's signatures. All in-tree signers and verifiers go
//! through this module, so the workspace switches atomically; anything
//! persisting or replaying signed traffic across versions would need a
//! protocol version bump.

use fastbft_crypto::{sha256::Sha256, value_digest, Digest};
use fastbft_types::{Value, View};

/// Byte length of every signed statement: 1 domain tag + 32 digest + 8 view.
pub const STATEMENT_LEN: usize = 41;

/// A fixed-size signed statement `tag ‖ H(m) ‖ v`, built on the stack.
pub type Statement = [u8; STATEMENT_LEN];

/// Domain tags for signed statements.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
enum Domain {
    /// `(propose, x, v)` — signed by `leader(v)`; the paper's `τ`.
    Propose = 1,
    /// `(vote, vote, v)` — signed by the voter; the paper's `φ_vote`.
    Vote = 2,
    /// `(CertAck, x, v)` — signed by certifiers; the paper's `φ_ca`.
    CertAck = 3,
    /// `(ack, x, v)` — the slow-path signature share; the paper's `φ_ack`.
    Ack = 4,
}

fn statement(domain: Domain, digest: &Digest, v: View) -> Statement {
    let mut s = [0u8; STATEMENT_LEN];
    s[0] = domain as u8;
    s[1..33].copy_from_slice(digest);
    s[33..41].copy_from_slice(&v.0.to_be_bytes());
    s
}

/// Bytes of the statement `(propose, H(x), v)` (signed by `leader(v)` → `τ`).
pub fn propose_payload(x: &Value, v: View) -> Statement {
    statement(Domain::Propose, value_digest(x), v)
}

/// Bytes of the statement `(vote, H(vote_bytes), v)` (signed by the voter →
/// `φ_vote`). `vote_bytes` is the canonical encoding of the vote
/// (`Option<VoteData>`), produced by the caller; this function is kept
/// byte-oriented to avoid a circular dependency with the vote types.
pub fn vote_payload(vote_bytes: &[u8], v: View) -> Statement {
    statement(Domain::Vote, &Sha256::digest_of(vote_bytes), v)
}

/// Bytes of the statement `(CertAck, H(x), v)` (signed by certifiers →
/// `φ_ca`; `f + 1` of these form a progress certificate).
pub fn certack_payload(x: &Value, v: View) -> Statement {
    certack_statement(value_digest(x), v)
}

/// [`certack_payload`] from the value's digest alone: what a `CertAck`
/// message carries on the wire.
pub fn certack_statement(digest: &Digest, v: View) -> Statement {
    statement(Domain::CertAck, digest, v)
}

/// Bytes of the statement `(ack, H(x), v)` (signed share sent alongside each
/// ack; `⌈(n+f+1)/2⌉` of these form a commit certificate, Appendix A).
pub fn ack_payload(x: &Value, v: View) -> Statement {
    ack_statement(value_digest(x), v)
}

/// [`ack_payload`] from the value's digest alone: what acks, shares and
/// `Commit` messages carry on the wire.
pub fn ack_statement(digest: &Digest, v: View) -> Statement {
    statement(Domain::Ack, digest, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbft_types::wire::Encode;

    #[test]
    fn domains_never_collide() {
        let x = Value::from_u64(7);
        let v = View(3);
        let payloads = [
            propose_payload(&x, v),
            certack_payload(&x, v),
            ack_payload(&x, v),
            vote_payload(&x.as_bytes().to_vec().to_wire_bytes(), v),
        ];
        for i in 0..payloads.len() {
            for j in i + 1..payloads.len() {
                assert_ne!(payloads[i], payloads[j], "payloads {i} and {j} collide");
            }
        }
    }

    #[test]
    fn payloads_bind_value_and_view() {
        let x = Value::from_u64(7);
        let y = Value::from_u64(8);
        assert_ne!(propose_payload(&x, View(1)), propose_payload(&y, View(1)));
        assert_ne!(propose_payload(&x, View(1)), propose_payload(&x, View(2)));
        assert_ne!(ack_payload(&x, View(1)), ack_payload(&x, View(2)));
        assert_ne!(certack_payload(&x, View(1)), certack_payload(&y, View(1)));
    }

    #[test]
    fn digest_statements_match_value_statements() {
        let x = Value::new(vec![0x5A; 300]);
        let d = *value_digest(&x);
        assert_eq!(ack_statement(&d, View(4)), ack_payload(&x, View(4)));
        assert_eq!(certack_statement(&d, View(4)), certack_payload(&x, View(4)));
    }

    #[test]
    fn vote_payload_binds_destination_view() {
        // The same vote sent to leaders of different views signs different
        // bytes — the cross-view replay defence.
        let vote_bytes = vec![1u8, 2, 3];
        assert_ne!(
            vote_payload(&vote_bytes, View(5)),
            vote_payload(&vote_bytes, View(6))
        );
    }

    #[test]
    fn statements_are_fixed_size_regardless_of_payload() {
        // The whole point of digest-carried statements: a 1 KiB value signs
        // the same 41 bytes as an 8-byte one.
        let small = Value::from_u64(1);
        let large = Value::new(vec![0xAB; 1024]);
        assert_eq!(propose_payload(&small, View(1)).len(), STATEMENT_LEN);
        assert_eq!(propose_payload(&large, View(1)).len(), STATEMENT_LEN);
        assert_ne!(
            propose_payload(&small, View(1)),
            propose_payload(&large, View(1))
        );
    }
}
