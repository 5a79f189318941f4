//! Protocol messages.
//!
//! One message type per arrow in the paper's figures:
//!
//! * [`ProposeMsg`] / [`AckMsg`] — the fast path (Figure 1a);
//! * [`SigShareMsg`] / [`CommitMsg`] — the slow path (Figure 5);
//! * [`VoteMsg`] / [`CertRequestMsg`] / [`CertAckMsg`] — the view change
//!   (Figure 1b);
//! * [`WishMsg`] — the view synchronizer (the paper assumes one from the
//!   literature; ours is a wish/enter round synchronizer);
//! * [`ValueRequestMsg`] / [`Message::ValueReply`] — value recovery for a
//!   process that saw a decision quorum but not the proposal.
//!
//! Only [`ProposeMsg`], [`CertRequestMsg`] (and votes, inside their
//! certificates) carry a value's bytes. Acks, shares, `Commit`s and
//! `CertAck`s name the value by the 32-byte digest their signatures
//! already cover, so each value crosses the wire once per process per
//! view rather than once per message.

use fastbft_crypto::{value_digest, Digest, Signature, SignatureSet};
use fastbft_sim::SimMessage;
use fastbft_types::wire::{Decode, Encode, WireError, WireReader};
use fastbft_types::{Value, View};

use crate::certs::{CommitCert, ProgressCert, SignedVote};

/// `propose(x̂, v, σ̂, τ̂)`: the leader of `v` proposes `x̂` with progress
/// certificate `σ̂` and its signature `τ̂` over `(propose, x̂, v)`.
#[derive(Clone, Debug, PartialEq)]
pub struct ProposeMsg {
    /// The proposed value `x̂`.
    pub value: Value,
    /// The view `v`.
    pub view: View,
    /// The progress certificate `σ̂` (Genesis in view 1).
    pub cert: ProgressCert,
    /// `τ̂ = sign_{leader(v)}((propose, x̂, v))`.
    pub sig: Signature,
}
fastbft_types::impl_wire_struct!(ProposeMsg {
    value,
    view,
    cert,
    sig
});

/// `ack(x̂, v)` with the slow-path share riding along: sent to every
/// process after accepting a proposal; `n − t` acks decide the value.
///
/// The ack names the value by its digest `H(x̂)` — the same 32 bytes the
/// share `φ_ack` signs — never by its bytes: every correct receiver got
/// those in the leader's proposal, and one that did not fetches them with a
/// [`ValueRequestMsg`] before deciding. Appendix A.1 has the share
/// *accompany* each ack; [`SigShareMsg`] remains the share-only form, and
/// receivers treat an ack-carried share and a standalone share identically.
#[derive(Clone, Debug, PartialEq)]
pub struct AckMsg {
    /// `H(x̂)`, the acknowledged value's digest.
    pub digest: Digest,
    /// The view.
    pub view: View,
    /// `φ_ack = sign_q((ack, H(x̂), v))`, present when the sender runs the
    /// slow path.
    pub share: Option<Signature>,
}
fastbft_types::impl_wire_struct!(AckMsg {
    digest,
    view,
    share
});

/// `sig(φ_ack)`: a standalone slow-path signature share (see [`AckMsg`] —
/// honest processes piggyback shares on their acks; this message remains
/// the share-only form).
#[derive(Clone, Debug, PartialEq)]
pub struct SigShareMsg {
    /// `H(x̂)`, the acknowledged value's digest.
    pub digest: Digest,
    /// The view.
    pub view: View,
    /// `φ_ack = sign_q((ack, H(x̂), v))`.
    pub sig: Signature,
}
fastbft_types::impl_wire_struct!(SigShareMsg { digest, view, sig });

/// `Commit(x, v, cc)`: broadcast once a commit certificate is assembled;
/// `⌈(n+f+1)/2⌉` of these decide the value (slow path).
///
/// On the wire the certificate's value is replaced by its digest, which is
/// all the shares sign: a correct sender only commits the value it accepted
/// itself, and a receiver re-attaches the bytes it holds
/// ([`CommitMsg::into_cert`]) before keeping the certificate.
#[derive(Clone, Debug, PartialEq)]
pub struct CommitMsg {
    /// `H(x)`, the committed value's digest.
    pub digest: Digest,
    /// The view the shares were produced in.
    pub view: View,
    /// `⌈(n+f+1)/2⌉` shares over `(ack, H(x), v)`.
    pub sigs: SignatureSet,
}
fastbft_types::impl_wire_struct!(CommitMsg { digest, view, sigs });

impl CommitMsg {
    /// The wire form of `cert`.
    pub fn of(cert: &CommitCert) -> Self {
        CommitMsg {
            digest: *value_digest(&cert.value),
            view: cert.view,
            sigs: cert.sigs.clone(),
        }
    }

    /// The full certificate, given the value whose digest this carries
    /// (the caller checks the digest matches).
    pub fn into_cert(self, value: Value) -> CommitCert {
        debug_assert_eq!(value_digest(&value), &self.digest);
        CommitCert {
            value,
            view: self.view,
            sigs: self.sigs,
        }
    }
}

/// `vote(vote_q, φ_vote)`: sent to the leader of the new view on every view
/// change.
#[derive(Clone, Debug, PartialEq)]
pub struct VoteMsg {
    /// The destination view.
    pub view: View,
    /// The signed vote.
    pub vote: SignedVote,
}
fastbft_types::impl_wire_struct!(VoteMsg { view, vote });

/// `CertReq(x̂, votes)`: the leader asks processes to confirm its selection
/// of `x̂` by re-running the selection algorithm on `votes`.
#[derive(Clone, Debug, PartialEq)]
pub struct CertRequestMsg {
    /// The view being certified.
    pub view: View,
    /// The selected value `x̂`.
    pub value: Value,
    /// The votes the selection ran over.
    pub votes: Vec<SignedVote>,
}
fastbft_types::impl_wire_struct!(CertRequestMsg { view, value, votes });

/// `CertAck(φ_ca)`: a signed confirmation that the leader's selection was
/// correct; `f + 1` of these form the progress certificate. The leader
/// knows the value it asked about, so the digest names it.
#[derive(Clone, Debug, PartialEq)]
pub struct CertAckMsg {
    /// The view being certified.
    pub view: View,
    /// `H(x̂)`, the certified value's digest.
    pub digest: Digest,
    /// `φ_ca = sign_q((CertAck, H(x̂), v))`.
    pub sig: Signature,
}
fastbft_types::impl_wire_struct!(CertAckMsg { view, digest, sig });

/// View-synchronizer wish: "I want to enter view ≥ v".
#[derive(Clone, Debug, PartialEq)]
pub struct WishMsg {
    /// The wished-for view.
    pub view: View,
}
fastbft_types::impl_wire_struct!(WishMsg { view });

/// "Send me the proposal you accepted in view `v`": sent by a process that
/// holds a decision quorum of acks or `Commit`s for a digest whose bytes
/// it never received (a Byzantine leader withheld its proposal). Each
/// recipient answers at most once per `(requester, view)` with a
/// [`Message::ValueReply`].
#[derive(Clone, Debug, PartialEq)]
pub struct ValueRequestMsg {
    /// The view whose proposal is asked for.
    pub view: View,
}
fastbft_types::impl_wire_struct!(ValueRequestMsg { view });

/// Every protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Fast path: leader proposal.
    Propose(ProposeMsg),
    /// Fast path: acknowledgment.
    Ack(AckMsg),
    /// Slow path: signature share.
    SigShare(SigShareMsg),
    /// Slow path: commit certificate broadcast.
    Commit(CommitMsg),
    /// View change: vote.
    Vote(VoteMsg),
    /// View change: certification request.
    CertRequest(CertRequestMsg),
    /// View change: certification confirmation.
    CertAck(CertAckMsg),
    /// View synchronizer wish.
    Wish(WishMsg),
    /// Value recovery: ask quorum members for a withheld proposal.
    ValueRequest(ValueRequestMsg),
    /// Value recovery: the leader-signed proposal the sender accepted,
    /// relayed in answer to a [`Message::ValueRequest`].
    ValueReply(ProposeMsg),
}

impl Encode for Message {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Propose(m) => {
                buf.push(1);
                m.encode(buf);
            }
            Message::Ack(m) => {
                buf.push(2);
                m.encode(buf);
            }
            Message::SigShare(m) => {
                buf.push(3);
                m.encode(buf);
            }
            Message::Commit(m) => {
                buf.push(4);
                m.encode(buf);
            }
            Message::Vote(m) => {
                buf.push(5);
                m.encode(buf);
            }
            Message::CertRequest(m) => {
                buf.push(6);
                m.encode(buf);
            }
            Message::CertAck(m) => {
                buf.push(7);
                m.encode(buf);
            }
            Message::Wish(m) => {
                buf.push(8);
                m.encode(buf);
            }
            Message::ValueRequest(m) => {
                buf.push(9);
                m.encode(buf);
            }
            Message::ValueReply(m) => {
                buf.push(10);
                m.encode(buf);
            }
        }
    }
}

impl Decode for Message {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.take_u8()? {
            1 => Message::Propose(ProposeMsg::decode(r)?),
            2 => Message::Ack(AckMsg::decode(r)?),
            3 => Message::SigShare(SigShareMsg::decode(r)?),
            4 => Message::Commit(CommitMsg::decode(r)?),
            5 => Message::Vote(VoteMsg::decode(r)?),
            6 => Message::CertRequest(CertRequestMsg::decode(r)?),
            7 => Message::CertAck(CertAckMsg::decode(r)?),
            8 => Message::Wish(WishMsg::decode(r)?),
            9 => Message::ValueRequest(ValueRequestMsg::decode(r)?),
            10 => Message::ValueReply(ProposeMsg::decode(r)?),
            tag => {
                return Err(WireError::InvalidTag {
                    tag,
                    context: "Message",
                })
            }
        })
    }
}

impl SimMessage for Message {
    fn kind(&self) -> &'static str {
        match self {
            Message::Propose(_) => "propose",
            Message::Ack(_) => "ack",
            Message::SigShare(_) => "sig",
            Message::Commit(_) => "Commit",
            Message::Vote(_) => "vote",
            Message::CertRequest(_) => "CertReq",
            Message::CertAck(_) => "CertAck",
            Message::Wish(_) => "wish",
            Message::ValueRequest(_) => "ValueReq",
            Message::ValueReply(_) => "ValueReply",
        }
    }

    fn wire_size(&self) -> usize {
        self.to_wire_bytes().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::ack_payload;
    use fastbft_crypto::KeyDirectory;
    use fastbft_types::wire::roundtrip;

    /// One message of every digest-carried kind, for value `x`.
    fn digest_carried(x: &Value, v: View, sig: &Signature) -> Vec<Message> {
        let digest = *value_digest(x);
        vec![
            Message::Ack(AckMsg {
                digest,
                view: v,
                share: Some(sig.clone()),
            }),
            Message::SigShare(SigShareMsg {
                digest,
                view: v,
                sig: sig.clone(),
            }),
            Message::Commit(CommitMsg::of(&CommitCert {
                value: x.clone(),
                view: v,
                sigs: [sig.clone()].into_iter().collect(),
            })),
            Message::CertAck(CertAckMsg {
                view: v,
                digest,
                sig: sig.clone(),
            }),
        ]
    }

    #[test]
    fn all_messages_roundtrip() {
        let (pairs, _) = KeyDirectory::generate(4, 2);
        let x = Value::from_u64(7);
        let v = View(3);
        let sig = pairs[0].sign(b"any");
        let sv = SignedVote::sign(&pairs[1], None, v);
        let propose = ProposeMsg {
            value: x.clone(),
            view: v,
            cert: ProgressCert::Genesis,
            sig: sig.clone(),
        };

        let mut msgs = vec![
            Message::Propose(propose.clone()),
            Message::Ack(AckMsg {
                digest: *value_digest(&x),
                view: v,
                share: None,
            }),
            Message::Vote(VoteMsg {
                view: v,
                vote: sv.clone(),
            }),
            Message::CertRequest(CertRequestMsg {
                view: v,
                value: x.clone(),
                votes: vec![sv],
            }),
            Message::Wish(WishMsg { view: v }),
            Message::ValueRequest(ValueRequestMsg { view: v }),
            Message::ValueReply(propose),
        ];
        msgs.extend(digest_carried(&x, v, &sig));
        for m in &msgs {
            roundtrip(m);
            assert!(!m.kind().is_empty());
            assert!(m.wire_size() > 0);
            assert_eq!(m.wire_size(), m.to_wire_bytes().len());
        }

        // Acks, shares, `Commit`s and `CertAck`s name the value by digest:
        // they encode to the same size for an 8-byte value and a 64 KiB one.
        let large = Value::new(vec![0xC3; 64 << 10]);
        let sizes = |x: &Value| -> Vec<(&'static str, usize)> {
            digest_carried(x, v, &sig)
                .iter()
                .map(|m| (m.kind(), m.wire_size()))
                .collect()
        };
        let small_sizes = sizes(&x);
        assert_eq!(small_sizes, sizes(&large));
        for (kind, size) in small_sizes {
            assert!(size < 200, "{kind} encodes to {size} bytes");
        }
    }

    #[test]
    fn commit_msg_carries_the_cert_minus_its_value() {
        let (pairs, _) = KeyDirectory::generate(4, 2);
        let x = Value::new(vec![9; 1024]);
        let cert = CommitCert {
            value: x.clone(),
            view: View(5),
            sigs: pairs[..3]
                .iter()
                .map(|p| p.sign(&ack_payload(&x, View(5))))
                .collect(),
        };
        let msg = CommitMsg::of(&cert);
        assert_eq!(msg.digest, *value_digest(&x));
        assert!(msg.to_wire_bytes().len() + 900 < cert.wire_size());
        assert_eq!(msg.into_cert(x), cert);
    }

    #[test]
    fn kinds_are_distinct() {
        let (pairs, _) = KeyDirectory::generate(2, 2);
        let x = Value::from_u64(1);
        let sig = pairs[0].sign(b"s");
        let mut msgs = digest_carried(&x, View(1), &sig);
        msgs.push(Message::Wish(WishMsg { view: View(1) }));
        msgs.push(Message::ValueRequest(ValueRequestMsg { view: View(1) }));
        msgs.push(Message::ValueReply(ProposeMsg {
            value: x,
            view: View(1),
            cert: ProgressCert::Genesis,
            sig,
        }));
        let kinds: Vec<_> = msgs.iter().map(|m| m.kind()).collect();
        assert_eq!(
            kinds.len(),
            kinds
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len()
        );
    }

    #[test]
    fn decode_rejects_bad_tag() {
        assert!(matches!(
            fastbft_types::wire::from_bytes::<Message>(&[99]),
            Err(WireError::InvalidTag { tag: 99, .. })
        ));
    }
}
