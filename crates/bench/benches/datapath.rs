//! Send-pipeline microbenches: what the encode-once broadcast and the
//! per-drain frame MAC actually buy on the wire hot path.
//!
//! * `broadcast_encode/*` — encoding one protocol message for `n − 1`
//!   peers: the old per-peer re-encode vs the pipeline's encode-once
//!   (one encode into an owned buffer moved into `Bytes`, then
//!   reference-counted clones).
//! * `send_stream/*` — a node's real outbound mix (one proposal of 5 or
//!   64 KiB, then three ~100 B acks) encoded three ways: into a reused scratch
//!   buffer then copied into `Bytes`, into an empty `Vec` moved into
//!   `Bytes`, and — the send pipeline's way — into a `Vec` that starts
//!   with room for any digest-carried message, moved into `Bytes`.
//! * `frame_mac/*` — the HMAC-SHA256 session MAC over frame payloads of
//!   realistic sizes, including the amortized per-drain shape (one MAC
//!   over a k-message batch vs k MACs over single messages).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fastbft_core::certs::ProgressCert;
use fastbft_core::message::{AckMsg, Message, ProposeMsg};
use fastbft_crypto::session::SessionMac;
use fastbft_crypto::{value_digest, KeyDirectory};
use fastbft_net::frame::encode_batch_payload;
use fastbft_smr::SlotMessage;
use fastbft_types::wire::{encode_into, to_bytes, Encode};
use fastbft_types::{Value, View};

fn ack(slot: u64) -> SlotMessage {
    SlotMessage::Consensus {
        slot,
        inner: Message::Ack(AckMsg {
            digest: *value_digest(&Value::from_u64(7)),
            view: View(1),
            share: None,
        }),
    }
}

fn bench_broadcast_encode(c: &mut Criterion) {
    let msg = ack(3);
    let mut group = c.benchmark_group("broadcast_encode");
    group.throughput(Throughput::Bytes(to_bytes(&msg).len() as u64));
    for n in [4usize, 7] {
        group.bench_function(format!("per_peer_encode/n{n}"), |b| {
            b.iter(|| {
                // The pre-pipeline shape: one fresh encoding per peer.
                let mut total = 0usize;
                for _ in 0..n - 1 {
                    total += to_bytes(std::hint::black_box(&msg)).len();
                }
                total
            });
        });
        group.bench_function(format!("encode_once/n{n}"), |b| {
            b.iter(|| {
                // The pipeline's shape: one encoding into an owned buffer,
                // moved (not copied) into `Bytes`, then n − 1 Arc bumps.
                let mut buf = Vec::with_capacity(512);
                std::hint::black_box(&msg).encode(&mut buf);
                let shared = Bytes::from(buf);
                let mut total = 0usize;
                for _ in 0..n - 1 {
                    total += shared.clone().len();
                }
                total
            });
        });
    }
    group.finish();
}

/// One slot's worth of a node's sends: a proposal of `size` bytes, then
/// acks.
fn send_stream(size: usize) -> Vec<SlotMessage> {
    let (pairs, _) = KeyDirectory::generate(7, 2);
    let proposal = SlotMessage::Consensus {
        slot: 1,
        inner: Message::Propose(ProposeMsg {
            value: Value::new(vec![0xAB; size]),
            view: View(1),
            cert: ProgressCert::Genesis,
            sig: pairs[0].sign(b"p"),
        }),
    };
    vec![proposal, ack(1), ack(2), ack(3)]
}

fn bench_send_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("send_stream");
    for kib in [5usize, 64] {
        let stream = send_stream(kib * 1024);
        let total: usize = stream.iter().map(|m| to_bytes(m).len()).sum();
        group.throughput(Throughput::Bytes(total as u64));
        group.bench_function(format!("scratch_copy/{kib}KiB"), |b| {
            let mut scratch = Vec::new();
            b.iter(|| {
                let mut len = 0;
                for m in &stream {
                    encode_into(std::hint::black_box(m), &mut scratch);
                    len += std::hint::black_box(Bytes::copy_from_slice(&scratch)).len();
                }
                len
            });
        });
        group.bench_function(format!("owned_fresh/{kib}KiB"), |b| {
            b.iter(|| {
                let mut len = 0;
                for m in &stream {
                    let mut buf = Vec::new();
                    std::hint::black_box(m).encode(&mut buf);
                    len += std::hint::black_box(Bytes::from(buf)).len();
                }
                len
            });
        });
        group.bench_function(format!("owned_presized/{kib}KiB"), |b| {
            b.iter(|| {
                let mut len = 0;
                for m in &stream {
                    // The pipeline's shape (`TcpSender::encode`).
                    let mut buf = Vec::with_capacity(512);
                    std::hint::black_box(m).encode(&mut buf);
                    len += std::hint::black_box(Bytes::from(buf)).len();
                }
                len
            });
        });
    }
    group.finish();
}

fn bench_frame_mac(c: &mut Criterion) {
    let (pairs, _) = KeyDirectory::generate(4, 1);
    let mut group = c.benchmark_group("frame_mac");
    for size in [8usize, 1024] {
        let payload = vec![0x5Au8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("tag_next/{size}B"), |b| {
            let mut mac = SessionMac::new(pairs[0].clone(), 9);
            b.iter(|| mac.tag_next(std::hint::black_box(&payload)));
        });
    }
    // The coalescing win: MAC 8 messages one by one vs once as a drain.
    let msgs: Vec<Vec<u8>> = (0..8u64).map(|i| to_bytes(&ack(i))).collect();
    let total: usize = msgs.iter().map(Vec::len).sum();
    group.throughput(Throughput::Bytes(total as u64));
    group.bench_function("per_message/8_acks", |b| {
        let mut mac = SessionMac::new(pairs[1].clone(), 9);
        b.iter(|| {
            for m in &msgs {
                std::hint::black_box(mac.tag_next(m));
            }
        });
    });
    group.bench_function("per_drain/8_acks", |b| {
        let mut mac = SessionMac::new(pairs[2].clone(), 9);
        let mut batch = Vec::new();
        b.iter(|| {
            encode_batch_payload(&mut batch, &msgs);
            std::hint::black_box(mac.tag_next(&batch));
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_broadcast_encode,
    bench_send_stream,
    bench_frame_mac
);
criterion_main!(benches);
