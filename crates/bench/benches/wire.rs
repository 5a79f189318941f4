//! Wire-codec benchmarks: encoding is on the signing path (statements are
//! signed as canonical bytes), so it runs once per signature.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fastbft_core::certs::ProgressCert;
use fastbft_core::message::{AckMsg, Message, ProposeMsg};
use fastbft_crypto::{value_digest, KeyDirectory, SignatureSet};
use fastbft_types::wire::{from_bytes, to_bytes};
use fastbft_types::{Value, View};

fn bench_wire(c: &mut Criterion) {
    let (pairs, _) = KeyDirectory::generate(8, 1);
    let x = Value::from_u64(7);
    let ack = Message::Ack(AckMsg {
        digest: *value_digest(&x),
        view: View(3),
        share: None,
    });
    let cert: SignatureSet = pairs[..3].iter().map(|p| p.sign(b"ca")).collect();
    let propose = Message::Propose(ProposeMsg {
        value: x,
        view: View(3),
        cert: ProgressCert::Bounded(cert),
        sig: pairs[0].sign(b"p"),
    });

    let mut group = c.benchmark_group("wire");
    for (label, msg) in [("ack", &ack), ("propose_bounded", &propose)] {
        let bytes = to_bytes(msg);
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_function(format!("encode/{label}"), |b| {
            b.iter(|| to_bytes(std::hint::black_box(msg)));
        });
        group.bench_function(format!("decode/{label}"), |b| {
            b.iter(|| from_bytes::<Message>(std::hint::black_box(&bytes)).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
