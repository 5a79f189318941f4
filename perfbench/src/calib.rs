//! Unit costs of the crypto and wire layers at a workload's sizes, timed
//! in the benchmark process through the crates' public functions. They
//! price the traced operation counts (`crypto.est_us_per_cmd`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use fastbft_crypto::session::SessionMac;
use fastbft_crypto::KeyDirectory;
use fastbft_smr::SlotMessage;
use fastbft_types::wire::{encode_into, from_bytes, to_bytes};

/// Length of a protocol statement (`tag ‖ H(m) ‖ v`).
const STATEMENT: usize = 41;

/// Each timing repetition runs at least this long.
const REP: Duration = Duration::from_millis(4);
const REPS: usize = 5;

pub struct Calib {
    pub sign_ns: f64,
    pub verify_ns: f64,
    pub digest_ns_per_kib: f64,
    pub frame_mac_ns: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
}

/// Median over [`REPS`] repetitions of the time per call of `op`, which
/// gets the call's index.
fn ns_per_op(mut op: impl FnMut(usize)) -> f64 {
    let mut reps = Vec::with_capacity(REPS);
    let mut i = 0;
    for _ in 0..REPS {
        let start = Instant::now();
        let mut calls = 0u64;
        while start.elapsed() < REP {
            for _ in 0..64 {
                op(i);
                i = i.wrapping_add(1);
            }
            calls += 64;
        }
        reps.push(start.elapsed().as_nanos() as f64 / calls as f64);
    }
    reps.sort_by(f64::total_cmp);
    reps[REPS / 2]
}

/// Times the crypto primitives for `payload`-byte commands and
/// `frame_bytes`-byte frames, and the codec on `samples`.
pub fn calibrate(payload: usize, frame_bytes: usize, samples: &[SlotMessage]) -> Calib {
    let (pairs, dir) = KeyDirectory::generate(2, 99);
    let statements: Vec<[u8; STATEMENT]> = (0..1024u32)
        .map(|i| {
            let mut s = [0u8; STATEMENT];
            s[..4].copy_from_slice(&i.to_be_bytes());
            s
        })
        .collect();
    let sigs: Vec<_> = statements.iter().map(|s| pairs[0].sign(s)).collect();
    let sign_ns = ns_per_op(|i| {
        black_box(pairs[0].sign(black_box(&statements[i % statements.len()])));
    });
    let verify_ns = ns_per_op(|i| {
        let k = i % statements.len();
        assert!(dir.verify(black_box(&statements[k]), &sigs[k]));
    });
    let mut value = vec![7u8; payload.max(1)];
    let digest_ns = ns_per_op(|i| {
        value[0] = i as u8;
        black_box(fastbft_crypto::digest(black_box(&value)));
    });
    let frame = vec![3u8; frame_bytes.max(1)];
    let mut mac = SessionMac::new(pairs[0].clone(), 1);
    let frame_mac_ns = ns_per_op(|_| {
        black_box(mac.tag_next(black_box(&frame)));
    });
    let (encode_ns, decode_ns) = if samples.is_empty() {
        (0.0, 0.0)
    } else {
        let encoded: Vec<Vec<u8>> = samples.iter().map(to_bytes).collect();
        let mut scratch = Vec::new();
        let encode_ns = ns_per_op(|i| {
            black_box(encode_into(
                black_box(&samples[i % samples.len()]),
                &mut scratch,
            ));
        });
        let decode_ns = ns_per_op(|i| {
            let msg: SlotMessage = from_bytes(black_box(&encoded[i % encoded.len()]))
                .expect("sampled messages decode");
            black_box(msg);
        });
        (encode_ns, decode_ns)
    };
    Calib {
        sign_ns,
        verify_ns,
        digest_ns_per_kib: digest_ns * 1024.0 / payload.max(1) as f64,
        frame_mac_ns,
        encode_ns,
        decode_ns,
    }
}

/// Mean encoded size of `samples` (the channel transport has no frames,
/// so this stands in for the frame size there).
pub fn mean_encoded(samples: &[SlotMessage]) -> usize {
    if samples.is_empty() {
        return 0;
    }
    samples.iter().map(|m| to_bytes(m).len()).sum::<usize>() / samples.len()
}
