//! Transparent timing wrappers around the program's layers, for the traced
//! run: an [`Actor`] around each `SmrNode`, a [`Transport`] around each
//! seat's channel or TCP transport, and a [`StateMachine`] around
//! `KvStore`. Each one forwards every call to the wrapped value (trait
//! defaults included: a wrapper that fell back on `Transport::broadcast`'s
//! default would turn TCP's encode-once broadcast into n sends) and adds
//! only a clock read and a few relaxed counter updates.
//!
//! Counters are per seat and read while the cluster runs, so the benchmark
//! can difference them over the measured window. Spans stay in a buffer
//! owned by the wrapper and reach the shared [`TraceCtx`] once, when the
//! seat stops.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fastbft_crypto::Digest;
use fastbft_runtime::{Polled, Staged, Transport, VerifyPool};
use fastbft_sim::{Actor, Effects, TimerId};
use fastbft_smr::{KvOutput, KvStore, SlotMessage, StateMachine};
use fastbft_types::{ProcessId, Value};

use crate::workload::command_id;

/// Most spans one wrapper keeps; later ones are counted but not stored.
const SPAN_CAP: usize = 10_000;

/// Outgoing messages kept for the wire calibration.
const SAMPLE_CAP: usize = 512;

/// Slot timers are `slot << 32 | generation` (see `SmrNode`).
const TIMER_SLOT_SHIFT: u32 = 32;

/// One per-seat counter.
#[derive(Clone, Copy, Debug)]
pub enum C {
    /// Nanoseconds inside any actor callback.
    BusyNs,
    ClientNs,
    ClientCalls,
    /// `on_message` with a `SlotMessage::Consensus`.
    ConsensusNs,
    TimerNs,
    /// Nanoseconds inside `send` / `broadcast`.
    SendNs,
    /// Messages handed to the transport; a broadcast counts n.
    SentMsgs,
    /// Calls that emitted messages (a broadcast counts one).
    SendCalls,
    /// `recv_batch` / `recv_batch_staged` calls.
    Wakeups,
    /// Client commands and peer messages those calls returned.
    Events,
}

pub const COUNTERS: usize = 10;

/// A seat's counters, written only by that seat's thread.
#[derive(Default, Debug)]
pub struct SeatStats([AtomicU64; COUNTERS]);

impl SeatStats {
    fn add(&self, c: C, v: u64) {
        self.0[c as usize].fetch_add(v, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> [u64; COUNTERS] {
        std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed))
    }
}

/// One timed call. `id` is the slot for protocol calls and the command id
/// for client commands.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub seat: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
}

/// Everything the wrappers of one traced cluster share with the benchmark.
#[derive(Debug)]
pub struct TraceCtx {
    /// Span clock origin.
    pub origin: Instant,
    /// Spans and message samples are taken only while this is set (the
    /// measured window).
    pub recording: AtomicBool,
    pub seats: Vec<SeatStats>,
    pub apply_ns: AtomicU64,
    pub apply_calls: AtomicU64,
    spans: Mutex<Vec<Span>>,
    samples: Mutex<Vec<SlotMessage>>,
    samples_full: AtomicBool,
}

impl TraceCtx {
    pub fn new(n: usize, origin: Instant) -> Arc<Self> {
        Arc::new(TraceCtx {
            origin,
            recording: AtomicBool::new(false),
            seats: (0..n).map(|_| SeatStats::default()).collect(),
            apply_ns: AtomicU64::new(0),
            apply_calls: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            samples: Mutex::new(Vec::new()),
            samples_full: AtomicBool::new(false),
        })
    }

    fn recording(&self) -> bool {
        self.recording.load(Ordering::Relaxed)
    }

    fn since_origin(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn publish(&self, spans: &mut Vec<Span>) {
        if !spans.is_empty() {
            self.spans.lock().expect("span sink poisoned").append(spans);
        }
    }

    fn sample(&self, msg: &SlotMessage) {
        if !self.recording() || self.samples_full.load(Ordering::Relaxed) {
            return;
        }
        let mut samples = self.samples.lock().expect("sample sink poisoned");
        if samples.len() < SAMPLE_CAP {
            samples.push(msg.clone());
        } else {
            self.samples_full.store(true, Ordering::Relaxed);
        }
    }

    /// Every span the stopped wrappers published, by start time.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"));
        spans.sort_by_key(|s| (s.start_ns, s.seat));
        spans
    }

    pub fn take_samples(&self) -> Vec<SlotMessage> {
        std::mem::take(&mut *self.samples.lock().expect("sample sink poisoned"))
    }
}

/// The per-wrapper half of span recording.
#[derive(Debug)]
struct SpanBuf {
    seat: usize,
    ctx: Arc<TraceCtx>,
    spans: Vec<Span>,
}

impl SpanBuf {
    fn new(seat: usize, ctx: Arc<TraceCtx>) -> Self {
        SpanBuf {
            seat,
            ctx,
            spans: Vec::new(),
        }
    }

    fn stats(&self) -> &SeatStats {
        &self.ctx.seats[self.seat]
    }

    /// Returns the call's duration, and keeps its span while the window
    /// is being recorded.
    fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) -> u64 {
        let ns = end.duration_since(start).as_nanos() as u64;
        if self.ctx.recording() && self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                name,
                seat: self.seat,
                start_ns: self.ctx.since_origin(start),
                end_ns: self.ctx.since_origin(end),
                id,
            });
        }
        ns
    }

    fn flush(&mut self) {
        self.ctx.publish(&mut self.spans);
    }
}

fn slot_of(msg: &SlotMessage) -> Option<u64> {
    match msg {
        SlotMessage::Consensus { slot, .. } => Some(*slot),
        _ => None,
    }
}

/// Times each callback of a seat's actor (an `SmrNode`).
pub struct TracedActor {
    inner: Box<dyn Actor<SlotMessage> + Send>,
    buf: SpanBuf,
}

impl TracedActor {
    pub fn new(inner: Box<dyn Actor<SlotMessage> + Send>, seat: usize, ctx: Arc<TraceCtx>) -> Self {
        TracedActor {
            inner,
            buf: SpanBuf::new(seat, ctx),
        }
    }

    /// Counts the callback that began at `start` as busy time, and as
    /// `layer` time when given.
    fn done(&mut self, name: &'static str, id: u64, start: Instant, layer: Option<C>) {
        let ns = self.buf.record(name, id, start, Instant::now());
        let stats = self.buf.stats();
        stats.add(C::BusyNs, ns);
        if let Some(layer) = layer {
            stats.add(layer, ns);
        }
    }
}

impl Actor<SlotMessage> for TracedActor {
    fn on_start(&mut self, fx: &mut Effects<SlotMessage>) {
        let start = Instant::now();
        self.inner.on_start(fx);
        self.done("actor.on_start", 0, start, None);
    }

    fn on_message(&mut self, from: ProcessId, msg: SlotMessage, fx: &mut Effects<SlotMessage>) {
        let slot = slot_of(&msg);
        let start = Instant::now();
        self.inner.on_message(from, msg, fx);
        match slot {
            Some(slot) => self.done("core.on_message", slot, start, Some(C::ConsensusNs)),
            None => self.done("smr.on_control", 0, start, None),
        }
    }

    fn on_timer(&mut self, timer: TimerId, fx: &mut Effects<SlotMessage>) {
        let start = Instant::now();
        self.inner.on_timer(timer, fx);
        let slot = timer.0 >> TIMER_SLOT_SHIFT;
        self.done("core.on_timer", slot, start, Some(C::TimerNs));
    }

    fn on_client(&mut self, command: Value, fx: &mut Effects<SlotMessage>) {
        let id = command_id(&command).map_or(u64::MAX, u64::from);
        let start = Instant::now();
        self.inner.on_client(command, fx);
        self.done("smr.on_client", id, start, Some(C::ClientNs));
        self.buf.stats().add(C::ClientCalls, 1);
    }

    fn on_shutdown(&mut self) {
        self.inner.on_shutdown();
        self.buf.flush();
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn as_any(&self) -> Option<&dyn Any> {
        self.inner.as_any()
    }
}

/// Times a seat's sends and counts its wakeups.
pub struct TracedTransport<T> {
    inner: T,
    buf: SpanBuf,
}

impl<T> TracedTransport<T> {
    pub fn new(inner: T, seat: usize, ctx: Arc<TraceCtx>) -> Self {
        TracedTransport {
            inner,
            buf: SpanBuf::new(seat, ctx),
        }
    }

    fn sent(&mut self, name: &'static str, slot: Option<u64>, start: Instant, msgs: u64) {
        let ns = self
            .buf
            .record(name, slot.unwrap_or(u64::MAX), start, Instant::now());
        let stats = self.buf.stats();
        stats.add(C::SendNs, ns);
        stats.add(C::SentMsgs, msgs);
        stats.add(C::SendCalls, 1);
    }

    fn woke(&self, events: usize) {
        let stats = self.buf.stats();
        stats.add(C::Wakeups, 1);
        stats.add(C::Events, events as u64);
    }
}

fn polled_events(polled: &Polled<SlotMessage>) -> usize {
    match polled {
        Polled::Delivered(..) | Polled::Client(_) => 1,
        Polled::DeliveredBatch(_, msgs) => msgs.len(),
        Polled::Shutdown | Polled::TimedOut | Polled::Closed => 0,
    }
}

impl<T: Transport<SlotMessage>> Transport<SlotMessage> for TracedTransport<T> {
    fn send(&mut self, to: ProcessId, msg: SlotMessage) {
        self.buf.ctx.sample(&msg);
        let slot = slot_of(&msg);
        let start = Instant::now();
        self.inner.send(to, msg);
        self.sent("net.send", slot, start, 1);
    }

    fn cluster_size(&self) -> usize {
        self.inner.cluster_size()
    }

    fn broadcast(&mut self, msg: SlotMessage) {
        self.buf.ctx.sample(&msg);
        let slot = slot_of(&msg);
        let n = self.inner.cluster_size() as u64;
        let start = Instant::now();
        self.inner.broadcast(msg);
        self.sent("net.broadcast", slot, start, n);
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Polled<SlotMessage> {
        self.inner.recv(timeout)
    }

    fn recv_batch(&mut self, max: usize, timeout: Option<Duration>) -> Vec<Polled<SlotMessage>> {
        let batch = self.inner.recv_batch(max, timeout);
        self.woke(batch.iter().map(polled_events).sum());
        batch
    }

    fn recv_batch_staged(
        &mut self,
        max: usize,
        timeout: Option<Duration>,
        pool: Option<&mut VerifyPool<SlotMessage>>,
    ) -> Vec<Staged<SlotMessage>> {
        let batch = self.inner.recv_batch_staged(max, timeout, pool);
        let events = batch
            .iter()
            .map(|staged| match staged {
                Staged::Ready(polled) => polled_events(polled),
                Staged::Pending(_) => 1,
            })
            .sum();
        self.woke(events);
        batch
    }
}

impl<T> Drop for TracedTransport<T> {
    fn drop(&mut self) {
        self.buf.flush();
    }
}

/// Times `apply` on the replicas' `KvStore`s; every other call forwards.
#[derive(Clone, Debug)]
pub struct TimedKv {
    inner: KvStore,
    ctx: Arc<TraceCtx>,
}

impl TimedKv {
    pub fn new(ctx: Arc<TraceCtx>) -> Self {
        TimedKv {
            inner: KvStore::new(),
            ctx,
        }
    }
}

impl StateMachine for TimedKv {
    type Output = KvOutput;

    fn apply(&mut self, command: &Value) -> KvOutput {
        let start = Instant::now();
        let out = self.inner.apply(command);
        let ns = start.elapsed().as_nanos() as u64;
        self.ctx.apply_ns.fetch_add(ns, Ordering::Relaxed);
        self.ctx.apply_calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn snapshot(&self) -> Vec<u8> {
        self.inner.snapshot()
    }

    fn restore(&mut self, bytes: &[u8]) -> bool {
        self.inner.restore(bytes)
    }

    fn state_digest(&self) -> Digest {
        self.inner.state_digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbft_core::replica::ReplicaOptions;
    use fastbft_crypto::KeyDirectory;
    use fastbft_sim::SimTime;
    use fastbft_smr::runtime::{as_smr_node, smr_actors};
    use fastbft_smr::KvCommand;
    use fastbft_types::Config;

    /// Which of its methods the wrapped transport saw.
    #[derive(Default)]
    struct Calls {
        send: AtomicU64,
        broadcast: AtomicU64,
        recv: AtomicU64,
        recv_batch: AtomicU64,
        recv_batch_staged: AtomicU64,
    }

    impl Calls {
        fn get(c: &AtomicU64) -> u64 {
            c.load(Ordering::Relaxed)
        }
    }

    /// Overrides every `Transport` method, so a wrapper that fell back on a
    /// trait default shows up as the wrong call.
    struct Mock(Arc<Calls>);

    impl Transport<SlotMessage> for Mock {
        fn send(&mut self, _to: ProcessId, _msg: SlotMessage) {
            self.0.send.fetch_add(1, Ordering::Relaxed);
        }
        fn cluster_size(&self) -> usize {
            4
        }
        fn broadcast(&mut self, _msg: SlotMessage) {
            self.0.broadcast.fetch_add(1, Ordering::Relaxed);
        }
        fn recv(&mut self, _timeout: Option<Duration>) -> Polled<SlotMessage> {
            self.0.recv.fetch_add(1, Ordering::Relaxed);
            Polled::TimedOut
        }
        fn recv_batch(
            &mut self,
            _max: usize,
            _timeout: Option<Duration>,
        ) -> Vec<Polled<SlotMessage>> {
            self.0.recv_batch.fetch_add(1, Ordering::Relaxed);
            vec![Polled::Client(Value::from_u64(1)), Polled::TimedOut]
        }
        fn recv_batch_staged(
            &mut self,
            _max: usize,
            _timeout: Option<Duration>,
            _pool: Option<&mut VerifyPool<SlotMessage>>,
        ) -> Vec<Staged<SlotMessage>> {
            self.0.recv_batch_staged.fetch_add(1, Ordering::Relaxed);
            vec![
                Staged::Ready(Polled::Client(Value::from_u64(1))),
                Staged::Ready(Polled::Client(Value::from_u64(2))),
            ]
        }
    }

    fn probe_msg() -> SlotMessage {
        SlotMessage::SnapshotRequest { have: 3 }
    }

    #[test]
    fn transport_wrapper_forwards_every_method() {
        let calls = Arc::new(Calls::default());
        let ctx = TraceCtx::new(4, Instant::now());
        let mut t = TracedTransport::new(Mock(Arc::clone(&calls)), 1, Arc::clone(&ctx));

        t.broadcast(probe_msg());
        assert_eq!(
            Calls::get(&calls.broadcast),
            1,
            "broadcast reaches the inner broadcast"
        );
        assert_eq!(
            Calls::get(&calls.send),
            0,
            "broadcast is not expanded into sends"
        );
        t.send(ProcessId(2), probe_msg());
        assert_eq!(Calls::get(&calls.send), 1);
        assert_eq!(t.cluster_size(), 4);

        assert_eq!(t.recv_batch(8, None).len(), 2);
        assert_eq!(Calls::get(&calls.recv_batch), 1);
        assert_eq!(t.recv_batch_staged(8, None, None).len(), 2);
        assert_eq!(Calls::get(&calls.recv_batch_staged), 1);
        assert_eq!(
            Calls::get(&calls.recv_batch),
            1,
            "the staged call is not rebuilt from recv_batch"
        );
        assert!(matches!(t.recv(None), Polled::TimedOut));
        assert_eq!(Calls::get(&calls.recv), 1);

        let seat = ctx.seats[1].snapshot();
        assert_eq!(
            seat[C::SentMsgs as usize],
            5,
            "a broadcast counts n messages"
        );
        assert_eq!(seat[C::SendCalls as usize], 2);
        assert_eq!(seat[C::Wakeups as usize], 2);
        assert_eq!(seat[C::Events as usize], 3);
    }

    /// Records that `on_shutdown` ran and answers `as_any`.
    struct Probe(Arc<AtomicBool>);

    impl Actor<SlotMessage> for Probe {
        fn on_start(&mut self, _fx: &mut Effects<SlotMessage>) {}
        fn on_message(&mut self, _: ProcessId, _: SlotMessage, _: &mut Effects<SlotMessage>) {}
        fn on_shutdown(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
        fn label(&self) -> &'static str {
            "probe"
        }
        fn as_any(&self) -> Option<&dyn Any> {
            Some(self)
        }
    }

    #[test]
    fn actor_wrapper_forwards_shutdown_and_downcasts() {
        let stopped = Arc::new(AtomicBool::new(false));
        let ctx = TraceCtx::new(1, Instant::now());
        ctx.recording.store(true, Ordering::Relaxed);
        let mut a = TracedActor::new(Box::new(Probe(Arc::clone(&stopped))), 0, Arc::clone(&ctx));
        let mut fx = Effects::new(ProcessId(1), 1, SimTime::ZERO);
        a.on_client(Value::from_u64(9), &mut fx);
        a.on_shutdown();
        assert!(
            stopped.load(Ordering::Relaxed),
            "on_shutdown reaches the inner actor"
        );
        assert_eq!(a.label(), "probe");
        assert!(a
            .as_any()
            .and_then(|any| any.downcast_ref::<Probe>())
            .is_some());
        assert_eq!(ctx.take_spans().len(), 1, "shutdown publishes the spans");

        // The real thing: the harness's downcast still finds the SmrNode.
        let cfg = Config::new(4, 1, 1).unwrap();
        let (pairs, dir) = KeyDirectory::generate(4, 1);
        let nodes = smr_actors(
            cfg,
            &pairs,
            &dir,
            KvStore::new(),
            vec![Vec::new(); 4],
            KvCommand::Noop.to_value(),
            ReplicaOptions::default(),
            1,
        );
        let node = nodes.into_iter().next().unwrap();
        let wrapped = TracedActor::new(node, 0, ctx);
        assert!(as_smr_node::<KvStore>(&wrapped).is_some());
    }

    #[test]
    fn timed_store_matches_the_plain_store() {
        let ctx = TraceCtx::new(1, Instant::now());
        let mut timed = TimedKv::new(Arc::clone(&ctx));
        let mut plain = KvStore::new();
        for i in 0..10u64 {
            let cmd = KvCommand::Put {
                key: format!("k{}", i % 3),
                value: i.to_string(),
            }
            .to_value();
            assert_eq!(timed.apply(&cmd), plain.apply(&cmd));
        }
        assert_eq!(timed.state_digest(), plain.state_digest());
        assert_eq!(timed.snapshot(), plain.snapshot());
        let mut restored = TimedKv::new(Arc::clone(&ctx));
        assert!(restored.restore(&plain.snapshot()));
        assert_eq!(restored.state_digest(), plain.state_digest());
        assert_eq!(ctx.apply_calls.load(Ordering::Relaxed), 10);
    }
}
