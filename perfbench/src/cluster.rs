//! Building and spawning one workload's cluster in the `tcp_kv`
//! deployment configuration, and timing its set-up.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fastbft_core::replica::ReplicaOptions;
use fastbft_crypto::{Digest, KeyDirectory};
use fastbft_net::{tcp_seats, tcp_seats_metered, TcpStats};
use fastbft_obs::MetricsRegistry;
use fastbft_runtime::{spawn_with, ChannelTransport, ClusterHandle, NodeSeat, Transport};
use fastbft_sim::Actor;
use fastbft_smr::runtime::{as_smr_node, smr_actors_configured, SmrClusterHandle};
use fastbft_smr::{AdaptiveBatch, Batching, KvCommand, KvStore, SlotMessage, StateMachine};
use fastbft_types::Config;

use crate::tracker::Tracker;
use crate::workload::{Net, Workload};
use crate::wrap::{TimedKv, TraceCtx, TracedActor, TracedTransport};

/// The deployment's protocol tick (`examples/tcp_kv.rs`).
pub const TICK: Duration = Duration::from_micros(50);

/// Longest wait for the first acked command.
const SETUP_TIMEOUT: Duration = Duration::from_secs(30);

/// The layer probes of a traced cluster.
pub struct Probes {
    pub ctx: Arc<TraceCtx>,
    pub registry: MetricsRegistry,
    /// Per-seat send counters of the TCP transports (empty on channels).
    pub tcp: Vec<TcpStats>,
}

/// A running cluster with the client bookkeeping attached.
pub struct Live {
    pub workload: Workload,
    handle: SmrClusterHandle,
    /// The cluster clock origin: `Applied::elapsed` counts from here (taken
    /// just before the spawn, so it trails the runtime's own by the time
    /// one `Instant::now` takes).
    pub origin: Instant,
    pub tracker: Tracker,
    /// Key generation to the first acked command, in seconds.
    pub setup_s: f64,
    pub probes: Option<Probes>,
}

impl Live {
    /// Generates keys, builds and spawns the cluster, stops the workload's
    /// crashed seats, and waits until command 0 is acked.
    pub fn start(
        w: Workload,
        seed: u64,
        traced: bool,
        probe: fastbft_types::Value,
    ) -> Result<Self, String> {
        let began = Instant::now();
        let cfg = Config::new(w.n, w.f, w.t).map_err(|e| format!("config: {e:?}"))?;
        let (pairs, dir) = KeyDirectory::generate(cfg.n(), seed);
        let idle = KvCommand::Noop.to_value();
        let opts = ReplicaOptions {
            apply_workers: 1,
            ..ReplicaOptions::default()
        };
        let registry = traced.then(|| MetricsRegistry::new(cfg.n()));
        let ctx = traced.then(|| TraceCtx::new(cfg.n(), began));
        let actors = match &ctx {
            Some(ctx) => actors(
                cfg,
                &pairs,
                &dir,
                TimedKv::new(Arc::clone(ctx)),
                opts,
                registry.as_ref(),
            )
            .into_iter()
            .enumerate()
            .map(|(i, a)| -> Box<dyn Actor<SlotMessage> + Send> {
                Box::new(TracedActor::new(a, i, Arc::clone(ctx)))
            })
            .collect(),
            None => actors(cfg, &pairs, &dir, KvStore::new(), opts, None),
        };
        let mut tcp = Vec::new();
        let (handle, origin) = match w.net {
            Net::Tcp => {
                let (seats, _addrs) = match &registry {
                    Some(r) => tcp_seats_metered(actors, pairs, dir, Default::default(), r),
                    None => tcp_seats(actors, pairs, dir, Default::default()),
                }
                .map_err(|e| format!("bind: {e}"))?;
                tcp = seats
                    .iter()
                    .map(|s| s.transport.stats())
                    .collect::<Vec<_>>();
                spawn(seats, ctx.as_ref())
            }
            Net::Channel => {
                let seats = ChannelTransport::mesh(cfg.n())
                    .into_iter()
                    .zip(actors)
                    .map(|((transport, control), actor)| NodeSeat {
                        actor,
                        transport,
                        control,
                        verify: None,
                    })
                    .collect();
                spawn(seats, ctx.as_ref())
            }
        };
        let mut handle = SmrClusterHandle::new(handle, cfg.n(), idle.clone());
        for &seat in w.crashed {
            drop(handle.stop_node(seat));
        }
        let mut live = Live {
            workload: w,
            handle,
            origin,
            tracker: Tracker::new(cfg.n(), cfg.f(), w.live(), idle),
            setup_s: 0.0,
            probes: ctx.map(|ctx| Probes {
                ctx,
                registry: registry.expect("traced clusters carry a registry"),
                tcp,
            }),
        };
        let now = live.now_ns();
        let id = live.submit(probe, now);
        let deadline = Instant::now() + SETUP_TIMEOUT;
        while live.tracker.ack(id).is_none() {
            if Instant::now() > deadline {
                return Err("cluster did not ack its first command".into());
            }
            live.pump(Duration::from_millis(1));
        }
        let ack = live.tracker.ack(id).expect("acked");
        live.setup_s = (origin - began + Duration::from_nanos(ack)).as_secs_f64();
        Ok(live)
    }

    /// Nanoseconds since the cluster clock origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Submits `cmd` to every replica (the paper's client model) and
    /// registers it with latency origin `origin_ns`; returns its id.
    pub fn submit(&mut self, cmd: fastbft_types::Value, origin_ns: u64) -> u32 {
        let id = self.tracker.submitted(&cmd, origin_ns, self.now_ns());
        self.handle.submit(cmd);
        id
    }

    /// Feeds applied events to the tracker: waits up to `wait` for the
    /// first, then takes whatever else is queued.
    pub fn pump(&mut self, wait: Duration) {
        let events = self.handle.inner().applied_events();
        let Ok(first) = events.recv_timeout(wait) else {
            return;
        };
        self.tracker.on_event(first);
        while let Some(ev) = events.try_recv() {
            self.tracker.on_event(ev);
        }
    }

    /// Stops the cluster and returns the live replicas' state digests.
    pub fn stop(self) -> (Tracker, Vec<Digest>, Option<Probes>) {
        let Live {
            workload,
            handle,
            tracker,
            probes,
            ..
        } = self;
        // Stopped seats are not handed back: these are the live ones.
        let actors = handle.shutdown();
        assert_eq!(actors.len(), workload.live().len());
        let digests = actors
            .iter()
            .map(|actor| {
                let actor = actor.as_ref();
                as_smr_node::<KvStore>(actor)
                    .map(|node| node.state_digest())
                    .or_else(|| as_smr_node::<TimedKv>(actor).map(|node| node.state_digest()))
                    .expect("every live seat runs an SmrNode")
            })
            .collect();
        (tracker, digests, probes)
    }
}

fn actors<S: StateMachine + Clone + Send + 'static>(
    cfg: Config,
    pairs: &[fastbft_crypto::KeyPair],
    dir: &KeyDirectory,
    machine: S,
    opts: ReplicaOptions,
    registry: Option<&MetricsRegistry>,
) -> Vec<Box<dyn Actor<SlotMessage> + Send>> {
    smr_actors_configured(
        cfg,
        pairs,
        dir,
        machine,
        vec![Vec::new(); cfg.n()],
        KvCommand::Noop.to_value(),
        opts,
        Batching::Adaptive(AdaptiveBatch::default()),
        None,
        registry,
    )
}

/// Spawns the seats, each transport wrapped when traced; returns the
/// handle and the clock origin taken just before the spawn.
fn spawn<T: Transport<SlotMessage>>(
    seats: Vec<NodeSeat<SlotMessage, T>>,
    ctx: Option<&Arc<TraceCtx>>,
) -> (ClusterHandle<SlotMessage>, Instant) {
    match ctx {
        None => {
            let origin = Instant::now();
            (spawn_with(seats, TICK), origin)
        }
        Some(ctx) => {
            let seats: Vec<_> = seats
                .into_iter()
                .enumerate()
                .map(|(i, s)| NodeSeat {
                    actor: s.actor,
                    transport: TracedTransport::new(s.transport, i, Arc::clone(ctx)),
                    control: s.control,
                    verify: s.verify,
                })
                .collect();
            let origin = Instant::now();
            (spawn_with(seats, TICK), origin)
        }
    }
}
