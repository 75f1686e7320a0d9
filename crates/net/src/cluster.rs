//! The in-process convenience wrapper around the process-separable RP
//! node API: one [`LiveCluster`] = N RPs hosted on a [`Reactor`] + one
//! [`Coordinator`], all on 127.0.0.1.
//!
//! The coordinator holds **no shared memory** into the RPs it drives —
//! every interaction is a [`wire`](crate::wire) message, exactly as it
//! would be across processes or hosts; this wrapper only saves callers
//! the bind/connect choreography (and joins the nodes at shutdown).

use teeve_pubsub::{DisseminationPlan, PlanDelta};
use teeve_types::SiteId;

use crate::coordinator::{
    ClusterConfig, ClusterError, ClusterReport, Coordinator, ReconfigureReport,
};
use crate::reactor::{Reactor, RpNodeHandle};

/// A long-lived cluster of rendezvous points on 127.0.0.1 whose plan can
/// be changed while it runs.
///
/// Lifecycle:
///
/// 1. [`launch`](Self::launch) /
///    [`launch_reactor`](Self::launch_reactor) binds one RP per site of
///    the plan on a reactor, then connects a [`Coordinator`] to their
///    addresses — installing forwarding tables, from which each RP dials
///    its initial links, all over TCP;
/// 2. [`publish`](Self::publish) / [`apply_delta`](Self::apply_delta) /
///    [`shutdown`](Self::shutdown) delegate to the coordinator, so the
///    wrapper's behavior is *identical* to driving a fleet of external
///    RP processes (the multi-process smoke test holds it to that,
///    bit-for-bit on delivery accounting).
///
/// A failed reconfiguration or batch heals in place: the next
/// `publish`/`apply_delta` first converges the whole fleet onto the
/// target plan again, as [`Coordinator::connect`] does, and fails with
/// that step's error, naming the RP, if it cannot.
pub struct LiveCluster {
    // Field order is drop order: dropping the coordinator first orders
    // every RP down over the wire, then the fleet stops its nodes
    // locally (belt and braces for nodes whose control channel died),
    // and only then does a cluster-owned reactor quit its loop.
    coordinator: Coordinator,
    fleet: NodeFleet,
    /// The one-thread reactor [`launch`](LiveCluster::launch) started;
    /// `None` when the caller's reactor hosts the fleet.
    reactor: Option<Reactor>,
}

/// The RP nodes of a [`LiveCluster`], stopped on drop.
struct NodeFleet {
    nodes: Vec<RpNodeHandle>,
}

impl NodeFleet {
    /// Stops every node and joins it (the graceful path).
    fn stop_and_join(mut self) {
        for node in &self.nodes {
            node.stop();
        }
        for node in self.nodes.drain(..) {
            node.join();
        }
    }
}

impl Drop for NodeFleet {
    /// Best-effort teardown without joining; the graceful path is
    /// [`NodeFleet::stop_and_join`].
    fn drop(&mut self) {
        for node in &self.nodes {
            node.stop();
        }
    }
}

impl LiveCluster {
    /// Launches one RP per site of `plan` on 127.0.0.1, hosted on a
    /// one-thread reactor the cluster owns, and connects the initial
    /// overlay links.
    ///
    /// # Errors
    ///
    /// Returns an error on socket failures, if an RP cannot reach a
    /// child (see [`ClusterError::LinkFailed`]), or if the initial tables
    /// are not acknowledged within `config.timeout`.
    pub fn launch(
        plan: &DisseminationPlan,
        config: &ClusterConfig,
    ) -> Result<LiveCluster, ClusterError> {
        let reactor = Reactor::new(1)?;
        let mut cluster = Self::launch_reactor(plan, config, &reactor)?;
        cluster.reactor = Some(reactor);
        Ok(cluster)
    }

    /// Like [`launch`](Self::launch), but hosts every RP on the caller's
    /// `reactor`: the fleet's thread cost is the reactor's fixed pool,
    /// regardless of how many sites (or how many concurrent clusters
    /// sharing the reactor) there are.
    ///
    /// The reactor must outlive the returned cluster; dropping it first
    /// abandons the hosted nodes mid-protocol.
    ///
    /// # Errors
    ///
    /// Returns an error on socket failures, if an RP cannot reach a
    /// child (see [`ClusterError::LinkFailed`]), or if the initial tables
    /// are not acknowledged within `config.timeout`.
    pub fn launch_reactor(
        plan: &DisseminationPlan,
        config: &ClusterConfig,
        reactor: &Reactor,
    ) -> Result<LiveCluster, ClusterError> {
        let mut nodes = Vec::with_capacity(plan.site_count());
        let mut addrs = Vec::with_capacity(plan.site_count());
        for site in SiteId::all(plan.site_count()) {
            let node = reactor.bind_node(site)?;
            addrs.push(node.addr());
            nodes.push(node);
        }
        let fleet = NodeFleet { nodes };
        match Coordinator::connect(plan, &addrs, config) {
            Ok(coordinator) => Ok(LiveCluster {
                coordinator,
                fleet,
                reactor: None,
            }),
            Err(e) => {
                fleet.stop_and_join();
                Err(e)
            }
        }
    }

    fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// Returns the target plan; see [`Coordinator::plan`].
    pub fn plan(&self) -> &DisseminationPlan {
        self.coordinator().plan()
    }

    /// Returns the target plan's revision.
    pub fn revision(&self) -> u64 {
        self.coordinator().revision()
    }

    /// Returns the number of data connections opened by reconfigurations
    /// so far (initial plan links are not counted).
    pub fn connections_opened(&self) -> u64 {
        self.coordinator().connections_opened()
    }

    /// Returns the number of data connections closed by reconfigurations
    /// so far.
    pub fn connections_closed(&self) -> u64 {
        self.coordinator().connections_closed()
    }

    /// The coordinator's metrics registry (Reconfigure→Ack round-trip
    /// times); see [`Coordinator::telemetry`].
    pub fn telemetry(&self) -> &teeve_telemetry::MetricsRegistry {
        self.coordinator().telemetry()
    }

    /// The coordinator's flight recorder; see
    /// [`Coordinator::flight_recorder`].
    pub fn flight_recorder(&self) -> &teeve_telemetry::FlightRecorder {
        self.coordinator().flight_recorder()
    }

    /// The coordinator's flight events as JSON; see
    /// [`Coordinator::flight_json`].
    ///
    /// # Errors
    ///
    /// Propagates serializer errors (infallible for this data model).
    pub fn flight_json(&self) -> Result<String, serde_json::Error> {
        self.coordinator().flight_json()
    }

    /// Publishes `frames` frames from every origin stream of the current
    /// plan — one `Publish` per origin RP — and blocks until every RP has
    /// pushed the delivery reply that accounts for its planned deliveries
    /// of the batch; see [`Coordinator::publish`].
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Shed`] or [`ClusterError::Timeout`] if the
    /// batch does not fully deliver within `config.timeout`, or the
    /// error of the heal that follows a failed call.
    pub fn publish(&mut self, frames: u64) -> Result<(), ClusterError> {
        self.coordinator.publish(frames)
    }

    /// Applies one [`PlanDelta`] to the running cluster; see
    /// [`Coordinator::apply_delta`].
    ///
    /// # Errors
    ///
    /// Returns an error when the delta's revision does not match the
    /// target's, the delta does not apply to the target plan, a socket
    /// operation fails, or an RP does not acknowledge in time. The next
    /// call heals a failure after validation.
    pub fn apply_delta(&mut self, delta: &PlanDelta) -> Result<ReconfigureReport, ClusterError> {
        self.coordinator.apply_delta(delta)
    }

    /// Gracefully terminates the cluster: the coordinator harvests every
    /// RP's final stats report, orders the fleet down (per-stream `End`
    /// markers cascade from every origin), every node joins, and the
    /// delivery report comes back.
    ///
    /// Call after the last [`publish`](Self::publish) batch has completed;
    /// frames still in flight at shutdown are dropped with their links.
    pub fn shutdown(self) -> ClusterReport {
        let LiveCluster {
            coordinator,
            fleet,
            reactor,
        } = self;
        let report = coordinator.shutdown();
        fleet.stop_and_join();
        drop(reactor);
        report
    }
}

impl teeve_pubsub::DeltaSink for LiveCluster {
    type Error = ClusterError;

    fn apply_delta(&mut self, delta: &PlanDelta) -> Result<(), Self::Error> {
        LiveCluster::apply_delta(self, delta).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::io::{Read, Write};
    use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use bytes::BytesMut;
    use parking_lot::Mutex;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use teeve_overlay::{
        ConstructionAlgorithm, NodeCapacity, OverlayManager, ProblemInstance, RandomJoin,
    };
    use teeve_pubsub::{link_changes_between, StreamProfile};
    use teeve_telemetry::FlightEventKind;
    use teeve_types::{CostMatrix, CostMs, Degree, StreamId};

    use crate::wire::{decode, Message};

    fn site(i: u32) -> SiteId {
        SiteId::new(i)
    }

    fn stream(origin: u32, q: u32) -> StreamId {
        StreamId::new(site(origin), q)
    }

    fn quick_config() -> ClusterConfig {
        ClusterConfig {
            frames_per_stream: 5,
            payload_bytes: 256,
            frame_interval: None,
            timeout: Duration::from_secs(20),
        }
    }

    fn relay_plan() -> DisseminationPlan {
        // Source capacity 1 forces 0 -> 1 -> 2 relaying.
        let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(2));
        let problem = ProblemInstance::builder(costs, CostMs::new(50))
            .capacities(vec![
                NodeCapacity::symmetric(Degree::new(1)),
                NodeCapacity::symmetric(Degree::new(4)),
                NodeCapacity::symmetric(Degree::new(4)),
            ])
            .streams_per_site(&[1, 0, 0])
            .subscribe(site(1), stream(0, 0))
            .subscribe(site(2), stream(0, 0))
            .build()
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let outcome = RandomJoin.construct(&problem, &mut rng);
        assert_eq!(outcome.metrics().rejection_ratio(), 0.0);
        DisseminationPlan::from_forest(&problem, outcome.forest(), StreamProfile::default())
    }

    /// The relay chain 0 -> 1 -> 2 carrying `streams` streams of site 0
    /// on both of its links: site 1 joins every stream first and takes
    /// all of site 0's capacity, so site 2 can only join through it.
    fn wide_relay_plan(streams: u32) -> DisseminationPlan {
        let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(2));
        let receivers = [site(1), site(2)];
        let mut builder = ProblemInstance::builder(costs, CostMs::new(50))
            .capacities(vec![
                NodeCapacity::symmetric(Degree::new(streams)),
                NodeCapacity::symmetric(Degree::new(4 * streams)),
                NodeCapacity::symmetric(Degree::new(4 * streams)),
            ])
            .streams_per_site(&[streams, 0, 0]);
        for receiver in receivers {
            for q in 0..streams {
                builder = builder.subscribe(receiver, stream(0, q));
            }
        }
        let problem = builder.build().unwrap();
        let mut manager = OverlayManager::new(problem.clone());
        for receiver in receivers {
            for q in 0..streams {
                manager.subscribe(receiver, stream(0, q)).unwrap();
            }
        }
        DisseminationPlan::from_forest(
            &problem,
            &manager.forest_snapshot(),
            StreamProfile::default(),
        )
    }

    #[test]
    fn socket_relay_chain_delivers_every_frame() {
        let plan = relay_plan();
        let mut cluster = LiveCluster::launch(&plan, &quick_config()).expect("cluster launches");
        cluster.publish(5).expect("cluster completes");
        let report = cluster.shutdown();
        assert_eq!(report.delivered[&(site(1), stream(0, 0))], 5);
        assert_eq!(report.delivered[&(site(2), stream(0, 0))], 5);
        assert_eq!(report.total_delivered(), 10);
        // A one-shot run never reconfigures.
        assert_eq!(report.final_revision, 0);
        assert_eq!(report.connections_opened, 0);
        assert_eq!(report.connections_closed, 0);
    }

    /// 4 sites, 2 streams each, everyone subscribes to everything.
    fn fanout_plan() -> DisseminationPlan {
        let costs = CostMatrix::from_fn(4, |_, _| CostMs::new(2));
        let mut b = ProblemInstance::builder(costs, CostMs::new(50))
            .symmetric_capacities(Degree::new(10))
            .streams_per_site(&[2, 2, 2, 2]);
        for sub in 0..4u32 {
            for origin in 0..4u32 {
                if sub == origin {
                    continue;
                }
                for q in 0..2 {
                    b = b.subscribe(site(sub), stream(origin, q));
                }
            }
        }
        let problem = b.build().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let outcome = RandomJoin.construct(&problem, &mut rng);
        assert_eq!(outcome.metrics().rejection_ratio(), 0.0);
        DisseminationPlan::from_forest(&problem, outcome.forest(), StreamProfile::default())
    }

    #[test]
    fn socket_multi_stream_fanout_delivers_everything() {
        let plan = fanout_plan();
        let config = quick_config();
        let mut cluster = LiveCluster::launch(&plan, &config).expect("cluster launches");
        cluster
            .publish(config.frames_per_stream)
            .expect("cluster completes");
        let report = cluster.shutdown();
        // 4 sites x 6 remote streams x 5 frames.
        assert_eq!(report.total_delivered(), 4 * 6 * 5);
        for sub in 0..4u32 {
            for origin in 0..4u32 {
                if sub == origin {
                    continue;
                }
                for q in 0..2 {
                    assert_eq!(
                        report.delivered[&(site(sub), stream(origin, q))],
                        5,
                        "site {sub} missing frames of s{origin}.{q}"
                    );
                }
            }
        }
    }

    #[test]
    fn socket_empty_plan_completes_immediately() {
        let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(2));
        let problem = ProblemInstance::builder(costs, CostMs::new(50))
            .symmetric_capacities(Degree::new(4))
            .streams_per_site(&[1, 1, 1])
            .build()
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let outcome = RandomJoin.construct(&problem, &mut rng);
        let plan =
            DisseminationPlan::from_forest(&problem, outcome.forest(), StreamProfile::default());
        let mut cluster = LiveCluster::launch(&plan, &quick_config()).expect("cluster launches");
        cluster.publish(5).expect("nothing to deliver");
        let report = cluster.shutdown();
        assert_eq!(report.total_delivered(), 0);
    }

    #[test]
    fn socket_paced_run_measures_latency() {
        let plan = relay_plan();
        let config = ClusterConfig {
            frames_per_stream: 3,
            payload_bytes: 128,
            frame_interval: Some(Duration::from_millis(5)),
            timeout: Duration::from_secs(20),
        };
        let mut cluster = LiveCluster::launch(&plan, &config).expect("cluster launches");
        cluster
            .publish(config.frames_per_stream)
            .expect("cluster completes");
        let report = cluster.shutdown();
        assert_eq!(report.total_delivered(), 6);
        // Localhost latency is nonzero but far below a second.
        assert!(report.max_latency_micros > 0);
        assert!(report.max_latency_micros < 1_000_000);
        // The clock starts at the first publish: the paced batch alone
        // spans at least its inter-frame gaps, setup time excluded.
        assert!(report.elapsed >= Duration::from_millis(10));
        // Per-pair means are consistent with the global maximum.
        for &(site, stream) in report.delivered.keys() {
            let mean = report
                .mean_latency_micros(site, stream)
                .expect("delivered pair has a mean");
            assert!(mean <= report.max_latency_micros);
        }
        // The wire-carried histograms agree with the scalar counters:
        // every delivered pair has a distribution whose count matches
        // its frame count and whose sum matches the latency sum.
        for (&(site, stream), hist) in &report.latency {
            assert_eq!(hist.count(), report.delivered[&(site, stream)]);
            assert_eq!(hist.sum(), report.latency_sum_micros[&(site, stream)]);
        }
        // The merged distribution reads true cluster-wide percentiles.
        let merged = report.merged_latency();
        assert_eq!(merged.count(), report.total_delivered());
        assert_eq!(merged.max(), report.max_latency_micros);
        assert!(merged.p50() <= merged.p99());
        assert!(
            merged.p99() >= merged.max() / 2,
            "p99 within one bucket of max"
        );
    }

    #[test]
    fn socket_paced_streams_of_one_origin_pace_concurrently() {
        // Site 0 originates two paced streams. Its one Publish order is
        // one timer entry forwarding a frame of each stream per firing,
        // so the batch's wall time stays ≈ frames × interval — not
        // doubled back-to-back per stream.
        let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(2));
        let problem = ProblemInstance::builder(costs, CostMs::new(50))
            .symmetric_capacities(Degree::new(6))
            .streams_per_site(&[2, 0, 0])
            .subscribe(site(1), stream(0, 0))
            .subscribe(site(2), stream(0, 1))
            .build()
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let outcome = RandomJoin.construct(&problem, &mut rng);
        assert_eq!(outcome.metrics().rejection_ratio(), 0.0);
        let plan =
            DisseminationPlan::from_forest(&problem, outcome.forest(), StreamProfile::default());

        let config = ClusterConfig {
            frames_per_stream: 5,
            payload_bytes: 128,
            frame_interval: Some(Duration::from_millis(40)),
            timeout: Duration::from_secs(20),
        };
        let mut cluster = LiveCluster::launch(&plan, &config).expect("cluster launches");
        cluster
            .publish(config.frames_per_stream)
            .expect("cluster completes");
        let report = cluster.shutdown();
        assert_eq!(report.total_delivered(), 10);
        // One paced batch spans ≥ its own gaps, (frames − 1) × interval…
        assert!(report.elapsed >= Duration::from_millis(160));
        // …but two streams serialized would take ≥ 400 ms; concurrent
        // pacing stays well under that even on a loaded host.
        assert!(
            report.elapsed < Duration::from_millis(360),
            "paced batches must overlap, took {:?}",
            report.elapsed
        );
    }

    /// What a set of [`tap`]s share.
    #[derive(Default)]
    struct Taps {
        /// Every message crossing a tap, counted by kind (its variant
        /// name).
        tally: Mutex<BTreeMap<String, u64>>,
        /// Once set, each tap stops accepting at its next connection.
        stop: AtomicBool,
        /// While set, data links (connections that open with `Hello`)
        /// pass nothing on: the link stays up and carries nothing.
        stall: AtomicBool,
        /// The coordinator's end of every control channel (connections
        /// that carry `Attach`) that crossed a tap, for
        /// [`cut_controls`](Taps::cut_controls).
        controls: Mutex<Vec<TcpStream>>,
    }

    impl Taps {
        /// Takes the tally, leaving it empty.
        fn take(&self) -> BTreeMap<String, u64> {
            std::mem::take(&mut *self.tally.lock())
        }

        /// Waits until `n` messages of `kind` have crossed the taps. An
        /// `Ack` waits for its RP's dials, not for their `Hello`s to
        /// cross a tap.
        fn await_count(&self, kind: &str, n: u64) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.tally.lock().get(kind).copied().unwrap_or(0) < n {
                assert!(Instant::now() < deadline, "{n} × {kind} never crossed");
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        /// Closes every control channel that crossed a tap so far, as if
        /// its RP's end had died: the coordinator reads end of stream.
        fn cut_controls(&self) {
            for control in self.controls.lock().drain(..) {
                let _ = control.shutdown(Shutdown::Both);
            }
        }

        /// Releases stalled links and stops the taps at `addrs`.
        fn close(&self, addrs: &[SocketAddr]) {
            self.stall.store(false, Ordering::Relaxed);
            self.stop.store(true, Ordering::Relaxed);
            for &addr in addrs {
                let _ = TcpStream::connect(addr);
            }
        }
    }

    /// A tally of message kinds, as [`Taps::take`] returns it.
    fn tally(counts: &[(&str, u64)]) -> BTreeMap<String, u64> {
        counts
            .iter()
            .map(|&(kind, n)| (kind.to_owned(), n))
            .collect()
    }

    /// Relays every connection made to the returned address on to the RP
    /// at `rp`, byte for byte, and counts each message crossing it by
    /// kind in `taps`, before passing it on. Accepts until `taps.stop` is
    /// set and one more connection arrives.
    fn tap(rp: SocketAddr, taps: &Arc<Taps>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("tap bind");
        let addr = listener.local_addr().expect("tap addr");
        let taps = Arc::clone(taps);
        std::thread::spawn(move || {
            for downstream in listener.incoming() {
                if taps.stop.load(Ordering::Relaxed) {
                    return;
                }
                if let Ok(downstream) = downstream {
                    relay(downstream, rp, &taps);
                }
            }
        });
        addr
    }

    /// Relays the first connection made to the returned address on to
    /// the RP at `rp`, as [`tap`] does, and stops listening as soon as it
    /// arrives: every later dial of the address is refused.
    fn relay_first(rp: SocketAddr) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("relay bind");
        let addr = listener.local_addr().expect("relay addr");
        std::thread::spawn(move || {
            if let Ok((downstream, _)) = listener.accept() {
                drop(listener);
                relay(downstream, rp, &Arc::default());
            }
        });
        addr
    }

    /// Connects `downstream` through to the RP at `rp`, one [`pump`]
    /// thread per direction.
    fn relay(downstream: TcpStream, rp: SocketAddr, taps: &Arc<Taps>) {
        let Ok(upstream) = TcpStream::connect(rp) else {
            return;
        };
        for (from, to) in [
            (downstream.try_clone(), upstream.try_clone()),
            (Ok(upstream), Ok(downstream)),
        ] {
            let (Ok(from), Ok(to)) = (from, to) else {
                continue;
            };
            let taps = Arc::clone(taps);
            std::thread::spawn(move || pump(from, to, &taps));
        }
    }

    /// One direction of a [`tap`]'s relay, until either side closes.
    fn pump(mut from: TcpStream, mut to: TcpStream, taps: &Taps) {
        to.set_nodelay(true).ok();
        let (mut buf, mut chunk) = (BytesMut::new(), [0u8; 16 * 1024]);
        let mut data_link = false;
        while let Ok(read @ 1..) = from.read(&mut chunk) {
            buf.extend_from_slice(&chunk[..read]);
            while let Ok(Some(message)) = decode(&mut buf) {
                data_link |= matches!(message, Message::Hello { .. });
                if matches!(message, Message::Attach) {
                    taps.controls.lock().extend(from.try_clone());
                }
                let name = format!("{message:?}");
                let kind = name.split(|c: char| !c.is_alphanumeric()).next();
                *taps
                    .tally
                    .lock()
                    .entry(kind.unwrap_or_default().to_owned())
                    .or_default() += 1;
            }
            while data_link && taps.stall.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            if to.write_all(&chunk[..read]).is_err() {
                break;
            }
        }
        let _ = to.shutdown(Shutdown::Write);
    }

    #[test]
    fn socket_a_batch_is_one_publish_per_origin_site_and_one_probe_round() {
        // Every connection — control channels and data links alike —
        // crosses a tap in front of its RP.
        let plan = fanout_plan();
        let reactor = Reactor::new(1).expect("reactor starts");
        let nodes: Vec<RpNodeHandle> = SiteId::all(4)
            .map(|s| reactor.bind_node(s).expect("bind"))
            .collect();
        let taps = Arc::new(Taps::default());
        let addrs: Vec<SocketAddr> = nodes.iter().map(|n| tap(n.addr(), &taps)).collect();
        let mut coordinator =
            Coordinator::connect(&plan, &addrs, &quick_config()).expect("connect");
        let pairs: std::collections::BTreeSet<_> = plan
            .edges()
            .map(|(parent, child, _)| (parent, child))
            .collect();
        taps.await_count("Hello", pairs.len() as u64);

        // Four origin sites of two streams each: one Publish per site,
        // one StatsRequest and one Delivered per site, and no other
        // control message. Every one of the 4 × 6 × 5 deliveries is one
        // frame crossing one tap.
        taps.take();
        coordinator.publish(5).expect("batch delivers");
        let expected = [
            ("Delivered", 4),
            ("Frame", 120),
            ("Publish", 4),
            ("StatsRequest", 4),
        ];
        assert_eq!(taps.take(), tally(&expected), "one batch's traffic");

        assert_eq!(coordinator.shutdown().total_delivered(), 120);
        for node in nodes {
            node.stop();
            node.join();
        }
        reactor.shutdown();
        taps.close(&addrs);
    }

    /// A 3-site universe where site 0 originates stream 0.0 and sites 1
    /// and 2 may each take it, and an overlay where site 1 takes it.
    fn hop_plans() -> (ProblemInstance, OverlayManager) {
        let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(4));
        let problem = ProblemInstance::builder(costs, CostMs::new(50))
            .symmetric_capacities(Degree::new(6))
            .streams_per_site(&[1, 0, 0])
            .subscribe(site(1), stream(0, 0))
            .subscribe(site(2), stream(0, 0))
            .build()
            .unwrap();
        let mut manager = OverlayManager::new(problem.clone());
        manager.subscribe(site(1), stream(0, 0)).unwrap();
        (problem, manager)
    }

    /// The plan `manager` holds now, at `revision`.
    fn plan_at(
        problem: &ProblemInstance,
        manager: &OverlayManager,
        revision: u64,
    ) -> DisseminationPlan {
        let mut plan = DisseminationPlan::from_forest(
            problem,
            &manager.forest_snapshot(),
            StreamProfile::default(),
        );
        plan.set_revision(revision);
        plan
    }

    #[test]
    fn socket_a_delta_is_one_table_order_per_touched_site_and_reconnect_dials_nothing() {
        // Stream 0.0 moves from site 1 to site 2: the delta closes the
        // link 0 -> 1 and opens 0 -> 2, and touches all three sites.
        let (problem, mut manager) = hop_plans();
        let plan_a = plan_at(&problem, &manager, 0);
        manager.unsubscribe(site(1), stream(0, 0)).unwrap();
        manager.subscribe(site(2), stream(0, 0)).unwrap();
        let plan_b = plan_at(&problem, &manager, 1);
        let delta = PlanDelta::diff(&plan_a, &plan_b);
        assert_eq!(delta.touched_sites().len(), 3);

        // Every connection — control channels and data links alike —
        // crosses a tap in front of its RP.
        let reactor = Reactor::new(1).expect("reactor starts");
        let nodes: Vec<RpNodeHandle> = SiteId::all(3)
            .map(|s| reactor.bind_node(s).expect("bind"))
            .collect();
        let taps = Arc::new(Taps::default());
        let addrs: Vec<SocketAddr> = nodes.iter().map(|n| tap(n.addr(), &taps)).collect();
        let config = quick_config();
        let mut coordinator = Coordinator::connect(&plan_a, &addrs, &config).expect("connect");
        taps.await_count("Hello", 1);

        // One Reconfigure and one Ack per touched site, and the one
        // Peers order of the one site that routes to a child. The new
        // link's Hello is the only data traffic; no other order goes.
        taps.take();
        let report = coordinator.apply_delta(&delta).expect("delta applies");
        assert_eq!(report.established, [(site(0), site(2))]);
        assert_eq!(report.closed, [(site(0), site(1))]);
        taps.await_count("Hello", 1);
        let expected = [("Ack", 3), ("Hello", 1), ("Peers", 1), ("Reconfigure", 3)];
        assert_eq!(taps.take(), tally(&expected), "one delta's traffic");

        // A successor connects and re-dictates the same tables: every RP
        // already follows its table, so no data path sees a Hello.
        coordinator.detach();
        let mut coordinator = Coordinator::connect(&plan_b, &addrs, &config).expect("re-adopt");
        // Each RP answers its attach with its revision and delivered
        // total, then takes the one barrier: no query, no stats probe.
        let expected = [
            ("Ack", 3),
            ("Attach", 3),
            ("Attached", 3),
            ("Peers", 1),
            ("Reconfigure", 3),
        ];
        assert_eq!(taps.take(), tally(&expected), "one re-adoption's traffic");

        // Nor does one later: the batch's traffic is the batch's own.
        coordinator.publish(2).expect("the moved stream delivers");
        let expected = [
            ("Delivered", 3),
            ("Frame", 2),
            ("Publish", 1),
            ("StatsRequest", 3),
        ];
        assert_eq!(taps.take(), tally(&expected), "one batch's traffic");
        let report = coordinator.shutdown();
        assert_eq!(report.delivered[&(site(2), stream(0, 0))], 2);
        for node in nodes {
            node.stop();
            node.join();
        }
        reactor.shutdown();
        taps.close(&addrs);
    }

    #[test]
    fn socket_advertised_address_is_what_the_coordinator_dials() {
        // The relay node (site 1) binds a wildcard address but advertises
        // loopback: the coordinator's control connection AND site 0's
        // dial of its data link (at the address the coordinator's `Peers`
        // order names) both use the advertised address
        // — exact delivery proves both paths reached it.
        let plan = relay_plan();
        let reactor = Reactor::new(1).expect("reactor starts");
        let mut nodes = Vec::new();
        for s in SiteId::all(3) {
            nodes.push(if s == site(1) {
                reactor
                    .bind_node_at(
                        s,
                        "0.0.0.0:0".parse().unwrap(),
                        Some("127.0.0.1:0".parse().unwrap()),
                    )
                    .expect("bind wildcard")
            } else {
                reactor.bind_node(s).expect("bind")
            });
        }
        let addrs: Vec<_> = nodes.iter().map(RpNodeHandle::addr).collect();
        assert_eq!(addrs[1].ip().to_string(), "127.0.0.1");

        let mut coordinator =
            Coordinator::connect(&plan, &addrs, &quick_config()).expect("connect via advertised");
        coordinator.publish(4).expect("batch delivers");
        let report = coordinator.shutdown();
        assert_eq!(report.delivered[&(site(1), stream(0, 0))], 4);
        assert_eq!(report.delivered[&(site(2), stream(0, 0))], 4);
        for node in nodes {
            node.stop();
            node.join();
        }
    }

    #[test]
    fn socket_reactor_cluster_delivers_every_frame() {
        // The relay chain of `socket_relay_chain_delivers_every_frame`
        // on a caller-owned reactor with two event loops: delivery
        // accounting must come out identical.
        let reactor = Reactor::new(2).expect("reactor starts");
        let plan = relay_plan();
        let mut cluster =
            LiveCluster::launch_reactor(&plan, &quick_config(), &reactor).expect("launch");
        cluster.publish(5).expect("batch delivers");
        let report = cluster.shutdown();
        assert_eq!(report.delivered[&(site(1), stream(0, 0))], 5);
        assert_eq!(report.delivered[&(site(2), stream(0, 0))], 5);
        assert_eq!(report.total_delivered(), 10);
        // All three RPs ran on the reactor's two threads, and stopped
        // clean at shutdown.
        assert_eq!(
            reactor.telemetry().gauge("reactor.nodes.registered").get(),
            0
        );
        reactor.shutdown();
    }

    #[test]
    fn socket_launch_then_drop_terminates_cleanly() {
        // Dropping an idle cluster (no publish, no shutdown) must tear
        // everything down without wedging the process.
        let plan = relay_plan();
        let cluster = LiveCluster::launch(&plan, &quick_config()).expect("launch");
        assert_eq!(cluster.revision(), 0);
        assert_eq!(cluster.connections_opened(), 0);
        drop(cluster);
    }

    #[test]
    fn socket_connect_converges_a_bare_fleet_through_one_barrier() {
        let mut plan = fanout_plan();
        plan.set_revision(3);
        let cluster = LiveCluster::launch(&plan, &quick_config()).expect("launch");
        let events = cluster.flight_recorder().events();
        // Exactly one Ack per site at the plan revision: one barrier.
        let mut acks: Vec<(u32, u64)> = events
            .iter()
            .filter_map(|e| match e.kind {
                FlightEventKind::Ack { site, revision } => Some((site, revision)),
                _ => None,
            })
            .collect();
        acks.sort_unstable();
        let every_site: Vec<(u32, u64)> = SiteId::all(plan.site_count())
            .map(|s| (s.index() as u32, 3))
            .collect();
        assert_eq!(acks, every_site);
        // Exactly one LinkUp per plan pair, recorded by the child RP as
        // its parent's Hello arrives.
        let pairs: Vec<(u32, u32)> = plan
            .edges()
            .map(|(parent, child, _)| (parent.index() as u32, child.index() as u32))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let ups = || {
            let mut ups: Vec<(u32, u32)> = cluster
                .fleet
                .nodes
                .iter()
                .flat_map(|node| node.flight_recorder().events())
                .filter_map(|e| match e.kind {
                    FlightEventKind::LinkUp { parent, child } => Some((parent, child)),
                    _ => None,
                })
                .collect();
            ups.sort_unstable();
            ups
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while ups().len() < pairs.len() {
            assert!(Instant::now() < deadline, "links never came up");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(ups(), pairs);
        // Initial links are the plan's, not a reconfiguration's.
        assert_eq!(cluster.connections_opened(), 0);
    }

    #[test]
    fn wrong_fleet_size_is_refused_before_dialing() {
        let plan = relay_plan();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addrs = vec![listener.local_addr().expect("addr"); 2];
        assert!(matches!(
            Coordinator::connect(&plan, &addrs, &quick_config()),
            Err(ClusterError::FleetSize { sites: 3, addrs: 2 })
        ));
        let accepted = listener.accept().map_err(|e| e.kind());
        assert!(
            matches!(accepted, Err(std::io::ErrorKind::WouldBlock)),
            "nothing may be dialed"
        );
    }

    #[test]
    fn socket_stale_delta_is_rejected_before_touching_sockets() {
        let plan = relay_plan();
        let mut cluster = LiveCluster::launch(&plan, &quick_config()).expect("launch");
        // A delta claiming to come from revision 7 cannot apply to a
        // cluster at revision 0.
        let mut future = plan.clone();
        future.set_revision(7);
        let delta = PlanDelta::diff(&future, &future);
        let err = cluster.apply_delta(&delta).unwrap_err();
        assert!(matches!(
            err,
            ClusterError::StaleRevision {
                cluster: 0,
                delta: 7
            }
        ));
        // A delta rejected by validation leaves the target where it was.
        assert_eq!(cluster.revision(), 0);
        let report = cluster.shutdown();
        assert_eq!(report.connections_opened, 0);
        assert_eq!(report.connections_closed, 0);
    }

    #[test]
    fn socket_connect_to_a_closed_port_names_that_site() {
        let plan = relay_plan();
        let reactor = Reactor::new(1).expect("reactor starts");
        let nodes: Vec<RpNodeHandle> = SiteId::all(3)
            .map(|s| reactor.bind_node(s).expect("bind"))
            .collect();
        let mut addrs: Vec<SocketAddr> = nodes.iter().map(RpNodeHandle::addr).collect();
        let closed = TcpListener::bind("127.0.0.1:0").expect("bind");
        addrs[1] = closed.local_addr().expect("addr");
        drop(closed);
        match Coordinator::connect(&plan, &addrs, &quick_config()) {
            Err(ClusterError::Control { site: s, .. }) => assert_eq!(s, site(1)),
            Err(e) => panic!("expected a control error naming site 1, got {e}"),
            Ok(_) => panic!("connect to a closed port must fail"),
        }
        for node in nodes {
            node.stop();
            node.join();
        }
        reactor.shutdown();
    }

    #[test]
    fn socket_failed_reconfigure_heals_once_the_rp_restarts() {
        // A 3-site universe where site 2 can join stream 0.0 later.
        let (problem, mut manager) = hop_plans();
        let plan_a = plan_at(&problem, &manager, 0);

        // Hand-rolled fleet, so one RP can be stopped and restarted on
        // its own.
        let reactor = Reactor::new(1).expect("reactor starts");
        let mut nodes: Vec<RpNodeHandle> = SiteId::all(3)
            .map(|s| reactor.bind_node(s).expect("bind"))
            .collect();
        let addrs: Vec<_> = nodes.iter().map(RpNodeHandle::addr).collect();
        let config = ClusterConfig {
            timeout: Duration::from_secs(5),
            ..quick_config()
        };
        let mut coordinator = Coordinator::connect(&plan_a, &addrs, &config).expect("connect");
        coordinator.publish(2).expect("healthy batch");

        // Stop site 2's RP, then apply a delta that needs it: site 2
        // subscribes, so a link must open to the stopped RP. The barrier
        // awaits site 2 too, and its closed control channel is the first
        // failure it reads: the end of stream is there before the parent
        // has even been told to dial.
        let victim = nodes.remove(2);
        victim.stop();
        victim.join();
        manager.subscribe(site(2), stream(0, 0)).unwrap();
        let plan_b = plan_at(&problem, &manager, 1);
        let err = coordinator
            .apply_delta(&PlanDelta::diff(&plan_a, &plan_b))
            .unwrap_err();
        assert!(
            matches!(err, ClusterError::Control { site: s, .. } if s == site(2)),
            "the stopped RP must surface as its own closed channel, got {err}"
        );

        // The target moved to revision 1 all the same, so the next delta
        // applies from it. Its heal cannot reach site 2 and names it.
        manager.unsubscribe(site(1), stream(0, 0)).unwrap();
        let plan_c = plan_at(&problem, &manager, 2);
        let err = coordinator
            .apply_delta(&PlanDelta::diff(&plan_b, &plan_c))
            .unwrap_err();
        assert!(
            matches!(err, ClusterError::Control { site: s, .. } if s == site(2)),
            "the heal must name the stopped RP, got {err}"
        );
        assert_eq!(coordinator.revision(), 2);

        // Site 2 comes back at its old address. The next batch heals the
        // fleet onto revision 2 first, then delivers exactly what that
        // plan owes on top of the first batch.
        nodes.push(
            reactor
                .bind_node_at(site(2), addrs[2], None)
                .expect("rebind site 2"),
        );
        coordinator.publish(2).expect("the healed fleet delivers");
        let report = coordinator.shutdown();
        assert_eq!(report.missing_reports, 0);
        assert_eq!(report.final_revision, 2);
        // The heal's links count from revision 0, the last plan every RP
        // acknowledged, to revision 2: the link to site 2 opened and the
        // link to site 1 closed.
        let healed = link_changes_between(&plan_a, &plan_c);
        assert_eq!(healed.established, [(site(0), site(2))]);
        assert_eq!(healed.closed, [(site(0), site(1))]);
        assert_eq!(report.connections_opened, 1);
        assert_eq!(report.connections_closed, 1);
        let mut expected: BTreeMap<(SiteId, StreamId), u64> = BTreeMap::new();
        for (_, child, s) in plan_a.edges().chain(plan_c.edges()) {
            *expected.entry((child, s)).or_default() += 2;
        }
        let delivered: BTreeMap<_, _> = report
            .delivered
            .into_iter()
            .filter(|&(_, frames)| frames > 0)
            .collect();
        assert_eq!(delivered, expected);
        for node in nodes {
            node.stop();
            node.join();
        }
        reactor.shutdown();
    }

    #[test]
    fn socket_failed_dial_is_a_typed_link_failure_inside_the_barrier() {
        // Site 2's address relays the coordinator's control connection to
        // the real RP and then stops listening, so the dial its parent
        // makes when a delta routes stream 0.0 to it is refused.
        let (problem, mut manager) = hop_plans();
        let plan_a = plan_at(&problem, &manager, 0);
        manager.subscribe(site(2), stream(0, 0)).unwrap();
        let plan_b = plan_at(&problem, &manager, 1);
        let (parent, _, _) = plan_b
            .edges()
            .find(|&(_, child, _)| child == site(2))
            .expect("site 2 takes the stream");

        let reactor = Reactor::new(1).expect("reactor starts");
        let nodes: Vec<RpNodeHandle> = SiteId::all(3)
            .map(|s| reactor.bind_node(s).expect("bind"))
            .collect();
        let mut addrs: Vec<SocketAddr> = nodes.iter().map(RpNodeHandle::addr).collect();
        addrs[2] = relay_first(addrs[2]);
        let config = ClusterConfig {
            timeout: Duration::from_secs(5),
            ..quick_config()
        };
        // Site 2's Ack crossed the relay, so its listener is gone.
        let mut coordinator = Coordinator::connect(&plan_a, &addrs, &config).expect("connect");

        let started = Instant::now();
        let err = coordinator
            .apply_delta(&PlanDelta::diff(&plan_a, &plan_b))
            .unwrap_err();
        let waited = started.elapsed();
        assert!(
            matches!(err, ClusterError::LinkFailed { parent: p, child } if p == parent && child == site(2)),
            "expected {parent}'s link to site 2 to fail, got {err}"
        );
        assert!(
            waited < Duration::from_secs(1),
            "the failure must surface inside the barrier, not at its timeout: {waited:?}"
        );

        drop(coordinator);
        for node in nodes {
            node.stop();
            node.join();
        }
        reactor.shutdown();
    }

    #[test]
    fn socket_undelivered_batch_times_out_with_typed_accounting() {
        let plan = relay_plan();
        let (relay, leaf) = plan
            .edges()
            .find(|&(parent, _, _)| parent != site(0))
            .map(|(parent, child, _)| (parent, child))
            .expect("a relay hop");
        let reactor = Reactor::new(1).expect("reactor starts");
        let nodes: Vec<RpNodeHandle> = SiteId::all(3)
            .map(|s| reactor.bind_node(s).expect("bind"))
            .collect();
        // The leaf sits behind a tap, so its data link from the relay
        // can be stalled while the link stays up.
        let taps = Arc::new(Taps::default());
        let mut addrs: Vec<SocketAddr> = nodes.iter().map(RpNodeHandle::addr).collect();
        addrs[leaf.index()] = tap(addrs[leaf.index()], &taps);
        let config = ClusterConfig {
            timeout: Duration::from_millis(300),
            ..quick_config()
        };
        let mut coordinator = Coordinator::connect(&plan, &addrs, &config).expect("connect");
        coordinator.publish(2).expect("healthy batch");

        // The relay gets its frame, the leaf never does: the wait runs
        // out as a typed timeout, not as a control error or a failed
        // link. `delivered` sums the freshest totals the coordinator
        // holds: the relay's new 3, read as it arrived, and the leaf's 2
        // from the healthy batch.
        taps.stall.store(true, Ordering::Relaxed);
        match coordinator.publish(1) {
            Err(ClusterError::Timeout {
                delivered,
                expected,
            }) => {
                assert_eq!(expected, 3 + 3);
                assert_eq!(delivered, 3 + 2);
            }
            other => panic!("expected a delivery timeout, got {other:?}"),
        }

        let report = coordinator.shutdown();
        assert_eq!(report.delivered[&(relay, stream(0, 0))], 3);
        assert_eq!(report.delivered[&(leaf, stream(0, 0))], 2);
        taps.close(&[addrs[leaf.index()]]);
        for node in nodes {
            node.stop();
            node.join();
        }
        reactor.shutdown();
    }

    #[test]
    fn socket_a_dead_untouched_channel_fails_only_the_next_step_that_awaits_it() {
        // Site 2 subscribes: the delta touches site 2 and its parent, and
        // leaves the third site alone.
        let (problem, mut manager) = hop_plans();
        let plan_a = plan_at(&problem, &manager, 0);
        manager.subscribe(site(2), stream(0, 0)).unwrap();
        let plan_b = plan_at(&problem, &manager, 1);
        let delta = PlanDelta::diff(&plan_a, &plan_b);
        let touched = delta.touched_sites();
        let untouched = SiteId::all(3)
            .find(|s| !touched.contains(s))
            .expect("one site is untouched");

        // Only the untouched site sits behind a tap.
        let reactor = Reactor::new(1).expect("reactor starts");
        let nodes: Vec<RpNodeHandle> = SiteId::all(3)
            .map(|s| reactor.bind_node(s).expect("bind"))
            .collect();
        let taps = Arc::new(Taps::default());
        let mut addrs: Vec<SocketAddr> = nodes.iter().map(RpNodeHandle::addr).collect();
        addrs[untouched.index()] = tap(addrs[untouched.index()], &taps);
        let mut coordinator =
            Coordinator::connect(&plan_a, &addrs, &quick_config()).expect("connect");

        // Its control channel dies. The barrier awaits only the touched
        // sites, so the end of stream it reads is buffered, not judged.
        taps.cut_controls();
        let report = coordinator
            .apply_delta(&delta)
            .expect("a delta that touches only live channels applies");
        assert_eq!(report.reconfigured_sites, touched.len());

        // The next batch awaits every site, and names the dead channel.
        match coordinator.publish(1) {
            Err(ClusterError::Control { site: s, .. }) => assert_eq!(s, untouched),
            other => panic!("expected a control error naming {untouched}, got {other:?}"),
        }
        // The call after that heals, attaching afresh through the tap.
        coordinator.publish(1).expect("the healed fleet delivers");
        let report = coordinator.shutdown();
        assert_eq!(report.missing_reports, 0);
        assert_eq!(report.final_revision, 1);
        assert!(report.delivered[&(site(2), stream(0, 0))] >= 1);
        for node in nodes {
            node.stop();
            node.join();
        }
        reactor.shutdown();
        taps.close(&[addrs[untouched.index()]]);
    }

    #[test]
    fn socket_shutdown_harvest_reads_past_a_link_that_failed_between_orders() {
        let plan = relay_plan();
        let (relay, leaf) = plan
            .edges()
            .find(|&(parent, _, _)| parent != site(0))
            .map(|(parent, child, _)| (parent, child))
            .expect("a relay hop");
        let reactor = Reactor::new(1).expect("reactor starts");
        let mut nodes: Vec<RpNodeHandle> = SiteId::all(3)
            .map(|s| reactor.bind_node(s).expect("bind"))
            .collect();
        let addrs: Vec<SocketAddr> = nodes.iter().map(RpNodeHandle::addr).collect();
        let mut coordinator =
            Coordinator::connect(&plan, &addrs, &quick_config()).expect("connect");
        coordinator.publish(2).expect("healthy batch");

        // The leaf goes away between orders. Its control channel and
        // inbound link close with it; then the relay's link to it closes
        // under a table that still routes there, and the relay queues
        // `LinkFailed` on its control channel ahead of any later reply.
        let live = reactor.telemetry().gauge("reactor.connections.live");
        let before = live.get();
        let victim = nodes.remove(leaf.index());
        victim.stop();
        victim.join();
        let deadline = Instant::now() + Duration::from_secs(10);
        while live.get() > before - 3 {
            assert!(
                Instant::now() < deadline,
                "the relay never saw its link close"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        // Only the dead leaf's report is missing: the relay's follows its
        // link failure on the same channel.
        let report = coordinator.shutdown();
        assert_eq!(report.missing_reports, 1);
        assert_eq!(report.delivered[&(relay, stream(0, 0))], 2);
        for node in nodes {
            node.stop();
            node.join();
        }
        reactor.shutdown();
    }

    #[test]
    fn socket_overcap_unpaced_batch_is_a_typed_shed() {
        // Eight streams share the origin's one link: an unpaced batch of
        // 8192 frames of 256 B each queues ≈19 MB on it, faster than one
        // event loop drains it, so the queue passes its 8 MiB cap, the
        // origin sheds, and the relay can never reach what it is owed.
        let plan = wide_relay_plan(8);
        assert!(
            plan.edges()
                .all(|(parent, child, _)| parent.index() + 1 == child.index()),
            "every stream runs down the one chain"
        );
        let config = ClusterConfig {
            payload_bytes: 256,
            timeout: Duration::from_secs(2),
            ..quick_config()
        };
        let reactor = Reactor::new(1).expect("reactor starts");
        let mut cluster = LiveCluster::launch_reactor(&plan, &config, &reactor).expect("launch");
        let dropped = reactor.telemetry().counter("reactor.writes.dropped");
        match cluster.publish(8192) {
            Err(ClusterError::Shed {
                site: shed_at,
                dropped: count,
            }) => {
                assert_eq!(
                    shed_at,
                    site(0),
                    "the origin's queue is the one over its cap"
                );
                assert!((1..=dropped.get()).contains(&count), "{count} sheds");
            }
            other => panic!("expected a typed shed, got {other:?}"),
        }
        // The shed frames are not owed: the next batch heals the
        // accounting first, then delivers.
        cluster.publish(1).expect("the batch after a shed delivers");
        drop(cluster);
        reactor.shutdown();
    }

    #[test]
    fn socket_timeout_after_a_healed_shed_is_a_timeout() {
        // The overcap batch of `socket_overcap_unpaced_batch_is_a_typed_shed`,
        // with site 2 behind a tap so its data link can be stalled later.
        let plan = wide_relay_plan(8);
        let reactor = Reactor::new(1).expect("reactor starts");
        let nodes: Vec<RpNodeHandle> = SiteId::all(3)
            .map(|s| reactor.bind_node(s).expect("bind"))
            .collect();
        let taps = Arc::new(Taps::default());
        let mut addrs: Vec<SocketAddr> = nodes.iter().map(RpNodeHandle::addr).collect();
        addrs[2] = tap(addrs[2], &taps);
        let config = ClusterConfig {
            payload_bytes: 256,
            timeout: Duration::from_secs(2),
            ..quick_config()
        };
        let mut coordinator = Coordinator::connect(&plan, &addrs, &config).expect("connect");
        match coordinator.publish(8192) {
            Err(ClusterError::Shed { site: shed_at, .. }) => assert_eq!(shed_at, site(0)),
            other => panic!("expected a typed shed, got {other:?}"),
        }
        coordinator.publish(1).expect("the heal delivers");

        // The heal's attach zeroed every RP's shed count, so a stalled
        // batch that sheds nothing is a plain timeout, not that old shed.
        taps.stall.store(true, Ordering::Relaxed);
        match coordinator.publish(1) {
            Err(ClusterError::Timeout {
                delivered,
                expected,
            }) => assert!(delivered < expected, "{delivered}/{expected}"),
            other => panic!("expected a delivery timeout, got {other:?}"),
        }
        drop(coordinator);
        taps.close(&[addrs[2]]);
        for node in nodes {
            node.stop();
            node.join();
        }
        reactor.shutdown();
    }

    #[test]
    fn mean_latency_of_unknown_pair_is_none() {
        let report = ClusterReport::default();
        assert_eq!(report.mean_latency_micros(site(0), stream(1, 0)), None);
    }
}
