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
///    addresses — installing forwarding tables and ordering the initial
///    links open, all over TCP;
/// 2. [`publish`](Self::publish) / [`apply_delta`](Self::apply_delta) /
///    [`shutdown`](Self::shutdown) delegate to the coordinator, so the
///    wrapper's behavior is *identical* to driving a fleet of external
///    RP processes (the multi-process smoke test holds it to that,
///    bit-for-bit on delivery accounting).
///
/// A failed reconfiguration poisons the underlying coordinator: further
/// `publish`/`apply_delta` calls return [`ClusterError::Poisoned`]
/// instead of operating on an unknown plan state; shut the cluster down.
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
    /// Returns an error on socket failures, or if the initial tables are
    /// not acknowledged and links not reported up within
    /// `config.timeout`.
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
    /// Returns an error on socket failures, or if the initial tables are
    /// not acknowledged and links not reported up within
    /// `config.timeout`.
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

    /// Returns the plan the cluster currently executes.
    pub fn plan(&self) -> &DisseminationPlan {
        self.coordinator().plan()
    }

    /// Returns the plan revision the cluster currently runs.
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

    /// Returns true when a failed reconfiguration has poisoned the
    /// cluster; see [`ClusterError::Poisoned`].
    pub fn is_poisoned(&self) -> bool {
        self.coordinator().is_poisoned()
    }

    /// The coordinator's metrics registry (link open/close latencies,
    /// Reconfigure→Ack round-trip times); see [`Coordinator::telemetry`].
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
    /// plan and blocks until every RP has pushed the stats report that
    /// accounts for its planned deliveries of the batch; see
    /// [`Coordinator::publish`].
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Timeout`] if the batch does not fully
    /// deliver within `config.timeout`, or [`ClusterError::Poisoned`]
    /// after a failed reconfiguration.
    pub fn publish(&mut self, frames: u64) -> Result<(), ClusterError> {
        self.coordinator.publish(frames)
    }

    /// Applies one [`PlanDelta`] to the running cluster; see
    /// [`Coordinator::apply_delta`].
    ///
    /// # Errors
    ///
    /// Returns an error when the delta's revision does not match the
    /// cluster's, the delta does not apply to the current plan, a socket
    /// operation fails, or an RP does not acknowledge in time. A failure
    /// after validation poisons the cluster.
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
    use std::io::Write;
    use std::time::{Duration, Instant};

    use bytes::BytesMut;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use teeve_overlay::{
        ConstructionAlgorithm, NodeCapacity, OverlayManager, ProblemInstance, RandomJoin,
    };
    use teeve_pubsub::StreamProfile;
    use teeve_telemetry::FlightEventKind;
    use teeve_types::{CostMatrix, CostMs, Degree, StreamId};

    use crate::wire::{encode, Message};

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
        // Site 0 originates two paced streams. Their Publish orders are
        // independent timer entries, so the batch's wall time stays
        // ≈ frames × interval — not doubled back-to-back per stream.
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
        // One paced batch spans ≥ its own gaps…
        assert!(report.elapsed >= Duration::from_millis(180));
        // …but two streams serialized would take ≥ 400 ms; concurrent
        // pacing stays well under that even on a loaded host.
        assert!(
            report.elapsed < Duration::from_millis(360),
            "paced batches must overlap, took {:?}",
            report.elapsed
        );
    }

    #[test]
    fn socket_advertised_address_is_what_the_coordinator_dials() {
        // The relay node (site 1) binds a wildcard address but advertises
        // loopback: the coordinator's control connection AND site 0's
        // OpenLink dial of its data link both use the advertised address
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
        // Exactly one LinkUp per plan pair.
        let pairs: std::collections::BTreeSet<(u32, u32)> = plan
            .edges()
            .map(|(parent, child, _)| (parent.index() as u32, child.index() as u32))
            .collect();
        let mut ups: Vec<(u32, u32)> = events
            .iter()
            .filter_map(|e| match e.kind {
                FlightEventKind::LinkUp { parent, child } => Some((parent, child)),
                _ => None,
            })
            .collect();
        ups.sort_unstable();
        assert_eq!(ups, pairs.into_iter().collect::<Vec<_>>());
        // Initial links are the plan's, not a reconfiguration's.
        assert_eq!(cluster.connections_opened(), 0);
    }

    #[test]
    fn wrong_fleet_size_is_refused_before_dialing() {
        let plan = relay_plan();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addrs = vec![listener.local_addr().expect("addr"); 2];
        let config = quick_config();
        for result in [
            Coordinator::connect(&plan, &addrs, &config),
            Coordinator::reconnect(&plan, &addrs, &config),
        ] {
            assert!(matches!(
                result,
                Err(ClusterError::FleetSize { sites: 3, addrs: 2 })
            ));
        }
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
        // A rejected-by-validation delta does NOT poison: the fleet was
        // never touched, so its state is still known.
        assert!(!cluster.is_poisoned());
        let report = cluster.shutdown();
        assert_eq!(report.connections_opened, 0);
        assert_eq!(report.connections_closed, 0);
    }

    #[test]
    fn socket_failed_reconfigure_poisons_the_coordinator() {
        // A 3-site universe where site 2 can join stream 0.0 later.
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
        let plan_a = DisseminationPlan::from_forest(
            &problem,
            &manager.forest_snapshot(),
            StreamProfile::default(),
        );

        // Hand-rolled fleet, so one RP can be killed on its own.
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

        // Kill site 2's RP out from under the coordinator, then try a
        // delta that needs it (site 2 subscribes, so a link must open to
        // the dead RP).
        let victim = nodes.remove(2);
        victim.stop();
        victim.join();
        manager.subscribe(site(2), stream(0, 0)).unwrap();
        let mut plan_b = DisseminationPlan::from_forest(
            &problem,
            &manager.forest_snapshot(),
            StreamProfile::default(),
        );
        plan_b.set_revision(1);
        let delta = PlanDelta::diff(&plan_a, &plan_b);

        let err = coordinator.apply_delta(&delta).unwrap_err();
        assert!(
            matches!(err, ClusterError::Control { .. } | ClusterError::Io(_)),
            "dead RP must surface as a control failure, got {err}"
        );
        assert!(coordinator.is_poisoned());

        // Poisoned: every further operation is refused explicitly
        // instead of running on an unknown plan state.
        assert!(matches!(
            coordinator.publish(1),
            Err(ClusterError::Poisoned)
        ));
        assert!(matches!(
            coordinator.apply_delta(&delta),
            Err(ClusterError::Poisoned)
        ));

        // The poisoning left a postmortem trail: a non-empty flight dump
        // naming the failed revision.
        let dump = coordinator.flight_json().expect("flight dump serializes");
        assert!(!coordinator.flight_recorder().is_empty());
        assert!(dump.contains("Poisoned"), "dump must name the poisoning");
        assert!(
            dump.contains("\"revision\":1"),
            "dump must name the failed revision: {dump}"
        );

        // Shutdown still harvests the surviving RPs' accounting — and
        // *names* the dead RP's missing report instead of dropping it
        // silently.
        let report = coordinator.shutdown();
        assert_eq!(report.delivered[&(site(1), stream(0, 0))], 2);
        assert!(
            report.missing_reports >= 1,
            "the dead RP's lost stats must be counted"
        );
        for node in nodes {
            node.stop();
            node.join();
        }
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
        let addrs: Vec<_> = nodes.iter().map(RpNodeHandle::addr).collect();
        let config = ClusterConfig {
            timeout: Duration::from_millis(300),
            ..quick_config()
        };
        let mut coordinator = Coordinator::connect(&plan, &addrs, &config).expect("connect");
        coordinator.publish(2).expect("healthy batch");

        // Behind the coordinator's back, the relay is ordered to close
        // its link to the leaf over an unattached connection; once the
        // leaf has seen the link drop, nothing more reaches it.
        let mut rogue = std::net::TcpStream::connect(addrs[relay.index()]).expect("rogue connect");
        let mut order = BytesMut::new();
        encode(&Message::CloseLink { child: leaf }, &mut order);
        rogue.write_all(&order).expect("rogue order");
        let link_down = teeve_telemetry::FlightEventKind::LinkDown {
            parent: relay.index() as u32,
            child: leaf.index() as u32,
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !nodes[leaf.index()]
            .flight_recorder()
            .events()
            .iter()
            .any(|e| e.kind == link_down)
        {
            assert!(
                Instant::now() < deadline,
                "the leaf never saw its link drop"
            );
            std::thread::yield_now();
        }

        // The relay gets its frame, the leaf never does: the wait runs
        // out as a typed timeout, not as a control error. `delivered`
        // sums the freshest totals the coordinator holds — the relay's
        // new one only if its report was read before the leaf's wait.
        match coordinator.publish(1) {
            Err(ClusterError::Timeout {
                delivered,
                expected,
            }) => {
                assert_eq!(expected, 3 + 3);
                assert!((2 + 2..expected).contains(&delivered), "{delivered}");
            }
            other => panic!("expected a delivery timeout, got {other:?}"),
        }
        assert!(!coordinator.is_poisoned(), "a slow batch poisons nothing");

        let report = coordinator.shutdown();
        assert_eq!(report.delivered[&(relay, stream(0, 0))], 3);
        assert_eq!(report.delivered[&(leaf, stream(0, 0))], 2);
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
