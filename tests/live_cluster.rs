//! Integration of the live TCP substrate with the rest of the stack.
//!
//! Every test here opens real sockets on 127.0.0.1 and is named with a
//! `socket_` prefix: CI runs them serialized (`--test-threads=1`) in
//! their own step so localhost port churn cannot flake the main test job.

use std::collections::BTreeMap;
use std::time::Duration;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve::net::{ClusterConfig, LiveCluster};
use teeve::overlay::{OverlayManager, ProblemInstance};
use teeve::prelude::*;
use teeve::runtime::{RuntimeConfig, SessionRuntime, TraceConfig};
use teeve::types::{CostMatrix, CostMs, Degree, DisplayId, SiteId, StreamId};

fn quick_config(frames: u64) -> ClusterConfig {
    ClusterConfig {
        frames_per_stream: frames,
        payload_bytes: 512,
        frame_interval: None,
        timeout: Duration::from_secs(30),
    }
}

fn site(i: u32) -> SiteId {
    SiteId::new(i)
}

fn stream(origin: u32, q: u32) -> StreamId {
    StreamId::new(site(origin), q)
}

/// Session → overlay → live TCP cluster: every planned delivery completes
/// with real sockets.
#[test]
fn socket_session_plan_runs_end_to_end() {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let costs = CostMatrix::from_fn(4, |i, j| CostMs::new(2 + ((i + j) % 4) as u32));
    let mut session = Session::builder(costs)
        .cameras_per_site(4)
        .displays_per_site(1)
        .symmetric_capacity(Degree::new(6))
        .build();
    for site in SiteId::all(4) {
        let target = SiteId::new((site.index() as u32 + 1) % 4);
        session.subscribe_viewpoint(DisplayId::new(site, 0), target);
    }
    let (_, plan) = session.build_plan(&RandomJoin, &mut rng).expect("plan");

    let config = quick_config(8);
    let mut cluster = LiveCluster::launch(&plan, &config).expect("cluster launches");
    cluster
        .publish(config.frames_per_stream)
        .expect("cluster completes");
    let report = cluster.shutdown();
    for sp in plan.site_plans() {
        for stream in sp.received_streams() {
            assert_eq!(
                report.delivered.get(&(sp.site, stream)).copied(),
                Some(config.frames_per_stream),
                "stream {stream} incomplete at {}",
                sp.site
            );
        }
    }
}

/// The live cluster and the discrete-event simulator agree on *what* is
/// delivered (the sim additionally models link latency, which localhost
/// cannot reproduce).
#[test]
fn socket_simulator_and_cluster_agree_on_deliveries() {
    let mut rng = ChaCha8Rng::seed_from_u64(33);
    let topo = teeve::topology::backbone_north_america();
    let sample = topo.sample_session(4, &mut rng).expect("session");
    let problem = WorkloadConfig::zipf_uniform()
        .generate(&sample.costs, &mut rng)
        .expect("generate");
    let outcome = RandomJoin.construct(&problem, &mut rng);
    let plan = DisseminationPlan::from_forest(
        &problem,
        outcome.forest(),
        StreamProfile::compressed_mbps(5),
    );

    let sim_report = teeve::sim::simulate(&plan, &teeve::sim::SimConfig::short());
    let mut cluster = LiveCluster::launch(&plan, &quick_config(2)).expect("cluster");
    cluster.publish(2).expect("cluster completes");
    let net_report = cluster.shutdown();

    // Identical delivery relations: a (site, stream) pair received frames
    // in the simulator iff it received frames on real sockets.
    let sim_pairs: std::collections::BTreeSet<_> = plan
        .site_plans()
        .iter()
        .flat_map(|sp| {
            sp.received_streams()
                .filter(|&s| sim_report.stream_stats(sp.site, s).is_some())
                .map(move |s| (sp.site, s))
                .collect::<Vec<_>>()
        })
        .collect();
    let net_pairs: std::collections::BTreeSet<_> = net_report.delivered.keys().copied().collect();
    assert_eq!(sim_pairs, net_pairs);
}

/// The three-site universe the reconfiguration tests mutate: site 0 owns
/// two streams, sites 1 and 2 may subscribe to them.
fn reconfigure_universe() -> ProblemInstance {
    let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(4));
    ProblemInstance::builder(costs, CostMs::new(50))
        .symmetric_capacities(Degree::new(6))
        .streams_per_site(&[2, 0, 0])
        .subscribe(site(1), stream(0, 0))
        .subscribe(site(1), stream(0, 1))
        .subscribe(site(2), stream(0, 0))
        .build()
        .unwrap()
}

/// Derives the plan of the manager's current forest, stamped with the
/// given control-plane revision.
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

/// Records what the current plan's receivers are owed by a batch.
fn expect_batch(
    expected: &mut BTreeMap<(SiteId, StreamId), u64>,
    plan: &DisseminationPlan,
    frames: u64,
) {
    for sp in plan.site_plans() {
        for stream in sp.received_streams() {
            *expected.entry((sp.site, stream)).or_default() += frames;
        }
    }
}

/// Mid-flight reconfiguration: frames are delivered under plan A, a delta
/// is applied to the *running* RPs, frames are delivered under plan B —
/// and a socket-free reroute is proven to establish and close nothing.
#[test]
fn socket_live_reconfiguration_applies_deltas_mid_flight() {
    let p = reconfigure_universe();
    let mut m = OverlayManager::new(p.clone());
    m.subscribe(site(1), stream(0, 0)).unwrap();
    let plan_a = plan_at(&p, &m, 0);
    assert_eq!(plan_a.site_plan(site(1)).in_degree(), 1);

    let mut expected = BTreeMap::new();
    let mut cluster = LiveCluster::launch(&plan_a, &quick_config(3)).expect("launch");

    // Plan A flows.
    cluster.publish(3).expect("batch under plan A");
    expect_batch(&mut expected, cluster.plan(), 3);

    // Delta 1: site 2 joins stream 0.0 — one new connection somewhere.
    m.subscribe(site(2), stream(0, 0)).unwrap();
    let plan_b = plan_at(&p, &m, 1);
    let delta = PlanDelta::diff(&plan_a, &plan_b);
    let report = cluster.apply_delta(&delta).expect("delta applies live");
    assert_eq!(report.revision, 1);
    assert_eq!(cluster.revision(), 1);
    assert_eq!(report.established.len(), 1, "site 2 needs one new link");
    assert!(report.closed.is_empty());
    assert!(!report.is_socket_free());

    cluster.publish(4).expect("batch under plan B");
    expect_batch(&mut expected, cluster.plan(), 4);

    // Delta 2: a second stream lands on the already-connected 0 → 1 pair
    // — a socket-free reconfiguration must open and close nothing.
    let opened_before = cluster.connections_opened();
    let closed_before = cluster.connections_closed();
    m.subscribe(site(1), stream(0, 1)).unwrap();
    let plan_c = plan_at(&p, &m, 2);
    let delta = PlanDelta::diff(&plan_b, &plan_c);
    let report = cluster.apply_delta(&delta).expect("socket-free delta");
    assert!(report.is_socket_free(), "second stream rides the same link");
    assert!(report.established.is_empty());
    assert!(report.closed.is_empty());
    assert!(report.reconfigured_sites > 0, "tables still changed");
    assert_eq!(cluster.connections_opened(), opened_before);
    assert_eq!(cluster.connections_closed(), closed_before);

    cluster.publish(2).expect("batch under plan C");
    expect_batch(&mut expected, cluster.plan(), 2);

    // Delta 3: site 2 leaves again — its link's last stream goes, so the
    // connection closes (observed on the receive side via the Hello
    // attribution).
    m.unsubscribe(site(2), stream(0, 0)).unwrap();
    let plan_d = plan_at(&p, &m, 3);
    let delta = PlanDelta::diff(&plan_c, &plan_d);
    let report = cluster.apply_delta(&delta).expect("closing delta");
    assert_eq!(report.closed.len(), 1, "site 2's only link closes");
    assert!(report.established.is_empty());

    cluster.publish(5).expect("batch under plan D");
    expect_batch(&mut expected, cluster.plan(), 5);

    let report = cluster.shutdown();
    assert_eq!(report.final_revision, 3);
    assert_eq!(report.connections_opened, 1);
    assert_eq!(report.connections_closed, 1);
    assert_eq!(
        report.delivered, expected,
        "every batch must deliver exactly per its epoch's plan"
    );
    // Site 1 saw all four batches of s0.0 but only the last two of s0.1.
    assert_eq!(report.delivered[&(site(1), stream(0, 0))], 14);
    assert_eq!(report.delivered[&(site(1), stream(0, 1))], 7);
    assert_eq!(report.delivered[&(site(2), stream(0, 0))], 6);
}

/// A long-lived cluster must survive idling past its configured timeout:
/// the coordinator's read deadline bounds one wait for a reply, not a
/// link's lifetime. Both the data links and the control channels have to
/// outlive the idle gap — publishing and reconfiguring afterwards still
/// works.
#[test]
fn socket_idle_cluster_survives_past_the_read_timeout() {
    let p = reconfigure_universe();
    let mut m = OverlayManager::new(p.clone());
    m.subscribe(site(1), stream(0, 0)).unwrap();
    let plan_a = plan_at(&p, &m, 0);

    let config = ClusterConfig {
        frames_per_stream: 2,
        payload_bytes: 256,
        frame_interval: None,
        timeout: Duration::from_millis(400),
    };
    let mut cluster = LiveCluster::launch(&plan_a, &config).expect("launch");
    cluster.publish(2).expect("batch before the idle gap");

    // Idle well past the 400 ms read timeout.
    std::thread::sleep(Duration::from_millis(1000));

    // Data links still deliver…
    cluster.publish(2).expect("idle data links must survive");
    // …and the control channels still reconfigure.
    m.subscribe(site(2), stream(0, 0)).unwrap();
    let plan_b = plan_at(&p, &m, 1);
    let report = cluster
        .apply_delta(&PlanDelta::diff(&plan_a, &plan_b))
        .expect("idle control channels must survive");
    assert_eq!(report.established.len(), 1);
    cluster
        .publish(2)
        .expect("batch under the reconfigured plan");

    let report = cluster.shutdown();
    assert_eq!(report.delivered[&(site(1), stream(0, 0))], 6);
    assert_eq!(report.delivered[&(site(2), stream(0, 0))], 2);
}

/// The full paper pipeline on real TCP: a `SessionRuntime` churn trace
/// (FOV change → overlay repair → delta) drives a running `LiveCluster`
/// epoch by epoch — every delta lands on live RPs, frames are delivered
/// correctly before and after each reconfiguration, and socket-free
/// deltas open/close zero connections.
#[test]
fn socket_session_runtime_churn_drives_the_live_cluster() {
    const SITES: usize = 5;
    const DISPLAYS: u32 = 2;
    let costs = CostMatrix::from_fn(SITES, |i, j| CostMs::new(3 + ((i * 5 + j) % 4) as u32));
    let mut session = Session::builder(costs)
        .cameras_per_site(4)
        .displays_per_site(DISPLAYS)
        .symmetric_capacity(Degree::new(8))
        .build();
    // Initial gazes so the launch plan already carries traffic.
    for s in SiteId::all(SITES) {
        let i = s.index() as u32;
        session.subscribe_viewpoint(DisplayId::new(s, 0), SiteId::new((i + 1) % SITES as u32));
    }
    let universe = subscription_universe(&session).unwrap();
    let mut runtime = SessionRuntime::new(universe, session, RuntimeConfig::default()).unwrap();
    assert!(
        runtime
            .plan()
            .site_plans()
            .iter()
            .any(|sp| sp.in_degree() > 0),
        "the seeded plan must disseminate something"
    );

    let mut cluster = LiveCluster::launch(runtime.plan(), &quick_config(2)).expect("launch");
    let mut expected = BTreeMap::new();

    // Frames flow before any reconfiguration.
    cluster.publish(2).expect("seed batch");
    expect_batch(&mut expected, cluster.plan(), 2);

    let trace = TraceConfig {
        epochs: 8,
        events_per_epoch: 3,
        ..TraceConfig::default()
    }
    .generate(SITES, DISPLAYS, &mut ChaCha8Rng::seed_from_u64(2008));

    let mut socket_free_deltas = 0usize;
    for (i, events) in trace.iter().enumerate() {
        let outcome = runtime.apply_epoch(events);
        let opened_before = cluster.connections_opened();
        let closed_before = cluster.connections_closed();
        let report = cluster
            .apply_delta(&outcome.delta)
            .unwrap_or_else(|e| panic!("epoch {i}: delta rejected: {e}"));

        // The cluster tracks the runtime revision in lock-step.
        assert_eq!(report.revision, runtime.plan().revision());
        assert_eq!(cluster.revision(), runtime.plan().revision());
        assert_eq!(cluster.plan(), runtime.plan(), "epoch {i}: plans diverged");
        if report.is_socket_free() {
            socket_free_deltas += 1;
            assert_eq!(cluster.connections_opened(), opened_before);
            assert_eq!(cluster.connections_closed(), closed_before);
        }

        // Frames flow correctly under the reconfigured plan.
        cluster
            .publish(2)
            .unwrap_or_else(|e| panic!("epoch {i}: post-delta batch failed: {e}"));
        expect_batch(&mut expected, cluster.plan(), 2);
    }
    assert!(
        socket_free_deltas > 0,
        "the trace should produce at least one socket-free epoch"
    );

    let report = cluster.shutdown();
    assert_eq!(report.final_revision, runtime.plan().revision());
    assert_eq!(
        report.delivered, expected,
        "cumulative deliveries must match every epoch's plan exactly"
    );
}

/// The `DeltaSink` bridge: `SessionRuntime::drive_epochs` pushes every
/// epoch's delta straight into the running cluster.
#[test]
fn socket_drive_epochs_bridges_runtime_and_cluster() {
    const SITES: usize = 4;
    let costs = CostMatrix::from_fn(SITES, |_, _| CostMs::new(5));
    let mut session = Session::builder(costs)
        .cameras_per_site(4)
        .displays_per_site(1)
        .symmetric_capacity(Degree::new(8))
        .build();
    session.subscribe_viewpoint(DisplayId::new(site(0), 0), site(1));
    let universe = subscription_universe(&session).unwrap();
    let mut runtime = SessionRuntime::new(universe, session, RuntimeConfig::default()).unwrap();

    let mut cluster = LiveCluster::launch(runtime.plan(), &quick_config(2)).expect("launch");
    let trace = vec![
        vec![teeve::runtime::RuntimeEvent::Viewpoint {
            display: DisplayId::new(site(2), 0),
            target: site(0),
        }],
        vec![teeve::runtime::RuntimeEvent::Viewpoint {
            display: DisplayId::new(site(0), 0),
            target: site(3),
        }],
    ];
    let outcomes = runtime.drive_epochs(&trace, &mut cluster).expect("bridge");
    assert_eq!(outcomes.len(), 2);
    assert_eq!(cluster.revision(), 2);
    assert_eq!(cluster.plan(), runtime.plan());

    // The final plan delivers on real sockets.
    cluster.publish(3).expect("batch under the final plan");
    let report = cluster.shutdown();
    for sp in runtime.plan().site_plans() {
        for stream in sp.received_streams() {
            assert_eq!(
                report.delivered.get(&(sp.site, stream)).copied(),
                Some(3),
                "stream {stream} incomplete at {}",
                sp.site
            );
        }
    }
}
