//! The multi-process smoke path: a [`Coordinator`] driving `rp_node`
//! processes that share **nothing** with it but sockets.
//!
//! Each RP runs as its own OS process (the `rp_node` bin of this crate);
//! the coordinator connects by address and walks the full lifecycle —
//! launch → publish → apply_delta → publish → shutdown — entirely over
//! the wire. The delivery accounting must match an in-process
//! [`LiveCluster`] run of the identical schedule bit-for-bit, proving
//! the wrapper adds convenience, not semantics.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use teeve_net::{ClusterConfig, Coordinator, LiveCluster};
use teeve_overlay::{NodeCapacity, OverlayManager, ProblemInstance};
use teeve_pubsub::{DisseminationPlan, PlanDelta, StreamProfile};
use teeve_types::{CostMatrix, CostMs, Degree, SiteId, StreamId};

fn site(i: u32) -> SiteId {
    SiteId::new(i)
}

fn stream(origin: u32, q: u32) -> StreamId {
    StreamId::new(site(origin), q)
}

/// The three-site universe the smoke test reconfigures: site 0 owns two
/// streams, sites 1 and 2 may subscribe, and source capacity 1 forces
/// relaying so the overlay actually has interior links.
fn universe() -> ProblemInstance {
    let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(3));
    ProblemInstance::builder(costs, CostMs::new(50))
        .capacities(vec![
            NodeCapacity::symmetric(Degree::new(1)),
            NodeCapacity::symmetric(Degree::new(4)),
            NodeCapacity::symmetric(Degree::new(4)),
        ])
        .streams_per_site(&[2, 0, 0])
        .subscribe(site(1), stream(0, 0))
        .subscribe(site(1), stream(0, 1))
        .subscribe(site(2), stream(0, 0))
        .build()
        .unwrap()
}

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

/// Spawns one `rp_node` process — bound to the wildcard address and
/// advertising loopback, the separate-machines shape — and reads its
/// advertised address.
fn spawn_rp(site_index: u32) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rp_node"))
        .arg(site_index.to_string())
        .args(["0.0.0.0:0", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn rp_node");
    let stdout = child.stdout.take().expect("captured stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read LISTEN line");
    let addr = line
        .trim()
        .strip_prefix("LISTEN ")
        .expect("LISTEN prefix")
        .parse()
        .expect("advertised address parses");
    (child, addr)
}

/// Runs the shared lifecycle schedule against any executor exposing the
/// coordinator surface, returning the delivery report.
fn drive<E>(
    executor: &mut E,
    publish: impl Fn(&mut E, u64) -> Result<(), teeve_net::ClusterError>,
    apply: impl Fn(&mut E, &PlanDelta) -> Result<teeve_net::ReconfigureReport, teeve_net::ClusterError>,
    plan_a: &DisseminationPlan,
    problem: &ProblemInstance,
) -> (PlanDelta, PlanDelta) {
    // Epoch 0: the launch plan flows.
    publish(executor, 4).expect("batch under plan A");

    // Epoch 1: site 1 picks up stream 0.1 — rides the existing 0-chain
    // where possible; site 2 drops nothing yet.
    let mut manager = OverlayManager::new(problem.clone());
    manager.subscribe(site(1), stream(0, 0)).unwrap();
    manager.subscribe(site(2), stream(0, 0)).unwrap();
    manager.subscribe(site(1), stream(0, 1)).unwrap();
    let plan_b = plan_at(problem, &manager, 1);
    let delta_ab = PlanDelta::diff(plan_a, &plan_b);
    apply(executor, &delta_ab).expect("delta A->B applies");
    publish(executor, 3).expect("batch under plan B");

    // Epoch 2: site 2 leaves stream 0.0 — its last link closes.
    manager.unsubscribe(site(2), stream(0, 0)).unwrap();
    let plan_c = plan_at(problem, &manager, 2);
    let delta_bc = PlanDelta::diff(&plan_b, &plan_c);
    apply(executor, &delta_bc).expect("delta B->C applies");
    publish(executor, 2).expect("batch under plan C");

    (delta_ab, delta_bc)
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

/// RP nodes in separate OS processes, a coordinator with nothing but
/// their addresses, the full lifecycle over sockets — and delivery
/// accounting identical, bit for bit, to the in-process wrapper.
#[test]
fn socket_multi_process_fleet_matches_in_process_wrapper_bit_for_bit() {
    let problem = universe();
    let mut manager = OverlayManager::new(problem.clone());
    manager.subscribe(site(1), stream(0, 0)).unwrap();
    manager.subscribe(site(2), stream(0, 0)).unwrap();
    let plan_a = plan_at(&problem, &manager, 0);
    assert!(
        plan_a.site_plans().iter().any(|sp| sp.in_degree() > 0),
        "the launch plan must disseminate something"
    );
    let config = ClusterConfig {
        frames_per_stream: 4,
        payload_bytes: 512,
        frame_interval: None,
        timeout: Duration::from_secs(30),
    };

    // --- The real thing: three OS processes, driven purely by address.
    let mut children = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..3u32 {
        let (child, addr) = spawn_rp(i);
        children.push(child);
        addrs.push(addr);
    }
    let mut coordinator = Coordinator::connect(&plan_a, &addrs, &config).expect("connect fleet");

    let mut expected = BTreeMap::new();
    expect_batch(&mut expected, coordinator.plan(), 4);
    let (delta_ab, delta_bc) = drive(
        &mut coordinator,
        |c, frames| c.publish(frames),
        |c, delta| c.apply_delta(delta),
        &plan_a,
        &problem,
    );
    // Re-derive the per-epoch expectations from the coordinator's view.
    let mut check = plan_a.clone();
    delta_ab.apply(&mut check).unwrap();
    expect_batch(&mut expected, &check, 3);
    delta_bc.apply(&mut check).unwrap();
    expect_batch(&mut expected, &check, 2);

    let multi_process = coordinator.shutdown();
    for mut child in children {
        let status = child.wait().expect("rp_node exits");
        assert!(status.success(), "rp_node exited with {status}");
    }

    // --- The in-process wrapper, same plan, same schedule.
    let mut cluster = LiveCluster::launch(&plan_a, &config).expect("launch wrapper");
    drive(
        &mut cluster,
        |c, frames| c.publish(frames),
        |c, delta| c.apply_delta(delta),
        &plan_a,
        &problem,
    );
    let in_process = cluster.shutdown();

    // Delivery accounting matches the schedule exactly and the wrapper
    // bit for bit. (Latencies are wall-clock and may differ; counts and
    // topology history may not.)
    assert_eq!(multi_process.delivered, expected);
    assert_eq!(multi_process.delivered, in_process.delivered);
    assert_eq!(multi_process.final_revision, in_process.final_revision);
    assert_eq!(
        multi_process.connections_opened,
        in_process.connections_opened
    );
    assert_eq!(
        multi_process.connections_closed,
        in_process.connections_closed
    );

    // The merged delivery-latency histogram of the external fleet is
    // exactly the fold of its per-RP histograms — nothing lost crossing
    // the wire's sparse bucket encoding — and each per-pair histogram
    // counts precisely the frames delivered on that pair.
    let mut folded = teeve_telemetry::LogHistogram::new();
    for (key, hist) in &multi_process.latency {
        assert_eq!(hist.count(), multi_process.delivered[key]);
        folded.merge(hist);
    }
    assert_eq!(folded, multi_process.merged_latency());
    assert_eq!(folded.count(), multi_process.total_delivered());
}

/// An `rp_node` process abandoned by its coordinator (dropped without
/// `shutdown`) is still ordered down — no orphan RP processes survive a
/// crashed control plane that managed to disconnect.
#[test]
fn socket_dropped_coordinator_orders_external_nodes_down() {
    let problem = universe();
    let mut manager = OverlayManager::new(problem.clone());
    manager.subscribe(site(1), stream(0, 0)).unwrap();
    let plan = plan_at(&problem, &manager, 0);

    let mut children = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..3u32 {
        let (child, addr) = spawn_rp(i);
        children.push(child);
        addrs.push(addr);
    }
    let config = ClusterConfig {
        timeout: Duration::from_secs(30),
        ..ClusterConfig::default()
    };
    let coordinator = Coordinator::connect(&plan, &addrs, &config).expect("connect fleet");
    drop(coordinator);
    for mut child in children {
        let status = child.wait().expect("rp_node exits after coordinator drop");
        assert!(status.success(), "rp_node exited with {status}");
    }
}
