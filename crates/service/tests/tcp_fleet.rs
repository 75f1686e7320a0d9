//! The tentpole integration: many concurrent sessions behind one
//! [`MembershipService`], each executing on its **own live TCP fleet**,
//! every epoch's [`PlanDelta`] applied through a
//! [`DeltaRouter`]`<`[`Coordinator`]`>` — membership-server dictation to
//! autonomous per-site RPs, purely wire-level, end to end.

use std::collections::BTreeMap;
use std::time::Duration;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve_net::{ClusterConfig, Coordinator, Reactor, RpNodeHandle};
use teeve_pubsub::{DeltaRouter, DeltaSink, DisseminationPlan, Session};
use teeve_runtime::TraceConfig;
use teeve_service::{MembershipService, SessionSpec};
use teeve_types::{CostMatrix, CostMs, Degree, DisplayId, SessionId, SiteId, StreamId};

const SESSIONS: usize = 3;
const SITES: usize = 4;
const DISPLAYS: u32 = 2;
const EPOCHS: usize = 4;
const FRAMES_PER_EPOCH: u64 = 2;

fn fleet_config() -> ClusterConfig {
    ClusterConfig {
        frames_per_stream: FRAMES_PER_EPOCH,
        payload_bytes: 256,
        frame_interval: None,
        timeout: Duration::from_secs(30),
    }
}

/// One hosted session's TCP execution fleet.
struct Fleet {
    nodes: Vec<RpNodeHandle>,
}

/// Binds one RP node per site on the shared reactor and connects a
/// coordinator to their addresses.
fn launch_fleet(
    reactor: &Reactor,
    plan: &DisseminationPlan,
    config: &ClusterConfig,
) -> (Fleet, Coordinator) {
    let nodes: Vec<RpNodeHandle> = SiteId::all(plan.site_count())
        .map(|site| reactor.bind_node(site).expect("bind RP"))
        .collect();
    let addrs: Vec<_> = nodes.iter().map(RpNodeHandle::addr).collect();
    let coordinator = Coordinator::connect(plan, &addrs, config).expect("connect fleet");
    (Fleet { nodes }, coordinator)
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

/// ≥ 2 concurrent sessions behind one `MembershipService`, each epoch's
/// delta applied to its own live TCP fleet via `drive_all_with(&mut
/// DeltaRouter<Coordinator>)`, per-session delivered-frame counts exact.
#[test]
fn socket_tcp_multi_session_fleets_behind_one_service() {
    let service = MembershipService::new();
    let config = fleet_config();
    let reactor = Reactor::new(1).expect("reactor starts");

    // Admit the sessions, each seeded with a ring of gazes so the launch
    // plan already disseminates, and give each its own RP fleet.
    let mut handles = Vec::new();
    let mut fleets: BTreeMap<SessionId, Fleet> = BTreeMap::new();
    let mut expected: BTreeMap<SessionId, BTreeMap<(SiteId, StreamId), u64>> = BTreeMap::new();
    let mut router: DeltaRouter<Coordinator> = DeltaRouter::new();
    for index in 0..SESSIONS {
        let costs = CostMatrix::from_fn(SITES, |i, j| {
            CostMs::new(3 + ((i * 7 + j * 5 + index * 11) % 6) as u32)
        });
        let mut session = Session::builder(costs)
            .cameras_per_site(4)
            .displays_per_site(DISPLAYS)
            .symmetric_capacity(Degree::new(8))
            .build();
        for site in SiteId::all(SITES) {
            let target = SiteId::new((site.index() as u32 + 1 + index as u32) % SITES as u32);
            if target != site {
                session.subscribe_viewpoint(DisplayId::new(site, 0), target);
            }
        }
        let handle = service
            .create_session(SessionSpec::new(session))
            .expect("admit");
        let plan = handle.plan().expect("scoped plan");
        assert_eq!(plan.scope(), Some(handle.id()));
        let (fleet, coordinator) = launch_fleet(&reactor, &plan, &config);
        fleets.insert(handle.id(), fleet);
        expected.insert(handle.id(), BTreeMap::new());
        router.register(handle.id(), coordinator);
        handles.push(handle);
    }
    assert_eq!(router.len(), SESSIONS);

    // Epoch 0 traffic under the launch plans.
    for handle in &handles {
        let coordinator = router.get_mut(handle.id()).expect("registered");
        coordinator.publish(FRAMES_PER_EPOCH).expect("launch batch");
        expect_batch(
            expected.get_mut(&handle.id()).unwrap(),
            coordinator.plan(),
            FRAMES_PER_EPOCH,
        );
    }

    // Scripted churn: each session gets its own seeded trace. Every
    // `drive_all_with` pass advances every session one epoch and routes
    // each emitted delta to that session's live coordinator over TCP.
    let traces: Vec<_> = handles
        .iter()
        .enumerate()
        .map(|(i, _)| {
            TraceConfig {
                epochs: EPOCHS,
                events_per_epoch: 3,
                leave_weight: 0,
                join_weight: 0,
                ..TraceConfig::default()
            }
            .generate(
                SITES,
                DISPLAYS,
                &mut ChaCha8Rng::seed_from_u64(4000 + i as u64),
            )
        })
        .collect();
    for epoch in 0..EPOCHS {
        for (handle, trace) in handles.iter().zip(&traces) {
            handle
                .submit_requests(trace[epoch].iter().cloned())
                .expect("queue churn");
        }
        let (report, rejections) = service.drive_all_with(&mut router);
        assert_eq!(report.sessions, SESSIONS);
        assert!(
            rejections.is_empty(),
            "epoch {epoch}: live fleets rejected deltas: {rejections:?}"
        );

        for handle in &handles {
            let coordinator = router.get_mut(handle.id()).expect("registered");
            // Fleet and runtime march in revision lock-step, and the
            // coordinator's wire-installed plan is the session's exactly.
            let runtime_plan = handle.plan().expect("session plan");
            assert_eq!(coordinator.revision(), runtime_plan.revision());
            assert_eq!(coordinator.plan(), &runtime_plan, "epoch {epoch}: diverged");
            coordinator
                .publish(FRAMES_PER_EPOCH)
                .unwrap_or_else(|e| panic!("epoch {epoch}: batch failed: {e}"));
            expect_batch(
                expected.get_mut(&handle.id()).unwrap(),
                coordinator.plan(),
                FRAMES_PER_EPOCH,
            );
        }
    }

    // Shut every fleet down: per-session delivered-frame counts must be
    // exact — no bleed between sessions sharing the one service.
    for handle in &handles {
        let id = handle.id();
        let coordinator = router.unregister(id).expect("still registered");
        assert_eq!(coordinator.revision(), EPOCHS as u64);
        let report = coordinator.shutdown();
        assert_eq!(
            report.delivered, expected[&id],
            "{id}: per-session deliveries must match every epoch's plan exactly"
        );
        let fleet = fleets.remove(&id).expect("fleet");
        for node in fleet.nodes {
            node.join();
        }
        let runtime_report = service.close_session(id).expect("close");
        assert_eq!(runtime_report.epochs, EPOCHS);
    }
    assert_eq!(service.session_count(), 0);
    assert!(router.is_empty());
}

/// A foreign-session delta can never leak into another session's fleet:
/// the router dispatches on scope, and the coordinator's scoped plan
/// would reject a mismatched delta anyway.
#[test]
fn socket_router_isolates_fleet_deltas_by_session() {
    let service = MembershipService::new();
    let config = fleet_config();
    let mut router: DeltaRouter<Coordinator> = DeltaRouter::new();

    let reactor = Reactor::new(1).expect("reactor starts");
    let mut handles = Vec::new();
    let mut fleets = Vec::new();
    for index in 0..2 {
        let costs =
            CostMatrix::from_fn(SITES, |i, j| CostMs::new(4 + ((i + j + index) % 3) as u32));
        let mut session = Session::builder(costs)
            .cameras_per_site(4)
            .displays_per_site(1)
            .symmetric_capacity(Degree::new(8))
            .build();
        session.subscribe_viewpoint(DisplayId::new(SiteId::new(0), 0), SiteId::new(1));
        let handle = service
            .create_session(SessionSpec::new(session))
            .expect("admit");
        let plan = handle.plan().expect("plan");
        let (fleet, coordinator) = launch_fleet(&reactor, &plan, &config);
        router.register(handle.id(), coordinator);
        fleets.push(fleet);
        handles.push(handle);
    }

    // Drive only session 0 directly; its delta routes to its own fleet,
    // and session 1's coordinator must stay untouched at revision 0.
    let outcome = handles[0]
        .drive_epoch(&[teeve_runtime::RuntimeEvent::Viewpoint {
            display: DisplayId::new(SiteId::new(2), 0),
            target: SiteId::new(0),
        }])
        .expect("drive");
    assert_eq!(outcome.delta.scope(), Some(handles[0].id()));
    router
        .apply_delta(&outcome.delta)
        .expect("routes to fleet 0");
    assert_eq!(router.get(handles[0].id()).unwrap().revision(), 1);
    assert_eq!(router.get(handles[1].id()).unwrap().revision(), 0);

    for handle in &handles {
        let coordinator = router.unregister(handle.id()).unwrap();
        coordinator.shutdown();
    }
    for fleet in fleets {
        for node in fleet.nodes {
            node.join();
        }
    }
}
