//! Crash/recovery acceptance for the persistent membership service: a
//! service restarted from its [`SessionStore`] re-adopts every open
//! session with plans **bit-identical** to an uninterrupted run, and a
//! live TCP fleet abandoned by the crash is re-adopted via
//! [`Coordinator::connect`] with the recovered plan.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve_net::{ClusterConfig, Coordinator, Reactor, RpNodeHandle};
use teeve_runtime::{RuntimeEvent, TraceConfig};
use teeve_service::{MembershipService, SessionSpec};
use teeve_store::SessionStore;
use teeve_types::{CostMatrix, CostMs, Degree, DisplayId, SessionId, SiteId};

/// A unique scratch log path per call (no tempfile dependency).
fn scratch_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "teeve-service-recovery-{tag}-{}-{n}.log",
        std::process::id()
    ))
}

fn spec(sites: usize, salt: u32) -> SessionSpec {
    let costs = CostMatrix::from_fn(sites, move |i, j| {
        CostMs::new(3 + ((i as u32 * 5 + j as u32 + salt) % 4))
    });
    SessionSpec::new(
        teeve_pubsub::Session::builder(costs)
            .cameras_per_site(4)
            .displays_per_site(1)
            .symmetric_capacity(Degree::new(8))
            .build(),
    )
}

fn churn_trace(sites: usize, seed: u64) -> Vec<Vec<RuntimeEvent>> {
    TraceConfig {
        epochs: 5,
        events_per_epoch: 3,
        retarget_weight: 4,
        clear_weight: 1,
        leave_weight: 0,
        join_weight: 0,
        bandwidth_weight: 3,
    }
    .generate(sites, 1, &mut ChaCha8Rng::seed_from_u64(seed))
}

/// Three sessions driven identically on a persistent service and an
/// in-memory control; after a crash the recovered service hosts exactly
/// the open sessions, with plans and epochs bit-identical to the
/// control, never reuses an id, and keeps evolving in lock-step.
#[test]
fn recovered_service_matches_an_uninterrupted_control() {
    let path = scratch_path("parity");
    let persistent =
        MembershipService::recover(SessionStore::open(&path).expect("open fresh store"))
            .expect("fresh persistent service");
    let control = MembershipService::new();

    // Admit three sessions on both services: same specs, same order, so
    // the allocated ids line up.
    let mut ids = Vec::new();
    for salt in 0..3u32 {
        let a = persistent.create_session(spec(4, salt)).expect("admit");
        let b = control
            .create_session(spec(4, salt))
            .expect("admit control");
        assert_eq!(a.id(), b.id(), "id allocation must match");
        ids.push(a.id());
    }

    // Drive every session through the same seeded churn, mirrored on
    // both services: direct epochs plus one queued-requests drive_all.
    for (index, &id) in ids.iter().enumerate() {
        for events in churn_trace(4, 2008 + index as u64) {
            persistent.drive_epoch(id, &events).expect("drive");
            control.drive_epoch(id, &events).expect("drive control");
        }
    }
    let extra = vec![RuntimeEvent::Viewpoint {
        display: DisplayId::new(SiteId::new(2), 0),
        target: SiteId::new(0),
    }];
    persistent.submit_requests(ids[0], extra.clone()).unwrap();
    control.submit_requests(ids[0], extra).unwrap();
    let report = persistent.drive_all();
    assert_eq!(report.sessions, 3);
    assert_eq!(report.store_failures, 0, "every epoch commit is durable");
    assert_eq!(control.drive_all().sessions, 3);

    // One session closes before the crash: it must not be re-adopted.
    let closed = ids[1];
    persistent.close_session(closed).expect("close");
    control.close_session(closed).expect("close control");

    // Crash: the persistent service is dropped mid-life; only the log
    // survives.
    drop(persistent);

    let recovered = MembershipService::recover(SessionStore::open(&path).expect("reopen store"))
        .expect("recovery replays");
    assert!(recovered.store().is_some());
    assert_eq!(recovered.session_count(), 2);
    assert!(!recovered.contains(closed), "closed sessions stay closed");
    for &id in &[ids[0], ids[2]] {
        let ours = recovered.handle(id).expect("re-adopted").plan().unwrap();
        let theirs = control.handle(id).expect("control").plan().unwrap();
        assert_eq!(ours, theirs, "{id}'s recovered plan must be bit-identical");
        assert_eq!(
            recovered.handle(id).unwrap().epoch().unwrap(),
            control.handle(id).unwrap().epoch().unwrap(),
        );
    }

    // Ids are never reused, even closed ones: the next admission lands
    // past the persisted maximum.
    let fresh = recovered.create_session(spec(4, 9)).expect("new admission");
    assert_eq!(fresh.id(), SessionId::new(3), "allocation resumes past max");

    // The recovered service keeps evolving in lock-step with the
    // control — and its new epochs are durable too.
    for events in churn_trace(4, 77) {
        recovered.drive_epoch(ids[2], &events).expect("drive");
        control.drive_epoch(ids[2], &events).expect("drive control");
    }
    assert_eq!(
        recovered.handle(ids[2]).unwrap().plan().unwrap(),
        control.handle(ids[2]).unwrap().plan().unwrap(),
        "post-recovery epochs stay bit-identical"
    );
    std::fs::remove_file(&path).ok();
}

/// The full crash story end to end: a persistent service drives a live
/// TCP fleet, the service process "dies" (coordinator detached, service
/// dropped), and a service recovered from the store re-adopts the still
/// running fleet via [`Coordinator::connect`] with its recovered plan.
#[test]
fn socket_recovered_service_readopts_a_live_fleet() {
    const SITES: usize = 4;
    let path = scratch_path("fleet");
    let service = MembershipService::recover(SessionStore::open(&path).expect("open fresh store"))
        .expect("fresh persistent service");
    let handle = service.create_session(spec(SITES, 0)).expect("admit");
    let id = handle.id();

    // Seed a ring of gazes so the launch plan already disseminates.
    let ring: Vec<RuntimeEvent> = (0..SITES as u32)
        .map(|s| RuntimeEvent::Viewpoint {
            display: DisplayId::new(SiteId::new(s), 0),
            target: SiteId::new((s + 1) % SITES as u32),
        })
        .collect();
    handle.drive_epoch(&ring).expect("seed epoch");

    let config = ClusterConfig {
        frames_per_stream: 2,
        payload_bytes: 256,
        frame_interval: None,
        timeout: Duration::from_secs(20),
    };
    let reactor = Reactor::new(1).expect("reactor starts");
    let nodes: Vec<RpNodeHandle> = SiteId::all(SITES)
        .map(|site| reactor.bind_node(site).expect("bind RP"))
        .collect();
    let addrs: Vec<_> = nodes.iter().map(RpNodeHandle::addr).collect();
    let plan = handle.plan().unwrap();
    let mut coordinator = Coordinator::connect(&plan, &addrs, &config).expect("connect");
    coordinator.publish(2).expect("seeded batch");

    // Drive churn epochs into both the runtime and the live fleet.
    for events in churn_trace(SITES, 2008) {
        let outcome = handle.drive_epoch(&events).expect("drive");
        coordinator.apply_delta(&outcome.delta).expect("live apply");
    }
    coordinator.publish(2).expect("churned batch");
    let last_plan = handle.plan().unwrap();
    assert_eq!(coordinator.revision(), last_plan.revision());

    // The membership server dies: control connections drop, the service
    // is gone — the RP fleet keeps running its last-dictated tables.
    coordinator.detach();
    drop(handle);
    drop(service);

    // A restarted service recovers the session from the store…
    let recovered = MembershipService::recover(SessionStore::open(&path).expect("reopen store"))
        .expect("recovery replays");
    let readopted = recovered.handle(id).expect("session re-adopted");
    let recovered_plan = readopted.plan().unwrap();
    assert_eq!(recovered_plan, last_plan, "recovered plan is bit-identical");

    // …and re-adopts the live fleet with it: resync, publish, exact
    // final accounting with no RP lost across the gap.
    let mut reconnected = Coordinator::connect(&recovered_plan, &addrs, &config).expect("re-adopt");
    assert_eq!(reconnected.revision(), recovered_plan.revision());
    reconnected.publish(2).expect("post-recovery batch");
    let report = reconnected.shutdown();
    assert_eq!(report.missing_reports, 0, "whole fleet survived the crash");
    assert_eq!(report.final_revision, recovered_plan.revision());
    for node in nodes {
        node.stop();
        node.join();
    }
    std::fs::remove_file(&path).ok();
}
