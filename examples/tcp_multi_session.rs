//! Many concurrent sessions, each executing on its own live TCP fleet.
//!
//! One `MembershipService` hosts several independent 3DTI sessions. Each
//! session gets a fleet of autonomous RP nodes — standalone runtimes
//! owning their own listeners, forwarding tables, and delivery counters,
//! all hosted on one shared [`Reactor`] thread — driven by a
//! [`Coordinator`] that holds nothing but control connections and
//! addresses. Every epoch, `drive_all_with` advances all
//! sessions one epoch and routes each emitted `PlanDelta` through a
//! `DeltaRouter<Coordinator>` onto that session's fleet, purely over the
//! wire; frames then flow and per-session delivery is accounted exactly.
//!
//! Run with: `cargo run --example tcp_multi_session`
//!
//! [`Reactor`]: teeve::net::Reactor
//! [`Coordinator`]: teeve::net::Coordinator

use std::collections::BTreeMap;
use std::time::Duration;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve::net::{ClusterConfig, Coordinator, Reactor, RpNodeHandle};
use teeve::prelude::*;
use teeve::pubsub::DeltaRouter;
use teeve::runtime::TraceConfig;
use teeve::types::{CostMatrix, CostMs, Degree, DisplayId, SessionId, SiteId};

const SESSIONS: usize = 2;
const SITES: usize = 4;
const DISPLAYS: u32 = 2;
const EPOCHS: usize = 4;
const FRAMES_PER_EPOCH: u64 = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let service = MembershipService::new();
    let config = ClusterConfig {
        frames_per_stream: FRAMES_PER_EPOCH,
        payload_bytes: 1024,
        frame_interval: None,
        timeout: Duration::from_secs(30),
    };

    // 1. Admit the sessions and launch one RP fleet per session: bind
    //    the nodes, then hand the coordinator nothing but addresses.
    let reactor = Reactor::new(1)?;
    let mut handles = Vec::new();
    let mut fleets: BTreeMap<SessionId, Vec<RpNodeHandle>> = BTreeMap::new();
    let mut router: DeltaRouter<Coordinator> = DeltaRouter::new();
    for index in 0..SESSIONS {
        let costs = CostMatrix::from_fn(SITES, |i, j| {
            CostMs::new(3 + ((i * 13 + j * 7 + index * 5) % 8) as u32)
        });
        let mut session = Session::builder(costs)
            .cameras_per_site(4)
            .displays_per_site(DISPLAYS)
            .symmetric_capacity(Degree::new(8))
            .build();
        for site in SiteId::all(SITES) {
            let target = SiteId::new((site.index() as u32 + 1) % SITES as u32);
            session.subscribe_viewpoint(DisplayId::new(site, 0), target);
        }
        let handle = service.create_session(SessionSpec::new(session))?;
        let plan = handle.plan()?;

        let nodes = SiteId::all(SITES)
            .map(|site| reactor.bind_node(site))
            .collect::<Result<Vec<_>, _>>()?;
        let addrs: Vec<_> = nodes.iter().map(RpNodeHandle::addr).collect();
        let coordinator = Coordinator::connect(&plan, &addrs, &config)?;
        println!(
            "{}: fleet of {} RPs up, initial plan rev {} ({} links)",
            handle.id(),
            addrs.len(),
            coordinator.revision(),
            plan.edges().count(),
        );
        router.register(handle.id(), coordinator);
        fleets.insert(handle.id(), nodes);
        handles.push(handle);
    }

    // 2. Epoch loop: queue churn, advance every session in one service
    //    pass (deltas land on the live fleets via the router), publish.
    let traces: Vec<_> = (0..SESSIONS)
        .map(|i| {
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
                &mut ChaCha8Rng::seed_from_u64(77 + i as u64),
            )
        })
        .collect();
    for epoch in 0..EPOCHS {
        for (handle, trace) in handles.iter().zip(&traces) {
            handle.submit_requests(trace[epoch].iter().cloned())?;
        }
        let (report, rejections) = service.drive_all_with(&mut router);
        assert!(
            rejections.is_empty(),
            "live fleets rejected: {rejections:?}"
        );
        print!(
            "epoch {epoch}: {} sessions advanced, {} events | batches:",
            report.sessions, report.events
        );
        for handle in &handles {
            let coordinator = router.get_mut(handle.id()).expect("registered");
            coordinator.publish(FRAMES_PER_EPOCH)?;
            print!(
                " [{} rev {} opened {} closed {}]",
                handle.id(),
                coordinator.revision(),
                coordinator.connections_opened(),
                coordinator.connections_closed()
            );
        }
        println!();
    }

    // 3. Shut each fleet down and print per-session delivery accounting.
    println!();
    for handle in handles {
        let id = handle.id();
        let coordinator = router.unregister(id).expect("registered");
        let report = coordinator.shutdown();
        println!(
            "{id}: delivered {} frames over {} (site, stream) pairs, \
             max latency {} µs, {} reconfiguration opens / {} closes",
            report.total_delivered(),
            report.delivered.len(),
            report.max_latency_micros,
            report.connections_opened,
            report.connections_closed
        );
        for node in fleets.remove(&id).expect("fleet") {
            node.join();
        }
        let runtime_report = handle.close()?;
        println!(
            "    runtime: {} epochs, {} joins accepted, {} rebuilds",
            runtime_report.epochs, runtime_report.accepted, runtime_report.rebuilds
        );
    }
    Ok(())
}
