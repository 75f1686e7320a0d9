//! Coordinator resync latency versus fleet size: how long does a
//! restarted membership server take to re-adopt a live RP fleet?
//!
//! One reconnect is the full recovery round on real sockets — a fresh
//! `Attach` per RP, a `ResyncQuery`/`ResyncReply` round rebuilding the
//! link view, re-dictation of the latest revision as the ack barrier,
//! and the baseline stats probe — measured against running ring fleets
//! of 4, 16, and 64 sites. Each iteration reconnects and detaches, so
//! the same headless fleet is re-adopted over and over.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use teeve_net::{ClusterConfig, Coordinator, Reactor, RpNodeHandle};
use teeve_overlay::{OverlayManager, ProblemInstance};
use teeve_pubsub::{DisseminationPlan, StreamProfile};
use teeve_types::{CostMatrix, CostMs, Degree, SiteId, StreamId};

const FLEETS: [usize; 3] = [4, 16, 64];

/// A ring dissemination plan over `sites` sites: every site originates
/// one stream and its successor subscribes, so each RP holds both an
/// origin and a delivery entry and every resync re-dictates real tables.
fn ring_plan(sites: usize) -> DisseminationPlan {
    let costs = CostMatrix::from_fn(sites, |_, _| CostMs::new(4));
    let mut builder = ProblemInstance::builder(costs, CostMs::new(500))
        .symmetric_capacities(Degree::new(4))
        .streams_per_site(&vec![1; sites]);
    for i in 0..sites as u32 {
        builder = builder.subscribe(
            SiteId::new((i + 1) % sites as u32),
            StreamId::new(SiteId::new(i), 0),
        );
    }
    let problem = builder.build().expect("ring problem");
    let mut manager = OverlayManager::new(problem.clone());
    for i in 0..sites as u32 {
        manager
            .subscribe(
                SiteId::new((i + 1) % sites as u32),
                StreamId::new(SiteId::new(i), 0),
            )
            .expect("ring subscribe");
    }
    DisseminationPlan::from_forest(
        &problem,
        &manager.forest_snapshot(),
        StreamProfile::default(),
    )
}

/// Binds one RP per site on the shared reactor.
fn launch_nodes(reactor: &Reactor, sites: usize) -> (Vec<RpNodeHandle>, Vec<SocketAddr>) {
    let nodes: Vec<RpNodeHandle> = SiteId::all(sites)
        .map(|site| reactor.bind_node(site).expect("bind RP"))
        .collect();
    let addrs = nodes.iter().map(RpNodeHandle::addr).collect();
    (nodes, addrs)
}

fn bench_coordinator_resync(c: &mut Criterion) {
    let config = ClusterConfig {
        frames_per_stream: 1,
        payload_bytes: 64,
        frame_interval: None,
        timeout: Duration::from_secs(20),
    };

    let reactor = Reactor::new(1).expect("reactor starts");
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut group = c.benchmark_group("coordinator_resync");
    group.sample_size(10);
    for &sites in &FLEETS {
        let plan = ring_plan(sites);
        let (nodes, addrs) = launch_nodes(&reactor, sites);
        // Install the plan and immediately lose the coordinator: from
        // here on the fleet runs headless between reconnects.
        Coordinator::connect(&plan, &addrs, &config)
            .expect("connect")
            .detach();

        group.bench_function(BenchmarkId::new("sites", sites), |b| {
            b.iter(|| {
                Coordinator::reconnect(&plan, &addrs, &config)
                    .expect("reconnect")
                    .detach();
            })
        });

        // The headline number, measured directly: mean full-resync
        // latency over a fixed cycle count.
        let rounds = 20u32;
        let timer = Instant::now();
        for _ in 0..rounds {
            Coordinator::reconnect(&plan, &addrs, &config)
                .expect("reconnect")
                .detach();
        }
        let mean_micros = timer.elapsed().as_micros() as f64 / f64::from(rounds);
        println!("resync over {sites} sites: {mean_micros:.0} us/reconnect");
        metrics.push((format!("resync_micros_fleet_{sites}"), mean_micros));

        // Re-adopt one last time to shut the fleet down for real.
        drop(Coordinator::reconnect(&plan, &addrs, &config).expect("final reconnect"));
        for node in nodes {
            node.stop();
            node.join();
        }
    }
    group.finish();

    let entries: Vec<(&str, f64)> = metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    teeve_bench::write_bench_json("coordinator_resync", &entries);
}

criterion_group!(benches, bench_coordinator_resync);
criterion_main!(benches);
