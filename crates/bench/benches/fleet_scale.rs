//! Fleet hosting economics: how many RPs fit in one process?
//!
//! The reactor hosts every RP on a fixed pool of event-loop threads, so
//! a process's RP count is bounded by the protocol, not by OS threads.
//! This bench stands up **32 sessions x 16 sites = 512 RPs** on a
//! 4-thread reactor in this process, measures launch throughput
//! (sessions/sec), the socket-free reconfigure latency distribution
//! under that load (p50 and p99 over every session), and the
//! threads-per-RP ratio — asserting it stays under 0.1.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use teeve_net::{ClusterConfig, LiveCluster, Reactor};
use teeve_overlay::{OverlayManager, ProblemInstance};
use teeve_pubsub::{DisseminationPlan, PlanDelta, StreamProfile};
use teeve_types::{CostMatrix, CostMs, Degree, SiteId, StreamId};

/// Concurrent sessions hosted by the one reactor.
const SESSIONS: usize = 32;
/// Sites (RPs) per session.
const SITES_PER_SESSION: usize = 16;
/// Event-loop threads driving every RP in the process.
const LOOP_THREADS: usize = 4;
/// Socket-free reconfigure toggles timed per session.
const TOGGLES_PER_SESSION: usize = 3;

/// Live OS threads of this process, from `/proc/self/status`.
fn os_thread_count() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .map(|v| v.trim().parse::<f64>().expect("numeric thread count"))
        .expect("Threads: line present")
}

/// One session's plan pair over a 16-site ring: every site originates a
/// stream its successor subscribes to, and site 0 owns a second stream
/// site 1 may toggle. The toggle rides the already-open 0 -> 1 link, so
/// applying it is a pure `Reconfigure`/`Ack` round with zero socket
/// churn — the latency band the p99 metric tracks.
fn session_plans(sites: usize) -> (DisseminationPlan, DisseminationPlan) {
    let costs = CostMatrix::from_fn(sites, |i, j| CostMs::new(3 + ((i + 2 * j) % 4) as u32));
    let mut streams = vec![1u32; sites];
    streams[0] = 2;
    let mut builder = ProblemInstance::builder(costs, CostMs::new(500))
        .symmetric_capacities(Degree::new(4))
        .streams_per_site(&streams)
        .subscribe(SiteId::new(1), StreamId::new(SiteId::new(0), 1));
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
    let base = DisseminationPlan::from_forest(
        &problem,
        &manager.forest_snapshot(),
        StreamProfile::default(),
    );
    manager
        .subscribe(SiteId::new(1), StreamId::new(SiteId::new(0), 1))
        .expect("toggle subscribe");
    let alt = DisseminationPlan::from_forest(
        &problem,
        &manager.forest_snapshot(),
        StreamProfile::default(),
    );
    (base, alt)
}

/// Applies `target` to the cluster as a freshly revision-stamped delta.
fn step(cluster: &mut LiveCluster, target: &DisseminationPlan) {
    let mut next = target.clone();
    next.set_revision(cluster.revision() + 1);
    let delta = PlanDelta::diff(cluster.plan(), &next);
    cluster.apply_delta(&delta).expect("delta applies live");
}

/// The `index`-th value of the sorted sample set at quantile `q`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let index = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[index.min(sorted.len() - 1)]
}

fn bench_fleet_scale(c: &mut Criterion) {
    let (base, alt) = session_plans(SITES_PER_SESSION);
    let config = ClusterConfig {
        frames_per_stream: 1,
        payload_bytes: 256,
        frame_interval: None,
        timeout: Duration::from_secs(30),
    };

    // 512 RPs on LOOP_THREADS event loops.
    let threads_baseline = os_thread_count();
    let reactor = Reactor::new(LOOP_THREADS).expect("reactor starts");
    let launching = Instant::now();
    let mut clusters: Vec<LiveCluster> = (0..SESSIONS)
        .map(|_| LiveCluster::launch_reactor(&base, &config, &reactor).expect("reactor launch"))
        .collect();
    let launch_secs = launching.elapsed().as_secs_f64();
    let sessions_per_sec = SESSIONS as f64 / launch_secs.max(f64::EPSILON);

    let rp_count = (SESSIONS * SITES_PER_SESSION) as f64;
    assert_eq!(
        reactor.telemetry().gauge("reactor.nodes.registered").get(),
        (SESSIONS * SITES_PER_SESSION) as u64,
        "every RP of every session is hosted by the one reactor"
    );
    let reactor_threads_per_rp = (os_thread_count() - threads_baseline) / rp_count;
    assert!(
        reactor_threads_per_rp < 0.1,
        "reactor hosting must amortize below 0.1 threads per RP, got {reactor_threads_per_rp}"
    );

    // Socket-free reconfigure latency with the whole fleet resident.
    let mut toggles: Vec<f64> = Vec::with_capacity(SESSIONS * TOGGLES_PER_SESSION * 2);
    for cluster in &mut clusters {
        for _ in 0..TOGGLES_PER_SESSION {
            for target in [&alt, &base] {
                let t = Instant::now();
                step(cluster, target);
                toggles.push(t.elapsed().as_micros() as f64);
            }
        }
        assert_eq!(
            cluster.connections_opened(),
            0,
            "the toggle must stay socket-free"
        );
    }
    toggles.sort_by(|a, b| a.partial_cmp(b).expect("finite micros"));
    let reconfigure_p50 = quantile(&toggles, 0.50);
    let reconfigure_p99 = quantile(&toggles, 0.99);

    // A criterion smoke of the same toggle on one resident session,
    // while the other 31 sessions' RPs stay parked on the reactor.
    let mut group = c.benchmark_group("fleet_scale");
    group.sample_size(10);
    if let Some(cluster) = clusters.first_mut() {
        group.bench_function(BenchmarkId::from_parameter("reconfigure_toggle"), |b| {
            b.iter(|| {
                step(cluster, &alt);
                step(cluster, &base);
            })
        });
    }
    group.finish();

    // Every session still delivers: one frame per stream, no lost stats.
    for cluster in &mut clusters {
        cluster.publish(1).expect("batch delivers");
    }
    for cluster in clusters {
        let report = cluster.shutdown();
        assert!(report.total_delivered() > 0, "resident session delivers");
        assert_eq!(report.missing_reports, 0, "graceful shutdown keeps stats");
    }
    reactor.shutdown();

    println!(
        "fleet_scale: {rp_count} RPs / {SESSIONS} sessions on {LOOP_THREADS} loop threads; \
         {sessions_per_sec:.1} sessions/sec; reconfigure p50 {reconfigure_p50:.0} us, \
         p99 {reconfigure_p99:.0} us; {reactor_threads_per_rp:.4} threads/RP"
    );
}

criterion_group!(benches, bench_fleet_scale);
criterion_main!(benches);
