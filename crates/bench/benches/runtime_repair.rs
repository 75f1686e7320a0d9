//! Reconvergence-time bench for live operation: incremental overlay
//! repair (`OverlayManager::subscribe/unsubscribe`, the session runtime's
//! fast path) vs full reconstruction after every change (the paper's
//! static model applied naively to a live session), on a 64-site session
//! under a Zipf subscription workload with toggling churn.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve_overlay::{OverlayManager, ProblemInstance};
use teeve_types::{CostMatrix, CostMs, SiteId, StreamId};
use teeve_workload::WorkloadConfig;

const SITES: usize = 64;
const CHURN_EVENTS: usize = 200;

/// A 64-site Zipf-workload instance over a synthetic metric cost matrix
/// (the embedded backbone tops out below 64 sites).
fn zipf_session() -> ProblemInstance {
    let costs = CostMatrix::from_fn(SITES, |i, j| {
        if i == j {
            CostMs::ZERO
        } else {
            CostMs::new(3 + ((i * 31 + j * 17) % 11) as u32)
        }
    });
    let mut rng = ChaCha8Rng::seed_from_u64(64);
    WorkloadConfig::zipf_uniform()
        .generate(&costs, &mut rng)
        .expect("64 sites is a valid session")
}

/// The churn trace: every request starts subscribed, then `CHURN_EVENTS`
/// random requests toggle off/on.
fn churn_trace(problem: &ProblemInstance) -> Vec<(SiteId, StreamId)> {
    let requests: Vec<(SiteId, StreamId)> = problem
        .requests()
        .map(|r| (r.subscriber, r.stream))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    (0..CHURN_EVENTS)
        .map(|_| *requests.as_slice().choose(&mut rng).expect("non-empty"))
        .collect()
}

/// Seeds a manager with every request subscribed.
fn seeded_manager(problem: &Arc<ProblemInstance>) -> OverlayManager {
    let mut manager = OverlayManager::new(Arc::clone(problem));
    for (site, stream) in problem.requests().map(|r| (r.subscriber, r.stream)) {
        let _ = manager.subscribe(site, stream);
    }
    manager
}

/// One full churn replay via incremental repair.
fn run_incremental(seed: &OverlayManager, trace: &[(SiteId, StreamId)]) -> usize {
    let mut manager = seed.clone();
    let mut toggled_off: std::collections::BTreeSet<(SiteId, StreamId)> =
        std::collections::BTreeSet::new();
    let mut repairs = 0;
    for &(site, stream) in trace {
        if toggled_off.remove(&(site, stream)) {
            let _ = manager.subscribe(site, stream);
        } else {
            let _ = manager.unsubscribe(site, stream);
            toggled_off.insert((site, stream));
        }
        repairs += 1;
    }
    repairs
}

/// One full churn replay rebuilding the forest from scratch per event.
fn run_full_reconstruction(problem: &Arc<ProblemInstance>, trace: &[(SiteId, StreamId)]) -> usize {
    let mut active: std::collections::BTreeSet<(SiteId, StreamId)> = problem
        .requests()
        .map(|r| (r.subscriber, r.stream))
        .collect();
    let mut rebuilds = 0;
    for &(site, stream) in trace {
        if !active.remove(&(site, stream)) {
            active.insert((site, stream));
        }
        let mut manager = OverlayManager::new(Arc::clone(problem));
        for &(s, st) in &active {
            let _ = manager.subscribe(s, st);
        }
        rebuilds += 1;
    }
    rebuilds
}

fn bench_runtime_repair(c: &mut Criterion) {
    let problem = Arc::new(zipf_session());
    let trace = churn_trace(&problem);
    let seed = seeded_manager(&problem);
    println!(
        "runtime_repair: {} sites, {} requests, {} churn events",
        SITES,
        problem.total_requests(),
        trace.len()
    );

    let mut group = c.benchmark_group("runtime_repair_n64_zipf");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("incremental_repair"), |b| {
        b.iter(|| std::hint::black_box(run_incremental(&seed, &trace)))
    });
    group.bench_function(BenchmarkId::from_parameter("full_reconstruction"), |b| {
        b.iter(|| std::hint::black_box(run_full_reconstruction(&problem, &trace)))
    });
    group.finish();

    // The headline claim, measured directly: mean reconvergence per churn
    // event on each path.
    let timer = std::time::Instant::now();
    std::hint::black_box(run_incremental(&seed, &trace));
    let incremental = timer.elapsed();
    let timer = std::time::Instant::now();
    std::hint::black_box(run_full_reconstruction(&problem, &trace));
    let full = timer.elapsed();
    let incremental_micros = incremental.as_micros() as f64 / trace.len() as f64;
    let full_micros = full.as_micros() as f64 / trace.len() as f64;
    let speedup = full.as_secs_f64() / incremental.as_secs_f64().max(f64::EPSILON);
    println!(
        "reconvergence per event: incremental {incremental_micros:.1} µs \
         vs full reconstruction {full_micros:.1} µs ({speedup:.0}x)"
    );
    assert!(
        incremental < full,
        "incremental repair must beat full reconstruction ({incremental:?} vs {full:?})"
    );
}

criterion_group!(benches, bench_runtime_repair);
criterion_main!(benches);
