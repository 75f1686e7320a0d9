//! End-to-end integration: topology → workload → overlay → plan →
//! simulator, across crates.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve::overlay::{
    validate_forest, ConstructionAlgorithm, CorrelatedRandomJoin, GranLtf, LargestTreeFirst,
    MinimumCapacityTreeFirst, RandomJoin, SmallestTreeFirst,
};
use teeve::prelude::*;
use teeve::sim::{simulate, SimConfig, SimTime};
use teeve::types::{DisplayId, SiteId};

/// Every algorithm, on a realistic paper-scale instance, must produce a
/// forest satisfying all problem constraints.
#[test]
fn all_algorithms_produce_valid_forests_at_paper_scale() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let topo = teeve::topology::backbone_north_america();
    let gran = GranLtf::new(8);
    let algos: Vec<&dyn ConstructionAlgorithm> = vec![
        &SmallestTreeFirst,
        &LargestTreeFirst,
        &MinimumCapacityTreeFirst,
        &gran,
        &RandomJoin,
        &CorrelatedRandomJoin,
    ];
    for n in [3usize, 6, 10] {
        let session = topo.sample_session(n, &mut rng).expect("session");
        for config in [
            WorkloadConfig::zipf_uniform(),
            WorkloadConfig::zipf_heterogeneous(),
            WorkloadConfig::random_uniform(),
            WorkloadConfig::random_heterogeneous(),
        ] {
            let problem = config.generate(&session.costs, &mut rng).expect("generate");
            for algo in &algos {
                let outcome = algo.construct(&problem, &mut rng);
                validate_forest(&problem, outcome.forest())
                    .unwrap_or_else(|e| panic!("{} violated invariants: {e}", algo.name()));
            }
        }
    }
}

/// The full pipeline: a generated workload, solved and simulated; every
/// accepted subscription receives every captured frame within the latency
/// budget implied by the construction bound.
#[test]
fn accepted_subscriptions_are_fully_served_by_the_simulator() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let topo = teeve::topology::backbone_north_america();
    let session = topo.sample_session(6, &mut rng).expect("session");
    let problem = WorkloadConfig::zipf_uniform()
        .generate(&session.costs, &mut rng)
        .expect("generate");

    let outcome = RandomJoin.construct(&problem, &mut rng);
    let plan = DisseminationPlan::from_forest(
        &problem,
        outcome.forest(),
        StreamProfile::compressed_mbps(8),
    );
    let report = simulate(&plan, &SimConfig::short());
    assert_eq!(report.delivery_ratio(), 1.0, "every planned frame arrives");

    // The overlay portion of the worst latency is bounded by
    // B_cost + per-hop costs (relay serialization + forwarding overhead).
    let depth = outcome.metrics().max_tree_depth as u64;
    let serialization = report.serialization_time().as_micros();
    let bound_us = u64::from(problem.cost_bound().as_millis()) * 1_000
        + depth.saturating_sub(1) * (serialization + 500);
    assert!(
        report.worst_overlay_latency().as_micros() <= bound_us,
        "overlay latency {} exceeds budget {}us",
        report.worst_overlay_latency(),
        bound_us
    );
}

/// The session layer end to end: FOV subscriptions resolve to streams, the
/// plan covers exactly the accepted ones, and local streams bypass the
/// overlay.
#[test]
fn session_fov_subscriptions_round_trip_through_the_plan() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let topo = teeve::topology::backbone_north_america();
    let sample = topo.sample_session(5, &mut rng).expect("session");
    let mut session = Session::builder(sample.costs.clone())
        .cameras_per_site(8)
        .displays_per_site(2)
        .symmetric_capacity(teeve::types::Degree::new(16))
        .build();

    for site in SiteId::all(5) {
        for d in 0..2u32 {
            let target = SiteId::new((site.index() as u32 + d + 1) % 5);
            let picked = session.subscribe_viewpoint(DisplayId::new(site, d), target);
            assert!(!picked.is_empty());
            assert!(picked.iter().all(|s| s.stream.origin() == target));
        }
    }

    let (outcome, plan) = session.build_plan(&RandomJoin, &mut rng).expect("plan");
    let problem = session.problem().expect("problem");
    // Plan deliveries == accepted requests, per site.
    for site in SiteId::all(5) {
        let planned = plan.deliveries_to(site).len();
        let accepted = outcome
            .accepted_requests(&problem)
            .filter(|r| r.subscriber == site)
            .count();
        assert_eq!(planned, accepted, "site {site}");
    }
}

/// Determinism across the whole stack: same seeds, same session, same
/// forest, same simulation outcome.
#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let topo = teeve::topology::backbone_north_america();
        let session = topo.sample_session(5, &mut rng).unwrap();
        let problem = WorkloadConfig::random_uniform()
            .generate(&session.costs, &mut rng)
            .unwrap();
        let outcome = CorrelatedRandomJoin.construct(&problem, &mut rng);
        let plan =
            DisseminationPlan::from_forest(&problem, outcome.forest(), StreamProfile::default());
        let report = simulate(&plan, &SimConfig::short());
        (
            outcome.metrics().clone(),
            report.total_frames_delivered(),
            report.worst_latency(),
        )
    };
    assert_eq!(run(), run());
}

/// Rebuilding after a subscription change (the dynamic case the paper
/// leaves to future work) keeps the invariants.
#[test]
fn resubscription_and_rebuild_stay_valid() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let costs = teeve::types::CostMatrix::from_fn(4, |i, j| {
        teeve::types::CostMs::new(3 + ((i * 2 + j) % 5) as u32)
    });
    let mut session = Session::builder(costs)
        .cameras_per_site(6)
        .displays_per_site(1)
        .symmetric_capacity(teeve::types::Degree::new(10))
        .build();
    for site in SiteId::all(4) {
        let target = SiteId::new((site.index() as u32 + 1) % 4);
        session.subscribe_viewpoint(DisplayId::new(site, 0), target);
    }
    let (first, _) = session.build_plan(&RandomJoin, &mut rng).expect("plan");

    // The user at site 0 turns around to watch site 3 instead.
    session.subscribe_viewpoint(DisplayId::new(SiteId::new(0), 0), SiteId::new(3));
    let (second, plan) = session.build_plan(&RandomJoin, &mut rng).expect("replan");
    let problem = session.problem().expect("problem");
    validate_forest(&problem, second.forest()).expect("rebuilt forest valid");
    assert_ne!(
        first.forest(),
        second.forest(),
        "the overlay must follow the subscription change"
    );
    assert!(plan
        .deliveries_to(SiteId::new(0))
        .iter()
        .all(|s| s.origin() == SiteId::new(3)));
}

/// Simulated latency budget scales with the render model: a display
/// receiving k streams needs k x 10 ms per frame.
#[test]
fn render_budget_tracks_delivered_streams() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let costs = teeve::types::CostMatrix::from_fn(3, |_, _| teeve::types::CostMs::new(4));
    let mut session = Session::builder(costs)
        .cameras_per_site(8)
        .displays_per_site(1)
        .symmetric_capacity(teeve::types::Degree::new(20))
        .view_selector(teeve::geometry::ViewSelector::top_k(8))
        .build();
    for site in SiteId::all(3) {
        let target = SiteId::new((site.index() as u32 + 1) % 3);
        session.subscribe_viewpoint(DisplayId::new(site, 0), target);
    }
    let (_, plan) = session.build_plan(&RandomJoin, &mut rng).expect("plan");
    let report = simulate(&plan, &SimConfig::short());
    for site in SiteId::all(3) {
        let streams = report.streams_rendered().get(&site).copied().unwrap_or(0);
        let expected = streams as f64 * 10.0 * 1000.0 / 66_666.0;
        assert!(
            (report.render_utilization(site) - expected).abs() < 1e-9,
            "render budget mismatch at {site}"
        );
    }
    // Freshness: the sim must run long enough to deliver at least a frame.
    assert!(report.total_frames_delivered() > 0);
    assert!(report.worst_latency() > SimTime::ZERO);
}
