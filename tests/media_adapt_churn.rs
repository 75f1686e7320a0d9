//! Cross-crate integration: the media pipeline's measured bit rate drives
//! the dissemination plan, FOV contribution scores drive adaptation, and
//! live churn preserves the overlay invariants.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve::adapt::{AdaptStream, AdaptationController, QualityLadder};
use teeve::geometry::{CyberSpace, FieldOfView, ViewSelector};
use teeve::media::{PipelineStats, ReductionPipeline, SyntheticCapture, FRAME_FPS};
use teeve::prelude::*;
use teeve::runtime::{FallbackPolicy, RuntimeEvent};
use teeve::types::{CostMatrix, CostMs, Degree, DisplayId, SiteId, StreamId};

/// Measures the pipeline on a synthetic camera and returns the provisioned
/// Mbps (rounded up from the measured rate).
fn measured_mbps() -> u64 {
    let camera = SyntheticCapture::new(640, 480, 99);
    let pipeline = ReductionPipeline::paper();
    let mut stats = PipelineStats::new();
    for seq in 0..10 {
        stats.record(&pipeline.process(&camera.capture(0.3, seq)).bytes);
    }
    (stats.bitrate_mbps(FRAME_FPS).ceil() as u64).max(1)
}

/// The §1 story, end to end: raw ≈184 Mbps compresses to single-digit
/// Mbps, and a session provisioned at the *measured* rate carries a
/// 4-site meeting with full delivery in the simulator.
#[test]
fn measured_media_rate_carries_a_session() {
    let mbps = measured_mbps();
    assert!(
        (2..=12).contains(&mbps),
        "measured rate {mbps} Mbps outside the paper's band"
    );

    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let costs = CostMatrix::from_fn(4, |i, j| CostMs::new(3 + ((i + j) % 4) as u32 * 2));
    let mut session = Session::builder(costs)
        .cameras_per_site(8)
        .displays_per_site(1)
        .symmetric_capacity(Degree::new(12))
        .stream_profile(StreamProfile::compressed_mbps(mbps))
        .build();
    for site in SiteId::all(4) {
        let target = SiteId::new((site.index() as u32 + 1) % 4);
        session.subscribe_viewpoint(DisplayId::new(site, 0), target);
    }
    let (outcome, plan) = session.build_plan(&RandomJoin, &mut rng).expect("plan");
    assert_eq!(outcome.metrics().rejection_ratio(), 0.0);

    let report = simulate(&plan, &SimConfig::short());
    assert_eq!(report.delivery_ratio(), 1.0);
    // Serialization rounding can make each frame a microsecond late, but
    // steady-state delivery must stay essentially jitter-free.
    assert!(report.worst_jitter() <= teeve::sim::SimTime::from_micros(2));
}

/// FOV contribution scores flow into the adaptation controller: under a
/// tight budget, the streams kept at full quality are exactly the top
/// scorers.
#[test]
fn adaptation_keeps_the_most_contributing_streams() {
    let space = CyberSpace::meeting_circle(4, 8);
    let eye =
        space.participant_position(SiteId::new(0)) + teeve::geometry::Vec3::new(0.0, 0.0, 1.6);
    let fov = FieldOfView::looking_at(eye, space.participant_position(SiteId::new(2)), 70.0);
    let scored = ViewSelector::top_k(5).select(&space, &fov);
    assert!(scored.len() >= 3, "need a real stream set to adapt");

    let streams: Vec<AdaptStream> = scored
        .iter()
        .map(|s| AdaptStream {
            stream: s.stream,
            score: s.score,
            ladder: QualityLadder::paper_default(),
        })
        .collect();

    // Budget for roughly half the full-quality demand.
    let full: u64 = streams.iter().map(|s| s.ladder.full().bitrate_bps).sum();
    let plan = AdaptationController::new().plan(full / 2, &streams);
    assert!(plan.total_bitrate_bps() <= full / 2);

    // The best-scored stream is served at full quality; the worst is not.
    let best = &scored[0];
    let worst = scored.last().unwrap();
    assert_eq!(plan.decision(best.stream).unwrap().level, Some(0));
    assert_ne!(plan.decision(worst.stream).unwrap().level, Some(0));
}

/// Churn at session level leaves a forest that satisfies every static
/// invariant, checked through the public API only: fifteen FOV retargets,
/// one epoch each, through a correlation-aware `SessionRuntime`.
#[test]
fn churned_session_forest_validates_against_the_universe() {
    let costs = CostMatrix::from_fn(5, |i, j| CostMs::new(4 + ((i + j) % 3) as u32));
    let mut session = Session::builder(costs)
        .cameras_per_site(6)
        .displays_per_site(2)
        .symmetric_capacity(Degree::new(8))
        .build();
    for site in SiteId::all(5) {
        let i = site.index() as u32;
        session.subscribe_viewpoint(DisplayId::new(site, 0), SiteId::new((i + 1) % 5));
        session.subscribe_viewpoint(DisplayId::new(site, 1), SiteId::new((i + 2) % 5));
    }
    let universe = subscription_universe(&session).expect("universe");
    let mut runtime = SessionRuntime::new(
        universe,
        session,
        RuntimeConfig {
            correlation_aware: true,
            fallback: FallbackPolicy::never(),
            ..RuntimeConfig::default()
        },
    )
    .expect("runtime");
    for k in 0..15u32 {
        runtime.apply_epoch(&[RuntimeEvent::Viewpoint {
            display: DisplayId::new(SiteId::new(k % 5), k % 2),
            target: SiteId::new((k % 5 + 1 + k % 3) % 5),
        }]);
        runtime.validate().expect("invariants hold every epoch");
    }
    assert_eq!(runtime.report().epochs, 15);
    // Rejected joins retry every epoch, so acceptance is read off the
    // end state: most of what the displays want is being served.
    let (mut wanted, mut served) = (0, 0);
    for site in SiteId::all(5) {
        wanted += runtime.session().rp(site).aggregated_requests().len();
        served += runtime.granted(site).len();
    }
    assert!(
        served * 2 > wanted,
        "served {served} of {wanted} wanted streams"
    );
}

/// The unicast baseline and the optimal solver bracket the heuristics:
/// optimal ≤ RJ ≤ unicast on a source-constrained instance.
#[test]
fn optimal_rj_unicast_bracket() {
    let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(5));
    let problem = teeve::overlay::ProblemInstance::builder(costs, CostMs::new(50))
        .capacities(vec![
            teeve::overlay::NodeCapacity::symmetric(Degree::new(1)),
            teeve::overlay::NodeCapacity::symmetric(Degree::new(4)),
            teeve::overlay::NodeCapacity::symmetric(Degree::new(4)),
        ])
        .streams_per_site(&[2, 0, 0])
        .subscribe(SiteId::new(1), StreamId::new(SiteId::new(0), 0))
        .subscribe(SiteId::new(2), StreamId::new(SiteId::new(0), 0))
        .subscribe(SiteId::new(1), StreamId::new(SiteId::new(0), 1))
        .subscribe(SiteId::new(2), StreamId::new(SiteId::new(0), 1))
        .build()
        .expect("instance");

    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let optimal = OptimalSolver::default()
        .solve(&problem)
        .expect("small instance")
        .metrics()
        .rejected_requests;
    let rj = RandomJoin
        .construct(&problem, &mut rng)
        .metrics()
        .rejected_requests;
    let unicast = UnicastBaseline
        .construct(&problem, &mut rng)
        .metrics()
        .rejected_requests;
    assert!(optimal <= rj, "optimal {optimal} vs RJ {rj}");
    assert!(rj <= unicast, "RJ {rj} vs unicast {unicast}");
    // Unicast is hard-limited by the source's single out-slot.
    assert_eq!(unicast, 3);
}
