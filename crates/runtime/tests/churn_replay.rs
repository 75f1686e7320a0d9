//! Integration test: a seeded churn trace of well over 100 events is
//! replayed through the runtime, checking after every epoch that
//!
//! * the live forest satisfies every static invariant of the paper's
//!   construction problem, and
//! * applying the emitted [`PlanDelta`] to the previous plan reproduces
//!   the plan derived from the forest (delta application ≡ full rebuild).
//!
//! The collected deltas then drive the delta-aware simulator end to end.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve_pubsub::{subscription_universe, DisseminationPlan, Session};
use teeve_runtime::{FallbackPolicy, RuntimeConfig, RuntimeEvent, SessionRuntime, TraceConfig};
use teeve_sim::{simulate, FaultPlan, SimConfig, SimTime};
use teeve_types::{CostMatrix, CostMs, Degree, DisplayId, SiteId};

const SITES: usize = 8;
const DISPLAYS: u32 = 2;

fn session() -> Session {
    let costs = CostMatrix::from_fn(SITES, |i, j| CostMs::new(4 + ((i * 7 + j * 3) % 9) as u32));
    Session::builder(costs)
        .cameras_per_site(6)
        .displays_per_site(DISPLAYS)
        .symmetric_capacity(Degree::new(9))
        .build()
}

fn trace(seed: u64) -> Vec<Vec<RuntimeEvent>> {
    // 40 epochs × 4 events = 160 scripted events (a few draws may be
    // skipped by the generator's liveness guards; well over 100 remain).
    let config = TraceConfig {
        epochs: 40,
        events_per_epoch: 4,
        ..TraceConfig::default()
    };
    let trace = config.generate(SITES, DISPLAYS, &mut ChaCha8Rng::seed_from_u64(seed));
    let total: usize = trace.iter().map(Vec::len).sum();
    assert!(total >= 100, "trace only scripted {total} events");
    trace
}

#[test]
fn replayed_trace_validates_every_epoch_and_deltas_match_rebuilds() {
    let session = session();
    let universe = subscription_universe(&session).unwrap();
    let mut runtime = SessionRuntime::new(universe, session, RuntimeConfig::default()).unwrap();

    let mut shadow: DisseminationPlan = runtime.plan().clone();
    let mut overlay_events = 0usize;
    for (i, epoch) in trace(2008).iter().enumerate() {
        overlay_events += epoch.iter().filter(|e| e.affects_overlay()).count();
        let outcome = runtime.apply_epoch(epoch);

        // Invariants hold after every epoch.
        runtime
            .validate()
            .unwrap_or_else(|violation| panic!("epoch {i}: {violation}"));

        // Applying the delta to the previous plan must be equivalent to
        // rebuilding the plan from the live forest — quality stamps
        // included: the rebuild is re-stamped from the runtime's live
        // per-subscription quality state, exactly as the runtime stamps
        // its own derived plans.
        outcome
            .delta
            .apply(&mut shadow)
            .unwrap_or_else(|e| panic!("epoch {i}: delta failed to apply: {e}"));
        let mut rebuilt = DisseminationPlan::from_forest(
            runtime.universe(),
            &runtime.forest_snapshot(),
            runtime.session().profile(),
        );
        // Freshly derived plans carry revision 0; the comparison is about
        // forwarding state, so stamp the rebuild with the epoch revision.
        rebuilt.set_revision(shadow.revision());
        for site in SiteId::all(SITES) {
            for stream in rebuilt.deliveries_to(site) {
                rebuilt.set_quality(site, stream, runtime.quality_of(site, stream));
            }
        }
        assert_eq!(shadow, rebuilt, "epoch {i}: delta application diverged");
        assert_eq!(&shadow, runtime.plan(), "epoch {i}: runtime plan diverged");

        // The metrics account for the epoch's work.
        assert_eq!(outcome.report.epoch, i as u64);
        assert_eq!(outcome.report.events, epoch.len());
    }
    assert!(overlay_events >= 100);

    let report = runtime.report();
    assert_eq!(report.epochs, 40);
    assert!(report.subscribes > 0);
    assert!(report.accepted > 0);
}

#[test]
fn incremental_and_rebuild_paths_grant_the_same_service_guarantees() {
    // Whatever path served an epoch, granted state must match the plan.
    // Tight capacity (3 streams in/out against top-4 FOV demand) forces
    // relaying and rejections, so the tight fall-back policy trips.
    let costs = CostMatrix::from_fn(SITES, |i, j| CostMs::new(4 + ((i * 7 + j * 3) % 9) as u32));
    let session = Session::builder(costs)
        .cameras_per_site(6)
        .displays_per_site(DISPLAYS)
        .symmetric_capacity(Degree::new(3))
        .build();
    let universe = subscription_universe(&session).unwrap();
    let mut runtime = SessionRuntime::new(
        universe,
        session,
        RuntimeConfig {
            fallback: FallbackPolicy {
                max_epoch_rejection_ratio: 0.1,
                max_tree_depth: 2,
            },
            ..RuntimeConfig::default()
        },
    )
    .unwrap();

    let mut rebuilds = 0;
    for epoch in trace(7) {
        let outcome = runtime.apply_epoch(&epoch);
        rebuilds += usize::from(outcome.report.rebuilt);
        runtime.validate().unwrap();
        for site in SiteId::all(SITES) {
            let planned = runtime.plan().deliveries_to(site);
            let granted = runtime.granted(site);
            assert_eq!(
                planned
                    .iter()
                    .copied()
                    .collect::<std::collections::BTreeSet<_>>(),
                granted.clone(),
                "plan and granted state diverged at {site}"
            );
        }
    }
    assert!(rebuilds > 0, "the tight policy should trip at least once");
}

#[test]
fn runtime_deltas_drive_the_simulator_end_to_end() {
    let session = session();
    let universe = subscription_universe(&session).unwrap();
    let mut runtime = SessionRuntime::new(universe, session, RuntimeConfig::default()).unwrap();

    // Initial demand, then two live FOV swings at 400 ms and 800 ms.
    let initial = runtime.apply_epoch(&[
        RuntimeEvent::Viewpoint {
            display: DisplayId::new(SiteId::new(0), 0),
            target: SiteId::new(1),
        },
        RuntimeEvent::Viewpoint {
            display: DisplayId::new(SiteId::new(2), 0),
            target: SiteId::new(1),
        },
    ]);
    assert!(initial.report.accepted > 0);
    let base_plan = runtime.plan().clone();

    let swing1 = runtime.apply_epoch(&[RuntimeEvent::Viewpoint {
        display: DisplayId::new(SiteId::new(0), 0),
        target: SiteId::new(3),
    }]);
    let swing2 = runtime.apply_epoch(&[RuntimeEvent::FovClear {
        display: DisplayId::new(SiteId::new(2), 0),
    }]);
    assert!(!swing1.delta.is_empty());
    assert!(!swing2.delta.is_empty());

    let config = SimConfig::default().with_duration(SimTime::from_millis(1200));
    let report = simulate(
        &base_plan,
        &[
            (SimTime::from_millis(400), swing1.delta),
            (SimTime::from_millis(800), swing2.delta),
        ],
        &FaultPlan::none(),
        &config,
    );
    assert!(report.total_frames_delivered() > 0);
    let ratio = report.delivery_ratio();
    assert!(
        (0.85..=1.0).contains(&ratio),
        "replanned run delivered ratio {ratio}"
    );
}
