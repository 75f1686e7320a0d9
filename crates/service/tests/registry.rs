//! Registry-level guarantees of the multi-session service: collision-free
//! session allocation, per-session isolation under concurrent churn at
//! the acceptance scale (≥32 sessions of 16 sites), and create/close
//! racing a bulk drive on the one registry lock.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve_pubsub::{subscription_universe, Session};
use teeve_runtime::{EpochReport, RuntimeConfig, RuntimeEvent, SessionRuntime, TraceConfig};
use teeve_service::{MembershipService, SessionSpec};
use teeve_types::{CostMatrix, CostMs, Degree};

/// A session whose cost structure depends on `index`, so different
/// sessions build genuinely different overlays and any cross-session
/// bleed shows up as a plan mismatch.
fn session(index: usize, sites: usize) -> Session {
    let costs = CostMatrix::from_fn(sites, |i, j| {
        CostMs::new(3 + ((i * 31 + j * 17 + index * 7) % 9) as u32)
    });
    Session::builder(costs)
        .cameras_per_site(6)
        .displays_per_site(2)
        .symmetric_capacity(Degree::new(10))
        .build()
}

fn churn_trace(index: usize, sites: usize, epochs: usize) -> Vec<Vec<RuntimeEvent>> {
    let config = TraceConfig {
        epochs,
        events_per_epoch: 4,
        ..TraceConfig::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(1000 + index as u64);
    config.generate(sites, 2, &mut rng)
}

/// The fields of an epoch report that must be identical whether the
/// session ran alone or among dozens (wall-clock reconvergence is not).
fn comparable(
    report: &EpochReport,
) -> (u64, usize, usize, usize, usize, usize, usize, usize, bool) {
    (
        report.epoch,
        report.events,
        report.subscribes,
        report.accepted,
        report.rejected,
        report.unsubscribes,
        report.delta_entries,
        report.plan_entries,
        report.rebuilt,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Allocated sessions never collide: every id is distinct and stays
    /// reachable through the registry while hosted.
    #[test]
    fn allocated_sessions_are_collision_free(count in 1usize..24) {
        let service = MembershipService::new();
        let mut ids = Vec::new();
        for _ in 0..count {
            ids.push(service.create_session(SessionSpec::new(session(0, 4))).unwrap().id());
        }
        let unique: std::collections::BTreeSet<_> = ids.iter().copied().collect();
        prop_assert_eq!(unique.len(), ids.len(), "ids must never repeat");
        prop_assert_eq!(service.session_count(), count);
        for &id in &ids {
            prop_assert!(service.contains(id));
        }
        // Closing one session removes exactly that session.
        let closed = ids[ids.len() / 2];
        service.close_session(closed).unwrap();
        prop_assert!(!service.contains(closed));
        for &id in ids.iter().filter(|&&id| id != closed) {
            prop_assert!(service.contains(id));
        }
    }
}

/// The acceptance-scale stress test: 32 sessions of 16 sites, driven
/// concurrently from 8 threads through seeded churn traces. Every epoch
/// must keep every session's forest valid, and afterwards each session's
/// metrics and final plan must be bit-identical to a standalone
/// `SessionRuntime` replaying the same trace — i.e. zero cross-session
/// plan or metric bleed.
#[test]
fn concurrent_sessions_stay_isolated() {
    const SESSIONS: usize = 32;
    const SITES: usize = 16;
    const EPOCHS: usize = 10;
    const THREADS: usize = 8;

    let service = MembershipService::new();
    let handles: Vec<_> = (0..SESSIONS)
        .map(|i| {
            service
                .create_session(SessionSpec::new(session(i, SITES)))
                .expect("16-site sessions are valid")
        })
        .collect();

    std::thread::scope(|scope| {
        for chunk in handles.chunks(SESSIONS / THREADS) {
            scope.spawn(|| {
                for (offset, handle) in chunk.iter().enumerate() {
                    let index = handle.id().raw() as usize;
                    let trace = churn_trace(index, SITES, EPOCHS);
                    for (e, epoch) in trace.iter().enumerate() {
                        // Alternate the two submission paths: queue+drive
                        // and direct drive must behave identically.
                        let outcome = if (e + offset) % 2 == 0 {
                            handle.submit_requests(epoch.clone()).unwrap();
                            handle.drive_epoch(&[]).unwrap()
                        } else {
                            handle.drive_epoch(epoch).unwrap()
                        };
                        assert_eq!(
                            outcome.delta.scope(),
                            Some(handle.id()),
                            "every delta is scoped to its session"
                        );
                        handle
                            .validate()
                            .expect("forest invariants hold every epoch");
                    }
                }
            });
        }
    });

    // Golden replay: the same traces driven through standalone runtimes.
    // Identical metrics and plans prove the registry never let sessions
    // interfere.
    for handle in &handles {
        let index = handle.id().raw() as usize;
        let golden_session = session(index, SITES);
        let universe = subscription_universe(&golden_session).unwrap();
        let mut golden = SessionRuntime::new(universe, golden_session, RuntimeConfig::default())
            .unwrap()
            .with_scope(handle.id());
        for epoch in &churn_trace(index, SITES, EPOCHS) {
            golden.apply_epoch(epoch);
        }

        let report = handle.report().unwrap();
        assert_eq!(report.epochs, EPOCHS);
        let golden_report = golden.report();
        assert_eq!(report.subscribes, golden_report.subscribes);
        assert_eq!(report.accepted, golden_report.accepted);
        assert_eq!(report.rebuilds, golden_report.rebuilds);
        assert_eq!(
            report.dropped_subscriptions,
            golden_report.dropped_subscriptions
        );
        assert_eq!(report.delta_entries, golden_report.delta_entries);
        assert_eq!(report.plan_entries, golden_report.plan_entries);
        assert_eq!(
            handle.plan().unwrap(),
            *golden.plan(),
            "session {} final plan must match its solo replay exactly",
            handle.id()
        );
    }

    // drive_all keeps the isolation: one bulk pass equals each golden
    // runtime's next (quiet) epoch.
    let bulk = service.drive_all();
    assert_eq!(bulk.sessions, SESSIONS);
    for handle in &handles {
        let index = handle.id().raw() as usize;
        let golden_session = session(index, SITES);
        let universe = subscription_universe(&golden_session).unwrap();
        let mut golden = SessionRuntime::new(universe, golden_session, RuntimeConfig::default())
            .unwrap()
            .with_scope(handle.id());
        for epoch in &churn_trace(index, SITES, EPOCHS) {
            golden.apply_epoch(epoch);
        }
        let golden_quiet = golden.apply_epoch(&[]);
        let bulk_report = &bulk.per_session[&handle.id()];
        assert_eq!(comparable(bulk_report), comparable(&golden_quiet.report));
        assert_eq!(handle.plan().unwrap(), *golden.plan());
        handle.validate().unwrap();
    }
}

/// Create and close race a bulk pass on the one registry lock: churner
/// threads admit sessions and close them while another thread loops
/// `drive_all`. Only the bulk driver ever drives an epoch here, so a
/// closed session's final report counts exactly the passes that drove
/// it — one epoch more on the driver's side would be a session driven
/// after its close handed that report out.
#[test]
fn create_and_close_race_a_bulk_drive() {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Barrier;
    use teeve_types::SessionId;

    const STABLE: usize = 4;
    const CHURNERS: usize = 3;
    const ROUNDS: usize = 25;

    let service = MembershipService::new();
    let stable: Vec<_> = (0..STABLE)
        .map(|i| {
            service
                .create_session(SessionSpec::new(session(i, 4)))
                .unwrap()
        })
        .collect();
    let start = Barrier::new(CHURNERS + 1);
    let started = AtomicU64::new(0);
    let churning = AtomicBool::new(true);

    let (driven, passes, closed) = std::thread::scope(|scope| {
        let driver = scope.spawn(|| {
            let mut driven: BTreeMap<SessionId, usize> = BTreeMap::new();
            let mut passes = 0;
            start.wait();
            while churning.load(Ordering::SeqCst) {
                started.fetch_add(1, Ordering::SeqCst);
                let report = service.drive_all();
                assert_eq!(report.sessions, report.per_session.len());
                assert!(report.sessions >= STABLE, "stable sessions never skip");
                for id in report.per_session.keys() {
                    *driven.entry(*id).or_default() += 1;
                }
                passes += 1;
            }
            (driven, passes)
        });
        let churners: Vec<_> = (0..CHURNERS)
            .map(|c| {
                let (service, start, started) = (&service, &start, &started);
                scope.spawn(move || {
                    let mut closed = Vec::new();
                    start.wait();
                    for round in 0..ROUNDS {
                        let handle = service
                            .create_session(SessionSpec::new(session(c * ROUNDS + round, 4)))
                            .unwrap();
                        let id = handle.id();
                        handle
                            .submit_requests(churn_trace(round, 4, 1).remove(0))
                            .unwrap();
                        // Close as the next pass starts, so the removal
                        // lands between that pass's snapshot and its
                        // turn at this session's slot.
                        let seen = started.load(Ordering::SeqCst);
                        while started.load(Ordering::SeqCst) == seen {
                            std::thread::yield_now();
                        }
                        let report = handle.close().unwrap();
                        assert!(!service.contains(id));
                        closed.push((id, report.epochs));
                    }
                    closed
                })
            })
            .collect();
        let closed: Vec<_> = churners
            .into_iter()
            .flat_map(|c| c.join().expect("churner finished"))
            .collect();
        churning.store(false, Ordering::SeqCst);
        let (driven, passes) = driver.join().expect("driver finished");
        (driven, passes, closed)
    });

    assert_eq!(closed.len(), CHURNERS * ROUNDS);
    for (id, epochs) in closed {
        assert_eq!(
            driven.get(&id).copied().unwrap_or(0),
            epochs,
            "{id} was driven after its close reported {epochs} epochs"
        );
    }
    // The stable sessions were in every pass, exactly once each.
    for handle in &stable {
        assert_eq!(handle.epoch().unwrap(), passes);
        handle.validate().unwrap();
    }
    assert_eq!(service.session_count(), STABLE);
    assert_eq!(service.drive_all().sessions, STABLE);
}
