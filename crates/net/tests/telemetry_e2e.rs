//! End-to-end telemetry acceptance: one registry and flight recorder
//! observing a live TCP fleet through churn, runtime → coordinator →
//! wire.
//!
//! 1. a `SessionRuntime` with telemetry attached drives a `LiveCluster`
//!    through a seeded churn trace — its epoch-phase spans must sum to
//!    the recorded reconvergence times;
//! 2. delivery latency percentiles are read from the merged wire-carried
//!    histograms, and they agree with the scalar counters;
//! 3. a failed reconfiguration leaves a non-empty flight-recorder JSON
//!    naming the failed revision;
//! 4. a reactor-hosted fleet reports its hosting economics — live
//!    connection and registered-RP gauges, threads-per-RP amortization,
//!    wakeup batch sizes — and its lifecycle flight events.

use std::time::Duration;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve_net::{ClusterConfig, Coordinator, LiveCluster, Reactor, RpNodeHandle};
use teeve_overlay::{OverlayManager, ProblemInstance};
use teeve_pubsub::{subscription_universe, DisseminationPlan, PlanDelta, Session, StreamProfile};
use teeve_runtime::{RuntimeConfig, SessionRuntime, TraceConfig};
use teeve_telemetry::{FlightRecorder, MetricsRegistry};
use teeve_types::{CostMatrix, CostMs, Degree, SiteId, StreamId};

#[test]
fn socket_telemetry_observes_a_churning_fleet_end_to_end() {
    let costs = CostMatrix::from_fn(4, |i, j| CostMs::new(3 + ((i * 5 + j) % 4) as u32));
    let session = Session::builder(costs)
        .cameras_per_site(4)
        .displays_per_site(1)
        .symmetric_capacity(Degree::new(8))
        .build();
    let universe = subscription_universe(&session).unwrap();
    let mut runtime = SessionRuntime::new(universe, session, RuntimeConfig::default()).unwrap();

    // One registry + recorder observes the runtime across the whole run.
    let registry = MetricsRegistry::new();
    let recorder = FlightRecorder::new();
    runtime.attach_telemetry(&registry, recorder.clone());

    let trace = TraceConfig {
        epochs: 6,
        events_per_epoch: 3,
        retarget_weight: 4,
        clear_weight: 1,
        leave_weight: 0,
        join_weight: 0,
        bandwidth_weight: 3,
    }
    .generate(4, 1, &mut ChaCha8Rng::seed_from_u64(2008));

    let config = ClusterConfig {
        frames_per_stream: 3,
        payload_bytes: 512,
        frame_interval: Some(Duration::from_millis(2)),
        timeout: Duration::from_secs(20),
    };
    let mut cluster = LiveCluster::launch(runtime.plan(), &config).expect("launch");
    let outcomes = runtime
        .drive_epochs(&trace, &mut cluster)
        .expect("every delta applies to the live fleet");

    // (a) Epoch-phase spans sum to the recorded reconvergence, exactly
    // per epoch (the marks telescope)…
    for outcome in &outcomes {
        assert_eq!(
            outcome.report.phases.total(),
            outcome.report.reconverge,
            "phase spans must partition the epoch"
        );
    }
    // …and in the registry's histograms, up to one microsecond of
    // truncation per phase per epoch.
    let snapshot = registry.snapshot();
    let reconverge = &snapshot.histograms["runtime.reconverge_micros"];
    assert_eq!(reconverge.count(), outcomes.len() as u64);
    let phase_sum: u64 = [
        "runtime.phase.event_drain_micros",
        "runtime.phase.repair_micros",
        "runtime.phase.refit_micros",
        "runtime.phase.derive_micros",
        "runtime.phase.delta_micros",
    ]
    .iter()
    .map(|name| {
        let hist = &snapshot.histograms[*name];
        assert_eq!(hist.count(), outcomes.len() as u64, "{name} per epoch");
        hist.sum()
    })
    .sum();
    let drift = reconverge.sum().abs_diff(phase_sum);
    assert!(
        drift <= 5 * outcomes.len() as u64,
        "phase micros must sum to ~reconverge micros (drift {drift})"
    );

    // The coordinator recorded its own control-plane spans: at least the
    // initial install's Reconfigure→Ack round-trips, one per site.
    let coord = cluster.telemetry().snapshot();
    let rtt = &coord.histograms["coordinator.reconfigure_rtt_micros"];
    assert!(
        rtt.count() >= 4,
        "one RTT sample per initially installed RP"
    );
    assert!(!cluster.flight_recorder().is_empty());

    // (b) Publish a final paced batch, then read true delivery-latency
    // percentiles from the merged wire-carried histograms.
    let deliveries: usize = (0..4)
        .map(|s| runtime.plan().deliveries_to(SiteId::new(s)).len())
        .sum();
    assert!(deliveries > 0, "churned plan still delivers something");
    cluster.publish(3).expect("final batch");
    let report = cluster.shutdown();
    assert_eq!(report.missing_reports, 0, "healthy run loses no reports");

    let merged = report.merged_latency();
    assert_eq!(merged.count(), report.total_delivered());
    assert!(merged.max() > 0, "paced localhost latency is nonzero");
    assert_eq!(merged.max(), report.max_latency_micros);
    let (p50, p99) = (merged.p50(), merged.p99());
    assert!(p50 <= p99 && p99 <= merged.max());
    // Per-pair histograms agree with the scalar counters they ride with.
    for (key, hist) in &report.latency {
        assert_eq!(hist.count(), report.delivered[key]);
        assert_eq!(hist.sum(), report.latency_sum_micros[key]);
    }
}

#[test]
fn socket_reactor_telemetry_reports_hosting_economics() {
    // (d) A reactor observed by a caller-supplied registry + recorder:
    // while a fleet runs on it, the gauges report the hosting economics
    // the fleet-scale bench tracks; after teardown they read zero and
    // the recorder holds the lifecycle events.
    let registry = MetricsRegistry::new();
    let recorder = FlightRecorder::new();
    let reactor =
        Reactor::with_telemetry(2, registry.clone(), recorder.clone()).expect("reactor starts");
    assert_eq!(registry.gauge("reactor.threads").get(), 2);

    let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(3));
    let problem = ProblemInstance::builder(costs, CostMs::new(50))
        .symmetric_capacities(Degree::new(4))
        .streams_per_site(&[1, 0, 0])
        .subscribe(SiteId::new(1), StreamId::new(SiteId::new(0), 0))
        .subscribe(SiteId::new(2), StreamId::new(SiteId::new(0), 0))
        .build()
        .unwrap();
    let mut manager = OverlayManager::new(problem.clone());
    manager
        .subscribe(SiteId::new(1), StreamId::new(SiteId::new(0), 0))
        .unwrap();
    manager
        .subscribe(SiteId::new(2), StreamId::new(SiteId::new(0), 0))
        .unwrap();
    let plan = DisseminationPlan::from_forest(
        &problem,
        &manager.forest_snapshot(),
        StreamProfile::default(),
    );
    let config = ClusterConfig {
        frames_per_stream: 3,
        payload_bytes: 256,
        frame_interval: None,
        timeout: Duration::from_secs(20),
    };
    let mut cluster = LiveCluster::launch_reactor(&plan, &config, &reactor).expect("launch");

    // While the fleet is up: every RP registered, its control connection
    // (and any data links) live, and the thread amortization measured.
    // 3 RPs on 2 loop threads: 2000/3 = 666 milli-threads per RP.
    assert_eq!(registry.gauge("reactor.nodes.registered").get(), 3);
    assert!(registry.gauge("reactor.connections.live").get() >= 3);
    let per_rp_milli = registry.gauge("reactor.threads_per_rp_milli").get();
    assert!(
        per_rp_milli <= 2 * 1000 / 3 + 1,
        "2 threads over 3 RPs must amortize below one thread per RP, got {per_rp_milli}"
    );

    cluster.publish(3).expect("batch delivers");
    let report = cluster.shutdown();
    assert_eq!(report.total_delivered(), 6);

    // After a graceful shutdown the level gauges return to zero…
    assert_eq!(registry.gauge("reactor.nodes.registered").get(), 0);
    assert_eq!(registry.gauge("reactor.connections.live").get(), 0);
    // …the wakeup histogram saw the event loops actually running…
    let snapshot = registry.snapshot();
    let wakeups = &snapshot.histograms["reactor.wakeup_batch"];
    assert!(wakeups.count() > 0, "event loops must have polled");
    assert!(wakeups.max() >= 1, "wakeups carried readiness records");
    // …and dropping the reactor completes the flight-recorder story.
    drop(reactor);
    assert_eq!(registry.gauge("reactor.threads").get(), 0);
    let kinds: Vec<_> = recorder.events().into_iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&teeve_telemetry::FlightEventKind::ReactorStart { threads: 2 }));
    assert!(kinds.contains(&teeve_telemetry::FlightEventKind::ReactorStop { threads: 2 }));
}

#[test]
fn socket_poisoned_fleet_dumps_a_flight_recording_naming_the_reconfigure() {
    // Site 2's RP dies before a delta that must open a link to it; the
    // coordinator's flight dump is the postmortem of the failed revision.
    let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(4));
    let problem = ProblemInstance::builder(costs, CostMs::new(50))
        .symmetric_capacities(Degree::new(6))
        .streams_per_site(&[1, 0, 0])
        .subscribe(SiteId::new(1), StreamId::new(SiteId::new(0), 0))
        .subscribe(SiteId::new(2), StreamId::new(SiteId::new(0), 0))
        .build()
        .unwrap();
    let mut manager = OverlayManager::new(problem.clone());
    manager
        .subscribe(SiteId::new(1), StreamId::new(SiteId::new(0), 0))
        .unwrap();
    let plan_a = DisseminationPlan::from_forest(
        &problem,
        &manager.forest_snapshot(),
        StreamProfile::default(),
    );

    let reactor = Reactor::new(1).expect("reactor starts");
    let mut nodes: Vec<RpNodeHandle> = SiteId::all(3)
        .map(|s| reactor.bind_node(s).expect("bind"))
        .collect();
    let addrs: Vec<_> = nodes.iter().map(RpNodeHandle::addr).collect();
    let config = ClusterConfig {
        frames_per_stream: 2,
        payload_bytes: 256,
        frame_interval: None,
        timeout: Duration::from_secs(5),
    };
    let mut coordinator = Coordinator::connect(&plan_a, &addrs, &config).expect("connect");
    coordinator.publish(2).expect("healthy batch");

    // The surviving RPs' own recorders saw the install and link churn.
    assert!(nodes[0].flight_recorder().recorded() > 0);

    let victim = nodes.remove(2);
    victim.stop();
    victim.join();
    manager
        .subscribe(SiteId::new(2), StreamId::new(SiteId::new(0), 0))
        .unwrap();
    let mut plan_b = DisseminationPlan::from_forest(
        &problem,
        &manager.forest_snapshot(),
        StreamProfile::default(),
    );
    plan_b.set_revision(1);
    let delta = PlanDelta::diff(&plan_a, &plan_b);

    coordinator.apply_delta(&delta).unwrap_err();

    // (c) The dump is non-empty JSON naming the failed reconfigure.
    let dump = coordinator.flight_json().expect("dump serializes");
    assert!(
        dump.contains("Poisoned"),
        "dump names the failed reconfiguration: {dump}"
    );
    assert!(
        dump.contains("\"revision\":1"),
        "dump names the failed revision: {dump}"
    );

    // Shutdown names the dead RP's lost report, in the count and in the
    // flight stream.
    let events_before = coordinator.flight_recorder().clone();
    let report = coordinator.shutdown();
    assert!(report.missing_reports >= 1);
    assert!(events_before.events().iter().any(|e| matches!(
        e.kind,
        teeve_telemetry::FlightEventKind::StatsLost { site: 2 }
    )));
    for node in nodes {
        node.stop();
        node.join();
    }
}
