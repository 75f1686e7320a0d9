//! Failure drill: what a relay crash costs, and how dynamic overlay
//! maintenance recovers.
//!
//! 1. Build a 5-site overlay with the dynamic overlay manager and find
//!    the busiest relay.
//! 2. Inject its crash into the discrete-event simulation and measure the
//!    silenced subtrees.
//! 3. Recover with the same manager: unsubscribe the failed site's
//!    requests, which re-attaches its orphaned downstreams, and apply the
//!    recovered plan as a replan shortly after the crash — crash and
//!    recovery in one simulated run.
//!
//! Run with: `cargo run --release --example failure_drill`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve::overlay::{OverlayManager, SubscribeResult};
use teeve::prelude::*;
use teeve::sim::{simulate, FaultImpact, FaultPlan, SimConfig, SimTime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ChaCha8Rng::seed_from_u64(505);
    let topo = teeve::topology::backbone_north_america();
    let sample = topo.sample_session(5, &mut rng)?;
    println!("Sites: {}", sample.names.join(", "));

    let problem = WorkloadConfig::zipf_uniform().generate(&sample.costs, &mut rng)?;
    let profile = StreamProfile::compressed_mbps(8);
    let mut manager = OverlayManager::new(problem.clone()).with_correlation_swapping();
    let (mut joined, mut rejected) = (0usize, 0usize);
    for request in problem.requests() {
        match manager.subscribe(request.subscriber, request.stream)? {
            SubscribeResult::Joined { .. } | SubscribeResult::AlreadyJoined => joined += 1,
            SubscribeResult::Rejected => rejected += 1,
        }
    }
    println!("Overlay: {joined} subscriptions joined, {rejected} rejected");
    let forest = manager.forest_snapshot();
    let plan = DisseminationPlan::from_forest(&problem, &forest, profile);

    // The busiest relay: the site forwarding the most non-local copies.
    let relay = SiteId::all(5)
        .max_by_key(|&s| forest.relay_degree(s))
        .expect("five sites");
    println!(
        "Busiest relay: {} ({}) forwarding {} copies of other sites' streams",
        relay,
        sample.names[relay.index()],
        forest.relay_degree(relay)
    );

    // Baseline vs. crash at t = 500 ms.
    let config = SimConfig::default();
    let crash_at = SimTime::from_millis(500);
    let faults = FaultPlan::none().with_crash(relay, crash_at);
    let baseline = simulate(&plan, &[], &FaultPlan::none(), &config);
    let crashed = simulate(&plan, &[], &faults, &config);
    let pairs: Vec<_> = plan
        .site_plans()
        .iter()
        .flat_map(|sp| {
            sp.received_streams()
                .map(move |s| (sp.site, s))
                .collect::<Vec<_>>()
        })
        .collect();
    let impact = FaultImpact::compare(&baseline, &crashed, pairs);
    println!(
        "\nCrash impact: delivery {:.3} -> {:.3}; {} (site, stream) pairs fully silenced",
        impact.baseline_delivery,
        impact.faulty_delivery,
        impact.silenced.len()
    );

    // Recovery: drop the failed site's demand from the same manager, which
    // re-joins every orphaned downstream it still can.
    let (mut reattached, mut dropped) = (0usize, 0usize);
    for request in problem.requests().filter(|r| r.subscriber == relay) {
        let result = manager.unsubscribe(relay, request.stream)?;
        reattached += result.reattached.len();
        dropped += result.dropped.len();
    }
    println!(
        "\nRecovery without {relay}: {reattached} orphaned subscriptions re-attached, {dropped} dropped"
    );
    let recovered = DisseminationPlan::from_forest(&problem, &manager.forest_snapshot(), profile);
    let recover_at = crash_at + SimTime::from_millis(200);
    let replans = [(recover_at, PlanDelta::diff(&plan, &recovered))];
    let healed = simulate(&plan, &replans, &faults, &config);
    println!(
        "Delivery ratio: crash only {:.3}, crash + recovery at {} {:.3} (worst latency {})",
        crashed.delivery_ratio(),
        recover_at,
        healed.delivery_ratio(),
        healed.worst_latency()
    );
    Ok(())
}
