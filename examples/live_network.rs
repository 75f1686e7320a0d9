//! Live dissemination over real TCP sockets.
//!
//! Builds a 4-site session, constructs the overlay, then launches one
//! rendezvous-point daemon per site on 127.0.0.1. Origins publish real
//! framed messages; relays forward them along the multicast trees exactly
//! as the plan dictates; the example verifies every planned delivery
//! happened.
//!
//! Run with: `cargo run --example live_network`

use std::time::Duration;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve::net::{ClusterConfig, LiveCluster};
use teeve::prelude::*;
use teeve::types::{Degree, DisplayId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let topo = teeve::topology::backbone_north_america();
    let sample = topo.sample_session(4, &mut rng)?;
    println!("Sites: {}", sample.names.join(", "));

    let mut session = Session::builder(sample.costs.clone())
        .cameras_per_site(4)
        .displays_per_site(1)
        .symmetric_capacity(Degree::new(8))
        .build();
    let n = session.site_count() as u32;
    for site in SiteId::all(4) {
        let target = SiteId::new((site.index() as u32 + 1) % n);
        session.subscribe_viewpoint(DisplayId::new(site, 0), target);
    }

    let (outcome, plan) = session.build_plan(&RandomJoin, &mut rng)?;
    println!(
        "Overlay constructed: {} trees, {} planned deliveries",
        outcome.forest().len(),
        plan.site_plans()
            .iter()
            .map(|sp| sp.in_degree())
            .sum::<usize>()
    );

    let config = ClusterConfig {
        frames_per_stream: 30,
        payload_bytes: 4096,
        frame_interval: Some(Duration::from_millis(10)),
        timeout: Duration::from_secs(30),
    };
    println!(
        "Launching {} RP daemons on 127.0.0.1, {} frames per stream …",
        plan.site_count(),
        config.frames_per_stream
    );
    let mut cluster = LiveCluster::launch(&plan, &config)?;
    cluster.publish(config.frames_per_stream)?;
    let report = cluster.shutdown();

    println!(
        "Delivered {} frames in {:?} (worst socket latency {:.2} ms)",
        report.total_delivered(),
        report.elapsed,
        report.max_latency_micros as f64 / 1000.0
    );
    for ((site, stream), count) in &report.delivered {
        println!("  {site} received {count} frames of {stream}");
    }

    // Every planned delivery must have completed in full.
    for sp in plan.site_plans() {
        for stream in sp.received_streams() {
            let got = report
                .delivered
                .get(&(sp.site, stream))
                .copied()
                .unwrap_or(0);
            assert_eq!(
                got, config.frames_per_stream,
                "missing frames at {}",
                sp.site
            );
        }
    }
    println!("All planned deliveries verified.");
    Ok(())
}
