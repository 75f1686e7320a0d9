//! Quickstart: the complete TEEVE pipeline in one page.
//!
//! 1. Sample a 4-site session from the North-American backbone (the
//!    paper's Mapnet setup).
//! 2. Let each site's display subscribe with a field of view.
//! 3. Construct the overlay forest with Random Join (the paper's winner).
//! 4. Execute the plan in the discrete-event simulator.
//!
//! Run with: `cargo run --example quickstart`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve::prelude::*;
use teeve::sim::FaultPlan;
use teeve_types::DisplayId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ChaCha8Rng::seed_from_u64(2008);

    // 1. A 4-site session: real PoP cities, costs from geography.
    let topo = teeve::topology::backbone_north_america();
    let session_sample = topo.sample_session(4, &mut rng)?;
    println!("Session sites: {}", session_sample.names.join(", "));

    // 2. Build the pub-sub session: 8 cameras and 2 displays per site.
    let mut session = Session::builder(session_sample.costs.clone())
        .cameras_per_site(8)
        .displays_per_site(2)
        .symmetric_capacity(teeve::types::Degree::new(12))
        .build();

    // Every site's displays watch the two "next" participants around the
    // virtual meeting circle.
    let n = session.site_count();
    for site in SiteId::all(n) {
        for (d, hop) in [(0u32, 1u32), (1, 2)] {
            let target = SiteId::new((site.index() as u32 + hop) % n as u32);
            let display = DisplayId::new(site, d);
            let picked = session.subscribe_viewpoint(display, target);
            println!(
                "{display} watches {target}: {} contributing streams",
                picked.len()
            );
        }
    }

    // 3. The membership server constructs the overlay with Random Join.
    let (outcome, plan) = session.build_plan(&RandomJoin, &mut rng)?;
    let metrics = outcome.metrics();
    println!(
        "\nOverlay: {} trees, rejection ratio {:.3}, max path cost {}",
        outcome.forest().len(),
        metrics.rejection_ratio(),
        metrics.max_path_cost
    );
    for site in SiteId::all(n) {
        println!(
            "  {site} receives {} streams, forwards {} copies",
            plan.site_plan(site).in_degree(),
            plan.site_plan(site).out_degree()
        );
    }

    // 4. Run 2 simulated seconds of 8 Mbps / 15 fps streams over the plan.
    let report = simulate(&plan, &[], &FaultPlan::none(), &SimConfig::default());
    println!(
        "\nSimulation: {} frames delivered (ratio {:.3}), worst latency {}",
        report.total_frames_delivered(),
        report.delivery_ratio(),
        report.worst_latency()
    );
    for site in SiteId::all(n) {
        println!(
            "  {site}: render budget {:.0}% of a frame interval",
            report.render_utilization(site) * 100.0
        );
    }
    Ok(())
}
