//! Collaborative dance across three cities — the scenario that motivated
//! TEEVE (Yang et al., "A study of collaborative dancing in tele-immersive
//! environments"; the paper's reference [28]).
//!
//! Three dancers — in Urbana, Berkeley, and Miami — share a cyber-space.
//! Each site runs a ring of eight 3D cameras; each dancer's two displays
//! track the *other two* dancers with wide fields of view. The example
//! shows the full path: geometric FOV subscription → overlay construction
//! → simulated dissemination, including the paper's rendering budget
//! analysis (≈10 ms/stream).
//!
//! Run with: `cargo run --example collaborative_dance`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve::geometry::{FieldOfView, Vec3};
use teeve::prelude::*;
use teeve::sim::FaultPlan;
use teeve::types::{Degree, DisplayId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ChaCha8Rng::seed_from_u64(28);

    // Pick the three studio cities from the backbone by name.
    let topo = teeve::topology::backbone_north_america();
    let city_index = |name: &str| {
        (0..topo.node_count())
            .find(|&i| topo.name(i) == name)
            .expect("city in backbone")
    };
    // Urbana isn't a backbone PoP; Chicago is its upstream.
    let pops = vec![
        city_index("Chicago"),
        city_index("Sunnyvale"),
        city_index("Miami"),
    ];
    let session_sample = topo.session_from_pops(pops)?;
    println!(
        "Dance studios (via PoPs): {}",
        session_sample.names.join(", ")
    );
    for i in 0..3 {
        for j in (i + 1)..3 {
            println!(
                "  {} - {}: {}",
                session_sample.names[i],
                session_sample.names[j],
                session_sample
                    .costs
                    .cost(SiteId::new(i as u32), SiteId::new(j as u32))
            );
        }
    }

    // Eight-camera rigs (Figure 4), two displays per dancer, and enough
    // bandwidth for roughly a dozen concurrent streams per site.
    let mut session = Session::builder(session_sample.costs.clone())
        .cameras_per_site(8)
        .displays_per_site(2)
        .symmetric_capacity(Degree::new(12))
        .stream_profile(StreamProfile::compressed_mbps(8))
        .build();

    // Each dancer's display d watches the other dancer (d+1) with a wide
    // FOV from slightly above — the "watch your partner" configuration.
    let n = session.site_count() as u32;
    for site in SiteId::all(3) {
        for d in 0..2u32 {
            let target = SiteId::new((site.index() as u32 + 1 + d) % n);
            let eye = session.space().participant_position(site) + Vec3::new(0.0, 0.0, 2.0);
            let target_pos = session.space().participant_position(target);
            let fov = FieldOfView::looking_at(eye, target_pos, 75.0);
            let picked = session.subscribe_fov(DisplayId::new(site, d), &fov);
            println!(
                "  dancer {site} display {d} tracks {target}: {} streams (best score {:.2})",
                picked.len(),
                picked.first().map_or(0.0, |s| s.score)
            );
        }
    }

    // Construct with CO-RJ: when bandwidth runs short, drop the least
    // critical streams (one of many from the same rig) first.
    let (outcome, plan) = session.build_plan(&CorrelatedRandomJoin, &mut rng)?;
    println!(
        "\nOverlay ({}) - rejection {:.3}, weighted X' {:.4}, deepest tree {} hops",
        outcome.algorithm(),
        outcome.metrics().rejection_ratio(),
        outcome.metrics().weighted_rejection(),
        outcome.metrics().max_tree_depth,
    );

    // Simulate 2 seconds of dancing.
    let report = simulate(&plan, &[], &FaultPlan::none(), &SimConfig::default());
    println!(
        "Delivered {} frames, ratio {:.3}, worst end-to-end latency {}",
        report.total_frames_delivered(),
        report.delivery_ratio(),
        report.worst_latency()
    );
    for site in SiteId::all(3) {
        let streams = report.streams_rendered().get(&site).copied().unwrap_or(0);
        println!(
            "  dancer {site}: renders {streams} remote streams, {:.0}% of the 66 ms frame budget",
            report.render_utilization(site) * 100.0
        );
    }

    // Interactivity check: the paper's bound is on the overlay path; the
    // simulator adds the one-frame serialization pipeline delay.
    let overlay_part = report.worst_overlay_latency();
    println!(
        "Worst overlay latency {} vs bound {} - {}",
        overlay_part,
        plan.cost_bound(),
        if overlay_part.as_millis_f64() < f64::from(plan.cost_bound().as_millis()) + 70.0
        // relay serialization + overheads
        {
            "interactive"
        } else {
            "too slow"
        }
    );
    Ok(())
}
