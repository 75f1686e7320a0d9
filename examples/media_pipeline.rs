//! The paper's bandwidth story, measured: a raw 3D stream at
//! `640 × 480 × 15 fps × 5 B/pixel ≈ 184 Mbps` is pushed through the
//! reduction chain of Section 1 — background subtraction, resolution
//! reduction, real-time compression — and lands in the 5–10 Mbps band the
//! evaluation assumes. The measured bit rate then becomes the stream
//! profile of a simulated multi-site session.
//!
//! Run with: `cargo run --example media_pipeline`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve::media::{
    raw_bitrate_bps, PipelineStats, ReductionPipeline, SyntheticCapture, FRAME_FPS, FRAME_HEIGHT,
    FRAME_WIDTH,
};
use teeve::prelude::*;
use teeve::sim::FaultPlan;
use teeve::types::DisplayId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. One synthetic 3D camera per angle of an 8-camera ring.
    let pipeline = ReductionPipeline::paper();
    println!(
        "raw stream: {} x {} @ {} fps = {:.1} Mbps",
        FRAME_WIDTH,
        FRAME_HEIGHT,
        FRAME_FPS,
        raw_bitrate_bps(FRAME_WIDTH, FRAME_HEIGHT, FRAME_FPS) as f64 / 1e6
    );
    println!("\ncamera  foreground  reduced   compressed  ratio");

    let mut worst_mbps: f64 = 0.0;
    for cam_index in 0..8u64 {
        let azimuth = cam_index as f64 * std::f64::consts::TAU / 8.0;
        let camera = SyntheticCapture::new(FRAME_WIDTH, FRAME_HEIGHT, 2008 + cam_index);
        let mut stats = PipelineStats::new();
        for seq in 0..FRAME_FPS as u64 {
            stats.record(&pipeline.process(&camera.capture(azimuth, seq)).bytes);
        }
        let totals = stats.totals();
        let frames = stats.frames();
        let mbps = stats.bitrate_mbps(FRAME_FPS);
        worst_mbps = worst_mbps.max(mbps);
        println!(
            "cam {cam_index}   {:7.1} kB  {:6.1} kB  {:6.1} kB    {:5.1}x  ({mbps:.2} Mbps)",
            totals.foreground as f64 / frames as f64 / 1e3,
            totals.reduced as f64 / frames as f64 / 1e3,
            totals.compressed as f64 / frames as f64 / 1e3,
            stats.mean_compression_ratio(),
        );
    }

    // 2. Provision streams at the worst measured rate (rounded up).
    let provisioned = (worst_mbps.ceil() as u64).max(1);
    println!("\nprovisioning streams at {provisioned} Mbps (worst measured camera)");
    let profile = StreamProfile::compressed_mbps(provisioned);

    // 3. A 4-site session carried at the measured profile.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let sample = teeve::topology::backbone_north_america().sample_session(4, &mut rng)?;
    let mut session = Session::builder(sample.costs.clone())
        .cameras_per_site(8)
        .displays_per_site(1)
        .symmetric_capacity(teeve::types::Degree::new(12))
        .stream_profile(profile)
        .build();
    let n = session.site_count();
    for site in SiteId::all(n) {
        let target = SiteId::new((site.index() as u32 + 1) % n as u32);
        session.subscribe_viewpoint(DisplayId::new(site, 0), target);
    }
    let (outcome, plan) = session.build_plan(&RandomJoin, &mut rng)?;
    let report = simulate(&plan, &[], &FaultPlan::none(), &SimConfig::short());
    println!(
        "overlay rejection {:.3}, sim delivery {:.3}, worst latency {}",
        outcome.metrics().rejection_ratio(),
        report.delivery_ratio(),
        report.worst_latency(),
    );
    // For scale: a raw 1.5 MB frame on a 100 Mbps site link serializes
    // for ~123 ms — alone already past any interactive bound. That is why
    // the evaluation only ever ships reduced streams.
    let raw_frame_bytes = raw_bitrate_bps(FRAME_WIDTH, FRAME_HEIGHT, FRAME_FPS) / 8 / 15;
    println!(
        "(one RAW frame on a 100 Mbps link would serialize for {} ms)",
        raw_frame_bytes * 8 * 1_000 / 100_000_000
    );
    Ok(())
}
