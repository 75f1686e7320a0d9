//! Layer replay: timings of layers that, in the measured loop, run nested
//! inside another crate's call (`pubsub`, `store`) or only during set-up
//! (`geometry`, `topology`), plus the wire codec at the workload's frame
//! size. Each is timed alone, after the loop, on the same seeded inputs
//! the loop consumed.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve_net::wire::{self, Message};
use teeve_pubsub::{subscription_universe, DisseminationPlan, PlanDelta};
use teeve_runtime::{RuntimeConfig, RuntimeEvent, SessionRuntime};
use teeve_store::SessionStore;
use teeve_topology::backbone_north_america;
use teeve_types::{Quality, SessionId, SiteId, StreamId};

use crate::rig::{Res, TempLog};
use crate::workload::Workload;

/// Epochs the control-plane replay drives.
const REPLAY_EPOCHS: usize = 256;
/// Most iterations of a timed codec loop, and the most bytes one may
/// encode in total (the decode loop holds them all in one buffer).
const CODEC_ITERATIONS: usize = 2_000;
const CODEC_BYTES: usize = 8 * 1024 * 1024;
/// Topology samples timed (each runs all-pairs shortest paths).
const TOPOLOGY_SAMPLES: usize = 16;

/// Mean cost of one call into each replayed layer.
#[derive(Debug, Default)]
pub struct LayerTimes {
    pub pubsub_derive_us: f64,
    pub pubsub_diff_us: f64,
    pub pubsub_apply_us: f64,
    pub store_append_us: f64,
    pub store_bytes_per_commit: f64,
    pub store_open_us_per_record: f64,
    pub wire_encode_frame_ns: f64,
    pub wire_decode_frame_ns: f64,
    pub wire_encode_reconfigure_us: f64,
    pub geometry_select_us: f64,
    pub topology_sample_us: f64,
}

fn micros_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1e3
}

pub fn replay(workload: &Workload, seed: u64, out_dir: &Path) -> Res<LayerTimes> {
    let mut times = LayerTimes::default();
    let plan = control_plane(workload, seed, out_dir, &mut times)?;
    codec(workload, &plan, &mut times)?;
    Ok(times)
}

/// A shadow `SessionRuntime` fed the run's own first session and events:
/// each epoch's forest, plan pair and commit are the inputs `pubsub` and
/// `store` saw inside `drive_all_with`. Returns the plan it ends on.
fn control_plane(
    workload: &Workload,
    seed: u64,
    out_dir: &Path,
    times: &mut LayerTimes,
) -> Res<DisseminationPlan> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    let sampling = Instant::now();
    for _ in 0..TOPOLOGY_SAMPLES {
        let mut sample_rng = rng.clone();
        black_box(backbone_north_america().sample_session(workload.sites, &mut sample_rng)?);
    }
    times.topology_sample_us = micros_since(sampling) / TOPOLOGY_SAMPLES as f64;

    let (session, settle) = workload.build_session(&mut rng);
    let universe = subscription_universe(&session)?;
    let profile = session.profile();
    let id = SessionId::new(0);
    let mut runtime =
        SessionRuntime::new(universe, session.clone(), RuntimeConfig::default())?.with_scope(id);

    let guard = TempLog::new(out_dir, &format!("replay-{}", workload.name))?;
    let log = guard.path();
    let store = SessionStore::open(log)?;
    store.record_opened(id, &session, RuntimeConfig::default())?;
    if !settle.is_empty() {
        store.record_commit(id, &runtime.apply_epoch(&settle).commit)?;
    }
    let opened_bytes = std::fs::metadata(log)?.len();

    let (mut derive, mut diff, mut apply, mut append) = (0.0, 0.0, 0.0, 0.0);
    let mut selecting = session.clone();
    let mut select = 0.0;
    for _ in 0..REPLAY_EPOCHS {
        let event = workload.next_event(&mut rng);
        if let RuntimeEvent::Viewpoint { display, target } = &event {
            let t = Instant::now();
            black_box(selecting.subscribe_viewpoint(*display, *target));
            select += micros_since(t);
        }
        let mut previous = runtime.plan().clone();
        let outcome = runtime.apply_epoch(std::slice::from_ref(&event));

        let forest = runtime.forest_snapshot();
        let t = Instant::now();
        black_box(DisseminationPlan::from_forest(
            runtime.universe(),
            &forest,
            profile,
        ));
        derive += micros_since(t);

        let t = Instant::now();
        let delta = PlanDelta::diff(&previous, runtime.plan());
        diff += micros_since(t);

        let t = Instant::now();
        delta.apply(&mut previous)?;
        apply += micros_since(t);
        if &previous != runtime.plan() {
            return Err("replayed delta does not reproduce the runtime's plan".into());
        }

        let t = Instant::now();
        store.record_commit(id, &outcome.commit)?;
        append += micros_since(t);
    }
    let epochs = REPLAY_EPOCHS as f64;
    times.pubsub_derive_us = derive / epochs;
    times.pubsub_diff_us = diff / epochs;
    times.pubsub_apply_us = apply / epochs;
    times.store_append_us = append / epochs;
    times.geometry_select_us = select / epochs;
    times.store_bytes_per_commit = (std::fs::metadata(log)?.len() - opened_bytes) as f64 / epochs;
    drop(store);

    let t = Instant::now();
    let reopened = SessionStore::open(log)?;
    let opening = micros_since(t);
    let records = reopened.recovered_records();
    if reopened.commit_count(id) != Some(REPLAY_EPOCHS + usize::from(!settle.is_empty())) {
        return Err("re-opened replay log lost commits".into());
    }
    times.store_open_us_per_record = opening / records as f64;
    Ok(runtime.plan().clone())
}

/// `wire::encode`/`decode` of one frame at the workload's payload size
/// and of one `Reconfigure` carrying a median-sized site plan.
fn codec(workload: &Workload, plan: &DisseminationPlan, times: &mut LayerTimes) -> Res<()> {
    let frame = Message::Frame {
        stream: StreamId::new(SiteId::new(0), 0),
        quality: Quality::FULL,
        seq: 1,
        captured_micros: 1,
        payload: Bytes::from(vec![0xA5u8; workload.payload_bytes]),
    };
    let capacity = workload.payload_bytes + 64;
    let frames = (CODEC_BYTES / capacity).clamp(1, CODEC_ITERATIONS);
    let t = Instant::now();
    for _ in 0..frames {
        let mut dst = BytesMut::with_capacity(capacity);
        wire::encode(black_box(&frame), &mut dst);
        black_box(dst);
    }
    times.wire_encode_frame_ns = t.elapsed().as_nanos() as f64 / frames as f64;

    let mut stream = BytesMut::with_capacity(capacity * frames);
    for _ in 0..frames {
        wire::encode(&frame, &mut stream);
    }
    let t = Instant::now();
    for _ in 0..frames {
        let decoded = wire::decode(&mut stream).map_err(|e| format!("frame decode: {e:?}"))?;
        black_box(decoded.ok_or("frame stream ended early")?);
    }
    times.wire_decode_frame_ns = t.elapsed().as_nanos() as f64 / frames as f64;

    let mut site_plans: Vec<_> = plan.site_plans().to_vec();
    site_plans.sort_by_key(|sp| sp.entries.len());
    let reconfigure = Message::Reconfigure {
        revision: 1,
        site_plan: site_plans.swap_remove(site_plans.len() / 2),
    };
    let t = Instant::now();
    for _ in 0..CODEC_ITERATIONS {
        let mut dst = BytesMut::new();
        wire::encode(black_box(&reconfigure), &mut dst);
        black_box(dst);
    }
    times.wire_encode_reconfigure_us = micros_since(t) / CODEC_ITERATIONS as f64;
    Ok(())
}
