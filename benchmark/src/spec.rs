//! The benchmark's contract in one place: metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repo root is
//! [`benchmark_json`]'s output (`--spec`); `tests/smoke.rs` fails when the
//! two differ.

use std::fmt::Write as _;

use crate::workload::WORKLOADS;

/// Seconds one run measures (`run_seconds`), also the `--seconds` default.
pub const RUN_SECONDS: u32 = 20;

/// How the driver starts a run, from the root of a checkout.
const COMMAND: &[&str] = &["bash", "benchmark/run.sh"];

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2008;

/// One end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Reported on every workload by the untraced run. The bounds are the
/// largest the contract allows: on the 2-vCPU VM the benchmark was written
/// on, ten runs of one commit agree within 3 % for minutes and then shift
/// together by about 15 % (README, "Noise").
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("fov_to_frame_mean_us", "us", "lower", 0.25),
    e2e("reconfigure_mean_us", "us", "lower", 0.25),
    e2e("delivered_frames_per_s", "1/s", "higher", 0.25),
    e2e("frame_delivery_mean_us", "us", "lower", 0.25),
    e2e("cpu_ms_per_round", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
];

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// One per-layer metric (layer = crate or module name before the last
/// dot). No bound: these explain the end-to-end numbers, they do not gate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Reported on every workload by the traced run.
pub const PER_LAYER: &[PerLayer] = &[
    layer("harness.fov_to_frame_p50_us", "us", "lower"),
    layer("harness.fov_to_frame_p99_us", "us", "lower"),
    layer("harness.first_frame_polls_mean", "count", "lower"),
    layer("harness.batch_p50_us", "us", "lower"),
    layer("harness.trace_overhead_pct", "%", "lower"),
    layer("harness.span_coverage_pct", "%", "higher"),
    layer("service.submit_us", "us", "lower"),
    layer("service.drive_us", "us", "lower"),
    layer("service.self_us", "us", "lower"),
    layer("service.recover_s", "s", "lower"),
    layer("runtime.reconverge_us", "us", "lower"),
    layer("runtime.event_drain_us", "us", "lower"),
    layer("runtime.repair_us", "us", "lower"),
    layer("runtime.refit_us", "us", "lower"),
    layer("runtime.derive_us", "us", "lower"),
    layer("runtime.delta_us", "us", "lower"),
    layer("overlay.repair_us_per_join", "us", "lower"),
    layer("overlay.reject_ratio", "ratio", "lower"),
    layer("overlay.rebuilds", "count", "lower"),
    layer("overlay.max_tree_depth", "count", "lower"),
    layer("pubsub.derive_us", "us", "lower"),
    layer("pubsub.diff_us", "us", "lower"),
    layer("pubsub.apply_us", "us", "lower"),
    layer("pubsub.delta_entries_per_op", "count", "lower"),
    layer("pubsub.plan_entries", "count", "lower"),
    layer("store.append_us", "us", "lower"),
    layer("store.bytes_per_commit", "B", "lower"),
    layer("store.open_us_per_record", "us", "lower"),
    layer("net.wire.encode_frame_ns", "ns", "lower"),
    layer("net.wire.decode_frame_ns", "ns", "lower"),
    layer("net.wire.encode_reconfigure_us", "us", "lower"),
    layer("net.coordinator.dictate_us", "us", "lower"),
    layer("net.coordinator.first_frame_us", "us", "lower"),
    layer("net.coordinator.batch_us", "us", "lower"),
    layer("net.coordinator.links_opened_per_op", "count", "lower"),
    layer("net.coordinator.links_closed_per_op", "count", "lower"),
    layer("net.coordinator.touched_sites_per_op", "count", "lower"),
    layer("net.coordinator.main_busy_share", "ratio", "lower"),
    layer("net.reactor.loop_busy_share", "ratio", "lower"),
    layer("net.reactor.cpu_us_per_delivery", "us", "lower"),
    layer("net.reactor.hop_added_us", "us", "lower"),
    layer("net.reactor.wakeup_batch_mean", "count", "higher"),
    layer("net.reactor.writes_dropped", "count", "lower"),
    layer("geometry.select_us", "us", "lower"),
    layer("topology.sample_us", "us", "lower"),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| -> String {
        let items: Vec<String> = items.iter().map(|i| format!("\"{i}\"")).collect();
        items.join(", ")
    };
    let mut out = String::new();
    let mut line = |text: String| writeln!(out, "{text}").expect("writing to a String cannot fail");
    line("{".into());
    line(format!("  \"command\": [{}],", quoted(COMMAND)));
    line(format!("  \"paths\": [{}],", quoted(&["benchmark"])));
    line(format!("  \"run_seconds\": {RUN_SECONDS},"));
    line("  \"workloads\": [".into());
    for (index, w) in WORKLOADS.iter().enumerate() {
        let comma = if index + 1 < WORKLOADS.len() { "," } else { "" };
        line(format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        ));
    }
    line("  ],".into());
    line("  \"end_to_end\": [".into());
    for (index, m) in END_TO_END.iter().enumerate() {
        let comma = if index + 1 < END_TO_END.len() {
            ","
        } else {
            ""
        };
        line(format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        ));
    }
    line("  ],".into());
    line("  \"per_layer\": [".into());
    for (index, m) in PER_LAYER.iter().enumerate() {
        let comma = if index + 1 < PER_LAYER.len() { "," } else { "" };
        line(format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        ));
    }
    line("  ]".into());
    line("}".into());
    out
}
