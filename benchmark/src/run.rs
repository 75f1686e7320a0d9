//! One benchmark run: set up (several times, for a steady `setup_s`), a
//! timed window of closed-loop rounds, the correctness oracle, and the
//! metrics derived from what the timed calls took and returned.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

use teeve_net::ClusterReport;
use teeve_pubsub::DisseminationPlan;
use teeve_service::MembershipService;
use teeve_store::SessionStore;
use teeve_types::{SiteId, StreamId};

use crate::layers;
use crate::procstat;
use crate::rig::{Deliveries, Res, Rig, Samples, Teardown};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workload::Workload;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: u32 = 5;
/// Slices the timed window is cut into. Every end-to-end timing and rate
/// is the median over the slices of the per-slice value, so a burst of
/// interference from outside the process moves a few slices, not the
/// run's result.
const SLICES: u32 = 20;
/// Rounds per block of a traced run: blocks alternate between recording
/// spans and not, and the difference is the tracing overhead.
const TRACE_BLOCK_ROUNDS: usize = 16;
/// Sleep of `Coordinator::await_deliveries` between delivery polls, the
/// quantum the first-frame wait is made of.
const DELIVERY_POLL_US: f64 = 1_100.0;

/// One metric value, ready to print.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one run reports: the contract's result line plus the reasons of
/// any failure.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub failures: Vec<String>,
}

/// CPU clocks and cumulative counters, read at the ends of the timed
/// window and of every slice.
#[derive(Clone, Copy)]
struct Probe {
    at: Instant,
    process_cpu_s: f64,
    main_cpu_s: f64,
    loop_cpu_s: f64,
    wakeups: u64,
    wakeup_events: u64,
    links_opened: u64,
    links_closed: u64,
    /// Frame receipts the batches so far owe.
    owed: u64,
    rounds: usize,
    /// FOV ops sampled so far.
    ops: usize,
}

impl Probe {
    fn read(rig: &Rig, main_tid: u32, rounds: usize) -> Probe {
        let wakeup_batch = rig
            .reactor
            .telemetry()
            .histogram("reactor.wakeup_batch")
            .snapshot();
        let clusters = || {
            rig.handles
                .iter()
                .filter_map(|h| rig.sink.router.get(h.id()))
        };
        Probe {
            at: Instant::now(),
            process_cpu_s: procstat::process_cpu_s(),
            main_cpu_s: procstat::thread_cpu_s(main_tid),
            loop_cpu_s: procstat::thread_cpu_s(rig.reactor_tid),
            wakeups: wakeup_batch.count(),
            wakeup_events: wakeup_batch.sum(),
            links_opened: clusters().map(|c| c.connections_opened()).sum(),
            links_closed: clusters().map(|c| c.connections_closed()).sum(),
            owed: rig.owed(),
            rounds,
            ops: rig.samples.fov_to_frame.len(),
        }
    }
}

/// What one slice of the timed window did.
struct Slice {
    wall_s: f64,
    cpu_s: f64,
    rounds: usize,
    frames: u64,
    /// Indices into the samples of the FOV ops the slice completed.
    ops: Range<usize>,
}

impl Slice {
    fn between(from: &Probe, to: &Probe) -> Slice {
        Slice {
            wall_s: to.at.duration_since(from.at).as_secs_f64(),
            cpu_s: to.process_cpu_s - from.process_cpu_s,
            rounds: to.rounds - from.rounds,
            frames: to.owed - from.owed,
            ops: from.ops..to.ops,
        }
    }
}

/// Everything the timed window leaves behind.
struct Window {
    before: Probe,
    after: Probe,
    slices: Vec<Slice>,
    samples: Samples,
    tracer: Tracer,
    attempted: u64,
    peak_rss_mb: f64,
}

pub fn run(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: &Path,
) -> Res<Outcome> {
    let mut failures = Vec::new();
    // The measured rig is the process's first, on a fresh heap: the
    // repeats behind `setup_s` come after it, so what they leave behind
    // cannot reach `peak_rss_mb`.
    let setting_up = Instant::now();
    let mut rig = Rig::set_up(workload, seed, out_dir)?;
    let first_setup_s = setting_up.elapsed().as_secs_f64();
    let window = timed_window(&mut rig, seconds, traced, &mut failures);

    // The oracle, part one: what only a live rig can answer.
    if window.samples.store_failures > 0 {
        failures.push(format!(
            "{} commits failed to append",
            window.samples.store_failures
        ));
    }
    let live_plans = rig.live_plans();
    let mut sessions = Vec::new();
    for (handle, live) in rig.handles.iter().zip(&live_plans) {
        let id = handle.id();
        sessions.push(id);
        match handle.plan() {
            Ok(plan) if plan.revision() == live.revision() => {}
            Ok(plan) => failures.push(format!(
                "{id}: fleet at revision {}, service at {}",
                live.revision(),
                plan.revision()
            )),
            Err(error) => failures.push(format!("{id}: {error}")),
        }
        if let Err(error) = handle.validate() {
            failures.push(format!("{id}: {error}"));
        }
    }

    // Part two: what the fleets report once shut down.
    let expected = std::mem::take(&mut rig.expected);
    let Teardown {
        reports,
        writes_dropped,
        store_log,
    } = rig.tear_down();
    if writes_dropped > 0 {
        failures.push(format!("reactor shed {writes_dropped} writes"));
    }
    for (id, (report, owed)) in sessions.iter().zip(reports.iter().zip(&expected)) {
        if report.missing_reports > 0 {
            failures.push(format!(
                "{id}: {} RPs lost their stats",
                report.missing_reports
            ));
        }
        if nonzero(&report.delivered) != nonzero(owed) {
            failures.push(format!(
                "{id}: delivered {} frames, the plans owed {}",
                report.total_delivered(),
                owed.values().sum::<u64>()
            ));
        }
    }

    // Part three, the restart leg: a service recovered from the log must
    // hold exactly the plans the live fleets executed.
    let mut recover_s = 0.0;
    if let Some(log) = &store_log {
        let store = SessionStore::open(log.path())?;
        let recovering = Instant::now();
        let recovered = MembershipService::recover(store)?;
        recover_s = recovering.elapsed().as_secs_f64();
        for (id, live) in sessions.iter().zip(&live_plans) {
            match recovered.handle(*id).and_then(|h| h.plan()) {
                Ok(plan) if &plan == live => {}
                Ok(_) => failures.push(format!("{id}: recovered plan differs from the live one")),
                Err(error) => failures.push(format!("{id}: {error}")),
            }
        }
    }
    drop(store_log);

    let values = if traced {
        std::fs::create_dir_all(out_dir)?;
        std::fs::write(
            out_dir.join(format!("trace-{}.json", workload.name)),
            window.tracer.to_json(),
        )?;
        let layers = layers::replay(workload, seed, out_dir)?;
        let fleet = Fleet {
            plans: &live_plans,
            reports: &reports,
            writes_dropped,
            recover_s,
        };
        per_layer(workload, &window, &layers, &fleet)
    } else {
        let setup_s = median_setup_s(first_setup_s, workload, seed, out_dir)?;
        end_to_end(&window, &reports, setup_s)
    };
    if traced && workload.sessions == 1 && window.samples.fov_to_frame.len() >= 100 {
        // One client: the spans of an op follow each other, so they must
        // account for its whole time.
        let coverage = values["harness.span_coverage_pct"];
        if coverage < 98.0 {
            failures.push(format!("spans cover only {coverage:.2}% of the FOV ops"));
        }
    }

    let spec: Vec<(&'static str, &'static str)> = if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut metrics = Vec::with_capacity(spec.len());
    for (name, unit) in spec {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            failures.push(format!("metric {name} is not finite"));
        }
        metrics.push(Metric { name, unit, value });
    }

    println!(
        "# {} rounds, {} FOV ops, {} batches, {} frame receipts in {:.3} s",
        window.after.rounds,
        window.samples.fov_to_frame.len(),
        window.samples.batch.len(),
        window.after.owed - window.before.owed,
        window
            .after
            .at
            .duration_since(window.before.at)
            .as_secs_f64(),
    );
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted: window.attempted.max(1),
        failed: failures.len() as u64,
        metrics,
        failures,
    })
}

/// Sets the rig up and tears it down again until `SETUPS` set-ups were
/// timed, the measured rig's included; returns the median in seconds.
fn median_setup_s(
    first_s: f64,
    workload: &'static Workload,
    seed: u64,
    out_dir: &Path,
) -> Res<f64> {
    let mut times = vec![first_s];
    for _ in 1..SETUPS {
        let setting_up = Instant::now();
        let rig = Rig::set_up(workload, seed, out_dir)?;
        times.push(setting_up.elapsed().as_secs_f64());
        rig.tear_down();
    }
    Ok(median_of(times.into_iter()))
}

/// Closed-loop rounds until `seconds` have passed (or an operation
/// fails), cut into slices at round boundaries.
fn timed_window(rig: &mut Rig, seconds: f64, traced: bool, failures: &mut Vec<String>) -> Window {
    let main_tid = procstat::current_thread_id();
    let mut tracer = Tracer::new();
    let mut slices = Vec::new();
    let mut rss_at_fixed_round = None;
    let mut rounds = 0;
    let before = Probe::read(rig, main_tid, rounds);
    let deadline = before.at + Duration::from_secs_f64(seconds);
    let slice_length = Duration::from_secs_f64(seconds / f64::from(SLICES));
    let mut slice_start = before;
    loop {
        let now = Instant::now();
        if rounds > slice_start.rounds && (now >= slice_start.at + slice_length || now >= deadline)
        {
            let slice_end = Probe::read(rig, main_tid, rounds);
            slices.push(Slice::between(&slice_start, &slice_end));
            slice_start = slice_end;
        }
        if now >= deadline {
            break;
        }
        tracer.set_recording(traced && (rounds / TRACE_BLOCK_ROUNDS).is_multiple_of(2));
        if let Err(error) = rig.round(&mut tracer) {
            failures.push(format!("round {rounds}: {error}"));
            break;
        }
        rounds += 1;
        if rounds == rig.workload.rss_round {
            rss_at_fixed_round = Some(procstat::peak_rss_mib());
        }
    }
    let after = Probe::read(rig, main_tid, rounds);
    Window {
        before,
        after,
        slices,
        attempted: rig.attempted,
        samples: rig.take_samples(),
        tracer,
        peak_rss_mb: rss_at_fixed_round.unwrap_or_else(procstat::peak_rss_mib),
    }
}

/// The metrics of an untraced run.
fn end_to_end(
    window: &Window,
    reports: &[ClusterReport],
    setup_s: f64,
) -> BTreeMap<&'static str, f64> {
    let samples = &window.samples;
    let median = |value: &dyn Fn(&Slice) -> f64| median_of(window.slices.iter().map(value));
    let delivered: u64 = reports.iter().map(ClusterReport::total_delivered).sum();
    let latency_sum_us: u64 = reports
        .iter()
        .flat_map(|r| r.latency_sum_micros.values())
        .sum();
    BTreeMap::from([
        ("setup_s", setup_s),
        (
            "fov_to_frame_mean_us",
            median(&|s| mean_us(&samples.fov_to_frame[s.ops.clone()])),
        ),
        (
            "reconfigure_mean_us",
            median(&|s| mean_us(&samples.reconfigure[s.ops.clone()])),
        ),
        (
            "delivered_frames_per_s",
            median(&|s| s.frames as f64 / s.wall_s),
        ),
        (
            "frame_delivery_mean_us",
            latency_sum_us as f64 / delivered.max(1) as f64,
        ),
        (
            "cpu_ms_per_round",
            median(&|s| s.cpu_s * 1e3 / s.rounds as f64),
        ),
        ("peak_rss_mb", window.peak_rss_mb),
    ])
}

/// What the fleets and the restart leg contribute to the layer metrics.
struct Fleet<'a> {
    plans: &'a [DisseminationPlan],
    reports: &'a [ClusterReport],
    writes_dropped: u64,
    recover_s: f64,
}

/// The metrics of a traced run.
fn per_layer(
    workload: &Workload,
    window: &Window,
    layers: &layers::LayerTimes,
    fleet: &Fleet,
) -> BTreeMap<&'static str, f64> {
    let Window {
        before,
        after,
        samples,
        ..
    } = window;
    let totals = window.tracer.totals();
    let span_us = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_us());
    let coverage = totals.get("harness.fov_op").map_or(0.0, |root| {
        (root.total_ns - root.self_ns) as f64 / root.total_ns.max(1) as f64 * 100.0
    });

    let epochs = &samples.epochs;
    let per_epoch = |d: Duration| d.as_nanos() as f64 / 1e3 / epochs.count.max(1) as f64;
    let per = |count: u64, of: u64| count as f64 / of.max(1) as f64;
    let ops = samples.fov_to_frame.len() as u64;
    let wall_s = after.at.duration_since(before.at).as_secs_f64();
    let loop_cpu_s = after.loop_cpu_s - before.loop_cpu_s;

    let sessions = workload.sessions as f64;
    // Sessions reconverge on parallel workers, so only their share of
    // the drive call's wall time is taken off it.
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(workload.sessions) as f64;
    let appends = if workload.durable { sessions } else { 0.0 };
    let service_self_us = span_us("service.drive")
        - span_us("net.coordinator.dictate") * sessions
        - per_epoch(epochs.reconverge) * sessions / workers
        - layers.store_append_us * appends;

    BTreeMap::from([
        (
            "harness.fov_to_frame_p50_us",
            quantile_us(&samples.fov_to_frame, 0.50),
        ),
        (
            "harness.fov_to_frame_p99_us",
            quantile_us(&samples.fov_to_frame, 0.99),
        ),
        (
            "harness.first_frame_polls_mean",
            mean_us(&samples.first_frame) / DELIVERY_POLL_US,
        ),
        ("harness.batch_p50_us", quantile_us(&samples.batch, 0.50)),
        ("harness.trace_overhead_pct", trace_overhead_pct(samples)),
        ("harness.span_coverage_pct", coverage),
        ("service.submit_us", span_us("service.submit")),
        ("service.drive_us", span_us("service.drive")),
        ("service.self_us", service_self_us),
        ("service.recover_s", fleet.recover_s),
        ("runtime.reconverge_us", per_epoch(epochs.reconverge)),
        (
            "runtime.event_drain_us",
            per_epoch(epochs.phases.event_drain),
        ),
        ("runtime.repair_us", per_epoch(epochs.phases.repair)),
        ("runtime.refit_us", per_epoch(epochs.phases.refit)),
        ("runtime.derive_us", per_epoch(epochs.phases.derive)),
        ("runtime.delta_us", per_epoch(epochs.phases.delta)),
        (
            "overlay.repair_us_per_join",
            epochs.phases.repair.as_nanos() as f64 / 1e3 / epochs.subscribes.max(1) as f64,
        ),
        (
            "overlay.reject_ratio",
            per(epochs.rejected, epochs.subscribes),
        ),
        ("overlay.rebuilds", epochs.rebuilds as f64),
        ("overlay.max_tree_depth", epochs.max_tree_depth as f64),
        ("pubsub.derive_us", layers.pubsub_derive_us),
        ("pubsub.diff_us", layers.pubsub_diff_us),
        ("pubsub.apply_us", layers.pubsub_apply_us),
        (
            "pubsub.delta_entries_per_op",
            per(epochs.delta_entries, epochs.count),
        ),
        (
            "pubsub.plan_entries",
            per(epochs.plan_entries, epochs.count),
        ),
        ("store.append_us", layers.store_append_us),
        ("store.bytes_per_commit", layers.store_bytes_per_commit),
        ("store.open_us_per_record", layers.store_open_us_per_record),
        ("net.wire.encode_frame_ns", layers.wire_encode_frame_ns),
        ("net.wire.decode_frame_ns", layers.wire_decode_frame_ns),
        (
            "net.wire.encode_reconfigure_us",
            layers.wire_encode_reconfigure_us,
        ),
        (
            "net.coordinator.dictate_us",
            span_us("net.coordinator.dictate"),
        ),
        (
            "net.coordinator.first_frame_us",
            span_us("net.coordinator.first_frame"),
        ),
        ("net.coordinator.batch_us", span_us("net.coordinator.batch")),
        (
            "net.coordinator.links_opened_per_op",
            per(after.links_opened - before.links_opened, ops),
        ),
        (
            "net.coordinator.links_closed_per_op",
            per(after.links_closed - before.links_closed, ops),
        ),
        (
            "net.coordinator.touched_sites_per_op",
            per(samples.touched_sites, ops),
        ),
        (
            "net.coordinator.main_busy_share",
            (after.main_cpu_s - before.main_cpu_s) / wall_s,
        ),
        ("net.reactor.loop_busy_share", loop_cpu_s / wall_s),
        (
            "net.reactor.cpu_us_per_delivery",
            loop_cpu_s * 1e6 / (after.owed - before.owed).max(1) as f64,
        ),
        (
            "net.reactor.hop_added_us",
            hop_added_us(&latency_by_depth(fleet.plans, fleet.reports)),
        ),
        (
            "net.reactor.wakeup_batch_mean",
            per(
                after.wakeup_events - before.wakeup_events,
                after.wakeups - before.wakeups,
            ),
        ),
        ("net.reactor.writes_dropped", fleet.writes_dropped as f64),
        ("geometry.select_us", layers.geometry_select_us),
        ("topology.sample_us", layers.topology_sample_us),
    ])
}

fn nonzero(deliveries: &Deliveries) -> Deliveries {
    deliveries
        .iter()
        .filter(|(_, &frames)| frames > 0)
        .map(|(&pair, &frames)| (pair, frames))
        .collect()
}

/// The median of `values` (0 when there is none).
fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    let mut values: Vec<f64> = values.collect();
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

fn mean_us(nanos: &[u64]) -> f64 {
    if nanos.is_empty() {
        return 0.0;
    }
    nanos.iter().sum::<u64>() as f64 / nanos.len() as f64 / 1e3
}

/// The value at quantile `q` of a sample, in microseconds.
fn quantile_us(nanos: &[u64], q: f64) -> f64 {
    if nanos.is_empty() {
        return 0.0;
    }
    let mut sorted = nanos.to_vec();
    sorted.sort_unstable();
    let index = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[index] as f64 / 1e3
}

/// How much slower FOV ops ran while their spans were recorded.
fn trace_overhead_pct(samples: &Samples) -> f64 {
    let mean_of = |traced: bool| {
        let picked: Vec<u64> = samples
            .fov_to_frame
            .iter()
            .zip(&samples.traced)
            .filter(|(_, &t)| t == traced)
            .map(|(&ns, _)| ns)
            .collect();
        mean_us(&picked)
    };
    let (on, off) = (mean_of(true), mean_of(false));
    if off == 0.0 {
        0.0
    } else {
        (on - off) / off * 100.0
    }
}

/// Mean delivery latency (µs) of the receivers at each tree depth, from
/// the exact per-pair sums of the cluster reports and the depth each
/// pair has in the final plans.
fn latency_by_depth(
    plans: &[DisseminationPlan],
    reports: &[ClusterReport],
) -> BTreeMap<usize, f64> {
    let mut sums: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    for (plan, report) in plans.iter().zip(reports) {
        let parents: BTreeMap<(SiteId, StreamId), SiteId> = plan
            .site_plans()
            .iter()
            .flat_map(|sp| {
                sp.entries
                    .iter()
                    .filter_map(move |e| Some(((sp.site, e.stream), e.parent?)))
            })
            .collect();
        for (&(site, stream), &frames) in &report.delivered {
            let mut depth = 0;
            let mut at = site;
            while let Some(&parent) = parents.get(&(at, stream)) {
                depth += 1;
                at = parent;
                if depth > plan.site_count() {
                    break;
                }
            }
            if depth == 0 || frames == 0 {
                continue;
            }
            let latency = report.latency_sum_micros.get(&(site, stream));
            let entry = sums.entry(depth).or_default();
            entry.0 += latency.copied().unwrap_or(0);
            entry.1 += frames;
        }
    }
    sums.into_iter()
        .map(|(depth, (latency, frames))| (depth, latency as f64 / frames as f64))
        .collect()
}

/// Latency each extra hop adds: the deepest receivers' mean minus the
/// first hop's, per hop between them.
fn hop_added_us(by_depth: &BTreeMap<usize, f64>) -> f64 {
    match (by_depth.first_key_value(), by_depth.last_key_value()) {
        (Some((&near, &near_us)), Some((&far, &far_us))) if far > near => {
            (far_us - near_us) / (far - near) as f64
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile_pick_the_expected_samples() {
        assert_eq!(median_of([3.0, 1.0, 2.0].into_iter()), 2.0);
        assert_eq!(median_of([4.0, 1.0, 2.0, 3.0].into_iter()), 2.5);
        assert_eq!(median_of(std::iter::empty()), 0.0);
        let nanos: Vec<u64> = (1..=100).map(|v| v * 1_000).collect();
        assert_eq!(quantile_us(&nanos, 0.99), 99.0);
        assert_eq!(quantile_us(&nanos, 0.50), 51.0);
    }

    #[test]
    fn hop_latency_is_the_slope_between_first_and_deepest_level() {
        let by_depth = BTreeMap::from([(1, 100.0), (2, 150.0), (4, 400.0)]);
        assert_eq!(hop_added_us(&by_depth), 100.0);
        assert_eq!(hop_added_us(&BTreeMap::from([(1, 100.0)])), 0.0);
    }
}
