//! The discrete-event dissemination engine: one event loop that executes a
//! dissemination plan, applies plan deltas while frames are in flight, and
//! injects faults.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use teeve_pubsub::{DisseminationPlan, ForwardingEntry, PlanDelta};
use teeve_types::{SiteId, StreamId};

use crate::{FaultPlan, SimConfig, SimReport, SimTime};

/// A scheduled event, ordered by time (then by an insertion sequence so
/// simultaneous events pop deterministically in schedule order).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// A camera at the stream's origin produced frame `seq`.
    Capture { stream: StreamId, seq: u64 },
    /// Frame `seq` of `stream` arrived at `site`.
    Arrival {
        site: SiteId,
        stream: StreamId,
        seq: u64,
        captured_at: SimTime,
    },
}

/// Per-edge transmission channel: one reserved stream slot, as in the
/// paper's bandwidth model (capacities counted in streams). Frames queue
/// FIFO behind the slot's serialization.
#[derive(Debug, Default)]
struct EdgeChannel {
    busy_until: SimTime,
}

/// Runs the dissemination simulation of `initial` under `config`, applying
/// each `(at, delta)` replan once simulated time reaches `at` and injecting
/// `faults` (see [`FaultPlan`]).
///
/// Model:
///
/// * every stream that has overlay children in any plan revision is
///   captured at the origin at the profile's frame rate for
///   `config.duration`; captures whose stream currently has no children
///   produce nothing;
/// * each planned overlay edge is a dedicated channel of one stream slot:
///   a frame's serialization takes `frame_bytes / bitrate`, and frames
///   queue FIFO per edge;
/// * propagation along an edge takes the plan's link cost;
/// * a relaying RP adds `config.forward_overhead_us` before re-sending
///   (cut-through at frame granularity).
///
/// Replans mutate the forwarding tables in place: channels of removed
/// edges are torn down (their queued serializations abandoned), channels
/// of surviving edges keep their state, and new edges start fresh — as a
/// live RP cluster keeps unaffected TCP links open. A frame is *expected*
/// at every site holding a receiving entry for its stream when it is
/// captured, and *delivered* if it arrives while the site still holds
/// that entry. A site subscribing mid-run is expected, and counted, only
/// for frames captured from its subscription onwards.
///
/// Faults:
///
/// * a lost frame still consumes its edge's serialization slot (the bytes
///   were sent; they just never arrive);
/// * a crashed site stops capturing and forwarding at its halt time, and
///   frames arriving after the halt are discarded — silencing every
///   subtree below it until a replan re-parents that subtree.
///
/// The returned report records per-(site, stream) delivery counts and
/// latency statistics.
///
/// # Panics
///
/// Panics if `replans` are not sorted by time or a delta does not apply to
/// its revision (deltas must be produced against the preceding plan, e.g.
/// by the session runtime's epochs).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use teeve_overlay::{ConstructionAlgorithm, ProblemInstance, RandomJoin};
/// use teeve_pubsub::{DisseminationPlan, StreamProfile};
/// use teeve_sim::{simulate, FaultPlan, SimConfig};
/// use teeve_types::{CostMatrix, CostMs, Degree, SiteId, StreamId};
///
/// let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(5));
/// let problem = ProblemInstance::builder(costs, CostMs::new(50))
///     .symmetric_capacities(Degree::new(4))
///     .streams_per_site(&[1, 0, 0])
///     .subscribe(SiteId::new(1), StreamId::new(SiteId::new(0), 0))
///     .build()?;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let outcome = RandomJoin::default().construct(&problem, &mut rng);
/// let plan = DisseminationPlan::from_forest(&problem, outcome.forest(), StreamProfile::default());
///
/// let report = simulate(&plan, &[], &FaultPlan::none(), &SimConfig::short());
/// assert!(report.total_frames_delivered() > 0);
/// assert_eq!(report.delivery_ratio(), 1.0);
/// # Ok::<(), teeve_overlay::ProblemError>(())
/// ```
pub fn simulate(
    initial: &DisseminationPlan,
    replans: &[(SimTime, PlanDelta)],
    faults: &FaultPlan,
    config: &SimConfig,
) -> SimReport {
    assert!(
        replans.windows(2).all(|w| w[0].0 <= w[1].0),
        "replans must be sorted by time"
    );
    let profile = initial.profile();
    let serialize = SimTime::from_micros(profile.bitrate.transmit_micros(profile.frame_bytes()));
    let overhead = SimTime::from_micros(config.forward_overhead_us);
    let interval = SimTime::from_micros(profile.frame_interval_micros());

    // Streams that ever transit the overlay, across all revisions.
    let mut transiting: BTreeSet<StreamId> = BTreeSet::new();
    let mut revision = initial.clone();
    let mut collect = |plan: &DisseminationPlan| {
        for sp in plan.site_plans() {
            for entry in &sp.entries {
                if entry.is_origin() && !entry.children.is_empty() {
                    transiting.insert(entry.stream);
                }
            }
        }
    };
    collect(&revision);
    for (_, delta) in replans {
        delta
            .apply(&mut revision)
            .expect("each replan applies to the previous revision");
        collect(&revision);
    }

    let mut queue: BinaryHeap<Reverse<(SimTime, u64, EventKind)>> = BinaryHeap::new();
    let mut schedule_seq = 0u64;
    let push = |queue: &mut BinaryHeap<Reverse<(SimTime, u64, EventKind)>>,
                at: SimTime,
                ev: EventKind,
                seq: &mut u64| {
        queue.push(Reverse((at, *seq, ev)));
        *seq += 1;
    };
    for &stream in &transiting {
        let mut t = SimTime::ZERO;
        let mut seq = 0u64;
        while t < config.duration {
            push(
                &mut queue,
                t,
                EventKind::Capture { stream, seq },
                &mut schedule_seq,
            );
            seq += 1;
            t += interval;
        }
    }

    let mut plan = initial.clone();
    let mut report = SimReport::new(&plan, config, serialize);
    let mut channels: BTreeMap<(SiteId, SiteId, StreamId), EdgeChannel> = BTreeMap::new();
    let mut pending = replans.iter();
    let mut next_replan = pending.next();
    // Capture counts so far per stream, marking subscription epochs.
    let mut captured: BTreeMap<StreamId, u64> = BTreeMap::new();
    // First frame seq each receiving (site, stream) entry is entitled to.
    let mut entry_since: BTreeMap<(SiteId, StreamId), u64> = BTreeMap::new();
    for sp in plan.site_plans() {
        for stream in sp.received_streams() {
            entry_since.insert((sp.site, stream), 0);
        }
    }
    // Frame copies already seen per site. A replan can re-parent a
    // receiver while a frame is in flight on both its old and new paths;
    // the simulator chooses to record and forward only the first copy.
    // The live RPs do not dedup on sequence number.
    let mut seen: BTreeSet<(SiteId, StreamId, u64)> = BTreeSet::new();

    while let Some(Reverse((now, _, event))) = queue.pop() {
        // Apply replans that are due before this event.
        while let Some((at, delta)) = next_replan {
            if *at > now {
                break;
            }
            for (parent, child, stream) in delta.edges_removed() {
                channels.remove(&(parent, child, stream));
            }
            delta
                .apply(&mut plan)
                .expect("each replan applies to the previous revision");
            for change in delta.changes() {
                let key = (change.site, change.stream);
                let receiving =
                    |e: &Option<ForwardingEntry>| e.as_ref().is_some_and(|e| !e.is_origin());
                match (receiving(&change.old), receiving(&change.new)) {
                    (false, true) => {
                        let since = captured.get(&change.stream).copied().unwrap_or(0);
                        entry_since.insert(key, since);
                    }
                    (true, false) => {
                        entry_since.remove(&key);
                    }
                    _ => {}
                }
            }
            next_replan = pending.next();
        }

        // The site that sends this frame on, when it may send from, and
        // the frame's coordinates.
        let (from, ready, stream, seq, captured_at) = match event {
            EventKind::Capture { stream, seq } => {
                *captured.entry(stream).or_default() = seq + 1;
                let origin = stream.origin();
                if plan
                    .site_plan(origin)
                    .entry(stream)
                    .is_none_or(|e| e.children.is_empty())
                {
                    continue;
                }
                // Every current receiver of this stream expects the frame,
                // whether or not the origin is still alive to send it.
                for sp in plan.site_plans() {
                    if sp.entry(stream).is_some_and(|e| !e.is_origin()) {
                        report.record_expected_frame(sp.site, stream);
                    }
                }
                if faults.crashed(origin, now) {
                    continue;
                }
                (origin, now, stream, seq, now)
            }
            EventKind::Arrival {
                site,
                stream,
                seq,
                captured_at,
            } => {
                if !seen.insert((site, stream, seq)) || faults.crashed(site, now) {
                    continue;
                }
                // Drop the frame if the site's receiving entry is gone (it
                // unsubscribed while the frame was in flight) or postdates
                // the frame (it subscribed after capture).
                let since = entry_since.get(&(site, stream));
                if since.is_some_and(|&s| seq >= s) {
                    report.record_delivery(site, stream, now - captured_at, now);
                }
                (site, now + overhead, stream, seq, captured_at)
            }
        };

        let Some(entry) = plan.site_plan(from).entry(stream) else {
            continue;
        };
        for child in entry.children.iter().map(|c| c.site) {
            let channel = channels.entry((from, child, stream)).or_default();
            let depart = channel.busy_until.max(ready) + serialize;
            channel.busy_until = depart;
            if faults.frame_lost(from, child, stream, seq) {
                continue;
            }
            push(
                &mut queue,
                depart + SimTime::from(plan.link_cost(from, child)),
                EventKind::Arrival {
                    site: child,
                    stream,
                    seq,
                    captured_at,
                },
                &mut schedule_seq,
            );
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use teeve_overlay::{ConstructionAlgorithm, OverlayManager, ProblemInstance, RandomJoin};
    use teeve_pubsub::StreamProfile;
    use teeve_types::{CostMatrix, CostMs, Degree};

    use crate::FaultImpact;

    fn site(i: u32) -> SiteId {
        SiteId::new(i)
    }

    fn stream(origin: u32, q: u32) -> StreamId {
        StreamId::new(site(origin), q)
    }

    /// A run of `plan` with no replans and no faults.
    fn run(plan: &DisseminationPlan, config: &SimConfig) -> SimReport {
        simulate(plan, &[], &FaultPlan::none(), config)
    }

    fn plan_of(problem: &ProblemInstance, manager: &OverlayManager) -> DisseminationPlan {
        DisseminationPlan::from_forest(
            problem,
            &manager.forest_snapshot(),
            StreamProfile::default(),
        )
    }

    /// The manager behind [`chain_plan`], so tests can replan from it.
    fn chain() -> (ProblemInstance, OverlayManager) {
        // 0 -> 1 -> 2 relay chain for one stream (capacity forces
        // relaying): the source's single out slot goes to the first
        // subscriber, so the second must relay through it. Built with the
        // deterministic incremental manager so the chain's shape never
        // depends on an RNG stream.
        let costs = CostMatrix::from_fn(3, |i, j| {
            CostMs::new(if i.min(j) == 0 && i.max(j) == 2 {
                30
            } else {
                5
            })
        });
        let problem = ProblemInstance::builder(costs, CostMs::new(50))
            .capacities(vec![
                teeve_overlay::NodeCapacity::symmetric(Degree::new(1)),
                teeve_overlay::NodeCapacity::symmetric(Degree::new(4)),
                teeve_overlay::NodeCapacity::symmetric(Degree::new(4)),
            ])
            .streams_per_site(&[1, 0, 0])
            .subscribe(site(1), stream(0, 0))
            .subscribe(site(2), stream(0, 0))
            .build()
            .unwrap();
        let mut manager = OverlayManager::new(problem.clone());
        manager.subscribe(site(1), stream(0, 0)).unwrap();
        manager.subscribe(site(2), stream(0, 0)).unwrap();
        let forest = manager.forest_snapshot();
        assert_eq!(forest.trees()[0].parent_of(site(1)), Some(site(0)));
        assert_eq!(forest.trees()[0].parent_of(site(2)), Some(site(1)));
        (problem, manager)
    }

    fn chain_plan() -> DisseminationPlan {
        let (problem, manager) = chain();
        plan_of(&problem, &manager)
    }

    /// Three sites at 5 ms, one stream at site 0 that 1 and 2 may join.
    fn universe() -> ProblemInstance {
        let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(5));
        ProblemInstance::builder(costs, CostMs::new(50))
            .symmetric_capacities(Degree::new(4))
            .streams_per_site(&[1, 0, 0])
            .subscribe(site(1), stream(0, 0))
            .subscribe(site(2), stream(0, 0))
            .build()
            .unwrap()
    }

    #[test]
    fn all_planned_frames_are_delivered() {
        let plan = chain_plan();
        let report = run(&plan, &SimConfig::short());
        assert_eq!(report.delivery_ratio(), 1.0);
        // 200 ms at 15 fps = 4 frames (0, 66.6, 133.3, 199.9 ms), 2
        // receivers each.
        assert_eq!(report.total_frames_delivered(), 8);
    }

    #[test]
    fn relay_hops_add_latency() {
        let plan = chain_plan();
        let report = run(&plan, &SimConfig::short());
        let direct = report
            .stream_stats(site(1), stream(0, 0))
            .expect("site 1 receives");
        let relayed = report
            .stream_stats(site(2), stream(0, 0))
            .expect("site 2 receives");
        assert!(
            relayed.mean_latency() > direct.mean_latency(),
            "two hops must cost more than one"
        );
    }

    #[test]
    fn latency_decomposes_into_serialization_and_path() {
        let plan = chain_plan();
        let config = SimConfig::short();
        let report = run(&plan, &config);
        let serialize = report.serialization_time();
        // Site 1 is one hop at 5 ms: latency = serialize + 5 ms exactly
        // (steady state keeps every channel just-free: no queueing).
        let direct = report.stream_stats(site(1), stream(0, 0)).unwrap();
        assert_eq!(direct.max_latency(), serialize + SimTime::from_millis(5));
        // Site 2: two hops (5 + 5 ms), one forwarding overhead, and a
        // second serialization (store-and-forward at the relay).
        let relayed = report.stream_stats(site(2), stream(0, 0)).unwrap();
        assert_eq!(
            relayed.max_latency(),
            serialize
                + serialize
                + SimTime::from_millis(10)
                + SimTime::from_micros(config.forward_overhead_us)
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let plan = chain_plan();
        let a = run(&plan, &SimConfig::short());
        let b = run(&plan, &SimConfig::short());
        assert_eq!(a.total_frames_delivered(), b.total_frames_delivered());
        assert_eq!(a.worst_latency(), b.worst_latency());
    }

    #[test]
    fn empty_plan_produces_empty_report() {
        let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(5));
        let problem = ProblemInstance::builder(costs, CostMs::new(50))
            .symmetric_capacities(Degree::new(4))
            .streams_per_site(&[1, 1, 1])
            .build()
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let outcome = RandomJoin.construct(&problem, &mut rng);
        let plan =
            DisseminationPlan::from_forest(&problem, outcome.forest(), StreamProfile::default());
        let report = run(&plan, &SimConfig::short());
        assert_eq!(report.total_frames_delivered(), 0);
        assert_eq!(report.delivery_ratio(), 1.0, "vacuously complete");
    }

    #[test]
    fn certain_link_loss_silences_the_subtree() {
        let plan = chain_plan();
        let config = SimConfig::short();
        let baseline = run(&plan, &config);
        // Kill the 0 -> 1 link: both receivers sit below it.
        let faults = FaultPlan::none().with_link_loss(site(0), site(1), 1.0);
        let faulty = simulate(&plan, &[], &faults, &config);
        assert_eq!(faulty.total_frames_delivered(), 0);
        let pairs = vec![(site(1), stream(0, 0)), (site(2), stream(0, 0))];
        let impact = FaultImpact::compare(&baseline, &faulty, pairs);
        assert_eq!(impact.baseline_delivery, 1.0);
        assert_eq!(impact.faulty_delivery, 0.0);
        assert_eq!(impact.silenced.len(), 2);
    }

    #[test]
    fn relay_crash_cuts_downstream_but_not_upstream() {
        let plan = chain_plan();
        let config = SimConfig::short();
        // Site 1 (the relay) crashes immediately: site 2 gets nothing,
        // and site 1 itself stops accepting frames.
        let faults = FaultPlan::none().with_crash(site(1), SimTime::ZERO);
        let report = simulate(&plan, &[], &faults, &config);
        assert!(report.stream_stats(site(2), stream(0, 0)).is_none());
        assert!(report.stream_stats(site(1), stream(0, 0)).is_none());

        // A late crash lets earlier frames through.
        let faults = FaultPlan::none().with_crash(site(1), SimTime::from_millis(150));
        let report = simulate(&plan, &[], &faults, &config);
        let got = report
            .stream_stats(site(1), stream(0, 0))
            .map_or(0, |s| s.frames());
        assert!(got >= 1, "pre-crash frames must arrive");
        assert!(got < 4, "post-crash frames must not");
    }

    #[test]
    fn partial_loss_degrades_delivery_partially() {
        let plan = chain_plan();
        let config = SimConfig::default(); // 30 frames
        let faults = FaultPlan::none().with_link_loss(site(0), site(1), 0.4);
        let report = simulate(&plan, &[], &faults, &config);
        let ratio = report.delivery_ratio();
        assert!(ratio > 0.0 && ratio < 1.0, "ratio was {ratio}");
    }

    #[test]
    fn steady_state_delivery_is_jitter_free() {
        // Dedicated per-edge stream slots never queue at steady state, so
        // inter-arrival gaps equal the capture interval exactly.
        let plan = chain_plan();
        let report = run(
            &plan,
            &SimConfig::default().with_duration(SimTime::from_millis(1000)),
        );
        assert_eq!(report.worst_jitter(), SimTime::ZERO);
    }

    #[test]
    fn frame_loss_creates_jitter() {
        let plan = chain_plan();
        let config = SimConfig::default().with_duration(SimTime::from_millis(2000));
        let faults = FaultPlan::none().with_link_loss(site(0), site(1), 0.3);
        let report = simulate(&plan, &[], &faults, &config);
        // Lost frames leave multi-interval holes in the arrival sequence.
        assert!(report.worst_jitter() > SimTime::ZERO);
    }

    #[test]
    fn longer_duration_delivers_proportionally_more() {
        let plan = chain_plan();
        let short = run(
            &plan,
            &SimConfig::default().with_duration(SimTime::from_millis(500)),
        );
        let long = run(
            &plan,
            &SimConfig::default().with_duration(SimTime::from_millis(1000)),
        );
        assert!(long.total_frames_delivered() > short.total_frames_delivered());
        assert_eq!(long.delivery_ratio(), 1.0);
    }

    #[test]
    fn mid_run_join_starts_delivering() {
        let p = universe();
        let mut m = OverlayManager::new(p.clone());
        m.subscribe(site(1), stream(0, 0)).unwrap();
        let before = plan_of(&p, &m);
        m.subscribe(site(2), stream(0, 0)).unwrap();
        let after = plan_of(&p, &m);
        let delta = PlanDelta::diff(&before, &after);

        // 1 s run at 15 fps; site 2 joins at 500 ms.
        let config = SimConfig::default().with_duration(SimTime::from_millis(1000));
        let replans = [(SimTime::from_millis(500), delta)];
        let report = simulate(&before, &replans, &FaultPlan::none(), &config);
        let early = report.stream_stats(site(1), stream(0, 0)).unwrap();
        let late = report.stream_stats(site(2), stream(0, 0)).unwrap();
        assert!(early.frames() > late.frames(), "site 2 joined halfway");
        assert!(late.frames() > 0, "site 2 must receive after the replan");
        assert_eq!(report.delivery_ratio(), 1.0, "every expected frame lands");
    }

    #[test]
    fn mid_run_leave_stops_expecting() {
        let p = universe();
        let mut m = OverlayManager::new(p.clone());
        m.subscribe(site(1), stream(0, 0)).unwrap();
        m.subscribe(site(2), stream(0, 0)).unwrap();
        let before = plan_of(&p, &m);
        m.unsubscribe(site(2), stream(0, 0)).unwrap();
        let after = plan_of(&p, &m);
        let delta = PlanDelta::diff(&before, &after);

        let config = SimConfig::default().with_duration(SimTime::from_millis(1000));
        let replans = [(SimTime::from_millis(500), delta)];
        let report = simulate(&before, &replans, &FaultPlan::none(), &config);
        let stayed = report.stream_stats(site(1), stream(0, 0)).unwrap();
        let left = report.stream_stats(site(2), stream(0, 0)).unwrap();
        assert!(stayed.frames() > left.frames());
        // Frames in flight towards site 2 at teardown are lost (expected
        // at capture, dropped at arrival) — everything else lands.
        let ratio = report.delivery_ratio();
        assert!((0.85..1.0).contains(&ratio), "ratio was {ratio}");
    }

    #[test]
    fn unaffected_links_keep_flowing_across_replans() {
        // Site 1's delivery cadence must not hiccup when site 2's
        // subscription flaps: its channel state is never touched.
        let p = universe();
        let mut m = OverlayManager::new(p.clone());
        m.subscribe(site(1), stream(0, 0)).unwrap();
        let base = plan_of(&p, &m);
        m.subscribe(site(2), stream(0, 0)).unwrap();
        let joined = plan_of(&p, &m);
        let join = PlanDelta::diff(&base, &joined);
        let leave = PlanDelta::diff(&joined, &base);

        let config = SimConfig::default().with_duration(SimTime::from_millis(2000));
        let report = simulate(
            &base,
            &[
                (SimTime::from_millis(400), join),
                (SimTime::from_millis(1200), leave),
            ],
            &FaultPlan::none(),
            &config,
        );
        let steady = report.stream_stats(site(1), stream(0, 0)).unwrap();
        assert_eq!(steady.frames(), 31, "site 1 receives every frame");
        assert_eq!(steady.mean_jitter(), SimTime::ZERO, "no replan hiccups");
        // Only site 2's in-flight frame at its teardown can be lost.
        let ratio = report.delivery_ratio();
        assert!((0.9..=1.0).contains(&ratio), "ratio was {ratio}");
    }

    #[test]
    fn reparenting_never_double_delivers_in_flight_frames() {
        // Before: source 0 feeds 1 and 2 directly. After: 2 is re-parented
        // under 1. A frame in flight on the old direct path 0->2 while its
        // copy is also relayed 0->1->2 must be delivered exactly once.
        //
        // Site 2 subscribes first so it consumes the source's reservation
        // slot and attaches directly; site 1 then joins the source (rfc 7)
        // over site 2 (rfc 2).
        let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(5));
        let p = ProblemInstance::builder(costs, CostMs::new(50))
            .capacities(vec![
                teeve_overlay::NodeCapacity::symmetric(Degree::new(8)),
                teeve_overlay::NodeCapacity::symmetric(Degree::new(20)),
                teeve_overlay::NodeCapacity::symmetric(Degree::new(2)),
            ])
            .streams_per_site(&[1, 0, 0])
            .subscribe(site(1), stream(0, 0))
            .subscribe(site(2), stream(0, 0))
            .build()
            .unwrap();
        let mut m = OverlayManager::new(p.clone());
        m.subscribe(site(2), stream(0, 0)).unwrap();
        m.subscribe(site(1), stream(0, 0)).unwrap();
        let before = plan_of(&p, &m);
        assert_eq!(
            before
                .site_plan(site(2))
                .entry(stream(0, 0))
                .unwrap()
                .parent,
            Some(site(0))
        );
        // Re-parent: leave and rejoin; the rich relay (site 1, rfc 20) now
        // beats the source (rfc 7), so site 2 attaches under site 1.
        m.unsubscribe(site(2), stream(0, 0)).unwrap();
        m.subscribe(site(2), stream(0, 0)).unwrap();
        let after = plan_of(&p, &m);
        assert_eq!(
            after.site_plan(site(2)).entry(stream(0, 0)).unwrap().parent,
            Some(site(1))
        );
        let delta = PlanDelta::diff(&before, &after);

        let duration_micros = 1_000_000u64;
        let config = SimConfig::default().with_duration(SimTime::from_millis(1000));
        let replans = [(SimTime::from_millis(470), delta)];
        let report = simulate(&before, &replans, &FaultPlan::none(), &config);
        // Each receiver gets each captured frame at most once, even with a
        // copy in flight on both the old and the new path at replan time.
        let interval = StreamProfile::default().frame_interval_micros();
        let captures = (duration_micros - 1) / interval + 1;
        let reparented = report.stream_stats(site(2), stream(0, 0)).unwrap();
        assert!(
            reparented.frames() <= captures,
            "duplicate deliveries: {} frames of {captures} captures",
            reparented.frames()
        );
        let ratio = report.delivery_ratio();
        assert!(ratio <= 1.0, "delivery ratio {ratio} exceeds 1.0");
        assert!(ratio > 0.9, "delivery ratio {ratio} unexpectedly low");
    }

    #[test]
    fn replan_reattaches_the_subtree_a_crash_silenced() {
        // Relay site 1 crashes at 300 ms, orphaning site 2. At 500 ms the
        // membership server drops site 1, which frees the source's one out
        // slot, and site 2 is re-parented under the source.
        let (p, mut m) = chain();
        let before = plan_of(&p, &m);
        m.unsubscribe(site(1), stream(0, 0)).unwrap();
        let after = plan_of(&p, &m);
        assert_eq!(
            after.site_plan(site(2)).entry(stream(0, 0)).unwrap().parent,
            Some(site(0))
        );
        let delta = PlanDelta::diff(&before, &after);

        let config = SimConfig::default().with_duration(SimTime::from_millis(1000));
        let crash = FaultPlan::none().with_crash(site(1), SimTime::from_millis(300));
        let orphan_frames = |r: &SimReport| {
            r.stream_stats(site(2), stream(0, 0))
                .map_or(0, |s| s.frames())
        };
        let silenced = simulate(&before, &[], &crash, &config);
        let healed = simulate(
            &before,
            &[(SimTime::from_millis(500), delta)],
            &crash,
            &config,
        );
        assert!(
            orphan_frames(&healed) > orphan_frames(&silenced),
            "the replan must restore delivery to the orphan: {} vs {}",
            orphan_frames(&healed),
            orphan_frames(&silenced)
        );
        assert!(healed.delivery_ratio() > silenced.delivery_ratio());
    }

    #[test]
    #[should_panic(expected = "sorted by time")]
    fn unsorted_replans_are_rejected() {
        let p = universe();
        let m = OverlayManager::new(p.clone());
        let plan = plan_of(&p, &m);
        let _ = simulate(
            &plan,
            &[
                (SimTime::from_millis(100), PlanDelta::default()),
                (SimTime::from_millis(50), PlanDelta::default()),
            ],
            &FaultPlan::none(),
            &SimConfig::short(),
        );
    }
}
