//! Property-based tests over the core invariants, spanning crates.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve::overlay::{
    fit_qualities, validate_forest, ConstructionAlgorithm, CorrelatedRandomJoin, GranLtf,
    LargestTreeFirst, ProblemInstance, RandomJoin, SmallestTreeFirst,
};
use teeve::prelude::*;
use teeve::sim::{simulate, FaultPlan, SimConfig, SimTime};
use teeve::types::{CostMatrix, CostMs, Degree, QualityLadder, QualityLevel, SiteId, StreamId};

/// Builds an arbitrary problem instance from proptest-drawn parameters.
fn arbitrary_problem(
    n: usize,
    capacity: u32,
    bound: u32,
    edges: &[(u8, u8, u8)], // (subscriber, origin, stream index) mod-mapped
    cost_seed: u8,
) -> Option<ProblemInstance> {
    let streams_per_site = 4u32;
    let costs = CostMatrix::from_fn(n, |i, j| {
        CostMs::new(1 + ((i * 31 + j * 17 + cost_seed as usize) % 9) as u32)
    });
    let mut builder = ProblemInstance::builder(costs, CostMs::new(bound))
        .symmetric_capacities(Degree::new(capacity))
        .streams_per_site(&vec![streams_per_site; n]);
    for &(sub, origin, q) in edges {
        let sub = SiteId::new(u32::from(sub) % n as u32);
        let origin_site = SiteId::new(u32::from(origin) % n as u32);
        if sub == origin_site {
            continue;
        }
        let stream = StreamId::new(origin_site, u32::from(q) % streams_per_site);
        builder = builder.subscribe(sub, stream);
    }
    builder.build().ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the instance, every algorithm's forest satisfies the
    /// degree and latency constraints and contains only subscribers.
    #[test]
    fn forests_always_satisfy_constraints(
        n in 3usize..7,
        capacity in 1u32..8,
        bound in 2u32..25,
        edges in proptest::collection::vec((0u8..7, 0u8..7, 0u8..4), 0..60),
        cost_seed in 0u8..255,
        algo_seed in 0u64..1000,
    ) {
        let Some(problem) = arbitrary_problem(n, capacity, bound, &edges, cost_seed) else {
            return Ok(());
        };
        let gran = GranLtf::new(1 + (algo_seed as usize % 5));
        let algos: Vec<&dyn ConstructionAlgorithm> = vec![
            &RandomJoin, &LargestTreeFirst, &SmallestTreeFirst, &CorrelatedRandomJoin, &gran,
        ];
        for algo in algos {
            let mut rng = ChaCha8Rng::seed_from_u64(algo_seed);
            let outcome = algo.construct(&problem, &mut rng);
            prop_assert!(validate_forest(&problem, outcome.forest()).is_ok(),
                "{} built an invalid forest", algo.name());
            let m = outcome.metrics();
            prop_assert_eq!(m.accepted_requests + m.rejected_requests, m.total_requests);
            prop_assert!((0.0..=1.0).contains(&m.rejection_ratio));
            prop_assert!((0.0..=1.0).contains(&m.pair_rejection_ratio));
            prop_assert!(m.weighted_rejection >= 0.0);
        }
    }

    /// CO-RJ never loses more *requests* than it must: its forest is valid
    /// and its weighted rejection never exceeds RJ's on the same seed by
    /// more than numerical noise... structurally we assert validity plus
    /// the swap guarantee: every swap preserved degree usage.
    #[test]
    fn corj_is_structurally_sound(
        n in 3usize..6,
        capacity in 1u32..6,
        edges in proptest::collection::vec((0u8..6, 0u8..6, 0u8..4), 0..50),
        seed in 0u64..500,
    ) {
        let Some(problem) = arbitrary_problem(n, capacity, 20, &edges, 7) else {
            return Ok(());
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let outcome = CorrelatedRandomJoin.construct(&problem, &mut rng);
        prop_assert!(validate_forest(&problem, outcome.forest()).is_ok());
    }

    /// The simulator conserves frames: delivered == expected for any valid
    /// plan (no loss, no duplication), and latencies are positive.
    #[test]
    fn simulator_conserves_frames(
        n in 3usize..6,
        capacity in 2u32..8,
        edges in proptest::collection::vec((0u8..6, 0u8..6, 0u8..4), 1..40),
        seed in 0u64..500,
    ) {
        let Some(problem) = arbitrary_problem(n, capacity, 40, &edges, 3) else {
            return Ok(());
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let outcome = RandomJoin.construct(&problem, &mut rng);
        let plan = DisseminationPlan::from_forest(
            &problem, outcome.forest(), StreamProfile::default());
        let report = simulate(&plan, &[], &FaultPlan::none(), &SimConfig::short());
        prop_assert_eq!(report.delivery_ratio(), 1.0);
        // Per planned (site, stream) delivery, at least one frame and all
        // with sane latencies.
        for sp in plan.site_plans() {
            for stream in sp.received_streams() {
                let stats = report.stream_stats(sp.site, stream);
                prop_assert!(stats.is_some(), "missing delivery {} at {}", stream, sp.site);
                let stats = stats.unwrap();
                prop_assert!(stats.frames() > 0);
                prop_assert!(stats.max_latency() >= stats.mean_latency());
            }
        }
    }

    /// Replans and faults in one run never conjure frames: under random
    /// churn deltas, a lossy planned link and an optional crash, no (site,
    /// stream) pair receives more frames than its stream captured, the
    /// delivery ratio stays within [0, 1], and the run is deterministic.
    #[test]
    fn simulator_never_overdelivers_under_replans_and_faults(
        n in 3usize..6,
        capacity in 1u32..6,
        edges in proptest::collection::vec((0u8..6, 0u8..6, 0u8..4), 1..40),
        ops in proptest::collection::vec((proptest::bool::ANY, 0usize..64), 0..30),
        replans in proptest::collection::vec((0u64..1000, 0usize..10), 0..4),
        loss in (0usize..64, 0.0f64..1.0),
        crash in (proptest::bool::ANY, 0u32..6, 0u64..1000),
        cost_seed in 0u8..255,
    ) {
        use teeve::overlay::OverlayManager;

        let Some(problem) = arbitrary_problem(n, capacity, 40, &edges, cost_seed) else {
            return Ok(());
        };
        let requests: Vec<_> = problem
            .requests()
            .map(|r| (r.subscriber, r.stream))
            .collect();
        let mut manager = OverlayManager::new(problem.clone());
        for &(sub, stream) in &requests {
            let _ = manager.subscribe(sub, stream);
        }
        let plan_of = |manager: &OverlayManager| {
            DisseminationPlan::from_forest(
                &problem, &manager.forest_snapshot(), StreamProfile::default())
        };
        let initial = plan_of(&manager);

        // Churn deltas at random sorted times, each diffed against the
        // revision before it.
        let mut replans = replans;
        replans.sort_by_key(|&(at, _)| at);
        let mut ops = ops.into_iter();
        let mut revision = initial.clone();
        let mut deltas = Vec::new();
        for (at, len) in replans {
            for (join, pick) in ops.by_ref().take(len) {
                let Some(&(sub, stream)) = requests.get(pick % requests.len().max(1)) else {
                    continue;
                };
                if join {
                    let _ = manager.subscribe(sub, stream);
                } else {
                    let _ = manager.unsubscribe(sub, stream);
                }
            }
            let next = plan_of(&manager);
            deltas.push((SimTime::from_millis(at), PlanDelta::diff(&revision, &next)));
            revision = next;
        }

        let planned: Vec<_> = initial.edges().collect();
        let mut faults = FaultPlan::none();
        if let Some(&(from, to, _)) = planned.get(loss.0 % planned.len().max(1)) {
            faults = faults.with_link_loss(from, to, loss.1);
        }
        if crash.0 {
            faults = faults.with_crash(SiteId::new(crash.1 % n as u32), SimTime::from_millis(crash.2));
        }

        let config = SimConfig::default().with_duration(SimTime::from_millis(1000));
        let report = simulate(&initial, &deltas, &faults, &config);
        let interval = StreamProfile::default().frame_interval_micros();
        let captures = (config.duration.as_micros() - 1) / interval + 1;
        for site in SiteId::all(n) {
            for stream in problem.requests().map(|r| r.stream) {
                let got = report.stream_stats(site, stream).map_or(0, |s| s.frames());
                prop_assert!(got <= captures,
                    "{site} got {got} frames of {stream}, which captured {captures}");
            }
        }
        let ratio = report.delivery_ratio();
        prop_assert!((0.0..=1.0).contains(&ratio), "delivery ratio {ratio}");
        prop_assert_eq!(report, simulate(&initial, &deltas, &faults, &config));
    }

    /// Workload generation always produces problems the builder accepts,
    /// with demand within the theoretical envelope.
    #[test]
    fn workload_generation_is_well_formed(
        n in 3usize..8,
        seed in 0u64..1000,
        zipf in proptest::bool::ANY,
        heterogeneous in proptest::bool::ANY,
    ) {
        let costs = CostMatrix::from_fn(n, |i, j| CostMs::new(2 + ((i + j) % 7) as u32));
        let config = match (zipf, heterogeneous) {
            (true, true) => WorkloadConfig::zipf_heterogeneous(),
            (true, false) => WorkloadConfig::zipf_uniform(),
            (false, true) => WorkloadConfig::random_heterogeneous(),
            (false, false) => WorkloadConfig::random_uniform(),
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let problem = config.generate(&costs, &mut rng).expect("n >= 3");
        prop_assert_eq!(problem.site_count(), n);
        // No site subscribes to itself; all requests reference real streams.
        for r in problem.requests() {
            prop_assert!(r.subscriber != r.stream.origin());
            prop_assert!(r.stream.local_index() < problem.streams_of(r.stream.origin()));
        }
        // Total requests bounded by sites x all remote streams.
        let total_streams: u32 = (0..n)
            .map(|i| problem.streams_of(SiteId::new(i as u32)))
            .sum();
        prop_assert!(problem.total_requests() <= n * total_streams as usize);
    }

    /// The unicast baseline obeys the same invariants as the overlay
    /// algorithms, and its trees never relay (depth ≤ 1).
    #[test]
    fn unicast_baseline_builds_valid_stars(
        n in 3usize..7,
        capacity in 1u32..8,
        bound in 2u32..25,
        edges in proptest::collection::vec((0u8..7, 0u8..7, 0u8..4), 0..60),
        seed in 0u64..500,
    ) {
        let Some(problem) = arbitrary_problem(n, capacity, bound, &edges, 5) else {
            return Ok(());
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let outcome = UnicastBaseline.construct(&problem, &mut rng);
        prop_assert!(validate_forest(&problem, outcome.forest()).is_ok());
        for tree in outcome.forest().trees() {
            prop_assert!(tree.depth() <= 1, "unicast must not relay");
        }
        for i in 0..n as u32 {
            prop_assert_eq!(outcome.forest().relay_degree(SiteId::new(i)), 0);
        }
    }

    /// The exact solver is never beaten by any heuristic or the unicast
    /// baseline, and its forest satisfies every constraint.
    #[test]
    fn optimal_lower_bounds_every_heuristic(
        capacity in 1u32..4,
        bound in 4u32..25,
        edges in proptest::collection::vec((0u8..3, 0u8..3, 0u8..2), 0..9),
        seed in 0u64..300,
    ) {
        // 3 sites, 2 streams each, ≤9 raw edges: within the solver caps
        // after duplicate collapsing.
        let streams_per_site = 2u32;
        let costs = CostMatrix::from_fn(3, |i, j| {
            CostMs::new(1 + ((i * 31 + j * 17) % 9) as u32)
        });
        let mut builder = ProblemInstance::builder(costs, CostMs::new(bound))
            .symmetric_capacities(Degree::new(capacity))
            .streams_per_site(&[streams_per_site; 3]);
        for &(sub, origin, q) in &edges {
            let sub = SiteId::new(u32::from(sub) % 3);
            let origin_site = SiteId::new(u32::from(origin) % 3);
            if sub == origin_site {
                continue;
            }
            builder = builder.subscribe(sub, StreamId::new(origin_site, u32::from(q) % streams_per_site));
        }
        let Ok(problem) = builder.build() else { return Ok(()); };

        let optimal = teeve::overlay::OptimalSolver::default()
            .solve(&problem)
            .expect("within caps");
        prop_assert!(validate_forest(&problem, optimal.forest()).is_ok());
        let best = optimal.metrics().rejected_requests;

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let algos: Vec<&dyn ConstructionAlgorithm> =
            vec![&RandomJoin, &LargestTreeFirst, &SmallestTreeFirst, &UnicastBaseline];
        for algo in algos {
            let h = algo.construct(&problem, &mut rng).metrics().rejected_requests;
            prop_assert!(best <= h, "{} rejected {h} < optimal {best}", algo.name());
        }
    }

    /// `link_changes_between` partitions the site-level connection consequences
    /// of any delta exactly: what it establishes is new, what it closes is
    /// gone, and established ∪ retained is precisely the after-state.
    #[test]
    fn link_changes_partition_the_connection_graph(
        n in 3usize..7,
        capacity in 1u32..8,
        edges in proptest::collection::vec((0u8..7, 0u8..7, 0u8..4), 1..60),
        ops in proptest::collection::vec((proptest::bool::ANY, 0usize..64), 0..40),
        split in 0usize..40,
        cost_seed in 0u8..255,
    ) {
        use std::collections::BTreeSet;
        use teeve::overlay::OverlayManager;
        use teeve::pubsub::link_changes_between;

        let Some(problem) = arbitrary_problem(n, capacity, 30, &edges, cost_seed) else {
            return Ok(());
        };
        let requests: Vec<_> = problem
            .requests()
            .map(|r| (r.subscriber, r.stream))
            .collect();
        if requests.is_empty() {
            return Ok(());
        }
        let mut manager = OverlayManager::new(problem.clone());
        let run = |manager: &mut OverlayManager, ops: &[(bool, usize)]| {
            for &(join, pick) in ops {
                let (sub, stream) = requests[pick % requests.len()];
                if join {
                    let _ = manager.subscribe(sub, stream);
                } else {
                    let _ = manager.unsubscribe(sub, stream);
                }
            }
        };
        let split = split.min(ops.len());
        run(&mut manager, &ops[..split]);
        let before = DisseminationPlan::from_forest(
            &problem, &manager.forest_snapshot(), StreamProfile::default());
        run(&mut manager, &ops[split..]);
        let after = DisseminationPlan::from_forest(
            &problem, &manager.forest_snapshot(), StreamProfile::default());

        let pairs = |plan: &DisseminationPlan| -> BTreeSet<(SiteId, SiteId)> {
            plan.edges().map(|(p, c, _)| (p, c)).collect()
        };
        let before_pairs = pairs(&before);
        let after_pairs = pairs(&after);

        let mut applied = before.clone();
        PlanDelta::diff(&before, &after).apply(&mut applied).expect("delta matches before");
        let changes = link_changes_between(&before, &applied);
        let established: BTreeSet<_> = changes.established.iter().copied().collect();
        let closed: BTreeSet<_> = changes.closed.iter().copied().collect();
        let retained: BTreeSet<_> = changes.retained.iter().copied().collect();

        // established ∪ retained == after-pairs.
        let after_rebuilt: BTreeSet<_> = established.union(&retained).copied().collect();
        prop_assert_eq!(&after_rebuilt, &after_pairs);
        // closed ∪ retained == before-pairs.
        let before_rebuilt: BTreeSet<_> = closed.union(&retained).copied().collect();
        prop_assert_eq!(&before_rebuilt, &before_pairs);
        // established ∩ before == ∅ — never "open" a live connection.
        prop_assert!(established.is_disjoint(&before_pairs));
        // closed ∩ after == ∅ — never close a connection still in use.
        prop_assert!(closed.is_disjoint(&after_pairs));
        // The three classes never overlap.
        prop_assert!(established.is_disjoint(&closed));
        prop_assert!(established.is_disjoint(&retained));
        prop_assert!(closed.is_disjoint(&retained));
        // Socket-free means exactly: the connection graph is unchanged.
        prop_assert_eq!(changes.is_socket_free(), before_pairs == after_pairs);
    }

    /// Cost matrices sampled from the backbone are metric and symmetric.
    #[test]
    fn backbone_sessions_are_metric(n in 3usize..12, seed in 0u64..200) {
        let topo = teeve::topology::backbone_north_america();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let session = topo.sample_session(n, &mut rng).expect("session");
        prop_assert!(session.costs.is_metric());
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(session.costs.cost_idx(i, j), session.costs.cost_idx(j, i));
                if i != j {
                    prop_assert!(session.costs.cost_idx(i, j) > CostMs::ZERO);
                }
            }
        }
    }
}

/// A ladder of 1–4 rungs through [`QualityLadder::new`]: the floor rate is
/// `steps[0]` and each rung above adds the next step.
fn ladder_from_steps(steps: &[u64]) -> QualityLadder {
    let mut rate = 0;
    let mut levels: Vec<QualityLevel> = steps
        .iter()
        .map(|step| {
            rate += step;
            QualityLevel { bitrate_bps: rate }
        })
        .collect();
    levels.reverse();
    QualityLadder::new(levels)
}

/// Unique streams with FOV scores, one in four NaN (the first draw of an
/// id wins).
fn scored_streams(raw: &[(u32, u32, u32, f64)]) -> Vec<(StreamId, f64)> {
    let mut seen = std::collections::BTreeSet::new();
    raw.iter()
        .filter(|&&(origin, q, _, _)| seen.insert((origin, q)))
        .map(|&(origin, q, nan, score)| {
            let score = if nan == 0 { f64::NAN } else { score };
            (StreamId::new(SiteId::new(origin), q), score)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `fits` is exactly `total_bps <= budget`, and a fit that does not
    /// fit has exhausted the ladder: every stream sits at the floor.
    #[test]
    fn fit_qualities_fits_exactly_when_within_budget(
        steps in proptest::collection::vec(1u64..10_000_000, 1..5),
        raw in proptest::collection::vec((0u32..6, 0u32..8, 0u32..4, 0.0f64..1.0), 0..12),
        budget in 0u64..300_000_000,
    ) {
        let ladder = ladder_from_steps(&steps);
        let fit = fit_qualities(&ladder, Some(budget), &scored_streams(&raw));
        prop_assert_eq!(fit.fits, fit.total_bps <= budget);
        if !fit.fits {
            prop_assert!(fit.qualities.values().all(|&q| q == ladder.floor()));
        }
    }

    /// Every input stream gets exactly one rung, within the ladder, with
    /// or without a budget.
    #[test]
    fn fit_qualities_covers_every_stream_within_the_ladder(
        steps in proptest::collection::vec(1u64..10_000_000, 1..5),
        raw in proptest::collection::vec((0u32..6, 0u32..8, 0u32..4, 0.0f64..1.0), 0..12),
        budget in 0u64..300_000_000,
        unconstrained in proptest::bool::ANY,
    ) {
        let ladder = ladder_from_steps(&steps);
        let streams = scored_streams(&raw);
        let budget = (!unconstrained).then_some(budget);
        let fit = fit_qualities(&ladder, budget, &streams);
        prop_assert_eq!(fit.qualities.len(), streams.len());
        for (stream, _) in &streams {
            prop_assert!(fit.qualities[stream] <= ladder.floor());
        }
        if budget.is_none() {
            prop_assert!(fit.fits);
            prop_assert!(fit.qualities.values().all(|q| q.is_full()));
        }
    }

    /// The reported total is the sum of the granted rungs' ladder rates.
    #[test]
    fn fit_qualities_total_is_the_sum_of_granted_rates(
        steps in proptest::collection::vec(1u64..10_000_000, 1..5),
        raw in proptest::collection::vec((0u32..6, 0u32..8, 0u32..4, 0.0f64..1.0), 0..12),
        budget in 0u64..300_000_000,
    ) {
        let ladder = ladder_from_steps(&steps);
        let fit = fit_qualities(&ladder, Some(budget), &scored_streams(&raw));
        let sum: u64 = fit.qualities.values().map(|&q| ladder.rate_of(q)).sum();
        prop_assert_eq!(fit.total_bps, sum);
    }

    /// More budget never serves any stream at a coarser rung.
    #[test]
    fn fit_qualities_is_monotone_in_budget(
        steps in proptest::collection::vec(1u64..10_000_000, 1..5),
        raw in proptest::collection::vec((0u32..6, 0u32..8, 0u32..4, 0.0f64..1.0), 0..12),
        a in 0u64..300_000_000,
        b in 0u64..300_000_000,
    ) {
        let ladder = ladder_from_steps(&steps);
        let streams = scored_streams(&raw);
        let small = fit_qualities(&ladder, Some(a.min(b)), &streams);
        let large = fit_qualities(&ladder, Some(a.max(b)), &streams);
        for (stream, _) in &streams {
            prop_assert!(large.qualities[stream] <= small.qualities[stream]);
        }
    }

    /// Between two streams with real scores, the higher-scored one is
    /// never served at a coarser rung.
    #[test]
    fn fit_qualities_degrades_the_lower_score_first(
        steps in proptest::collection::vec(1u64..10_000_000, 1..5),
        raw in proptest::collection::vec((0u32..6, 0u32..8, 0u32..4, 0.0f64..1.0), 0..12),
        budget in 0u64..300_000_000,
    ) {
        let ladder = ladder_from_steps(&steps);
        let streams = scored_streams(&raw);
        let fit = fit_qualities(&ladder, Some(budget), &streams);
        for (high, high_score) in &streams {
            for (low, low_score) in &streams {
                if high_score > low_score {
                    prop_assert!(fit.qualities[high] <= fit.qualities[low]);
                }
            }
        }
    }

    /// The fit depends on the stream set, not on its order.
    #[test]
    fn fit_qualities_ignores_input_order(
        steps in proptest::collection::vec(1u64..10_000_000, 1..5),
        raw in proptest::collection::vec((0u32..6, 0u32..8, 0u32..4, 0.0f64..1.0), 0..12),
        budget in 0u64..300_000_000,
    ) {
        let ladder = ladder_from_steps(&steps);
        let mut streams = scored_streams(&raw);
        let forward = fit_qualities(&ladder, Some(budget), &streams);
        streams.reverse();
        prop_assert_eq!(forward, fit_qualities(&ladder, Some(budget), &streams));
    }
}

/// The plan derivation `DisseminationPlan::from_trees` replaced: every
/// (tree, member) pair, children found by `MulticastTree::children`'s
/// scan, entries keyed by stream.
fn reference_site_plans(
    n: usize,
    trees: &[teeve::overlay::MulticastTree],
) -> Vec<teeve::pubsub::SitePlan> {
    use std::collections::BTreeMap;
    use teeve::pubsub::{ChildLink, ForwardingEntry, SitePlan};
    use teeve::types::Quality;

    let mut per_site: Vec<BTreeMap<StreamId, ForwardingEntry>> = vec![BTreeMap::new(); n];
    for tree in trees {
        for site in SiteId::all(n) {
            if !tree.is_member(site) {
                continue;
            }
            let entry = ForwardingEntry {
                stream: tree.stream(),
                parent: tree.parent_of(site),
                children: tree
                    .children(site)
                    .into_iter()
                    .map(ChildLink::full)
                    .collect(),
                quality: Quality::FULL,
            };
            if entry.is_origin() && entry.children.is_empty() {
                continue;
            }
            per_site[site.index()].insert(tree.stream(), entry);
        }
    }
    per_site
        .into_iter()
        .enumerate()
        .map(|(i, entries)| SitePlan {
            site: SiteId::new(i as u32),
            entries: entries.into_values().collect(),
        })
        .collect()
}

/// The diff `PlanDelta::diff` replaced: per site, the union of both
/// sides' streams in a `BTreeSet`, each entry found by linear search and
/// cloned.
fn reference_changes(
    old: &DisseminationPlan,
    new: &DisseminationPlan,
) -> Vec<teeve::pubsub::EntryChange> {
    use std::collections::BTreeSet;
    use teeve::pubsub::EntryChange;

    let mut changes = Vec::new();
    for (old_sp, new_sp) in old.site_plans().iter().zip(new.site_plans()) {
        let streams: BTreeSet<StreamId> = old_sp
            .entries
            .iter()
            .chain(&new_sp.entries)
            .map(|e| e.stream)
            .collect();
        for stream in streams {
            let old_entry = old_sp.entry(stream).cloned();
            let new_entry = new_sp.entry(stream).cloned();
            if old_entry != new_entry {
                changes.push(EntryChange {
                    site: old_sp.site,
                    stream,
                    old: old_entry,
                    new: new_entry,
                });
            }
        }
    }
    changes
}

/// Stamps a quality rung on every `stride`-th received entry of `plan`
/// (rungs cycle 1..=3), so diffs see quality-only changes too.
fn stamp_qualities(plan: &mut DisseminationPlan, stride: usize, salt: usize) {
    use teeve::types::Quality;

    let received: Vec<(SiteId, StreamId)> = plan
        .site_plans()
        .iter()
        .flat_map(|sp| sp.received_streams().map(move |s| (sp.site, s)))
        .collect();
    for (i, (site, stream)) in received.into_iter().enumerate() {
        if (i + salt).is_multiple_of(stride) {
            plan.set_quality(site, stream, Quality::new(1 + ((i + salt) % 3) as u8));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Under seeded churn, `from_trees` derives exactly the plan the
    /// per-(tree, site) `children` scan derives, and `PlanDelta::diff`
    /// between any two revisions (quality stamps included) lists exactly
    /// the `BTreeSet` diff's changes, in the same site-then-stream order.
    #[test]
    fn derive_and_diff_match_their_reference_forms(
        n in 3usize..8,
        capacity in 1u32..8,
        edges in proptest::collection::vec((0u8..8, 0u8..8, 0u8..4), 1..80),
        ops in proptest::collection::vec((proptest::bool::ANY, 0usize..128), 0..60),
        split in 0usize..60,
        strides in (1usize..5, 1usize..5),
        cost_seed in 0u8..255,
    ) {
        use teeve::overlay::OverlayManager;

        let Some(problem) = arbitrary_problem(n, capacity, 30, &edges, cost_seed) else {
            return Ok(());
        };
        let requests: Vec<_> = problem
            .requests()
            .map(|r| (r.subscriber, r.stream))
            .collect();
        if requests.is_empty() {
            return Ok(());
        }
        let mut manager = OverlayManager::new(problem.clone());
        let mut plans = Vec::new();
        let split = split.min(ops.len());
        for chunk in [&ops[..split], &ops[split..]] {
            for &(join, pick) in chunk {
                let (sub, stream) = requests[pick % requests.len()];
                if join {
                    let _ = manager.subscribe(sub, stream);
                } else {
                    let _ = manager.unsubscribe(sub, stream);
                }
            }
            let trees = manager.state().trees();
            let plan = DisseminationPlan::from_trees(&problem, trees, StreamProfile::default());
            prop_assert_eq!(plan.site_plans(), &reference_site_plans(n, trees)[..]);
            plans.push(plan);
        }
        let (mut before, mut after) = (plans[0].clone(), plans[1].clone());
        let diff_matches = |old: &DisseminationPlan, new: &DisseminationPlan| {
            PlanDelta::diff(old, new).changes() == reference_changes(old, new).as_slice()
        };
        prop_assert!(diff_matches(&before, &after));
        stamp_qualities(&mut before, strides.0, 0);
        stamp_qualities(&mut after, strides.1, 1);
        for (old, new) in [(&before, &after), (&after, &before), (&before, &plans[0])] {
            prop_assert!(diff_matches(old, new));
        }
    }
}
