//! The epoch-driven session runtime.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use teeve_adapt::BandwidthEstimator;
use teeve_overlay::{
    fit_qualities, validate_forest, Forest, InvariantViolation, OverlayManager, ProblemInstance,
    SubscribeResult,
};
use teeve_pubsub::{DeltaSink, DisseminationPlan, PlanDelta, Session};
use teeve_telemetry::{FlightEventKind, FlightRecorder, Histogram, MetricsRegistry};
use teeve_types::{DisplayId, Quality, QualityLadder, SessionId, SiteId, StreamId};

use crate::commit::EpochCommit;
use crate::config::RuntimeConfig;
use crate::event::RuntimeEvent;
use crate::metrics::{EpochReport, PhaseBreakdown, RuntimeReport};

/// Pre-resolved telemetry handles the runtime records each epoch into:
/// one histogram per phase plus the whole-epoch reconvergence, and the
/// flight recorder for structural events (rebuild-gate trips).
#[derive(Debug, Clone)]
struct RuntimeTelemetry {
    event_drain: Histogram,
    repair: Histogram,
    refit: Histogram,
    derive: Histogram,
    delta: Histogram,
    reconverge: Histogram,
    recorder: FlightRecorder,
}

/// Error produced when assembling a runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The subscription universe covers a different site count than the
    /// session (it was built for another session).
    UniverseMismatch {
        /// Sites in the universe problem.
        universe_sites: usize,
        /// Sites in the session.
        session_sites: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UniverseMismatch {
                universe_sites,
                session_sites,
            } => write!(
                f,
                "universe covers {universe_sites} sites, session has {session_sites}"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Everything one epoch produced: the plan diff to disseminate (quality
/// decisions included — see [`DisseminationPlan::quality_of`]), the
/// epoch's metrics, and its durable record.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// Forwarding-state changes turning the previous plan into the new
    /// one; executors apply this without touching unaffected links.
    pub delta: PlanDelta,
    /// The epoch's runtime metrics.
    pub report: EpochReport,
    /// The epoch's durable record — the consumed event batch plus the
    /// derived state a store persists (and a recovery cross-checks).
    pub commit: EpochCommit,
}

/// An event-driven orchestrator owning a live 3DTI session end to end.
///
/// The paper solves the static overlay construction problem; the runtime
/// closes the loop for *live* operation. It consumes a stream of
/// [`RuntimeEvent`]s — display FOV changes (geometry), site join/leave
/// (membership churn), bandwidth samples (transport) — and reconciles
/// them in **epochs**:
///
/// 1. events update the session's desired subscription state;
/// 2. the desired state is diffed against the live overlay and repaired
///    incrementally (leaves first, then joins, retrying past rejections);
/// 3. if the epoch's rejection ratio or tree depth degrades past the
///    [`FallbackPolicy`](crate::FallbackPolicy), the forest is rebuilt
///    from scratch instead — at most once per distinct demand, since
///    reconstruction is deterministic and rebuilding again for unchanged
///    demand would reproduce the same forest at full cost;
/// 4. every site's granted streams are re-fitted into its estimated
///    bandwidth (degrading under pressure, promoting when it clears);
/// 5. a new [`DisseminationPlan`] carrying those quality rungs is derived
///    and emitted as a [`PlanDelta`] against the previous epoch's plan, so
///    executors (the simulator's [`simulate_with_replans`], the TCP
///    cluster) only touch what changed.
///
/// [`simulate_with_replans`]: https://docs.rs/teeve-sim
///
/// # Examples
///
/// ```
/// use teeve_pubsub::{subscription_universe, Session};
/// use teeve_runtime::{RuntimeConfig, RuntimeEvent, SessionRuntime};
/// use teeve_types::{CostMatrix, CostMs, Degree, DisplayId, SiteId};
///
/// let costs = CostMatrix::from_fn(4, |_, _| CostMs::new(6));
/// let session = Session::builder(costs)
///     .cameras_per_site(6)
///     .displays_per_site(1)
///     .symmetric_capacity(Degree::new(12))
///     .build();
/// let universe = subscription_universe(&session)?;
/// let mut runtime = SessionRuntime::new(universe, session, RuntimeConfig::default())?;
///
/// let outcome = runtime.apply_epoch(&[RuntimeEvent::Viewpoint {
///     display: DisplayId::new(SiteId::new(0), 0),
///     target: SiteId::new(2),
/// }]);
/// assert!(!outcome.delta.is_empty());
/// assert!(outcome.report.accepted > 0);
/// runtime.validate()?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SessionRuntime {
    universe: Arc<ProblemInstance>,
    session: Session,
    manager: OverlayManager,
    plan: DisseminationPlan,
    /// Streams each site currently receives through the overlay.
    granted: Vec<BTreeSet<StreamId>>,
    /// Site liveness; inactive sites hold no subscriptions and their
    /// streams are suspended everywhere.
    active: Vec<bool>,
    estimators: Vec<BandwidthEstimator>,
    /// Last FOV contribution score per (display, stream): the priority
    /// admission and quality refitting degrade by.
    /// Entries live exactly as long as the display's current FOV demands
    /// the stream: each FOV event replaces the display's scores wholesale.
    scores: BTreeMap<(DisplayId, StreamId), f64>,
    /// The quality-annotated demand the forest was last rebuilt for,
    /// valid while no incremental mutation has touched the forest since.
    /// Each site's desired streams map to the quality rung its current
    /// budget would fit them at, so unchanged membership with a changed
    /// budget reads as *new* demand (a rebuild may admit differently)
    /// while truly unchanged demand never rebuilds twice —
    /// reconstruction is deterministic, and thrashing on persistently
    /// infeasible demand is exactly what this gate prevents.
    rebuilt_for: Option<Vec<BTreeMap<StreamId, Quality>>>,
    /// The quality ladder shared by admission and refitting.
    ladder: QualityLadder,
    /// The hosted session this runtime serves when owned by a
    /// multi-session service; every derived plan and emitted delta is
    /// stamped with it.
    scope: Option<SessionId>,
    config: RuntimeConfig,
    epoch: u64,
    /// Running totals over every epoch so far — constant-size, so a
    /// long-lived session's memory does not grow with its age.
    totals: RuntimeReport,
    /// Attached observability sinks; `None` keeps the hot path free of
    /// registry lookups.
    telemetry: Option<RuntimeTelemetry>,
}

impl SessionRuntime {
    /// Creates a runtime over `session`, seeding the overlay from the
    /// session's current display subscriptions.
    ///
    /// `universe` must be the session's subscription universe (see
    /// [`subscription_universe`](teeve_pubsub::subscription_universe)):
    /// the problem instance declaring every admissible subscription. The
    /// runtime *owns* it — pass the instance by value, or a clone of an
    /// `Arc<ProblemInstance>` when sharing it — so runtimes are
    /// free-standing values a long-lived service can collect in a
    /// registry.
    ///
    /// # Errors
    ///
    /// Returns an error if `universe` covers a different site count.
    pub fn new(
        universe: impl Into<Arc<ProblemInstance>>,
        session: Session,
        config: RuntimeConfig,
    ) -> Result<Self, RuntimeError> {
        let universe = universe.into();
        let n = session.site_count();
        if universe.site_count() != n {
            return Err(RuntimeError::UniverseMismatch {
                universe_sites: universe.site_count(),
                session_sites: n,
            });
        }
        let manager = Self::make_manager(&universe, &config);
        let mut runtime = SessionRuntime {
            plan: DisseminationPlan::from_forest(
                &universe,
                &manager.forest_snapshot(),
                session.profile(),
            ),
            universe,
            manager,
            granted: vec![BTreeSet::new(); n],
            active: vec![true; n],
            estimators: vec![BandwidthEstimator::new(config.bandwidth_alpha); n],
            scores: BTreeMap::new(),
            rebuilt_for: None,
            ladder: QualityLadder::paper_default(),
            scope: None,
            session,
            config,
            epoch: 0,
            totals: RuntimeReport::default(),
            telemetry: None,
        };
        // Seed the overlay from the session's pre-existing subscriptions;
        // the empty-forest plan built above is already correct unless the
        // seed granted something.
        let mut seed_report = EpochReport::default();
        runtime.reconcile(&mut seed_report);
        if seed_report.accepted > 0 {
            runtime.plan = runtime.derive_plan();
        }
        Ok(runtime)
    }

    /// Scopes the runtime to one hosted session of a multi-session
    /// service: the current plan and every future plan and delta carry
    /// `scope`, so a shared executor (see
    /// [`DeltaRouter`](teeve_pubsub::DeltaRouter)) can route them.
    #[must_use]
    pub fn with_scope(mut self, scope: SessionId) -> Self {
        self.scope = Some(scope);
        self.plan.set_scope(Some(scope));
        self
    }

    /// Returns the hosted session this runtime is scoped to, if any.
    pub fn scope(&self) -> Option<SessionId> {
        self.scope
    }

    /// Attaches observability sinks: every subsequent epoch records its
    /// phase spans and reconvergence into `registry`'s
    /// `runtime.phase.*_micros` / `runtime.reconverge_micros` histograms,
    /// and structural events (rebuild-gate trips) into `recorder`.
    ///
    /// Handles are resolved once here so the epoch hot path never takes
    /// a registry lock. The registry and recorder are shared — a
    /// multi-session service attaches the same pair to every runtime it
    /// owns and reads one merged distribution.
    pub fn attach_telemetry(&mut self, registry: &MetricsRegistry, recorder: FlightRecorder) {
        self.telemetry = Some(RuntimeTelemetry {
            event_drain: registry.histogram("runtime.phase.event_drain_micros"),
            repair: registry.histogram("runtime.phase.repair_micros"),
            refit: registry.histogram("runtime.phase.refit_micros"),
            derive: registry.histogram("runtime.phase.derive_micros"),
            delta: registry.histogram("runtime.phase.delta_micros"),
            reconverge: registry.histogram("runtime.reconverge_micros"),
            recorder,
        });
    }

    /// Returns the session in its current state.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Returns the subscription universe the overlay operates over.
    pub fn universe(&self) -> &ProblemInstance {
        &self.universe
    }

    /// Returns the dissemination plan of the latest epoch.
    pub fn plan(&self) -> &DisseminationPlan {
        &self.plan
    }

    /// Returns the number of completed epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Returns the aggregate statistics over all epochs.
    pub fn report(&self) -> RuntimeReport {
        self.totals.clone()
    }

    /// Returns whether `site` is currently part of the session.
    pub fn is_active(&self, site: SiteId) -> bool {
        self.active[site.index()]
    }

    /// Returns the streams `site` currently receives through the overlay.
    pub fn granted(&self, site: SiteId) -> &BTreeSet<StreamId> {
        &self.granted[site.index()]
    }

    /// Returns a snapshot of the live multicast forest.
    pub fn forest_snapshot(&self) -> Forest {
        self.manager.forest_snapshot()
    }

    /// Checks every static invariant on the live forest.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        validate_forest(&self.universe, &self.forest_snapshot())
    }

    /// Consumes one epoch's worth of events, reconciles the overlay, and
    /// returns the resulting plan delta, metrics, and durable commit.
    pub fn apply_epoch(&mut self, events: &[RuntimeEvent]) -> EpochOutcome {
        let started = Instant::now();
        let mut report = EpochReport {
            epoch: self.epoch,
            events: events.len(),
            ..EpochReport::default()
        };
        let n = self.session.site_count();
        let served_before = self.granted.clone();

        for event in events {
            self.ingest(event);
        }
        // Feed the transport layer's estimates into the overlay's
        // degrade-don't-reject admission before any join is attempted.
        self.sync_budgets();
        let drained = Instant::now();

        let desired = self.reconcile(&mut report);
        // The gate below keys on *quality-annotated* demand: the desired
        // streams plus the rung each site's current budget would fit them
        // at, so a budget shift re-opens the gate (a rebuild may now
        // admit differently) while truly unchanged demand never rebuilds
        // twice.
        let annotated = self.annotate_demand(&desired);
        if report.unsubscribes > 0 || report.accepted > 0 {
            // The forest mutated since any previous rebuild; a rebuild
            // for the same demand is no longer a guaranteed no-op.
            self.rebuilt_for = None;
        }

        // Degradation check: fall back to full reconstruction when the
        // incremental repair path has dug itself into a hole — unless the
        // forest is already the reconstruction of this exact demand
        // (persistently infeasible subscriptions re-rejected every epoch
        // must not trigger a full rebuild every epoch).
        if self
            .config
            .fallback
            .must_rebuild(report.rejection_ratio(), self.forest_depth())
            && self.rebuilt_for.as_ref() != Some(&annotated)
        {
            if let Some(telemetry) = &self.telemetry {
                telemetry
                    .recorder
                    .record(FlightEventKind::RebuildGate { epoch: self.epoch });
            }
            self.rebuild(&mut report);
            self.rebuilt_for = Some(annotated);
        }
        report.max_tree_depth = self.forest_depth();
        let repaired = Instant::now();

        // Close the adaptation loop: re-fit every site's granted streams
        // to its current budget (degrading under pressure, promoting when
        // it clears), so the plan derived below — and the delta diffed
        // from it — carries this epoch's quality decisions.
        self.refit_qualities();
        let refitted = Instant::now();

        // Every epoch is one control-plane revision, even a quiet one: the
        // emitted delta always advances executors from the previous
        // epoch's revision to this one's.
        let mut new_plan = self.derive_plan();
        new_plan.set_revision(self.plan.revision() + 1);
        let derived = Instant::now();
        let delta = PlanDelta::diff(&self.plan, &new_plan);
        report.delta_entries = delta.len();
        report.plan_entries = new_plan
            .site_plans()
            .iter()
            .map(|sp| sp.entries.len())
            .sum();
        self.plan = new_plan;

        // Service lost this epoch: previously served subscriptions that
        // are still wanted but end the epoch unserved (casualties of a
        // departed relay or of the reconstruction; they retry next epoch).
        for site in SiteId::all(n) {
            report.dropped_subscriptions += served_before[site.index()]
                .iter()
                .filter(|st| {
                    desired[site.index()].contains(st) && !self.granted[site.index()].contains(st)
                })
                .count();
        }
        // Quality of service actually delivered: every planned delivery
        // is either full or degraded — the degrade-don't-reject path
        // turns would-be drops into the latter.
        for sp in self.plan.site_plans() {
            for entry in &sp.entries {
                if entry.is_origin() {
                    continue;
                }
                if entry.quality.is_full() {
                    report.served_full += 1;
                } else {
                    report.served_degraded += 1;
                }
            }
        }
        let finished = Instant::now();
        // Consecutive spans of one monotonic clock: the phases telescope,
        // so their sum equals `reconverge` exactly — see PhaseBreakdown.
        report.phases = PhaseBreakdown {
            event_drain: drained.duration_since(started),
            repair: repaired.duration_since(drained),
            refit: refitted.duration_since(repaired),
            derive: derived.duration_since(refitted),
            delta: finished.duration_since(derived),
        };
        report.reconverge = finished.duration_since(started);
        if let Some(telemetry) = &self.telemetry {
            telemetry
                .event_drain
                .record_duration(report.phases.event_drain);
            telemetry.repair.record_duration(report.phases.repair);
            telemetry.refit.record_duration(report.phases.refit);
            telemetry.derive.record_duration(report.phases.derive);
            telemetry.delta.record_duration(report.phases.delta);
            telemetry.reconverge.record_duration(report.reconverge);
        }

        let commit = EpochCommit {
            epoch: report.epoch,
            revision: self.plan.revision(),
            events: events.to_vec(),
            demand: desired
                .iter()
                .map(|d| d.iter().copied().collect())
                .collect(),
            granted: SiteId::all(n)
                .map(|site| {
                    self.granted[site.index()]
                        .iter()
                        .map(|&stream| (stream, self.quality_of(site, stream)))
                        .collect()
                })
                .collect(),
            ladder: self.ladder.clone(),
        };
        self.epoch += 1;
        self.totals.absorb(&report);
        EpochOutcome {
            delta,
            report,
            commit,
        }
    }

    /// Replays a whole trace, pushing every epoch's [`PlanDelta`] into a
    /// live executor as it is produced: each epoch reconciles the overlay,
    /// then `sink` applies the delta before the next epoch runs, exactly
    /// how the membership server dictates reconfigurations to running
    /// rendezvous points.
    ///
    /// Returns every epoch's outcome, in order.
    ///
    /// # Errors
    ///
    /// Stops at — and returns — the first delta the executor rejects; the
    /// runtime itself has already advanced past that epoch.
    pub fn drive_epochs<S: DeltaSink>(
        &mut self,
        trace: &[Vec<RuntimeEvent>],
        sink: &mut S,
    ) -> Result<Vec<EpochOutcome>, S::Error> {
        let mut outcomes = Vec::with_capacity(trace.len());
        for events in trace {
            let outcome = self.apply_epoch(events);
            sink.apply_delta(&outcome.delta)?;
            outcomes.push(outcome);
        }
        Ok(outcomes)
    }

    /// Applies one event to the session's desired state.
    fn ingest(&mut self, event: &RuntimeEvent) {
        match event {
            RuntimeEvent::FovChange { display, fov } => {
                let scored = self.session.subscribe_fov(*display, fov);
                self.record_scores(*display, scored);
            }
            RuntimeEvent::Viewpoint { display, target } => {
                let scored = self.session.subscribe_viewpoint(*display, *target);
                self.record_scores(*display, scored);
            }
            RuntimeEvent::FovClear { display } => {
                self.session.subscribe_streams(*display, Vec::new());
                self.clear_scores(*display);
            }
            RuntimeEvent::SiteJoin { site } => {
                self.active[site.index()] = true;
            }
            RuntimeEvent::SiteLeave { site } => {
                self.active[site.index()] = false;
                // The departed site's displays are gone; blank them so a
                // rejoin starts fresh.
                let displays = self.session.rp(*site).display_count();
                for d in 0..displays {
                    let display = DisplayId::new(*site, d);
                    self.session.subscribe_streams(display, Vec::new());
                    self.clear_scores(display);
                }
                self.estimators[site.index()].reset();
            }
            RuntimeEvent::BandwidthSample { site, bits_per_sec } => {
                self.estimators[site.index()].observe_bps(*bits_per_sec);
            }
        }
    }

    /// Replaces `display`'s contribution scores with its new FOV's.
    fn record_scores(&mut self, display: DisplayId, scored: Vec<teeve_geometry::ScoredStream>) {
        self.clear_scores(display);
        for s in scored {
            self.scores.insert((display, s.stream), s.score);
        }
    }

    fn clear_scores(&mut self, display: DisplayId) {
        self.scores.retain(|(d, _), _| *d != display);
    }

    /// The strongest contribution score any of `site`'s displays currently
    /// records for `stream`, or the configured default when no live FOV
    /// explains the delivery.
    fn fov_score(&self, site: SiteId, stream: StreamId) -> f64 {
        (0..self.session.rp(site).display_count())
            .filter_map(|d| self.scores.get(&(DisplayId::new(site, d), stream)))
            .copied()
            .reduce(f64::max)
            .unwrap_or(self.config.default_score)
    }

    /// The streams `site` should receive: its aggregated display demand,
    /// filtered by liveness on both ends.
    fn desired(&self, site: SiteId) -> BTreeSet<StreamId> {
        if !self.active[site.index()] {
            return BTreeSet::new();
        }
        self.session
            .rp(site)
            .aggregated_requests()
            .into_iter()
            .filter(|s| self.active[s.origin().index()])
            .collect()
    }

    /// Diffs desired vs granted state and repairs the overlay
    /// incrementally: leaves first (freeing slots), then joins (including
    /// retries of joins rejected in earlier epochs). Returns the desired
    /// state it reconciled toward. Dropped descendants of departed relays
    /// are released here and retried in the join phase; whatever is still
    /// unserved is accounted once at the end of the epoch.
    fn reconcile(&mut self, report: &mut EpochReport) -> Vec<BTreeSet<StreamId>> {
        let n = self.session.site_count();
        let desired: Vec<BTreeSet<StreamId>> = SiteId::all(n).map(|s| self.desired(s)).collect();

        for site in SiteId::all(n) {
            let gone: Vec<StreamId> = self.granted[site.index()]
                .difference(&desired[site.index()])
                .copied()
                .collect();
            for stream in gone {
                report.unsubscribes += 1;
                if let Ok(result) = self.manager.unsubscribe(site, stream) {
                    report.reattached += result.reattached.len();
                    for dropped in result.dropped {
                        self.granted[dropped.index()].remove(&stream);
                    }
                }
                self.granted[site.index()].remove(&stream);
            }
        }

        for site in SiteId::all(n) {
            let wanted: Vec<StreamId> = desired[site.index()]
                .difference(&self.granted[site.index()])
                .copied()
                .collect();
            for stream in wanted {
                self.try_subscribe(site, stream, report);
            }
        }
        desired
    }

    /// Attempts one join through the degrade-don't-reject admission path,
    /// carrying the subscription's FOV contribution score, recording the
    /// attempt in `report` and the grant on success. Shared by
    /// incremental repair and full reconstruction so both feed the
    /// rejection ratio identically.
    fn try_subscribe(&mut self, site: SiteId, stream: StreamId, report: &mut EpochReport) {
        report.subscribes += 1;
        let score = self.fov_score(site, stream);
        match self.manager.subscribe_scored(site, stream, score) {
            Ok(admission)
                if matches!(
                    admission.result,
                    SubscribeResult::Joined { .. } | SubscribeResult::AlreadyJoined
                ) =>
            {
                report.accepted += 1;
                self.granted[site.index()].insert(stream);
                // A CO-RJ swap sacrificed another subscription at this
                // site; release it so it is re-tried (and accounted as
                // dropped if still unserved at epoch end) rather than
                // silently presumed delivered.
                if let Some(victim) = admission.victim {
                    self.granted[site.index()].remove(&victim);
                }
            }
            _ => report.rejected += 1,
        }
    }

    /// Pushes every site's current bandwidth estimate into the overlay's
    /// rate-admission budgets (a no-op with the loop disabled). Cold
    /// estimators leave their site unconstrained.
    fn sync_budgets(&mut self) {
        if !self.config.degrade_dont_reject {
            return;
        }
        for site in SiteId::all(self.session.site_count()) {
            let budget = self.budget_of(site);
            self.manager.set_rate_budget(site, budget);
        }
    }

    /// The bit-rate budget `site`'s warm estimator implies, or `None`
    /// while the estimator is cold (or the loop is disabled).
    fn budget_of(&self, site: SiteId) -> Option<u64> {
        let estimator = &self.estimators[site.index()];
        (self.config.degrade_dont_reject && estimator.is_warm())
            .then(|| estimator.estimate_bps().max(0.0) as u64)
    }

    /// Annotates the desired state with the quality rung each site's
    /// current budget would fit it at — the key of the rebuild-once gate.
    fn annotate_demand(&self, desired: &[BTreeSet<StreamId>]) -> Vec<BTreeMap<StreamId, Quality>> {
        SiteId::all(self.session.site_count())
            .map(|site| {
                let streams: Vec<(StreamId, f64)> = desired[site.index()]
                    .iter()
                    .map(|&stream| (stream, self.fov_score(site, stream)))
                    .collect();
                fit_qualities(&self.ladder, self.budget_of(site), &streams).qualities
            })
            .collect()
    }

    /// Re-fits every site's granted streams — freshly re-scored from the
    /// live FOV state — into its current budget, degrading or promoting
    /// as the estimate moved.
    fn refit_qualities(&mut self) {
        if !self.config.degrade_dont_reject {
            return;
        }
        for site in SiteId::all(self.session.site_count()) {
            let rescored: Vec<(StreamId, f64)> = self.granted[site.index()]
                .iter()
                .map(|&stream| (stream, self.fov_score(site, stream)))
                .collect();
            for (stream, score) in rescored {
                self.manager.rescore(site, stream, score);
            }
            self.manager.refit_site(site);
        }
    }

    /// Returns the quality rung `site` currently receives `stream` at
    /// ([`Quality::FULL`] unless the adaptation loop degraded it).
    pub fn quality_of(&self, site: SiteId, stream: StreamId) -> Quality {
        self.manager.quality_of(site, stream)
    }

    fn make_manager(universe: &Arc<ProblemInstance>, config: &RuntimeConfig) -> OverlayManager {
        let mut manager = OverlayManager::new(Arc::clone(universe));
        if config.correlation_aware {
            manager = manager.with_correlation_swapping();
        }
        if config.degrade_dont_reject {
            manager = manager.with_rate_admission(QualityLadder::paper_default());
        }
        manager
    }

    /// Rebuilds the forest from scratch for the current desired state,
    /// accounting every join attempted; subscriptions that lose their slot
    /// to the reconstruction surface in the epoch's final drop count.
    fn rebuild(&mut self, report: &mut EpochReport) {
        report.rebuilt = true;
        let n = self.session.site_count();
        self.manager = Self::make_manager(&self.universe, &self.config);
        // A fresh manager forgets its budgets; re-admission must see the
        // same rate constraints the incremental path did.
        self.sync_budgets();
        self.granted = vec![BTreeSet::new(); n];
        for site in SiteId::all(n) {
            for stream in self.desired(site) {
                self.try_subscribe(site, stream, report);
            }
        }
    }

    fn forest_depth(&self) -> usize {
        self.manager
            .state()
            .trees()
            .iter()
            .map(|t| t.depth())
            .max()
            .unwrap_or(0)
    }

    fn derive_plan(&self) -> DisseminationPlan {
        let mut plan = DisseminationPlan::from_trees(
            &self.universe,
            self.manager.state().trees(),
            self.session.profile(),
        );
        plan.set_scope(self.scope);
        // Stamp the adaptation loop's quality decisions onto the plan:
        // the delta diffed against the previous epoch then carries them
        // to every executor, socket-free when nothing structural moved.
        if self.config.degrade_dont_reject {
            for site in SiteId::all(self.session.site_count()) {
                for stream in plan.deliveries_to(site) {
                    let quality = self.manager.quality_of(site, stream);
                    if !quality.is_full() {
                        plan.set_quality(site, stream, quality);
                    }
                }
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FallbackPolicy;
    use teeve_pubsub::subscription_universe;
    use teeve_types::{CostMatrix, CostMs, Degree};

    fn site(i: u32) -> SiteId {
        SiteId::new(i)
    }

    fn session(n: usize, capacity: u32) -> Session {
        let costs = CostMatrix::from_fn(n, |i, j| CostMs::new(4 + ((i + j) % 3) as u32));
        Session::builder(costs)
            .cameras_per_site(6)
            .displays_per_site(2)
            .symmetric_capacity(Degree::new(capacity))
            .build()
    }

    fn viewpoint(s: u32, d: u32, target: u32) -> RuntimeEvent {
        RuntimeEvent::Viewpoint {
            display: DisplayId::new(site(s), d),
            target: site(target),
        }
    }

    #[test]
    fn mismatched_universe_is_rejected() {
        let s4 = session(4, 10);
        let s5 = session(5, 10);
        let u5 = subscription_universe(&s5).unwrap();
        assert_eq!(
            SessionRuntime::new(u5, s4, RuntimeConfig::default()).unwrap_err(),
            RuntimeError::UniverseMismatch {
                universe_sites: 5,
                session_sites: 4
            }
        );
    }

    #[test]
    fn fov_changes_flow_into_the_plan() {
        let s = session(4, 10);
        let u = subscription_universe(&s).unwrap();
        let mut rt = SessionRuntime::new(u, s, RuntimeConfig::default()).unwrap();
        assert_eq!(
            rt.plan()
                .site_plans()
                .iter()
                .map(|sp| sp.entries.len())
                .sum::<usize>(),
            0
        );

        let outcome = rt.apply_epoch(&[viewpoint(0, 0, 2)]);
        assert!(outcome.report.accepted > 0);
        assert_eq!(outcome.report.rejected, 0);
        assert!(!outcome.delta.is_empty());
        assert!(!rt.plan().deliveries_to(site(0)).is_empty());
        assert!(rt
            .plan()
            .deliveries_to(site(0))
            .iter()
            .all(|st| st.origin() == site(2)));
        rt.validate().unwrap();

        // The same display retargets: the old streams leave, the new
        // target's arrive.
        let swing = rt.apply_epoch(&[viewpoint(0, 0, 3)]);
        assert!(swing.report.unsubscribes > 0);
        assert!(!rt.plan().deliveries_to(site(0)).is_empty());
        assert!(rt
            .plan()
            .deliveries_to(site(0))
            .iter()
            .all(|st| st.origin() == site(3)));
        rt.validate().unwrap();
    }

    #[test]
    fn quiet_epochs_emit_empty_deltas() {
        let s = session(4, 10);
        let u = subscription_universe(&s).unwrap();
        let mut rt = SessionRuntime::new(u, s, RuntimeConfig::default()).unwrap();
        rt.apply_epoch(&[viewpoint(0, 0, 2)]);
        // Same viewpoint again: desired state unchanged, delta empty.
        let outcome = rt.apply_epoch(&[viewpoint(0, 0, 2)]);
        assert!(outcome.delta.is_empty());
        assert_eq!(outcome.report.subscribes, 0);
        assert_eq!(outcome.report.unsubscribes, 0);
    }

    #[test]
    fn site_leave_tears_down_its_trees_and_subscriptions() {
        let s = session(4, 10);
        let u = subscription_universe(&s).unwrap();
        let mut rt = SessionRuntime::new(u, s, RuntimeConfig::default()).unwrap();
        // Everyone watches site 1; site 1 watches site 2.
        rt.apply_epoch(&[
            viewpoint(0, 0, 1),
            viewpoint(2, 0, 1),
            viewpoint(3, 0, 1),
            viewpoint(1, 0, 2),
        ]);
        assert!(!rt.plan().deliveries_to(site(0)).is_empty());

        let outcome = rt.apply_epoch(&[RuntimeEvent::SiteLeave { site: site(1) }]);
        assert!(!rt.is_active(site(1)));
        assert!(outcome.report.unsubscribes > 0);
        // Site 1's streams are gone from everyone's deliveries, and its
        // own subscription to site 2 is released.
        for receiver in [site(0), site(2), site(3)] {
            assert!(rt
                .plan()
                .deliveries_to(receiver)
                .iter()
                .all(|st| st.origin() != site(1)));
        }
        assert!(rt.plan().deliveries_to(site(1)).is_empty());
        assert!(rt.granted(site(1)).is_empty());
        rt.validate().unwrap();
    }

    #[test]
    fn rejoin_resumes_suspended_subscriptions() {
        let s = session(4, 10);
        let u = subscription_universe(&s).unwrap();
        let mut rt = SessionRuntime::new(u, s, RuntimeConfig::default()).unwrap();
        rt.apply_epoch(&[viewpoint(0, 0, 1)]);
        rt.apply_epoch(&[RuntimeEvent::SiteLeave { site: site(1) }]);
        assert!(rt.plan().deliveries_to(site(0)).is_empty());

        // Site 1 rejoins: site 0's still-recorded FOV resubscribes
        // automatically (its display demand never changed).
        let outcome = rt.apply_epoch(&[RuntimeEvent::SiteJoin { site: site(1) }]);
        assert!(outcome.report.accepted > 0);
        assert!(!rt.plan().deliveries_to(site(0)).is_empty());
        rt.validate().unwrap();
    }

    #[test]
    fn rejected_joins_retry_on_later_epochs() {
        // Capacity 1: site 0 can only take one stream; the rest of its
        // demand stays pending and succeeds once the display looks away.
        let s = session(4, 1);
        let u = subscription_universe(&s).unwrap();
        let mut rt = SessionRuntime::new(
            u,
            s,
            RuntimeConfig {
                fallback: FallbackPolicy::never(),
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let first = rt.apply_epoch(&[viewpoint(0, 0, 1), viewpoint(0, 1, 2)]);
        assert!(first.report.rejected > 0, "capacity 1 cannot serve all");
        let granted_before = rt.granted(site(0)).len();

        // Nothing changes: pending joins retry (and still fail).
        let retry = rt.apply_epoch(&[]);
        assert_eq!(retry.report.subscribes, retry.report.rejected);
        assert_eq!(rt.granted(site(0)).len(), granted_before);
        rt.validate().unwrap();
    }

    #[test]
    fn always_fallback_policy_rebuilds_every_epoch() {
        let s = session(4, 10);
        let u = subscription_universe(&s).unwrap();
        let mut rt = SessionRuntime::new(
            u,
            s,
            RuntimeConfig {
                fallback: FallbackPolicy::always(),
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let outcome = rt.apply_epoch(&[viewpoint(0, 0, 1)]);
        assert!(outcome.report.rebuilt);
        assert!(rt.report().rebuilds >= 1);
        rt.validate().unwrap();
    }

    #[test]
    fn infeasible_demand_rebuilds_once_not_every_epoch() {
        // Inbound capacity 1 with two displays demanding different sites:
        // most joins are rejected every epoch, tripping the default
        // rejection-ratio fallback. The rebuild is deterministic in the
        // demand, so it must happen once — not on every retry epoch.
        let s = session(4, 1);
        let u = subscription_universe(&s).unwrap();
        let mut rt = SessionRuntime::new(u, s, RuntimeConfig::default()).unwrap();
        let first = rt.apply_epoch(&[viewpoint(0, 0, 1), viewpoint(0, 1, 2)]);
        assert!(first.report.rejected > 0, "capacity 1 cannot serve all");
        assert!(first.report.rebuilt, "default policy trips on rejections");

        // Demand unchanged: retries still fail, but no rebuild thrash.
        for _ in 0..3 {
            let retry = rt.apply_epoch(&[]);
            assert!(retry.report.rejected > 0);
            assert!(!retry.report.rebuilt, "unchanged demand must not rebuild");
        }
        assert_eq!(rt.report().rebuilds, 1);
        rt.validate().unwrap();
    }

    #[test]
    fn rebuild_accounts_joins_and_lost_service() {
        // Inbound capacity 1: site 0 can hold exactly one stream.
        let s = session(4, 1);
        let u = subscription_universe(&s).unwrap();
        let mut rt = SessionRuntime::new(
            u,
            s,
            RuntimeConfig {
                fallback: FallbackPolicy::always(),
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let first = rt.apply_epoch(&[viewpoint(0, 0, 2)]);
        assert!(first.report.rebuilt);
        assert!(!rt.granted(site(0)).is_empty(), "one stream fits");

        // A second display demands site 1's streams, which sort before
        // the granted site-2 stream; the rebuild serves them first and
        // the old stream loses its slot. The epoch must report both the
        // reconstruction's join attempts and the lost subscription.
        let second = rt.apply_epoch(&[viewpoint(0, 1, 1)]);
        assert!(second.report.rebuilt);
        assert!(second.report.subscribes > 0);
        assert!(second.report.rejected > 0, "capacity 1 cannot serve all");
        assert!(
            second.report.dropped_subscriptions > 0,
            "losing a served stream to the rebuild must be reported"
        );
        assert!(rt.granted(site(0)).iter().all(|st| st.origin() == site(1)));
        rt.validate().unwrap();
    }

    #[test]
    fn fov_clear_and_site_leave_prune_contribution_scores() {
        let s = session(4, 10);
        let u = subscription_universe(&s).unwrap();
        let mut rt = SessionRuntime::new(u, s, RuntimeConfig::default()).unwrap();
        rt.apply_epoch(&[viewpoint(0, 0, 1), viewpoint(0, 1, 2), viewpoint(3, 0, 1)]);
        let display0 = DisplayId::new(site(0), 0);
        assert!(rt.scores.keys().any(|(d, _)| *d == display0));

        rt.apply_epoch(&[RuntimeEvent::FovClear { display: display0 }]);
        assert!(
            rt.scores.keys().all(|(d, _)| *d != display0),
            "cleared display keeps no scores"
        );
        assert!(
            rt.scores.keys().any(|(d, _)| d.site() == site(0)),
            "the sibling display's scores survive"
        );

        rt.apply_epoch(&[RuntimeEvent::SiteLeave { site: site(0) }]);
        assert!(rt.scores.keys().all(|(d, _)| d.site() != site(0)));
        assert!(rt.scores.keys().any(|(d, _)| d.site() == site(3)));
    }

    #[test]
    fn bandwidth_pressure_emits_quality_only_deltas_and_degrades() {
        let s = session(4, 10);
        let u = subscription_universe(&s).unwrap();
        let mut rt = SessionRuntime::new(u, s, RuntimeConfig::default()).unwrap();
        // Epoch 0: one display watches site 1 (top-4 streams, all full).
        let setup = rt.apply_epoch(&[viewpoint(0, 0, 1)]);
        assert!(setup.report.accepted >= 2);
        assert_eq!(setup.report.served_degraded, 0);
        let streams = rt.plan().deliveries_to(site(0));
        assert!(streams.len() >= 2);

        // Epoch 1: congestion at site 0 — 12 Mbps cannot carry the
        // demand at full 8 Mbps rungs. Nothing structural changes, so
        // the emitted delta must be quality-only and socket-free.
        let pressured = rt.apply_epoch(&[RuntimeEvent::BandwidthSample {
            site: site(0),
            bits_per_sec: 12_000_000.0,
        }]);
        assert!(pressured.delta.is_quality_only(), "no membership churn");
        assert!(!pressured.delta.quality_changes().is_empty());
        assert!(pressured.delta.edges_added().is_empty());
        assert!(pressured.delta.edges_removed().is_empty());
        // Degrade, don't reject: every stream is still served — at a
        // lower rung — and none counts as dropped.
        assert_eq!(pressured.report.dropped_subscriptions, 0);
        assert!(pressured.report.served_degraded > 0);
        assert_eq!(rt.plan().deliveries_to(site(0)).len(), streams.len());
        let total: u64 = streams
            .iter()
            .map(|&st| {
                let q = rt.plan().quality_of(site(0), st).unwrap();
                QualityLadder::paper_default().rate_of(q)
            })
            .sum();
        assert!(total <= 12_000_000, "refit must respect the budget");

        // Epoch 2: congestion clears; the refit promotes back toward
        // full quality, again socket-free.
        let recovered = rt.apply_epoch(&[RuntimeEvent::BandwidthSample {
            site: site(0),
            bits_per_sec: 200_000_000.0,
        }]);
        assert!(recovered.delta.is_quality_only());
        assert!(recovered.report.served_degraded < pressured.report.served_degraded);
        rt.validate().unwrap();
    }

    #[test]
    fn disabling_the_loop_keeps_plans_at_full_quality() {
        let s = session(4, 10);
        let u = subscription_universe(&s).unwrap();
        let mut rt = SessionRuntime::new(
            u,
            s,
            RuntimeConfig {
                degrade_dont_reject: false,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        rt.apply_epoch(&[viewpoint(0, 0, 1)]);
        let quiet = rt.apply_epoch(&[RuntimeEvent::BandwidthSample {
            site: site(0),
            bits_per_sec: 6_000_000.0,
        }]);
        // Without the loop, bandwidth samples never move the plan.
        assert!(quiet.delta.is_empty());
        assert_eq!(quiet.report.served_degraded, 0);
        assert!(quiet.report.served_full > 0);
        assert!(rt.plan().deliveries_to(site(0)).iter().all(|&st| rt
            .plan()
            .quality_of(site(0), st)
            .unwrap()
            .is_full()));
    }

    #[test]
    fn budget_shifts_reopen_the_rebuild_gate_once() {
        // Inbound capacity 1 with two displays demanding different
        // sites: persistently infeasible, so the default policy rebuilds
        // once and the gate then holds — until the demand's quality
        // annotation changes.
        let s = session(4, 1);
        let u = subscription_universe(&s).unwrap();
        let mut rt = SessionRuntime::new(u, s, RuntimeConfig::default()).unwrap();
        let first = rt.apply_epoch(&[viewpoint(0, 0, 1), viewpoint(0, 1, 2)]);
        assert!(first.report.rebuilt);
        for _ in 0..2 {
            assert!(!rt.apply_epoch(&[]).report.rebuilt, "gate must hold");
        }

        // A bandwidth sample re-annotates site 0's demand (its streams
        // now fit at lower rungs): the gate re-opens for exactly one
        // rebuild, then holds again.
        let shifted = rt.apply_epoch(&[RuntimeEvent::BandwidthSample {
            site: site(0),
            bits_per_sec: 9_000_000.0,
        }]);
        assert!(shifted.report.rebuilt, "changed annotation re-opens");
        for _ in 0..2 {
            assert!(!rt.apply_epoch(&[]).report.rebuilt, "gate holds again");
        }
        assert_eq!(rt.report().rebuilds, 2);
        rt.validate().unwrap();
    }

    #[test]
    fn epochs_advance_the_plan_revision_monotonically() {
        let s = session(4, 10);
        let u = subscription_universe(&s).unwrap();
        let mut rt = SessionRuntime::new(u, s, RuntimeConfig::default()).unwrap();
        assert_eq!(rt.plan().revision(), 0);
        let first = rt.apply_epoch(&[viewpoint(0, 0, 2)]);
        assert_eq!(first.delta.from_revision(), 0);
        assert_eq!(first.delta.to_revision(), 1);
        assert_eq!(rt.plan().revision(), 1);
        // Quiet epochs are still revisions: executors stay in lock-step.
        let quiet = rt.apply_epoch(&[]);
        assert!(quiet.delta.is_empty());
        assert_eq!(quiet.delta.from_revision(), 1);
        assert_eq!(quiet.delta.to_revision(), 2);
        assert_eq!(rt.plan().revision(), 2);
    }

    #[test]
    fn scoped_runtimes_stamp_plans_and_deltas() {
        let s = session(4, 10);
        let u = subscription_universe(&s).unwrap();
        let id = SessionId::new(42);
        let mut rt = SessionRuntime::new(u, s, RuntimeConfig::default())
            .unwrap()
            .with_scope(id);
        assert_eq!(rt.scope(), Some(id));
        assert_eq!(rt.plan().scope(), Some(id));
        let outcome = rt.apply_epoch(&[viewpoint(0, 0, 2)]);
        assert_eq!(outcome.delta.scope(), Some(id));
        assert_eq!(rt.plan().scope(), Some(id));
        // Unscoped runtimes keep emitting unscoped artifacts.
        let s = session(4, 10);
        let u = subscription_universe(&s).unwrap();
        let mut rt = SessionRuntime::new(u, s, RuntimeConfig::default()).unwrap();
        assert_eq!(rt.scope(), None);
        assert_eq!(rt.apply_epoch(&[viewpoint(0, 0, 2)]).delta.scope(), None);
    }

    #[test]
    fn drive_epochs_pushes_every_delta_into_the_sink() {
        // A plain DisseminationPlan is itself a sink; driving it must keep
        // it identical to the runtime's own plan after every trace.
        let s = session(4, 10);
        let u = subscription_universe(&s).unwrap();
        let mut rt = SessionRuntime::new(u, s, RuntimeConfig::default()).unwrap();
        let mut shadow = rt.plan().clone();
        let trace = vec![
            vec![viewpoint(0, 0, 2), viewpoint(1, 0, 3)],
            vec![RuntimeEvent::SiteLeave { site: site(2) }],
            vec![],
            vec![RuntimeEvent::SiteJoin { site: site(2) }],
        ];
        let outcomes = rt.drive_epochs(&trace, &mut shadow).unwrap();
        assert_eq!(outcomes.len(), 4);
        assert_eq!(&shadow, rt.plan());
        assert_eq!(shadow.revision(), 4);
    }

    #[test]
    fn drive_epochs_surfaces_the_first_sink_error() {
        struct Rejecting;
        impl teeve_pubsub::DeltaSink for Rejecting {
            type Error = &'static str;
            fn apply_delta(&mut self, _: &PlanDelta) -> Result<(), Self::Error> {
                Err("no thanks")
            }
        }
        let s = session(4, 10);
        let u = subscription_universe(&s).unwrap();
        let mut rt = SessionRuntime::new(u, s, RuntimeConfig::default()).unwrap();
        let err = rt
            .drive_epochs(&[vec![viewpoint(0, 0, 2)]], &mut Rejecting)
            .unwrap_err();
        assert_eq!(err, "no thanks");
        // The runtime itself advanced past the rejected epoch.
        assert_eq!(rt.epoch(), 1);
    }

    #[test]
    fn epoch_metrics_account_delta_against_full_plan() {
        let s = session(5, 10);
        let u = subscription_universe(&s).unwrap();
        let mut rt = SessionRuntime::new(u, s, RuntimeConfig::default()).unwrap();
        // Build up a session, then make one small change.
        let mut setup = Vec::new();
        for i in 0..5u32 {
            setup.push(viewpoint(i, 0, (i + 1) % 5));
            setup.push(viewpoint(i, 1, (i + 2) % 5));
        }
        rt.apply_epoch(&setup);
        let small = rt.apply_epoch(&[viewpoint(0, 0, 3)]);
        assert!(small.report.plan_entries > 0);
        assert!(
            small.report.delta_fraction() < 0.8,
            "one FOV swing must not rewrite the whole plan (fraction {})",
            small.report.delta_fraction()
        );
        assert!(small.report.reconverge.as_nanos() > 0);
    }

    #[test]
    fn phase_spans_sum_exactly_to_reconverge() {
        let s = session(5, 10);
        let u = subscription_universe(&s).unwrap();
        let mut rt = SessionRuntime::new(u, s, RuntimeConfig::default()).unwrap();
        let mut setup = Vec::new();
        for i in 0..5u32 {
            setup.push(viewpoint(i, 0, (i + 1) % 5));
        }
        for outcome in [rt.apply_epoch(&setup), rt.apply_epoch(&[])] {
            // The phases are consecutive spans of one monotonic clock,
            // so the telescoping sum is exact — no unaccounted time.
            assert_eq!(
                outcome.report.phases.total(),
                outcome.report.reconverge,
                "phases must partition reconverge"
            );
        }
        let totals = rt.report();
        assert_eq!(totals.phase_totals.total(), totals.total_reconverge);
    }

    #[test]
    fn report_equals_the_per_epoch_fold() {
        // The runtime keeps only running totals: after N epochs
        // `report()` must equal the fold of the N reports the epochs
        // themselves returned.
        let s = session(5, 6);
        let u = subscription_universe(&s).unwrap();
        let mut rt = SessionRuntime::new(u, s, RuntimeConfig::default()).unwrap();
        let trace = [
            vec![viewpoint(0, 0, 1), viewpoint(1, 0, 2), viewpoint(2, 1, 4)],
            vec![RuntimeEvent::SiteLeave { site: site(1) }],
            vec![],
            vec![
                RuntimeEvent::SiteJoin { site: site(1) },
                RuntimeEvent::BandwidthSample {
                    site: site(0),
                    bits_per_sec: 12_000_000.0,
                },
            ],
            vec![viewpoint(3, 0, 0), viewpoint(4, 1, 2)],
        ];
        let epochs: Vec<EpochReport> = trace.iter().map(|e| rt.apply_epoch(e).report).collect();
        let sum = |field: fn(&EpochReport) -> usize| epochs.iter().map(field).sum::<usize>();

        let totals = rt.report();
        assert_eq!(totals.epochs, trace.len());
        assert_eq!(totals.rebuilds, sum(|e| usize::from(e.rebuilt)));
        assert_eq!(totals.subscribes, sum(|e| e.subscribes));
        assert_eq!(totals.accepted, sum(|e| e.accepted));
        assert_eq!(
            totals.dropped_subscriptions,
            sum(|e| e.dropped_subscriptions)
        );
        assert_eq!(totals.served_full, sum(|e| e.served_full));
        assert_eq!(totals.served_degraded, sum(|e| e.served_degraded));
        assert_eq!(totals.delta_entries, sum(|e| e.delta_entries));
        assert_eq!(totals.plan_entries, sum(|e| e.plan_entries));
        assert_eq!(
            totals.total_reconverge,
            epochs.iter().map(|e| e.reconverge).sum()
        );
        assert_eq!(totals.phase_totals.total(), totals.total_reconverge);
        assert!(totals.subscribes > 0 && totals.served_full > 0);
    }

    #[test]
    fn clear_releases_capacity() {
        // The session arrives with a ring of gazes already subscribed:
        // with no events at all, `new` seeds the overlay from them.
        let mut s = session(4, 12);
        for i in 0..4 {
            s.subscribe_viewpoint(DisplayId::new(site(i), 0), site((i + 1) % 4));
        }
        let u = subscription_universe(&s).unwrap();
        let mut rt = SessionRuntime::new(u, s, RuntimeConfig::default()).unwrap();
        let seeded: usize = SiteId::all(4).map(|s| rt.granted(s).len()).sum();
        assert_eq!(seeded, 16, "four streams per gaze, none rejected");
        assert!(SiteId::all(4).all(|s| rt.plan().deliveries_to(s).len() == 4));
        assert_eq!(rt.epoch(), 0);

        let clears: Vec<RuntimeEvent> = (0..4)
            .map(|i| RuntimeEvent::FovClear {
                display: DisplayId::new(site(i), 0),
            })
            .collect();
        let cleared = rt.apply_epoch(&clears);
        // Every grant is released, nothing is re-requested…
        assert_eq!(cleared.report.unsubscribes, seeded);
        assert_eq!(cleared.report.subscribes, 0);
        // …and all the capacity is back: the forest is bare sources.
        for tree in rt.forest_snapshot().trees() {
            assert_eq!(tree.member_count(), 1, "stream {}", tree.stream());
        }
        assert!(SiteId::all(4).all(|s| rt.plan().deliveries_to(s).is_empty()));
        rt.validate().unwrap();
    }

    #[test]
    fn correlation_awareness_never_lowers_acceptance() {
        // Both displays of every site gaze at different neighbours: 8
        // wanted streams against an inbound capacity of 4, so joins
        // saturate and CO-RJ swapping actually occurs. No rebuild
        // fallback, so the two runs differ only in the swap.
        for shift in 1..4u32 {
            let run = |correlation_aware: bool| {
                let s = session(4, 4);
                let u = subscription_universe(&s).unwrap();
                let mut rt = SessionRuntime::new(
                    u,
                    s,
                    RuntimeConfig {
                        correlation_aware,
                        fallback: FallbackPolicy::never(),
                        ..RuntimeConfig::default()
                    },
                )
                .unwrap();
                let ring: Vec<RuntimeEvent> = (0..4)
                    .flat_map(|i| [viewpoint(i, 0, (i + 1) % 4), viewpoint(i, 1, (i + 2) % 4)])
                    .collect();
                rt.apply_epoch(&ring);
                for i in 0..6u32 {
                    rt.apply_epoch(&[viewpoint(i % 4, 0, (i + shift) % 4)]);
                }
                rt.validate().unwrap();
                rt.report()
            };
            let (plain, aware) = (run(false), run(true));
            assert!(
                plain.accepted < plain.subscribes,
                "the scenario must saturate"
            );
            assert!(
                aware.accepted >= plain.accepted,
                "swapping should not hurt: {} vs {} accepted",
                aware.accepted,
                plain.accepted
            );
        }
    }

    #[test]
    fn attached_telemetry_records_phases_and_rebuild_gate_trips() {
        use teeve_telemetry::{FlightEventKind, FlightRecorder, MetricsRegistry};

        let s = session(4, 10);
        let u = subscription_universe(&s).unwrap();
        let mut rt = SessionRuntime::new(
            u,
            s,
            RuntimeConfig {
                fallback: FallbackPolicy::always(),
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let registry = MetricsRegistry::new();
        let recorder = FlightRecorder::new();
        rt.attach_telemetry(&registry, recorder.clone());

        rt.apply_epoch(&[viewpoint(0, 0, 1)]);
        rt.apply_epoch(&[viewpoint(0, 0, 2)]);

        let snapshot = registry.snapshot();
        let reconverge = &snapshot.histograms["runtime.reconverge_micros"];
        assert_eq!(reconverge.count(), 2);
        for phase in ["event_drain", "repair", "refit", "derive", "delta"] {
            let hist = &snapshot.histograms[&format!("runtime.phase.{phase}_micros")];
            assert_eq!(hist.count(), 2, "phase {phase} must record every epoch");
        }
        // The always-fallback policy trips the gate on epochs with churn.
        assert!(recorder
            .events()
            .iter()
            .any(|e| matches!(e.kind, FlightEventKind::RebuildGate { .. })));
    }
}
