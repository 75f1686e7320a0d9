//! Plan deltas: the minimal per-RP forwarding-state diff between two
//! dissemination plans.
//!
//! The membership server of the paper rebuilds and redistributes the whole
//! plan on every change. A [`PlanDelta`] instead captures exactly which
//! [`ForwardingEntry`]s changed at which RPs, so executors (the
//! discrete-event simulator, the live TCP cluster) can repair their
//! forwarding state in place and keep every unaffected link running.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use serde::{Deserialize, Serialize};
use teeve_types::{Quality, SessionId, SiteId, StreamId};

use crate::plan::{DisseminationPlan, ForwardingEntry};

/// One RP's forwarding entry for one stream changing from `old` to `new`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EntryChange {
    /// The RP whose forwarding table changes.
    pub site: SiteId,
    /// The stream whose entry changes.
    pub stream: StreamId,
    /// The entry before the change; `None` when the entry is new.
    pub old: Option<ForwardingEntry>,
    /// The entry after the change; `None` when the entry is removed.
    pub new: Option<ForwardingEntry>,
}

impl EntryChange {
    /// Returns true when the change only moves quality rungs — the
    /// entry's own delivery rung and/or the rungs on its child links:
    /// the stream keeps its parent and child *sites*, so applying it can
    /// never open or close a connection.
    pub fn is_quality_only(&self) -> bool {
        match (&self.old, &self.new) {
            (Some(old), Some(new)) => {
                old != new
                    && old.parent == new.parent
                    && old.children.len() == new.children.len()
                    && old
                        .children
                        .iter()
                        .zip(&new.children)
                        .all(|(a, b)| a.site == b.site)
            }
            _ => false,
        }
    }
}

/// One surviving subscription's quality rung moving between plan
/// revisions, as reported by [`PlanDelta::quality_changes`]. Entries
/// appearing or disappearing are *structural* changes (the link-level
/// `edges_added`/`edges_removed` dimension), not quality moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QualityChange {
    /// The receiving RP.
    pub site: SiteId,
    /// The stream whose delivery quality changes.
    pub stream: StreamId,
    /// Quality rung before the change.
    pub from: Quality,
    /// Quality rung after the change.
    pub to: Quality,
}

/// Error produced when applying a delta to a plan it does not match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// A change references a site outside the plan.
    SiteOutOfRange {
        /// The offending site.
        site: SiteId,
        /// The plan's site count.
        sites: usize,
    },
    /// The plan's current entry does not match the change's `old` state:
    /// the delta was produced against a different plan revision.
    StaleEntry {
        /// The RP whose entry mismatched.
        site: SiteId,
        /// The stream whose entry mismatched.
        stream: StreamId,
    },
    /// The delta and the plan belong to different hosted sessions: a
    /// multi-session executor was handed another session's delta.
    ScopeMismatch {
        /// The session the delta is scoped to, if any.
        delta: Option<SessionId>,
        /// The session the plan is scoped to, if any.
        plan: Option<SessionId>,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::SiteOutOfRange { site, sites } => {
                write!(f, "delta references {site} outside plan of {sites} sites")
            }
            DeltaError::StaleEntry { site, stream } => {
                write!(f, "delta is stale at {site} for {stream}")
            }
            DeltaError::ScopeMismatch { delta, plan } => {
                let name = |s: &Option<SessionId>| {
                    s.map_or_else(|| "unscoped".to_string(), |id| id.to_string())
                };
                write!(
                    f,
                    "delta for {} cannot apply to a plan of {}",
                    name(delta),
                    name(plan)
                )
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// An ordered set of forwarding-entry changes turning one plan revision
/// into the next.
///
/// # Examples
///
/// ```
/// use teeve_overlay::{OverlayManager, ProblemInstance};
/// use teeve_pubsub::{DisseminationPlan, PlanDelta, StreamProfile};
/// use teeve_types::{CostMatrix, CostMs, Degree, SiteId, StreamId};
///
/// let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(5));
/// let problem = ProblemInstance::builder(costs, CostMs::new(50))
///     .symmetric_capacities(Degree::new(4))
///     .streams_per_site(&[1, 0, 0])
///     .subscribe(SiteId::new(1), StreamId::new(SiteId::new(0), 0))
///     .subscribe(SiteId::new(2), StreamId::new(SiteId::new(0), 0))
///     .build()?;
/// let mut manager = OverlayManager::new(problem.clone());
/// let profile = StreamProfile::default();
/// let before =
///     DisseminationPlan::from_forest(&problem, &manager.forest_snapshot(), profile);
/// manager.subscribe(SiteId::new(1), StreamId::new(SiteId::new(0), 0))?;
/// let mut after =
///     DisseminationPlan::from_forest(&problem, &manager.forest_snapshot(), profile);
/// after.set_revision(before.revision() + 1);
///
/// let delta = PlanDelta::diff(&before, &after);
/// assert!(!delta.is_empty());
/// let mut patched = before.clone();
/// delta.apply(&mut patched)?;
/// assert_eq!(patched, after);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanDelta {
    changes: Vec<EntryChange>,
    /// The plan revision this delta was diffed against.
    from_revision: u64,
    /// The revision a plan reaches once this delta is applied.
    to_revision: u64,
    /// The hosted session both plan revisions belong to, inherited from
    /// the diffed plans. Deltas of different sessions never apply to each
    /// other's forwarding state; a [`DeltaRouter`] dispatches on this tag.
    scope: Option<SessionId>,
}

impl PlanDelta {
    /// Computes the entry-level diff turning `old` into `new`.
    ///
    /// The delta is tagged with revisions: it applies *from* `old`'s
    /// revision and advances *to* `new`'s revision, or to `old`'s
    /// revision + 1 when the caller never stamped `new` (fresh plans all
    /// start at revision 0).
    ///
    /// Runs in time linear in the two plans' entries: each site's entry
    /// lists are merge-joined, relying on the
    /// [`SitePlan`](crate::SitePlan) invariant that entries are sorted by
    /// stream (every plan derived by [`DisseminationPlan::from_trees`] or
    /// patched by [`apply`](Self::apply) keeps it).
    ///
    /// # Panics
    ///
    /// Panics if the plans cover different site counts, or if their
    /// session scopes disagree — different scopes, or one scoped and one
    /// not (deltas only make sense between revisions of one session, and
    /// a half-stamped pair means a plan missed its stamp; silently
    /// minting a scoped delta from it would defeat the scope checks).
    pub fn diff(old: &DisseminationPlan, new: &DisseminationPlan) -> PlanDelta {
        assert_eq!(
            old.site_count(),
            new.site_count(),
            "plan revisions must cover the same sites"
        );
        assert_eq!(
            old.scope(),
            new.scope(),
            "plan revisions must belong to the same session"
        );
        let scope = old.scope();
        let from_revision = old.revision();
        let to_revision = new.revision().max(from_revision + 1);
        let mut changes = Vec::new();
        for (old_sp, new_sp) in old.site_plans().iter().zip(new.site_plans()) {
            // Both entry lists are sorted by stream: merge-join them, and
            // clone only the entries that changed.
            let mut old_entries = old_sp.entries.iter().peekable();
            let mut new_entries = new_sp.entries.iter().peekable();
            loop {
                let order = match (old_entries.peek(), new_entries.peek()) {
                    (None, None) => break,
                    (Some(_), None) => Ordering::Less,
                    (None, Some(_)) => Ordering::Greater,
                    (Some(o), Some(n)) => o.stream.cmp(&n.stream),
                };
                let old_entry = if order.is_le() {
                    old_entries.next()
                } else {
                    None
                };
                let new_entry = if order.is_ge() {
                    new_entries.next()
                } else {
                    None
                };
                if old_entry != new_entry {
                    let stream = old_entry.or(new_entry).expect("one side has it").stream;
                    changes.push(EntryChange {
                        site: old_sp.site,
                        stream,
                        old: old_entry.cloned(),
                        new: new_entry.cloned(),
                    });
                }
            }
        }
        PlanDelta {
            changes,
            from_revision,
            to_revision,
            scope,
        }
    }

    /// Returns the changes, ordered by site then stream.
    pub fn changes(&self) -> &[EntryChange] {
        &self.changes
    }

    /// Returns the hosted session this delta is scoped to, if any.
    pub fn scope(&self) -> Option<SessionId> {
        self.scope
    }

    /// Returns the plan revision this delta was produced against.
    pub fn from_revision(&self) -> u64 {
        self.from_revision
    }

    /// Returns the revision a plan reaches once this delta is applied.
    pub fn to_revision(&self) -> u64 {
        self.to_revision
    }

    /// Returns the number of changed entries.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Returns true when the revisions were identical.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Returns the sites whose forwarding tables change.
    pub fn touched_sites(&self) -> BTreeSet<SiteId> {
        self.changes.iter().map(|c| c.site).collect()
    }

    /// Returns every *surviving* subscription whose delivery quality rung
    /// moves under this delta — the quality dimension of the diff,
    /// alongside the link-level `edges_added`/`edges_removed` views.
    /// Entries appearing or disappearing are structural and not reported
    /// here, so a purely structural delta has no quality changes.
    pub fn quality_changes(&self) -> Vec<QualityChange> {
        self.changes
            .iter()
            .filter_map(|c| {
                let from = c.old.as_ref()?.quality;
                let to = c.new.as_ref()?.quality;
                (from != to).then_some(QualityChange {
                    site: c.site,
                    stream: c.stream,
                    from,
                    to,
                })
            })
            .collect()
    }

    /// Returns true when this non-empty delta *only* re-stamps quality
    /// rungs: every change keeps its entry's parent and children, so the
    /// delta is provably socket-free — a live cluster applies it with
    /// `Reconfigure` orders alone, opening and closing nothing.
    pub fn is_quality_only(&self) -> bool {
        !self.changes.is_empty() && self.changes.iter().all(EntryChange::is_quality_only)
    }

    /// Returns the directed overlay edges `(parent, child, stream)` that
    /// exist after the delta but not before it.
    pub fn edges_added(&self) -> Vec<(SiteId, SiteId, StreamId)> {
        self.edge_diff(|c| (&c.old, &c.new))
    }

    /// Returns the directed overlay edges removed by the delta.
    pub fn edges_removed(&self) -> Vec<(SiteId, SiteId, StreamId)> {
        self.edge_diff(|c| (&c.new, &c.old))
    }

    fn edge_diff<'c>(
        &'c self,
        select: impl Fn(&'c EntryChange) -> (&'c Option<ForwardingEntry>, &'c Option<ForwardingEntry>),
    ) -> Vec<(SiteId, SiteId, StreamId)> {
        let mut edges = Vec::new();
        for change in &self.changes {
            let (before, after) = select(change);
            let before_children: BTreeSet<SiteId> = before
                .iter()
                .flat_map(|e| e.children.iter().map(|c| c.site))
                .collect();
            for child in after.iter().flat_map(|e| &e.children) {
                if !before_children.contains(&child.site) {
                    edges.push((change.site, child.site, change.stream));
                }
            }
        }
        edges
    }

    /// Applies the delta to `plan` in place, advancing the plan's
    /// revision to [`to_revision`](Self::to_revision) on success.
    ///
    /// Every change is validated against the plan's current entry first,
    /// so a stale delta (produced against a different revision) is
    /// rejected before anything is mutated. The entry-level check is
    /// authoritative; the revision tags are control-plane metadata that
    /// live executors (the TCP cluster) additionally enforce before
    /// pushing a delta at running rendezvous points.
    ///
    /// A session-scoped plan only accepts deltas carrying the *same*
    /// scope: a foreign-session delta and an unscoped delta are both
    /// rejected, since a scoped runtime stamps everything it emits — an
    /// unscoped delta cannot be this session's. Unscoped plans accept
    /// any delta (single-session executors keep working unchanged).
    ///
    /// # Errors
    ///
    /// Returns an error if the plan is scoped and the delta does not
    /// share its scope, a change references an unknown site, or its
    /// `old` state disagrees with the plan.
    pub fn apply(&self, plan: &mut DisseminationPlan) -> Result<(), DeltaError> {
        if let Some(plan_scope) = plan.scope() {
            if self.scope != Some(plan_scope) {
                return Err(DeltaError::ScopeMismatch {
                    delta: self.scope,
                    plan: Some(plan_scope),
                });
            }
        }
        let sites = plan.site_count();
        for change in &self.changes {
            if change.site.index() >= sites {
                return Err(DeltaError::SiteOutOfRange {
                    site: change.site,
                    sites,
                });
            }
            let current = plan.site_plan(change.site).entry(change.stream);
            if current != change.old.as_ref() {
                return Err(DeltaError::StaleEntry {
                    site: change.site,
                    stream: change.stream,
                });
            }
        }
        for change in &self.changes {
            match &change.new {
                Some(entry) => plan.upsert_entry(change.site, entry.clone()),
                None => {
                    plan.remove_entry(change.site, change.stream);
                }
            }
        }
        // Revisions only ever advance: a replayed old delta that passes
        // the entry-level validation vacuously (e.g. an empty quiet-epoch
        // delta) must not rewind a newer plan.
        if self.to_revision > plan.revision() {
            plan.set_revision(self.to_revision);
        }
        Ok(())
    }
}

/// An executor that plan deltas can be pushed into as they are produced:
/// the delta-aware simulator, the live TCP cluster (both the in-process
/// `LiveCluster` wrapper and the wire-only `Coordinator` driving a fleet
/// of RP processes by address), or a test recorder.
///
/// The session runtime's epoch driver
/// (`teeve_runtime::SessionRuntime::drive_epochs`) is generic over this
/// trait, so the same churn trace can exercise any executor.
pub trait DeltaSink {
    /// Error the executor produces when a delta cannot be applied.
    type Error;

    /// Applies one plan delta to the running executor.
    ///
    /// # Errors
    ///
    /// Returns the executor's error when the delta does not apply (stale
    /// revision, dead links, …).
    fn apply_delta(&mut self, delta: &PlanDelta) -> Result<(), Self::Error>;
}

impl DeltaSink for DisseminationPlan {
    type Error = DeltaError;

    fn apply_delta(&mut self, delta: &PlanDelta) -> Result<(), Self::Error> {
        delta.apply(self)
    }
}

/// Error produced by a [`DeltaRouter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError<E> {
    /// The delta carried no session scope, so it cannot be routed.
    Unscoped,
    /// The delta's session has no registered executor.
    UnknownSession(SessionId),
    /// The routed executor rejected the delta.
    Sink(E),
}

impl<E: fmt::Display> fmt::Display for RouteError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Unscoped => write!(f, "delta carries no session scope"),
            RouteError::UnknownSession(id) => write!(f, "no executor registered for {id}"),
            RouteError::Sink(e) => write!(f, "executor rejected the delta: {e}"),
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for RouteError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouteError::Sink(e) => Some(e),
            RouteError::Unscoped | RouteError::UnknownSession(_) => None,
        }
    }
}

/// Routes session-scoped plan deltas to per-session executors.
///
/// A multi-session membership service emits one delta stream per hosted
/// session; each delta is stamped with its [`SessionId`] scope. A
/// `DeltaRouter` holds one executor per session (a live TCP cluster, the
/// wire-only coordinator of an external RP fleet, a shadow plan, the
/// simulator's replanner, …) and dispatches every delta on its scope, so
/// a single executor process can serve many sessions concurrently
/// without their forwarding state bleeding into each other.
///
/// The router is itself a [`DeltaSink`], so it drops straight into
/// `SessionRuntime::drive_epochs` or a service's delta fan-out.
#[derive(Debug, Default, Clone)]
pub struct DeltaRouter<S> {
    routes: BTreeMap<SessionId, S>,
}

impl<S> DeltaRouter<S> {
    /// Creates an empty router.
    pub fn new() -> Self {
        DeltaRouter {
            routes: BTreeMap::new(),
        }
    }

    /// Registers (or replaces) the executor of `session`, returning the
    /// previous one if it existed.
    pub fn register(&mut self, session: SessionId, sink: S) -> Option<S> {
        self.routes.insert(session, sink)
    }

    /// Removes and returns the executor of `session`.
    pub fn unregister(&mut self, session: SessionId) -> Option<S> {
        self.routes.remove(&session)
    }

    /// Returns the executor of `session`, if registered.
    pub fn get(&self, session: SessionId) -> Option<&S> {
        self.routes.get(&session)
    }

    /// Returns the executor of `session` mutably, if registered.
    pub fn get_mut(&mut self, session: SessionId) -> Option<&mut S> {
        self.routes.get_mut(&session)
    }

    /// Returns the registered sessions, ascending.
    pub fn sessions(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.routes.keys().copied()
    }

    /// Returns the number of registered executors.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Returns true when no executor is registered.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

impl<S: DeltaSink> DeltaSink for DeltaRouter<S> {
    type Error = RouteError<S::Error>;

    fn apply_delta(&mut self, delta: &PlanDelta) -> Result<(), Self::Error> {
        let session = delta.scope().ok_or(RouteError::Unscoped)?;
        self.routes
            .get_mut(&session)
            .ok_or(RouteError::UnknownSession(session))?
            .apply_delta(delta)
            .map_err(RouteError::Sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamProfile;
    use teeve_overlay::{OverlayManager, ProblemInstance};
    use teeve_types::{CostMatrix, CostMs, Degree};

    fn site(i: u32) -> SiteId {
        SiteId::new(i)
    }

    fn stream(origin: u32, q: u32) -> StreamId {
        StreamId::new(site(origin), q)
    }

    fn problem() -> ProblemInstance {
        let costs = CostMatrix::from_fn(4, |_, _| CostMs::new(3));
        ProblemInstance::builder(costs, CostMs::new(50))
            .symmetric_capacities(Degree::new(3))
            .streams_per_site(&[1, 1, 0, 0])
            .subscribe(site(1), stream(0, 0))
            .subscribe(site(2), stream(0, 0))
            .subscribe(site(3), stream(0, 0))
            .subscribe(site(2), stream(1, 0))
            .build()
            .unwrap()
    }

    fn plan_of(problem: &ProblemInstance, manager: &OverlayManager) -> DisseminationPlan {
        DisseminationPlan::from_forest(
            problem,
            &manager.forest_snapshot(),
            StreamProfile::default(),
        )
    }

    #[test]
    fn diff_of_identical_plans_is_empty() {
        let p = problem();
        let m = OverlayManager::new(p.clone());
        let plan = plan_of(&p, &m);
        let delta = PlanDelta::diff(&plan, &plan);
        assert!(delta.is_empty());
        assert_eq!(delta.len(), 0);
        assert!(delta.touched_sites().is_empty());
    }

    #[test]
    fn apply_reproduces_the_target_plan() {
        let p = problem();
        let mut m = OverlayManager::new(p.clone());
        let before = plan_of(&p, &m);
        m.subscribe(site(1), stream(0, 0)).unwrap();
        m.subscribe(site(2), stream(0, 0)).unwrap();
        m.subscribe(site(2), stream(1, 0)).unwrap();
        let mut after = plan_of(&p, &m);
        after.set_revision(before.revision() + 1);

        let delta = PlanDelta::diff(&before, &after);
        assert!(!delta.is_empty());
        assert_eq!(delta.from_revision(), before.revision());
        assert_eq!(delta.to_revision(), after.revision());
        let mut patched = before.clone();
        delta.apply(&mut patched).unwrap();
        assert_eq!(patched, after);
        assert_eq!(patched.revision(), delta.to_revision());
    }

    #[test]
    fn unsubscribe_deltas_apply_too() {
        let p = problem();
        let mut m = OverlayManager::new(p.clone());
        m.subscribe(site(1), stream(0, 0)).unwrap();
        m.subscribe(site(2), stream(0, 0)).unwrap();
        let before = plan_of(&p, &m);
        m.unsubscribe(site(1), stream(0, 0)).unwrap();
        let mut after = plan_of(&p, &m);
        after.set_revision(before.revision() + 1);

        let delta = PlanDelta::diff(&before, &after);
        let mut patched = before.clone();
        delta.apply(&mut patched).unwrap();
        assert_eq!(patched, after);
    }

    #[test]
    fn stale_empty_deltas_never_rewind_the_revision() {
        // An empty delta passes entry validation vacuously whatever its
        // revisions; a plan already past its target must stay put.
        let p = problem();
        let m = OverlayManager::new(p.clone());
        let mut plan = plan_of(&p, &m);
        plan.set_revision(99);
        PlanDelta::default().apply(&mut plan).unwrap();
        assert_eq!(plan.revision(), 99, "to_revision 0 must not rewind");
        let mut old = plan_of(&p, &m);
        old.set_revision(3);
        let quiet = PlanDelta::diff(&old, &old);
        assert_eq!(quiet.to_revision(), 4);
        quiet.apply(&mut plan).unwrap();
        assert_eq!(plan.revision(), 99, "old quiet epochs must not rewind");
    }

    #[test]
    fn unstamped_targets_still_advance_one_revision() {
        // Plans derived outside the runtime are never revision-stamped;
        // the delta still advances the applied plan by one.
        let p = problem();
        let mut m = OverlayManager::new(p.clone());
        let before = plan_of(&p, &m);
        m.subscribe(site(1), stream(0, 0)).unwrap();
        let after = plan_of(&p, &m);
        assert_eq!(after.revision(), 0);
        let delta = PlanDelta::diff(&before, &after);
        assert_eq!(delta.from_revision(), 0);
        assert_eq!(delta.to_revision(), 1);
        let mut patched = before.clone();
        patched.apply_delta(&delta).unwrap();
        assert_eq!(patched.revision(), 1);
    }

    #[test]
    fn stale_deltas_are_rejected_before_mutation() {
        let p = problem();
        let mut m = OverlayManager::new(p.clone());
        let empty = plan_of(&p, &m);
        m.subscribe(site(1), stream(0, 0)).unwrap();
        let one = plan_of(&p, &m);
        m.subscribe(site(2), stream(0, 0)).unwrap();
        let two = plan_of(&p, &m);

        // A delta from `one` to `two` cannot apply to `empty`.
        let delta = PlanDelta::diff(&one, &two);
        let mut target = empty.clone();
        let err = delta.apply(&mut target).unwrap_err();
        assert!(matches!(err, DeltaError::StaleEntry { .. }));
        assert_eq!(target, empty, "failed application must not mutate");
    }

    #[test]
    fn quality_only_deltas_are_well_formed_and_socket_free() {
        use teeve_types::Quality;
        let p = problem();
        let mut m = OverlayManager::new(p.clone());
        m.subscribe(site(1), stream(0, 0)).unwrap();
        m.subscribe(site(2), stream(0, 0)).unwrap();
        let before = plan_of(&p, &m);

        // Same forest, one subscription re-stamped a rung down.
        let mut after = before.clone();
        assert!(after.set_quality(site(2), stream(0, 0), Quality::new(1)));
        after.set_revision(before.revision() + 1);

        let delta = PlanDelta::diff(&before, &after);
        assert!(!delta.is_empty());
        assert!(delta.is_quality_only(), "only a quality stamp moved");
        // Revision-bumped like any other delta…
        assert_eq!(delta.from_revision(), before.revision());
        assert_eq!(delta.to_revision(), before.revision() + 1);
        // …provably socket-free: the quality dimension reports the move,
        // the link dimension reports nothing.
        assert_eq!(
            delta.quality_changes(),
            vec![QualityChange {
                site: site(2),
                stream: stream(0, 0),
                from: Quality::FULL,
                to: Quality::new(1),
            }]
        );
        assert!(delta.edges_added().is_empty());
        assert!(delta.edges_removed().is_empty());

        let mut patched = before.clone();
        delta.apply(&mut patched).unwrap();
        assert_eq!(patched, after);
        assert_eq!(
            patched.quality_of(site(2), stream(0, 0)),
            Some(Quality::new(1))
        );
    }

    #[test]
    fn mixed_deltas_are_not_quality_only_but_still_report_quality() {
        use teeve_types::Quality;
        let p = problem();
        let mut m = OverlayManager::new(p.clone());
        m.subscribe(site(1), stream(0, 0)).unwrap();
        let before = plan_of(&p, &m);
        // A structural change (site 2 joins) and a quality re-stamp.
        m.subscribe(site(2), stream(0, 0)).unwrap();
        let mut after = plan_of(&p, &m);
        assert!(after.set_quality(site(1), stream(0, 0), Quality::new(2)));

        let delta = PlanDelta::diff(&before, &after);
        assert!(!delta.is_quality_only(), "a new entry is not quality-only");
        // The surviving entry's rung move is reported…
        let changes = delta.quality_changes();
        assert!(changes.contains(&QualityChange {
            site: site(1),
            stream: stream(0, 0),
            from: Quality::FULL,
            to: Quality::new(2),
        }));
        // …but site 2's fresh entry is structural, not a quality move:
        // a purely structural delta reports no quality changes at all.
        assert!(changes.iter().all(|c| c.site != site(2)));
        let structural = PlanDelta::diff(&before, &plan_of(&p, &m));
        assert!(!structural.edges_added().is_empty());
        assert!(structural.quality_changes().is_empty());
        // An empty delta is not "quality only" either.
        assert!(!PlanDelta::default().is_quality_only());
    }

    #[test]
    fn edge_diffs_report_link_changes() {
        let p = problem();
        let mut m = OverlayManager::new(p.clone());
        let before = plan_of(&p, &m);
        m.subscribe(site(1), stream(0, 0)).unwrap();
        let after = plan_of(&p, &m);
        let delta = PlanDelta::diff(&before, &after);
        assert_eq!(delta.edges_added(), vec![(site(0), site(1), stream(0, 0))]);
        assert!(delta.edges_removed().is_empty());

        let reverse = PlanDelta::diff(&after, &before);
        assert_eq!(
            reverse.edges_removed(),
            vec![(site(0), site(1), stream(0, 0))]
        );
        assert!(reverse.edges_added().is_empty());
    }

    #[test]
    fn scoped_plans_stamp_their_deltas() {
        let p = problem();
        let mut m = OverlayManager::new(p.clone());
        let session = SessionId::new(7);
        let mut before = plan_of(&p, &m);
        before.set_scope(Some(session));
        m.subscribe(site(1), stream(0, 0)).unwrap();
        let mut after = plan_of(&p, &m);
        after.set_scope(Some(session));
        after.set_revision(1);

        let delta = PlanDelta::diff(&before, &after);
        assert_eq!(delta.scope(), Some(session));
        let mut patched = before.clone();
        delta.apply(&mut patched).unwrap();
        assert_eq!(patched, after);
        assert_eq!(patched.scope(), Some(session));
    }

    #[test]
    fn foreign_session_deltas_are_rejected_before_entry_checks() {
        let p = problem();
        let mut m = OverlayManager::new(p.clone());
        let mut before = plan_of(&p, &m);
        before.set_scope(Some(SessionId::new(1)));
        m.subscribe(site(1), stream(0, 0)).unwrap();
        let mut after = plan_of(&p, &m);
        after.set_scope(Some(SessionId::new(1)));
        let delta = PlanDelta::diff(&before, &after);

        // The same forwarding state under another session's scope: the
        // entries would validate, the scope must not.
        let mut foreign = before.clone();
        foreign.set_scope(Some(SessionId::new(2)));
        let err = delta.apply(&mut foreign).unwrap_err();
        assert_eq!(
            err,
            DeltaError::ScopeMismatch {
                delta: Some(SessionId::new(1)),
                plan: Some(SessionId::new(2)),
            }
        );
        // An *unscoped* delta is just as foreign to a scoped plan: the
        // plan's own runtime stamps everything it emits, so an unstamped
        // delta cannot be this session's.
        let mut unscoped_before = before.clone();
        unscoped_before.set_scope(None);
        let mut unscoped_after = after.clone();
        unscoped_after.set_scope(None);
        let unscoped_delta = PlanDelta::diff(&unscoped_before, &unscoped_after);
        let err = delta_target_scoped(&unscoped_delta, &before);
        assert_eq!(
            err,
            DeltaError::ScopeMismatch {
                delta: None,
                plan: Some(SessionId::new(1)),
            }
        );
        // Unscoped plans accept scoped deltas (executors that never
        // registered a scope keep working as before).
        let mut unscoped = before.clone();
        unscoped.set_scope(None);
        delta.apply(&mut unscoped).unwrap();
    }

    /// Applies `delta` to a clone of the scoped `plan`, returning the
    /// expected rejection.
    fn delta_target_scoped(delta: &PlanDelta, plan: &DisseminationPlan) -> DeltaError {
        let mut target = plan.clone();
        delta.apply(&mut target).unwrap_err()
    }

    #[test]
    #[should_panic(expected = "same session")]
    fn diffing_a_scoped_plan_against_an_unscoped_one_panics() {
        // A half-stamped pair means a plan missed its scope stamp; diff
        // must refuse to mint a scoped delta out of it.
        let p = problem();
        let m = OverlayManager::new(p.clone());
        let unscoped = plan_of(&p, &m);
        let mut scoped = unscoped.clone();
        scoped.set_scope(Some(SessionId::new(3)));
        let _ = PlanDelta::diff(&unscoped, &scoped);
    }

    #[test]
    fn router_dispatches_deltas_to_their_sessions() {
        let p = problem();
        let a = SessionId::new(0);
        let b = SessionId::new(1);

        // Two independent sessions over the same universe, one router.
        let mut router: DeltaRouter<DisseminationPlan> = DeltaRouter::new();
        let mut managers = Vec::new();
        for (id, subscriber) in [(a, site(1)), (b, site(2))] {
            let m = OverlayManager::new(p.clone());
            let mut plan = plan_of(&p, &m);
            plan.set_scope(Some(id));
            router.register(id, plan);
            managers.push((id, subscriber, m));
        }
        assert_eq!(router.len(), 2);

        for (id, subscriber, m) in &mut managers {
            let mut before = plan_of(&p, m);
            before.set_scope(Some(*id));
            m.subscribe(*subscriber, stream(0, 0)).unwrap();
            let mut after = plan_of(&p, m);
            after.set_scope(Some(*id));
            after.set_revision(1);
            router
                .apply_delta(&PlanDelta::diff(&before, &after))
                .unwrap();
        }

        // Each session's executor saw exactly its own change.
        assert!(router
            .get(a)
            .unwrap()
            .deliveries_to(site(1))
            .contains(&stream(0, 0)));
        assert!(router.get(a).unwrap().deliveries_to(site(2)).is_empty());
        assert!(router
            .get(b)
            .unwrap()
            .deliveries_to(site(2))
            .contains(&stream(0, 0)));
        assert!(router.get(b).unwrap().deliveries_to(site(1)).is_empty());
    }

    #[test]
    fn router_rejects_unscoped_and_unknown_deltas() {
        let p = problem();
        let mut m = OverlayManager::new(p.clone());
        let before = plan_of(&p, &m);
        m.subscribe(site(1), stream(0, 0)).unwrap();
        let after = plan_of(&p, &m);

        let mut router: DeltaRouter<DisseminationPlan> = DeltaRouter::new();
        let unscoped = PlanDelta::diff(&before, &after);
        assert_eq!(
            router.apply_delta(&unscoped).unwrap_err(),
            RouteError::Unscoped
        );

        let mut scoped_before = before.clone();
        scoped_before.set_scope(Some(SessionId::new(9)));
        let mut scoped_after = after.clone();
        scoped_after.set_scope(Some(SessionId::new(9)));
        let scoped = PlanDelta::diff(&scoped_before, &scoped_after);
        assert_eq!(
            router.apply_delta(&scoped).unwrap_err(),
            RouteError::UnknownSession(SessionId::new(9))
        );
        // Registering the session unblocks it, unregistering re-breaks it.
        router.register(SessionId::new(9), scoped_before.clone());
        router.apply_delta(&scoped).unwrap();
        assert!(router.unregister(SessionId::new(9)).is_some());
        assert!(router.is_empty());
        assert!(matches!(
            router.apply_delta(&scoped).unwrap_err(),
            RouteError::UnknownSession(_)
        ));
    }

    #[test]
    fn delta_serde_roundtrip() {
        let p = problem();
        let mut m = OverlayManager::new(p.clone());
        let before = plan_of(&p, &m);
        m.subscribe(site(3), stream(0, 0)).unwrap();
        let delta = PlanDelta::diff(&before, &plan_of(&p, &m));
        let json = serde_json::to_string(&delta).unwrap();
        let back: PlanDelta = serde_json::from_str(&json).unwrap();
        assert_eq!(back, delta);
    }
}
