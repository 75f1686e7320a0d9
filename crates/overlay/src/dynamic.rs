//! Incremental overlay maintenance — the dynamic counterpart of the static
//! construction problem.
//!
//! The paper solves the *static* overlay construction problem and leaves
//! live operation ("experiments of larger scales with real deployment") to
//! future work. This module provides the natural next step: an
//! [`OverlayManager`] that keeps a forest consistent while subscriptions
//! come and go, without rebuilding from scratch:
//!
//! * **subscribe** — joins the requester into the stream's tree with the
//!   same basic node join (and optional CO-RJ-style victim swapping);
//! * **unsubscribe** — detaches the requester; if it was relaying, its
//!   orphaned subtree is re-joined node by node (closest-to-source first),
//!   and anything that no longer fits is reported as dropped.
//!
//! Every mutation maintains the full invariant set of the static problem
//! (degree bounds, latency bound, well-formed trees), checkable at any
//! point with [`validate_forest`](crate::validate_forest).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use teeve_types::{Quality, QualityLadder, SiteId, StreamId};

use crate::algorithms::corj_try_swap;
use crate::join::{ForestState, JoinOutcome};
use crate::problem::ProblemInstance;
use crate::quality::fit_qualities;

/// Error produced by dynamic overlay operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynamicError {
    /// The stream has no multicast group in the underlying problem: it was
    /// never part of the session's subscription universe.
    UnknownStream {
        /// The offending stream.
        stream: StreamId,
    },
    /// The subscriber is not a declared subscriber of the stream's group.
    NotASubscriber {
        /// The requesting site.
        site: SiteId,
        /// The requested stream.
        stream: StreamId,
    },
    /// The subscriber is the stream's origin.
    OwnStream {
        /// The requesting site.
        site: SiteId,
        /// The requested stream.
        stream: StreamId,
    },
}

impl fmt::Display for DynamicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynamicError::UnknownStream { stream } => {
                write!(f, "stream {stream} is not part of this session")
            }
            DynamicError::NotASubscriber { site, stream } => {
                write!(f, "{site} never subscribed to {stream}")
            }
            DynamicError::OwnStream { site, stream } => {
                write!(f, "{site} originates {stream} and cannot subscribe to it")
            }
        }
    }
}

impl std::error::Error for DynamicError {}

/// Result of one dynamic subscription attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubscribeResult {
    /// The subscriber now receives the stream through the given parent.
    Joined {
        /// The forwarding parent.
        parent: SiteId,
    },
    /// The subscriber already received the stream; nothing changed.
    AlreadyJoined,
    /// No feasible parent exists (bandwidth or latency); the request was
    /// rejected, as in the static problem.
    Rejected,
}

/// Result of one unsubscribe operation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UnsubscribeResult {
    /// Downstream sites that were re-attached to the tree, with their new
    /// parents.
    pub reattached: Vec<(SiteId, SiteId)>,
    /// Downstream sites that could not be re-attached and lost the stream.
    pub dropped: Vec<SiteId>,
}

/// Result of one score-carrying subscription attempt through the
/// degrade-don't-reject admission path
/// ([`OverlayManager::subscribe_scored`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredAdmission {
    /// The structural outcome (joined, already joined, or rejected).
    pub result: SubscribeResult,
    /// The quality the subscription is served at ([`Quality::FULL`]
    /// when the site's budget is unset or ample).
    pub quality: Quality,
    /// Already-admitted streams at this site whose quality changed to fit
    /// the budget: degraded — CO-RJ style — to make room for the
    /// newcomer, or promoted when the refit found slack.
    pub changed: Vec<(StreamId, Quality)>,
    /// The subscription a CO-RJ victim swap sacrificed to admit this one
    /// (the site no longer receives it). Callers tracking granted state
    /// must release the victim, or it silently stops being delivered.
    pub victim: Option<StreamId>,
}

/// Per-site rate bookkeeping behind the degrade-don't-reject admission
/// path: budgets, and the quality/score of every admitted subscription.
#[derive(Debug, Clone)]
struct RateAdmission {
    ladder: QualityLadder,
    /// Per-site inbound bit-rate budget; `None` = unconstrained.
    budgets: Vec<Option<u64>>,
    /// `(receiver, stream)` → (FOV contribution score, granted quality).
    admitted: BTreeMap<(SiteId, StreamId), (f64, Quality)>,
}

impl RateAdmission {
    /// The admitted `(stream, score)` pairs of one site, for fitting.
    fn site_streams(&self, site: SiteId) -> Vec<(StreamId, f64)> {
        self.admitted
            .range((site, StreamId::new(SiteId::new(0), 0))..)
            .take_while(|((s, _), _)| *s == site)
            .map(|(&(_, stream), &(score, _))| (stream, score))
            .collect()
    }

    /// Re-fits `site`'s admitted streams (plus `extra`, if any) into its
    /// budget and commits the result, returning the quality changes of
    /// already-admitted streams. The caller has verified feasibility.
    fn commit_fit(
        &mut self,
        site: SiteId,
        extra: Option<(StreamId, f64)>,
    ) -> Vec<(StreamId, Quality)> {
        let mut streams = self.site_streams(site);
        if let Some((stream, score)) = extra {
            streams.push((stream, score));
        }
        let fit = fit_qualities(&self.ladder, self.budgets[site.index()], &streams);
        let mut changed = Vec::new();
        for (stream, score) in streams {
            let quality = fit.qualities[&stream];
            let previous = self.admitted.insert((site, stream), (score, quality));
            if let Some((_, old)) = previous {
                if old != quality {
                    changed.push((stream, quality));
                }
            }
        }
        changed
    }
}

/// Maintains a dissemination forest under subscription churn.
///
/// The manager *owns* its subscription universe behind an
/// [`Arc<ProblemInstance>`]: unlike the static construction algorithms
/// (which borrow a problem for the duration of one `construct` call), an
/// overlay manager lives as long as its session does, and a multi-session
/// service holds many of them in one registry — none of which a borrow
/// lifetime would permit.
///
/// # Examples
///
/// ```
/// use teeve_overlay::{OverlayManager, ProblemInstance, SubscribeResult};
/// use teeve_types::{CostMatrix, CostMs, Degree, SiteId, StreamId};
///
/// let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(5));
/// let problem = ProblemInstance::builder(costs, CostMs::new(50))
///     .symmetric_capacities(Degree::new(4))
///     .streams_per_site(&[1, 1, 1])
///     .subscribe(SiteId::new(1), StreamId::new(SiteId::new(0), 0))
///     .subscribe(SiteId::new(2), StreamId::new(SiteId::new(0), 0))
///     .build()?;
///
/// let mut manager = OverlayManager::new(problem);
/// let s = StreamId::new(SiteId::new(0), 0);
/// assert!(matches!(
///     manager.subscribe(SiteId::new(1), s)?,
///     SubscribeResult::Joined { .. }
/// ));
/// let result = manager.unsubscribe(SiteId::new(1), s)?;
/// assert!(result.dropped.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct OverlayManager {
    state: ForestState<Arc<ProblemInstance>>,
    /// Enable CO-RJ victim swapping on saturated joins.
    correlation_aware: bool,
    /// Rate-aware degrade-don't-reject admission.
    rate: RateAdmission,
}

impl OverlayManager {
    /// Creates a manager over an empty forest (all trees contain only
    /// their sources). The problem instance declares the subscription
    /// *universe*: which site may subscribe to which stream, and the
    /// capacities and bound. Accepts a `ProblemInstance` by value or an
    /// already-shared `Arc<ProblemInstance>` (callers keeping their own
    /// handle on the universe pass a clone of the `Arc`).
    ///
    /// Admission is rate-aware on the paper's
    /// [`QualityLadder::paper_default`]: every subscription is granted a
    /// [`Quality`] rung, and when a receiving site's bit-rate budget (see
    /// [`set_rate_budget`](Self::set_rate_budget)) cannot carry a new
    /// stream at full quality, admission degrades — first the newcomer,
    /// then the site's lowest-scored already-admitted streams — and only
    /// rejects once every stream sits at the ladder floor. Budgets start
    /// unset, and an unset budget grants [`Quality::FULL`].
    pub fn new(problem: impl Into<Arc<ProblemInstance>>) -> Self {
        let state = ForestState::new(problem.into());
        let rate = RateAdmission {
            ladder: QualityLadder::paper_default(),
            budgets: vec![None; state.problem().site_count()],
            admitted: BTreeMap::new(),
        };
        OverlayManager {
            state,
            correlation_aware: false,
            rate,
        }
    }

    /// Enables CO-RJ-style victim swapping for saturated subscriptions.
    #[must_use]
    pub fn with_correlation_swapping(mut self) -> Self {
        self.correlation_aware = true;
        self
    }

    /// Sets (or clears) `site`'s inbound bit-rate budget. Takes effect on
    /// the next [`subscribe_scored`](Self::subscribe_scored) or
    /// [`refit_site`](Self::refit_site) call — already-granted qualities
    /// are not touched here.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    pub fn set_rate_budget(&mut self, site: SiteId, budget_bps: Option<u64>) {
        self.rate.budgets[site.index()] = budget_bps;
    }

    /// Returns `site`'s inbound bit-rate budget (`None` when unlimited).
    pub fn rate_budget(&self, site: SiteId) -> Option<u64> {
        self.rate.budgets[site.index()]
    }

    /// Returns the quality `site` currently receives `stream` at:
    /// [`Quality::FULL`] unless the rate-admission path granted (or later
    /// degraded to) a lower rung.
    pub fn quality_of(&self, site: SiteId, stream: StreamId) -> Quality {
        self.rate
            .admitted
            .get(&(site, stream))
            .map_or(Quality::FULL, |&(_, quality)| quality)
    }

    /// Updates the stored FOV contribution score of an admitted
    /// subscription (a display re-targeted without unsubscribing), so
    /// later refits and victim selections rank it correctly. A no-op for
    /// unknown subscriptions.
    pub fn rescore(&mut self, site: SiteId, stream: StreamId, score: f64) {
        if let Some(entry) = self.rate.admitted.get_mut(&(site, stream)) {
            entry.0 = score;
        }
    }

    /// Re-fits every admitted stream of `site` into its current budget
    /// from scratch — degrading under a tightened budget, *promoting*
    /// back toward full quality under a loosened one — and returns the
    /// quality changes. The assignment is the deterministic
    /// [`fit_qualities`] greedy, clamped at the ladder floor (a budget
    /// too small for even the floor keeps everything at the floor; the
    /// transport layer surfaces the shortfall).
    pub fn refit_site(&mut self, site: SiteId) -> Vec<(StreamId, Quality)> {
        self.rate.commit_fit(site, None)
    }

    /// Returns the shared subscription universe this manager operates over.
    pub fn problem(&self) -> &ProblemInstance {
        self.state.problem()
    }

    /// Returns the underlying construction state (degrees, trees).
    pub fn state(&self) -> &ForestState<Arc<ProblemInstance>> {
        &self.state
    }

    /// Returns whether `site` currently receives `stream`.
    pub fn is_subscribed(&self, site: SiteId, stream: StreamId) -> bool {
        self.group_index(stream)
            .map(|g| self.state.tree(g).is_member(site) && stream.origin() != site)
            .unwrap_or(false)
    }

    fn group_index(&self, stream: StreamId) -> Option<usize> {
        self.state
            .problem()
            .groups()
            .iter()
            .position(|g| g.stream() == stream)
    }

    fn check_request(&self, site: SiteId, stream: StreamId) -> Result<usize, DynamicError> {
        if stream.origin() == site {
            return Err(DynamicError::OwnStream { site, stream });
        }
        let group = self
            .group_index(stream)
            .ok_or(DynamicError::UnknownStream { stream })?;
        if !self.state.problem().groups()[group]
            .subscribers()
            .contains(&site)
        {
            return Err(DynamicError::NotASubscriber { site, stream });
        }
        Ok(group)
    }

    /// Joins `site` into `stream`'s tree without a contribution score:
    /// new admissions are ranked at the default full score, and — unlike
    /// [`subscribe_scored`](Self::subscribe_scored) — an idempotent
    /// re-subscribe leaves an existing stored score untouched, so a
    /// score-less caller can never corrupt the degrade path's victim
    /// ordering.
    ///
    /// # Errors
    ///
    /// Returns an error if the stream is outside the session universe, the
    /// site is not a declared subscriber, or it originates the stream.
    pub fn subscribe(
        &mut self,
        site: SiteId,
        stream: StreamId,
    ) -> Result<SubscribeResult, DynamicError> {
        self.subscribe_inner(site, stream, None)
            .map(|admission| admission.result)
    }

    /// Joins `site` into `stream`'s tree, carrying the subscription's FOV
    /// contribution `score` through the degrade-don't-reject admission
    /// path.
    ///
    /// With a budget set for `site`
    /// ([`set_rate_budget`](Self::set_rate_budget)), saturation degrades
    /// instead of rejecting: the
    /// newcomer is first tried at lower rungs, then the site's
    /// lowest-scored already-admitted streams yield budget one rung at a
    /// time (the CO-RJ idea, with *degrade* in place of *drop*), and the
    /// request is rejected only when every stream — newcomer included —
    /// sits at the ladder floor and the demand still exceeds the budget.
    /// Count-based saturation (the paper's degree bounds) and the latency
    /// bound still reject structurally, after the optional CO-RJ victim
    /// swap.
    ///
    /// # Errors
    ///
    /// Returns an error if the stream is outside the session universe, the
    /// site is not a declared subscriber, or it originates the stream.
    pub fn subscribe_scored(
        &mut self,
        site: SiteId,
        stream: StreamId,
        score: f64,
    ) -> Result<ScoredAdmission, DynamicError> {
        self.subscribe_inner(site, stream, Some(score))
    }

    /// The shared admission path; `score: None` (the score-less
    /// [`subscribe`](Self::subscribe)) admits at the default full score
    /// but never overwrites a stored one.
    fn subscribe_inner(
        &mut self,
        site: SiteId,
        stream: StreamId,
        score: Option<f64>,
    ) -> Result<ScoredAdmission, DynamicError> {
        let group = self.check_request(site, stream)?;
        let admit_score = score.unwrap_or(1.0);
        let rejected = |quality| ScoredAdmission {
            result: SubscribeResult::Rejected,
            quality,
            changed: Vec::new(),
            victim: None,
        };
        if self.state.tree(group).is_member(site) {
            // Known member: a scored call refreshes the stored score so
            // later refits and victim selections rank it correctly; a
            // score-less call leaves it alone.
            let entry = self
                .rate
                .admitted
                .entry((site, stream))
                .or_insert((admit_score, Quality::FULL));
            if let Some(score) = score {
                entry.0 = score;
            }
            return Ok(ScoredAdmission {
                result: SubscribeResult::AlreadyJoined,
                quality: self.quality_of(site, stream),
                changed: Vec::new(),
                victim: None,
            });
        }

        // Rate feasibility first, so a ladder-exhausted rejection never
        // mutates the forest (no join to undo, no swap to revert).
        let budget = self.rate.budgets[site.index()];
        if budget.is_some() {
            let mut streams = self.rate.site_streams(site);
            streams.push((stream, admit_score));
            if !fit_qualities(&self.rate.ladder, budget, &streams).fits {
                return Ok(rejected(Quality::FULL));
            }
        }

        // Structural join: degree bounds and the latency bound, with the
        // CO-RJ victim swap as the saturation fallback.
        let mut victim = None;
        let parent = match self.state.try_join(group, site) {
            JoinOutcome::Joined { parent } => parent,
            JoinOutcome::RejectedInbound | JoinOutcome::RejectedSaturated
                if self.correlation_aware =>
            {
                match corj_try_swap(&mut self.state, group, site) {
                    Some(sacrificed) => {
                        // The swap traded the victim subscription away;
                        // its quality bookkeeping goes with it, and the
                        // caller is told so its granted state follows.
                        self.rate.admitted.remove(&(site, sacrificed));
                        victim = Some(sacrificed);
                        self.state
                            .tree(group)
                            .parent_of(site)
                            .expect("swap attached the site")
                    }
                    None => return Ok(rejected(Quality::FULL)),
                }
            }
            _ => return Ok(rejected(Quality::FULL)),
        };

        let changed = self.rate.commit_fit(site, Some((stream, admit_score)));
        let quality = self.quality_of(site, stream);
        Ok(ScoredAdmission {
            result: SubscribeResult::Joined { parent },
            quality,
            changed,
            victim,
        })
    }

    /// Removes `site` from `stream`'s tree. If `site` was relaying, its
    /// orphaned descendants are detached and re-joined closest-to-source
    /// first; descendants that no longer fit are dropped (and reported).
    ///
    /// # Errors
    ///
    /// Returns an error if the stream is outside the session universe, the
    /// site is not a declared subscriber, or it originates the stream.
    pub fn unsubscribe(
        &mut self,
        site: SiteId,
        stream: StreamId,
    ) -> Result<UnsubscribeResult, DynamicError> {
        let group = self.check_request(site, stream)?;
        if !self.state.tree(group).is_member(site) {
            return Ok(UnsubscribeResult::default());
        }

        // Collect the subtree below `site` (excluding `site`), then detach
        // leaf-by-leaf (deepest first).
        let subtree = self.collect_subtree(group, site);
        for &descendant in subtree.iter().rev() {
            self.state.detach_leaf(group, descendant);
        }
        self.state.detach_leaf(group, site);

        // Re-join descendants closest-to-source first, so earlier rejoins
        // can serve as relays for later ones.
        let mut result = UnsubscribeResult::default();
        for &descendant in &subtree {
            match self.state.try_join(group, descendant) {
                JoinOutcome::Joined { parent } => {
                    result.reattached.push((descendant, parent));
                }
                _ => result.dropped.push(descendant),
            }
        }
        // Release the departed (and dropped) subscriptions' quality
        // bookkeeping; re-attached descendants keep theirs.
        self.rate.admitted.remove(&(site, stream));
        for &dropped in &result.dropped {
            self.rate.admitted.remove(&(dropped, stream));
        }
        Ok(result)
    }

    /// Returns the descendants of `site` in group `group`, ordered
    /// shallowest first (BFS).
    fn collect_subtree(&self, group: usize, site: SiteId) -> Vec<SiteId> {
        let tree = self.state.tree(group);
        let mut order = Vec::new();
        let mut frontier = vec![site];
        while let Some(node) = frontier.pop() {
            for child in tree.children(node) {
                order.push(child);
                frontier.push(child);
            }
        }
        // BFS order by recorded cost (shallower costs first) keeps rejoin
        // deterministic and relay-friendly.
        order.sort_by_key(|&s| tree.cost_from_source(s).expect("descendants are members"));
        order
    }

    /// Returns a snapshot of the forest in its current state, leaving the
    /// manager usable. Epoch-driven callers (the session runtime) derive a
    /// dissemination plan from every snapshot while churn continues.
    pub fn forest_snapshot(&self) -> crate::forest::Forest {
        self.state.forest_snapshot()
    }

    /// Consumes the manager, returning the forest in its current state.
    pub fn into_forest(self) -> crate::forest::Forest {
        self.state.into_forest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_forest;
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
            .streams_per_site(&[2, 2, 2, 2])
            .subscribe(site(1), stream(0, 0))
            .subscribe(site(2), stream(0, 0))
            .subscribe(site(3), stream(0, 0))
            .subscribe(site(0), stream(1, 0))
            .subscribe(site(2), stream(1, 1))
            .build()
            .unwrap()
    }

    #[test]
    fn subscribe_and_unsubscribe_round_trip() {
        let p = problem();
        let mut m = OverlayManager::new(p.clone());
        let s = stream(0, 0);
        assert!(matches!(
            m.subscribe(site(1), s).unwrap(),
            SubscribeResult::Joined { .. }
        ));
        assert!(m.is_subscribed(site(1), s));
        assert_eq!(
            m.subscribe(site(1), s).unwrap(),
            SubscribeResult::AlreadyJoined
        );
        let r = m.unsubscribe(site(1), s).unwrap();
        assert!(r.reattached.is_empty());
        assert!(r.dropped.is_empty());
        assert!(!m.is_subscribed(site(1), s));
        // Degrees returned to zero.
        assert_eq!(m.state().out_degree(site(0)), 0);
        assert_eq!(m.state().in_degree(site(1)), 0);
    }

    #[test]
    fn unsubscribing_a_relay_reattaches_descendants() {
        // Force a chain: source capacity 1 so site 2 must relay through 1.
        let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(3));
        let p = ProblemInstance::builder(costs, CostMs::new(50))
            .capacities(vec![
                crate::problem::NodeCapacity::symmetric(Degree::new(1)),
                crate::problem::NodeCapacity::symmetric(Degree::new(4)),
                crate::problem::NodeCapacity::symmetric(Degree::new(4)),
            ])
            .streams_per_site(&[1, 0, 0])
            .subscribe(site(1), stream(0, 0))
            .subscribe(site(2), stream(0, 0))
            .build()
            .unwrap();
        let mut m = OverlayManager::new(p.clone());
        let s = stream(0, 0);
        m.subscribe(site(1), s).unwrap();
        m.subscribe(site(2), s).unwrap();
        assert_eq!(m.state().tree(0).parent_of(site(2)), Some(site(1)));

        // Site 1 leaves; site 2 must be re-attached… but the source's only
        // out slot is now free again, so site 2 re-joins under the source.
        let r = m.unsubscribe(site(1), s).unwrap();
        assert_eq!(r.reattached, vec![(site(2), site(0))]);
        assert!(r.dropped.is_empty());
        assert!(m.is_subscribed(site(2), s));
        validate_forest(&p, &m.into_forest()).expect("valid after churn");
    }

    #[test]
    fn descendants_that_no_longer_fit_are_dropped() {
        // Source can serve exactly one child; relay 1 carries 2 and 3.
        let costs = CostMatrix::from_fn(4, |_, _| CostMs::new(3));
        let p = ProblemInstance::builder(costs, CostMs::new(50))
            .capacities(vec![
                crate::problem::NodeCapacity::symmetric(Degree::new(1)),
                crate::problem::NodeCapacity::symmetric(Degree::new(4)),
                crate::problem::NodeCapacity {
                    inbound: Degree::new(4),
                    outbound: Degree::new(0),
                },
                crate::problem::NodeCapacity {
                    inbound: Degree::new(4),
                    outbound: Degree::new(0),
                },
            ])
            .streams_per_site(&[1, 0, 0, 0])
            .subscribe(site(1), stream(0, 0))
            .subscribe(site(2), stream(0, 0))
            .subscribe(site(3), stream(0, 0))
            .build()
            .unwrap();
        let mut m = OverlayManager::new(p.clone());
        let s = stream(0, 0);
        m.subscribe(site(1), s).unwrap();
        m.subscribe(site(2), s).unwrap();
        m.subscribe(site(3), s).unwrap();

        // Relay 1 leaves. The freed source slot can take one of {2, 3};
        // the other has out-degree 0 peers only and must be dropped.
        let r = m.unsubscribe(site(1), s).unwrap();
        assert_eq!(r.reattached.len(), 1);
        assert_eq!(r.dropped.len(), 1);
        validate_forest(&p, &m.into_forest()).expect("valid after drop");
    }

    #[test]
    fn rejects_foreign_and_own_streams() {
        let p = problem();
        let mut m = OverlayManager::new(p.clone());
        assert_eq!(
            m.subscribe(site(0), stream(0, 0)).unwrap_err(),
            DynamicError::OwnStream {
                site: site(0),
                stream: stream(0, 0)
            }
        );
        assert_eq!(
            m.subscribe(site(1), stream(2, 0)).unwrap_err(),
            DynamicError::UnknownStream {
                stream: stream(2, 0)
            }
        );
        // Site 3 never declared interest in stream(1, 0).
        assert_eq!(
            m.subscribe(site(3), stream(1, 0)).unwrap_err(),
            DynamicError::NotASubscriber {
                site: site(3),
                stream: stream(1, 0)
            }
        );
    }

    #[test]
    fn unsubscribe_of_non_member_is_a_no_op() {
        let p = problem();
        let mut m = OverlayManager::new(p.clone());
        let r = m.unsubscribe(site(1), stream(0, 0)).unwrap();
        assert_eq!(r, UnsubscribeResult::default());
    }

    #[test]
    fn correlation_swapping_rescues_saturated_joins() {
        // Site 3 subscribes 1 stream from site 0 and 2 from site 1:
        // criticality favors keeping the site-0 stream.
        let costs = CostMatrix::from_fn(4, |_, _| CostMs::new(3));
        let p = ProblemInstance::builder(costs, CostMs::new(50))
            .capacities(vec![
                crate::problem::NodeCapacity::symmetric(Degree::new(1)),
                crate::problem::NodeCapacity::symmetric(Degree::new(8)),
                crate::problem::NodeCapacity::symmetric(Degree::new(8)),
                crate::problem::NodeCapacity {
                    inbound: Degree::new(2),
                    outbound: Degree::new(8),
                },
            ])
            .streams_per_site(&[1, 2, 0, 0])
            .subscribe(site(3), stream(0, 0))
            .subscribe(site(3), stream(1, 0))
            .subscribe(site(3), stream(1, 1))
            .subscribe(site(1), stream(0, 0))
            .build()
            .unwrap();
        let mut m = OverlayManager::new(p.clone()).with_correlation_swapping();
        // Site 1 takes the source's only slot for the critical stream, so
        // it holds s0.0 and can later serve as the swap parent.
        m.subscribe(site(1), stream(0, 0)).unwrap();
        // Fill site 3's inbound with the two site-1 streams.
        m.subscribe(site(3), stream(1, 0)).unwrap();
        m.subscribe(site(3), stream(1, 1)).unwrap();
        // Inbound is now full (2 of 2); the critical site-0 stream would be
        // rejected, but swapping evicts one of the site-1 streams — and
        // the admission names the sacrificed subscription so callers can
        // release it from their granted state.
        let admission = m.subscribe_scored(site(3), stream(0, 0), 1.0).unwrap();
        assert!(
            matches!(admission.result, SubscribeResult::Joined { .. }),
            "swap should rescue the critical stream, got {:?}",
            admission.result
        );
        let victim = admission.victim.expect("the swap names its victim");
        assert_eq!(victim.origin(), site(1));
        assert!(!m.is_subscribed(site(3), victim));
        assert!(m.is_subscribed(site(3), stream(0, 0)));
        let still: usize = [stream(1, 0), stream(1, 1)]
            .iter()
            .filter(|&&s| m.is_subscribed(site(3), s))
            .count();
        assert_eq!(still, 1, "exactly one site-1 stream was sacrificed");
        validate_forest(&p, &m.into_forest()).expect("valid after swap");
    }

    #[test]
    fn rate_admission_degrades_the_newcomer_before_victims() {
        // Site 1 may take both of site 0's streams; a 12 Mbps budget
        // cannot carry two full 8 Mbps streams.
        let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(3));
        let p = ProblemInstance::builder(costs, CostMs::new(50))
            .symmetric_capacities(Degree::new(6))
            .streams_per_site(&[2, 0, 0])
            .subscribe(site(1), stream(0, 0))
            .subscribe(site(1), stream(0, 1))
            .build()
            .unwrap();
        let mut m = OverlayManager::new(p);
        m.set_rate_budget(site(1), Some(12_000_000));

        let first = m.subscribe_scored(site(1), stream(0, 0), 0.9).unwrap();
        assert!(matches!(first.result, SubscribeResult::Joined { .. }));
        assert!(first.quality.is_full());

        // The newcomer scores lower than the incumbent: it degrades, the
        // incumbent stays full (8 + 4 = 12 fits).
        let second = m.subscribe_scored(site(1), stream(0, 1), 0.2).unwrap();
        assert!(matches!(second.result, SubscribeResult::Joined { .. }));
        assert_eq!(second.quality, Quality::new(1));
        assert!(second.changed.is_empty(), "incumbent untouched");
        assert!(m.quality_of(site(1), stream(0, 0)).is_full());
    }

    #[test]
    fn rate_admission_degrades_the_lowest_scored_victim() {
        // The newcomer scores HIGHER than the incumbent: the incumbent is
        // the CO-RJ-style victim and yields budget instead.
        let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(3));
        let p = ProblemInstance::builder(costs, CostMs::new(50))
            .symmetric_capacities(Degree::new(6))
            .streams_per_site(&[2, 0, 0])
            .subscribe(site(1), stream(0, 0))
            .subscribe(site(1), stream(0, 1))
            .build()
            .unwrap();
        let mut m = OverlayManager::new(p);
        m.set_rate_budget(site(1), Some(12_000_000));
        m.subscribe_scored(site(1), stream(0, 0), 0.2).unwrap();

        let admission = m.subscribe_scored(site(1), stream(0, 1), 0.9).unwrap();
        assert!(matches!(admission.result, SubscribeResult::Joined { .. }));
        assert!(admission.quality.is_full(), "high scorer is served full");
        assert_eq!(admission.changed, vec![(stream(0, 0), Quality::new(1))]);
        assert_eq!(m.quality_of(site(1), stream(0, 0)), Quality::new(1));
    }

    #[test]
    fn rate_admission_rejects_only_when_the_ladder_is_exhausted() {
        // 5 Mbps carries two floor-rung (2 Mbps) streams but never three.
        let costs = CostMatrix::from_fn(4, |_, _| CostMs::new(3));
        let p = ProblemInstance::builder(costs, CostMs::new(50))
            .symmetric_capacities(Degree::new(8))
            .streams_per_site(&[3, 0, 0, 0])
            .subscribe(site(1), stream(0, 0))
            .subscribe(site(1), stream(0, 1))
            .subscribe(site(1), stream(0, 2))
            .build()
            .unwrap();
        let mut m = OverlayManager::new(p.clone());
        m.set_rate_budget(site(1), Some(5_000_000));

        assert!(matches!(
            m.subscribe_scored(site(1), stream(0, 0), 0.9)
                .unwrap()
                .result,
            SubscribeResult::Joined { .. }
        ));
        let second = m.subscribe_scored(site(1), stream(0, 1), 0.5).unwrap();
        assert!(matches!(second.result, SubscribeResult::Joined { .. }));
        // Both now sit low enough to fit 5 Mbps (2 + 2 = 4).
        assert!(!m.quality_of(site(1), stream(0, 0)).is_full());
        // A third stream cannot fit even at the floor: the ladder is
        // exhausted, and only now does the request reject — without
        // touching the forest.
        let third = m.subscribe_scored(site(1), stream(0, 2), 0.99).unwrap();
        assert_eq!(third.result, SubscribeResult::Rejected);
        assert!(!m.is_subscribed(site(1), stream(0, 2)));
        validate_forest(&p, &m.forest_snapshot()).expect("rejection left the forest intact");
    }

    #[test]
    fn refit_promotes_when_the_budget_recovers() {
        let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(3));
        let p = ProblemInstance::builder(costs, CostMs::new(50))
            .symmetric_capacities(Degree::new(6))
            .streams_per_site(&[2, 0, 0])
            .subscribe(site(1), stream(0, 0))
            .subscribe(site(1), stream(0, 1))
            .build()
            .unwrap();
        let mut m = OverlayManager::new(p);
        m.set_rate_budget(site(1), Some(10_000_000));
        m.subscribe_scored(site(1), stream(0, 0), 0.9).unwrap();
        m.subscribe_scored(site(1), stream(0, 1), 0.1).unwrap();
        assert_eq!(m.quality_of(site(1), stream(0, 1)), Quality::new(2));

        // Congestion clears: the refit promotes everything back to full.
        m.set_rate_budget(site(1), Some(40_000_000));
        let changes = m.refit_site(site(1));
        assert_eq!(changes, vec![(stream(0, 1), Quality::FULL)]);
        assert!(m.quality_of(site(1), stream(0, 1)).is_full());

        // And a tightened budget degrades again, lowest score first.
        m.set_rate_budget(site(1), Some(12_000_000));
        let changes = m.refit_site(site(1));
        assert_eq!(changes, vec![(stream(0, 1), Quality::new(1))]);
    }

    #[test]
    fn unsubscribing_releases_quality_bookkeeping() {
        let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(3));
        let p = ProblemInstance::builder(costs, CostMs::new(50))
            .symmetric_capacities(Degree::new(6))
            .streams_per_site(&[2, 0, 0])
            .subscribe(site(1), stream(0, 0))
            .subscribe(site(1), stream(0, 1))
            .build()
            .unwrap();
        let mut m = OverlayManager::new(p);
        m.set_rate_budget(site(1), Some(12_000_000));
        m.subscribe_scored(site(1), stream(0, 0), 0.9).unwrap();
        m.subscribe_scored(site(1), stream(0, 1), 0.1).unwrap();
        assert_eq!(m.quality_of(site(1), stream(0, 1)), Quality::new(1));

        // Dropping the full-quality incumbent frees 8 Mbps; the survivor
        // is promoted by the next refit.
        m.unsubscribe(site(1), stream(0, 0)).unwrap();
        assert!(
            m.quality_of(site(1), stream(0, 0)).is_full(),
            "released subscriptions report the default"
        );
        let changes = m.refit_site(site(1));
        assert_eq!(changes, vec![(stream(0, 1), Quality::FULL)]);
    }

    #[test]
    fn scoreless_resubscribes_do_not_clobber_stored_scores() {
        // A low-priority stream admitted with a real score must keep it
        // through an idempotent score-less subscribe(): otherwise the
        // next budget squeeze degrades the wrong victim.
        let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(3));
        let p = ProblemInstance::builder(costs, CostMs::new(50))
            .symmetric_capacities(Degree::new(6))
            .streams_per_site(&[2, 0, 0])
            .subscribe(site(1), stream(0, 0))
            .subscribe(site(1), stream(0, 1))
            .build()
            .unwrap();
        let mut m = OverlayManager::new(p);
        m.subscribe_scored(site(1), stream(0, 0), 0.1).unwrap();
        m.subscribe_scored(site(1), stream(0, 1), 0.9).unwrap();
        // Idempotent plain re-subscribe of the low scorer.
        assert_eq!(
            m.subscribe(site(1), stream(0, 0)).unwrap(),
            SubscribeResult::AlreadyJoined
        );
        // Tighten the budget: the 0.1-scored stream must still be the
        // victim (a clobbered score of 1.0 would degrade 0.9 instead).
        m.set_rate_budget(site(1), Some(12_000_000));
        let changes = m.refit_site(site(1));
        assert_eq!(changes, vec![(stream(0, 0), Quality::new(1))]);
        assert!(m.quality_of(site(1), stream(0, 1)).is_full());
        // An explicit re-score does update it: now the other stream is
        // the lowest scorer and yields on the next refit.
        m.subscribe_scored(site(1), stream(0, 0), 0.95).unwrap();
        m.refit_site(site(1));
        assert!(m.quality_of(site(1), stream(0, 0)).is_full());
        assert_eq!(m.quality_of(site(1), stream(0, 1)), Quality::new(1));
    }

    #[test]
    fn plain_subscribe_is_unchanged_without_budgets() {
        // No budget set: every subscription is granted full quality.
        let p = problem();
        let mut m = OverlayManager::new(p.clone());
        assert_eq!(m.rate_budget(site(1)), None);
        let s = stream(0, 0);
        assert!(matches!(
            m.subscribe(site(1), s).unwrap(),
            SubscribeResult::Joined { .. }
        ));
        assert!(m.quality_of(site(1), s).is_full());
        let r = m.unsubscribe(site(1), s).unwrap();
        assert!(r.dropped.is_empty());
    }

    #[test]
    fn churn_preserves_invariants() {
        let p = problem();
        let mut m = OverlayManager::new(p.clone());
        let streams0 = stream(0, 0);
        for _ in 0..5 {
            for s in [site(1), site(2), site(3)] {
                let _ = m.subscribe(s, streams0);
            }
            let _ = m.unsubscribe(site(2), streams0);
            let _ = m.subscribe(site(2), streams0);
            let _ = m.unsubscribe(site(1), streams0);
        }
        validate_forest(&p, &m.clone().into_forest()).expect("valid under churn");
    }
}
