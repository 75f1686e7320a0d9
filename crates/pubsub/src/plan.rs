//! Dissemination plans: the per-RP forwarding state derived from a
//! constructed overlay forest.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};
use teeve_overlay::{Forest, MulticastTree, ProblemInstance};
use teeve_types::{CostMs, Quality, SessionId, SiteId, StreamId};

use crate::StreamProfile;

/// One downstream link of a forwarding entry: the child RP and the
/// quality rung it takes the stream at.
///
/// The rung mirrors the child's own entry (`quality` there); the parent
/// carries a copy because *it* is the one sizing every forwarded frame —
/// degrading a subscription must shrink the bytes on the hop *into* the
/// congested receiver, which only the sender can do.
/// [`DisseminationPlan::set_quality`] keeps the two in sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChildLink {
    /// The downstream RP.
    pub site: SiteId,
    /// The rung the child takes the stream at.
    pub quality: Quality,
}

impl ChildLink {
    /// A full-quality link to `site` (how freshly derived plans start).
    pub fn full(site: SiteId) -> ChildLink {
        ChildLink {
            site,
            quality: Quality::FULL,
        }
    }
}

/// One stream's forwarding entry at one RP: where the stream comes from,
/// where to send it next (and at which rung), and the quality this RP
/// takes it at.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForwardingEntry {
    /// The stream being handled.
    pub stream: StreamId,
    /// Upstream parent; `None` when this RP is the stream's origin (the
    /// local cameras feed it through the site's star network).
    pub parent: Option<SiteId>,
    /// Downstream links to forward every frame along, each carrying the
    /// receiving child's quality rung.
    pub children: Vec<ChildLink>,
    /// The quality rung this RP receives (and re-forwards) the stream at.
    /// Freshly derived plans stamp [`Quality::FULL`]; the session runtime
    /// overwrites it with the adaptation loop's per-subscription decision
    /// so degradation — not hard rejection — travels with the plan.
    pub quality: Quality,
}

impl ForwardingEntry {
    /// Returns true if this RP originates the stream.
    pub fn is_origin(&self) -> bool {
        self.parent.is_none()
    }
}

/// The complete forwarding state of one RP.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SitePlan {
    /// The RP this plan belongs to.
    pub site: SiteId,
    /// Forwarding entries, sorted by stream.
    pub entries: Vec<ForwardingEntry>,
}

impl SitePlan {
    /// Returns the entry for `stream`, if this RP handles it.
    pub fn entry(&self, stream: StreamId) -> Option<&ForwardingEntry> {
        self.entries.iter().find(|e| e.stream == stream)
    }

    /// Returns the streams this RP receives from other sites.
    pub fn received_streams(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.entries
            .iter()
            .filter(|e| !e.is_origin())
            .map(|e| e.stream)
    }

    /// Returns the distinct sites this RP forwards to: the far ends of
    /// its data links under this plan.
    pub fn children(&self) -> BTreeSet<SiteId> {
        self.entries
            .iter()
            .flat_map(|e| e.children.iter().map(|c| c.site))
            .collect()
    }

    /// Returns the total number of outgoing stream copies (the RP's actual
    /// out-degree under this plan).
    pub fn out_degree(&self) -> usize {
        self.entries.iter().map(|e| e.children.len()).sum()
    }

    /// Returns the number of streams received from other sites (the RP's
    /// actual in-degree under this plan).
    pub fn in_degree(&self) -> usize {
        self.entries.iter().filter(|e| !e.is_origin()).count()
    }
}

/// A dissemination plan: everything the RPs need to move streams along the
/// constructed overlay — forwarding tables, link latencies, and stream
/// media profiles.
///
/// Produced from a constructed forest — one-shot by
/// [`Session::build_plan`](crate::Session::build_plan), every epoch by the
/// session runtime (`teeve-runtime`); consumed by the discrete-event simulator
/// (`teeve-sim`) and the live TCP cluster (`teeve-net`).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use teeve_overlay::{ConstructionAlgorithm, ProblemInstance, RandomJoin};
/// use teeve_pubsub::{DisseminationPlan, StreamProfile};
/// use teeve_types::{CostMatrix, CostMs, Degree, SiteId, StreamId};
///
/// let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(5));
/// let problem = ProblemInstance::builder(costs, CostMs::new(50))
///     .symmetric_capacities(Degree::new(4))
///     .streams_per_site(&[1, 1, 1])
///     .subscribe(SiteId::new(1), StreamId::new(SiteId::new(0), 0))
///     .build()?;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let outcome = RandomJoin::default().construct(&problem, &mut rng);
/// let plan = DisseminationPlan::from_forest(&problem, outcome.forest(), StreamProfile::default());
/// assert_eq!(plan.site_plans().len(), 3);
/// # Ok::<(), teeve_overlay::ProblemError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisseminationPlan {
    site_plans: Vec<SitePlan>,
    costs: teeve_types::CostMatrix,
    cost_bound: CostMs,
    profile: StreamProfile,
    /// Control-plane revision counter. Freshly derived plans start at 0;
    /// the session runtime bumps it every epoch, and
    /// [`PlanDelta::apply`](crate::PlanDelta::apply) advances it to the
    /// delta's target revision, so executors (the live TCP cluster) can
    /// refuse deltas produced against a different revision.
    revision: u64,
    /// The hosted session this plan belongs to, when the plan is produced
    /// by a multi-session service. Freshly derived plans are unscoped;
    /// revisions of one plan always share a scope, and deltas inherit it,
    /// so one executor process serving several sessions can route every
    /// delta to the right forwarding state.
    scope: Option<SessionId>,
}

impl DisseminationPlan {
    /// Derives the plan from a constructed forest: one forwarding entry per
    /// (tree, member) pair, with all streams sharing `profile`.
    pub fn from_forest(problem: &ProblemInstance, forest: &Forest, profile: StreamProfile) -> Self {
        Self::from_trees(problem, forest.trees(), profile)
    }

    /// [`from_forest`](Self::from_forest) over a borrowed tree slice, for
    /// callers holding live construction state (e.g. the session runtime
    /// deriving a plan every epoch) that should not clone the forest
    /// first.
    pub fn from_trees(
        problem: &ProblemInstance,
        trees: &[MulticastTree],
        profile: StreamProfile,
    ) -> Self {
        let n = problem.site_count();
        let mut per_site: Vec<BTreeMap<StreamId, ForwardingEntry>> =
            (0..n).map(|_| BTreeMap::new()).collect();
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
                // The origin only needs an entry when it actually has
                // members to serve; an undisseminated stream stays local
                // to the site's star network and out of the plan.
                if entry.is_origin() && entry.children.is_empty() {
                    continue;
                }
                per_site[site.index()].insert(tree.stream(), entry);
            }
        }
        let site_plans = per_site
            .into_iter()
            .enumerate()
            .map(|(i, entries)| SitePlan {
                site: SiteId::new(i as u32),
                entries: entries.into_values().collect(),
            })
            .collect();
        DisseminationPlan {
            site_plans,
            costs: problem.costs().clone(),
            cost_bound: problem.cost_bound(),
            profile,
            revision: 0,
            scope: None,
        }
    }

    /// Returns the plan's control-plane revision.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Sets the plan's control-plane revision. Used by the session runtime
    /// (which bumps the revision every epoch) and by delta application.
    pub fn set_revision(&mut self, revision: u64) {
        self.revision = revision;
    }

    /// Returns the hosted session this plan belongs to, if any.
    pub fn scope(&self) -> Option<SessionId> {
        self.scope
    }

    /// Tags the plan as belonging to one hosted session. The session
    /// runtime stamps every derived plan when it runs inside a
    /// multi-session service, and [`PlanDelta::diff`](crate::PlanDelta)
    /// carries the tag into every emitted delta.
    pub fn set_scope(&mut self, scope: Option<SessionId>) {
        self.scope = scope;
    }

    /// Returns the per-site plans, in site order.
    pub fn site_plans(&self) -> &[SitePlan] {
        &self.site_plans
    }

    /// Returns the plan of one site.
    ///
    /// # Panics
    ///
    /// Panics if `site` is outside the session.
    pub fn site_plan(&self, site: SiteId) -> &SitePlan {
        &self.site_plans[site.index()]
    }

    /// Returns the number of sites.
    pub fn site_count(&self) -> usize {
        self.site_plans.len()
    }

    /// Returns the link latency between two sites.
    pub fn link_cost(&self, a: SiteId, b: SiteId) -> CostMs {
        self.costs.cost(a, b)
    }

    /// Returns the interactivity bound the overlay was constructed under.
    pub fn cost_bound(&self) -> CostMs {
        self.cost_bound
    }

    /// Returns the media profile shared by all streams.
    pub fn profile(&self) -> StreamProfile {
        self.profile
    }

    /// Returns every directed overlay edge `(parent, child, stream)`.
    pub fn edges(&self) -> impl Iterator<Item = (SiteId, SiteId, StreamId)> + '_ {
        self.site_plans.iter().flat_map(|sp| {
            sp.entries
                .iter()
                .flat_map(move |e| e.children.iter().map(move |c| (sp.site, c.site, e.stream)))
        })
    }

    /// Returns the set of streams site `site` is planned to receive.
    pub fn deliveries_to(&self, site: SiteId) -> Vec<StreamId> {
        self.site_plan(site).received_streams().collect()
    }

    /// Inserts or replaces one forwarding entry at `site`, keeping the
    /// site's entries sorted by stream. Used by delta application
    /// ([`PlanDelta::apply`](crate::PlanDelta::apply)).
    ///
    /// # Panics
    ///
    /// Panics if `site` is outside the session.
    pub fn upsert_entry(&mut self, site: SiteId, entry: ForwardingEntry) {
        let entries = &mut self.site_plans[site.index()].entries;
        match entries.binary_search_by_key(&entry.stream, |e| e.stream) {
            Ok(i) => entries[i] = entry,
            Err(i) => entries.insert(i, entry),
        }
    }

    /// Sets the quality rung `site` receives `stream` at, returning true
    /// when the plan has such an entry. The session runtime stamps every
    /// derived plan with its adaptation decisions through this.
    ///
    /// The rung is recorded twice, and this keeps both in sync: on the
    /// receiver's entry (its delivery quality) and on the parent's
    /// [`ChildLink`] to it — the parent is the one sizing forwarded
    /// frames, so degradation must be visible where the bytes originate.
    ///
    /// # Panics
    ///
    /// Panics if `site` is outside the session.
    pub fn set_quality(&mut self, site: SiteId, stream: StreamId, quality: Quality) -> bool {
        let entries = &mut self.site_plans[site.index()].entries;
        let parent = match entries.binary_search_by_key(&stream, |e| e.stream) {
            Ok(i) => {
                entries[i].quality = quality;
                entries[i].parent
            }
            Err(_) => return false,
        };
        if let Some(parent) = parent {
            if let Some(up) = self.site_plans[parent.index()]
                .entries
                .iter_mut()
                .find(|e| e.stream == stream)
            {
                for child in &mut up.children {
                    if child.site == site {
                        child.quality = quality;
                    }
                }
            }
        }
        true
    }

    /// Returns the quality rung `site` receives `stream` at, if the plan
    /// routes it there.
    ///
    /// # Panics
    ///
    /// Panics if `site` is outside the session.
    pub fn quality_of(&self, site: SiteId, stream: StreamId) -> Option<Quality> {
        self.site_plan(site).entry(stream).map(|e| e.quality)
    }

    /// Removes `site`'s forwarding entry for `stream`, returning it if it
    /// existed. Used by delta application.
    ///
    /// # Panics
    ///
    /// Panics if `site` is outside the session.
    pub fn remove_entry(&mut self, site: SiteId, stream: StreamId) -> Option<ForwardingEntry> {
        let entries = &mut self.site_plans[site.index()].entries;
        match entries.binary_search_by_key(&stream, |e| e.stream) {
            Ok(i) => Some(entries.remove(i)),
            Err(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use teeve_overlay::{ConstructionAlgorithm, RandomJoin};
    use teeve_types::{CostMatrix, Degree};

    fn site(i: u32) -> SiteId {
        SiteId::new(i)
    }

    fn stream(origin: u32, q: u32) -> StreamId {
        StreamId::new(site(origin), q)
    }

    fn plan_for_four_sites() -> (ProblemInstance, DisseminationPlan) {
        // The paper's Figure 5: four sites; everyone subscribes to stream
        // "B"; A, B, D subscribe to "A"; etc. Simplified to the A and B
        // streams.
        let costs = CostMatrix::from_fn(4, |_, _| CostMs::new(3));
        let problem = ProblemInstance::builder(costs, CostMs::new(50))
            .symmetric_capacities(Degree::new(4))
            .streams_per_site(&[1, 1, 1, 1])
            // Stream from B (site 1) requested by everyone else.
            .subscribe(site(0), stream(1, 0))
            .subscribe(site(2), stream(1, 0))
            .subscribe(site(3), stream(1, 0))
            // Stream from A (site 0) requested by B and D.
            .subscribe(site(1), stream(0, 0))
            .subscribe(site(3), stream(0, 0))
            .build()
            .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let outcome = RandomJoin.construct(&problem, &mut rng);
        assert_eq!(outcome.metrics().rejection_ratio(), 0.0);
        let plan =
            DisseminationPlan::from_forest(&problem, outcome.forest(), StreamProfile::default());
        (problem, plan)
    }

    #[test]
    fn every_accepted_subscription_is_planned() {
        let (problem, plan) = plan_for_four_sites();
        for r in problem.requests() {
            assert!(
                plan.deliveries_to(r.subscriber).contains(&r.stream),
                "{r} missing from the plan"
            );
        }
    }

    #[test]
    fn origins_have_no_parent() {
        let (_, plan) = plan_for_four_sites();
        let entry = plan.site_plan(site(1)).entry(stream(1, 0)).unwrap();
        assert!(entry.is_origin());
        assert!(!entry.children.is_empty(), "B's stream must fan out");
    }

    #[test]
    fn edges_are_consistent_between_parent_and_child() {
        let (_, plan) = plan_for_four_sites();
        for (parent, child, s) in plan.edges() {
            let child_entry = plan.site_plan(child).entry(s).expect("child has entry");
            assert_eq!(child_entry.parent, Some(parent));
        }
    }

    #[test]
    fn degrees_match_forest_accounting() {
        let (_, plan) = plan_for_four_sites();
        // 5 accepted requests = 5 edges total.
        let total_out: usize = plan.site_plans().iter().map(SitePlan::out_degree).sum();
        let total_in: usize = plan.site_plans().iter().map(SitePlan::in_degree).sum();
        assert_eq!(total_out, 5);
        assert_eq!(total_in, 5);
    }

    #[test]
    fn plan_serde_roundtrip() {
        let (_, plan) = plan_for_four_sites();
        let json = serde_json::to_string(&plan).unwrap();
        let back: DisseminationPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
