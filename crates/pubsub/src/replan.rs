//! The link view of a replan: which RP-to-RP connections a plan delta
//! opens, closes and keeps.
//!
//! RP-to-RP TCP connections are *site*-level: one connection per directed
//! `(parent, child)` pair carries every stream routed over that pair. A
//! [`PlanDelta`](crate::PlanDelta) therefore only forces connection churn
//! when a pair's *last* stream leaves it (close) or its *first* stream
//! lands on it (connect); rerouting a stream between two pairs that both
//! keep other traffic touches no socket at all.
//! [`link_changes_between`] computes exactly that split, which is what a
//! live cluster applying a delta acts on.

use std::collections::BTreeSet;

use teeve_types::SiteId;

use crate::DisseminationPlan;

/// The site-level connection consequences of applying one plan delta.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkChanges {
    /// Directed pairs that must establish a new TCP connection.
    pub established: Vec<(SiteId, SiteId)>,
    /// Directed pairs whose connection can be closed.
    pub closed: Vec<(SiteId, SiteId)>,
    /// Directed pairs that keep their connection (they carry traffic both
    /// before and after), even if their stream set changed.
    pub retained: Vec<(SiteId, SiteId)>,
}

impl LinkChanges {
    /// Returns true when the delta needs no socket work at all.
    pub fn is_socket_free(&self) -> bool {
        self.established.is_empty() && self.closed.is_empty()
    }
}

/// The directed site pairs carrying at least one stream under `plan`.
fn link_pairs(plan: &DisseminationPlan) -> BTreeSet<(SiteId, SiteId)> {
    plan.edges()
        .map(|(parent, child, _)| (parent, child))
        .collect()
}

/// Computes which RP-to-RP connections the move from plan revision
/// `before` to `after` establishes, closes, and retains. A caller holding
/// a delta applies it to a copy of `before` first (the live cluster
/// computes the next plan once and reuses it as its new state).
pub fn link_changes_between(before: &DisseminationPlan, after: &DisseminationPlan) -> LinkChanges {
    let before = link_pairs(before);
    let after = link_pairs(after);
    LinkChanges {
        established: after.difference(&before).copied().collect(),
        closed: before.difference(&after).copied().collect(),
        retained: before.intersection(&after).copied().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamProfile;
    use teeve_overlay::{NodeCapacity, OverlayManager, ProblemInstance};
    use teeve_types::{CostMatrix, CostMs, Degree, StreamId};

    fn site(i: u32) -> SiteId {
        SiteId::new(i)
    }

    fn stream(origin: u32, q: u32) -> StreamId {
        StreamId::new(site(origin), q)
    }

    fn universe() -> ProblemInstance {
        let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(4));
        ProblemInstance::builder(costs, CostMs::new(50))
            .capacities(vec![NodeCapacity::symmetric(Degree::new(6)); 3])
            .streams_per_site(&[2, 0, 0])
            .subscribe(site(1), stream(0, 0))
            .subscribe(site(1), stream(0, 1))
            .subscribe(site(2), stream(0, 0))
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
    fn first_stream_on_a_pair_establishes_the_link() {
        let p = universe();
        let mut m = OverlayManager::new(p.clone());
        let before = plan_of(&p, &m);
        m.subscribe(site(1), stream(0, 0)).unwrap();
        let changes = link_changes_between(&before, &plan_of(&p, &m));
        assert_eq!(changes.established, vec![(site(0), site(1))]);
        assert!(changes.closed.is_empty());
        assert!(changes.retained.is_empty());
    }

    #[test]
    fn second_stream_on_a_pair_is_socket_free() {
        let p = universe();
        let mut m = OverlayManager::new(p.clone());
        m.subscribe(site(1), stream(0, 0)).unwrap();
        let before = plan_of(&p, &m);
        m.subscribe(site(1), stream(0, 1)).unwrap();
        let changes = link_changes_between(&before, &plan_of(&p, &m));
        assert!(changes.is_socket_free(), "pair 0->1 already carries s0.0");
        assert_eq!(changes.retained, vec![(site(0), site(1))]);
    }

    #[test]
    fn last_stream_leaving_a_pair_closes_the_link() {
        let p = universe();
        let mut m = OverlayManager::new(p.clone());
        m.subscribe(site(1), stream(0, 0)).unwrap();
        m.subscribe(site(2), stream(0, 0)).unwrap();
        let before = plan_of(&p, &m);
        m.unsubscribe(site(2), stream(0, 0)).unwrap();
        let changes = link_changes_between(&before, &plan_of(&p, &m));
        assert!(changes.established.is_empty());
        // Whichever pair carried site 2's copy closes; 0->1 survives.
        assert_eq!(changes.closed.len(), 1);
        assert!(changes.retained.contains(&(site(0), site(1))));
    }
}
