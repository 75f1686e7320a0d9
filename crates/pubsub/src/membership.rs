//! The centralized membership server (paper Section 3.2).
//!
//! "The subscription requests from all displays are collected by the local
//! RP, and further aggregated to a centralized membership server. Based on
//! the global subscription workload, the server dictates all RPs to
//! organize into an application-level overlay network for data
//! dissemination." The centralized design is deliberate: 3DTI sessions are
//! small to medium sized.
//!
//! There is one server per session, and this module is its one-shot form:
//! what it computes from a [`Session`]'s current state. Its live form —
//! the same aggregation kept repaired epoch by epoch over the
//! [`subscription_universe`] — is `teeve-runtime`'s `SessionRuntime`.

use rand::RngCore;
use teeve_overlay::{
    ConstructionAlgorithm, ConstructionOutcome, ProblemBuilder, ProblemError, ProblemInstance,
};
use teeve_types::{SiteId, StreamId};

use crate::{DisseminationPlan, Session};

/// A problem builder over the session's sites, capacities and published
/// streams, with no subscriptions yet.
fn problem_builder(session: &Session) -> ProblemBuilder {
    let streams: Vec<u32> = SiteId::all(session.site_count())
        .map(|site| session.rp(site).camera_count())
        .collect();
    ProblemInstance::builder(session.costs().clone(), session.cost_bound())
        .capacities(session.capacities().to_vec())
        .streams_per_site(&streams)
}

impl Session {
    /// Aggregates every RP's current request set into the global
    /// subscription workload the membership server constructs over.
    ///
    /// # Errors
    ///
    /// Returns an error if the aggregated workload is invalid: fewer than
    /// three sites, or a display explicitly subscribed (via
    /// [`subscribe_streams`](Self::subscribe_streams)) to a stream no
    /// site of the session publishes.
    pub fn problem(&self) -> Result<ProblemInstance, ProblemError> {
        let mut builder = problem_builder(self);
        for site in SiteId::all(self.site_count()) {
            for stream in self.rp(site).aggregated_requests() {
                builder = builder.subscribe(site, stream);
            }
        }
        builder.build()
    }

    /// Runs `algorithm` on the aggregated workload and derives the
    /// dissemination plan the server dictates to all RPs.
    ///
    /// # Errors
    ///
    /// Returns an error if the aggregated workload is invalid; see
    /// [`problem`](Self::problem).
    pub fn build_plan(
        &self,
        algorithm: &dyn ConstructionAlgorithm,
        rng: &mut dyn RngCore,
    ) -> Result<(ConstructionOutcome, DisseminationPlan), ProblemError> {
        let problem = self.problem()?;
        let outcome = algorithm.construct(&problem, rng);
        let plan = DisseminationPlan::from_forest(&problem, outcome.forest(), self.profile());
        Ok((outcome, plan))
    }
}

/// Builds the session's **subscription universe**: a problem instance in
/// which every site is a declared subscriber of every foreign stream, so
/// an incremental [`OverlayManager`](teeve_overlay::OverlayManager) can
/// admit any FOV a live session may ever select. This is the instance the
/// session runtime (`teeve-runtime`) operates over.
///
/// # Errors
///
/// Returns an error if the session cannot form a valid problem instance
/// (fewer than three sites).
pub fn subscription_universe(session: &Session) -> Result<ProblemInstance, ProblemError> {
    let n = session.site_count();
    let mut builder = problem_builder(session);
    for sub in SiteId::all(n) {
        for origin in SiteId::all(n).filter(|&origin| origin != sub) {
            for q in 0..session.rp(origin).camera_count() {
                builder = builder.subscribe(sub, StreamId::new(origin, q));
            }
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use teeve_overlay::RandomJoin;
    use teeve_types::{CostMatrix, CostMs, Degree, DisplayId};

    /// Three sites publishing two streams each, one display per site.
    fn session() -> Session {
        Session::builder(CostMatrix::from_fn(3, |_, _| CostMs::new(4)))
            .cameras_per_site(2)
            .displays_per_site(1)
            .cost_bound(CostMs::new(40))
            .symmetric_capacity(Degree::new(5))
            .build()
    }

    fn stream(origin: u32, q: u32) -> StreamId {
        StreamId::new(SiteId::new(origin), q)
    }

    fn submit(s: &mut Session, site: u32, streams: &[StreamId]) {
        s.subscribe_streams(DisplayId::new(SiteId::new(site), 0), streams.to_vec());
    }

    #[test]
    fn builds_plan_from_submissions() {
        let mut s = session();
        submit(&mut s, 0, &[stream(1, 0)]);
        submit(&mut s, 1, &[stream(0, 0), stream(2, 1)]);
        submit(&mut s, 2, &[stream(0, 0)]);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (outcome, plan) = s.build_plan(&RandomJoin, &mut rng).unwrap();
        assert_eq!(outcome.metrics().rejection_ratio(), 0.0);
        assert_eq!(plan.deliveries_to(SiteId::new(0)), vec![stream(1, 0)]);
        assert_eq!(
            plan.deliveries_to(SiteId::new(1)),
            vec![stream(0, 0), stream(2, 1)]
        );
    }

    #[test]
    fn resubmission_replaces_requests() {
        let mut s = session();
        submit(&mut s, 0, &[stream(1, 0)]);
        submit(&mut s, 0, &[stream(1, 1)]);
        let problem = s.problem().unwrap();
        let all: Vec<_> = problem.requests().collect();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].stream, stream(1, 1));
    }

    #[test]
    fn rejects_unknown_sites() {
        let mut s = session();
        submit(&mut s, 0, &[stream(9, 0)]);
        assert!(matches!(
            s.problem().unwrap_err(),
            ProblemError::UnknownSite { sites: 3, .. }
        ));
    }

    #[test]
    fn invalid_aggregate_workload_is_reported() {
        let mut s = session();
        // Sites publish two streams; index 2 does not exist.
        submit(&mut s, 0, &[stream(1, 2)]);
        assert!(matches!(
            s.problem().unwrap_err(),
            ProblemError::UnknownStream { available: 2, .. }
        ));
    }

    #[test]
    fn two_site_universe_is_rejected() {
        let costs = CostMatrix::from_fn(2, |_, _| CostMs::new(4));
        let s = Session::builder(costs)
            .cameras_per_site(2)
            .displays_per_site(1)
            .symmetric_capacity(Degree::new(4))
            .build();
        assert_eq!(
            subscription_universe(&s).unwrap_err(),
            ProblemError::TooFewSites { sites: 2 }
        );
        assert_eq!(s.problem(), subscription_universe(&s));
    }
}
