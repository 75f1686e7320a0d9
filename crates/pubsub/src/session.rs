//! Multi-site 3DTI sessions: the user-facing entry point gluing geometry
//! (FOV subscriptions), RP aggregation, and the membership server.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};
use teeve_geometry::{CyberSpace, FieldOfView, ScoredStream, ViewSelector};
use teeve_overlay::NodeCapacity;
use teeve_types::{CostMatrix, CostMs, Degree, DisplayId, SiteId, StreamId};

use crate::{DisseminationPlan, RendezvousPoint, StreamProfile};

/// A complete multi-site 3DTI session.
///
/// A session owns:
///
/// * the **cyber-space**: every site's participant and camera ring placed
///   in one shared virtual coordinate system;
/// * one **rendezvous point** per site, recording local display
///   subscriptions;
/// * the **view selector** converting display FOVs into concrete stream
///   subscriptions (the subscription framework of Section 3.2);
/// * the **membership server** parameters (capacities, latency bound) used
///   to construct the overlay — see [`problem`](Self::problem) and
///   [`build_plan`](Self::build_plan).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use teeve_overlay::RandomJoin;
/// use teeve_pubsub::Session;
/// use teeve_types::{CostMatrix, CostMs, Degree, DisplayId, SiteId};
///
/// let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(8));
/// let mut session = Session::builder(costs)
///     .cameras_per_site(8)
///     .displays_per_site(2)
///     .symmetric_capacity(Degree::new(12))
///     .build();
///
/// // The display at site 0 watches site 1's participant.
/// let display = DisplayId::new(SiteId::new(0), 0);
/// let selected = session.subscribe_viewpoint(display, SiteId::new(1));
/// assert!(!selected.is_empty());
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let (outcome, plan) = session.build_plan(&RandomJoin::default(), &mut rng)?;
/// assert_eq!(outcome.metrics().rejection_ratio(), 0.0);
/// assert!(!plan.deliveries_to(SiteId::new(0)).is_empty());
/// # Ok::<(), teeve_overlay::ProblemError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Session {
    space: CyberSpace,
    rps: Vec<RendezvousPoint>,
    selector: ViewSelector,
    costs: CostMatrix,
    cost_bound: CostMs,
    capacities: Vec<NodeCapacity>,
    profile: StreamProfile,
}

impl Session {
    /// Starts building a session over the sites covered by `costs`.
    pub fn builder(costs: CostMatrix) -> SessionBuilder {
        SessionBuilder {
            costs,
            cameras_per_site: 8,
            displays_per_site: 2,
            capacities: None,
            cost_bound: CostMs::new(60),
            selector: ViewSelector::top_k(4),
            profile: StreamProfile::default(),
        }
    }

    /// Returns the number of sites.
    pub fn site_count(&self) -> usize {
        self.rps.len()
    }

    /// Returns the shared cyber-space.
    pub fn space(&self) -> &CyberSpace {
        &self.space
    }

    /// Returns the pairwise latency matrix.
    pub fn costs(&self) -> &CostMatrix {
        &self.costs
    }

    /// Returns the interactivity bound `B_cost`.
    pub fn cost_bound(&self) -> CostMs {
        self.cost_bound
    }

    /// Returns the per-site bandwidth capacities, in site order.
    pub fn capacities(&self) -> &[NodeCapacity] {
        &self.capacities
    }

    /// Returns the media profile shared by all streams.
    pub fn profile(&self) -> StreamProfile {
        self.profile
    }

    /// Returns the RP of `site`.
    ///
    /// # Panics
    ///
    /// Panics if `site` is outside the session.
    pub fn rp(&self, site: SiteId) -> &RendezvousPoint {
        &self.rps[site.index()]
    }

    /// Subscribes `display` with an explicit field of view: the view
    /// selector scores every stream in the cyber-space and the top
    /// contributors become the display's subscription. Returns the
    /// selected streams with their scores.
    ///
    /// # Panics
    ///
    /// Panics if the display's site or index is out of range.
    pub fn subscribe_fov(&mut self, display: DisplayId, fov: &FieldOfView) -> Vec<ScoredStream> {
        let selected = self.selector.select(&self.space, fov);
        let streams = selected.iter().map(|s| s.stream).collect();
        self.rps[display.site().index()].set_subscription(display, streams);
        selected
    }

    /// Convenience: subscribes `display` with a viewpoint looking at the
    /// participant of `target` from the subscriber participant's position.
    ///
    /// # Panics
    ///
    /// Panics if either site is outside the session or the display index
    /// is out of range.
    pub fn subscribe_viewpoint(&mut self, display: DisplayId, target: SiteId) -> Vec<ScoredStream> {
        let eye = self.space.participant_position(display.site())
            + teeve_geometry::Vec3::new(0.0, 0.0, 1.6);
        let target_pos = self.space.participant_position(target);
        let fov = FieldOfView::looking_at(eye, target_pos, 60.0);
        self.subscribe_fov(display, &fov)
    }

    /// Subscribes `display` to an explicit stream list (bypassing the view
    /// selector — e.g. for surveillance-style workloads).
    ///
    /// # Panics
    ///
    /// Panics if the display's site or index is out of range.
    pub fn subscribe_streams(&mut self, display: DisplayId, streams: Vec<StreamId>) {
        self.rps[display.site().index()].set_subscription(display, streams);
    }

    /// Returns the streams `display` will actually render under `plan`:
    /// its subscription, intersected with what the overlay delivers to the
    /// site, plus any locally originated streams it subscribed to.
    pub fn display_deliveries(
        &self,
        display: DisplayId,
        plan: &DisseminationPlan,
    ) -> Vec<StreamId> {
        let site = display.site();
        let delivered: BTreeSet<StreamId> = plan.deliveries_to(site).into_iter().collect();
        self.rps[site.index()]
            .subscription(display)
            .unwrap_or(&[])
            .iter()
            .copied()
            .filter(|s| s.origin() == site || delivered.contains(s))
            .collect()
    }
}

/// Incremental builder for [`Session`]; see [`Session::builder`].
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    costs: CostMatrix,
    cameras_per_site: u32,
    displays_per_site: u32,
    capacities: Option<Vec<NodeCapacity>>,
    cost_bound: CostMs,
    selector: ViewSelector,
    profile: StreamProfile,
}

impl SessionBuilder {
    /// Sets the number of 3D cameras (streams) per site. Default 8, the
    /// ring of the paper's Figure 4.
    #[must_use]
    pub fn cameras_per_site(mut self, cameras: u32) -> Self {
        self.cameras_per_site = cameras;
        self
    }

    /// Sets the number of 3D displays per site. Default 2.
    #[must_use]
    pub fn displays_per_site(mut self, displays: u32) -> Self {
        self.displays_per_site = displays;
        self
    }

    /// Gives every site the same symmetric bandwidth capacity.
    #[must_use]
    pub fn symmetric_capacity(mut self, limit: Degree) -> Self {
        self.capacities = Some(vec![NodeCapacity::symmetric(limit); self.costs.len()]);
        self
    }

    /// Sets per-site capacities explicitly.
    #[must_use]
    pub fn capacities(mut self, capacities: Vec<NodeCapacity>) -> Self {
        self.capacities = Some(capacities);
        self
    }

    /// Sets the interactivity bound `B_cost`. Default 60 ms.
    #[must_use]
    pub fn cost_bound(mut self, bound: CostMs) -> Self {
        self.cost_bound = bound;
        self
    }

    /// Sets the FOV-to-streams selector. Default: top-4 contributors, the
    /// paper's Figure 4 example.
    #[must_use]
    pub fn view_selector(mut self, selector: ViewSelector) -> Self {
        self.selector = selector;
        self
    }

    /// Sets the media profile shared by all streams.
    #[must_use]
    pub fn stream_profile(mut self, profile: StreamProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Assembles the session.
    ///
    /// # Panics
    ///
    /// Panics if the cost matrix is empty, a capacity table has the wrong
    /// length, or there are zero cameras or displays per site.
    pub fn build(self) -> Session {
        let n = self.costs.len();
        assert!(n > 0, "a session needs at least one site");
        assert!(self.cameras_per_site > 0, "sites need at least one camera");
        let capacities = self
            .capacities
            .unwrap_or_else(|| vec![NodeCapacity::symmetric(Degree::new(20)); n]);
        assert_eq!(capacities.len(), n, "capacities must cover every site");
        let space = CyberSpace::meeting_circle(n, self.cameras_per_site);
        let rps = SiteId::all(n)
            .map(|site| RendezvousPoint::new(site, self.cameras_per_site, self.displays_per_site))
            .collect();
        Session {
            space,
            rps,
            selector: self.selector,
            costs: self.costs,
            cost_bound: self.cost_bound,
            capacities,
            profile: self.profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use teeve_overlay::RandomJoin;

    fn session(n: usize) -> Session {
        let costs = CostMatrix::from_fn(n, |i, j| CostMs::new(4 + ((i + j) % 3) as u32));
        Session::builder(costs)
            .cameras_per_site(8)
            .displays_per_site(2)
            .symmetric_capacity(Degree::new(15))
            .build()
    }

    #[test]
    fn fov_subscription_reaches_the_rp() {
        let mut s = session(3);
        let display = DisplayId::new(SiteId::new(0), 0);
        let selected = s.subscribe_viewpoint(display, SiteId::new(2));
        assert!(!selected.is_empty());
        let recorded = s.rp(SiteId::new(0)).subscription(display).unwrap();
        assert_eq!(recorded.len(), selected.len());
        assert!(recorded.iter().all(|st| st.origin() == SiteId::new(2)));
    }

    #[test]
    fn end_to_end_plan_delivers_subscribed_streams() {
        let mut s = session(4);
        for site in SiteId::all(4) {
            let target = SiteId::new((site.index() as u32 + 1) % 4);
            s.subscribe_viewpoint(DisplayId::new(site, 0), target);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let (outcome, plan) = s.build_plan(&RandomJoin, &mut rng).unwrap();
        assert_eq!(outcome.metrics().rejection_ratio(), 0.0);
        for site in SiteId::all(4) {
            let display = DisplayId::new(site, 0);
            let deliveries = s.display_deliveries(display, &plan);
            let subscription = s.rp(site).subscription(display).unwrap();
            assert_eq!(deliveries.len(), subscription.len());
        }
    }

    #[test]
    fn local_streams_are_delivered_without_the_overlay() {
        let mut s = session(3);
        let display = DisplayId::new(SiteId::new(1), 0);
        // Subscribe to a local stream and a remote one.
        s.subscribe_streams(
            display,
            vec![
                StreamId::new(SiteId::new(1), 0),
                StreamId::new(SiteId::new(0), 3),
            ],
        );
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let (_, plan) = s.build_plan(&RandomJoin, &mut rng).unwrap();
        let deliveries = s.display_deliveries(display, &plan);
        assert!(deliveries.contains(&StreamId::new(SiteId::new(1), 0)));
        assert!(deliveries.contains(&StreamId::new(SiteId::new(0), 3)));
        // The local stream never transits the overlay.
        assert!(!plan
            .deliveries_to(SiteId::new(1))
            .contains(&StreamId::new(SiteId::new(1), 0)));
    }

    #[test]
    fn rejected_streams_are_not_promised_to_displays() {
        // Capacity 1: only one remote stream can reach site 0.
        let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(4));
        let mut s = Session::builder(costs)
            .cameras_per_site(4)
            .displays_per_site(1)
            .symmetric_capacity(Degree::new(1))
            .build();
        let display = DisplayId::new(SiteId::new(0), 0);
        s.subscribe_streams(
            display,
            vec![
                StreamId::new(SiteId::new(1), 0),
                StreamId::new(SiteId::new(1), 1),
                StreamId::new(SiteId::new(2), 0),
            ],
        );
        for other in [SiteId::new(1), SiteId::new(2)] {
            s.subscribe_streams(DisplayId::new(other, 0), vec![]);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (outcome, plan) = s.build_plan(&RandomJoin, &mut rng).unwrap();
        assert!(outcome.metrics().rejected_requests > 0);
        let deliveries = s.display_deliveries(display, &plan);
        assert!(deliveries.len() < 3, "some subscriptions must be dropped");
    }

    #[test]
    fn membership_server_reflects_rp_aggregation() {
        let mut s = session(3);
        s.subscribe_streams(
            DisplayId::new(SiteId::new(0), 0),
            vec![StreamId::new(SiteId::new(1), 2)],
        );
        s.subscribe_streams(
            DisplayId::new(SiteId::new(0), 1),
            vec![
                StreamId::new(SiteId::new(1), 2),
                StreamId::new(SiteId::new(2), 0),
            ],
        );
        for other in [SiteId::new(1), SiteId::new(2)] {
            s.subscribe_streams(DisplayId::new(other, 0), vec![]);
        }
        let problem = s.problem().unwrap();
        // Duplicates collapse at the RP: site 0 requests 2 distinct streams.
        assert_eq!(problem.total_requests(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one camera")]
    fn builder_rejects_zero_cameras() {
        let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(4));
        let _ = Session::builder(costs).cameras_per_site(0).build();
    }
}
