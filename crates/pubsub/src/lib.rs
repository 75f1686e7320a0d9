//! The publish-subscribe session layer of the TEEVE reproduction (paper
//! Section 3).
//!
//! 3D cameras are **publishers**, 3D displays are **subscribers**, and each
//! site's **rendezvous point (RP)** decouples them: locally a star network,
//! across sites an overlay dictated by a centralized **membership server**.
//!
//! * [`RendezvousPoint`] — per-site aggregation of display subscriptions;
//! * [`Session`] — the user-facing entry point wiring cyber-space geometry
//!   (FOV subscriptions via `teeve-geometry`) to the RPs, and the
//!   membership server's one-shot form: [`Session::problem`] aggregates
//!   all RPs' request sets, [`Session::build_plan`] runs an overlay
//!   construction algorithm (`teeve-overlay`) over them and emits the plan.
//!   The *live* membership server — the same aggregation kept repaired
//!   epoch by epoch over the [`subscription_universe`] — is
//!   `teeve-runtime`'s `SessionRuntime`, hosted by `teeve-service`;
//! * [`DisseminationPlan`] / [`SitePlan`] / [`ForwardingEntry`] — the
//!   forwarding state each RP executes;
//! * [`PlanDelta`] — the entry-level change between two plan revisions,
//!   and [`link_changes_between`] — its link view, the RP-to-RP
//!   connections a replan opens, closes and keeps;
//! * [`StreamProfile`] — media parameters (bit rate, frame rate) shared by
//!   the dissemination simulator and the live network substrate.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use teeve_overlay::RandomJoin;
//! use teeve_pubsub::Session;
//! use teeve_types::{CostMatrix, CostMs, Degree, DisplayId, SiteId};
//!
//! // Three sites in a virtual meeting circle, eight cameras each.
//! let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(7));
//! let mut session = Session::builder(costs)
//!     .symmetric_capacity(Degree::new(10))
//!     .build();
//!
//! // Each site's first display watches the next site's participant.
//! for site in SiteId::all(3) {
//!     let target = SiteId::new((site.index() as u32 + 1) % 3);
//!     session.subscribe_viewpoint(DisplayId::new(site, 0), target);
//! }
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let (outcome, plan) = session.build_plan(&RandomJoin::default(), &mut rng)?;
//! assert_eq!(outcome.metrics().rejection_ratio(), 0.0);
//! assert_eq!(plan.site_count(), 3);
//! # Ok::<(), teeve_overlay::ProblemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delta;
mod membership;
mod plan;
mod profile;
mod replan;
mod rp;
mod session;

pub use delta::{DeltaError, DeltaRouter, DeltaSink, EntryChange, PlanDelta, RouteError};
pub use membership::subscription_universe;
pub use plan::{ChildLink, DisseminationPlan, ForwardingEntry, SitePlan};
pub use profile::StreamProfile;
pub use replan::{link_changes_between, LinkChanges};
pub use rp::RendezvousPoint;
pub use session::{Session, SessionBuilder};
