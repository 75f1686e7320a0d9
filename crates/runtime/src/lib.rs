//! The epoch-driven session runtime: live operation of a 3D
//! tele-immersive session, closing the FoV → overlay → dissemination loop
//! the paper leaves to future work.
//!
//! Every layer of the reproduction exists below this crate — geometry FOV
//! selection (`teeve-geometry`), pubsub membership (`teeve-pubsub`),
//! incremental overlay maintenance (`teeve-overlay`), bandwidth
//! estimation (`teeve-adapt`) — but nothing drives them as *one running
//! system*. [`SessionRuntime`] does, and it is the paper's one
//! centralized membership server (§3.2) in its live form — the one-shot
//! form is `Session::build_plan`, and `teeve-service` hosts many of these
//! behind one registry:
//!
//! * it consumes [`RuntimeEvent`]s — display FOV changes, site
//!   join/leave, bandwidth samples;
//! * reconciles them in **epochs** against the live forest via
//!   incremental repair, falling back to full reconstruction when a
//!   [`FallbackPolicy`] threshold trips;
//! * emits [`PlanDelta`]s (per-site forwarding-entry diffs) that the
//!   discrete-event simulator (`teeve_sim::simulate`) and the live TCP
//!   cluster (via `teeve_pubsub::link_changes_between`) apply without
//!   tearing down unaffected links;
//! * fits each site's granted streams into its estimated bandwidth and
//!   stamps the resulting quality rungs onto the plan — the one quality
//!   answer per epoch (`DisseminationPlan::quality_of`);
//! * records per-epoch [`EpochReport`] metrics (reconvergence time,
//!   delta size vs full plan size, dropped subscriptions) and keeps their
//!   running [`RuntimeReport`] totals.
//!
//! [`TraceConfig`] generates seeded churn traces for tests and benches.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//! use teeve_pubsub::{subscription_universe, Session};
//! use teeve_runtime::{RuntimeConfig, SessionRuntime, TraceConfig};
//! use teeve_types::{CostMatrix, CostMs, Degree};
//!
//! let costs = CostMatrix::from_fn(5, |i, j| CostMs::new(4 + ((i + j) % 3) as u32));
//! let session = Session::builder(costs)
//!     .cameras_per_site(6)
//!     .displays_per_site(2)
//!     .symmetric_capacity(Degree::new(10))
//!     .build();
//! let universe = subscription_universe(&session)?;
//! let mut runtime = SessionRuntime::new(universe, session, RuntimeConfig::default())?;
//!
//! let mut rng = ChaCha8Rng::seed_from_u64(2008);
//! for epoch in TraceConfig::default().generate(5, 2, &mut rng) {
//!     let outcome = runtime.apply_epoch(&epoch);
//!     runtime.validate()?; // every epoch maintains the static invariants
//!     assert_eq!(outcome.report.epoch + 1, runtime.epoch());
//! }
//! assert_eq!(runtime.epoch(), 20);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod commit;
mod config;
mod event;
mod metrics;
mod runtime;
mod trace;

pub use commit::EpochCommit;
pub use config::{FallbackPolicy, RuntimeConfig};
pub use event::RuntimeEvent;
pub use metrics::{EpochReport, PhaseBreakdown, RuntimeReport};
pub use runtime::{EpochOutcome, RuntimeError, SessionRuntime};
pub use trace::TraceConfig;

// Re-exported so runtime callers can build the universe and implement
// delta executors without importing teeve-pubsub directly.
pub use teeve_pubsub::{subscription_universe, DeltaSink, PlanDelta};
