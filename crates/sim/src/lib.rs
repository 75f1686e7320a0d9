//! Discrete-event dissemination simulator for TEEVE overlays.
//!
//! The overlay construction layer (`teeve-overlay`) promises that every
//! accepted subscription has a tree path within the latency bound. This
//! crate *executes* a [`DisseminationPlan`](teeve_pubsub::DisseminationPlan) to check what that promise
//! means for actual media: cameras capture frames at the profile's rate,
//! every planned overlay edge behaves as one reserved stream slot
//! (serialization + FIFO queueing), links add their propagation latency,
//! and relaying RPs add a forwarding overhead. One run of [`simulate`]
//! takes the initial plan, the plan deltas a session applies while frames
//! are in flight, and a [`FaultPlan`] of link loss and RP crashes, so a
//! relay crash healed by a replan is a single simulation. The resulting
//! [`SimReport`] gives per-(site, stream) delivery counts, end-to-end
//! latency statistics, and the display-side rendering budget implied by
//! the paper's ≈10 ms/stream measurement.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use teeve_overlay::{ConstructionAlgorithm, ProblemInstance, RandomJoin};
//! use teeve_pubsub::{DisseminationPlan, StreamProfile};
//! use teeve_sim::{simulate, FaultPlan, SimConfig};
//! use teeve_types::{CostMatrix, CostMs, Degree, SiteId, StreamId};
//!
//! let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(6));
//! let problem = ProblemInstance::builder(costs, CostMs::new(60))
//!     .symmetric_capacities(Degree::new(6))
//!     .streams_per_site(&[2, 2, 2])
//!     .subscribe(SiteId::new(1), StreamId::new(SiteId::new(0), 0))
//!     .subscribe(SiteId::new(2), StreamId::new(SiteId::new(0), 0))
//!     .build()?;
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
//! let outcome = RandomJoin::default().construct(&problem, &mut rng);
//! let plan = DisseminationPlan::from_forest(&problem, outcome.forest(), StreamProfile::default());
//!
//! let report = simulate(&plan, &[], &FaultPlan::none(), &SimConfig::short());
//! assert_eq!(report.delivery_ratio(), 1.0);
//! # Ok::<(), teeve_overlay::ProblemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod faults;
mod report;
mod time;

pub use config::SimConfig;
pub use engine::simulate;
pub use faults::{FaultImpact, FaultPlan};
pub use report::{SimReport, StreamStats};
pub use time::SimTime;
