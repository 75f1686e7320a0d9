//! # TEEVE — Multi-Site Collaboration in 3D Tele-Immersive Environments
//!
//! A Rust reproduction of **Wu, Yang, Gupta, Nahrstedt, "Towards Multi-Site
//! Collaboration in 3D Tele-Immersive Environments" (ICDCS 2008)**.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`types`] — shared identifiers and units;
//! * [`topology`] — Internet backbone substrate (Mapnet substitute);
//! * [`geometry`] — cyber-space, cameras, FOV subscriptions (ViewCast
//!   substitute);
//! * [`workload`] — Zipf/random subscription workload generation;
//! * [`overlay`] — the paper's core contribution: multicast-forest
//!   construction heuristics (LTF, STF, MCTF, RJ, Gran-LTF, CO-RJ);
//! * [`pubsub`] — publishers, subscribers, rendezvous points, the
//!   one-shot membership server (`Session::build_plan`), dissemination
//!   plans and plan deltas;
//! * [`runtime`] — the live membership server, one per session: an
//!   epoch-driven orchestrator that consumes live
//!   FOV / membership / bandwidth events, repairs the overlay
//!   incrementally (with full-reconstruction fall-back), and emits
//!   [`PlanDelta`](teeve_pubsub::PlanDelta)s executors apply without
//!   tearing down unaffected links;
//! * [`service`] — the multi-session membership service: one registry
//!   of owned session runtimes with a full lifecycle API (create /
//!   submit / drive / close) and a parallel, per-session work-stealing
//!   bulk driver;
//! * [`sim`] — discrete-event dissemination simulator, including
//!   delta-aware mid-run replanning;
//! * [`net`] — live TCP rendezvous points as process-separable nodes
//!   (`Reactor`-hosted RP fleets driven by a wire-only `Coordinator`,
//!   with the in-process `LiveCluster` wrapper) and link-level delta
//!   analysis;
//! * [`media`] — synthetic 3D capture and the reduction pipeline
//!   (background subtraction, resolution reduction, compression);
//! * [`adapt`] — multi-stream bandwidth adaptation.
//!
//! # Quickstart
//!
//! ```
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//! use teeve::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Sample a 4-site session from the backbone topology.
//! let mut rng = ChaCha8Rng::seed_from_u64(2008);
//! let session = teeve::topology::backbone_north_america().sample_session(4, &mut rng)?;
//!
//! // 2. Generate a Zipf subscription workload at the paper's scale.
//! let problem = WorkloadConfig::zipf_uniform().generate(&session.costs, &mut rng)?;
//!
//! // 3. Construct the dissemination forest with the randomized algorithm.
//! let outcome = RandomJoin::default().construct(&problem, &mut rng);
//! println!("rejection ratio: {:.3}", outcome.metrics().rejection_ratio());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use teeve_adapt as adapt;
pub use teeve_geometry as geometry;
pub use teeve_media as media;
pub use teeve_net as net;
pub use teeve_overlay as overlay;
pub use teeve_pubsub as pubsub;
pub use teeve_runtime as runtime;
pub use teeve_service as service;
pub use teeve_sim as sim;
pub use teeve_topology as topology;
pub use teeve_types as types;
pub use teeve_workload as workload;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use teeve_adapt::{AdaptStream, AdaptationController, AdaptiveReceiver, QualityLadder};
    pub use teeve_geometry::{CyberSpace, FieldOfView, ViewSelector};
    pub use teeve_media::{ReductionPipeline, SyntheticCapture};
    pub use teeve_overlay::{
        ConstructionAlgorithm, CorrelatedRandomJoin, GranLtf, LargestTreeFirst,
        MinimumCapacityTreeFirst, OptimalSolver, RandomJoin, SmallestTreeFirst, UnicastBaseline,
    };
    pub use teeve_pubsub::{
        subscription_universe, DisseminationPlan, PlanDelta, Session, StreamProfile,
    };
    pub use teeve_runtime::{RuntimeConfig, SessionRuntime};
    pub use teeve_service::{MembershipService, SessionSpec};
    pub use teeve_sim::{simulate, simulate_with_replans, SimConfig};
    pub use teeve_topology::{backbone, backbone_north_america, Topology};
    pub use teeve_types::{CostMatrix, CostMs, Degree, SessionId, SiteId, StreamId};
    pub use teeve_workload::{CapacityModel, PopularityModel, WorkloadConfig};
}
