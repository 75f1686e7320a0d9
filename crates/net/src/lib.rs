//! Live TCP rendezvous-point substrate for TEEVE dissemination plans.
//!
//! The paper's deployment vision — RPs at every site forwarding 3D video
//! streams along the constructed overlay, reconfigured by the membership
//! server as displays change FOV and sites churn — realized as real
//! sockets: each RP decodes every inbound overlay link and forwards
//! frames to its planned children over a length-prefixed binary protocol
//! ([`wire`]).
//!
//! The substrate is **process-separable**: a node bound on a [`Reactor`]
//! is one site's autonomous RP runtime — it owns its listener, forwarding
//! table, link set, and delivery counters, and is addressed only by
//! socket — while a [`Coordinator`] holds nothing but control connections
//! and site addresses. Every coordinator action is a [`wire`] message (table
//! installs via `Reconfigure`/`Ack`, which are the link orders too: each
//! RP dials and closes its own data links to follow the table it runs,
//! at the child addresses of the book the coordinator's `Attach` sends, and
//! reports a child it cannot reach as `LinkFailed`; frame injection via
//! one `Publish` per origin RP naming
//! its streams, delivery accounting via `StatsRequest` answered by the
//! fixed-size `Delivered`
//! — pushed by the RP once it has delivered the total the request names,
//! and carrying its count of shed writes — or by the full per-stream
//! `StatsReport` the shutdown harvest asks for), so the same coordinator
//! drives RPs hosted in its own process, in separate OS processes, or on
//! other hosts.
//!
//! [`LiveCluster`] is the in-process convenience wrapper (N nodes + one
//! coordinator) that keeps the RPs up across plan revisions:
//! each [`PlanDelta`](teeve_pubsub::PlanDelta) is pushed at the running
//! cluster over the control plane, opening only the connections
//! [`link_changes_between`](teeve_pubsub::link_changes_between) reports
//! as established and closing only the ones whose last stream left —
//! socket-free reroutes touch nothing. A
//! one-shot run is `launch` → `publish` → `shutdown`, which reports
//! per-site delivery counts and latencies.
//!
//! There is one way onto a plan. [`Coordinator::connect`] attaches to
//! every RP, reads each one's revision and dictates the plan to all of
//! them, whether the fleet is bare or was left running by a coordinator
//! that died; a `publish` or `apply_delta` that follows a failed barrier
//! or batch runs the same step first, so the fleet heals forward onto the
//! latest validated plan instead of refusing further work.
//!
//! # Hosting: the reactor
//!
//! There is one RP implementation, and a [`Reactor`] hosts it: a fixed
//! pool of non-blocking event loops. Each loop owns its nodes' complete
//! state (no locks), decodes incrementally from per-connection read
//! buffers filled through one read scratch per loop, coalesces writes
//! per wakeup into pending buffers that shed past a cap (a reader that
//! stops reading loses frames, never stalls the node; a batch that
//! counts on the shed frames fails as [`ClusterError::Shed`]), and paces
//! `Publish` batches with timers — thousands of RPs at a thread budget
//! that does not grow with fleet size.
//!
//! [`Reactor::bind_node`] / [`Reactor::bind_node_at`] put one RP on a
//! reactor (the standalone `rp_node` process is exactly that plus
//! [`RpNodeHandle::join`]); [`LiveCluster::launch_reactor`] hosts a whole
//! fleet on a reactor the caller shares between sessions, and
//! [`LiveCluster::launch`] is the same with a one-thread reactor the
//! cluster owns.
//!
//! # Examples
//!
//! ```no_run
//! use rand::SeedableRng;
//! use teeve_net::{ClusterConfig, LiveCluster};
//! use teeve_overlay::{ConstructionAlgorithm, ProblemInstance, RandomJoin};
//! use teeve_pubsub::{DisseminationPlan, StreamProfile};
//! use teeve_types::{CostMatrix, CostMs, Degree, SiteId, StreamId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let costs = CostMatrix::from_fn(3, |_, _| CostMs::new(4));
//! let problem = ProblemInstance::builder(costs, CostMs::new(50))
//!     .symmetric_capacities(Degree::new(4))
//!     .streams_per_site(&[1, 1, 1])
//!     .subscribe(SiteId::new(1), StreamId::new(SiteId::new(0), 0))
//!     .build()?;
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let outcome = RandomJoin::default().construct(&problem, &mut rng);
//! let plan = DisseminationPlan::from_forest(&problem, outcome.forest(), StreamProfile::default());
//!
//! let config = ClusterConfig::default();
//! let mut cluster = LiveCluster::launch(&plan, &config)?;
//! cluster.publish(config.frames_per_stream)?;
//! let report = cluster.shutdown();
//! println!("delivered {} frames", report.total_delivered());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod coordinator;
mod node;
mod reactor;
pub mod wire;

pub use cluster::LiveCluster;
pub use coordinator::{ClusterConfig, ClusterError, ClusterReport, Coordinator, ReconfigureReport};
pub use reactor::{Reactor, RpNodeHandle};
