//! Internet backbone topology substrate for the TEEVE reproduction.
//!
//! The ICDCS 2008 paper evaluates its overlay heuristics on the real
//! **Mapnet** Internet topology (CAIDA), randomly selecting 3–10 PoP nodes
//! per session and deriving edge costs from geographic distance. The Mapnet
//! dataset is no longer distributable, so this crate provides a faithful
//! substitute:
//!
//! * [`backbone`] — an embedded backbone of 48 real PoP cities (public
//!   latitude/longitude) connected with a realistic mesh of regional rings
//!   and long-haul/submarine chords;
//! * [`WaxmanConfig`] — a seeded Waxman random-graph generator for
//!   sensitivity experiments;
//! * [`Topology`] — a weighted undirected graph with all-pairs shortest
//!   paths, producing the [`CostMatrix`] consumed by `teeve-overlay`;
//! * [`GeoPoint`] and [`LatencyModel`] — great-circle distance and the
//!   distance → propagation-milliseconds conversion.
//!
//! # Examples
//!
//! ```
//! use rand::SeedableRng;
//! use teeve_topology::backbone;
//!
//! let topo = backbone();
//! assert!(topo.is_connected());
//!
//! // Sample a 5-site 3DTI session exactly like the paper's setup.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let session = topo.sample_session(5, &mut rng)?;
//! assert_eq!(session.costs.len(), 5);
//! # Ok::<(), teeve_topology::TopologyError>(())
//! ```
//!
//! [`CostMatrix`]: teeve_types::CostMatrix

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backbone;
mod generator;
mod geo;
mod graph;
mod latency;

pub use backbone::{
    backbone, backbone_north_america, backbone_north_america_with_model, backbone_with_model,
    BACKBONE_CITY_COUNT, NORTH_AMERICA_CITY_COUNT,
};
pub use generator::WaxmanConfig;
pub use geo::GeoPoint;
pub use graph::{SessionSample, Topology, TopologyError};
pub use latency::LatencyModel;
