//! Bandwidth estimation for 3D tele-immersive sessions.
//!
//! The paper's dissemination model decides *which* streams cross the
//! overlay; the session-layer adaptation of the paper's reference \[27\]
//! (Yang et al., NOSSDAV '06) decides *at what quality* each admitted
//! stream is served when the receiving site's measured bandwidth falls
//! short. The degradation half is `teeve-overlay`'s `fit_qualities`,
//! which the live runtime runs every epoch; this crate is the estimation
//! half that feeds it:
//!
//! * [`BandwidthEstimator`] — EWMA throughput estimation.
//!
//! # Examples
//!
//! ```
//! use teeve_adapt::BandwidthEstimator;
//!
//! // A receiver reports 20 Mbps, then one congested 4 Mbps sample: the
//! // budget it implies drops, but not all the way to the spike.
//! let mut est = BandwidthEstimator::new(0.3);
//! assert!(!est.is_warm());
//! est.observe_bps(20e6);
//! est.observe_bps(4e6);
//! let budget = est.estimate_bps();
//! assert!(budget < 20e6 && budget > 4e6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod estimator;

pub use estimator::BandwidthEstimator;
