//! Available-bandwidth estimation from throughput observations.

use serde::{Deserialize, Serialize};

/// Exponentially weighted moving-average bandwidth estimator.
///
/// Receivers feed it `(bytes, seconds)` throughput observations; the
/// estimate converges towards the observed rate with smoothing factor
/// `alpha` (higher = more reactive). This is the classic estimator used by
/// transport-level flow coordination in tele-immersion (the paper's
/// reference \[15\]) and the budget the runtime fits stream qualities
/// into.
///
/// # Examples
///
/// ```
/// use teeve_adapt::BandwidthEstimator;
///
/// let mut est = BandwidthEstimator::new(0.5);
/// est.observe_bytes(1_250_000, 1.0); // 10 Mbps for one second
/// est.observe_bytes(1_250_000, 1.0);
/// let mbps = est.estimate_bps() / 1e6;
/// assert!((mbps - 10.0).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandwidthEstimator {
    alpha: f64,
    estimate_bps: Option<f64>,
}

impl BandwidthEstimator {
    /// Creates an estimator with smoothing factor `alpha ∈ (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` or not finite.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1]"
        );
        BandwidthEstimator {
            alpha,
            estimate_bps: None,
        }
    }

    /// Returns the smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Feeds one observation: `bytes` transferred over `seconds`.
    /// Observations with a non-positive duration are ignored.
    pub fn observe_bytes(&mut self, bytes: u64, seconds: f64) {
        if seconds <= 0.0 || !seconds.is_finite() {
            return;
        }
        self.observe_bps(bytes as f64 * 8.0 / seconds);
    }

    /// Feeds one observation already expressed in bits per second.
    /// Negative or non-finite rates are ignored.
    pub fn observe_bps(&mut self, bps: f64) {
        if !bps.is_finite() || bps < 0.0 {
            return;
        }
        self.estimate_bps = Some(match self.estimate_bps {
            // The first observation seeds the filter directly; warming up
            // from zero would under-report for many rounds.
            None => bps,
            Some(prev) => prev + self.alpha * (bps - prev),
        });
    }

    /// Returns the current estimate in bits per second (0 before any
    /// observation).
    pub fn estimate_bps(&self) -> f64 {
        self.estimate_bps.unwrap_or(0.0)
    }

    /// Returns true if at least one observation was recorded.
    pub fn is_warm(&self) -> bool {
        self.estimate_bps.is_some()
    }

    /// Discards all history, returning the filter to its cold state.
    pub fn reset(&mut self) {
        self.estimate_bps = None;
    }
}

impl Default for BandwidthEstimator {
    /// `alpha = 0.25`: reacts within a few observations without chasing
    /// single-sample noise.
    fn default() -> Self {
        BandwidthEstimator::new(0.25)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_observation_seeds_the_estimate() {
        let mut est = BandwidthEstimator::new(0.1);
        est.observe_bps(5e6);
        assert_eq!(est.estimate_bps(), 5e6);
        assert!(est.is_warm());
    }

    #[test]
    fn cold_estimator_reports_zero() {
        let est = BandwidthEstimator::default();
        assert_eq!(est.estimate_bps(), 0.0);
        assert!(!est.is_warm());
    }

    #[test]
    fn estimate_converges_to_steady_rate() {
        let mut est = BandwidthEstimator::new(0.25);
        est.observe_bps(1e6);
        for _ in 0..50 {
            est.observe_bps(8e6);
        }
        assert!((est.estimate_bps() - 8e6).abs() < 1e3);
    }

    #[test]
    fn alpha_one_tracks_exactly() {
        let mut est = BandwidthEstimator::new(1.0);
        est.observe_bps(3e6);
        est.observe_bps(9e6);
        assert_eq!(est.estimate_bps(), 9e6);
    }

    #[test]
    fn smoothing_dampens_spikes() {
        let mut est = BandwidthEstimator::new(0.1);
        est.observe_bps(10e6);
        est.observe_bps(100e6); // one spike
        assert!(est.estimate_bps() < 20e6);
    }

    #[test]
    fn byte_observations_convert_to_bits() {
        let mut est = BandwidthEstimator::new(1.0);
        est.observe_bytes(1000, 2.0);
        assert_eq!(est.estimate_bps(), 4000.0);
    }

    #[test]
    fn bad_observations_are_ignored() {
        let mut est = BandwidthEstimator::new(0.5);
        est.observe_bytes(100, 0.0);
        est.observe_bytes(100, -1.0);
        est.observe_bps(f64::NAN);
        est.observe_bps(-5.0);
        assert!(!est.is_warm());
    }

    #[test]
    fn reset_clears_history() {
        let mut est = BandwidthEstimator::default();
        est.observe_bps(1e6);
        est.reset();
        assert!(!est.is_warm());
        assert_eq!(est.estimate_bps(), 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn zero_alpha_panics() {
        let _ = BandwidthEstimator::new(0.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn oversized_alpha_panics() {
        let _ = BandwidthEstimator::new(1.5);
    }
}
