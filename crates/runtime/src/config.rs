//! Runtime configuration: epoch policies and fall-back thresholds.

use serde::{Deserialize, Serialize};

/// When incremental repair is abandoned for full reconstruction.
///
/// Incremental node joins are cheap but path-dependent: long churn
/// sequences can leave trees deeper (higher latency) and more fragmented
/// (more rejections) than a from-scratch construction of the same demand.
/// The runtime watches both symptoms per epoch and rebuilds when either
/// crosses its threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FallbackPolicy {
    /// Rebuild when the epoch's join rejection ratio exceeds this (joins
    /// rejected / joins attempted; ignored on epochs without joins).
    pub max_epoch_rejection_ratio: f64,
    /// Rebuild when any multicast tree grows deeper than this many hops.
    pub max_tree_depth: usize,
}

impl Default for FallbackPolicy {
    /// Rebuild past 25% epoch rejections or depth 6.
    fn default() -> Self {
        FallbackPolicy {
            max_epoch_rejection_ratio: 0.25,
            max_tree_depth: 6,
        }
    }
}

impl FallbackPolicy {
    /// A policy that never falls back (pure incremental repair).
    pub fn never() -> Self {
        FallbackPolicy {
            max_epoch_rejection_ratio: f64::INFINITY,
            max_tree_depth: usize::MAX,
        }
    }

    /// A policy that rebuilds on every epoch with overlay changes (pure
    /// full reconstruction — the baseline the bench compares against).
    pub fn always() -> Self {
        FallbackPolicy {
            max_epoch_rejection_ratio: -1.0,
            max_tree_depth: 0,
        }
    }

    /// Returns true when an epoch with the given symptoms must rebuild.
    pub fn must_rebuild(&self, epoch_rejection_ratio: Option<f64>, max_depth: usize) -> bool {
        epoch_rejection_ratio.is_some_and(|r| r > self.max_epoch_rejection_ratio)
            || max_depth > self.max_tree_depth
    }
}

/// Configuration of a [`SessionRuntime`](crate::SessionRuntime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// When to abandon incremental repair for full reconstruction.
    pub fallback: FallbackPolicy,
    /// Attempt CO-RJ victim swapping on saturated joins.
    pub correlation_aware: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_tolerates_mild_symptoms() {
        let p = FallbackPolicy::default();
        assert!(!p.must_rebuild(None, 3));
        assert!(!p.must_rebuild(Some(0.1), 3));
        assert!(p.must_rebuild(Some(0.5), 3));
        assert!(p.must_rebuild(None, 7));
    }

    #[test]
    fn never_and_always_are_extremes() {
        assert!(!FallbackPolicy::never().must_rebuild(Some(1.0), usize::MAX));
        assert!(FallbackPolicy::always().must_rebuild(Some(0.0), 1));
        assert!(FallbackPolicy::always().must_rebuild(None, 1));
    }
}
