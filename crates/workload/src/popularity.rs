//! Stream popularity models: Zipf-distributed and flat/random
//! (paper Section 5.1, "Subscription Workloads").

use serde::{Deserialize, Serialize};

/// How likely each stream is to be subscribed, as a function of its global
/// popularity rank.
///
/// The paper evaluates two workload families:
///
/// * **Zipf-distributed** — stream popularity in multimedia systems follows
///   a Zipf-like law, and intuitively so in 3DTI: "the front cameras that
///   capture people's faces are likely to be subscribed by most sites".
/// * **Random** — all streams roughly equally popular, as in surveillance
///   or group collaboration.
///
/// All models expose the same knob: the *interest mass* `c`. Under Zipf
/// the stream of global rank `r` is subscribed by any given remote site
/// with probability `min(1, (c / r^α))`; the other models match its
/// **expected total demand**, so the workload families are directly
/// comparable (same expected demand, different concentration).
///
/// The calibration reproduces the paper's regime: a
/// *dense* session where "a participant typically wants to see a large
/// portion of other participants" — the popular streams are subscribed by
/// almost every site (big multicast groups), a long tail goes
/// unsubscribed (leaving the relay headroom behind Figure 10's ≈25%
/// relay share), and per-site demand exceeds inbound capacity more and
/// more as sites join (driving Figure 8's rejection growth).
///
/// # Examples
///
/// ```
/// use teeve_workload::PopularityModel;
///
/// let zipf = PopularityModel::zipf(3.0, 6.0);
/// let probs = zipf.rank_probabilities(100);
/// assert_eq!(probs.len(), 100);
/// assert!(probs[0] > probs[99], "rank 1 is most popular");
///
/// let flat = PopularityModel::flat_matched(3.0, 6.0);
/// let zipf_demand = zipf.expected_demand(100);
/// let flat_demand = flat.expected_demand(100);
/// assert!((zipf_demand - flat_demand).abs() < 1e-9, "matched expected demand");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PopularityModel {
    /// Zipf-like popularity: rank `r` gets probability `min(1, mass/r^alpha)`.
    Zipf {
        /// Skew exponent `α` (1.0 = classic Zipf).
        alpha: f64,
        /// Interest mass `c`; larger means more total demand.
        mass: f64,
    },
    /// Equal popularity for all streams, with the total expected demand of
    /// the Zipf model with the same parameters.
    FlatMatched {
        /// Skew exponent of the Zipf model being matched.
        alpha: f64,
        /// Interest mass of the Zipf model being matched.
        mass: f64,
    },
    /// The paper's "random" workload: a randomly *activated* subset of
    /// streams, all equally popular ("the streams have more or less
    /// similar popularity"); inactive streams are subscribed by nobody.
    ///
    /// Each stream is active with a probability chosen so that the
    /// expected total demand matches `Zipf { alpha, mass }`; every active
    /// stream is subscribed by each remote site independently with
    /// probability `subscribe_probability`. The two-stage sampling
    /// correlates subscriptions across sites (everyone watches the same
    /// active feeds), preserving the dense-group regime under a
    /// popularity-agnostic draw.
    ActiveUniform {
        /// Skew exponent of the Zipf model whose demand is matched.
        alpha: f64,
        /// Interest mass of the Zipf model whose demand is matched.
        mass: f64,
        /// Subscription probability of active streams.
        subscribe_probability: f64,
    },
}

impl PopularityModel {
    /// The paper-calibrated default interest mass: with
    /// [`Self::DEFAULT_ALPHA`], the
    /// `mass^(1/alpha) = 20` most popular streams are subscribed by
    /// (nearly) every site.
    pub const DEFAULT_MASS: f64 = 8000.0;
    /// Default Zipf skew exponent.
    ///
    /// Calibrated steep (3.0) so that, together with
    /// [`Self::DEFAULT_MASS`], a head of ≈20 globally popular streams is
    /// subscribed by every site while the tail stays unsubscribed —
    /// keeping each site's pending-stream count `m_i` well below its
    /// out-degree so relaying is possible (Figure 10), and per-site
    /// demand grows past inbound capacity as sites join (Figure 8).
    pub const DEFAULT_ALPHA: f64 = 3.0;

    /// Creates a Zipf popularity model.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative or `mass` is not positive.
    pub fn zipf(alpha: f64, mass: f64) -> Self {
        assert!(alpha >= 0.0, "alpha must be non-negative");
        assert!(mass > 0.0, "mass must be positive");
        PopularityModel::Zipf { alpha, mass }
    }

    /// Creates a flat model matching the expected demand of
    /// `PopularityModel::zipf(alpha, mass)`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative or `mass` is not positive.
    pub fn flat_matched(alpha: f64, mass: f64) -> Self {
        assert!(alpha >= 0.0, "alpha must be non-negative");
        assert!(mass > 0.0, "mass must be positive");
        PopularityModel::FlatMatched { alpha, mass }
    }

    /// The paper's Zipf workload with default calibration.
    pub fn paper_zipf() -> Self {
        PopularityModel::zipf(Self::DEFAULT_ALPHA, Self::DEFAULT_MASS)
    }

    /// Subscription probability of active streams under the default
    /// random workload.
    pub const DEFAULT_ACTIVE_P: f64 = 0.85;

    /// The paper's random workload with default calibration: an active
    /// subset of streams, uniformly popular, demand-matched to
    /// [`PopularityModel::paper_zipf`].
    pub fn paper_random() -> Self {
        PopularityModel::ActiveUniform {
            alpha: Self::DEFAULT_ALPHA,
            mass: Self::DEFAULT_MASS,
            subscribe_probability: Self::DEFAULT_ACTIVE_P,
        }
    }

    /// A flat workload matched to the default Zipf demand (every stream
    /// equally, mildly popular). Kept as a comparison point for the
    /// ablation benches; not one of the paper's two workload families.
    pub fn paper_flat() -> Self {
        PopularityModel::flat_matched(Self::DEFAULT_ALPHA, Self::DEFAULT_MASS)
    }

    /// Returns the per-stream subscription probabilities for `m` streams,
    /// sampling any stochastic structure (e.g. which streams are active)
    /// with `rng`. Index 0 is global rank 1. All values are in `[0, 1]`.
    pub fn stream_probabilities<R: rand::Rng + ?Sized>(&self, m: usize, rng: &mut R) -> Vec<f64> {
        match *self {
            PopularityModel::Zipf { .. } | PopularityModel::FlatMatched { .. } => {
                self.rank_probabilities(m)
            }
            PopularityModel::ActiveUniform {
                alpha,
                mass,
                subscribe_probability,
            } => {
                if m == 0 {
                    return Vec::new();
                }
                let target = zipf_mass(alpha, mass, m);
                let activation = (target / (subscribe_probability * m as f64)).min(1.0);
                (0..m)
                    .map(|_| {
                        if rng.gen_bool(activation) {
                            subscribe_probability
                        } else {
                            0.0
                        }
                    })
                    .collect()
            }
        }
    }

    /// Returns the deterministic per-rank probabilities of the
    /// rank-structured models.
    ///
    /// # Panics
    ///
    /// Panics for [`PopularityModel::ActiveUniform`], whose per-stream
    /// probabilities are stochastic — use
    /// [`PopularityModel::stream_probabilities`].
    pub fn rank_probabilities(&self, m: usize) -> Vec<f64> {
        match *self {
            PopularityModel::Zipf { alpha, mass } => (1..=m)
                .map(|r| (mass / (r as f64).powf(alpha)).min(1.0))
                .collect(),
            PopularityModel::FlatMatched { alpha, mass } => {
                if m == 0 {
                    return Vec::new();
                }
                let total = zipf_mass(alpha, mass, m);
                vec![(total / m as f64).min(1.0); m]
            }
            PopularityModel::ActiveUniform { .. } => {
                panic!("ActiveUniform probabilities are stochastic; use stream_probabilities")
            }
        }
    }

    /// Returns the expected number of subscriptions a single remote site
    /// makes when `m` streams are available.
    pub fn expected_demand(&self, m: usize) -> f64 {
        match *self {
            PopularityModel::Zipf { alpha, mass }
            | PopularityModel::FlatMatched { alpha, mass } => zipf_mass(alpha, mass, m),
            PopularityModel::ActiveUniform {
                alpha,
                mass,
                subscribe_probability,
            } => {
                if m == 0 {
                    return 0.0;
                }
                let target = zipf_mass(alpha, mass, m);
                let activation = (target / (subscribe_probability * m as f64)).min(1.0);
                activation * subscribe_probability * m as f64
            }
        }
    }
}

/// Expected total demand of `Zipf { alpha, mass }` over `m` streams.
fn zipf_mass(alpha: f64, mass: f64, m: usize) -> f64 {
    (1..=m)
        .map(|r| (mass / (r as f64).powf(alpha)).min(1.0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_monotone_decreasing() {
        let probs = PopularityModel::paper_zipf().rank_probabilities(50);
        for w in probs.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn probabilities_are_clamped_to_one() {
        let probs = PopularityModel::zipf(1.0, 100.0).rank_probabilities(10);
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
        assert_eq!(probs[0], 1.0, "head rank saturates at probability 1");
    }

    #[test]
    fn flat_model_is_uniform() {
        let probs = PopularityModel::paper_flat().rank_probabilities(40);
        assert!(probs.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-15));
    }

    #[test]
    fn active_uniform_streams_are_all_or_nothing() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let probs = PopularityModel::paper_random().stream_probabilities(200, &mut rng);
        assert_eq!(probs.len(), 200);
        let p = PopularityModel::DEFAULT_ACTIVE_P;
        assert!(probs.iter().all(|&x| x == 0.0 || (x - p).abs() < 1e-15));
        let active = probs.iter().filter(|&&x| x > 0.0).count();
        assert!(active > 0, "some streams must be active");
        assert!(active < 200, "not every stream should be active");
    }

    #[test]
    fn active_uniform_demand_matches_zipf_in_expectation() {
        use rand::SeedableRng;
        let model = PopularityModel::paper_random();
        let target = PopularityModel::paper_zipf().expected_demand(200);
        assert!((model.expected_demand(200) - target).abs() < 1e-9);
        // Empirical check over seeds.
        let mut total = 0.0;
        for seed in 0..50 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            total += model
                .stream_probabilities(200, &mut rng)
                .iter()
                .sum::<f64>();
        }
        let mean = total / 50.0;
        assert!(
            (mean - target).abs() < target * 0.2,
            "empirical mass {mean:.1} should approximate {target:.1}"
        );
    }

    #[test]
    #[should_panic(expected = "stochastic")]
    fn rank_probabilities_rejects_active_uniform() {
        let _ = PopularityModel::paper_random().rank_probabilities(10);
    }

    #[test]
    fn matched_models_share_expected_demand() {
        // (small m is excluded: the activation probability caps at 1.)
        for m in [50usize, 100, 200] {
            let zipf = PopularityModel::paper_zipf().expected_demand(m);
            for other in [
                PopularityModel::paper_flat(),
                PopularityModel::paper_random(),
            ] {
                let d = other.expected_demand(m);
                assert!(
                    (zipf - d).abs() < 1e-9,
                    "m={m}: zipf {zipf} vs {other:?} {d}"
                );
            }
        }
    }

    #[test]
    fn demand_grows_sublinearly_with_stream_count() {
        let model = PopularityModel::paper_zipf();
        let d40 = model.expected_demand(40);
        let d180 = model.expected_demand(180);
        assert!(d180 > d40, "more streams, more demand");
        assert!(
            d180 < 2.0 * d40,
            "demand grows logarithmically, not linearly: {d40} -> {d180}"
        );
    }

    #[test]
    fn paper_calibration_is_in_capacity_range() {
        // With the paper's uniform capacity (≈20-22.5 inbound streams), the
        // calibrated demand must move from "barely contended" at N=3 to
        // "clearly over capacity" at N=10 to reproduce Figure 8's range.
        // Per-site demand = expected demand over all M streams, scaled by
        // the remote fraction (N-1)/N.
        let model = PopularityModel::paper_zipf();
        let at_n3 = model.expected_demand(60) * 2.0 / 3.0;
        let at_n10 = model.expected_demand(200) * 0.9;
        assert!(
            (16.0..=23.0).contains(&at_n3),
            "N=3 demand {at_n3} should sit just below capacity"
        );
        assert!(
            (23.0..=32.0).contains(&at_n10),
            "N=10 demand {at_n10} should exceed capacity"
        );
    }

    #[test]
    fn empty_stream_set_is_handled() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
        assert!(PopularityModel::paper_zipf()
            .rank_probabilities(0)
            .is_empty());
        assert!(PopularityModel::paper_random()
            .stream_probabilities(0, &mut rng)
            .is_empty());
        assert_eq!(PopularityModel::paper_random().expected_demand(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "mass")]
    fn rejects_nonpositive_mass() {
        let _ = PopularityModel::zipf(1.0, 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let m = PopularityModel::paper_zipf();
        let json = serde_json::to_string(&m).unwrap();
        let back: PopularityModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
