//! Figure-reproduction harness for the TEEVE ICDCS 2008 paper.
//!
//! Each `fig*_series` function regenerates the data series behind one
//! figure of the paper's evaluation (Section 5), using the same setup:
//! sessions of 3–10 (or 4–20) sites sampled from the backbone topology,
//! 200 workload samples per configuration, and the algorithms under test.
//!
//! The `src/bin/fig*.rs` binaries print these series as tables (or JSON
//! with `--json`); the Criterion benches under `benches/` measure the
//! construction *cost* claims and the `ablation_*` design choices.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use teeve_overlay::{
    granularity_sweep, ConstructionAlgorithm, CorrelatedRandomJoin, LargestTreeFirst,
    MinimumCapacityTreeFirst, RandomJoin, SmallestTreeFirst,
};
use teeve_topology::backbone_north_america;
use teeve_types::CostMatrix;
use teeve_workload::WorkloadConfig;

/// Default number of workload samples per configuration (the paper uses
/// 200).
pub const PAPER_SAMPLES: usize = 200;

/// Default RNG seed for reproducible figure regeneration.
pub const DEFAULT_SEED: u64 = 2008;

/// The four panels of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fig8Panel {
    /// (a) Zipf workload, heterogeneous nodes.
    ZipfHeterogeneous,
    /// (b) Zipf workload, uniform nodes.
    ZipfUniform,
    /// (c) Random workload, heterogeneous nodes.
    RandomHeterogeneous,
    /// (d) Random workload, uniform nodes.
    RandomUniform,
}

impl Fig8Panel {
    /// All four panels in paper order.
    pub const ALL: [Fig8Panel; 4] = [
        Fig8Panel::ZipfHeterogeneous,
        Fig8Panel::ZipfUniform,
        Fig8Panel::RandomHeterogeneous,
        Fig8Panel::RandomUniform,
    ];

    /// The paper's caption for this panel.
    pub fn caption(self) -> &'static str {
        match self {
            Fig8Panel::ZipfHeterogeneous => "(a) Zipf workload, heterogeneous nodes",
            Fig8Panel::ZipfUniform => "(b) Zipf workload, uniform nodes",
            Fig8Panel::RandomHeterogeneous => "(c) Random workload, heterogeneous nodes",
            Fig8Panel::RandomUniform => "(d) Random workload, uniform nodes",
        }
    }

    /// The workload configuration of this panel.
    pub fn config(self) -> WorkloadConfig {
        match self {
            Fig8Panel::ZipfHeterogeneous => WorkloadConfig::zipf_heterogeneous(),
            Fig8Panel::ZipfUniform => WorkloadConfig::zipf_uniform(),
            Fig8Panel::RandomHeterogeneous => WorkloadConfig::random_heterogeneous(),
            Fig8Panel::RandomUniform => WorkloadConfig::random_uniform(),
        }
    }

    /// Parses a panel letter (`a`–`d`).
    pub fn from_letter(letter: &str) -> Option<Self> {
        match letter {
            "a" => Some(Fig8Panel::ZipfHeterogeneous),
            "b" => Some(Fig8Panel::ZipfUniform),
            "c" => Some(Fig8Panel::RandomHeterogeneous),
            "d" => Some(Fig8Panel::RandomUniform),
            _ => None,
        }
    }
}

/// One row of a Figure 8 panel: mean rejection ratios at a session size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Row {
    /// Number of sites `N`.
    pub sites: usize,
    /// Mean rejection ratio of STF.
    pub stf: f64,
    /// Mean rejection ratio of LTF.
    pub ltf: f64,
    /// Mean rejection ratio of MCTF.
    pub mctf: f64,
    /// Mean rejection ratio of RJ.
    pub rj: f64,
}

/// Samples an `n`-site session cost matrix from the embedded backbone.
pub fn sample_costs(n: usize, rng: &mut ChaCha8Rng) -> CostMatrix {
    backbone_north_america()
        .sample_session(n, rng)
        .expect("the NA backbone supports sessions of up to 39 sites")
        .costs
}

/// Regenerates one Figure 8 panel: mean rejection ratio vs. number of
/// sites (3–10) for STF, LTF, MCTF, and RJ.
pub fn fig8_series(panel: Fig8Panel, samples: usize, seed: u64) -> Vec<Fig8Row> {
    let config = panel.config();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (3..=10)
        .map(|n| {
            let mut totals = [0.0f64; 4];
            for _ in 0..samples {
                let costs = sample_costs(n, &mut rng);
                let problem = config.generate(&costs, &mut rng).expect("n >= 3");
                let algos: [&dyn ConstructionAlgorithm; 4] = [
                    &SmallestTreeFirst,
                    &LargestTreeFirst,
                    &MinimumCapacityTreeFirst,
                    &RandomJoin,
                ];
                for (total, algo) in totals.iter_mut().zip(algos) {
                    *total += algo
                        .construct(&problem, &mut rng)
                        .metrics()
                        .rejection_ratio();
                }
            }
            let m = samples as f64;
            Fig8Row {
                sites: n,
                stf: totals[0] / m,
                ltf: totals[1] / m,
                mctf: totals[2] / m,
                rj: totals[3] / m,
            }
        })
        .collect()
}

/// One point of the Figure 9 granularity sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9Point {
    /// Granularity `g` (trees constructed at once).
    pub granularity: usize,
    /// Mean rejection ratio of Gran-LTF at that granularity.
    pub rejection_ratio: f64,
}

/// Regenerates Figure 9: impact of granularity on rejection ratio, at
/// `N = 10` with uniform nodes under random workload.
///
/// The sweep covers `granularities` (pass `None` to sweep a 20-point grid
/// from 1 to the forest size).
pub fn fig9_series(samples: usize, seed: u64, granularities: Option<&[usize]>) -> Vec<Fig9Point> {
    let config = WorkloadConfig::random_uniform();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let costs = sample_costs(10, &mut rng);

    // Determine the sweep grid from one pilot sample's forest size.
    let pilot = config.generate(&costs, &mut rng).expect("n >= 3");
    let f = pilot.group_count().max(1);
    let grid: Vec<usize> = match granularities {
        Some(gs) => gs.to_vec(),
        None => {
            let mut gs: Vec<usize> = (0..20).map(|k| 1 + k * f.saturating_sub(1) / 19).collect();
            gs.dedup();
            gs
        }
    };

    // Common random numbers: every granularity point is evaluated on the
    // SAME sampled instances, with the SAME per-instance RNG seed for the
    // request shuffles. Between-instance variance is far larger than the
    // granularity effect, so independent sampling per point would bury
    // the curve in noise.
    let instances: Vec<_> = (0..samples)
        .map(|_| {
            let costs = sample_costs(10, &mut rng);
            config.generate(&costs, &mut rng).expect("n >= 3")
        })
        .collect();

    grid.iter()
        .map(|&g| {
            let mut total = 0.0;
            for (i, problem) in instances.iter().enumerate() {
                let mut shuffle_rng =
                    ChaCha8Rng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
                let points = granularity_sweep(
                    problem,
                    &[g.min(problem.group_count().max(1))],
                    3,
                    &mut shuffle_rng,
                );
                total += points[0].mean_rejection_ratio;
            }
            Fig9Point {
                granularity: g,
                rejection_ratio: total / samples as f64,
            }
        })
        .collect()
}

/// One row of Figure 10: load-balancing statistics at a session size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10Row {
    /// Number of sites `N`.
    pub sites: usize,
    /// Mean out-degree utilization across nodes (paper: close to 100%).
    pub mean_out_utilization: f64,
    /// Standard deviation of the out-degree utilization (paper: < 3%).
    pub stddev_out_utilization: f64,
    /// Mean fraction of out-degree used for relaying other sites' streams
    /// (paper: ≈ 25%).
    pub mean_relay_fraction: f64,
}

/// Regenerates Figure 10: average out-degree utilization of RJ with
/// uniform nodes under random workload, for 4–20 sites.
pub fn fig10_series(samples: usize, seed: u64) -> Vec<Fig10Row> {
    let config = WorkloadConfig::random_uniform();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (4..=20)
        .step_by(2)
        .map(|n| {
            let mut util = 0.0;
            let mut std = 0.0;
            let mut relay = 0.0;
            for _ in 0..samples {
                let costs = sample_costs(n, &mut rng);
                let problem = config.generate(&costs, &mut rng).expect("n >= 3");
                let metrics = RandomJoin.construct(&problem, &mut rng).metrics().clone();
                util += metrics.mean_out_degree_utilization;
                std += metrics.stddev_out_degree_utilization;
                relay += metrics.mean_relay_fraction;
            }
            let m = samples as f64;
            Fig10Row {
                sites: n,
                mean_out_utilization: util / m,
                stddev_out_utilization: std / m,
                mean_relay_fraction: relay / m,
            }
        })
        .collect()
}

/// One row of Figure 11: criticality-weighted rejection of RJ vs CO-RJ.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig11Row {
    /// Number of sites `N`.
    pub sites: usize,
    /// Mean weighted rejection `X′` of plain RJ.
    pub rj: f64,
    /// Mean weighted rejection `X′` of CO-RJ.
    pub corj: f64,
}

/// Regenerates Figure 11: `X′` (Equation 3) vs. number of sites for RJ and
/// CO-RJ, with heterogeneous nodes under Zipf workload.
pub fn fig11_series(samples: usize, seed: u64) -> Vec<Fig11Row> {
    let config = WorkloadConfig::zipf_heterogeneous();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (3..=10)
        .map(|n| {
            let mut rj_total = 0.0;
            let mut corj_total = 0.0;
            for _ in 0..samples {
                let costs = sample_costs(n, &mut rng);
                let problem = config.generate(&costs, &mut rng).expect("n >= 3");
                rj_total += RandomJoin
                    .construct(&problem, &mut rng)
                    .metrics()
                    .weighted_rejection();
                corj_total += CorrelatedRandomJoin
                    .construct(&problem, &mut rng)
                    .metrics()
                    .weighted_rejection();
            }
            let m = samples as f64;
            Fig11Row {
                sites: n,
                rj: rj_total / m,
                corj: corj_total / m,
            }
        })
        .collect()
}

/// Renders a float as a fixed-width table cell.
pub fn cell(x: f64) -> String {
    format!("{x:>8.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_panels_parse_from_letters() {
        assert_eq!(
            Fig8Panel::from_letter("a"),
            Some(Fig8Panel::ZipfHeterogeneous)
        );
        assert_eq!(Fig8Panel::from_letter("d"), Some(Fig8Panel::RandomUniform));
        assert_eq!(Fig8Panel::from_letter("z"), None);
    }

    #[test]
    fn fig8_series_has_expected_shape() {
        let rows = fig8_series(Fig8Panel::RandomUniform, 2, 1);
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].sites, 3);
        assert_eq!(rows[7].sites, 10);
        for r in &rows {
            for v in [r.stf, r.ltf, r.mctf, r.rj] {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn fig9_series_spans_granularities() {
        let points = fig9_series(1, 2, Some(&[1, 50, 150]));
        assert_eq!(points.len(), 3);
        assert!(points[0].granularity < points[2].granularity);
    }

    #[test]
    fn fig10_series_covers_4_to_20() {
        let rows = fig10_series(1, 3);
        assert_eq!(rows.first().map(|r| r.sites), Some(4));
        assert_eq!(rows.last().map(|r| r.sites), Some(20));
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.mean_out_utilization));
            assert!((0.0..=1.0).contains(&r.mean_relay_fraction));
        }
    }

    #[test]
    fn fig11_series_reports_both_algorithms() {
        let rows = fig11_series(2, 4);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.rj >= 0.0);
            assert!(r.corj >= 0.0);
        }
    }

    #[test]
    fn series_are_deterministic_per_seed() {
        let a = fig8_series(Fig8Panel::ZipfUniform, 2, 7);
        let b = fig8_series(Fig8Panel::ZipfUniform, 2, 7);
        assert_eq!(a, b);
    }
}
