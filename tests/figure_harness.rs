//! Smoke tests for the figure-reproduction harness (reduced sample counts;
//! the full runs are `teeve-bench`'s `fig8`–`fig11` binaries).

use teeve_bench::{fig10_series, fig11_series, fig8_series, fig9_series, Fig8Panel};

/// Figure 8's qualitative shape: rejection grows with the number of sites
/// under the uniform workloads.
#[test]
fn fig8_rejection_grows_with_session_size() {
    for panel in [Fig8Panel::ZipfUniform, Fig8Panel::RandomUniform] {
        let rows = fig8_series(panel, 12, 42);
        let first = &rows[0];
        let last = &rows[rows.len() - 1];
        for (algo, a, b) in [
            ("STF", first.stf, last.stf),
            ("LTF", first.ltf, last.ltf),
            ("MCTF", first.mctf, last.mctf),
            ("RJ", first.rj, last.rj),
        ] {
            assert!(
                b > a,
                "{algo} rejection should grow from N=3 ({a:.3}) to N=10 ({b:.3})"
            );
        }
    }
}

/// The headline claim: at the larger session sizes RJ is competitive with
/// the best tree-based algorithm (within noise) and strictly better than
/// the worst.
#[test]
fn fig8_rj_is_competitive_at_scale() {
    let rows = fig8_series(Fig8Panel::RandomHeterogeneous, 15, 7);
    let last = &rows[rows.len() - 1];
    let best_tree = last.stf.min(last.ltf).min(last.mctf);
    let worst_tree = last.stf.max(last.ltf).max(last.mctf);
    assert!(
        last.rj <= best_tree + 0.02,
        "RJ ({:.3}) should be within noise of the best tree-based ({best_tree:.3})",
        last.rj
    );
    assert!(
        last.rj < worst_tree,
        "RJ ({:.3}) should beat the worst tree-based ({worst_tree:.3})",
        last.rj
    );
}

/// Figure 9's shape: granularity F (RJ end) does not reject more than
/// granularity 1 (LTF end).
#[test]
fn fig9_larger_granularity_helps() {
    let points = fig9_series(8, 11, Some(&[1, 1000]));
    assert_eq!(points.len(), 2);
    assert!(
        points[1].rejection_ratio <= points[0].rejection_ratio + 0.01,
        "granularity F ({:.3}) should not be worse than 1 ({:.3})",
        points[1].rejection_ratio,
        points[0].rejection_ratio
    );
}

/// Figure 10's shape: high mean out-degree utilization with a small
/// standard deviation (good load balancing).
#[test]
fn fig10_load_balancing_holds() {
    let rows = fig10_series(6, 5);
    for row in rows.iter().filter(|r| r.sites >= 6) {
        assert!(
            row.mean_out_utilization > 0.85,
            "N={}: utilization {:.3} too low",
            row.sites,
            row.mean_out_utilization
        );
        assert!(
            row.stddev_out_utilization < 0.10,
            "N={}: stddev {:.3} too high",
            row.sites,
            row.stddev_out_utilization
        );
        assert!(row.mean_relay_fraction > 0.05, "relaying must happen");
    }
}

/// Figure 11's shape: CO-RJ's criticality-weighted rejection beats RJ's,
/// with the gap widening as sites join.
#[test]
fn fig11_corj_beats_rj_increasingly() {
    let rows = fig11_series(15, 13);
    let first = &rows[0];
    let last = &rows[rows.len() - 1];
    assert!(last.corj < last.rj, "CO-RJ must win at N=10");
    let gap_first = first.rj - first.corj;
    let gap_last = last.rj - last.corj;
    assert!(
        gap_last > gap_first,
        "the CO-RJ advantage should widen: {gap_first:.4} -> {gap_last:.4}"
    );
    let factor = last.rj / last.corj.max(1e-9);
    assert!(
        factor > 1.5,
        "CO-RJ should be a substantial factor better at N=10, got {factor:.2}x"
    );
}
