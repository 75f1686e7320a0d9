//! Rate-aware quality fitting: the pure arithmetic behind the overlay's
//! degrade-don't-reject admission path.
//!
//! The paper's CO-RJ heuristic argues that under saturation a less
//! critical stream should yield to a more critical one (Fig. 11). This
//! module generalizes that idea from *drop the victim* to *degrade the
//! victim*: given a receiving site's bit-rate budget and the FOV
//! contribution scores of the streams it takes, [`fit_qualities`] finds
//! the deterministic rung assignment that fits the budget by repeatedly
//! degrading the least-contributing stream one rung — never dropping
//! anything. Whether the assignment actually fits is reported separately,
//! so admission can reject a newcomer exactly when the ladder is
//! exhausted.

use std::collections::BTreeMap;

use teeve_types::{Quality, QualityLadder, StreamId};

/// The outcome of fitting a stream set into a rate budget.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityFit {
    /// The chosen rung per stream. Every input stream is present; with no
    /// budget everything is [`Quality::FULL`].
    pub qualities: BTreeMap<StreamId, Quality>,
    /// Total bit rate of the assignment under the shared ladder.
    pub total_bps: u64,
    /// Whether the assignment fits the budget. `false` means every
    /// stream sits at the ladder floor and the demand *still* exceeds the
    /// budget — the ladder is exhausted.
    pub fits: bool,
}

/// Fits `streams` (id, FOV contribution score) into `budget_bps` by
/// degrading the least-scored stream one rung at a time — the priority
/// degradation of the paper's reference \[27\] — but never dropping a
/// stream: the floor of the ladder is as far as fitting goes, and
/// [`QualityFit::fits`] reports whether that was enough.
///
/// Ties and NaN scores order deterministically (`f64::total_cmp`, then
/// stream id), so the same inputs always produce the same assignment.
/// `budget_bps = None` means unconstrained: everything at full quality.
pub fn fit_qualities(
    ladder: &QualityLadder,
    budget_bps: Option<u64>,
    streams: &[(StreamId, f64)],
) -> QualityFit {
    let mut qualities: BTreeMap<StreamId, Quality> =
        streams.iter().map(|&(s, _)| (s, Quality::FULL)).collect();
    let mut total: u64 = qualities.len() as u64 * ladder.full().bitrate_bps;
    let Some(budget) = budget_bps else {
        return QualityFit {
            qualities,
            total_bps: total,
            fits: true,
        };
    };

    // Degradation order: ascending score (total_cmp pins NaN), then
    // stream id. The weakest stream that can still step down yields
    // first; once it hits the floor the next-weakest starts stepping.
    let mut order: Vec<(StreamId, f64)> = streams.to_vec();
    order.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));

    while total > budget {
        let Some(&(victim, _)) = order.iter().find(|(s, _)| ladder.can_degrade(qualities[s]))
        else {
            break; // everything at the floor; the ladder is exhausted
        };
        let current = qualities[&victim];
        total = total - ladder.rate_of(current) + ladder.rate_of(current.degraded());
        qualities.insert(victim, current.degraded());
    }
    QualityFit {
        fits: total <= budget,
        total_bps: total,
        qualities,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teeve_types::SiteId;

    fn stream(origin: u32, q: u32) -> StreamId {
        StreamId::new(SiteId::new(origin), q)
    }

    fn paper() -> QualityLadder {
        QualityLadder::paper_default()
    }

    #[test]
    fn no_budget_keeps_everything_full() {
        let fit = fit_qualities(&paper(), None, &[(stream(0, 0), 0.1), (stream(1, 0), 0.9)]);
        assert!(fit.fits);
        assert_eq!(fit.total_bps, 16_000_000);
        assert!(fit.qualities.values().all(|q| q.is_full()));
    }

    #[test]
    fn weakest_stream_yields_first() {
        // 8 + 8 = 16 Mbps into 12 Mbps: only the low-score stream steps.
        let fit = fit_qualities(
            &paper(),
            Some(12_000_000),
            &[(stream(0, 0), 0.9), (stream(1, 0), 0.1)],
        );
        assert!(fit.fits);
        assert_eq!(fit.qualities[&stream(0, 0)], Quality::FULL);
        assert_eq!(fit.qualities[&stream(1, 0)], Quality::new(1));
        assert_eq!(fit.total_bps, 12_000_000);
    }

    #[test]
    fn exhausted_ladders_report_not_fitting() {
        // Two streams cannot go below 2 + 2 = 4 Mbps.
        let fit = fit_qualities(
            &paper(),
            Some(3_000_000),
            &[(stream(0, 0), 0.9), (stream(1, 0), 0.1)],
        );
        assert!(!fit.fits);
        assert_eq!(fit.total_bps, 4_000_000);
        assert!(fit
            .qualities
            .values()
            .all(|&q| q == QualityLadder::paper_default().floor()));
    }

    #[test]
    fn nan_scores_fit_deterministically() {
        let streams = [
            (stream(0, 0), f64::NAN),
            (stream(1, 0), 0.5),
            (stream(2, 0), f64::NAN),
        ];
        let a = fit_qualities(&paper(), Some(14_000_000), &streams);
        let mut reversed = streams;
        reversed.reverse();
        let b = fit_qualities(&paper(), Some(14_000_000), &reversed);
        assert_eq!(a, b);
        assert!(a.fits);
    }

    #[test]
    fn empty_stream_sets_fit_any_budget() {
        let fit = fit_qualities(&paper(), Some(0), &[]);
        assert!(fit.fits);
        assert_eq!(fit.total_bps, 0);
        assert!(fit.qualities.is_empty());
    }
}
