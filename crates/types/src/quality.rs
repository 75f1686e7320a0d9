//! Quality levels: the discrete rungs a stream can be served at.
//!
//! The overlay admission path and quality fitting (`teeve-overlay`),
//! dissemination plans (`teeve-pubsub`), and the wire protocol
//! (`teeve-net`) all speak about per-subscription quality; this module is
//! the shared vocabulary they agree on:
//!
//! * [`Quality`] — a ladder rung *index* (0 = full quality), the compact
//!   representation plan entries and wire messages carry;
//! * [`QualityLevel`] — one rung's media parameters (its bit rate);
//! * [`QualityLadder`] — the descending sequence of levels a stream can
//!   degrade through.

use serde::{Deserialize, Serialize};

/// A quality rung index: 0 is full quality, each higher rung is one step
/// down the stream's [`QualityLadder`].
///
/// `Quality` orders by *degradation*: `Quality::FULL < Quality::new(1)`,
/// so the "coarser of two levels" is simply their [`max`](Ord::max).
///
/// # Examples
///
/// ```
/// use teeve_types::Quality;
///
/// assert!(Quality::FULL.is_full());
/// assert_eq!(Quality::new(2).rung(), 2);
/// assert_eq!(Quality::FULL.max(Quality::new(1)), Quality::new(1));
/// assert_eq!(Quality::new(1).to_string(), "q1");
/// ```
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Quality(u8);

impl Quality {
    /// Full quality: the top rung of every ladder.
    pub const FULL: Quality = Quality(0);

    /// Creates a quality from a rung index (0 = full).
    pub const fn new(rung: u8) -> Quality {
        Quality(rung)
    }

    /// Returns the rung index (0 = full).
    pub const fn rung(self) -> usize {
        self.0 as usize
    }

    /// Returns true at the top rung.
    pub const fn is_full(self) -> bool {
        self.0 == 0
    }

    /// One rung further down (saturating at the `u8` range; ladders clamp
    /// to their own depth).
    #[must_use]
    pub const fn degraded(self) -> Quality {
        Quality(self.0.saturating_add(1))
    }

    /// Scales a full-quality payload length to this rung.
    ///
    /// The data plane's canonical convention, mirroring the paper ladder's
    /// 8/4/2 Mbps steps: each rung halves the payload. Used by the live
    /// RP substrate to size forwarded frames by level.
    pub const fn scaled_len(self, full_len: usize) -> usize {
        if self.0 >= usize::BITS as u8 {
            0
        } else {
            full_len >> self.0
        }
    }
}

impl std::fmt::Display for Quality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// One rung of a quality ladder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QualityLevel {
    /// Bit rate this level consumes.
    pub bitrate_bps: u64,
}

/// A descending ladder of quality levels for one stream.
///
/// # Examples
///
/// ```
/// use teeve_types::{Quality, QualityLadder};
///
/// let ladder = QualityLadder::paper_default();
/// assert_eq!(ladder.full().bitrate_bps, 8_000_000);
/// assert!(ladder.rate_of(Quality::new(1)) < ladder.rate_of(Quality::FULL));
/// assert_eq!(ladder.rate_of(Quality::new(2)), 2_000_000);
/// assert_eq!(ladder.floor(), Quality::new(2));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityLadder {
    levels: Vec<QualityLevel>,
}

impl QualityLadder {
    /// Creates a ladder from strictly descending bit rates.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty, holds more than 256 levels (a
    /// [`Quality`] rung is a `u8`), or bit rates are not strictly
    /// descending and positive.
    pub fn new(levels: Vec<QualityLevel>) -> Self {
        assert!(!levels.is_empty(), "a ladder needs at least one level");
        assert!(
            levels.len() <= usize::from(u8::MAX) + 1,
            "a ladder holds at most 256 levels"
        );
        for pair in levels.windows(2) {
            assert!(
                pair[0].bitrate_bps > pair[1].bitrate_bps,
                "bit rates must be strictly descending"
            );
        }
        for level in &levels {
            assert!(level.bitrate_bps > 0, "levels must have positive bit rate");
        }
        QualityLadder { levels }
    }

    /// The paper's stream economics: full quality at 8 Mbps (the middle
    /// of the quoted 5–10 Mbps band), then half-resolution (4 Mbps),
    /// quarter (2 Mbps).
    pub fn paper_default() -> Self {
        QualityLadder::new(vec![
            QualityLevel {
                bitrate_bps: 8_000_000,
            },
            QualityLevel {
                bitrate_bps: 4_000_000,
            },
            QualityLevel {
                bitrate_bps: 2_000_000,
            },
        ])
    }

    /// Returns the number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Ladders are never empty; this mirrors the collection convention.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns the full-quality level.
    pub fn full(&self) -> QualityLevel {
        self.levels[0]
    }

    /// The lowest (coarsest) rung of this ladder.
    pub fn floor(&self) -> Quality {
        Quality::new((self.levels.len() - 1) as u8)
    }

    /// Clamps a rung index into this ladder's range.
    pub fn clamp(&self, quality: Quality) -> Quality {
        quality.min(self.floor())
    }

    /// Returns the bit rate consumed at `quality`, clamped to the ladder.
    pub fn rate_of(&self, quality: Quality) -> u64 {
        self.levels[self.clamp(quality).rung()].bitrate_bps
    }

    /// Whether `quality` has a rung below it in this ladder.
    pub fn can_degrade(&self, quality: Quality) -> bool {
        quality < self.floor()
    }
}

impl Default for QualityLadder {
    /// Same as [`QualityLadder::paper_default`].
    fn default() -> Self {
        QualityLadder::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates(rates: &[u64]) -> Vec<QualityLevel> {
        rates
            .iter()
            .map(|&bitrate_bps| QualityLevel { bitrate_bps })
            .collect()
    }

    #[test]
    fn paper_ladder_is_descending() {
        let l = QualityLadder::paper_default();
        assert_eq!(l.len(), 3);
        assert!(l.rate_of(Quality::FULL) > l.rate_of(Quality::new(1)));
        assert!(l.rate_of(Quality::new(1)) > l.rate_of(Quality::new(2)));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_ladder_panics() {
        let _ = QualityLadder::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "descending")]
    fn ascending_rates_panic() {
        let _ = QualityLadder::new(rates(&[1, 2]));
    }

    #[test]
    #[should_panic(expected = "positive bit rate")]
    fn zero_rate_panics() {
        let _ = QualityLadder::new(rates(&[0]));
    }

    #[test]
    fn a_ladder_may_use_every_rung() {
        let deepest: Vec<u64> = (1..=256).rev().collect();
        let l = QualityLadder::new(rates(&deepest));
        assert_eq!(l.floor(), Quality::new(255));
        assert_eq!(l.rate_of(l.floor()), 1);
    }

    #[test]
    #[should_panic(expected = "at most 256 levels")]
    fn ladders_deeper_than_a_rung_index_panic() {
        // 257 levels would make `floor()` wrap to `Quality::FULL`.
        let too_deep: Vec<u64> = (1..=257).rev().collect();
        let _ = QualityLadder::new(rates(&too_deep));
    }

    #[test]
    fn quality_orders_by_degradation() {
        assert!(Quality::FULL < Quality::new(1));
        assert_eq!(Quality::FULL.degraded(), Quality::new(1));
        assert!(Quality::FULL.is_full());
        assert!(!Quality::new(1).is_full());
        assert_eq!(Quality::new(3).rung(), 3);
    }

    #[test]
    fn clamping_and_rates_follow_the_ladder() {
        let l = QualityLadder::paper_default();
        assert_eq!(l.floor(), Quality::new(2));
        assert_eq!(l.clamp(Quality::new(9)), Quality::new(2));
        assert_eq!(l.rate_of(Quality::FULL), 8_000_000);
        assert_eq!(l.rate_of(Quality::new(1)), 4_000_000);
        assert_eq!(l.rate_of(Quality::new(200)), 2_000_000);
        assert!(l.can_degrade(Quality::FULL));
        assert!(!l.can_degrade(Quality::new(2)));
    }

    #[test]
    fn scaled_len_halves_per_rung() {
        assert_eq!(Quality::FULL.scaled_len(1024), 1024);
        assert_eq!(Quality::new(1).scaled_len(1024), 512);
        assert_eq!(Quality::new(2).scaled_len(1024), 256);
        assert_eq!(Quality::new(255).scaled_len(usize::MAX), 0);
    }

    #[test]
    fn quality_serde_roundtrip() {
        let q = Quality::new(2);
        let json = serde_json::to_string(&q).unwrap();
        let back: Quality = serde_json::from_str(&json).unwrap();
        assert_eq!(back, q);
    }
}
