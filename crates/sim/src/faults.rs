//! Failure injection: loss and crash models layered on the dissemination
//! simulation.
//!
//! The paper's latency bound covers the happy path; a deployed 3DTI system
//! also faces lossy WAN links and relay failures. [`FaultPlan`] describes
//! what goes wrong during a run; [`simulate`](crate::simulate) executes it:
//!
//! * **link loss** — each frame crossing a link is dropped independently
//!   with the link's loss probability (deterministic hash-based draws, so
//!   runs are reproducible without an RNG dependency in the hot loop);
//! * **RP crash** — a site halts at a given time: it stops forwarding and
//!   receiving (its own cameras keep capturing, but frames die at its
//!   uplink), which silences every subtree hanging below it.
//!
//! Comparing the resulting [`SimReport`] against the fault-free run shows
//! how much delivery a single relay failure costs — the motivation for
//! keeping trees shallow and fan-out balanced.

use serde::{Deserialize, Serialize};
use teeve_types::{SiteId, StreamId};

use crate::{SimTime, StreamStats};

/// Deterministic per-frame loss draw: a splitmix-style hash of the frame's
/// coordinates mapped to `[0, 1)`.
fn loss_draw(from: SiteId, to: SiteId, stream: StreamId, seq: u64) -> f64 {
    let mut x = (from.index() as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(to.index() as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(stream.origin().index() as u64 + 1)
        .wrapping_mul(0x94D0_49BB_1331_11EB)
        .wrapping_add(u64::from(stream.local_index()) + 1)
        .wrapping_add(seq.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// One lossy directed link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct LinkLoss {
    from: u32,
    to: u32,
    probability: f64,
}

/// One crashing site.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Crash {
    site: u32,
    at: SimTime,
}

/// What goes wrong during a simulated run.
///
/// Fault plans are tiny (a handful of entries), so lookups scan linearly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    link_loss: Vec<LinkLoss>,
    crashes: Vec<Crash>,
}

impl FaultPlan {
    /// A plan with no faults (equivalent to the plain simulation).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Sets the loss probability of the directed link `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is outside `[0, 1]`.
    #[must_use]
    pub fn with_link_loss(mut self, from: SiteId, to: SiteId, probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "loss probability must be in [0, 1]"
        );
        self.link_loss
            .retain(|l| (l.from, l.to) != (from.index() as u32, to.index() as u32));
        self.link_loss.push(LinkLoss {
            from: from.index() as u32,
            to: to.index() as u32,
            probability,
        });
        self
    }

    /// Crashes `site` at `at`: from then on it neither receives nor
    /// forwards.
    #[must_use]
    pub fn with_crash(mut self, site: SiteId, at: SimTime) -> Self {
        self.crashes.retain(|c| c.site != site.index() as u32);
        self.crashes.push(Crash {
            site: site.index() as u32,
            at,
        });
        self
    }

    /// Returns true if the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.link_loss.is_empty() && self.crashes.is_empty()
    }

    /// Returns whether `site` has crashed by time `at`.
    pub fn crashed(&self, site: SiteId, at: SimTime) -> bool {
        self.crashes
            .iter()
            .any(|c| c.site == site.index() as u32 && at >= c.at)
    }

    /// Returns whether the frame `(stream, seq)` is lost on `from → to`.
    pub fn frame_lost(&self, from: SiteId, to: SiteId, stream: StreamId, seq: u64) -> bool {
        match self
            .link_loss
            .iter()
            .find(|l| (l.from, l.to) == (from.index() as u32, to.index() as u32))
        {
            None => false,
            Some(l) => loss_draw(from, to, stream, seq) < l.probability,
        }
    }
}

/// Side-by-side comparison of a faulty run against its fault-free
/// baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultImpact {
    /// Delivery ratio of the fault-free baseline run.
    pub baseline_delivery: f64,
    /// Delivery ratio under the fault plan.
    pub faulty_delivery: f64,
    /// (site, stream) pairs that lost *all* frames under faults while the
    /// baseline delivered them — subtrees silenced by a crash or a dead
    /// link.
    pub silenced: Vec<(SiteId, StreamId)>,
}

impl FaultImpact {
    /// Computes the impact by diffing two reports' per-pair statistics.
    pub fn compare(
        baseline: &crate::SimReport,
        faulty: &crate::SimReport,
        pairs: impl IntoIterator<Item = (SiteId, StreamId)>,
    ) -> Self {
        let mut silenced = Vec::new();
        for (site, stream) in pairs {
            let base = baseline.stream_stats(site, stream).map(StreamStats::frames);
            let fault = faulty.stream_stats(site, stream).map(StreamStats::frames);
            if base.unwrap_or(0) > 0 && fault.unwrap_or(0) == 0 {
                silenced.push((site, stream));
            }
        }
        FaultImpact {
            baseline_delivery: baseline.delivery_ratio(),
            faulty_delivery: faulty.delivery_ratio(),
            silenced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(i: u32) -> SiteId {
        SiteId::new(i)
    }

    fn stream(origin: u32, q: u32) -> StreamId {
        StreamId::new(site(origin), q)
    }

    #[test]
    fn empty_plan_loses_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(!plan.frame_lost(site(0), site(1), stream(0, 0), 5));
        assert!(!plan.crashed(site(0), SimTime::from_secs(100)));
    }

    #[test]
    fn certain_loss_drops_every_frame() {
        let plan = FaultPlan::none().with_link_loss(site(0), site(1), 1.0);
        for seq in 0..50 {
            assert!(plan.frame_lost(site(0), site(1), stream(0, 0), seq));
        }
        // The reverse direction is unaffected.
        assert!(!plan.frame_lost(site(1), site(0), stream(0, 0), 0));
    }

    #[test]
    fn partial_loss_is_roughly_proportional() {
        let plan = FaultPlan::none().with_link_loss(site(0), site(1), 0.3);
        let lost = (0..10_000)
            .filter(|&seq| plan.frame_lost(site(0), site(1), stream(0, 0), seq))
            .count();
        let rate = lost as f64 / 10_000.0;
        assert!(
            (0.27..0.33).contains(&rate),
            "empirical loss rate {rate} should approximate 0.3"
        );
    }

    #[test]
    fn loss_draws_are_deterministic() {
        let plan = FaultPlan::none().with_link_loss(site(2), site(3), 0.5);
        let a: Vec<bool> = (0..100)
            .map(|s| plan.frame_lost(site(2), site(3), stream(2, 1), s))
            .collect();
        let b: Vec<bool> = (0..100)
            .map(|s| plan.frame_lost(site(2), site(3), stream(2, 1), s))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn crash_takes_effect_at_its_time() {
        let plan = FaultPlan::none().with_crash(site(1), SimTime::from_millis(100));
        assert!(!plan.crashed(site(1), SimTime::from_millis(99)));
        assert!(plan.crashed(site(1), SimTime::from_millis(100)));
        assert!(plan.crashed(site(1), SimTime::from_millis(500)));
        assert!(!plan.crashed(site(2), SimTime::from_millis(500)));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_invalid_probability() {
        let _ = FaultPlan::none().with_link_loss(site(0), site(1), 1.5);
    }

    #[test]
    fn serde_roundtrip() {
        let plan = FaultPlan::none()
            .with_link_loss(site(0), site(1), 0.25)
            .with_crash(site(2), SimTime::from_millis(300));
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
