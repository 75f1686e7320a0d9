//! Per-epoch runtime metrics: what each reconciliation cost and changed.

use std::time::Duration;

/// Wall-clock breakdown of one epoch's reconvergence into its phases.
///
/// The phases are consecutive spans of
/// [`SessionRuntime::apply_epoch`](crate::SessionRuntime::apply_epoch)
/// measured from one monotonic clock, so they sum *exactly* to the
/// epoch's [`reconverge`](EpochReport::reconverge) — a skewed phase
/// always shows up, never hides in unaccounted time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Ingesting the epoch's events and syncing bandwidth budgets.
    pub event_drain: Duration,
    /// Incremental repair: leaves, joins, and — on fallback epochs —
    /// the full reconstruction behind the rebuild gate.
    pub repair: Duration,
    /// Re-fitting granted streams to each site's current budget.
    pub refit: Duration,
    /// Deriving the epoch's dissemination plan.
    pub derive: Duration,
    /// Extracting the plan delta and accounting served/dropped state.
    pub delta: Duration,
}

impl PhaseBreakdown {
    /// Sum of every phase — by construction equal to the epoch's
    /// `reconverge`.
    pub fn total(&self) -> Duration {
        self.event_drain + self.repair + self.refit + self.derive + self.delta
    }

    /// Folds another breakdown in, phase-wise.
    pub fn accumulate(&mut self, other: &PhaseBreakdown) {
        self.event_drain += other.event_drain;
        self.repair += other.repair;
        self.refit += other.refit;
        self.derive += other.derive;
        self.delta += other.delta;
    }
}

/// Metrics of one [`SessionRuntime`](crate::SessionRuntime) epoch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochReport {
    /// The epoch number (monotonic from zero).
    pub epoch: u64,
    /// Events consumed this epoch.
    pub events: usize,
    /// Stream joins attempted, during incremental repair and — on
    /// fallback epochs — the full reconstruction that follows it.
    pub subscribes: usize,
    /// Site-level unsubscriptions applied.
    pub unsubscribes: usize,
    /// Joins that found a feasible parent.
    pub accepted: usize,
    /// Joins rejected for bandwidth or latency.
    pub rejected: usize,
    /// Downstream sites re-attached after a relay left.
    pub reattached: usize,
    /// Subscriptions that were being served at the start of the epoch,
    /// are still desired, but end the epoch unserved — descendants of a
    /// departed relay with no feasible parent left, or casualties of a
    /// full reconstruction. Drops re-admitted within the same epoch are
    /// not counted; the rest retry next epoch.
    pub dropped_subscriptions: usize,
    /// Subscriptions the epoch's plan serves at full quality.
    pub served_full: usize,
    /// Subscriptions the epoch's plan serves below full quality — the
    /// degrade-don't-reject outcome: still delivered, at a lower rung,
    /// instead of being dropped or rejected outright.
    pub served_degraded: usize,
    /// Whether the epoch fell back to full reconstruction.
    pub rebuilt: bool,
    /// Entry changes in the emitted [`PlanDelta`](teeve_pubsub::PlanDelta).
    pub delta_entries: usize,
    /// Forwarding entries in the full plan, for comparison with
    /// `delta_entries` (the dissemination savings of delta shipping).
    pub plan_entries: usize,
    /// Deepest multicast tree after the epoch, in hops.
    pub max_tree_depth: usize,
    /// Wall-clock time reconciling the epoch (repair or rebuild, plan
    /// derivation, and delta extraction).
    pub reconverge: Duration,
    /// Where `reconverge` went: per-phase spans summing exactly to it.
    pub phases: PhaseBreakdown,
}

impl EpochReport {
    /// Returns the epoch's join rejection ratio over every attempt
    /// recorded so far, or `None` when no joins were attempted. The
    /// fallback decision evaluates this before reconstruction counts in;
    /// a finished epoch's report covers both phases.
    pub fn rejection_ratio(&self) -> Option<f64> {
        if self.subscribes == 0 {
            None
        } else {
            Some(self.rejected as f64 / self.subscribes as f64)
        }
    }

    /// Returns the delta's size relative to shipping the full plan
    /// (1.0 = as expensive as a full replan; 0.0 = nothing changed).
    /// Can exceed 1.0 on shrinking epochs, where removals outnumber the
    /// entries that remain.
    pub fn delta_fraction(&self) -> f64 {
        if self.plan_entries == 0 {
            0.0
        } else {
            self.delta_entries as f64 / self.plan_entries as f64
        }
    }
}

/// Aggregate statistics over every epoch a runtime has run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeReport {
    /// Epochs processed.
    pub epochs: usize,
    /// Epochs that fell back to full reconstruction.
    pub rebuilds: usize,
    /// Total joins attempted.
    pub subscribes: usize,
    /// Total joins accepted.
    pub accepted: usize,
    /// Total subscriptions dropped (descendants of departed relays).
    pub dropped_subscriptions: usize,
    /// Sum of per-epoch full-quality served subscription counts.
    pub served_full: usize,
    /// Sum of per-epoch degraded served subscription counts.
    pub served_degraded: usize,
    /// Sum of all epochs' reconvergence times.
    pub total_reconverge: Duration,
    /// Where the total reconvergence went, phase by phase.
    pub phase_totals: PhaseBreakdown,
    /// Sum of emitted delta entries.
    pub delta_entries: usize,
    /// Sum of full-plan entries at each epoch (the cost deltas avoided).
    pub plan_entries: usize,
}

impl RuntimeReport {
    /// Folds one finished epoch into the totals.
    pub(crate) fn absorb(&mut self, epoch: &EpochReport) {
        self.epochs += 1;
        self.rebuilds += usize::from(epoch.rebuilt);
        self.subscribes += epoch.subscribes;
        self.accepted += epoch.accepted;
        self.dropped_subscriptions += epoch.dropped_subscriptions;
        self.served_full += epoch.served_full;
        self.served_degraded += epoch.served_degraded;
        self.total_reconverge += epoch.reconverge;
        self.phase_totals.accumulate(&epoch.phases);
        self.delta_entries += epoch.delta_entries;
        self.plan_entries += epoch.plan_entries;
    }

    /// Mean reconvergence time per epoch.
    pub fn mean_reconverge(&self) -> Duration {
        if self.epochs == 0 {
            Duration::ZERO
        } else {
            self.total_reconverge / self.epochs as u32
        }
    }

    /// Overall delta size relative to full-plan shipping.
    pub fn delta_fraction(&self) -> f64 {
        if self.plan_entries == 0 {
            0.0
        } else {
            self.delta_entries as f64 / self.plan_entries as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_empty_epochs() {
        let e = EpochReport::default();
        assert_eq!(e.rejection_ratio(), None);
        assert_eq!(e.delta_fraction(), 0.0);
    }

    #[test]
    fn history_folds_into_totals() {
        let epochs = [
            EpochReport {
                epoch: 0,
                subscribes: 4,
                accepted: 3,
                rejected: 1,
                delta_entries: 2,
                plan_entries: 10,
                reconverge: Duration::from_micros(50),
                ..EpochReport::default()
            },
            EpochReport {
                epoch: 1,
                rebuilt: true,
                subscribes: 6,
                accepted: 6,
                delta_entries: 8,
                plan_entries: 10,
                reconverge: Duration::from_micros(150),
                ..EpochReport::default()
            },
        ];
        let mut r = RuntimeReport::default();
        for epoch in &epochs {
            r.absorb(epoch);
        }
        assert_eq!(r.epochs, 2);
        assert_eq!(r.rebuilds, 1);
        assert_eq!(r.subscribes, 10);
        assert_eq!(r.accepted, 9);
        assert_eq!(r.mean_reconverge(), Duration::from_micros(100));
        assert_eq!(r.delta_fraction(), 0.5);
    }
}
