//! Aggregate metrics of one bulk drive across all hosted sessions.

use std::collections::BTreeMap;
use std::time::Duration;

use teeve_runtime::EpochReport;
use teeve_telemetry::LogHistogram;
use teeve_types::SessionId;

/// What one [`drive_all`](crate::MembershipService::drive_all) pass did:
/// per-service totals over every hosted session's epoch, plus the
/// per-session epoch reports for callers that need the breakdown.
#[derive(Debug, Clone, Default)]
pub struct ServiceReport {
    /// Sessions driven (one epoch each).
    pub sessions: usize,
    /// Events consumed across all sessions.
    pub events: usize,
    /// Stream joins attempted across all sessions.
    pub subscribes: usize,
    /// Joins that found a feasible parent.
    pub accepted: usize,
    /// Joins rejected for bandwidth or latency.
    pub rejected: usize,
    /// Site-level unsubscriptions applied.
    pub unsubscribes: usize,
    /// Served-and-still-wanted subscriptions that ended their epoch
    /// unserved.
    pub dropped_subscriptions: usize,
    /// Subscriptions served at full quality across all sessions.
    pub served_full: usize,
    /// Subscriptions served below full quality (degraded, not dropped)
    /// across all sessions.
    pub served_degraded: usize,
    /// Sessions whose epoch fell back to full reconstruction.
    pub rebuilds: usize,
    /// Entry changes across all emitted plan deltas.
    pub delta_entries: usize,
    /// Forwarding entries across all full plans (what delta shipping
    /// avoided re-sending).
    pub plan_entries: usize,
    /// Sum of every session's reconvergence time: the reconcile work of
    /// the pass, without the dictation between sessions.
    pub total_reconverge: Duration,
    /// The cross-session reconvergence *distribution* (microseconds):
    /// summed totals hide tenant skew, the p50/p99 spread does not.
    pub reconverge: LogHistogram,
    /// Epoch commits the attached session store failed to append during
    /// this pass: those epochs drove but are not durable, *named*
    /// rather than silently dropped. Always 0 without a store.
    pub store_failures: usize,
    /// Each driven session's epoch report.
    pub per_session: BTreeMap<SessionId, EpochReport>,
}

impl ServiceReport {
    /// Folds one session's epoch into the totals.
    pub(crate) fn absorb(&mut self, session: SessionId, report: EpochReport) {
        self.sessions += 1;
        self.events += report.events;
        self.subscribes += report.subscribes;
        self.accepted += report.accepted;
        self.rejected += report.rejected;
        self.unsubscribes += report.unsubscribes;
        self.dropped_subscriptions += report.dropped_subscriptions;
        self.served_full += report.served_full;
        self.served_degraded += report.served_degraded;
        self.rebuilds += usize::from(report.rebuilt);
        self.delta_entries += report.delta_entries;
        self.plan_entries += report.plan_entries;
        self.total_reconverge += report.reconverge;
        self.reconverge
            .record(teeve_telemetry::duration_micros(report.reconverge));
        self.per_session.insert(session, report);
    }

    /// Mean reconvergence time per driven session, `Duration::ZERO` when
    /// nothing was driven.
    pub fn mean_reconverge(&self) -> Duration {
        if self.sessions == 0 {
            Duration::ZERO
        } else {
            self.total_reconverge / self.sessions as u32
        }
    }

    /// Median per-session reconvergence time in microseconds — compare
    /// with [`reconverge_p99`](Self::reconverge_p99) to see tenant skew.
    pub fn reconverge_p50(&self) -> u64 {
        self.reconverge.p50()
    }

    /// 99th-percentile per-session reconvergence time in microseconds.
    pub fn reconverge_p99(&self) -> u64 {
        self.reconverge.p99()
    }

    /// The acceptance ratio of attempted joins (1.0 when nothing was
    /// attempted).
    pub fn acceptance_ratio(&self) -> f64 {
        if self.subscribes == 0 {
            1.0
        } else {
            self.accepted as f64 / self.subscribes as f64
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
    fn absorb_folds_into_totals() {
        let mut r = ServiceReport::default();
        r.absorb(
            SessionId::new(0),
            EpochReport {
                events: 3,
                subscribes: 4,
                accepted: 3,
                rejected: 1,
                delta_entries: 2,
                plan_entries: 8,
                served_full: 2,
                served_degraded: 1,
                rebuilt: true,
                reconverge: Duration::from_micros(40),
                ..EpochReport::default()
            },
        );
        r.absorb(
            SessionId::new(1),
            EpochReport {
                events: 1,
                subscribes: 6,
                accepted: 6,
                delta_entries: 2,
                plan_entries: 8,
                reconverge: Duration::from_micros(20),
                ..EpochReport::default()
            },
        );
        assert_eq!(r.sessions, 2);
        assert_eq!(r.events, 4);
        assert_eq!(r.subscribes, 10);
        assert_eq!(r.accepted, 9);
        assert_eq!(r.rejected, 1);
        assert_eq!(r.rebuilds, 1);
        assert_eq!(r.served_full, 2);
        assert_eq!(r.served_degraded, 1);
        assert_eq!(r.mean_reconverge(), Duration::from_micros(30));
        assert_eq!(r.acceptance_ratio(), 0.9);
        assert_eq!(r.delta_fraction(), 0.25);
        assert_eq!(r.per_session.len(), 2);
        // Both epochs' reconvergence times landed in the distribution,
        // and its percentiles bracket the observed samples.
        assert_eq!(r.reconverge.count(), 2);
        assert_eq!(r.reconverge.min(), 20);
        assert_eq!(r.reconverge.max(), 40);
        assert!(r.reconverge_p50() <= r.reconverge_p99());
        assert!(r.reconverge_p99() >= 40);
    }

    #[test]
    fn empty_reports_have_neutral_ratios() {
        let r = ServiceReport::default();
        assert_eq!(r.mean_reconverge(), Duration::ZERO);
        assert_eq!(r.acceptance_ratio(), 1.0);
        assert_eq!(r.delta_fraction(), 0.0);
    }
}
