//! Simulation reports: delivery and latency statistics.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use teeve_pubsub::DisseminationPlan;
use teeve_types::{SiteId, StreamId};

use crate::{SimConfig, SimTime};

/// Latency statistics of one (site, stream) delivery relationship.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct StreamStats {
    frames: u64,
    latency_sum_us: u64,
    latency_max: SimTime,
    /// Arrival time of the most recent frame (for jitter accounting).
    last_arrival: Option<SimTime>,
    /// Sum over consecutive arrivals of `|inter-arrival − frame interval|`.
    jitter_sum_us: u64,
    /// Number of measured inter-arrival gaps (`frames − 1` when all
    /// frames arrived).
    gaps: u64,
}

impl StreamStats {
    /// Returns the number of frames delivered.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Returns the mean end-to-end latency, or zero when nothing arrived.
    pub fn mean_latency(&self) -> SimTime {
        SimTime::from_micros(self.latency_sum_us.checked_div(self.frames).unwrap_or(0))
    }

    /// Returns the worst end-to-end latency.
    pub fn max_latency(&self) -> SimTime {
        self.latency_max
    }

    /// Returns the mean inter-arrival jitter: the average absolute
    /// deviation of consecutive arrival gaps from the nominal frame
    /// interval. Zero for fewer than two frames. A steady overlay path
    /// shows (near-)zero jitter even when its latency is high; queueing
    /// and loss show up here first.
    pub fn mean_jitter(&self) -> SimTime {
        SimTime::from_micros(self.jitter_sum_us.checked_div(self.gaps).unwrap_or(0))
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    serialization: SimTime,
    render_ms_per_stream: u32,
    frame_interval_us: u64,
    /// Frames each (site, stream) pair was planned to receive, counted per
    /// capture under the plan revision current at capture time.
    expected_frames: BTreeMap<(SiteId, StreamId), u64>,
    stats: BTreeMap<(SiteId, StreamId), StreamStats>,
}

impl SimReport {
    pub(crate) fn new(
        plan: &DisseminationPlan,
        config: &SimConfig,
        serialization: SimTime,
    ) -> Self {
        SimReport {
            serialization,
            render_ms_per_stream: config.render_ms_per_stream,
            frame_interval_us: plan.profile().frame_interval_micros(),
            expected_frames: BTreeMap::new(),
            stats: BTreeMap::new(),
        }
    }

    /// Records that one captured frame was planned to reach `site` under
    /// the plan revision current at capture time.
    pub(crate) fn record_expected_frame(&mut self, site: SiteId, stream: StreamId) {
        *self.expected_frames.entry((site, stream)).or_default() += 1;
    }

    /// Records one frame delivered to `site` with end-to-end `latency`,
    /// arriving at `arrival`.
    pub(crate) fn record_delivery(
        &mut self,
        site: SiteId,
        stream: StreamId,
        latency: SimTime,
        arrival: SimTime,
    ) {
        let interval = self.frame_interval_us;
        let entry = self.stats.entry((site, stream)).or_default();
        entry.frames += 1;
        entry.latency_sum_us += latency.as_micros();
        entry.latency_max = entry.latency_max.max(latency);
        if let Some(prev) = entry.last_arrival {
            let gap = (arrival - prev).as_micros();
            entry.jitter_sum_us += gap.abs_diff(interval);
            entry.gaps += 1;
        }
        entry.last_arrival = Some(arrival);
    }

    /// Returns the per-frame serialization time of this run's profile.
    pub fn serialization_time(&self) -> SimTime {
        self.serialization
    }

    /// Returns the statistics of one (site, stream) pair, if anything was
    /// delivered.
    pub fn stream_stats(&self, site: SiteId, stream: StreamId) -> Option<&StreamStats> {
        self.stats.get(&(site, stream))
    }

    /// Returns the total number of frame deliveries across all sites.
    pub fn total_frames_delivered(&self) -> u64 {
        self.stats.values().map(StreamStats::frames).sum()
    }

    /// Returns delivered frames over expected frames; 1.0 when nothing was
    /// expected. Each captured frame is expected at every site holding a
    /// receiving entry for its stream under the plan revision current at
    /// capture time.
    pub fn delivery_ratio(&self) -> f64 {
        let expected: u64 = self.expected_frames.values().sum();
        if expected == 0 {
            1.0
        } else {
            self.total_frames_delivered() as f64 / expected as f64
        }
    }

    /// Returns the worst mean inter-arrival jitter across all delivery
    /// pairs.
    pub fn worst_jitter(&self) -> SimTime {
        self.stats
            .values()
            .map(StreamStats::mean_jitter)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Returns the worst end-to-end latency of any delivered frame.
    pub fn worst_latency(&self) -> SimTime {
        self.stats
            .values()
            .map(StreamStats::max_latency)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Returns the worst *overlay* latency: end-to-end minus the initial
    /// serialization — the part the construction bound `B_cost` governs
    /// (propagation, relay serializations, forwarding overheads).
    pub fn worst_overlay_latency(&self) -> SimTime {
        let worst = self.worst_latency();
        if worst <= self.serialization {
            SimTime::ZERO
        } else {
            worst - self.serialization
        }
    }

    /// Returns, per site, the number of remote streams it renders.
    pub fn streams_rendered(&self) -> BTreeMap<SiteId, usize> {
        let mut per_site: BTreeMap<SiteId, usize> = BTreeMap::new();
        for (site, _) in self.stats.keys() {
            *per_site.entry(*site).or_default() += 1;
        }
        per_site
    }

    /// Returns the rendering budget utilization of `site`: time to render
    /// one frame of every received stream (at the paper's ≈10 ms/stream)
    /// divided by the frame interval. Above 1.0 the display cannot keep up
    /// with full frame rate — the paper's motivation for limiting the
    /// number of delivered streams.
    pub fn render_utilization(&self, site: SiteId) -> f64 {
        let streams = self.stats.keys().filter(|(s, _)| *s == site).count() as f64;
        let render_us = streams * f64::from(self.render_ms_per_stream) * 1_000.0;
        render_us / self.frame_interval_us as f64
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

    /// Records a delivery whose arrival time the test does not inspect.
    fn deliver(r: &mut SimReport, site: SiteId, stream: StreamId, latency: SimTime) {
        r.record_delivery(site, stream, latency, SimTime::ZERO);
    }

    fn empty_report() -> SimReport {
        SimReport {
            serialization: SimTime::from_millis(66),
            render_ms_per_stream: 10,
            frame_interval_us: 66_666,
            expected_frames: BTreeMap::new(),
            stats: BTreeMap::new(),
        }
    }

    #[test]
    fn stats_accumulate_mean_and_max() {
        let mut r = empty_report();
        deliver(&mut r, site(1), stream(0, 0), SimTime::from_millis(10));
        deliver(&mut r, site(1), stream(0, 0), SimTime::from_millis(20));
        let s = r.stream_stats(site(1), stream(0, 0)).unwrap();
        assert_eq!(s.frames(), 2);
        assert_eq!(s.mean_latency(), SimTime::from_millis(15));
        assert_eq!(s.max_latency(), SimTime::from_millis(20));
    }

    #[test]
    fn delivery_ratio_counts_expected_pairs() {
        let mut r = empty_report();
        r.expected_frames.insert((site(1), stream(0, 0)), 10);
        r.expected_frames.insert((site(2), stream(0, 0)), 10);
        for _ in 0..10 {
            deliver(&mut r, site(1), stream(0, 0), SimTime::from_millis(1));
        }
        // Site 2 got nothing: half the expected frames arrived.
        assert_eq!(r.delivery_ratio(), 0.5);
    }

    #[test]
    fn render_utilization_follows_paper_model() {
        let mut r = empty_report();
        // 7 streams at 10 ms each = 70 ms per 66.666 ms interval: overload.
        for q in 0..7 {
            deliver(&mut r, site(0), stream(1, q), SimTime::from_millis(5));
        }
        let util = r.render_utilization(site(0));
        assert!(util > 1.0, "7 streams should exceed the render budget");
        // 3 streams = 30 ms: fits.
        for q in 0..3 {
            deliver(&mut r, site(2), stream(1, q), SimTime::from_millis(5));
        }
        assert!(r.render_utilization(site(2)) < 1.0);
    }

    #[test]
    fn worst_overlay_latency_subtracts_serialization() {
        let mut r = empty_report();
        deliver(&mut r, site(1), stream(0, 0), SimTime::from_millis(80));
        assert_eq!(r.worst_latency(), SimTime::from_millis(80));
        assert_eq!(r.worst_overlay_latency(), SimTime::from_millis(14));
    }

    #[test]
    fn steady_arrivals_have_zero_jitter() {
        let mut r = empty_report();
        for i in 0..5u64 {
            r.record_delivery(
                site(1),
                stream(0, 0),
                SimTime::from_millis(10),
                SimTime::from_micros(i * 66_666),
            );
        }
        let s = r.stream_stats(site(1), stream(0, 0)).unwrap();
        assert_eq!(s.mean_jitter(), SimTime::ZERO);
        assert_eq!(r.worst_jitter(), SimTime::ZERO);
    }

    #[test]
    fn irregular_arrivals_show_jitter() {
        let mut r = empty_report();
        // Gaps of 66.666 ms then 133.332 ms (a dropped frame's hole).
        for at in [0u64, 66_666, 199_998] {
            r.record_delivery(
                site(1),
                stream(0, 0),
                SimTime::from_millis(10),
                SimTime::from_micros(at),
            );
        }
        let s = r.stream_stats(site(1), stream(0, 0)).unwrap();
        // One perfect gap, one off by a full interval: mean = interval/2.
        assert_eq!(s.mean_jitter(), SimTime::from_micros(66_666 / 2));
    }

    #[test]
    fn jitter_needs_two_frames() {
        let mut r = empty_report();
        r.record_delivery(site(1), stream(0, 0), SimTime::ZERO, SimTime::ZERO);
        assert_eq!(
            r.stream_stats(site(1), stream(0, 0)).unwrap().mean_jitter(),
            SimTime::ZERO
        );
    }

    #[test]
    fn empty_report_is_vacuously_complete() {
        let r = empty_report();
        assert_eq!(r.delivery_ratio(), 1.0);
        assert_eq!(r.worst_latency(), SimTime::ZERO);
        assert_eq!(r.worst_overlay_latency(), SimTime::ZERO);
        assert!(r.streams_rendered().is_empty());
    }
}
