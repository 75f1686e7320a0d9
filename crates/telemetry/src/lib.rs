//! Observability substrate for the TEEVE reproduction (Wu et al.,
//! ICDCS 2008).
//!
//! The paper's evaluation is distributional — end-to-end latency CDFs,
//! reconvergence times, rejection ratios — so scalar sums and maxima are
//! not enough to reproduce its figures. This crate supplies the three
//! pieces every layer of the workspace reports through:
//!
//! * [`LogHistogram`] — a fixed 65-bucket log₂ histogram of `u64` samples
//!   (microseconds, counts, bytes — anything non-negative). Buckets are
//!   power-of-two ranges, so two histograms merge losslessly by adding
//!   bucket counts, which is what lets a coordinator fold per-RP wire
//!   reports into fleet-wide p50/p90/p99 readouts.
//! * [`MetricsRegistry`] — named atomic [`Counter`]s, [`Gauge`]s, and
//!   shared [`Histogram`]s, snapshotted as a serializable
//!   [`TelemetrySnapshot`].
//! * [`FlightRecorder`] — a bounded ring buffer of recent structured
//!   [`FlightEvent`]s (reconfigures, acks, link changes, failed
//!   reconfigurations, rebuild-gate trips), dumped as JSON for
//!   postmortems on fleets whose reconfiguration failed.
//!
//! The crate sits near the bottom of the workspace: besides the vendored
//! `serde`/`serde_json`/`parking_lot` shims it depends only on
//! `teeve-types` (for the sanctioned [`teeve_types::clock`] wall-clock
//! module), and speaks raw integers (`u32` site indexes, `u64` revisions)
//! rather than `teeve-types` identifiers.
//!
//! # Examples
//!
//! ```
//! use teeve_telemetry::{LogHistogram, MetricsRegistry};
//!
//! let registry = MetricsRegistry::new();
//! registry.counter("frames.delivered").add(3);
//! let latency = registry.histogram("delivery.latency_micros");
//! for sample in [120, 480, 15_000] {
//!     latency.record(sample);
//! }
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counters["frames.delivered"], 3);
//! let merged: LogHistogram = snapshot.histograms["delivery.latency_micros"].clone();
//! assert_eq!(merged.count(), 3);
//! assert!(merged.p99() >= merged.p50());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod recorder;
mod registry;
mod snapshot;

pub use hist::{LogHistogram, BUCKETS};
pub use recorder::{FlightEvent, FlightEventKind, FlightRecorder};
pub use registry::{Counter, Gauge, Histogram, MetricsRegistry};
pub use snapshot::TelemetrySnapshot;

pub use teeve_types::clock::{duration_micros, unix_micros};
