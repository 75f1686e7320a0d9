//! The flight recorder: a bounded ring buffer of recent structured
//! events, for postmortems on fleets whose reconfiguration failed.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// What happened — the structured payload of one [`FlightEvent`].
///
/// Sites and revisions are raw integers so the recorder stays below
/// `teeve-types` in the crate graph; callers pass `SiteId::raw()` /
/// `SessionId::raw()` values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlightEventKind {
    /// A reconfigure was ordered (coordinator: fan-out size) or applied
    /// (node: `sites == 1`).
    Reconfigure {
        /// The plan revision being installed.
        revision: u64,
        /// How many sites the order fanned out to.
        sites: u64,
    },
    /// A site acknowledged a reconfigure revision.
    Ack {
        /// The acknowledging site.
        site: u32,
        /// The revision acknowledged.
        revision: u64,
    },
    /// A dissemination link came up.
    LinkUp {
        /// The forwarding (parent) side of the link.
        parent: u32,
        /// The receiving (child) side of the link.
        child: u32,
    },
    /// A dissemination link went down.
    LinkDown {
        /// The forwarding (parent) side of the link.
        parent: u32,
        /// The receiving (child) side of the link.
        child: u32,
    },
    /// A reconfigure failed after validation: the coordinator keeps its
    /// revision as the target and heals the fleet onto it on the next
    /// call.
    Poisoned {
        /// The revision whose installation failed.
        revision: u64,
        /// The failure, rendered for humans.
        detail: String,
    },
    /// The runtime's fallback gate forced a full overlay rebuild.
    RebuildGate {
        /// The epoch that tripped the gate.
        epoch: u64,
    },
    /// A stats report was lost — the RP was unreachable at harvest.
    StatsLost {
        /// The site whose report is missing.
        site: u32,
    },
    /// The coordinator control channel was lost. Recorded by an RP when
    /// its control reader dies, and by a coordinator detaching without
    /// shutting the fleet down.
    CoordinatorLost,
    /// A resync round opened: the coordinator began attaching to the
    /// fleet, or an RP answered an `Attach` while serving its
    /// last-applied table.
    ResyncStart,
    /// A resync round closed: every RP replied and the coordinator
    /// re-dictated `revision` as a fresh ack barrier.
    ResyncComplete {
        /// How many sites replied before the barrier was re-dictated.
        sites: u64,
        /// The revision re-dictated as the post-resync barrier.
        revision: u64,
    },
    /// A reactor's event-loop pool started.
    ReactorStart {
        /// Event-loop threads in the pool.
        threads: u64,
    },
    /// A reactor's event-loop pool stopped (all loops joined).
    ReactorStop {
        /// Event-loop threads that were joined.
        threads: u64,
    },
    /// Free-form annotation.
    Note {
        /// The annotation text.
        text: String,
    },
}

/// One recorded event: a sequence number, a wall-clock timestamp, and
/// the structured [`FlightEventKind`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Position in the recorder's lifetime event stream (0-based,
    /// monotonically increasing even after older events are evicted).
    pub seq: u64,
    /// Microseconds since the Unix epoch when the event was recorded.
    pub at_micros: u64,
    /// What happened.
    pub kind: FlightEventKind,
}

#[derive(Debug)]
struct RecorderInner {
    capacity: usize,
    next_seq: AtomicU64,
    events: Mutex<VecDeque<FlightEvent>>,
}

/// A bounded ring buffer of recent [`FlightEvent`]s.
///
/// Cloning shares the buffer, so one recorder can be handed to a
/// coordinator, its links, and the runtime driving them. When full, the
/// oldest event is evicted; `seq` keeps counting, so a gap between the
/// first retained `seq` and 0 tells a postmortem how much history was
/// dropped.
///
/// # Examples
///
/// ```
/// use teeve_telemetry::{FlightEventKind, FlightRecorder};
///
/// let recorder = FlightRecorder::with_capacity(2);
/// recorder.record(FlightEventKind::Note { text: "a".into() });
/// recorder.record(FlightEventKind::Note { text: "b".into() });
/// recorder.record(FlightEventKind::Poisoned { revision: 9, detail: "ack lost".into() });
/// let events = recorder.events();
/// assert_eq!(events.len(), 2); // "a" was evicted
/// assert_eq!(events[1].seq, 2);
/// assert!(recorder.dump_json().unwrap().contains("ack lost"));
/// ```
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<RecorderInner>,
}

/// Default ring capacity: enough for the full lifecycle of a small
/// fleet without unbounded growth.
const DEFAULT_CAPACITY: usize = 256;

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder retaining the default number of recent events.
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder retaining at most `capacity` recent events (at least
    /// one).
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            inner: Arc::new(RecorderInner {
                capacity: capacity.max(1),
                next_seq: AtomicU64::new(0),
                events: Mutex::new(VecDeque::new()),
            }),
        }
    }

    /// Records one event, evicting the oldest if the ring is full.
    pub fn record(&self, kind: FlightEventKind) {
        let seq = self.inner.next_seq.fetch_add(1, Ordering::Relaxed);
        let event = FlightEvent {
            seq,
            at_micros: crate::unix_micros(),
            kind,
        };
        let mut events = self.inner.events.lock();
        if events.len() == self.inner.capacity {
            events.pop_front();
        }
        events.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        self.inner.events.lock().iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.events.lock().len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.inner.events.lock().is_empty()
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Total events ever recorded, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.inner.next_seq.load(Ordering::Relaxed)
    }

    /// Dumps the retained events as a JSON array, oldest first.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors (infallible for this data model).
    pub fn dump_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(&self.events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_keeps_seq() {
        let recorder = FlightRecorder::with_capacity(3);
        for i in 0..5u64 {
            recorder.record(FlightEventKind::Ack {
                site: i as u32,
                revision: i,
            });
        }
        let events = recorder.events();
        assert_eq!(events.len(), 3);
        assert_eq!(recorder.recorded(), 5);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn dump_roundtrips_through_json() {
        let recorder = FlightRecorder::new();
        recorder.record(FlightEventKind::Reconfigure {
            revision: 3,
            sites: 2,
        });
        recorder.record(FlightEventKind::LinkUp {
            parent: 0,
            child: 1,
        });
        recorder.record(FlightEventKind::Poisoned {
            revision: 4,
            detail: "site 1 went dark".into(),
        });
        let json = recorder.dump_json().unwrap();
        let back: Vec<FlightEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, recorder.events());
        assert!(json.contains("Poisoned"));
        assert!(json.contains("site 1 went dark"));
    }

    #[test]
    fn clones_share_the_ring() {
        let recorder = FlightRecorder::new();
        let clone = recorder.clone();
        clone.record(FlightEventKind::Note { text: "x".into() });
        assert_eq!(recorder.len(), 1);
    }
}
