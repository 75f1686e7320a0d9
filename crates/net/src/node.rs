//! One rendezvous point's protocol state: what an RP *is*, apart from
//! the event loop that hosts it.
//!
//! An RP is a revision-tagged [`ForwardingTable`] swapped wholesale by
//! `Reconfigure`, per-stream delivery accounting ([`NodeStats`]) reported
//! over the wire, and one rule for sizing the copies of a frame it
//! forwards ([`Relayed::copy_for`]). The [`reactor`](crate::reactor)
//! owns one of each per hosted node, lock-free on the node's loop, and
//! drives them from socket readiness; everything a coordinator does to a
//! node arrives as a [`wire`](crate::wire) message.

use std::collections::BTreeMap;

use teeve_pubsub::{ChildLink, SitePlan};
use teeve_telemetry::LogHistogram;
use teeve_types::{Quality, SiteId, StreamId};

use crate::wire::{frame_header, Message, StreamDelivery, FRAME_HEADER_LEN};

/// Microseconds since the Unix epoch: the capture/delivery timestamp base.
/// A wall clock (not a process-local [`std::time::Instant`]) so frames
/// published by one process measure sane latencies when delivered in
/// another. Delegates to the workspace's single sanctioned clock module.
pub(crate) use teeve_types::clock::unix_micros;

/// The node's forwarding state, tagged with the plan revision it belongs
/// to (matching `PlanDelta::from_revision`/`PlanDelta::to_revision`).
#[derive(Debug)]
pub(crate) struct ForwardingTable {
    pub(crate) revision: u64,
    pub(crate) plan: SitePlan,
}

impl ForwardingTable {
    /// An empty revision-0 table for `site` — every RP's boot state.
    pub(crate) fn empty(site: SiteId) -> ForwardingTable {
        ForwardingTable {
            revision: 0,
            plan: SitePlan {
                site,
                entries: Vec::new(),
            },
        }
    }
}

/// Child links and planned quality of `stream` under `plan`, borrowed
/// from the table (the absent-entry default is leaf-at-full, matching
/// the admission path).
pub(crate) fn plan_entry(plan: &SitePlan, stream: StreamId) -> (&[ChildLink], Quality) {
    plan.entry(stream)
        .map_or((&[][..], Quality::FULL), |e| (&e.children[..], e.quality))
}

/// One frame on its way through this RP: everything needed to address a
/// copy of it to each child except the payload bytes themselves.
///
/// A child's copy is degraded to the coarsest of the arriving tag, this
/// RP's effective rung, and the child's planned rung. Its payload is a
/// *prefix* of the arriving one, one halving per rung beyond the tag, so
/// every copy — at any rung — is `[its own header, payload[..n]]` over
/// the one payload allocation that arrived, and quality only ever
/// degrades along a path. The hop *into* a degraded receiver carries
/// exactly the degraded bytes: this is where the admission path's
/// per-site budget relief lands on the wire.
pub(crate) struct Relayed {
    pub(crate) stream: StreamId,
    pub(crate) seq: u64,
    pub(crate) captured_micros: u64,
    /// Length of the payload as it arrived.
    pub(crate) payload_len: usize,
    /// The rung the frame arrived tagged at.
    pub(crate) tagged: Quality,
    /// The coarser of `tagged` and this RP's planned rung.
    pub(crate) effective: Quality,
}

impl Relayed {
    /// `child`'s copy: its frame header, and how many leading payload
    /// bytes follow the header on the wire. Builds the header on the
    /// stack; allocates and copies nothing.
    pub(crate) fn copy_for(&self, child: &ChildLink) -> ([u8; FRAME_HEADER_LEN], usize) {
        let rung = self.effective.max(child.quality);
        let extra = Quality::new((rung.rung() - self.tagged.rung()) as u8);
        let len = extra.scaled_len(self.payload_len);
        let header = frame_header(self.stream, rung, self.seq, self.captured_micros, len);
        (header, len)
    }
}

/// One stream's local delivery accounting at this RP.
#[derive(Debug, Default, Clone)]
struct StreamStats {
    /// Frames delivered.
    delivered: u64,
    /// Frames whose effective rung — the coarser of the wire tag and
    /// this RP's planned quality — was below full.
    degraded: u64,
    /// Sum of observed end-to-end latencies, microseconds.
    latency_sum_micros: u64,
    /// Full end-to-end latency distribution, microseconds.
    latency: LogHistogram,
}

/// The node's local delivery counters, reported over the wire — the
/// total alone in [`Message::Delivered`], everything in
/// [`Message::StatsReport`] — so no memory is shared with the
/// coordinator, and none with other threads: the node's event loop owns
/// them.
#[derive(Debug, Default)]
pub(crate) struct NodeStats {
    /// Per-stream delivery accounting at this site.
    delivered: BTreeMap<StreamId, StreamStats>,
    total: u64,
    max_latency_micros: u64,
}

impl NodeStats {
    pub(crate) fn record(&mut self, stream: StreamId, latency_micros: u64, degraded: bool) {
        let entry = self.delivered.entry(stream).or_default();
        entry.delivered += 1;
        entry.degraded += u64::from(degraded);
        entry.latency_sum_micros += latency_micros;
        entry.latency.record(latency_micros);
        self.total += 1;
        self.max_latency_micros = self.max_latency_micros.max(latency_micros);
    }

    /// Frames delivered at this site so far.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// The full per-stream report: every stream's counters and latency
    /// histogram, cloned. Only a `full` request pays for it.
    pub(crate) fn report(&self, probe: u64) -> Message {
        let streams = self
            .delivered
            .iter()
            .map(|(&stream, stats)| StreamDelivery {
                stream,
                delivered: stats.delivered,
                delivered_degraded: stats.degraded,
                latency_sum_micros: stats.latency_sum_micros,
                latency: stats.latency.clone(),
            })
            .collect();
        Message::StatsReport {
            probe,
            total: self.total,
            max_latency_micros: self.max_latency_micros,
            streams,
        }
    }
}

// A node's lifecycle and addressing, seen the only way a caller can:
// through the handle of a node bound on a reactor.
#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpStream;
    use std::time::Duration;

    use crate::reactor::Reactor;

    #[test]
    fn socket_connection_accepted_after_stop_is_dropped_not_served() {
        let reactor = Reactor::new(1).expect("reactor starts");
        let node = reactor.bind_node(SiteId::new(0)).expect("bind");
        let addr = node.addr();
        node.stop();
        node.join();

        // The node is gone, and its listener with it: a dial now is
        // refused, or — had it raced into the accept backlog — reset.
        // Either way nobody serves it.
        if let Ok(mut racer) = TcpStream::connect(addr) {
            racer.set_read_timeout(Some(Duration::from_secs(5))).ok();
            let mut scratch = [0u8; 8];
            match racer.read(&mut scratch) {
                Ok(0) | Err(_) => {}
                Ok(n) => panic!("dropped connection delivered {n} bytes"),
            }
        }
    }

    #[test]
    fn advertised_address_overrides_the_bound_one() {
        let reactor = Reactor::new(1).expect("reactor starts");
        let loopback = "127.0.0.1:0".parse().expect("addr");
        // Bind loopback, advertise a different loopback IP with port 0:
        // the advertised IP is reported verbatim and the port is
        // substituted with the one actually bound. (No connection is
        // made; this only exercises address bookkeeping.)
        let node = reactor
            .bind_node_at(
                SiteId::new(1),
                loopback,
                Some("127.0.0.2:0".parse().expect("addr")),
            )
            .expect("bind");
        assert_eq!(node.addr().ip().to_string(), "127.0.0.2");
        assert_ne!(node.addr().port(), 0, "port 0 must be substituted");

        // An explicit advertised port is kept as-is.
        let node = reactor
            .bind_node_at(
                SiteId::new(2),
                loopback,
                Some("10.1.2.3:4567".parse().expect("addr")),
            )
            .expect("bind");
        assert_eq!(node.addr().to_string(), "10.1.2.3:4567");

        // No advertise override: the bound address is reported, which
        // is all `bind_node` is.
        let node = reactor.bind_node(SiteId::new(3)).expect("bind");
        assert_eq!(node.addr().ip().to_string(), "127.0.0.1");
        assert_ne!(node.addr().port(), 0);
    }

    #[test]
    fn unix_micros_is_monotonic_enough() {
        let a = unix_micros();
        let b = unix_micros();
        assert!(b >= a || a - b < 1_000, "wall clock moved wildly backward");
    }
}
