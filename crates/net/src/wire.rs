//! Wire protocol: length-prefixed binary framing for RP-to-RP links and
//! the coordinator control plane.
//!
//! Every message is `[u32 LE length][u8 tag][body…]` where `length` counts
//! the tag and body. Integers are little-endian. The codec is incremental:
//! feed bytes as they arrive, decode complete messages as they become
//! available.
//!
//! Since the process-separable RP redesign, *every* coordinator action is
//! a message on this protocol — there is no shared-memory side channel:
//!
//! * link lifecycle: [`Message::OpenLink`]/[`Message::CloseLink`] orders
//!   (the RP dials or write-shuts its own sockets) answered by
//!   [`Message::LinkUp`]/[`Message::LinkDown`] notifications from the
//!   receiving side;
//! * frame injection: [`Message::Publish`] orders executed by origin RPs,
//!   acknowledged with [`Message::BatchDone`];
//! * delivery accounting: [`Message::StatsRequest`] answered by
//!   [`Message::StatsReport`];
//! * coordinator recovery: [`Message::ResyncQuery`] answered by
//!   [`Message::ResyncReply`] on a freshly re-attached control channel;
//! * teardown: [`Message::Shutdown`].

use std::net::SocketAddr;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use teeve_pubsub::{ChildLink, ForwardingEntry, SitePlan};
use teeve_telemetry::{LogHistogram, BUCKETS};
use teeve_types::{Quality, SiteId, StreamId};

/// Maximum accepted message size (tag + body), guarding against corrupted
/// length prefixes: a 3DTI frame at the paper's raw rate is ≈1.5 MB, so
/// 8 MiB leaves ample headroom.
pub const MAX_MESSAGE_BYTES: usize = 8 * 1024 * 1024;

const TAG_HELLO: u8 = 1;
const TAG_FRAME: u8 = 2;
// Tag 3 (the retired per-connection `Bye`) stays unassigned: old peers
// sending it are dropped as unknown-tag violations, never misread.
const TAG_END: u8 = 4;
const TAG_RECONFIGURE: u8 = 5;
const TAG_ACK: u8 = 6;
const TAG_ATTACH: u8 = 7;
const TAG_OPEN_LINK: u8 = 8;
const TAG_CLOSE_LINK: u8 = 9;
const TAG_LINK_UP: u8 = 10;
const TAG_LINK_DOWN: u8 = 11;
const TAG_PUBLISH: u8 = 12;
const TAG_BATCH_DONE: u8 = 13;
const TAG_STATS_REQUEST: u8 = 14;
const TAG_STATS_REPORT: u8 = 15;
const TAG_SHUTDOWN: u8 = 16;
const TAG_RESYNC_QUERY: u8 = 17;
const TAG_RESYNC_REPLY: u8 = 18;

/// One stream's delivery counters at one RP, as carried by
/// [`Message::StatsReport`]. The reporting RP is identified by the control
/// channel the report arrives on, so entries only name the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamDelivery {
    /// The delivered stream.
    pub stream: StreamId,
    /// Frames of `stream` delivered at the reporting RP.
    pub delivered: u64,
    /// Frames of `delivered` that arrived below full quality (tagged
    /// with a rung > 0 by the degrade-don't-reject path).
    pub delivered_degraded: u64,
    /// Sum of observed end-to-end latencies, in microseconds.
    pub latency_sum_micros: u64,
    /// The full end-to-end latency *distribution* at this RP, in
    /// microseconds. Carried sparsely on the wire (non-empty buckets
    /// only) and merged losslessly coordinator-side, so cluster-wide
    /// p50/p99 are true percentiles, not sum/count approximations.
    pub latency: LogHistogram,
}

/// A protocol message between rendezvous points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Connection preamble: identifies the connecting (upstream) RP.
    Hello {
        /// The connecting site.
        site: SiteId,
    },
    /// One 3D video frame travelling down a multicast tree.
    Frame {
        /// The stream the frame belongs to.
        stream: StreamId,
        /// The quality rung the frame is carried at. Relays forward at
        /// the coarser of this tag and their own planned rung, sizing
        /// the payload down accordingly, so quality only ever degrades
        /// along a path.
        quality: Quality,
        /// Frame sequence number at the origin.
        seq: u64,
        /// Capture timestamp, microseconds since the cluster epoch.
        captured_micros: u64,
        /// Frame payload (synthetic 3D data).
        payload: Bytes,
    },
    /// End of one stream: the sender will never transmit another frame of
    /// `stream` on this connection. Cascades along the stream's multicast
    /// tree, which is acyclic — unlike the site-level connection graph, so
    /// per-stream termination cannot deadlock where a per-connection
    /// handshake would.
    End {
        /// The finished stream.
        stream: StreamId,
    },
    /// Control-plane order from the coordinator: replace the receiving
    /// RP's forwarding table with `site_plan`, which belongs to plan
    /// revision `revision`. The RP answers with [`Ack`](Self::Ack) once
    /// the table is swapped, marking its epoch boundary.
    Reconfigure {
        /// The plan revision the new table belongs to.
        revision: u64,
        /// The RP's complete forwarding state under the new revision.
        site_plan: SitePlan,
    },
    /// Epoch-boundary acknowledgement: the sending RP now forwards under
    /// `revision` and will never again emit a frame routed by an older
    /// table.
    Ack {
        /// The revision the RP switched to.
        revision: u64,
    },
    /// Coordinator preamble: marks this connection as the RP's control
    /// channel. All RP-originated control traffic ([`LinkUp`](Self::LinkUp),
    /// [`LinkDown`](Self::LinkDown), [`Ack`](Self::Ack),
    /// [`BatchDone`](Self::BatchDone), [`StatsReport`](Self::StatsReport))
    /// is sent on the most recently attached connection.
    Attach,
    /// Coordinator order: dial `addr`, open with the `Hello` preamble, and
    /// register the connection as the data link to `child`. The receiving
    /// RP owns the socket; the coordinator learns the outcome from the
    /// child's [`LinkUp`](Self::LinkUp).
    OpenLink {
        /// The downstream RP to connect to.
        child: SiteId,
        /// The child's listener address.
        addr: SocketAddr,
    },
    /// Coordinator order: write-shut and drop the data link to `child`.
    /// The child observes the disconnect and reports
    /// [`LinkDown`](Self::LinkDown).
    CloseLink {
        /// The downstream RP to disconnect from.
        child: SiteId,
    },
    /// Control notification from an RP: an inbound data connection
    /// attributed itself (via `Hello`) to `peer`. Replaces the old
    /// coordinator's shared-memory poll of the RP's inbound set.
    LinkUp {
        /// The upstream RP that connected.
        peer: SiteId,
    },
    /// Control notification from an RP: the inbound data connection from
    /// `peer` disconnected.
    LinkDown {
        /// The upstream RP that disconnected.
        peer: SiteId,
    },
    /// Coordinator order to an origin RP: inject `frames` synthetic frames
    /// of `stream` (sequence numbers `base_seq..base_seq + frames`) into
    /// the overlay, pacing by `interval_micros` when nonzero. Answered
    /// with [`BatchDone`](Self::BatchDone) once the last frame is sent.
    Publish {
        /// The stream to publish; the receiving RP must originate it.
        stream: StreamId,
        /// First sequence number of the batch.
        base_seq: u64,
        /// Number of frames to publish.
        frames: u64,
        /// Synthetic payload size per frame, in bytes.
        payload_bytes: u32,
        /// Pause between frames in microseconds (0 = unpaced).
        interval_micros: u64,
    },
    /// Origin RP acknowledgement: every frame of the
    /// [`Publish`](Self::Publish) batch ending at `next_seq` has been
    /// forwarded to the stream's children.
    BatchDone {
        /// The published stream.
        stream: StreamId,
        /// One past the last published sequence number.
        next_seq: u64,
    },
    /// Coordinator probe: report current delivery counters. `probe`
    /// correlates request and response on the control channel.
    StatsRequest {
        /// Caller-chosen correlation token, echoed by the report.
        probe: u64,
    },
    /// RP response to [`StatsRequest`](Self::StatsRequest): the RP's
    /// complete delivery accounting so far. Replaces the old shared
    /// in-memory `Stats`; the coordinator folds these into its
    /// cluster-wide report.
    StatsReport {
        /// The echoed correlation token.
        probe: u64,
        /// Total frames delivered at this RP.
        total: u64,
        /// Worst observed end-to-end latency in microseconds.
        max_latency_micros: u64,
        /// Per-stream delivery counters.
        streams: Vec<StreamDelivery>,
    },
    /// Reconnected-coordinator probe: describe your current forwarding
    /// state. Sent on a freshly re-attached control channel after a
    /// coordinator restart; `probe` correlates request and reply so a
    /// straggler from an aborted resync round is discarded.
    ResyncQuery {
        /// Caller-chosen correlation token, echoed by the reply.
        probe: u64,
    },
    /// RP response to [`ResyncQuery`](Self::ResyncQuery): the revision
    /// of the RP's last-applied forwarding table and the upstream peers
    /// currently attributed to its inbound links. A reply describes the
    /// RP only at the moment it was sent — a backlog `Reconfigure` may
    /// land after it — so the coordinator must close the round with a
    /// re-dictation barrier rather than trusting replies outright.
    ResyncReply {
        /// The echoed correlation token.
        probe: u64,
        /// Revision of the RP's last-applied forwarding table.
        revision: u64,
        /// Upstream sites with live inbound data connections.
        inbound: Vec<SiteId>,
    },
    /// Coordinator order: cascade `End` markers for locally originated
    /// streams, write-shut every outbound link, and exit. The terminal
    /// message of an RP's lifecycle.
    Shutdown,
}

/// Error produced while decoding a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeded [`MAX_MESSAGE_BYTES`].
    Oversized {
        /// The claimed message size.
        claimed: usize,
    },
    /// The message tag is unknown.
    UnknownTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// The message body was shorter than its fields require.
    Truncated,
    /// An `OpenLink` carried a byte sequence that does not parse as a
    /// socket address.
    BadAddress,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Oversized { claimed } => {
                write!(f, "message of {claimed} bytes exceeds limit")
            }
            WireError::UnknownTag { tag } => write!(f, "unknown message tag {tag}"),
            WireError::Truncated => write!(f, "message body truncated"),
            WireError::BadAddress => write!(f, "unparseable socket address"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes `message` onto the end of `dst`.
pub fn encode(message: &Message, dst: &mut BytesMut) {
    match message {
        Message::Hello { site } => {
            dst.put_u32_le(1 + 4);
            dst.put_u8(TAG_HELLO);
            dst.put_u32_le(site.index() as u32);
        }
        Message::Frame {
            stream,
            quality,
            seq,
            captured_micros,
            payload,
        } => {
            let body = 1 + 4 + 4 + 1 + 8 + 8 + 4 + payload.len();
            dst.put_u32_le(body as u32);
            dst.put_u8(TAG_FRAME);
            dst.put_u32_le(stream.origin().index() as u32);
            dst.put_u32_le(stream.local_index());
            dst.put_u8(quality.rung() as u8);
            dst.put_u64_le(*seq);
            dst.put_u64_le(*captured_micros);
            dst.put_u32_le(payload.len() as u32);
            dst.put_slice(payload);
        }
        Message::End { stream } => {
            dst.put_u32_le(1 + 4 + 4);
            dst.put_u8(TAG_END);
            dst.put_u32_le(stream.origin().index() as u32);
            dst.put_u32_le(stream.local_index());
        }
        Message::Reconfigure {
            revision,
            site_plan,
        } => {
            let body = 1 + 8 + site_plan_bytes(site_plan);
            dst.put_u32_le(body as u32);
            dst.put_u8(TAG_RECONFIGURE);
            dst.put_u64_le(*revision);
            encode_site_plan(site_plan, dst);
        }
        Message::Ack { revision } => {
            dst.put_u32_le(1 + 8);
            dst.put_u8(TAG_ACK);
            dst.put_u64_le(*revision);
        }
        Message::Attach => {
            dst.put_u32_le(1);
            dst.put_u8(TAG_ATTACH);
        }
        Message::OpenLink { child, addr } => {
            let text = addr.to_string();
            dst.put_u32_le((1 + 4 + 4 + text.len()) as u32);
            dst.put_u8(TAG_OPEN_LINK);
            dst.put_u32_le(child.index() as u32);
            dst.put_u32_le(text.len() as u32);
            dst.put_slice(text.as_bytes());
        }
        Message::CloseLink { child } => {
            dst.put_u32_le(1 + 4);
            dst.put_u8(TAG_CLOSE_LINK);
            dst.put_u32_le(child.index() as u32);
        }
        Message::LinkUp { peer } => {
            dst.put_u32_le(1 + 4);
            dst.put_u8(TAG_LINK_UP);
            dst.put_u32_le(peer.index() as u32);
        }
        Message::LinkDown { peer } => {
            dst.put_u32_le(1 + 4);
            dst.put_u8(TAG_LINK_DOWN);
            dst.put_u32_le(peer.index() as u32);
        }
        Message::Publish {
            stream,
            base_seq,
            frames,
            payload_bytes,
            interval_micros,
        } => {
            dst.put_u32_le(1 + 4 + 4 + 8 + 8 + 4 + 8);
            dst.put_u8(TAG_PUBLISH);
            dst.put_u32_le(stream.origin().index() as u32);
            dst.put_u32_le(stream.local_index());
            dst.put_u64_le(*base_seq);
            dst.put_u64_le(*frames);
            dst.put_u32_le(*payload_bytes);
            dst.put_u64_le(*interval_micros);
        }
        Message::BatchDone { stream, next_seq } => {
            dst.put_u32_le(1 + 4 + 4 + 8);
            dst.put_u8(TAG_BATCH_DONE);
            dst.put_u32_le(stream.origin().index() as u32);
            dst.put_u32_le(stream.local_index());
            dst.put_u64_le(*next_seq);
        }
        Message::StatsRequest { probe } => {
            dst.put_u32_le(1 + 8);
            dst.put_u8(TAG_STATS_REQUEST);
            dst.put_u64_le(*probe);
        }
        Message::StatsReport {
            probe,
            total,
            max_latency_micros,
            streams,
        } => {
            let body = 1 + 8 + 8 + 8 + 4 + streams.iter().map(delivery_bytes).sum::<usize>();
            dst.put_u32_le(body as u32);
            dst.put_u8(TAG_STATS_REPORT);
            dst.put_u64_le(*probe);
            dst.put_u64_le(*total);
            dst.put_u64_le(*max_latency_micros);
            dst.put_u32_le(streams.len() as u32);
            for entry in streams {
                dst.put_u32_le(entry.stream.origin().index() as u32);
                dst.put_u32_le(entry.stream.local_index());
                dst.put_u64_le(entry.delivered);
                dst.put_u64_le(entry.delivered_degraded);
                dst.put_u64_le(entry.latency_sum_micros);
                // The latency histogram travels sparsely: its exact
                // sum/min/max sidecar, then only the non-empty buckets.
                dst.put_u64_le(entry.latency.sum());
                dst.put_u64_le(entry.latency.min());
                dst.put_u64_le(entry.latency.max());
                let pairs: Vec<(u8, u64)> = entry.latency.nonzero_buckets().collect();
                dst.put_u8(pairs.len() as u8);
                for (index, count) in pairs {
                    dst.put_u8(index);
                    dst.put_u64_le(count);
                }
            }
        }
        Message::ResyncQuery { probe } => {
            dst.put_u32_le(1 + 8);
            dst.put_u8(TAG_RESYNC_QUERY);
            dst.put_u64_le(*probe);
        }
        Message::ResyncReply {
            probe,
            revision,
            inbound,
        } => {
            dst.put_u32_le((1 + 8 + 8 + 4 + 4 * inbound.len()) as u32);
            dst.put_u8(TAG_RESYNC_REPLY);
            dst.put_u64_le(*probe);
            dst.put_u64_le(*revision);
            dst.put_u32_le(inbound.len() as u32);
            for peer in inbound {
                dst.put_u32_le(peer.index() as u32);
            }
        }
        Message::Shutdown => {
            dst.put_u32_le(1);
            dst.put_u8(TAG_SHUTDOWN);
        }
    }
}

/// Encoded size of one [`StreamDelivery`] entry: the fixed counters,
/// the histogram's sum/min/max sidecar, and its sparse bucket pairs —
/// entries are variable-width, so the decoder bounds-checks per entry.
fn delivery_bytes(entry: &StreamDelivery) -> usize {
    let nonzero = entry.latency.nonzero_buckets().count();
    4 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 1 + nonzero * (1 + 8)
}

/// Encoded size of a [`SitePlan`] body, in bytes.
fn site_plan_bytes(site_plan: &SitePlan) -> usize {
    // site + entry count, then per entry: stream (origin + local) +
    // parent flag/value + quality rung + child count + children.
    4 + 4
        + site_plan
            .entries
            .iter()
            .map(|e| 4 + 4 + 1 + 4 + 1 + 4 + 5 * e.children.len())
            .sum::<usize>()
}

/// Encodes a forwarding table: `[site][entry count]` then per entry
/// `[stream origin][stream local][parent flag + site][quality rung]`
/// `[child count][children…]`. A missing parent (the RP originates the
/// stream) is flag 0 with a zero placeholder, keeping every entry
/// fixed-width up to its child list.
fn encode_site_plan(site_plan: &SitePlan, dst: &mut BytesMut) {
    dst.put_u32_le(site_plan.site.index() as u32);
    dst.put_u32_le(site_plan.entries.len() as u32);
    for entry in &site_plan.entries {
        dst.put_u32_le(entry.stream.origin().index() as u32);
        dst.put_u32_le(entry.stream.local_index());
        match entry.parent {
            Some(parent) => {
                dst.put_u8(1);
                dst.put_u32_le(parent.index() as u32);
            }
            None => {
                dst.put_u8(0);
                dst.put_u32_le(0);
            }
        }
        dst.put_u8(entry.quality.rung() as u8);
        dst.put_u32_le(entry.children.len() as u32);
        for child in &entry.children {
            dst.put_u32_le(child.site.index() as u32);
            dst.put_u8(child.quality.rung() as u8);
        }
    }
}

/// Decodes the [`SitePlan`] body of a `Reconfigure`.
fn decode_site_plan(body: &mut BytesMut) -> Result<SitePlan, WireError> {
    if body.len() < 8 {
        return Err(WireError::Truncated);
    }
    let site = SiteId::new(body.get_u32_le());
    let entry_count = body.get_u32_le() as usize;
    let mut entries = Vec::with_capacity(entry_count.min(1024));
    for _ in 0..entry_count {
        if body.len() < 4 + 4 + 1 + 4 + 1 + 4 {
            return Err(WireError::Truncated);
        }
        let origin = SiteId::new(body.get_u32_le());
        let local = body.get_u32_le();
        let has_parent = body.get_u8() != 0;
        let parent_raw = body.get_u32_le();
        let parent = has_parent.then(|| SiteId::new(parent_raw));
        let quality = Quality::new(body.get_u8());
        let child_count = body.get_u32_le() as usize;
        // checked_mul: a corrupt count must not wrap the bounds check on
        // 32-bit targets and drive the reads past the buffer.
        if child_count
            .checked_mul(5)
            .is_none_or(|need| body.len() < need)
        {
            return Err(WireError::Truncated);
        }
        let mut children = Vec::with_capacity(child_count);
        for _ in 0..child_count {
            let site = SiteId::new(body.get_u32_le());
            let quality = Quality::new(body.get_u8());
            children.push(ChildLink { site, quality });
        }
        entries.push(ForwardingEntry {
            stream: StreamId::new(origin, local),
            parent,
            children,
            quality,
        });
    }
    Ok(SitePlan { site, entries })
}

/// Attempts to decode one complete message from the front of `src`.
///
/// Returns `Ok(None)` when more bytes are needed; consumed bytes are
/// removed from `src` only when a full message was decoded.
///
/// # Errors
///
/// Returns an error on oversized lengths, unknown tags, or truncated
/// bodies (the connection should then be dropped).
pub fn decode(src: &mut BytesMut) -> Result<Option<Message>, WireError> {
    if src.len() < 4 {
        return Ok(None);
    }
    let length = u32::from_le_bytes([src[0], src[1], src[2], src[3]]) as usize;
    if length > MAX_MESSAGE_BYTES {
        return Err(WireError::Oversized { claimed: length });
    }
    if src.len() < 4 + length {
        return Ok(None);
    }
    src.advance(4);
    let mut body = src.split_to(length);
    if body.is_empty() {
        return Err(WireError::Truncated);
    }
    let tag = body.get_u8();
    match tag {
        TAG_HELLO => {
            if body.len() < 4 {
                return Err(WireError::Truncated);
            }
            let site = SiteId::new(body.get_u32_le());
            Ok(Some(Message::Hello { site }))
        }
        TAG_FRAME => {
            if body.len() < 4 + 4 + 1 + 8 + 8 + 4 {
                return Err(WireError::Truncated);
            }
            let origin = SiteId::new(body.get_u32_le());
            let local = body.get_u32_le();
            let quality = Quality::new(body.get_u8());
            let seq = body.get_u64_le();
            let captured_micros = body.get_u64_le();
            let payload_len = body.get_u32_le() as usize;
            if body.len() < payload_len {
                return Err(WireError::Truncated);
            }
            let payload = body.split_to(payload_len).freeze();
            Ok(Some(Message::Frame {
                stream: StreamId::new(origin, local),
                quality,
                seq,
                captured_micros,
                payload,
            }))
        }
        TAG_RECONFIGURE => {
            if body.len() < 8 {
                return Err(WireError::Truncated);
            }
            let revision = body.get_u64_le();
            let site_plan = decode_site_plan(&mut body)?;
            Ok(Some(Message::Reconfigure {
                revision,
                site_plan,
            }))
        }
        TAG_ACK => {
            if body.len() < 8 {
                return Err(WireError::Truncated);
            }
            Ok(Some(Message::Ack {
                revision: body.get_u64_le(),
            }))
        }
        TAG_END => {
            if body.len() < 8 {
                return Err(WireError::Truncated);
            }
            let origin = SiteId::new(body.get_u32_le());
            let local = body.get_u32_le();
            Ok(Some(Message::End {
                stream: StreamId::new(origin, local),
            }))
        }
        TAG_ATTACH => Ok(Some(Message::Attach)),
        TAG_OPEN_LINK => {
            if body.len() < 4 + 4 {
                return Err(WireError::Truncated);
            }
            let child = SiteId::new(body.get_u32_le());
            let addr_len = body.get_u32_le() as usize;
            if body.len() < addr_len {
                return Err(WireError::Truncated);
            }
            let text = body.split_to(addr_len);
            let addr = std::str::from_utf8(&text)
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or(WireError::BadAddress)?;
            Ok(Some(Message::OpenLink { child, addr }))
        }
        TAG_CLOSE_LINK => {
            if body.len() < 4 {
                return Err(WireError::Truncated);
            }
            Ok(Some(Message::CloseLink {
                child: SiteId::new(body.get_u32_le()),
            }))
        }
        TAG_LINK_UP => {
            if body.len() < 4 {
                return Err(WireError::Truncated);
            }
            Ok(Some(Message::LinkUp {
                peer: SiteId::new(body.get_u32_le()),
            }))
        }
        TAG_LINK_DOWN => {
            if body.len() < 4 {
                return Err(WireError::Truncated);
            }
            Ok(Some(Message::LinkDown {
                peer: SiteId::new(body.get_u32_le()),
            }))
        }
        TAG_PUBLISH => {
            if body.len() < 4 + 4 + 8 + 8 + 4 + 8 {
                return Err(WireError::Truncated);
            }
            let origin = SiteId::new(body.get_u32_le());
            let local = body.get_u32_le();
            Ok(Some(Message::Publish {
                stream: StreamId::new(origin, local),
                base_seq: body.get_u64_le(),
                frames: body.get_u64_le(),
                payload_bytes: body.get_u32_le(),
                interval_micros: body.get_u64_le(),
            }))
        }
        TAG_BATCH_DONE => {
            if body.len() < 4 + 4 + 8 {
                return Err(WireError::Truncated);
            }
            let origin = SiteId::new(body.get_u32_le());
            let local = body.get_u32_le();
            Ok(Some(Message::BatchDone {
                stream: StreamId::new(origin, local),
                next_seq: body.get_u64_le(),
            }))
        }
        TAG_STATS_REQUEST => {
            if body.len() < 8 {
                return Err(WireError::Truncated);
            }
            Ok(Some(Message::StatsRequest {
                probe: body.get_u64_le(),
            }))
        }
        TAG_STATS_REPORT => {
            if body.len() < 8 + 8 + 8 + 4 {
                return Err(WireError::Truncated);
            }
            let probe = body.get_u64_le();
            let total = body.get_u64_le();
            let max_latency_micros = body.get_u64_le();
            let count = body.get_u32_le() as usize;
            let mut streams = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                // Entries are variable-width (sparse histogram tail), so
                // each one is bounds-checked as it is read.
                if body.len() < 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 1 {
                    return Err(WireError::Truncated);
                }
                let origin = SiteId::new(body.get_u32_le());
                let local = body.get_u32_le();
                let delivered = body.get_u64_le();
                let delivered_degraded = body.get_u64_le();
                let latency_sum_micros = body.get_u64_le();
                let hist_sum = body.get_u64_le();
                let hist_min = body.get_u64_le();
                let hist_max = body.get_u64_le();
                let nonzero = body.get_u8() as usize;
                if nonzero > BUCKETS || body.len() < nonzero * (1 + 8) {
                    return Err(WireError::Truncated);
                }
                let mut pairs = Vec::with_capacity(nonzero);
                for _ in 0..nonzero {
                    let index = body.get_u8();
                    let bucket_count = body.get_u64_le();
                    pairs.push((index, bucket_count));
                }
                let latency = LogHistogram::from_parts(&pairs, hist_sum, hist_min, hist_max)
                    .ok_or(WireError::Truncated)?;
                streams.push(StreamDelivery {
                    stream: StreamId::new(origin, local),
                    delivered,
                    delivered_degraded,
                    latency_sum_micros,
                    latency,
                });
            }
            Ok(Some(Message::StatsReport {
                probe,
                total,
                max_latency_micros,
                streams,
            }))
        }
        TAG_RESYNC_QUERY => {
            if body.len() < 8 {
                return Err(WireError::Truncated);
            }
            Ok(Some(Message::ResyncQuery {
                probe: body.get_u64_le(),
            }))
        }
        TAG_RESYNC_REPLY => {
            if body.len() < 8 + 8 + 4 {
                return Err(WireError::Truncated);
            }
            let probe = body.get_u64_le();
            let revision = body.get_u64_le();
            let count = body.get_u32_le() as usize;
            // checked_mul: a corrupt count must not wrap the bounds check
            // on 32-bit targets and drive the reads past the buffer.
            if count.checked_mul(4).is_none_or(|need| body.len() < need) {
                return Err(WireError::Truncated);
            }
            let mut inbound = Vec::with_capacity(count);
            for _ in 0..count {
                inbound.push(SiteId::new(body.get_u32_le()));
            }
            Ok(Some(Message::ResyncReply {
                probe,
                revision,
                inbound,
            }))
        }
        TAG_SHUTDOWN => Ok(Some(Message::Shutdown)),
        other => Err(WireError::UnknownTag { tag: other }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let mut buf = BytesMut::new();
        encode(&msg, &mut buf);
        let decoded = decode(&mut buf).expect("decodes").expect("complete");
        assert_eq!(decoded, msg);
        assert!(buf.is_empty(), "decoder must consume the full message");
    }

    #[test]
    fn hello_roundtrip() {
        roundtrip(Message::Hello {
            site: SiteId::new(7),
        });
    }

    #[test]
    fn end_roundtrip() {
        roundtrip(Message::End {
            stream: StreamId::new(SiteId::new(3), 11),
        });
    }

    #[test]
    fn ack_roundtrip() {
        roundtrip(Message::Ack {
            revision: u64::MAX - 3,
        });
    }

    #[test]
    fn reconfigure_roundtrip() {
        roundtrip(Message::Reconfigure {
            revision: 17,
            site_plan: SitePlan {
                site: SiteId::new(2),
                entries: vec![
                    ForwardingEntry {
                        stream: StreamId::new(SiteId::new(0), 1),
                        parent: Some(SiteId::new(0)),
                        children: vec![
                            ChildLink {
                                site: SiteId::new(1),
                                quality: Quality::new(1),
                            },
                            ChildLink::full(SiteId::new(3)),
                        ],
                        quality: Quality::new(2),
                    },
                    ForwardingEntry {
                        stream: StreamId::new(SiteId::new(2), 0),
                        parent: None,
                        children: vec![ChildLink::full(SiteId::new(0))],
                        quality: Quality::FULL,
                    },
                ],
            },
        });
    }

    #[test]
    fn empty_table_reconfigure_roundtrip() {
        roundtrip(Message::Reconfigure {
            revision: 0,
            site_plan: SitePlan {
                site: SiteId::new(9),
                entries: Vec::new(),
            },
        });
    }

    #[test]
    fn truncated_reconfigure_child_list_is_rejected() {
        let mut buf = BytesMut::new();
        // Revision + site + one entry claiming two children but carrying
        // none.
        let body_len = 1 + 8 + 4 + 4 + (4 + 4 + 1 + 4 + 1 + 4);
        buf.put_u32_le(body_len as u32);
        buf.put_u8(TAG_RECONFIGURE);
        buf.put_u64_le(3); // revision
        buf.put_u32_le(1); // site
        buf.put_u32_le(1); // entry count
        buf.put_u32_le(0); // stream origin
        buf.put_u32_le(0); // stream local
        buf.put_u8(1); // has parent
        buf.put_u32_le(0); // parent
        buf.put_u8(0); // quality rung
        buf.put_u32_le(2); // two children claimed, zero present
        assert_eq!(decode(&mut buf), Err(WireError::Truncated));
    }

    #[test]
    fn truncated_ack_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(5);
        buf.put_u8(TAG_ACK);
        buf.put_u32_le(0); // u64 revision missing its upper half
        assert_eq!(decode(&mut buf), Err(WireError::Truncated));
    }

    #[test]
    fn truncated_end_body_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(5);
        buf.put_u8(TAG_END);
        buf.put_u32_le(0); // missing the local index
        assert_eq!(decode(&mut buf), Err(WireError::Truncated));
    }

    #[test]
    fn frame_roundtrip() {
        roundtrip(Message::Frame {
            stream: StreamId::new(SiteId::new(2), 5),
            quality: Quality::new(1),
            seq: 42,
            captured_micros: 123_456_789,
            payload: Bytes::from_static(b"synthetic 3d points"),
        });
    }

    #[test]
    fn empty_payload_frame_roundtrip() {
        roundtrip(Message::Frame {
            stream: StreamId::new(SiteId::new(0), 0),
            quality: Quality::FULL,
            seq: 0,
            captured_micros: 0,
            payload: Bytes::new(),
        });
    }

    #[test]
    fn incremental_decoding_waits_for_full_message() {
        let mut full = BytesMut::new();
        encode(
            &Message::Frame {
                stream: StreamId::new(SiteId::new(1), 2),
                quality: Quality::FULL,
                seq: 9,
                captured_micros: 77,
                payload: Bytes::from_static(&[0xAB; 100]),
            },
            &mut full,
        );
        let mut partial = BytesMut::new();
        for (i, &b) in full.iter().enumerate() {
            partial.put_u8(b);
            let result = decode(&mut partial).expect("no error");
            if i + 1 < full.len() {
                assert!(result.is_none(), "decoded early at byte {i}");
            } else {
                assert!(result.is_some(), "failed to decode complete message");
            }
        }
    }

    #[test]
    fn multiple_messages_decode_in_order() {
        let mut buf = BytesMut::new();
        encode(
            &Message::Hello {
                site: SiteId::new(1),
            },
            &mut buf,
        );
        encode(&Message::Attach, &mut buf);
        assert_eq!(
            decode(&mut buf).unwrap(),
            Some(Message::Hello {
                site: SiteId::new(1)
            })
        );
        assert_eq!(decode(&mut buf).unwrap(), Some(Message::Attach));
        assert_eq!(decode(&mut buf).unwrap(), None);
    }

    #[test]
    fn oversized_length_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le((MAX_MESSAGE_BYTES + 1) as u32);
        buf.put_u8(TAG_HELLO);
        assert!(matches!(decode(&mut buf), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        // 3 is the retired `Bye` tag: unassigned for good.
        for tag in [0, 3, 99] {
            let mut buf = BytesMut::new();
            buf.put_u32_le(1);
            buf.put_u8(tag);
            assert_eq!(decode(&mut buf), Err(WireError::UnknownTag { tag }));
        }
    }

    #[test]
    fn truncated_frame_body_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(2);
        buf.put_u8(TAG_FRAME);
        buf.put_u8(0); // far too short for a frame header
        assert_eq!(decode(&mut buf), Err(WireError::Truncated));
    }

    #[test]
    fn control_plane_roundtrips() {
        roundtrip(Message::Attach);
        roundtrip(Message::Shutdown);
        roundtrip(Message::OpenLink {
            child: SiteId::new(4),
            addr: "127.0.0.1:45123".parse().unwrap(),
        });
        roundtrip(Message::OpenLink {
            child: SiteId::new(0),
            addr: "[::1]:9".parse().unwrap(),
        });
        roundtrip(Message::CloseLink {
            child: SiteId::new(1),
        });
        roundtrip(Message::LinkUp {
            peer: SiteId::new(2),
        });
        roundtrip(Message::LinkDown {
            peer: SiteId::new(3),
        });
        roundtrip(Message::Publish {
            stream: StreamId::new(SiteId::new(1), 2),
            base_seq: 77,
            frames: 12,
            payload_bytes: 4096,
            interval_micros: 5_000,
        });
        roundtrip(Message::BatchDone {
            stream: StreamId::new(SiteId::new(1), 2),
            next_seq: 89,
        });
        roundtrip(Message::StatsRequest { probe: 41 });
        roundtrip(Message::ResyncQuery { probe: 7 });
        roundtrip(Message::ResyncReply {
            probe: 7,
            revision: u64::MAX - 1,
            inbound: vec![SiteId::new(0), SiteId::new(3), SiteId::new(12)],
        });
        roundtrip(Message::ResyncReply {
            probe: 0,
            revision: 0,
            inbound: Vec::new(),
        });
        let mut spread = LogHistogram::new();
        for sample in [0u64, 130, 88_123, 88_123, u64::MAX] {
            spread.record(sample);
        }
        roundtrip(Message::StatsReport {
            probe: 41,
            total: 1_000_000,
            max_latency_micros: 88_123,
            streams: vec![
                StreamDelivery {
                    stream: StreamId::new(SiteId::new(0), 0),
                    delivered: 999_000,
                    delivered_degraded: 12,
                    latency_sum_micros: u64::MAX / 3,
                    latency: spread,
                },
                StreamDelivery {
                    stream: StreamId::new(SiteId::new(7), 3),
                    delivered: 1_000,
                    delivered_degraded: 1_000,
                    latency_sum_micros: 0,
                    latency: LogHistogram::new(),
                },
            ],
        });
        roundtrip(Message::StatsReport {
            probe: 0,
            total: 0,
            max_latency_micros: 0,
            streams: Vec::new(),
        });
    }

    #[test]
    fn malformed_open_link_address_is_rejected() {
        let text = b"not an address";
        let mut buf = BytesMut::new();
        buf.put_u32_le((1 + 4 + 4 + text.len()) as u32);
        buf.put_u8(TAG_OPEN_LINK);
        buf.put_u32_le(2);
        buf.put_u32_le(text.len() as u32);
        buf.put_slice(text);
        assert_eq!(decode(&mut buf), Err(WireError::BadAddress));
    }

    #[test]
    fn truncated_open_link_address_is_rejected() {
        let mut buf = BytesMut::new();
        // Claims a 20-byte address but the body carries none.
        buf.put_u32_le(1 + 4 + 4);
        buf.put_u8(TAG_OPEN_LINK);
        buf.put_u32_le(2);
        buf.put_u32_le(20);
        assert_eq!(decode(&mut buf), Err(WireError::Truncated));
    }

    #[test]
    fn truncated_stats_report_entries_are_rejected() {
        let mut buf = BytesMut::new();
        // Header claims two delivery entries, body carries none.
        buf.put_u32_le(1 + 8 + 8 + 8 + 4);
        buf.put_u8(TAG_STATS_REPORT);
        buf.put_u64_le(1); // probe
        buf.put_u64_le(10); // total
        buf.put_u64_le(5); // max latency
        buf.put_u32_le(2); // entry count
        assert_eq!(decode(&mut buf), Err(WireError::Truncated));
    }

    #[test]
    fn truncated_stats_report_histogram_tail_is_rejected() {
        let mut buf = BytesMut::new();
        // One entry whose histogram claims three bucket pairs but the
        // body ends after the pair count.
        let entry_fixed = 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 1;
        buf.put_u32_le((1 + 8 + 8 + 8 + 4 + entry_fixed) as u32);
        buf.put_u8(TAG_STATS_REPORT);
        buf.put_u64_le(1); // probe
        buf.put_u64_le(10); // total
        buf.put_u64_le(5); // max latency
        buf.put_u32_le(1); // entry count
        buf.put_u32_le(0); // stream origin
        buf.put_u32_le(0); // stream local
        buf.put_u64_le(10); // delivered
        buf.put_u64_le(0); // degraded
        buf.put_u64_le(50); // latency sum
        buf.put_u64_le(50); // hist sum
        buf.put_u64_le(1); // hist min
        buf.put_u64_le(9); // hist max
        buf.put_u8(3); // three pairs claimed, zero present
        assert_eq!(decode(&mut buf), Err(WireError::Truncated));
    }

    #[test]
    fn out_of_range_histogram_bucket_is_rejected() {
        let mut buf = BytesMut::new();
        // One entry carrying a single bucket pair with index 65 — past
        // the last valid log2 bucket (64).
        let entry = 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 1 + (1 + 8);
        buf.put_u32_le((1 + 8 + 8 + 8 + 4 + entry) as u32);
        buf.put_u8(TAG_STATS_REPORT);
        buf.put_u64_le(1); // probe
        buf.put_u64_le(10); // total
        buf.put_u64_le(5); // max latency
        buf.put_u32_le(1); // entry count
        buf.put_u32_le(0); // stream origin
        buf.put_u32_le(0); // stream local
        buf.put_u64_le(10); // delivered
        buf.put_u64_le(0); // degraded
        buf.put_u64_le(50); // latency sum
        buf.put_u64_le(50); // hist sum
        buf.put_u64_le(1); // hist min
        buf.put_u64_le(9); // hist max
        buf.put_u8(1); // one pair
        buf.put_u8(65); // invalid bucket index
        buf.put_u64_le(1);
        assert_eq!(decode(&mut buf), Err(WireError::Truncated));
    }

    #[test]
    fn truncated_resync_reply_inbound_list_is_rejected() {
        let mut buf = BytesMut::new();
        // Header claims three inbound peers, body carries one.
        buf.put_u32_le(1 + 8 + 8 + 4 + 4);
        buf.put_u8(TAG_RESYNC_REPLY);
        buf.put_u64_le(9); // probe
        buf.put_u64_le(4); // revision
        buf.put_u32_le(3); // three peers claimed
        buf.put_u32_le(1); // only one present
        assert_eq!(decode(&mut buf), Err(WireError::Truncated));
    }

    #[test]
    fn frame_payload_length_is_validated() {
        let mut buf = BytesMut::new();
        // Claim a 10-byte payload but provide none.
        let body_len = 1 + 4 + 4 + 1 + 8 + 8 + 4;
        buf.put_u32_le(body_len as u32);
        buf.put_u8(TAG_FRAME);
        buf.put_u32_le(0);
        buf.put_u32_le(0);
        buf.put_u8(0); // quality rung
        buf.put_u64_le(0);
        buf.put_u64_le(0);
        buf.put_u32_le(10);
        assert_eq!(decode(&mut buf), Err(WireError::Truncated));
    }
}
