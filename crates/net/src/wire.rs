//! Wire protocol: length-prefixed binary framing for RP-to-RP links and
//! the coordinator control plane.
//!
//! Every message is `[u32 LE length][u8 tag][body…]` where `length` counts
//! the tag and body. Integers are little-endian. The codec is incremental:
//! feed bytes as they arrive, decode complete messages as they become
//! available.
//!
//! Each message's layout is stated once, by its fields: [`encode`] writes
//! them after a placeholder length and patches the length from the bytes
//! they wrote, and [`decode`] reads them back through a body reader whose
//! every read is bounds-checked, failing with [`WireError::Truncated`] at
//! the end of the body. A `Frame`, the one message every relay hop
//! decodes, is the exception: its fixed header is written and read at one
//! set of field offsets, and read under one bounds check.
//!
//! Since the process-separable RP redesign, *every* coordinator action is
//! a message on this protocol — there is no shared-memory side channel:
//!
//! * table installs: [`Message::Reconfigure`], answered by
//!   [`Message::Ack`] once the RP runs the table and every data link it
//!   dialed for it is connected. The RP opens and closes its own links
//!   from the table it runs, dialing each child at its entry in the
//!   address book its coordinator's `Attach` carried, and
//!   [`Message::LinkFailed`] reports a routed child the RP cannot reach;
//! * frame injection: one [`Message::Publish`] order per origin RP,
//!   naming every stream it injects; nothing acknowledges it, because the
//!   armed [`Message::StatsRequest`] sent behind it reports the batch's
//!   deliveries;
//! * delivery accounting: [`Message::StatsRequest`] answered — at once,
//!   or armed to be pushed the moment the RP's delivered total reaches the
//!   request's watermark — by the fixed-size [`Message::Delivered`]
//!   (`{probe, total, shed}`), or by the full per-stream
//!   [`Message::StatsReport`] when the request sets `full`;
//! * convergence: [`Message::Attach`] makes a fresh connection the RP's
//!   control channel, the only one whose orders it obeys, and hands it
//!   the address book: every site's listener address, in site order. It
//!   is answered by [`Message::Attached`], naming the RP's revision and
//!   delivered total;
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
// Tags 8–11 (the retired link open/close orders and their link up/down
// notifications) stay unassigned the same way: links follow tables.
const TAG_PUBLISH: u8 = 12;
// Tag 13 (the retired per-stream batch acknowledgement) stays unassigned
// the same way.
const TAG_STATS_REQUEST: u8 = 14;
const TAG_STATS_REPORT: u8 = 15;
const TAG_SHUTDOWN: u8 = 16;
// Tags 17–18 (the retired resync query and its reply) stay unassigned
// the same way: an `Attach` is answered with `Attached`.
const TAG_DELIVERED: u8 = 19;
const TAG_LINK_FAILED: u8 = 20;
// Tag 21 (the retired per-table address order) stays unassigned the
// same way: the address book rides `Attach`.
const TAG_ATTACHED: u8 = 22;

// A `Frame`'s fixed header, by the offset of each field in its encoding
// (after the `u32` length prefix at 0): [`frame_header`] writes the
// fields there and [`decode`] reads them from there.
const FRAME_TAG_AT: usize = 4;
const FRAME_ORIGIN_AT: usize = FRAME_TAG_AT + 1;
const FRAME_LOCAL_AT: usize = FRAME_ORIGIN_AT + 4;
const FRAME_RUNG_AT: usize = FRAME_LOCAL_AT + 4;
const FRAME_SEQ_AT: usize = FRAME_RUNG_AT + 1;
const FRAME_CAPTURED_AT: usize = FRAME_SEQ_AT + 8;
const FRAME_PAYLOAD_LEN_AT: usize = FRAME_CAPTURED_AT + 8;

/// Encoded size of a `Frame` up to its payload: length prefix, tag,
/// stream (origin + local), rung, seq, capture time, payload length.
pub(crate) const FRAME_HEADER_LEN: usize = FRAME_PAYLOAD_LEN_AT + 4;

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
    /// revision `revision`, then bring the RP's data links in line with
    /// the table it runs: close each link to a child no longer routed,
    /// dial each routed child that has none, at its entry in the address
    /// book of the last [`Attach`](Self::Attach). The RP answers with
    /// [`Ack`](Self::Ack) once none of those dials is still being set up.
    Reconfigure {
        /// The plan revision the new table belongs to.
        revision: u64,
        /// The RP's complete forwarding state under the new revision.
        site_plan: SitePlan,
    },
    /// Epoch-boundary acknowledgement: the sending RP now forwards under
    /// `revision`, will never again emit a frame routed by an older
    /// table, and has a connected link to every child that table routes
    /// to — or has reported [`LinkFailed`](Self::LinkFailed) for it.
    Ack {
        /// The revision the RP switched to.
        revision: u64,
    },
    /// Coordinator preamble: marks this connection as the RP's control
    /// channel, and is answered on it by [`Attached`](Self::Attached).
    /// The RP obeys orders ([`Reconfigure`](Self::Reconfigure),
    /// [`Publish`](Self::Publish), [`StatsRequest`](Self::StatsRequest),
    /// [`Shutdown`](Self::Shutdown)) only on the most recently attached
    /// connection, closes any other connection that sends one, and sends
    /// all its control traffic ([`Ack`](Self::Ack),
    /// [`LinkFailed`](Self::LinkFailed), [`Delivered`](Self::Delivered),
    /// [`StatsReport`](Self::StatsReport)) on it.
    Attach {
        /// The address book: every site's listener address, in site
        /// order. The RP keeps it until the next `Attach` and dials each
        /// child its tables route to at the child's entry.
        addrs: Vec<SocketAddr>,
    },
    /// RP response to [`Attach`](Self::Attach): where the RP stands at
    /// the moment it switched control. A reply describes the RP only at
    /// that moment — a backlog `Reconfigure` on an older connection may
    /// land after it — so the coordinator closes its convergence with a
    /// dictation barrier rather than trusting replies outright.
    Attached {
        /// Revision of the RP's last-applied forwarding table.
        revision: u64,
        /// Total frames delivered at this RP.
        total: u64,
    },
    /// Control notification from an RP: the table it runs routes to
    /// `child`, and it has no usable link to it — the dial failed, the
    /// order carried no address for it, or the link closed under it.
    LinkFailed {
        /// The routed child the RP cannot reach.
        child: SiteId,
    },
    /// Coordinator order to an origin RP: inject `frames` synthetic frames
    /// of each of `streams` (sequence numbers `base_seq..base_seq +
    /// frames`) into the overlay, pacing by `interval_micros` when
    /// nonzero. Nothing answers it: the armed
    /// [`StatsRequest`](Self::StatsRequest) sent behind it on the same
    /// connection reports what the batch delivered.
    Publish {
        /// The streams to publish; the receiving RP must originate them.
        streams: Vec<StreamId>,
        /// First sequence number of the batch.
        base_seq: u64,
        /// Number of frames to publish.
        frames: u64,
        /// Synthetic payload size per frame, in bytes.
        payload_bytes: u32,
        /// Pause between frames in microseconds (0 = unpaced).
        interval_micros: u64,
    },
    /// Coordinator probe: report delivery counters once this RP has
    /// delivered `at_least` frames in total. An RP already there answers
    /// at once; otherwise it arms the request and pushes the report from
    /// the frame that crosses the watermark. `at_least = 0` means "answer
    /// now". A newer request replaces an armed one, and an `Attach`
    /// disarms it. `probe` correlates request and response on the
    /// control channel.
    StatsRequest {
        /// Caller-chosen correlation token, echoed by the report.
        probe: u64,
        /// Delivered-frame total the report waits for.
        at_least: u64,
        /// Answer with the full per-stream [`StatsReport`](Self::StatsReport)
        /// instead of the fixed-size [`Delivered`](Self::Delivered).
        full: bool,
    },
    /// RP response to a compact [`StatsRequest`](Self::StatsRequest): the
    /// delivered total and the shed count, fixed-size however many
    /// streams the RP has delivered.
    Delivered {
        /// The echoed correlation token.
        probe: u64,
        /// Total frames delivered at this RP.
        total: u64,
        /// Writes this RP has shed at a full write queue since its
        /// coordinator's [`Attach`](Message::Attach), which zeroes the
        /// count (the RP's event loop keeps the lifetime figure as
        /// `reactor.writes.dropped`). A frame shed on a data link never
        /// reaches the child's subtree, so a delivery total that counts on
        /// it can never be reached.
        shed: u64,
    },
    /// RP response to a `full` [`StatsRequest`](Self::StatsRequest): the
    /// RP's complete delivery accounting so far. Replaces the old shared
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
    /// An `Attach` carried a byte sequence that does not parse as a
    /// socket address.
    BadAddress,
    /// The length prefix overstated the message: bytes were left in the
    /// body after its last field.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
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
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} bytes left after the message body")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes `message` onto the end of `dst`.
pub fn encode(message: &Message, dst: &mut BytesMut) {
    let start = dst.len();
    // The length prefix, patched below from the bytes the fields wrote.
    dst.put_u32_le(0);
    match message {
        Message::Hello { site } => {
            dst.put_u8(TAG_HELLO);
            put_site(dst, *site);
        }
        Message::Frame {
            stream,
            quality,
            seq,
            captured_micros,
            payload,
        } => {
            let header = frame_header(*stream, *quality, *seq, *captured_micros, payload.len());
            // Past the header's own length: the patch below writes it.
            dst.put_slice(&header[4..]);
            dst.put_slice(payload);
        }
        Message::End { stream } => {
            dst.put_u8(TAG_END);
            put_stream(dst, *stream);
        }
        Message::Reconfigure {
            revision,
            site_plan,
        } => {
            dst.put_u8(TAG_RECONFIGURE);
            dst.put_u64_le(*revision);
            encode_site_plan(site_plan, dst);
        }
        Message::Ack { revision } => {
            dst.put_u8(TAG_ACK);
            dst.put_u64_le(*revision);
        }
        Message::Attach { addrs } => {
            dst.put_u8(TAG_ATTACH);
            dst.put_u32_le(addrs.len() as u32);
            for addr in addrs {
                let text = addr.to_string();
                dst.put_u32_le(text.len() as u32);
                dst.put_slice(text.as_bytes());
            }
        }
        Message::Attached { revision, total } => {
            dst.put_u8(TAG_ATTACHED);
            dst.put_u64_le(*revision);
            dst.put_u64_le(*total);
        }
        Message::LinkFailed { child } => {
            dst.put_u8(TAG_LINK_FAILED);
            put_site(dst, *child);
        }
        Message::Publish {
            streams,
            base_seq,
            frames,
            payload_bytes,
            interval_micros,
        } => {
            dst.put_u8(TAG_PUBLISH);
            dst.put_u32_le(streams.len() as u32);
            for stream in streams {
                put_stream(dst, *stream);
            }
            dst.put_u64_le(*base_seq);
            dst.put_u64_le(*frames);
            dst.put_u32_le(*payload_bytes);
            dst.put_u64_le(*interval_micros);
        }
        Message::StatsRequest {
            probe,
            at_least,
            full,
        } => {
            dst.put_u8(TAG_STATS_REQUEST);
            dst.put_u64_le(*probe);
            dst.put_u64_le(*at_least);
            dst.put_u8(u8::from(*full));
        }
        Message::Delivered { probe, total, shed } => {
            dst.put_u8(TAG_DELIVERED);
            dst.put_u64_le(*probe);
            dst.put_u64_le(*total);
            dst.put_u64_le(*shed);
        }
        Message::StatsReport {
            probe,
            total,
            max_latency_micros,
            streams,
        } => {
            dst.put_u8(TAG_STATS_REPORT);
            dst.put_u64_le(*probe);
            dst.put_u64_le(*total);
            dst.put_u64_le(*max_latency_micros);
            dst.put_u32_le(streams.len() as u32);
            for entry in streams {
                put_stream(dst, entry.stream);
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
        Message::Shutdown => dst.put_u8(TAG_SHUTDOWN),
    }
    let length = (dst.len() - start - 4) as u32;
    dst[start..start + 4].copy_from_slice(&length.to_le_bytes());
}

/// The encoding of a `Frame` carrying a `payload_len`-byte payload, up
/// to the payload itself: the payload's bytes follow it on the wire. A
/// relay sends `[frame_header(..), payload]` without joining the two.
pub(crate) fn frame_header(
    stream: StreamId,
    quality: Quality,
    seq: u64,
    captured_micros: u64,
    payload_len: usize,
) -> [u8; FRAME_HEADER_LEN] {
    let body = (FRAME_HEADER_LEN - 4 + payload_len) as u32;
    let origin = stream.origin().index() as u32;
    let mut header = [0u8; FRAME_HEADER_LEN];
    header[FRAME_TAG_AT] = TAG_FRAME;
    header[FRAME_RUNG_AT] = quality.rung() as u8;
    let fields: [(usize, &[u8]); 6] = [
        (0, &body.to_le_bytes()),
        (FRAME_ORIGIN_AT, &origin.to_le_bytes()),
        (FRAME_LOCAL_AT, &stream.local_index().to_le_bytes()),
        (FRAME_SEQ_AT, &seq.to_le_bytes()),
        (FRAME_CAPTURED_AT, &captured_micros.to_le_bytes()),
        (FRAME_PAYLOAD_LEN_AT, &(payload_len as u32).to_le_bytes()),
    ];
    for (at, field) in fields {
        header[at..at + field.len()].copy_from_slice(field);
    }
    header
}

/// The little-endian `u32` field at offset `at` of a frame header.
#[inline]
fn header_u32(header: &[u8; FRAME_HEADER_LEN], at: usize) -> u32 {
    u32::from_le_bytes([header[at], header[at + 1], header[at + 2], header[at + 3]])
}

/// The little-endian `u64` field at offset `at` of a frame header.
#[inline]
fn header_u64(header: &[u8; FRAME_HEADER_LEN], at: usize) -> u64 {
    u64::from(header_u32(header, at)) | u64::from(header_u32(header, at + 4)) << 32
}

/// Writes a site as its `u32` index.
fn put_site(dst: &mut BytesMut, site: SiteId) {
    dst.put_u32_le(site.index() as u32);
}

/// Writes a stream as its origin site, then its local index.
fn put_stream(dst: &mut BytesMut, stream: StreamId) {
    put_site(dst, stream.origin());
    dst.put_u32_le(stream.local_index());
}

/// Encodes a forwarding table: `[site][entry count]` then per entry
/// `[stream origin][stream local][parent flag + site][quality rung]`
/// `[child count][children…]`. A missing parent (the RP originates the
/// stream) is flag 0 with a zero placeholder, keeping every entry
/// fixed-width up to its child list.
fn encode_site_plan(site_plan: &SitePlan, dst: &mut BytesMut) {
    put_site(dst, site_plan.site);
    dst.put_u32_le(site_plan.entries.len() as u32);
    for entry in &site_plan.entries {
        put_stream(dst, entry.stream);
        dst.put_u8(u8::from(entry.parent.is_some()));
        put_site(dst, entry.parent.unwrap_or(SiteId::new(0)));
        dst.put_u8(entry.quality.rung() as u8);
        dst.put_u32_le(entry.children.len() as u32);
        for child in &entry.children {
            put_site(dst, child.site);
            dst.put_u8(child.quality.rung() as u8);
        }
    }
}

/// Decodes the [`SitePlan`] body of a `Reconfigure`.
fn decode_site_plan(body: &mut Body) -> Result<SitePlan, WireError> {
    let site = body.site()?;
    // Entries are variable-width, so each read below is checked as it
    // happens and the count only caps the up-front reservation.
    let entry_count = body.u32()? as usize;
    let mut entries = Vec::with_capacity(entry_count.min(1024));
    for _ in 0..entry_count {
        let stream = body.stream()?;
        let has_parent = body.u8()? != 0;
        let parent = body.site()?;
        let quality = body.quality()?;
        let child_count = body.count(5)?;
        let mut children = Vec::with_capacity(child_count);
        for _ in 0..child_count {
            children.push(ChildLink {
                site: body.site()?,
                quality: body.quality()?,
            });
        }
        entries.push(ForwardingEntry {
            stream,
            parent: has_parent.then_some(parent),
            children,
            quality,
        });
    }
    Ok(SitePlan { site, entries })
}

/// A message body being decoded, read field by field from the front.
/// Every read checks what is left and fails with
/// [`WireError::Truncated`] past the end. Every message but `Frame` is
/// read through it; a `Frame`, decoded once per relay hop, is read at
/// its fixed header offsets instead.
struct Body(BytesMut);

impl Body {
    #[inline]
    fn need(&self, bytes: usize) -> Result<(), WireError> {
        if self.0.len() < bytes {
            return Err(WireError::Truncated);
        }
        Ok(())
    }

    #[inline]
    fn u8(&mut self) -> Result<u8, WireError> {
        self.need(1)?;
        Ok(self.0.get_u8())
    }

    #[inline]
    fn u32(&mut self) -> Result<u32, WireError> {
        self.need(4)?;
        Ok(self.0.get_u32_le())
    }

    #[inline]
    fn u64(&mut self) -> Result<u64, WireError> {
        self.need(8)?;
        Ok(self.0.get_u64_le())
    }

    #[inline]
    fn site(&mut self) -> Result<SiteId, WireError> {
        Ok(SiteId::new(self.u32()?))
    }

    #[inline]
    fn stream(&mut self) -> Result<StreamId, WireError> {
        Ok(StreamId::new(self.site()?, self.u32()?))
    }

    #[inline]
    fn quality(&mut self) -> Result<Quality, WireError> {
        Ok(Quality::new(self.u8()?))
    }

    /// A `u32` count of fixed-width elements, refused unless that many
    /// `width`-byte elements fit in the rest of the body, so the count
    /// can size an allocation.
    #[inline]
    fn count(&mut self, width: usize) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        // checked_mul: a corrupt count must not wrap the bounds check on
        // 32-bit targets and drive the reads past the buffer.
        self.need(count.checked_mul(width).ok_or(WireError::Truncated)?)?;
        Ok(count)
    }

    /// A `u32` length, then that many bytes: a view of the body's
    /// allocation, not a copy.
    #[inline]
    fn bytes(&mut self) -> Result<BytesMut, WireError> {
        let len = self.count(1)?;
        Ok(self.0.split_to(len))
    }

    /// A socket address in its text form, as [`bytes`](Self::bytes).
    fn addr(&mut self) -> Result<SocketAddr, WireError> {
        std::str::from_utf8(&self.bytes()?)
            .ok()
            .and_then(|text| text.parse().ok())
            .ok_or(WireError::BadAddress)
    }
}

/// The length on the wire, prefix included, of the message at the front
/// of `bytes`, once its length prefix has arrived: the framing `decode`
/// reads (unchecked against [`MAX_MESSAGE_BYTES`]).
pub(crate) fn wire_len(bytes: &[u8]) -> Option<usize> {
    let prefix = bytes.first_chunk::<4>()?;
    Some(4 + u32::from_le_bytes(*prefix) as usize)
}

/// Attempts to decode one complete message from the front of `src`.
///
/// Returns `Ok(None)` when more bytes are needed; consumed bytes are
/// removed from `src` only when a full message was decoded. A `Frame` is
/// read the way `frame_header` writes it: every header field at its
/// fixed offset, under one bounds check on the whole header, then its
/// payload as one view of `src`'s allocation, not a copy. So a frame of
/// any size decodes in time proportional to its header.
///
/// # Errors
///
/// Returns an error on oversized lengths, unknown tags, truncated bodies,
/// or bodies longer than their fields (the connection should then be
/// dropped).
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
    // A `Frame` never reaches the body reader below: its header is read
    // at fixed offsets under one bounds check. (A tag past a zero-length
    // body is the next message's, and fails that check as `Truncated`.)
    if src.get(FRAME_TAG_AT) == Some(&TAG_FRAME) {
        let (header, tail) = src
            .get(..4 + length)
            .and_then(<[u8]>::split_first_chunk::<FRAME_HEADER_LEN>)
            .ok_or(WireError::Truncated)?;
        // The payload is exactly the message's tail: whatever follows it
        // is padding the length prefix claimed.
        let payload_len = header_u32(header, FRAME_PAYLOAD_LEN_AT) as usize;
        if tail.len() < payload_len {
            return Err(WireError::Truncated);
        }
        if tail.len() > payload_len {
            return Err(WireError::TrailingBytes {
                extra: tail.len() - payload_len,
            });
        }
        let origin = SiteId::new(header_u32(header, FRAME_ORIGIN_AT));
        let local = header_u32(header, FRAME_LOCAL_AT);
        let quality = Quality::new(header[FRAME_RUNG_AT]);
        let seq = header_u64(header, FRAME_SEQ_AT);
        let captured_micros = header_u64(header, FRAME_CAPTURED_AT);
        src.advance(FRAME_HEADER_LEN);
        return Ok(Some(Message::Frame {
            stream: StreamId::new(origin, local),
            quality,
            seq,
            captured_micros,
            payload: src.split_to(payload_len).freeze(),
        }));
    }
    src.advance(4);
    let mut body = Body(src.split_to(length));
    // Struct fields are evaluated in the order written, which is the
    // order they travel in.
    let message = match body.u8()? {
        TAG_HELLO => Message::Hello { site: body.site()? },
        TAG_RECONFIGURE => Message::Reconfigure {
            revision: body.u64()?,
            site_plan: decode_site_plan(&mut body)?,
        },
        TAG_ACK => Message::Ack {
            revision: body.u64()?,
        },
        TAG_END => Message::End {
            stream: body.stream()?,
        },
        TAG_ATTACH => {
            // Each address is at least its text length.
            let count = body.count(4)?;
            Message::Attach {
                addrs: (0..count).map(|_| body.addr()).collect::<Result<_, _>>()?,
            }
        }
        TAG_ATTACHED => Message::Attached {
            revision: body.u64()?,
            total: body.u64()?,
        },
        TAG_LINK_FAILED => Message::LinkFailed {
            child: body.site()?,
        },
        TAG_PUBLISH => Message::Publish {
            streams: {
                let count = body.count(8)?;
                let mut streams = Vec::with_capacity(count);
                for _ in 0..count {
                    streams.push(body.stream()?);
                }
                streams
            },
            base_seq: body.u64()?,
            frames: body.u64()?,
            payload_bytes: body.u32()?,
            interval_micros: body.u64()?,
        },
        TAG_STATS_REQUEST => Message::StatsRequest {
            probe: body.u64()?,
            at_least: body.u64()?,
            full: body.u8()? != 0,
        },
        TAG_DELIVERED => Message::Delivered {
            probe: body.u64()?,
            total: body.u64()?,
            shed: body.u64()?,
        },
        TAG_STATS_REPORT => {
            let probe = body.u64()?;
            let total = body.u64()?;
            let max_latency_micros = body.u64()?;
            // Entries are variable-width (sparse histogram tail): each
            // read is checked as it happens, and the count only caps the
            // up-front reservation.
            let count = body.u32()? as usize;
            let mut streams = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let stream = body.stream()?;
                let delivered = body.u64()?;
                let delivered_degraded = body.u64()?;
                let latency_sum_micros = body.u64()?;
                let (hist_sum, hist_min, hist_max) = (body.u64()?, body.u64()?, body.u64()?);
                let nonzero = body.u8()? as usize;
                if nonzero > BUCKETS {
                    return Err(WireError::Truncated);
                }
                let mut pairs = Vec::with_capacity(nonzero);
                for _ in 0..nonzero {
                    pairs.push((body.u8()?, body.u64()?));
                }
                let latency = LogHistogram::from_parts(&pairs, hist_sum, hist_min, hist_max)
                    .ok_or(WireError::Truncated)?;
                streams.push(StreamDelivery {
                    stream,
                    delivered,
                    delivered_degraded,
                    latency_sum_micros,
                    latency,
                });
            }
            Message::StatsReport {
                probe,
                total,
                max_latency_micros,
                streams,
            }
        }
        TAG_SHUTDOWN => Message::Shutdown,
        other => return Err(WireError::UnknownTag { tag: other }),
    };
    // Every field is read: whatever remains was padding the length
    // prefix claimed.
    if !body.0.is_empty() {
        return Err(WireError::TrailingBytes {
            extra: body.0.len(),
        });
    }
    Ok(Some(message))
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

    /// One value of every variant (`Attach` with an empty book and with
    /// both address families),
    /// each paired with its exact encoding. Round-trip tests cannot see a
    /// format change made to the encoder and decoder at once; this can.
    fn golden_messages() -> Vec<(Message, &'static str)> {
        let mut latency = LogHistogram::new();
        for sample in [1u64, 3, 3, 700] {
            latency.record(sample);
        }
        let stream = StreamId::new(SiteId::new(2), 5);
        vec![
            (
                Message::Hello {
                    site: SiteId::new(7),
                },
                "050000000107000000",
            ),
            (
                Message::Frame {
                    stream,
                    quality: Quality::new(1),
                    seq: 42,
                    captured_micros: 0x0102_0304,
                    payload: Bytes::from_static(b"3d"),
                },
                "20000000020200000005000000012a000000000000000403020100000000020000003364",
            ),
            (Message::End { stream }, "09000000040200000005000000"),
            (
                Message::Reconfigure {
                    revision: 17,
                    site_plan: SitePlan {
                        site: SiteId::new(2),
                        entries: vec![
                            ForwardingEntry {
                                stream,
                                parent: None,
                                children: vec![ChildLink::full(SiteId::new(0))],
                                quality: Quality::FULL,
                            },
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
                        ],
                    },
                },
                concat!(
                    "44000000051100000000000000",           // length, tag, revision
                    "0200000002000000",                     // site, entry count
                    "020000000500000000000000000001000000", // origin entry: no parent, one child
                    "0000000000",                           // child 0 at full quality
                    "000000000100000001000000000202000000", // relayed entry: parent 0, two children
                    "01000000010300000000",                 // children 1 and 3
                ),
            ),
            (Message::Ack { revision: 17 }, "09000000061100000000000000"),
            (Message::Attach { addrs: Vec::new() }, "050000000700000000"),
            (
                Message::Attach {
                    addrs: vec!["127.0.0.1:9".parse().unwrap(), "[::1]:9".parse().unwrap()],
                },
                concat!(
                    "1f0000000702000000",             // length, tag, count
                    "0b0000003132372e302e302e313a39", // site 0 at 127.0.0.1:9
                    "070000005b3a3a315d3a39",         // site 1 at [::1]:9
                ),
            ),
            (
                Message::Attached {
                    revision: 17,
                    total: 100,
                },
                "110000001611000000000000006400000000000000", // length, tag, revision, total
            ),
            (
                Message::LinkFailed {
                    child: SiteId::new(4),
                },
                "050000001404000000",
            ),
            (
                Message::Publish {
                    streams: vec![stream, StreamId::new(SiteId::new(2), 6)],
                    base_seq: 77,
                    frames: 12,
                    payload_bytes: 4096,
                    interval_micros: 5_000,
                },
                concat!(
                    "310000000c02000000",               // length, tag, stream count
                    "02000000050000000200000006000000", // streams 2.5 and 2.6
                    "4d000000000000000c00000000000000", // base seq, frames
                    "001000008813000000000000",         // payload bytes, interval
                ),
            ),
            (
                Message::StatsRequest {
                    probe: 9,
                    at_least: 100,
                    full: true,
                },
                "120000000e0900000000000000640000000000000001",
            ),
            (
                Message::Delivered {
                    probe: 9,
                    total: 100,
                    shed: 2,
                },
                "1900000013090000000000000064000000000000000200000000000000",
            ),
            (
                Message::StatsReport {
                    probe: 9,
                    total: 100,
                    max_latency_micros: 700,
                    streams: vec![StreamDelivery {
                        stream,
                        delivered: 100,
                        delivered_degraded: 4,
                        latency_sum_micros: 707,
                        latency,
                    }],
                },
                concat!(
                    "710000000f09000000000000006400000000000000", // length, tag, probe, total
                    "bc0200000000000001000000",                   // max latency, stream count
                    "020000000500000064000000000000000400000000000000", // stream, delivered, degraded
                    "c302000000000000",                                 // latency sum
                    "c3020000000000000100000000000000bc02000000000000", // histogram sum, min, max
                    "03010100000000000000", // three non-empty buckets: 1 ×1,
                    "0202000000000000000a0100000000000000", // 2 ×2 and 10 ×1
                ),
            ),
            (Message::Shutdown, "0100000010"),
        ]
    }

    #[test]
    fn every_variant_encodes_to_its_golden_bytes() {
        for (message, golden) in golden_messages() {
            let mut buf = BytesMut::new();
            encode(&message, &mut buf);
            let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, golden, "{message:?}");
            roundtrip(message);
        }
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
    fn truncated_stats_request_watermark_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(1 + 8 + 4);
        buf.put_u8(TAG_STATS_REQUEST);
        buf.put_u64_le(9); // probe
        buf.put_u32_le(0); // u64 at_least missing its upper half
        assert_eq!(decode(&mut buf), Err(WireError::Truncated));
    }

    #[test]
    fn stats_request_without_its_full_flag_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(1 + 8 + 8);
        buf.put_u8(TAG_STATS_REQUEST);
        buf.put_u64_le(9); // probe
        buf.put_u64_le(3); // at_least, then no `full` byte
        assert_eq!(decode(&mut buf), Err(WireError::Truncated));
    }

    #[test]
    fn delivered_roundtrip_is_fixed_size() {
        for (probe, total, shed) in [(0, 0, 0), (7, 1_000_000, 3), (u64::MAX, u64::MAX, u64::MAX)] {
            let message = Message::Delivered { probe, total, shed };
            let mut buf = BytesMut::new();
            encode(&message, &mut buf);
            assert_eq!(buf.len(), 4 + 1 + 8 + 8 + 8);
            roundtrip(message);
        }
    }

    #[test]
    fn truncated_delivered_shed_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(1 + 8 + 8 + 4);
        buf.put_u8(TAG_DELIVERED);
        buf.put_u64_le(1); // probe
        buf.put_u64_le(10); // total
        buf.put_u32_le(0); // u64 shed missing its upper half
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
    fn frame_header_is_the_encoding_up_to_the_payload() {
        let points = Bytes::from_static(b"synthetic 3d points");
        let max = StreamId::new(SiteId::new(u32::MAX), u32::MAX);
        let mut frames = vec![
            (StreamId::new(SiteId::new(2), 5), 1, 42, 7, points.clone()),
            (max, 0, u64::MAX, u64::MAX, Bytes::new()),
            (max, u8::MAX, u64::MAX, 0, points),
        ];
        for rung in 0..=u8::MAX {
            frames.push((max, rung, u64::MAX, u64::MAX, Bytes::new()));
        }
        for (stream, rung, seq, captured_micros, payload) in frames {
            let quality = Quality::new(rung);
            let frame = Message::Frame {
                stream,
                quality,
                seq,
                captured_micros,
                payload: payload.clone(),
            };
            let mut buf = BytesMut::new();
            encode(&frame, &mut buf);
            let header = frame_header(stream, quality, seq, captured_micros, payload.len());
            assert_eq!(&buf[..FRAME_HEADER_LEN], &header[..]);
            assert_eq!(&buf[FRAME_HEADER_LEN..], &payload[..]);
            assert_eq!(decode(&mut buf), Ok(Some(frame)));
            assert!(buf.is_empty(), "decoder must consume the full frame");
        }
    }

    /// A `Frame` whose length prefix claims `body` bytes and whose header
    /// claims a `payload_len`-byte payload, followed by `rest`.
    fn raw_frame(body: u32, payload_len: u32, rest: &[u8]) -> BytesMut {
        let stream = StreamId::new(SiteId::new(3), 1);
        let mut header = frame_header(stream, Quality::new(2), 9, 11, payload_len as usize);
        header[..4].copy_from_slice(&body.to_le_bytes());
        let mut buf = BytesMut::from(&header[..]);
        buf.put_slice(rest);
        buf
    }

    #[test]
    fn frame_decode_golden_cases() {
        // The cases are followed by the first bytes of a next message,
        // which no frame may read.
        let next = [0xEE; 40];
        let header_body = (FRAME_HEADER_LEN - 4) as u32;

        // A zero-length body, alone and followed by a next message that
        // starts with a frame tag.
        let mut buf = BytesMut::new();
        buf.put_u32_le(0);
        assert_eq!(decode(&mut buf), Err(WireError::Truncated));
        let mut buf = BytesMut::new();
        buf.put_u32_le(0);
        buf.put_u8(TAG_FRAME);
        buf.put_slice(&next);
        assert_eq!(decode(&mut buf), Err(WireError::Truncated));

        // A body one byte shorter than the frame header.
        let mut buf = raw_frame(header_body - 1, 0, &next);
        assert_eq!(decode(&mut buf), Err(WireError::Truncated));

        // A payload-length field one byte over the body, and one under.
        let payload = [7u8; 4];
        let rest = [&payload[..], &next].concat();
        let mut buf = raw_frame(header_body + 4, 5, &rest);
        assert_eq!(decode(&mut buf), Err(WireError::Truncated));
        let mut buf = raw_frame(header_body + 4, 3, &rest);
        assert_eq!(decode(&mut buf), Err(WireError::TrailingBytes { extra: 1 }));

        // Exactly the body: the frame, and not one byte of the next message.
        let mut buf = raw_frame(header_body + 4, 4, &rest);
        assert_eq!(
            decode(&mut buf),
            Ok(Some(Message::Frame {
                stream: StreamId::new(SiteId::new(3), 1),
                quality: Quality::new(2),
                seq: 9,
                captured_micros: 11,
                payload: Bytes::from(payload.to_vec()),
            }))
        );
        assert_eq!(&buf[..], &next[..]);
    }

    #[test]
    fn decoded_frame_payload_is_a_view_of_the_read_buffer() {
        let mut buf = BytesMut::new();
        encode(
            &Message::Frame {
                stream: StreamId::new(SiteId::new(0), 0),
                quality: Quality::FULL,
                seq: 0,
                captured_micros: 0,
                payload: Bytes::from(vec![0x3D; 4096]),
            },
            &mut buf,
        );
        let payload_at = buf[FRAME_HEADER_LEN..].as_ptr();
        let Ok(Some(Message::Frame { payload, .. })) = decode(&mut buf) else {
            panic!("frame decodes");
        };
        assert_eq!(payload.as_ptr(), payload_at, "payload was copied");
    }

    #[test]
    fn padded_attach_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(1 + 4 + 2);
        buf.put_u8(TAG_ATTACH);
        buf.put_u32_le(0); // an empty book
        buf.put_slice(&[0, 0]);
        assert_eq!(decode(&mut buf), Err(WireError::TrailingBytes { extra: 2 }));
    }

    #[test]
    fn an_attach_without_a_book_is_truncated_not_an_empty_book() {
        // The bare 5-byte `Attach` that preceded the address book.
        let mut buf = BytesMut::from(&[0x01, 0x00, 0x00, 0x00, 0x07][..]);
        assert_eq!(decode(&mut buf), Err(WireError::Truncated));
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
        let attach = Message::Attach {
            addrs: vec!["127.0.0.1:9".parse().unwrap()],
        };
        encode(&attach, &mut buf);
        assert_eq!(
            decode(&mut buf).unwrap(),
            Some(Message::Hello {
                site: SiteId::new(1)
            })
        );
        assert_eq!(decode(&mut buf).unwrap(), Some(attach));
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
        // 3 is the retired `Bye` tag, 8–11 the retired link open/close
        // orders and link up/down notifications, 13 the retired
        // per-stream batch acknowledgement, 17–18 the retired resync
        // query and reply, and 21 the retired per-table address order:
        // all unassigned for good.
        for tag in [0, 3, 8, 9, 10, 11, 13, 17, 18, 21, 99] {
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
        roundtrip(Message::Attach { addrs: Vec::new() });
        roundtrip(Message::Attach {
            addrs: vec![
                "127.0.0.1:45123".parse().unwrap(),
                "[::1]:9".parse().unwrap(),
            ],
        });
        roundtrip(Message::Shutdown);
        roundtrip(Message::LinkFailed {
            child: SiteId::new(1),
        });
        roundtrip(Message::Publish {
            streams: vec![StreamId::new(SiteId::new(1), 2)],
            base_seq: 77,
            frames: 12,
            payload_bytes: 4096,
            interval_micros: 5_000,
        });
        roundtrip(Message::Publish {
            streams: Vec::new(),
            base_seq: 0,
            frames: 0,
            payload_bytes: 0,
            interval_micros: 0,
        });
        roundtrip(Message::StatsRequest {
            probe: 41,
            at_least: 0,
            full: true,
        });
        roundtrip(Message::StatsRequest {
            probe: 42,
            at_least: u64::MAX - 3,
            full: false,
        });
        roundtrip(Message::Attached {
            revision: u64::MAX - 1,
            total: 7,
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
    fn malformed_peer_address_is_rejected() {
        let text = b"not an address";
        let mut buf = BytesMut::new();
        buf.put_u32_le((1 + 4 + 4 + text.len()) as u32);
        buf.put_u8(TAG_ATTACH);
        buf.put_u32_le(1); // a one-site book
        buf.put_u32_le(text.len() as u32);
        buf.put_slice(text);
        assert_eq!(decode(&mut buf), Err(WireError::BadAddress));
    }

    #[test]
    fn truncated_peer_address_is_rejected() {
        let mut buf = BytesMut::new();
        // Claims a 20-byte address but the body carries none.
        buf.put_u32_le(1 + 4 + 4);
        buf.put_u8(TAG_ATTACH);
        buf.put_u32_le(1); // a one-site book
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
    fn truncated_peer_list_is_rejected() {
        let mut buf = BytesMut::new();
        // Claims three addresses; the body has room for one at most.
        buf.put_u32_le(1 + 4 + 4);
        buf.put_u8(TAG_ATTACH);
        buf.put_u32_le(3); // three addresses claimed
        buf.put_u32_le(0); // and one empty one
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
