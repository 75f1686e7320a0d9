//! The rendezvous-point host: one readiness loop drives many RPs.
//!
//! A [`Reactor`] is a small fixed pool of non-blocking event loops, and
//! every RP in this crate runs on one — a single standalone `rp_node`
//! process, a [`LiveCluster`](crate::LiveCluster)'s fleet, or thousands
//! of RPs across many sessions sharing one pool. An RP is purely
//! reactive: it binds, accepts, and answers. The coordinator's first
//! connection sends [`Message::Attach`] to mark itself as the control
//! channel, carrying the address book (every site's listener address),
//! and the node answers it with [`Message::Attached`] (its revision and
//! delivered total). The node then obeys orders from that connection
//! only — an order arriving on any other closes it — and routes all of
//! its replies ([`Message::Ack`], [`Message::LinkFailed`],
//! [`Message::Delivered`], [`Message::StatsReport`]) through it.
//!
//! A node opens and closes its own data links from the table it runs. On
//! every `Reconfigure` it closes each link to a child the table no longer
//! routes to and dials each routed child it has no link to, at the
//! child's entry in the address book, and it holds the table's `Ack`
//! until none of those dials is still being set up. A routed child it
//! cannot reach, or one missing from the book, is reported as
//! `LinkFailed`. Orders arriving on one connection execute strictly in
//! arrival order — a `Publish` behind a `Reconfigure` runs once the
//! table's new links are registered (its frames queue behind each new
//! link's `Hello`), and a `StatsRequest` behind an unpaced `Publish` only
//! once the batch is injected — which is what lets the coordinator
//! sequence reconfigurations and batches without shared memory.
//!
//! Per event-loop iteration:
//!
//! 1. **Poll** — block in `epoll_wait` until a socket is ready, a paced
//!    publish timer is due, or another thread wakes the loop to deliver
//!    a command (register a node, stop one, quit).
//! 2. **Read** — drain every readable connection until a read comes
//!    back short, decoding frames and orders incrementally and
//!    dispatching them (`LoopState::dispatch` is the RP's whole message
//!    table). Reads land in the loop's one read scratch and are copied
//!    into a per-connection read buffer, except a large message's: once
//!    a length prefix announces a message of 32 KiB or more that has not
//!    fully arrived, the rest of it is read in place into an allocation
//!    of its own size, by one `readv` that also takes up to one frame
//!    header of the next message. So a relayed 64 KiB frame's payload is
//!    not copied in user space once its header is read, and the views
//!    queued on its children pin only its own bytes.
//! 3. **Write** — outgoing messages accumulate in a per-connection
//!    write queue: small ones are copied into one coalescing buffer,
//!    large payloads are queued as views of the allocation they arrived
//!    in, so a relayed frame's payload is shared by every child's queue
//!    and never copied on egress. All connections dirtied during the
//!    iteration flush once at the end with one `writev` per burst
//!    (writes coalesce per wakeup), and a connection whose kernel buffer
//!    is full keeps `WRITABLE` interest until it drains. A connection
//!    whose backlog exceeds the cap sheds new frames: a reader that stops
//!    reading loses its subtree's frames, never the node's other links or
//!    its control channel. The node counts its sheds and reports them in
//!    every [`Message::Delivered`].
//! 4. **Timers** — a paced `Publish` batch is one due-time entry in a
//!    timer map; each firing forwards one frame of every stream the
//!    order names and re-arms until the last frame is out.
//!
//! Ownership is strictly per-loop: a node and all its connections live
//! on exactly one event loop, so node state needs no locks at all. The
//! only cross-thread structures are each loop's command queue and its
//! [`mio::Waker`]; handles push a command, wake the loop, and the loop
//! applies it between iterations.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, IoSlice, IoSliceMut, Read, Write};
use std::mem;
use std::net::{IpAddr, Ipv4Addr, Shutdown, SocketAddr};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use bytes::{Buf, Bytes, BytesMut};
use mio::event::Events;
use mio::net::{TcpListener, TcpStream};
use mio::{Interest, Poll, Token, Waker};
use parking_lot::Mutex;
use teeve_telemetry::{
    Counter, FlightEventKind, FlightRecorder, Gauge, Histogram, MetricsRegistry,
};
use teeve_types::{Quality, SiteId, StreamId};

use crate::node::{plan_entry, unix_micros, ForwardingTable, NodeStats, Relayed};
use crate::wire::{
    decode, encode, wire_len, Message, WireError, FRAME_HEADER_LEN, MAX_MESSAGE_BYTES,
};

/// The waker's token — far outside any slab index.
const WAKE: Token = Token(usize::MAX);

/// Per-connection cap on *queued* (not yet written) outgoing bytes.
/// A connection already holding this much backlog sheds further
/// messages instead of growing without bound; one message over the
/// threshold is always admitted, so the true bound is the cap plus one
/// maximum frame. A payload shared with other connections' queues
/// counts in full against each of them: the cap bounds what one reader
/// can hold back, not the bytes actually resident.
const MAX_PENDING_WRITE: usize = 8 * 1024 * 1024;

/// Payloads shorter than this are copied into a connection's coalescing
/// buffer (one copy, one contiguous write for many small frames);
/// longer ones are queued by reference.
const COALESCE_BELOW: usize = 4 * 1024;

/// Most slices one vectored write gathers.
const MAX_IOV: usize = 64;

/// Read-syscall chunk size: the length of each loop's one read scratch.
const READ_CHUNK: usize = 64 * 1024;

/// Messages at least this long (tag and body) that have not fully
/// arrived are read in place, into an allocation of their own: below
/// it, copying messages out of the read scratch, many per read, costs
/// less than giving each a read and a zeroed allocation of its own.
const IN_PLACE_FROM: usize = 32 * 1024;

/// How much of the next message the read that completes an in-place
/// message takes along, into the start of the read scratch, and all a
/// read takes after it until the next length prefix is known: one frame
/// header, so a following frame's header lands there and its payload
/// never does.
const SPILL: usize = FRAME_HEADER_LEN;

/// How many readiness records one poll can return.
const EVENTS_PER_POLL: usize = 1024;

/// Commands injected into an event loop by other threads.
enum Command {
    /// Adopt a freshly bound node listener.
    Register(Box<NodeSeed>),
    /// Force-stop a node: graceful teardown, then immediate removal.
    StopNode {
        /// The node's reactor-wide key.
        key: u64,
    },
    /// Exit the loop, abandoning every hosted node.
    Quit,
}

/// Everything an event loop needs to adopt a node.
struct NodeSeed {
    key: u64,
    site: SiteId,
    listener: std::net::TcpListener,
    recorder: FlightRecorder,
    /// Becomes the node's `NodeState::_done`.
    done: mpsc::Sender<()>,
}

/// One RP hosted on an event loop, owned lock-free by that loop.
struct NodeState {
    key: u64,
    site: SiteId,
    /// Slab token of the node's listener while it accepts.
    listener_token: Option<usize>,
    table: ForwardingTable,
    /// Outbound (this RP → child) links by child site, as slab tokens:
    /// one per child the table routes to, registered from dial time on.
    outbound: BTreeMap<SiteId, usize>,
    /// The address book of the last `Attach`: every site's listener
    /// address, in site order, from which each `Reconfigure` dials the
    /// children it has no link to.
    book: Vec<SocketAddr>,
    /// The revision of the `Ack` held back until no link is still being
    /// dialed.
    held_ack: Option<u64>,
    /// Every live connection token belonging to this node.
    conns: BTreeSet<usize>,
    /// Slab token of the attached control channel, the one connection
    /// whose orders the node obeys. A later `Attach` replaces it (latest
    /// wins). A replaced channel's token stays taken while it is open, so
    /// it can never name the successor.
    control: Option<usize>,
    stats: NodeStats,
    /// Writes this node's connections shed at the backlog cap since its
    /// coordinator attached, counted by [`queue_write`] and reported in
    /// every [`Message::Delivered`]. An `Attach` zeroes it.
    shed: u64,
    /// The armed `StatsRequest`: answered from the `Frame` arm by the
    /// delivery that brings `stats` up to its `at_least`, with a
    /// fixed-size [`Message::Delivered`] — or the full
    /// [`Message::StatsReport`] when the request set `full`.
    armed: Option<ArmedProbe>,
    /// Ring of recent structured events (reconfigures, link churn) for
    /// post-mortem inspection; never crosses the wire.
    recorder: FlightRecorder,
    /// Never sent on: dropping it — when the node is removed, or its
    /// seed never adopted — is what unblocks [`RpNodeHandle::join`].
    _done: mpsc::Sender<()>,
    /// Set by `Shutdown`/`StopNode`: no new conns are accepted and the
    /// node is removed once its last connection dies.
    stopping: bool,
}

/// A `StatsRequest` waiting for its watermark.
#[derive(Debug, Clone, Copy)]
struct ArmedProbe {
    probe: u64,
    at_least: u64,
    full: bool,
}

impl NodeState {
    /// Disarms and returns the armed request's reply once the delivered
    /// total has reached its watermark: the compact `Delivered`, which
    /// costs the same however many streams this node has delivered, or
    /// the full per-stream report when the request asked for it.
    fn due_report(&mut self) -> Option<Message> {
        let armed = self.armed?;
        let total = self.stats.total();
        if total < armed.at_least {
            return None;
        }
        self.armed = None;
        Some(if armed.full {
            self.stats.report(armed.probe)
        } else {
            Message::Delivered {
                probe: armed.probe,
                total,
                shed: self.shed,
            }
        })
    }
}

/// One registered connection and its buffers.
struct Conn {
    stream: TcpStream,
    /// Owning node's slab index.
    node: usize,
    /// Inbound bytes, decoded incrementally. Decoded payloads are views
    /// of the allocation they were read into: a large message's own, or
    /// a buffer of small messages that copies its undecoded tail to a
    /// fresh allocation when it grows while they are still queued
    /// elsewhere.
    read_buf: ReadBuf,
    /// Pending outgoing messages; its length, shared payloads counted in
    /// full, is what [`MAX_PENDING_WRITE`] caps.
    out: WriteQueue,
    /// Whether `WRITABLE` interest is currently registered.
    wants_write: bool,
    /// False while an outbound dial's handshake is still in flight.
    connected: bool,
    /// Flush-then-close requested (a link the table dropped, or the
    /// shutdown cascade).
    closing: bool,
    /// Queued in the loop's dirty list for the end-of-iteration flush.
    dirty: bool,
    /// `Hello`-attributed upstream peer (inbound data connections).
    peer: Option<SiteId>,
    /// The child site this connection was dialed for (outbound links).
    outbound_child: Option<SiteId>,
}

/// One run of a [`WriteQueue`], in write order.
enum Piece {
    /// This many bytes of the queue's coalescing buffer.
    Inline(usize),
    /// A payload view shared with the buffer it arrived in and with
    /// every other connection relaying it.
    Shared(Bytes),
}

/// A connection's pending outgoing bytes: runs of coalesced small
/// messages and frame headers, interleaved with large payloads queued by
/// reference, drained front to back by vectored writes.
#[derive(Default)]
struct WriteQueue {
    /// Every coalesced byte not yet written, in queue order (consumed off
    /// the front; it compacts itself as its cursor advances).
    inline: BytesMut,
    pieces: VecDeque<Piece>,
    /// Unwritten bytes across all pieces.
    len: usize,
}

impl WriteQueue {
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether one more message may be queued: see [`MAX_PENDING_WRITE`].
    fn admits(&self) -> bool {
        self.len < MAX_PENDING_WRITE
    }

    /// Queues a control or notification message (always small): encoded
    /// straight into the coalescing buffer.
    fn encode(&mut self, message: &Message) {
        let before = self.inline.len();
        encode(message, &mut self.inline);
        self.inlined(self.inline.len() - before);
    }

    /// Queues one frame: `header`, then the first `len` bytes of
    /// `payload` — copied when short, otherwise a view of `payload`.
    fn push_frame(&mut self, header: &[u8], payload: &Bytes, len: usize) {
        // The coalescing copy: a frame header, or a payload too short
        // to be worth a queue entry of its own.
        // teeve-check: allow(relay-copy)
        self.inline.extend_from_slice(header);
        if len < COALESCE_BELOW {
            // teeve-check: allow(relay-copy)
            self.inline.extend_from_slice(&payload[..len]);
            self.inlined(header.len() + len);
        } else {
            self.inlined(header.len());
            self.len += len;
            self.pieces.push_back(Piece::Shared(payload.slice(..len)));
        }
    }

    /// Accounts `n` bytes just appended to the coalescing buffer, growing
    /// the trailing inline run or starting one.
    fn inlined(&mut self, n: usize) {
        self.len += n;
        match self.pieces.back_mut() {
            Some(Piece::Inline(run)) => *run += n,
            _ => self.pieces.push_back(Piece::Inline(n)),
        }
    }

    /// One vectored write of up to [`MAX_IOV`] leading pieces; the bytes
    /// written are consumed off the front. Returns how many were.
    fn write_to(&mut self, out: &mut impl Write) -> io::Result<usize> {
        let mut slices = [IoSlice::new(&[]); MAX_IOV];
        let mut at = 0;
        let mut count = 0;
        for (slot, piece) in slices.iter_mut().zip(&self.pieces) {
            *slot = IoSlice::new(match piece {
                Piece::Inline(run) => {
                    at += run;
                    &self.inline[at - run..at]
                }
                Piece::Shared(bytes) => bytes,
            });
            count += 1;
        }
        let written = out.write_vectored(&slices[..count])?;
        self.consume(written);
        Ok(written)
    }

    /// Drops the first `n` queued bytes, which may end mid-piece.
    fn consume(&mut self, mut n: usize) {
        self.len -= n;
        while n > 0 {
            let Some(front) = self.pieces.front_mut() else {
                return;
            };
            let left = match front {
                Piece::Inline(run) => {
                    let take = n.min(*run);
                    self.inline.advance(take);
                    *run -= take;
                    n -= take;
                    *run
                }
                Piece::Shared(bytes) => {
                    let take = n.min(bytes.len());
                    bytes.advance(take);
                    n -= take;
                    bytes.len()
                }
            };
            if left == 0 {
                self.pieces.pop_front();
            }
        }
    }
}

/// A connection's inbound bytes, read and decoded incrementally.
///
/// Bytes are read through the loop's scratch and appended to `buf`,
/// which small messages decode out of. Once a length prefix announces a
/// message of at least [`IN_PLACE_FROM`] bytes that has not fully
/// arrived, the rest of it is read in place into `whole`, an allocation
/// of its own, and it decodes out of that: its payload is a view of
/// exactly its own message's bytes, and no byte that arrives after its
/// prefix is copied. The read that completes it takes at most
/// [`SPILL`] bytes of what follows, which go to `buf`, and until the
/// next length prefix has arrived later reads take no more either: a
/// large message that follows one after a pause is read in place too.
struct ReadBuf {
    /// Undecoded bytes; empty while a message is read in place.
    buf: BytesMut,
    /// The message being read in place, if any: the `filled` bytes read
    /// so far, then zeroed room for the next read.
    whole: BytesMut,
    filled: usize,
    /// Whether the last message decoded was read in place.
    after_large: bool,
}

impl ReadBuf {
    fn new() -> ReadBuf {
        ReadBuf {
            buf: BytesMut::with_capacity(READ_CHUNK),
            whole: BytesMut::new(),
            filled: 0,
            after_large: false,
        }
    }

    /// One read from `src`: into the room of the message being read in
    /// place and then the spill at the start of `scratch`, or else into
    /// `scratch` (only its spill while a large message's successor has
    /// not shown its length). Returns how many bytes it read (0 at end of
    /// stream) and whether that was fewer than it asked for.
    fn read_from(&mut self, src: &mut impl Read, scratch: &mut [u8]) -> io::Result<(usize, bool)> {
        let Some(total) = self.in_place_len() else {
            let ahead = if self.after_large && self.buf.len() < 4 {
                SPILL - self.buf.len()
            } else {
                scratch.len()
            };
            let n = src.read(&mut scratch[..ahead])?;
            self.buf.extend_from_slice(&scratch[..n]);
            return Ok((n, n < ahead));
        };
        if self.filled == self.whole.len() {
            self.make_room(total);
        }
        // A spill only follows room that runs to the message's end.
        let spill = if self.whole.len() == total { SPILL } else { 0 };
        let room = &mut self.whole[self.filled..];
        let (room_len, asked) = (room.len(), room.len() + spill);
        let n = src.read_vectored(&mut [
            IoSliceMut::new(room),
            IoSliceMut::new(&mut scratch[..spill]),
        ])?;
        let in_place = n.min(room_len);
        self.filled += in_place;
        self.buf.extend_from_slice(&scratch[..n - in_place]);
        Ok((n, n < asked))
    }

    /// The wire length of the message being read in place. Moves the
    /// start of a large message out of `buf` first when that is all `buf`
    /// holds; an oversized length prefix is left to `decode` to refuse,
    /// before anything is allocated for it.
    fn in_place_len(&mut self) -> Option<usize> {
        if !self.whole.is_empty() {
            return wire_len(&self.whole);
        }
        let total = wire_len(&self.buf)?;
        if !(4 + IN_PLACE_FROM..=4 + MAX_MESSAGE_BYTES).contains(&total) || total <= self.buf.len()
        {
            return None;
        }
        self.filled = self.buf.len();
        self.whole = mem::take(&mut self.buf);
        Some(total)
    }

    /// Moves the message being read in place into an allocation with
    /// room for its next bytes: its whole length, or what has arrived
    /// plus one read chunk if that is less, so a length prefix alone buys
    /// no more memory than a read chunk. Past two chunks the room grows
    /// by half what has arrived, so a long message moves O(1) times per
    /// byte.
    fn make_room(&mut self, total: usize) {
        let len = total.min(self.filled + READ_CHUNK.max(self.filled / 2));
        let mut room = BytesMut::with_capacity(len);
        room.extend_from_slice(&self.whole[..self.filled]);
        // Safe code reads only into initialised bytes: each byte of the
        // message is zeroed once, here, before the read that lands in it.
        // teeve-check: allow(read-scratch)
        room.resize(len, 0);
        self.whole = room;
    }

    /// Decodes the next complete message: the one read in place once all
    /// of it has arrived, else the next in `buf`.
    fn next_message(&mut self) -> Result<Option<Message>, WireError> {
        if self.whole.is_empty() {
            let next = decode(&mut self.buf);
            self.after_large &= !matches!(next, Ok(Some(_)));
            return next;
        }
        if wire_len(&self.whole) != Some(self.filled) {
            return Ok(None);
        }
        self.filled = 0;
        self.after_large = true;
        decode(&mut mem::take(&mut self.whole))
    }
}

/// Queues one message on connection `token` — `write` puts it on the
/// connection's queue — and marks the connection for the end-of-iteration
/// flush. A connection at its backlog cap sheds the message (see
/// [`MAX_PENDING_WRITE`]), counted loop-wide in `dropped` and for the
/// owning node in `shed`. Takes the loop's fields apart so fan-out can
/// queue while it borrows the node's table.
fn queue_write(
    entries: &mut [Option<Entry>],
    dirty: &mut Vec<usize>,
    dropped: &Counter,
    shed: &mut u64,
    token: usize,
    write: impl FnOnce(&mut WriteQueue),
) {
    let Some(Some(Entry::Conn(conn))) = entries.get_mut(token) else {
        return;
    };
    if conn.closing {
        return;
    }
    if !conn.out.admits() {
        dropped.incr();
        *shed += 1;
        return;
    }
    write(&mut conn.out);
    if !conn.dirty {
        conn.dirty = true;
        dirty.push(token);
    }
}

/// A slab slot: a node's listener or one of its connections.
enum Entry {
    Listener { listener: TcpListener, node: usize },
    Conn(Box<Conn>),
}

/// A paced `Publish` batch parked in the timer map: its next firing
/// forwards frame `next_seq` of every one of `streams`.
struct PacedBatch {
    node_key: u64,
    streams: Vec<StreamId>,
    next_seq: u64,
    end_seq: u64,
    interval_micros: u64,
    payload: Bytes,
}

/// Shared metric handles one loop updates (all loops share the same
/// underlying registry entries).
struct LoopMetrics {
    conns_live: Gauge,
    nodes_registered: Gauge,
    threads_per_rp_milli: Gauge,
    wakeup_batch: Histogram,
    dropped_writes: Counter,
    /// Frames a node's table routed to a child it had no outbound link
    /// to — the window between a link failing and the coordinator
    /// reacting to its `LinkFailed`.
    frames_unrouted: Counter,
    threads: u64,
}

impl LoopMetrics {
    fn new(registry: &MetricsRegistry, threads: u64) -> LoopMetrics {
        LoopMetrics {
            conns_live: registry.gauge("reactor.connections.live"),
            nodes_registered: registry.gauge("reactor.nodes.registered"),
            threads_per_rp_milli: registry.gauge("reactor.threads_per_rp_milli"),
            wakeup_batch: registry.histogram("reactor.wakeup_batch"),
            dropped_writes: registry.counter("reactor.writes.dropped"),
            frames_unrouted: registry.counter("reactor.frames_unrouted"),
            threads,
        }
    }

    /// Recomputes `threads per RP × 1000` from the live node gauge.
    fn refresh_ratio(&self) {
        let nodes = self.nodes_registered.get().max(1);
        self.threads_per_rp_milli
            .set(self.threads.saturating_mul(1000) / nodes);
    }
}

/// The full private state of one event loop.
struct LoopState {
    poll: Poll,
    /// Token-indexed slab of listeners and connections.
    entries: Vec<Option<Entry>>,
    /// Reusable slab tokens.
    free: Vec<usize>,
    /// Tokens freed during the current iteration; recycled only at its
    /// end so a token is never reused while this iteration's readiness
    /// records may still reference its previous occupant.
    pending_free: Vec<usize>,
    nodes: Vec<Option<NodeState>>,
    node_free: Vec<usize>,
    /// Reactor-wide node key → local slab index.
    node_keys: BTreeMap<u64, usize>,
    /// Paced publishes by (due unix-micros, tiebreak seq).
    timers: BTreeMap<(u64, u64), PacedBatch>,
    timer_seq: u64,
    /// Connections with bytes queued this iteration, flushed once at
    /// its end.
    dirty: Vec<usize>,
    /// The one buffer every socket read on this loop lands in, before
    /// its bytes move to the connection's `read_buf`, except the bytes
    /// of a large message read in place; its first [`SPILL`] bytes are
    /// that read's spill. Allocated and zeroed once per loop, never per
    /// read.
    read_scratch: Box<[u8]>,
    metrics: LoopMetrics,
}

impl LoopState {
    fn new(poll: Poll, metrics: LoopMetrics) -> LoopState {
        LoopState {
            poll,
            entries: Vec::new(),
            free: Vec::new(),
            pending_free: Vec::new(),
            nodes: Vec::new(),
            node_free: Vec::new(),
            node_keys: BTreeMap::new(),
            timers: BTreeMap::new(),
            timer_seq: 0,
            dirty: Vec::new(),
            read_scratch: vec![0; READ_CHUNK].into_boxed_slice(),
            metrics,
        }
    }

    // ---- slab plumbing ----------------------------------------------

    fn alloc_token(&mut self) -> usize {
        if let Some(token) = self.free.pop() {
            token
        } else {
            self.entries.push(None);
            self.entries.len() - 1
        }
    }

    fn set_entry(&mut self, token: usize, entry: Entry) {
        if let Some(slot) = self.entries.get_mut(token) {
            *slot = Some(entry);
        }
    }

    fn conn_mut(&mut self, token: usize) -> Option<&mut Conn> {
        match self.entries.get_mut(token).and_then(Option::as_mut) {
            Some(Entry::Conn(conn)) => Some(conn),
            _ => None,
        }
    }

    fn conn_node(&self, token: usize) -> Option<usize> {
        match self.entries.get(token).and_then(Option::as_ref) {
            Some(Entry::Conn(conn)) => Some(conn.node),
            _ => None,
        }
    }

    fn node_ref(&self, idx: usize) -> Option<&NodeState> {
        self.nodes.get(idx).and_then(Option::as_ref)
    }

    fn node_mut(&mut self, idx: usize) -> Option<&mut NodeState> {
        self.nodes.get_mut(idx).and_then(Option::as_mut)
    }

    /// Makes this iteration's freed tokens reusable. Called only at the
    /// end of an iteration — see `pending_free`.
    fn recycle(&mut self) {
        self.free.append(&mut self.pending_free);
    }

    // ---- node lifecycle ---------------------------------------------

    fn register_node(&mut self, seed: NodeSeed) {
        let NodeSeed {
            key,
            site,
            listener,
            recorder,
            done,
        } = seed;
        let mut listener = TcpListener::from_std(listener);
        let node_idx = if let Some(idx) = self.node_free.pop() {
            idx
        } else {
            self.nodes.push(None);
            self.nodes.len() - 1
        };
        let token = self.alloc_token();
        if self
            .poll
            .registry()
            .register(&mut listener, Token(token), Interest::READABLE)
            .is_err()
        {
            self.free.push(token);
            self.node_free.push(node_idx);
            return;
        }
        self.set_entry(
            token,
            Entry::Listener {
                listener,
                node: node_idx,
            },
        );
        if let Some(slot) = self.nodes.get_mut(node_idx) {
            *slot = Some(NodeState {
                key,
                site,
                listener_token: Some(token),
                table: ForwardingTable::empty(site),
                outbound: BTreeMap::new(),
                book: Vec::new(),
                held_ack: None,
                conns: BTreeSet::new(),
                control: None,
                stats: NodeStats::default(),
                shed: 0,
                armed: None,
                recorder,
                _done: done,
                stopping: false,
            });
        }
        self.node_keys.insert(key, node_idx);
        self.metrics.nodes_registered.add(1);
        self.metrics.refresh_ratio();
    }

    /// Graceful teardown: cascade `End` for locally originated streams,
    /// flush-then-shut every outbound link, close the listener (a dial
    /// from here on is refused, never served). Idempotent. The node is
    /// removed once its last connection dies (inbound links die by peer
    /// EOF).
    fn shutdown_node(&mut self, node_idx: usize) {
        let origins: Vec<StreamId> = {
            let Some(node) = self.node_mut(node_idx) else {
                return;
            };
            if node.stopping {
                return;
            }
            node.stopping = true;
            node.table
                .plan
                .entries
                .iter()
                .filter(|e| e.is_origin() && !e.children.is_empty())
                .map(|e| e.stream)
                .collect()
        };
        for stream in origins {
            self.end_stream(node_idx, stream);
        }
        let outbound: Vec<usize> = self
            .node_ref(node_idx)
            .map(|n| n.outbound.values().copied().collect())
            .unwrap_or_default();
        for token in outbound {
            self.begin_close(token);
        }
        let listener_token = self
            .node_mut(node_idx)
            .and_then(|n| n.listener_token.take());
        if let Some(token) = listener_token {
            self.drop_listener(token);
        }
        self.maybe_finish_node(node_idx);
    }

    fn drop_listener(&mut self, token: usize) {
        let is_listener = matches!(
            self.entries.get(token).and_then(Option::as_ref),
            Some(Entry::Listener { .. })
        );
        if !is_listener {
            return;
        }
        let Some(slot) = self.entries.get_mut(token) else {
            return;
        };
        if let Some(Entry::Listener { mut listener, .. }) = slot.take() {
            let _ = self.poll.registry().deregister(&mut listener);
        }
        self.pending_free.push(token);
    }

    /// Removes a stopping node whose last connection just died.
    fn maybe_finish_node(&mut self, node_idx: usize) {
        let finished = self
            .node_ref(node_idx)
            .is_some_and(|n| n.stopping && n.conns.is_empty() && n.listener_token.is_none());
        if finished {
            self.remove_node(node_idx);
        }
    }

    /// Forced removal: every remaining connection is dropped without
    /// notifications (the node itself is going away), timers cancelled,
    /// and joiners released as the node's state drops.
    fn remove_node(&mut self, node_idx: usize) {
        let Some(slot) = self.nodes.get_mut(node_idx) else {
            return;
        };
        let Some(node) = slot.take() else {
            return;
        };
        for &token in &node.conns {
            let is_conn = matches!(
                self.entries.get(token).and_then(Option::as_ref),
                Some(Entry::Conn(_))
            );
            if !is_conn {
                continue;
            }
            if let Some(slot) = self.entries.get_mut(token) {
                if let Some(Entry::Conn(mut conn)) = slot.take() {
                    let _ = self.poll.registry().deregister(&mut conn.stream);
                    self.metrics.conns_live.sub(1);
                }
            }
            self.pending_free.push(token);
        }
        if let Some(token) = node.listener_token {
            self.drop_listener(token);
        }
        self.node_keys.remove(&node.key);
        self.timers.retain(|_, batch| batch.node_key != node.key);
        self.metrics.nodes_registered.sub(1);
        self.metrics.refresh_ratio();
        self.node_free.push(node_idx);
    }

    /// `StopNode` command: graceful teardown, a best-effort flush of
    /// the `End` cascade, then immediate removal.
    fn stop_node(&mut self, key: u64) {
        let Some(&node_idx) = self.node_keys.get(&key) else {
            return;
        };
        self.shutdown_node(node_idx);
        self.flush_dirty();
        self.remove_node(node_idx);
    }

    /// Quit: abandon every hosted node so joins unblock.
    fn abandon(&mut self) {
        let hosted: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.node_ref(i).is_some())
            .collect();
        for node_idx in hosted {
            self.remove_node(node_idx);
        }
    }

    // ---- event handling ---------------------------------------------

    fn handle_event(&mut self, token: usize, readable: bool, writable: bool) {
        match self.entries.get(token).and_then(Option::as_ref) {
            Some(Entry::Listener { node, .. }) => {
                let node_idx = *node;
                self.accept_ready(token, node_idx);
            }
            Some(Entry::Conn(_)) => {
                if writable {
                    self.on_writable(token);
                }
                if readable {
                    self.on_readable(token);
                }
            }
            None => {}
        }
    }

    fn accept_ready(&mut self, token: usize, node_idx: usize) {
        loop {
            let accepted = match self.entries.get(token).and_then(Option::as_ref) {
                Some(Entry::Listener { listener, .. }) => listener.accept(),
                _ => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    stream.set_nodelay(true).ok();
                    self.add_conn(stream, node_idx, true, None);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn add_conn(
        &mut self,
        mut stream: TcpStream,
        node_idx: usize,
        connected: bool,
        outbound_child: Option<SiteId>,
    ) -> Option<usize> {
        let token = self.alloc_token();
        let interest = if connected {
            Interest::READABLE
        } else {
            // Writability signals dial completion.
            Interest::READABLE.add(Interest::WRITABLE)
        };
        if self
            .poll
            .registry()
            .register(&mut stream, Token(token), interest)
            .is_err()
        {
            self.free.push(token);
            return None;
        }
        self.set_entry(
            token,
            Entry::Conn(Box::new(Conn {
                stream,
                node: node_idx,
                read_buf: ReadBuf::new(),
                out: WriteQueue::default(),
                wants_write: !connected,
                connected,
                closing: false,
                dirty: false,
                peer: None,
                outbound_child,
            })),
        );
        if let Some(node) = self.node_mut(node_idx) {
            node.conns.insert(token);
        }
        self.metrics.conns_live.add(1);
        Some(token)
    }

    fn on_writable(&mut self, token: usize) {
        let Some(conn) = self.conn_mut(token) else {
            return;
        };
        if conn.connected {
            self.flush_conn(token);
            return;
        }
        // A dial's outcome. Closing a failed one reports its child.
        if !matches!(conn.stream.take_error(), Ok(None)) {
            self.close_conn(token);
            return;
        }
        conn.connected = true;
        let node_idx = conn.node;
        self.flush_conn(token);
        self.release_ack(node_idx);
    }

    /// Reads a readable connection (see [`ReadBuf::read_from`]) and
    /// dispatches what decodes, until a read comes back short.
    ///
    /// A read that fills less than it asked for has emptied the
    /// socket, so the extra read that would only return `WouldBlock` is
    /// skipped. That is safe under the vendored shim's level-triggered
    /// epoll (bytes still unread re-report the socket on the next poll)
    /// and under upstream mio's edge-triggered epoll too, because bytes
    /// arriving after the short read raise a fresh edge; tokio relies on
    /// the same rule.
    fn on_readable(&mut self, token: usize) {
        loop {
            let LoopState {
                entries,
                read_scratch,
                ..
            } = self;
            let Some(Some(Entry::Conn(conn))) = entries.get_mut(token) else {
                return;
            };
            // Nothing legitimate ever flows back on an outbound data
            // link; discard so only EOF/errors matter.
            let outbound = conn.outbound_child.is_some();
            let read = if outbound {
                conn.stream
                    .read(read_scratch)
                    .map(|n| (n, n < read_scratch.len()))
            } else {
                conn.read_buf.read_from(&mut conn.stream, read_scratch)
            };
            match read {
                Ok((0, _)) => {
                    self.close_conn(token);
                    return;
                }
                Ok((_, drained)) => {
                    if !outbound && !self.drain_messages(token) {
                        return;
                    }
                    if drained {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    /// Decodes and dispatches every complete message buffered on a
    /// connection. Returns false when the connection was closed.
    fn drain_messages(&mut self, token: usize) -> bool {
        loop {
            let decoded = {
                let Some(conn) = self.conn_mut(token) else {
                    return false;
                };
                conn.read_buf.next_message()
            };
            match decoded {
                Ok(Some(message)) => {
                    if !self.dispatch(token, message) {
                        return false;
                    }
                }
                Ok(None) => return true,
                Err(_) => {
                    self.close_conn(token);
                    return false;
                }
            }
        }
    }

    /// The RP's message table: records and forwards frames, cascades
    /// per-stream `End` markers, and executes coordinator orders that
    /// arrive on the attached control channel. Returns false when the
    /// connection was closed by the message.
    fn dispatch(&mut self, token: usize, message: Message) -> bool {
        let Some(node_idx) = self.conn_node(token) else {
            return false;
        };
        // Only the attached coordinator gives orders: one arriving on any
        // other connection is a protocol violation.
        let order = matches!(
            message,
            Message::Reconfigure { .. }
                | Message::Publish { .. }
                | Message::StatsRequest { .. }
                | Message::Shutdown
        );
        if order && self.node_ref(node_idx).and_then(|node| node.control) != Some(token) {
            self.close_conn(token);
            return false;
        }
        match message {
            Message::Frame {
                stream,
                quality,
                seq,
                captured_micros,
                payload,
            } => {
                // Deliver at the effective rung (the coarser of the wire
                // tag and this RP's planned quality) and pass the frame
                // on, further degraded if the plan says so.
                let effective =
                    self.forward_frame(node_idx, stream, seq, captured_micros, &payload, quality);
                let report = self.node_mut(node_idx).and_then(|node| {
                    node.stats.record(
                        stream,
                        unix_micros().saturating_sub(captured_micros),
                        !effective.is_full(),
                    );
                    node.due_report()
                });
                if let Some(report) = report {
                    self.notify(node_idx, &report);
                }
                true
            }
            Message::End { stream } => {
                self.end_stream(node_idx, stream);
                true
            }
            Message::Hello { site } => {
                if let Some(node) = self.node_mut(node_idx) {
                    node.recorder.record(FlightEventKind::LinkUp {
                        parent: site.index() as u32,
                        child: node.site.index() as u32,
                    });
                }
                if let Some(conn) = self.conn_mut(token) {
                    conn.peer = Some(site);
                }
                true
            }
            Message::Reconfigure {
                revision,
                site_plan,
            } => {
                let Some(node) = self.node_mut(node_idx) else {
                    return false;
                };
                // A replayed order for an older revision must not roll
                // the table back; it is still acknowledged so a
                // coordinator retry converges.
                if revision >= node.table.revision {
                    node.table.revision = revision;
                    node.table.plan = site_plan;
                }
                node.recorder
                    .record(FlightEventKind::Reconfigure { revision, sites: 1 });
                // Epoch boundary: everything sent after this Ack is
                // routed by the new table.
                node.held_ack = node.held_ack.max(Some(revision));
                self.follow_table(node_idx);
                self.release_ack(node_idx);
                true
            }
            Message::Attach { addrs } => {
                // Latest attach wins: a reconnected coordinator's fresh
                // channel atomically replaces a dead one.
                let reply = {
                    let Some(node) = self.node_mut(node_idx) else {
                        return false;
                    };
                    node.control = Some(token);
                    node.book = addrs;
                    // A watermark armed by the replaced coordinator must
                    // not answer this one: its probe numbering restarts,
                    // and so does the shed count its replies carry.
                    node.armed = None;
                    node.shed = 0;
                    node.recorder.record(FlightEventKind::ResyncStart);
                    // Describe this RP as it stands *now*. The reply is a
                    // snapshot: the coordinator still closes its
                    // convergence with a dictation barrier.
                    Message::Attached {
                        revision: node.table.revision,
                        total: node.stats.total(),
                    }
                };
                self.send(token, &reply);
                true
            }
            Message::Publish {
                streams,
                base_seq,
                frames,
                payload_bytes,
                interval_micros,
            } => {
                self.publish(
                    node_idx,
                    streams,
                    base_seq,
                    frames,
                    payload_bytes,
                    interval_micros,
                );
                true
            }
            Message::StatsRequest {
                probe,
                at_least,
                full,
            } => {
                let report = match self.node_mut(node_idx) {
                    Some(node) => {
                        // A newer request replaces an armed one.
                        node.armed = Some(ArmedProbe {
                            probe,
                            at_least,
                            full,
                        });
                        node.due_report()
                    }
                    None => return false,
                };
                if let Some(report) = report {
                    self.notify(node_idx, &report);
                }
                true
            }
            Message::Shutdown => {
                self.shutdown_node(node_idx);
                self.close_conn(token);
                false
            }
            // RP-bound traffic never includes coordinator-bound
            // replies; drop the link on protocol violations.
            Message::Ack { .. }
            | Message::LinkFailed { .. }
            | Message::Delivered { .. }
            | Message::StatsReport { .. }
            | Message::Attached { .. } => {
                self.close_conn(token);
                false
            }
        }
    }

    // ---- protocol actions -------------------------------------------

    /// Forwards one frame — arriving at `tagged` quality — to this RP's
    /// planned children for `stream`, each copy addressed by
    /// [`Relayed::copy_for`]: every child's queue gets its own header and
    /// a view of `payload`, never a copy of it. Returns the effective
    /// rung this RP itself delivers at (tag vs own plan), which its stats
    /// record.
    fn forward_frame(
        &mut self,
        node_idx: usize,
        stream: StreamId,
        seq: u64,
        captured_micros: u64,
        payload: &Bytes,
        tagged: Quality,
    ) -> Quality {
        let LoopState {
            nodes,
            entries,
            dirty,
            metrics,
            ..
        } = self;
        let Some(NodeState {
            table,
            outbound,
            shed,
            ..
        }) = nodes.get_mut(node_idx).and_then(Option::as_mut)
        else {
            return tagged;
        };
        let (children, planned) = plan_entry(&table.plan, stream);
        let frame = Relayed {
            stream,
            seq,
            captured_micros,
            payload_len: payload.len(),
            tagged,
            effective: tagged.max(planned),
        };
        for child in children {
            let Some(&token) = outbound.get(&child.site) else {
                metrics.frames_unrouted.incr();
                continue;
            };
            let (header, len) = frame.copy_for(child);
            queue_write(
                entries,
                dirty,
                &metrics.dropped_writes,
                shed,
                token,
                |out| {
                    out.push_frame(&header, payload, len);
                },
            );
        }
        frame.effective
    }

    /// Cascades `stream`'s `End` marker to its children: the graceful
    /// per-stream termination signal. Connections themselves outlive the
    /// stream (they may carry others, or pick new ones up at the next
    /// reconfiguration).
    fn end_stream(&mut self, node_idx: usize, stream: StreamId) {
        let LoopState {
            nodes,
            entries,
            dirty,
            metrics,
            ..
        } = self;
        let Some(NodeState {
            table,
            outbound,
            shed,
            ..
        }) = nodes.get_mut(node_idx).and_then(Option::as_mut)
        else {
            return;
        };
        let end = Message::End { stream };
        for child in plan_entry(&table.plan, stream).0 {
            if let Some(&token) = outbound.get(&child.site) {
                queue_write(
                    entries,
                    dirty,
                    &metrics.dropped_writes,
                    shed,
                    token,
                    |out| {
                        out.encode(&end);
                    },
                );
            }
        }
    }

    /// Queues `message` on connection `token` (see [`queue_write`]).
    fn send(&mut self, token: usize, message: &Message) {
        let Some(node_idx) = self.conn_node(token) else {
            return;
        };
        let LoopState {
            nodes,
            entries,
            dirty,
            metrics,
            ..
        } = self;
        let Some(node) = nodes.get_mut(node_idx).and_then(Option::as_mut) else {
            return;
        };
        queue_write(
            entries,
            dirty,
            &metrics.dropped_writes,
            &mut node.shed,
            token,
            |out| out.encode(message),
        );
    }

    /// Best-effort control-channel send (a detached coordinator drops
    /// the notification — the ack-suppression resync relies on).
    fn notify(&mut self, node_idx: usize, message: &Message) {
        if let Some(conn_token) = self.node_ref(node_idx).and_then(|n| n.control) {
            self.send(conn_token, message);
        }
    }

    /// Brings the node's outbound links in line with the table it runs:
    /// each link to a child the table no longer routes to is flushed,
    /// write-shut and dropped, and each routed child without a link is
    /// dialed at its entry in the address book. A routed child that has
    /// no entry there, or whose dial fails at once, is reported as
    /// `LinkFailed`. A stopping node opens nothing.
    fn follow_table(&mut self, node_idx: usize) {
        let (dropped, missing) = {
            let Some(node) = self.node_ref(node_idx) else {
                return;
            };
            if node.stopping {
                return;
            }
            let routed = node.table.plan.children();
            let dropped: Vec<SiteId> = node
                .outbound
                .keys()
                .filter(|child| !routed.contains(child))
                .copied()
                .collect();
            let missing: Vec<SiteId> = routed
                .into_iter()
                .filter(|child| !node.outbound.contains_key(child))
                .collect();
            (dropped, missing)
        };
        for child in dropped {
            let removed = self
                .node_mut(node_idx)
                .and_then(|node| node.outbound.remove(&child));
            if let Some(token) = removed {
                self.begin_close(token);
            }
        }
        for child in missing {
            let addr = self
                .node_ref(node_idx)
                .and_then(|node| node.book.get(child.index()).copied());
            let opened = addr.is_some_and(|addr| self.open_link(node_idx, child, addr));
            if !opened {
                self.notify(node_idx, &Message::LinkFailed { child });
            }
        }
    }

    /// Dials `child` at `addr`, opens the connection with the `Hello`
    /// preamble and registers it as the link to `child` at once, so
    /// frames routed there queue behind the preamble while the dial
    /// completes. Returns false when the dial fails outright.
    fn open_link(&mut self, node_idx: usize, child: SiteId, addr: SocketAddr) -> bool {
        let Some(site) = self.node_ref(node_idx).map(|node| node.site) else {
            return false;
        };
        let Ok(stream) = TcpStream::connect(addr) else {
            return false;
        };
        stream.set_nodelay(true).ok();
        let Some(token) = self.add_conn(stream, node_idx, false, Some(child)) else {
            return false;
        };
        self.send(token, &Message::Hello { site });
        if let Some(node) = self.node_mut(node_idx) {
            node.outbound.insert(child, token);
        }
        true
    }

    /// Sends the held `Ack` once none of the node's links is still being
    /// dialed, so an `Ack` means every link its table needs is connected
    /// or has been reported as `LinkFailed`.
    fn release_ack(&mut self, node_idx: usize) {
        let dialing = self.node_ref(node_idx).is_some_and(|node| {
            node.outbound.values().any(|&token| {
                matches!(
                    self.entries.get(token),
                    Some(Some(Entry::Conn(conn))) if !conn.connected
                )
            })
        });
        if dialing {
            return;
        }
        let held = self
            .node_mut(node_idx)
            .and_then(|node| node.held_ack.take());
        if let Some(revision) = held {
            self.notify(node_idx, &Message::Ack { revision });
        }
    }

    /// Executes a `Publish` order: inject a batch of synthetic frames of
    /// each listed, locally originated stream into the overlay —
    /// unpaced, one stream's whole batch after another; paced, one frame
    /// of every stream per firing. The origin publishes at full quality;
    /// `forward_frame` degrades (sizes and tags) to the origin entry's
    /// planned rung.
    fn publish(
        &mut self,
        node_idx: usize,
        streams: Vec<StreamId>,
        base_seq: u64,
        frames: u64,
        payload_bytes: u32,
        interval_micros: u64,
    ) {
        let payload = Bytes::from(vec![0x3D; payload_bytes as usize]);
        let end_seq = base_seq.saturating_add(frames);
        if interval_micros == 0 {
            // Unpaced: inject the whole batch inline.
            for stream in streams {
                for seq in base_seq..end_seq {
                    self.forward_frame(
                        node_idx,
                        stream,
                        seq,
                        unix_micros(),
                        &payload,
                        Quality::FULL,
                    );
                }
            }
            return;
        }
        let node_key = match self.node_ref(node_idx) {
            Some(node) => node.key,
            None => return,
        };
        if base_seq < end_seq {
            // The first firing is due immediately; fire_timers runs
            // later this same iteration.
            self.schedule(
                PacedBatch {
                    node_key,
                    streams,
                    next_seq: base_seq,
                    end_seq,
                    interval_micros,
                    payload,
                },
                unix_micros(),
            );
        }
    }

    // ---- timers ------------------------------------------------------

    fn schedule(&mut self, batch: PacedBatch, due_micros: u64) {
        self.timer_seq += 1;
        self.timers.insert((due_micros, self.timer_seq), batch);
    }

    /// The poll timeout: time until the earliest timer, or forever.
    fn next_timeout(&self) -> Option<Duration> {
        self.timers
            .first_key_value()
            .map(|(&(due, _), _)| Duration::from_micros(due.saturating_sub(unix_micros())))
    }

    fn fire_timers(&mut self) {
        loop {
            let now = unix_micros();
            let key = match self.timers.first_key_value() {
                Some((&(due, seq), _)) if due <= now => (due, seq),
                _ => return,
            };
            let Some(batch) = self.timers.remove(&key) else {
                return;
            };
            let Some(&node_idx) = self.node_keys.get(&batch.node_key) else {
                continue;
            };
            for &stream in &batch.streams {
                self.forward_frame(
                    node_idx,
                    stream,
                    batch.next_seq,
                    now,
                    &batch.payload,
                    Quality::FULL,
                );
            }
            let next_seq = batch.next_seq + 1;
            if next_seq < batch.end_seq {
                let due = now.saturating_add(batch.interval_micros);
                self.schedule(PacedBatch { next_seq, ..batch }, due);
            }
        }
    }

    // ---- write path --------------------------------------------------

    /// Flushes every connection dirtied this iteration — one write
    /// burst per wakeup per connection.
    fn flush_dirty(&mut self) {
        let dirty = std::mem::take(&mut self.dirty);
        for token in dirty {
            if let Some(conn) = self.conn_mut(token) {
                conn.dirty = false;
            } else {
                continue;
            }
            self.flush_conn(token);
        }
    }

    /// Requests flush-then-close on a connection (a link the table
    /// dropped, shutdown cascades): pending bytes still go out, then the
    /// write half shuts so the peer observes EOF, then the connection
    /// drops.
    fn begin_close(&mut self, token: usize) {
        let ready = {
            let Some(conn) = self.conn_mut(token) else {
                return;
            };
            if conn.closing {
                return;
            }
            conn.closing = true;
            conn.connected && conn.out.is_empty()
        };
        if ready {
            if let Some(conn) = self.conn_mut(token) {
                let _ = conn.stream.shutdown(Shutdown::Write);
            }
            self.close_conn(token);
        } else {
            let newly_dirty = self.conn_mut(token).is_some_and(|conn| {
                if conn.dirty {
                    false
                } else {
                    conn.dirty = true;
                    true
                }
            });
            if newly_dirty {
                self.dirty.push(token);
            }
        }
    }

    fn flush_conn(&mut self, token: usize) {
        enum After {
            Nothing,
            Close,
            CloseGraceful,
            Reregister(Interest),
        }
        let after = {
            let Some(conn) = self.conn_mut(token) else {
                return;
            };
            if !conn.connected {
                return;
            }
            let mut dead = false;
            while !conn.out.is_empty() {
                match conn.out.write_to(&mut conn.stream) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if dead {
                After::Close
            } else if conn.out.is_empty() {
                if conn.closing {
                    After::CloseGraceful
                } else if conn.wants_write {
                    conn.wants_write = false;
                    After::Reregister(Interest::READABLE)
                } else {
                    After::Nothing
                }
            } else if conn.wants_write {
                // Partially written but WRITABLE interest already held:
                // the next writability record resumes the flush.
                After::Nothing
            } else {
                conn.wants_write = true;
                After::Reregister(Interest::READABLE.add(Interest::WRITABLE))
            }
        };
        match after {
            After::Nothing => {}
            After::Close => self.close_conn(token),
            After::CloseGraceful => {
                if let Some(conn) = self.conn_mut(token) {
                    let _ = conn.stream.shutdown(Shutdown::Write);
                }
                self.close_conn(token);
            }
            After::Reregister(interest) => self.reregister_conn(token, interest),
        }
    }

    fn reregister_conn(&mut self, token: usize, interest: Interest) {
        let mut failed = false;
        {
            let registry = self.poll.registry();
            if let Some(Entry::Conn(conn)) = self.entries.get_mut(token).and_then(Option::as_mut) {
                failed = registry
                    .reregister(&mut conn.stream, Token(token), interest)
                    .is_err();
            }
        }
        if failed {
            self.close_conn(token);
        }
    }

    /// Tears one connection down: report the child of a link the table
    /// still routes to as `LinkFailed` (unless the node is stopping),
    /// record an attributed inbound link's LinkDown, detach the control
    /// channel if this was still it (CoordinatorLost: acks stop flowing
    /// into a dead socket until a re-`Attach` arrives), then
    /// finish the node if it was stopping and this was its last
    /// connection.
    fn close_conn(&mut self, token: usize) {
        let is_conn = matches!(
            self.entries.get(token).and_then(Option::as_ref),
            Some(Entry::Conn(_))
        );
        if !is_conn {
            return;
        }
        let Some(slot) = self.entries.get_mut(token) else {
            return;
        };
        let Some(Entry::Conn(mut conn)) = slot.take() else {
            return;
        };
        let _ = self.poll.registry().deregister(&mut conn.stream);
        self.pending_free.push(token);
        self.metrics.conns_live.sub(1);
        let node_idx = conn.node;
        let mut failed: Option<SiteId> = None;
        if let Some(node) = self.node_mut(node_idx) {
            node.conns.remove(&token);
            if let Some(child) = conn.outbound_child {
                // Still registered: the table routes to `child`, and the
                // link died under it.
                if node.outbound.get(&child) == Some(&token) {
                    node.outbound.remove(&child);
                    failed = (!node.stopping).then_some(child);
                }
            }
            if let Some(site) = conn.peer {
                node.recorder.record(FlightEventKind::LinkDown {
                    parent: site.index() as u32,
                    child: node.site.index() as u32,
                });
            }
            if node.control == Some(token) {
                node.control = None;
                node.recorder.record(FlightEventKind::CoordinatorLost);
            }
        }
        if let Some(child) = failed {
            self.notify(node_idx, &Message::LinkFailed { child });
            self.release_ack(node_idx);
        }
        drop(conn);
        self.maybe_finish_node(node_idx);
    }
}

/// One event loop's thread body.
fn run_loop(mut state: LoopState, commands: Arc<Mutex<Vec<Command>>>) {
    let mut events = Events::with_capacity(EVENTS_PER_POLL);
    'outer: loop {
        let timeout = state.next_timeout();
        if state.poll.poll(&mut events, timeout).is_err() {
            // epoll_wait only fails on programming errors (EINTR is
            // retried inside the shim); abandon rather than spin.
            break;
        }
        state.metrics.wakeup_batch.record(events.len() as u64);
        let mut woken = false;
        for event in events.iter() {
            if event.token() == WAKE {
                woken = true;
                continue;
            }
            state.handle_event(event.token().0, event.is_readable(), event.is_writable());
        }
        if woken {
            let drained: Vec<Command> = std::mem::take(&mut *commands.lock());
            for command in drained {
                match command {
                    Command::Register(seed) => state.register_node(*seed),
                    Command::StopNode { key } => state.stop_node(key),
                    Command::Quit => break 'outer,
                }
            }
        }
        state.fire_timers();
        state.flush_dirty();
        state.recycle();
    }
    state.abandon();
}

/// A pool of non-blocking event loops hosting many RPs per thread.
///
/// Nodes bound via [`bind_node`](Self::bind_node) /
/// [`bind_node_at`](Self::bind_node_at) are spread round-robin over the
/// loops. Each is one site's autonomous RP — it owns its listener, its
/// revision-tagged forwarding table, its outbound link set and its
/// delivery counters, and is addressed only by socket — so the same
/// [`Coordinator`](crate::Coordinator) drives it whether the reactor
/// lives in its own process, in another, or on another host.
///
/// Dropping the reactor quits every loop, abandoning nodes still hosted
/// (their `join` unblocks); stop nodes first for a graceful end.
pub struct Reactor {
    loops: Vec<LoopHandle>,
    next_loop: AtomicUsize,
    next_key: AtomicU64,
    telemetry: MetricsRegistry,
    recorder: FlightRecorder,
}

struct LoopHandle {
    commands: Arc<Mutex<Vec<Command>>>,
    waker: Arc<Waker>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Reactor {
    /// Starts a reactor with `threads` event loops (at least one).
    ///
    /// # Errors
    ///
    /// Propagates epoll/eventfd creation failure (fd exhaustion).
    pub fn new(threads: usize) -> io::Result<Reactor> {
        Self::with_telemetry(threads, MetricsRegistry::new(), FlightRecorder::new())
    }

    /// Starts a reactor reporting into caller-supplied telemetry: live
    /// connection and registered-node gauges, the `reactor.wakeup_batch`
    /// events-per-poll histogram, a `reactor.threads_per_rp_milli`
    /// thread-amortization gauge, and ReactorStart/ReactorStop flight
    /// events.
    ///
    /// # Errors
    ///
    /// Propagates epoll/eventfd creation failure (fd exhaustion).
    pub fn with_telemetry(
        threads: usize,
        telemetry: MetricsRegistry,
        recorder: FlightRecorder,
    ) -> io::Result<Reactor> {
        let threads = threads.max(1);
        let mut loops = Vec::with_capacity(threads);
        for _ in 0..threads {
            let poll = Poll::new()?;
            let waker = Arc::new(Waker::new(poll.registry(), WAKE)?);
            let commands: Arc<Mutex<Vec<Command>>> = Arc::new(Mutex::new(Vec::new()));
            let metrics = LoopMetrics::new(&telemetry, threads as u64);
            let state = LoopState::new(poll, metrics);
            let thread_commands = Arc::clone(&commands);
            let thread = thread::spawn(move || run_loop(state, thread_commands));
            loops.push(LoopHandle {
                commands,
                waker,
                thread: Some(thread),
            });
        }
        telemetry.gauge("reactor.threads").set(threads as u64);
        recorder.record(FlightEventKind::ReactorStart {
            threads: threads as u64,
        });
        Ok(Reactor {
            loops,
            next_loop: AtomicUsize::new(0),
            next_key: AtomicU64::new(0),
            telemetry,
            recorder,
        })
    }

    /// Number of event-loop threads.
    pub fn threads(&self) -> usize {
        self.loops.len()
    }

    /// The reactor's metrics registry (shared with every loop).
    pub fn telemetry(&self) -> &MetricsRegistry {
        &self.telemetry
    }

    /// The reactor's flight recorder (start/stop lifecycle events).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Binds a new RP for `site` on an OS-assigned 127.0.0.1 port: the
    /// loopback shorthand for [`bind_node_at`](Self::bind_node_at).
    ///
    /// # Errors
    ///
    /// Returns an error if the listener cannot be bound.
    pub fn bind_node(&self, site: SiteId) -> io::Result<RpNodeHandle> {
        self.bind_node_at(
            site,
            SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0),
            None,
        )
    }

    /// Binds a new RP for `site` on `bind` (port 0 picks a free port) and
    /// hosts it on the next event loop (round-robin). The returned
    /// handle's address is dialable immediately — connections queue in
    /// the accept backlog until the loop adopts the listener.
    ///
    /// `advertise` is the multi-host shape: a node binds a wildcard or
    /// private address but must be dialed by the coordinator (and by
    /// parent RPs, at the address the coordinator sends them) at a
    /// routable one. An
    /// advertised port of 0 is substituted with the port actually bound,
    /// so `0.0.0.0:0` + `advertise 10.0.0.7:0` works without
    /// pre-allocating ports; `None` advertises the bound address.
    ///
    /// # Errors
    ///
    /// Returns an error if the listener cannot be bound.
    pub fn bind_node_at(
        &self,
        site: SiteId,
        bind: SocketAddr,
        advertise: Option<SocketAddr>,
    ) -> io::Result<RpNodeHandle> {
        let listener = std::net::TcpListener::bind(bind)?;
        let bound = listener.local_addr()?;
        let addr = match advertise {
            Some(mut addr) => {
                if addr.port() == 0 {
                    addr.set_port(bound.port());
                }
                addr
            }
            None => bound,
        };
        let key = self.next_key.fetch_add(1, Ordering::Relaxed);
        let (done_tx, done) = mpsc::channel();
        let recorder = FlightRecorder::new();
        let slot = self.next_loop.fetch_add(1, Ordering::Relaxed) % self.loops.len();
        let Some(host) = self.loops.get(slot) else {
            return Err(io::Error::other("reactor has no event loops"));
        };
        host.commands
            .lock()
            .push(Command::Register(Box::new(NodeSeed {
                key,
                site,
                listener,
                recorder: recorder.clone(),
                done: done_tx,
            })));
        let _ = host.waker.wake();
        Ok(RpNodeHandle {
            site,
            addr,
            key,
            recorder,
            done,
            commands: Arc::clone(&host.commands),
            waker: Arc::clone(&host.waker),
        })
    }

    /// Explicit teardown (identical to drop): quit and join every loop.
    pub fn shutdown(self) {}
}

impl Drop for Reactor {
    fn drop(&mut self) {
        for host in &self.loops {
            host.commands.lock().push(Command::Quit);
            let _ = host.waker.wake();
        }
        for host in &mut self.loops {
            if let Some(thread) = host.thread.take() {
                let _ = thread.join();
            }
        }
        let threads = self.loops.len() as u64;
        self.telemetry.gauge("reactor.threads").set(0);
        self.recorder
            .record(FlightEventKind::ReactorStop { threads });
    }
}

/// A running RP's control handle.
pub struct RpNodeHandle {
    site: SiteId,
    addr: SocketAddr,
    key: u64,
    recorder: FlightRecorder,
    /// Disconnects when the loop drops the node's state.
    done: mpsc::Receiver<()>,
    commands: Arc<Mutex<Vec<Command>>>,
    waker: Arc<Waker>,
}

impl RpNodeHandle {
    /// The node's advertised address — the only thing a coordinator
    /// needs to drive it.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The site this node serves.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The node's flight recorder (link churn, reconfigures).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Orders the node down: graceful `End`/link teardown, then removal
    /// from its loop. Idempotent; does not block.
    pub fn stop(&self) {
        self.commands
            .lock()
            .push(Command::StopNode { key: self.key });
        let _ = self.waker.wake();
    }

    /// Blocks until the node has been removed from its event loop (by
    /// [`stop`](Self::stop), a coordinator `Shutdown`, or reactor
    /// teardown) — the main thread of a standalone RP process.
    pub fn join(self) {
        // Nothing is ever sent: `recv` returns when the loop drops the
        // node's sender.
        let _ = self.done.recv();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use teeve_pubsub::{ChildLink, ForwardingEntry, SitePlan};

    use crate::wire::frame_header;

    fn read_next(conn: &mut std::net::TcpStream, buf: &mut BytesMut, chunk: &mut [u8]) -> Message {
        loop {
            match decode(buf).expect("valid wire traffic") {
                Some(message) => return message,
                None => {
                    let read = conn.read(chunk).expect("socket read");
                    assert!(read > 0, "connection closed early");
                    buf.extend_from_slice(&chunk[..read]);
                }
            }
        }
    }

    fn send(conn: &mut std::net::TcpStream, messages: &[Message]) {
        let mut orders = BytesMut::new();
        for message in messages {
            encode(message, &mut orders);
        }
        conn.write_all(&orders).expect("orders sent");
    }

    /// A revision-1 table making site 0 the origin of `streams`, each
    /// with one child link per `(site, rung)`.
    fn origin_table(streams: &[StreamId], children: &[(u32, u8)]) -> Message {
        let children: Vec<ChildLink> = children
            .iter()
            .map(|&(site, rung)| ChildLink {
                site: SiteId::new(site),
                quality: Quality::new(rung),
            })
            .collect();
        Message::Reconfigure {
            revision: 1,
            site_plan: SitePlan {
                site: SiteId::new(0),
                entries: streams
                    .iter()
                    .map(|&stream| ForwardingEntry {
                        stream,
                        parent: None,
                        children: children.clone(),
                        quality: Quality::FULL,
                    })
                    .collect(),
            },
        }
    }

    #[test]
    fn socket_reactor_node_executes_orders_end_to_end() {
        let reactor = Reactor::new(1).expect("reactor starts");
        let node = reactor.bind_node(SiteId::new(0)).expect("bind");
        let stream_id = StreamId::new(SiteId::new(0), 0);

        // A bare std listener stands in for the degraded child.
        let child_listener = std::net::TcpListener::bind("127.0.0.1:0").expect("child bind");
        let child_addr = child_listener.local_addr().expect("child addr");

        // One control connection carries, in order: Attach with the
        // child's address in its book, a table where the origin's child
        // takes the stream at rung 1, and a single 1024-byte publish.
        // Orders on one connection execute in arrival order, and the node
        // dials the child as it installs the table, so the link exists
        // before the frame.
        let mut control = std::net::TcpStream::connect(node.addr()).expect("control connect");
        control.set_read_timeout(Some(Duration::from_secs(10))).ok();
        send(
            &mut control,
            &[
                Message::Attach {
                    addrs: vec![node.addr(), child_addr],
                },
                origin_table(&[stream_id], &[(1, 1)]),
                Message::Publish {
                    streams: vec![stream_id],
                    base_seq: 0,
                    frames: 1,
                    payload_bytes: 1024,
                    interval_micros: 0,
                },
            ],
        );

        // The control channel answers the attach with the bare node's
        // revision and delivered total, then the table with its Ack.
        let mut control_buf = BytesMut::new();
        let mut chunk = [0u8; 4096];
        let attached = read_next(&mut control, &mut control_buf, &mut chunk);
        assert_eq!(attached, BARE);
        let ack = read_next(&mut control, &mut control_buf, &mut chunk);
        assert_eq!(ack, Message::Ack { revision: 1 });

        // The child observes the Hello preamble then the frame, tagged
        // at its rung with the payload halved (1024 >> 1): this is the
        // hop *into* the degraded receiver, so the inbound budget the
        // admission path degraded for is genuinely relieved.
        let (mut child_conn, _) = child_listener.accept().expect("node dials child");
        child_conn
            .set_read_timeout(Some(Duration::from_secs(10)))
            .ok();
        let mut child_buf = BytesMut::new();
        let hello = read_next(&mut child_conn, &mut child_buf, &mut chunk);
        assert_eq!(
            hello,
            Message::Hello {
                site: SiteId::new(0)
            }
        );
        let frame = read_next(&mut child_conn, &mut child_buf, &mut chunk);
        let Message::Frame {
            quality, payload, ..
        } = frame
        else {
            panic!("expected a frame, got {frame:?}");
        };
        assert_eq!(quality, Quality::new(1), "frame tagged at the child's rung");
        assert_eq!(payload.len(), 512, "payload halved for rung 1");

        node.stop();
        node.join();
        // Stopping cascaded the link down: the child sees EOF.
        let mut scratch = [0u8; 16];
        loop {
            match child_conn.read(&mut scratch) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        let registered = reactor.telemetry().gauge("reactor.nodes.registered").get();
        assert_eq!(registered, 0, "stopped node must deregister");
        reactor.shutdown();
    }

    #[test]
    fn socket_routed_child_without_a_usable_link_is_reported_failed() {
        let (reactor, node, mut control) = attached_node(&[]);
        let (mut buf, mut chunk) = (BytesMut::new(), [0u8; 4096]);
        let stream_id = StreamId::new(SiteId::new(0), 0);
        let child = SiteId::new(1);

        // A table routing to a child outside the attach's book.
        send(&mut control, &[origin_table(&[stream_id], &[(1, 0)])]);
        let replies = [
            read_next(&mut control, &mut buf, &mut chunk),
            read_next(&mut control, &mut buf, &mut chunk),
        ];
        assert_eq!(
            replies,
            [Message::LinkFailed { child }, Message::Ack { revision: 1 }]
        );

        // Frames the table routes to that child have nowhere to go, and
        // each one is counted.
        let unrouted = reactor.telemetry().counter("reactor.frames_unrouted");
        assert_eq!(unrouted.get(), 0);
        let mut orders = frames_of(stream_id, 3);
        orders.push(stats_request(7, 0));
        send(&mut control, &orders);
        let delivered = read_next(&mut control, &mut buf, &mut chunk);
        assert_eq!(report_of(&delivered).0, 7);
        assert_eq!(unrouted.get(), 3);

        // Re-sent after a re-attach whose book holds the child, the same
        // table dials it.
        let child_listener = std::net::TcpListener::bind("127.0.0.1:0").expect("child bind");
        let addr = child_listener.local_addr().expect("child addr");
        let attach = Message::Attach {
            addrs: vec![node.addr(), addr],
        };
        send(
            &mut control,
            &[attach, origin_table(&[stream_id], &[(1, 0)])],
        );
        let replies = [
            read_next(&mut control, &mut buf, &mut chunk),
            read_next(&mut control, &mut buf, &mut chunk),
        ];
        let attached = Message::Attached {
            revision: 1,
            total: 3,
        };
        assert_eq!(replies, [attached, Message::Ack { revision: 1 }]);

        // The child hangs up under a table that still routes to it.
        let (child_conn, _) = child_listener.accept().expect("node dials child");
        drop(child_conn);
        let failed = read_next(&mut control, &mut buf, &mut chunk);
        assert_eq!(failed, Message::LinkFailed { child });

        node.stop();
        node.join();
        reactor.shutdown();
    }

    #[test]
    fn socket_one_attach_serves_every_later_table() {
        let children: Vec<std::net::TcpListener> = (0..2)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("child bind"))
            .collect();
        let addrs: Vec<SocketAddr> = children
            .iter()
            .map(|child| child.local_addr().expect("child addr"))
            .collect();
        let (reactor, node, mut control) = attached_node(&addrs);
        let stream_id = StreamId::new(SiteId::new(0), 0);

        // Two tables in a row, each routing to a child the last one did
        // not: each dials its child from the one book.
        let Message::Reconfigure { site_plan, .. } = origin_table(&[stream_id], &[(2, 0)]) else {
            unreachable!("origin_table builds a Reconfigure");
        };
        let tables = [
            origin_table(&[stream_id], &[(1, 0)]),
            Message::Reconfigure {
                revision: 2,
                site_plan,
            },
        ];
        let (mut buf, mut chunk) = (BytesMut::new(), [0u8; 4096]);
        // Held open: a link that dies under its table is a `LinkFailed`.
        let mut links = Vec::new();
        for ((table, child), revision) in tables.into_iter().zip(&children).zip(1..) {
            send(&mut control, &[table]);
            let ack = read_next(&mut control, &mut buf, &mut chunk);
            assert_eq!(ack, Message::Ack { revision });
            let (mut link, _) = child.accept().expect("node dials the child");
            link.set_read_timeout(Some(Duration::from_secs(10))).ok();
            let hello = read_next(&mut link, &mut BytesMut::new(), &mut chunk);
            assert_eq!(
                hello,
                Message::Hello {
                    site: SiteId::new(0)
                }
            );
            links.push(link);
        }

        node.stop();
        node.join();
        reactor.shutdown();
    }

    /// Reads `conn` until the node closes it; fails if it stays open.
    fn assert_closed(conn: &mut std::net::TcpStream) {
        conn.set_read_timeout(Some(Duration::from_secs(10))).ok();
        let mut scratch = [0u8; 64];
        loop {
            match conn.read(&mut scratch) {
                Ok(0) => return,
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => return,
                Ok(_) => {}
                Err(e) => panic!("connection left open: {e}"),
            }
        }
    }

    #[test]
    fn socket_a_connection_that_never_attached_gives_no_orders() {
        let (reactor, node, mut control) = attached_node(&[]);

        // A stranger orders a table and a shutdown: it is hung up on at
        // the first order, and nothing is installed.
        let mut stranger = std::net::TcpStream::connect(node.addr()).expect("stranger connect");
        let table = Message::Reconfigure {
            revision: 5,
            site_plan: SitePlan {
                site: SiteId::new(0),
                entries: Vec::new(),
            },
        };
        send(&mut stranger, &[table, Message::Shutdown]);
        assert_closed(&mut stranger);

        // The coordinator hears no `Ack` for the stranger's table ahead
        // of its own probe's reply.
        let mut buf = BytesMut::new();
        send(&mut control, &[stats_request(1, 0)]);
        let reply = read_next(&mut control, &mut buf, &mut [0u8; 4096]);
        assert_eq!(report_of(&reply), (1, 0), "phantom reply {reply:?}");

        // The listener still accepts, and the node still runs no table.
        let mut fresh = std::net::TcpStream::connect(node.addr()).expect("fresh connect");
        fresh.set_read_timeout(Some(Duration::from_secs(10))).ok();
        send(&mut fresh, &[Message::Attach { addrs: Vec::new() }]);
        let attached = read_next(&mut fresh, &mut BytesMut::new(), &mut [0u8; 64]);
        assert_eq!(attached, BARE);

        node.stop();
        node.join();
        reactor.shutdown();
    }

    #[test]
    fn socket_a_replaced_control_connection_gives_no_orders() {
        let (reactor, node, mut first) = attached_node(&[]);
        let mut second = std::net::TcpStream::connect(node.addr()).expect("control connect");
        second.set_read_timeout(Some(Duration::from_secs(10))).ok();
        let (mut buf, mut chunk) = (BytesMut::new(), [0u8; 64]);
        send(&mut second, &[Message::Attach { addrs: Vec::new() }]);
        assert_eq!(read_next(&mut second, &mut buf, &mut chunk), BARE);

        // The replaced coordinator's table closes its connection; the
        // successor hears no `Ack`, and its next attach finds the node
        // still at revision 0.
        send(&mut first, &[fence()]);
        assert_closed(&mut first);
        send(&mut second, &[Message::Attach { addrs: Vec::new() }]);
        assert_eq!(read_next(&mut second, &mut buf, &mut chunk), BARE);

        node.stop();
        node.join();
        reactor.shutdown();
    }

    #[test]
    fn socket_one_publish_injects_every_listed_stream_before_its_probe_answers() {
        let streams = [
            StreamId::new(SiteId::new(0), 0),
            StreamId::new(SiteId::new(0), 1),
        ];
        let child_listener = std::net::TcpListener::bind("127.0.0.1:0").expect("child bind");
        let (reactor, node, mut control) =
            attached_node(&[child_listener.local_addr().expect("child addr")]);
        send(&mut control, &[origin_table(&streams, &[(1, 0)])]);
        let (mut buf, mut chunk) = (BytesMut::new(), [0u8; 4096]);
        let ack = read_next(&mut control, &mut buf, &mut chunk);
        assert_eq!(ack, Message::Ack { revision: 1 });

        // One write: a Publish naming both streams, then the probe a
        // coordinator sends an origin that owes nothing. The probe runs
        // after the injection, and it is the only reply.
        let publish = Message::Publish {
            streams: streams.to_vec(),
            base_seq: 0,
            frames: 2,
            payload_bytes: 16,
            interval_micros: 0,
        };
        let replies = replies_before_fence(&mut control, &mut buf, &[publish, stats_request(5, 0)]);
        assert_eq!(
            replies,
            [Message::Delivered {
                probe: 5,
                total: 0,
                shed: 0
            }]
        );

        // The child takes each stream's batch in turn.
        let (mut child, _) = child_listener.accept().expect("node dials child");
        child.set_read_timeout(Some(Duration::from_secs(10))).ok();
        let mut child_buf = BytesMut::new();
        let hello = read_next(&mut child, &mut child_buf, &mut chunk);
        assert_eq!(
            hello,
            Message::Hello {
                site: SiteId::new(0)
            }
        );
        let received: Vec<(StreamId, u64)> = (0..4)
            .map(
                |_| match read_next(&mut child, &mut child_buf, &mut chunk) {
                    Message::Frame { stream, seq, .. } => (stream, seq),
                    other => panic!("expected a frame, got {other:?}"),
                },
            )
            .collect();
        assert_eq!(
            received,
            [
                (streams[0], 0),
                (streams[0], 1),
                (streams[1], 0),
                (streams[1], 1)
            ]
        );

        node.stop();
        node.join();
        reactor.shutdown();
    }

    #[test]
    fn socket_reader_that_never_reads_is_shed_without_stalling_the_node() {
        const BATCH_FRAMES: u64 = 32;
        const PAYLOAD_BYTES: u32 = 64 * 1024;
        let reactor = Reactor::new(1).expect("reactor starts");
        let origin = reactor.bind_node(SiteId::new(0)).expect("bind origin");
        let healthy = reactor
            .bind_node(SiteId::new(2))
            .expect("bind healthy child");
        let stream_id = StreamId::new(SiteId::new(0), 0);
        let timeout = Some(Duration::from_secs(20));

        // Site 1 accepts its parent's dial and then never reads a byte;
        // site 2 is a real RP taking the same stream.
        let stuck_listener = std::net::TcpListener::bind("127.0.0.1:0").expect("stuck bind");
        let mut control = std::net::TcpStream::connect(origin.addr()).expect("control connect");
        control.set_read_timeout(timeout).ok();
        // Re-sent after each batch, the table is a fence: its `Ack`
        // proves the origin's control channel still answers, and with
        // both links up it dials nothing.
        let table = origin_table(&[stream_id], &[(1, 0), (2, 0)]);
        let attach = Message::Attach {
            addrs: vec![
                origin.addr(),
                stuck_listener.local_addr().expect("stuck addr"),
                healthy.addr(),
            ],
        };
        send(&mut control, &[attach.clone(), table.clone()]);
        let (_stuck, _) = stuck_listener
            .accept()
            .expect("origin dials the stuck child");
        let mut child_control =
            std::net::TcpStream::connect(healthy.addr()).expect("child control connect");
        child_control.set_read_timeout(timeout).ok();
        send(&mut child_control, &[attach]);
        let (mut buf, mut child_buf) = (BytesMut::new(), BytesMut::new());
        let mut chunk = [0u8; 4096];
        let attached = read_next(&mut child_control, &mut child_buf, &mut chunk);
        assert_eq!(attached, BARE);

        // Unpaced 2 MiB batches, each fully drained by the healthy child
        // before the next, so only the stuck link ever backs up: first
        // the kernel's socket buffers fill, then the pending buffer up to
        // its cap, then frames shed.
        let dropped = reactor.telemetry().counter("reactor.writes.dropped");
        let fenced = Message::Ack { revision: 1 };
        assert_eq!(read_next(&mut control, &mut buf, &mut chunk), BARE);
        assert_eq!(read_next(&mut control, &mut buf, &mut chunk), fenced);
        let mut sent = 0u64;
        while dropped.get() == 0 {
            assert!(sent < 4096, "256 MiB queued behind a stuck reader, no shed");
            send(
                &mut control,
                &[
                    Message::Publish {
                        streams: vec![stream_id],
                        base_seq: sent,
                        frames: BATCH_FRAMES,
                        payload_bytes: PAYLOAD_BYTES,
                        interval_micros: 0,
                    },
                    table.clone(),
                ],
            );
            sent += BATCH_FRAMES;
            assert_eq!(read_next(&mut control, &mut buf, &mut chunk), fenced);
            // The healthy sibling receives every frame of every batch: its
            // reply is armed to arrive once it has, and it shed nothing.
            send(&mut child_control, &[stats_request(sent, sent)]);
            let (total, shed) = loop {
                if let Message::Delivered { total, shed, .. } =
                    read_next(&mut child_control, &mut child_buf, &mut chunk)
                {
                    break (total, shed);
                }
            };
            assert_eq!((total, shed), (sent, 0), "exactly the frames published");
        }

        // With a link shedding, the origin's control channel still
        // answers, and its reply counts exactly the loop's sheds.
        send(&mut control, &[stats_request(7, 0)]);
        let shed = loop {
            if let Message::Delivered { probe: 7, shed, .. } =
                read_next(&mut control, &mut buf, &mut chunk)
            {
                break shed;
            }
        };
        assert_eq!(shed, dropped.get(), "the origin counts its own sheds");

        origin.stop();
        healthy.stop();
        origin.join();
        healthy.join();
        reactor.shutdown();
    }

    /// An origin-only table at revision 1: re-sent as an order, its `Ack`
    /// fences everything queued ahead of it on the same connection.
    fn fence() -> Message {
        origin_table(&[StreamId::new(SiteId::new(0), 0)], &[])
    }

    /// A compact probe: answered with `Delivered`.
    fn stats_request(probe: u64, at_least: u64) -> Message {
        Message::StatsRequest {
            probe,
            at_least,
            full: false,
        }
    }

    /// `count` empty frames of a stream the node records but forwards
    /// nowhere.
    fn frames(count: u64) -> Vec<Message> {
        frames_of(StreamId::new(SiteId::new(0), 0), count)
    }

    fn frames_of(stream: StreamId, count: u64) -> Vec<Message> {
        (0..count)
            .map(|seq| Message::Frame {
                stream,
                quality: Quality::FULL,
                seq,
                captured_micros: unix_micros(),
                payload: Bytes::new(),
            })
            .collect()
    }

    /// Sends `messages` then a fence on `conn`, and returns every reply
    /// that arrived ahead of the fence's `Ack`. Orders on one connection
    /// execute in arrival order, so frames sent on the control channel
    /// itself are recorded before the fence is acknowledged.
    fn replies_before_fence(
        conn: &mut std::net::TcpStream,
        buf: &mut BytesMut,
        messages: &[Message],
    ) -> Vec<Message> {
        let mut orders = messages.to_vec();
        orders.push(fence());
        send(conn, &orders);
        let mut chunk = [0u8; 4096];
        let mut replies = Vec::new();
        loop {
            match read_next(conn, buf, &mut chunk) {
                Message::Ack { revision: 1 } => return replies,
                reply => replies.push(reply),
            }
        }
    }

    /// What a node that has run no table and delivered nothing answers
    /// an `Attach` with.
    const BARE: Message = Message::Attached {
        revision: 0,
        total: 0,
    };

    /// A node (site 0) with one attached control connection, its attach
    /// answered. The attach's book holds the node and then `children`,
    /// as sites 1, 2 and so on.
    fn attached_node(children: &[SocketAddr]) -> (Reactor, RpNodeHandle, std::net::TcpStream) {
        let reactor = Reactor::new(1).expect("reactor starts");
        let node = reactor.bind_node(SiteId::new(0)).expect("bind");
        let mut control = std::net::TcpStream::connect(node.addr()).expect("control connect");
        control.set_read_timeout(Some(Duration::from_secs(10))).ok();
        let mut addrs = vec![node.addr()];
        addrs.extend_from_slice(children);
        send(&mut control, &[Message::Attach { addrs }]);
        let attached = read_next(&mut control, &mut BytesMut::new(), &mut [0u8; 64]);
        assert_eq!(attached, BARE);
        (reactor, node, control)
    }

    fn report_of(message: &Message) -> (u64, u64) {
        match message {
            Message::Delivered {
                probe,
                total,
                shed: 0,
            } => (*probe, *total),
            other => panic!("expected a shed-free delivery reply, got {other:?}"),
        }
    }

    #[test]
    fn socket_armed_stats_request_answers_once_at_its_watermark() {
        let (reactor, node, mut control) = attached_node(&[]);
        let mut buf = BytesMut::new();

        // Armed above the total: two frames are not enough.
        let mut orders = vec![stats_request(1, 3)];
        orders.extend(frames(2));
        let replies = replies_before_fence(&mut control, &mut buf, &orders);
        assert!(replies.is_empty(), "answered early: {replies:?}");

        // The crossing frame pushes exactly one report; later frames
        // push nothing more.
        let replies = replies_before_fence(&mut control, &mut buf, &frames(1));
        assert_eq!(replies.iter().map(report_of).collect::<Vec<_>>(), [(1, 3)]);
        let replies = replies_before_fence(&mut control, &mut buf, &frames(2));
        assert!(replies.is_empty(), "disarmed after answering: {replies:?}");

        // At or below the total — `at_least = 0` included — answers at
        // once.
        let replies = replies_before_fence(
            &mut control,
            &mut buf,
            &[stats_request(2, 5), stats_request(3, 0)],
        );
        assert_eq!(
            replies.iter().map(report_of).collect::<Vec<_>>(),
            [(2, 5), (3, 5)]
        );

        node.stop();
        node.join();
        reactor.shutdown();
    }

    #[test]
    fn socket_newer_stats_request_replaces_the_armed_one() {
        let (reactor, node, mut control) = attached_node(&[]);
        let mut buf = BytesMut::new();
        let mut orders = vec![stats_request(1, 2), stats_request(2, 4)];
        orders.extend(frames(4));
        let replies = replies_before_fence(&mut control, &mut buf, &orders);
        assert_eq!(replies.iter().map(report_of).collect::<Vec<_>>(), [(2, 4)]);
        node.stop();
        node.join();
        reactor.shutdown();
    }

    #[test]
    fn socket_attach_disarms_the_armed_stats_request() {
        let (reactor, node, mut first) = attached_node(&[]);
        let mut first_buf = BytesMut::new();
        let mut orders = vec![stats_request(9, 4)];
        orders.extend(frames(2));
        let replies = replies_before_fence(&mut first, &mut first_buf, &orders);
        assert!(replies.is_empty());

        // A successor attaches — its probe numbering restarts — and is
        // answered with the revision the fence installed and the two
        // frames delivered so far. Frames then cross the old watermark:
        // nobody hears the stale probe.
        let mut second = std::net::TcpStream::connect(node.addr()).expect("control connect");
        second.set_read_timeout(Some(Duration::from_secs(10))).ok();
        let mut second_buf = BytesMut::new();
        let mut orders = vec![Message::Attach { addrs: Vec::new() }];
        orders.extend(frames(3));
        let replies = replies_before_fence(&mut second, &mut second_buf, &orders);
        let attached = Message::Attached {
            revision: 1,
            total: 2,
        };
        assert_eq!(replies, [attached], "stale watermark answered");
        let replies = replies_before_fence(&mut second, &mut second_buf, &[stats_request(0, 0)]);
        assert_eq!(replies.iter().map(report_of).collect::<Vec<_>>(), [(0, 5)]);

        node.stop();
        node.join();
        reactor.shutdown();
    }

    #[test]
    fn socket_full_report_after_compact_probes_sums_to_the_totals() {
        let (reactor, node, mut control) = attached_node(&[]);
        let mut buf = BytesMut::new();
        let (a, b) = (
            StreamId::new(SiteId::new(3), 0),
            StreamId::new(SiteId::new(5), 1),
        );

        // Compact probes carry totals only, however many streams there are.
        let mut orders = vec![stats_request(1, 5)];
        orders.extend(frames_of(a, 2));
        orders.extend(frames_of(b, 3));
        let replies = replies_before_fence(&mut control, &mut buf, &orders);
        assert_eq!(replies.iter().map(report_of).collect::<Vec<_>>(), [(1, 5)]);
        let mut orders = frames_of(a, 4);
        orders.push(stats_request(2, 0));
        let replies = replies_before_fence(&mut control, &mut buf, &orders);
        assert_eq!(replies.iter().map(report_of).collect::<Vec<_>>(), [(2, 9)]);

        // The shutdown harvest's full request: per-stream counts and
        // latency histograms add up to the total the compact probes saw.
        let full = Message::StatsRequest {
            probe: 3,
            at_least: 0,
            full: true,
        };
        let replies = replies_before_fence(&mut control, &mut buf, &[full]);
        let [Message::StatsReport {
            probe: 3,
            total,
            max_latency_micros,
            streams,
        }] = &replies[..]
        else {
            panic!("expected one full report, got {replies:?}");
        };
        assert_eq!(*total, 9);
        let counts: Vec<(StreamId, u64)> =
            streams.iter().map(|d| (d.stream, d.delivered)).collect();
        assert_eq!(counts, [(a, 6), (b, 3)]);
        assert_eq!(
            streams.iter().map(|d| d.latency.count()).sum::<u64>(),
            *total
        );
        for entry in streams {
            assert_eq!(entry.latency.sum(), entry.latency_sum_micros);
            assert!(entry.latency.max() <= *max_latency_micros);
        }

        send(&mut control, &[Message::Shutdown]);
        node.join();
        reactor.shutdown();
    }

    #[test]
    fn socket_frame_larger_than_the_read_scratch_is_relayed_intact() {
        let reactor = Reactor::new(1).expect("reactor starts");
        let node = reactor.bind_node(SiteId::new(0)).expect("bind");
        let stream_id = StreamId::new(SiteId::new(0), 0);
        let child_listener = std::net::TcpListener::bind("127.0.0.1:0").expect("child bind");
        let mut control = std::net::TcpStream::connect(node.addr()).expect("control connect");
        control.set_read_timeout(Some(Duration::from_secs(10))).ok();

        // ≈200 KiB fills the read scratch three times over: every full
        // read must be followed by another before the frame decodes.
        let payload: Vec<u8> = (0..200 * 1024).map(|i| (i % 251) as u8).collect();
        assert!(payload.len() > 3 * READ_CHUNK);
        send(
            &mut control,
            &[
                Message::Attach {
                    addrs: vec![
                        node.addr(),
                        child_listener.local_addr().expect("child addr"),
                    ],
                },
                origin_table(&[stream_id], &[(1, 0)]),
                Message::Frame {
                    stream: stream_id,
                    quality: Quality::FULL,
                    seq: 0,
                    captured_micros: unix_micros(),
                    payload: Bytes::from(payload.clone()),
                },
            ],
        );
        let (mut child, _) = child_listener.accept().expect("node dials child");
        child.set_read_timeout(Some(Duration::from_secs(10))).ok();
        let (mut child_buf, mut chunk) = (BytesMut::new(), [0u8; 4096]);
        let attached = read_next(&mut control, &mut BytesMut::new(), &mut chunk);
        assert_eq!(attached, BARE);
        let hello = read_next(&mut child, &mut child_buf, &mut chunk);
        assert_eq!(
            hello,
            Message::Hello {
                site: SiteId::new(0)
            }
        );
        let Message::Frame {
            payload: relayed, ..
        } = read_next(&mut child, &mut child_buf, &mut chunk)
        else {
            panic!("expected the relayed frame");
        };
        assert_eq!(&relayed[..], &payload[..], "relayed frame differs");

        node.stop();
        node.join();
        reactor.shutdown();
    }

    #[test]
    fn socket_short_read_then_later_segment_still_delivers() {
        let (reactor, node, mut control) = attached_node(&[]);
        control.set_nodelay(true).ok();
        let mut encoded = BytesMut::new();
        encode(&stats_request(4, 2), &mut encoded);
        for frame in frames(2) {
            encode(&frame, &mut encoded);
        }
        // The first segment ends mid-way through the second frame, so
        // the node's read of it comes back short with a frame pending;
        // the rest arrives after a pause, as a new readiness event.
        let cut = encoded.len() - 5;
        control.write_all(&encoded[..cut]).expect("first segment");
        std::thread::sleep(Duration::from_millis(50));
        control.write_all(&encoded[cut..]).expect("second segment");
        let mut buf = BytesMut::new();
        let replies = replies_before_fence(&mut control, &mut buf, &[]);
        assert_eq!(replies.iter().map(report_of).collect::<Vec<_>>(), [(4, 2)]);

        node.stop();
        node.join();
        reactor.shutdown();
    }

    /// A loop hosting one relay RP (site 0) for `stream`, fed by site 9,
    /// with an outbound link per `(site, rung)` child. The links' far
    /// ends are returned so they stay open.
    fn relay_loop(
        stream: StreamId,
        children: &[(u32, u8)],
    ) -> (LoopState, Vec<std::net::TcpStream>) {
        let poll = Poll::new().expect("poll");
        let mut state = LoopState::new(poll, LoopMetrics::new(&MetricsRegistry::new(), 1));
        let (done, _) = mpsc::channel();
        state.register_node(NodeSeed {
            key: 0,
            site: SiteId::new(0),
            listener: std::net::TcpListener::bind("127.0.0.1:0").expect("bind"),
            recorder: FlightRecorder::new(),
            done,
        });
        let mut far_ends = Vec::new();
        for &(site, _) in children {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("child bind");
            let near = std::net::TcpStream::connect(listener.local_addr().expect("addr"))
                .expect("dial child");
            far_ends.push(listener.accept().expect("accept").0);
            let token = state
                .add_conn(TcpStream::from_std(near), 0, true, Some(SiteId::new(site)))
                .expect("register link");
            let node = state.node_mut(0).expect("node");
            node.outbound.insert(SiteId::new(site), token);
        }
        let Message::Reconfigure { site_plan, .. } = origin_table(&[stream], children) else {
            unreachable!("origin_table builds a Reconfigure");
        };
        let node = state.node_mut(0).expect("node");
        node.table.plan = site_plan;
        node.table.plan.entries[0].parent = Some(SiteId::new(9));
        (state, far_ends)
    }

    /// Drains a write queue without a socket.
    fn drained(queue: &mut WriteQueue) -> Vec<u8> {
        let mut bytes = Vec::new();
        while !queue.is_empty() {
            queue.write_to(&mut bytes).expect("Vec never fails");
        }
        bytes
    }

    #[test]
    fn socket_relay_queues_views_of_the_ingested_frame() {
        let stream_id = StreamId::new(SiteId::new(9), 0);
        let (mut state, _far_ends) = relay_loop(stream_id, &[(1, 0), (2, 0), (3, 1)]);

        // Ingest a 64 KiB frame the way a socket read does: decoded out
        // of a read buffer.
        let full = vec![0x5A; 64 * 1024];
        let mut read_buf = BytesMut::new();
        encode(
            &Message::Frame {
                stream: stream_id,
                quality: Quality::FULL,
                seq: 3,
                captured_micros: 11,
                payload: Bytes::from(full.clone()),
            },
            &mut read_buf,
        );
        let ingested = read_buf.as_ptr_range();
        let Ok(Some(Message::Frame { payload, .. })) = decode(&mut read_buf) else {
            panic!("frame decodes");
        };
        state.forward_frame(0, stream_id, 3, 11, &payload, Quality::FULL);

        for (site, rung, len) in [(1, 0, 64 * 1024), (2, 0, 64 * 1024), (3, 1, 32 * 1024)] {
            let token = state.node_ref(0).expect("node").outbound[&SiteId::new(site)];
            let conn = state.conn_mut(token).expect("link");
            let shared: Vec<&Bytes> = conn
                .out
                .pieces
                .iter()
                .filter_map(|piece| match piece {
                    Piece::Shared(bytes) => Some(bytes),
                    Piece::Inline(_) => None,
                })
                .collect();
            assert_eq!(shared.len(), 1, "child {site}: one payload view");
            assert_eq!(shared[0].len(), len);
            assert!(
                ingested.contains(&shared[0].as_ptr()),
                "child {site}: payload copied out of the ingested frame"
            );
            assert_eq!(shared[0].as_ptr(), payload.as_ptr(), "a prefix view");

            let mut wire = BytesMut::from(&drained(&mut conn.out)[..]);
            let Ok(Some(Message::Frame {
                quality, payload, ..
            })) = decode(&mut wire)
            else {
                panic!("child {site}: queued bytes decode to a frame");
            };
            assert_eq!(quality, Quality::new(rung));
            assert_eq!(&payload[..], &full[..len]);
        }
    }

    /// Accepts at most the next scripted byte count per call, across
    /// however many slices it is handed.
    struct Trickle {
        script: std::collections::VecDeque<usize>,
        got: Vec<u8>,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut budget = self.script.pop_front().unwrap_or(usize::MAX);
            let mut written = 0;
            for buf in bufs {
                let take = budget.min(buf.len());
                self.got.extend_from_slice(&buf[..take]);
                budget -= take;
                written += take;
            }
            Ok(written)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_vectored_writes_keep_byte_order_and_count_exactly() {
        let stream_id = StreamId::new(SiteId::new(1), 0);
        let big = Bytes::from((0..8192u32).map(|i| i as u8).collect::<Vec<u8>>());
        let small = Bytes::from(vec![0xC3; 100]);
        let header = |len| frame_header(stream_id, Quality::FULL, 0, 0, len);
        let messages = [
            Message::Hello {
                site: SiteId::new(1),
            },
            Message::Frame {
                stream: stream_id,
                quality: Quality::FULL,
                seq: 0,
                captured_micros: 0,
                payload: big.clone(),
            },
            Message::Frame {
                stream: stream_id,
                quality: Quality::FULL,
                seq: 0,
                captured_micros: 0,
                payload: small.clone(),
            },
            Message::End { stream: stream_id },
        ];
        let mut expected = BytesMut::new();
        for message in &messages {
            encode(message, &mut expected);
        }

        let mut queue = WriteQueue::default();
        queue.encode(&messages[0]);
        queue.push_frame(&header(big.len()), &big, big.len());
        queue.push_frame(&header(small.len()), &small, small.len());
        queue.encode(&messages[3]);
        // [Hello + header] [8 KiB view] [header + 100 B + End]
        let first_run = 9 + FRAME_HEADER_LEN;
        assert_eq!(queue.pieces.len(), 3);
        assert_eq!(queue.len, expected.len());

        // Mid-run, exactly on the run's end, mid-view, exactly on the
        // view's end, mid-coalesced chunk, then the rest.
        let script = [5, first_run - 5, 1000, 8192 - 1000, 50, usize::MAX];
        let mut out = Trickle {
            script: script.into_iter().collect(),
            got: Vec::new(),
        };
        let mut written = 0;
        while !queue.is_empty() {
            written += queue.write_to(&mut out).expect("trickle never fails");
            assert_eq!(
                queue.len,
                expected.len() - written,
                "cap accounting drifted"
            );
            let queued: usize = queue
                .pieces
                .iter()
                .map(|piece| match piece {
                    Piece::Inline(run) => *run,
                    Piece::Shared(bytes) => bytes.len(),
                })
                .sum();
            assert_eq!(queued, queue.len);
        }
        assert_eq!(out.got, &expected[..]);
        assert!(queue.pieces.is_empty() && queue.inline.is_empty());
    }

    #[test]
    fn shared_payloads_count_in_full_against_each_cap() {
        let payload = Bytes::from(vec![0u8; MAX_PENDING_WRITE]);
        let stream_id = StreamId::new(SiteId::new(1), 0);
        let len = MAX_PENDING_WRITE - FRAME_HEADER_LEN - 1;
        let header = frame_header(stream_id, Quality::FULL, 0, 0, len);
        let (mut a, mut b) = (WriteQueue::default(), WriteQueue::default());
        for queue in [&mut a, &mut b] {
            assert!(queue.admits());
            queue.push_frame(&header, &payload, len);
            // One byte under the cap: one more message is admitted, and
            // crosses it.
            assert_eq!(queue.len, MAX_PENDING_WRITE - 1);
            assert!(queue.admits());
            queue.encode(&Message::End { stream: stream_id });
            assert!(!queue.admits());
        }
    }

    proptest::proptest! {
        /// Whatever the arriving tag, this RP's rung, the child's rung
        /// and the payload size, the pieces queued for a child are
        /// byte-for-byte the encoding of the degraded frame.
        #[test]
        fn queued_copy_is_the_encoded_degraded_frame(
            rungs in (0u8..4, 0u8..4, 0u8..4),
            payload_len in 0usize..20_000,
        ) {
            let (tag, planned, child_rung) = rungs;
            let payload = Bytes::from((0..payload_len).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
            let (tagged, stream) = (Quality::new(tag), StreamId::new(SiteId::new(2), 1));
            let frame = Relayed {
                stream,
                seq: 77,
                captured_micros: 5,
                payload_len,
                tagged,
                effective: tagged.max(Quality::new(planned)),
            };
            let child = ChildLink { site: SiteId::new(4), quality: Quality::new(child_rung) };
            let (header, len) = frame.copy_for(&child);
            let mut queue = WriteQueue::default();
            queue.push_frame(&header, &payload, len);

            let rung = tag.max(planned).max(child_rung);
            let mut expected = BytesMut::new();
            encode(
                &Message::Frame {
                    stream,
                    quality: Quality::new(rung),
                    seq: 77,
                    captured_micros: 5,
                    payload: payload.slice(..Quality::new(rung - tag).scaled_len(payload_len)),
                },
                &mut expected,
            );
            proptest::prop_assert_eq!(drained(&mut queue), expected.to_vec());
        }
    }

    /// A socket's inbound bytes, scripted: each read returns at most the
    /// next scripted count of bytes, across however many buffers it is
    /// handed (as `readv` does), or `WouldBlock` for a count of 0. Past
    /// the script a read returns all it asks for, and end of stream once
    /// the bytes run out.
    struct Arrivals {
        bytes: Vec<u8>,
        at: usize,
        script: VecDeque<usize>,
    }

    impl Arrivals {
        fn new(bytes: &[u8], script: impl IntoIterator<Item = usize>) -> Arrivals {
            Arrivals {
                bytes: bytes.to_vec(),
                at: 0,
                script: script.into_iter().collect(),
            }
        }
    }

    impl Read for Arrivals {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.read_vectored(&mut [IoSliceMut::new(buf)])
        }

        fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> io::Result<usize> {
            let mut budget = match self.script.pop_front() {
                Some(0) => return Err(io::ErrorKind::WouldBlock.into()),
                Some(budget) => budget,
                None => usize::MAX,
            };
            let mut read = 0;
            for buf in bufs {
                let take = budget.min(buf.len()).min(self.bytes.len() - self.at);
                buf[..take].copy_from_slice(&self.bytes[self.at..self.at + take]);
                self.at += take;
                budget -= take;
                read += take;
            }
            Ok(read)
        }
    }

    /// What `on_readable` dispatches from `src` until its end: every
    /// message that decodes, then the error that closed the connection,
    /// if one did.
    fn dispatched(read_buf: &mut ReadBuf, src: &mut Arrivals) -> (Vec<Message>, Option<WireError>) {
        let mut scratch = vec![0u8; READ_CHUNK];
        let mut messages = Vec::new();
        loop {
            match read_buf.read_from(src, &mut scratch) {
                Ok((0, _)) => return (messages, None),
                Ok(_) => loop {
                    match read_buf.next_message() {
                        Ok(Some(message)) => messages.push(message),
                        Ok(None) => break,
                        Err(error) => return (messages, Some(error)),
                    }
                },
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            }
        }
    }

    /// `decode` of a whole stream at once.
    fn decoded_whole(bytes: &[u8]) -> (Vec<Message>, Option<WireError>) {
        let mut buf = BytesMut::from(bytes);
        let mut messages = Vec::new();
        loop {
            match decode(&mut buf) {
                Ok(Some(message)) => messages.push(message),
                Ok(None) => return (messages, None),
                Err(error) => return (messages, Some(error)),
            }
        }
    }

    /// A frame of `payload_len` bytes whose contents depend on `seq`.
    fn patterned_frame(payload_len: usize, seq: u64) -> Message {
        Message::Frame {
            stream: StreamId::new(SiteId::new(3), 1),
            quality: Quality::new((seq % 4) as u8),
            seq,
            captured_micros: seq * 7,
            payload: Bytes::from(
                (0..payload_len)
                    .map(|i| (i as u64 + seq) as u8)
                    .collect::<Vec<u8>>(),
            ),
        }
    }

    /// A message of a drawn kind: 64 KiB frames, a 200 KiB frame, frames
    /// one byte under and exactly at the in-place threshold, small frames
    /// and `End`.
    fn drawn_message(kind: u8, seq: u64) -> Message {
        let at_threshold = IN_PLACE_FROM - (FRAME_HEADER_LEN - 4);
        match kind {
            0 | 1 => patterned_frame(64 * 1024, seq),
            2 => patterned_frame(200 * 1024, seq),
            3 => patterned_frame(at_threshold - 1, seq),
            4 => patterned_frame(at_threshold, seq),
            5 => patterned_frame((seq as usize * 37) % 300, seq),
            _ => Message::End {
                stream: StreamId::new(SiteId::new(3), 1),
            },
        }
    }

    proptest::proptest! {
        /// However a stream's arrival is cut into reads, the read step
        /// dispatches exactly what `decode` makes of the whole stream:
        /// with end of stream mid-message, nothing of the cut message;
        /// with an oversized length prefix, the error, and no allocation
        /// for it.
        #[test]
        fn the_read_step_yields_the_whole_stream_decode_for_any_cut(
            kinds in proptest::collection::vec(0u8..7, 1..7),
            ending in (0u8..3, 0usize..1_000_000),
            cuts in proptest::collection::vec(
                proptest::Strategy::prop_map(
                    (0u8..3, 0usize..48, 1usize..90_000),
                    |(pick, small, big)| if pick == 0 { small } else { big },
                ),
                0..40,
            ),
        ) {
            let mut stream = BytesMut::new();
            for (seq, &kind) in kinds.iter().enumerate() {
                encode(&drawn_message(kind, seq as u64), &mut stream);
            }
            let mut stream = stream.to_vec();
            match ending {
                (1, at) => stream.truncate(at % stream.len()),
                (2, _) => stream.extend_from_slice(&((MAX_MESSAGE_BYTES + 1) as u32).to_le_bytes()),
                _ => {}
            }
            let mut read_buf = ReadBuf::new();
            let got = dispatched(&mut read_buf, &mut Arrivals::new(&stream, cuts));
            proptest::prop_assert_eq!(&got, &decoded_whole(&stream));
            if got.1.is_some() {
                proptest::prop_assert_eq!(read_buf.whole.capacity(), 0);
            }
        }
    }

    #[test]
    fn a_64_kib_frame_is_read_into_an_allocation_of_its_own_length() {
        let (first, second) = (patterned_frame(64 * 1024, 1), patterned_frame(64 * 1024, 2));
        let mut stream = BytesMut::new();
        for message in [&first, &second] {
            encode(message, &mut stream);
        }
        let end = Message::End {
            stream: StreamId::new(SiteId::new(3), 1),
        };
        encode(&end, &mut stream);
        let total = FRAME_HEADER_LEN + 64 * 1024;
        let mut src = Arrivals::new(&stream, [100, total - 100 + SPILL, total]);
        let (mut read_buf, mut scratch) = (ReadBuf::new(), vec![0u8; READ_CHUNK]);
        let in_place = |read_buf: &mut ReadBuf| {
            assert_eq!(read_buf.whole.capacity(), total, "exactly the message");
            let read_into = read_buf.whole.as_ptr();
            let message = read_buf.next_message().expect("decodes").expect("whole");
            let Message::Frame { payload, .. } = &message else {
                panic!("expected a frame");
            };
            let payload_at = read_into.wrapping_add(FRAME_HEADER_LEN);
            assert_eq!(payload.as_ptr(), payload_at, "a view of what was read");
            message
        };
        // The first frame's header and a little more, through the scratch.
        read_buf.read_from(&mut src, &mut scratch).expect("read");
        assert_eq!(read_buf.next_message(), Ok(None));
        // The rest of it in place, and the next frame's header as spill.
        read_buf.read_from(&mut src, &mut scratch).expect("read");
        assert_eq!(in_place(&mut read_buf), first);
        assert_eq!(read_buf.buf.len(), SPILL);
        // The second frame in place, and `End` as spill.
        read_buf.read_from(&mut src, &mut scratch).expect("read");
        assert_eq!(in_place(&mut read_buf), second);
        assert_eq!(read_buf.next_message(), Ok(Some(end)));
    }

    #[test]
    fn a_stalled_maximal_length_prefix_buys_one_read_chunk_of_room() {
        let header = frame_header(
            StreamId::new(SiteId::new(3), 1),
            Quality::FULL,
            0,
            0,
            MAX_MESSAGE_BYTES - (FRAME_HEADER_LEN - 4),
        );
        assert_eq!(wire_len(&header), Some(4 + MAX_MESSAGE_BYTES));
        let mut src = Arrivals::new(&header, [FRAME_HEADER_LEN, 0]);
        let (mut read_buf, mut scratch) = (ReadBuf::new(), vec![0u8; READ_CHUNK]);
        read_buf.read_from(&mut src, &mut scratch).expect("header");
        assert_eq!(read_buf.next_message(), Ok(None));
        // The peer stalls: the next read finds nothing, and the room made
        // for it is what has arrived plus one read chunk.
        let stalled = read_buf.read_from(&mut src, &mut scratch);
        assert_eq!(
            stalled.map_err(|e| e.kind()),
            Err(io::ErrorKind::WouldBlock)
        );
        assert_eq!(read_buf.whole.capacity(), FRAME_HEADER_LEN + READ_CHUNK);
        assert_eq!(read_buf.whole.len(), FRAME_HEADER_LEN + READ_CHUNK);

        // As bytes arrive the room grows with them, never ahead of them
        // by more than a read chunk or half what has arrived.
        let payload: Vec<u8> = (0..MAX_MESSAGE_BYTES - (FRAME_HEADER_LEN - 4))
            .map(|i| (i % 251) as u8)
            .collect();
        let mut src = Arrivals::new(&payload, [100_000; 100]);
        loop {
            let arrived = read_buf.filled;
            let (n, _) = read_buf.read_from(&mut src, &mut scratch).expect("payload");
            assert!(n > 0, "the stream ended before the frame decoded");
            assert!(read_buf.whole.capacity() <= arrived + READ_CHUNK.max(arrived / 2));
            if let Some(message) = read_buf.next_message().expect("decodes") {
                let Message::Frame { payload: got, .. } = message else {
                    panic!("expected the frame");
                };
                assert_eq!(&got[..], &payload[..]);
                return;
            }
        }
    }

    #[test]
    fn socket_stalled_maximal_frame_leaves_the_other_links_relaying() {
        let reactor = Reactor::new(1).expect("reactor starts");
        let node = reactor.bind_node(SiteId::new(0)).expect("bind");
        let big = StreamId::new(SiteId::new(0), 0);
        let small = StreamId::new(SiteId::new(0), 1);
        let child_listener = std::net::TcpListener::bind("127.0.0.1:0").expect("child bind");
        let mut control = std::net::TcpStream::connect(node.addr()).expect("control connect");
        control.set_read_timeout(Some(Duration::from_secs(10))).ok();
        send(
            &mut control,
            &[
                Message::Attach {
                    addrs: vec![
                        node.addr(),
                        child_listener.local_addr().expect("child addr"),
                    ],
                },
                origin_table(&[big, small], &[(1, 0)]),
            ],
        );
        let (mut child, _) = child_listener.accept().expect("node dials child");
        child.set_read_timeout(Some(Duration::from_secs(10))).ok();
        let (mut child_buf, mut chunk) = (BytesMut::new(), vec![0u8; READ_CHUNK]);
        assert_eq!(
            read_next(&mut control, &mut BytesMut::new(), &mut chunk),
            BARE
        );
        let hello = read_next(&mut child, &mut child_buf, &mut chunk);
        assert_eq!(
            hello,
            Message::Hello {
                site: SiteId::new(0)
            }
        );

        // A peer sends a small frame, then a frame as long as the wire
        // allows, cut off a little way into its payload, and stalls. The
        // small frame's relay shows the node has read up to the cut.
        let payload: Vec<u8> = (0..MAX_MESSAGE_BYTES - (FRAME_HEADER_LEN - 4))
            .map(|i| (i % 251) as u8)
            .collect();
        let mut sent = BytesMut::new();
        encode(&frames_of(small, 1)[0], &mut sent);
        let lead = sent.len();
        encode(
            &Message::Frame {
                stream: big,
                quality: Quality::FULL,
                seq: 0,
                captured_micros: unix_micros(),
                payload: Bytes::from(payload.clone()),
            },
            &mut sent,
        );
        let cut = lead + FRAME_HEADER_LEN + 1000;
        let mut peer = std::net::TcpStream::connect(node.addr()).expect("peer connect");
        peer.write_all(&sent[..cut]).expect("head sent");
        let relayed_seq = |message: Message| match message {
            Message::Frame { stream, seq, .. } if stream == small => seq,
            other => panic!("expected a small frame, got {other:?}"),
        };
        assert_eq!(
            relayed_seq(read_next(&mut child, &mut child_buf, &mut chunk)),
            0
        );

        // The node keeps relaying what its other links bring.
        let later: Vec<Message> = frames_of(small, 4).into_iter().skip(1).collect();
        send(&mut control, &later);
        for seq in 1..4 {
            assert_eq!(
                relayed_seq(read_next(&mut child, &mut child_buf, &mut chunk)),
                seq
            );
        }

        // The rest arrives, and the frame relays intact.
        peer.write_all(&sent[cut..]).expect("rest sent");
        let Message::Frame {
            stream,
            payload: relayed,
            ..
        } = read_next(&mut child, &mut child_buf, &mut chunk)
        else {
            panic!("expected the relayed frame");
        };
        assert_eq!(stream, big);
        assert!(relayed[..] == payload[..], "relayed frame differs");

        node.stop();
        node.join();
        reactor.shutdown();
    }

    #[test]
    fn socket_reactor_stop_is_idempotent_and_join_unblocks() {
        let reactor = Reactor::new(2).expect("reactor starts");
        let a = reactor.bind_node(SiteId::new(0)).expect("bind a");
        let b = reactor.bind_node(SiteId::new(1)).expect("bind b");
        assert_eq!(a.site(), SiteId::new(0));
        assert_ne!(a.addr(), b.addr());
        a.stop();
        a.stop();
        a.join();
        // Dropping the reactor abandons node b; its join still unblocks.
        drop(reactor);
        b.join();
    }

    #[test]
    fn socket_reactor_records_lifecycle_flight_events() {
        let telemetry = MetricsRegistry::new();
        let recorder = FlightRecorder::new();
        let reactor =
            Reactor::with_telemetry(3, telemetry.clone(), recorder.clone()).expect("starts");
        assert_eq!(telemetry.gauge("reactor.threads").get(), 3);
        drop(reactor);
        let kinds: Vec<FlightEventKind> = recorder.events().into_iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&FlightEventKind::ReactorStart { threads: 3 }));
        assert!(kinds.contains(&FlightEventKind::ReactorStop { threads: 3 }));
        assert_eq!(telemetry.gauge("reactor.threads").get(), 0);
    }
}
