//! The wire-only cluster coordinator: the paper's membership-server
//! dictation with no shared memory.
//!
//! A [`Coordinator`] holds nothing of the rendezvous points it drives but
//! **control connections and site addresses**. Every action is a
//! [`wire`](crate::wire) message, so the RPs it drives can live in the
//! same process ([`LiveCluster`](crate::LiveCluster)), in separate OS
//! processes, or on other hosts.
//!
//! Every overlay change — the initial plan at [`Coordinator::connect`]
//! and each [`PlanDelta`] at [`Coordinator::apply_delta`] — is one ack
//! barrier: each touched RP is sent its forwarding table (`Reconfigure`),
//! and answers `Ack` once it runs the table. The table is the link order
//! too: an RP closes its links to the children its table dropped and
//! dials the ones it added before it acknowledges, at the addresses of
//! the book its `Attach` carried, and reports a child it cannot reach as
//! `LinkFailed`. A batch of frames is one `Publish` per origin RP, naming
//! every stream it injects, and delivery accounting comes from one stats
//! probe (`StatsRequest`, answered by the fixed-size `Delivered` the
//! moment an RP has delivered what the coordinator is owed, or by the
//! full per-stream `StatsReport` at shutdown). An origin's probe travels
//! behind its `Publish`, so nothing else confirms the batch.
//!
//! Every reply is read through one wait. Each control connection is
//! registered with the coordinator's one readiness poll when it attaches,
//! and a step — the attach round, an ack barrier, a batch's probe, the
//! shutdown harvest — reads whichever connections are readable until
//! every site it awaits has answered, one of them has failed, or its
//! deadline passes. Replies are folded as they arrive, so the first
//! failure ends the step at once: a `LinkFailed`, a closed channel or
//! undecodable bytes. A timeout is classified from every reply already
//! read, and a delivery reply that reports shed writes turns a batch's
//! timeout into a typed shed: it does not end the wait, so the frames
//! queued ahead of the shed ones land before the next heal baselines the
//! accounting. Bytes from a site the step does not await are buffered
//! unjudged, for the next step that awaits it.
//!
//! Every way onto a plan is one convergence step, `converge`: a fresh
//! `Attach` to every RP, carrying the address book of every site's
//! listener (the latest attach wins on the RP side, and the RP obeys
//! orders from it alone), which each RP answers with `Attached`, naming
//! its revision and the delivered total that baselines delivery
//! accounting, then the same ack barrier dictating the target plan to
//! every site (which reopens any link that died and touches no live one).
//! [`Coordinator::connect`] runs it on a bare fleet or on a live one
//! whose coordinator [`detach`](Coordinator::detach)ed or died, and the
//! coordinator runs it again at the start of the next
//! [`publish`](Coordinator::publish) or
//! [`apply_delta`](Coordinator::apply_delta) after any failure: a failed
//! barrier or batch heals in place. The target only moves forward. The
//! shape is pinned by the model checker's crash and heal scopes
//! (`teeve-check model --resync`, see `crates/check`): attach replies are
//! observed but never choose the dictation target — trusting them is
//! exactly the `ResyncSkip`/`ReconnectRewind` mutant pair the checker
//! kills.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use mio::event::Events;
use mio::unix::SourceFd;
use mio::{Interest, Poll, Token};
use teeve_pubsub::{link_changes_between, DeltaError, DisseminationPlan, LinkChanges, PlanDelta};
use teeve_telemetry::{FlightEventKind, FlightRecorder, Histogram, LogHistogram, MetricsRegistry};
use teeve_types::{SiteId, StreamId};

use crate::wire::{decode, encode, Message, StreamDelivery};

/// Read-syscall chunk size: the length of the coordinator's one read
/// scratch, shared by every control-channel wait.
const READ_CHUNK: usize = 64 * 1024;

/// Configuration of a live cluster run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Frames each origin publishes per stream — a batch size for
    /// callers to pass to [`Coordinator::publish`], which takes it per
    /// call and never reads this field.
    pub frames_per_stream: u64,
    /// Synthetic payload size per frame in bytes (kept small in tests; a
    /// real compressed 3DTI frame is ≈66 kB).
    pub payload_bytes: usize,
    /// Optional pacing between frames at the origin (`None` = publish as
    /// fast as the sockets accept, for fast tests).
    pub frame_interval: Option<Duration>,
    /// Deadline of each wait on the RPs: an attach round, an ack barrier,
    /// a batch's delivery probe and the shutdown harvest each get this
    /// long. A control-channel write blocks at most this long too.
    pub timeout: Duration,
}

impl Default for ClusterConfig {
    /// 10 frames per stream, 1 kB payloads, unpaced, 30 s timeout.
    fn default() -> Self {
        ClusterConfig {
            frames_per_stream: 10,
            payload_bytes: 1024,
            frame_interval: None,
            timeout: Duration::from_secs(30),
        }
    }
}

/// Delivery statistics of one live run, folded at shutdown from every
/// RP's [`Message::StatsReport`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterReport {
    /// Frames delivered per (site, stream).
    pub delivered: BTreeMap<(SiteId, StreamId), u64>,
    /// Frames delivered *below full quality* per (site, stream) — the
    /// receipts of the degrade-don't-reject path. A frame counts as
    /// degraded when its effective rung — the coarser of its wire tag
    /// and the receiver's planned rung — is above 0. In steady state the
    /// two agree (parents size and tag every outgoing copy by the
    /// child's `ChildLink` rung, so the bytes on the congested inbound
    /// hop really shrink); during a reconfiguration's propagation window
    /// a frame sent under the old table may count degraded by plan
    /// before its parent re-sizes.
    pub delivered_degraded: BTreeMap<(SiteId, StreamId), u64>,
    /// Sum of observed end-to-end latencies per (site, stream), in
    /// microseconds (wall clock).
    pub latency_sum_micros: BTreeMap<(SiteId, StreamId), u64>,
    /// Full end-to-end latency distribution per (site, stream), in
    /// microseconds — bucket counts carried losslessly off each RP by
    /// [`Message::StatsReport`], so percentiles are exact cluster-wide
    /// (see [`merged_latency`](Self::merged_latency)).
    pub latency: BTreeMap<(SiteId, StreamId), LogHistogram>,
    /// Worst observed end-to-end latency in microseconds (wall clock).
    pub max_latency_micros: u64,
    /// RPs whose final stats report could not be harvested at shutdown
    /// (dead control channel): their deliveries are absent from the maps
    /// above, *named* rather than silently dropped.
    pub missing_reports: u64,
    /// Wall-clock duration from the first published frame to shutdown.
    /// Listener binding and connection setup happen before the clock
    /// starts, so setup cost never pollutes the figure.
    pub elapsed: Duration,
    /// Plan revision the cluster was at when it shut down.
    pub final_revision: u64,
    /// TCP connections opened by reconfigurations (initial plan links are
    /// not counted).
    pub connections_opened: u64,
    /// TCP connections closed by reconfigurations.
    pub connections_closed: u64,
}

impl ClusterReport {
    /// Returns total frames delivered across all sites.
    pub fn total_delivered(&self) -> u64 {
        self.delivered.values().sum()
    }

    /// Returns the mean end-to-end latency of one (site, stream) pair in
    /// microseconds, or `None` if nothing was delivered to it.
    pub fn mean_latency_micros(&self, site: SiteId, stream: StreamId) -> Option<u64> {
        let frames = *self.delivered.get(&(site, stream))?;
        if frames == 0 {
            return None;
        }
        Some(self.latency_sum_micros.get(&(site, stream)).copied()? / frames)
    }

    /// The cluster-wide end-to-end latency distribution: every per-pair
    /// histogram merged losslessly, so `merged_latency().p99()` is the
    /// true tail over all deliveries everywhere.
    pub fn merged_latency(&self) -> LogHistogram {
        let mut merged = LogHistogram::new();
        for hist in self.latency.values() {
            merged.merge(hist);
        }
        merged
    }
}

/// What one applied [`PlanDelta`] did to the running cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigureReport {
    /// The revision every reconfigured RP acknowledged.
    pub revision: u64,
    /// Subscriptions whose delivery quality the delta moved (rungs
    /// re-stamped in forwarding tables; no socket involvement).
    pub quality_changes: usize,
    /// Connections the delta opened (parent → child pairs that carry
    /// their first stream).
    pub established: Vec<(SiteId, SiteId)>,
    /// Connections the delta closed (pairs whose last stream left).
    pub closed: Vec<(SiteId, SiteId)>,
    /// Pairs that kept their connection across the delta.
    pub retained: usize,
    /// RPs whose forwarding tables were swapped (and acknowledged).
    pub reconfigured_sites: usize,
}

impl ReconfigureReport {
    /// Returns true when the delta touched no socket: every reroute moved
    /// streams between connections that already existed and survived.
    pub fn is_socket_free(&self) -> bool {
        self.established.is_empty() && self.closed.is_empty()
    }
}

/// Error produced by a cluster run.
#[derive(Debug)]
pub enum ClusterError {
    /// Socket setup or transfer failed.
    Io(io::Error),
    /// Deliveries did not complete before the configured timeout.
    Timeout {
        /// Frames delivered so far.
        delivered: u64,
        /// Frames expected in total.
        expected: u64,
    },
    /// An RP's reply to a batch's delivery probe reported writes shed at
    /// a full write queue: the frames it shed never reach their subtree,
    /// so the batch could not complete. Reported at the timeout, once the
    /// frames queued ahead of the shed ones have had that long to land.
    Shed {
        /// The RP that shed writes.
        site: SiteId,
        /// Writes it has shed so far.
        dropped: u64,
    },
    /// A plan delta did not apply to the cluster's current plan.
    Delta(DeltaError),
    /// A delta was produced against a different revision than the
    /// coordinator's target plan.
    StaleRevision {
        /// The target plan's revision.
        cluster: u64,
        /// The revision the delta applies from.
        delta: u64,
    },
    /// An RP's table routes to `child`, and the RP has no usable link to
    /// it: the dial failed, or the link closed under the table.
    LinkFailed {
        /// The RP that could not reach its child.
        parent: SiteId,
        /// The unreachable child.
        child: SiteId,
    },
    /// The control channel to one RP failed: it could not be opened, or
    /// it broke or refused an order.
    Control {
        /// The RP whose control channel failed.
        site: SiteId,
        /// What went wrong.
        detail: String,
    },
    /// The coordinator was given a different number of RP addresses than
    /// the plan has sites.
    FleetSize {
        /// Sites in the plan.
        sites: usize,
        /// Addresses supplied.
        addrs: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Io(e) => write!(f, "cluster i/o error: {e}"),
            ClusterError::Timeout {
                delivered,
                expected,
            } => write!(f, "timed out with {delivered}/{expected} frames delivered"),
            ClusterError::Shed { site, dropped } => write!(
                f,
                "{site} shed {dropped} writes at its write-queue cap; the batch cannot complete"
            ),
            ClusterError::Delta(e) => write!(f, "plan delta rejected: {e}"),
            ClusterError::StaleRevision { cluster, delta } => write!(
                f,
                "delta applies from revision {delta} but the cluster runs revision {cluster}"
            ),
            ClusterError::LinkFailed { parent, child } => {
                write!(f, "{parent} has no link to its child {child}")
            }
            ClusterError::Control { site, detail } => {
                write!(f, "control channel to {site} failed: {detail}")
            }
            ClusterError::FleetSize { sites, addrs } => write!(
                f,
                "plan covers {sites} sites but {addrs} RP addresses were supplied"
            ),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Io(e) => Some(e),
            ClusterError::Delta(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClusterError {
    fn from(e: io::Error) -> Self {
        ClusterError::Io(e)
    }
}

impl From<DeltaError> for ClusterError {
    fn from(e: DeltaError) -> Self {
        ClusterError::Delta(e)
    }
}

/// The latest [`Message::Delivered`] reply from one RP.
#[derive(Debug, Clone, Copy)]
struct DeliveredSnapshot {
    probe: u64,
    total: u64,
    shed: u64,
}

/// The coordinator's entire knowledge of one RP: its address, the control
/// connection, and state reconstructed from its replies. There is
/// deliberately no `Arc` into RP memory here — this struct is what makes
/// the cluster process-separable.
struct SiteLink {
    site: SiteId,
    conn: TcpStream,
    buf: BytesMut,
    /// The highest revision the RP has acknowledged. Revisions on one
    /// control connection only increase, so `acked >= revision` is the
    /// barrier test.
    acked: Option<u64>,
    /// Orders queued to go out in one write with the next `send`.
    out: BytesMut,
    /// The freshest compact delivery reply, tagged with its probe token:
    /// what every `publish` waits on.
    delivered: Option<DeliveredSnapshot>,
    /// The worst latency and per-stream deliveries of the full
    /// [`Message::StatsReport`]: only `shutdown`'s harvest asks for one.
    stats: Option<(u64, Vec<StreamDelivery>)>,
    /// The RP's [`Message::Attached`] reply: its revision and delivered
    /// total when this connection attached.
    attached: Option<(u64, u64)>,
    /// Why the channel failed (end of stream, a failed read or write),
    /// once it has: the next wait that awaits this site reports it, after
    /// the replies read before it.
    closed: Option<String>,
}

impl SiteLink {
    /// Folds one decoded control message into the reconstructed state. A
    /// `LinkFailed` report is a [`ClusterError::LinkFailed`].
    fn dispatch(&mut self, message: Message) -> Result<(), ClusterError> {
        match message {
            Message::LinkFailed { child } => {
                return Err(ClusterError::LinkFailed {
                    parent: self.site,
                    child,
                })
            }
            Message::Ack { revision } => {
                self.acked = self.acked.max(Some(revision));
            }
            Message::Delivered { probe, total, shed } => {
                self.delivered = Some(DeliveredSnapshot { probe, total, shed });
            }
            Message::StatsReport {
                max_latency_micros,
                streams,
                ..
            } => self.stats = Some((max_latency_micros, streams)),
            Message::Attached { revision, total } => {
                self.attached = Some((revision, total));
            }
            other => {
                return Err(ClusterError::Control {
                    site: self.site,
                    detail: format!("unexpected control-channel message {other:?}"),
                })
            }
        }
        Ok(())
    }

    /// Decodes and dispatches every complete message already buffered.
    fn drain(&mut self) -> Result<(), ClusterError> {
        loop {
            match decode(&mut self.buf) {
                Ok(Some(message)) => self.dispatch(message)?,
                Ok(None) => return Ok(()),
                Err(e) => {
                    return Err(ClusterError::Control {
                        site: self.site,
                        detail: format!("undecodable control traffic: {e}"),
                    })
                }
            }
        }
    }

    /// Folds every buffered reply, then tells whether `met` holds. A
    /// `LinkFailed` report is an error unless `best_effort` reads on past
    /// it; a closed channel that has not met `met` is an error.
    fn judge(
        &mut self,
        best_effort: bool,
        met: &mut impl FnMut(&SiteLink) -> Result<bool, ClusterError>,
    ) -> Result<bool, ClusterError> {
        while let Err(e) = self.drain() {
            if !(best_effort && matches!(e, ClusterError::LinkFailed { .. })) {
                return Err(e);
            }
        }
        if met(self)? {
            return Ok(true);
        }
        let Some(detail) = self.closed.clone() else {
            return Ok(false);
        };
        Err(ClusterError::Control {
            site: self.site,
            detail,
        })
    }

    /// Marks the channel closed and takes it off `poll`, which would
    /// otherwise report its end of stream as readable forever.
    fn close(&mut self, poll: &Poll, detail: String) {
        let _ = poll
            .registry()
            .deregister(&mut SourceFd(&self.conn.as_raw_fd()));
        self.closed = Some(detail);
    }

    /// Encodes an order to go out with the next [`send`](Self::send).
    fn queue(&mut self, message: &Message) {
        encode(message, &mut self.out);
    }

    /// Encodes one order and sends it down the control channel, in one
    /// write behind every order queued ahead of it.
    fn send(&mut self, message: &Message) -> Result<(), ClusterError> {
        self.queue(message);
        self.flush()
    }

    /// Writes every queued order in one write. A failed write closes the
    /// channel for the waits too.
    fn flush(&mut self) -> Result<(), ClusterError> {
        let orders = std::mem::take(&mut self.out);
        self.conn.write_all(&orders).map_err(|e| {
            let detail = format!("order write failed: {e}");
            self.closed = Some(detail.clone());
            ClusterError::Control {
                site: self.site,
                detail,
            }
        })
    }
}

/// Every control connection, and the one readiness poll the coordinator
/// reads them all through.
struct Channels {
    /// One link per site, in site order; a link's poll token is its site
    /// index.
    links: Vec<SiteLink>,
    poll: Poll,
    events: Events,
    /// The one buffer every control-channel read lands in: allocated once
    /// per coordinator, never per wait.
    scratch: Vec<u8>,
}

impl Channels {
    /// Opens a control connection to the RP of `site` at `addr`, attaches
    /// as its coordinator by writing `attach`, an encoded `Attach` (which
    /// atomically replaces any prior control channel on the RP side), and
    /// registers it with the poll. It replaces the site's old connection,
    /// which leaves the poll, and its stale buffered replies go with it.
    /// A refused connection is a [`ClusterError::Control`] naming the
    /// site.
    fn attach(
        &mut self,
        site: SiteId,
        addr: SocketAddr,
        attach: &[u8],
        config: &ClusterConfig,
    ) -> Result<(), ClusterError> {
        let conn = TcpStream::connect(addr).map_err(|e| ClusterError::Control {
            site,
            detail: format!("connect to {addr} failed: {e}"),
        })?;
        conn.set_nodelay(true).ok();
        conn.set_write_timeout(Some(config.timeout)).ok();
        let mut link = SiteLink {
            site,
            conn,
            buf: BytesMut::with_capacity(4 * 1024),
            acked: None,
            out: BytesMut::from(attach),
            delivered: None,
            stats: None,
            attached: None,
            closed: None,
        };
        link.flush()?;
        let registry = self.poll.registry();
        let fd = link.conn.as_raw_fd();
        registry.register(&mut SourceFd(&fd), Token(site.index()), Interest::READABLE)?;
        match self.links.get_mut(site.index()) {
            Some(old) => {
                let _ = registry.deregister(&mut SourceFd(&old.conn.as_raw_fd()));
                *old = link;
            }
            None => self.links.push(link),
        }
        Ok(())
    }

    /// The one read of every control connection: waits until each site
    /// of `awaited` meets `met`. It reads whichever connections the poll
    /// reports readable, once each per readiness record, so a blocking
    /// socket never blocks, and judges an awaited site's replies as they
    /// arrive. Returns the first site of `awaited` still short of `met`
    /// when the deadline passed, or `None` once every one has met it.
    ///
    /// The first failure of an awaited site ends the wait: a `LinkFailed`
    /// report, undecodable bytes, an error from `met`, or a closed
    /// channel that has not met it. A `best_effort` wait instead drops a
    /// failed site and reads on past `LinkFailed`. Bytes from a site that
    /// is not awaited are buffered, not judged: its replies and its
    /// failure wait for the next step that awaits it.
    fn wait(
        &mut self,
        awaited: impl IntoIterator<Item = SiteId>,
        deadline: Instant,
        best_effort: bool,
        mut met: impl FnMut(&SiteLink) -> Result<bool, ClusterError>,
    ) -> Result<Option<SiteId>, ClusterError> {
        let mut done = |link: &mut SiteLink| match link.judge(best_effort, &mut met) {
            Err(_) if best_effort => Ok(true),
            judged => judged,
        };
        let mut pending = Vec::new();
        for site in awaited {
            if !done(&mut self.links[site.index()])? {
                pending.push(site);
            }
        }
        while let Some(&first) = pending.first() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(Some(first));
            }
            self.poll.poll(&mut self.events, Some(left))?;
            for event in self.events.iter() {
                let link = &mut self.links[event.token().0];
                match link.conn.read(&mut self.scratch) {
                    Ok(0) => link.close(&self.poll, "control channel closed".into()),
                    Ok(read) => link.buf.extend_from_slice(&self.scratch[..read]),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => link.close(&self.poll, format!("control read failed: {e}")),
                }
                if let Some(at) = pending.iter().position(|&site| site == link.site) {
                    if done(link)? {
                        pending.remove(at);
                    }
                }
            }
        }
        Ok(None)
    }
}

/// A strict wait's timeout: a [`ClusterError::Control`] naming `late`,
/// the first awaited site that did not answer with `what`.
fn timed_out(late: Option<SiteId>, what: &str) -> Result<(), ClusterError> {
    let Some(site) = late else { return Ok(()) };
    let detail = format!("timed out waiting for {what}");
    Err(ClusterError::Control { site, detail })
}

/// A cluster coordinator holding only control connections and site
/// addresses.
///
/// Lifecycle — the live analogue of the paper's membership-server
/// dictation, entirely wire-level:
///
/// 1. [`connect`](Self::connect) converges a fleet onto its plan:
///    it attaches one control connection per RP address, reads every
///    RP's revision and delivered total from its attach reply, and
///    dictates every site's forwarding table through one ack barrier;
///    each RP dials its plan links itself;
/// 2. [`publish`](Self::publish) orders a batch of frames out of every
///    origin RP (one `Publish` each) and, in the same pass, probes every
///    RP armed at the delivered total it owes, then blocks until each has
///    pushed its fixed-size `Delivered` reply (no per-stream counters or
///    histograms cross the wire);
/// 3. [`apply_delta`](Self::apply_delta) dictates the delta's successor
///    plan to every touched RP through the same barrier. Each RP follows
///    its new table, so exactly the connections
///    [`link_changes_between`](teeve_pubsub::link_changes_between)
///    reports as established are opened and exactly the `closed` ones
///    shut — `retained` links (including socket-free stream reroutes)
///    are never touched;
/// 4. [`shutdown`](Self::shutdown) probes every RP for its final full
///    `StatsReport` (per-stream counters and latency histograms), folds
///    them into the [`ClusterReport`], and orders the fleet down.
///
/// A barrier or a batch that fails leaves the fleet's state unknown, so
/// the coordinator marks itself unconverged: the next
/// [`publish`](Self::publish) or [`apply_delta`](Self::apply_delta)
/// first converges the whole fleet onto the target plan again, as
/// [`connect`](Self::connect) does, and returns that step's error if it
/// fails too. The target is the latest validated plan; it only moves
/// forward.
pub struct Coordinator {
    config: ClusterConfig,
    /// The target plan: the latest one validated, whether or not every
    /// RP has acknowledged it yet.
    plan: DisseminationPlan,
    /// One RP address per site, in site order: what each convergence
    /// attaches to, and the address book its `Attach` carries.
    addrs: Vec<SocketAddr>,
    channels: Channels,
    started: Option<Instant>,
    next_seq: u64,
    next_probe: u64,
    /// Per site, the delivered-frame total its RP owes: the total it
    /// reported when it attached plus `frames × in_degree` of every
    /// batch published since.
    owed: Vec<u64>,
    connections_opened: u64,
    connections_closed: u64,
    /// `Some` while a step has failed since the last convergence — the
    /// fleet may not run the target plan, and `owed` may not be what it
    /// delivers — holding the last plan every RP acknowledged, which the
    /// healing convergence counts its opened and closed links from.
    unconverged: Option<DisseminationPlan>,
    done: bool,
    registry: MetricsRegistry,
    recorder: FlightRecorder,
    /// Reconfigure-sent → `Ack` round-trip time, one sample per site.
    reconfigure_rtt: Histogram,
    /// Full duration of each convergence: first attach → barrier
    /// dictated.
    resync_span: Histogram,
}

impl Coordinator {
    /// Converges the RP fleet at `addrs` (one address per site of
    /// `plan`, in site order) onto `plan`, whether the fleet is bare or
    /// still runs an earlier plan under a coordinator that
    /// [`detach`](Self::detach)ed or died. It attaches a fresh control
    /// connection per RP (atomically replacing any prior one on the RP
    /// side), which each RP answers with its revision and delivered
    /// total, then dictates `plan` to every RP through one ack barrier.
    /// Each RP installs its table and dials the plan links it has no
    /// link to; RPs already following `plan` open and close nothing.
    ///
    /// A live fleet must be handed the plan its lost coordinator last
    /// dictated, revision included (a restarted membership service
    /// recovers it from its session store). Attach replies are observed
    /// only — they never choose what to dictate. Resuming from a reply's
    /// revision instead is the `ResyncSkip`/`ReconnectRewind` mutant
    /// pair the model checker kills: it lets the fleet's ack barrier
    /// regress. The refusal of an RP ahead of `plan` is why the attach
    /// is a round of its own: it must come before anything is dictated.
    ///
    /// Delivery accounting is baselined at each RP's attach: frames it
    /// delivered before then are not this coordinator's to await, so
    /// later [`publish`](Self::publish) calls block on exactly the
    /// deliveries they order. A frame still in flight from the old
    /// coordinator's traffic that lands after the attach — during the
    /// barrier, or later — counts as a delivery of the next batch; the
    /// barrier does not drain the data plane, so no baseline point
    /// closes that window.
    ///
    /// # Errors
    ///
    /// Returns an error if the address count mismatches the plan, a
    /// control connection cannot be established (a
    /// [`ClusterError::Control`] naming the site), an RP reports a
    /// revision *ahead* of `plan` (the plan is stale), an RP reports a
    /// plan link as [`ClusterError::LinkFailed`], or an RP does not
    /// answer the attach or the barrier within `config.timeout`. A
    /// failed connect detaches rather than tearing down, so it leaves
    /// the fleet running as it found it and the caller can retry, with a
    /// fresher plan if the RPs are ahead.
    pub fn connect(
        plan: &DisseminationPlan,
        addrs: &[SocketAddr],
        config: &ClusterConfig,
    ) -> Result<Coordinator, ClusterError> {
        if addrs.len() != plan.site_count() {
            return Err(ClusterError::FleetSize {
                sites: plan.site_count(),
                addrs: addrs.len(),
            });
        }
        let registry = MetricsRegistry::new();
        let mut coordinator = Coordinator {
            config: config.clone(),
            plan: plan.clone(),
            addrs: addrs.to_vec(),
            channels: Channels {
                links: Vec::with_capacity(addrs.len()),
                poll: Poll::new()?,
                events: Events::with_capacity(addrs.len()),
                scratch: vec![0; READ_CHUNK],
            },
            started: None,
            next_seq: 0,
            next_probe: 0,
            owed: vec![0; addrs.len()],
            connections_opened: 0,
            connections_closed: 0,
            unconverged: None,
            done: false,
            reconfigure_rtt: registry.histogram("coordinator.reconfigure_rtt_micros"),
            resync_span: registry.histogram("coordinator.resync_micros"),
            registry,
            recorder: FlightRecorder::new(),
        };
        match coordinator.converge() {
            Ok(_) => Ok(coordinator),
            Err(e) => {
                // Detach: the fleet stays as it was found.
                coordinator.done = true;
                Err(e)
            }
        }
    }

    /// The one convergence step, run by [`connect`](Self::connect) and
    /// by the heal that opens the next [`publish`](Self::publish) or
    /// [`apply_delta`](Self::apply_delta) after a failure: attach afresh,
    /// read every reply, dictate the target to every site. Returns the
    /// links a heal opened and closed, counted from the last plan every
    /// RP acknowledged (none for `connect`'s first convergence).
    fn converge(&mut self) -> Result<LinkChanges, ClusterError> {
        let started = Instant::now();
        self.recorder.record(FlightEventKind::ResyncStart);
        let deadline = started + self.config.timeout;

        // 1. A fresh control connection to every RP, each sent the same
        //    `Attach`, encoded once. Dropping an old one discards its
        //    stale buffered replies, and the RP disarms the probe it had
        //    armed.
        let mut attach = BytesMut::new();
        encode(
            &Message::Attach {
                addrs: self.addrs.clone(),
            },
            &mut attach,
        );
        for (index, &addr) in self.addrs.iter().enumerate() {
            self.channels
                .attach(SiteId::new(index as u32), addr, &attach, &self.config)?;
        }

        // 2. Every RP answers its attach with its revision, observed and
        //    not obeyed, and its delivered total, which baselines
        //    delivery accounting.
        let revision = self.plan.revision();
        let every_site: Vec<SiteId> = SiteId::all(self.plan.site_count()).collect();
        let late = self
            .channels
            .wait(every_site.iter().copied(), deadline, false, |link| {
                let Some((serves, total)) = link.attached else {
                    return Ok(false);
                };
                // An RP ahead of the target means the plan is stale:
                // dictating it would regress the fleet's ack barrier (the
                // model's reconnect-regression violation), so refuse instead.
                if serves > revision {
                    return Err(ClusterError::Control {
                        site: link.site,
                        detail: format!(
                            "RP serves revision {serves} ahead of the target plan's {revision}; \
                         the plan is stale"
                        ),
                    });
                }
                self.owed[link.site.index()] = total;
                Ok(true)
            })?;
        timed_out(late, "attach reply")?;

        // 3. Dictate the target to every site as one ack barrier. RPs
        //    already running it re-apply idempotently (tables swap on
        //    `revision >= current`); any that missed an order catch up.
        self.dictate(&every_site, deadline)?;

        self.resync_span.record_duration(started.elapsed());
        self.recorder.record(FlightEventKind::ResyncComplete {
            sites: every_site.len() as u64,
            revision,
        });
        Ok(self
            .unconverged
            .take()
            .map(|acked| self.count_links(&acked))
            .unwrap_or_default())
    }

    /// Counts the links that moving from `acked`, a plan every RP ran,
    /// onto the target opened and closed, and returns them.
    fn count_links(&mut self, acked: &DisseminationPlan) -> LinkChanges {
        let changes = link_changes_between(acked, &self.plan);
        self.connections_opened += changes.established.len() as u64;
        self.connections_closed += changes.closed.len() as u64;
        changes
    }

    /// Drops the control connections **without** shutting the fleet
    /// down: every RP keeps forwarding by its last-dictated table,
    /// ready for a successor coordinator to [`connect`](Self::connect).
    /// The deliberate counterpart of the [`Drop`] cascade — use it to
    /// hand a live fleet over, or to stand in for coordinator death in
    /// tests.
    pub fn detach(mut self) {
        self.recorder.record(FlightEventKind::CoordinatorLost);
        self.done = true;
    }

    /// Returns the target plan: the latest one validated. The fleet runs
    /// it once the call that set it, or a later one, has succeeded.
    pub fn plan(&self) -> &DisseminationPlan {
        &self.plan
    }

    /// Returns the target plan's revision.
    pub fn revision(&self) -> u64 {
        self.plan.revision()
    }

    /// Returns the number of data connections opened by reconfigurations
    /// so far (initial plan links are not counted).
    pub fn connections_opened(&self) -> u64 {
        self.connections_opened
    }

    /// Returns the number of data connections closed by reconfigurations
    /// so far.
    pub fn connections_closed(&self) -> u64 {
        self.connections_closed
    }

    /// The coordinator's metrics registry: Reconfigure→Ack round-trip
    /// times, which include the links each RP dials for its table, and
    /// resync-round durations as histograms
    /// (`coordinator.reconfigure_rtt_micros`,
    /// `coordinator.resync_micros`).
    pub fn telemetry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The coordinator's flight recorder: recent reconfigures, acks,
    /// failed reconfigurations, convergences and lost stats reports as structured
    /// events. Link churn is recorded by each RP's own recorder.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The flight recorder's retained events as JSON — the postmortem
    /// dump taken when a reconfiguration fails.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors (infallible for this data model).
    pub fn flight_json(&self) -> Result<String, serde_json::Error> {
        self.recorder.dump_json()
    }

    /// Orders `frames` frames published from every origin stream of the
    /// current plan and blocks until all planned deliveries of the batch
    /// are accounted for. Each origin RP gets one `Publish` naming its
    /// streams and, in the same write, the armed `StatsRequest` every RP
    /// gets; each RP pushes its fixed-size `Delivered` reply once its
    /// delivered total reaches what it owes. One round trip per batch.
    ///
    /// The first call starts the report clock: setup cost (listener
    /// binding, connection establishment) is excluded from `elapsed` by
    /// construction.
    ///
    /// After a failed call the coordinator first converges the fleet onto
    /// the target plan, as [`connect`](Self::connect) does.
    ///
    /// # Errors
    ///
    /// Returns the convergence's error if the fleet cannot be converged.
    /// A batch that does not fully deliver within `config.timeout` is a
    /// [`ClusterError::Shed`] if a reply read by then reports writes shed
    /// at an RP's write-queue cap, and otherwise a
    /// [`ClusterError::Timeout`] counting every reply read by then.
    /// A control channel that failed since it was last awaited, even
    /// under a delta that did not touch its RP, fails the batch as a
    /// [`ClusterError::Control`] naming that RP.
    pub fn publish(&mut self, frames: u64) -> Result<(), ClusterError> {
        if self.unconverged.is_some() {
            self.converge()?;
        }
        if self.started.is_none() {
            self.started = Some(Instant::now());
        }
        let interval_micros = self
            .config
            .frame_interval
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        for ((link, owed), sp) in self
            .channels
            .links
            .iter_mut()
            .zip(&mut self.owed)
            .zip(self.plan.site_plans())
        {
            *owed += frames * sp.in_degree() as u64;
            let streams: Vec<StreamId> = sp
                .entries
                .iter()
                .filter(|entry| entry.is_origin() && !entry.children.is_empty())
                .map(|entry| entry.stream)
                .collect();
            if !streams.is_empty() {
                // Queued: the probe `await_deliveries` sends rides in the
                // same write, behind it, so it runs after the injection.
                link.queue(&Message::Publish {
                    streams,
                    base_seq: self.next_seq,
                    frames,
                    payload_bytes: self.config.payload_bytes as u32,
                    interval_micros,
                });
            }
        }
        self.next_seq += frames;
        let delivered = self.await_deliveries();
        if delivered.is_err() {
            // Every RP acknowledged the target before the batch.
            self.unconverged = Some(self.plan.clone());
        }
        delivered
    }

    /// Applies one [`PlanDelta`] to the running cluster: validates it
    /// against the target plan, makes the successor plan the target, then
    /// dictates it to every touched RP through one ack barrier. Each
    /// touched RP follows its new table, so exactly the `established`
    /// connections open and exactly the `closed` ones shut. Links that
    /// are `retained` — including pairs whose stream set changed — are
    /// never touched, so a socket-free reroute opens and closes nothing.
    /// After a failed call the coordinator instead converges the whole
    /// fleet onto the new target, as [`connect`](Self::connect) does.
    ///
    /// # Errors
    ///
    /// Returns an error when the delta's revision does not match the
    /// target's, the delta does not apply to the target plan, a socket
    /// operation fails, an RP reports a link it needs as
    /// [`ClusterError::LinkFailed`], or an RP does not acknowledge in
    /// time. The target moves even when the dictation fails, so the next
    /// delta applies from it; the next call heals the fleet onto it.
    pub fn apply_delta(&mut self, delta: &PlanDelta) -> Result<ReconfigureReport, ClusterError> {
        if delta.from_revision() != self.plan.revision() {
            return Err(ClusterError::StaleRevision {
                cluster: self.plan.revision(),
                delta: delta.from_revision(),
            });
        }
        let mut next = self.plan.clone();
        delta.apply(&mut next)?;
        let mut touched: Vec<SiteId> = delta.touched_sites().into_iter().collect();
        // Validation passed: the target moves forward before any RP is
        // told, so a delta that arrives while a heal keeps failing is
        // never lost.
        let previous = std::mem::replace(&mut self.plan, next);
        let dictated = if self.unconverged.is_some() {
            touched = SiteId::all(self.plan.site_count()).collect();
            self.converge()
        } else {
            let deadline = Instant::now() + self.config.timeout;
            match self.dictate(&touched, deadline) {
                Ok(()) => Ok(self.count_links(&previous)),
                Err(e) => {
                    // Part of the fleet may run the new revision: the next
                    // call heals it forward from the plan all of it ran.
                    self.unconverged = Some(previous);
                    Err(e)
                }
            }
        };
        let changes = dictated.inspect_err(|e| {
            self.recorder.record(FlightEventKind::Poisoned {
                revision: delta.to_revision(),
                detail: e.to_string(),
            });
        })?;
        Ok(ReconfigureReport {
            revision: delta.to_revision(),
            quality_changes: delta.quality_changes().len(),
            established: changes.established,
            closed: changes.closed,
            retained: changes.retained.len(),
            reconfigured_sites: touched.len(),
        })
    }

    /// The one ack barrier: pushes `Reconfigure { revision, site_plan }`
    /// with the target plan's table to each of `sites`, then waits until
    /// every one has acknowledged the target revision. An RP
    /// acknowledges once it runs the table and has dialed the links it
    /// needs, at the addresses of the book its `Attach` carried, so a
    /// failed dial surfaces inside the barrier as
    /// [`ClusterError::LinkFailed`]. Used by `converge` and
    /// [`apply_delta`](Self::apply_delta).
    fn dictate(&mut self, sites: &[SiteId], deadline: Instant) -> Result<(), ClusterError> {
        let revision = self.plan.revision();
        self.recorder.record(FlightEventKind::Reconfigure {
            revision,
            sites: sites.len() as u64,
        });
        let sent_at = Instant::now();
        for &site in sites {
            self.channels.links[site.index()].send(&Message::Reconfigure {
                revision,
                site_plan: self.plan.site_plan(site).clone(),
            })?;
        }
        let late = self
            .channels
            .wait(sites.iter().copied(), deadline, false, |link| {
                let acked = link.acked >= Some(revision);
                if acked {
                    // Sampled as this site's `Ack` is read.
                    self.reconfigure_rtt.record_duration(sent_at.elapsed());
                    self.recorder.record(FlightEventKind::Ack {
                        site: link.site.index() as u32,
                        revision,
                    });
                }
                Ok(acked)
            })?;
        timed_out(late, "reconfiguration ack")
    }

    /// Shuts the fleet down and reports: harvests every RP's final full
    /// stats report, folds them into the [`ClusterReport`], then orders
    /// every RP to exit.
    ///
    /// Harvesting is best-effort — an RP whose control channel already
    /// failed (e.g. after a failed reconfiguration) contributes
    /// nothing to the report instead of failing the shutdown. An RP that
    /// has reported a failed link since the last barrier still
    /// contributes its report.
    pub fn shutdown(mut self) -> ClusterReport {
        let mut report = ClusterReport {
            elapsed: self.started.map(|s| s.elapsed()).unwrap_or_default(),
            final_revision: self.plan.revision(),
            connections_opened: self.connections_opened,
            connections_closed: self.connections_closed,
            ..ClusterReport::default()
        };
        let deadline = Instant::now() + self.config.timeout;
        // The full per-stream report, from every RP at once.
        self.probe(true);
        // Best-effort: a site whose channel fails drops out of the wait,
        // and the wait reads on past a link that failed since the last
        // barrier — the fleet is going down, and the report is queued
        // behind the failure. A failed poll leaves what was read.
        let every_site = SiteId::all(self.plan.site_count());
        let _ = self
            .channels
            .wait(every_site, deadline, true, |link| Ok(link.stats.is_some()));
        for link in &mut self.channels.links {
            // A dead RP's accounting is *named* as missing, never
            // silently dropped: the report stays auditable after a
            // failed run.
            let Some((max_latency_micros, streams)) = link.stats.take() else {
                report.missing_reports += 1;
                self.recorder.record(FlightEventKind::StatsLost {
                    site: link.site.index() as u32,
                });
                continue;
            };
            for entry in streams {
                let key = (link.site, entry.stream);
                report.delivered.insert(key, entry.delivered);
                report
                    .delivered_degraded
                    .insert(key, entry.delivered_degraded);
                report
                    .latency_sum_micros
                    .insert(key, entry.latency_sum_micros);
                report.latency.insert(key, entry.latency);
            }
            report.max_latency_micros = report.max_latency_micros.max(max_latency_micros);
        }
        for link in &mut self.channels.links {
            let _ = link.send(&Message::Shutdown);
        }
        self.done = true;
        report
    }

    /// The one stats probe: sends every RP a `StatsRequest` and returns
    /// the probe's token. It asks for the `full` per-stream report at
    /// once, landing in each link's `stats`, or else for the compact
    /// `delivered` reply once the RP has delivered what it owes. A failed
    /// send closes its channel, which the wait reports.
    fn probe(&mut self, full: bool) -> u64 {
        self.next_probe += 1;
        let probe = self.next_probe;
        for (link, &owed) in self.channels.links.iter_mut().zip(&self.owed) {
            let _ = link.send(&Message::StatsRequest {
                probe,
                at_least: if full { 0 } else { owed },
                full,
            });
        }
        probe
    }

    /// Probes every RP armed at the total it owes and waits for every
    /// reply. A wait that overruns the deadline is classified from every
    /// reply read by then: a [`ClusterError::Shed`] naming the first RP
    /// whose reply reports shed writes, or else a
    /// [`ClusterError::Timeout`] naming what the replies delivered.
    ///
    /// A shed reply does not end the wait: the frames queued ahead of the
    /// shed ones are still draining, and the next call's heal baselines
    /// each RP's delivered total at its attach. Ending early would credit
    /// that backlog to the batches after the heal.
    fn await_deliveries(&mut self) -> Result<(), ClusterError> {
        let deadline = Instant::now() + self.config.timeout;
        // Armed: each RP replies once it has delivered what it owes.
        let probe = self.probe(false);
        let every_site = SiteId::all(self.plan.site_count());
        let late = self.channels.wait(every_site, deadline, false, |link| {
            Ok(link.delivered.is_some_and(|reply| reply.probe >= probe))
        })?;
        if late.is_none() {
            return Ok(());
        }
        let mut delivered = 0;
        let replies = self.channels.links.iter();
        for (site, reply) in replies.filter_map(|link| Some((link.site, link.delivered?))) {
            if reply.shed > 0 {
                let dropped = reply.shed;
                return Err(ClusterError::Shed { site, dropped });
            }
            delivered += reply.total;
        }
        let expected = self.owed.iter().sum();
        Err(ClusterError::Timeout {
            delivered,
            expected,
        })
    }
}

impl Drop for Coordinator {
    /// Best-effort fleet teardown for coordinators dropped without
    /// [`shutdown`](Self::shutdown): every RP is ordered to exit so no
    /// node outlives its abandoned coordinator.
    fn drop(&mut self) {
        if self.done {
            return;
        }
        for link in &mut self.channels.links {
            let _ = link.send(&Message::Shutdown);
        }
    }
}

impl teeve_pubsub::DeltaSink for Coordinator {
    type Error = ClusterError;

    fn apply_delta(&mut self, delta: &PlanDelta) -> Result<(), Self::Error> {
        Coordinator::apply_delta(self, delta).map(|_| ())
    }
}
