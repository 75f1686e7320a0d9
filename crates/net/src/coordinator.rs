//! The wire-only cluster coordinator: the paper's membership-server
//! dictation with no shared memory.
//!
//! A [`Coordinator`] holds nothing of the rendezvous points it drives but
//! **control connections and site addresses**. Every action is a
//! [`wire`](crate::wire) message: forwarding tables install via
//! `Reconfigure`/`Ack`, links open and close via `OpenLink`/`CloseLink`
//! orders confirmed by `LinkUp`/`LinkDown` notifications from the
//! receiving RP, frames inject via `Publish`/`BatchDone` at origin RPs,
//! and delivery accounting is harvested with `StatsRequest`/`StatsReport`
//! — so the RPs it drives can live in the same process
//! ([`LiveCluster`](crate::LiveCluster)), in separate OS processes, or on
//! other hosts.
//!
//! The coordinator survives losing its control connections:
//! [`Coordinator::detach`] abandons a fleet *without* shutting it down
//! (the RPs keep forwarding by their last-dictated tables), and
//! [`Coordinator::reconnect`] re-adopts it — fresh `Attach`es, a
//! `ResyncQuery`/`ResyncReply` round that rebuilds the coordinator's
//! link view, then re-dictation of the latest revision as a fresh ack
//! barrier. The shape is pinned by the model checker's crash scopes
//! (`teeve-check model --resync`, see `crates/check`): resync replies
//! rebuild the *view* but never choose the dictation target — trusting
//! them is exactly the `ResyncSkip`/`ReconnectRewind` mutant pair the
//! checker kills.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use teeve_pubsub::{DeltaError, DisseminationPlan, PlanDelta};
use teeve_telemetry::{FlightEventKind, FlightRecorder, Histogram, LogHistogram, MetricsRegistry};
use teeve_types::{SiteId, StreamId};

use crate::replan::link_changes_between;
use crate::wire::{decode, encode, Message, StreamDelivery};

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
    /// Deadline for every blocking step: publish-batch completion, socket
    /// reads, and reconfiguration acknowledgements.
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
    /// A plan delta did not apply to the cluster's current plan.
    Delta(DeltaError),
    /// A delta was produced against a different revision than the cluster
    /// is running.
    StaleRevision {
        /// The revision the cluster is at.
        cluster: u64,
        /// The revision the delta applies from.
        delta: u64,
    },
    /// The control channel to one RP failed during reconfiguration.
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
    /// A previous reconfiguration failed partway, leaving the fleet's
    /// plan state unknown; the cluster refuses further work. Shut it down
    /// (delivery accounting is still harvested best-effort).
    Poisoned,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Io(e) => write!(f, "cluster i/o error: {e}"),
            ClusterError::Timeout {
                delivered,
                expected,
            } => write!(f, "timed out with {delivered}/{expected} frames delivered"),
            ClusterError::Delta(e) => write!(f, "plan delta rejected: {e}"),
            ClusterError::StaleRevision { cluster, delta } => write!(
                f,
                "delta applies from revision {delta} but the cluster runs revision {cluster}"
            ),
            ClusterError::Control { site, detail } => {
                write!(f, "control channel to {site} failed: {detail}")
            }
            ClusterError::FleetSize { sites, addrs } => write!(
                f,
                "plan covers {sites} sites but {addrs} RP addresses were supplied"
            ),
            ClusterError::Poisoned => write!(
                f,
                "cluster poisoned by a failed reconfiguration; shut it down"
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

/// The latest [`Message::StatsReport`] harvested from one RP.
#[derive(Debug, Clone, Default)]
struct StatsSnapshot {
    probe: u64,
    total: u64,
    max_latency_micros: u64,
    streams: Vec<StreamDelivery>,
}

/// The latest [`Message::ResyncReply`] harvested from one RP.
#[derive(Debug, Clone)]
struct ResyncSnapshot {
    probe: u64,
    revision: u64,
    inbound: Vec<SiteId>,
}

/// The coordinator's entire knowledge of one RP: its address, the control
/// connection, and state reconstructed from its notifications. There is
/// deliberately no `Arc` into RP memory here — this struct is what makes
/// the cluster process-separable.
struct SiteLink {
    site: SiteId,
    addr: SocketAddr,
    conn: TcpStream,
    buf: BytesMut,
    /// Upstream peers the RP has reported `LinkUp` (minus `LinkDown`)
    /// for: the wire-level replacement of the old shared inbound set.
    inbound: BTreeSet<SiteId>,
    /// Revisions the RP has acknowledged.
    acks: BTreeSet<u64>,
    /// Per-stream high-water mark of `BatchDone { next_seq }`.
    batches: BTreeMap<StreamId, u64>,
    /// The freshest stats report, tagged with its probe token.
    stats: Option<StatsSnapshot>,
    /// The freshest resync reply, tagged with its probe token.
    resync: Option<ResyncSnapshot>,
}

impl SiteLink {
    /// Opens a control connection to one RP and attaches as its
    /// coordinator (an `Attach` atomically replaces any prior control
    /// channel on the RP side).
    fn attach(
        site: SiteId,
        addr: SocketAddr,
        config: &ClusterConfig,
    ) -> Result<SiteLink, ClusterError> {
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true).ok();
        conn.set_read_timeout(Some(config.timeout)).ok();
        conn.set_write_timeout(Some(config.timeout)).ok();
        let mut link = SiteLink {
            site,
            addr,
            conn,
            buf: BytesMut::with_capacity(4 * 1024),
            inbound: BTreeSet::new(),
            acks: BTreeSet::new(),
            batches: BTreeMap::new(),
            stats: None,
            resync: None,
        };
        link.send(&Message::Attach)?;
        Ok(link)
    }
    /// Folds one decoded control message into the reconstructed state.
    fn dispatch(&mut self, message: Message) -> Result<(), ClusterError> {
        match message {
            Message::LinkUp { peer } => {
                self.inbound.insert(peer);
            }
            Message::LinkDown { peer } => {
                self.inbound.remove(&peer);
            }
            Message::Ack { revision } => {
                self.acks.insert(revision);
            }
            Message::BatchDone { stream, next_seq } => {
                let high = self.batches.entry(stream).or_default();
                *high = (*high).max(next_seq);
            }
            Message::StatsReport {
                probe,
                total,
                max_latency_micros,
                streams,
            } => {
                self.stats = Some(StatsSnapshot {
                    probe,
                    total,
                    max_latency_micros,
                    streams,
                });
            }
            Message::ResyncReply {
                probe,
                revision,
                inbound,
            } => {
                self.resync = Some(ResyncSnapshot {
                    probe,
                    revision,
                    inbound,
                });
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

    /// Encodes and sends one order down the control channel.
    fn send(&mut self, message: &Message) -> Result<(), ClusterError> {
        let mut buf = BytesMut::new();
        encode(message, &mut buf);
        self.conn
            .write_all(&buf)
            .map_err(|e| ClusterError::Control {
                site: self.site,
                detail: format!("order write failed: {e}"),
            })
    }

    /// Reads and dispatches control traffic until `pred` yields, or the
    /// deadline passes.
    fn wait_for<T>(
        &mut self,
        deadline: Instant,
        what: &str,
        mut pred: impl FnMut(&SiteLink) -> Option<T>,
    ) -> Result<T, ClusterError> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            self.drain()?;
            if let Some(found) = pred(self) {
                return Ok(found);
            }
            if Instant::now() > deadline {
                return Err(ClusterError::Control {
                    site: self.site,
                    detail: format!("timed out waiting for {what}"),
                });
            }
            // The read timeout set at connect bounds this; a silent RP
            // surfaces as a control error rather than a wedged cluster.
            match self.conn.read(&mut chunk) {
                Ok(0) => {
                    return Err(ClusterError::Control {
                        site: self.site,
                        detail: "control channel closed".into(),
                    })
                }
                Ok(read) => self.buf.extend_from_slice(&chunk[..read]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => {
                    return Err(ClusterError::Control {
                        site: self.site,
                        detail: format!("control read failed: {e}"),
                    })
                }
            }
        }
    }
}

/// A cluster coordinator holding only control connections and site
/// addresses.
///
/// Lifecycle — the live analogue of the paper's membership-server
/// dictation, now entirely wire-level:
///
/// 1. [`connect`](Self::connect) attaches one control connection per RP
///    address, installs the initial plan's forwarding tables
///    (`Reconfigure`/`Ack`), and orders the initial data links open
///    (`OpenLink`, confirmed by each child's `LinkUp`);
/// 2. [`publish`](Self::publish) orders a batch of frames out of every
///    origin RP and blocks until every planned delivery is accounted for
///    by stats probes;
/// 3. [`apply_delta`](Self::apply_delta) reconfigures the running fleet:
///    it orders exactly the connections [`link_changes`] reports as
///    established opened, pushes `Reconfigure { revision, site_plan }` at
///    every touched RP, collects each epoch-boundary `Ack`, then orders
///    exactly the `closed` connections shut — `retained` links (including
///    socket-free stream reroutes) are never touched;
/// 4. [`shutdown`](Self::shutdown) harvests every RP's final
///    `StatsReport`, folds them into the [`ClusterReport`], and orders
///    the fleet down.
///
/// A reconfiguration that fails after validation **poisons** the
/// coordinator: the fleet's plan state is unknown, so further
/// [`publish`](Self::publish)/[`apply_delta`](Self::apply_delta) calls
/// return [`ClusterError::Poisoned`] until the cluster is shut down.
///
/// [`link_changes`]: crate::link_changes
pub struct Coordinator {
    config: ClusterConfig,
    plan: DisseminationPlan,
    sites: Vec<SiteLink>,
    started: Option<Instant>,
    next_seq: u64,
    next_probe: u64,
    expected_total: u64,
    connections_opened: u64,
    connections_closed: u64,
    poisoned: bool,
    done: bool,
    registry: MetricsRegistry,
    recorder: FlightRecorder,
    /// Order-sent → link-confirmed latency of `OpenLink` orders.
    link_open_span: Histogram,
    /// Order-sent → closure-confirmed latency of `CloseLink` orders.
    link_close_span: Histogram,
    /// Reconfigure-sent → `Ack` round-trip time, one sample per site.
    reconfigure_rtt: Histogram,
    /// Full resync-round duration of [`reconnect`](Self::reconnect):
    /// first attach → barrier re-dictated and accounting baselined.
    resync_span: Histogram,
}

impl Coordinator {
    /// Connects to an already-listening RP fleet (one address per site of
    /// `plan`, in site order), installs the plan's forwarding tables, and
    /// orders the initial overlay links open.
    ///
    /// # Errors
    ///
    /// Returns an error if the address count mismatches the plan, a
    /// control connection cannot be established, a table install is not
    /// acknowledged, or an initial link does not come up within
    /// `config.timeout`.
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
        let mut coordinator = Coordinator::attach_fleet(plan, addrs, config)?;

        let deadline = Instant::now() + config.timeout;
        // Install every forwarding table before any link exists, so the
        // first frame routed already has its table.
        let revision = plan.revision();
        coordinator.recorder.record(FlightEventKind::Reconfigure {
            revision,
            sites: plan.site_count() as u64,
        });
        let sent_at = Instant::now();
        for site in SiteId::all(plan.site_count()) {
            coordinator.sites[site.index()].send(&Message::Reconfigure {
                revision,
                site_plan: plan.site_plan(site).clone(),
            })?;
        }
        for site in SiteId::all(plan.site_count()) {
            coordinator.await_ack(site, revision, deadline)?;
            coordinator.record_ack(site, revision, sent_at);
        }

        // Initial data links (parent → child), one per directed site pair;
        // the RPs dial their own children.
        let pairs: BTreeSet<(SiteId, SiteId)> = plan
            .edges()
            .map(|(parent, child, _)| (parent, child))
            .collect();
        let opens_sent = Instant::now();
        for &(parent, child) in &pairs {
            coordinator.order_open(parent, child)?;
        }
        for &(parent, child) in &pairs {
            coordinator.await_inbound(child, parent, true, deadline)?;
            coordinator.record_link(parent, child, true, opens_sent);
        }
        Ok(coordinator)
    }

    /// Opens and attaches one control connection per RP address and
    /// wraps them in a coordinator with fresh state: the connection
    /// phase shared by [`connect`](Self::connect) (against a bare
    /// fleet) and [`reconnect`](Self::reconnect) (against a live one).
    fn attach_fleet(
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
        let mut sites = Vec::with_capacity(addrs.len());
        for (i, &addr) in addrs.iter().enumerate() {
            sites.push(SiteLink::attach(SiteId::new(i as u32), addr, config)?);
        }
        let registry = MetricsRegistry::new();
        Ok(Coordinator {
            config: config.clone(),
            plan: plan.clone(),
            sites,
            started: None,
            next_seq: 0,
            next_probe: 0,
            expected_total: 0,
            connections_opened: 0,
            connections_closed: 0,
            poisoned: false,
            done: false,
            link_open_span: registry.histogram("coordinator.link_open_micros"),
            link_close_span: registry.histogram("coordinator.link_close_micros"),
            reconfigure_rtt: registry.histogram("coordinator.reconfigure_rtt_micros"),
            resync_span: registry.histogram("coordinator.resync_micros"),
            registry,
            recorder: FlightRecorder::new(),
        })
    }

    /// Re-adopts an already-running RP fleet whose previous coordinator
    /// died or [`detach`](Self::detach)ed: attaches a fresh control
    /// connection per RP (atomically replacing any dead one on the RP
    /// side), runs a `ResyncQuery` round to rebuild the coordinator's
    /// view of inbound links, then re-dictates `plan`'s revision to
    /// every RP as a fresh ack barrier.
    ///
    /// `plan` must be the plan the lost coordinator last fully
    /// dictated, revision included (a restarted membership service
    /// recovers it from its session store). Resync replies rebuild the
    /// link *view* only — they never choose what to dictate. Resuming
    /// from a reply's revision instead is the `ResyncSkip`/
    /// `ReconnectRewind` mutant pair the model checker kills: it lets
    /// the fleet's ack barrier regress.
    ///
    /// Delivery accounting restarts at the barrier: frames the fleet
    /// delivered before and during the coordinator gap are baselined
    /// away, so post-reconnect [`publish`](Self::publish) calls block
    /// on exactly the deliveries they order.
    ///
    /// # Errors
    ///
    /// Returns an error if the address count mismatches the plan, a
    /// control connection cannot be established, an RP reports a
    /// revision *ahead* of `plan` (the recovered plan is stale), or an
    /// RP does not answer the resync query, the barrier re-dictation,
    /// or the baseline stats probe within `config.timeout`. A failed
    /// reconnect leaves the fleet running exactly as found — it
    /// detaches rather than tearing down — so the caller can retry
    /// with a fresher plan.
    pub fn reconnect(
        plan: &DisseminationPlan,
        addrs: &[SocketAddr],
        config: &ClusterConfig,
    ) -> Result<Coordinator, ClusterError> {
        let resync_started = Instant::now();
        let mut coordinator = Coordinator::attach_fleet(plan, addrs, config)?;
        match coordinator.resync(resync_started) {
            Ok(()) => Ok(coordinator),
            Err(e) => {
                // A refused or failed resync must leave the fleet exactly
                // as found: detach (drop the control connections) instead
                // of letting `Drop`'s teardown cascade shut it down. The
                // caller can retry with a fresher plan.
                coordinator.done = true;
                Err(e)
            }
        }
    }

    /// The resync round of [`reconnect`](Self::reconnect), run on a
    /// freshly attached fleet: query, rebuild the view, re-dictate the
    /// barrier, baseline accounting.
    fn resync(&mut self, resync_started: Instant) -> Result<(), ClusterError> {
        self.recorder.record(FlightEventKind::ResyncStart);
        let deadline = Instant::now() + self.config.timeout;

        // 1. Query every RP and rebuild the inbound-link view from the
        //    replies. The reported revisions are observed, not obeyed.
        let plan_revision = self.plan.revision();
        self.next_probe += 1;
        let probe = self.next_probe;
        for link in &mut self.sites {
            link.send(&Message::ResyncQuery { probe })?;
        }
        for link in &mut self.sites {
            let snapshot = link.wait_for(deadline, "resync reply", |l| {
                l.resync.as_ref().filter(|r| r.probe >= probe).cloned()
            })?;
            // An RP ahead of the reconnect plan means the recovered plan
            // is stale: re-dictating it would regress the fleet's ack
            // barrier (the model's reconnect-regression violation), so
            // refuse instead.
            if snapshot.revision > plan_revision {
                return Err(ClusterError::Control {
                    site: link.site,
                    detail: format!(
                        "RP serves revision {} ahead of the reconnect plan's \
                         {plan_revision}; the recovered plan is stale",
                        snapshot.revision,
                    ),
                });
            }
            link.inbound = snapshot.inbound.iter().copied().collect();
        }

        // 2. Re-dictate the latest revision as a fresh ack barrier. RPs
        //    already running it re-apply idempotently (tables swap on
        //    `revision >= current`); any that missed the final
        //    pre-crash Reconfigure catch up here.
        let revision = plan_revision;
        let site_count = self.plan.site_count();
        self.recorder.record(FlightEventKind::Reconfigure {
            revision,
            sites: site_count as u64,
        });
        let sent_at = Instant::now();
        for site in SiteId::all(site_count) {
            let site_plan = self.plan.site_plan(site).clone();
            self.sites[site.index()].send(&Message::Reconfigure {
                revision,
                site_plan,
            })?;
        }
        for site in SiteId::all(site_count) {
            self.await_ack(site, revision, deadline)?;
            self.record_ack(site, revision, sent_at);
        }

        // 3. Baseline delivery accounting at the barrier: whatever the
        //    fleet delivered while unsupervised is not this
        //    coordinator's to await.
        self.next_probe += 1;
        let probe = self.next_probe;
        for link in &mut self.sites {
            link.send(&Message::StatsRequest { probe })?;
        }
        let mut baseline = 0u64;
        for link in &mut self.sites {
            let snapshot = link.wait_for(deadline, "baseline stats report", |l| {
                l.stats.as_ref().filter(|s| s.probe >= probe).cloned()
            })?;
            baseline += snapshot.total;
        }
        self.expected_total = baseline;

        self.resync_span.record_duration(resync_started.elapsed());
        self.recorder.record(FlightEventKind::ResyncComplete {
            sites: site_count as u64,
            revision,
        });
        Ok(())
    }

    /// Drops the control connections **without** shutting the fleet
    /// down: every RP keeps forwarding by its last-dictated table,
    /// ready for a successor coordinator to
    /// [`reconnect`](Self::reconnect). The deliberate counterpart of
    /// the [`Drop`] cascade — use it to hand a live fleet over, or to
    /// stand in for coordinator death in tests.
    pub fn detach(mut self) {
        self.recorder.record(FlightEventKind::CoordinatorLost);
        self.done = true;
    }

    /// Returns the plan the cluster currently executes.
    pub fn plan(&self) -> &DisseminationPlan {
        &self.plan
    }

    /// Returns the plan revision the cluster currently runs.
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

    /// Returns true when a failed reconfiguration has left the fleet in
    /// an unknown plan state; see [`ClusterError::Poisoned`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The coordinator's metrics registry: link open/close latencies,
    /// Reconfigure→Ack round-trip times, and resync-round durations as
    /// histograms (`coordinator.link_open_micros`,
    /// `coordinator.link_close_micros`,
    /// `coordinator.reconfigure_rtt_micros`,
    /// `coordinator.resync_micros`).
    pub fn telemetry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The coordinator's flight recorder: recent reconfigures, acks,
    /// link churn, poisonings, and lost stats reports as structured
    /// events.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The flight recorder's retained events as JSON — the postmortem
    /// dump taken when a run poisons.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors (infallible for this data model).
    pub fn flight_json(&self) -> Result<String, serde_json::Error> {
        self.recorder.dump_json()
    }

    /// Records one site's `Ack` round-trip and its flight event.
    fn record_ack(&self, site: SiteId, revision: u64, sent_at: Instant) {
        self.reconfigure_rtt.record_duration(sent_at.elapsed());
        self.recorder.record(FlightEventKind::Ack {
            site: site.index() as u32,
            revision,
        });
    }

    /// Records one confirmed link transition (order-sent → confirmed)
    /// and its flight event.
    fn record_link(&self, parent: SiteId, child: SiteId, up: bool, sent_at: Instant) {
        let parent = parent.index() as u32;
        let child = child.index() as u32;
        if up {
            self.link_open_span.record_duration(sent_at.elapsed());
            self.recorder
                .record(FlightEventKind::LinkUp { parent, child });
        } else {
            self.link_close_span.record_duration(sent_at.elapsed());
            self.recorder
                .record(FlightEventKind::LinkDown { parent, child });
        }
    }

    /// Orders `frames` frames published from every origin stream of the
    /// current plan and blocks until all planned deliveries of the batch
    /// are accounted for by the fleet's stats reports.
    ///
    /// The first call starts the report clock: setup cost (listener
    /// binding, connection establishment) is excluded from `elapsed` by
    /// construction.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Poisoned`] after a failed reconfiguration,
    /// and [`ClusterError::Timeout`] if the batch does not fully deliver
    /// within `config.timeout`.
    pub fn publish(&mut self, frames: u64) -> Result<(), ClusterError> {
        if self.poisoned {
            return Err(ClusterError::Poisoned);
        }
        if self.started.is_none() {
            self.started = Some(Instant::now());
        }
        let mut origins: Vec<(SiteId, StreamId)> = Vec::new();
        let mut expected_per_frame = 0u64;
        for sp in self.plan.site_plans() {
            expected_per_frame += sp.in_degree() as u64;
            for entry in &sp.entries {
                if entry.is_origin() && !entry.children.is_empty() {
                    origins.push((sp.site, entry.stream));
                }
            }
        }
        let base_seq = self.next_seq;
        let interval_micros = self
            .config
            .frame_interval
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        for &(site, stream) in &origins {
            self.sites[site.index()].send(&Message::Publish {
                stream,
                base_seq,
                frames,
                payload_bytes: self.config.payload_bytes as u32,
                interval_micros,
            })?;
        }
        let deadline = Instant::now() + self.config.timeout;
        let target = base_seq + frames;
        for &(site, stream) in &origins {
            self.sites[site.index()].wait_for(deadline, "publish batch completion", |link| {
                (link.batches.get(&stream).copied().unwrap_or(0) >= target).then_some(())
            })?;
        }
        self.next_seq += frames;
        self.expected_total += frames * expected_per_frame;
        self.await_deliveries()
    }

    /// Applies one [`PlanDelta`] to the running cluster: orders exactly
    /// the `established` connections opened, reconfigures every touched
    /// RP over its control channel, waits for all epoch-boundary `Ack`s,
    /// then orders exactly the `closed` connections shut. Links that are
    /// `retained` — including pairs whose stream set changed — are never
    /// touched, so a socket-free reroute opens and closes nothing.
    ///
    /// # Errors
    ///
    /// Returns an error when the delta's revision does not match the
    /// cluster's, the delta does not apply to the current plan, a socket
    /// operation fails, or an RP does not acknowledge in time. A failure
    /// *after* validation poisons the coordinator — further `publish`/
    /// `apply_delta` calls return [`ClusterError::Poisoned`]; shut the
    /// cluster down.
    pub fn apply_delta(&mut self, delta: &PlanDelta) -> Result<ReconfigureReport, ClusterError> {
        if self.poisoned {
            return Err(ClusterError::Poisoned);
        }
        if delta.from_revision() != self.plan.revision() {
            return Err(ClusterError::StaleRevision {
                cluster: self.plan.revision(),
                delta: delta.from_revision(),
            });
        }
        let mut next = self.plan.clone();
        delta.apply(&mut next)?;
        // Validation passed: any failure beyond this point leaves the
        // fleet partially reconfigured, so it poisons the coordinator.
        match self.reconfigure(delta, next) {
            Ok(report) => Ok(report),
            Err(e) => {
                self.poisoned = true;
                self.recorder.record(FlightEventKind::Poisoned {
                    revision: delta.to_revision(),
                    detail: e.to_string(),
                });
                Err(e)
            }
        }
    }

    /// The socket-touching phase of [`apply_delta`](Self::apply_delta);
    /// `next` is the already-validated successor plan.
    fn reconfigure(
        &mut self,
        delta: &PlanDelta,
        next: DisseminationPlan,
    ) -> Result<ReconfigureReport, ClusterError> {
        let changes = link_changes_between(&self.plan, &next);
        let revision = delta.to_revision();
        let deadline = Instant::now() + self.config.timeout;

        // 1. Open new links before any table switches, so the first frame
        //    routed by a new table already has its socket, and wait until
        //    each child has reported its new parent's link up.
        let opens_sent = Instant::now();
        for &(parent, child) in &changes.established {
            self.order_open(parent, child)?;
        }
        for &(parent, child) in &changes.established {
            self.await_inbound(child, parent, true, deadline)?;
            self.record_link(parent, child, true, opens_sent);
        }

        // 2. Swap forwarding tables over the control plane and collect
        //    every Ack: once all land, no RP forwards by an old table.
        let touched = delta.touched_sites();
        self.recorder.record(FlightEventKind::Reconfigure {
            revision,
            sites: touched.len() as u64,
        });
        let sent_at = Instant::now();
        for &site in &touched {
            self.sites[site.index()].send(&Message::Reconfigure {
                revision,
                site_plan: next.site_plan(site).clone(),
            })?;
        }
        for &site in &touched {
            self.await_ack(site, revision, deadline)?;
            self.record_ack(site, revision, sent_at);
        }

        // 3. Order links whose last stream left shut, and wait for the
        //    receive side to report the attributed parent gone.
        let closes_sent = Instant::now();
        for &(parent, child) in &changes.closed {
            self.sites[parent.index()].send(&Message::CloseLink { child })?;
        }
        for &(parent, child) in &changes.closed {
            self.await_inbound(child, parent, false, deadline)?;
            self.record_link(parent, child, false, closes_sent);
        }

        self.connections_opened += changes.established.len() as u64;
        self.connections_closed += changes.closed.len() as u64;
        self.plan = next;
        Ok(ReconfigureReport {
            revision,
            quality_changes: delta.quality_changes().len(),
            established: changes.established,
            closed: changes.closed,
            retained: changes.retained.len(),
            reconfigured_sites: touched.len(),
        })
    }

    /// Shuts the fleet down and reports: harvests every RP's final stats
    /// report, folds them into the [`ClusterReport`], then orders every
    /// RP to exit.
    ///
    /// Harvesting is best-effort — an RP whose control channel already
    /// failed (e.g. after a poisoning reconfiguration) contributes
    /// nothing to the report instead of failing the shutdown.
    pub fn shutdown(mut self) -> ClusterReport {
        let elapsed = self.started.map(|s| s.elapsed()).unwrap_or_default();
        let deadline = Instant::now() + self.config.timeout;
        self.next_probe += 1;
        let probe = self.next_probe;
        let mut report = ClusterReport {
            elapsed,
            final_revision: self.plan.revision(),
            connections_opened: self.connections_opened,
            connections_closed: self.connections_closed,
            ..ClusterReport::default()
        };
        let mut reachable: Vec<bool> = Vec::with_capacity(self.sites.len());
        for link in &mut self.sites {
            reachable.push(link.send(&Message::StatsRequest { probe }).is_ok());
        }
        for (link, ok) in self.sites.iter_mut().zip(reachable) {
            let snapshot = if ok {
                link.wait_for(deadline, "final stats report", |l| {
                    l.stats.as_ref().filter(|s| s.probe >= probe).cloned()
                })
                .ok()
            } else {
                None
            };
            // A dead RP's accounting is *named* as missing, never
            // silently dropped: the report stays auditable after a
            // poisoning run.
            let Some(snapshot) = snapshot else {
                report.missing_reports += 1;
                self.recorder.record(FlightEventKind::StatsLost {
                    site: link.site.index() as u32,
                });
                continue;
            };
            for entry in snapshot.streams {
                report
                    .delivered
                    .insert((link.site, entry.stream), entry.delivered);
                report
                    .delivered_degraded
                    .insert((link.site, entry.stream), entry.delivered_degraded);
                report
                    .latency_sum_micros
                    .insert((link.site, entry.stream), entry.latency_sum_micros);
                report
                    .latency
                    .insert((link.site, entry.stream), entry.latency);
            }
            report.max_latency_micros = report.max_latency_micros.max(snapshot.max_latency_micros);
        }
        for link in &mut self.sites {
            let _ = link.send(&Message::Shutdown);
        }
        self.done = true;
        report
    }

    /// Orders `parent` to open its data link to `child`, resolving the
    /// child's address from the fleet table.
    fn order_open(&mut self, parent: SiteId, child: SiteId) -> Result<(), ClusterError> {
        let addr = self.sites[child.index()].addr;
        self.sites[parent.index()].send(&Message::OpenLink { child, addr })
    }

    /// Waits until `child` has reported the inbound link from `parent`
    /// up (`present`) or down (`!present`).
    fn await_inbound(
        &mut self,
        child: SiteId,
        parent: SiteId,
        present: bool,
        deadline: Instant,
    ) -> Result<(), ClusterError> {
        let what = if present {
            "inbound link attribution"
        } else {
            "inbound link closure"
        };
        self.sites[child.index()]
            .wait_for(deadline, what, |link| {
                (link.inbound.contains(&parent) == present).then_some(())
            })
            .map_err(|e| match e {
                ClusterError::Control { site, detail } => ClusterError::Control {
                    site,
                    detail: format!("{detail} (link {parent} -> {child})"),
                },
                other => other,
            })
    }

    /// Waits for `site`'s `Ack` of `revision`.
    fn await_ack(
        &mut self,
        site: SiteId,
        revision: u64,
        deadline: Instant,
    ) -> Result<(), ClusterError> {
        self.sites[site.index()].wait_for(deadline, "reconfiguration ack", |link| {
            link.acks.contains(&revision).then_some(())
        })
    }

    /// Polls the fleet's stats until every published frame is accounted
    /// for.
    fn await_deliveries(&mut self) -> Result<(), ClusterError> {
        let deadline = Instant::now() + self.config.timeout;
        loop {
            self.next_probe += 1;
            let probe = self.next_probe;
            for link in &mut self.sites {
                link.send(&Message::StatsRequest { probe })?;
            }
            let mut delivered = 0u64;
            for link in &mut self.sites {
                let snapshot = link.wait_for(deadline, "stats report", |l| {
                    l.stats.as_ref().filter(|s| s.probe >= probe).cloned()
                })?;
                delivered += snapshot.total;
            }
            if delivered >= self.expected_total {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(ClusterError::Timeout {
                    delivered,
                    expected: self.expected_total,
                });
            }
            std::thread::sleep(Duration::from_millis(1));
        }
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
        for link in &mut self.sites {
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
