//! The system under test, assembled the way a deployment would: a
//! `MembershipService` (store-backed on the durable workload) hosting the
//! sessions, one `LiveCluster` per session on a one-thread `Reactor`, and
//! a `DeltaRouter` dictating every epoch's delta to its fleet over
//! loopback TCP. Only public crate APIs are called; every timing is taken
//! here, around those calls.

use std::collections::BTreeMap;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use teeve_net::{ClusterConfig, ClusterError, ClusterReport, LiveCluster, Reactor};
use teeve_pubsub::{DeltaRouter, DeltaSink, DisseminationPlan, PlanDelta, RouteError};
use teeve_runtime::{EpochReport, PhaseBreakdown};
use teeve_service::{MembershipService, SessionHandle, SessionSpec};
use teeve_store::SessionStore;
use teeve_types::{SessionId, SiteId, StreamId};

use crate::procstat;
use crate::trace::Tracer;
use crate::workload::Workload;

pub type Res<T> = Result<T, Box<dyn Error>>;

/// Frames owed (or delivered) per (site, stream) of one session.
pub type Deliveries = BTreeMap<(SiteId, StreamId), u64>;

/// The most one link may have queued by one unpaced batch. The reactor
/// sheds writes past 8 MiB of pending bytes per connection, and a shed
/// frame is never delivered, so `publish` would wait out its timeout.
const MAX_LINK_BACKLOG_BYTES: u64 = 4 * 1024 * 1024;

/// Deadline of every blocking fleet step; far above any healthy step, so
/// reaching it is a failed operation, not noise.
const STEP_TIMEOUT: Duration = Duration::from_secs(10);

/// A store log under the benchmark's own `out/` directory, removed when
/// dropped — also while unwinding from a failure.
#[derive(Debug)]
pub struct TempLog(PathBuf);

impl TempLog {
    /// `label` keeps the logs one process holds apart; the process id
    /// keeps concurrent runs apart.
    pub fn new(dir: &Path, label: &str) -> Res<TempLog> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{label}-{}.log", std::process::id()));
        // A stale file here would be recovered as sessions.
        let _ = std::fs::remove_file(&path);
        Ok(TempLog(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempLog {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// When one session's delta was dictated and acknowledged by its fleet.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    pub session: SessionId,
    pub start: Instant,
    /// `apply_delta` returned: every touched RP acked (the op's `t1`).
    pub end: Instant,
    pub touched_sites: usize,
}

/// The `DeltaSink` handed to `drive_all_with`: routes each delta to its
/// session's live fleet and stamps when the fleet acknowledged it.
pub struct StampingSink {
    pub router: DeltaRouter<LiveCluster>,
    pub stamps: Vec<Stamp>,
}

impl DeltaSink for StampingSink {
    type Error = RouteError<ClusterError>;

    fn apply_delta(&mut self, delta: &PlanDelta) -> Result<(), Self::Error> {
        let start = Instant::now();
        self.router.apply_delta(delta)?;
        let end = Instant::now();
        if let Some(session) = delta.scope() {
            self.stamps.push(Stamp {
                session,
                start,
                end,
                touched_sites: delta.touched_sites().len(),
            });
        }
        Ok(())
    }
}

/// Raw timings of the timed window, one entry per FOV op or batch.
#[derive(Debug, Default)]
pub struct Samples {
    /// `t2 - t0` per FOV op, nanoseconds.
    pub fov_to_frame: Vec<u64>,
    /// `t1 - t0` per FOV op.
    pub reconfigure: Vec<u64>,
    /// `publish(1)` per FOV op.
    pub first_frame: Vec<u64>,
    /// Whether the op's spans were recorded (traced runs alternate).
    pub traced: Vec<bool>,
    /// `publish(F)` per data batch.
    pub batch: Vec<u64>,
    pub touched_sites: u64,
    pub epochs: EpochSums,
    pub store_failures: u64,
}

/// Sums over the `EpochReport`s the drive calls returned.
#[derive(Debug, Default)]
pub struct EpochSums {
    pub count: u64,
    pub subscribes: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub rebuilds: u64,
    pub delta_entries: u64,
    pub plan_entries: u64,
    pub max_tree_depth: usize,
    pub reconverge: Duration,
    /// The phases partition each epoch's reconvergence exactly.
    pub phases: PhaseBreakdown,
}

impl EpochSums {
    fn absorb(&mut self, epoch: &EpochReport) {
        self.count += 1;
        self.subscribes += epoch.subscribes as u64;
        self.accepted += epoch.accepted as u64;
        self.rejected += epoch.rejected as u64;
        self.rebuilds += u64::from(epoch.rebuilt);
        self.delta_entries += epoch.delta_entries as u64;
        self.plan_entries += epoch.plan_entries as u64;
        self.max_tree_depth = self.max_tree_depth.max(epoch.max_tree_depth);
        self.reconverge += epoch.reconverge;
        self.phases.accumulate(&epoch.phases);
    }
}

pub struct Rig {
    pub workload: &'static Workload,
    pub reactor: Reactor,
    /// The reactor's one event-loop thread.
    pub reactor_tid: u32,
    service: MembershipService,
    pub handles: Vec<SessionHandle>,
    pub sink: StampingSink,
    /// What every batch so far owes each session's receivers.
    pub expected: Vec<Deliveries>,
    store_log: Option<TempLog>,
    rng: ChaCha8Rng,
    next_op: u64,
    /// FOV ops and batches attempted since the last `take_samples`.
    pub attempted: u64,
    pub samples: Samples,
}

/// What a torn-down rig leaves behind for the oracle.
pub struct Teardown {
    pub reports: Vec<ClusterReport>,
    pub writes_dropped: u64,
    pub store_log: Option<TempLog>,
}

impl Rig {
    /// Builds the sessions, opens the store, launches and links the
    /// fleets, and runs the warm-up rounds: everything `setup_s` covers.
    pub fn set_up(workload: &'static Workload, seed: u64, out_dir: &Path) -> Res<Rig> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let threads_before = procstat::thread_ids();
        let reactor = Reactor::new(1)?;
        let reactor_tid = procstat::thread_ids()
            .into_iter()
            .find(|tid| !threads_before.contains(tid))
            .ok_or("the reactor started no thread")?;

        let (service, store_log) = if workload.durable {
            let log = TempLog::new(out_dir, &format!("store-{}", workload.name))?;
            let store = SessionStore::open(log.path())?;
            (MembershipService::recover(store)?, Some(log))
        } else {
            (MembershipService::new(), None)
        };

        let config = ClusterConfig {
            frames_per_stream: workload.batch_frames,
            payload_bytes: workload.payload_bytes,
            frame_interval: None,
            timeout: STEP_TIMEOUT,
        };
        let mut handles = Vec::with_capacity(workload.sessions);
        let mut router = DeltaRouter::new();
        for _ in 0..workload.sessions {
            let (session, settle) = workload.build_session(&mut rng);
            let handle = service.create_session(SessionSpec::new(session))?;
            if !settle.is_empty() {
                handle.drive_epoch(&settle)?;
            }
            let plan = handle.plan()?;
            check_link_backlog(workload, &plan)?;
            let cluster = LiveCluster::launch_reactor(&plan, &config, &reactor)?;
            router.register(handle.id(), cluster);
            handles.push(handle);
        }

        let mut rig = Rig {
            workload,
            reactor,
            reactor_tid,
            service,
            expected: vec![Deliveries::new(); handles.len()],
            handles,
            sink: StampingSink {
                router,
                stamps: Vec::new(),
            },
            store_log,
            rng,
            next_op: 0,
            attempted: 0,
            samples: Samples::default(),
        };
        let mut tracer = Tracer::new();
        for _ in 0..workload.warmup_rounds {
            rig.round(&mut tracer)?;
        }
        rig.take_samples();
        Ok(rig)
    }

    /// Hands out the samples gathered so far and starts afresh.
    pub fn take_samples(&mut self) -> Samples {
        self.attempted = 0;
        std::mem::take(&mut self.samples)
    }

    /// One round of fixed work: the workload's FOV ops, then its data
    /// batch. Stops at the first operation that fails.
    pub fn round(&mut self, tracer: &mut Tracer) -> Res<()> {
        for _ in 0..self.workload.ops_per_round {
            self.fov_pass(tracer)?;
        }
        if self.workload.batch_frames > 0 {
            self.batch(tracer)?;
        }
        Ok(())
    }

    /// One FOV op per session: submit a seeded retarget, drive the epoch
    /// (the sink dictates each delta and stamps its acknowledgement),
    /// then wait for the first frame under the new revision.
    fn fov_pass(&mut self, tracer: &mut Tracer) -> Res<()> {
        let op = self.next_op;
        self.next_op += 1;
        let events: Vec<_> = self
            .handles
            .iter()
            .map(|_| self.workload.next_event(&mut self.rng))
            .collect();
        self.attempted += self.handles.len() as u64;

        let t0 = Instant::now();
        for (handle, event) in self.handles.iter().zip(events) {
            handle.submit_requests([event])?;
        }
        let submitted = Instant::now();
        self.sink.stamps.clear();
        let (report, rejections) = self.service.drive_all_with(&mut self.sink);
        let driven = Instant::now();
        if let Some((session, error)) = rejections.into_iter().next() {
            return Err(format!("{session}: fleet rejected its delta: {error}").into());
        }

        let root = tracer.span("harness.fov_op", op, None, t0, t0);
        tracer.span("service.submit", op, root, t0, submitted);
        let drive = tracer.span("service.drive", op, root, submitted, driven);
        let mut last = driven;
        for (index, handle) in self.handles.iter().enumerate() {
            let stamp = *self
                .sink
                .stamps
                .iter()
                .find(|s| s.session == handle.id())
                .ok_or("a driven session emitted no delta")?;
            let cluster = self
                .sink
                .router
                .get_mut(handle.id())
                .ok_or("session lost its fleet")?;
            let publishing = Instant::now();
            cluster.publish(1)?;
            let t2 = Instant::now();
            expect_batch(&mut self.expected[index], cluster.plan(), 1);

            self.samples.fov_to_frame.push(nanos(t0, t2));
            self.samples.reconfigure.push(nanos(t0, stamp.end));
            self.samples.first_frame.push(nanos(publishing, t2));
            self.samples.traced.push(tracer.is_recording());
            self.samples.touched_sites += stamp.touched_sites as u64;
            tracer.span("net.coordinator.dictate", op, drive, stamp.start, stamp.end);
            tracer.span("net.coordinator.first_frame", op, root, publishing, t2);
            last = t2;
        }
        if let Some(root) = root {
            tracer.close(root, last);
        }
        // What the drive call returned about the time inside it: placed
        // at the drive span's start, since only the duration is known.
        for epoch in report.per_session.values() {
            let end = submitted + epoch.reconverge;
            tracer.span("runtime.reconverge", op, drive, submitted, end);
            self.samples.epochs.absorb(epoch);
        }
        self.samples.store_failures += report.store_failures as u64;
        Ok(())
    }

    /// The round's data batch, one session after the other.
    fn batch(&mut self, tracer: &mut Tracer) -> Res<()> {
        let frames = self.workload.batch_frames;
        let op = self.next_op;
        self.next_op += 1;
        for (index, handle) in self.handles.iter().enumerate() {
            self.attempted += 1;
            let cluster = self
                .sink
                .router
                .get_mut(handle.id())
                .ok_or("session lost its fleet")?;
            let start = Instant::now();
            cluster.publish(frames)?;
            let end = Instant::now();
            expect_batch(&mut self.expected[index], cluster.plan(), frames);
            self.samples.batch.push(nanos(start, end));
            let root = tracer.span("harness.batch", op, None, start, end);
            tracer.span("net.coordinator.batch", op, root, start, end);
        }
        Ok(())
    }

    /// Frame receipts every batch so far owes, over all sessions.
    pub fn owed(&self) -> u64 {
        self.expected.iter().flat_map(|e| e.values()).sum()
    }

    /// The plan each live fleet currently executes, in session order.
    pub fn live_plans(&self) -> Vec<DisseminationPlan> {
        self.handles
            .iter()
            .filter_map(|h| self.sink.router.get(h.id()))
            .map(|cluster| cluster.plan().clone())
            .collect()
    }

    /// Shuts every fleet down (harvesting its delivery report), stops
    /// the reactor and drops the service, closing the store.
    pub fn tear_down(mut self) -> Teardown {
        let reports = self
            .handles
            .iter()
            .filter_map(|h| self.sink.router.unregister(h.id()))
            .map(LiveCluster::shutdown)
            .collect();
        let writes_dropped = self
            .reactor
            .telemetry()
            .counter("reactor.writes.dropped")
            .get();
        self.reactor.shutdown();
        Teardown {
            reports,
            writes_dropped,
            store_log: self.store_log,
        }
    }
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// Records what the current plan's receivers are owed by a batch.
fn expect_batch(expected: &mut Deliveries, plan: &DisseminationPlan, frames: u64) {
    for site_plan in plan.site_plans() {
        for stream in site_plan.received_streams() {
            *expected.entry((site_plan.site, stream)).or_default() += frames;
        }
    }
}

/// The sizing guard: refuses a batch size whose per-link backlog could
/// pass the reactor's shed cap (see the README's known limit).
fn check_link_backlog(workload: &Workload, plan: &DisseminationPlan) -> Res<()> {
    let mut streams_per_link: BTreeMap<(SiteId, SiteId), u64> = BTreeMap::new();
    for (parent, child, _) in plan.edges() {
        *streams_per_link.entry((parent, child)).or_default() += 1;
    }
    let widest = streams_per_link.values().copied().max().unwrap_or(0);
    let backlog = widest * workload.batch_frames * workload.payload_bytes as u64;
    if backlog > MAX_LINK_BACKLOG_BYTES {
        return Err(format!(
            "{}: a batch queues {backlog} B on one link ({widest} streams), over the \
             {MAX_LINK_BACKLOG_BYTES} B sizing rule",
            workload.name
        )
        .into());
    }
    Ok(())
}
