//! The session registry and its lifecycle API.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};
use teeve_pubsub::{subscription_universe, DeltaSink, DisseminationPlan, PlanDelta, Session};
use teeve_runtime::{EpochCommit, EpochOutcome, RuntimeEvent, RuntimeReport, SessionRuntime};
use teeve_store::SessionStore;
use teeve_telemetry::{FlightRecorder, MetricsRegistry};
use teeve_types::{DisplayId, SessionId, SiteId};

use crate::error::ServiceError;
use crate::report::ServiceReport;
use crate::spec::SessionSpec;

/// One hosted session: its runtime plus the events queued for its next
/// epoch.
#[derive(Debug)]
struct Slot {
    runtime: SessionRuntime,
    pending: Vec<RuntimeEvent>,
}

#[derive(Debug)]
struct Inner {
    /// The registry. Read-locked for lookups (cloning out the slot's
    /// `Arc`) and write-locked only for create/close, so every epoch runs
    /// under its own slot mutex and sessions drive concurrently.
    ///
    /// Lock order: a slot mutex may be taken while holding (or after
    /// re-taking) the `sessions` read lock, never the reverse — no code
    /// path holds a `Slot` guard while touching `sessions`. Keeping the
    /// edge one-directional is what makes the close/create write lock
    /// safe, and `teeve-check locks` flags any cycle introduced against
    /// it.
    sessions: RwLock<BTreeMap<SessionId, Arc<Mutex<Slot>>>>,
    next_id: AtomicU64,
    /// Service-wide metrics: every hosted runtime's epoch phases plus
    /// the bulk-drive session/fold spans land in this one registry.
    telemetry: MetricsRegistry,
    /// Service-wide flight recorder shared by every hosted runtime.
    recorder: FlightRecorder,
    /// Optional durable session store: when present, every admission,
    /// epoch commit, and close is appended to it, so a restarted
    /// service can [`recover`](MembershipService::recover) the fleet.
    store: Option<SessionStore>,
}

/// A membership service hosting many concurrent 3DTI sessions.
///
/// Where the paper's membership server owns *one* session's subscription
/// workload, this service owns a registry of running
/// [`SessionRuntime`]s — one membership server each — behind a single
/// lock. The service is cheaply cloneable (it is an `Arc` handle) and
/// every method takes `&self`, so it can be shared across worker threads
/// freely.
///
/// See the [crate docs](crate) for the lifecycle walkthrough.
#[derive(Debug, Clone)]
pub struct MembershipService {
    inner: Arc<Inner>,
}

impl Default for MembershipService {
    fn default() -> Self {
        Self::new()
    }
}

impl MembershipService {
    /// An empty, non-persistent service.
    pub fn new() -> Self {
        Self::assemble(None)
    }

    /// A persistent service: every admission, epoch commit, and close is
    /// appended to `store`, and any sessions already persisted there are
    /// **re-adopted** — each one's event history is replayed through a
    /// fresh runtime (deterministic reconciliation makes the rebuilt
    /// plans bit-identical to an uninterrupted run's), cross-checked
    /// against the persisted commits, and registered under its original
    /// id. Fresh ids are allocated past everything the store has ever
    /// seen. Events queued but undriven at the crash were never durable
    /// and are not resurrected.
    ///
    /// Opening an empty store simply yields a fresh persistent service.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Store`] if a persisted session no longer
    /// admits a universe or its replay diverges from the persisted
    /// commits.
    pub fn recover(store: SessionStore) -> Result<Self, ServiceError> {
        let next_id = store.max_session_id().map_or(0, |id| id.raw() + 1);
        let service = Self::assemble(Some(store));
        let store = service.inner.store.as_ref().expect("assembled with it");
        for id in store.open_sessions() {
            let restored = store.restore(id)?;
            let mut runtime = restored.fresh_runtime()?;
            runtime.attach_telemetry(&service.inner.telemetry, service.inner.recorder.clone());
            restored.replay_into(&mut runtime)?;
            let slot = Arc::new(Mutex::new(Slot {
                runtime,
                pending: Vec::new(),
            }));
            service.inner.sessions.write().insert(id, slot);
        }
        service.inner.next_id.store(next_id, Ordering::Relaxed);
        service
            .inner
            .telemetry
            .gauge("service.sessions.open")
            .set(service.session_count() as u64);
        Ok(service)
    }

    /// The shared constructor behind [`new`](Self::new) and
    /// [`recover`](Self::recover).
    fn assemble(store: Option<SessionStore>) -> Self {
        MembershipService {
            inner: Arc::new(Inner {
                sessions: RwLock::default(),
                next_id: AtomicU64::new(0),
                telemetry: MetricsRegistry::new(),
                recorder: FlightRecorder::new(),
                store,
            }),
        }
    }

    /// The attached session store, if this service is persistent.
    pub fn store(&self) -> Option<&SessionStore> {
        self.inner.store.as_ref()
    }

    /// The service-wide metrics registry. Every hosted runtime records
    /// its epoch-phase spans here, and bulk drives add their per-session
    /// drive and fold spans (`service.drive.*_micros`), so one snapshot
    /// covers the whole service.
    pub fn telemetry(&self) -> &MetricsRegistry {
        &self.inner.telemetry
    }

    /// The service-wide flight recorder (rebuild-gate trips and other
    /// structural events from every hosted runtime).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.inner.recorder
    }

    /// Admits a new session: derives its subscription universe, assembles
    /// a scoped runtime, and registers it under a fresh [`SessionId`].
    ///
    /// # Errors
    ///
    /// Returns an error if the spec's session admits no subscription
    /// universe (fewer than three sites), the runtime cannot be
    /// assembled, or the attached store refuses the admission record
    /// (in which case nothing is registered).
    pub fn create_session(&self, spec: SessionSpec) -> Result<SessionHandle, ServiceError> {
        let universe = subscription_universe(spec.session())?;
        let (session, config) = spec.into_parts();
        let id = SessionId::new(self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        let mut runtime = SessionRuntime::new(universe, session, config)?.with_scope(id);
        runtime.attach_telemetry(&self.inner.telemetry, self.inner.recorder.clone());
        if let Some(store) = &self.inner.store {
            store.record_opened(id, runtime.session(), config)?;
        }
        let slot = Arc::new(Mutex::new(Slot {
            runtime,
            pending: Vec::new(),
        }));
        self.inner.sessions.write().insert(id, slot);
        self.inner
            .telemetry
            .gauge("service.sessions.open")
            .set(self.session_count() as u64);
        Ok(SessionHandle {
            service: self.clone(),
            id,
        })
    }

    /// Returns a handle to an already-hosted session.
    ///
    /// # Errors
    ///
    /// Returns an error if the session is not hosted here.
    pub fn handle(&self, session: SessionId) -> Result<SessionHandle, ServiceError> {
        if !self.contains(session) {
            return Err(ServiceError::UnknownSession(session));
        }
        Ok(SessionHandle {
            service: self.clone(),
            id: session,
        })
    }

    /// Returns whether `session` is currently hosted.
    pub fn contains(&self, session: SessionId) -> bool {
        self.inner.sessions.read().contains_key(&session)
    }

    /// Returns the number of hosted sessions.
    pub fn session_count(&self) -> usize {
        self.inner.sessions.read().len()
    }

    /// Returns every hosted session id, ascending.
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.inner.sessions.read().keys().copied().collect()
    }

    /// Queues events for `session`'s next epoch (whether driven
    /// individually or by [`drive_all`](Self::drive_all)). Returns the
    /// number of events now pending.
    ///
    /// Events are validated against the session's site and display
    /// ranges *here*, not when driven: a malformed event from one tenant
    /// must never abort a bulk pass over every hosted session. A
    /// rejected batch queues nothing.
    ///
    /// # Errors
    ///
    /// Returns an error if the session is not hosted here or an event
    /// references a site or display outside it.
    pub fn submit_requests(
        &self,
        session: SessionId,
        events: impl IntoIterator<Item = RuntimeEvent>,
    ) -> Result<usize, ServiceError> {
        let events: Vec<RuntimeEvent> = events.into_iter().collect();
        self.with_slot(session, |slot| {
            validate_events(session, slot.runtime.session(), &events)?;
            slot.pending.extend(events);
            Ok(slot.pending.len())
        })?
    }

    /// Drives one epoch of `session` immediately: consumes its queued
    /// events plus `events`, reconciles the overlay, and returns the
    /// epoch's outcome (the emitted delta carries the session's scope).
    ///
    /// Like [`submit_requests`](Self::submit_requests), `events` are
    /// validated first; a rejected call drives nothing and leaves the
    /// queue untouched.
    ///
    /// # Errors
    ///
    /// Returns an error if the session is not hosted here or an event
    /// references a site or display outside it.
    pub fn drive_epoch(
        &self,
        session: SessionId,
        events: &[RuntimeEvent],
    ) -> Result<EpochOutcome, ServiceError> {
        self.with_slot(session, |slot| {
            validate_events(session, slot.runtime.session(), events)?;
            let mut epoch = std::mem::take(&mut slot.pending);
            epoch.extend_from_slice(events);
            let outcome = slot.runtime.apply_epoch(&epoch);
            // Committed under the slot lock so the store sees epochs in
            // order; an append failure means this epoch drove but is
            // not durable.
            self.record_commit(session, &outcome.commit)?;
            Ok(outcome)
        })?
    }

    /// Advances **every** hosted session one epoch, consuming each
    /// session's queued events, and folds the results into one
    /// [`ServiceReport`]. The emitted plan deltas are **discarded** —
    /// this variant is for metrics-only callers (simulation sweeps,
    /// benches); a service feeding live executors must use
    /// [`drive_all_with`](Self::drive_all_with) instead, or the
    /// executors' revisions fall behind with no catch-up path.
    ///
    /// Sessions are handed to parallel worker threads **one at a time**
    /// from a shared work queue: a worker that drew a cheap session comes
    /// back for the next one immediately, so one expensive session never
    /// idles the rest of the pool. Worker count is bounded by the
    /// machine's parallelism and the session count. An epoch with no
    /// queued events is still driven — a quiet epoch is a control-plane
    /// revision, keeping every session's executors in lock-step, exactly
    /// as [`SessionRuntime::apply_epoch`] does for a single session.
    pub fn drive_all(&self) -> ServiceReport {
        self.drive_all_outcomes().0
    }

    /// [`drive_all`](Self::drive_all), with every session's emitted
    /// [`PlanDelta`] pushed into `sink` — typically a
    /// [`DeltaRouter`](teeve_pubsub::DeltaRouter) holding one executor
    /// per session, which dispatches each delta on its session scope.
    ///
    /// The parallel reconcile phase runs first; deltas are then applied
    /// to the sink sequentially in ascending session order (deltas of
    /// different sessions are independent, so this ordering is only for
    /// determinism). A rejected delta does **not** stop the others —
    /// each session's executor fails independently.
    ///
    /// Returns the pass's report (the runtimes advanced regardless of
    /// sink outcomes) together with every rejection, `(session, error)`
    /// per delta the sink refused; an empty rejection list means every
    /// executor is in lock-step. A rejected session's executor has
    /// missed a revision and needs resynchronization.
    pub fn drive_all_with<S: DeltaSink>(
        &self,
        sink: &mut S,
    ) -> (ServiceReport, Vec<(SessionId, S::Error)>) {
        let (report, mut deltas) = self.drive_all_outcomes();
        deltas.sort_by_key(|(id, _)| *id);
        let mut rejections = Vec::new();
        for (id, delta) in &deltas {
            if let Err(e) = sink.apply_delta(delta) {
                rejections.push((*id, e));
            }
        }
        (report, rejections)
    }

    /// The shared bulk-drive core: parallel reconcile over a per-session
    /// work queue, returning the folded report and every session's
    /// emitted delta.
    fn drive_all_outcomes(&self) -> (ServiceReport, Vec<(SessionId, PlanDelta)>) {
        // Snapshot the registry into a work list. The read lock is held
        // only for the copy, so creates and closes are never blocked
        // behind overlay repair.
        let work: Vec<(SessionId, Arc<Mutex<Slot>>)> = self
            .inner
            .sessions
            .read()
            .iter()
            .map(|(id, slot)| (*id, Arc::clone(slot)))
            .collect();
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(work.len())
            .max(1);
        let cursor = AtomicUsize::new(0);
        if workers == 1 {
            // Nothing to parallelize: drive inline instead of paying a
            // spawn/join per pass.
            return self.steal_sessions(&work, &cursor);
        }
        let mut report = ServiceReport::default();
        let mut deltas = Vec::new();
        let shares = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| self.steal_sessions(&work, &cursor)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker threads do not panic"))
                .collect::<Vec<_>>()
        });
        let folding = Instant::now();
        for (share, share_deltas) in shares {
            report.merge(share);
            deltas.extend(share_deltas);
        }
        self.inner
            .telemetry
            .histogram("service.drive.fold_micros")
            .record_duration(folding.elapsed());
        (report, deltas)
    }

    /// One worker's share of a bulk drive: repeatedly claims the next
    /// undriven session off the shared `work` list (via `cursor`
    /// fetch-add) until the list is exhausted, and returns the partial
    /// report and emitted deltas. Stealing is per **session**, so a
    /// skewed tenant mix — one session with a huge event backlog — costs
    /// the pass only that session's own reconcile time.
    fn steal_sessions(
        &self,
        work: &[(SessionId, Arc<Mutex<Slot>>)],
        cursor: &AtomicUsize,
    ) -> (ServiceReport, Vec<(SessionId, PlanDelta)>) {
        let mut report = ServiceReport::default();
        let mut deltas = Vec::new();
        let session_span = self
            .inner
            .telemetry
            .histogram("service.drive.session_micros");
        loop {
            let next = cursor.fetch_add(1, Ordering::Relaxed);
            let Some((id, slot)) = work.get(next) else {
                break;
            };
            let driving = Instant::now();
            let mut slot = slot.lock();
            // The snapshot's Arc keeps a slot alive past its removal; a
            // session closed between the snapshot and this lock must not
            // be driven after its final report was read. (Slot guard →
            // registry read lock is the documented lock order.)
            if !self.inner.sessions.read().contains_key(id) {
                continue;
            }
            let epoch = std::mem::take(&mut slot.pending);
            let outcome = slot.runtime.apply_epoch(&epoch);
            // A failed append must not abort the pass over every other
            // tenant; the report *names* the lost commit.
            if self.record_commit(*id, &outcome.commit).is_err() {
                report.store_failures += 1;
            }
            report.absorb(*id, outcome.report);
            deltas.push((*id, outcome.delta));
            session_span.record_duration(driving.elapsed());
        }
        (report, deltas)
    }

    /// Removes `session` from the registry, returning its aggregate
    /// runtime report. An epoch already in flight on another thread
    /// completes against the detached runtime; the session is unreachable
    /// afterwards. Events still queued via
    /// [`submit_requests`](Self::submit_requests) but not yet driven are
    /// **discarded** — drive a final epoch first if they matter.
    ///
    /// # Errors
    ///
    /// Returns an error if the session is not hosted here, or the
    /// attached store could not append the close record — the session
    /// is unhosted either way, but on a store error it is still open in
    /// the log and a later [`recover`](Self::recover) will re-adopt it.
    pub fn close_session(&self, session: SessionId) -> Result<RuntimeReport, ServiceError> {
        let slot = self
            .inner
            .sessions
            .write()
            .remove(&session)
            .ok_or(ServiceError::UnknownSession(session))?;
        let report = slot.lock().runtime.report();
        self.inner
            .telemetry
            .gauge("service.sessions.open")
            .set(self.session_count() as u64);
        if let Some(store) = &self.inner.store {
            store.record_closed(session)?;
        }
        Ok(report)
    }

    /// Appends one epoch commit to the attached store, if any. Callers
    /// hold the session's slot lock, so commits land in epoch order.
    fn record_commit(&self, session: SessionId, commit: &EpochCommit) -> Result<(), ServiceError> {
        if let Some(store) = &self.inner.store {
            store.record_commit(session, commit)?;
        }
        Ok(())
    }

    /// Runs `f` under `session`'s slot lock.
    fn with_slot<R>(
        &self,
        session: SessionId,
        f: impl FnOnce(&mut Slot) -> R,
    ) -> Result<R, ServiceError> {
        let slot = self
            .inner
            .sessions
            .read()
            .get(&session)
            .cloned()
            .ok_or(ServiceError::UnknownSession(session))?;
        let mut guard = slot.lock();
        // The cloned Arc keeps the slot alive past a concurrent close;
        // honor the close by re-checking membership under the slot lock,
        // so no operation succeeds on a session whose final report was
        // already handed out.
        if !self.inner.sessions.read().contains_key(&session) {
            return Err(ServiceError::UnknownSession(session));
        }
        Ok(f(&mut guard))
    }
}

/// Checks every event's site and display references against the hosted
/// session's shape, so malformed tenant input is rejected at the service
/// boundary instead of panicking inside a (possibly bulk) epoch drive.
fn validate_events(
    id: SessionId,
    session: &Session,
    events: &[RuntimeEvent],
) -> Result<(), ServiceError> {
    let n = session.site_count();
    let site_ok = |s: SiteId| s.index() < n;
    let display_ok =
        |d: DisplayId| site_ok(d.site()) && d.local_index() < session.rp(d.site()).display_count();
    for event in events {
        let ok = match event {
            RuntimeEvent::FovChange { display, .. } | RuntimeEvent::FovClear { display } => {
                display_ok(*display)
            }
            RuntimeEvent::Viewpoint { display, target } => display_ok(*display) && site_ok(*target),
            RuntimeEvent::SiteJoin { site }
            | RuntimeEvent::SiteLeave { site }
            | RuntimeEvent::BandwidthSample { site, .. } => site_ok(*site),
        };
        if !ok {
            return Err(ServiceError::EventOutOfRange {
                session: id,
                event: event.clone(),
            });
        }
    }
    Ok(())
}

/// A caller's handle on one hosted session.
///
/// Handles are cheap clones of the service pointer plus the session id;
/// dropping one does **not** close the session — call
/// [`close`](Self::close) (or
/// [`MembershipService::close_session`]) for that.
#[derive(Debug, Clone)]
pub struct SessionHandle {
    service: MembershipService,
    id: SessionId,
}

impl SessionHandle {
    /// Returns the session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Queues events for the session's next epoch; see
    /// [`MembershipService::submit_requests`].
    ///
    /// # Errors
    ///
    /// Returns an error if the session was closed or an event references
    /// a site or display outside it.
    pub fn submit_requests(
        &self,
        events: impl IntoIterator<Item = RuntimeEvent>,
    ) -> Result<usize, ServiceError> {
        self.service.submit_requests(self.id, events)
    }

    /// Drives one epoch immediately; see
    /// [`MembershipService::drive_epoch`].
    ///
    /// # Errors
    ///
    /// Returns an error if the session was closed or an event references
    /// a site or display outside it.
    pub fn drive_epoch(&self, events: &[RuntimeEvent]) -> Result<EpochOutcome, ServiceError> {
        self.service.drive_epoch(self.id, events)
    }

    /// Returns the number of completed epochs.
    ///
    /// # Errors
    ///
    /// Returns an error if the session was closed.
    pub fn epoch(&self) -> Result<u64, ServiceError> {
        self.service.with_slot(self.id, |slot| slot.runtime.epoch())
    }

    /// Returns a clone of the session's current dissemination plan
    /// (stamped with the session's scope).
    ///
    /// # Errors
    ///
    /// Returns an error if the session was closed.
    pub fn plan(&self) -> Result<DisseminationPlan, ServiceError> {
        self.service
            .with_slot(self.id, |slot| slot.runtime.plan().clone())
    }

    /// Returns the session's aggregate report so far.
    ///
    /// # Errors
    ///
    /// Returns an error if the session was closed.
    pub fn report(&self) -> Result<RuntimeReport, ServiceError> {
        self.service
            .with_slot(self.id, |slot| slot.runtime.report())
    }

    /// Checks every static invariant on the session's live forest
    /// (`validate_forest` over its current snapshot).
    ///
    /// # Errors
    ///
    /// Returns an error if the session was closed or an invariant is
    /// violated.
    pub fn validate(&self) -> Result<(), ServiceError> {
        self.service
            .with_slot(self.id, |slot| slot.runtime.validate())?
            .map_err(ServiceError::from)
    }

    /// Closes the session, removing it from the service; see
    /// [`MembershipService::close_session`] (queued-but-undriven events
    /// are discarded).
    ///
    /// # Errors
    ///
    /// Returns an error if the session was already closed.
    pub fn close(self) -> Result<RuntimeReport, ServiceError> {
        self.service.close_session(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teeve_pubsub::Session;
    use teeve_types::{CostMatrix, CostMs, Degree, DisplayId, SiteId};

    fn spec(n: usize) -> SessionSpec {
        let costs = CostMatrix::from_fn(n, |i, j| CostMs::new(4 + ((i + j) % 3) as u32));
        SessionSpec::new(
            Session::builder(costs)
                .cameras_per_site(6)
                .displays_per_site(2)
                .symmetric_capacity(Degree::new(12))
                .build(),
        )
    }

    fn viewpoint(s: u32, d: u32, target: u32) -> RuntimeEvent {
        RuntimeEvent::Viewpoint {
            display: DisplayId::new(SiteId::new(s), d),
            target: SiteId::new(target),
        }
    }

    #[test]
    fn create_drive_close_lifecycle() {
        let service = MembershipService::new();
        let handle = service.create_session(spec(4)).unwrap();
        assert_eq!(service.session_count(), 1);
        assert!(service.contains(handle.id()));

        let outcome = handle.drive_epoch(&[viewpoint(0, 0, 2)]).unwrap();
        assert!(outcome.report.accepted > 0);
        assert_eq!(outcome.delta.scope(), Some(handle.id()));
        handle.validate().unwrap();
        assert_eq!(handle.epoch().unwrap(), 1);
        assert_eq!(handle.plan().unwrap().scope(), Some(handle.id()));

        let id = handle.id();
        let report = handle.close().unwrap();
        assert_eq!(report.epochs, 1);
        assert!(!service.contains(id));
        assert_eq!(service.session_count(), 0);
        assert!(matches!(
            service.drive_epoch(id, &[]),
            Err(ServiceError::UnknownSession(_))
        ));
    }

    #[test]
    fn session_ids_are_unique_and_ascending() {
        let service = MembershipService::new();
        let ids: Vec<SessionId> = (0..10)
            .map(|_| service.create_session(spec(4)).unwrap().id())
            .collect();
        assert_eq!(service.session_count(), 10);
        assert_eq!(service.session_ids(), ids, "creation order is id order");
        let unique: std::collections::BTreeSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len());
    }

    #[test]
    fn submitted_requests_feed_the_next_epoch() {
        let service = MembershipService::new();
        let handle = service.create_session(spec(4)).unwrap();
        assert_eq!(handle.submit_requests([viewpoint(0, 0, 2)]).unwrap(), 1);
        assert_eq!(handle.submit_requests([viewpoint(1, 0, 3)]).unwrap(), 2);

        let outcome = handle.drive_epoch(&[]).unwrap();
        assert_eq!(outcome.report.events, 2, "queued events were consumed");
        assert!(outcome.report.accepted > 0);
        // The queue drained: the next epoch is quiet.
        let quiet = handle.drive_epoch(&[]).unwrap();
        assert_eq!(quiet.report.events, 0);
        assert!(quiet.delta.is_empty());
    }

    #[test]
    fn drive_all_advances_every_session_once() {
        let service = MembershipService::new();
        let handles: Vec<SessionHandle> = (0..6)
            .map(|_| service.create_session(spec(4)).unwrap())
            .collect();
        for handle in &handles {
            handle.submit_requests([viewpoint(0, 0, 2)]).unwrap();
        }
        let report = service.drive_all();
        assert_eq!(report.sessions, 6);
        assert_eq!(report.events, 6);
        assert!(report.accepted >= 6);
        assert_eq!(report.per_session.len(), 6);
        for handle in &handles {
            assert_eq!(handle.epoch().unwrap(), 1);
            assert!(report.per_session.contains_key(&handle.id()));
            handle.validate().unwrap();
        }
        // A second pass with nothing queued still advances epochs.
        let quiet = service.drive_all();
        assert_eq!(quiet.sessions, 6);
        assert_eq!(quiet.events, 0);
        for handle in &handles {
            assert_eq!(handle.epoch().unwrap(), 2);
        }
    }

    #[test]
    fn skewed_registry_is_stolen_per_session_not_per_shard() {
        // 32 sessions behind the one registry lock, and the work is
        // skewed — one session carries a deep event backlog while most
        // sit idle. Per-session stealing must (a) bound workers by the
        // session count, (b) still drive every session exactly one
        // epoch, and (c) account one drive span per session.
        let service = MembershipService::new();
        let handles: Vec<SessionHandle> = (0..32)
            .map(|_| service.create_session(spec(4)).unwrap())
            .collect();
        // The hot tenant: a pile of churn on session 0…
        for round in 0..6u32 {
            handles[0]
                .submit_requests([viewpoint(0, 0, 1 + round % 3)])
                .unwrap();
        }
        // …light touches on a few others, silence on the rest.
        for (index, handle) in handles.iter().enumerate().skip(1) {
            if index % 7 == 0 {
                handle.submit_requests([viewpoint(0, 1, 2)]).unwrap();
            }
        }

        let report = service.drive_all();
        assert_eq!(report.sessions, 32);
        assert_eq!(report.reconverge.count(), 32);
        assert_eq!(report.events, 10, "6 on the hot tenant + 4 light touches");
        for handle in &handles {
            assert_eq!(handle.epoch().unwrap(), 1, "every session advanced once");
            handle.validate().unwrap();
        }
        // Session-granular accounting: one drive span per tenant. On a
        // multi-core host the pool genuinely fans out; on one core the
        // same queue degrades to the inline path — either way the
        // outcome above is identical.
        let snapshot = service.telemetry().snapshot();
        assert_eq!(
            snapshot.histograms["service.drive.session_micros"].count(),
            32
        );

        // A session closed between passes is skipped by the next pass's
        // snapshot guard, not driven posthumously.
        service.close_session(handles[5].id()).unwrap();
        let second = service.drive_all();
        assert_eq!(second.sessions, 31);
    }

    #[test]
    fn drive_all_with_routes_every_delta_to_its_executor() {
        use teeve_pubsub::DeltaRouter;

        let service = MembershipService::new();
        let handles: Vec<SessionHandle> = (0..5)
            .map(|_| service.create_session(spec(4)).unwrap())
            .collect();
        // One shadow-plan executor per session, dispatched by scope.
        let mut router: DeltaRouter<DisseminationPlan> = DeltaRouter::new();
        for handle in &handles {
            router.register(handle.id(), handle.plan().unwrap());
        }
        for (i, handle) in handles.iter().enumerate() {
            handle
                .submit_requests([viewpoint(0, 0, 1 + (i as u32 % 3))])
                .unwrap();
        }

        let (report, rejections) = service.drive_all_with(&mut router);
        assert_eq!(report.sessions, 5);
        assert!(rejections.is_empty());
        for handle in &handles {
            assert_eq!(
                router.get(handle.id()).unwrap(),
                &handle.plan().unwrap(),
                "each executor tracked its own session exactly"
            );
        }
        // A quiet pass still routes the revision-advancing empty deltas,
        // keeping executors in lock-step.
        let (_, rejections) = service.drive_all_with(&mut router);
        assert!(rejections.is_empty());
        for handle in &handles {
            assert_eq!(router.get(handle.id()).unwrap().revision(), 2);
            assert_eq!(handle.plan().unwrap().revision(), 2);
        }

        // An executor-less session fails alone: its delta is rejected,
        // every other session's executor still advances, and the full
        // report survives.
        let extra = service.create_session(spec(4)).unwrap();
        let (report, rejections) = service.drive_all_with(&mut router);
        assert_eq!(report.sessions, 6);
        assert_eq!(rejections.len(), 1);
        assert_eq!(rejections[0].0, extra.id());
        assert!(matches!(
            rejections[0].1,
            teeve_pubsub::RouteError::UnknownSession(_)
        ));
        for handle in &handles {
            assert_eq!(router.get(handle.id()).unwrap().revision(), 3);
        }
    }

    #[test]
    fn out_of_range_events_are_rejected_at_the_boundary() {
        let service = MembershipService::new();
        let handle = service.create_session(spec(4)).unwrap();
        // Site 99 does not exist in a 4-site session; neither does a
        // third display. Both must be refused up front — not panic a
        // later (possibly bulk) drive.
        for bad in [
            viewpoint(99, 0, 1),
            viewpoint(0, 0, 99),
            viewpoint(0, 7, 1),
            RuntimeEvent::SiteLeave {
                site: SiteId::new(4),
            },
            RuntimeEvent::BandwidthSample {
                site: SiteId::new(9),
                bits_per_sec: 1e6,
            },
        ] {
            assert!(
                matches!(
                    handle.submit_requests([bad.clone()]),
                    Err(ServiceError::EventOutOfRange { .. })
                ),
                "{bad:?} must be rejected"
            );
            assert!(matches!(
                handle.drive_epoch(std::slice::from_ref(&bad)),
                Err(ServiceError::EventOutOfRange { .. })
            ));
        }
        // Nothing was queued and nothing drove; valid traffic still works
        // and drive_all never sees the malformed events.
        let outcome = handle.drive_epoch(&[viewpoint(0, 0, 2)]).unwrap();
        assert_eq!(outcome.report.events, 1);
        assert_eq!(service.drive_all().sessions, 1);
        assert_eq!(handle.epoch().unwrap(), 2);
    }

    #[test]
    fn too_small_sessions_are_rejected() {
        let service = MembershipService::new();
        assert!(matches!(
            service.create_session(spec(2)),
            Err(ServiceError::InvalidUniverse(_))
        ));
        assert_eq!(service.session_count(), 0);
    }

    #[test]
    fn handles_can_be_reattached_by_id() {
        let service = MembershipService::new();
        let id = service.create_session(spec(4)).unwrap().id();
        let handle = service.handle(id).unwrap();
        handle.drive_epoch(&[viewpoint(0, 0, 1)]).unwrap();
        assert_eq!(handle.epoch().unwrap(), 1);
        assert!(matches!(
            service.handle(SessionId::new(999)),
            Err(ServiceError::UnknownSession(_))
        ));
    }

    #[test]
    fn bulk_drives_record_service_telemetry() {
        let service = MembershipService::new();
        let handles: Vec<SessionHandle> = (0..6)
            .map(|_| service.create_session(spec(4)).unwrap())
            .collect();
        for handle in &handles {
            handle.submit_requests([viewpoint(0, 0, 2)]).unwrap();
        }
        let report = service.drive_all();

        // The report carries the cross-session reconvergence
        // distribution, not just the summed total.
        assert_eq!(report.reconverge.count(), 6);
        assert!(report.reconverge_p50() <= report.reconverge_p99());
        assert!(
            report.reconverge_p99() as u128 >= report.mean_reconverge().as_micros(),
            "the p99 bounds the mean from above"
        );

        // The service registry saw the pass: one drive span per driven
        // session, runtime phases for every epoch, and the open-session
        // gauge.
        let snapshot = service.telemetry().snapshot();
        assert_eq!(
            snapshot.histograms["service.drive.session_micros"].count(),
            6
        );
        assert_eq!(snapshot.histograms["runtime.reconverge_micros"].count(), 6);
        assert_eq!(snapshot.gauges["service.sessions.open"], 6);

        let id = handles[0].id();
        service.close_session(id).unwrap();
        assert_eq!(
            service.telemetry().snapshot().gauges["service.sessions.open"],
            5
        );
    }
}
