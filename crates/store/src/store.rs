//! The versioned session store: an in-memory index over an append-only
//! commit log.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use teeve_pubsub::{subscription_universe, Session};
use teeve_runtime::{EpochCommit, RuntimeConfig, SessionRuntime};
use teeve_types::SessionId;

use crate::error::StoreError;
use crate::log::{frame, scan_record};

/// One persisted log record. The log is the store: replaying these in
/// order reproduces the full index, so the on-disk format has no other
/// structure to corrupt.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum LogRecord {
    /// A session was admitted with this definition and runtime config.
    Opened {
        session: SessionId,
        def: Session,
        config: RuntimeConfig,
    },
    /// One epoch committed: the events driven plus the state they
    /// produced (demand, granted qualities, ladder, plan revision).
    Commit {
        session: SessionId,
        commit: EpochCommit,
    },
    /// The session was closed; its history stays readable but accepts
    /// no further commits.
    Closed { session: SessionId },
}

/// Everything the store knows about one session.
#[derive(Debug)]
struct History {
    def: Session,
    config: RuntimeConfig,
    commits: Vec<EpochCommit>,
    closed: bool,
}

#[derive(Debug)]
struct Inner {
    file: File,
    sessions: BTreeMap<SessionId, History>,
    recovered_records: u64,
    truncated_bytes: u64,
}

/// A versioned, snapshot-capable session-state store.
///
/// Every epoch commit of every hosted session is appended to one
/// checksummed log (see [`crate`] docs for the format); an in-memory
/// index over the log answers [`snapshot`](Self::snapshot) and
/// [`restore`](Self::restore) without touching disk. [`open`](Self::open)
/// rebuilds the index from the log, truncating a crash-torn tail, so a
/// restarted service re-adopts exactly the sessions whose state was
/// durably recorded.
///
/// All methods take `&self`; the store serializes appends internally and
/// can be shared behind an `Arc`.
#[derive(Debug)]
pub struct SessionStore {
    path: PathBuf,
    inner: Mutex<Inner>,
}

impl SessionStore {
    /// Opens (or creates) the store at `path`, rebuilding the index from
    /// the log. A tail cut or corrupted by a crash — an incomplete
    /// header, a short payload, a checksum mismatch, or an undecodable
    /// record — is truncated away; everything before it is recovered.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be opened, read, or (when a
    /// torn tail must go) truncated.
    pub fn open(path: impl AsRef<Path>) -> Result<SessionStore, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;

        let mut sessions: BTreeMap<SessionId, History> = BTreeMap::new();
        let mut offset = 0usize;
        let mut recovered_records = 0u64;
        while let Some((payload, next)) = scan_record(&buf, offset) {
            // A checksummed record that fails to parse is still a torn
            // tail from the index's point of view: nothing after it can
            // be trusted to apply in order.
            let Some(record) = std::str::from_utf8(payload)
                .ok()
                .and_then(|text| serde_json::from_str::<LogRecord>(text).ok())
            else {
                break;
            };
            apply_record(&mut sessions, record);
            recovered_records += 1;
            offset = next;
        }
        let truncated_bytes = (buf.len() - offset) as u64;
        if truncated_bytes > 0 {
            file.set_len(offset as u64)?;
        }
        file.seek(SeekFrom::Start(offset as u64))?;

        Ok(SessionStore {
            path,
            inner: Mutex::new(Inner {
                file,
                sessions,
                recovered_records,
                truncated_bytes,
            }),
        })
    }

    /// The path of the backing log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records of the existing log that [`open`](Self::open) recovered.
    pub fn recovered_records(&self) -> u64 {
        self.inner.lock().recovered_records
    }

    /// Bytes of torn tail that [`open`](Self::open) truncated away.
    pub fn truncated_bytes(&self) -> u64 {
        self.inner.lock().truncated_bytes
    }

    /// Records the admission of `session` with its definition and
    /// runtime config. Must precede every commit of the session.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::DuplicateSession`] if the id was ever
    /// opened in this store (ids are not reused), or an append error.
    pub fn record_opened(
        &self,
        session: SessionId,
        def: &Session,
        config: RuntimeConfig,
    ) -> Result<(), StoreError> {
        self.record(LogRecord::Opened {
            session,
            def: def.clone(),
            config,
        })
    }

    /// Appends one epoch commit of `session`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownSession`] before
    /// [`record_opened`](Self::record_opened),
    /// [`StoreError::SessionClosed`] after
    /// [`record_closed`](Self::record_closed), or an append error.
    pub fn record_commit(
        &self,
        session: SessionId,
        commit: &EpochCommit,
    ) -> Result<(), StoreError> {
        self.record(LogRecord::Commit {
            session,
            commit: commit.clone(),
        })
    }

    /// Records the close of `session`; its history stays readable but
    /// accepts no further commits, and it is no longer listed by
    /// [`open_sessions`](Self::open_sessions).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownSession`] if never opened,
    /// [`StoreError::SessionClosed`] if already closed, or an append
    /// error.
    pub fn record_closed(&self, session: SessionId) -> Result<(), StoreError> {
        self.record(LogRecord::Closed { session })
    }

    /// Appends `record` if the index admits it, then folds that same
    /// record into the index, as recovery does, so it is encoded from
    /// and moved into the one copy its caller made.
    fn record(&self, record: LogRecord) -> Result<(), StoreError> {
        let framed = encode(&record)?;
        let session = match &record {
            LogRecord::Opened { session, .. }
            | LogRecord::Commit { session, .. }
            | LogRecord::Closed { session } => *session,
        };
        let mut inner = self.inner.lock();
        match (&record, inner.sessions.get(&session)) {
            (LogRecord::Opened { .. }, Some(_)) => {
                return Err(StoreError::DuplicateSession(session))
            }
            (LogRecord::Opened { .. }, None) => {}
            (_, None) => return Err(StoreError::UnknownSession(session)),
            (_, Some(history)) if history.closed => return Err(StoreError::SessionClosed(session)),
            (_, Some(_)) => {}
        }
        append(&mut inner.file, &framed)?;
        apply_record(&mut inner.sessions, record);
        Ok(())
    }

    /// Every session opened and not yet closed, ascending — the set a
    /// restarted service re-adopts.
    pub fn open_sessions(&self) -> Vec<SessionId> {
        self.inner
            .lock()
            .sessions
            .iter()
            .filter(|(_, h)| !h.closed)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Returns whether `session` was ever opened in this store.
    pub fn contains(&self, session: SessionId) -> bool {
        self.inner.lock().sessions.contains_key(&session)
    }

    /// The highest session id ever opened in this store, closed ones
    /// included — what a recovering service must allocate past, since
    /// ids are never reused.
    pub fn max_session_id(&self) -> Option<SessionId> {
        self.inner.lock().sessions.keys().next_back().copied()
    }

    /// Number of commits recorded for `session`, or `None` if unknown.
    pub fn commit_count(&self, session: SessionId) -> Option<usize> {
        self.inner
            .lock()
            .sessions
            .get(&session)
            .map(|h| h.commits.len())
    }

    /// The plan revision of `session`'s latest commit (0 before any
    /// commit), or `None` if unknown.
    pub fn latest_revision(&self, session: SessionId) -> Option<u64> {
        self.inner
            .lock()
            .sessions
            .get(&session)
            .map(|h| h.commits.last().map(|c| c.revision).unwrap_or(0))
    }

    /// The latest commit of `session` whose plan revision is at most
    /// `revision`, or `None` if the session is unknown or had not
    /// reached any revision `<= revision` yet.
    pub fn snapshot(&self, session: SessionId, revision: u64) -> Option<EpochCommit> {
        let inner = self.inner.lock();
        let history = inner.sessions.get(&session)?;
        history
            .commits
            .iter()
            .rev()
            .find(|c| c.revision <= revision)
            .cloned()
    }

    /// The full persisted history of `session`, ready to
    /// [`replay`](RestoredSession::replay) into a live runtime.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownSession`] if never opened.
    pub fn restore(&self, session: SessionId) -> Result<RestoredSession, StoreError> {
        self.restore_at(session, u64::MAX)
    }

    /// Like [`restore`](Self::restore), but truncated to the commits
    /// whose plan revision is at most `revision` — the state the
    /// session had at that revision.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownSession`] if never opened.
    pub fn restore_at(
        &self,
        session: SessionId,
        revision: u64,
    ) -> Result<RestoredSession, StoreError> {
        let inner = self.inner.lock();
        let history = inner
            .sessions
            .get(&session)
            .ok_or(StoreError::UnknownSession(session))?;
        Ok(RestoredSession {
            session,
            def: history.def.clone(),
            config: history.config,
            commits: history
                .commits
                .iter()
                .filter(|c| c.revision <= revision)
                .cloned()
                .collect(),
        })
    }
}

/// One record as it goes to the log: its JSON, framed. Callers encode
/// before taking the store lock, so sessions committing in parallel do
/// not queue behind each other's encoding.
fn encode(record: &LogRecord) -> Result<Vec<u8>, StoreError> {
    Ok(frame(serde_json::to_string(record)?.as_bytes()))
}

/// Appends one framed record to the log. The index is only updated by
/// callers *after* this succeeds, so a failed append leaves index and log
/// agreeing.
///
/// The write reaches the operating system, not the disk: nothing calls
/// `sync_data`, so a returned commit survives a crash of this process but
/// not a power loss or a kernel crash.
fn append(file: &mut File, record: &[u8]) -> Result<(), StoreError> {
    file.write_all(record)?;
    Ok(())
}

/// Folds one record into the index: each appended record as it is
/// written, and each recovered one as the index is rebuilt. The log is
/// written through an API that enforces open-before-commit, so records
/// violating it cannot occur in a log this store wrote; recovery skips
/// them rather than guessing.
fn apply_record(sessions: &mut BTreeMap<SessionId, History>, record: LogRecord) {
    match record {
        LogRecord::Opened {
            session,
            def,
            config,
        } => {
            sessions.entry(session).or_insert(History {
                def,
                config,
                commits: Vec::new(),
                closed: false,
            });
        }
        LogRecord::Commit { session, commit } => {
            if let Some(history) = sessions.get_mut(&session) {
                if !history.closed {
                    history.commits.push(commit);
                }
            }
        }
        LogRecord::Closed { session } => {
            if let Some(history) = sessions.get_mut(&session) {
                history.closed = true;
            }
        }
    }
}

/// One session's persisted history, pulled out of a [`SessionStore`] for
/// recovery.
#[derive(Debug, Clone)]
pub struct RestoredSession {
    session: SessionId,
    def: Session,
    config: RuntimeConfig,
    commits: Vec<EpochCommit>,
}

impl RestoredSession {
    /// The session's id (also its delta scope when replayed).
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The session definition as admitted.
    pub fn definition(&self) -> &Session {
        &self.def
    }

    /// The runtime config as admitted.
    pub fn config(&self) -> RuntimeConfig {
        self.config
    }

    /// The persisted commits, oldest first.
    pub fn commits(&self) -> &[EpochCommit] {
        &self.commits
    }

    /// The plan revision of the last persisted commit (0 if none).
    pub fn revision(&self) -> u64 {
        self.commits.last().map(|c| c.revision).unwrap_or(0)
    }

    /// Rebuilds a live runtime by replaying the persisted event history
    /// through a fresh runtime scoped to the session's id. Epoch
    /// reconciliation is deterministic, so the rebuilt plan is
    /// bit-identical to the one an uninterrupted runtime would hold;
    /// the persisted demand/granted/ladder state of every commit is
    /// cross-checked against the replay as it goes.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Replay`] if the definition no longer
    /// admits a universe or any replayed epoch diverges from its
    /// persisted commit.
    pub fn replay(&self) -> Result<SessionRuntime, StoreError> {
        let mut runtime = self.fresh_runtime()?;
        self.replay_into(&mut runtime)?;
        Ok(runtime)
    }

    /// A fresh epoch-zero runtime for this session (scoped to its id),
    /// ready for [`replay_into`](Self::replay_into) — split out so a
    /// recovering service can attach telemetry before driving history.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Replay`] if the definition no longer
    /// admits a universe or the runtime cannot be assembled.
    pub fn fresh_runtime(&self) -> Result<SessionRuntime, StoreError> {
        let universe = subscription_universe(&self.def).map_err(|e| StoreError::Replay {
            session: self.session,
            detail: format!("definition admits no universe: {e}"),
        })?;
        Ok(SessionRuntime::new(universe, self.def.clone(), self.config)
            .map_err(|e| StoreError::Replay {
                session: self.session,
                detail: format!("runtime assembly failed: {e}"),
            })?
            .with_scope(self.session))
    }

    /// Replays the persisted commits into `runtime` (assumed fresh at
    /// epoch 0), cross-checking every replayed epoch against its
    /// persisted commit — events in, demand/granted/ladder/revision
    /// out.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Replay`] on the first epoch whose replayed
    /// state differs from what was recorded at write time.
    pub fn replay_into(&self, runtime: &mut SessionRuntime) -> Result<(), StoreError> {
        for commit in &self.commits {
            let outcome = runtime.apply_epoch(&commit.events);
            if outcome.commit != *commit {
                return Err(StoreError::Replay {
                    session: self.session,
                    detail: format!(
                        "epoch {} replayed to revision {} but revision {} was persisted, \
                         or its demand/granted/ladder state diverged",
                        commit.epoch, outcome.commit.revision, commit.revision
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teeve_geometry::{FieldOfView, Vec3};
    use teeve_runtime::RuntimeEvent;
    use teeve_types::{CostMatrix, CostMs, Degree, DisplayId, SiteId};

    /// A log written once by the codec that predates the streaming one,
    /// and kept as bytes: every later codec must open it and write it
    /// back identically.
    const GOLDEN_LOG: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/golden.log");

    /// The history the golden log holds: one `Opened`, four commits whose
    /// events cover every `RuntimeEvent` kind (floats such as a unit view
    /// direction and `1e7 / 3` need shortest round-trip formatting), and
    /// one `Closed`. Returns the runtime driven through it and the
    /// records in log order.
    fn golden_history() -> (SessionId, SessionRuntime, Vec<LogRecord>) {
        let def = Session::builder(CostMatrix::from_fn(4, |i, j| {
            CostMs::new(4 + ((i + j) % 3) as u32)
        }))
        .cameras_per_site(6)
        .displays_per_site(2)
        .symmetric_capacity(Degree::new(12))
        .build();
        let config = RuntimeConfig::default();
        let id = SessionId::new(3);
        let universe = subscription_universe(&def).expect("universe");
        let mut runtime = SessionRuntime::new(universe, def.clone(), config)
            .expect("runtime")
            .with_scope(id);
        let display = |site: u32, index: u32| DisplayId::new(SiteId::new(site), index);
        let epochs = [
            vec![
                RuntimeEvent::Viewpoint {
                    display: display(0, 0),
                    target: SiteId::new(1),
                },
                RuntimeEvent::Viewpoint {
                    display: display(1, 0),
                    target: SiteId::new(2),
                },
                RuntimeEvent::FovChange {
                    display: display(2, 1),
                    fov: FieldOfView::looking_at(Vec3::new(0.3, -0.2, 2.5), Vec3::ZERO, 72.5),
                },
            ],
            vec![
                RuntimeEvent::BandwidthSample {
                    site: SiteId::new(0),
                    bits_per_sec: 1e7 / 3.0,
                },
                RuntimeEvent::FovClear {
                    display: display(1, 0),
                },
            ],
            vec![RuntimeEvent::SiteLeave {
                site: SiteId::new(3),
            }],
            vec![
                RuntimeEvent::SiteJoin {
                    site: SiteId::new(3),
                },
                RuntimeEvent::Viewpoint {
                    display: display(3, 0),
                    target: SiteId::new(0),
                },
            ],
        ];
        let mut records = vec![LogRecord::Opened {
            session: id,
            def,
            config,
        }];
        for events in &epochs {
            let commit = runtime.apply_epoch(events).commit;
            records.push(LogRecord::Commit {
                session: id,
                commit,
            });
        }
        records.push(LogRecord::Closed { session: id });
        (id, runtime, records)
    }

    #[test]
    fn golden_log_opens_replays_and_reencodes_byte_for_byte() {
        let (id, runtime, records) = golden_history();
        let golden = std::fs::read(GOLDEN_LOG).expect("read golden log");

        let mut offset = 0;
        for record in &records {
            let (payload, next) = scan_record(&golden, offset).expect("a whole record");
            let text = std::str::from_utf8(payload).expect("utf-8 payload");
            let decoded: LogRecord = serde_json::from_str(text).expect("decode");
            assert_eq!(serde_json::to_string(&decoded).expect("encode"), text);
            assert_eq!(encode(record).expect("encode"), &golden[offset..next]);
            offset = next;
        }
        assert_eq!(offset, golden.len(), "no record beyond the history");

        // `open` may truncate a torn tail, so it reads a copy.
        let path =
            std::env::temp_dir().join(format!("teeve-store-golden-{}.log", std::process::id()));
        std::fs::write(&path, &golden).expect("copy golden log");
        let store = SessionStore::open(&path).expect("open");
        assert_eq!(store.recovered_records(), records.len() as u64);
        assert_eq!(store.truncated_bytes(), 0);
        assert!(store.open_sessions().is_empty(), "the session was closed");
        let restored = store.restore(id).expect("restore");
        assert_eq!(restored.commits().len(), records.len() - 2);
        let replayed = restored.replay().expect("replay cross-check");
        assert_eq!(replayed.plan(), runtime.plan());
        std::fs::remove_file(&path).ok();
    }

    /// A log framed by an older writer — whose runtime config still
    /// carried `bandwidth_alpha`, `default_score` and
    /// `degrade_dont_reject`, and whose ladder levels carried `utility` —
    /// opens whole and replays through the restore cross-check: retired
    /// fields are ignored, not rejected as a torn tail.
    #[test]
    fn logs_carrying_retired_fields_open_and_replay() {
        let def = Session::builder(CostMatrix::from_fn(4, |i, j| {
            CostMs::new(4 + ((i + j) % 3) as u32)
        }))
        .cameras_per_site(6)
        .displays_per_site(2)
        .symmetric_capacity(Degree::new(12))
        .build();
        let config = RuntimeConfig::default();
        let id = SessionId::new(5);
        let universe = subscription_universe(&def).expect("universe");
        let mut runtime = SessionRuntime::new(universe, def.clone(), config)
            .expect("runtime")
            .with_scope(id);
        let mut records = vec![LogRecord::Opened {
            session: id,
            def,
            config,
        }];
        let epochs = [
            vec![RuntimeEvent::Viewpoint {
                display: DisplayId::new(SiteId::new(0), 0),
                target: SiteId::new(2),
            }],
            vec![RuntimeEvent::BandwidthSample {
                site: SiteId::new(0),
                bits_per_sec: 6_000_000.0,
            }],
        ];
        for events in &epochs {
            let commit = runtime.apply_epoch(events).commit;
            records.push(LogRecord::Commit {
                session: id,
                commit,
            });
        }

        let mut log = Vec::new();
        for record in &records {
            let legacy = serde_json::to_string(record)
                .expect("encode")
                .replace(
                    "\"correlation_aware\":false",
                    "\"correlation_aware\":false,\"bandwidth_alpha\":0.3,\
                     \"default_score\":0.5,\"degrade_dont_reject\":true",
                )
                .replace("{\"bitrate_bps\":", "{\"utility\":0.7,\"bitrate_bps\":");
            log.extend_from_slice(&frame(legacy.as_bytes()));
        }
        let text = String::from_utf8_lossy(&log);
        assert_eq!(text.matches("\"degrade_dont_reject\"").count(), 1);
        assert_eq!(text.matches("\"utility\"").count(), 3 * epochs.len());

        let path = std::env::temp_dir().join(format!(
            "teeve-store-legacy-fields-{}.log",
            std::process::id()
        ));
        std::fs::write(&path, &log).expect("write legacy log");
        let store = SessionStore::open(&path).expect("open");
        assert_eq!(store.recovered_records(), records.len() as u64);
        assert_eq!(store.truncated_bytes(), 0);
        let restored = store.restore(id).expect("restore");
        assert_eq!(restored.config(), config);
        let replayed = restored.replay().expect("replay cross-check");
        assert_eq!(replayed.plan(), runtime.plan());
        std::fs::remove_file(&path).ok();
    }
}
