//! Versioned session-state store: what lets a restarted membership
//! service re-adopt live fleets.
//!
//! The paper's membership server is a single point of failure it never
//! hardens: when it dies, every session's subscription state dies with
//! it, even though the RP overlay keeps forwarding frames. This crate is
//! the durable half of closing that gap (`teeve-net`'s
//! coordinator reconnect is the wire half): a [`SessionStore`] persists,
//! for every hosted session, the admission record (definition + runtime
//! config) and then **every epoch commit** — the events driven plus the
//! per-site demand, granted qualities, quality ladder, and plan revision
//! they produced (an [`EpochCommit`](teeve_runtime::EpochCommit)).
//!
//! The on-disk form is one append-only log of checksummed JSON records
//! (`[u32 le length][u32 le FNV-1a][payload]`); an in-memory index over
//! the log serves reads. [`SessionStore::open`] rebuilds the index from
//! the log and truncates a crash-torn tail — a record either frames and
//! hashes correctly or everything from it on is discarded, so recovery
//! is unambiguous. An append is written to the operating system but
//! never synced to disk, so a returned commit survives a crash of the
//! process, not a power loss. [`SessionStore::snapshot`] answers "what
//! was this session's state at revision *r*";
//! [`SessionStore::restore`] hands back a [`RestoredSession`] whose
//! [`replay`](RestoredSession::replay) rebuilds a live
//! [`SessionRuntime`](teeve_runtime::SessionRuntime) by re-driving the
//! persisted event history — epoch reconciliation is deterministic, so
//! the rebuilt plan is bit-identical to an uninterrupted run's, and the
//! persisted state of every commit cross-checks the replay as it goes.
//!
//! # Examples
//!
//! ```
//! use teeve_pubsub::Session;
//! use teeve_runtime::{RuntimeConfig, RuntimeEvent, SessionRuntime};
//! use teeve_store::SessionStore;
//! use teeve_types::{CostMatrix, CostMs, Degree, DisplayId, SessionId, SiteId};
//!
//! let path = std::env::temp_dir().join(format!("teeve-store-doc-{}.log", std::process::id()));
//! let _ = std::fs::remove_file(&path);
//!
//! let costs = CostMatrix::from_fn(4, |i, j| CostMs::new(4 + ((i + j) % 3) as u32));
//! let session = Session::builder(costs)
//!     .cameras_per_site(6)
//!     .displays_per_site(2)
//!     .symmetric_capacity(Degree::new(12))
//!     .build();
//! let id = SessionId::new(0);
//! let config = RuntimeConfig::default();
//!
//! // A service admits the session and drives epochs, committing each.
//! let store = SessionStore::open(&path)?;
//! store.record_opened(id, &session, config)?;
//! let universe = teeve_runtime::subscription_universe(&session)?;
//! let mut runtime = SessionRuntime::new(universe, session, config)?.with_scope(id);
//! for epoch in 0u32..3 {
//!     let events = [RuntimeEvent::Viewpoint {
//!         display: DisplayId::new(SiteId::new(0), 0),
//!         target: SiteId::new(1 + epoch % 3),
//!     }];
//!     let outcome = runtime.apply_epoch(&events);
//!     store.record_commit(id, &outcome.commit)?;
//! }
//! drop(store); // the service dies
//!
//! // A restarted service re-adopts the session from the log alone.
//! let recovered = SessionStore::open(&path)?;
//! assert_eq!(recovered.open_sessions(), vec![id]);
//! let replayed = recovered.restore(id)?.replay()?;
//! assert_eq!(replayed.plan(), runtime.plan(), "bit-identical plans");
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod log;
mod store;

pub use error::StoreError;
pub use store::{RestoredSession, SessionStore};
