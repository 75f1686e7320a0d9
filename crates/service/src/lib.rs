//! The multi-session membership service: many concurrent 3DTI sessions
//! behind one registry.
//!
//! The paper justifies a *centralized* membership server by 3DTI sessions
//! being small to medium sized — one server, one session. A production
//! deployment hosts many such sessions at once, and that is this crate:
//! a [`MembershipService`] owns a registry of running
//! [`SessionRuntime`](teeve_runtime::SessionRuntime)s — each one *is* its
//! session's membership server — in a single map behind one
//! `parking_lot::RwLock`. The lock is held only to look a session up,
//! insert it, or remove it; every epoch runs under that session's own
//! mutex, so sessions never wait on each other's overlay repair. One
//! lock is a measured choice, not a default: see PAPER.md, "From one
//! membership server to a multi-session service".
//!
//! The lifecycle API:
//!
//! * [`MembershipService::create_session`] admits a [`SessionSpec`] and
//!   returns a [`SessionHandle`];
//! * [`SessionHandle::submit_requests`] queues runtime events (FOV
//!   swings, membership churn, bandwidth samples) for the session's next
//!   epoch;
//! * [`SessionHandle::drive_epoch`] reconciles one epoch immediately and
//!   returns its [`EpochOutcome`](teeve_runtime::EpochOutcome) — the
//!   session-scoped plan delta, metrics, and durable commit;
//! * [`MembershipService::drive_all`] advances *every* hosted session one
//!   epoch, consuming queued events, with worker threads stealing one
//!   session at a time, and folds the results into a [`ServiceReport`]
//!   ([`drive_all_with`](MembershipService::drive_all_with) additionally
//!   pushes each session's delta into a
//!   [`DeltaSink`](teeve_pubsub::DeltaSink), typically a `DeltaRouter`
//!   over per-session executors);
//! * [`SessionHandle::close`] (or
//!   [`MembershipService::close_session`]) removes the session and
//!   returns its final aggregate report.
//!
//! Every plan and delta a hosted session produces is stamped with its
//! `SessionId`, so one executor process — a
//! [`DeltaRouter`](teeve_pubsub::DeltaRouter) over live TCP clusters, or
//! the simulator — can serve all sessions concurrently without state
//! bleed.
//!
//! # Examples
//!
//! ```
//! use teeve_pubsub::Session;
//! use teeve_runtime::RuntimeEvent;
//! use teeve_service::{MembershipService, SessionSpec};
//! use teeve_types::{CostMatrix, CostMs, Degree, DisplayId, SiteId};
//!
//! let service = MembershipService::new();
//! let costs = CostMatrix::from_fn(4, |_, _| CostMs::new(6));
//! let session = Session::builder(costs)
//!     .cameras_per_site(6)
//!     .displays_per_site(1)
//!     .symmetric_capacity(Degree::new(12))
//!     .build();
//! let handle = service.create_session(SessionSpec::new(session))?;
//!
//! handle.submit_requests(vec![RuntimeEvent::Viewpoint {
//!     display: DisplayId::new(SiteId::new(0), 0),
//!     target: SiteId::new(2),
//! }])?;
//! let report = service.drive_all();
//! assert_eq!(report.sessions, 1);
//! assert!(report.accepted > 0);
//!
//! let outcome = handle.drive_epoch(&[])?;
//! assert_eq!(outcome.delta.scope(), Some(handle.id()));
//! handle.close()?;
//! assert_eq!(service.session_count(), 0);
//! # Ok::<(), teeve_service::ServiceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod report;
mod service;
mod spec;

pub use error::ServiceError;
pub use report::ServiceReport;
pub use service::{MembershipService, SessionHandle};
pub use spec::SessionSpec;
