//! Errors of the multi-session membership service.

use std::fmt;

use teeve_overlay::{InvariantViolation, ProblemError};
use teeve_runtime::{RuntimeError, RuntimeEvent};
use teeve_store::StoreError;
use teeve_types::SessionId;

/// Error produced by the [`MembershipService`](crate::MembershipService).
#[derive(Debug)]
pub enum ServiceError {
    /// The session is not (or no longer) hosted by this service.
    UnknownSession(SessionId),
    /// The spec's session cannot form a subscription universe (e.g. fewer
    /// than three sites).
    InvalidUniverse(ProblemError),
    /// The session runtime could not be assembled.
    Runtime(RuntimeError),
    /// A submitted event references a site or display outside its
    /// session. Rejected at submission so one tenant's malformed event
    /// can never take down a bulk drive over every hosted session.
    EventOutOfRange {
        /// The session the event was submitted to.
        session: SessionId,
        /// The offending event.
        event: RuntimeEvent,
    },
    /// A hosted session's live forest violates a static invariant.
    Invariant(InvariantViolation),
    /// The attached session store failed: an append did not land (the
    /// epoch still drove, but its commit is not durable) or a recovery
    /// replay diverged from the persisted state.
    Store(StoreError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownSession(id) => write!(f, "{id} is not hosted by this service"),
            ServiceError::InvalidUniverse(e) => write!(f, "spec admits no universe: {e}"),
            ServiceError::Runtime(e) => write!(f, "runtime assembly failed: {e}"),
            ServiceError::EventOutOfRange { session, event } => {
                write!(f, "event {event:?} is outside {session}'s sites")
            }
            ServiceError::Invariant(v) => write!(f, "session invariant violated: {v}"),
            ServiceError::Store(e) => write!(f, "session store failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::UnknownSession(_) | ServiceError::EventOutOfRange { .. } => None,
            ServiceError::InvalidUniverse(e) => Some(e),
            ServiceError::Runtime(e) => Some(e),
            ServiceError::Invariant(v) => Some(v),
            ServiceError::Store(e) => Some(e),
        }
    }
}

impl From<ProblemError> for ServiceError {
    fn from(e: ProblemError) -> Self {
        ServiceError::InvalidUniverse(e)
    }
}

impl From<RuntimeError> for ServiceError {
    fn from(e: RuntimeError) -> Self {
        ServiceError::Runtime(e)
    }
}

impl From<InvariantViolation> for ServiceError {
    fn from(v: InvariantViolation) -> Self {
        ServiceError::Invariant(v)
    }
}

impl From<StoreError> for ServiceError {
    fn from(e: StoreError) -> Self {
        ServiceError::Store(e)
    }
}
