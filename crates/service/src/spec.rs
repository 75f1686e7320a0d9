//! What a caller hands the service to host a new session.

use teeve_pubsub::Session;
use teeve_runtime::RuntimeConfig;

/// Everything needed to admit one session into a
/// [`MembershipService`](crate::MembershipService): the session itself
/// (sites, cameras, displays, capacities, latency bound, current
/// subscriptions) and the runtime policy to drive it with.
///
/// The service derives the subscription universe itself, so a spec is a
/// plain value with no lifetime ties.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    session: Session,
    config: RuntimeConfig,
}

impl SessionSpec {
    /// A spec hosting `session` under the default
    /// [`RuntimeConfig`].
    pub fn new(session: Session) -> Self {
        SessionSpec {
            session,
            config: RuntimeConfig::default(),
        }
    }

    /// Returns the session to host.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Returns the runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Splits the spec into its parts.
    pub(crate) fn into_parts(self) -> (Session, RuntimeConfig) {
        (self.session, self.config)
    }
}
