//! Shared vocabulary types for the TEEVE multi-site 3D tele-immersion
//! reproduction (Wu et al., ICDCS 2008).
//!
//! Every other crate in the workspace speaks in terms of the identifiers and
//! units defined here:
//!
//! * [`SiteId`] — a participating 3DTI site (`H_i` in the paper), which hosts
//!   one rendezvous point (RP), an array of 3D cameras, and an array of 3D
//!   displays. Because the overlay excludes edge hosts, `SiteId` doubles as
//!   the identifier of the site's RP node.
//! * [`StreamId`] — a 3D video stream `s_j^q`: the stream with local index
//!   `q` originating from site `H_j`.
//! * [`CameraId`] / [`DisplayId`] — edge hosts within a site.
//! * [`SessionId`] — one hosted 3DTI session within a multi-session
//!   membership service; session-scoped plans and deltas carry it.
//! * [`CostMs`] — an integer latency cost in milliseconds (edge costs
//!   `c(e) ∈ ℤ⁺` in the paper's problem formulation).
//! * [`Degree`] — a bandwidth limit expressed in *number of streams*
//!   (`I_i, O_i ∈ ℕ`).
//! * [`Quality`] / [`QualityLadder`] — per-subscription quality rungs,
//!   shared by the overlay's degrade-don't-reject admission path and
//!   quality fitting, dissemination plan entries, and the wire protocol.
//! * [`clock`] — the single sanctioned wall-clock module; all absolute
//!   timestamps in the workspace come from [`clock::unix_micros`].
//!
//! # Examples
//!
//! ```
//! use teeve_types::{SiteId, StreamId};
//!
//! let site = SiteId::new(2);
//! let stream = StreamId::new(site, 7);
//! assert_eq!(stream.origin(), site);
//! assert_eq!(stream.local_index(), 7);
//! assert_eq!(stream.to_string(), "s2.7");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
mod id;
mod matrix;
mod quality;
mod units;

pub use id::{CameraId, DisplayId, SessionId, SiteId, StreamId};
pub use matrix::{CostMatrix, CostMatrixError};
pub use quality::{Quality, QualityLadder, QualityLevel};
pub use units::{BitRate, CostMs, Degree};
