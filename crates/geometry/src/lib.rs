//! Cyber-space geometry and FOV-based stream selection for the TEEVE
//! reproduction.
//!
//! The paper's publish-subscribe model assumes a *subscription framework*
//! with two capabilities (Section 3.2): let a participant specify a
//! preferred **field of view (FOV)** in the shared 3D cyber-space, and
//! convert that FOV into the concrete subset of streams that contribute to
//! it (its Figure 4 shows an eight-camera ring where cameras 1, 2, 7, 8
//! contribute most to a FOV). The paper delegates this to ViewCast \[26\];
//! this crate is our ViewCast substitute:
//!
//! * [`Vec3`] — minimal 3D vector math;
//! * [`Camera`] and [`CameraRing`] — 3D camera rigs around a participant;
//! * [`CyberSpace`] — the shared virtual space in which every site's
//!   participant (and camera rig) is placed;
//! * [`FieldOfView`] — a viewpoint subscription (eye, target, aperture);
//! * [`ViewSelector`] — scores every stream's contribution to a FOV and
//!   selects the top-k, yielding the subscription requests fed to the
//!   overlay construction module.
//!
//! # Examples
//!
//! ```
//! use teeve_geometry::{CyberSpace, FieldOfView, Vec3, ViewSelector};
//! use teeve_types::SiteId;
//!
//! // Three sites, eight cameras each, arranged in the default meeting circle.
//! let space = CyberSpace::meeting_circle(3, 8);
//!
//! // A display at site 0 watches the participant from site 1.
//! let fov = FieldOfView::looking_at(
//!     space.participant_position(SiteId::new(1)) + Vec3::new(0.0, 0.0, 2.5),
//!     space.participant_position(SiteId::new(1)),
//!     60.0,
//! );
//! let selector = ViewSelector::top_k(4);
//! let streams = selector.select(&space, &fov);
//! assert_eq!(streams.len(), 4);
//! // All contributing streams come from the observed site.
//! assert!(streams.iter().all(|s| s.stream.origin() == SiteId::new(1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod camera;
mod fov;
mod scene;
mod selection;
mod vec3;

pub use camera::{Camera, CameraRing};
pub use fov::FieldOfView;
pub use scene::CyberSpace;
pub use selection::{ScoredStream, ViewSelector};
pub use vec3::Vec3;
