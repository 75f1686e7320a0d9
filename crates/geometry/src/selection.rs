//! Contribution scoring and stream selection: the machine-facing half of
//! the subscription framework.

use serde::{Deserialize, Serialize};
use teeve_types::StreamId;

use crate::{Camera, CyberSpace, FieldOfView};

/// A stream together with its contribution score for some field of view.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScoredStream {
    /// The contributing stream.
    pub stream: StreamId,
    /// Contribution score in `[0, 1]`; higher contributes more to the FOV.
    pub score: f64,
}

/// Selects the subset of streams contributing to a field of view.
///
/// This is the second key functionality the paper requires of the
/// subscription framework (Section 3.2): "convert the specified FOV to a
/// concrete subset of streams that are contributing to the FOV". The
/// resulting stream set constitutes the display's subscription requests.
///
/// The contribution score of a camera to a FOV combines:
///
/// 1. **Visibility** — if the camera's subject (the participant it captures)
///    is outside the viewing cone, the stream contributes nothing;
/// 2. **Angular alignment** — a viewer looking at a participant from
///    direction `d` is best served by cameras positioned on the `d` side of
///    that participant (the paper's Figure 4: the ring cameras facing the
///    FOV are the top contributors); scored as `(1 + cos θ) / 2`;
/// 3. **Proximity** — closer participants fill more of the view, so their
///    streams matter more: scored as `1 / (1 + distance / 10 m)`.
///
/// # Examples
///
/// ```
/// use teeve_geometry::{CyberSpace, FieldOfView, Vec3, ViewSelector};
///
/// let space = CyberSpace::meeting_circle(2, 8);
/// let target = space.participant_position(teeve_types::SiteId::new(1));
/// let fov = FieldOfView::looking_at(target + Vec3::new(6.0, 0.0, 1.0), target, 70.0);
/// let top = ViewSelector::top_k(4).select(&space, &fov);
/// assert_eq!(top.len(), 4);
/// assert!(top.windows(2).all(|w| w[0].score >= w[1].score));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ViewSelector {
    /// Keep at most this many streams (`None` = unlimited).
    max_streams: Option<usize>,
    /// Drop streams scoring below this threshold.
    min_score: f64,
}

impl ViewSelector {
    /// Distance (meters) at which proximity attenuates to one half.
    const PROXIMITY_SCALE_M: f64 = 10.0;

    /// Selects the `k` most contributing streams.
    pub fn top_k(k: usize) -> Self {
        ViewSelector {
            max_streams: Some(k),
            min_score: 0.0,
        }
    }

    /// Selects every stream scoring at least `min_score`.
    ///
    /// # Panics
    ///
    /// Panics if `min_score` is not within `[0, 1]`.
    pub fn threshold(min_score: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&min_score),
            "min_score must be in [0, 1]"
        );
        ViewSelector {
            max_streams: None,
            min_score,
        }
    }

    /// Computes the contribution score of one camera to `fov`.
    ///
    /// Returns a value in `[0, 1]`; zero when the camera's subject is
    /// outside the viewing cone.
    pub fn contribution(camera: &Camera, fov: &FieldOfView) -> f64 {
        let subject = camera.subject();
        if !fov.contains(subject) {
            return 0.0;
        }
        let to_eye = fov.eye() - subject;
        let to_camera = camera.position() - subject;
        let alignment = (1.0 + to_camera.angle_to(to_eye).cos()) / 2.0;
        let proximity = 1.0 / (1.0 + subject.distance_to(fov.eye()) / Self::PROXIMITY_SCALE_M);
        alignment * proximity
    }

    /// Scores every stream in `space` against `fov` and returns the selected
    /// streams in descending score order (ties broken by stream id so the
    /// result is deterministic).
    ///
    /// Streams scoring exactly zero are never selected, even under
    /// [`ViewSelector::top_k`]: a stream whose subject is invisible cannot
    /// contribute to the view.
    pub fn select(&self, space: &CyberSpace, fov: &FieldOfView) -> Vec<ScoredStream> {
        let mut scored: Vec<ScoredStream> = space
            .cameras()
            .map(|cam| ScoredStream {
                stream: cam.stream(),
                score: Self::contribution(cam, fov),
            })
            .filter(|s| s.score > self.min_score.max(f64::MIN_POSITIVE))
            .collect();
        scored.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("scores are finite")
                .then_with(|| a.stream.cmp(&b.stream))
        });
        if let Some(k) = self.max_streams {
            scored.truncate(k);
        }
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vec3;
    use teeve_types::SiteId;

    /// The paper's Figure 4: eight cameras in a ring, a FOV selected from
    /// one side, and "the streams produced from camera 1, 2, 7, 8 are the
    /// four most contributing streams to the selected FOV".
    ///
    /// Our ring indexes cameras 0..8 counterclockwise from the +x axis, so
    /// the four cameras on the +x-facing arc are 0, 1, 6, 7 — the same
    /// arc-of-four as the paper's 1, 2, 8, 7 under 1-based labels.
    #[test]
    fn figure4_facing_arc_contributes_most() {
        let space = CyberSpace::meeting_circle(1, 8);
        let subject = space.participant_position(SiteId::new(0));
        // Viewer out along +x looking back at the participant.
        let fov = FieldOfView::looking_at(subject + Vec3::new(8.0, 0.0, 1.6), subject, 60.0);
        let top = ViewSelector::top_k(4).select(&space, &fov);
        let indices: std::collections::HashSet<u32> =
            top.iter().map(|s| s.stream.local_index()).collect();
        // Camera 0 faces the viewer dead-on; 1 and 7 flank it. The fourth
        // slot is a symmetric tie between cameras 2 and 6 (both at 90° off
        // axis), so accept either — what matters is that the back arc
        // (cameras 3, 4, 5) never contributes to the top four.
        for must_have in [0, 1, 7] {
            assert!(indices.contains(&must_have), "camera {must_have} missing");
        }
        for back in [3, 4, 5] {
            assert!(!indices.contains(&back), "back camera {back} selected");
        }
    }

    #[test]
    fn invisible_subjects_contribute_zero() {
        let space = CyberSpace::meeting_circle(2, 4);
        let p0 = space.participant_position(SiteId::new(0));
        // Look at participant 0 from a direction perpendicular to the
        // p0-p1 axis, with a narrow aperture that excludes participant 1
        // (looking from directly behind p0 would leave p1 inside the cone —
        // visibility is angular, not occlusion-based).
        let fov = FieldOfView::looking_at(p0 + Vec3::new(0.0, 6.0, 0.0), p0, 30.0);
        for cam in space.rig(SiteId::new(1)).cameras() {
            assert_eq!(ViewSelector::contribution(cam, &fov), 0.0);
        }
        let selected = ViewSelector::threshold(0.0).select(&space, &fov);
        assert!(
            selected.iter().all(|s| s.stream.origin() == SiteId::new(0)),
            "only the visible participant's streams are selected"
        );
    }

    #[test]
    fn closer_participants_score_higher() {
        // Two participants directly ahead, one near and one far.
        let space = CyberSpace::from_positions(
            vec![Vec3::new(10.0, 0.0, 0.0), Vec3::new(40.0, 0.0, 0.0)],
            4,
        );
        let fov = FieldOfView::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), 40.0);
        let best_near = space
            .rig(SiteId::new(0))
            .cameras()
            .iter()
            .map(|c| ViewSelector::contribution(c, &fov))
            .fold(0.0, f64::max);
        let best_far = space
            .rig(SiteId::new(1))
            .cameras()
            .iter()
            .map(|c| ViewSelector::contribution(c, &fov))
            .fold(0.0, f64::max);
        assert!(
            best_near > best_far,
            "near {best_near} should beat far {best_far}"
        );
    }

    #[test]
    fn scores_are_in_unit_interval() {
        let space = CyberSpace::meeting_circle(3, 8);
        let fov = FieldOfView::new(Vec3::new(1.0, 2.0, 1.0), Vec3::new(-1.0, -0.5, 0.0), 120.0);
        for cam in space.cameras() {
            let s = ViewSelector::contribution(cam, &fov);
            assert!((0.0..=1.0).contains(&s), "score {s} out of range");
        }
    }

    #[test]
    fn top_k_returns_descending_scores() {
        let space = CyberSpace::meeting_circle(2, 8);
        let target = space.participant_position(SiteId::new(0));
        let fov = FieldOfView::looking_at(target + Vec3::new(5.0, 5.0, 1.0), target, 90.0);
        let top = ViewSelector::top_k(6).select(&space, &fov);
        assert!(top.len() <= 6);
        assert!(top.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn threshold_filters_low_scores() {
        let space = CyberSpace::meeting_circle(1, 8);
        let subject = space.participant_position(SiteId::new(0));
        let fov = FieldOfView::looking_at(subject + Vec3::new(8.0, 0.0, 1.6), subject, 60.0);
        let all = ViewSelector::threshold(0.0).select(&space, &fov);
        let strict = ViewSelector::threshold(0.3).select(&space, &fov);
        assert!(strict.len() < all.len());
        assert!(strict.iter().all(|s| s.score > 0.3));
    }

    #[test]
    fn selection_is_deterministic() {
        let space = CyberSpace::meeting_circle(3, 8);
        let target = space.participant_position(SiteId::new(2));
        let fov = FieldOfView::looking_at(target + Vec3::new(4.0, -3.0, 1.0), target, 80.0);
        let a = ViewSelector::top_k(5).select(&space, &fov);
        let b = ViewSelector::top_k(5).select(&space, &fov);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_score_streams_never_selected_even_with_large_k() {
        let space = CyberSpace::meeting_circle(2, 4);
        let p0 = space.participant_position(SiteId::new(0));
        let fov = FieldOfView::looking_at(p0 + Vec3::new(0.0, 6.0, 0.0), p0, 30.0);
        let selected = ViewSelector::top_k(100).select(&space, &fov);
        assert!(selected.len() <= 4, "only site 0's streams can contribute");
    }

    #[test]
    #[should_panic(expected = "min_score")]
    fn rejects_out_of_range_threshold() {
        let _ = ViewSelector::threshold(1.5);
    }
}
