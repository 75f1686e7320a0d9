//! Synthetic 3D capture: a deterministic, procedural stand-in for a real
//! 3D camera: no camera hardware, same code paths.
//!
//! Each [`SyntheticCapture`] renders the same scene every 3DTI paper
//! photograph shows: a person in front of an open background, seen from a
//! configurable azimuth. The person is modelled as a torso ellipse plus a
//! head circle in image space, swaying horizontally over time so frames
//! differ and motion-dependent code paths (compression deltas, adaptation)
//! are exercised. Rendering is a pure function of `(parameters, azimuth,
//! seq)` — no RNG state — so captures are reproducible across platforms
//! and threads.

use crate::frame::{RawFrame, Rgb, DEPTH_FAR_MM};

/// Deterministic integer hash used for per-pixel noise (a 64-bit mix in
/// the SplitMix64 family). Pure and seedable, unlike an RNG stream.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Noise in `0..amplitude` for pixel `(x, y)` of frame `seq` under `seed`.
fn pixel_noise(seed: u64, x: u32, y: u32, seq: u64, amplitude: u32) -> u32 {
    if amplitude == 0 {
        return 0;
    }
    let h = mix(seed ^ (u64::from(x) << 40) ^ (u64::from(y) << 20) ^ seq);
    (h % u64::from(amplitude)) as u32
}

/// A deterministic synthetic 3D camera.
///
/// # Examples
///
/// ```
/// use teeve_media::SyntheticCapture;
///
/// let cam = SyntheticCapture::new(64, 48, 7);
/// let frame = cam.capture(0.0, 0);
/// // A person fills a believable fraction of the view.
/// assert!(frame.occupancy() > 0.05 && frame.occupancy() < 0.6);
/// // Identical inputs give identical frames.
/// assert_eq!(frame, cam.capture(0.0, 0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticCapture {
    width: u32,
    height: u32,
    seed: u64,
    /// Distance from camera to the subject's torso centre, millimetres.
    subject_depth_mm: u16,
    /// Depth noise amplitude, millimetres (sensor jitter).
    depth_noise_mm: u32,
    /// Torso color (clothing).
    torso_color: Rgb,
    /// Head color (skin tone).
    head_color: Rgb,
}

impl SyntheticCapture {
    /// Creates a capture source with the given frame dimensions and seed.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32, seed: u64) -> Self {
        assert!(width > 0 && height > 0, "frame dimensions must be nonzero");
        SyntheticCapture {
            width,
            height,
            seed,
            subject_depth_mm: 2_000,
            depth_noise_mm: 12,
            torso_color: Rgb::new(40, 70, 160),
            head_color: Rgb::new(224, 172, 105),
        }
    }

    /// Sets the subject distance in millimetres.
    ///
    /// # Panics
    ///
    /// Panics if `depth_mm` is zero or `DEPTH_FAR_MM`.
    pub fn with_subject_depth(mut self, depth_mm: u16) -> Self {
        assert!(
            depth_mm > 0 && depth_mm < DEPTH_FAR_MM,
            "subject depth must be a real sensor reading"
        );
        self.subject_depth_mm = depth_mm;
        self
    }

    /// Sets the depth sensor noise amplitude in millimetres.
    pub fn with_depth_noise(mut self, noise_mm: u32) -> Self {
        self.depth_noise_mm = noise_mm;
        self
    }

    /// Returns the frame width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Returns the frame height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Renders frame `seq` as seen from `azimuth_rad` (0 = frontal view,
    /// ±π/2 = profile). The torso narrows towards profile views, exactly
    /// the effect that makes side cameras contribute less to a frontal
    /// field of view.
    pub fn capture(&self, azimuth_rad: f64, seq: u64) -> RawFrame {
        let w = f64::from(self.width);
        let h = f64::from(self.height);

        // Sway: the subject shifts horizontally over time.
        let sway = (seq as f64 * 0.35).sin() * 0.08;
        let cx = w * (0.5 + sway);

        // Torso: ellipse centred below the middle; its half-width narrows
        // with the view angle (frontal silhouette is widest).
        let frontal = azimuth_rad.cos().abs();
        let torso_rx = w * (0.10 + 0.12 * frontal);
        let torso_ry = h * 0.28;
        let torso_cy = h * 0.62;

        // Head: circle above the torso.
        let head_r = h * 0.10;
        let head_cy = torso_cy - torso_ry - head_r * 0.6;

        RawFrame::from_fn(self.width, self.height, |x, y| {
            let fx = f64::from(x) + 0.5;
            let fy = f64::from(y) + 0.5;

            let in_torso = {
                let dx = (fx - cx) / torso_rx;
                let dy = (fy - torso_cy) / torso_ry;
                dx * dx + dy * dy <= 1.0
            };
            let in_head = {
                let dx = fx - cx;
                let dy = fy - head_cy;
                dx * dx + dy * dy <= head_r * head_r
            };

            if in_head || in_torso {
                // Surface depth bulges towards the silhouette centre and
                // carries sensor noise.
                let bulge = ((fx - cx).abs() / torso_rx.max(1.0) * 60.0) as u16;
                let noise = pixel_noise(self.seed, x, y, seq, self.depth_noise_mm) as u16;
                let depth = self
                    .subject_depth_mm
                    .saturating_add(bulge)
                    .saturating_add(noise);
                let base = if in_head {
                    self.head_color
                } else {
                    self.torso_color
                };
                // Slight per-pixel shading so color RLE runs are realistic
                // but not degenerate.
                let shade = pixel_noise(self.seed ^ 0xC0FFEE, x, y / 4, seq, 8) as u8;
                (
                    Rgb::new(
                        base.r.saturating_add(shade),
                        base.g.saturating_add(shade),
                        base.b.saturating_add(shade),
                    ),
                    depth,
                )
            } else {
                // Open background: no depth return. Color is irrelevant to
                // the pipeline (background subtraction removes it) but
                // kept plausible.
                (Rgb::new(24, 24, 28), DEPTH_FAR_MM)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_is_deterministic() {
        let cam = SyntheticCapture::new(80, 60, 42);
        assert_eq!(cam.capture(0.3, 5), cam.capture(0.3, 5));
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticCapture::new(80, 60, 1).capture(0.0, 0);
        let b = SyntheticCapture::new(80, 60, 2).capture(0.0, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn consecutive_frames_differ_by_motion() {
        let cam = SyntheticCapture::new(80, 60, 3);
        assert_ne!(cam.capture(0.0, 0), cam.capture(0.0, 1));
    }

    #[test]
    fn frontal_view_is_wider_than_profile() {
        let cam = SyntheticCapture::new(160, 120, 9).with_depth_noise(0);
        let frontal = cam.capture(0.0, 0).occupancy();
        let profile = cam.capture(std::f64::consts::FRAC_PI_2, 0).occupancy();
        assert!(
            frontal > profile * 1.2,
            "frontal {frontal} should exceed profile {profile}"
        );
    }

    #[test]
    fn subject_occupies_plausible_fraction() {
        let occ = SyntheticCapture::new(640, 480, 11)
            .capture(0.0, 0)
            .occupancy();
        assert!((0.1..0.45).contains(&occ), "occupancy {occ}");
    }

    #[test]
    fn subject_depth_is_respected() {
        let cam = SyntheticCapture::new(64, 48, 5)
            .with_subject_depth(1_234)
            .with_depth_noise(0);
        let frame = cam.capture(0.0, 0);
        let min_depth = (0..48)
            .flat_map(|y| (0..64).map(move |x| (x, y)))
            .map(|(x, y)| frame.depth(x, y))
            .min()
            .unwrap();
        // The surface bulge adds a few millimetres even at the silhouette
        // centre; the configured depth is the floor.
        assert!((1_234..1_244).contains(&min_depth), "min depth {min_depth}");
    }

    #[test]
    fn noise_is_bounded() {
        for seq in 0..4 {
            let n = pixel_noise(99, 3, 4, seq, 10);
            assert!(n < 10);
        }
        assert_eq!(pixel_noise(99, 0, 0, 0, 0), 0);
    }
}
