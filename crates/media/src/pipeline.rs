//! The full reduction chain of the paper's Section 1: background
//! subtraction → resolution reduction → real-time compression, with
//! per-stage byte accounting.
//!
//! [`ReductionPipeline::paper`] is tuned so a raw 640 × 480 × 15 fps
//! stream (≈184 Mbps) lands in the paper's quoted 5–10 Mbps band.

use serde::{Deserialize, Serialize};

use crate::background::BackgroundSubtractor;
use crate::compress::{Codec, CompressedFrame};
use crate::frame::RawFrame;
use crate::resolution::Downsampler;

/// Per-stage byte counts of one processed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageBytes {
    /// Dense input size (5 B/pixel).
    pub raw: u64,
    /// After background subtraction (9 B/sample sparse form).
    pub foreground: u64,
    /// After resolution reduction (same sparse form).
    pub reduced: u64,
    /// Final compressed size.
    pub compressed: u64,
}

/// One frame's pipeline output: the compressed frame plus its accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessedFrame {
    /// The compressed frame, ready for the wire.
    pub compressed: CompressedFrame,
    /// Per-stage byte counts.
    pub bytes: StageBytes,
}

/// The three-stage reduction pipeline.
///
/// # Examples
///
/// ```
/// use teeve_media::{raw_bitrate_bps, ReductionPipeline, SyntheticCapture};
///
/// let cam = SyntheticCapture::new(640, 480, 1);
/// let pipeline = ReductionPipeline::paper();
/// let mut stats = teeve_media::PipelineStats::default();
/// for seq in 0..5 {
///     stats.record(&pipeline.process(&cam.capture(0.0, seq)).bytes);
/// }
/// // The paper's claim: ~184 Mbps raw shrinks to a handful of Mbps.
/// assert_eq!(raw_bitrate_bps(640, 480, 15), 184_320_000);
/// assert!(stats.bitrate_mbps(15) < 12.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReductionPipeline {
    subtractor: BackgroundSubtractor,
    downsampler: Option<Downsampler>,
    codec: Codec,
}

impl ReductionPipeline {
    /// Creates a pipeline from explicit stages (`downsampler = None`
    /// skips resolution reduction).
    pub fn new(
        subtractor: BackgroundSubtractor,
        downsampler: Option<Downsampler>,
        codec: Codec,
    ) -> Self {
        ReductionPipeline {
            subtractor,
            downsampler,
            codec,
        }
    }

    /// The paper's configuration: 4 m range gate, 2× resolution
    /// reduction, 4 mm depth quantization.
    pub fn paper() -> Self {
        ReductionPipeline {
            subtractor: BackgroundSubtractor::default(),
            downsampler: Some(Downsampler::default()),
            codec: Codec::default(),
        }
    }

    /// Returns the background subtraction stage.
    pub fn subtractor(&self) -> BackgroundSubtractor {
        self.subtractor
    }

    /// Returns the resolution reduction stage, if enabled.
    pub fn downsampler(&self) -> Option<Downsampler> {
        self.downsampler
    }

    /// Returns the compression stage.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Runs all stages on one raw frame.
    pub fn process(&self, frame: &RawFrame) -> ProcessedFrame {
        let foreground = self.subtractor.subtract(frame);
        let foreground_bytes = foreground.byte_size();
        let reduced = match self.downsampler {
            Some(d) => d.apply(&foreground),
            None => foreground,
        };
        let reduced_bytes = reduced.byte_size();
        let compressed = self.codec.encode(&reduced);
        let bytes = StageBytes {
            raw: frame.byte_size(),
            foreground: foreground_bytes,
            reduced: reduced_bytes,
            compressed: compressed.byte_size(),
        };
        ProcessedFrame { compressed, bytes }
    }
}

impl Default for ReductionPipeline {
    /// Same as [`ReductionPipeline::paper`].
    fn default() -> Self {
        ReductionPipeline::paper()
    }
}

/// Running statistics over a sequence of processed frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PipelineStats {
    frames: u64,
    totals: StageBytes,
}

impl PipelineStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        PipelineStats::default()
    }

    /// Records one frame's stage bytes.
    pub fn record(&mut self, bytes: &StageBytes) {
        self.frames += 1;
        self.totals.raw += bytes.raw;
        self.totals.foreground += bytes.foreground;
        self.totals.reduced += bytes.reduced;
        self.totals.compressed += bytes.compressed;
    }

    /// Returns the number of recorded frames.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Returns the accumulated per-stage byte totals.
    pub fn totals(&self) -> StageBytes {
        self.totals
    }

    /// Returns the mean compressed bytes per frame (0 with no frames).
    pub fn mean_compressed_bytes(&self) -> f64 {
        if self.frames == 0 {
            return 0.0;
        }
        self.totals.compressed as f64 / self.frames as f64
    }

    /// Returns the mean end-to-end compression ratio (0 with no frames).
    pub fn mean_compression_ratio(&self) -> f64 {
        if self.totals.compressed == 0 {
            return 0.0;
        }
        self.totals.raw as f64 / self.totals.compressed as f64
    }

    /// Returns the stream's compressed bit rate at `fps`, in bits per
    /// second.
    pub fn bitrate_bps(&self, fps: u32) -> f64 {
        self.mean_compressed_bytes() * 8.0 * f64::from(fps)
    }

    /// Returns the stream's compressed bit rate at `fps`, in Mbps.
    pub fn bitrate_mbps(&self, fps: u32) -> f64 {
        self.bitrate_bps(fps) / 1_000_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::SyntheticCapture;
    use crate::frame::{raw_bitrate_bps, FRAME_FPS, FRAME_HEIGHT, FRAME_WIDTH};

    fn run_pipeline(pipeline: &ReductionPipeline, frames: u64) -> PipelineStats {
        let cam = SyntheticCapture::new(FRAME_WIDTH, FRAME_HEIGHT, 2008);
        let mut stats = PipelineStats::new();
        for seq in 0..frames {
            stats.record(&pipeline.process(&cam.capture(0.4, seq)).bytes);
        }
        stats
    }

    #[test]
    fn stages_shrink_monotonically() {
        let cam = SyntheticCapture::new(320, 240, 3);
        let out = ReductionPipeline::paper().process(&cam.capture(0.0, 0));
        let b = out.bytes;
        assert!(b.raw > b.foreground, "subtraction must reduce bytes");
        assert!(b.foreground > b.reduced, "downsampling must reduce bytes");
        assert!(b.reduced > b.compressed, "compression must reduce bytes");
    }

    #[test]
    fn paper_pipeline_hits_the_5_to_10_mbps_band() {
        let stats = run_pipeline(&ReductionPipeline::paper(), 15);
        let mbps = stats.bitrate_mbps(FRAME_FPS);
        // The paper quotes 5–10 Mbps after the full reduction chain; allow
        // the synthetic scene some slack on the low side.
        assert!((1.0..=12.0).contains(&mbps), "bitrate {mbps} Mbps");
        // And the end-to-end reduction is large.
        assert!(stats.mean_compression_ratio() > 15.0);
    }

    #[test]
    fn raw_rate_matches_paper_arithmetic() {
        let stats = run_pipeline(&ReductionPipeline::paper(), 3);
        let raw_bps = stats.totals().raw as f64 / 3.0 * 8.0 * f64::from(FRAME_FPS);
        assert_eq!(
            raw_bps as u64,
            raw_bitrate_bps(FRAME_WIDTH, FRAME_HEIGHT, FRAME_FPS)
        );
    }

    #[test]
    fn skipping_downsampling_costs_bits() {
        let with = run_pipeline(&ReductionPipeline::paper(), 5);
        let without = run_pipeline(
            &ReductionPipeline::new(BackgroundSubtractor::default(), None, Codec::default()),
            5,
        );
        assert!(without.bitrate_bps(FRAME_FPS) > with.bitrate_bps(FRAME_FPS) * 1.5);
    }

    #[test]
    fn compressed_output_decodes() {
        let cam = SyntheticCapture::new(160, 120, 7);
        let pipeline = ReductionPipeline::paper();
        let out = pipeline.process(&cam.capture(0.0, 2));
        let decoded = pipeline.codec().decode(&out.compressed).unwrap();
        assert!(!decoded.is_empty());
        assert_eq!(decoded.width(), 80); // 160 / downsample factor 2
    }

    #[test]
    fn stats_start_empty() {
        let stats = PipelineStats::new();
        assert_eq!(stats.frames(), 0);
        assert_eq!(stats.mean_compressed_bytes(), 0.0);
        assert_eq!(stats.mean_compression_ratio(), 0.0);
        assert_eq!(stats.bitrate_mbps(15), 0.0);
    }

    #[test]
    fn stats_accumulate() {
        let mut stats = PipelineStats::new();
        stats.record(&StageBytes {
            raw: 100,
            foreground: 50,
            reduced: 20,
            compressed: 10,
        });
        stats.record(&StageBytes {
            raw: 100,
            foreground: 60,
            reduced: 30,
            compressed: 30,
        });
        assert_eq!(stats.frames(), 2);
        assert_eq!(stats.mean_compressed_bytes(), 20.0);
        assert_eq!(stats.mean_compression_ratio(), 5.0);
        assert_eq!(stats.bitrate_bps(1), 160.0);
    }
}
