//! Synthetic 3D video pipeline for tele-immersive streams.
//!
//! The paper's bandwidth story (Section 1) starts from a raw 3D stream of
//! `640 × 480 × 15 fps × 5 B/pixel ≈ 180 Mbps` and relies on a chain of
//! reduction techniques — background subtraction \[11\], resolution
//! reduction, and real-time 3D compression \[13, 14, 25\] — to reach the
//! 5–10 Mbps per stream its evaluation assumes. This crate implements that
//! chain end to end on synthetic captures (no camera hardware, same code
//! paths):
//!
//! * [`SyntheticCapture`] — deterministic procedural 3D camera;
//! * [`RawFrame`] — dense color + depth at the paper's 5 B/pixel;
//! * [`BackgroundSubtractor`] — depth range gate to a sparse
//!   [`ForegroundFrame`];
//! * [`Downsampler`] — block-averaging resolution reduction;
//! * [`Codec`] — reversible delta/varint/RLE compressor;
//! * [`ReductionPipeline`] — the full chain with per-stage byte
//!   accounting ([`PipelineStats`]).
//!
//! # Examples
//!
//! ```
//! use teeve_media::{PipelineStats, ReductionPipeline, SyntheticCapture};
//!
//! let camera = SyntheticCapture::new(640, 480, 42);
//! let pipeline = ReductionPipeline::paper();
//! let mut stats = PipelineStats::new();
//! for seq in 0..10 {
//!     let frame = camera.capture(0.0, seq);
//!     stats.record(&pipeline.process(&frame).bytes);
//! }
//! // 184 Mbps raw compresses into the paper's single-digit Mbps band.
//! assert!(stats.bitrate_mbps(15) < 12.0);
//! assert!(stats.mean_compression_ratio() > 15.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod background;
mod capture;
mod compress;
mod frame;
mod pipeline;
mod resolution;

pub use background::{BackgroundSubtractor, ForegroundFrame, ForegroundPixel, BYTES_PER_SAMPLE};
pub use capture::SyntheticCapture;
pub use compress::{Codec, CodecError, CompressedFrame};
pub use frame::{
    raw_bitrate_bps, RawFrame, Rgb, BYTES_PER_PIXEL, DEPTH_FAR_MM, FRAME_FPS, FRAME_HEIGHT,
    FRAME_WIDTH,
};
pub use pipeline::{PipelineStats, ProcessedFrame, ReductionPipeline, StageBytes};
pub use resolution::Downsampler;
