//! Shared constants and data containers of the MP3 pipeline.

use serde::{Deserialize, Serialize};

/// Spectral samples per granule and channel (MPEG-1 Layer III).
pub const SAMPLES_PER_GRANULE: usize = 576;
/// Polyphase subbands.
pub const SUBBANDS: usize = 32;
/// Spectral lines per subband (576 / 32).
pub const LINES_PER_SUBBAND: usize = 18;
/// Granules per frame.
pub const GRANULES_PER_FRAME: usize = 2;
/// Long-block IMDCT size (produces 36 time samples from 18 spectral lines).
pub const IMDCT_SIZE: usize = 36;
/// Audio sample rate assumed for real-time deadlines (Hz).
pub const SAMPLE_RATE_HZ: f64 = 44_100.0;

/// Wall-clock duration of one frame of audio (two granules of 576 samples).
pub fn frame_duration_s() -> f64 {
    (SAMPLES_PER_GRANULE * GRANULES_PER_FRAME) as f64 / SAMPLE_RATE_HZ
}

/// Quantized spectral data and scaling side information for one granule of
/// one channel, mirroring the fields the ISO decoder extracts from the
/// bitstream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Granule {
    /// Quantized (Huffman-decoded) spectral values, length 576.
    pub quantized: Vec<i32>,
    /// Global gain exponent (210-biased in the standard; stored unbiased here).
    pub global_gain: i32,
    /// Scalefactors per scalefactor band (simplified: one per subband).
    pub scalefactors: Vec<i32>,
    /// Whether this granule uses mid/side stereo coding.
    pub mid_side: bool,
}

impl Granule {
    /// A silent granule.
    pub fn silent() -> Self {
        Granule {
            quantized: vec![0; SAMPLES_PER_GRANULE],
            global_gain: 0,
            scalefactors: vec![0; SUBBANDS],
            mid_side: false,
        }
    }
}

/// A frame: two granules, single channel (the Badge4 decodes to mono speakers
/// in the reproduction; stereo mid/side processing still runs when the
/// granule requests it, operating on the mid channel and a derived side
/// channel).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    /// The granules of the frame.
    pub granules: Vec<Granule>,
    /// Frame sequence number within the stream.
    pub index: u32,
}

impl Frame {
    /// A frame of silence.
    pub fn silent(index: u32) -> Self {
        Frame {
            granules: vec![Granule::silent(); GRANULES_PER_FRAME],
            index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(SUBBANDS * LINES_PER_SUBBAND, SAMPLES_PER_GRANULE);
        assert_eq!(IMDCT_SIZE, 2 * LINES_PER_SUBBAND);
    }

    #[test]
    fn frame_duration_matches_sample_rate() {
        // 1152 samples at 44.1 kHz is about 26.1 ms.
        assert!((frame_duration_s() - 0.02612).abs() < 1e-4);
    }

    #[test]
    fn silent_granule_has_no_content() {
        let g = Granule::silent();
        assert_eq!(g.quantized.len(), SAMPLES_PER_GRANULE);
        assert!(g.quantized.iter().all(|&v| v == 0));
        let f = Frame::silent(3);
        assert_eq!(f.granules.len(), GRANULES_PER_FRAME);
        assert_eq!(f.index, 3);
    }
}
