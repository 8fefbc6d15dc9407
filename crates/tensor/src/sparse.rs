//! Sparse transfer encodings.
//!
//! A two-sided sparse accelerator compresses every tensor it moves across
//! the DRAM bus by eliding zeros. The *encoded size in bytes* is exactly the
//! quantity the attacker observes on the bus, so these codecs are the load-
//! bearing piece of the side channel: they map (values, element width) to a
//! transfer volume, and — crucially for the prober — the volume is a strictly
//! monotone function of the non-zero count for a fixed tensor size.

use crate::cast;
use std::fmt;

/// How a tensor is compressed for off-chip transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CompressionScheme {
    /// No compression: every element is transferred.
    Dense,
    /// One presence bit per element plus packed non-zero values
    /// (Cnvlutin / SCNN-style zero-free format with an occupancy bitmap).
    Bitmap,
    /// Run-length encoding of zero gaps: each non-zero is stored with a
    /// fixed-width zero-run prefix (Eyeriss-style RLC with `run_bits`-bit
    /// runs; a saturated run emits a padding zero value).
    RunLength {
        /// Bits used to encode the preceding zero-run length.
        run_bits: u8,
    },
    /// Compressed sparse columns per channel: per-channel non-zero counts
    /// (32-bit) plus (offset, value) pairs with `offset_bits` offsets.
    Csc {
        /// Bits for the intra-channel coordinate offset.
        offset_bits: u8,
    },
    /// Canonical Huffman coding over `quant_bits`-quantized values
    /// (Deep-Compression-style). Size depends on the whole value
    /// distribution, yet still tracks nnz closely on pruned tensors.
    Huffman {
        /// Quantizer width in bits.
        quant_bits: u8,
    },
}

impl CompressionScheme {
    /// Encoded size for `values` with `elem_bits`-wide payload elements.
    ///
    /// The result is rounded up to whole bytes, since the bus transfers
    /// bytes. For [`CompressionScheme::Csc`] the caller provides the
    /// channel granulation via [`CompressionScheme::encoded_size_channels`];
    /// this method treats the whole tensor as one channel.
    pub fn encoded_size(&self, values: &[f32], elem_bits: u32) -> EncodedSize {
        self.encoded_size_channels(values, values.len().max(1), elem_bits)
    }

    /// Encoded size where `values` is partitioned into channels of
    /// `channel_len` elements (the last channel may be ragged).
    ///
    /// # Panics
    ///
    /// Panics if `channel_len == 0` or `elem_bits == 0`.
    pub fn encoded_size_channels(
        &self,
        values: &[f32],
        channel_len: usize,
        elem_bits: u32,
    ) -> EncodedSize {
        assert!(channel_len > 0, "channel length must be positive");
        assert!(elem_bits > 0, "element width must be positive");
        let nnz = crate::nnz(values);
        let total = values.len();
        self.size_from_nnz(total, channel_len, nnz, elem_bits)
            .unwrap_or_else(|| EncodedSize {
                bytes: self.placement_bytes(values, elem_bits),
                nnz,
                total,
            })
    }

    /// Encoded bytes of `values` under a codec whose size depends on where
    /// the zeros are: run-length and Huffman coding. Zero for the codecs
    /// [`CompressionScheme::size_from_nnz`] sizes.
    fn placement_bytes(&self, values: &[f32], elem_bits: u32) -> u64 {
        match *self {
            CompressionScheme::RunLength { run_bits } => {
                let max_run = (1u64 << run_bits) - 1;
                let mut symbols: u64 = 0;
                let mut run: u64 = 0;
                for &v in values {
                    if !crate::is_nonzero(v) {
                        run += 1;
                        if run > max_run {
                            symbols += 1; // saturated run emits a padding zero
                            run = 0;
                        }
                    } else {
                        symbols += 1;
                        run = 0;
                    }
                }
                if run > 0 {
                    symbols += 1; // trailing zero run needs a terminator symbol
                }
                (symbols * (u64::from(run_bits) + u64::from(elem_bits))).div_ceil(8)
            }
            CompressionScheme::Huffman { quant_bits } => {
                crate::huffman::huffman_encoded_bytes(values, u32::from(quant_bits))
            }
            CompressionScheme::Dense
            | CompressionScheme::Bitmap
            | CompressionScheme::Csc { .. } => 0,
        }
    }

    /// Encoded size of `total` elements in channels of `channel_len`, `nnz`
    /// of them non-zero, for the codecs whose size depends on nothing else:
    /// [`Dense`](Self::Dense), [`Bitmap`](Self::Bitmap) and
    /// [`Csc`](Self::Csc). `None` for run-length and Huffman coding.
    ///
    /// [`CompressionScheme::encoded_size_channels`] sizes these three
    /// codecs through this same formula.
    ///
    /// # Panics
    ///
    /// Panics if `channel_len == 0` or `elem_bits == 0`.
    pub fn size_from_nnz(
        &self,
        total: usize,
        channel_len: usize,
        nnz: usize,
        elem_bits: u32,
    ) -> Option<EncodedSize> {
        assert!(channel_len > 0, "channel length must be positive");
        assert!(elem_bits > 0, "element width must be positive");
        let (n, z, e) = (
            cast::usize_to_u64(total),
            cast::usize_to_u64(nnz),
            u64::from(elem_bits),
        );
        let bits = match *self {
            CompressionScheme::Dense => n * e,
            CompressionScheme::Bitmap => n + z * e,
            CompressionScheme::Csc { offset_bits } => {
                let channels = cast::usize_to_u64(total.div_ceil(channel_len));
                channels * 32 + z * (u64::from(offset_bits) + e)
            }
            CompressionScheme::RunLength { .. } | CompressionScheme::Huffman { .. } => return None,
        };
        Some(EncodedSize {
            bytes: bits.div_ceil(8),
            nnz,
            total,
        })
    }

    /// Inverts [`encoded_size`](Self::encoded_size) back to a non-zero count,
    /// given the (known) total element count. This is what the attacker does
    /// with an observed transfer volume.
    ///
    /// Returns `None` for schemes whose size is not an invertible function of
    /// nnz alone (run-length encoding depends on zero placement).
    pub fn nnz_from_bytes(&self, bytes: u64, total: usize, elem_bits: u32) -> Option<usize> {
        match self {
            CompressionScheme::Dense => None,
            CompressionScheme::Bitmap => {
                let bits = bytes * 8;
                let payload = bits.checked_sub(cast::usize_to_u64(total))?;
                cast::u64_to_usize(payload / u64::from(elem_bits))
            }
            CompressionScheme::RunLength { .. } | CompressionScheme::Huffman { .. } => None,
            CompressionScheme::Csc { offset_bits } => {
                // Caller must use the same single-channel convention.
                let bits = bytes * 8;
                let payload = bits.checked_sub(32)?;
                cast::u64_to_usize(payload / (u64::from(*offset_bits) + u64::from(elem_bits)))
            }
        }
    }
}

impl fmt::Display for CompressionScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressionScheme::Dense => write!(f, "dense"),
            CompressionScheme::Bitmap => write!(f, "bitmap"),
            CompressionScheme::RunLength { run_bits } => write!(f, "rle{run_bits}"),
            CompressionScheme::Csc { offset_bits } => write!(f, "csc{offset_bits}"),
            CompressionScheme::Huffman { quant_bits } => write!(f, "huffman{quant_bits}"),
        }
    }
}

/// Result of encoding a tensor for transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EncodedSize {
    /// Bytes that cross the bus.
    pub bytes: u64,
    /// Non-zero elements in the tensor.
    pub nnz: usize,
    /// Total elements in the tensor.
    pub total: usize,
}

impl EncodedSize {
    /// Compression ratio (dense bytes / encoded bytes) for 8-bit elements.
    pub fn ratio(&self, elem_bits: u32) -> f64 {
        let dense = (cast::usize_to_u64(self.total) * u64::from(elem_bits)).div_ceil(8);
        dense as f64 / self.bytes.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_size_is_total() {
        let v = vec![0.0, 1.0, 0.0, 2.0];
        let e = CompressionScheme::Dense.encoded_size(&v, 8);
        assert_eq!(e.bytes, 4);
        assert_eq!(e.nnz, 2);
    }

    #[test]
    fn bitmap_size() {
        // 16 elements, 3 non-zero, 8-bit: 16 bits bitmap + 24 bits payload = 5 bytes.
        let mut v = vec![0.0; 16];
        v[1] = 1.0;
        v[7] = -2.0;
        v[15] = 3.0;
        let e = CompressionScheme::Bitmap.encoded_size(&v, 8);
        assert_eq!(e.bytes, 5);
    }

    #[test]
    fn bitmap_roundtrip_nnz() {
        let scheme = CompressionScheme::Bitmap;
        for nnz in [0usize, 1, 5, 64] {
            let mut v = vec![0.0f32; 64];
            for x in v.iter_mut().take(nnz) {
                *x = 1.0;
            }
            let e = scheme.encoded_size(&v, 8);
            // Bitmap sizes are byte-rounded, so allow the recovered nnz to
            // absorb the rounding slack of < 8 bits / 8 bits-per-elem = 1.
            let rec = scheme.nnz_from_bytes(e.bytes, 64, 8).unwrap();
            assert!(rec >= nnz && rec <= nnz + 1, "nnz {nnz} recovered {rec}");
        }
    }

    #[test]
    fn bitmap_monotone_in_nnz() {
        let scheme = CompressionScheme::Bitmap;
        let mut prev = 0;
        for nnz in 0..=32 {
            let mut v = vec![0.0f32; 32];
            for x in v.iter_mut().take(nnz) {
                *x = 1.0;
            }
            let b = scheme.encoded_size(&v, 8).bytes;
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn rle_counts_runs() {
        // run_bits = 2 -> max run 3.
        let scheme = CompressionScheme::RunLength { run_bits: 2 };
        // [0,0,0,0,0, 1]: run of 5 = saturate(3)+pad, then run 1 + value -> 2 symbols.
        let v = [0.0, 0.0, 0.0, 0.0, 0.0, 1.0];
        let e = scheme.encoded_size(&v, 8);
        assert_eq!(e.bytes, (2 * 10u64).div_ceil(8));
    }

    #[test]
    fn rle_trailing_zeros_terminated() {
        let scheme = CompressionScheme::RunLength { run_bits: 4 };
        let v = [1.0, 0.0, 0.0];
        let e = scheme.encoded_size(&v, 8);
        // one value symbol + one terminator symbol
        assert_eq!(e.bytes, (2 * 12u64).div_ceil(8));
    }

    #[test]
    fn csc_channel_headers() {
        let scheme = CompressionScheme::Csc { offset_bits: 4 };
        let v = vec![0.0f32; 32];
        let e = scheme.encoded_size_channels(&v, 16, 8);
        // 2 channels x 32-bit headers, no payload.
        assert_eq!(e.bytes, 8);
    }

    #[test]
    fn all_zero_tensor_compresses_well() {
        let v = vec![0.0f32; 1024];
        let bitmap = CompressionScheme::Bitmap.encoded_size(&v, 8);
        assert_eq!(bitmap.bytes, 128); // bitmap only
        assert!(bitmap.ratio(8) > 7.9);
    }

    #[test]
    fn display_names() {
        assert_eq!(CompressionScheme::Bitmap.to_string(), "bitmap");
        assert_eq!(
            CompressionScheme::RunLength { run_bits: 5 }.to_string(),
            "rle5"
        );
    }

    #[test]
    #[should_panic(expected = "element width")]
    fn zero_elem_bits_panics() {
        let _ = CompressionScheme::Dense.encoded_size(&[1.0], 0);
    }
}
