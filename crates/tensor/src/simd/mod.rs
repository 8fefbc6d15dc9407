//! Runtime-dispatched SIMD kernels for the convolution and pooling hot
//! loops.
//!
//! The f32 conv kernels (blocked GEMM, column-stationary sparse conv),
//! the INT8 quantized path and the span pool ([`crate::pool::pool2d`])
//! all bottom out in a handful of small kernels defined here. Each kernel
//! has a portable scalar fallback ([`scalar`]), the conv kernels written
//! over the explicit lane types [`scalar::f32x8`] / [`scalar::i32x8`],
//! and, where the table shows one, a hand-vectorized `std::arch` version
//! selected at runtime, with *identical per-lane semantics*:
//!
//! | kernel | x86_64 ([`x86`]) | aarch64 (`neon`) |
//! |---|---|---|
//! | [`gemm_micro`] | AVX2 | NEON |
//! | [`sparse_conv_layer`] | AVX2 | scalar body |
//! | [`qaxpy`] | AVX2 | NEON |
//! | [`pool_max_fold`] | AVX2 | scalar body |
//! | [`pool_sum_fold`] | scalar body | scalar body |
//!
//! `sparse_conv_layer` and `pool_max_fold` have no NEON body yet: no
//! aarch64 toolchain is available to compile and test one, so aarch64
//! runs their scalar bodies in both dispatch modes. `pool_sum_fold` has
//! one body on every host: a vector add may keep another NaN payload
//! than the scalar add does, and one body keeps the pool free of the
//! conv kernel's NaN exception below.
//!
//! # Bit-identity contract
//!
//! The vector kernels vectorize **across output elements only** (the NR
//! register columns of a GEMM tile, or a contiguous run of output rows of
//! one output column) and use separate multiply + add — never FMA. Each output
//! element therefore receives exactly the same f32 additions in exactly
//! the same order on both paths, and the golden traces recorded before
//! this module existed still pass byte-identically. Zero-skipping is
//! reproduced lanewise with a compare + blend: a lane whose activation is
//! zero keeps its accumulator bits (an unconditional `acc + w*0.0` could
//! flip a `-0.0` accumulator to `+0.0`).
//!
//! One exception: NaN bits. On a tile holding NaN or ±infinity, the AVX2
//! and scalar [`sparse_conv_layer`] can return NaNs that differ in sign or
//! payload bits (the compiler may swap the operands of a scalar add, and
//! which operand's NaN survives differs between the two paths). Whether a
//! lane is NaN never differs, and [`crate::is_nonzero`] counts every NaN as
//! nonzero, so no transfer size depends on it.
//!
//! The pool has no exception. [`pool_max_fold`] folds by one explicit
//! rule, [`max_rule`], whose result is defined for every pair of inputs
//! (±0 ties and NaNs of any sign or payload included), and its AVX2 body
//! computes that rule lane for lane; the average pool's sum runs one body
//! in both modes. Both folds therefore return the same bits in both
//! dispatch modes on every input.
//!
//! # Dispatch
//!
//! The active mode is decided once, at first use, from the host ISA
//! (`is_x86_feature_detected!("avx2")`; NEON is baseline on aarch64) and
//! the `HD_SIMD` environment variable (`HD_SIMD=0` forces the scalar
//! fallback so CI can exercise it on any host). Tests and benches can
//! flip the mode in-process with [`set_enabled`] — safe precisely
//! because both paths are bit-identical.
//!
//! This module is the only place in the workspace where `unsafe` is
//! sanctioned: the workspace denies rustc's `unsafe_code` lint and this
//! module alone expects it. Clippy's `undocumented_unsafe_blocks` makes
//! every unsafe block carry a `SAFETY:` comment discharging its
//! obligations, and `missing_safety_doc` gives every `pub unsafe fn` a
//! `# Safety` section.

pub mod scalar;

#[cfg(target_arch = "aarch64")]
pub mod neon;
#[cfg(target_arch = "x86_64")]
pub mod x86;

/// Rows of one GEMM micro-tile (shared with [`crate::gemm`]).
pub const MR: usize = 4;
/// Columns of one GEMM micro-tile: two 8-lane strips per row, so each
/// broadcast of an A value is amortized over twice the output columns.
/// (Widening the tile never changes results — per output element the
/// `j` accumulation order is untouched.)
pub const NR: usize = 16;
/// f32 lanes of one vector register (one AVX2 `__m256`).
pub const LANES: usize = 8;
/// Accumulators of one [`sparse_conv_layer`] register block: each
/// weight broadcast feeds up to this many vector lanes of output.
pub const CONV_ACCS: usize = 8;
/// Row vectors (of [`LANES`] output rows) of one [`sparse_conv_layer`]
/// register block; a block takes `CONV_ACCS / row vectors` columns.
pub const CONV_VECS: usize = 4;

use std::sync::atomic::{AtomicU8, Ordering};

use crate::csc_conv::SparseFilters;

const MODE_UNINIT: u8 = 0;
const MODE_SCALAR: u8 = 1;
const MODE_VECTOR: u8 = 2;

/// Cached dispatch decision (one relaxed load on the hot path).
static MODE: AtomicU8 = AtomicU8::new(MODE_UNINIT);

/// Whether the host ISA has the vector extensions the kernels target
/// (AVX2 on x86_64, NEON on aarch64). Independent of [`enabled`]: bench
/// artifacts use this to annotate scalar-only hosts honestly.
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(target_arch = "aarch64")]
    {
        std::arch::is_aarch64_feature_detected!("neon")
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        false
    }
}

fn detect() -> u8 {
    let forced_off = std::env::var("HD_SIMD").is_ok_and(|v| v == "0");
    if !forced_off && simd_available() {
        MODE_VECTOR
    } else {
        MODE_SCALAR
    }
}

#[inline]
fn mode() -> u8 {
    // hd-lint: allow(atomic-ordering) -- single-word dispatch cache; a racy re-detect recomputes the same value (detect() is pure)
    let m = MODE.load(Ordering::Relaxed);
    if m != MODE_UNINIT {
        return m;
    }
    let m = detect();
    // hd-lint: allow(atomic-ordering) -- idempotent cache fill; both SIMD paths are bit-identical, so a stale mode is harmless
    MODE.store(m, Ordering::Relaxed);
    m
}

/// Whether the vector kernels are currently active.
pub fn enabled() -> bool {
    mode() == MODE_VECTOR
}

/// Forces the dispatch mode in-process (differential tests, the
/// SIMD-off bench rows). Enabling on a host without the required ISA is
/// a no-op. Safe to flip at any time: both paths are bit-identical, so
/// concurrent readers cannot observe a numeric difference.
pub fn set_enabled(enabled: bool) {
    let m = if enabled && simd_available() {
        MODE_VECTOR
    } else {
        MODE_SCALAR
    };
    // hd-lint: allow(atomic-ordering) -- mode flip needs no barrier: scalar and vector kernels are bit-identical by construction
    MODE.store(m, Ordering::Relaxed);
}

/// Name of the instruction set the active kernels use.
pub fn active_isa() -> &'static str {
    if !enabled() {
        return "scalar";
    }
    #[cfg(target_arch = "x86_64")]
    {
        "avx2"
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon"
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        "scalar"
    }
}

/// `MR x NR` GEMM register tile: loads the C tile, accumulates `kcb`
/// rank-1 updates in ascending `j` with separate mul + add, stores back.
/// `a_strip`/`b_strip` are the packed strips of [`crate::gemm`];
/// `mrb`/`nrb` mask the edge tiles. Edge tiles (`nrb < NR`) always take
/// the scalar path — the vector kernel loads full NR-lane rows of C.
#[inline]
pub fn gemm_micro(
    kcb: usize,
    a_strip: &[f32],
    b_strip: &[f32],
    c: &mut [f32],
    ldc: usize,
    mrb: usize,
    nrb: usize,
) {
    assert!(
        (1..=MR).contains(&mrb) && (1..=NR).contains(&nrb),
        "tile mask out of range"
    );
    assert!(
        a_strip.len() >= kcb * MR && b_strip.len() >= kcb * NR,
        "packed strip too short"
    );
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if nrb == NR && mode() == MODE_VECTOR {
        assert!(
            c.len() >= (mrb - 1) * ldc + NR,
            "C tile rows must hold NR lanes"
        );
        // SAFETY: the required ISA was verified by `detect()` (or
        // `set_enabled`) before MODE_VECTOR could be observed, and the
        // asserts above establish the slice bounds the kernel reads and
        // writes through raw pointers.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            x86::gemm_micro_avx2(kcb, a_strip, b_strip, c, ldc, mrb)
        };
        // SAFETY: as above — NEON presence verified, bounds asserted.
        #[cfg(target_arch = "aarch64")]
        unsafe {
            neon::gemm_micro_neon(kcb, a_strip, b_strip, c, ldc, mrb)
        };
        return;
    }
    scalar::gemm_micro(kcb, a_strip, b_strip, c, ldc, mrb, nrb);
}

/// Column-stationary sparse convolution of a whole layer over a
/// column-major tile ([`crate::csc_conv`]).
///
/// `filters`' taps are read as tile offsets: a
/// [`SparseConv`](crate::csc_conv::SparseConv) holds its
/// filters so, and for filters fresh from [`SparseFilters::build`] they
/// are the flat tap indices. For filter `k`, output column `j` (for `j` in
/// `cols`), row vector `v` (`v < row_vecs`), lane `l` starts at
/// `init = bias[k]` (`0.0` without a bias) and, for each of the filter's
/// nonzeros `(o, w)` in order, receives `w * x`, where
/// `x = tile[o + j * col_step + v * LANES + l]` —
/// but only when `x != 0.0` (compare + blend: a lane whose activation is
/// zero keeps its accumulator bits, exactly the reference loop's
/// zero-skipping). Tap order is the caller's, so an ascending `(c, r, s)`
/// list reproduces `conv2d_reference`'s accumulation order per output
/// element.
///
/// A register block holds [`CONV_ACCS`] row vectors: up to [`CONV_VECS`]
/// of each of up to `CONV_ACCS / row vectors` columns, taken from `cols`
/// in order whether or not they are adjacent. Each weight broadcast feeds
/// every accumulator of a block, so the cost follows the columns asked
/// for: computing the two edge columns of a span costs two columns'
/// work. The block shape is picked once per block position, and every
/// filter then runs in it, one after another; each filter's column `j`,
/// row vectors `v0..`, are handed to `store(k, j, v0, &vecs)`.
///
/// When the values are all finite and `init` is not `-0.0`, no
/// accumulator is ever `-0.0`: a round-to-nearest add returns `-0.0` only
/// for two `-0.0` operands. A zero activation's product is then `±0.0`,
/// and adding it leaves every accumulator's bits as they are (NaN and
/// infinities included), so the AVX2 body skips that filter's compare and
/// blend with the same result.
///
/// The reach check that guards the AVX2 body's raw loads runs once per
/// call, for the largest column's last row vector plus the largest offset
/// of any filter (every other load lies below it), and the dispatch mode
/// is read once.
///
/// # Panics
///
/// Panics if the last load (`max(cols) * col_step + (row_vecs - 1) *
/// LANES + max offset + LANES`) exceeds `tile`, or if `bias` holds fewer
/// values than there are filters (its length is the caller's to check).
#[inline]
pub fn sparse_conv_layer(
    tile: &[f32],
    cols: &[usize],
    col_step: usize,
    row_vecs: usize,
    filters: &SparseFilters,
    bias: Option<&[f32]>,
    mut store: impl FnMut(usize, usize, usize, &[[f32; LANES]]),
) {
    let Some(&last_col) = cols.iter().max() else {
        return;
    };
    if row_vecs == 0 {
        return;
    }
    // Checked: the AVX2 body's raw loads rely on this bound.
    let end = last_col
        .checked_mul(col_step)
        .zip((row_vecs - 1).checked_mul(LANES))
        .and_then(|(col, row)| col.checked_add(row))
        .and_then(|at| at.checked_add(filters.max_tap() as usize))
        .and_then(|at| at.checked_add(LANES));
    assert!(
        end.is_some_and(|end| end <= tile.len()),
        "register block reads past the tile"
    );
    let layer = Layer {
        vector: mode() == MODE_VECTOR,
        tile,
        filters,
        bias,
    };
    let mut v0 = 0;
    while v0 < row_vecs {
        let nv = CONV_VECS.min(row_vecs - v0);
        for block in cols.chunks(CONV_ACCS / nv) {
            // Every origin is at most the checked last load's origin.
            let origin = |c: usize| block[c] * col_step + v0 * LANES;
            let store = |k: usize, c: usize, vecs: &[[f32; LANES]]| store(k, block[c], v0, vecs);
            match (nv, block.len()) {
                (1, 1) => layer.block::<1, 1>(origin, store),
                (1, 2) => layer.block::<2, 1>(origin, store),
                (1, 3) => layer.block::<3, 1>(origin, store),
                (1, 4) => layer.block::<4, 1>(origin, store),
                (1, 5) => layer.block::<5, 1>(origin, store),
                (1, 6) => layer.block::<6, 1>(origin, store),
                (1, 7) => layer.block::<7, 1>(origin, store),
                (1, _) => layer.block::<8, 1>(origin, store),
                (2, 1) => layer.block::<1, 2>(origin, store),
                (2, 2) => layer.block::<2, 2>(origin, store),
                (2, 3) => layer.block::<3, 2>(origin, store),
                (2, _) => layer.block::<4, 2>(origin, store),
                (3, 1) => layer.block::<1, 3>(origin, store),
                (3, _) => layer.block::<2, 3>(origin, store),
                (_, 1) => layer.block::<1, 4>(origin, store),
                (_, _) => layer.block::<2, 4>(origin, store),
            }
        }
        v0 += nv;
    }
}

/// The operands of one [`sparse_conv_layer`] call, its reach checked.
struct Layer<'a> {
    /// Whether the AVX2 body runs (the dispatch mode, read once).
    vector: bool,
    tile: &'a [f32],
    filters: &'a SparseFilters,
    bias: Option<&'a [f32]>,
}

impl Layer<'_> {
    /// One `NC x NV` block position: columns at tile origins `origin(c)`,
    /// every filter in turn; filter `k`'s column `c` goes to
    /// `store(k, c, vecs)`.
    #[inline(always)]
    fn block<const NC: usize, const NV: usize>(
        &self,
        origin: impl Fn(usize) -> usize,
        mut store: impl FnMut(usize, usize, &[[f32; LANES]]),
    ) {
        let origins: [usize; NC] = std::array::from_fn(origin);
        let mut emit = |k: usize, out: &[[[f32; LANES]; NV]; NC]| {
            for (c, vecs) in out.iter().enumerate() {
                store(k, c, vecs);
            }
        };
        // aarch64 has no vector body for this kernel yet: both modes run
        // the scalar one there.
        if self.vector {
            // SAFETY: AVX2 presence verified before MODE_VECTOR was stored;
            // `sparse_conv_layer` checked the reach of its last load, and
            // every load of every filter at these origins lies at or below
            // it.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                x86::sparse_conv_filters_avx2::<NC, NV>(
                    self.tile,
                    origins,
                    self.filters,
                    self.bias,
                    &mut emit,
                );
                return;
            }
        }
        scalar::sparse_conv_filters::<NC, NV>(
            self.tile,
            origins,
            self.filters,
            self.bias,
            &mut emit,
        );
    }
}

/// Filter `k`'s start value: its bias, or `0.0` without one.
#[inline(always)]
fn conv_init(bias: Option<&[f32]>, k: usize) -> f32 {
    bias.map_or(0.0, |b| b[k])
}

/// Whether a filter starting at `init` needs the zero-activation mask
/// (see [`sparse_conv_layer`]): some value is not finite, or `init` is
/// `-0.0`.
#[inline(always)]
fn conv_masked(filters: &SparseFilters, init: f32) -> bool {
    !filters.finite() || init.to_bits() == (-0.0f32).to_bits()
}

/// The max rule of max pooling: `v` replaces `acc` when it is greater,
/// and whenever `acc` is NaN. So a tie between `-0.0` and `+0.0` keeps
/// `acc`, and a NaN `v` never replaces an ordered `acc`.
///
/// This is how `f32::max(acc, v)` lowers on x86-64 (`maxss` with the
/// unordered fix-up), NaNs and signed zeros included; the rule pins that
/// result on every target instead of leaving it to each target's
/// lowering of `f32::max`.
#[inline]
pub fn max_rule(acc: f32, v: f32) -> f32 {
    if acc.is_nan() || v > acc {
        v
    } else {
        acc
    }
}

/// One element `(dy, dx)` of a pooling window, resolved for a whole
/// output column: output row `r` reads `src[top * stride + off]`, where
/// `top` is the first input row of `r`'s window (see [`PoolRows`]).
#[derive(Clone, Copy, Debug)]
pub struct PoolTap<'a> {
    src: &'a [f32],
    stride: usize,
    off: usize,
}

impl<'a> PoolTap<'a> {
    /// The tap reading `src[top * stride + off]`.
    pub fn new(src: &'a [f32], stride: usize, off: usize) -> Self {
        PoolTap { src, stride, off }
    }

    /// The tap reading `+0.0` on every row.
    pub fn zero() -> PoolTap<'static> {
        PoolTap {
            src: &[0.0],
            stride: 0,
            off: 0,
        }
    }

    /// The value it reads for the window whose first input row is `top`.
    #[inline]
    fn read(&self, top: u32) -> f32 {
        self.src[top as usize * self.stride + self.off]
    }

    /// The index it reads at row `top`, if that does not overflow.
    fn index(&self, top: u32) -> Option<usize> {
        (top as usize)
            .checked_mul(self.stride)
            .and_then(|at| at.checked_add(self.off))
    }
}

/// The first input row of every pooling window of a `channels x h` stack
/// of rows, one per output row `(c, p)` in order: `c * h + p * factor`
/// for `p < h / factor`. (A trailing input row that fills no window is
/// skipped, so within a channel consecutive windows sit `factor` rows
/// apart.) The rows ascend, so a fold bounds every read by its last row.
#[derive(Clone, Debug)]
pub struct PoolRows {
    tops: Vec<u32>,
}

impl PoolRows {
    /// The window rows of `channels` maps of height `h` pooled by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0` or an input row index exceeds `u32::MAX`.
    pub fn new(channels: usize, h: usize, factor: usize) -> Self {
        assert!(factor > 0, "pool factor must be positive");
        let out_h = h / factor;
        let rows = channels.checked_mul(h);
        assert!(
            rows.is_some_and(|rows| u32::try_from(rows).is_ok()),
            "pool input rows exceed u32"
        );
        let mut tops = Vec::with_capacity(channels * out_h);
        for c in 0..channels {
            // Every index below is under `rows`, so the casts are exact.
            let at = (c * h) as u32;
            tops.extend((0..out_h).map(|p| at + (p * factor) as u32));
        }
        PoolRows { tops }
    }

    /// Number of output rows.
    pub fn len(&self) -> usize {
        self.tops.len()
    }

    /// Whether there is no output row.
    pub fn is_empty(&self) -> bool {
        self.tops.is_empty()
    }
}

/// Max-pools one output column: `out[r]` is the fold by [`max_rule`],
/// from `-inf` and in `taps` order, of every tap's read for output row
/// `r`. Bit-identical in both dispatch modes for every input.
///
/// # Panics
///
/// Panics if `out` does not hold one value per row of `rows`, or a tap
/// reads past its source.
#[inline]
pub fn pool_max_fold(rows: &PoolRows, taps: &[PoolTap], out: &mut [f32]) {
    let _fits_i32 = check_pool_reach(rows, taps, out.len());
    #[cfg(target_arch = "x86_64")]
    if _fits_i32 && mode() == MODE_VECTOR {
        // SAFETY: AVX2 presence verified before MODE_VECTOR was stored;
        // `check_pool_reach` bounds every tap's read at the last (largest)
        // row below its source's length and below `i32::MAX`.
        unsafe { x86::pool_max_fold_avx2(&rows.tops, taps, out) };
        return;
    }
    scalar::pool_max_fold(&rows.tops, taps, out);
}

/// Sums one output column: `out[r]` is the sum, from `+0.0` and in `taps`
/// order, of every tap's read for output row `r`. One body in both
/// dispatch modes.
///
/// # Panics
///
/// Panics if `out` does not hold one value per row of `rows`, or a tap
/// reads past its source.
#[inline]
pub fn pool_sum_fold(rows: &PoolRows, taps: &[PoolTap], out: &mut [f32]) {
    check_pool_reach(rows, taps, out.len());
    scalar::pool_sum_fold(&rows.tops, taps, out);
}

/// Asserts that `out_len` is the number of rows and that every tap's read
/// at the last row (the largest) lies inside its source; returns whether
/// every such index and stride fits an `i32` gather lane.
fn check_pool_reach(rows: &PoolRows, taps: &[PoolTap], out_len: usize) -> bool {
    assert_eq!(
        out_len,
        rows.len(),
        "pool output must hold one value per row"
    );
    let Some(&last) = rows.tops.last() else {
        return false;
    };
    let mut fits_i32 = true;
    for tap in taps {
        // Checked: the AVX2 body's gathers rely on this bound.
        let end = tap.index(last);
        assert!(
            end.is_some_and(|end| end < tap.src.len()),
            "pool tap reads past its source"
        );
        let limit = i32::MAX as usize;
        fits_i32 &= end.is_some_and(|end| end <= limit) && tap.stride <= limit;
    }
    fits_i32
}

/// Unmasked i32 accumulate over a contiguous run: `acc[i] += w * x[i]`.
/// Integer arithmetic is exact, so the quantized kernels need no
/// zero-mask to stay bit-identical across paths. `acc` and `x` must have
/// equal length; products and sums must not overflow `i32` (the
/// quantized conv bounds its accumulators well below `i32::MAX`).
#[inline]
pub fn qaxpy(acc: &mut [i32], x: &[i32], w: i32) {
    assert_eq!(acc.len(), x.len(), "qaxpy operand length mismatch");
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if mode() == MODE_VECTOR {
        // SAFETY: ISA presence verified before MODE_VECTOR was stored;
        // equal slice lengths asserted above bound every pointer access.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            x86::qaxpy_avx2(acc, x, w)
        };
        // SAFETY: as above.
        #[cfg(target_arch = "aarch64")]
        unsafe {
            neon::qaxpy_neon(acc, x, w)
        };
        return;
    }
    scalar::qaxpy(acc, x, w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    0.0
                } else {
                    rng.gen_range(-2.0..2.0)
                }
            })
            .collect()
    }

    /// Runs `f` once with the vector kernels and once with the scalar
    /// fallback, restoring the detected mode afterwards.
    fn both_paths(mut f: impl FnMut(bool)) {
        for vector in [false, true] {
            set_enabled(vector);
            f(vector && simd_available());
        }
        MODE.store(MODE_UNINIT, Ordering::Relaxed);
    }

    #[test]
    fn gemm_micro_paths_bit_identical() {
        let mut rng = StdRng::seed_from_u64(7);
        for kcb in [0usize, 1, 3, 17] {
            for (mrb, nrb) in [(4, 8), (4, 5), (2, 8), (1, 1)] {
                let a: Vec<f32> = random(kcb * MR, 10 + kcb as u64);
                let b: Vec<f32> = random(kcb * NR, 20 + kcb as u64);
                let ldc = rng.gen_range(NR..2 * NR);
                let c0: Vec<f32> = random(MR * ldc, 30 + kcb as u64);
                let mut outs: Vec<Vec<f32>> = Vec::new();
                both_paths(|_| {
                    let mut c = c0.clone();
                    gemm_micro(kcb, &a, &b, &mut c, ldc, mrb, nrb);
                    outs.push(c);
                });
                let bits = |v: &Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&outs[0]),
                    bits(&outs[1]),
                    "kcb={kcb} mrb={mrb} nrb={nrb}"
                );
            }
        }
    }

    /// `filters` filters over `reach` flat taps (which the kernel reads as
    /// tile offsets), holding the nonzeros `(k, tap, value)`.
    fn layer(filters: usize, reach: usize, nonzeros: &[(usize, usize, f32)]) -> SparseFilters {
        let mut w = crate::Tensor4::zeros(filters, reach, 1, 1);
        for &(k, tap, v) in nonzeros {
            w.set(k, tap, 0, 0, v);
        }
        SparseFilters::build(&w)
    }

    /// Filters of up to `nnz[k]` taps each, offsets below `reach`.
    fn random_layer(nnz: &[usize], reach: usize, rng: &mut StdRng) -> SparseFilters {
        let mut nonzeros = Vec::new();
        for (k, &n) in nnz.iter().enumerate() {
            let vals = random(n, rng.gen_range(0..1000));
            nonzeros.extend(vals.into_iter().map(|v| (k, rng.gen_range(0..reach), v)));
        }
        layer(nnz.len(), reach, &nonzeros)
    }

    /// The per-lane definition of [`sparse_conv_layer`], written out:
    /// `out[k][i][v * LANES + l]` for filter `k`, column `cols[i]`.
    fn conv_layer_by_lane(
        tile: &[f32],
        cols: &[usize],
        (col_step, row_vecs): (usize, usize),
        filters: &SparseFilters,
        bias: Option<&[f32]>,
    ) -> Vec<Vec<Vec<f32>>> {
        (0..filters.k())
            .map(|k| {
                let (offs, vals) = filters.filter(k);
                cols.iter()
                    .map(|&j| {
                        (0..row_vecs * LANES)
                            .map(|row| {
                                let mut acc = bias.map_or(0.0, |b| b[k]);
                                for (&o, &w) in offs.iter().zip(vals) {
                                    let x = tile[o as usize + j * col_step + row];
                                    if x != 0.0 {
                                        acc += w * x;
                                    }
                                }
                                acc
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// Runs [`sparse_conv_layer`] and gathers its stores as
    /// `out[k][i][row]` for filter `k`, column `cols[i]` (distinct
    /// columns), checking each is stored once per row vector.
    fn conv_layer(
        tile: &[f32],
        cols: &[usize],
        (col_step, row_vecs): (usize, usize),
        filters: &SparseFilters,
        bias: Option<&[f32]>,
    ) -> Vec<Vec<Vec<f32>>> {
        let k = filters.k();
        let mut out = vec![vec![vec![f32::NAN; row_vecs * LANES]; cols.len()]; k];
        let mut stored = vec![vec![0usize; cols.len()]; k];
        let index = |j: usize| cols.iter().position(|&c| c == j).unwrap();
        sparse_conv_layer(
            tile,
            cols,
            col_step,
            row_vecs,
            filters,
            bias,
            |k, j, v0, vecs| {
                let i = index(j);
                stored[k][i] += vecs.len();
                for (v, lanes) in vecs.iter().enumerate() {
                    let at = (v0 + v) * LANES;
                    out[k][i][at..at + LANES].copy_from_slice(lanes);
                }
            },
        );
        assert!(
            stored.iter().flatten().all(|&n| n == row_vecs),
            "stores {stored:?}"
        );
        out
    }

    fn layer_bits(out: &[Vec<Vec<f32>>]) -> Vec<Vec<Vec<u32>>> {
        out.iter()
            .map(|f| {
                f.iter()
                    .map(|c| c.iter().map(|x| x.to_bits()).collect())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn conv_layer_paths_bit_identical_to_lane_definition() {
        let mut rng = StdRng::seed_from_u64(13);
        // Adjacent, gapped and unordered column lists.
        let lists: [&[usize]; 4] = [
            &[0],
            &[1, 2, 3],
            &[0, 2, 3, 7, 8, 9],
            &[9, 1, 4, 0, 2, 3, 5, 6, 8],
        ];
        for (nnz, cols, row_vecs) in [
            (&[0usize][..], lists[0], 1usize),
            (&[1, 0, 3], lists[1], 2),
            (&[5, 2], lists[2], 5),
            (&[40, 0, 7, 1], lists[3], 3),
        ] {
            let col_step = row_vecs * LANES + rng.gen_range(0..9usize);
            let reach = 48usize;
            let len = 10 * col_step + reach + LANES;
            let tile = random(len, 50 + nnz.len() as u64);
            let filters = random_layer(nnz, reach, &mut rng);
            // A `-0.0` bias among others: its filter alone keeps the mask.
            let mut bias = random(nnz.len(), 70);
            bias[0] = -0.0;
            for bias in [None, Some(&bias[..])] {
                let at = (col_step, row_vecs);
                let want = conv_layer_by_lane(&tile, cols, at, &filters, bias);
                both_paths(|_| {
                    let got = conv_layer(&tile, cols, at, &filters, bias);
                    assert_eq!(layer_bits(&got), layer_bits(&want), "nnz={nnz:?}");
                });
            }
        }
    }

    #[test]
    fn conv_layer_keeps_negative_zero_accumulators_on_every_path() {
        // All-zero activations: every lane keeps its init bits, `-0.0`
        // included, even among filters whose values are all finite.
        let tile = vec![0.0f32; 6 * 2 * LANES + 2 * LANES];
        let filters = layer(2, 9, &[(0, 0, 1.0), (0, 3, -2.0), (0, 8, 0.5), (1, 1, 3.0)]);
        let bias = [-0.0f32, 0.0];
        both_paths(|_| {
            let got = conv_layer(
                &tile,
                &[0, 1, 2, 3, 4],
                (2 * LANES, 2),
                &filters,
                Some(&bias),
            );
            for (k, filter) in got.iter().enumerate() {
                for a in filter.iter().flatten() {
                    assert_eq!(a.to_bits(), bias[k].to_bits(), "init {:?} changed", bias[k]);
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "reads past the tile")]
    fn conv_layer_checks_the_last_column_reach() {
        // Two columns: the second column's rows reach past a tile the
        // first column alone would fit in.
        let tile = vec![1.0f32; 2 * LANES];
        let filters = layer(1, LANES + 1, &[(0, LANES, 1.0)]);
        sparse_conv_layer(
            &tile,
            &[1, 0],
            2 * LANES,
            1,
            &filters,
            None,
            |_, _, _, _| {},
        );
    }

    #[test]
    #[should_panic(expected = "reads past the tile")]
    fn conv_layer_checks_the_largest_offset_of_any_filter() {
        // The first filter fits; the last filter's offset reaches past.
        let tile = vec![1.0f32; 2 * LANES];
        let filters = layer(3, LANES + 2, &[(0, 0, 1.0), (2, LANES + 1, 1.0)]);
        sparse_conv_layer(&tile, &[0], LANES, 1, &filters, None, |_, _, _, _| {});
    }

    #[test]
    #[should_panic(expected = "reads past the tile")]
    fn conv_layer_rejects_an_overflowing_column_step() {
        let tile = vec![1.0f32; 4 * LANES];
        let filters = layer(1, 1, &[(0, 0, 1.0)]);
        sparse_conv_layer(
            &tile,
            &[0, 1],
            usize::MAX / 2,
            1,
            &filters,
            None,
            |_, _, _, _| {},
        );
    }

    #[test]
    fn qaxpy_paths_identical() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [0usize, 1, 8, 13, 40] {
            let x: Vec<i32> = (0..n).map(|_| rng.gen_range(-255..=255)).collect();
            let acc0: Vec<i32> = (0..n).map(|_| rng.gen_range(-10_000..10_000)).collect();
            let mut outs: Vec<Vec<i32>> = Vec::new();
            both_paths(|_| {
                let mut acc = acc0.clone();
                qaxpy(&mut acc, &x, -113);
                outs.push(acc);
            });
            assert_eq!(outs[0], outs[1], "n={n}");
            for i in 0..n {
                assert_eq!(outs[0][i], acc0[i] + (-113) * x[i]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "pool tap reads past its source")]
    fn pool_fold_rejects_a_tap_past_its_source() {
        // Window rows 0, 2, 4, 6: the last reads 6 * 3 + 3 = 21 of 21.
        let src = vec![0.0f32; 21];
        let rows = PoolRows::new(2, 4, 2);
        pool_max_fold(&rows, &[PoolTap::new(&src, 3, 3)], &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "one value per row")]
    fn pool_fold_rejects_an_output_of_another_length() {
        pool_max_fold(&PoolRows::new(1, 4, 2), &[], &mut [0.0; 1]);
    }

    #[test]
    fn pool_fold_reads_a_stride_too_wide_for_a_gather_lane() {
        // One window at row 0: a stride past `i32::MAX` reads nothing
        // beyond `off`, and takes the scalar body on every path.
        let src = [1.0f32, -0.0, 3.0];
        let rows = PoolRows::new(1, 2, 2);
        let taps = [
            PoolTap::new(&src, usize::MAX / 2, 1),
            PoolTap::zero(),
            PoolTap::new(&src, 1, 0),
        ];
        both_paths(|_| {
            let mut out = [0.0f32; 1];
            pool_max_fold(&rows, &taps, &mut out);
            assert_eq!(out[0], 1.0);
            pool_sum_fold(&rows, &taps[..2], &mut out);
            assert_eq!(out[0].to_bits(), 0.0f32.to_bits());
        });
    }

    #[test]
    fn hd_simd_env_forces_scalar() {
        // `detect()` is pure given the env; exercise it directly rather
        // than mutating the process environment (other tests race on it).
        assert_eq!(
            detect() == MODE_VECTOR,
            simd_available() && !std::env::var("HD_SIMD").is_ok_and(|v| v == "0")
        );
        set_enabled(false);
        assert!(!enabled());
        assert_eq!(active_isa(), "scalar");
        set_enabled(true);
        assert_eq!(enabled(), simd_available());
        MODE.store(MODE_UNINIT, Ordering::Relaxed);
    }
}
