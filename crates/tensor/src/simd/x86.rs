//! AVX2 implementations of the [`super`] kernels.
//!
//! Every function is an `unsafe fn` gated on `target_feature(avx2)`;
//! the dispatcher in `super` verifies AVX2 with
//! `is_x86_feature_detected!` and asserts the slice bounds before
//! calling in. Per-lane semantics match [`super::scalar`] exactly:
//! separate `mul` + `add` (no FMA), and zero-skipping as a compare +
//! blend so untouched accumulator lanes keep their bits (or, where that
//! provably changes no bit, no blend at all).

use super::{conv_init, conv_masked, scalar, PoolTap, LANES, MR, NR};
use crate::csc_conv::SparseFilters;
use core::arch::x86_64::*;

/// `MR x NR` register tile over full-width (`nrb == NR`) C rows.
///
/// # Safety
///
/// Requires AVX2. `a_strip` must hold `kcb * MR` values, `b_strip`
/// `kcb * NR`, and `c` must hold `NR` values at each of the `mrb`
/// (`1..=MR`) row offsets `i * ldc`.
#[target_feature(enable = "avx2")]
pub unsafe fn gemm_micro_avx2(
    kcb: usize,
    a_strip: &[f32],
    b_strip: &[f32],
    c: &mut [f32],
    ldc: usize,
    mrb: usize,
) {
    // SAFETY: caller guarantees the bounds spelled out above; every
    // pointer below stays inside those ranges.
    unsafe {
        // NR = 16: two 8-lane strips per C row, so one A broadcast feeds
        // two multiplies (8 accumulator registers + 2 B + 1 broadcast).
        let mut lo = [_mm256_setzero_ps(); MR];
        let mut hi = [_mm256_setzero_ps(); MR];
        for i in 0..mrb {
            lo[i] = _mm256_loadu_ps(c.as_ptr().add(i * ldc));
            hi[i] = _mm256_loadu_ps(c.as_ptr().add(i * ldc + 8));
        }
        for j in 0..kcb {
            let b_lo = _mm256_loadu_ps(b_strip.as_ptr().add(j * NR));
            let b_hi = _mm256_loadu_ps(b_strip.as_ptr().add(j * NR + 8));
            for i in 0..mrb {
                let av = _mm256_set1_ps(*a_strip.get_unchecked(j * MR + i));
                // Separate mul + add: bit-identical to the scalar tile.
                lo[i] = _mm256_add_ps(lo[i], _mm256_mul_ps(av, b_lo));
                hi[i] = _mm256_add_ps(hi[i], _mm256_mul_ps(av, b_hi));
            }
        }
        for i in 0..mrb {
            _mm256_storeu_ps(c.as_mut_ptr().add(i * ldc), lo[i]);
            _mm256_storeu_ps(c.as_mut_ptr().add(i * ldc + 8), hi[i]);
        }
    }
}

/// Every filter of a layer at one block position of the column-stationary
/// sparse conv, in filter order, inside one AVX2 frame: filter `k` runs
/// `sparse_conv_block_avx2` from its bias, masked where
/// `super::sparse_conv_layer` says it must be, and its block goes to
/// `emit(k, &block)`.
///
/// # Safety
///
/// Requires AVX2. `tile` must hold `LANES` values at each of
/// `origins[c] + filters.max_tap() + v * LANES` for `c < NC` and
/// `v < NV`.
#[target_feature(enable = "avx2")]
pub unsafe fn sparse_conv_filters_avx2<const NC: usize, const NV: usize>(
    tile: &[f32],
    origins: [usize; NC],
    filters: &SparseFilters,
    bias: Option<&[f32]>,
    emit: &mut impl FnMut(usize, &[[[f32; LANES]; NV]; NC]),
) {
    for k in 0..filters.k() {
        let (offs, vals) = filters.filter(k);
        let init = conv_init(bias, k);
        // SAFETY: every offset of the filter is at most `filters.max_tap()`, so
        // each load lies inside the bound the caller guarantees.
        let out = unsafe {
            if conv_masked(filters, init) {
                sparse_conv_block_avx2::<true, NC, NV>(tile, origins, offs, vals, init)
            } else {
                sparse_conv_block_avx2::<false, NC, NV>(tile, origins, offs, vals, init)
            }
        };
        emit(k, &out);
    }
}

/// Register block of one filter: `NC` output columns (at any tile
/// origins) of `NV` row vectors each, all `NC * NV` ymm accumulators live
/// across the whole nonzero list; each nonzero is one broadcast and
/// `NC * NV` lane updates. `MASKED` blends each update away where the
/// activation is zero; without it the update is a plain multiply and add,
/// which is used only where the two agree bit for bit (see
/// `super::sparse_conv_layer`).
///
/// # Safety
///
/// Requires AVX2. `offs` and `vals` must have equal length, and for every
/// offset `o`, `tile` must hold `LANES` values at each of
/// `origins[c] + o + v * LANES` for `c < NC` and `v < NV`.
#[target_feature(enable = "avx2")]
unsafe fn sparse_conv_block_avx2<const MASKED: bool, const NC: usize, const NV: usize>(
    tile: &[f32],
    origins: [usize; NC],
    offs: &[u32],
    vals: &[f32],
    init: f32,
) -> [[[f32; LANES]; NV]; NC] {
    // SAFETY: caller guarantees the bounds spelled out above; every
    // load below reads LANES values at one of those offsets.
    unsafe {
        let base = tile.as_ptr();
        let zero = _mm256_setzero_ps();
        let mut acc = [[_mm256_set1_ps(init); NV]; NC];
        for (&o, &w) in offs.iter().zip(vals) {
            let p = base.add(o as usize);
            let wv = _mm256_set1_ps(w);
            for (col, &origin) in acc.iter_mut().zip(&origins) {
                for (v, a) in col.iter_mut().enumerate() {
                    let xv = _mm256_loadu_ps(p.add(origin + v * LANES));
                    // Separate mul + add: bit-identical to the scalar block.
                    let sum = _mm256_add_ps(*a, _mm256_mul_ps(wv, xv));
                    *a = if MASKED {
                        // NEQ_UQ is true for NaN lanes, matching scalar `x != 0.0`.
                        let mask = _mm256_cmp_ps::<_CMP_NEQ_UQ>(xv, zero);
                        _mm256_blendv_ps(*a, sum, mask)
                    } else {
                        sum
                    };
                }
            }
        }
        let mut out = [[[0.0f32; LANES]; NV]; NC];
        for (dst, col) in out.iter_mut().zip(&acc) {
            for (lanes, a) in dst.iter_mut().zip(col) {
                _mm256_storeu_ps(lanes.as_mut_ptr(), *a);
            }
        }
        out
    }
}

/// Column-major max fold, `LANES` output rows per step: each step keeps
/// one accumulator register, gathers every tap's `LANES` reads in tap
/// order and folds them by [`super::max_rule`] lane for lane. Rows past
/// the last full step go through the scalar body.
///
/// # Safety
///
/// Requires AVX2. `tops` must hold `out.len()` rows and, for every tap
/// and every one of those rows, `top * stride + off` must lie
/// below the tap's source length and at most `i32::MAX`; so must
/// `stride`.
#[target_feature(enable = "avx2")]
pub unsafe fn pool_max_fold_avx2(tops: &[u32], taps: &[PoolTap], out: &mut [f32]) {
    // SAFETY: caller guarantees the bounds spelled out above; every
    // gather lane reads one of those in-bounds indices, which fit the
    // i32 lanes without wrapping.
    unsafe {
        let n = out.len();
        let mut r = 0;
        while r + LANES <= n {
            let top = _mm256_loadu_si256(tops.as_ptr().add(r) as *const __m256i);
            let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
            for tap in taps {
                let stride = _mm256_set1_epi32(tap.stride as i32);
                let idx = _mm256_add_epi32(
                    _mm256_mullo_epi32(top, stride),
                    _mm256_set1_epi32(tap.off as i32),
                );
                let v = _mm256_i32gather_ps::<4>(tap.src.as_ptr(), idx);
                // `max_rule` per lane: MAXPS(v, acc) is `v > acc ? v : acc`
                // (its second operand on NaN or equal zeros), and a NaN acc
                // takes `v`.
                let acc_nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(acc, acc);
                acc = _mm256_blendv_ps(_mm256_max_ps(v, acc), v, acc_nan);
            }
            _mm256_storeu_ps(out.as_mut_ptr().add(r), acc);
            r += LANES;
        }
        scalar::pool_max_fold(&tops[r..n], taps, &mut out[r..]);
    }
}

/// Unmasked i32 accumulate: `acc[i] += w * x[i]` (no overflow by caller
/// contract; wrapping on both paths keeps them identical regardless).
///
/// # Safety
///
/// Requires AVX2. `acc` and `x` must have equal length.
#[target_feature(enable = "avx2")]
pub unsafe fn qaxpy_avx2(acc: &mut [i32], x: &[i32], w: i32) {
    // SAFETY: caller guarantees equal lengths; `i + 8 <= n` bounds every
    // vector access and the remainder loop uses checked indices below n.
    unsafe {
        let n = acc.len();
        let wv = _mm256_set1_epi32(w);
        let mut i = 0;
        while i + 8 <= n {
            let xv = _mm256_loadu_si256(x.as_ptr().add(i) as *const __m256i);
            let av = _mm256_loadu_si256(acc.as_ptr().add(i) as *const __m256i);
            let sum = _mm256_add_epi32(av, _mm256_mullo_epi32(wv, xv));
            _mm256_storeu_si256(acc.as_mut_ptr().add(i) as *mut __m256i, sum);
            i += 8;
        }
        while i < n {
            let xi = *x.get_unchecked(i);
            let ai = *acc.get_unchecked(i);
            *acc.get_unchecked_mut(i) = ai.wrapping_add(w.wrapping_mul(xi));
            i += 1;
        }
    }
}
