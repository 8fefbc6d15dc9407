//! Portable scalar fallback for the [`super`] kernels.
//!
//! Written over explicit-width lane types ([`f32x8`], [`i32x8`]) whose
//! operations are plain per-lane scalar expressions — the semantic
//! specification the `std::arch` kernels must match lane for lane. This
//! path is what `HD_SIMD=0` (and any host without AVX2/NEON) runs, so it
//! is kept allocation-free and auto-vectorizer-friendly but never relies
//! on vectorization for correctness.

use super::{conv_init, max_rule, PoolTap, LANES, MR, NR};
use crate::csc_conv::SparseFilters;

/// Eight f32 lanes with per-lane scalar semantics.
#[expect(
    non_camel_case_types,
    reason = "lane types follow the f32x8 convention"
)]
#[derive(Clone, Copy, Debug)]
pub struct f32x8(pub [f32; 8]);

impl f32x8 {
    /// Broadcasts `v` to all lanes.
    #[inline]
    pub fn splat(v: f32) -> Self {
        f32x8([v; 8])
    }

    /// Per lane: `self + w * x[l]` where `x[l] != 0.0`, else `self` —
    /// the masked multiply-add of the sparse conv (separate multiply and
    /// add, no fused multiply-add; `!=` is true for NaN, matching the
    /// reference's `if x != 0.0` test). Reads the first eight values of
    /// `x`. One fused `while` loop: unoptimized builds (the test suites
    /// under `HD_SIMD=0`) would otherwise pay a call per lane operation.
    #[inline]
    pub fn add_scaled_nonzero(self, w: f32, x: &[f32]) -> Self {
        let x = &x[..8];
        let mut r = self.0;
        let mut l = 0;
        while l < 8 {
            if x[l] != 0.0 {
                r[l] += w * x[l];
            }
            l += 1;
        }
        f32x8(r)
    }
}

/// Eight i32 lanes with per-lane scalar semantics.
#[expect(
    non_camel_case_types,
    reason = "lane types follow the i32x8 convention"
)]
#[derive(Clone, Copy, Debug)]
pub struct i32x8(pub [i32; 8]);

impl i32x8 {
    /// Broadcasts `v` to all lanes.
    #[inline]
    pub fn splat(v: i32) -> Self {
        i32x8([v; 8])
    }

    /// Loads eight lanes from the front of `s`.
    #[inline]
    pub fn load(s: &[i32]) -> Self {
        let mut lanes = [0i32; 8];
        lanes.copy_from_slice(&s[..8]);
        i32x8(lanes)
    }

    /// Stores the lanes to the front of `d`.
    #[inline]
    pub fn store(self, d: &mut [i32]) {
        d[..8].copy_from_slice(&self.0);
    }

    /// Lanewise multiply (must not overflow).
    #[inline]
    #[expect(
        clippy::should_implement_trait,
        reason = "named method, not an operator: lane math stays grep-able"
    )]
    pub fn mul(self, o: Self) -> Self {
        let mut r = self.0;
        for (a, b) in r.iter_mut().zip(&o.0) {
            *a = a.wrapping_mul(*b);
        }
        i32x8(r)
    }

    /// Lanewise add (must not overflow).
    #[inline]
    #[expect(
        clippy::should_implement_trait,
        reason = "named method, not an operator: lane math stays grep-able"
    )]
    pub fn add(self, o: Self) -> Self {
        let mut r = self.0;
        for (a, b) in r.iter_mut().zip(&o.0) {
            *a = a.wrapping_add(*b);
        }
        i32x8(r)
    }
}

/// Scalar `MR x NR` register tile: load C, accumulate ascending `j`,
/// store back. The tile is processed in 8-lane column chunks so the live
/// accumulator set fits a 128-bit register file — per output element the
/// `j` accumulation order is identical either way, so chunking cannot
/// change a single bit.
pub fn gemm_micro(
    kcb: usize,
    a_strip: &[f32],
    b_strip: &[f32],
    c: &mut [f32],
    ldc: usize,
    mrb: usize,
    nrb: usize,
) {
    let mut j0 = 0;
    while j0 < nrb {
        let w = 8.min(nrb - j0);
        let mut acc = [[0.0f32; 8]; MR];
        for (i, row) in acc.iter_mut().enumerate().take(mrb) {
            row[..w].copy_from_slice(&c[i * ldc + j0..i * ldc + j0 + w]);
        }
        if w == 8 {
            // Fixed-width hot path: full 8-lane chunks of a tile.
            for j in 0..kcb {
                let av = &a_strip[j * MR..j * MR + MR];
                let bv = &b_strip[j * NR + j0..j * NR + j0 + 8];
                for (i, row) in acc.iter_mut().enumerate() {
                    let ai = av[i];
                    for (x, bj) in row.iter_mut().zip(bv) {
                        *x += ai * bj;
                    }
                }
            }
        } else {
            for j in 0..kcb {
                let av = &a_strip[j * MR..j * MR + MR];
                let bv = &b_strip[j * NR + j0..j * NR + j0 + w];
                for (i, row) in acc.iter_mut().enumerate() {
                    let ai = av[i];
                    for (x, bj) in row[..w].iter_mut().zip(bv) {
                        *x += ai * bj;
                    }
                }
            }
        }
        for (i, row) in acc.iter().enumerate().take(mrb) {
            c[i * ldc + j0..i * ldc + j0 + w].copy_from_slice(&row[..w]);
        }
        j0 += w;
    }
}

/// Every filter of a layer at one block position of the column-stationary
/// sparse conv, in filter order: filter `k` runs `sparse_conv_block`
/// from its bias, and its block goes to `emit(k, &block)`.
pub fn sparse_conv_filters<const NC: usize, const NV: usize>(
    tile: &[f32],
    origins: [usize; NC],
    filters: &SparseFilters,
    bias: Option<&[f32]>,
    emit: &mut impl FnMut(usize, &[[[f32; LANES]; NV]; NC]),
) {
    for k in 0..filters.k() {
        let (offs, vals) = filters.filter(k);
        emit(
            k,
            &sparse_conv_block(tile, origins, offs, vals, conv_init(bias, k)),
        );
    }
}

/// Scalar register block of the column-stationary sparse conv: per
/// nonzero, one weight feeds `NC * NV` masked lane updates (the
/// lane-typed form of `if x != 0.0 { acc += w * x }`), row vector `v` of
/// column `c` reading `tile[origins[c] + offs[n] + v * LANES..]`.
fn sparse_conv_block<const NC: usize, const NV: usize>(
    tile: &[f32],
    origins: [usize; NC],
    offs: &[u32],
    vals: &[f32],
    init: f32,
) -> [[[f32; LANES]; NV]; NC] {
    let mut acc = [[f32x8::splat(init); NV]; NC];
    for (&o, &w) in offs.iter().zip(vals) {
        for (col, &origin) in acc.iter_mut().zip(&origins) {
            let at = origin + o as usize;
            for (v, a) in col.iter_mut().enumerate() {
                *a = a.add_scaled_nonzero(w, &tile[at + v * LANES..]);
            }
        }
    }
    acc.map(|col| col.map(|a| a.0))
}

/// Scalar unmasked i32 accumulate: `acc[i] += w * x[i]`.
pub fn qaxpy(acc: &mut [i32], x: &[i32], w: i32) {
    let wv = i32x8::splat(w);
    let mut chunks = acc.chunks_exact_mut(8);
    let mut xchunks = x.chunks_exact(8);
    for (a8, x8) in (&mut chunks).zip(&mut xchunks) {
        let av = i32x8::load(a8);
        let xv = i32x8::load(x8);
        av.add(wv.mul(xv)).store(a8);
    }
    for (a, &xv) in chunks.into_remainder().iter_mut().zip(xchunks.remainder()) {
        *a = a.wrapping_add(w.wrapping_mul(xv));
    }
}

/// Scalar column-major max fold: each tap is folded down every output
/// row by [`max_rule`] before the next tap, so each row sees the taps in
/// order. `tops` holds the first input row of each of `out`'s windows.
pub fn pool_max_fold(tops: &[u32], taps: &[PoolTap], out: &mut [f32]) {
    out.fill(f32::NEG_INFINITY);
    for tap in taps {
        for (acc, &top) in out.iter_mut().zip(tops) {
            *acc = max_rule(*acc, tap.read(top));
        }
    }
}

/// Scalar column-major sum fold, tap by tap as [`pool_max_fold`].
pub fn pool_sum_fold(tops: &[u32], taps: &[PoolTap], out: &mut [f32]) {
    out.fill(0.0);
    for tap in taps {
        for (acc, &top) in out.iter_mut().zip(tops) {
            *acc += tap.read(top);
        }
    }
}
