//! NEON implementations of the [`super`] kernels (aarch64).
//!
//! NEON registers are 128-bit, so each 8-lane kernel step uses a pair of
//! `float32x4_t`/`int32x4_t` halves. Per-lane semantics match
//! [`super::scalar`] exactly: separate `mul` + `add` (no `vfmaq`).
//!
//! The masked sparse-conv block ([`super::sparse_conv_layer`]) has no
//! NEON body: until one can be compiled and tested on an aarch64 host,
//! aarch64 runs the scalar body for it in both dispatch modes.

use super::{MR, NR};
use core::arch::aarch64::*;

/// `MR x NR` register tile over full-width (`nrb == NR`) C rows.
///
/// # Safety
///
/// Requires NEON (baseline on aarch64). `a_strip` must hold `kcb * MR`
/// values, `b_strip` `kcb * NR`, and `c` must hold `NR` values at each
/// of the `mrb` (`1..=MR`) row offsets `i * ldc`.
pub unsafe fn gemm_micro_neon(
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
        // NR = 16: four 4-lane quarters per C row (16 accumulator
        // registers + 4 B + 1 broadcast of the 32 q-registers).
        let mut acc = [[vdupq_n_f32(0.0); 4]; MR];
        for i in 0..mrb {
            for (q, quarter) in acc[i].iter_mut().enumerate() {
                *quarter = vld1q_f32(c.as_ptr().add(i * ldc + 4 * q));
            }
        }
        for j in 0..kcb {
            let mut bq = [vdupq_n_f32(0.0); 4];
            for (q, quarter) in bq.iter_mut().enumerate() {
                *quarter = vld1q_f32(b_strip.as_ptr().add(j * NR + 4 * q));
            }
            for i in 0..mrb {
                let av = vdupq_n_f32(*a_strip.get_unchecked(j * MR + i));
                for (quarter, b) in acc[i].iter_mut().zip(&bq) {
                    // Separate mul + add: bit-identical to the scalar tile.
                    *quarter = vaddq_f32(*quarter, vmulq_f32(av, *b));
                }
            }
        }
        for i in 0..mrb {
            for (q, quarter) in acc[i].iter().enumerate() {
                vst1q_f32(c.as_mut_ptr().add(i * ldc + 4 * q), *quarter);
            }
        }
    }
}

/// Unmasked i32 accumulate: `acc[i] += w * x[i]` (no overflow by caller
/// contract; wrapping on both paths keeps them identical regardless).
///
/// # Safety
///
/// Requires NEON. `acc` and `x` must have equal length.
pub unsafe fn qaxpy_neon(acc: &mut [i32], x: &[i32], w: i32) {
    // SAFETY: caller guarantees equal lengths; `i + 4 <= n` bounds every
    // vector access and the remainder loop uses checked indices below n.
    unsafe {
        let n = acc.len();
        let wv = vdupq_n_s32(w);
        let mut i = 0;
        while i + 4 <= n {
            let xv = vld1q_s32(x.as_ptr().add(i));
            let av = vld1q_s32(acc.as_ptr().add(i));
            vst1q_s32(acc.as_mut_ptr().add(i), vaddq_s32(av, vmulq_s32(wv, xv)));
            i += 4;
        }
        while i < n {
            let xi = *x.get_unchecked(i);
            let ai = *acc.get_unchecked(i);
            *acc.get_unchecked_mut(i) = ai.wrapping_add(w.wrapping_mul(xi));
            i += 1;
        }
    }
}
