//! Cache-blocked single-precision GEMM for the im2col convolution backend.
//!
//! Classic three-level blocking (Goto/BLIS style): the `n` dimension is
//! split into `nc`-wide slabs, the shared `k` dimension into `kc`-deep
//! panels, and the `m` dimension into `mc`-tall blocks. Each A block and B
//! panel is repacked into contiguous micro-panels ([`MR`]- and [`NR`]-wide
//! strips) so the register-tiled micro-kernel streams both operands
//! sequentially from L1/L2 instead of striding through the source matrices.
//!
//! # Determinism contract
//!
//! [`gemm`] *accumulates into* `C` and visits the shared dimension in
//! strictly ascending order for every output element: `kc` panels are
//! processed in order, and inside the micro-kernel the accumulators are
//! loaded from `C`, updated with `j = 0, 1, 2, …` in sequence, then stored
//! back. Each `C[i][j]` therefore receives exactly the floating-point
//! addition sequence of the naive triple loop
//!
//! ```text
//! for p in 0..k { c[i][j] += a[i][p] * b[p][j]; }
//! ```
//!
//! regardless of the blocking parameters. The conv kernels rely on this to
//! produce results bit-identical to the reference loop nest (which makes the
//! simulator's DRAM traces and encode timings independent of kernel choice).

pub use crate::simd::{MR, NR};

/// Cache-blocking parameters. The defaults target a ~32 KiB L1 / ~512 KiB
/// L2 budget: one packed B panel (`kc x nc` f32) stays L2-resident while
/// `kc x MR` A strips stream through L1.
///
/// Construct custom blockings with [`GemmBlocking::new`], which rejects
/// parameters the packing layout cannot honor (`mc < MR`, `kc == 0`,
/// `nc < NR`). The fields stay public for struct-literal construction in
/// const contexts; [`gemm`] re-validates and panics on an invalid literal
/// rather than silently clamping it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GemmBlocking {
    /// Block height of A (rows of C computed per packed A block).
    pub mc: usize,
    /// Panel depth along the shared dimension.
    pub kc: usize,
    /// Slab width of B (columns of C per packed B panel).
    pub nc: usize,
}

/// Invalid [`GemmBlocking`] parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockingError {
    /// `mc` is smaller than the micro-tile height [`MR`].
    McBelowTile {
        /// Rejected value.
        got: usize,
    },
    /// `kc` is zero — no panel depth to accumulate over.
    KcZero,
    /// `nc` is smaller than the micro-tile width [`NR`].
    NcBelowTile {
        /// Rejected value.
        got: usize,
    },
}

impl std::fmt::Display for BlockingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockingError::McBelowTile { got } => {
                write!(f, "mc = {got} is below the micro-tile height {MR}")
            }
            BlockingError::KcZero => write!(f, "kc must be nonzero"),
            BlockingError::NcBelowTile { got } => {
                write!(f, "nc = {got} is below the micro-tile width {NR}")
            }
        }
    }
}

impl std::error::Error for BlockingError {}

impl GemmBlocking {
    /// Validating constructor: the packing layout needs at least one full
    /// micro-tile per block (`mc >= MR`, `nc >= NR`) and a nonzero panel
    /// depth.
    pub fn new(mc: usize, kc: usize, nc: usize) -> Result<Self, BlockingError> {
        let blk = GemmBlocking { mc, kc, nc };
        blk.validate()?;
        Ok(blk)
    }

    /// Checks the invariants [`GemmBlocking::new`] enforces.
    pub fn validate(&self) -> Result<(), BlockingError> {
        if self.mc < MR {
            return Err(BlockingError::McBelowTile { got: self.mc });
        }
        if self.kc == 0 {
            return Err(BlockingError::KcZero);
        }
        if self.nc < NR {
            return Err(BlockingError::NcBelowTile { got: self.nc });
        }
        Ok(())
    }
}

impl Default for GemmBlocking {
    fn default() -> Self {
        GemmBlocking {
            mc: 64,
            kc: 256,
            nc: 512,
        }
    }
}

/// `C += A * B` on row-major slices with explicit leading dimensions.
///
/// * `a`: `m x k`, row stride `lda`,
/// * `b`: `k x n`, row stride `ldb`,
/// * `c`: `m x n`, row stride `ldc` — read-modify-written.
///
/// Callers initialize `C` (zeros, or a bias broadcast) before the call; see
/// the module docs for the accumulation-order guarantee.
///
/// # Panics
///
/// Panics if a slice is too short for its dimensions, a leading dimension
/// is smaller than the logical row width, or `blk` fails
/// [`GemmBlocking::validate`] (struct literals bypass the validating
/// constructor; clamping them silently would hide the config bug).
#[expect(
    clippy::too_many_arguments,
    reason = "standard BLAS sgemm-style signature"
)]
pub fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    blk: &GemmBlocking,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(
        lda >= k && ldb >= n && ldc >= n,
        "leading dimension too small"
    );
    assert!(a.len() >= (m - 1) * lda + k, "A slice too short");
    assert!(c.len() >= (m - 1) * ldc + n, "C slice too short");
    if k == 0 {
        return;
    }
    assert!(b.len() >= (k - 1) * ldb + n, "B slice too short");
    assert!(
        blk.validate().is_ok(),
        "invalid GEMM blocking {blk:?}: mc >= {MR}, kc >= 1, nc >= {NR} required"
    );
    let (mc, kc, nc) = (blk.mc, blk.kc, blk.nc);

    // Packing buffers, reused across panels.
    let mut packed_a = vec![0.0f32; mc.div_ceil(MR) * MR * kc];
    let mut packed_b = vec![0.0f32; nc.div_ceil(NR) * NR * kc];

    for jc in (0..n).step_by(nc) {
        let ncb = nc.min(n - jc);
        // Ascending `pc` keeps the per-element accumulation order sequential.
        for pc in (0..k).step_by(kc) {
            let kcb = kc.min(k - pc);
            pack_b(&mut packed_b, b, ldb, pc, jc, kcb, ncb);
            for ic in (0..m).step_by(mc) {
                let mcb = mc.min(m - ic);
                pack_a(&mut packed_a, a, lda, ic, pc, mcb, kcb);
                for jr in (0..ncb).step_by(NR) {
                    let nrb = NR.min(ncb - jr);
                    let b_strip = &packed_b[(jr / NR) * NR * kcb..][..NR * kcb];
                    for ir in (0..mcb).step_by(MR) {
                        let mrb = MR.min(mcb - ir);
                        let a_strip = &packed_a[(ir / MR) * MR * kcb..][..MR * kcb];
                        let c_off = (ic + ir) * ldc + jc + jr;
                        micro_kernel(kcb, a_strip, b_strip, &mut c[c_off..], ldc, mrb, nrb);
                    }
                }
            }
        }
    }
}

/// Packs `a[ic..ic+mcb][pc..pc+kcb]` into `MR`-row strips: strip `s` holds
/// `kcb` groups of `MR` column-interleaved values (zero-padded past `mcb`).
fn pack_a(dst: &mut [f32], a: &[f32], lda: usize, ic: usize, pc: usize, mcb: usize, kcb: usize) {
    for ir in (0..mcb).step_by(MR) {
        let strip = &mut dst[(ir / MR) * MR * kcb..][..MR * kcb];
        let rows = MR.min(mcb - ir);
        // Hoisted row slices keep the transpose loop free of index
        // arithmetic and bounds checks (rows past `mcb` pack as zeros).
        let mut row: [&[f32]; MR] = [&[]; MR];
        for (i, r) in row.iter_mut().enumerate().take(rows) {
            *r = &a[(ic + ir + i) * lda + pc..][..kcb];
        }
        if rows == MR {
            for (j, g) in strip.chunks_exact_mut(MR).enumerate() {
                for (gi, r) in g.iter_mut().zip(&row) {
                    *gi = r[j];
                }
            }
        } else {
            for (j, g) in strip.chunks_exact_mut(MR).enumerate() {
                for (i, gi) in g.iter_mut().enumerate() {
                    *gi = if i < rows { row[i][j] } else { 0.0 };
                }
            }
        }
    }
}

/// Packs `b[pc..pc+kcb][jc..jc+ncb]` into `NR`-column strips: strip `s`
/// holds `kcb` rows of `NR` contiguous values (zero-padded past `ncb`).
fn pack_b(dst: &mut [f32], b: &[f32], ldb: usize, pc: usize, jc: usize, kcb: usize, ncb: usize) {
    for jr in (0..ncb).step_by(NR) {
        let strip = &mut dst[(jr / NR) * NR * kcb..][..NR * kcb];
        let cols = NR.min(ncb - jr);
        for j in 0..kcb {
            let src = &b[(pc + j) * ldb + jc + jr..][..cols];
            let g = &mut strip[j * NR..j * NR + NR];
            g[..cols].copy_from_slice(src);
            for gi in &mut g[cols..] {
                *gi = 0.0;
            }
        }
    }
}

/// `MR x NR` register tile: loads the C tile, accumulates `kcb` rank-1
/// updates in ascending `j`, stores back. `mrb`/`nrb` mask the edge tiles.
/// Dispatches to the runtime-selected vector or scalar kernel; both are
/// bit-identical by the [`crate::simd`] contract.
#[inline]
fn micro_kernel(
    kcb: usize,
    a_strip: &[f32],
    b_strip: &[f32],
    c: &mut [f32],
    ldc: usize,
    mrb: usize,
    nrb: usize,
) {
    crate::simd::gemm_micro(kcb, a_strip, b_strip, c, ldc, mrb, nrb);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Naive accumulating reference with the same per-element j order.
    fn gemm_ref(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = c[i * n + j];
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
    }

    fn random(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn matches_reference_bitwise_across_shapes() {
        // Shapes straddling every blocking edge: sub-tile, exact-tile,
        // multi-panel in each dimension.
        let blk = GemmBlocking {
            mc: 8,
            kc: 16,
            nc: 24,
        };
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 16),
            (9, 17, 33),
            (16, 24, 16),
            (21, 50, 40),
        ] {
            let a = random(m * k, 1 + m as u64);
            let b = random(k * n, 2 + n as u64);
            let mut c = random(m * n, 3 + k as u64);
            let mut c_ref = c.clone();
            gemm(m, n, k, &a, k, &b, n, &mut c, n, &blk);
            gemm_ref(m, n, k, &a, &b, &mut c_ref);
            for (idx, (x, y)) in c.iter().zip(&c_ref).enumerate() {
                assert!(
                    x.to_bits() == y.to_bits(),
                    "({m},{n},{k}) idx {idx}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn respects_leading_dimensions() {
        // Operate on an interior window of larger buffers.
        let (m, n, k) = (5, 6, 7);
        let (lda, ldb, ldc) = (k + 3, n + 2, n + 5);
        let mut rng = StdRng::seed_from_u64(9);
        let a: Vec<f32> = (0..m * lda).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * ldb).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut c = vec![0.0f32; m * ldc];
        gemm(
            m,
            n,
            k,
            &a,
            lda,
            &b,
            ldb,
            &mut c,
            ldc,
            &GemmBlocking::default(),
        );
        for i in 0..m {
            for j in 0..n {
                let mut want = 0.0f32;
                for p in 0..k {
                    want += a[i * lda + p] * b[p * ldb + j];
                }
                let got = c[i * ldc + j];
                assert!(got.to_bits() == want.to_bits(), "{got} vs {want}");
            }
            // Padding columns beyond n must be untouched.
            for j in n..ldc {
                assert_eq!(c[i * ldc + j], 0.0);
            }
        }
    }

    #[test]
    fn accumulates_into_existing_c() {
        let (m, n, k) = (2, 3, 2);
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![1.0, 0.0, 1.0, 0.0, 1.0, 1.0];
        let mut c = vec![10.0; m * n];
        gemm(m, n, k, &a, k, &b, n, &mut c, n, &GemmBlocking::default());
        assert_eq!(c, vec![11.0, 12.0, 13.0, 13.0, 14.0, 17.0]);
    }

    #[test]
    fn zero_k_is_identity() {
        let mut c = vec![1.0, 2.0];
        gemm(1, 2, 0, &[], 0, &[], 2, &mut c, 2, &GemmBlocking::default());
        assert_eq!(c, vec![1.0, 2.0]);
    }

    #[test]
    fn blocking_constructor_rejects_sub_tile_parameters() {
        // Regression: these used to be silently clamped to (MR, 1, NR)
        // inside gemm(), hiding the caller's config bug.
        assert_eq!(
            GemmBlocking::new(MR - 1, 16, 24),
            Err(BlockingError::McBelowTile { got: MR - 1 })
        );
        assert_eq!(GemmBlocking::new(8, 0, 24), Err(BlockingError::KcZero));
        assert_eq!(
            GemmBlocking::new(8, 16, NR - 2),
            Err(BlockingError::NcBelowTile { got: NR - 2 })
        );
        let ok = GemmBlocking::new(MR, 1, NR).expect("minimal blocking is valid");
        assert_eq!((ok.mc, ok.kc, ok.nc), (MR, 1, NR));
        assert!(GemmBlocking::default().validate().is_ok());
        // Errors render through Display for ConfigError-style reporting.
        assert!(BlockingError::KcZero.to_string().contains("kc"));
    }

    #[test]
    #[should_panic(expected = "invalid GEMM blocking")]
    fn gemm_panics_on_invalid_blocking_literal() {
        let blk = GemmBlocking {
            mc: 1,
            kc: 0,
            nc: 1,
        };
        let mut c = vec![0.0f32; 4];
        gemm(2, 2, 2, &[1.0; 4], 2, &[1.0; 4], 2, &mut c, 2, &blk);
    }
}
