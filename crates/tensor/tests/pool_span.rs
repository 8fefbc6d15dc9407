//! `pool2d` on a span delta against a plain nested-loop pool of the whole
//! map, bit for bit: the map is the baseline (or zeros) with the delta's
//! columns written in, and the reference folds every window row by row,
//! left to right, by `simd::max_rule` (max) or a plain sum over the area
//! (average).

use hd_tensor::colspan::{ColSpan, SpanDelta};
use hd_tensor::pool::{pool2d, PoolKind};
use hd_tensor::{simd, Tensor3};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Values that tell pool bodies apart: signed zeros, infinities, NaNs of
/// both signs and two payloads, denormals.
const SPECIALS: [u32; 9] = [
    0x0000_0000,
    0x8000_0000,
    0x7f80_0000,
    0xff80_0000,
    0x7fc0_0000,
    0xffc0_0001,
    0x7f80_0001,
    0x0000_0001,
    0x8040_0000,
];

/// A map whose values are a quarter specials, the rest ordinary.
fn random_map(seed: u64, c: usize, h: usize, w: usize) -> Tensor3 {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..c * h * w)
        .map(|_| {
            if rng.gen_range(0u32..4) == 0 {
                f32::from_bits(SPECIALS[rng.gen_range(0..SPECIALS.len())])
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect();
    Tensor3::from_vec(c, h, w, data)
}

/// The whole map pooled by a nested loop over every window. Factor 1 is
/// the identity, as in `pool2d` (a fold from `-inf` would turn a NaN
/// into `-inf`).
fn naive_pool(x: &Tensor3, factor: usize, kind: PoolKind) -> Tensor3 {
    if factor == 1 {
        return x.clone();
    }
    let (out_h, out_w) = (x.h() / factor, x.w() / factor);
    let mut out = Tensor3::zeros(x.c(), out_h, out_w);
    for c in 0..x.c() {
        for p in 0..out_h {
            for q in 0..out_w {
                let mut acc = match kind {
                    PoolKind::Max => f32::NEG_INFINITY,
                    PoolKind::Avg => 0.0,
                };
                for dy in 0..factor {
                    for dx in 0..factor {
                        let v = x.at(c, p * factor + dy, q * factor + dx);
                        acc = match kind {
                            PoolKind::Max => simd::max_rule(acc, v),
                            PoolKind::Avg => acc + v,
                        };
                    }
                }
                if kind == PoolKind::Avg {
                    acc /= (factor * factor) as f32;
                }
                out.set(c, p, q, acc);
            }
        }
    }
    out
}

/// Bits of every value; an average's NaN compares as one NaN, since which
/// operand's payload a NaN sum keeps is the compiler's choice in both the
/// reference loop and the kernel.
fn bits(t: &Tensor3, kind: PoolKind) -> Vec<u32> {
    t.data()
        .iter()
        .map(|v| match kind {
            PoolKind::Avg if v.is_nan() => f32::NAN.to_bits(),
            _ => v.to_bits(),
        })
        .collect()
}

/// Pools the `lo..hi` delta of a random map over a random baseline (or
/// none), and checks it against the naive pool of the whole map.
fn check(seed: u64, (c, h, w): (usize, usize, usize), factor: usize, (lo, hi): (usize, usize)) {
    let x = random_map(seed, c, h, w);
    let base = random_map(seed ^ 0xBA5E, c, h, w);
    let delta = SpanDelta::of_cols(&x, ColSpan::new(lo, hi));
    for kind in [PoolKind::Max, PoolKind::Avg] {
        for base in [None, Some(&base)] {
            let mut map = base.cloned().unwrap_or_else(|| Tensor3::zeros(c, h, w));
            delta.write_into(&mut map);
            let want = naive_pool(&map, factor, kind);
            let base_pool = base.map(|b| naive_pool(b, factor, kind));
            let got = pool2d(&delta, base, factor, kind);
            assert_eq!(got.span(), delta.span().pool(factor, w / factor));
            let got = got.into_map(base_pool.as_ref());
            assert_eq!(
                bits(&got, kind),
                bits(&want, kind),
                "{kind:?} factor {factor} map {c}x{h}x{w} span {lo}..{hi} base {}",
                base.is_some()
            );
        }
    }
}

/// Every span of small maps whose sides are and are not multiples of the
/// factor: empty, full, touching either edge and interior, with each end
/// aligned to the factor or not.
#[test]
fn every_span_matches_the_naive_pool() {
    for factor in 1..=4 {
        for (i, &shape) in [(2, 5, 7), (1, 8, 9), (3, 4, 12), (1, 3, 2)]
            .iter()
            .enumerate()
        {
            let w = shape.2;
            for lo in 0..=w {
                for hi in lo..=w {
                    check(i as u64 * 1000 + factor as u64, shape, factor, (lo, hi));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random maps with up to a few hundred output rows (`c * h /
    /// factor`), so the kernel's 8-row steps and its tail both run, with
    /// random spans.
    #[test]
    fn random_spans_match_the_naive_pool(
        seed in 0u64..10_000,
        c in 1usize..90,
        h in 1usize..12,
        w in 1usize..20,
        factor in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lo = rng.gen_range(0..=w);
        let hi = rng.gen_range(lo..=w);
        check(seed, (c, h, w), factor, (lo, hi));
    }
}
