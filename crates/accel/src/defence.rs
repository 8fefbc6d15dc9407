//! Volume-channel defences (paper §9.2).
//!
//! The paper sketches two countermeasure families and argues both are
//! non-trivial; this module implements device-side versions of each so the
//! defence ablation can measure what they buy and what they cost:
//!
//! * [`Defence::PadEdges`] — "blocking the source": activations in the
//!   boundary band of every output map are transferred *uncompressed*, so
//!   edge-truncation can never change the transfer volume (an `ABCC`
//!   pattern reads as `AAAA`). Deterministic, but pays bandwidth on every
//!   inference and must widen with the attacker's probe reach.
//! * [`Defence::RandomZeros`] — "obfuscating the detection": the encoder
//!   randomly keeps up to `max_bytes` of zeros uncompressed per tensor,
//!   adding per-run noise to every volume. Breaks the one-sided-error
//!   property the prober relies on, but the paper notes repeated trials
//!   could average it out.
//!
//! A third, scheduling-level countermeasure targets the *timing* and
//! *GEMM-dimension* channels instead of transfer volumes:
//!
//! * [`Defence::NnRearch`] — NNReArch-style schedule obfuscation (Li et
//!   al.): the compiler pads every tile loop up to a multiple of `tile`,
//!   so the psum-encode drain window and the GEMM block counts only reveal
//!   layer dimensions *rounded up to the tile size*. Transfer volumes are
//!   untouched (padded lanes hold architectural zeros the encoder still
//!   elides), so HuffDuff's volume channel sails straight through — the
//!   channel × defence matrix quantifies exactly that asymmetry.

use hd_tensor::cast;
use std::sync::atomic::{AtomicU64, Ordering};

/// Device-side volume-channel countermeasure.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum Defence {
    /// No countermeasure (the paper's threat model).
    #[default]
    None,
    /// Transfer the outer `band` cells of every output map uncompressed.
    PadEdges {
        /// Width of the protected boundary band in cells.
        band: usize,
    },
    /// Keep a per-run random number of zeros (up to `max_bytes`)
    /// uncompressed in every output tensor.
    RandomZeros {
        /// Maximum padding bytes per tensor per run.
        max_bytes: u64,
        /// Seed for the device's internal noise generator.
        seed: u64,
    },
    /// NNReArch-style schedule obfuscation: pad tile loops so timing
    /// windows and GEMM dimensions appear rounded up to `tile` multiples.
    /// Deterministic, volume-neutral, and costs dead compute cycles.
    NnRearch {
        /// Tile multiple every leaked dimension is rounded up to.
        tile: usize,
    },
}

impl Defence {
    /// The tile multiple a dimension is rounded up to under this defence
    /// (1 = no rounding). Guarded against a zero tile so callers can
    /// divide by it unconditionally.
    pub fn schedule_tile(&self) -> usize {
        match self {
            Defence::NnRearch { tile } => (*tile).max(1),
            _ => 1,
        }
    }

    /// Rounds `dim` up to this defence's schedule tile.
    pub fn pad_dim(&self, dim: usize) -> usize {
        let t = self.schedule_tile();
        dim.div_ceil(t) * t
    }
}

/// Stateful noise source for [`Defence::RandomZeros`] (xorshift; the
/// device only needs unpredictability from the attacker's viewpoint).
///
/// The state is an [`AtomicU64`] rather than a `Cell` so the simulator is
/// `Sync` and the prober can fan inferences across threads. Note the
/// generator is only *schedule-independent* when each run gets its own
/// state (see [`NoiseState::for_run`]); sharing one instance across
/// concurrent runs stays data-race-free but interleaves the stream.
#[derive(Debug, Default)]
pub struct NoiseState {
    state: AtomicU64,
}

impl Clone for NoiseState {
    fn clone(&self) -> Self {
        NoiseState {
            // hd-lint: allow(atomic-ordering) -- clone snapshots a single word; the RNG state carries no cross-thread happens-before obligations
            state: AtomicU64::new(self.state.load(Ordering::Relaxed)),
        }
    }
}

impl NoiseState {
    /// Creates the generator.
    pub fn new(seed: u64) -> Self {
        NoiseState {
            state: AtomicU64::new(seed | 1),
        }
    }

    /// Creates the generator for one device run, mixing the defence seed
    /// with a per-run discriminator (the device hashes the input image).
    ///
    /// Seeding per run — instead of streaming one generator across runs —
    /// makes the noise a pure function of `(seed, run)`: parallel and
    /// serial probe executions observe bit-identical padding no matter how
    /// runs interleave, while distinct probe images still draw distinct
    /// noise (which is what the defence needs to perturb the prober).
    pub fn for_run(seed: u64, run_discriminator: u64) -> Self {
        // SplitMix64 finalizer: avalanche the combined seed so nearby
        // discriminators (similar images) produce unrelated streams.
        let mut z = seed ^ run_discriminator ^ 0x9E37_79B9_7F4A_7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        NoiseState::new(z ^ (z >> 31))
    }

    /// Next padding amount in `0..=max`.
    pub fn next_padding(&self, max: u64) -> u64 {
        #[expect(
            clippy::expect_used,
            reason = "the closure is Some-total, so fetch_update cannot fail"
        )]
        let x = self
            .state
            // hd-lint: allow(atomic-ordering) -- the xorshift step only needs atomicity; per-run reseeding (see for_run) makes draw order irrelevant to results
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |mut x| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                Some(x)
            })
            .map(|prev| {
                let mut x = prev;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .expect("fetch_update closure never returns None");
        if max == 0 {
            0
        } else {
            x % (max + 1)
        }
    }
}

/// Extra transfer bytes the defence adds for one output tensor.
///
/// `edge_zero_cells` is the number of cells inside the protected boundary
/// band that the codec would elide (zero under `hd_tensor::nnz`), and
/// `elem_bits` the activation width.
pub fn defence_padding_bytes(
    defence: &Defence,
    noise: &NoiseState,
    edge_zero_cells: usize,
    elem_bits: u32,
) -> u64 {
    match defence {
        Defence::None => 0,
        Defence::PadEdges { .. } => {
            (cast::usize_to_u64(edge_zero_cells) * u64::from(elem_bits)).div_ceil(8)
        }
        Defence::RandomZeros { max_bytes, .. } => noise.next_padding(*max_bytes),
        // Schedule padding burns PE cycles, not DRAM bytes: padded lanes
        // hold architectural zeros the sparse encoder still elides.
        Defence::NnRearch { .. } => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_free() {
        let noise = NoiseState::new(1);
        assert_eq!(defence_padding_bytes(&Defence::None, &noise, 100, 8), 0);
    }

    #[test]
    fn pad_edges_is_deterministic_in_zero_count() {
        let noise = NoiseState::new(1);
        let d = Defence::PadEdges { band: 1 };
        assert_eq!(defence_padding_bytes(&d, &noise, 10, 8), 10);
        assert_eq!(defence_padding_bytes(&d, &noise, 10, 8), 10);
        assert_eq!(defence_padding_bytes(&d, &noise, 0, 8), 0);
    }

    #[test]
    fn random_zeros_vary_and_respect_bound() {
        let noise = NoiseState::new(42);
        let d = Defence::RandomZeros {
            max_bytes: 64,
            seed: 42,
        };
        let mut seen = std::collections::HashSet::new();
        for _ in 0..32 {
            let p = defence_padding_bytes(&d, &noise, 5, 8);
            assert!(p <= 64);
            seen.insert(p);
        }
        assert!(seen.len() > 4, "noise should vary: {seen:?}");
    }

    #[test]
    fn per_run_noise_is_pure_in_seed_and_run() {
        let a = NoiseState::for_run(7, 0xABCD);
        let b = NoiseState::for_run(7, 0xABCD);
        for _ in 0..10 {
            assert_eq!(a.next_padding(100), b.next_padding(100));
        }
        // A different run discriminator yields a different stream.
        let c = NoiseState::for_run(7, 0xABCE);
        let d = NoiseState::for_run(7, 0xABCD);
        let vc: Vec<u64> = (0..8).map(|_| c.next_padding(u64::MAX - 1)).collect();
        let vd: Vec<u64> = (0..8).map(|_| d.next_padding(u64::MAX - 1)).collect();
        assert_ne!(vc, vd);
    }

    #[test]
    fn noise_state_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<NoiseState>();
    }

    #[test]
    fn nnrearch_pads_dims_but_never_bytes() {
        let noise = NoiseState::new(1);
        let d = Defence::NnRearch { tile: 16 };
        assert_eq!(defence_padding_bytes(&d, &noise, 100, 8), 0);
        assert_eq!(d.schedule_tile(), 16);
        assert_eq!(d.pad_dim(1), 16);
        assert_eq!(d.pad_dim(16), 16);
        assert_eq!(d.pad_dim(17), 32);
        // A zero tile degrades to the identity instead of dividing by zero.
        let z = Defence::NnRearch { tile: 0 };
        assert_eq!(z.pad_dim(7), 7);
        // Non-scheduling defences never round.
        assert_eq!(Defence::None.pad_dim(7), 7);
        assert_eq!(Defence::PadEdges { band: 2 }.pad_dim(7), 7);
    }

    #[test]
    fn noise_deterministic_in_seed() {
        let a = NoiseState::new(7);
        let b = NoiseState::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_padding(100), b.next_padding(100));
        }
    }
}
