//! Codec ablation bench: prints the codec comparison and times the bitmap
//! encoder on a large activation tensor.

use hd_bench::harness;
use hd_bench::{experiments::codec_ablation, Scale};
use hd_tensor::CompressionScheme;

fn main() {
    println!("{}", codec_ablation(Scale::Fast));
    let mut values = vec![0.0f32; 512 * 16 * 16];
    for (i, v) in values.iter_mut().enumerate() {
        if i % 3 == 0 {
            *v = 1.0;
        }
    }
    for scheme in [
        CompressionScheme::Bitmap,
        CompressionScheme::RunLength { run_bits: 5 },
        CompressionScheme::Csc { offset_bits: 10 },
    ] {
        harness::report(&format!("encode_{scheme}_128k_elems"), 10, || {
            scheme.encoded_size(std::hint::black_box(&values), 8)
        });
    }
}
