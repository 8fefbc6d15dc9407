//! The random-mask presets build their victims mask-first
//! (`random_mask` + `Params::init_masked`). Their parameters must be
//! bit-identical to the dense path: `Params::init` then
//! `apply_sparsity_profile` with the same seeds.

use hd_accel::{AccelConfig, Device};
use hd_bench::victims::{
    mini_profile, paper_victim, pruned_victim, quantized_victim, Model, PruneMode,
};
use hd_dnn::graph::{LayerParams, Network, Params};
use hd_dnn::prune::{apply_sparsity_profile, paper_profile, SparsityProfile};

/// Every parameter, bias and batch norm included, as bits.
fn param_bits(p: &Params) -> Vec<u32> {
    let mut bits = Vec::new();
    let mut push = |v: &[f32]| bits.extend(v.iter().map(|x| x.to_bits()));
    for lp in p.layers.iter().flatten() {
        match lp {
            LayerParams::Conv { w, b, bn } => {
                push(w.data());
                push(b.as_deref().unwrap_or(&[]));
                if let Some(a) = bn {
                    push(a.scale());
                    push(a.shift());
                }
            }
            LayerParams::DwConv { w, bn } => {
                push(w.data());
                if let Some(a) = bn {
                    push(a.scale());
                    push(a.shift());
                }
            }
            LayerParams::Linear { w, b, .. } => {
                push(w);
                push(b);
            }
        }
    }
    bits
}

/// The dense path: initialise every weight, then zero the pruned ones.
fn dense_then_mask(net: &Network, profile: &SparsityProfile, seed: u64) -> Vec<u32> {
    let mut params = Params::init(net, seed);
    apply_sparsity_profile(net, &mut params, profile, seed ^ 0xBEEF);
    param_bits(&params)
}

fn assert_preset(
    what: &str,
    (device, net): (Device, Network),
    profile: fn(&Network) -> SparsityProfile,
    seed: u64,
) {
    let want = dense_then_mask(&net, &profile(&net), seed);
    assert_eq!(param_bits(device.oracle().params), want, "{what}");
}

#[test]
fn paper_victims_match_the_dense_path() {
    for model in Model::BOTH {
        for seed in 1..=3 {
            let what = format!("paper_victim({}, {seed})", model.name());
            assert_preset(&what, paper_victim(model, seed), paper_profile, seed);
        }
    }
}

#[test]
fn unstructured_and_quantized_victims_match_the_dense_path() {
    for model in Model::BOTH {
        let what = format!("pruned_victim({}, unstructured, 0.25)", model.name());
        let victim = pruned_victim(
            model,
            PruneMode::Unstructured,
            0.25,
            23,
            AccelConfig::eyeriss_v2(),
        );
        assert_preset(&what, victim, mini_profile, 23);
    }
    let victim = quantized_victim(Model::VggS, PruneMode::Unstructured, 0.25, 7);
    assert_preset(
        "quantized_victim(VGG-S, unstructured, 0.25)",
        victim,
        mini_profile,
        7,
    );
}
