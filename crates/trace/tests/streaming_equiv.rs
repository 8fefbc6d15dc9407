//! Differential suite: [`StreamingAnalyzer`] (and [`hd_trace::analyze`],
//! which replays a buffered trace through it) must produce a
//! `TraceAnalysis` byte-identical to the batch clustering of the paper's
//! §3.2 — sort every write by address, merge adjacent bursts into tensors,
//! order tensors by first write, then attribute each layer window's reads —
//! kept below as the test oracle. Inputs: the pinned golden-trace fixture,
//! device runs over randomly pruned networks in both probe regimes (dense
//! images and sparse stripes), and hand-built synthetic traces for window
//! boundaries, drained windows and error precedence. The streaming path must
//! also retain strictly fewer events than the trace on any multi-layer run.
//! On a device that recycles its DRAM buffers (paper footnote 4) addresses
//! are re-versioned, and the analysis must instead equal, layer for layer,
//! the oracle's analysis of the fresh-allocation trace.
//!
//! The analyzer also takes whole transfers ([`TraceSink::transfer`]), and
//! there the burst stream is the oracle: random transfer sequences, and
//! device runs under every defence with and without buffer reuse, must
//! analyze exactly as their bursts fed one by one through `event`.

use hd_accel::{AccelConfig, AccessKind, Defence, Device, Trace, TraceEvent, TraceSink, Transfer};
use hd_dnn::graph::{Network, NetworkBuilder, Params};
use hd_tensor::Tensor3;
use hd_trace::{analyze, AnalyzeTraceError, LayerObs, StreamingAnalyzer, TensorObs, TraceAnalysis};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/golden_trace.txt"
);

/// The batch clustering oracle: the analysis as a second pass over the
/// whole buffered trace.
fn batch_analyze(trace: &Trace) -> Result<TraceAnalysis, AnalyzeTraceError> {
    if trace.events.windows(2).any(|w| w[0].time_ps > w[1].time_ps) {
        return Err(AnalyzeTraceError::UnsortedEvents);
    }

    // Step 1: cluster write bursts into tensors by address adjacency.
    let mut writes: Vec<(u64, u64, u64)> = trace
        .events
        .iter()
        .filter(|e| e.kind == AccessKind::Write)
        .map(|e| (e.addr, e.bytes, e.time_ps))
        .collect();
    if writes.is_empty() {
        return Err(AnalyzeTraceError::NoWrites);
    }
    writes.sort_by_key(|&(addr, _, _)| addr);
    let mut tensors: Vec<TensorObs> = Vec::new();
    for (addr, bytes, time) in writes {
        match tensors.last_mut() {
            Some(t) if addr <= t.addr_hi => {
                t.addr_hi = t.addr_hi.max(addr + bytes);
                t.bytes = t.addr_hi - t.addr_lo;
                t.first_write_ps = t.first_write_ps.min(time);
                t.last_write_ps = t.last_write_ps.max(time);
            }
            _ => tensors.push(TensorObs {
                addr_lo: addr,
                addr_hi: addr + bytes,
                bytes,
                first_write_ps: time,
                last_write_ps: time,
            }),
        }
    }
    tensors.sort_by_key(|t| t.first_write_ps);

    // Step 2: layer i produces tensor i+1; its read phase spans from
    // tensor i's last write to tensor i+1's first write. Footprints are
    // distinct addresses, so ranges are merged.
    let mut layers: Vec<LayerObs> = Vec::new();
    for out_id in 1..tensors.len() {
        let window_lo = tensors[out_id - 1].last_write_ps;
        let window_hi = tensors[out_id].first_write_ps;
        let mut inputs = Vec::new();
        let mut weight_ranges: Vec<(u64, u64)> = Vec::new();
        let mut input_ranges: Vec<(u64, u64)> = Vec::new();
        for e in &trace.events {
            if e.kind != AccessKind::Read || e.time_ps < window_lo || e.time_ps >= window_hi {
                continue;
            }
            match tensors
                .iter()
                .position(|t| e.addr >= t.addr_lo && e.addr < t.addr_hi)
            {
                Some(src) => {
                    input_ranges.push((e.addr, e.addr + e.bytes));
                    if !inputs.contains(&src) {
                        inputs.push(src);
                    }
                }
                None => weight_ranges.push((e.addr, e.addr + e.bytes)),
            }
        }
        layers.push(LayerObs {
            index: out_id - 1,
            inputs,
            output: out_id,
            weight_bytes: merged_len(&mut weight_ranges),
            input_bytes: merged_len(&mut input_ranges),
            output_bytes: tensors[out_id].bytes,
            encode_window_ps: tensors[out_id].encode_window_ps(),
        });
    }
    Ok(TraceAnalysis { tensors, layers })
}

/// Total length of a set of byte intervals after merging overlaps.
fn merged_len(ranges: &mut [(u64, u64)]) -> u64 {
    ranges.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for &(a, b) in ranges.iter() {
        open = match open {
            Some((lo, hi)) if a <= hi => Some((lo, hi.max(b))),
            Some((lo, hi)) => {
                total += hi - lo;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + open.map_or(0, |(lo, hi)| hi - lo)
}

/// Replays a buffered trace through the streaming sink.
fn stream_trace(trace: &Trace) -> StreamingAnalyzer {
    let mut s = StreamingAnalyzer::new();
    for &e in &trace.events {
        s.event(e);
    }
    s
}

/// Asserts the sink, `analyze` and the batch oracle agree on `trace`,
/// returning the analysis.
fn assert_matches_oracle(trace: &Trace) -> Result<TraceAnalysis, AnalyzeTraceError> {
    let want = batch_analyze(trace);
    assert_eq!(stream_trace(trace).finish(), want);
    assert_eq!(analyze(trace), want);
    want
}

fn ev(time_ps: u64, addr: u64, kind: AccessKind, bytes: u64) -> TraceEvent {
    TraceEvent {
        time_ps,
        addr,
        kind,
        bytes,
    }
}

/// Distinct write addresses of a trace.
fn write_addrs(trace: &Trace) -> usize {
    let mut addrs: Vec<u64> = trace
        .events
        .iter()
        .filter(|e| e.kind == AccessKind::Write)
        .map(|e| e.addr)
        .collect();
    addrs.sort_unstable();
    addrs.dedup();
    addrs.len()
}

/// Asserts that `cfg` with DRAM buffer reuse switched on analyzes —
/// buffered and streamed — to the same layers the batch oracle finds on
/// the fresh-allocation trace: a read belongs to the newest version of its
/// address (paper footnote 4). Returns whether the reuse trace really
/// recycled a write address.
fn assert_reuse_matches_fresh(
    net: &Network,
    params: &Params,
    cfg: &AccelConfig,
    img: &Tensor3,
) -> bool {
    let fresh = Device::new(net.clone(), params.clone(), cfg.clone()).run(img);
    let want = batch_analyze(&fresh).unwrap().layers;
    let mut reuse_cfg = cfg.clone();
    reuse_cfg.reuse_activations = true;
    let reuse_dev = Device::new(net.clone(), params.clone(), reuse_cfg);
    let reuse = reuse_dev.run(img);
    assert_eq!(analyze(&reuse).unwrap().layers, want);
    let mut sink = StreamingAnalyzer::new();
    reuse_dev.try_run_with(img, &mut sink).unwrap();
    assert_eq!(sink.finish().unwrap().layers, want);
    write_addrs(&reuse) < write_addrs(&fresh)
}

/// Extracts the CSV trace sections (`== trace NAME ==` blocks) from the
/// golden fixture.
fn fixture_traces() -> Vec<(String, Trace)> {
    let text = std::fs::read_to_string(FIXTURE).expect("golden fixture present");
    let mut out = Vec::new();
    let mut name: Option<String> = None;
    let mut csv = String::new();
    for line in text.lines().chain(std::iter::once("== end ==")) {
        if let Some(rest) = line.strip_prefix("== ") {
            if let Some(n) = name.take() {
                let trace = Trace::from_csv(csv.as_bytes()).expect("fixture CSV parses");
                out.push((n, trace));
                csv.clear();
            }
            if let Some(n) = rest.strip_suffix(" ==") {
                if let Some(t) = n.strip_prefix("trace ") {
                    name = Some(t.to_string());
                }
            }
        } else if name.is_some() {
            csv.push_str(line);
            csv.push('\n');
        }
    }
    out
}

#[test]
fn golden_fixture_traces_analyze_identically() {
    let traces = fixture_traces();
    assert_eq!(traces.len(), 2, "dense + impulse sections expected");
    for (name, trace) in traces {
        let buffered = batch_analyze(&trace).expect("fixture trace analyzes");
        assert_eq!(
            analyze(&trace),
            Ok(buffered.clone()),
            "trace {name}: analyze"
        );
        let sink = stream_trace(&trace);
        assert!(
            sink.peak_pending_reads() < trace.len(),
            "{name}: streaming must retain fewer events than the trace"
        );
        let streamed = sink.finish().expect("streaming analysis succeeds");
        assert_eq!(buffered, streamed, "trace {name} diverged");
    }
}

#[test]
fn device_streaming_run_matches_buffered_run() {
    let mut b = NetworkBuilder::new(3, 12, 12);
    let x = b.input();
    let x = b.conv(x, 6, 5, 1);
    let x = b.max_pool(x, 2);
    let x = b.conv(x, 9, 3, 2);
    let x = b.global_avg_pool(x);
    b.linear(x, 4);
    let net = b.build();
    let mut params = Params::init(&net, 20230813);
    let profile = hd_dnn::prune::paper_profile(&net);
    hd_dnn::prune::apply_sparsity_profile(&net, &mut params, &profile, 0x60_1D);
    let dev = Device::new(net.clone(), params.clone(), AccelConfig::eyeriss_v2());

    let mut img = Tensor3::zeros(3, 12, 12);
    img.set(0, 0, 3, -1.0);
    img.set(1, 6, 6, 1.0);

    // Buffered: materialize the trace, then analyze.
    let trace = dev.run(&img);
    let buffered = batch_analyze(&trace).unwrap();
    // Streaming: analyze while the device emits.
    let mut sink = StreamingAnalyzer::new();
    dev.try_run_with(&img, &mut sink).unwrap();
    assert!(sink.peak_pending_reads() < trace.len());
    assert_eq!(sink.finish().unwrap(), buffered);
    assert!(
        assert_reuse_matches_fresh(&net, &params, dev.config(), &img),
        "the reuse device must recycle a write address"
    );
}

#[test]
fn vgg_s_buffer_reuse_analyzes_like_fresh_allocation() {
    // Deep enough that buffers are recycled many times over; both
    // batch-norm execution modes.
    let net = hd_dnn::zoo::vgg_s_scaled(10, 0.25);
    let mut params = Params::init(&net, 11);
    let profile = hd_dnn::prune::paper_profile(&net);
    hd_dnn::prune::apply_sparsity_profile(&net, &mut params, &profile, 12);
    let s = net.input_shape();
    let mut stripe = Tensor3::zeros(s.c, s.h, s.w);
    for y in 0..s.h {
        stripe.set(0, y, s.w / 2, 1.0);
    }
    for separate_batch_norm in [false, true] {
        let mut cfg = AccelConfig::eyeriss_v2();
        cfg.separate_batch_norm = separate_batch_norm;
        assert!(
            assert_reuse_matches_fresh(&net, &params, &cfg, &stripe),
            "separate_batch_norm = {separate_batch_norm}: the reuse device must recycle"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streaming == buffered on device traces of random pruned networks,
    /// across seeds, geometries, sparsity levels, and probe regimes; with
    /// DRAM buffer reuse on, the same layers as fresh allocation.
    #[test]
    fn streaming_equals_buffered_on_random_pruned_networks(
        seed in 0u64..1000,
        k1 in 3usize..9,
        kernel in prop_oneof![Just(1usize), Just(3usize), Just(5usize)],
        stride in 1usize..3,
        with_pool in prop_oneof![Just(false), Just(true)],
        sparsity_pct in 0u64..95,
        stripe_col in 0usize..12,
    ) {
        let mut b = NetworkBuilder::new(2, 12, 12);
        let x = b.input();
        let x = b.conv(x, k1, kernel, stride);
        let x = if with_pool { b.max_pool(x, 2) } else { x };
        let x = b.conv(x, 4, 3, 1);
        let x = b.global_avg_pool(x);
        b.linear(x, 3);
        let net = b.build();
        let mut params = Params::init(&net, seed);
        let profile = hd_dnn::prune::SparsityProfile {
            targets: net
                .weighted_nodes()
                .iter()
                .map(|&id| (id, sparsity_pct as f64 / 100.0))
                .collect(),
        };
        hd_dnn::prune::apply_sparsity_profile(&net, &mut params, &profile, seed ^ 0xBEEF);
        let dev = Device::new(net.clone(), params.clone(), AccelConfig::eyeriss_v2());

        let mut dense = Tensor3::zeros(2, 12, 12);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        dense.fill_uniform(&mut rng, 0.05, 1.0);
        let mut stripe = Tensor3::zeros(2, 12, 12);
        for y in 0..12 {
            stripe.set(0, y, stripe_col, 1.0);
        }

        for img in [&dense, &stripe] {
            let trace = dev.run(img);
            let buffered = batch_analyze(&trace).unwrap();
            prop_assert_eq!(analyze(&trace), Ok(buffered.clone()));
            let mut sink = StreamingAnalyzer::new();
            dev.try_run_with(img, &mut sink).unwrap();
            prop_assert!(sink.peak_pending_reads() < trace.len());
            prop_assert_eq!(sink.finish().unwrap(), buffered);
            prop_assert!(assert_reuse_matches_fresh(&net, &params, dev.config(), img));
            assert_transfers_analyze_like_bursts(&net, &params, img, seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Whole transfers analyze exactly as their bursts do, on random
    /// transfer sequences built to hit every fallback of the range path.
    /// A third of the cases hand some transfers over burst by burst, so
    /// single reads queue behind whole ones.
    #[test]
    fn transfers_analyze_like_their_bursts(seed in 0u64..u64::MAX) {
        let transfers = random_transfers(seed);
        let mixed = seed % 3 == 0;
        let mut whole = StreamingAnalyzer::new();
        let mut bursts = StreamingAnalyzer::new();
        let mut latest = None;
        let mut stepped_back = false;
        for (i, &t) in transfers.iter().enumerate() {
            let split = mixed && (seed >> (i % 64)) & 1 == 1;
            if !split {
                whole.transfer(t);
            }
            for i in 0..t.bursts() {
                let b = t.burst(i);
                stepped_back |= latest.is_some_and(|l| b.time_ps < l);
                latest = latest.max(Some(b.time_ps));
                bursts.event(b);
                if split {
                    whole.event(b);
                }
            }
        }
        let want = bursts.finish();
        prop_assert_eq!(stepped_back, want == Err(AnalyzeTraceError::UnsortedEvents));
        prop_assert_eq!(whole.finish(), want, "transfers {:?}", transfers);
    }
}

/// Device runs under every defence, with fresh and recycled buffers: the
/// analyzer fed whole transfers equals `analyze` of the buffered bursts.
fn assert_transfers_analyze_like_bursts(net: &Network, params: &Params, img: &Tensor3, seed: u64) {
    let defences = [
        Defence::None,
        Defence::PadEdges { band: 1 },
        Defence::RandomZeros {
            max_bytes: 96,
            seed,
        },
        Defence::NnRearch { tile: 4 },
    ];
    for defence in defences {
        for reuse_activations in [false, true] {
            let mut cfg = AccelConfig::eyeriss_v2();
            cfg.defence = defence.clone();
            cfg.reuse_activations = reuse_activations;
            let dev = Device::new(net.clone(), params.clone(), cfg);
            let want = analyze(&dev.try_run(img).unwrap());
            let mut sink = StreamingAnalyzer::new();
            dev.try_run_with(img, &mut sink).unwrap();
            assert_eq!(
                sink.finish(),
                want,
                "{defence:?}, reuse_activations = {reuse_activations}"
            );
        }
    }
}

/// A random transfer sequence over a small address grid: writes abut,
/// overlap and re-version each other (a newer tensor may cover only the
/// middle of an older one), and reads span several tensors, window edges
/// and never-written memory. Transfers mostly follow each other in time,
/// often touching (the next first burst at the previous last burst, so a
/// read's last burst lands on the next write's first), and now and then
/// step back in time. Windows of 0 and 1 ps and single-burst transfers
/// are common.
fn random_transfers(seed: u64) -> Vec<Transfer> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut clock = 0u64;
    let n = rng.gen_range(1..32);
    (0..n)
        .map(|_| {
            let kind = if rng.gen_bool(0.4) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let addr = if kind == AccessKind::Read && rng.gen_bool(0.2) {
                0x8000 + 64 * rng.gen_range(0..4u64)
            } else {
                0x1000 + 48 * rng.gen_range(0..16u64)
            };
            let first_ps = if rng.gen_bool(0.02) {
                clock.saturating_sub(rng.gen_range(1..50u64))
            } else if rng.gen_bool(0.3) {
                clock
            } else {
                clock + rng.gen_range(1..200u64)
            };
            let offset_ps = rng.gen_range(0..=first_ps.min(20));
            let t = Transfer {
                start_ps: first_ps - offset_ps,
                offset_ps,
                window_ps: match rng.gen_range(0..4) {
                    0 => 0,
                    1 => 1,
                    _ => rng.gen_range(2..400u64),
                },
                addr,
                bytes: rng.gen_range(1..=320u64),
                burst_bytes: [1, 7, 16, 64][rng.gen_range(0..4usize)],
                kind,
            };
            clock = clock.max(t.last_burst().time_ps);
            t
        })
        .collect()
}

#[test]
fn synthetic_layer_attributes_weight_and_input_reads() {
    // Input tensor, weight read, input read, output tensor.
    let t = Trace {
        events: vec![
            ev(0, 0x8000, AccessKind::Write, 64),
            ev(10, 0x8040, AccessKind::Write, 64),
            ev(100, 0x1000, AccessKind::Read, 32),
            ev(120, 0x8000, AccessKind::Read, 128),
            ev(200, 0x9000_0000, AccessKind::Write, 96),
        ],
    };
    let a = assert_matches_oracle(&t).unwrap();
    assert_eq!(a.layers[0].weight_bytes, 32);
    assert_eq!(a.layers[0].input_bytes, 128);
    assert_eq!(a.layers[0].inputs, vec![0]);
}

#[test]
fn pending_reads_are_bounded_by_one_window() {
    let mut events = vec![ev(0, 0x8000, AccessKind::Write, 64)];
    // Three layers, two reads each.
    for l in 0..3u64 {
        for r in 0..2u64 {
            events.push(ev(
                100 * l + 10 + r,
                0x1000 + 0x100 * l,
                AccessKind::Read,
                8,
            ));
        }
        events.push(ev(100 * l + 50, 0x9_0000 * (l + 1), AccessKind::Write, 16));
    }
    let t = Trace { events };
    assert_eq!(
        stream_trace(&t).peak_pending_reads(),
        2,
        "windows must drain"
    );
    assert_matches_oracle(&t).unwrap();
}

#[test]
fn read_at_window_boundary_goes_to_the_next_layer() {
    // A read whose timestamp equals the next tensor's first write belongs
    // to the next, half-open window.
    let t = Trace {
        events: vec![
            ev(0, 0x8000, AccessKind::Write, 64),
            ev(50, 0x8000, AccessKind::Read, 64),
            ev(50, 0x9_0000, AccessKind::Write, 32),
            ev(80, 0x8000, AccessKind::Read, 64),
            ev(90, 0xA_0000, AccessKind::Write, 32),
        ],
    };
    assert_matches_oracle(&t).unwrap();
}

#[test]
fn unsorted_events_take_precedence_over_no_writes() {
    assert_eq!(
        assert_matches_oracle(&Trace::default()),
        Err(AnalyzeTraceError::NoWrites)
    );
    let reads_only = Trace {
        events: vec![
            ev(10, 0x1000, AccessKind::Read, 8),
            ev(5, 0x2000, AccessKind::Read, 8),
        ],
    };
    assert_eq!(
        assert_matches_oracle(&reads_only),
        Err(AnalyzeTraceError::UnsortedEvents)
    );
}
