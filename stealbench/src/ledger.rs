//! The traced run: a per-layer ledger of one operation, timed from outside.
//!
//! Nothing inside the program is instrumented. Each target's channel model
//! is wrapped in [`Recorder`], an `ObservationModel` decorator that records
//! every observe call's interval, image and observation. The steal then
//! runs `probe`, `channel_ratios` and `finalize` one by one, exactly as
//! `attack::run` composes them, so the stage boundaries are visible.
//!
//! A replay pass afterwards re-runs an evenly spaced sample of the probe
//! images through the three paths an observation is made of:
//! `Device::try_run` (buffered), a `StreamingAnalyzer` fed from that
//! buffer, and the forward entry point the device itself would choose. The
//! replay's per-image costs give each layer's share of the observe time;
//! the shares are applied to the union of the recorded observe intervals
//! (the two workers' overlapping calls count once).

use crate::workloads::{each_target, Cell, Setup, Victim, Workload};
use hd_accel::{Device, Precision};
use hd_dnn::graph::ForwardTrace;
use hd_dnn::ForwardCache;
use hd_tensor::{ConvBackend, Shape3, Tensor3};
use hd_trace::StreamingAnalyzer;
use huffduff_core::probe::stripe_probes;
use huffduff_core::prober::probe;
use huffduff_core::solution::finalize;
use huffduff_core::timing::channel_ratios;
use huffduff_core::{
    AttackConfig, AttackOutcome, ChannelKind, ChannelRatios, Observation, ObservationModel,
    ObserveError, Pattern,
};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Probe images per target the replay pass re-runs.
pub const REPLAY_IMAGES: usize = 16;

/// Share of the traced operation the per-layer self times must cover.
pub const CLOSURE_MIN: f64 = 0.95;

/// Per-layer totals of one traced operation (summed over its targets).
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Forward-pass self seconds (hd-dnn / hd-tensor).
    pub forward_s: f64,
    /// Device simulation minus forward: event emission (hd-accel).
    pub emit_s: f64,
    /// Streaming trace analysis (hd-trace).
    pub analyze_s: f64,
    /// Observation assembly and channel projection (huffduff-core).
    pub channel_s: f64,
    /// Probe-stage time outside every observe call.
    pub classify_s: f64,
    /// `channel_ratios` seconds.
    pub timing_s: f64,
    /// `finalize` seconds.
    pub finalize_s: f64,
    /// Cold victim builds inside the operation (campaign only).
    pub build_s: f64,
    /// Probe-stage wall seconds.
    pub probe_s: f64,
    /// Summed observe-call durations (both workers).
    pub observe_busy_s: f64,
    /// Union of observe-call intervals.
    pub observe_union_s: f64,
    /// Probe wall seconds times prober workers.
    pub worker_s: f64,
    /// Replay-estimated observe busy seconds per part (sample costs scaled
    /// up): forward, emission, analysis, channel.
    pub replay_parts: [f64; 4],
    /// Observe calls.
    pub observe_calls: usize,
    /// Probe families consumed.
    pub families: usize,
    /// Families after the last one that refined any pattern.
    pub confirm_families: usize,
    /// Bus events over the replayed device runs.
    pub events: u64,
    /// Replayed device runs.
    pub replayed_runs: u64,
    /// Largest `StreamingAnalyzer::peak_pending_reads` seen.
    pub peak_pending_reads: usize,
    /// Column-span counters from the counter pass.
    pub cols_skipped: u64,
    /// Column-span counters from the counter pass.
    pub cols_recomputed: u64,
    /// Digest of simulated statistics over the replay sample.
    pub digest: u64,
}

impl Ledger {
    /// Self seconds attributed to a layer.
    pub fn attributed_s(&self) -> f64 {
        self.build_s
            + self.forward_s
            + self.emit_s
            + self.analyze_s
            + self.channel_s
            + self.classify_s
            + self.timing_s
            + self.finalize_s
    }

    /// Share of column spans the sparse forward skipped.
    pub fn cols_skipped_frac(&self) -> f64 {
        let total = self.cols_skipped + self.cols_recomputed;
        if total == 0 {
            0.0
        } else {
            self.cols_skipped as f64 / total as f64
        }
    }
}

/// One recorded observe call.
struct Call {
    start_ns: u64,
    end_ns: u64,
    key: u64,
    obs: Option<Observation>,
}

/// An `ObservationModel` decorator recording each call's interval, image
/// key and observation. Bookkeeping happens outside the timed interval.
struct Recorder<'a> {
    inner: &'a dyn ObservationModel,
    base: Instant,
    calls: Mutex<Vec<Call>>,
}

impl ObservationModel for Recorder<'_> {
    fn input_shape(&self) -> Shape3 {
        self.inner.input_shape()
    }

    fn observe(&self, image: &Tensor3) -> Result<Observation, ObserveError> {
        let start = self.base.elapsed();
        let result = self.inner.observe(image);
        let end = self.base.elapsed();
        let call = Call {
            start_ns: nanos(start),
            end_ns: nanos(end),
            key: image_key(image),
            obs: result.as_ref().ok().cloned(),
        };
        self.calls
            .lock()
            .expect("an observe call panicked while recording")
            .push(call);
        result
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// Identity of a probe image (FNV-1a over its f32 bit patterns).
fn image_key(image: &Tensor3) -> u64 {
    image.data().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x100_0000_01b3)
    })
}

fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

/// Length of the union of `[start, end)` intervals.
fn union_ns(calls: &[Call]) -> u64 {
    let mut spans: Vec<(u64, u64)> = calls.iter().map(|c| (c.start_ns, c.end_ns)).collect();
    spans.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for (s, e) in spans {
        open = match open {
            Some((os, oe)) if s <= oe => Some((os, oe.max(e))),
            Some((os, oe)) => {
                total += oe - os;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + open.map_or(0, |(s, e)| e - s)
}

/// Families after the last one that changed any refined pattern: the
/// prober's own refinement rule, replayed over the recorded signals.
/// `rows[f]` holds family `f`'s per-shift signals in shift order.
fn confirming_families(rows: &[Vec<Vec<u64>>]) -> usize {
    let mut refined: Vec<Pattern> = Vec::new();
    let mut last_changed = 0;
    for (f, family) in rows.iter().enumerate() {
        let layers = family.first().map_or(0, Vec::len);
        let mut changed = false;
        for l in 0..layers {
            let series: Vec<u64> = family.iter().map(|signal| signal[l]).collect();
            let p = Pattern::of(&series);
            if refined.len() <= l {
                refined.push(p);
                changed = true;
            } else {
                let r = refined[l].refine(&p);
                if r != refined[l] {
                    refined[l] = r;
                    changed = true;
                }
            }
        }
        if changed {
            last_changed = f;
        }
    }
    rows.len().saturating_sub(last_changed + 1)
}

/// The forward pass the device runs for `image`: INT8 devices run the
/// quantized network; f32 devices take the cached sparse path when the
/// backend policy calls the input sparse, else the configured backend.
fn device_forward(dev: &Device, image: &Tensor3, cache: &mut Option<ForwardCache>) -> ForwardTrace {
    let cfg = dev.config();
    let oracle = dev.oracle();
    if cfg.compute == Precision::Int8 {
        return oracle.net.forward_quantized(dev.quantized_net(), image);
    }
    let policy = cfg.backend_policy;
    let sparse = cfg.conv_backend == ConvBackend::SparseCsc
        || (policy.auto_sparse && policy.input_is_sparse(image.nnz(), image.shape().len()));
    if sparse {
        let cache =
            cache.get_or_insert_with(|| ForwardCache::build(oracle.net, oracle.params, policy));
        oracle.net.forward_cached(oracle.params, image, cache)
    } else {
        oracle
            .net
            .forward_with_policy(oracle.params, image, cfg.conv_backend, policy)
    }
}

/// One traced target: the steal itself, then the bookkeeping, replay and
/// counter passes, which the caller excludes from the operation wall.
fn trace_target(
    v: &Victim,
    channel: ChannelKind,
    cfg: &AttackConfig,
    cold: bool,
) -> Result<(AttackOutcome, Ledger), String> {
    let model = channel.model(&v.device);
    let shape = model.input_shape();
    let shifts = cfg.prober.shifts.min(shape.w);
    let families = stripe_probes(shape, shifts, cfg.prober.max_probes, cfg.prober.seed);
    let place: HashMap<u64, (usize, usize)> = families
        .iter()
        .enumerate()
        .flat_map(|(f, fam)| {
            fam.images
                .iter()
                .enumerate()
                .map(move |(s, img)| (image_key(img), (f, s)))
        })
        .collect();
    let workers = cfg.prober.effective_parallelism(shifts);
    let recorder = Recorder {
        inner: model.as_ref(),
        base: Instant::now(),
        calls: Mutex::new(Vec::with_capacity(place.len())),
    };

    // --- The steal: attack::run's stages, timed one by one. ---
    let t0 = Instant::now();
    let prober = probe(&recorder, &cfg.prober).map_err(|e| format!("probing failed: {e}"))?;
    let t1 = Instant::now();
    let ratios = channel_ratios(&prober).ok();
    let t2 = Instant::now();
    let ratios_for_space = ratios.clone().unwrap_or(ChannelRatios {
        baseline: 0,
        ratios: Vec::new(),
    });
    let space = finalize(
        &prober,
        &ratios_for_space,
        shape,
        cfg.classes,
        &cfg.codec,
        cfg.first_layer_max_sparsity,
        cfg.max_k,
    )
    .ok();
    let t3 = Instant::now();
    let outcome = AttackOutcome {
        prober,
        ratios,
        space,
    };

    // --- Bookkeeping over the recorded calls. ---
    let calls = recorder
        .calls
        .into_inner()
        .expect("an observe call panicked while recording");
    if calls.len() != outcome.prober.runs_used {
        return Err(format!(
            "{} observe calls recorded, prober reports {} runs",
            calls.len(),
            outcome.prober.runs_used
        ));
    }
    let mut placed: Vec<(usize, usize, &Call)> = Vec::with_capacity(calls.len());
    for c in &calls {
        let &(f, s) = place
            .get(&c.key)
            .ok_or("the prober observed an image outside its stripe families")?;
        placed.push((f, s, c));
    }
    placed.sort_by_key(|&(f, s, _)| (f, s));
    let mut rows: Vec<Vec<Vec<u64>>> = vec![Vec::new(); outcome.prober.probes_used];
    for &(f, _, c) in &placed {
        let obs = c
            .obs
            .as_ref()
            .ok_or("an observe call failed in the traced steal")?;
        rows.get_mut(f)
            .ok_or("observed family beyond the probes used")?
            .push(obs.signal_per_layer());
    }

    let probe_s = (t1 - t0).as_secs_f64();
    let union_s = secs(union_ns(&calls));
    let busy_s: f64 = calls.iter().map(|c| secs(c.end_ns - c.start_ns)).sum();
    let mut ledger = Ledger {
        classify_s: (probe_s - union_s).max(0.0),
        timing_s: (t2 - t1).as_secs_f64(),
        finalize_s: (t3 - t2).as_secs_f64(),
        probe_s,
        observe_busy_s: busy_s,
        observe_union_s: union_s,
        worker_s: probe_s * workers as f64,
        observe_calls: calls.len(),
        families: outcome.prober.probes_used,
        confirm_families: confirming_families(&rows),
        digest: 0xcbf2_9ce4_8422_2325,
        ..Ledger::default()
    };

    // --- Replay: an evenly spaced sample through the three paths. ---
    let n = placed.len();
    let take = REPLAY_IMAGES.min(n);
    let sample: Vec<(usize, usize, &Call)> = (0..take).map(|i| placed[i * n / take]).collect();
    let (mut fwd, mut emit, mut analyze, mut chan) = (0.0, 0.0, 0.0, 0.0);
    let mut cache: Option<ForwardCache> = None;
    let mut one_time = 0.0;
    if channel != ChannelKind::Gemm {
        // Build the replay's forward cache outside the timed loop. On a
        // device the operation built cold, its first observation paid for
        // that build too: time it (first forward minus a second one).
        let first = &families[0].images[0];
        let t = Instant::now();
        drop(device_forward(&v.device, first, &mut cache));
        let with_build = t.elapsed().as_secs_f64();
        let t = Instant::now();
        drop(device_forward(&v.device, first, &mut cache));
        if cold {
            one_time = (with_build - t.elapsed().as_secs_f64()).max(0.0);
        }
    }
    for &(f, s, call) in &sample {
        let image = &families[f].images[s];
        let recorded = call.obs.as_ref().ok_or("an observe call failed")?;
        if channel == ChannelKind::Gemm {
            let t = Instant::now();
            let obs = model.observe(image).map_err(|e| e.to_string())?;
            chan += t.elapsed().as_secs_f64();
            if &obs != recorded {
                return Err("replayed GEMM observation differs from the steal's".into());
            }
            continue;
        }
        let t = Instant::now();
        let trace = v.device.try_run(image).map_err(|e| e.to_string())?;
        let run_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        drop(std::hint::black_box(device_forward(
            &v.device, image, &mut cache,
        )));
        let fwd_s = t.elapsed().as_secs_f64();
        fwd += fwd_s;
        emit += (run_s - fwd_s).max(0.0);

        let t = Instant::now();
        let mut sink = StreamingAnalyzer::new();
        for e in &trace.events {
            hd_accel::TraceSink::event(&mut sink, *e);
        }
        let peak = sink.peak_pending_reads();
        let analysis = sink.finish().map_err(|e| e.to_string())?;
        analyze += t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut obs = Observation::from_trace(analysis);
        if channel != ChannelKind::Full {
            obs = obs.project(channel);
        }
        chan += t.elapsed().as_secs_f64();
        if &obs != recorded {
            return Err("replayed observation differs from the steal's".into());
        }

        let bytes: u64 = trace.events.iter().map(|e| e.bytes).sum();
        let final_ps = trace.events.last().map_or(0, |e| e.time_ps);
        let events = trace.events.len() as u64;
        ledger.digest = fold(fold(fold(ledger.digest, events), bytes), final_ps);
        ledger.events += events;
        ledger.replayed_runs += 1;
        ledger.peak_pending_reads = ledger.peak_pending_reads.max(peak);
    }

    // --- Counter pass: hd-obs on for the forward passes only. ---
    if channel != ChannelKind::Gemm {
        hd_obs::reset();
        hd_obs::set_enabled(true);
        for &(f, s, _) in &sample {
            drop(device_forward(
                &v.device,
                &families[f].images[s],
                &mut cache,
            ));
        }
        hd_obs::set_enabled(false);
        let snap = hd_obs::snapshot();
        ledger.cols_skipped = snap.counter_total("sparse_fwd.cols_skipped");
        ledger.cols_recomputed = snap.counter_total("sparse_fwd.cols_recomputed");
        hd_obs::reset();
    }

    // Scale the sample to every call, then split the observe union by the
    // replay's shares.
    let scale = n as f64 / take.max(1) as f64;
    let parts = [
        fwd * scale + one_time,
        emit * scale,
        analyze * scale,
        chan * scale,
    ];
    let total: f64 = parts.iter().sum();
    let share = |x: f64| {
        if total > 0.0 {
            union_s * x / total
        } else {
            0.0
        }
    };
    ledger.forward_s = share(parts[0]);
    ledger.emit_s = share(parts[1]);
    ledger.analyze_s = share(parts[2]);
    ledger.channel_s = share(parts[3]);
    ledger.replay_parts = parts;
    Ok((outcome, ledger))
}

fn add(into: &mut Ledger, l: &Ledger) {
    into.forward_s += l.forward_s;
    into.emit_s += l.emit_s;
    into.analyze_s += l.analyze_s;
    into.channel_s += l.channel_s;
    into.classify_s += l.classify_s;
    into.timing_s += l.timing_s;
    into.finalize_s += l.finalize_s;
    into.probe_s += l.probe_s;
    into.observe_busy_s += l.observe_busy_s;
    into.observe_union_s += l.observe_union_s;
    into.worker_s += l.worker_s;
    for (a, b) in into.replay_parts.iter_mut().zip(l.replay_parts) {
        *a += b;
    }
    into.observe_calls += l.observe_calls;
    into.families += l.families;
    into.confirm_families += l.confirm_families;
    into.events += l.events;
    into.replayed_runs += l.replayed_runs;
    into.peak_pending_reads = into.peak_pending_reads.max(l.peak_pending_reads);
    into.cols_skipped += l.cols_skipped;
    into.cols_recomputed += l.cols_recomputed;
    into.digest = fold(into.digest, l.digest);
}

/// One traced operation.
pub struct TracedOp {
    /// Operation wall seconds, excluding the replay and counter passes.
    pub wall_s: f64,
    /// The ledger.
    pub ledger: Ledger,
    /// Outcomes, one per target, in operation order.
    pub outcomes: Vec<AttackOutcome>,
}

/// Runs one traced operation.
pub fn traced_op(
    w: Workload,
    seed: u64,
    setup: &Setup,
    cfg: &AttackConfig,
) -> Result<TracedOp, String> {
    let mut ledger = Ledger {
        digest: 0xcbf2_9ce4_8422_2325,
        ..Ledger::default()
    };
    let mut outcomes = Vec::new();
    let mut excluded_s = 0.0;
    let t = Instant::now();
    ledger.build_s = each_target(w, seed, setup, |v, channel, cold| {
        let t = Instant::now();
        let (out, l) = trace_target(v, channel, cfg, cold)?;
        // Everything after the steal (bookkeeping, replay, counters) is
        // ledger work, not part of the operation.
        let steal_s = l.probe_s + l.timing_s + l.finalize_s;
        excluded_s += (t.elapsed().as_secs_f64() - steal_s).max(0.0);
        add(&mut ledger, &l);
        // Score as the untraced operation does, so both walls hold it.
        std::hint::black_box(Cell::score(v, channel, &out));
        outcomes.push(out);
        Ok(())
    })?;
    let wall_s = t.elapsed().as_secs_f64() - excluded_s;
    Ok(TracedOp {
        wall_s,
        ledger,
        outcomes,
    })
}
