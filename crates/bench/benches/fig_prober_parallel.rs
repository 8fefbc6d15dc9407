//! Bench for the prober's scoped fan-out: runs the full VGG-S probe at
//! `-j1` (serial), `-j2`, `-j4`, and `-jN` (all cores), asserts every
//! `ProberResult` is bit-identical to serial, and writes the measured
//! wall-clock numbers to `BENCH_prober_parallel.json` at the repository
//! root — together with a buffered-vs-streaming memory comparison for one
//! probe trace.
//!
//! ```text
//! cargo bench -p hd-bench --bench fig_prober_parallel
//! HD_BENCH_SMOKE=1 cargo bench -p hd-bench --bench fig_prober_parallel   # CI
//! HD_BENCH_GUARD=1 cargo bench -p hd-bench --bench fig_prober_parallel   # guard
//! ```
//!
//! `HD_BENCH_GUARD=1` validates the checked-in artifact instead of timing:
//! the schema must be `v3`, and the honesty invariants must hold — a row
//! whose effective worker count is 1 carries `"speedup_vs_serial": null`,
//! and `measured_parallel_speedup` is `true` only when the recording host
//! had more than one core. A 1-core recording therefore *cannot* report a
//! measured parallel speedup; it self-describes as unmeasured instead of
//! presenting serial noise as a result. Smoke mode shrinks the probe
//! budget and, instead of writing the artifact, checks that its key paths
//! match the committed one.

use hd_bench::harness::{self, Artifact};
use hd_bench::victims::{paper_victim, Model};
use hd_obs::json::Json;
use hd_trace::StreamingAnalyzer;
use huffduff_core::prober::{probe, ProberConfig};

const ARTIFACT: Artifact = Artifact {
    bench: "fig_prober_parallel",
    name: "prober_parallel",
    schema: "hd-bench/prober-parallel/v3",
};

/// `HD_BENCH_GUARD=1`: schema/honesty validation of the recorded artifact.
fn schema_guard() {
    let json = ARTIFACT.committed();
    assert_eq!(
        json.get("schema").and_then(|s| s.as_str()),
        Some(ARTIFACT.schema),
        "artifact must carry the v3 schema tag"
    );
    let host_cores = json
        .get("host_cores")
        .and_then(|v| v.as_f64())
        .expect("host_cores present") as usize;
    assert!(host_cores >= 1);
    assert_eq!(
        json.get("results_bit_identical").and_then(|v| v.as_bool()),
        Some(true),
        "every recorded row must have matched serial bit-for-bit"
    );
    let measured = json
        .get("measured_parallel_speedup")
        .and_then(|v| v.as_bool())
        .expect("measured_parallel_speedup present");
    assert_eq!(
        measured,
        host_cores > 1,
        "a {host_cores}-core recording must declare measured_parallel_speedup = {}",
        host_cores > 1
    );

    let rows = json
        .get("rows")
        .and_then(|r| r.as_array())
        .expect("rows array");
    let ids: Vec<&str> = rows
        .iter()
        .map(|r| r.get("id").and_then(|i| i.as_str()).expect("row id"))
        .collect();
    assert_eq!(
        ids,
        ["serial", "j2", "j4", "jN"],
        "v3 artifact must record the serial, -j2, -j4, and -jN rows"
    );
    for row in rows {
        let id = row.get("id").and_then(|i| i.as_str()).unwrap_or("?");
        let workers = row
            .get("workers")
            .and_then(|w| w.as_f64())
            .expect("row workers") as usize;
        assert!(workers <= host_cores.max(1) * 64, "absurd worker count");
        let speedup = row.get("speedup_vs_serial").expect("speedup field present");
        let has_speedup = speedup.as_f64().is_some();
        if id == "serial" || workers <= 1 || !measured {
            // The honesty invariant: one effective worker (or a 1-core
            // host) measures the serial path, so no speedup may be
            // reported — the field must be null, never a number.
            assert!(
                !has_speedup,
                "row {id:?} ran on {workers} worker(s) (host_cores = {host_cores}) \
                 but reports a measured speedup"
            );
        } else {
            assert!(
                has_speedup,
                "row {id:?} ran on {workers} workers but reports no speedup"
            );
        }
    }
    assert!(
        json.get("memory")
            .and_then(|m| m.get("streaming_peak_pending_reads"))
            .and_then(|v| v.as_f64())
            .is_some(),
        "memory comparison missing"
    );
    println!(
        "guard: BENCH_prober_parallel.json schema v3 OK \
         (host_cores = {host_cores}, measured = {measured})"
    );
}

/// Buffered-vs-streaming memory for one representative probe trace: the
/// buffered path retains every bus event; the streaming analyzer, fed
/// whole transfers, peaks at one encode window of pending read transfers.
fn memory_comparison(device: &hd_accel::Device) -> (usize, usize) {
    let shape = device.input_shape();
    let mut img = hd_tensor::Tensor3::zeros(shape.c, shape.h, shape.w);
    for c in 0..shape.c {
        for y in 0..shape.h {
            img.set(c, y, 0, 1.0);
        }
    }
    let trace = device.run(&img);
    let mut sink = StreamingAnalyzer::new();
    device
        .try_run_with(&img, &mut sink)
        .expect("streaming run succeeds");
    (trace.len(), sink.peak_pending_reads())
}

fn main() {
    if harness::guard() {
        schema_guard();
        return;
    }
    let base = if harness::smoke() {
        ProberConfig {
            shifts: 8,
            max_probes: 2,
            stable_probes: 1,
            ..Default::default()
        }
    } else {
        ProberConfig::default()
    };
    let (device, _) = paper_victim(Model::VggS, 3);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // (row id, requested parallelism); None = all cores.
    let rows_cfg: [(&str, Option<usize>); 4] = [
        ("serial", Some(1)),
        ("j2", Some(2)),
        ("j4", Some(4)),
        ("jN", None),
    ];
    let mut serial_result = None;
    let mut serial_mean = 0.0;
    let mut rows = Vec::new();
    for (id, requested) in rows_cfg {
        let cfg = base.clone().with_parallelism(requested);
        let workers = cfg.effective_parallelism(cfg.shifts);
        let (result, samples) =
            harness::sample(2, || probe(&device, &cfg).expect("probe succeeds"));
        let m = samples.mean();
        match &serial_result {
            None => {
                serial_result = Some(result);
                serial_mean = m;
            }
            Some(serial) => assert_eq!(
                serial, &result,
                "{id} probe must be bit-identical to serial"
            ),
        }
        // Speedup is only a measurement when the row actually ran more
        // than one worker on more than one core; otherwise it is serial
        // noise and the artifact must say so with a null.
        let measured_row = workers > 1 && host_cores > 1;
        let speedup = (id != "serial" && measured_row).then(|| serial_mean / m);
        let speedup = speedup.map_or(Json::Null, |s| harness::round(s, 3));
        println!(
            "{id}: {m:.2}s on {workers} worker(s), speedup_vs_serial = {}",
            speedup.write()
        );
        rows.push(Json::obj(
            [
                ("id", id.into()),
                ("requested", requested.into()),
                ("workers", workers.into()),
            ]
            .into_iter()
            .chain(samples.fields())
            .chain([("speedup_vs_serial", speedup)]),
        ));
    }

    let (buffered_events, peak_pending) = memory_comparison(&device);
    println!(
        "memory: buffered trace retains {buffered_events} events; \
         streaming analyzer peaks at {peak_pending} pending reads"
    );

    let measured = host_cores > 1;
    let note = if measured {
        "speedup_vs_serial is mean serial / mean row wall-clock on this host; \
         rows whose effective worker count is 1 report null"
    } else {
        "recorded on a 1-core host: every row measures the serial path, so no \
         parallel speedup exists to report; re-record on a multicore host for \
         measured numbers"
    };
    ARTIFACT.finish(Json::obj([
        ("victim", "VGG-S".into()),
        ("measured_parallel_speedup", measured.into()),
        ("results_bit_identical", true.into()),
        ("rows", Json::Arr(rows)),
        (
            "memory",
            Json::obj([
                ("buffered_trace_events", buffered_events.into()),
                ("streaming_peak_pending_reads", peak_pending.into()),
            ]),
        ),
        ("note", note.into()),
    ]));
}
