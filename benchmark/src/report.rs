//! Metric blocks shared by the solo workloads and `serve_open`.

use crate::span::{self_times, Span};
use crate::stats::{median, percentile, sorted};
use crate::Metrics;
use lusail_endpoint::StatsSnapshot;
use std::time::Instant;

/// Sets up `times` times and keeps the last: `setup_s` is the median, so it
/// is as steady as the other timings. Each set-up is dropped before the
/// next starts, as a fresh process would find it.
pub fn median_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        seconds.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&seconds))
}

/// The end-to-end metrics of an untraced run over `n` passes.
pub fn end_to_end(
    pass_ms_p10: f64,
    query_ms_geomean: f64,
    wire: &StatsSnapshot,
    n: f64,
    setup_s: f64,
) -> Metrics {
    let mut metrics = Metrics::default();
    metrics.put("pass_ms_p10", pass_ms_p10);
    metrics.put("query_ms_geomean", query_ms_geomean);
    metrics.put("wire_requests_per_pass", wire.total_requests() as f64 / n);
    metrics.put(
        "wire_kib_per_pass",
        (wire.bytes_sent + wire.bytes_returned) as f64 / 1024.0 / n,
    );
    metrics.put("setup_s", setup_s);
    metrics
}

/// The harness's own figures from the untraced stretch of a traced run:
/// `pass_ms` per pass, and the allocator counters around the stretch.
pub fn harness_metrics(
    metrics: &mut Metrics,
    pass_ms: &[f64],
    alloc_before: (u64, u64),
    alloc_after: (u64, u64),
) {
    let walls = sorted(pass_ms);
    let n = walls.len() as f64;
    metrics.put("bench.pass_ms_p50", percentile(&walls, 50.0));
    metrics.put("bench.pass_ms_p90", percentile(&walls, 90.0));
    metrics.put(
        "bench.alloc.count_per_pass",
        (alloc_after.0 - alloc_before.0) as f64 / n,
    );
    metrics.put(
        "bench.alloc.mib_per_pass",
        (alloc_after.1 - alloc_before.1) as f64 / (1024.0 * 1024.0) / n,
    );
}

/// The `endpoint.*` and `store.eval.*` metrics read off a counter window.
pub fn endpoint_metrics(metrics: &mut Metrics, wire: &StatsSnapshot, result_rows: u64, n: f64) {
    let per_pass = |count: u64| count as f64 / n;
    metrics.put(
        "endpoint.ask.requests_per_pass",
        per_pass(wire.ask_requests),
    );
    metrics.put(
        "endpoint.select.requests_per_pass",
        per_pass(wire.select_requests),
    );
    metrics.put(
        "endpoint.count.requests_per_pass",
        per_pass(wire.count_requests),
    );
    metrics.put(
        "endpoint.wire.bytes_sent_per_pass",
        per_pass(wire.bytes_sent),
    );
    metrics.put(
        "endpoint.wire.bytes_returned_per_pass",
        per_pass(wire.bytes_returned),
    );
    metrics.put(
        "endpoint.wire.rows_returned_per_pass",
        per_pass(wire.rows_returned),
    );
    metrics.put(
        "endpoint.wire.virtual_ms_per_pass",
        wire.virtual_time_ns as f64 / 1e6 / n,
    );
    metrics.put(
        "store.eval.rows_scanned_per_pass",
        per_pass(wire.rows_scanned),
    );
    metrics.put(
        "store.eval.rows_scanned_per_result_row",
        wire.rows_scanned as f64 / (result_rows as f64).max(1.0),
    );
}

/// The metrics computed from spans: endpoint time by request kind, the
/// mediator's self time and how far endpoint calls overlapped.
pub fn span_metrics(metrics: &mut Metrics, spans: &[Span], n: f64) {
    let selfs = self_times(spans);
    let ms_of = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum::<u64>() as f64
            / 1e6
            / n
    };
    metrics.put("endpoint.ask.ms_per_pass", ms_of("endpoint.ask"));
    metrics.put("endpoint.select.ms_per_pass", ms_of("endpoint.select"));
    metrics.put("endpoint.count.ms_per_pass", ms_of("endpoint.count"));
    let executes = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "core.execute");
    let mediator_ns: u64 = executes.clone().map(|(_, self_ns)| *self_ns).sum();
    metrics.put(
        "core.mediator.self_ms_per_pass",
        mediator_ns as f64 / 1e6 / n,
    );
    // Endpoint time summed over calls against the wall time those calls
    // covered (an execute span's duration minus its self time): 1 when they
    // ran one after another, towards the thread budget when the executor
    // overlapped them.
    let endpoint_ns: u64 = spans
        .iter()
        .filter(|s| s.parent != 0 && s.name.starts_with("endpoint."))
        .map(Span::duration_ns)
        .sum();
    let covered_ns = executes.clone().map(|(s, _)| s.duration_ns()).sum::<u64>() - mediator_ns;
    if covered_ns > 0 {
        metrics.put(
            "core.exec.overlap_ratio",
            endpoint_ns as f64 / covered_ns as f64,
        );
    }
}
