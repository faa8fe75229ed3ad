//! The benchmark's vocabulary: workloads and metric names with their units.
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two equal.

/// The four workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = ["cold_plan", "warm_exec", "wan_overlap", "serve_open"];

/// End-to-end metrics `(name, unit, bound)`; lower is better for all.
/// `bound` is the share of the baseline's median a metric may worsen by.
pub const END_TO_END: [(&str, &str, f64); 6] = [
    ("pass_ms_p10", "ms", 0.20),
    ("query_ms_geomean", "ms", 0.20),
    ("wire_requests_per_pass", "count", 0.15),
    ("wire_kib_per_pass", "KiB", 0.15),
    ("peak_rss_mib", "MiB", 0.25),
    ("setup_s", "s", 0.25),
];

/// The eight bound-position shapes of a triple-pattern scan.
pub const SCAN_SHAPES: [&str; 8] = ["s__", "_p_", "__o", "sp_", "s_o", "_po", "spo", "___"];

/// Offered rates of the open loop, requests per second.
pub const RATES: [u32; 3] = [200, 400, 800];

const FIXED_PER_LAYER: [(&str, &str, &str); 58] = [
    ("core.source_selection.ms_per_pass", "ms", "lower"),
    ("core.analysis.ms_per_pass", "ms", "lower"),
    ("core.execution.ms_per_pass", "ms", "lower"),
    ("core.mediator.self_ms_per_pass", "ms", "lower"),
    ("core.gjv.check_queries_per_pass", "count", "lower"),
    ("core.decompose.subqueries_per_pass", "count", "lower"),
    ("core.cost.delayed_subqueries_per_pass", "count", "lower"),
    ("core.cache.probe_hit_share", "ratio", "higher"),
    ("core.exec.dispatch_batches_per_pass", "count", "lower"),
    ("core.exec.values_blocks_per_pass", "count", "lower"),
    ("core.exec.values_bindings_per_pass", "count", "lower"),
    ("core.exec.overlap_ratio", "ratio", "higher"),
    ("core.join.steps_per_pass", "count", "lower"),
    ("core.join.probe_rows_per_pass", "count", "lower"),
    ("core.join.output_rows_per_pass", "count", "lower"),
    ("core.join.par_hash_join_mrows_s_t1", "Mrows/s", "higher"),
    ("core.join.par_hash_join_mrows_s_t2", "Mrows/s", "higher"),
    ("core.engine.execute_us", "us", "lower"),
    ("endpoint.ask.requests_per_pass", "count", "lower"),
    ("endpoint.select.requests_per_pass", "count", "lower"),
    ("endpoint.count.requests_per_pass", "count", "lower"),
    ("endpoint.ask.ms_per_pass", "ms", "lower"),
    ("endpoint.select.ms_per_pass", "ms", "lower"),
    ("endpoint.count.ms_per_pass", "ms", "lower"),
    ("endpoint.wire.bytes_sent_per_pass", "B", "lower"),
    ("endpoint.wire.bytes_returned_per_pass", "B", "lower"),
    ("endpoint.wire.rows_returned_per_pass", "count", "lower"),
    ("endpoint.wire.virtual_ms_per_pass", "ms", "lower"),
    ("store.eval.rows_scanned_per_pass", "count", "lower"),
    ("store.eval.rows_scanned_per_result_row", "ratio", "lower"),
    ("store.btree.insert_mtriples_s", "Mtriples/s", "higher"),
    ("store.columns.build_s", "s", "lower"),
    ("store.stats.build_s", "s", "lower"),
    ("sparql.parser.parse_us", "us", "lower"),
    ("sparql.writer.write_us", "us", "lower"),
    ("sparql.solution.hash_join_mrows_s", "Mrows/s", "higher"),
    ("rdf.dictionary.encode_ns", "ns", "lower"),
    ("rdf.dictionary.lookup_ns", "ns", "lower"),
    ("rdf.dictionary.decode_ns", "ns", "lower"),
    ("rdf.dictionary.decode_ns_t2", "ns", "lower"),
    ("rdf.ntriples.parse_mtriples_s", "Mtriples/s", "higher"),
    ("server.admission.overhead_us", "us", "lower"),
    ("server.batch.overhead_us", "us", "lower"),
    ("server.http.overhead_us", "us", "lower"),
    ("server.http.render_us_per_100_rows", "us", "lower"),
    ("server.open.rate_within_limit_qps", "1/s", "higher"),
    ("server.open.lag_ms_p99", "ms", "lower"),
    ("server.admission.shed_share", "ratio", "lower"),
    ("server.batch.mean_window", "count", "higher"),
    ("server.batch.shared_hit_share", "ratio", "higher"),
    (
        "server.batch.wire_requests_saved_per_round",
        "count",
        "higher",
    ),
    ("benchdata.generate_s", "s", "lower"),
    ("bench.pass_ms_p50", "ms", "lower"),
    ("bench.pass_ms_p90", "ms", "lower"),
    ("bench.alloc.count_per_pass", "count", "lower"),
    ("bench.alloc.mib_per_pass", "MiB", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
    ("bench.oracle_s", "s", "lower"),
];

/// Per-layer metrics `(name, unit, better)`: the fixed names plus the
/// per-backend store probes and the per-rate open-loop latencies.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = FIXED_PER_LAYER
        .iter()
        .map(|&(name, unit, better)| (name.to_string(), unit, better))
        .collect();
    for backend in ["btree", "columns"] {
        for shape in SCAN_SHAPES {
            out.push((
                format!("store.{backend}.scan_ns_per_row.{shape}"),
                "ns",
                "lower",
            ));
        }
        out.push((format!("store.{backend}.eval_bgp_ms"), "ms", "lower"));
        out.push((format!("store.{backend}.eval_check_us"), "us", "lower"));
        out.push((format!("store.{backend}.bytes_per_triple"), "B", "lower"));
    }
    for rate in RATES {
        out.push((format!("server.open.lat_ms_p50_r{rate}"), "ms", "lower"));
        out.push((format!("server.open.lat_ms_p99_r{rate}"), "ms", "lower"));
    }
    out
}
