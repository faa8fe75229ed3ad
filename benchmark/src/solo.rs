//! The three single-client workloads: `cold_plan`, `warm_exec` and
//! `wan_overlap`. Each is a query set executed pass after pass through
//! `Lusail::execute_with`; they differ in which layer does the work.

use crate::check::Expected;
use crate::report::{end_to_end, endpoint_metrics, harness_metrics, median_setup, span_metrics};
use crate::span::Recorder;
use crate::stats::{geomean, p10, shuffle};
use crate::timed::timed_federation;
use crate::{alloc, Metrics, Outcome, RunArgs};
use lusail_benchdata::common::Rng;
use lusail_benchdata::{lrb, lubm, qfed, Workload};
use lusail_core::{Lusail, LusailConfig, QueryResult};
use lusail_endpoint::{
    ExecOptions, Federation, NetworkProfile, StatsSnapshot, TraceEvent, TraceSink,
};
use lusail_store::BackendKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which solo workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solo {
    /// First-time queries: planning probes dominate.
    ColdPlan,
    /// Repeated queries on warm caches: scans and joins dominate.
    WarmExec,
    /// Real 1 ms sleeps per request: wire latency dominates.
    WanOverlap,
}

impl Solo {
    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Solo::ColdPlan => "cold_plan",
            Solo::WarmExec => "warm_exec",
            Solo::WanOverlap => "wan_overlap",
        }
    }

    /// Untimed passes that end set-up (the last leaves caches as the timed
    /// passes find them).
    fn warmup_passes(self) -> usize {
        match self {
            Solo::ColdPlan | Solo::WarmExec => 5,
            Solo::WanOverlap => 3,
        }
    }
}

/// One federation with the engine that queries it.
struct Part {
    workload: Workload,
    engine: Lusail,
    /// The same endpoints behind `TimedEndpoint`s (traced passes only).
    timed: Option<Federation>,
}

/// A workload ready to run passes.
pub struct SoloBench {
    kind: Solo,
    parts: Vec<Part>,
    /// `(part, query)` of every query of a pass, in generator order.
    queries: Vec<(usize, usize)>,
    opts: ExecOptions,
    /// Drop every memoized probe before each query.
    cold: bool,
    /// Shuffles the query set, once per pass.
    rng: Rng,
    /// Seconds spent inside the benchdata generators.
    generate_s: f64,
}

/// What one pass measured.
struct PassOut {
    wall_ms: f64,
    /// Latency of each query, indexed like `SoloBench::queries`.
    query_ms: Vec<f64>,
    failed: u64,
}

/// Sums over the traced passes, from `QueryMetrics`, probe-cache counters
/// and `TraceEvent`s.
#[derive(Default)]
struct Traced {
    source_selection: Duration,
    analysis: Duration,
    execution: Duration,
    check_queries: u64,
    subqueries: u64,
    delayed: u64,
    result_rows: u64,
    cache_hits: u64,
    cache_lookups: u64,
    dispatches: u64,
    values_blocks: u64,
    values_bindings: u64,
    join_steps: u64,
    join_probe_rows: u64,
    join_output_rows: u64,
}

impl Traced {
    fn add(&mut self, result: &QueryResult, events: &[TraceEvent]) {
        let m = &result.metrics;
        self.source_selection += m.source_selection;
        self.analysis += m.analysis;
        self.execution += m.execution;
        self.check_queries += m.check_queries;
        self.subqueries += m.subqueries as u64;
        self.delayed += m.delayed_subqueries as u64;
        self.result_rows += result.solutions.len() as u64;
        for event in events {
            match event {
                TraceEvent::Dispatch { .. } => self.dispatches += 1,
                TraceEvent::ValuesBatch { bindings, .. } => {
                    self.values_blocks += 1;
                    self.values_bindings += *bindings as u64;
                }
                TraceEvent::JoinStep {
                    left_rows,
                    right_rows,
                    output_rows,
                    ..
                } => {
                    self.join_steps += 1;
                    self.join_probe_rows += (*left_rows + *right_rows) as u64;
                    self.join_output_rows += *output_rows as u64;
                }
                _ => {}
            }
        }
    }
}

impl SoloBench {
    /// Everything `setup_s` covers: data generation, backend realisation,
    /// engine construction and the warm-up passes.
    pub fn setup(kind: Solo, seed: u64) -> SoloBench {
        let t0 = Instant::now();
        let workloads = match kind {
            Solo::ColdPlan => vec![gen_lrb(seed, BackendKind::Btree)],
            Solo::WarmExec => vec![
                gen_lrb(seed, BackendKind::Columns),
                gen_lubm(seed, BackendKind::Columns),
            ],
            Solo::WanOverlap => {
                let mut cfg = qfed::QfedConfig::default();
                cfg.seed ^= seed;
                cfg.profiles = Some(vec![
                    NetworkProfile {
                        latency: Duration::from_millis(1),
                        bandwidth_bytes_per_sec: Some(100_000_000 / 8),
                        sleep: true,
                    };
                    4
                ]);
                vec![qfed::generate(&cfg)]
            }
        };
        let generate_s = t0.elapsed().as_secs_f64();
        let parts: Vec<Part> = workloads
            .into_iter()
            .map(|workload| Part {
                workload,
                engine: Lusail::new(LusailConfig::default()),
                timed: None,
            })
            .collect();
        let queries = parts
            .iter()
            .enumerate()
            .flat_map(|(p, part)| (0..part.workload.queries.len()).map(move |q| (p, q)))
            .collect();
        let threads = if kind == Solo::WanOverlap { 2 } else { 1 };
        let mut bench = SoloBench {
            kind,
            parts,
            queries,
            opts: ExecOptions::default().with_threads(threads),
            cold: kind != Solo::WarmExec,
            rng: Rng::new(seed ^ 0x5EED_5A55),
            generate_s,
        };
        for _ in 0..kind.warmup_passes() {
            bench.pass(None, false, None);
        }
        bench
    }

    /// Evaluates every query on its oracle store.
    fn expected(&self) -> Vec<Expected> {
        self.queries
            .iter()
            .map(|&(p, q)| {
                let w = &self.parts[p].workload;
                Expected::from_oracle(&w.oracle, &w.queries[q].query)
            })
            .collect()
    }

    fn query_name(&self, slot: usize) -> &str {
        let (p, q) = self.queries[slot];
        &self.parts[p].workload.queries[q].name
    }

    /// Wire and store counters summed over the federations.
    fn wire(&self) -> StatsSnapshot {
        self.parts
            .iter()
            .map(|part| part.workload.federation.stats_snapshot())
            .fold(StatsSnapshot::default(), |a, b| a.plus(&b))
    }

    /// One pass over the query set in a fresh seeded order. With `expected`
    /// every answer is checked (fully when `full`); with `tracer` every
    /// query is traced.
    fn pass(
        &mut self,
        expected: Option<&[Expected]>,
        full: bool,
        mut tracer: Option<(&Arc<Recorder>, &mut Traced, usize)>,
    ) -> PassOut {
        let mut order: Vec<usize> = (0..self.queries.len()).collect();
        shuffle(&mut order, &mut self.rng);
        let mut query_ms = vec![0.0; order.len()];
        let mut failed = 0;
        let t_pass = Instant::now();
        for slot in order {
            let (p, q) = self.queries[slot];
            let part = &self.parts[p];
            let query = &part.workload.queries[q].query;
            if self.cold {
                part.engine.clear_caches();
            }
            let t_query = Instant::now();
            let result = match &mut tracer {
                None => part
                    .engine
                    .execute_with(&part.workload.federation, query, &self.opts),
                Some((rec, sums, pass_no)) => {
                    let fed = part.timed.as_ref().expect("traced federation");
                    let trace = rec.trace_id(format!(
                        "{}/{}/{}",
                        self.kind.name(),
                        pass_no,
                        part.workload.queries[q].name
                    ));
                    let before = part.engine.probe_cache_stats();
                    let sink = TraceSink::enabled();
                    let opts = self.opts.clone().with_trace(sink.clone());
                    let root = rec.open("bench.query", 0, trace);
                    let exec = rec.open("core.execute", root, trace);
                    rec.set_current(exec, trace);
                    let result = part.engine.execute_with(fed, query, &opts);
                    rec.set_current(0, 0);
                    let rows = result.as_ref().map_or(0, |r| r.solutions.len() as u64);
                    rec.close(exec, rows);
                    rec.close(root, rows);
                    if let Ok(result) = &result {
                        let after = part.engine.probe_cache_stats();
                        sums.cache_hits += after.hits - before.hits;
                        sums.cache_lookups +=
                            (after.hits + after.misses) - (before.hits + before.misses);
                        sums.add(result, &sink.events());
                    }
                    result
                }
            };
            query_ms[slot] = t_query.elapsed().as_secs_f64() * 1e3;
            let ok = match (&result, expected) {
                (Err(_), _) => false,
                (Ok(_), None) => true,
                (Ok(r), Some(exp)) if full => exp[slot].full(&r.solutions, r.complete),
                (Ok(r), Some(exp)) => exp[slot].quick(r.solutions.len(), r.complete),
            };
            if !ok {
                failed += 1;
                eprintln!(
                    "FAILED workload={} query={} ({})",
                    self.kind.name(),
                    self.query_name(slot),
                    match &result {
                        Err(e) => format!("engine error: {e:?}"),
                        Ok(r) => format!(
                            "rows={} complete={} expected_rows={}",
                            r.solutions.len(),
                            r.complete,
                            expected.map_or(0, |e| e[slot].rows())
                        ),
                    }
                );
            }
        }
        PassOut {
            wall_ms: t_pass.elapsed().as_secs_f64() * 1e3,
            query_ms,
            failed,
        }
    }

    /// Timed passes for `budget` (at least ten), or exactly `passes`.
    fn timed_passes(
        &mut self,
        expected: &[Expected],
        budget: Duration,
        passes: Option<usize>,
        mut tracer: Option<(&Arc<Recorder>, &mut Traced)>,
    ) -> Vec<PassOut> {
        const MIN_PASSES: usize = 10;
        let mut out = Vec::new();
        let t0 = Instant::now();
        loop {
            let done = match passes {
                Some(n) => out.len() >= n,
                None => out.len() >= MIN_PASSES && t0.elapsed() >= budget,
            };
            if done {
                return out;
            }
            let pass_no = out.len();
            let tracer = tracer
                .as_mut()
                .map(|(rec, sums)| (*rec, &mut **sums, pass_no));
            out.push(self.pass(Some(expected), false, tracer));
        }
    }
}

fn gen_lrb(seed: u64, backend: BackendKind) -> Workload {
    let mut cfg = lrb::LrbConfig {
        scale: 3.0,
        backend,
        ..lrb::LrbConfig::default()
    };
    cfg.seed ^= seed;
    lrb::generate(&cfg)
}

fn gen_lubm(seed: u64, backend: BackendKind) -> Workload {
    let mut cfg = lubm::LubmConfig::new(4);
    cfg.departments = 8;
    cfg.professors = 10;
    cfg.students = 100;
    cfg.backend = backend;
    cfg.seed ^= seed;
    lubm::generate(&cfg)
}

/// `(p10 of the pass time, geometric mean over queries of each query's p10)`.
fn fast_deciles(passes: &[PassOut]) -> (f64, f64) {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ms).collect();
    let per_query: Vec<f64> = (0..passes[0].query_ms.len())
        .map(|slot| p10(&passes.iter().map(|p| p.query_ms[slot]).collect::<Vec<_>>()))
        .collect();
    (p10(&walls), geomean(&per_query))
}

/// The untraced run: end-to-end metrics only.
pub fn run(kind: Solo, args: &RunArgs) -> Outcome {
    let (mut bench, setup_s) = median_setup(3, || SoloBench::setup(kind, args.seed));
    let expected = bench.expected();

    let mut attempted = 0;
    let mut failed = bench.pass(Some(&expected), true, None).failed;
    let before = bench.wire();
    let passes = bench.timed_passes(&expected, args.budget(), args.passes, None);
    let wire = bench.wire().since(&before);
    failed += passes.iter().map(|p| p.failed).sum::<u64>();
    failed += bench.pass(Some(&expected), true, None).failed;
    attempted += ((passes.len() + 2) * bench.queries.len()) as u64;

    let n = passes.len() as f64;
    let (pass_p10, query_geomean) = fast_deciles(&passes);
    let metrics = end_to_end(pass_p10, query_geomean, &wire, n, setup_s);
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// The traced run: a short untraced stretch (harness figures and the base
/// for the tracing overhead), then traced passes for the per-layer metrics.
pub fn trace(kind: Solo, args: &RunArgs) -> (Outcome, Arc<Recorder>) {
    let mut bench = SoloBench::setup(kind, args.seed);
    let t0 = Instant::now();
    let expected = bench.expected();
    let oracle_s = t0.elapsed().as_secs_f64();
    let mut failed = bench.pass(Some(&expected), true, None).failed;

    let alloc_before = alloc::snapshot();
    let plain = bench.timed_passes(&expected, args.budget().mul_f64(0.3), args.passes, None);
    let alloc_after = alloc::snapshot();

    let rec = Arc::new(Recorder::new(&format!("{}/-/-", kind.name())));
    for part in &mut bench.parts {
        part.timed = Some(timed_federation(&part.workload.federation, &rec));
    }
    let mut sums = Traced::default();
    let before = bench.wire();
    let traced = bench.timed_passes(
        &expected,
        args.budget().mul_f64(0.4),
        args.passes,
        Some((&rec, &mut sums)),
    );
    let wire = bench.wire().since(&before);
    failed += plain.iter().chain(&traced).map(|p| p.failed).sum::<u64>();
    let attempted = ((plain.len() + traced.len() + 1) * bench.queries.len()) as u64;

    let n = traced.len() as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3 / n;
    let per_pass = |count: u64| count as f64 / n;
    let mut metrics = Metrics::default();
    metrics.put(
        "core.source_selection.ms_per_pass",
        ms(sums.source_selection),
    );
    metrics.put("core.analysis.ms_per_pass", ms(sums.analysis));
    metrics.put("core.execution.ms_per_pass", ms(sums.execution));
    metrics.put(
        "core.gjv.check_queries_per_pass",
        per_pass(sums.check_queries),
    );
    metrics.put(
        "core.decompose.subqueries_per_pass",
        per_pass(sums.subqueries),
    );
    metrics.put(
        "core.cost.delayed_subqueries_per_pass",
        per_pass(sums.delayed),
    );
    metrics.put(
        "core.cache.probe_hit_share",
        sums.cache_hits as f64 / (sums.cache_lookups as f64).max(1.0),
    );
    metrics.put(
        "core.exec.dispatch_batches_per_pass",
        per_pass(sums.dispatches),
    );
    metrics.put(
        "core.exec.values_blocks_per_pass",
        per_pass(sums.values_blocks),
    );
    metrics.put(
        "core.exec.values_bindings_per_pass",
        per_pass(sums.values_bindings),
    );
    metrics.put("core.join.steps_per_pass", per_pass(sums.join_steps));
    metrics.put(
        "core.join.probe_rows_per_pass",
        per_pass(sums.join_probe_rows),
    );
    metrics.put(
        "core.join.output_rows_per_pass",
        per_pass(sums.join_output_rows),
    );
    endpoint_metrics(&mut metrics, &wire, sums.result_rows, n);
    span_metrics(&mut metrics, &rec.spans(), n);

    let (plain_p10, _) = fast_deciles(&plain);
    let (traced_p10, _) = fast_deciles(&traced);
    let walls: Vec<f64> = plain.iter().map(|p| p.wall_ms).collect();
    harness_metrics(&mut metrics, &walls, alloc_before, alloc_after);
    metrics.put("bench.trace_overhead_share", traced_p10 / plain_p10 - 1.0);
    metrics.put("bench.oracle_s", oracle_s);
    metrics.put("benchdata.generate_s", bench.generate_s);
    (
        Outcome {
            attempted,
            failed,
            metrics,
        },
        rec,
    )
}
