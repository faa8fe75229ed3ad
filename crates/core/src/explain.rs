//! `EXPLAIN`: run the engine's planner (`Lusail::plan` — source selection,
//! LADE, cost model) without executing, and render the plan it returned:
//! the very [`QueryPlan`] execution walks, nested groups included.
//!
//! `EXPLAIN ANALYZE` goes further: it *executes* the query with an
//! enabled [`TraceSink`] and renders the plan that ran, with the function
//! `EXPLAIN` uses, annotated with what actually happened — each
//! subquery's actual rows beside its estimate, and each source it was
//! fetched whole from instead of sent `VALUES` blocks, marked `(whole)` —
//! after the request counts per kind
//! (aggregated, because concurrent request events arrive unordered) and
//! before the VALUES-block traffic, each hash-join step with its planned
//! cost, and the phase wall times.
//! All wall times come from the engine's injectable
//! [`Clock`](lusail_endpoint::Clock), so under the test `ManualClock` the
//! render is byte-identical across runs.
//!
//! Used by the CLI's `explain` subcommand and by tests that assert on
//! planning decisions without paying for execution.

use crate::cache::ProbeCaches;
use crate::cost::Schedule;
use crate::engine::{Lusail, PlanShape, QueryPlan};
use crate::exec::Net;
use crate::metrics::QueryMetrics;
use crate::trace::{QueryTrace, RequestKind, TraceEvent, TraceSink};
use lusail_endpoint::{EndpointId, ExecOptions, Federation, FederationError};
use lusail_rdf::Dictionary;
use lusail_sparql::ast::{PatternTerm, Query, TriplePattern};
use std::collections::BTreeMap;
use std::fmt::Write as _;

impl QueryPlan {
    /// Renders the plan as indented text: source selection, the WHERE
    /// group's plan, and each nested group's subqueries indented under its
    /// own line, in the order execution evaluates them.
    pub fn render(&self, fed: &Federation) -> String {
        self.render_run(fed, None)
    }

    /// The one rendering of a plan, for `EXPLAIN` and `EXPLAIN ANALYZE`
    /// alike. With `run`, the trace of the execution that walked this
    /// plan, each subquery line also says how many rows it returned and
    /// which sources it was fetched whole from.
    fn render_run(&self, fed: &Federation, run: Option<&QueryTrace>) -> String {
        let dict = fed.dict();
        let names = |ids: &[EndpointId]| -> String {
            let names: Vec<&str> = ids.iter().map(|&id| fed.endpoint(id).name()).collect();
            names.join(", ")
        };
        let mut out = String::new();
        let _ = writeln!(out, "source selection:");
        for (tp, srcs) in self.sources.iter() {
            let _ = writeln!(out, "  {}  @ [{}]", render_pattern(tp, dict), names(srcs));
        }
        let _ = writeln!(
            out,
            "global join variables: [{}]  ({} check queries)",
            self.groups[0].gjvs.join(", "),
            self.metrics.check_queries
        );
        for group in &self.groups {
            let (head, gjvs) = match group.depth {
                0 => ("plan".to_string(), String::new()),
                depth => (
                    format!("{}group at depth {depth}", "  ".repeat(depth)),
                    format!("  (global join variables: [{}])", group.gjvs.join(", ")),
                ),
            };
            let subqueries = match &group.shape {
                PlanShape::Decomposed { subqueries, .. } => subqueries,
                PlanShape::Empty => {
                    let _ = writeln!(
                        out,
                        "{head}: EMPTY — a required pattern has no relevant source; \
                         the answer is empty without further requests"
                    );
                    continue;
                }
                PlanShape::Disjoint { .. } => {
                    let _ = writeln!(
                        out,
                        "{head}: DISJOINT — ship the whole query to every relevant \
                         endpoint and concatenate"
                    );
                    continue;
                }
            };
            let _ = writeln!(out, "{head}: {} subqueries{gjvs}", subqueries.len());
            let indent = "  ".repeat(group.depth + 1);
            for planned in subqueries {
                let (index, sq) = (planned.index, &planned.subquery);
                let mode = match &planned.schedule {
                    Schedule::Concurrent => "[concurrent]".to_string(),
                    Schedule::Delayed(reason) => format!("[DELAYED: {reason}]"),
                    Schedule::Promoted(reason) => {
                        format!("[DELAYED: {reason}] [promoted to concurrent]")
                    }
                };
                let estimate = match planned.estimate {
                    Some(c) => format!("est. cardinality {c}"),
                    None => "not estimated".to_string(),
                };
                let actual = actual_rows(run, index);
                // A source SAPE fetched whole instead of shipping bindings
                // to is marked `(whole)`.
                let whole = run
                    .map(|trace| trace.whole_fetched(index))
                    .unwrap_or_default();
                let sources: Vec<String> = (sq.sources.iter())
                    .map(|&id| {
                        let name = fed.endpoint(id).name();
                        match whole.contains(&id) {
                            true => format!("{name} (whole)"),
                            false => name.to_string(),
                        }
                    })
                    .collect();
                let _ = writeln!(
                    out,
                    "{indent}subquery {} {mode}  {estimate}{actual}  @ [{}]",
                    index + 1,
                    sources.join(", ")
                );
                for tp in &sq.triples {
                    let _ = writeln!(out, "{indent}    {}", render_pattern(tp, dict));
                }
                let _ = writeln!(out, "{indent}    project: ?{}", sq.projection.join(" ?"));
            }
        }
        out
    }
}

/// The run's annotation of subquery `index`'s plan line, after its
/// estimate: the rows it returned, or that it was not evaluated.
fn actual_rows(run: Option<&QueryTrace>, index: usize) -> String {
    let Some(trace) = run else {
        return String::new();
    };
    let rows = trace.events.iter().find_map(|ev| match ev {
        TraceEvent::SubqueryEvaluated { index: i, rows } if *i == index => Some(rows),
        _ => None,
    });
    match rows {
        Some(rows) => format!("  actual rows {rows}"),
        None => "  not evaluated".to_string(),
    }
}

fn render_pattern(tp: &TriplePattern, dict: &Dictionary) -> String {
    let term = |t: &PatternTerm| match t {
        PatternTerm::Var(v) => format!("?{v}"),
        PatternTerm::Const(id) => dict.decode(*id).to_string(),
    };
    format!("{} {} {}", term(&tp.s), term(&tp.p), term(&tp.o))
}

impl Lusail {
    /// Produces the compile-time plan for `query` without executing it:
    /// the very plan execution would run, so the two cannot disagree.
    /// Probes (COUNT / check) do run against the endpoints, exactly as
    /// execution would issue them, but are memoized in throw-away caches —
    /// EXPLAIN never warms the engine.
    pub fn explain(&self, fed: &Federation, query: &Query) -> QueryPlan {
        let net = Net::for_query(self.policy, self.timing_clock(), &ExecOptions::default());
        self.plan(fed, query, &ProbeCaches::new(None), &net)
    }

    /// `EXPLAIN ANALYZE`: executes `query` under `opts` (its worker budget
    /// and deadline) with tracing force-enabled (any sink in `opts.trace`
    /// is replaced by the report's own), and renders the plan that ran
    /// with what the run measured. The query *does* run in full — results
    /// are discarded, the trace is kept. The report is byte-identical at
    /// every thread budget.
    pub fn explain_analyze_with(
        &self,
        fed: &Federation,
        query: &Query,
        opts: &ExecOptions,
    ) -> Result<String, FederationError> {
        let sink = TraceSink::enabled();
        let opts = opts.clone().with_trace(sink.clone());
        let (result, plan) = self.execute_on(fed, query, &opts, None)?;
        let trace = QueryTrace::from_sink(&sink);
        Ok(render_analyze(&plan, fed, &trace, &result.metrics))
    }
}

/// Renders the `EXPLAIN ANALYZE` report of a finished run: the request
/// counts, the executed `plan` annotated from `trace`, then the run's
/// values traffic, joins, resilience and statistics activity. Request
/// events are aggregated per kind (their emission order is not
/// deterministic under concurrency). `metrics` adds the phase wall-time
/// line.
fn render_analyze(
    plan: &QueryPlan,
    fed: &Federation,
    trace: &QueryTrace,
    metrics: &QueryMetrics,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "EXPLAIN ANALYZE");

    let _ = writeln!(out, "requests:");
    for kind in RequestKind::ALL {
        let s = trace.requests(kind);
        let _ = writeln!(
            out,
            "  {:<6}  {} requests  {} wire attempts  {} failed",
            kind.name(),
            s.requests,
            s.attempts,
            s.failures
        );
    }
    out.push_str(&plan.render_run(fed, Some(trace)));

    let (blocks, bindings) = trace.values_batch_totals();
    if blocks > 0 {
        let _ = writeln!(
            out,
            "values traffic: {blocks} block(s), {bindings} binding(s)"
        );
    }

    let joins = trace.join_steps();
    if !joins.is_empty() {
        let _ = writeln!(out, "joins:");
        for (i, ev) in joins.iter().enumerate() {
            if let TraceEvent::JoinStep {
                left_rows,
                right_rows,
                output_rows,
                cost,
            } = ev
            {
                let _ = writeln!(
                    out,
                    "  step {}: {} x {} -> {} rows  (cost {:.1})",
                    i + 1,
                    left_rows,
                    right_rows,
                    output_rows,
                    cost
                );
            }
        }
    }

    // Resilience activity (circuit transitions and failovers) is
    // aggregated into sorted counts: the events are emitted by concurrent
    // workers, so their order is not deterministic but their multiset is.
    // The section is omitted entirely on a fault-free run, keeping the
    // fault-free goldens byte-identical.
    if trace.has_resilience_events() {
        let _ = writeln!(out, "resilience:");
        let mut health: BTreeMap<(usize, &str, &str), u64> = BTreeMap::new();
        let mut failovers: BTreeMap<(usize, usize, &str), u64> = BTreeMap::new();
        for ev in &trace.events {
            match ev {
                TraceEvent::HealthTransition { endpoint, from, to } => {
                    *health
                        .entry((*endpoint, from.name(), to.name()))
                        .or_default() += 1;
                }
                TraceEvent::FailedOver { from, to, kind, .. } => {
                    *failovers.entry((*from, *to, kind.name())).or_default() += 1;
                }
                _ => {}
            }
        }
        for ((ep, from, to), n) in &health {
            let _ = writeln!(out, "  health: endpoint {ep} {from} -> {to}  ({n}x)");
        }
        for ((from, to, kind), n) in &failovers {
            let _ = writeln!(out, "  failover: endpoint {from} -> {to} on {kind}  ({n}x)");
        }
    }

    // Statistics activity: what the offline summaries answered locally
    // (each line-item elided exactly one wire probe of that kind). The
    // section is omitted when the run had no statistics attached, keeping
    // the stats-free goldens byte-identical.
    if trace.has_stats_events() {
        let _ = writeln!(out, "statistics:");
        if let Some((endpoints, sets)) = trace.stats_loaded() {
            let _ = writeln!(
                out,
                "  loaded: {endpoints} endpoint(s), {sets} characteristic set(s)"
            );
        }
        let _ = writeln!(
            out,
            "  answered locally: ask {}, count {}, check {}  (probes elided: {})",
            trace.stats_answered(RequestKind::Ask),
            trace.stats_answered(RequestKind::Count),
            trace.stats_answered(RequestKind::Check),
            trace.stats_answered(RequestKind::Ask)
                + trace.stats_answered(RequestKind::Count)
                + trace.stats_answered(RequestKind::Check),
        );
    }

    let _ = writeln!(
        out,
        "phases: source selection {:?}, analysis {:?}, execution {:?}, total {:?}",
        metrics.source_selection, metrics.analysis, metrics.execution, metrics.total
    );

    match trace
        .events
        .iter()
        .find(|ev| matches!(ev, TraceEvent::QueryFinished { .. }))
    {
        Some(TraceEvent::QueryFinished { rows, complete }) => {
            let _ = writeln!(out, "result: {rows} rows  complete: {complete}");
        }
        _ => {
            let _ = writeln!(out, "result: <no query-finished event>");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_endpoint::LocalEndpoint;
    use lusail_rdf::Term;
    use lusail_sparql::parse_query;
    use lusail_store::TripleStore;
    use std::sync::Arc;

    fn fed() -> Federation {
        let dict = Dictionary::shared();
        let mut a = TripleStore::new(Arc::clone(&dict));
        a.insert_terms(
            &Term::iri("http://a/s"),
            &Term::iri("http://x/p"),
            &Term::iri("http://a/v"),
        );
        let mut b = TripleStore::new(Arc::clone(&dict));
        b.insert_terms(
            &Term::iri("http://a/v"),
            &Term::iri("http://x/q"),
            &Term::iri("http://b/o"),
        );
        let mut fed = Federation::new(dict);
        fed.add(Arc::new(LocalEndpoint::new("A", a)));
        fed.add(Arc::new(LocalEndpoint::new("B", b)));
        fed
    }

    #[test]
    fn explain_renders_gjvs_and_subqueries() {
        let f = fed();
        let q = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
            f.dict(),
        )
        .unwrap();
        let engine = Lusail::default();
        let plan = engine.explain(&f, &q);
        assert_eq!(plan.groups[0].gjvs, ["v"]);
        assert_eq!(plan.groups[0].subqueries().len(), 2);
        let text = plan.render(&f);
        assert!(text.contains("global join variables: [v]"));
        assert!(text.contains("subquery 1"));
        assert!(text.contains("?v <http://x/q> ?o"));
    }

    #[test]
    fn explain_detects_disjoint_plan() {
        let f = fed();
        let q = parse_query("SELECT * WHERE { ?s <http://x/p> ?v }", f.dict()).unwrap();
        let engine = Lusail::default();
        let plan = engine.explain(&f, &q);
        assert!(matches!(plan.groups[0].shape, PlanShape::Disjoint { .. }));
        assert!(plan.render(&f).contains("DISJOINT"));
    }

    #[test]
    fn golden_render_with_delayed_and_concurrent_phases() {
        // A deterministic plan exercising both execution phases: subquery
        // 1 matches ten triples at A while subquery 2 matches one at B, so
        // the two-point dominance rule delays the big one. The render is
        // pinned verbatim — it is the CLI `explain` output and the
        // differential repro's plan section, so format drift should be a
        // conscious choice.
        let dict = Dictionary::shared();
        let mut a = TripleStore::new(Arc::clone(&dict));
        for i in 0..10 {
            a.insert_terms(
                &Term::iri(format!("http://a/s{i}")),
                &Term::iri("http://x/p"),
                &Term::iri("http://b/v"),
            );
        }
        let mut b = TripleStore::new(Arc::clone(&dict));
        b.insert_terms(
            &Term::iri("http://b/v"),
            &Term::iri("http://x/q"),
            &Term::iri("http://b/o"),
        );
        let mut f = Federation::new(dict);
        f.add(Arc::new(LocalEndpoint::new("A", a)));
        f.add(Arc::new(LocalEndpoint::new("B", b)));
        let q = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
            f.dict(),
        )
        .unwrap();
        let plan = Lusail::default().explain(&f, &q);
        let expected = "\
source selection:
  ?s <http://x/p> ?v  @ [A]
  ?v <http://x/q> ?o  @ [B]
global join variables: [v]  (0 check queries)
plan: 2 subqueries
  subquery 1 [DELAYED: cardinality 10 > μ+kσ threshold 1.0]  est. cardinality 10  @ [A]
      ?s <http://x/p> ?v
      project: ?s ?v
  subquery 2 [concurrent]  est. cardinality 1  @ [B]
      ?v <http://x/q> ?o
      project: ?v ?o
";
        assert_eq!(plan.render(&f), expected);
    }

    #[test]
    fn golden_render_disjoint_plan() {
        let f = fed();
        let q = parse_query("SELECT * WHERE { ?s <http://x/p> ?v }", f.dict()).unwrap();
        let plan = Lusail::default().explain(&f, &q);
        let expected = "\
source selection:
  ?s <http://x/p> ?v  @ [A]
global join variables: []  (0 check queries)
plan: DISJOINT — ship the whole query to every relevant endpoint and concatenate
";
        assert_eq!(plan.render(&f), expected);
    }

    fn delayed_fed() -> Federation {
        // The golden-plan federation: ten matches at A, one at B, so the
        // two-point dominance rule delays subquery 1.
        let dict = Dictionary::shared();
        let mut a = TripleStore::new(Arc::clone(&dict));
        for i in 0..10 {
            a.insert_terms(
                &Term::iri(format!("http://a/s{i}")),
                &Term::iri("http://x/p"),
                &Term::iri("http://b/v"),
            );
        }
        let mut b = TripleStore::new(Arc::clone(&dict));
        b.insert_terms(
            &Term::iri("http://b/v"),
            &Term::iri("http://x/q"),
            &Term::iri("http://b/o"),
        );
        let mut f = Federation::new(dict);
        f.add(Arc::new(LocalEndpoint::new("A", a)));
        f.add(Arc::new(LocalEndpoint::new("B", b)));
        f
    }

    fn delayed_query(f: &Federation) -> Query {
        parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
            f.dict(),
        )
        .unwrap()
    }

    #[test]
    fn explain_analyze_golden_under_manual_clock() {
        use lusail_endpoint::ManualClock;
        let f = delayed_fed();
        let q = delayed_query(&f);
        // Fresh engine + fresh manual clock per run: the report must be
        // byte-identical, and is pinned verbatim like the plan goldens.
        let run = || {
            Lusail::default()
                .with_clock(ManualClock::new())
                .explain_analyze_with(&f, &q, &ExecOptions::default())
                .unwrap()
        };
        let first = run();
        let second = run();
        assert_eq!(first, second, "EXPLAIN ANALYZE must be deterministic");
        let expected = "\
EXPLAIN ANALYZE
requests:
  ask     0 requests  0 wire attempts  0 failed
  select  2 requests  2 wire attempts  0 failed
  count   2 requests  2 wire attempts  0 failed
  check   0 requests  0 wire attempts  0 failed
source selection:
  ?s <http://x/p> ?v  @ [A]
  ?v <http://x/q> ?o  @ [B]
global join variables: [v]  (0 check queries)
plan: 2 subqueries
  subquery 1 [DELAYED: cardinality 10 > μ+kσ threshold 1.0]  \
est. cardinality 10  actual rows 10  @ [A]
      ?s <http://x/p> ?v
      project: ?s ?v
  subquery 2 [concurrent]  est. cardinality 1  actual rows 1  @ [B]
      ?v <http://x/q> ?o
      project: ?v ?o
values traffic: 1 block(s), 1 binding(s)
joins:
  step 1: 1 x 10 -> 10 rows  (cost 11.0)
phases: source selection 0ns, analysis 0ns, execution 0ns, total 0ns
result: 10 rows  complete: true
";
        assert_eq!(first, expected);
    }

    #[test]
    fn explain_analyze_golden_with_statistics() {
        use lusail_endpoint::ManualClock;
        use lusail_store::EndpointStats;
        // The delayed-fed golden with offline statistics attached to both
        // endpoints: every source-selection COUNT (p/q at A/B: 10, 0, 0
        // and 1 — exact, so the sources, the delay decision and the whole
        // downstream plan are unchanged) is answered locally, leaving only
        // the two data-bearing selects on the wire.
        let f = delayed_fed();
        let q = delayed_query(&f);
        let stats_for = |name: &str| {
            let mut st = TripleStore::new(Arc::clone(f.dict()));
            if name == "A" {
                for i in 0..10 {
                    st.insert_terms(
                        &Term::iri(format!("http://a/s{i}")),
                        &Term::iri("http://x/p"),
                        &Term::iri("http://b/v"),
                    );
                }
            } else {
                st.insert_terms(
                    &Term::iri("http://b/v"),
                    &Term::iri("http://x/q"),
                    &Term::iri("http://b/o"),
                );
            }
            Arc::new(EndpointStats::build(&st))
        };
        for id in 0..f.len() {
            f.attach_stats(id, stats_for(f.endpoint(id).name()));
        }
        let run = || {
            Lusail::default()
                .with_clock(ManualClock::new())
                .explain_analyze_with(&f, &q, &ExecOptions::default())
                .unwrap()
        };
        let first = run();
        assert_eq!(first, run(), "stats EXPLAIN ANALYZE must be deterministic");
        let expected = "\
EXPLAIN ANALYZE
requests:
  ask     0 requests  0 wire attempts  0 failed
  select  2 requests  2 wire attempts  0 failed
  count   0 requests  0 wire attempts  0 failed
  check   0 requests  0 wire attempts  0 failed
source selection:
  ?s <http://x/p> ?v  @ [A]
  ?v <http://x/q> ?o  @ [B]
global join variables: [v]  (0 check queries)
plan: 2 subqueries
  subquery 1 [DELAYED: cardinality 10 > μ+kσ threshold 1.0]  \
est. cardinality 10  actual rows 10  @ [A]
      ?s <http://x/p> ?v
      project: ?s ?v
  subquery 2 [concurrent]  est. cardinality 1  actual rows 1  @ [B]
      ?v <http://x/q> ?o
      project: ?v ?o
values traffic: 1 block(s), 1 binding(s)
joins:
  step 1: 1 x 10 -> 10 rows  (cost 11.0)
statistics:
  loaded: 2 endpoint(s), 2 characteristic set(s)
  answered locally: ask 0, count 4, check 0  (probes elided: 4)
phases: source selection 0ns, analysis 0ns, execution 0ns, total 0ns
result: 10 rows  complete: true
";
        assert_eq!(first, expected);
    }

    #[test]
    fn explain_analyze_golden_with_failover_to_replica() {
        use lusail_endpoint::{FaultProfile, FlakyEndpoint, ManualClock, RequestPolicy};
        use std::time::Duration;
        // A dead primary with a healthy replica: the source-selection COUNT
        // fails terminally and trips the circuit (assumed relevant, degraded),
        // then the SELECT short-circuits on the open breaker, fails over
        // to the replica, and the query still completes. The render is
        // pinned verbatim like the fault-free golden above.
        let dict = Dictionary::shared();
        let triple = |st: &mut TripleStore| {
            st.insert_terms(
                &Term::iri("http://a/s"),
                &Term::iri("http://x/p"),
                &Term::iri("http://a/v"),
            );
        };
        let mut a = TripleStore::new(Arc::clone(&dict));
        triple(&mut a);
        let mut a2 = TripleStore::new(Arc::clone(&dict));
        triple(&mut a2);
        let mut f = Federation::new(dict);
        let primary = f.add(Arc::new(FlakyEndpoint::new(
            Arc::new(LocalEndpoint::new("A", a)),
            FaultProfile::dead(),
        )));
        f.add_replica(primary, Arc::new(LocalEndpoint::new("A-replica", a2)));
        assert_eq!(f.endpoint(primary).name(), "A");

        let q = parse_query("SELECT * WHERE { ?s <http://x/p> ?v }", f.dict()).unwrap();
        let policy = RequestPolicy {
            max_retries: 2,
            base_backoff: Duration::from_micros(10),
            backoff_multiplier: 2.0,
            max_backoff: Duration::from_micros(100),
            jitter: 0.0,
            trip_threshold: 1,
            ..RequestPolicy::default()
        };
        let run = || {
            Lusail::default()
                .with_policy(policy)
                .with_clock(ManualClock::new())
                .explain_analyze_with(&f, &q, &ExecOptions::default())
                .unwrap()
        };
        let first = run();
        assert_eq!(
            first,
            run(),
            "failover EXPLAIN ANALYZE must be deterministic"
        );
        let expected = "\
EXPLAIN ANALYZE
requests:
  ask     0 requests  0 wire attempts  0 failed
  select  2 requests  1 wire attempts  1 failed
  count   1 requests  1 wire attempts  1 failed
  check   0 requests  0 wire attempts  0 failed
source selection:
  ?s <http://x/p> ?v  @ [A]
global join variables: []  (0 check queries)
plan: DISJOINT — ship the whole query to every relevant endpoint and concatenate
resilience:
  health: endpoint 0 closed -> open  (1x)
  failover: endpoint 0 -> 1 on select  (1x)
phases: source selection 0ns, analysis 0ns, execution 0ns, total 0ns
result: 1 rows  complete: true
";
        assert_eq!(first, expected);
    }

    #[test]
    fn explain_analyze_marks_the_promoted_subquery() {
        use lusail_endpoint::ManualClock;
        // A hundred `p` triples at A, ten `q` triples over three endpoints:
        // the two-point rule delays subquery 1 on cardinality (100 vs 10)
        // and subquery 2 on fan-out (3 vs 1). With both delayed, the plan
        // promotes the smaller one, subquery 2, to the concurrent phase,
        // and EXPLAIN prints it so before anything runs.
        let dict = Dictionary::shared();
        let mut a = TripleStore::new(Arc::clone(&dict));
        for i in 0..100 {
            a.insert_terms(
                &Term::iri(format!("http://a/s{i}")),
                &Term::iri("http://x/p"),
                &Term::iri(format!("http://b/v{}", i % 20)),
            );
        }
        let mut f = Federation::new(Arc::clone(&dict));
        f.add(Arc::new(LocalEndpoint::new("A", a)));
        for (name, range) in [("B1", 0..4), ("B2", 4..7), ("B3", 7..10)] {
            let mut b = TripleStore::new(Arc::clone(&dict));
            for k in range {
                b.insert_terms(
                    &Term::iri(format!("http://b/v{k}")),
                    &Term::iri("http://x/q"),
                    &Term::iri("http://b/o"),
                );
            }
            f.add(Arc::new(LocalEndpoint::new(name, b)));
        }
        let q = delayed_query(&f);
        let promoted = "[DELAYED: fan-out 3 > μ+kσ threshold 1.0] [promoted to concurrent]";
        let plan = Lusail::default().explain(&f, &q).render(&f);
        let planned = (plan.lines())
            .find(|l| l.starts_with("  subquery 2 ["))
            .unwrap();
        assert!(planned.contains(promoted), "{plan}");
        let report = Lusail::default()
            .with_clock(ManualClock::new())
            .explain_analyze_with(&f, &q, &ExecOptions::default())
            .unwrap();
        let line = |n: &str| {
            let head = format!("  subquery {n} [");
            report.lines().find(|l| l.starts_with(&head)).unwrap()
        };
        assert!(
            line("1").contains("[DELAYED: cardinality 100 > μ+kσ threshold 10.0]  est."),
            "{report}"
        );
        assert!(line("2").contains(promoted), "{report}");
        assert!(line("1").contains("actual rows 50") && line("2").contains("actual rows 10"));
    }

    #[test]
    fn disabled_sink_records_no_events_during_execution() {
        let f = delayed_fed();
        let q = delayed_query(&f);
        let sink = TraceSink::disabled();
        let opts = ExecOptions::default().with_trace(sink.clone());
        let result = Lusail::default().execute_with(&f, &q, &opts).unwrap();
        assert!(!result.solutions.is_empty());
        // The zero-sink path records (and allocates) nothing.
        assert!(sink.is_empty());
        assert!(sink.events().is_empty());
    }

    #[test]
    fn explain_does_not_fetch_data() {
        let f = fed();
        let q = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
            f.dict(),
        )
        .unwrap();
        let before = f.stats_snapshot();
        let _ = Lusail::default().explain(&f, &q);
        let window = f.stats_snapshot().since(&before);
        // Probes only: COUNT + check, no unbounded SELECT rows.
        assert!(window.rows_returned <= window.total_requests());
    }
}
