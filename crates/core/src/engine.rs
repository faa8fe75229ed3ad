//! The Lusail engine: orchestrates source selection, LADE, and SAPE for a
//! full SPARQL query (conjunctive core plus FILTER / OPTIONAL / UNION /
//! FILTER NOT EXISTS / VALUES / DISTINCT / LIMIT).
//!
//! Clause placement follows §IV-C "Generic SPARQL Queries": filters whose
//! variables live entirely inside one subquery are pushed to the
//! endpoints; everything else is applied during global join evaluation.
//! `OPTIONAL`, `UNION`, and `FILTER NOT EXISTS` groups are evaluated
//! recursively with the same machinery and combined with left / union /
//! anti joins at the global level. A query whose pattern is *disjoint*
//! (no global join variables, identical sources) ships unchanged to every
//! relevant endpoint and the results are concatenated — the paper's
//! fast path for LUBM Q1/Q2.

use crate::cache::ProbeCaches;
use crate::cost::{schedule, DelayPolicy, Schedule};
use crate::decompose::{decompose, is_disjoint};
use crate::exec::{evaluate_subqueries, run_query, Net};
use crate::fetch::fetch_from;
use crate::gjv::{detect_gjvs, GjvAnalysis};
use crate::metrics::QueryMetrics;
use crate::mqo::BatchMemo;
use crate::source_selection::{select_sources, SourceMap};
use crate::subquery::{push_filters_into, Subquery};
use lusail_endpoint::{
    Clock, EndpointFailure, EndpointId, ExecOptions, Federation, FederationError, QueryOutcome,
    RequestKind, RequestPolicy, SystemClock, TraceEvent,
};
use lusail_sparql::ast::{Expression, GroupPattern, Query};
use lusail_sparql::SolutionSet;
use std::borrow::Cow;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct LusailConfig {
    /// Threshold policy for delayed subqueries (Fig. 9; default `μ+σ`).
    pub delay_policy: DelayPolicy,
    /// Bindings in the first `VALUES` block of a bound subquery, and the
    /// floor for the rest: the later blocks are sized from the first one's
    /// observed response cardinality and never drop below this. Blocks go
    /// only to the sources the bindings are shipped to; a source fetched
    /// whole (its counted answer is smaller than the bindings) gets none.
    pub block_size: usize,
    /// Ablation switch: disable locality-aware decomposition. Every triple
    /// pattern becomes its own subquery (the §II strawman of evaluating
    /// each pattern independently); SAPE still schedules and joins them.
    pub disable_lade: bool,
    /// Capacity bound for each of the `COUNT` / check probe caches, which
    /// memoize probe answers across queries (a cold run uses a fresh
    /// engine or [`Lusail::clear_caches`]). `None` (the default, the
    /// paper's unbounded hash table) never evicts; a long-lived server
    /// sets a bound so cache memory stays proportional to it across
    /// millions of queries, with LRU eviction.
    pub probe_cache_capacity: Option<usize>,
}

impl Default for LusailConfig {
    fn default() -> Self {
        LusailConfig {
            delay_policy: DelayPolicy::MuSigma,
            block_size: 100,
            disable_lade: false,
            probe_cache_capacity: None,
        }
    }
}

/// Aggregated probe-cache diagnostics (see [`Lusail::probe_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Consulted-but-absent lookups.
    pub misses: u64,
    /// Entries dropped by the capacity bound (saturation signal).
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
}

/// A query result: solutions plus the metrics the harnesses report.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The solution set.
    pub solutions: SolutionSet,
    /// Phase timings and network counters.
    pub metrics: QueryMetrics,
    /// False when an endpoint failure (after retries) lost solution data.
    /// Degraded *probes* (`COUNT`, `ASK` or check queries) never clear this —
    /// they only cost extra work.
    pub complete: bool,
    /// Per-endpoint failure report for this query.
    pub failures: Vec<EndpointFailure>,
}

/// The Lusail federated query engine. One instance may serve many queries;
/// its caches persist across them (cleared with [`Lusail::clear_caches`]).
///
/// ```
/// use lusail_core::Lusail;
/// use lusail_endpoint::{Federation, LocalEndpoint};
/// use lusail_rdf::{Dictionary, Term};
/// use lusail_sparql::parse_query;
/// use lusail_store::TripleStore;
/// use std::sync::Arc;
///
/// // Two endpoints with an interlink: the author lives at A, the book
/// // (with its title) at B.
/// let dict = Dictionary::shared();
/// let mut a = TripleStore::new(Arc::clone(&dict));
/// a.insert_terms(
///     &Term::iri("http://a/alice"),
///     &Term::iri("http://x/wrote"),
///     &Term::iri("http://b/book1"),
/// );
/// let mut b = TripleStore::new(Arc::clone(&dict));
/// b.insert_terms(
///     &Term::iri("http://b/book1"),
///     &Term::iri("http://x/title"),
///     &Term::lit("Decentralized Graphs"),
/// );
/// let mut fed = Federation::new(Arc::clone(&dict));
/// fed.add(Arc::new(LocalEndpoint::new("A", a)));
/// fed.add(Arc::new(LocalEndpoint::new("B", b)));
///
/// let q = parse_query(
///     "SELECT ?who ?title WHERE { ?who <http://x/wrote> ?b . \
///      ?b <http://x/title> ?title }",
///     &dict,
/// )
/// .unwrap();
/// let result = Lusail::default().execute(&fed, &q).unwrap();
/// assert_eq!(result.solutions.len(), 1); // the cross-endpoint join row
/// assert_eq!(result.metrics.gjvs, ["b"]); // ?b is a global join variable
/// assert!(result.complete); // no endpoint failed
/// ```
pub struct Lusail {
    config: LusailConfig,
    pub(crate) policy: RequestPolicy,
    clock: Option<Arc<dyn Clock>>,
    pub(crate) caches: ProbeCaches,
}

impl Default for Lusail {
    fn default() -> Self {
        Lusail::new(LusailConfig::default())
    }
}

impl Lusail {
    /// Creates an engine with the given configuration and the default
    /// request policy.
    pub fn new(config: LusailConfig) -> Self {
        Lusail {
            caches: ProbeCaches::new(config.probe_cache_capacity),
            config,
            policy: RequestPolicy::default(),
            clock: None,
        }
    }

    /// Sets the retry/backoff/circuit policy for remote requests.
    pub fn with_policy(mut self, policy: RequestPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Injects a clock for backoff sleeps and deadlines (tests).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Drops every memoized probe (between benchmark repetitions).
    pub fn clear_caches(&self) {
        self.caches.clear();
    }

    /// Drops every memoized probe answer (`COUNT` / check) recorded
    /// against one endpoint, leaving other endpoints' entries intact.
    ///
    /// The query driver already does this at the *end* of a query whose
    /// circuit opened; a long-lived server additionally calls it from a
    /// health-transition hook so the invalidation lands *mid-query*,
    /// before any concurrent tenant's next planning read.
    pub fn invalidate_endpoint_probes(&self, ep: lusail_endpoint::EndpointId) {
        self.caches.invalidate_endpoint(ep);
    }

    /// Aggregated diagnostics over the `COUNT` and check probe caches —
    /// nonzero `evictions` means the configured capacity bound is
    /// saturated, the signal a serving layer watches.
    pub fn probe_cache_stats(&self) -> ProbeCacheStats {
        let (count, check) = (&self.caches.count, &self.caches.check);
        ProbeCacheStats {
            hits: count.hits() + check.hits(),
            misses: count.misses() + check.misses(),
            evictions: count.evictions() + check.evictions(),
            entries: count.len() + check.len(),
        }
    }

    /// The clock phase timings (and retry backoff) are measured against:
    /// the injected test clock when present, otherwise the system clock.
    pub(crate) fn timing_clock(&self) -> Arc<dyn Clock> {
        match &self.clock {
            Some(clock) => clock.clone(),
            None => Arc::new(SystemClock::default()),
        }
    }

    /// Executes a query against the federation with default options.
    /// Endpoint failures degrade gracefully (see
    /// [`QueryResult::complete`]); only federation-level misuse is an
    /// `Err`.
    pub fn execute(&self, fed: &Federation, query: &Query) -> Result<QueryResult, FederationError> {
        self.execute_with(fed, query, &ExecOptions::default())
    }

    /// [`Lusail::execute`] under explicit [`ExecOptions`]: structured
    /// tracing (every remote request, planning decision, and join step is
    /// recorded into `opts.trace`; a no-op when the sink is disabled), the
    /// worker-thread budget for dispatch and joins, and an optional
    /// per-query deadline. The final event of an enabled trace is always
    /// [`TraceEvent::QueryFinished`]. Results, work counters, and traces
    /// are byte-identical at every thread budget.
    pub fn execute_with(
        &self,
        fed: &Federation,
        query: &Query,
        opts: &ExecOptions,
    ) -> Result<QueryResult, FederationError> {
        Ok(self.execute_on(fed, query, opts, None)?.0)
    }

    /// The one execution path: [`Lusail::plan`] then
    /// [`Lusail::execute_plan`] inside the query driver
    /// ([`run_query`]). Returns the plan that ran beside the result, for
    /// `EXPLAIN ANALYZE` to render. A solo query passes no memo; a batch
    /// item passes the batch's, and additionally inherits the failure
    /// attribution of every lost relation it reused.
    pub(crate) fn execute_on(
        &self,
        fed: &Federation,
        query: &Query,
        opts: &ExecOptions,
        mut memo: Option<&mut BatchMemo>,
    ) -> Result<(QueryResult, QueryPlan), FederationError> {
        let clock = self.timing_clock();
        let (outcome, ran, dead) = run_query(fed, query, self.policy, clock, opts, |net| {
            let plan = self.plan(fed, query, &self.caches, net);
            let (solutions, mut metrics) =
                self.execute_plan(fed, query, &plan, net, memo.as_deref_mut());
            let degradation = &net.degradation;
            metrics.degraded_ask_probes = degradation.asks_assumed_relevant.load(Ordering::Relaxed);
            metrics.degraded_check_queries =
                degradation.checks_assumed_conflict.load(Ordering::Relaxed);
            (solutions, (metrics, plan))
        })?;
        let (metrics, plan) = ran;
        // A dead endpoint may have answered probes before it started
        // failing; those memoized answers are suspect too.
        for ep in dead {
            self.caches.invalidate_endpoint(ep);
        }
        let QueryOutcome {
            solutions,
            complete,
            mut failures,
        } = outcome;
        if let Some(memo) = memo {
            memo.finish_item(&mut failures);
        }
        let result = QueryResult {
            solutions,
            metrics,
            complete,
            failures,
        };
        Ok((result, plan))
    }

    /// LADE for a whole query, before anything executes: source selection
    /// once for the patterns of every group, then one [`GroupPlan`] per
    /// group in preorder — GJV detection, the disjoint check,
    /// decomposition, filter pushdown, projection shrinking, and the cost
    /// model — the only place any of them is called. Only the WHERE group
    /// may ship whole (a nested group has no query to ship) or shrink its
    /// projections (a nested group's consumers are joins). `caches` is the
    /// engine's own for execution and a throw-away set for EXPLAIN.
    pub(crate) fn plan(
        &self,
        fed: &Federation,
        query: &Query,
        caches: &ProbeCaches,
        net: &Net,
    ) -> QueryPlan {
        let trace = &net.trace;
        let started = net.clock.now();
        if let Some((endpoints, sets)) = fed.stats_overview() {
            trace.emit(|| TraceEvent::StatsLoaded { endpoints, sets });
        }
        let s0 = net.client.requests();
        let sources = select_sources(fed, &query.pattern, &caches.count, net);
        let source_selection = net.clock.now().saturating_sub(started);
        let s1 = net.client.requests();
        let mut groups: Vec<GroupPlan> = Vec::new();
        let mut pending = vec![(Cow::Borrowed(&query.pattern), 0)];
        while let Some((group, depth)) = pending.pop() {
            let first: usize = groups.iter().map(|g| g.subqueries().len()).sum();
            let mut plan = GroupPlan {
                depth,
                gjvs: Vec::new(),
                shape: PlanShape::Empty,
            };
            // A required pattern with no source ⇒ empty; nested groups never run.
            if sources.any_required_empty(&group.triples) {
                groups.push(plan);
                continue;
            }
            let lade = !self.config.disable_lade;
            let analysis = if lade {
                detect_gjvs(fed, &group.triples, &sources, &caches.check, net)
            } else {
                GjvAnalysis::default()
            };

            // Disjoint fast path (Algorithm 3, line 2): the entire query can
            // be answered independently at each endpoint — provided nothing
            // in it (nested clauses, aggregates, an ORDER BY key the
            // endpoints would project away) has to be evaluated over the
            // global result.
            let top = depth == 0;
            let ships_whole = top && {
                let out = query.output_vars();
                lade && !group.triples.is_empty()
                    && group.optionals.is_empty()
                    && group.unions.is_empty()
                    && group.not_exists.is_empty()
                    && group.values.is_none()
                    && query.aggregates.is_empty()
                    && query.order_by.iter().all(|k| out.contains(&k.var))
            };
            plan.shape = if ships_whole && is_disjoint(&group.triples, &sources, &analysis) {
                trace.emit(|| TraceEvent::Decomposed {
                    depth,
                    subqueries: 1,
                    gjvs: analysis.gjvs.len(),
                });
                PlanShape::Disjoint {
                    sources: sources.sources(&group.triples[0]).to_vec(),
                }
            } else {
                let mut subqueries = if lade {
                    decompose(&group.triples, &sources, &analysis)
                } else {
                    // The §II strawman: one subquery per triple pattern.
                    (group.triples.iter())
                        .map(|tp| Subquery::new(vec![tp.clone()], sources.sources(tp).to_vec()))
                        .collect()
                };
                trace.emit(|| TraceEvent::Decomposed {
                    depth,
                    subqueries: subqueries.len(),
                    gjvs: analysis.gjvs.len(),
                });
                let global_filters = push_filters_into(&group.filters, &mut subqueries);
                if top {
                    shrink_projections(query, &mut subqueries, &global_filters);
                }
                let scheduled = schedule(&subqueries, &sources, self.config.delay_policy);
                let subqueries: Vec<PlannedSubquery> = (subqueries.into_iter().zip(scheduled))
                    .enumerate()
                    .map(|(i, (subquery, (estimate, schedule)))| PlannedSubquery {
                        index: first + i,
                        subquery,
                        estimate,
                        schedule,
                    })
                    .collect();
                for sq in &subqueries {
                    trace.emit(|| TraceEvent::SubqueryPlanned {
                        index: sq.index,
                        delay_reason: sq.schedule.delay_reason().map(str::to_string),
                    });
                }
                PlanShape::Decomposed {
                    subqueries,
                    global_filters,
                }
            };
            plan.gjvs = analysis.gjvs;
            groups.push(plan);
            // Nested groups next, in the order `join_nested_groups`
            // evaluates them: UNION branches, OPTIONAL, NOT EXISTS.
            let split = |g: &GroupPattern| g.split_correlated_filters().0;
            let nested: Vec<_> = (group.unions.iter().flatten().cloned())
                .chain(group.optionals.iter().map(split))
                .chain(group.not_exists.iter().map(split))
                .map(|g| (Cow::Owned(g), depth + 1))
                .collect();
            pending.extend(nested.into_iter().rev());
        }
        let requests_analysis = net.client.requests().since(&s1);
        let metrics = QueryMetrics {
            source_selection,
            analysis: net.clock.now().saturating_sub(started + source_selection),
            requests_source_selection: s1.since(&s0),
            requests_analysis,
            check_queries: requests_analysis.get(RequestKind::Check),
            ..QueryMetrics::default()
        };
        QueryPlan {
            sources,
            groups,
            started,
            metrics,
        }
    }

    /// SAPE for a [`QueryPlan`]: the only caller of the subquery executor.
    /// Query-level modifiers (aggregation, ORDER BY over the full schema,
    /// projection, DISTINCT, LIMIT) apply at the mediator, over the whole
    /// federated result; the paper notes Lusail's LIMIT is naive (§VI-C).
    pub(crate) fn execute_plan(
        &self,
        fed: &Federation,
        query: &Query,
        plan: &QueryPlan,
        net: &Net,
        memo: Option<&mut BatchMemo>,
    ) -> (SolutionSet, QueryMetrics) {
        let s2 = net.client.requests();
        let t2 = net.clock.now();
        let top = &plan.groups[0];
        let mut metrics = QueryMetrics {
            gjvs: top.gjvs.clone(),
            ..plan.metrics.clone()
        };
        let solutions = match &top.shape {
            PlanShape::Empty => SolutionSet::empty(query.output_vars()),
            PlanShape::Disjoint { sources } => {
                metrics.subqueries = 1;
                ship_whole(fed, query, sources, net)
            }
            PlanShape::Decomposed { subqueries, .. } => {
                metrics.subqueries = subqueries.len();
                let mut groups = plan.groups.iter();
                let (solutions, delayed) =
                    self.execute_group(fed, &query.pattern, &mut groups, &plan.sources, net, memo);
                metrics.delayed_subqueries = delayed;
                lusail_store::eval::apply_modifiers(solutions, query, fed.dict())
            }
        };
        metrics.execution = net.clock.now().saturating_sub(t2);
        metrics.requests_execution = net.client.requests().since(&s2);
        metrics.result_rows = solutions.len();
        metrics.total = net.clock.now().saturating_sub(plan.started);
        (solutions, metrics)
    }

    /// Evaluates one group, whose plan is the next `plans` yields, then
    /// its nested groups — whose plans follow in clause order, the wire
    /// order seeded fault plans are drawn against — with the same batch
    /// `memo`. Returns the relation and how many subqueries were delayed.
    fn execute_group(
        &self,
        fed: &Federation,
        group: &GroupPattern,
        plans: &mut std::slice::Iter<'_, GroupPlan>,
        sources: &SourceMap,
        net: &Net,
        mut memo: Option<&mut BatchMemo>,
    ) -> (SolutionSet, usize) {
        let plan = plans.next().expect("every group is planned");
        let PlanShape::Decomposed {
            subqueries,
            global_filters,
        } = &plan.shape
        else {
            // Only the WHERE group ships whole: this one is empty.
            return (SolutionSet::empty(group.all_vars()), 0);
        };
        if let Some(memo) = memo.as_deref_mut() {
            memo.count_subqueries(subqueries.len());
        }
        let (mut solutions, delayed) = evaluate_subqueries(
            fed,
            net,
            subqueries,
            sources,
            &self.config,
            memo.as_deref_mut(),
        );
        if let Some(v) = &group.values {
            let values_rel = SolutionSet {
                vars: v.vars.clone(),
                rows: v.rows.clone(),
            };
            solutions = solutions.hash_join(&values_rel);
        }
        solutions = lusail_store::eval::join_nested_groups(solutions, group, fed.dict(), |sub| {
            (self.execute_group(fed, sub, plans, sources, net, memo.as_deref_mut())).0
        });
        lusail_store::eval::retain_filtered(&mut solutions, global_filters, fed.dict());
        (solutions, delayed)
    }
}

/// The plan of a whole query, built by `Lusail::plan` before anything
/// executes: what execution walks and what [`Lusail::explain`] returns.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Relevant endpoints per triple pattern of every group.
    pub sources: SourceMap,
    /// One plan per group in preorder: WHERE first, each group followed by
    /// its UNION branches, OPTIONAL and NOT EXISTS groups in evaluation
    /// order. An empty group's nested groups never run and are not planned.
    pub groups: Vec<GroupPlan>,
    /// What planning measured; execution adds the rest (the WHERE GJVs too).
    pub metrics: QueryMetrics,
    started: Duration,
}

/// What `Lusail::plan` decided for one group pattern.
#[derive(Debug, Clone)]
pub struct GroupPlan {
    /// Nesting depth: 0 for the WHERE group.
    pub depth: usize,
    /// Global join variables of the group's BGP.
    pub gjvs: Vec<String>,
    /// How the group is evaluated.
    pub shape: PlanShape,
}

impl GroupPlan {
    /// The group's subqueries; none unless it is decomposed.
    pub fn subqueries(&self) -> &[PlannedSubquery] {
        match &self.shape {
            PlanShape::Decomposed { subqueries, .. } => subqueries,
            _ => &[],
        }
    }
}

/// The three ways a group is evaluated.
#[derive(Debug, Clone)]
pub enum PlanShape {
    /// A required pattern has no relevant source: the answer is empty.
    Empty,
    /// The disjoint fast path (Algorithm 3, line 2): ship the whole query
    /// to each of `sources` and concatenate.
    Disjoint { sources: Vec<EndpointId> },
    /// Subqueries for SAPE; `global_filters` could not be pushed into any
    /// of them and apply at the mediator after the joins.
    Decomposed {
        subqueries: Vec<PlannedSubquery>,
        global_filters: Vec<Expression>,
    },
}

/// One subquery of a decomposed group with everything SAPE reads of it.
#[derive(Debug, Clone)]
pub struct PlannedSubquery {
    /// Query-wide number, in group preorder: the WHERE group's subqueries
    /// are `0..n` and no two groups share one. Trace events name the
    /// subquery by it.
    pub index: usize,
    /// The patterns, sources, pushed filters and projection sent.
    pub subquery: Subquery,
    /// The cost model's estimated cardinality `C(sq)`; `None` for a
    /// group's lone subquery, which has nothing to be delayed behind.
    pub estimate: Option<u64>,
    /// Which SAPE phase runs it.
    pub schedule: Schedule,
}

/// Disjoint fast path: the original query (projection, filters, DISTINCT,
/// LIMIT and all) goes verbatim to every relevant endpoint; results are
/// concatenated.
fn ship_whole(fed: &Federation, query: &Query, sources: &[EndpointId], net: &Net) -> SolutionSet {
    let mut out = fetch_from(fed, net, query, sources);
    // Endpoints already projected; re-establish the global ordering
    // and modifiers over the concatenation.
    lusail_store::eval::apply_order(&mut out, &query.order_by, fed.dict());
    if query.distinct {
        out.dedup();
    }
    if let Some(limit) = query.limit {
        out.truncate(limit);
    }
    out
}

impl lusail_endpoint::FederatedEngine for Lusail {
    fn run_with(
        &self,
        fed: &Federation,
        query: &Query,
        opts: &ExecOptions,
    ) -> Result<QueryOutcome, FederationError> {
        let result = self.execute_with(fed, query, opts)?;
        Ok(QueryOutcome {
            solutions: result.solutions,
            complete: result.complete,
            failures: result.failures,
        })
    }
}

/// Shrinks each subquery's projection to the variables actually needed
/// downstream: query outputs, global filter variables, and join variables
/// shared with other subqueries or nested groups.
fn shrink_projections(query: &Query, subqueries: &mut [Subquery], global_filters: &[Expression]) {
    let mut needed: Vec<String> = query.output_vars();
    // Aggregate *input* variables and ORDER BY keys are consumed at the
    // mediator but are not output columns; they must still be shipped.
    for a in &query.aggregates {
        if let Some(v) = &a.var {
            if !needed.contains(v) {
                needed.push(v.clone());
            }
        }
    }
    for k in &query.order_by {
        if !needed.contains(&k.var) {
            needed.push(k.var.clone());
        }
    }
    for f in global_filters {
        for v in f.vars() {
            if !needed.contains(&v) {
                needed.push(v);
            }
        }
    }
    // Join variables: appearing in ≥2 subqueries or in a nested group.
    let mut nested_vars: Vec<String> = Vec::new();
    for g in query
        .pattern
        .optionals
        .iter()
        .chain(query.pattern.not_exists.iter())
        .chain(query.pattern.unions.iter().flatten())
    {
        g.collect_vars(&mut nested_vars);
    }
    if let Some(v) = &query.pattern.values {
        nested_vars.extend(v.vars.iter().cloned());
    }
    let n = subqueries.len();
    for i in 0..n {
        let vars = subqueries[i].vars();
        let keep: Vec<String> = vars
            .into_iter()
            .filter(|v| {
                needed.contains(v)
                    || nested_vars.contains(v)
                    || (0..n).any(|j| j != i && subqueries[j].mentions(v))
            })
            .collect();
        if !keep.is_empty() {
            subqueries[i].projection = keep;
        }
        // An all-constant or fully-local subquery keeps its default
        // projection so the relation still witnesses existence.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_endpoint::LocalEndpoint;
    use lusail_rdf::{Dictionary, Term};
    use lusail_sparql::parse_query;
    use lusail_store::TripleStore;
    use std::sync::Arc;

    /// Two universities with a degree interlink (the paper's Fig. 1/2
    /// running example), plus the oracle union store.
    fn universities() -> (Federation, TripleStore) {
        let dict = Dictionary::shared();
        let ub = |l: &str| Term::iri(format!("http://ub/{l}"));
        let e1 = |l: &str| Term::iri(format!("http://ep1/{l}"));
        let e2 = |l: &str| Term::iri(format!("http://ep2/{l}"));

        let mut all = TripleStore::new(Arc::clone(&dict));
        let mut ep1 = TripleStore::new(Arc::clone(&dict));
        let mut ep2 = TripleStore::new(Arc::clone(&dict));
        {
            let mut add1 = |s: &Term, p: &Term, o: &Term| {
                ep1.insert_terms(s, p, o);
                all.insert_terms(s, p, o);
            };
            add1(&e1("Kim"), &ub("advisor"), &e1("Joy"));
            add1(&e1("Kim"), &ub("takesCourse"), &e1("c1"));
            add1(&e1("Joy"), &ub("teacherOf"), &e1("c1"));
            add1(&e1("Joy"), &ub("PhDDegreeFrom"), &e1("CMU"));
            add1(&e1("CMU"), &ub("address"), &Term::lit("CCCC"));
            add1(&e1("MIT"), &ub("address"), &Term::lit("XXX"));
        }
        {
            let mut add2 = |s: &Term, p: &Term, o: &Term| {
                ep2.insert_terms(s, p, o);
                all.insert_terms(s, p, o);
            };
            add2(&e2("Lee"), &ub("advisor"), &e2("Tim"));
            add2(&e2("Lee"), &ub("takesCourse"), &e2("c3"));
            add2(&e2("Tim"), &ub("teacherOf"), &e2("c3"));
            add2(&e2("Tim"), &ub("PhDDegreeFrom"), &e1("MIT"));
            add2(&e2("Kim2"), &ub("advisor"), &e2("Tim"));
            add2(&e2("Kim2"), &ub("takesCourse"), &e2("c3"));
        }
        let mut fed = Federation::new(Arc::clone(&dict));
        fed.add(Arc::new(LocalEndpoint::new("EP1", ep1)));
        fed.add(Arc::new(LocalEndpoint::new("EP2", ep2)));
        (fed, all)
    }

    fn check_against_oracle(fed: &Federation, oracle: &TripleStore, text: &str) -> QueryResult {
        check_engine_against_oracle(&Lusail::default(), fed, oracle, text)
    }

    fn check_engine_against_oracle(
        engine: &Lusail,
        fed: &Federation,
        oracle: &TripleStore,
        text: &str,
    ) -> QueryResult {
        let q = parse_query(text, fed.dict()).unwrap();
        let result = engine.execute(fed, &q).unwrap();
        let expected = lusail_store::eval::evaluate(oracle, &q);
        assert_eq!(
            result.solutions.canonicalize(),
            expected.canonicalize(),
            "federated result differs from centralized oracle for {text}"
        );
        result
    }

    #[test]
    fn qa_traverses_the_interlink() {
        let (fed, oracle) = universities();
        // The paper's Qa: advisors' alma mater and its address. The
        // (Tim, MIT, "XXX") row requires joining EP2 data with EP1 data.
        let r = check_against_oracle(
            &fed,
            &oracle,
            "PREFIX ub: <http://ub/> SELECT ?S ?P ?U ?A WHERE { \
               ?S ub:advisor ?P . ?S ub:takesCourse ?C . \
               ?P ub:PhDDegreeFrom ?U . ?U ub:address ?A }",
        );
        assert_eq!(r.solutions.len(), 3); // Kim, Lee, Kim2 rows
        assert!(r.metrics.gjvs.contains(&"U".to_string()));
        assert!(r.metrics.subqueries >= 2);
    }

    #[test]
    fn disjoint_query_uses_fast_path() {
        let (fed, oracle) = universities();
        let r = check_against_oracle(
            &fed,
            &oracle,
            "PREFIX ub: <http://ub/> SELECT ?S ?P WHERE { \
               ?S ub:advisor ?P . ?S ub:takesCourse ?C }",
        );
        assert_eq!(r.metrics.subqueries, 1);
        assert!(r.metrics.gjvs.is_empty());
        assert_eq!(r.solutions.len(), 3);
    }

    #[test]
    fn optional_query_matches_oracle() {
        let (fed, oracle) = universities();
        let r = check_against_oracle(
            &fed,
            &oracle,
            "PREFIX ub: <http://ub/> SELECT ?P ?U ?A WHERE { \
               ?P ub:PhDDegreeFrom ?U . OPTIONAL { ?U ub:address ?A } }",
        );
        assert_eq!(r.solutions.len(), 2);
    }

    #[test]
    fn union_query_matches_oracle() {
        let (fed, oracle) = universities();
        check_against_oracle(
            &fed,
            &oracle,
            "PREFIX ub: <http://ub/> SELECT ?x ?y WHERE { \
               { ?x ub:advisor ?y } UNION { ?x ub:teacherOf ?y } }",
        );
    }

    #[test]
    fn filter_pushdown_matches_oracle() {
        let (fed, oracle) = universities();
        let r = check_against_oracle(
            &fed,
            &oracle,
            "PREFIX ub: <http://ub/> SELECT ?U ?A WHERE { \
               ?P ub:PhDDegreeFrom ?U . ?U ub:address ?A . FILTER (?A = \"XXX\") }",
        );
        assert_eq!(r.solutions.len(), 1);
    }

    #[test]
    fn not_exists_matches_oracle() {
        let (fed, oracle) = universities();
        // Advisors who teach nothing: none in this data (Joy and Tim both
        // teach), so empty.
        let r = check_against_oracle(
            &fed,
            &oracle,
            "PREFIX ub: <http://ub/> SELECT ?P WHERE { \
               ?S ub:advisor ?P . FILTER NOT EXISTS { ?P ub:teacherOf ?c } }",
        );
        assert_eq!(r.solutions.len(), 0);
    }

    #[test]
    fn distinct_and_limit_apply_globally() {
        let (fed, oracle) = universities();
        let r = check_against_oracle(
            &fed,
            &oracle,
            "PREFIX ub: <http://ub/> SELECT DISTINCT ?P WHERE { ?S ub:advisor ?P }",
        );
        assert_eq!(r.solutions.len(), 2);
        let q = parse_query(
            "PREFIX ub: <http://ub/> SELECT ?S WHERE { ?S ub:advisor ?P } LIMIT 2",
            fed.dict(),
        )
        .unwrap();
        let engine = Lusail::default();
        let r = engine.execute(&fed, &q).unwrap();
        assert_eq!(r.solutions.len(), 2);
    }

    #[test]
    fn no_source_pattern_yields_empty() {
        let (fed, _) = universities();
        let q = parse_query("SELECT ?x WHERE { ?x <http://nowhere/p> ?y }", fed.dict()).unwrap();
        let engine = Lusail::default();
        let r = engine.execute(&fed, &q).unwrap();
        assert!(r.solutions.is_empty());
        assert_eq!(r.metrics.total_requests(), 2); // one COUNT request per endpoint
    }

    #[test]
    fn values_in_query_restricts_results() {
        let (fed, oracle) = universities();
        check_against_oracle(
            &fed,
            &oracle,
            "PREFIX ub: <http://ub/> SELECT ?S ?P WHERE { \
               ?S ub:advisor ?P . VALUES ?P { <http://ep2/Tim> } }",
        );
    }

    #[test]
    fn probe_cache_capacity_bounds_the_check_memo() {
        let (fed, oracle) = universities();
        let engine = Lusail::new(LusailConfig {
            probe_cache_capacity: Some(2),
            ..LusailConfig::default()
        });
        // Three same-source joins with disjoint check queries: ten
        // (check, endpoint) verdicts in all.
        let mut asked = 0;
        for bgp in [
            "?S ub:advisor ?P . ?S ub:takesCourse ?C",
            "?S ub:advisor ?P . ?P ub:teacherOf ?C",
            "?P ub:teacherOf ?C . ?P ub:PhDDegreeFrom ?U",
        ] {
            let text = format!("PREFIX ub: <http://ub/> SELECT * WHERE {{ {bgp} }}");
            asked += check_engine_against_oracle(&engine, &fed, &oracle, &text)
                .metrics
                .check_queries;
        }
        assert!(asked > 2, "only {asked} check queries were asked");
        assert!(engine.caches.check.len() <= 2);
        assert!(engine.caches.check.evictions() > 0);
    }

    #[test]
    fn check_memo_saturation_reaches_the_probe_cache_stats() {
        let (fed, oracle) = universities();
        // Four predicates at two endpoints fill the COUNT memo to exactly
        // its bound; the three joins' check verdicts overflow the check memo.
        let engine = Lusail::new(LusailConfig {
            probe_cache_capacity: Some(8),
            ..LusailConfig::default()
        });
        for bgp in [
            "?S ub:advisor ?P . ?S ub:takesCourse ?C",
            "?S ub:advisor ?P . ?P ub:teacherOf ?C",
            "?P ub:teacherOf ?C . ?P ub:PhDDegreeFrom ?U",
        ] {
            let text = format!("PREFIX ub: <http://ub/> SELECT * WHERE {{ {bgp} }}");
            check_engine_against_oracle(&engine, &fed, &oracle, &text);
        }
        assert_eq!(engine.caches.count.evictions(), 0);
        assert!(engine.caches.check.evictions() > 0);
        let stats = engine.probe_cache_stats();
        assert_eq!(stats.evictions, engine.caches.check.evictions());
        assert_eq!(stats.entries, 16);
    }

    /// One subquery per pattern (`disable_lade`) under the `μ` threshold:
    /// `p1` and `p2`, ten triples each at A, are delayed on cardinality;
    /// `p3` and `p4`, at each of B, C and D, on fan-out. With all four
    /// delayed, the plan promotes the one with the lowest estimate, the
    /// first on ties.
    #[test]
    fn plan_promotes_the_lowest_estimate_first_on_ties() {
        let schedules = |p3_at_b: usize| {
            let dict = Dictionary::shared();
            let x = |l: String| Term::iri(format!("http://x/{l}"));
            let mut a = TripleStore::new(Arc::clone(&dict));
            for i in 0..10 {
                a.insert_terms(&x(format!("a{i}")), &x("p1".into()), &x(format!("b{i}")));
                a.insert_terms(&x(format!("b{i}")), &x("p2".into()), &x(format!("c{i}")));
            }
            let mut fed = Federation::new(Arc::clone(&dict));
            fed.add(Arc::new(LocalEndpoint::new("A", a)));
            for (name, p3) in [("B", p3_at_b), ("C", 1), ("D", 1)] {
                let mut st = TripleStore::new(Arc::clone(&dict));
                for i in 0..p3 {
                    st.insert_terms(&x(format!("c{i}")), &x("p3".into()), &x(format!("d{i}")));
                }
                st.insert_terms(&x("d0".into()), &x("p4".into()), &x(format!("e{name}")));
                fed.add(Arc::new(LocalEndpoint::new(name, st)));
            }
            let q = parse_query(
                "PREFIX x: <http://x/> SELECT * WHERE { \
                   ?a x:p1 ?b . ?b x:p2 ?c . ?c x:p3 ?d . ?d x:p4 ?e }",
                &dict,
            )
            .unwrap();
            let engine = Lusail::new(LusailConfig {
                disable_lade: true,
                delay_policy: DelayPolicy::Mu,
                ..LusailConfig::default()
            });
            let plan = engine.explain(&fed, &q);
            (plan.groups[0].subqueries().iter())
                .map(|sq| {
                    let promoted = matches!(sq.schedule, Schedule::Promoted(_));
                    assert!(sq.schedule.delay_reason().is_some(), "{sq:?}");
                    (sq.estimate, promoted)
                })
                .collect::<Vec<_>>()
        };
        let tied = schedules(1);
        assert_eq!(
            tied,
            [
                (Some(10), false),
                (Some(10), false),
                (Some(3), true),
                (Some(3), false)
            ]
        );
        let lower_last = schedules(2);
        assert_eq!(
            lower_last,
            [
                (Some(10), false),
                (Some(10), false),
                (Some(4), false),
                (Some(3), true)
            ]
        );
    }

    #[test]
    fn caches_reduce_requests_on_repeat() {
        let (fed, _) = universities();
        let q = parse_query(
            "PREFIX ub: <http://ub/> SELECT ?S ?P ?U ?A WHERE { \
               ?S ub:advisor ?P . ?S ub:takesCourse ?C . \
               ?P ub:PhDDegreeFrom ?U . ?U ub:address ?A }",
            fed.dict(),
        )
        .unwrap();
        let engine = Lusail::default();
        let r1 = engine.execute(&fed, &q).unwrap();
        let r2 = engine.execute(&fed, &q).unwrap();
        assert_eq!(r1.solutions.canonicalize(), r2.solutions.canonicalize());
        // Second run: all probes cached.
        assert_eq!(r2.metrics.requests_source_selection.total_requests(), 0);
        assert!(
            r2.metrics.requests_analysis.total_requests()
                < r1.metrics.requests_analysis.total_requests()
                || r1.metrics.requests_analysis.total_requests() == 0
        );
    }
}
