//! The elastic request handler and SAPE's two-phase subquery evaluation
//! (Algorithm 3 in the paper).
//!
//! The request handler groups a batch's requests by endpoint and runs at
//! most `threads` endpoint groups at once (`ExecOptions::threads`):
//! requests to the *same* endpoint stay serialized in submission order —
//! the behaviour of one HTTP connection per endpoint that the paper's
//! "thread per endpoint" design assumes — and requests to *different*
//! endpoints overlap only when the budget allows. The default budget of 1
//! runs every group inline on the calling thread. See DESIGN.md
//! "Parallel execution".
//!
//! Subquery evaluation then follows the paper:
//! 1. non-delayed subqueries are submitted concurrently to all their
//!    relevant endpoints and their partitioned results joined;
//! 2. delayed subqueries are evaluated one at a time, most selective
//!    first, as bound subqueries: the already-found bindings of a shared
//!    variable are attached in `VALUES` blocks (one request per block per
//!    endpoint), with source refinement for variable-predicate patterns.
//!    Bind or fetch, per source: a source whose whole answer to a
//!    single-pattern subquery — bounded by source selection's count of the
//!    pattern there — costs fewer wire bytes than the bindings alone would
//!    is sent the unbound subquery once instead, in the same wave as the
//!    first block; rows matching no binding die in the join. Blocks go to
//!    the other sources and are sized from the first one: it runs at the
//!    configured `block_size`, and the per-binding response cardinality it
//!    reveals at those sources scales the remaining blocks up (never below
//!    `block_size`) toward a target rows-per-request, so selective
//!    subqueries ship few requests.

use crate::cost::Schedule;
use crate::engine::{LusailConfig, PlannedSubquery};
use crate::fetch::{concat, fetch, fetch_from};
use crate::join::join_components;
use crate::mqo::BatchMemo;
use crate::source_selection::SourceMap;
use crate::subquery::Subquery;
use lusail_endpoint::{
    Clock, EndpointId, EndpointRef, ExecOptions, Federation, FederationError, QueryOutcome,
    RequestPolicy, ResilientClient, SystemClock, TraceEvent, TraceSink,
};
use lusail_sparql::ast::{Query, ValuesBlock};
use lusail_sparql::{query_wire_len, Rows, SolutionSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Executes batches of per-endpoint tasks on a bounded pool of scoped
/// worker threads.
pub struct RequestHandler {
    trace: TraceSink,
    threads: usize,
}

impl RequestHandler {
    /// Creates a request handler with an explicit worker-thread budget.
    /// A budget of `1` processes every endpoint group inline, in
    /// submission order, with no thread overhead.
    pub fn with_threads(trace: TraceSink, threads: usize) -> Self {
        RequestHandler {
            trace,
            threads: threads.max(1),
        }
    }

    /// Runs every `(endpoint, task)` pair, returning `(endpoint, task,
    /// result)` triples. Tasks for one endpoint run serially on that
    /// endpoint's worker, so the per-endpoint request subsequence is
    /// identical at every thread budget; distinct endpoints run in
    /// parallel up to the budget. Results are merged in a deterministic
    /// order — grouped by endpoint in first-submission order — so output
    /// bytes never depend on thread scheduling. The callback receives the
    /// endpoint's id so it can route the request through a
    /// [`ResilientClient`].
    pub fn run<T, R, F>(
        &self,
        fed: &Federation,
        tasks: Vec<(EndpointId, T)>,
        f: F,
    ) -> Vec<(EndpointId, T, R)>
    where
        T: Send,
        R: Send,
        F: Fn(EndpointId, &EndpointRef, &T) -> R + Sync,
    {
        if tasks.is_empty() {
            return Vec::new();
        }
        let n_tasks = tasks.len();
        // Group tasks by endpoint, preserving submission order per endpoint.
        let mut by_ep: Vec<(EndpointId, Vec<T>)> = Vec::new();
        for (ep, t) in tasks {
            match by_ep.iter_mut().find(|(e, _)| *e == ep) {
                Some((_, v)) => v.push(t),
                None => by_ep.push((ep, vec![t])),
            }
        }
        self.trace.emit(|| TraceEvent::Dispatch {
            tasks: n_tasks,
            endpoints: by_ep.len(),
        });
        let run_group = |ep_id: EndpointId, ts: Vec<T>| -> Vec<(EndpointId, T, R)> {
            let ep = fed.endpoint(ep_id);
            ts.into_iter()
                .map(|t| {
                    let r = f(ep_id, ep, &t);
                    (ep_id, t, r)
                })
                .collect()
        };
        let workers = self.threads.min(by_ep.len());
        if workers <= 1 {
            // Sequential path (budget 1, or a single endpoint group):
            // process groups inline in submission order.
            let mut out = Vec::with_capacity(n_tasks);
            for (ep_id, ts) in by_ep {
                out.extend(run_group(ep_id, ts));
            }
            return out;
        }
        // Static round-robin assignment of endpoint groups to workers:
        // worker w owns groups w, w + workers, w + 2·workers, … and runs
        // its groups serially in order. After joining, slots are sorted by
        // group index, reproducing the sequential merge order exactly.
        let mut buckets: Vec<Vec<(usize, EndpointId, Vec<T>)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (group_idx, (ep_id, ts)) in by_ep.into_iter().enumerate() {
            buckets[group_idx % workers].push((group_idx, ep_id, ts));
        }
        let run_group = &run_group;
        type Slot<T, R> = (usize, Vec<(EndpointId, T, R)>);
        let mut slots: Vec<Slot<T, R>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = buckets
                .into_iter()
                .map(|bucket| {
                    scope.spawn(move || {
                        bucket
                            .into_iter()
                            .map(|(group_idx, ep_id, ts)| (group_idx, run_group(ep_id, ts)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                slots.extend(h.join().expect("endpoint worker panicked"));
            }
        });
        slots.sort_by_key(|(group_idx, _)| *group_idx);
        slots.into_iter().flat_map(|(_, group)| group).collect()
    }
}

/// Counters for graceful degradation: when a probe fails after retries,
/// the engine takes the conservative choice instead of aborting, and
/// records it here (surfaced in `QueryMetrics`). Lost *result* data — a
/// failed execution `SELECT` — is tracked separately because only it makes
/// the final answer incomplete.
#[derive(Debug, Default)]
pub struct Degradation {
    /// Failed source-selection probes (an `ASK`, or Lusail's `COUNT` whose
    /// cardinality then falls back to the endpoint's triple count) and
    /// failed execution-time `ASK`s: the endpoint was assumed relevant.
    pub asks_assumed_relevant: AtomicU64,
    /// Failed GJV check queries: the variable was conservatively assumed
    /// global (more GJVs never lose answers).
    pub checks_assumed_conflict: AtomicU64,
    data_loss: AtomicBool,
}

impl Degradation {
    /// Counts a failed ASK and returns its conservative answer: the
    /// endpoint is assumed relevant, which can only cost extra requests.
    pub(crate) fn assume_relevant(&self) -> bool {
        self.asks_assumed_relevant.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Marks that result-bearing data was lost (a failed execution SELECT).
    pub(crate) fn record_data_loss(&self) {
        self.data_loss.store(true, Ordering::Relaxed);
    }

    /// True if any result-bearing request failed: the answer is incomplete.
    pub(crate) fn data_loss(&self) -> bool {
        self.data_loss.load(Ordering::Relaxed)
    }
}

/// The per-query network context: the parallel [`RequestHandler`], the
/// [`ResilientClient`] (whose tripped-endpoint state lives exactly as long
/// as one query), and the [`Degradation`] scoreboard.
pub struct Net {
    /// Budgeted per-endpoint scheduler.
    pub handler: RequestHandler,
    /// Retry/backoff/trip layer all remote calls go through.
    pub client: ResilientClient,
    /// Conservative-fallback counters for this query.
    pub degradation: Degradation,
    /// The clock the client schedules against; phase timings read the
    /// same one, so EXPLAIN ANALYZE is deterministic under a test clock.
    pub clock: Arc<dyn Clock>,
    /// The trace sink the whole context emits into (disabled by default).
    pub trace: TraceSink,
}

impl Default for Net {
    fn default() -> Self {
        let clock = Arc::new(SystemClock::default());
        Net::for_query(RequestPolicy::default(), clock, &ExecOptions::default())
    }
}

impl Net {
    /// The context of one call: a client retrying by the engine's `policy`
    /// on its `clock`, bounded by the call's deadline and observed by its
    /// health hook, and a handler with the call's worker budget. Both emit
    /// into the call's trace sink, so one enabled sink sees the whole query.
    pub(crate) fn for_query(
        policy: RequestPolicy,
        clock: Arc<dyn Clock>,
        opts: &ExecOptions,
    ) -> Net {
        let mut client = ResilientClient::traced(policy, Arc::clone(&clock), opts.trace.clone());
        if let Some(deadline) = opts.deadline {
            client = client.with_query_deadline(deadline);
        }
        if let Some(hook) = &opts.on_health_transition {
            client = client.with_transition_hook(Arc::clone(hook));
        }
        Net {
            handler: RequestHandler::with_threads(opts.trace.clone(), opts.thread_budget()),
            client,
            degradation: Degradation::default(),
            clock,
            trace: opts.trace.clone(),
        }
    }
}

/// The query driver all four engines run a query through. It refuses
/// federation-level misuse (an empty federation, a projected `EXISTS`),
/// builds the query's [`Net`] from the engine's `policy` and `clock` and
/// the call's `opts`, and runs the engine's `body` on it. Then it finishes
/// the query the same way for every engine: the answer is complete unless
/// result data was lost, the failure report is the client's, and every
/// endpoint whose circuit opened loses its offline statistics — they
/// summarize the primary's store, and its replica group may be served by a
/// replica that has diverged. [`TraceEvent::QueryFinished`] is the last
/// event. Returns the outcome, the body's value, and the endpoints whose
/// circuit opened, for which the engine drops its own memoized probes.
pub fn run_query<T>(
    fed: &Federation,
    query: &Query,
    policy: RequestPolicy,
    clock: Arc<dyn Clock>,
    opts: &ExecOptions,
    body: impl FnOnce(&Net) -> (SolutionSet, T),
) -> Result<(QueryOutcome, T, Vec<EndpointId>), FederationError> {
    if fed.is_empty() {
        return Err(FederationError::EmptyFederation);
    }
    if !query.exists.is_empty() {
        return Err(FederationError::ProjectedExists);
    }
    let net = Net::for_query(policy, clock, opts);
    let (solutions, value) = body(&net);
    let complete = !net.degradation.data_loss();
    let failures = net.client.report(fed);
    let dead: Vec<EndpointId> = (failures.iter().filter(|f| f.dead))
        .map(|f| f.endpoint)
        .collect();
    for &ep in &dead {
        fed.invalidate_stats(ep);
    }
    net.trace.emit(|| TraceEvent::QueryFinished {
        rows: solutions.len(),
        complete,
    });
    let outcome = QueryOutcome {
        solutions,
        complete,
        failures,
    };
    Ok((outcome, value, dead))
}

/// Response rows per request the adaptive `VALUES` sizer aims for.
const VALUES_TARGET_ROWS: usize = 1024;
/// Upper bound on an adapted block size.
const MAX_BLOCK_SIZE: usize = 4096;

/// Block size for the post-probe `VALUES` blocks: scales the configured
/// size toward [`VALUES_TARGET_ROWS`] response rows per request using the
/// probe block's bindings-in → rows-out ratio. Integer-only and clamped to
/// `[block_size, MAX_BLOCK_SIZE]`, so the schedule stays deterministic and
/// never issues more requests than fixed sizing would.
fn adapted_block_size(block_size: usize, probe_bindings: usize, observed_rows: usize) -> usize {
    // Rows produced per hundred bindings; an empty response floors at one
    // row so highly selective subqueries adapt to the largest blocks.
    let rows_per_hundred = (observed_rows.max(1) * 100) / probe_bindings.max(1);
    let ideal = (VALUES_TARGET_ROWS * 100) / rows_per_hundred.max(1);
    ideal.clamp(block_size, MAX_BLOCK_SIZE.max(block_size))
}

/// SAPE subquery evaluation (Algorithm 3): evaluates a group's
/// subqueries by their planned schedules and joins their results.
/// `counts` is the plan's source map, whose pattern counts bound a delayed
/// subquery's unbound answers (see [`fetched_whole`]). Returns the joined
/// solution set (one relation; genuinely disconnected components are
/// cross-joined at the end) plus how many subqueries were delayed.
///
/// `memo` is the batch hook: phase 1 takes a non-delayed relation an
/// earlier item of the batch already fetched from it and records the ones
/// it fetches itself. Everything downstream — join order, the bindings
/// delayed subqueries are shipped with — sees the same relations either
/// way, so a batched query executes exactly as it would alone.
pub(crate) fn evaluate_subqueries(
    fed: &Federation,
    net: &Net,
    subqueries: &[PlannedSubquery],
    counts: &SourceMap,
    config: &LusailConfig,
    memo: Option<&mut BatchMemo>,
) -> (SolutionSet, usize) {
    let (mut delayed, concurrent): (Vec<&PlannedSubquery>, Vec<&PlannedSubquery>) =
        (subqueries.iter()).partition(|sq| matches!(sq.schedule, Schedule::Delayed(_)));
    let delayed_count = delayed.len();

    let relations = fetch_concurrent(fed, net, &concurrent, memo);

    // Join whatever is joinable so the found bindings are already reduced.
    let mut components = join_components(relations, &net.trace);

    // Phase 2: delayed subqueries, most selective (refined) first.
    while !delayed.is_empty() {
        let planned = delayed.remove(pick_most_selective(&delayed, &components));
        let (index, sq) = (planned.index, &planned.subquery);

        // Choose the binding variable: a subquery variable bound in some
        // component, preferring the fewest distinct values.
        let binding = best_binding(sq, &components);
        let sols = match binding {
            Some((var, values)) => {
                let mut sources = sq.sources.clone();
                if sq.triples.iter().any(|t| t.p.is_var()) && sources.len() > 1 {
                    // Source refinement: re-check relevance with the found
                    // bindings before shipping every block everywhere.
                    sources = refine_sources(fed, net, sq, &var, &values, &sources);
                }
                // Bind or fetch, per source: a source in `whole` answers
                // the unbound subquery once instead of receiving blocks.
                let whole = fetched_whole(fed, sq, counts, &sources, &values);
                let whole_request = |ep: EndpointId| {
                    let (query, bounds) = whole.as_ref()?;
                    let &(_, rows_bound) = bounds.iter().find(|&&(e, _)| e == ep)?;
                    Some((query, rows_bound))
                };
                // One wave of requests: one query per block, which every
                // shipping endpoint's request borrows, plus (in the first
                // wave) the whole requests. Returns the answers and the
                // rows the shipping endpoints' blocks produced.
                let dispatch = |blocks: Vec<ValuesBlock>, first_wave: bool| {
                    let queries: Vec<(usize, Query)> = blocks
                        .into_iter()
                        .map(|block| (block.rows.len(), sq.to_query(Some(block))))
                        .collect();
                    let mut requests: Vec<(EndpointId, &Query)> = Vec::new();
                    for &endpoint in &sources {
                        if let Some((query, rows_bound)) = whole_request(endpoint) {
                            if first_wave {
                                net.trace.emit(|| TraceEvent::WholeFetched {
                                    subquery: index,
                                    endpoint,
                                    rows_bound,
                                });
                                requests.push((endpoint, query));
                            }
                            continue;
                        }
                        for (bindings, query) in &queries {
                            net.trace.emit(|| TraceEvent::ValuesBatch {
                                subquery: index,
                                endpoint,
                                bindings: *bindings,
                            });
                            requests.push((endpoint, query));
                        }
                    }
                    let mut shipped_rows = 0;
                    let parts: Vec<Option<SolutionSet>> = fetch(fed, net, &requests)
                        .into_iter()
                        .map(|(r, part)| {
                            if whole_request(requests[r].0).is_none() {
                                shipped_rows += part.as_ref().map_or(0, SolutionSet::len);
                            }
                            part
                        })
                        .collect();
                    (parts, shipped_rows)
                };
                let base = config.block_size.max(1);
                // The first wave carries the probe block — the first `base`
                // bindings, whose response cardinality sizes the remaining
                // blocks — or every binding when they fit one block. With
                // no shipping source it carries only the whole requests.
                let ships = sources.iter().any(|&ep| whole_request(ep).is_none());
                let (head, tail) = if ships {
                    values.split_at(base.min(values.len()))
                } else {
                    (&values[..0], &values[..0])
                };
                let head_blocks = match head.is_empty() {
                    true => Vec::new(),
                    false => vec![values_block(&var, head)],
                };
                let (mut parts, observed) = dispatch(head_blocks, true);
                if !tail.is_empty() {
                    let size = adapted_block_size(base, head.len(), observed);
                    let blocks: Vec<ValuesBlock> = tail
                        .chunks(size)
                        .map(|chunk| values_block(&var, chunk))
                        .collect();
                    parts.extend(dispatch(blocks, false).0);
                }
                // Blocks partition *distinct* values of one variable, so a
                // row matches exactly one block: concatenation introduces
                // no duplicates beyond what unbound evaluation would have.
                // A whole answer's rows that match no binding die in the
                // join with the component that supplied the bindings.
                concat(sq.projection.clone(), parts)
            }
            // No usable bindings: evaluate unbound.
            None => fetch_from(fed, net, &sq.to_query(None), &sq.sources),
        };
        net.trace.emit(|| TraceEvent::SubqueryEvaluated {
            index,
            rows: sols.len(),
        });
        components.push(sols);
        components = join_components(components, &net.trace);
    }

    // Cross-join any genuinely disconnected components.
    let mut iter = components.into_iter();
    let mut acc = iter.next().unwrap_or_else(SolutionSet::unit);
    for r in iter {
        let (left_rows, right_rows) = (acc.len(), r.len());
        acc = acc.hash_join(&r);
        net.trace.emit(|| TraceEvent::JoinStep {
            left_rows,
            right_rows,
            output_rows: acc.len(),
            // Cross products are unordered by the DP: their cost is the
            // plain sequential work of both sides.
            cost: left_rows as f64 + right_rows as f64,
        });
    }
    (acc, delayed_count)
}

/// Phase 1: the concurrent (and promoted) subqueries' relations, in
/// `concurrent` order. Those the batch memo holds are reused; the rest are
/// submitted concurrently to all their relevant endpoints (and memoized).
fn fetch_concurrent(
    fed: &Federation,
    net: &Net,
    concurrent: &[&PlannedSubquery],
    mut memo: Option<&mut BatchMemo>,
) -> Vec<SolutionSet> {
    let mut shared: lusail_rdf::FxHashMap<usize, SolutionSet> = (concurrent.iter())
        .filter_map(|sq| {
            let memo = memo.as_deref_mut()?;
            Some((sq.index, memo.lookup(sq.index, &sq.subquery, net)?))
        })
        .collect();
    // One query per subquery still to fetch; each of its sources' requests
    // borrows it.
    let queries: Vec<(&PlannedSubquery, Query)> = (concurrent.iter())
        .filter(|sq| !shared.contains_key(&sq.index))
        .map(|&sq| (sq, sq.subquery.to_query(None)))
        .collect();
    let (requests, owners): (Vec<(EndpointId, &Query)>, Vec<usize>) = (queries.iter())
        .flat_map(|(sq, q)| (sq.subquery.sources.iter()).map(move |&ep| ((ep, q), sq.index)))
        .unzip();
    let failures_before = match memo {
        Some(_) => net.client.report(fed),
        None => Vec::new(),
    };

    // Regroup per subquery, consuming the answers (no clones).
    let mut by_subquery: lusail_rdf::FxHashMap<usize, Vec<Option<SolutionSet>>> =
        lusail_rdf::FxHashMap::default();
    for (r, part) in fetch(fed, net, &requests) {
        by_subquery.entry(owners[r]).or_default().push(part);
    }
    (concurrent.iter())
        .map(|planned| {
            let (index, sq) = (planned.index, &planned.subquery);
            if let Some(rel) = shared.remove(&index) {
                return rel;
            }
            let parts = by_subquery.remove(&index).unwrap_or_default();
            let lost = parts.iter().any(Option::is_none);
            let rel = concat(sq.projection.clone(), parts);
            net.trace.emit(|| TraceEvent::SubqueryEvaluated {
                index,
                rows: rel.len(),
            });
            if let Some(memo) = memo.as_deref_mut() {
                memo.store(fed, net, sq, &rel, lost, &failures_before);
            }
            rel
        })
        .collect()
}

/// The position in `delayed` of the next delayed subquery: smallest
/// estimate after refinement by the bindings it can join with (§V-B).
fn pick_most_selective(delayed: &[&PlannedSubquery], components: &[SolutionSet]) -> usize {
    (0..delayed.len())
        .min_by_key(|&i| {
            let sq = &delayed[i].subquery;
            // Only a lone subquery is not estimated, and it is never delayed.
            let mut refined = delayed[i].estimate.unwrap_or_default();
            for comp in components {
                for v in &comp.vars {
                    if sq.mentions(v) {
                        let n = comp.len() as u64;
                        refined = refined.min(n);
                    }
                }
            }
            refined
        })
        .expect("a delayed subquery is left")
}

/// Picks the best variable to bind a delayed subquery with: among subquery
/// variables present in some joined component, the one with the fewest
/// distinct values.
fn best_binding(
    sq: &Subquery,
    components: &[SolutionSet],
) -> Option<(String, Vec<lusail_rdf::TermId>)> {
    let mut best: Option<(String, Vec<lusail_rdf::TermId>)> = None;
    for comp in components {
        for v in &comp.vars {
            if !sq.mentions(v) {
                continue;
            }
            let values = comp.distinct_values(v);
            if values.is_empty() {
                continue;
            }
            match &best {
                Some((_, cur)) if cur.len() <= values.len() => {}
                _ => best = Some((v.clone(), values)),
            }
        }
    }
    best
}

/// Bind or fetch: the sources of delayed subquery `sq` that answer it
/// unbound, in one request, instead of receiving `values` in `VALUES`
/// blocks, each with its row bound, and the unbound query they are sent.
/// A single-pattern subquery's answer at a source has at most `c` rows,
/// source selection's count of the pattern there (`counts`; a failed
/// `COUNT` is the endpoint's triple count, still a bound; pushed filters
/// only remove rows). A subquery of several patterns joins them at the
/// endpoint, which no pattern count bounds, so it always ships. A source
/// with a bound `c` is fetched whole when its whole answer — the query,
/// the response header and `c` rows of 8-byte cells — is strictly smaller
/// than the least any bound schedule sends it: the same query plus
/// `(<term> ) ` per binding. Per source, wire bytes then strictly fall and
/// requests do not rise. `None` when no source qualifies. Nothing is
/// computed when no source has a bound, and the bindings are summed only
/// until they outweigh the largest whole answer.
fn fetched_whole(
    fed: &Federation,
    sq: &Subquery,
    counts: &SourceMap,
    sources: &[EndpointId],
    values: &[lusail_rdf::TermId],
) -> Option<(Query, Vec<(EndpointId, u64)>)> {
    let [tp] = sq.triples.as_slice() else {
        return None;
    };
    let bounds: Vec<(EndpointId, u64)> = (sources.iter())
        .filter_map(|&ep| Some((ep, counts.cardinality(tp, ep)?)))
        .collect();
    if bounds.is_empty() {
        return None;
    }
    let query = sq.to_query(None);
    let dict = fed.dict();
    let query_len = query_wire_len(&query, dict) as u64;
    let whole_bytes = |rows| query_len + SolutionSet::wire_bytes_of(&sq.projection, rows);
    let largest = bounds.iter().map(|&(_, rows)| whole_bytes(rows)).max()?;
    let mut ship_floor = query_len;
    for &v in values {
        if ship_floor > largest {
            break;
        }
        ship_floor += dict.decode(v).wire_len() as u64 + 4;
    }
    let whole: Vec<(EndpointId, u64)> = (bounds.into_iter())
        .filter(|&(_, rows)| whole_bytes(rows) < ship_floor)
        .collect();
    (!whole.is_empty()).then_some((query, whole))
}

/// The `VALUES` block binding `var` to each of `values` in turn.
fn values_block(var: &str, values: &[lusail_rdf::TermId]) -> ValuesBlock {
    let cells = values.iter().copied().map(Some).collect();
    ValuesBlock {
        vars: vec![var.to_string()],
        rows: Rows::from_cells(1, values.len(), cells),
    }
}

/// Source refinement for variable-predicate subqueries: one bound `ASK`
/// per candidate endpoint, dropping endpoints with no matching data. The
/// paper found this far cheaper than shipping every block everywhere. A
/// failed ASK keeps its endpoint (assuming relevance never loses answers).
fn refine_sources(
    fed: &Federation,
    net: &Net,
    sq: &Subquery,
    var: &str,
    values: &[lusail_rdf::TermId],
    sources: &[EndpointId],
) -> Vec<EndpointId> {
    let mut pattern = lusail_sparql::ast::GroupPattern::bgp(sq.triples.clone());
    pattern.filters = sq.filters.clone();
    pattern.values = Some(values_block(var, values));
    let ask = Query::ask(pattern);
    let refined = net.ask_relevant(fed, sources, &ask);
    if refined.is_empty() {
        sources.to_vec()
    } else {
        refined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_endpoint::LocalEndpoint;
    use lusail_rdf::{Dictionary, Term};
    use lusail_store::TripleStore;
    use std::sync::Arc;

    fn two_endpoint_fed() -> Federation {
        let dict = Dictionary::shared();
        let mut a = TripleStore::new(Arc::clone(&dict));
        a.insert_terms(
            &Term::iri("http://a/s"),
            &Term::iri("http://x/p"),
            &Term::iri("http://a/o"),
        );
        let mut b = TripleStore::new(Arc::clone(&dict));
        b.insert_terms(
            &Term::iri("http://b/s"),
            &Term::iri("http://x/p"),
            &Term::iri("http://b/o"),
        );
        let mut fed = Federation::new(dict);
        fed.add(Arc::new(LocalEndpoint::new("A", a)));
        fed.add(Arc::new(LocalEndpoint::new("B", b)));
        fed
    }

    #[test]
    fn handler_runs_tasks_grouped_by_endpoint() {
        let fed = two_endpoint_fed();
        let handler = RequestHandler::with_threads(TraceSink::disabled(), 1);
        let tasks = vec![(0usize, 1u32), (1, 2), (0, 3), (1, 4)];
        let mut results = handler.run(&fed, tasks, |_, ep, &t| format!("{}-{}", ep.name(), t));
        results.sort_by_key(|(_, t, _)| *t);
        let strings: Vec<&str> = results.iter().map(|(_, _, s)| s.as_str()).collect();
        assert_eq!(strings, ["A-1", "B-2", "A-3", "B-4"]);
    }

    #[test]
    fn handler_empty_tasks() {
        let fed = two_endpoint_fed();
        let handler = RequestHandler::with_threads(TraceSink::disabled(), 1);
        let out: Vec<(EndpointId, u32, u32)> = handler.run(&fed, Vec::new(), |_, _, &t| t);
        assert!(out.is_empty());
    }

    #[test]
    fn handler_single_endpoint_runs_inline() {
        let fed = two_endpoint_fed();
        let handler = RequestHandler::with_threads(TraceSink::disabled(), 1);
        let out = handler.run(&fed, vec![(1usize, 10u32), (1, 20)], |_, _, &t| t * 2);
        assert_eq!(out, vec![(1, 10, 20), (1, 20, 40)]);
    }
}

#[cfg(test)]
mod sape_tests {
    use super::*;
    use crate::cache::ProbeCache;
    use crate::source_selection::{select_sources, SourceMap};
    use crate::subquery::Subquery;
    use crate::trace::QueryTrace;
    use lusail_endpoint::{LocalEndpoint, StatsSnapshot};
    use lusail_rdf::{Dictionary, Term};
    use lusail_sparql::ast::{GroupPattern, PatternTerm, TriplePattern};
    use lusail_sparql::parse_query;
    use lusail_store::TripleStore;
    use std::sync::Arc;

    /// Chain data split over two endpoints: A holds p-edges, B holds
    /// q-edges for half the midpoints.
    fn chain_fed() -> (Federation, Arc<Dictionary>) {
        let dict = Dictionary::shared();
        let mut a = TripleStore::new(Arc::clone(&dict));
        let mut b = TripleStore::new(Arc::clone(&dict));
        for i in 0..20 {
            let s = Term::iri(format!("http://a/s{i}"));
            let m = Term::iri(format!("http://m/v{i}"));
            a.insert_terms(&s, &Term::iri("http://x/p"), &m);
            if i % 2 == 0 {
                b.insert_terms(&m, &Term::iri("http://x/q"), &Term::int(i));
            }
        }
        let mut fed = Federation::new(Arc::clone(&dict));
        fed.add(Arc::new(LocalEndpoint::new("A", a)));
        fed.add(Arc::new(LocalEndpoint::new("B", b)));
        (fed, dict)
    }

    fn tp(dict: &Dictionary, s: &str, p: &str, o: &str) -> TriplePattern {
        let term = |t: &str| {
            if let Some(v) = t.strip_prefix('?') {
                PatternTerm::Var(v.to_string())
            } else {
                PatternTerm::Const(dict.encode(&Term::iri(t)))
            }
        };
        TriplePattern::new(term(s), term(p), term(o))
    }

    /// `subqueries`, numbered from 0, with their estimates and schedules.
    fn planned(subqueries: Vec<Subquery>, plan: [(u64, Schedule); 2]) -> Vec<PlannedSubquery> {
        (subqueries.into_iter().zip(plan).enumerate())
            .map(
                |(index, (subquery, (estimate, schedule)))| PlannedSubquery {
                    index,
                    subquery,
                    estimate: Some(estimate),
                    schedule,
                },
            )
            .collect()
    }

    fn delayed() -> Schedule {
        Schedule::Delayed("test".into())
    }

    /// `?s p ?m` at A, then `?m q ?n` at B, scheduled by `plan`.
    fn subqueries(dict: &Dictionary, plan: [(u64, Schedule); 2]) -> Vec<PlannedSubquery> {
        let sqs = vec![
            Subquery::new(vec![tp(dict, "?s", "http://x/p", "?m")], vec![0]),
            Subquery::new(vec![tp(dict, "?m", "http://x/q", "?n")], vec![1]),
        ];
        planned(sqs, plan)
    }

    #[test]
    fn delayed_subquery_is_bound_with_values_blocks() {
        let (fed, dict) = chain_fed();
        let sqs = subqueries(&dict, [(20, Schedule::Concurrent), (10, delayed())]);
        let net = Net::default();
        let config = LusailConfig {
            block_size: 20,
            ..LusailConfig::default()
        };
        let before = fed.stats_snapshot();
        let counts = SourceMap::default();
        let (sols, delayed) = evaluate_subqueries(&fed, &net, &sqs, &counts, &config, None);
        let window = fed.stats_snapshot().since(&before);
        assert_eq!(delayed, 1);
        assert_eq!(sols.len(), 10);
        // Phase 1: one select at A. Phase 2: the 20 bindings fit one block,
        // so there is no probe block to size the rest from: one select at B.
        assert_eq!(window.select_requests, 1 + 1);
    }

    #[test]
    fn adaptive_batching_grows_blocks_and_preserves_results() {
        let (fed, dict) = chain_fed();
        let sqs = subqueries(&dict, [(20, Schedule::Concurrent), (10, delayed())]);
        let net = Net::default();
        let config = LusailConfig {
            block_size: 4,
            ..LusailConfig::default()
        };
        let before = fed.stats_snapshot();
        let counts = SourceMap::default();
        let (sols, delayed) = evaluate_subqueries(&fed, &net, &sqs, &counts, &config, None);
        let window = fed.stats_snapshot().since(&before);
        assert_eq!(delayed, 1);
        assert_eq!(sols.len(), 10);
        // Phase 1: one select at A. Phase 2: the 4-binding probe block
        // returns 2 rows, so the sizer scales way past the 16 remaining
        // bindings (clamped at `MAX_BLOCK_SIZE`) and ships them in a single
        // block: 2 selects at B where blocks of 4 would be 5.
        assert_eq!(window.select_requests, 1 + 2);
    }

    #[test]
    fn adapted_size_never_shrinks_and_respects_bounds() {
        // Block size 100, against the 1024-row target and the 4096 cap.
        // Empty probe response: maximally selective, jump to the cap.
        assert_eq!(adapted_block_size(100, 100, 0), 4096);
        // One row per binding: target rows per request.
        assert_eq!(adapted_block_size(100, 100, 100), 1024);
        // Explosive fan-out (10 rows per binding): clamped at the floor —
        // the schedule never gets *more* requests than fixed sizing.
        assert_eq!(adapted_block_size(100, 100, 1000), 102);
        assert_eq!(adapted_block_size(100, 100, 10_000), 100);
        // Degenerate probe sizes never divide by zero.
        assert_eq!(adapted_block_size(100, 0, 0), 1024);
    }

    /// The cost model delayed both subqueries and the plan promoted the
    /// more selective one (`Lusail::plan` chooses it): SAPE runs the
    /// promoted record in phase 1 and binds the other with its bindings.
    #[test]
    fn all_delayed_promotes_the_most_selective() {
        let (fed, dict) = chain_fed();
        let promoted = Schedule::Promoted("test".into());
        let sqs = subqueries(&dict, [(20, delayed()), (10, promoted)]);
        let sink = TraceSink::enabled();
        let opts = ExecOptions::default().with_trace(sink.clone());
        let net = Net::for_query(
            RequestPolicy::default(),
            Arc::new(SystemClock::default()),
            &opts,
        );
        let config = LusailConfig::default();
        let counts = SourceMap::default();
        let (sols, delayed) = evaluate_subqueries(&fed, &net, &sqs, &counts, &config, None);
        // The promoted subquery ran unbound in phase 1; the other stayed
        // delayed and was bound with its bindings.
        assert_eq!(delayed, 1);
        assert_eq!(sols.len(), 10);
        let trace = QueryTrace::from_sink(&sink);
        let evaluated: Vec<usize> = (trace.events.iter())
            .filter_map(|ev| match ev {
                TraceEvent::SubqueryEvaluated { index, .. } => Some(*index),
                _ => None,
            })
            .collect();
        assert_eq!(evaluated, [1, 0]);
        let bound: Vec<usize> = (trace.events.iter())
            .filter_map(|ev| match ev {
                TraceEvent::ValuesBatch { subquery, .. } => Some(*subquery),
                _ => None,
            })
            .collect();
        assert_eq!(bound, [0]);
    }

    #[test]
    fn no_delays_joins_concurrent_results() {
        let (fed, dict) = chain_fed();
        let concurrent = [(20, Schedule::Concurrent), (10, Schedule::Concurrent)];
        let sqs = subqueries(&dict, concurrent);
        let net = Net::default();
        let config = LusailConfig::default();
        let before = fed.stats_snapshot();
        let counts = SourceMap::default();
        let (sols, delayed) = evaluate_subqueries(&fed, &net, &sqs, &counts, &config, None);
        let window = fed.stats_snapshot().since(&before);
        assert_eq!(delayed, 0);
        assert_eq!(sols.len(), 10);
        // Both subqueries run unbound: exactly 2 selects.
        assert_eq!(window.select_requests, 2);
    }

    /// Bind-or-fetch data, over `p`, `q` and 20 midpoints `m0..m19`: A
    /// holds `s_i p m_i`; B holds 60 `q` edges from every midpoint (1 200
    /// rows, far more bytes than the midpoints); C holds 20 `q` edges,
    /// five from `m0..m4` and fifteen from subjects no binding names
    /// (fewer bytes than the midpoints). Returns each endpoint's triples.
    fn split_data() -> [Vec<[Term; 3]>; 3] {
        let x = |l: String| Term::iri(format!("http://x/{l}"));
        let (p, q) = (x("p".into()), x("q".into()));
        let m = |i: usize| Term::iri(format!("http://m/v{i}"));
        let a = (0..20).map(|i| [x(format!("s{i}")), p.clone(), m(i)]);
        let b = (0..20).flat_map(|i| (0..60).map(move |k| (i, k)));
        let b = b.map(|(i, k)| [m(i), q.clone(), Term::int(k)]);
        let c = (0..20).map(|i| match i {
            0..5 => [m(i), q.clone(), Term::int(100 + i as i64)],
            _ => [
                x(format!("foreign{i}")),
                q.clone(),
                Term::int(100 + i as i64),
            ],
        });
        [a.collect(), b.collect(), c.collect()]
    }

    fn split_fed() -> (Federation, Arc<Dictionary>) {
        let dict = Dictionary::shared();
        let mut fed = Federation::new(Arc::clone(&dict));
        for (name, triples) in ["A", "B", "C"].into_iter().zip(split_data()) {
            let mut store = TripleStore::new(Arc::clone(&dict));
            for [s, p, o] in &triples {
                store.insert_terms(s, p, o);
            }
            fed.add(Arc::new(LocalEndpoint::new(name, store)));
        }
        (fed, dict)
    }

    /// `?s p ?m` at A, then `patterns` at `sources`.
    fn split_subqueries(
        dict: &Dictionary,
        patterns: &[(&str, &str, &str)],
        sources: Vec<EndpointId>,
    ) -> Vec<Subquery> {
        let delayed = patterns
            .iter()
            .map(|&(s, p, o)| tp(dict, s, p, o))
            .collect();
        vec![
            Subquery::new(vec![tp(dict, "?s", "http://x/p", "?m")], vec![0]),
            Subquery::new(delayed, sources),
        ]
    }

    /// The source map of `sqs`' patterns: counted by Lusail's source
    /// selection (`counted`), or relevance alone, as the `ASK`-based
    /// engines know it.
    fn split_counts(fed: &Federation, sqs: &[Subquery], counted: bool) -> SourceMap {
        let mut map = SourceMap::default();
        if counted {
            let bgp = GroupPattern::bgp(sqs.iter().flat_map(|sq| sq.triples.clone()).collect());
            map = select_sources::<u64>(fed, &bgp, &ProbeCache::new(), &Net::default());
        } else {
            for sq in sqs {
                for tp in &sq.triples {
                    map.push_entry(tp.clone(), sq.sources.clone());
                }
            }
        }
        map
    }

    /// Evaluates `sqs` at block size 4 with the second delayed, its row
    /// bounds from [`split_counts`]. Returns the solutions, the trace and
    /// each endpoint's counter window.
    fn run_split(
        fed: &Federation,
        sqs: &[Subquery],
        counted: bool,
    ) -> (SolutionSet, QueryTrace, Vec<StatsSnapshot>) {
        let counts = split_counts(fed, sqs, counted);
        let sqs = planned(
            sqs.to_vec(),
            [(20, Schedule::Concurrent), (1200, delayed())],
        );
        let sink = TraceSink::enabled();
        let opts = ExecOptions::default().with_trace(sink.clone());
        let net = Net::for_query(
            RequestPolicy::default(),
            Arc::new(SystemClock::default()),
            &opts,
        );
        let config = LusailConfig {
            block_size: 4,
            ..LusailConfig::default()
        };
        let before: Vec<StatsSnapshot> = fed.iter().map(|(_, ep)| ep.stats_snapshot()).collect();
        let (sols, _) = evaluate_subqueries(fed, &net, &sqs, &counts, &config, None);
        let windows = (fed.iter().zip(&before))
            .map(|((_, ep), before)| ep.stats_snapshot().since(before))
            .collect();
        (sols, QueryTrace::from_sink(&sink), windows)
    }

    fn values_blocks_to(trace: &QueryTrace, endpoint: EndpointId) -> usize {
        let to = |ev: &&TraceEvent| matches!(ev, TraceEvent::ValuesBatch { endpoint: e, .. } if *e == endpoint);
        trace.events.iter().filter(to).count()
    }

    #[test]
    fn a_source_cheaper_to_fetch_than_to_bind_is_fetched_whole() {
        let (fed, dict) = split_fed();
        let sqs = split_subqueries(&dict, &[("?m", "http://x/q", "?n")], vec![1, 2]);
        let (sols, trace, windows) = run_split(&fed, &sqs, true);
        // C's whole answer, 20 rows, is smaller than the 20 midpoints:
        // one unbound request and no block.
        let whole = TraceEvent::WholeFetched {
            subquery: 1,
            endpoint: 2,
            rows_bound: 20,
        };
        assert_eq!(trace.events.iter().filter(|ev| **ev == whole).count(), 1);
        assert_eq!(trace.whole_fetched(1), [2]);
        assert_eq!(values_blocks_to(&trace, 2), 0);
        assert_eq!(windows[2].select_requests, 1);
        // B ships. Its 4-binding probe block returns 240 rows, which size
        // the other 16 bindings into one block of 17; C's 20 whole rows
        // counted in would have cut them into blocks of 15.
        assert_eq!(adapted_block_size(4, 4, 240), 17);
        assert_eq!(adapted_block_size(4, 4, 240 + 20), 15);
        assert_eq!(values_blocks_to(&trace, 1), 2);
        assert_eq!(windows[1].select_requests, 2);
        // C's fifteen foreign rows die in the join: the answer is the
        // merged store's.
        let mut merged = TripleStore::new(Arc::clone(&dict));
        for [s, p, o] in split_data().iter().flatten() {
            merged.insert_terms(s, p, o);
        }
        let text = "SELECT ?s ?m ?n WHERE { ?s <http://x/p> ?m . ?m <http://x/q> ?n }";
        let oracle = lusail_store::eval::evaluate(&merged, &parse_query(text, &dict).unwrap());
        assert_eq!(sols.len(), 20 * 60 + 5);
        assert_eq!(sols.canonicalize(), oracle.canonicalize());
    }

    #[test]
    fn fetching_whole_costs_fewer_bytes_than_the_shipping_floor() {
        let (fed, dict) = split_fed();
        let sqs = split_subqueries(&dict, &[("?m", "http://x/q", "?n")], vec![1, 2]);
        let (whole, _, fetched) = run_split(&fed, &sqs, true);
        let (bound, _, shipped) = run_split(&fed, &sqs, false);
        assert_eq!(whole.canonicalize(), bound.canonicalize());
        let bytes = |w: &StatsSnapshot| w.bytes_sent + w.bytes_returned;
        // What any bound schedule sends C at least: the unbound query plus
        // `(<term> ) ` per binding.
        let floor = query_wire_len(&sqs[1].to_query(None), &dict) as u64
            + (0..20)
                .map(|i| Term::iri(format!("http://m/v{i}")).wire_len() as u64 + 4)
                .sum::<u64>();
        assert!(
            bytes(&fetched[2]) < floor,
            "{} >= {floor}",
            bytes(&fetched[2])
        );
        assert!(bytes(&fetched[2]) < bytes(&shipped[2]));
        assert!(fetched[2].total_requests() <= shipped[2].total_requests());
        // The shipping source's schedule is the same either way.
        assert_eq!(bytes(&fetched[1]), bytes(&shipped[1]));
        assert_eq!(fetched[1].total_requests(), shipped[1].total_requests());
    }

    #[test]
    fn a_source_with_no_count_ships() {
        let (fed, dict) = split_fed();
        let sqs = split_subqueries(&dict, &[("?m", "http://x/q", "?n")], vec![1, 2]);
        let (sols, trace, windows) = run_split(&fed, &sqs, false);
        assert_eq!(sols.len(), 20 * 60 + 5);
        assert!(trace.whole_fetched(1).is_empty());
        // The probe block and the adapted rest: two blocks to each source.
        assert_eq!(
            (values_blocks_to(&trace, 1), values_blocks_to(&trace, 2)),
            (2, 2)
        );
        assert_eq!(windows[2].select_requests, 2);
    }

    #[test]
    fn a_multi_pattern_subquery_always_ships() {
        let (fed, dict) = split_fed();
        // A self-join on the midpoint, at C alone: each pattern is counted
        // (20 rows), but no pattern count bounds the join.
        let patterns = [("?m", "http://x/q", "?n"), ("?m", "http://x/q", "?k")];
        let sqs = split_subqueries(&dict, &patterns, vec![2]);
        let (sols, trace, _) = run_split(&fed, &sqs, true);
        let counts = split_counts(&fed, &sqs, true);
        let midpoints: Vec<lusail_rdf::TermId> = (0..20)
            .map(|i| dict.encode(&Term::iri(format!("http://m/v{i}"))))
            .collect();
        assert!(fetched_whole(&fed, &sqs[1], &counts, &[2], &midpoints).is_none());
        assert_eq!(sols.len(), 5);
        assert!(trace.whole_fetched(1).is_empty());
        assert_eq!(values_blocks_to(&trace, 2), 2);
    }

    #[test]
    fn empty_subquery_list_yields_single_empty_row() {
        let (fed, _) = chain_fed();
        let net = Net::default();
        let (sols, delayed) = evaluate_subqueries(
            &fed,
            &net,
            &[],
            &SourceMap::default(),
            &LusailConfig::default(),
            None,
        );
        assert_eq!(delayed, 0);
        assert_eq!(sols.len(), 1);
        assert!(sols.vars.is_empty());
    }
}
