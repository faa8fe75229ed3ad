//! Multi-query optimization (§V: "Lusail also supports multi-query
//! optimization", detailed in the paper's extended version).
//!
//! A batch of queries often shares subqueries after decomposition — in
//! the paper's motivating scenario many users ask overlapping analytical
//! queries over the same decentralized graphs. [`Lusail::execute_batch`]
//! runs every item through the engine's one planner and one executor
//! (`Lusail::plan` → `Lusail::execute_plan`, exactly as a solo query) and
//! hands the executor a `BatchMemo`: phase 1 of SAPE takes the relation
//! of any non-delayed subquery an earlier item already fetched —
//! *identical* normalized patterns, filters, sources, and projection —
//! from the memo instead of the wire, and records the ones it fetches.
//! Nothing else differs from solo execution: delayed subqueries are bound
//! with `VALUES` from the item's own joined relations, joins take the same
//! order, and nested OPTIONAL / UNION / NOT EXISTS groups share through the
//! same memo.
//!
//! [`Lusail::execute_batch_with`] is the options-aware form the query
//! server's cross-tenant batching scheduler drives: every item carries its
//! own [`ExecOptions`] (trace sink, thread budget, deadline, health hook),
//! deadlines are charged from the *batch* start so one tenant's work never
//! extends another tenant's budget, and a shared relation that lost data
//! degrades every dependent item with the producing evaluation's failure
//! attribution merged into its report.

use crate::engine::{Lusail, QueryResult};
use crate::exec::Net;
use crate::subquery::Subquery;
use lusail_endpoint::{
    EndpointFailure, EndpointId, ExecOptions, Federation, FederationError, TraceEvent,
};
use lusail_sparql::ast::{Expression, Query, TriplePattern};
use lusail_sparql::SolutionSet;
use std::collections::HashMap;

/// The batch memo's key for a subquery: its patterns (sorted, variable
/// names kept — the projection names them), sources, pushed filters, and
/// projection (sorted). Two subqueries with equal keys evaluate to
/// multiset-equal relations (pinned by the signature-soundness property
/// test), which is what makes reusing a memoized relation across queries
/// safe.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SubqueryKey {
    triples: Vec<TriplePattern>,
    sources: Vec<EndpointId>,
    filters: Vec<Expression>,
    projection: Vec<String>,
}

impl SubqueryKey {
    /// The key of `sq`.
    pub fn of(sq: &Subquery) -> Self {
        let mut triples = sq.triples.clone();
        triples.sort_unstable();
        let mut projection = sq.projection.clone();
        projection.sort_unstable();
        SubqueryKey {
            triples,
            sources: sq.sources.clone(),
            filters: sq.filters.clone(),
            projection,
        }
    }
}

/// Statistics from a batch execution.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Subqueries across all queries, after decomposition.
    pub total_subqueries: usize,
    /// Distinct subqueries actually evaluated.
    pub distinct_subqueries: usize,
    /// Subquery evaluations answered from the batch memo instead of the
    /// wire.
    pub shared_hits: u64,
    /// Wire requests avoided by memo hits: each reuse credits the request
    /// count the producing evaluation spent.
    pub wire_requests_saved: u64,
}

/// One query in an options-aware batch ([`Lusail::execute_batch_with`]).
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The query to execute.
    pub query: Query,
    /// Per-item options: trace sink, thread budget, deadline, health hook.
    pub opts: ExecOptions,
}

/// Per-item outcome of [`Lusail::execute_batch_with`]. The batch itself is
/// infallible — one item's failure never poisons its neighbours.
#[derive(Debug, Clone)]
pub enum BatchOutcome {
    /// The query ran (possibly degraded; see `QueryResult::complete`).
    Finished(Box<QueryResult>),
    /// The item's deadline had fully elapsed — burned by earlier items in
    /// the batch — before its turn; nothing was executed for it.
    DeadlineExpired,
    /// Federation-level misuse, reported per item.
    Error(FederationError),
}

/// A memoized shared relation plus everything a *dependent* query must
/// inherit to stay honest: whether the producing evaluation lost data,
/// which endpoints misbehaved while producing it, and what it cost on the
/// wire (the savings each reuse records).
struct SharedEntry {
    /// The batch item that fetched the relation.
    item: usize,
    relation: SolutionSet,
    lost: bool,
    failures: Vec<EndpointFailure>,
    requests_spent: u64,
}

/// Folds `extra` failure entries into `into`, merging per endpoint:
/// counters add, the dead flag is sticky, and the deduped error kinds stay
/// in taxonomy order. The result is sorted by endpoint id so reports are
/// deterministic regardless of which item evaluated what.
fn merge_failures(into: &mut Vec<EndpointFailure>, extra: &[EndpointFailure]) {
    for e in extra {
        match into.iter_mut().find(|f| f.endpoint == e.endpoint) {
            Some(f) => {
                f.failed_requests += e.failed_requests;
                f.retries += e.retries;
                f.dead |= e.dead;
                for err in &e.errors {
                    if !f.errors.contains(err) {
                        f.errors.push(*err);
                    }
                }
                f.errors.sort_by_key(|err| err.index());
            }
            None => into.push(e.clone()),
        }
    }
    into.sort_by_key(|f| f.endpoint);
}

/// The failure growth between two reports from the same client: entries
/// whose failure counters advanced (with the deltas), plus endpoints that
/// newly appeared. This is the attribution a shared relation carries.
fn failure_delta(before: &[EndpointFailure], after: Vec<EndpointFailure>) -> Vec<EndpointFailure> {
    after
        .into_iter()
        .filter_map(|mut f| {
            let Some(b) = before.iter().find(|b| b.endpoint == f.endpoint) else {
                return Some(f);
            };
            let failed = f.failed_requests.saturating_sub(b.failed_requests);
            let retries = f.retries.saturating_sub(b.retries);
            if failed == 0 && retries == 0 && f.dead == b.dead {
                return None;
            }
            f.failed_requests = failed;
            f.retries = retries;
            Some(f)
        })
        .collect()
}

/// The batch's shared-relation memo: what phase 1 of the executor
/// consults and fills (see `exec::evaluate_subqueries`), plus the running
/// [`BatchReport`] and the failure attribution the *current* item has
/// inherited through lost relations an earlier item fetched — the item
/// never touched those endpoints itself, so its own client report cannot
/// know about them. Sharing is *across* items only: a query that repeats
/// one of its own subqueries fetches it twice, as it does solo, so a batch
/// of one is wire-identical to solo execution.
#[derive(Default)]
pub(crate) struct BatchMemo {
    shared: HashMap<SubqueryKey, SharedEntry>,
    report: BatchReport,
    /// Position of the current item in the batch.
    item: usize,
    inherited: Vec<EndpointFailure>,
}

impl BatchMemo {
    /// The memoized relation for `sq` (subquery `index` of the current
    /// item), in `sq`'s own column order. A relation with a hole degrades
    /// the dependent query honestly: incompleteness and the producing
    /// failures are inherited along with the rows.
    pub(crate) fn lookup(&mut self, index: usize, sq: &Subquery, net: &Net) -> Option<SolutionSet> {
        let entry = self.shared.get(&SubqueryKey::of(sq))?;
        if entry.item == self.item {
            return None;
        }
        self.report.shared_hits += 1;
        self.report.wire_requests_saved += entry.requests_spent;
        net.trace.emit(|| TraceEvent::SubqueryShared {
            index,
            saved_requests: entry.requests_spent,
        });
        if entry.lost {
            net.degradation.record_data_loss();
            merge_failures(&mut self.inherited, &entry.failures);
        }
        Some(entry.relation.project(&sq.projection))
    }

    /// Memoizes the relation the current item just fetched for `sq`.
    /// `lost` says a partition of it failed; the failure growth since
    /// `failures_before` at `sq`'s own endpoints is then its attribution.
    pub(crate) fn store(
        &mut self,
        fed: &Federation,
        net: &Net,
        sq: &Subquery,
        relation: &SolutionSet,
        lost: bool,
        failures_before: &[EndpointFailure],
    ) {
        let mut failures = Vec::new();
        if lost {
            failures = failure_delta(failures_before, net.client.report(fed));
            failures.retain(|f| sq.sources.contains(&fed.primary_of(f.endpoint)));
        }
        self.shared.insert(
            SubqueryKey::of(sq),
            SharedEntry {
                item: self.item,
                relation: relation.clone(),
                lost,
                failures,
                // One SELECT per relevant endpoint: what a reuse saves.
                requests_spent: sq.sources.len() as u64,
            },
        );
    }

    /// Counts one decomposed group's subqueries into the report.
    pub(crate) fn count_subqueries(&mut self, n: usize) {
        self.report.total_subqueries += n;
    }

    /// Ends the current item: merges what it inherited into its report.
    pub(crate) fn finish_item(&mut self, failures: &mut Vec<EndpointFailure>) {
        merge_failures(failures, &std::mem::take(&mut self.inherited));
        self.item += 1;
    }
}

impl Lusail {
    /// Executes a batch of queries, sharing identical subquery results.
    ///
    /// Returns one [`QueryResult`] per query (same order) plus a
    /// [`BatchReport`] describing how much work was shared. Every query
    /// shape shares: the subqueries of nested OPTIONAL / UNION / NOT
    /// EXISTS groups go through the same memo as top-level ones.
    pub fn execute_batch(
        &self,
        fed: &Federation,
        queries: &[Query],
    ) -> Result<(Vec<QueryResult>, BatchReport), FederationError> {
        let items: Vec<BatchItem> = queries
            .iter()
            .map(|q| BatchItem {
                query: q.clone(),
                opts: ExecOptions::default(),
            })
            .collect();
        let (outcomes, report) = self.execute_batch_with(fed, &items);
        let mut results = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            match outcome {
                BatchOutcome::Finished(result) => results.push(*result),
                BatchOutcome::Error(e) => return Err(e),
                BatchOutcome::DeadlineExpired => {
                    unreachable!("default options carry no deadline")
                }
            }
        }
        Ok((results, report))
    }

    /// Options-aware batch execution: one [`BatchOutcome`] per item (same
    /// order), sharing identical non-delayed subquery relations across
    /// items. The contracts the server's batching scheduler relies on:
    ///
    /// * **Deadlines are absolute.** An item's `opts.deadline` is measured
    ///   from the *batch* start on the federation's clock, so time burned
    ///   by earlier items counts against it — sharing can only shorten a
    ///   query, never extend it past what it asked for. An item whose
    ///   deadline elapsed before its turn yields
    ///   [`BatchOutcome::DeadlineExpired`] without touching the wire.
    /// * **Failure attribution is inherited.** A shared relation that lost
    ///   data degrades every dependent item exactly as if the item had
    ///   evaluated the subquery itself: `complete` goes false and the
    ///   producing evaluation's per-endpoint failures merge into the
    ///   item's report.
    /// * **Traces stay per-item.** Each enabled sink sees its own planning
    ///   events, a [`TraceEvent::SubqueryShared`] for every memo hit, and
    ///   the terminal [`TraceEvent::QueryFinished`].
    pub fn execute_batch_with(
        &self,
        fed: &Federation,
        items: &[BatchItem],
    ) -> (Vec<BatchOutcome>, BatchReport) {
        let clock = fed.clock();
        let start = clock.now();
        let mut memo = BatchMemo::default();
        let mut outcomes = Vec::with_capacity(items.len());
        for item in items {
            let elapsed = clock.now().saturating_sub(start);
            let opts = match item.opts.deadline {
                Some(d) if elapsed >= d => {
                    outcomes.push(BatchOutcome::DeadlineExpired);
                    continue;
                }
                Some(d) => item.opts.clone().with_deadline(d - elapsed),
                None => item.opts.clone(),
            };
            outcomes.push(
                match self.execute_on(fed, &item.query, &opts, Some(&mut memo)) {
                    Ok((result, _)) => BatchOutcome::Finished(Box::new(result)),
                    Err(e) => BatchOutcome::Error(e),
                },
            );
        }
        let mut report = memo.report;
        report.distinct_subqueries = memo.shared.len();
        (outcomes, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_endpoint::{FaultProfile, FlakyEndpoint, LocalEndpoint, ManualClock, RequestPolicy};
    use lusail_rdf::{Dictionary, Term};
    use lusail_sparql::parse_query;
    use lusail_store::TripleStore;
    use std::sync::Arc;
    use std::time::Duration;

    fn fed() -> (Federation, TripleStore) {
        let dict = Dictionary::shared();
        let mut oracle = TripleStore::new(Arc::clone(&dict));
        let mut a = TripleStore::new(Arc::clone(&dict));
        let mut b = TripleStore::new(Arc::clone(&dict));
        for i in 0..30 {
            let s = Term::iri(format!("http://a/s{i}"));
            let v = Term::iri(format!("http://shared/v{}", i % 10));
            let o = Term::iri(format!("http://b/o{i}"));
            a.insert_terms(&s, &Term::iri("http://x/p"), &v);
            oracle.insert_terms(&s, &Term::iri("http://x/p"), &v);
            b.insert_terms(&v, &Term::iri("http://x/q"), &o);
            oracle.insert_terms(&v, &Term::iri("http://x/q"), &o);
            b.insert_terms(&v, &Term::iri("http://x/r"), &Term::int(i));
            oracle.insert_terms(&v, &Term::iri("http://x/r"), &Term::int(i));
        }
        let mut fed = Federation::new(dict);
        fed.add(Arc::new(LocalEndpoint::new("A", a)));
        fed.add(Arc::new(LocalEndpoint::new("B", b)));
        (fed, oracle)
    }

    #[test]
    fn batch_shares_common_subqueries() {
        let (fed, oracle) = fed();
        let q1 = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
            fed.dict(),
        )
        .unwrap();
        let q2 = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/r> ?n }",
            fed.dict(),
        )
        .unwrap();
        let engine = Lusail::default();
        let (results, report) = engine
            .execute_batch(&fed, &[q1.clone(), q2.clone()])
            .unwrap();
        // Both queries decompose into 2 subqueries; the (?s p ?v) subquery
        // is shared.
        assert_eq!(report.total_subqueries, 4);
        assert!(report.distinct_subqueries < 4, "{report:?}");
        // Results still match the oracle.
        for (r, q) in results.iter().zip([&q1, &q2]) {
            let expected = lusail_store::eval::evaluate(&oracle, q).canonicalize();
            assert_eq!(r.solutions.canonicalize(), expected);
        }
    }

    #[test]
    fn batch_reduces_requests_vs_sequential() {
        let (fed, _) = fed();
        let q1 = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
            fed.dict(),
        )
        .unwrap();
        let q2 = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/r> ?n }",
            fed.dict(),
        )
        .unwrap();

        // Sequential: two separate engines (cold probe caches each).
        let before = fed.stats_snapshot();
        let e1 = Lusail::default();
        let _ = e1.execute(&fed, &q1);
        let _ = e1.execute(&fed, &q2);
        let sequential = fed.stats_snapshot().since(&before).select_requests;

        let before = fed.stats_snapshot();
        let e2 = Lusail::default();
        let _ = e2.execute_batch(&fed, &[q1, q2]).unwrap();
        let batched = fed.stats_snapshot().since(&before).select_requests;
        assert!(
            batched < sequential,
            "batched {batched} !< sequential {sequential}"
        );
    }

    #[test]
    fn repeating_a_query_shares_all_its_subqueries() {
        let (fed, oracle) = fed();
        let q = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
            fed.dict(),
        )
        .unwrap();
        let engine = Lusail::default();
        let (results, report) = engine
            .execute_batch(&fed, &[q.clone(), q.clone(), q.clone()])
            .unwrap();
        // Three copies of a 2-subquery query: only the distinct pair is
        // evaluated (delayed subqueries are per-query and not memoized, so
        // the distinct count stays at most the per-query subquery count).
        assert_eq!(report.total_subqueries, 6);
        assert!(report.distinct_subqueries <= 2, "{report:?}");
        // Repeats hit the memo, and every hit credits the wire requests
        // the first evaluation spent.
        assert!(report.shared_hits >= 1, "{report:?}");
        assert!(report.wire_requests_saved >= 1, "{report:?}");
        let expected = lusail_store::eval::evaluate(&oracle, &q).canonicalize();
        for r in &results {
            assert_eq!(r.solutions.canonicalize(), expected);
        }
    }

    #[test]
    fn batch_results_match_single_query_execution() {
        // Sharing must be invisible in the answers: every query in an
        // overlapping batch returns exactly what a standalone `execute`
        // returns (which the differential suite pins to the oracle).
        let (fed, _) = fed();
        let texts = [
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/r> ?n }",
            "SELECT ?v WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
        ];
        let queries: Vec<Query> = texts
            .iter()
            .map(|t| parse_query(t, fed.dict()).unwrap())
            .collect();
        let batch_engine = Lusail::default();
        let (results, _) = batch_engine.execute_batch(&fed, &queries).unwrap();
        for (r, q) in results.iter().zip(&queries) {
            let solo = Lusail::default().execute(&fed, q).unwrap();
            assert_eq!(
                r.solutions.canonicalize(),
                solo.solutions.canonicalize(),
                "batched answers diverged from standalone execution"
            );
        }
    }

    #[test]
    fn filtered_variant_is_not_served_from_unfiltered_relation() {
        // Two queries over the same patterns where one pushes a FILTER
        // into its subquery: the signatures differ, so the filtered query
        // must not inherit the unfiltered relation (or vice versa).
        let (fed, oracle) = fed();
        let q_all = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/r> ?n }",
            fed.dict(),
        )
        .unwrap();
        let q_filtered = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/r> ?n . FILTER (?n > 24) }",
            fed.dict(),
        )
        .unwrap();
        let engine = Lusail::default();
        let (results, _) = engine
            .execute_batch(&fed, &[q_all.clone(), q_filtered.clone()])
            .unwrap();
        let expect_all = lusail_store::eval::evaluate(&oracle, &q_all).canonicalize();
        let expect_filtered = lusail_store::eval::evaluate(&oracle, &q_filtered).canonicalize();
        assert_eq!(results[0].solutions.canonicalize(), expect_all);
        assert_eq!(results[1].solutions.canonicalize(), expect_filtered);
        assert!(results[1].solutions.len() < results[0].solutions.len());
    }

    #[test]
    fn nested_query_shares_its_outer_relation_with_a_conjunctive_one() {
        // The OPTIONAL query's outer BGP and the join query's first
        // subquery are the same `?s p ?v` relation: one fetch serves both.
        let (fed, oracle) = fed();
        let nested = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . OPTIONAL { ?v <http://x/r> ?n } }",
            fed.dict(),
        )
        .unwrap();
        let join = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
            fed.dict(),
        )
        .unwrap();
        let engine = Lusail::default();
        let (results, report) = engine
            .execute_batch(&fed, &[nested.clone(), join.clone()])
            .unwrap();
        assert!(report.shared_hits >= 1, "{report:?}");
        for (r, q) in results.iter().zip([&nested, &join]) {
            let expected = lusail_store::eval::evaluate(&oracle, q).canonicalize();
            assert_eq!(r.solutions.canonicalize(), expected);
        }
    }

    #[test]
    fn batch_of_one_binds_its_delayed_subquery_like_solo() {
        // 1000 `?s p ?v` triples at A, one `?v q ?o` at B: the cost model
        // delays the big subquery so it ships bound to B's single ?v.
        // Fetching it unbound instead moves ~1000 rows for the same request
        // count, which a request-count oracle cannot see.
        let dict = Dictionary::shared();
        let mut a = TripleStore::new(Arc::clone(&dict));
        let mut b = TripleStore::new(Arc::clone(&dict));
        for i in 0..1000 {
            a.insert_terms(
                &Term::iri(format!("http://a/s{i}")),
                &Term::iri("http://x/p"),
                &Term::iri(format!("http://shared/v{i}")),
            );
        }
        b.insert_terms(
            &Term::iri("http://shared/v0"),
            &Term::iri("http://x/q"),
            &Term::iri("http://b/o"),
        );
        let mut fed = Federation::new(dict);
        fed.add(Arc::new(LocalEndpoint::new("A", a)));
        fed.add(Arc::new(LocalEndpoint::new("B", b)));
        let q = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
            fed.dict(),
        )
        .unwrap();

        let before = fed.stats_snapshot();
        let solo = Lusail::default().execute(&fed, &q).unwrap();
        let solo_window = fed.stats_snapshot().since(&before);
        let before = fed.stats_snapshot();
        let (batched, _) = Lusail::default()
            .execute_batch(&fed, std::slice::from_ref(&q))
            .unwrap();
        let batched_window = fed.stats_snapshot().since(&before);

        assert_eq!(batched[0].metrics.delayed_subqueries, 1);
        assert_eq!(solo.metrics.delayed_subqueries, 1);
        // One row per endpoint's coalesced COUNTs, B's one row, A's one
        // bound row.
        assert_eq!(batched_window.rows_returned, 4);
        assert_eq!(batched_window, solo_window);
        assert_eq!(batched[0].solutions.len(), 1);
    }

    /// A federation whose B endpoint (predicates q/r) is wrapped in a
    /// fault profile; A (predicate p) stays healthy.
    fn fed_with_faulty_b(profile: FaultProfile) -> Federation {
        let dict = Dictionary::shared();
        let mut a = TripleStore::new(Arc::clone(&dict));
        let mut b = TripleStore::new(Arc::clone(&dict));
        for i in 0..30 {
            let s = Term::iri(format!("http://a/s{i}"));
            let v = Term::iri(format!("http://shared/v{}", i % 10));
            let o = Term::iri(format!("http://b/o{i}"));
            a.insert_terms(&s, &Term::iri("http://x/p"), &v);
            b.insert_terms(&v, &Term::iri("http://x/q"), &o);
        }
        let mut fed = Federation::new(dict);
        fed.add(Arc::new(LocalEndpoint::new("A", a)));
        fed.add(Arc::new(FlakyEndpoint::new(
            Arc::new(LocalEndpoint::new("B", b)),
            profile,
        )));
        fed
    }

    #[test]
    fn failed_shared_subquery_degrades_every_dependent_item() {
        // The q-subquery lives at the dead endpoint B: whichever item
        // evaluates (and memoizes) it records the hole, and every item
        // that reuses the relation must inherit both the incompleteness
        // and the failure attribution for B.
        let fed = fed_with_faulty_b(FaultProfile::dead());
        let q = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
            fed.dict(),
        )
        .unwrap();
        let engine = Lusail::default();
        let items: Vec<BatchItem> = (0..3)
            .map(|_| BatchItem {
                query: q.clone(),
                opts: ExecOptions::default(),
            })
            .collect();
        let (outcomes, report) = engine.execute_batch_with(&fed, &items);
        assert!(report.shared_hits >= 1, "{report:?}");
        let mut first_rows = None;
        for outcome in &outcomes {
            let BatchOutcome::Finished(result) = outcome else {
                panic!("item did not finish: {outcome:?}");
            };
            assert!(!result.complete, "a shared hole must degrade every item");
            assert!(
                result.failures.iter().any(|f| f.name == "B"),
                "dependent item lost B's attribution: {:?}",
                result.failures
            );
            let rows = result.solutions.canonicalize();
            if let Some(first) = &first_rows {
                assert_eq!(&rows, first, "shared reuse changed the answer");
            } else {
                first_rows = Some(rows);
            }
        }
    }

    #[test]
    fn deadline_burned_by_earlier_items_expires_later_items() {
        // Item 0 burns virtual time in retry backoffs against an
        // always-interrupting endpoint; item 1's deadline is charged from
        // the batch start, so it must expire without touching the wire.
        let clock = ManualClock::new();
        let fed = fed_with_faulty_b(FaultProfile::transient(7, 1.0))
            .with_policy(RequestPolicy {
                max_retries: 2,
                base_backoff: Duration::from_millis(100),
                ..RequestPolicy::default()
            })
            .with_clock(clock.clone());
        let q = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
            fed.dict(),
        )
        .unwrap();
        let engine = Lusail::default();
        let items = vec![
            BatchItem {
                query: q.clone(),
                opts: ExecOptions::default(),
            },
            BatchItem {
                query: q.clone(),
                opts: ExecOptions::default().with_deadline(Duration::from_millis(50)),
            },
        ];
        let (outcomes, _) = engine.execute_batch_with(&fed, &items);
        assert!(
            matches!(outcomes[0], BatchOutcome::Finished(_)),
            "{:?}",
            outcomes[0]
        );
        assert!(
            clock.elapsed() >= Duration::from_millis(100),
            "retry backoffs should have advanced the virtual clock"
        );
        assert!(
            matches!(outcomes[1], BatchOutcome::DeadlineExpired),
            "a deadline burned by a neighbour must expire, got {:?}",
            outcomes[1]
        );
    }
}
