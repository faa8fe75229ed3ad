//! A SPLENDID-style engine (Görlitz & Staab, COLD 2011).
//!
//! SPLENDID is the paper's index-based baseline. It requires a
//! **preprocessing pass** that builds VOID-style statistics for every
//! endpoint — per-predicate triple counts and distinct subject/object
//! counts. The paper reports this pass costing 25 s (QFed) to 3,513 s
//! (LargeRDFBench) and uses it to argue for index-free designs. Here the
//! VOID description of an endpoint is its [`EndpointStats`], the summary
//! Lusail's statistics layer builds in one pass over the endpoint's store
//! (it also computes characteristic sets, which SPLENDID ignores);
//! [`VoidIndex::build`] builds one per endpoint, and the
//! `preprocessing_cost` figure times it.
//!
//! Query processing: source selection from the index (predicate presence,
//! with `ASK` verification for constant subjects/objects), greedy
//! cost-ordered joins using index cardinalities, and a per-join choice
//! between *hash join* (retrieve both sides independently, in parallel)
//! and *bind join* (one request **per binding** — SPLENDID does not block
//! bindings like FedX, which is why it collapses on large intermediate
//! results, as the paper observes).

use crate::common::{answer, bound_fetch, shared_vars};
use lusail_core::exec::{run_query, Net};
use lusail_core::fetch::{concat, fetch_from};
use lusail_core::source_selection::SourceMap;
use lusail_core::subquery::Subquery;
use lusail_endpoint::{
    EndpointId, ExecOptions, FederatedEngine, Federation, FederationError, LocalEndpoint,
    QueryOutcome,
};
use lusail_rdf::TermId;
use lusail_sparql::ast::{GroupPattern, Query, TriplePattern};
use lusail_sparql::SolutionSet;
use lusail_store::EndpointStats;

/// The preprocessing product: a VOID description per endpoint.
#[derive(Debug, Clone, Default)]
pub struct VoidIndex {
    /// One description per endpoint id: the store total and, per
    /// predicate, its triples and distinct subjects and objects.
    pub descriptions: Vec<EndpointStats>,
}

impl VoidIndex {
    /// Summarizes every endpoint. This is the pass whose cost the paper
    /// contrasts with index-free startup; it reads every endpoint's full
    /// data (here via the [`LocalEndpoint`] store handle, standing in for
    /// the dump/endpoint crawl the real system performs).
    pub fn build(endpoints: &[&LocalEndpoint]) -> Self {
        VoidIndex {
            descriptions: endpoints
                .iter()
                .map(|ep| EndpointStats::build(ep.store()))
                .collect(),
        }
    }

    /// Endpoints whose description contains the predicate.
    fn sources_for_predicate(&self, p: TermId) -> Vec<EndpointId> {
        self.descriptions
            .iter()
            .enumerate()
            .filter(|(_, d)| d.predicate(p).is_some())
            .map(|(i, _)| i)
            .collect()
    }

    /// Index-based cardinality estimate of a pattern at one endpoint.
    fn estimate(&self, tp: &TriplePattern, ep: EndpointId) -> f64 {
        let d = &self.descriptions[ep];
        match tp.p.as_const() {
            Some(p) => match d.predicate(p) {
                Some(summary) => {
                    let mut est = summary.triples as f64;
                    if !tp.s.is_var() {
                        est /= summary.subjects.max(1) as f64;
                    }
                    if !tp.o.is_var() {
                        est /= summary.objects.max(1) as f64;
                    }
                    est.max(1.0)
                }
                None => 0.0,
            },
            None => d.total_triples as f64,
        }
    }
}

/// A join binds when the bound side has fewer bindings than this;
/// otherwise it retrieves the pattern whole and hash-joins.
pub const BIND_JOIN_THRESHOLD: usize = 120;

/// The SPLENDID-style engine. Holds the prebuilt [`VoidIndex`].
pub struct Splendid {
    index: VoidIndex,
}

impl Splendid {
    /// Creates the engine from a prebuilt index.
    pub(crate) fn new(index: VoidIndex) -> Self {
        Splendid { index }
    }

    /// Index-driven source selection: predicate presence, narrowed by ASK
    /// for constant-bearing patterns (mirroring SPLENDID's handling of
    /// `owl:sameAs`-style lookups).
    fn select_sources(&self, fed: &Federation, pattern: &GroupPattern, net: &Net) -> SourceMap {
        let mut map = SourceMap::default();
        for tp in pattern.all_triples() {
            let candidates = match tp.p.as_const() {
                Some(p) => self.index.sources_for_predicate(p),
                None => fed.logical_ids(),
            };
            let sources = if tp.bound_positions() > 1 && candidates.len() > 1 {
                // Verify constants with ASK; a failed probe keeps the
                // candidate (assume relevant — never loses answers).
                let ask = Query::ask(GroupPattern::bgp(vec![tp.clone()]));
                net.ask_relevant(fed, &candidates, &ask)
            } else {
                candidates
            };
            map.push_entry(tp.clone(), sources);
        }
        map
    }

    fn evaluate_group(
        &self,
        fed: &Federation,
        group: &GroupPattern,
        sources: &SourceMap,
        net: &Net,
    ) -> SolutionSet {
        // Order patterns greedily by total index estimate.
        let mut order: Vec<usize> = (0..group.triples.len()).collect();
        let total_est = |i: usize| -> f64 {
            let tp = &group.triples[i];
            sources
                .sources(tp)
                .iter()
                .map(|&ep| self.index.estimate(tp, ep))
                .sum()
        };
        order.sort_by(|&a, &b| total_est(a).total_cmp(&total_est(b)));

        let mut current = match group.values {
            Some(ref v) => SolutionSet {
                vars: v.vars.clone(),
                rows: v.rows.clone(),
            },
            None => SolutionSet::unit(),
        };
        for &i in &order {
            let tp = &group.triples[i];
            let unit = Subquery::new(vec![tp.clone()], sources.sources(tp).to_vec());
            let shared = shared_vars(&current, &unit);
            let use_bind =
                !shared.is_empty() && !current.is_empty() && current.len() < BIND_JOIN_THRESHOLD;
            let fetched = if use_bind {
                // SPLENDID's bind join: one request per binding (no
                // blocking), per relevant endpoint.
                let blocks = bound_fetch(fed, net, &current, &unit, &shared, 1);
                let mut fetched = concat(unit.projection.clone(), blocks.map(Some));
                fetched.dedup();
                fetched
            } else {
                // Hash join: full parallel retrieval of the pattern.
                fetch_from(fed, net, &unit.to_query(None), &unit.sources)
            };
            current = current.hash_join(&fetched);
            if current.is_empty() {
                break;
            }
        }

        current = lusail_store::eval::join_nested_groups(current, group, fed.dict(), |sub| {
            self.evaluate_group(fed, sub, sources, net)
        });
        lusail_store::eval::retain_filtered(&mut current, &group.filters, fed.dict());
        current
    }
}

impl FederatedEngine for Splendid {
    fn run_with(
        &self,
        fed: &Federation,
        query: &Query,
        opts: &ExecOptions,
    ) -> Result<QueryOutcome, FederationError> {
        // SPLENDID memoizes no probe, so a dead endpoint leaves nothing to drop.
        let (outcome, (), _) = run_query(fed, query, opts, |net| {
            let solutions = answer(
                fed,
                query,
                |pattern| self.select_sources(fed, pattern, net),
                // SPLENDID has no first-k cutoff.
                |group, sources, _| self.evaluate_group(fed, group, sources, net),
            );
            (solutions, ())
        })?;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_endpoint::SparqlEndpoint;
    use lusail_rdf::{Dictionary, Term};
    use lusail_sparql::parse_query;
    use lusail_store::TripleStore;
    use std::sync::Arc;

    fn build() -> (Federation, Vec<Arc<LocalEndpoint>>, TripleStore) {
        let dict = Dictionary::shared();
        let mut oracle = TripleStore::new(Arc::clone(&dict));
        let mut a = TripleStore::new(Arc::clone(&dict));
        let mut b = TripleStore::new(Arc::clone(&dict));
        let p = Term::iri("http://x/p");
        let q = Term::iri("http://x/q");
        for i in 0..12 {
            let s = Term::iri(format!("http://x/s{i}"));
            let m = Term::iri(format!("http://x/m{i}"));
            let o = Term::iri(format!("http://x/o{i}"));
            a.insert_terms(&s, &p, &m);
            oracle.insert_terms(&s, &p, &m);
            if i % 3 == 0 {
                b.insert_terms(&m, &q, &o);
                oracle.insert_terms(&m, &q, &o);
            }
        }
        let ea = Arc::new(LocalEndpoint::new("A", a));
        let eb = Arc::new(LocalEndpoint::new("B", b));
        let mut fed = Federation::new(dict);
        fed.add(Arc::clone(&ea) as Arc<dyn SparqlEndpoint>);
        fed.add(Arc::clone(&eb) as Arc<dyn SparqlEndpoint>);
        (fed, vec![ea, eb], oracle)
    }

    #[test]
    fn void_index_statistics() {
        let (_, eps, _) = build();
        let refs: Vec<&LocalEndpoint> = eps.iter().map(|e| e.as_ref()).collect();
        let index = VoidIndex::build(&refs);
        assert_eq!(index.descriptions.len(), 2);
        assert_eq!(index.descriptions[0].total_triples, 12);
        assert_eq!(index.descriptions[1].total_triples, 4);
        let p = eps[0]
            .store()
            .dict()
            .lookup(&Term::iri("http://x/p"))
            .unwrap();
        assert_eq!(index.sources_for_predicate(p), [0]);
    }

    #[test]
    fn chain_query_matches_oracle() {
        let (fed, eps, oracle) = build();
        let refs: Vec<&LocalEndpoint> = eps.iter().map(|e| e.as_ref()).collect();
        let engine = Splendid::new(VoidIndex::build(&refs));
        let q = parse_query(
            "SELECT ?s ?o WHERE { ?s <http://x/p> ?m . ?m <http://x/q> ?o }",
            fed.dict(),
        )
        .unwrap();
        let outcome = engine.run_with(&fed, &q, &ExecOptions::default()).unwrap();
        assert!(outcome.complete);
        let want = lusail_store::eval::evaluate(&oracle, &q);
        assert_eq!(outcome.solutions.canonicalize(), want.canonicalize());
        assert_eq!(outcome.solutions.len(), 4);
    }

    #[test]
    fn index_source_selection_avoids_asks_for_simple_patterns() {
        let (fed, eps, _) = build();
        let refs: Vec<&LocalEndpoint> = eps.iter().map(|e| e.as_ref()).collect();
        let engine = Splendid::new(VoidIndex::build(&refs));
        let q = parse_query("SELECT ?s ?m WHERE { ?s <http://x/p> ?m }", fed.dict()).unwrap();
        let before = fed.stats_snapshot();
        engine.run_with(&fed, &q, &ExecOptions::default()).unwrap();
        let window = fed.stats_snapshot().since(&before);
        assert_eq!(window.ask_requests, 0); // pure index-based selection
        assert_eq!(window.select_requests, 1); // only endpoint A is relevant
    }

    #[test]
    fn bind_join_issues_per_binding_requests() {
        let (fed, eps, _) = build();
        let refs: Vec<&LocalEndpoint> = eps.iter().map(|e| e.as_ref()).collect();
        let engine = Splendid::new(VoidIndex::build(&refs));
        let q = parse_query(
            "SELECT ?s ?o WHERE { ?s <http://x/p> ?m . ?m <http://x/q> ?o }",
            fed.dict(),
        )
        .unwrap();
        let before = fed.stats_snapshot();
        engine.run_with(&fed, &q, &ExecOptions::default()).unwrap();
        let window = fed.stats_snapshot().since(&before);
        // q side is smaller (4 triples at B): evaluated first with 1
        // request; then p side bind-joins with one request per binding (4)
        // at endpoint A.
        assert_eq!(window.select_requests, 1 + 4);
    }

    #[test]
    fn endpoint_dying_mid_bind_join_is_recorded_by_the_net_alone() {
        use lusail_endpoint::{FaultProfile, FlakyEndpoint};
        let (_, eps, _) = build();
        let refs: Vec<&LocalEndpoint> = eps.iter().map(|e| e.as_ref()).collect();
        let engine = Splendid::new(VoidIndex::build(&refs));
        // A serves two of the four one-binding requests, then dies for good.
        let dying_fed = || {
            let mut fed = Federation::new(Arc::clone(eps[0].store().dict()));
            fed.add(Arc::new(FlakyEndpoint::new(
                Arc::clone(&eps[0]) as Arc<dyn SparqlEndpoint>,
                FaultProfile::dies_after(2),
            )));
            fed.add(Arc::clone(&eps[1]) as Arc<dyn SparqlEndpoint>);
            fed
        };
        let fed = dying_fed();
        let q = parse_query(
            "SELECT ?s ?o WHERE { ?s <http://x/p> ?m . ?m <http://x/q> ?o }",
            fed.dict(),
        )
        .unwrap();

        // The engine's evaluation alone, inside the query driver: the
        // driver's answer is incomplete exactly when the net recorded lost
        // data.
        let opts = ExecOptions::default();
        let (alone, (), _) = run_query(&fed, &q, &opts, |net| {
            let sources = engine.select_sources(&fed, &q.pattern, net);
            (engine.evaluate_group(&fed, &q.pattern, &sources, net), ())
        })
        .unwrap();
        assert_eq!(alone.solutions.len(), 2);
        assert!(!alone.complete);

        let outcome = engine
            .run_with(&dying_fed(), &q, &ExecOptions::default())
            .unwrap();
        assert_eq!(outcome.solutions.len(), 2);
        assert!(!outcome.complete);
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].endpoint, 0);
    }
}
