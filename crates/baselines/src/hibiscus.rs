//! A HiBISCuS-style source-pruning add-on (Saleem & Ngonga Ngomo,
//! ESWC 2014), run on top of the FedX executor as in the paper: the engine
//! is `FedX::hibiscus`, a `FedX` holding the
//! [`HibiscusIndex`] built here.
//!
//! HiBISCuS summarizes each endpoint by the **URI authorities** (scheme +
//! host) of the subjects and objects of every predicate. At query time,
//! after ASK source selection, an endpoint is pruned from a pattern's
//! source list when the authorities it could contribute for a join
//! variable cannot intersect the authorities the joining patterns can
//! contribute. This reduces the fan-out of the bound joins but — unlike
//! Lusail's LADE — says nothing about whether the *instances* are
//! co-located, so pattern-at-a-time execution remains.

use lusail_core::source_selection::SourceMap;
use lusail_endpoint::{EndpointId, LocalEndpoint};
use lusail_rdf::{FxHashMap, FxHashSet, TermId};
use lusail_sparql::ast::TriplePattern;

/// Subject and object authority sets for one predicate at one endpoint.
type AuthoritySets = (FxHashSet<String>, FxHashSet<String>);

/// Authority sets per (endpoint, predicate).
#[derive(Debug, Clone, Default)]
pub struct HibiscusIndex {
    /// Per endpoint: predicate → (subject authorities, object authorities).
    per_endpoint: Vec<FxHashMap<TermId, AuthoritySets>>,
}

impl HibiscusIndex {
    /// Summarizes every endpoint in one pass over its store (the offline
    /// iterator, which charges no scanned rows).
    pub fn build(endpoints: &[&LocalEndpoint]) -> Self {
        let per_endpoint = endpoints
            .iter()
            .map(|ep| {
                let store = ep.store();
                let dict = store.dict();
                // Terms without a URI authority (blank nodes, urn:,
                // literals) are summarized as the wildcard "*": they can
                // match anything, so the endpoint must never be pruned on
                // their account.
                let add = |set: &mut FxHashSet<String>, id| {
                    let term = dict.decode(id);
                    let authority = term.authority().unwrap_or("*");
                    if !set.contains(authority) {
                        set.insert(authority.to_string());
                    }
                };
                let mut summary: FxHashMap<TermId, AuthoritySets> = FxHashMap::default();
                store.for_each_spo(&mut |s, p, o| {
                    let (subj, obj) = summary.entry(p).or_default();
                    add(subj, s);
                    add(obj, o);
                });
                summary
            })
            .collect();
        HibiscusIndex { per_endpoint }
    }

    fn subject_authorities(&self, ep: EndpointId, p: TermId) -> Option<&FxHashSet<String>> {
        self.per_endpoint.get(ep)?.get(&p).map(|(s, _)| s)
    }

    fn object_authorities(&self, ep: EndpointId, p: TermId) -> Option<&FxHashSet<String>> {
        self.per_endpoint.get(ep)?.get(&p).map(|(_, o)| o)
    }

    /// Prunes a source map: for every join variable between two constant-
    /// predicate patterns, an endpoint survives for the subject-side
    /// pattern only if its subject authorities intersect the union of the
    /// object authorities the other pattern can contribute (and vice
    /// versa).
    pub(crate) fn prune(&self, triples: &[TriplePattern], sources: &SourceMap) -> SourceMap {
        let mut pruned: Vec<(TriplePattern, Vec<EndpointId>)> = triples
            .iter()
            .map(|tp| (tp.clone(), sources.sources(tp).to_vec()))
            .collect();

        // Collect join variables with their (pattern, role) occurrences.
        for i in 0..triples.len() {
            for j in 0..triples.len() {
                if i == j {
                    continue;
                }
                let (Some(pi), Some(pj)) = (triples[i].p.as_const(), triples[j].p.as_const())
                else {
                    continue;
                };
                // Variable as object of i and subject of j: prune j's
                // sources whose subject authorities miss all of i's object
                // authorities.
                let join_var = triples[i]
                    .o
                    .as_var()
                    .filter(|v| triples[j].s.as_var() == Some(v));
                if join_var.is_none() {
                    continue;
                }
                let mut contributed: FxHashSet<&String> = FxHashSet::default();
                for &ep in sources.sources(&triples[i]) {
                    if let Some(auths) = self.object_authorities(ep, pi) {
                        contributed.extend(auths.iter());
                    }
                }
                // No info, or a wildcard contributor (non-URI objects):
                // cannot prune safely.
                if contributed.is_empty() || contributed.iter().any(|a| *a == "*") {
                    continue;
                }
                let (_, srcs_j) = &mut pruned[j];
                srcs_j.retain(|&ep| {
                    self.subject_authorities(ep, pj).is_none_or(|auths| {
                        auths.iter().any(|a| a == "*" || contributed.contains(a))
                    })
                });
            }
        }

        let mut out = SourceMap::default();
        for (tp, srcs) in pruned {
            out.push_entry(tp, srcs);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fedx::FedX;
    use lusail_core::cache::ProbeCache;
    use lusail_core::exec::Net;
    use lusail_core::source_selection::select_sources;
    use lusail_endpoint::{ExecOptions, FederatedEngine, Federation, SparqlEndpoint};
    use lusail_rdf::{Dictionary, Term};
    use lusail_sparql::parse_query;
    use lusail_store::TripleStore;
    use std::sync::Arc;

    /// Endpoint A links into authority `http://b.org`; endpoint C uses a
    /// different authority entirely, so it can be pruned for joins with A.
    fn build() -> (Federation, Vec<Arc<LocalEndpoint>>, TripleStore) {
        let dict = Dictionary::shared();
        let mut oracle = TripleStore::new(Arc::clone(&dict));
        let p = Term::iri("http://x/p");
        let q = Term::iri("http://x/q");

        let mut a = TripleStore::new(Arc::clone(&dict));
        let mut b = TripleStore::new(Arc::clone(&dict));
        let mut c = TripleStore::new(Arc::clone(&dict));
        for i in 0..6 {
            let s = Term::iri(format!("http://a.org/s{i}"));
            let m = Term::iri(format!("http://b.org/m{i}"));
            a.insert_terms(&s, &p, &m);
            oracle.insert_terms(&s, &p, &m);
            let o = Term::iri(format!("http://b.org/o{i}"));
            b.insert_terms(&m, &q, &o);
            oracle.insert_terms(&m, &q, &o);
            // C has q-triples with unrelated authority.
            let cs = Term::iri(format!("http://c.org/z{i}"));
            let co = Term::iri(format!("http://c.org/w{i}"));
            c.insert_terms(&cs, &q, &co);
            oracle.insert_terms(&cs, &q, &co);
        }
        let ea = Arc::new(LocalEndpoint::new("A", a));
        let eb = Arc::new(LocalEndpoint::new("B", b));
        let ec = Arc::new(LocalEndpoint::new("C", c));
        let mut fed = Federation::new(dict);
        fed.add(Arc::clone(&ea) as Arc<dyn SparqlEndpoint>);
        fed.add(Arc::clone(&eb) as Arc<dyn SparqlEndpoint>);
        fed.add(Arc::clone(&ec) as Arc<dyn SparqlEndpoint>);
        (fed, vec![ea, eb, ec], oracle)
    }

    #[test]
    fn pruning_drops_disjoint_authority_sources() {
        let (fed, eps, _) = build();
        let refs: Vec<&LocalEndpoint> = eps.iter().map(|e| e.as_ref()).collect();
        let index = HibiscusIndex::build(&refs);
        let q = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?m . ?m <http://x/q> ?o }",
            fed.dict(),
        )
        .unwrap();
        let net = Net::for_query(&fed, &ExecOptions::default());
        let cache = ProbeCache::<_, bool>::new();
        let raw = select_sources(&fed, &q.pattern, &cache, &net);
        // Raw: q-pattern relevant at B and C.
        assert_eq!(raw.sources(&q.pattern.triples[1]), &[1, 2]);
        let pruned = index.prune(&q.pattern.triples, &raw);
        // Pruned: C's subject authorities (c.org) don't intersect A's
        // object authorities (b.org).
        assert_eq!(pruned.sources(&q.pattern.triples[1]), &[1]);
    }

    #[test]
    fn results_match_oracle_despite_pruning() {
        let (fed, eps, oracle) = build();
        let refs: Vec<&LocalEndpoint> = eps.iter().map(|e| e.as_ref()).collect();
        let engine = FedX::hibiscus(HibiscusIndex::build(&refs));
        let q = parse_query(
            "SELECT ?s ?o WHERE { ?s <http://x/p> ?m . ?m <http://x/q> ?o }",
            fed.dict(),
        )
        .unwrap();
        let outcome = engine.run_with(&fed, &q, &ExecOptions::default()).unwrap();
        assert!(outcome.complete);
        let want = lusail_store::eval::evaluate(&oracle, &q);
        assert_eq!(outcome.solutions.canonicalize(), want.canonicalize());
        assert_eq!(outcome.solutions.len(), 6);
    }

    #[test]
    fn pruning_reduces_requests_vs_fedx() {
        let (fed, eps, _) = build();
        let refs: Vec<&LocalEndpoint> = eps.iter().map(|e| e.as_ref()).collect();
        let q = parse_query(
            "SELECT ?s ?o WHERE { ?s <http://x/p> ?m . ?m <http://x/q> ?o }",
            fed.dict(),
        )
        .unwrap();

        let fedx = FedX::default();
        let before = fed.stats_snapshot();
        fedx.run_with(&fed, &q, &ExecOptions::default()).unwrap();
        let fedx_requests = fed.stats_snapshot().since(&before).select_requests;

        let hib = FedX::hibiscus(HibiscusIndex::build(&refs));
        let before = fed.stats_snapshot();
        hib.run_with(&fed, &q, &ExecOptions::default()).unwrap();
        let hib_requests = fed.stats_snapshot().since(&before).select_requests;
        assert!(
            hib_requests < fedx_requests,
            "hibiscus {hib_requests} !< fedx {fedx_requests}"
        );
    }
}
