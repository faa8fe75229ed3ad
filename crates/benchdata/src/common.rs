//! Shared workload plumbing: the [`Workload`] bundle and store builders.

use lusail_endpoint::{Federation, LocalEndpoint, NetworkProfile, SparqlEndpoint};
use lusail_rdf::{Dictionary, Term};
use lusail_sparql::{parse_query, Query};
use lusail_store::{BackendKind, TripleStore};
use std::sync::Arc;

/// A benchmark query with its display name and source text.
#[derive(Debug, Clone)]
pub struct NamedQuery {
    /// The benchmark name ("Q2", "C2P2BF", "S10", …).
    pub name: String,
    /// SPARQL source text.
    pub text: String,
    /// The parsed query.
    pub query: Query,
}

/// A complete benchmark setting: the federation, the per-endpoint handles
/// (needed by the index-building baselines), a centralized *oracle* store
/// holding the union of all endpoint data, and the query set.
pub struct Workload {
    /// The shared dictionary.
    pub dict: Arc<Dictionary>,
    /// The federation the engines query.
    pub federation: Federation,
    /// Endpoint handles (same objects as in `federation`), for baselines
    /// that preprocess endpoint data.
    pub endpoints: Vec<Arc<LocalEndpoint>>,
    /// Union of all endpoint triples — the correctness oracle.
    pub oracle: TripleStore,
    /// The benchmark queries.
    pub queries: Vec<NamedQuery>,
}

impl Workload {
    /// Assembles a workload from named stores and query texts, with the
    /// endpoints' stores materialized into the chosen storage backend.
    /// Parses all queries against the shared dictionary and builds the
    /// oracle union store. `profiles`, when given, must be one per endpoint.
    pub fn assemble(
        dict: Arc<Dictionary>,
        stores: Vec<(String, TripleStore)>,
        profiles: Option<Vec<NetworkProfile>>,
        queries: Vec<(&str, String)>,
        backend: BackendKind,
    ) -> Workload {
        let mut oracle = TripleStore::new(Arc::clone(&dict));
        for (_, st) in &stores {
            st.scan(None, None, None, |t| {
                oracle.insert(t);
                true
            });
        }
        let mut federation = Federation::new(Arc::clone(&dict));
        let mut endpoints = Vec::with_capacity(stores.len());
        for (i, (name, store)) in stores.into_iter().enumerate() {
            let profile = match &profiles {
                Some(ps) => ps[i],
                None => NetworkProfile::default(),
            };
            let ep = Arc::new(LocalEndpoint::on_backend(name, store, backend, profile));
            federation.add(Arc::clone(&ep) as Arc<dyn SparqlEndpoint>);
            endpoints.push(ep);
        }
        let queries = queries
            .into_iter()
            .map(|(name, text)| {
                let query = parse_query(&text, &dict)
                    .unwrap_or_else(|e| panic!("query {name} failed to parse: {e}\n{text}"));
                NamedQuery {
                    name: name.to_string(),
                    text,
                    query,
                }
            })
            .collect();
        Workload {
            dict,
            federation,
            endpoints,
            oracle,
            queries,
        }
    }

    /// Looks a query up by name.
    pub fn query(&self, name: &str) -> &NamedQuery {
        self.queries
            .iter()
            .find(|q| q.name == name)
            .unwrap_or_else(|| panic!("no query named {name}"))
    }

    /// Endpoint handles as plain references (for the index builders).
    pub fn endpoint_refs(&self) -> Vec<&LocalEndpoint> {
        self.endpoints.iter().map(|e| e.as_ref()).collect()
    }
}

/// The workload generators' SplitMix64 stream, under the name generators
/// and harnesses import it by. Identical seeds give identical datasets on
/// every platform.
pub use lusail_rdf::SplitMix64 as Rng;

/// Inserts `(s, p, o)` given as terms into a store (generator shorthand).
pub(crate) fn add(store: &mut TripleStore, s: &Term, p: &Term, o: &Term) {
    store.insert_terms(s, p, o);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn rng_below_is_in_range() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
        }
    }

    #[test]
    fn assemble_builds_oracle_union() {
        let dict = Dictionary::shared();
        let mut a = TripleStore::new(Arc::clone(&dict));
        a.insert_terms(
            &Term::iri("http://x/1"),
            &Term::iri("http://x/p"),
            &Term::iri("http://x/2"),
        );
        let mut b = TripleStore::new(Arc::clone(&dict));
        b.insert_terms(
            &Term::iri("http://x/3"),
            &Term::iri("http://x/p"),
            &Term::iri("http://x/4"),
        );
        let w = Workload::assemble(
            dict,
            vec![("A".into(), a), ("B".into(), b)],
            None,
            vec![("Q1", "SELECT * WHERE { ?s <http://x/p> ?o }".to_string())],
            BackendKind::Btree,
        );
        assert_eq!(w.oracle.len(), 2);
        assert_eq!(w.federation.len(), 2);
        assert_eq!(w.query("Q1").name, "Q1");
        assert_eq!(w.endpoint_refs().len(), 2);
    }
}
