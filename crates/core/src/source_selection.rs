//! Source selection: which endpoints are relevant to each triple pattern.
//!
//! Like FedX and the paper's §III, every triple pattern is probed at every
//! endpoint, and the answers are memoized. What the probe asks is the
//! engine's, named by the memo's answer type ([`SourceProbe`]): FedX and
//! HiBISCuS send FedX's `ASK` (`bool`); Lusail sends a `COUNT` (`u64`),
//! whose answer is relevance (`count > 0`) and, kept in the [`SourceMap`],
//! the cardinality SAPE's cost model reads — so planning needs no second
//! probe round. How the probes travel is the kind's transport
//! (`probe.rs`): an endpoint's `COUNT`s go as one request, `ASK`s one
//! request per (pattern, endpoint). The probes of all endpoints go out as
//! one batch through the elastic request handler, which runs at most
//! `threads` endpoints at once — one, inline, by default (DESIGN.md
//! "Parallel execution").

use crate::cache::{PatternKey, ProbeCache};
use crate::exec::Net;
use crate::probe;
use lusail_endpoint::{EndpointId, Federation};
use lusail_sparql::ast::{GroupPattern, TriplePattern};

/// Relevant endpoints for every triple pattern of a query, in
/// `GroupPattern::all_triples` order, with each relevant endpoint's
/// matching-triple count when source selection counted.
#[derive(Debug, Clone, Default)]
pub struct SourceMap {
    entries: Vec<(TriplePattern, Vec<EndpointId>)>,
    /// Per entry, the count of each of its sources in order; empty when
    /// relevance was not counted.
    counts: Vec<Vec<u64>>,
}

impl SourceMap {
    /// Adds an entry directly, without counts (used by tests and by engines
    /// that compute relevance through other means, e.g. the index-based
    /// baselines).
    pub fn push_entry(&mut self, tp: TriplePattern, mut sources: Vec<EndpointId>) {
        sources.sort_unstable();
        sources.dedup();
        self.entries.push((tp, sources));
        self.counts.push(Vec::new());
    }

    /// The sorted endpoint set relevant to `tp`. Patterns not probed (not
    /// part of the analyzed query) return the empty set.
    pub fn sources(&self, tp: &TriplePattern) -> &[EndpointId] {
        self.entries
            .iter()
            .find(|(t, _)| t == tp)
            .map(|(_, s)| s.as_slice())
            .unwrap_or(&[])
    }

    /// How many triples at `ep` match `tp`, as source selection counted
    /// them: `None` when `ep` is not relevant to `tp` or relevance was not
    /// counted.
    pub(crate) fn cardinality(&self, tp: &TriplePattern, ep: EndpointId) -> Option<u64> {
        let i = self.entries.iter().position(|(t, _)| t == tp)?;
        let at = self.entries[i].1.binary_search(&ep).ok()?;
        self.counts[i].get(at).copied()
    }

    /// Iterates over `(pattern, sources)` entries.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &(TriplePattern, Vec<EndpointId>)> {
        self.entries.iter()
    }

    /// True if some *required* pattern has no relevant source (the query
    /// is guaranteed empty).
    pub fn any_required_empty(&self, required: &[TriplePattern]) -> bool {
        required.iter().any(|tp| self.sources(tp).is_empty())
    }
}

/// A source-selection probe, named by its answer: `bool` is an `ASK`,
/// `u64` a `COUNT`. An endpoint is relevant unless it answers the default,
/// `false` or `0`.
pub trait SourceProbe: Copy + Default + PartialEq {
    /// Answers every `(endpoint, pattern)` probe by `probe::resolve`: memo,
    /// then statistics, then the wire, and a failed probe assumes its
    /// endpoint relevant.
    fn resolve(
        fed: &Federation,
        net: &Net,
        memo: &ProbeCache<PatternKey, Self>,
        probes: &[(EndpointId, &TriplePattern)],
    ) -> Vec<Self>;
    /// The matching-triple count, when the probe counts.
    fn cardinality(self) -> Option<u64>;
}

impl SourceProbe for bool {
    fn resolve(
        fed: &Federation,
        net: &Net,
        memo: &ProbeCache<PatternKey, bool>,
        probes: &[(EndpointId, &TriplePattern)],
    ) -> Vec<bool> {
        probe::resolve::<probe::Ask>(fed, net, memo, probes)
    }
    fn cardinality(self) -> Option<u64> {
        None
    }
}

impl SourceProbe for u64 {
    fn resolve(
        fed: &Federation,
        net: &Net,
        memo: &ProbeCache<PatternKey, u64>,
        probes: &[(EndpointId, &TriplePattern)],
    ) -> Vec<u64> {
        probe::resolve::<probe::Count>(fed, net, memo, probes)
    }
    fn cardinality(self) -> Option<u64> {
        Some(self)
    }
}

/// Runs source selection for every triple pattern of `pattern` (including
/// nested OPTIONAL/UNION/NOT EXISTS groups) against all endpoints, one
/// probe per distinct pattern per endpoint, of the kind `cache` memoizes.
/// Patterns that differ only in variable names are one probe.
pub fn select_sources<A: SourceProbe>(
    fed: &Federation,
    pattern: &GroupPattern,
    cache: &ProbeCache<PatternKey, A>,
    net: &Net,
) -> SourceMap {
    let triples = pattern.all_triples();

    // Deduplicate patterns: repeated patterns share one probe set.
    let mut unique: Vec<&TriplePattern> = Vec::new();
    for tp in &triples {
        if !unique.contains(tp) {
            unique.push(tp);
        }
    }

    // Only *logical* endpoints (replica-group primaries) are probed:
    // replicas hold the same data, so probing them as independent sources
    // would duplicate every result row. Failover reaches them through the
    // replica group, not through source selection.
    let logical = fed.logical_ids();
    let probes: Vec<(EndpointId, &TriplePattern)> = unique
        .iter()
        .flat_map(|&tp| logical.iter().map(move |&ep| (ep, tp)))
        .collect();
    let answers = A::resolve(fed, net, cache, &probes);

    let mut map = SourceMap::default();
    for tp in triples {
        // In endpoint order: `logical_ids` ascends.
        let relevant = (probes.iter().zip(&answers))
            .filter(|((_, t), &answer)| *t == tp && answer != A::default());
        let sources = relevant.clone().map(|(&(ep, _), _)| ep).collect();
        map.entries.push((tp.clone(), sources));
        map.counts
            .push(relevant.filter_map(|(_, a)| a.cardinality()).collect());
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_endpoint::{ExecOptions, LocalEndpoint, RequestKind};
    use lusail_rdf::{Dictionary, Term};
    use lusail_sparql::parse_query;
    use lusail_store::TripleStore;
    use std::sync::Arc;

    fn fed() -> Federation {
        fed_with_a().0
    }

    /// A fresh `ASK` memo: source selection as the baselines run it.
    fn asks() -> ProbeCache<PatternKey, bool> {
        ProbeCache::new()
    }

    /// [`fed`] plus a handle on endpoint A (the federation's trait objects
    /// hide their stores).
    fn fed_with_a() -> (Federation, Arc<LocalEndpoint>) {
        let dict = Dictionary::shared();
        let mut a = TripleStore::new(Arc::clone(&dict));
        a.insert_terms(
            &Term::iri("http://x/s1"),
            &Term::iri("http://x/p"),
            &Term::iri("http://x/o1"),
        );
        let mut b = TripleStore::new(Arc::clone(&dict));
        b.insert_terms(
            &Term::iri("http://x/s2"),
            &Term::iri("http://x/q"),
            &Term::iri("http://x/o2"),
        );
        let a = Arc::new(LocalEndpoint::new("A", a));
        let mut fed = Federation::new(dict);
        fed.add(Arc::clone(&a) as _);
        fed.add(Arc::new(LocalEndpoint::new("B", b)));
        (fed, a)
    }

    #[test]
    fn selects_only_answering_endpoints() {
        let f = fed();
        let q = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?o . ?s <http://x/q> ?o2 . ?s <http://x/r> ?o3 }",
            f.dict(),
        )
        .unwrap();
        let cache = asks();
        let net = Net::for_query(&f, &ExecOptions::default());
        let sm = select_sources(&f, &q.pattern, &cache, &net);
        assert_eq!(sm.sources(&q.pattern.triples[0]), &[0]);
        assert_eq!(sm.sources(&q.pattern.triples[1]), &[1]);
        assert!(sm.sources(&q.pattern.triples[2]).is_empty());
        assert!(sm.any_required_empty(&q.pattern.triples));
    }

    #[test]
    fn counts_are_relevance_and_cardinality_in_one_request_per_endpoint() {
        // Lusail's form: a `COUNT` per (pattern, endpoint), coalesced.
        let f = fed();
        let query = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?o . ?s <http://x/q> ?o2 . ?s <http://x/r> ?o3 }",
            f.dict(),
        )
        .unwrap();
        let net = Net::for_query(&f, &ExecOptions::default());
        let sm = select_sources(&f, &query.pattern, &ProbeCache::<_, u64>::new(), &net);
        assert_eq!(net.client.requests().get(RequestKind::Count), 2);
        let [p, q, r] = [0, 1, 2].map(|i| &query.pattern.triples[i]);
        assert_eq!(sm.sources(p), &[0]);
        assert_eq!(sm.sources(q), &[1]);
        assert!(sm.sources(r).is_empty());
        assert_eq!(
            (sm.cardinality(p, 0), sm.cardinality(q, 1)),
            (Some(1), Some(1))
        );
        // An irrelevant endpoint has no count.
        assert_eq!((sm.cardinality(p, 1), sm.cardinality(r, 0)), (None, None));
        // An `ASK` map knows relevance only.
        let asked = select_sources(&f, &query.pattern, &asks(), &net);
        assert_eq!(asked.sources(p), sm.sources(p));
        assert_eq!(asked.cardinality(p, 0), None);
    }

    #[test]
    fn patterns_that_differ_in_variable_names_share_one_probe() {
        // `?a p ?b` and `?c p ?d` are different patterns with one memo key:
        // each endpoint is asked once and both patterns get the answer.
        let f = fed();
        let q = parse_query(
            "SELECT * WHERE { ?a <http://x/p> ?b . ?c <http://x/p> ?d }",
            f.dict(),
        )
        .unwrap();
        let sm = select_sources(
            &f,
            &q.pattern,
            &asks(),
            &Net::for_query(&f, &ExecOptions::default()),
        );
        assert_eq!(
            f.stats_snapshot().ask_requests,
            2,
            "one member per endpoint"
        );
        assert_eq!(sm.sources(&q.pattern.triples[0]), &[0]);
        assert_eq!(sm.sources(&q.pattern.triples[1]), &[0]);
    }

    #[test]
    fn replicas_are_not_probed_as_independent_sources() {
        let dict = Dictionary::shared();
        let triple = |st: &mut TripleStore| {
            st.insert_terms(
                &Term::iri("http://x/s1"),
                &Term::iri("http://x/p"),
                &Term::iri("http://x/o1"),
            );
        };
        let mut a = TripleStore::new(Arc::clone(&dict));
        triple(&mut a);
        let mut a2 = TripleStore::new(Arc::clone(&dict));
        triple(&mut a2);
        let mut f = Federation::new(Arc::clone(&dict));
        let primary = f.add(Arc::new(LocalEndpoint::new("A", a)));
        f.add_replica(primary, Arc::new(LocalEndpoint::new("A-replica", a2)));
        let q = parse_query("SELECT * WHERE { ?s <http://x/p> ?o }", f.dict()).unwrap();
        let cache = asks();
        let net = Net::for_query(&f, &ExecOptions::default());
        let before = f.stats_snapshot();
        let sm = select_sources(&f, &q.pattern, &cache, &net);
        // Only the primary is probed and only it is a relevant source —
        // otherwise every row would be fetched twice.
        assert_eq!(sm.sources(&q.pattern.triples[0]), &[primary]);
        assert_eq!(f.stats_snapshot().since(&before).ask_requests, 1);
    }

    #[test]
    fn stats_elide_conclusive_asks_without_changing_sources() {
        let (f, a) = fed_with_a();
        let q = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?o . ?s <http://x/q> ?o2 }",
            f.dict(),
        )
        .unwrap();
        let net = Net::for_query(&f, &ExecOptions::default());
        let baseline = select_sources(&f, &q.pattern, &asks(), &net);
        let wire = f.stats_snapshot();
        // Attach stats for endpoint A only: its two probes (p present,
        // q absent) are both conclusive, so only B's two go to the wire.
        let stats = lusail_store::EndpointStats::build(a.store());
        f.attach_stats(0, Arc::new(stats));
        let sm = select_sources(&f, &q.pattern, &asks(), &net);
        assert_eq!(f.stats_snapshot().since(&wire).ask_requests, 2);
        for (tp, sources) in sm.iter() {
            assert_eq!(sources, baseline.sources(tp));
        }
    }

    #[test]
    fn cache_avoids_repeat_asks() {
        let f = fed();
        let q = parse_query("SELECT * WHERE { ?s <http://x/p> ?o }", f.dict()).unwrap();
        let cache = asks();
        let net = Net::for_query(&f, &ExecOptions::default());
        let before = f.stats_snapshot();
        select_sources(&f, &q.pattern, &cache, &net);
        let mid = f.stats_snapshot();
        assert_eq!(mid.since(&before).ask_requests, 2);
        // Second run: fully cached, zero asks.
        select_sources(&f, &q.pattern, &cache, &net);
        let after = f.stats_snapshot();
        assert_eq!(after.since(&mid).ask_requests, 0);
    }
}
