//! A FedX-style engine (Schwarte et al., ISWC 2011).
//!
//! FedX is the index-free baseline the paper leans on (its Fig. 3
//! motivation experiment and most comparisons): ASK-based source selection
//! with caching, exclusive groups, variable-counting join ordering, and
//! block nested-loop bound joins. The signature behaviour reproduced here
//! is *triple-pattern-at-a-time* execution: when endpoints share a schema
//! (so no exclusive groups form), every pattern is a separate unit and the
//! intermediate bindings are shipped in `VALUES` blocks — the number of
//! remote requests grows with the intermediate result size, which is
//! exactly the scalability wall of §II.
//!
//! (The FedX the paper benchmarked rewrote bound joins as UNION blocks
//! with renamed variables; FedX 3.x and later use SPARQL 1.1 `VALUES`,
//! which is what we implement — the request counts and data volumes are
//! identical, only the wire syntax differs.)

use crate::common::{answer, bound_fetch, evaluate_units, exclusive_groups, shared_vars};
use crate::hibiscus::HibiscusIndex;
use lusail_core::cache::{PatternKey, ProbeCache};
use lusail_core::exec::{run_query, Net};
use lusail_core::fetch::concat;
use lusail_core::source_selection::{select_sources, SourceMap};
use lusail_core::subquery::push_filters_into;
use lusail_endpoint::{ExecOptions, FederatedEngine, Federation, FederationError, QueryOutcome};
use lusail_sparql::ast::{GroupPattern, Query};
use lusail_sparql::SolutionSet;
use std::borrow::Cow;

/// Bindings per bound-join block: FedX's published default, which the
/// paper runs it with.
pub const BLOCK_SIZE: usize = 15;

/// The FedX-style engine — and, holding a [`HibiscusIndex`], HiBISCuS:
/// the same executor over source lists the index has pruned. ASK answers
/// are memoized for the engine's lifetime, less those of an endpoint a
/// query found dead.
pub struct FedX {
    ask_cache: ProbeCache<PatternKey, bool>,
    index: Option<HibiscusIndex>,
}

impl Default for FedX {
    fn default() -> Self {
        FedX {
            ask_cache: ProbeCache::new(),
            index: None,
        }
    }
}

impl FedX {
    /// HiBISCuS: FedX pruning every group's sources by a prebuilt
    /// authority index.
    pub(crate) fn hibiscus(index: HibiscusIndex) -> Self {
        FedX {
            index: Some(index),
            ..FedX::default()
        }
    }

    /// The sources `group`'s units are formed from: authority-pruned when
    /// the engine holds an index — fewer sources can mean more exclusive
    /// groups. Pruning only considers *this* group's conjunctive patterns:
    /// a join against an OPTIONAL / UNION pattern must not prune a required
    /// pattern's sources (the optional side may simply not match).
    fn unit_sources<'s>(&self, group: &GroupPattern, sources: &'s SourceMap) -> Cow<'s, SourceMap> {
        match &self.index {
            Some(index) => Cow::Owned(index.prune(&group.triples, sources)),
            None => Cow::Borrowed(sources),
        }
    }

    /// Left-deep pipeline over the group's units, then nested clauses.
    fn evaluate_group(
        &self,
        fed: &Federation,
        group: &GroupPattern,
        sources: &SourceMap,
        limit: Option<usize>,
        net: &Net,
    ) -> SolutionSet {
        let unit_sources = self.unit_sources(group, sources);
        let (mut current, global_filters) =
            evaluate_units(fed, group, &unit_sources, BLOCK_SIZE, limit, net);

        // OPTIONALs take FedX's bound left-fetch; UNION and NOT EXISTS go
        // through the shared nested-group machinery.
        for opt in &group.optionals {
            let (inner, correlated) = opt.split_correlated_filters();
            let os = self.evaluate_optional(fed, &inner, sources, &current, net);
            current =
                lusail_store::eval::left_join_filtered(&current, &os, &correlated, fed.dict());
        }
        let mut without_optionals = group.clone();
        without_optionals.optionals = Vec::new();
        current = lusail_store::eval::join_nested_groups(
            current,
            &without_optionals,
            fed.dict(),
            |sub| self.evaluate_group(fed, sub, sources, None, net),
        );
        lusail_store::eval::retain_filtered(&mut current, &global_filters, fed.dict());
        current
    }

    /// OPTIONAL bodies are evaluated with a bound join against the current
    /// bindings when they share variables (FedX's left-bind-join), falling
    /// back to independent evaluation.
    fn evaluate_optional(
        &self,
        fed: &Federation,
        group: &GroupPattern,
        sources: &SourceMap,
        current: &SolutionSet,
        net: &Net,
    ) -> SolutionSet {
        // Single-unit optionals with shared vars: bound retrieval, without
        // joining back (the caller left-joins).
        let mut units = exclusive_groups(&group.triples, &self.unit_sources(group, sources));
        let global_filters = push_filters_into(&group.filters, &mut units);
        if units.len() == 1
            && group.optionals.is_empty()
            && group.unions.is_empty()
            && group.not_exists.is_empty()
        {
            let shared = shared_vars(current, &units[0]);
            if !shared.is_empty() && !current.is_empty() {
                let unit = &units[0];
                let blocks = bound_fetch(fed, net, current, unit, &shared, BLOCK_SIZE);
                let mut fetched = concat(unit.projection.clone(), blocks.map(Some));
                fetched.dedup();
                lusail_store::eval::retain_filtered(&mut fetched, &global_filters, fed.dict());
                return fetched;
            }
        }
        self.evaluate_group(fed, group, sources, None, net)
    }
}

impl FederatedEngine for FedX {
    fn run_with(
        &self,
        fed: &Federation,
        query: &Query,
        opts: &ExecOptions,
    ) -> Result<QueryOutcome, FederationError> {
        let (outcome, (), dead) = run_query(fed, query, opts, |net| {
            let solutions = answer(
                fed,
                query,
                |pattern| select_sources(fed, pattern, &self.ask_cache, net),
                |group, sources, cutoff| self.evaluate_group(fed, group, sources, cutoff, net),
            );
            (solutions, ())
        })?;
        // A dead endpoint may have answered ASKs before it started failing.
        for ep in dead {
            self.ask_cache.invalidate_endpoint(ep);
        }
        Ok(outcome)
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

    /// Two same-schema endpoints so no exclusive groups form — the
    /// pattern-at-a-time regime.
    fn fed_and_oracle() -> (Federation, TripleStore) {
        let dict = Dictionary::shared();
        let mut oracle = TripleStore::new(Arc::clone(&dict));
        let p = Term::iri("http://x/p");
        let q = Term::iri("http://x/q");
        let mut a = TripleStore::new(Arc::clone(&dict));
        let mut b = TripleStore::new(Arc::clone(&dict));
        for i in 0..20 {
            let s = Term::iri(format!("http://x/s{i}"));
            let m = Term::iri(format!("http://x/m{i}"));
            let o = Term::iri(format!("http://x/o{i}"));
            let target = if i % 2 == 0 { &mut a } else { &mut b };
            target.insert_terms(&s, &p, &m);
            oracle.insert_terms(&s, &p, &m);
            // Half the chains complete at the *other* endpoint.
            let target2 = if i % 4 < 2 { &mut a } else { &mut b };
            target2.insert_terms(&m, &q, &o);
            oracle.insert_terms(&m, &q, &o);
        }
        let mut fed = Federation::new(dict);
        fed.add(Arc::new(LocalEndpoint::new("A", a)));
        fed.add(Arc::new(LocalEndpoint::new("B", b)));
        (fed, oracle)
    }

    #[test]
    fn chain_query_matches_oracle() {
        let (fed, oracle) = fed_and_oracle();
        let q = parse_query(
            "SELECT ?s ?o WHERE { ?s <http://x/p> ?m . ?m <http://x/q> ?o }",
            fed.dict(),
        )
        .unwrap();
        let engine = FedX::default();
        let outcome = engine.run_with(&fed, &q, &ExecOptions::default()).unwrap();
        assert!(outcome.complete);
        let want = lusail_store::eval::evaluate(&oracle, &q);
        assert_eq!(outcome.solutions.canonicalize(), want.canonicalize());
        assert_eq!(outcome.solutions.len(), 20);
    }

    #[test]
    fn bound_join_request_count_scales_with_bindings() {
        let (fed, _) = fed_and_oracle();
        let q = parse_query(
            "SELECT ?s ?o WHERE { ?s <http://x/p> ?m . ?m <http://x/q> ?o }",
            fed.dict(),
        )
        .unwrap();
        let engine = FedX::default();
        let before = fed.stats_snapshot();
        engine.run_with(&fed, &q, &ExecOptions::default()).unwrap();
        let window = fed.stats_snapshot().since(&before);
        // First unit: 2 selects. Second unit: 20 bindings in blocks of 15 =
        // 2 blocks × 2 endpoints = 4 selects. Plus 4 ASKs.
        assert_eq!(BLOCK_SIZE, 15);
        assert_eq!(window.select_requests, 6);
        assert_eq!(window.ask_requests, 4);
    }

    #[test]
    fn optional_matches_oracle() {
        let (fed, oracle) = fed_and_oracle();
        let q = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?m . OPTIONAL { ?m <http://x/q> ?o } }",
            fed.dict(),
        )
        .unwrap();
        let engine = FedX::default();
        let got = engine
            .run_with(&fed, &q, &ExecOptions::default())
            .unwrap()
            .solutions;
        let want = lusail_store::eval::evaluate(&oracle, &q);
        assert_eq!(got.canonicalize(), want.canonicalize());
    }

    #[test]
    fn limit_cutoff_stops_early() {
        let (fed, _) = fed_and_oracle();
        let q = parse_query(
            "SELECT ?s ?o WHERE { ?s <http://x/p> ?m . ?m <http://x/q> ?o } LIMIT 2",
            fed.dict(),
        )
        .unwrap();
        let engine = FedX::default();
        let before = fed.stats_snapshot();
        let got = engine
            .run_with(&fed, &q, &ExecOptions::default())
            .unwrap()
            .solutions;
        let window = fed.stats_snapshot().since(&before);
        assert_eq!(got.len(), 2);
        // Without the cutoff this would be 2 + 2*2 = 6 selects; with it,
        // fewer.
        assert!(
            window.select_requests < 6,
            "cutoff did not engage: {} selects",
            window.select_requests
        );
    }
}
