//! Behavioural invariants of Lusail's pipeline on the benchmark
//! workloads and on small hand-built federations: which queries are
//! disjoint, which variables go global, how the caches and delays behave,
//! and that the metrics are coherent.

use lusail_benchdata::{lrb, lubm, qfed, Workload};
use lusail_core::{Lusail, LusailConfig, QueryResult, RequestKind};
use lusail_rdf::{vocab, Dictionary, Term};
use lusail_store::{BackendKind, TripleStore};
use std::sync::Arc;

#[test]
fn lubm_q1_q2_are_disjoint() {
    let w = lubm::generate(&lubm::LubmConfig::new(4));
    let engine = Lusail::default();
    for name in ["Q1", "Q2"] {
        let r = engine.execute(&w.federation, &w.query(name).query).unwrap();
        assert!(
            r.metrics.gjvs.is_empty(),
            "{name} should have no GJVs, got {:?}",
            r.metrics.gjvs
        );
        assert_eq!(r.metrics.subqueries, 1, "{name} should be one subquery");
        // Disjoint fast path: exactly one SELECT per endpoint.
        assert_eq!(
            r.metrics.requests_execution.get(RequestKind::Select),
            w.federation.len() as u64,
            "{name} should send one request per endpoint"
        );
    }
}

#[test]
fn lubm_q3_q4_decompose_into_two_subqueries() {
    let w = lubm::generate(&lubm::LubmConfig::new(4));
    let engine = Lusail::default();
    let r3 = engine.execute(&w.federation, &w.query("Q3").query).unwrap();
    assert_eq!(r3.metrics.gjvs, ["x"]);
    assert_eq!(r3.metrics.subqueries, 2);
    // The generic (?x a GraduateStudent) subquery is delayed, as in §VI-C.
    assert_eq!(r3.metrics.delayed_subqueries, 1);

    let r4 = engine.execute(&w.federation, &w.query("Q4").query).unwrap();
    assert_eq!(r4.metrics.gjvs, ["u"]);
    assert_eq!(r4.metrics.subqueries, 2);
}

#[test]
fn qa_example_detects_u_not_s() {
    // The running example Qa (Fig. 2) on the LUBM federation: the degree
    // variable is global, the student variable is not.
    let w = lubm::generate(&lubm::LubmConfig::new(2));
    let engine = Lusail::default();
    let qa = lusail_sparql::parse_query(
        &format!(
            "PREFIX ub: <{}> SELECT ?S ?P ?U ?A WHERE {{ \
             ?S ub:advisor ?P . ?S ub:takesCourse ?C . \
             ?P ub:doctoralDegreeFrom ?U . ?U ub:name ?A }}",
            lubm::UB
        ),
        w.federation.dict(),
    )
    .unwrap();
    let r = engine.execute(&w.federation, &qa).unwrap();
    assert!(r.metrics.gjvs.contains(&"U".to_string()));
    assert!(!r.metrics.gjvs.contains(&"S".to_string()));
    assert!(!r.solutions.is_empty());
}

#[test]
fn cache_eliminates_probe_requests_on_second_run() {
    let w = qfed::generate(&qfed::QfedConfig::default());
    let engine = Lusail::default();
    let q = &w.query("C2P2").query;
    let r1 = engine.execute(&w.federation, q).unwrap();
    let r2 = engine.execute(&w.federation, q).unwrap();
    // One coalesced source-selection request per endpoint, then none.
    assert_eq!(r1.metrics.requests_source_selection.total_requests(), 4);
    assert_eq!(r2.metrics.requests_source_selection.total_requests(), 0);
    assert!(
        r2.metrics.requests_analysis.total_requests()
            <= r1.metrics.requests_analysis.total_requests()
    );
    assert_eq!(r1.solutions.canonicalize(), r2.solutions.canonicalize());
}

#[test]
fn clear_caches_restores_cold_behaviour() {
    let w = qfed::generate(&qfed::QfedConfig::default());
    let engine = Lusail::default();
    let q = &w.query("C2P2").query;
    let r1 = engine.execute(&w.federation, q).unwrap();
    engine.clear_caches();
    let r3 = engine.execute(&w.federation, q).unwrap();
    assert_eq!(
        r1.metrics.requests_source_selection.get(RequestKind::Count),
        r3.metrics.requests_source_selection.get(RequestKind::Count)
    );
    assert!(r3.metrics.requests_source_selection.get(RequestKind::Count) > 0);
}

#[test]
fn metrics_are_coherent() {
    let w = lubm::generate(&lubm::LubmConfig::new(3));
    let engine = Lusail::default();
    for nq in &w.queries {
        let r = engine.execute(&w.federation, &nq.query).unwrap();
        let m = &r.metrics;
        assert_eq!(m.result_rows, r.solutions.len());
        assert!(m.total >= m.execution, "{}: total < execution", nq.name);
        assert!(
            m.total_requests()
                == m.requests_source_selection.total_requests()
                    + m.requests_analysis.total_requests()
                    + m.requests_execution.total_requests()
        );
        assert!(m.total_requests() > 0, "{}: no requests", nq.name);
    }
}

#[test]
fn disabling_lade_increases_requests_on_disjoint_queries() {
    let w = lubm::generate(&lubm::LubmConfig::new(4));
    let lade = Lusail::default();
    let nolade = Lusail::new(LusailConfig {
        disable_lade: true,
        ..Default::default()
    });
    let q = &w.query("Q2").query;
    let a = lade.execute(&w.federation, q).unwrap();
    let b = nolade.execute(&w.federation, q).unwrap();
    assert_eq!(a.solutions.canonicalize(), b.solutions.canonicalize());
    assert!(
        b.metrics.requests_execution.total_requests()
            > a.metrics.requests_execution.total_requests(),
        "LADE should reduce execution requests on the disjoint Q2"
    );
    assert_eq!(b.metrics.subqueries, 6); // one per triple pattern
}

/// QFed C2P2 ships its delayed subquery's 251 bindings to Sider, which
/// answers with more bytes than they take (LUBM Q3's delayed sources are
/// fetched whole, so its block size moves nothing).
#[test]
fn smaller_blocks_mean_more_requests_for_delayed_subqueries() {
    let w = qfed::generate(&qfed::QfedConfig::default());
    let q = &w.query("C2P2").query;
    let small = Lusail::new(LusailConfig {
        block_size: 5,
        ..Default::default()
    });
    let large = Lusail::new(LusailConfig {
        block_size: 500,
        ..Default::default()
    });
    let rs = small.execute(&w.federation, q).unwrap();
    let rl = large.execute(&w.federation, q).unwrap();
    assert_eq!(rs.solutions.canonicalize(), rl.solutions.canonicalize());
    assert!(
        rs.metrics.requests_execution.get(RequestKind::Select)
            > rl.metrics.requests_execution.get(RequestKind::Select)
    );
}

#[test]
fn check_queries_are_bounded_by_paper_formula() {
    // C_Q ≤ |V| · |T|² check-query *formulations*; each runs at ≤ N
    // endpoints.
    let w = lubm::generate(&lubm::LubmConfig::new(4));
    let engine = Lusail::default();
    for nq in &w.queries {
        engine.clear_caches();
        let r = engine.execute(&w.federation, &nq.query).unwrap();
        let t = nq.query.pattern.triples.len() as u64;
        let v = nq.query.pattern.all_vars().len() as u64;
        let n = w.federation.len() as u64;
        assert!(
            r.metrics.check_queries <= v * t * t * n,
            "{}: {} check queries exceeds bound {}",
            nq.name,
            r.metrics.check_queries,
            v * t * t * n
        );
    }
}

#[test]
fn empty_federation_source_yields_empty_results_quickly() {
    let w = lubm::generate(&lubm::LubmConfig::new(2));
    let engine = Lusail::default();
    let q = lusail_sparql::parse_query(
        "SELECT ?x WHERE { ?x <http://no/such/predicate> ?y . ?y <http://no/other> ?z }",
        w.federation.dict(),
    )
    .unwrap();
    let r = engine.execute(&w.federation, &q).unwrap();
    assert!(r.solutions.is_empty());
    assert_eq!(r.metrics.requests_execution.total_requests(), 0);
}

/// A federation of the given stores (each a list of IRI triples) and one
/// query, with the merged-store oracle.
fn federation(stores: &[(&str, Vec<[&str; 3]>)], query: &str) -> Workload {
    let dict = Dictionary::shared();
    let stores = (stores.iter())
        .map(|(name, triples)| {
            let mut store = TripleStore::new(Arc::clone(&dict));
            for [s, p, o] in triples {
                store.insert_terms(&Term::iri(*s), &Term::iri(*p), &Term::iri(*o));
            }
            (name.to_string(), store)
        })
        .collect();
    let queries = vec![("q", query.to_string())];
    Workload::assemble(dict, stores, None, queries, BackendKind::Btree)
}

/// Runs the workload's one query through Lusail and requires the oracle's
/// answers.
fn run_against_oracle(w: &Workload) -> QueryResult {
    let q = &w.queries[0].query;
    let r = Lusail::default().execute(&w.federation, q).unwrap();
    let expected = lusail_store::eval::evaluate(&w.oracle, q).canonicalize();
    assert!(!expected.is_empty(), "the oracle finds no answer");
    assert_eq!(r.solutions.canonicalize(), expected);
    r
}

/// QFed's `?drug` star: the type and `sameAs` patterns are both only at
/// DrugBank, and some drugs have no `sameAs`, so Algorithm 1's check of
/// the pair answers non-empty. Before single-source pairs were settled
/// without a check, this made `?d` a GJV (one check request) and split
/// the star into two requests to the same endpoint.
#[test]
fn a_star_at_one_endpoint_is_local_without_a_check() {
    let drug = "http://drugbank/Drug";
    let same_as = vocab::OWL_SAME_AS;
    let w = federation(
        &[
            (
                "DrugBank",
                vec![
                    ["http://drugbank/d1", vocab::RDF_TYPE, drug],
                    ["http://drugbank/d1", same_as, "http://sider/s1"],
                    ["http://drugbank/d2", vocab::RDF_TYPE, drug],
                    ["http://drugbank/d2", same_as, "http://sider/s2"],
                    ["http://drugbank/d3", vocab::RDF_TYPE, drug],
                ],
            ),
            (
                "Sider",
                vec![[
                    "http://sider/s1",
                    "http://sider/sideEffect",
                    "http://sider/e1",
                ]],
            ),
        ],
        &format!("SELECT * WHERE {{ ?d a <{drug}> . ?d <{same_as}> ?s }}"),
    );
    let r = run_against_oracle(&w);
    assert!(r.metrics.gjvs.is_empty(), "{:?}", r.metrics.gjvs);
    assert_eq!(r.metrics.check_queries, 0);
    // The block ships whole: one SELECT, to DrugBank.
    assert_eq!(r.metrics.subqueries, 1);
    assert_eq!(r.metrics.requests_execution.get(RequestKind::Select), 1);
}

/// The rule does not rest on entity partitioning: each subject's `p` and
/// `r` edges are at A and its `q` edges at B. The `p`–`r` pair is grouped
/// at A without a check; `?s` is still global through the pairs whose
/// sources differ. (Checked, the pair made a third subquery.)
#[test]
fn a_single_source_pair_is_local_on_per_edge_partitioned_data() {
    let w = federation(
        &[
            (
                "A",
                vec![
                    ["http://x/s1", "http://x/p", "http://x/o1"],
                    ["http://x/s1", "http://x/r", "http://x/x1"],
                    ["http://x/s2", "http://x/p", "http://x/o2"],
                    ["http://x/s2", "http://x/r", "http://x/x2"],
                    ["http://x/s3", "http://x/p", "http://x/o3"],
                ],
            ),
            (
                "B",
                vec![
                    ["http://x/s1", "http://x/q", "http://x/y1"],
                    ["http://x/s2", "http://x/q", "http://x/y2"],
                    ["http://x/s3", "http://x/q", "http://x/y3"],
                ],
            ),
        ],
        "SELECT * WHERE { ?s <http://x/p> ?o . ?s <http://x/r> ?x . ?s <http://x/q> ?y }",
    );
    let r = run_against_oracle(&w);
    assert_eq!(r.metrics.gjvs, ["s"]);
    assert_eq!(r.metrics.check_queries, 0);
    assert_eq!(r.metrics.subqueries, 2);
}

/// A predicate-position join whose two patterns have one common source is
/// local too. Algorithm 1 has no probe shape for it and made it
/// "conservatively global".
#[test]
fn a_single_source_predicate_join_is_local() {
    let w = federation(
        &[
            (
                "A",
                vec![
                    ["http://a/s1", "http://x/p", "http://a/o1"],
                    ["http://a/s2", "http://x/p", "http://a/o2"],
                    ["http://a/s3", "http://x/q", "http://a/o2"],
                ],
            ),
            ("B", vec![["http://b/s1", "http://x/p", "http://b/o1"]]),
        ],
        "SELECT * WHERE { ?s ?p <http://a/o1> . ?t ?p <http://a/o2> }",
    );
    let r = run_against_oracle(&w);
    assert!(r.metrics.gjvs.is_empty(), "{:?}", r.metrics.gjvs);
    assert_eq!(r.metrics.subqueries, 1);
    assert_eq!(r.metrics.requests_execution.get(RequestKind::Select), 1);
}

/// In every LargeRDFBench query, each joined pair whose patterns have the
/// same sources has one source, so Lusail answers all 29 without a check
/// query. Before single-source pairs were settled without a check, the
/// same run sent 28 check queries.
#[test]
fn lrb_needs_no_check_query() {
    let w = lrb::generate(&lrb::LrbConfig {
        scale: 0.4,
        ..Default::default()
    });
    assert_eq!(w.queries.len(), 29);
    let engine = Lusail::default();
    let mut checks = 0;
    for nq in &w.queries {
        let r = engine.execute(&w.federation, &nq.query).unwrap();
        let got = r.solutions.canonicalize();
        // Any `LIMIT` rows of the unlimited answer are valid.
        let mut unlimited = nq.query.clone();
        let limit = unlimited.limit.take().unwrap_or(usize::MAX);
        let expected = lusail_store::eval::evaluate(&w.oracle, &unlimited).canonicalize();
        assert_eq!(got.len(), expected.len().min(limit), "{}", nq.name);
        assert!(
            (got.rows.iter()).all(|row| expected.rows.iter().any(|r| r == row)),
            "{}",
            nq.name
        );
        checks += r.metrics.check_queries;
    }
    assert_eq!(checks, 0);
}
