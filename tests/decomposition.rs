//! Behavioural invariants of Lusail's pipeline on the benchmark
//! workloads: which queries are disjoint, which variables go global, how
//! the caches and delays behave, and that the metrics are coherent.

use lusail_benchdata::{lubm, qfed};
use lusail_core::{Lusail, LusailConfig, RequestKind};

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

#[test]
fn smaller_blocks_mean_more_requests_for_delayed_subqueries() {
    let w = lubm::generate(&lubm::LubmConfig::new(4));
    let q = &w.query("Q3").query;
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
    let engine = Lusail::new(LusailConfig {
        use_cache: false,
        ..Default::default()
    });
    for nq in &w.queries {
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
