//! Integration tests for the extension features: ORDER BY across engines,
//! EXPLAIN plans, and multi-query optimization.

use lusail_baselines::EngineKind;
use lusail_benchdata::{bio2rdf, lrb, lubm, qfed};
use lusail_core::{Lusail, LusailConfig, PlanShape, QueryPlan, Schedule, TraceEvent, TraceSink};
use lusail_endpoint::{ExecOptions, FederatedEngine, Federation, LocalEndpoint, RequestPolicy};
use lusail_rdf::{Dictionary, Term};
use lusail_store::TripleStore;
use std::sync::Arc;

#[test]
fn order_by_is_respected_by_every_engine() {
    let w = lubm::generate(&lubm::LubmConfig::new(2));
    let q = lusail_sparql::parse_query(
        &format!(
            "PREFIX ub: <{}> SELECT ?n WHERE {{ ?u a ub:University . ?u ub:name ?n }} ORDER BY DESC(?n)",
            lubm::UB
        ),
        w.federation.dict(),
    )
    .unwrap();
    let refs = w.endpoint_refs();
    for kind in EngineKind::ALL {
        let engine = kind.build(&refs, LusailConfig::default(), RequestPolicy::default());
        let sols = engine
            .run_with(&w.federation, &q, &ExecOptions::default())
            .unwrap()
            .solutions;
        let names: Vec<String> = (0..sols.len())
            .map(|i| {
                w.dict
                    .decode(sols.get(i, "n").unwrap())
                    .lexical()
                    .to_string()
            })
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.reverse();
        assert_eq!(names, sorted, "{} violates ORDER BY", kind.name());
        assert_eq!(names, ["University 1", "University 0"]);
    }
}

#[test]
fn order_by_with_limit_returns_global_top_k() {
    // The disjoint fast path pushes ORDER BY + LIMIT to the endpoints and
    // re-sorts globally; the result must be the *global* top-k, not some
    // endpoint's.
    let w = lubm::generate(&lubm::LubmConfig::new(3));
    let q = lusail_sparql::parse_query(
        &format!(
            "PREFIX ub: <{}> SELECT ?n WHERE {{ ?u a ub:University . ?u ub:name ?n }} ORDER BY ?n LIMIT 2",
            lubm::UB
        ),
        w.federation.dict(),
    )
    .unwrap();
    let engine = Lusail::default();
    let sols = engine
        .run_with(&w.federation, &q, &ExecOptions::default())
        .unwrap()
        .solutions;
    let names: Vec<String> = (0..sols.len())
        .map(|i| {
            w.dict
                .decode(sols.get(i, "n").unwrap())
                .lexical()
                .to_string()
        })
        .collect();
    assert_eq!(names, ["University 0", "University 1"]);
}

/// Asserts EXPLAIN's plan for `query` is the one execution runs: same
/// GJVs, same disjoint / empty verdict, same subqueries — nested groups'
/// included, under the same query-wide numbers — with the same delay
/// flags and (pushed-down, shrunk) projections. Execution's side is read
/// from what it reports — metrics, its planning trace events, and the
/// `project:` lines of EXPLAIN ANALYZE's render of the plan a second run
/// on the same warm engine executed — not from the plan EXPLAIN holds.
fn assert_explain_matches_execution(
    engine: &Lusail,
    fed: &lusail_endpoint::Federation,
    query: &lusail_sparql::Query,
    name: &str,
) -> QueryPlan {
    let plan = engine.explain(fed, query);
    let sink = TraceSink::enabled();
    let opts = ExecOptions::default().with_trace(sink.clone());
    let result = engine.execute_with(fed, query, &opts).unwrap();
    let mut planned: Vec<(usize, bool)> = sink
        .events()
        .into_iter()
        .filter_map(|ev| match ev {
            TraceEvent::SubqueryPlanned {
                index,
                delay_reason,
            } => Some((index, delay_reason.is_some())),
            _ => None,
        })
        .collect();
    planned.sort();

    let top = &plan.groups[0];
    assert_eq!(top.gjvs, result.metrics.gjvs, "{name}: GJVs");
    assert_eq!(
        empty(&plan),
        result.metrics.subqueries == 0,
        "{name}: empty"
    );
    assert_eq!(
        disjoint(&plan),
        result.metrics.subqueries == 1 && planned.is_empty(),
        "{name}: disjoint"
    );
    if disjoint(&plan) || empty(&plan) {
        assert!(top.subqueries().is_empty(), "{name}");
        return plan;
    }
    assert_eq!(
        top.subqueries().len(),
        result.metrics.subqueries,
        "{name}: subquery count"
    );
    let delays: Vec<(usize, bool)> = (plan.groups.iter())
        .flat_map(|group| group.subqueries())
        .map(|sq| (sq.index, sq.schedule.delay_reason().is_some()))
        .collect();
    assert_eq!(delays, planned, "{name}: delay decisions");
    let delayed = (top.subqueries().iter())
        .filter(|sq| matches!(sq.schedule, Schedule::Delayed(_)))
        .count();
    assert_eq!(
        delayed, result.metrics.delayed_subqueries,
        "{name}: delayed subqueries"
    );
    let analyze = engine
        .explain_analyze_with(fed, query, &ExecOptions::default())
        .unwrap();
    assert!(
        analyze.contains(&format!("\nplan: {} subqueries", top.subqueries().len())),
        "{name}: the plan that ran is not decomposed into the planned subqueries"
    );
    // A WHERE-group subquery's projection line is indented six spaces; a
    // nested group's lines are indented deeper.
    let executed: Vec<&str> = (analyze.lines())
        .filter_map(|line| line.strip_prefix("      project: "))
        .collect();
    assert_eq!(
        executed.len(),
        top.subqueries().len(),
        "{name}: projections"
    );
    for (sq, run) in top.subqueries().iter().zip(&executed) {
        let projection = format!("?{}", sq.subquery.projection.join(" ?"));
        assert_eq!(projection, *run, "{name}: projection");
    }
    plan
}

fn empty(plan: &QueryPlan) -> bool {
    matches!(plan.groups[0].shape, PlanShape::Empty)
}

fn disjoint(plan: &QueryPlan) -> bool {
    matches!(plan.groups[0].shape, PlanShape::Disjoint { .. })
}

#[test]
fn explain_matches_execution_decisions() {
    let workloads = [
        ("lubm", lubm::generate(&lubm::LubmConfig::new(4))),
        ("qfed", qfed::generate(&qfed::QfedConfig::default())),
        ("lrb", lrb::generate(&lrb::LrbConfig::default())),
        (
            "bio2rdf",
            bio2rdf::generate(&bio2rdf::Bio2RdfConfig::default()),
        ),
    ];
    for (workload, w) in &workloads {
        let engine = Lusail::default();
        for nq in &w.queries {
            let name = format!("{workload}/{}", nq.name);
            assert_explain_matches_execution(&engine, &w.federation, &nq.query, &name);
        }
    }
}

/// The shapes EXPLAIN used to get wrong because it re-derived the plan
/// or execution decided part of it: anything the mediator must evaluate
/// over the global result is not DISJOINT, a sourceless required pattern
/// is EMPTY, `disable_lade` decomposes per pattern, and a group whose
/// every subquery is delayed runs the one the plan promoted.
#[test]
fn explain_matches_execution_on_mediator_side_shapes() {
    let w = lubm::generate(&lubm::LubmConfig::new(2));
    let fed = &w.federation;
    let parse = |body: &str| {
        lusail_sparql::parse_query(&format!("PREFIX ub: <{}> {body}", lubm::UB), fed.dict())
            .unwrap()
    };
    let engine = Lusail::default();

    // The bare pattern ships whole …
    let bare = parse("SELECT ?n WHERE { ?u a ub:University . ?u ub:name ?n }");
    assert!(disjoint(&assert_explain_matches_execution(
        &engine, fed, &bare, "bare"
    )));
    // … but not under an aggregate, COUNT(*), or an ORDER BY key the
    // endpoints would project away.
    for (name, text) in [
        (
            "aggregate",
            "SELECT (COUNT(?u) AS ?c) WHERE { ?u a ub:University . ?u ub:name ?n }",
        ),
        (
            "count-star",
            "SELECT (COUNT(*) AS ?c) WHERE { ?u a ub:University . ?u ub:name ?n }",
        ),
        (
            "order-by-unprojected",
            "SELECT ?n WHERE { ?u a ub:University . ?u ub:name ?n } ORDER BY ?u",
        ),
    ] {
        let plan = assert_explain_matches_execution(&engine, fed, &parse(text), name);
        assert!(!disjoint(&plan), "{name}");
        assert_eq!(plan.groups[0].subqueries().len(), 1, "{name}");
        assert!(!plan.render(fed).contains("DISJOINT"), "{name}");
    }

    let nowhere = parse("SELECT ?x WHERE { ?x <http://nowhere/p> ?y . ?x ub:name ?n }");
    let plan = assert_explain_matches_execution(&engine, fed, &nowhere, "empty");
    assert!(empty(&plan));
    let text = plan.render(fed);
    assert!(text.contains("plan: EMPTY"), "{text}");

    let strawman = Lusail::new(LusailConfig {
        disable_lade: true,
        ..Default::default()
    });
    let plan = assert_explain_matches_execution(&strawman, fed, &bare, "disable_lade");
    assert_eq!(plan.groups[0].subqueries().len(), 2);
    assert_eq!(plan.metrics.check_queries, 0);

    // A group whose every subquery the cost model delays: a hundred `p`
    // triples at A and ten `q` triples over three endpoints delay
    // subquery 1 on cardinality and subquery 2 on fan-out, and the plan
    // promotes the smaller, subquery 2, so only one runs delayed.
    let (fed, query) = all_delayed();
    let plan = assert_explain_matches_execution(&engine, &fed, &query, "promoted");
    let schedules: Vec<&Schedule> = (plan.groups[0].subqueries().iter())
        .map(|sq| &sq.schedule)
        .collect();
    assert!(
        matches!(schedules[..], [Schedule::Delayed(_), Schedule::Promoted(_)]),
        "{schedules:?}"
    );
}

/// The federation and query of a group whose every subquery is delayed.
fn all_delayed() -> (Federation, lusail_sparql::Query) {
    let dict = Dictionary::shared();
    let mut a = TripleStore::new(Arc::clone(&dict));
    for i in 0..100 {
        a.insert_terms(
            &Term::iri(format!("http://a/s{i}")),
            &Term::iri("http://x/p"),
            &Term::iri(format!("http://b/v{}", i % 20)),
        );
    }
    let mut fed = Federation::new(Arc::clone(&dict));
    fed.add(Arc::new(LocalEndpoint::new("A", a)));
    for (name, range) in [("B1", 0..4), ("B2", 4..7), ("B3", 7..10)] {
        let mut b = TripleStore::new(Arc::clone(&dict));
        for k in range {
            b.insert_terms(
                &Term::iri(format!("http://b/v{k}")),
                &Term::iri("http://x/q"),
                &Term::iri("http://b/o"),
            );
        }
        fed.add(Arc::new(LocalEndpoint::new(name, b)));
    }
    let query = lusail_sparql::parse_query(
        "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
        &dict,
    )
    .unwrap();
    (fed, query)
}

#[test]
fn explain_render_mentions_every_endpoint_and_pattern() {
    let w = qfed::generate(&qfed::QfedConfig::default());
    let engine = Lusail::default();
    let text = engine
        .explain(&w.federation, &w.query("C2P2").query)
        .render(&w.federation);
    assert!(text.contains("DrugBank"));
    assert!(text.contains("Sider"));
    assert!(text.contains("sameAs"));
    assert!(text.contains("subquery 1"));
}

#[test]
fn mqo_batch_matches_individual_execution_on_benchmarks() {
    let w = qfed::generate(&qfed::QfedConfig {
        drugs: 100,
        diseases: 30,
        ..Default::default()
    });
    let queries: Vec<lusail_sparql::Query> = w.queries.iter().map(|nq| nq.query.clone()).collect();
    let batch_engine = Lusail::default();
    let (batch_results, report) = batch_engine.execute_batch(&w.federation, &queries).unwrap();
    assert!(report.total_subqueries >= report.distinct_subqueries);
    let single_engine = Lusail::default();
    for (nq, br) in w.queries.iter().zip(&batch_results) {
        let single = single_engine.execute(&w.federation, &nq.query).unwrap();
        assert_eq!(
            br.solutions.canonicalize(),
            single.solutions.canonicalize(),
            "batch and single disagree on {}",
            nq.name
        );
    }
}

#[test]
fn mqo_shares_across_the_c2p2_family() {
    // The C2P2 variants all share the drug/sameAs/sideEffect core:
    // batching them should evaluate far fewer distinct subqueries than the
    // total.
    let w = qfed::generate(&qfed::QfedConfig::default());
    let family: Vec<lusail_sparql::Query> = w
        .queries
        .iter()
        .filter(|nq| nq.name.starts_with("C2P2"))
        .map(|nq| nq.query.clone())
        .collect();
    assert!(family.len() >= 6);
    let engine = Lusail::default();
    let (_, report) = engine.execute_batch(&w.federation, &family).unwrap();
    assert!(
        report.distinct_subqueries < report.total_subqueries,
        "no sharing happened: {report:?}"
    );
}

#[test]
fn correlated_optional_filter_sees_outer_bindings() {
    // SPARQL LeftJoin(P1, P2, F): the filter inside OPTIONAL references an
    // outer variable. A per-group evaluation would make the filter error
    // (unbound ?min) and drop every optional match.
    use lusail_endpoint::{Federation, LocalEndpoint};
    use lusail_rdf::{Dictionary, Term};
    use lusail_store::TripleStore;

    let dict = lusail_rdf::Dictionary::shared();
    let mut st = TripleStore::new(Arc::clone(&dict));
    for (person, min, bid) in [("p1", 10, 15), ("p2", 20, 15), ("p3", 10, 5)] {
        let s = Term::iri(format!("http://x/{person}"));
        st.insert_terms(&s, &Term::iri("http://x/minimum"), &Term::int(min));
        st.insert_terms(&s, &Term::iri("http://x/bid"), &Term::int(bid));
    }
    let q = lusail_sparql::parse_query(
        "SELECT ?p ?b WHERE { ?p <http://x/minimum> ?min . \
         OPTIONAL { ?p <http://x/bid> ?b . FILTER (?b > ?min) } } ORDER BY ?p",
        &dict,
    )
    .unwrap();
    // Local evaluation.
    let sols = lusail_store::eval::evaluate(&st, &q);
    let bound: Vec<bool> = (0..sols.len())
        .map(|i| sols.get(i, "b").is_some())
        .collect();
    // p1: 15 > 10 → bound; p2: 15 > 20 fails → unbound; p3: 5 > 10 fails.
    assert_eq!(bound, [true, false, false]);

    // Federated evaluation agrees.
    let mut st2 = TripleStore::new(Arc::clone(&dict));
    st.scan(None, None, None, |t| {
        st2.insert(t);
        true
    });
    let mut fed = Federation::new(Arc::clone(&dict));
    fed.add(Arc::new(LocalEndpoint::new("A", st2)));
    let got = Lusail::default()
        .run_with(&fed, &q, &ExecOptions::default())
        .unwrap()
        .solutions;
    assert_eq!(got.canonicalize(), sols.canonicalize());
    let _ = Dictionary::new();
}

#[test]
fn correlated_not_exists_filter_sees_outer_bindings() {
    use lusail_rdf::Term;
    use lusail_store::TripleStore;

    let dict = lusail_rdf::Dictionary::shared();
    let mut st = TripleStore::new(Arc::clone(&dict));
    // People with ages; exclude anyone who has a friend *older than
    // themselves* (correlated comparison).
    for (person, age) in [("a", 30), ("b", 40), ("c", 50)] {
        st.insert_terms(
            &Term::iri(format!("http://x/{person}")),
            &Term::iri("http://x/age"),
            &Term::int(age),
        );
    }
    st.insert_terms(
        &Term::iri("http://x/a"),
        &Term::iri("http://x/friend"),
        &Term::iri("http://x/b"),
    );
    st.insert_terms(
        &Term::iri("http://x/b"),
        &Term::iri("http://x/friend"),
        &Term::iri("http://x/a"),
    );
    let q = lusail_sparql::parse_query(
        "SELECT ?p WHERE { ?p <http://x/age> ?age . \
         FILTER NOT EXISTS { ?p <http://x/friend> ?f . ?f <http://x/age> ?fa . \
         FILTER (?fa > ?age) } } ORDER BY ?p",
        &dict,
    )
    .unwrap();
    let sols = lusail_store::eval::evaluate(&st, &q);
    let names: Vec<String> = (0..sols.len())
        .map(|i| dict.decode(sols.get(i, "p").unwrap()).lexical().to_string())
        .collect();
    // a has friend b (40 > 30) → excluded; b's friend a is younger → kept;
    // c has no friends → kept.
    assert_eq!(names, ["http://x/b", "http://x/c"]);
}

#[test]
fn order_by_non_projected_variable_sorts() {
    use lusail_rdf::Term;
    use lusail_store::TripleStore;
    let dict = lusail_rdf::Dictionary::shared();
    let mut st = TripleStore::new(Arc::clone(&dict));
    for (name, rank) in [("carol", 2), ("alice", 3), ("bob", 1)] {
        let s = Term::iri(format!("http://x/{name}"));
        st.insert_terms(&s, &Term::iri("http://x/name"), &Term::lit(name));
        st.insert_terms(&s, &Term::iri("http://x/rank"), &Term::int(rank));
    }
    // ?r is a sort key but NOT projected.
    let q = lusail_sparql::parse_query(
        "SELECT ?n WHERE { ?s <http://x/name> ?n . ?s <http://x/rank> ?r } ORDER BY ?r",
        &dict,
    )
    .unwrap();
    let sols = lusail_store::eval::evaluate(&st, &q);
    let names: Vec<String> = (0..sols.len())
        .map(|i| dict.decode(sols.get(i, "n").unwrap()).lexical().to_string())
        .collect();
    assert_eq!(names, ["bob", "carol", "alice"]);
    assert_eq!(sols.vars, ["n"]); // sort key not leaked into the schema
}

#[test]
fn federated_order_by_non_projected_variable() {
    // The sort key ?r lives in a different subquery column that is not
    // projected by the query; the engine must still ship and sort by it.
    use lusail_endpoint::{Federation, LocalEndpoint};
    use lusail_rdf::Term;
    use lusail_store::TripleStore;
    let dict = lusail_rdf::Dictionary::shared();
    let mut a = TripleStore::new(Arc::clone(&dict));
    let mut b = TripleStore::new(Arc::clone(&dict));
    for (name, rank) in [("carol", 2), ("alice", 3), ("bob", 1)] {
        let s = Term::iri(format!("http://people/{name}"));
        a.insert_terms(&s, &Term::iri("http://x/name"), &Term::lit(name));
        b.insert_terms(&s, &Term::iri("http://x/rank"), &Term::int(rank));
    }
    let mut fed = Federation::new(Arc::clone(&dict));
    fed.add(Arc::new(LocalEndpoint::new("A", a)));
    fed.add(Arc::new(LocalEndpoint::new("B", b)));
    let q = lusail_sparql::parse_query(
        "SELECT ?n WHERE { ?s <http://x/name> ?n . ?s <http://x/rank> ?r } ORDER BY ?r",
        &dict,
    )
    .unwrap();
    let sols = Lusail::default()
        .run_with(&fed, &q, &ExecOptions::default())
        .unwrap()
        .solutions;
    let names: Vec<String> = (0..sols.len())
        .map(|i| dict.decode(sols.get(i, "n").unwrap()).lexical().to_string())
        .collect();
    assert_eq!(names, ["bob", "carol", "alice"]);
    assert_eq!(sols.vars, ["n"]);
}

#[test]
fn projected_exists_is_an_endpoint_form_every_mediator_refuses() {
    // `(EXISTS {…} AS ?v)` is how coalesced planning probes reach an
    // endpoint, which answers it about its own data. Shipped through a
    // mediator it would silently become one answer per endpoint.
    let w = lubm::generate(&lubm::LubmConfig::new(2));
    let q = lusail_sparql::parse_query(
        &format!(
            "PREFIX ub: <{}> SELECT (EXISTS {{ ?u a ub:University }} AS ?any) WHERE {{ }}",
            lubm::UB
        ),
        w.federation.dict(),
    )
    .unwrap();
    let endpoint = lusail_store::eval::evaluate(w.endpoints[0].store(), &q);
    assert_eq!(
        (endpoint.vars.as_slice(), endpoint.len()),
        (&["any".to_string()][..], 1)
    );
    let refs = w.endpoint_refs();
    for kind in EngineKind::ALL {
        let engine = kind.build(&refs, LusailConfig::default(), RequestPolicy::default());
        let refused = engine.run_with(&w.federation, &q, &ExecOptions::default());
        assert_eq!(
            refused.err(),
            Some(lusail_endpoint::FederationError::ProjectedExists),
            "{}",
            kind.name()
        );
    }
}
