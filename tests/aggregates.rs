//! GROUP BY / aggregate tests: local evaluation semantics and the
//! federated path (aggregation must happen over the *global* solution
//! sequence, never per endpoint).

use lusail_baselines::EngineKind;
use lusail_benchdata::lubm;
use lusail_core::{Lusail, LusailConfig};
use lusail_endpoint::{ExecOptions, FederatedEngine, Federation, LocalEndpoint};
use lusail_rdf::{Dictionary, Term};
use lusail_sparql::parse_query;
use lusail_store::TripleStore;
use std::sync::Arc;

fn sales_store(dict: &Arc<Dictionary>) -> TripleStore {
    let mut st = TripleStore::new(Arc::clone(dict));
    // (item, region, amount)
    for (i, (region, amount)) in [
        ("east", 10),
        ("east", 20),
        ("west", 5),
        ("west", 7),
        ("west", 9),
        ("north", 100),
    ]
    .iter()
    .enumerate()
    {
        let sale = Term::iri(format!("http://s/sale{i}"));
        st.insert_terms(&sale, &Term::iri("http://s/region"), &Term::lit(*region));
        st.insert_terms(&sale, &Term::iri("http://s/amount"), &Term::int(*amount));
    }
    st
}

fn lookup(sols: &lusail_sparql::SolutionSet, dict: &Dictionary, key: &str, col: &str) -> String {
    let kcol = sols.col("r").unwrap();
    let vcol = sols.col(col).unwrap();
    for row in sols.rows.iter() {
        if dict.decode(row[kcol].unwrap()).lexical() == key {
            return dict.decode(row[vcol].unwrap()).lexical().to_string();
        }
    }
    panic!("no group {key}");
}

#[test]
fn local_group_by_with_all_aggregates() {
    let dict = Dictionary::shared();
    let st = sales_store(&dict);
    let q = parse_query(
        "SELECT ?r (COUNT(*) AS ?n) (SUM(?a) AS ?total) (MIN(?a) AS ?lo) \
                (MAX(?a) AS ?hi) (AVG(?a) AS ?mean) \
         WHERE { ?s <http://s/region> ?r . ?s <http://s/amount> ?a } GROUP BY ?r",
        &dict,
    )
    .unwrap();
    let sols = lusail_store::eval::evaluate(&st, &q);
    assert_eq!(sols.len(), 3);
    assert_eq!(lookup(&sols, &dict, "east", "n"), "2");
    assert_eq!(lookup(&sols, &dict, "east", "total"), "30");
    assert_eq!(lookup(&sols, &dict, "east", "mean"), "15");
    assert_eq!(lookup(&sols, &dict, "west", "n"), "3");
    assert_eq!(lookup(&sols, &dict, "west", "total"), "21");
    assert_eq!(lookup(&sols, &dict, "west", "lo"), "5");
    assert_eq!(lookup(&sols, &dict, "west", "hi"), "9");
    assert_eq!(lookup(&sols, &dict, "west", "mean"), "7");
    assert_eq!(lookup(&sols, &dict, "north", "n"), "1");
}

#[test]
fn implicit_group_counts_everything_even_when_empty() {
    let dict = Dictionary::shared();
    let st = sales_store(&dict);
    let q = parse_query(
        "SELECT (COUNT(?s) AS ?n) (SUM(?a) AS ?t) WHERE { \
         ?s <http://s/amount> ?a }",
        &dict,
    )
    .unwrap();
    let sols = lusail_store::eval::evaluate(&st, &q);
    assert_eq!(sols.len(), 1);
    assert_eq!(dict.decode(sols.get(0, "n").unwrap()).lexical(), "6");
    assert_eq!(dict.decode(sols.get(0, "t").unwrap()).lexical(), "151");

    // Empty input: one row, COUNT = 0.
    let q = parse_query(
        "SELECT (COUNT(?s) AS ?n) WHERE { ?s <http://s/nothing> ?a }",
        &dict,
    )
    .unwrap();
    let sols = lusail_store::eval::evaluate(&st, &q);
    assert_eq!(sols.len(), 1);
    assert_eq!(dict.decode(sols.get(0, "n").unwrap()).lexical(), "0");
}

#[test]
fn count_distinct_collapses_duplicates() {
    let dict = Dictionary::shared();
    let st = sales_store(&dict);
    let q = parse_query(
        "SELECT (COUNT(DISTINCT ?r) AS ?n) WHERE { ?s <http://s/region> ?r }",
        &dict,
    )
    .unwrap();
    let sols = lusail_store::eval::evaluate(&st, &q);
    assert_eq!(dict.decode(sols.get(0, "n").unwrap()).lexical(), "3");
}

#[test]
fn federated_group_by_aggregates_globally() {
    // Sales split across two endpoints by row: per-endpoint aggregation
    // then concatenation would double-count groups; the engines must
    // aggregate the global sequence.
    let dict = Dictionary::shared();
    let full = sales_store(&dict);
    let mut a = TripleStore::new(Arc::clone(&dict));
    let mut b = TripleStore::new(Arc::clone(&dict));
    let mut i = 0;
    full.scan(None, None, None, |t| {
        // Subject-partitioned split (sales alternate between endpoints).
        let target = if (i / 2) % 2 == 0 { &mut a } else { &mut b };
        target.insert(t);
        i += 1;
        true
    });
    let mut fed = Federation::new(Arc::clone(&dict));
    fed.add(Arc::new(LocalEndpoint::new("A", a)));
    fed.add(Arc::new(LocalEndpoint::new("B", b)));

    let q = parse_query(
        "SELECT ?r (SUM(?a) AS ?total) WHERE { \
         ?s <http://s/region> ?r . ?s <http://s/amount> ?a } GROUP BY ?r \
         ORDER BY ?r",
        &dict,
    )
    .unwrap();
    let expected = lusail_store::eval::evaluate(&full, &q);
    for kind in [EngineKind::Lusail, EngineKind::FedX] {
        let engine = kind.build(&[], LusailConfig::default());
        let got = engine
            .run_with(&fed, &q, &ExecOptions::default())
            .unwrap()
            .solutions;
        assert_eq!(
            got.canonicalize(),
            expected.canonicalize(),
            "{} aggregates wrongly",
            kind.name()
        );
    }
}

#[test]
fn federated_count_star_is_global() {
    // `SELECT (COUNT(*) AS ?c)` through an engine must count global rows,
    // not concatenate per-endpoint counts.
    let w = lubm::generate(&lubm::LubmConfig::new(3));
    let q = parse_query(
        &format!(
            "PREFIX ub: <{}> SELECT (COUNT(*) AS ?c) WHERE {{ ?x a ub:GraduateStudent }}",
            lubm::UB
        ),
        w.federation.dict(),
    )
    .unwrap();
    let expected = lusail_store::eval::evaluate(&w.oracle, &q);
    for kind in [EngineKind::Lusail, EngineKind::FedX] {
        let engine = kind.build(&[], LusailConfig::default());
        let got = engine
            .run_with(&w.federation, &q, &ExecOptions::default())
            .unwrap()
            .solutions;
        assert_eq!(got.len(), 1, "{}", kind.name());
        assert_eq!(
            got.canonicalize(),
            expected.canonicalize(),
            "{} count differs",
            kind.name()
        );
    }
}

#[test]
fn aggregate_query_roundtrips_through_writer() {
    let dict = Dictionary::new();
    let text = "SELECT ?r (COUNT(DISTINCT ?s) AS ?n) (AVG(?a) AS ?m) WHERE \
                { ?s <http://s/region> ?r . ?s <http://s/amount> ?a } \
                GROUP BY ?r ORDER BY DESC(?n) LIMIT 2";
    let q1 = parse_query(text, &dict).unwrap();
    assert_eq!(q1.aggregates.len(), 2);
    assert_eq!(q1.group_by, ["r"]);
    let written = lusail_sparql::write_query(&q1, &dict);
    let q2 = parse_query(&written, &dict).unwrap();
    assert_eq!(q1, q2, "roundtrip failed: {written}");
}

#[test]
fn group_by_with_order_and_limit() {
    let dict = Dictionary::shared();
    let st = sales_store(&dict);
    let q = parse_query(
        "SELECT ?r (SUM(?a) AS ?t) WHERE { \
         ?s <http://s/region> ?r . ?s <http://s/amount> ?a } \
         GROUP BY ?r ORDER BY DESC(?t) LIMIT 1",
        &dict,
    )
    .unwrap();
    let sols = lusail_store::eval::evaluate(&st, &q);
    assert_eq!(sols.len(), 1);
    assert_eq!(dict.decode(sols.get(0, "r").unwrap()).lexical(), "north");
    assert_eq!(dict.decode(sols.get(0, "t").unwrap()).lexical(), "100");
}

#[test]
fn having_filters_groups() {
    let dict = Dictionary::shared();
    let st = sales_store(&dict);
    let q = parse_query(
        "SELECT ?r (SUM(?a) AS ?t) WHERE { \
         ?s <http://s/region> ?r . ?s <http://s/amount> ?a } \
         GROUP BY ?r HAVING (?t > 25) ORDER BY ?r",
        &dict,
    )
    .unwrap();
    let sols = lusail_store::eval::evaluate(&st, &q);
    let regions: Vec<String> = (0..sols.len())
        .map(|i| dict.decode(sols.get(i, "r").unwrap()).lexical().to_string())
        .collect();
    assert_eq!(regions, ["east", "north"]); // 30 and 100 pass; 21 doesn't
}

#[test]
fn having_works_federated() {
    let w = lubm::generate(&lubm::LubmConfig::new(3));
    // Professors advising more than the average load: HAVING over a count.
    let q = parse_query(
        &format!(
            "PREFIX ub: <{}> SELECT ?y (COUNT(?x) AS ?n) WHERE {{ \
             ?x ub:advisor ?y }} GROUP BY ?y HAVING (?n >= 3) ORDER BY DESC(?n)",
            lubm::UB
        ),
        w.federation.dict(),
    )
    .unwrap();
    let expected = lusail_store::eval::evaluate(&w.oracle, &q);
    let got = Lusail::default()
        .run_with(&w.federation, &q, &ExecOptions::default())
        .unwrap()
        .solutions;
    assert_eq!(got.canonicalize(), expected.canonicalize());
    assert!(!got.is_empty());
}

#[test]
fn having_roundtrips_through_writer() {
    let dict = Dictionary::new();
    let text = "SELECT ?r (SUM(?a) AS ?t) WHERE { ?s <http://s/p> ?r . \
                ?s <http://s/q> ?a } GROUP BY ?r HAVING ((?t > 10)) HAVING ((?t < 99))";
    let q1 = parse_query(text, &dict).unwrap();
    assert_eq!(q1.having.len(), 2);
    let written = lusail_sparql::write_query(&q1, &dict);
    let q2 = parse_query(&written, &dict).unwrap();
    assert_eq!(q1, q2, "{written}");
}
