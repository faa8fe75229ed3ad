//! Pinned-plan tests for store-side triple-pattern reordering.
//!
//! The greedy planner in `lusail-store` orders BGP patterns by
//! (disconnected from the bound variables, unbound-position count,
//! index-estimated cardinality). These tests pin the chosen orders and
//! their exact scan counts on the deterministic LUBM fixture — a plan
//! change is a deliberate decision, not drift — hold every workload's and
//! 200 generated BGPs' plans to the no-cross-product rule, and assert the
//! work the ordering is supposed to save: `rows_scanned` stays strictly
//! below the recorded textual-order figures on the multi-pattern LUBM
//! queries however the patterns are written, and the degenerate
//! all-unbound scan costs one visit per triple.

use lusail_benchdata::common::{Rng, Workload};
use lusail_benchdata::lubm::{generate, LubmConfig};
use lusail_sparql::ast::{GroupPattern, PatternTerm, Query, TriplePattern};
use lusail_sparql::parse_query;
use lusail_store::eval::{ask, evaluate, plan_bgp_order};
use lusail_store::{ColumnStore, StorageBackend};
use lusail_testkit::{seed_from_env, Case, GenConfig};

/// The oracle union store doubles as a single big endpoint here; the
/// planner only needs a store with realistic index statistics.
fn lubm_workload() -> Workload {
    generate(&LubmConfig::new(3))
}

/// Rows a backend scans to evaluate `query`.
fn scans(store: &dyn StorageBackend, query: &Query) -> u64 {
    let before = store.rows_scanned();
    evaluate(store, query);
    store.rows_scanned() - before
}

#[test]
fn pinned_lubm_plan_orders() {
    let w = lubm_workload();
    let oracle = &w.oracle;
    let columns = ColumnStore::from_store(oracle);
    // Q1: the planner opens with `?y a ub:University` — three universities
    // is by far the smallest index range — and from there only ever takes
    // a pattern that shares a variable with what is bound: down to the
    // departments (`?z subOrganizationOf ?y`, checked by `?z a
    // Department`), then to their members, each checked against its type
    // and degree with every position bound.
    let q1 = &w.query("Q1").query;
    assert_eq!(
        plan_bgp_order(oracle, &q1.pattern.triples, &[]),
        vec![1, 4, 2, 3, 0, 5],
        "Q1 plan changed — if intentional, re-pin this order"
    );
    // Q4: the capped type-pattern estimate (64) wins the opening and
    // `?x ub:advisor ?y` extends it; from the advisor the 45-row
    // `?y ub:doctoralDegreeFrom ?u` comes before the big chain patterns,
    // and fully-bound leftovers close the plan.
    let q4 = &w.query("Q4").query;
    assert_eq!(
        plan_bgp_order(oracle, &q4.pattern.triples, &[]),
        vec![0, 1, 4, 2, 3, 5],
        "Q4 plan changed — if intentional, re-pin this order"
    );
    // The work those plans cost, to the row, on both backends (the
    // columnar plan may differ where an exact estimate beats the BTree
    // walk's cap, but never for the worse).
    for (name, btree_rows, columns_rows) in
        [("Q1", 620, 620), ("Q2", 1367, 1367), ("Q4", 1609, 1609)]
    {
        let query = &w.query(name).query;
        assert_eq!(scans(oracle, query), btree_rows, "{name} on btree");
        assert_eq!(scans(&columns, query), columns_rows, "{name} on columns");
    }
}

/// True when `tp` shares a variable with `bound`.
fn connected(tp: &TriplePattern, bound: &[String]) -> bool {
    tp.vars().any(|v| bound.iter().any(|b| b == v))
}

/// Checks the prefix property on a returned order: a step may only take a
/// pattern sharing no variable with the bound set (the variables of the
/// patterns before it plus `seeded`) when no remaining pattern shares one.
/// Returns how many such cross steps the order takes after its opening.
fn assert_never_crosses(
    store: &dyn StorageBackend,
    triples: &[TriplePattern],
    seeded: &[String],
    ctx: &str,
) -> usize {
    let order = plan_bgp_order(store, triples, seeded);
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        (0..triples.len()).collect::<Vec<_>>(),
        "{ctx}: not a permutation"
    );
    let mut bound = seeded.to_vec();
    let mut crosses = 0;
    for (k, &i) in order.iter().enumerate() {
        let tp = &triples[i];
        if tp.vars().next().is_some() && !connected(tp, &bound) {
            if let Some(&j) = order[k + 1..]
                .iter()
                .find(|&&j| connected(&triples[j], &bound))
            {
                panic!(
                    "{ctx}: step {k} takes pattern {i}, a cross product, while \
                     pattern {j} is connected (order {order:?}, seeded {seeded:?})"
                );
            }
            crosses += usize::from(!bound.is_empty());
        }
        bound.extend(tp.vars().map(str::to_string));
    }
    crosses
}

#[test]
fn plan_never_crosses_while_a_connected_pattern_remains() {
    use lusail_benchdata::{bio2rdf, lrb, qfed};

    // Every benchmark query's top-level BGP, on its own oracle store.
    let workloads = [
        ("lubm", lubm_workload()),
        ("qfed", qfed::generate(&qfed::QfedConfig::default())),
        ("lrb", lrb::generate(&lrb::LrbConfig::default())),
        (
            "bio2rdf",
            bio2rdf::generate(&bio2rdf::Bio2RdfConfig::default()),
        ),
    ];
    let mut bgps = 0;
    for (workload, w) in &workloads {
        for nq in &w.queries {
            let triples = &nq.query.pattern.triples;
            let vars = nq.query.pattern.all_vars();
            let ctx = format!("{workload} {}", nq.name);
            assert_never_crosses(&w.oracle, triples, &[], &ctx);
            // As a bound subquery: each variable in turn seeded by VALUES.
            for v in vars {
                assert_never_crosses(&w.oracle, triples, &[v], &ctx);
            }
            bgps += 1;
        }
    }
    assert!(bgps > 40, "only {bgps} benchmark BGPs checked");

    // 200 generated BGPs of up to six patterns. Every other case carries a
    // second copy of itself with renamed variables, interleaved pattern by
    // pattern: two components, so the textual order alternates between
    // them and a cross step is legal exactly once.
    let config = GenConfig {
        max_patterns: 6,
        ..GenConfig::default()
    };
    let mut rng = Rng::new(seed_from_env(0xC0DE));
    let (mut legal_crosses, mut seeded_cases) = (0, 0);
    for case_no in 0..200 {
        let case = Case::generate(rng.next_u64(), &config);
        let store = case.oracle();
        let mut bgp = GroupPattern::default();
        for tp in &case.query.pattern.triples {
            bgp.triples.push(tp.clone());
            if case_no % 2 == 1 {
                let twin = |t: &PatternTerm| match t {
                    PatternTerm::Var(v) => PatternTerm::Var(format!("{v}_twin")),
                    constant => constant.clone(),
                };
                bgp.triples
                    .push(TriplePattern::new(twin(&tp.s), twin(&tp.p), twin(&tp.o)));
            }
        }
        let ctx = format!("generated case {case_no} (seed {:#x})", case.seed);
        legal_crosses += assert_never_crosses(&store, &bgp.triples, &[], &ctx);
        // With VALUES-seeded bound variables: a random non-empty subset.
        let mut seeded = bgp.all_vars();
        seeded.retain(|_| rng.chance(0.3));
        if !seeded.is_empty() {
            seeded_cases += 1;
            legal_crosses += assert_never_crosses(&store, &bgp.triples, &seeded, &ctx);
        }
    }
    assert!(
        legal_crosses >= 100,
        "only {legal_crosses} legal cross steps"
    );
    assert!(
        seeded_cases >= 100,
        "only {seeded_cases} VALUES-seeded cases"
    );
}

/// LUBM Q2 as an `ASK`: the pipeline stops at the first complete binding,
/// where a level-by-level evaluation materialises every level but the last
/// before it can answer.
#[test]
fn ask_on_a_multi_pattern_bgp_stops_at_the_first_solution() {
    let w = lubm_workload();
    let oracle = &w.oracle;
    let q2 = &w.query("Q2").query;
    let full = scans(oracle, q2);
    let before = oracle.rows_scanned();
    assert!(ask(oracle, q2));
    let asked = oracle.rows_scanned() - before;
    assert!(
        asked * 10 < full,
        "ASK scanned {asked} rows, the full evaluation {full}"
    );
}

/// `query` with its top-level triple patterns written in other orders:
/// reversed, and rotated by one.
fn rewritten(query: &Query) -> [Query; 2] {
    let mut reversed = query.clone();
    reversed.pattern.triples.reverse();
    let mut rotated = query.clone();
    rotated.pattern.triples.rotate_left(1);
    [reversed, rotated]
}

#[test]
fn reordering_strictly_reduces_rows_scanned_on_lubm() {
    let w = lubm_workload();
    let oracle = &w.oracle;
    // What evaluating the patterns in the order they are written cost:
    // measured at the parent commit (8aa869a, the last one with
    // `set_reorder(false)`) on this fixture, identical on both backends.
    // Q2 written as-is opens with `Professor x Course`.
    for (name, textual_scans) in [("Q1", 8024), ("Q2", 942_542), ("Q4", 1626)] {
        let query = &w.query(name).query;
        let before = oracle.rows_scanned();
        let ordered = evaluate(oracle, query).canonicalize();
        let ordered_scans = oracle.rows_scanned() - before;
        assert!(
            ordered_scans < textual_scans,
            "{name}: ordered evaluation scanned {ordered_scans} rows, \
             not below the textual-order figure {textual_scans}"
        );
        // The answer does not depend on how the patterns are written, and
        // neither does the saving.
        for other in rewritten(query) {
            let before = oracle.rows_scanned();
            let got = evaluate(oracle, &other).canonicalize();
            let scans = oracle.rows_scanned() - before;
            assert_eq!(got, ordered, "{name}: pattern order changed results");
            assert!(
                scans < textual_scans,
                "{name}: rewritten as {:?} scanned {scans} rows",
                other.pattern.triples
            );
        }
    }
}

/// Columnar estimates may only *help* the planner. The columnar backend
/// feeds `plan_bgp_order` exact run-length counts where the BTree backend
/// caps its index walk at `ESTIMATE_CAP`, so on the pinned LUBM queries a
/// columnar plan must never scan more rows than the BTree plan for
/// byte-identical results — store-level first, then at the engine level,
/// where a whole federation materialized on columns must answer with the
/// same solutions and no more wire requests than its BTree twin.
#[test]
fn columnar_estimates_never_plan_worse_than_btree() {
    use lusail_core::Lusail;
    use lusail_endpoint::{ExecOptions, FederatedEngine, SparqlEndpoint};
    use lusail_store::{BackendKind, ColumnStore, StorageBackend};

    let w = lubm_workload();
    let btree: &dyn StorageBackend = &w.oracle;
    let columns = ColumnStore::from_store(&w.oracle);
    let columns: &dyn StorageBackend = &columns;
    for name in ["Q1", "Q2", "Q4"] {
        let query = &w.query(name).query;

        let before = btree.rows_scanned();
        let on_btree = evaluate(btree, query).canonicalize();
        let btree_scans = btree.rows_scanned() - before;

        let before = columns.rows_scanned();
        let on_columns = evaluate(columns, query).canonicalize();
        let columns_scans = columns.rows_scanned() - before;

        assert_eq!(on_columns, on_btree, "{name}: backends disagree on results");
        assert!(
            columns_scans <= btree_scans,
            "{name}: columnar plan scanned {columns_scans} rows, more than \
             the BTree plan's {btree_scans} — exact estimates made things worse"
        );
    }

    // Engine level: the same federation materialized on each backend.
    let fed_b = lubm_workload();
    let fed_c = generate(&LubmConfig {
        backend: BackendKind::Columns,
        ..LubmConfig::new(3)
    });
    let engine = Lusail::default();
    for name in ["Q1", "Q2", "Q4"] {
        let mut windows = Vec::new();
        for w in [&fed_b, &fed_c] {
            let before = w
                .endpoints
                .iter()
                .fold(lusail_endpoint::StatsSnapshot::default(), |acc, e| {
                    acc.plus(&e.stats_snapshot())
                });
            let r = engine
                .run_with(&w.federation, &w.query(name).query, &ExecOptions::default())
                .unwrap();
            let window = w
                .endpoints
                .iter()
                .fold(lusail_endpoint::StatsSnapshot::default(), |acc, e| {
                    acc.plus(&e.stats_snapshot())
                })
                .since(&before);
            windows.push((r.solutions.canonicalize(), window));
        }
        let (btree_sols, btree_win) = &windows[0];
        let (columns_sols, columns_win) = &windows[1];
        assert_eq!(
            columns_sols, btree_sols,
            "{name}: federation results diverged"
        );
        assert!(
            columns_win.total_requests() <= btree_win.total_requests(),
            "{name}: columnar federation issued {} requests, more than the \
             BTree federation's {}",
            columns_win.total_requests(),
            btree_win.total_requests()
        );
        assert!(
            columns_win.rows_scanned <= btree_win.rows_scanned,
            "{name}: columnar federation scanned {} rows, more than the \
             BTree federation's {}",
            columns_win.rows_scanned,
            btree_win.rows_scanned
        );
    }
}

#[test]
fn all_unbound_scan_does_not_regress() {
    let w = lubm_workload();
    let oracle = &w.oracle;
    let query = parse_query("SELECT * WHERE { ?s ?p ?o }", oracle.dict()).unwrap();
    assert_eq!(plan_bgp_order(oracle, &query.pattern.triples, &[]), vec![0]);

    let before = oracle.rows_scanned();
    let all = evaluate(oracle, &query);
    let scans = oracle.rows_scanned() - before;
    assert_eq!(all.len(), oracle.len());
    assert_eq!(
        scans,
        oracle.len() as u64,
        "a single all-unbound pattern has nothing to reorder: every triple \
         is visited once (2357 rows here, as in textual order at the parent commit)"
    );
}
