//! EXPLAIN / EXPLAIN ANALYZE goldens under a manual clock.
//!
//! LUBM Q4 at `--threads 4`: the committed snapshot `tests/golden/explain_analyze_lubm_q4.txt` was
//! produced by the sequential CLI path (`scripts/verify.sh` re-checks it
//! at every verify run), and the parallel executor must reproduce it
//! byte for byte — worker dispatch may not change a single counter,
//! decomposition line, join step, or phase timing in the report.
//!
//! The test replays the CLI's exact construction path: generate the LUBM
//! size-2 workload, round-trip every endpoint through its N-Triples
//! serialization into a fresh shared dictionary (what `lusail-cli query
//! --endpoint F.nt` does when loading files), rebuild the federation
//! under the endpoint names, and run Q4 with `ManualClock` so all phase
//! durations render as 0ns.
//!
//! LRB B1 pins the plan of a query with nested groups the same way (see
//! [`lrb_b1_nested_goldens`]), and every query of the four generated
//! workloads checks that EXPLAIN ANALYZE prints the plan EXPLAIN prints
//! (see [`analyze_prints_the_plan_explain_prints`]).

use lusail_benchdata::bio2rdf::{self, Bio2RdfConfig};
use lusail_benchdata::common::Workload;
use lusail_benchdata::lrb::{self, LrbConfig};
use lusail_benchdata::lubm::{self, LubmConfig};
use lusail_benchdata::qfed::{self, QfedConfig};
use lusail_endpoint::{
    ExecOptions, Federation, LocalEndpoint, ManualClock, NetworkProfile, SparqlEndpoint,
    TraceEvent, TraceSink,
};
use lusail_rdf::{ntriples, Dictionary};
use lusail_repro::lusail::{Lusail, LusailConfig};
use lusail_sparql::parse_query;
use lusail_store::{BackendKind, EndpointStats, TripleStore};
use std::sync::Arc;

/// What `lusail-cli query|explain --endpoint DIR/*.nt --backend B
/// [--stats build]` builds from the files `lusail-cli generate` wrote for
/// `w`: every endpoint round-trips through its N-Triples serialization
/// into a fresh shared dictionary, in file-name order, named after its
/// file. Returns the federation, its dictionary, and the lines the CLI
/// prints while loading.
fn load_like_the_cli(
    w: &Workload,
    backend: BackendKind,
    stats: bool,
) -> (Federation, Arc<Dictionary>, String) {
    let dict = Dictionary::shared();
    let mut fed = Federation::new(Arc::clone(&dict));
    let mut lines = String::new();
    let mut built = Vec::new();
    let mut endpoints: Vec<_> = (w.endpoints.iter())
        .map(|ep| (ep.name().replace([' ', '/'], "_"), ep))
        .collect();
    endpoints.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, ep) in endpoints {
        let mut triples = Vec::with_capacity(ep.triple_count());
        ep.store().scan(None, None, None, |t| {
            triples.push(t);
            true
        });
        let text = ntriples::serialize(&triples, &w.dict);
        let parsed = ntriples::parse_document(&text, &dict).expect("round-trip parses");
        let mut store = TripleStore::new(Arc::clone(&dict));
        store.extend(parsed);
        lines.push_str(&format!(
            "loaded endpoint {name}: {} triples\n",
            store.len()
        ));
        if stats {
            built.push(EndpointStats::build(&store));
        }
        let profile = NetworkProfile::default();
        fed.add(Arc::new(LocalEndpoint::on_backend(
            name, store, backend, profile,
        )));
    }
    // The CLI follows the loader lines with one `storage:` line summing
    // the backends' self-reported resident bytes.
    let resident: u64 = fed.iter().filter_map(|(_, ep)| ep.resident_bytes()).sum();
    let n_endpoints = fed.iter().count();
    lines.push_str(&format!(
        "storage: backend {backend}, {resident} B resident across \
         {n_endpoints} endpoint(s)\n"
    ));
    for (id, stats) in built.into_iter().enumerate() {
        let name = fed.endpoint(id).name().to_string();
        let sets = stats.sets.len();
        fed.attach_stats(id, Arc::new(stats));
        lines.push_str(&format!(
            "built statistics for {name}: {sets} characteristic set(s)\n"
        ));
    }
    (fed, dict, lines)
}

/// The CLI's EXPLAIN ANALYZE stdout for `query_name` of `w`: the loader
/// lines, then `println!("\n{report}")`, under `--fixed-clock`.
fn explain_analyze_like_the_cli(
    w: &Workload,
    query_name: &str,
    backend: BackendKind,
    stats: bool,
    threads: usize,
) -> String {
    let (fed, dict, loaded_lines) = load_like_the_cli(w, backend, stats);
    let named = w.query(query_name);
    let query = parse_query(&named.text, &dict).expect("the query parses");
    let engine = Lusail::new(LusailConfig::default()).with_clock(ManualClock::new());
    let opts = ExecOptions::default().with_threads(threads);
    let report = engine
        .explain_analyze_with(&fed, &query, &opts)
        .expect("the federation is non-empty");
    format!("{loaded_lines}\n{report}\n")
}

#[test]
fn explain_analyze_at_four_threads_matches_the_committed_golden() {
    let w = lubm::generate(&LubmConfig::new(2));
    let got = explain_analyze_like_the_cli(&w, "Q4", BackendKind::Btree, false, 4);
    let golden = include_str!("golden/explain_analyze_lubm_q4.txt");
    assert_eq!(
        got, golden,
        "EXPLAIN ANALYZE at threads=4 diverged from the sequential golden"
    );
}

/// LRB B1 joins a UNION of two one-pattern branches to a three-subquery
/// WHERE group. The goldens are what the CLI prints over
/// `lusail-cli generate --workload lrb --out DIR`, for
/// `lusail-cli explain --endpoint DIR/*.nt --query-file DIR/queries/B1.rq
/// --backend columns` and for `lusail-cli query` with the same flags plus
/// `--explain-analyze --fixed-clock` (and `--stats build`). Each nested
/// group's subqueries are printed under it, numbered after the WHERE
/// group's (4 and 5); subquery 1 reports the 4 200 rows join step 1
/// consumes, not a branch's 80; and statistics answer each pattern's
/// COUNTs once, as for a flat query.
#[test]
fn lrb_b1_nested_goldens() {
    let w = lrb::generate(&LrbConfig::default());
    let (fed, dict, loaded_lines) = load_like_the_cli(&w, BackendKind::Columns, false);
    let query = parse_query(&w.query("B1").text, &dict).expect("B1 parses");
    let plan = Lusail::default().explain(&fed, &query).render(&fed);
    assert_eq!(
        format!("{loaded_lines}\n{plan}\n"),
        include_str!("golden/explain_lrb_b1.txt"),
        "EXPLAIN"
    );
    for (stats, golden) in [
        (false, include_str!("golden/explain_analyze_lrb_b1.txt")),
        (
            true,
            include_str!("golden/explain_analyze_lrb_b1_stats.txt"),
        ),
    ] {
        for threads in [1, 4] {
            let got = explain_analyze_like_the_cli(&w, "B1", BackendKind::Columns, stats, threads);
            assert_eq!(
                got, golden,
                "EXPLAIN ANALYZE, stats {stats}, threads {threads}"
            );
        }
    }
}

/// Planning waits for two waves on LUBM Q4: source selection's coalesced
/// COUNTs, then one wave of check queries for all of its join variables.
/// `plan()` emits its first `SubqueryPlanned` after its last probe, so
/// every `Dispatch` before that event is a planning wave.
#[test]
fn lubm_q4_plans_in_two_waves() {
    let w = lubm::generate(&LubmConfig::new(2));
    let sink = TraceSink::enabled();
    let opts = ExecOptions::default().with_trace(sink.clone());
    Lusail::default()
        .execute_with(&w.federation, &w.query("Q4").query, &opts)
        .unwrap();
    let waves = (sink.events().iter())
        .take_while(|ev| !matches!(ev, TraceEvent::SubqueryPlanned { .. }))
        .filter(|ev| matches!(ev, TraceEvent::Dispatch { .. }))
        .count();
    assert_eq!(waves, 2);
}

/// ANALYZE's plan block (from `source selection:` to the first of the
/// run's own sections) with the run's annotations taken out of each
/// subquery line: the actual rows and the `(whole)` marks of sources
/// fetched whole.
fn plan_block_without_run(report: &str) -> String {
    let sections = [
        "values traffic",
        "joins:",
        "resilience:",
        "statistics:",
        "phases:",
    ];
    let mut block = String::new();
    let lines = report
        .lines()
        .skip_while(|l| !l.starts_with("source selection:"));
    for line in lines.take_while(|l| !sections.iter().any(|s| l.starts_with(s))) {
        let mut line = line.replace("  not evaluated", "").replace(" (whole)", "");
        if let Some(at) = line.find("  actual rows ") {
            let rows = &line[at + "  actual rows ".len()..];
            let digits = rows
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rows.len());
            line.replace_range(at..at + "  actual rows ".len() + digits, "");
        }
        block.push_str(&line);
        block.push('\n');
    }
    block
}

/// EXPLAIN ANALYZE renders the plan that ran with the function EXPLAIN
/// uses: over every query of the four workloads `lusail-cli generate`
/// writes at its default size, ANALYZE on one fresh engine and EXPLAIN on
/// another print the same plan, byte for byte, once the run's
/// annotations are stripped.
#[test]
fn analyze_prints_the_plan_explain_prints() {
    let workloads = [
        lubm::generate(&LubmConfig::new(4)),
        qfed::generate(&QfedConfig::default()),
        lrb::generate(&LrbConfig::default()),
        bio2rdf::generate(&Bio2RdfConfig::default()),
    ];
    for w in &workloads {
        let fed = &w.federation;
        for named in &w.queries {
            let explain = Lusail::default().explain(fed, &named.query).render(fed);
            let report = Lusail::default()
                .with_clock(ManualClock::new())
                .explain_analyze_with(fed, &named.query, &ExecOptions::default())
                .expect("the federation is non-empty");
            assert_eq!(
                plan_block_without_run(&report),
                explain,
                "{}: ANALYZE's plan differs from EXPLAIN's",
                named.name
            );
        }
    }
}
