//! Pins the per-query request ledger. `QueryMetrics`' three request
//! windows are windows of the query's own request client, labelled by what
//! each wire attempt was *for* (a coalesced probe counts under its probe
//! kind, although it travels as a SELECT). So:
//!
//! * solo, clean or faulted, the ledger totals the federation's own window
//!   around the run, matches the structured trace's wire attempts kind by
//!   kind (retries count per attempt in both, a circuit-broken request in
//!   neither), and `check_queries` is the analysis window's `Check` count;
//! * with a second query running on the same `Federation` in the middle of
//!   the first, each query's windows are still exactly its solo ones;
//! * the baselines, which run no LADE, record zero check traffic in any
//!   mode.

use lusail_benchdata::common::Rng;
use lusail_core::{Lusail, LusailConfig, QueryResult, QueryTrace, RequestKind, TraceSink};
use lusail_endpoint::{
    EndpointError, EndpointRef, ExecOptions, Federation, LocalEndpoint, RequestCounts,
    SparqlEndpoint, StatsSnapshot,
};
use lusail_rdf::{Dictionary, Term};
use lusail_sparql::{parse_query, Query, SolutionSet};
use lusail_store::TripleStore;
use lusail_testkit::{Case, EngineKind, FaultSpec, GenConfig};
use std::sync::{mpsc, Arc, Mutex};

/// A two-endpoint federation where both patterns of a shared-variable
/// join match at both endpoints, so LADE must issue check queries.
/// `wrap` may put a test double in front of the first endpoint.
fn overlapping_fed_with(wrap: impl FnOnce(EndpointRef) -> EndpointRef) -> Federation {
    let dict = Dictionary::shared();
    let mut a = TripleStore::new(Arc::clone(&dict));
    let mut b = TripleStore::new(Arc::clone(&dict));
    for i in 0..5 {
        a.insert_terms(
            &Term::iri(format!("http://a/s{i}")),
            &Term::iri("http://x/p"),
            &Term::iri(format!("http://v/{i}")),
        );
        a.insert_terms(
            &Term::iri(format!("http://v/{i}")),
            &Term::iri("http://x/q"),
            &Term::iri(format!("http://a/o{i}")),
        );
        b.insert_terms(
            &Term::iri(format!("http://b/s{i}")),
            &Term::iri("http://x/p"),
            &Term::iri(format!("http://v/{}", i + 2)),
        );
        b.insert_terms(
            &Term::iri(format!("http://v/{}", i + 2)),
            &Term::iri("http://x/q"),
            &Term::iri(format!("http://b/o{i}")),
        );
    }
    let mut fed = Federation::new(dict);
    fed.add(wrap(Arc::new(LocalEndpoint::new("A", a))));
    fed.add(Arc::new(LocalEndpoint::new("B", b)));
    fed
}

fn overlapping_fed() -> Federation {
    overlapping_fed_with(|ep| ep)
}

const JOIN: &str = "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }";

fn fault_plan(case_seed: u64, n_endpoints: usize, faulty: bool) -> FaultSpec {
    if faulty {
        let mut rng = Rng::new(case_seed ^ 0xFA17_0000_0000_0001);
        FaultSpec::random(&mut rng, n_endpoints)
    } else {
        FaultSpec::default()
    }
}

/// Runs `query` traced, returning the result, the federation's window
/// around the run, and the trace.
fn run_traced(
    engine: &Lusail,
    fed: &Federation,
    query: &Query,
) -> (QueryResult, StatsSnapshot, QueryTrace) {
    let sink = TraceSink::enabled();
    let before = fed.stats_snapshot();
    let result = engine
        .execute_with(fed, query, &ExecOptions::default().with_trace(sink.clone()))
        .unwrap();
    let window = fed.stats_snapshot().since(&before);
    (result, window, QueryTrace::from_sink(&sink))
}

/// The solo ledger relation.
fn assert_ledger(result: &QueryResult, window: &StatsSnapshot, trace: &QueryTrace, ctx: &str) {
    let m = &result.metrics;
    assert_eq!(
        m.total_requests(),
        window.total_requests(),
        "{ctx}: the ledger diverged from the federation's window"
    );
    for kind in RequestKind::ALL {
        let ledger: u64 = windows(result).iter().map(|w| w.get(kind)).sum();
        assert_eq!(
            ledger,
            trace.requests(kind).attempts,
            "{ctx}: {} attempts diverged from the trace",
            kind.name()
        );
    }
    assert_eq!(
        m.check_queries,
        m.requests_analysis.get(RequestKind::Check),
        "{ctx}: check_queries is not the analysis window's checks"
    );
}

fn windows(result: &QueryResult) -> [RequestCounts; 3] {
    let m = &result.metrics;
    [
        m.requests_source_selection,
        m.requests_analysis,
        m.requests_execution,
    ]
}

#[test]
fn ledger_matches_the_federation_window_and_the_trace() {
    let fed = overlapping_fed();
    let query = parse_query(JOIN, fed.dict()).unwrap();
    let (result, window, trace) = run_traced(&Lusail::default(), &fed, &query);
    assert!(
        result.metrics.check_queries > 0,
        "overlapping sources must force check queries"
    );
    assert_ledger(&result, &window, &trace, "overlapping join");
}

#[test]
fn ledger_matches_window_and_trace_clean_or_faulted() {
    // High straddle keeps the GJV machinery busy. Nested groups add their
    // planning probes to the execution window; the relation is unchanged.
    let cfg = GenConfig {
        straddle: 1.0,
        ..GenConfig::default()
    };
    for seed in 0..10u64 {
        let case = Case::generate(seed, &cfg);
        for faulty in [false, true] {
            let faults = fault_plan(seed, case.n_endpoints, faulty);
            let (fed, _locals) = case.federation(&faults);
            let (result, window, trace) = run_traced(&Lusail::default(), &fed, &case.query);
            let ctx = format!("seed {seed} faulty {faulty}");
            assert_ledger(&result, &window, &trace, &ctx);
        }
    }
}

/// Runs `interlude` — another query on the same federation — to
/// completion before answering its first `select`: a deterministic
/// overlap, with no sleeps.
struct Interleaved {
    inner: EndpointRef,
    interlude: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl SparqlEndpoint for Interleaved {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn ask(&self, q: &Query) -> Result<bool, EndpointError> {
        self.inner.ask(q)
    }
    fn select(&self, q: &Query) -> Result<SolutionSet, EndpointError> {
        let interlude = self.interlude.lock().unwrap().take();
        if let Some(run) = interlude {
            run();
        }
        self.inner.select(q)
    }
    fn count(&self, q: &Query) -> Result<u64, EndpointError> {
        self.inner.count(q)
    }
    fn stats_snapshot(&self) -> StatsSnapshot {
        self.inner.stats_snapshot()
    }
    fn triple_count(&self) -> usize {
        self.inner.triple_count()
    }
}

#[test]
fn a_query_run_inside_another_leaves_both_windows_solo() {
    const SCAN: &str = "SELECT ?v ?o WHERE { ?v <http://x/q> ?o }";
    let solo = |text: &str| {
        let fed = overlapping_fed();
        let query = parse_query(text, fed.dict()).unwrap();
        windows(&Lusail::default().execute(&fed, &query).unwrap())
    };

    let mut first = None;
    let fed = Arc::new(overlapping_fed_with(|inner| {
        let ep = Arc::new(Interleaved {
            inner,
            interlude: Mutex::new(None),
        });
        first = Some(Arc::clone(&ep));
        ep
    }));
    let (join, scan) = (
        parse_query(JOIN, fed.dict()).unwrap(),
        parse_query(SCAN, fed.dict()).unwrap(),
    );
    // Two engines, so no memo is shared: only the federation is.
    let (tx, rx) = mpsc::channel();
    let shared = Arc::clone(&fed);
    *first.unwrap().interlude.lock().unwrap() = Some(Box::new(move || {
        tx.send(Lusail::default().execute(&shared, &scan).unwrap())
            .unwrap();
    }));
    let outer = Lusail::default().execute(&fed, &join).unwrap();
    let inner = rx.try_recv().expect("the scan ran inside the join");

    assert_eq!(windows(&outer), solo(JOIN), "the join's windows");
    assert_eq!(windows(&inner), solo(SCAN), "the scan's windows");
    assert!(inner.metrics.total_requests() > 0);
    assert_eq!(
        outer.metrics.total_requests() + inner.metrics.total_requests(),
        fed.stats_snapshot().total_requests(),
        "the two ledgers are the federation's traffic"
    );
}

#[test]
fn baselines_issue_no_check_queries_clean_or_faulted() {
    let cfg = GenConfig::default();
    for seed in 0..6u64 {
        let case = Case::generate(seed, &cfg);
        for faulty in [false, true] {
            let faults = fault_plan(seed, case.n_endpoints, faulty);
            let (fed, locals) = case.federation(&faults);
            let refs: Vec<&LocalEndpoint> = locals.iter().map(|e| e.as_ref()).collect();
            for kind in [EngineKind::FedX, EngineKind::Hibiscus, EngineKind::Splendid] {
                let runner = kind.build(&refs, LusailConfig::default());
                let sink = TraceSink::enabled();
                let _ = runner.run_with(
                    &fed,
                    &case.query,
                    &ExecOptions::default().with_trace(sink.clone()),
                );
                let trace = QueryTrace::from_sink(&sink);
                let checks = trace.requests(RequestKind::Check);
                assert_eq!(
                    (checks.requests, checks.attempts),
                    (0, 0),
                    "seed {seed} faulty {faulty} {}: baselines run no LADE",
                    kind.name()
                );
            }
        }
    }
}
