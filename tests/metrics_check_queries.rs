//! Pins the documented containment of [`QueryMetrics::check_queries`]:
//! LADE check queries are wire-level SELECTs issued during the analysis
//! phase, so — sent one by one — the counter must equal
//! `requests_analysis.select_requests` exactly, under faults too, where a
//! retried check counts once per attempt in *both* quantities and a
//! circuit-broken one in neither. With probe coalescing (the default) it
//! counts check *requests*, one per endpoint and join variable, and the
//! analysis-phase SELECTs are those plus the coalesced COUNT requests.
//! The structured trace is the cross-check: its `Check`-kind wire
//! attempts are the same number, and the baselines (which run no LADE)
//! must record zero check traffic in any mode.

use lusail_benchdata::common::Rng;
use lusail_core::{Lusail, LusailConfig, QueryTrace, RequestKind, TraceSink};
use lusail_endpoint::ExecOptions;
use lusail_endpoint::{Federation, LocalEndpoint};
use lusail_rdf::{Dictionary, Term};
use lusail_sparql::parse_query;
use lusail_store::TripleStore;
use lusail_testkit::diff::policy;
use lusail_testkit::{Case, EngineKind, FaultSpec, GenConfig, Setup};
use std::sync::Arc;

/// A two-endpoint federation where both patterns of a shared-variable
/// join match at both endpoints, so LADE must issue check queries.
fn overlapping_fed() -> Federation {
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
    fed.add(Arc::new(LocalEndpoint::new("A", a)));
    fed.add(Arc::new(LocalEndpoint::new("B", b)));
    fed
}

fn fault_plan(case_seed: u64, n_endpoints: usize, faulty: bool) -> FaultSpec {
    if faulty {
        let mut rng = Rng::new(case_seed ^ 0xFA17_0000_0000_0001);
        FaultSpec::random(&mut rng, n_endpoints)
    } else {
        FaultSpec::default()
    }
}

fn is_flat(case: &Case) -> bool {
    case.query.pattern.optionals.is_empty()
        && case.query.pattern.unions.is_empty()
        && case.query.pattern.not_exists.is_empty()
}

#[test]
fn check_queries_equal_analysis_selects_and_trace_attempts() {
    let fed = overlapping_fed();
    let query = parse_query(
        "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
        fed.dict(),
    )
    .unwrap();
    let engine = Lusail::default();
    let sink = TraceSink::enabled();
    let result = engine
        .execute_with(
            &fed,
            &query,
            &ExecOptions::default().with_trace(sink.clone()),
        )
        .unwrap();
    assert!(
        result.metrics.check_queries > 0,
        "overlapping sources must force check queries"
    );
    assert_eq!(
        result.metrics.check_queries, result.metrics.requests_analysis.select_requests,
        "check queries are exactly the analysis-phase SELECTs"
    );
    let trace = QueryTrace::from_sink(&sink);
    assert_eq!(
        trace.requests(RequestKind::Check).attempts,
        result.metrics.check_queries,
        "the trace's Check wire attempts are the same count"
    );
}

#[test]
fn check_query_count_stays_inside_analysis_selects_under_faults() {
    // High straddle keeps the GJV machinery busy; clean and faulted runs
    // must both keep `check_queries` inside the analysis-phase SELECTs
    // (wire attempts on both sides: retries count per attempt, tripped
    // circuits not at all). On flat queries the trace agrees too; nested
    // groups legitimately add execution-phase probes to the trace only.
    let cfg = GenConfig {
        straddle: 1.0,
        ..GenConfig::default()
    };
    for seed in 0..10u64 {
        let case = Case::generate(seed, &cfg);
        for (faulty, coalesce_probes) in
            [(false, false), (false, true), (true, false), (true, true)]
        {
            let faults = fault_plan(seed, case.n_endpoints, faulty);
            let (fed, _locals) = case.federation(&faults);
            let config = LusailConfig {
                coalesce_probes,
                ..LusailConfig::default()
            };
            let engine = Lusail::new(config).with_policy(policy(!faulty));
            let sink = TraceSink::enabled();
            let result = engine
                .execute_with(
                    &fed,
                    &case.query,
                    &ExecOptions::default().with_trace(sink.clone()),
                )
                .unwrap();
            let ctx = format!("seed {seed} faulty {faulty} coalesced {coalesce_probes}");
            let (checks, analysis) = (
                result.metrics.check_queries,
                result.metrics.requests_analysis,
            );
            let trace = QueryTrace::from_sink(&sink);
            if !coalesce_probes {
                assert_eq!(
                    checks, analysis.select_requests,
                    "{ctx}: check_queries diverged from analysis SELECTs"
                );
            } else if is_flat(&case) {
                assert_eq!(
                    checks + trace.requests(RequestKind::Count).attempts,
                    analysis.select_requests,
                    "{ctx}: check_queries counts coalesced check *requests*, and with the \
                     coalesced COUNT requests they are the analysis SELECTs"
                );
            }
            assert!(checks <= analysis.select_requests, "{ctx}");
            if is_flat(&case) {
                assert_eq!(
                    trace.requests(RequestKind::Check).attempts,
                    checks,
                    "{ctx}: trace Check attempts diverged"
                );
            }
        }
    }
}

#[test]
fn baselines_issue_no_check_queries_clean_or_faulted() {
    let cfg = GenConfig::default();
    for seed in 0..6u64 {
        let case = Case::generate(seed, &cfg);
        for faulty in [false, true] {
            let faults = fault_plan(seed, case.n_endpoints, faulty);
            let (fed, locals) = case.federation(&faults);
            let policy = policy(!faulty);
            for kind in [EngineKind::FedX, EngineKind::Hibiscus, EngineKind::Splendid] {
                let runner = kind.build(&locals, policy, &Setup::BASE);
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
