//! Fault-tolerance integration tests: engines against flaky and dead
//! endpoints (the failure modes the decentralized setting implies — no
//! engine controls the remote sources, it can only retry and route
//! around them).
//!
//! * A seeded 20% transient failure rate on one endpoint must be fully
//!   absorbed by the retry layer: all four engines still return exactly
//!   the oracle result and report the query as complete.
//! * A permanently dead endpoint must degrade gracefully: partial
//!   results, `complete: false`, and a failure report naming the dead
//!   endpoint.

use lusail_baselines::EngineKind;
use lusail_benchdata::lubm;
use lusail_core::{Lusail, LusailConfig};
use lusail_endpoint::ExecOptions;
use lusail_endpoint::{
    EndpointError, EndpointRef, FaultProfile, FederatedEngine, Federation, FlakyEndpoint,
    HealthState, LocalEndpoint, ManualClock, RequestPolicy, ResilientClient, SparqlEndpoint,
    StatsSnapshot, TraceEvent, TraceSink,
};
use lusail_rdf::{Dictionary, Term};
use lusail_sparql::parse_query;
use lusail_store::TripleStore;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Rebuilds the workload's federation with `target` wrapped in a
/// [`FlakyEndpoint`] carrying the given fault profile.
fn flaky_federation(
    w: &lusail_benchdata::Workload,
    target: &str,
    profile: FaultProfile,
) -> Federation {
    let mut fed = Federation::new(Arc::clone(&w.dict));
    for (_, ep) in w.federation.iter() {
        if ep.name() == target {
            fed.add(Arc::new(FlakyEndpoint::new(ep.clone(), profile)));
        } else {
            fed.add(ep.clone());
        }
    }
    fed
}

/// A retry policy generous enough that a 20% transient failure rate is
/// (for all practical purposes) always absorbed, with backoffs too small
/// to slow the test down.
fn patient_policy() -> RequestPolicy {
    RequestPolicy {
        max_retries: 8,
        base_backoff: Duration::from_micros(10),
        max_backoff: Duration::from_millis(1),
        trip_threshold: 0,
        ..RequestPolicy::default()
    }
}

fn engines(w: &lusail_benchdata::Workload) -> Vec<(&'static str, Box<dyn FederatedEngine>)> {
    let refs = w.endpoint_refs();
    let build = |k: EngineKind| k.build(&refs, LusailConfig::default());
    EngineKind::ALL.map(|k| (k.name(), build(k))).into()
}

#[test]
fn transient_faults_are_absorbed_by_retries() {
    let w = lubm::generate(&lubm::LubmConfig::new(4));
    let fed = flaky_federation(&w, "univ-1", FaultProfile::transient(42, 0.2))
        .with_policy(patient_policy());
    let q = &w.query("Q2").query;
    let expected = lusail_store::eval::evaluate(&w.oracle, q).canonicalize();
    assert!(!expected.is_empty(), "Q2 oracle result is empty");

    for (name, engine) in engines(&w) {
        let outcome = engine.run_with(&fed, q, &ExecOptions::default()).unwrap();
        assert!(
            outcome.complete,
            "{name}: query incomplete under transient faults: {:?}",
            outcome.failures
        );
        assert_eq!(
            outcome.solutions.canonicalize(),
            expected,
            "{name}: wrong answer under transient faults"
        );
    }
    // The fault stream really fired: the flaky endpoint counted injections.
    let (_, flaky) = fed.endpoint_by_name("univ-1").unwrap();
    assert!(
        flaky.stats_snapshot().faults_injected > 0,
        "no transient fault was ever injected"
    );
}

#[test]
fn dead_endpoint_degrades_to_partial_results() {
    let w = lubm::generate(&lubm::LubmConfig::new(4));
    let fed = flaky_federation(&w, "univ-1", FaultProfile::dead());
    let q = &w.query("Q2").query;
    let expected = lusail_store::eval::evaluate(&w.oracle, q).canonicalize();

    for (name, engine) in engines(&w) {
        let outcome = engine.run_with(&fed, q, &ExecOptions::default()).unwrap();
        assert!(
            !outcome.complete,
            "{name}: query reported complete despite a dead endpoint"
        );
        assert!(
            outcome.failures.iter().any(|f| f.name == "univ-1"),
            "{name}: failure report does not name the dead endpoint: {:?}",
            outcome.failures
        );
        let partial = outcome.solutions.canonicalize();
        assert!(
            !partial.is_empty(),
            "{name}: live endpoints contributed no rows"
        );
        assert!(
            partial.len() < expected.len(),
            "{name}: no rows went missing although an endpoint is dead"
        );
        for row in partial.rows.iter() {
            assert!(
                expected.rows.iter().any(|r| r == row),
                "{name}: spurious row not in the oracle result"
            );
        }
    }
}

#[test]
fn dead_endpoint_degradation_is_recorded_in_metrics() {
    let w = lubm::generate(&lubm::LubmConfig::new(4));
    let fed = flaky_federation(&w, "univ-1", FaultProfile::dead());
    let q = &w.query("Q2").query;
    let engine = Lusail::default();
    let result = engine.execute(&fed, q).unwrap();
    assert!(!result.complete);
    // Failed ASK probes degraded to "assume relevant" and were counted.
    assert!(
        result.metrics.degraded_ask_probes > 0,
        "no degraded ASK probe recorded: {:?}",
        result.metrics
    );
}

// ---------- the retry machinery end-to-end over a scripted endpoint --------

fn tiny_endpoint() -> (Arc<Dictionary>, TripleStore) {
    let dict = Dictionary::shared();
    let mut st = TripleStore::new(Arc::clone(&dict));
    for i in 0..5 {
        st.insert_terms(
            &Term::iri(format!("http://x/s{i}")),
            &Term::iri("http://x/p"),
            &Term::int(i),
        );
    }
    (dict, st)
}

#[test]
fn scripted_faults_are_retried_and_reported() {
    let (dict, st) = tiny_endpoint();
    let flaky = FlakyEndpoint::scripted(
        Arc::new(LocalEndpoint::new("S", st)),
        [
            Some(EndpointError::Interrupted),
            Some(EndpointError::Timeout),
            None, // third attempt succeeds
        ],
    );
    let mut fed = Federation::new(Arc::clone(&dict));
    let ep = fed.add(Arc::new(flaky));
    let q = parse_query("SELECT * WHERE { ?s <http://x/p> ?o }", &dict).unwrap();

    let clock = ManualClock::new();
    let client = ResilientClient::traced(patient_policy(), clock.clone(), TraceSink::disabled());
    let (_, rows) = client.select_failover(&fed, ep, &q).unwrap();
    assert_eq!(rows.len(), 5);
    assert!(clock.elapsed() > Duration::ZERO, "backoffs were not slept");

    let report = client.report(&fed);
    assert_eq!(report.len(), 1);
    assert_eq!(report[0].endpoint, ep);
    assert_eq!(report[0].name, "S");
    assert_eq!(report[0].retries, 2);
    assert_eq!(report[0].failed_requests, 0);
    assert!(!report[0].dead);
}

#[test]
fn engine_retries_on_injected_clock_without_wall_sleep() {
    let (dict, st) = tiny_endpoint();
    let flaky = FlakyEndpoint::scripted(
        Arc::new(LocalEndpoint::new("S", st)),
        // Fail the first few requests, whatever order the engine issues
        // them in; everything afterwards passes.
        [Some(EndpointError::Interrupted); 3],
    );
    // Deliberately huge backoffs: only tolerable because the injected
    // clock sleeps virtually.
    let policy = RequestPolicy {
        max_retries: 5,
        base_backoff: Duration::from_secs(60),
        max_backoff: Duration::from_secs(60),
        trip_threshold: 0,
        ..RequestPolicy::default()
    };
    let clock = ManualClock::new();
    let mut fed = Federation::new(Arc::clone(&dict))
        .with_policy(policy)
        .with_clock(clock.clone());
    fed.add(Arc::new(flaky));
    let q = parse_query("SELECT * WHERE { ?s <http://x/p> ?o }", &dict).unwrap();
    let engine = Lusail::default();
    let started = std::time::Instant::now();
    let result = engine.execute(&fed, &q).unwrap();
    assert!(
        result.complete,
        "retries did not absorb the scripted faults"
    );
    assert_eq!(result.solutions.len(), 5);
    assert!(
        clock.elapsed() >= Duration::from_secs(60),
        "backoff never reached the virtual clock: {:?}",
        clock.elapsed()
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "engine slept on the wall clock despite the injected clock"
    );
}

// ---------- circuit recovery and the per-query deadline ---------------------

#[test]
fn tripped_endpoint_recovers_after_manual_clock_advance() {
    let (dict, st) = tiny_endpoint();
    let flaky = FlakyEndpoint::scripted(
        Arc::new(LocalEndpoint::new("S", st)),
        // Three failures trip the circuit; everything afterwards passes.
        [Some(EndpointError::Interrupted); 3],
    );
    let mut fed = Federation::new(Arc::clone(&dict));
    let ep = fed.add(Arc::new(flaky));
    let q = parse_query("SELECT * WHERE { ?s <http://x/p> ?o }", &dict).unwrap();

    let policy = RequestPolicy {
        max_retries: 0,
        trip_threshold: 3,
        open_cooldown: Duration::from_secs(5),
        ..RequestPolicy::default()
    };
    let clock = ManualClock::new();
    let sink = TraceSink::enabled();
    let client = ResilientClient::traced(policy, clock.clone(), sink.clone());
    // The circuit transitions of `ep` so far.
    let transitions = || -> Vec<(HealthState, HealthState)> {
        (sink.events().into_iter())
            .filter_map(|ev| match ev {
                TraceEvent::HealthTransition { endpoint, from, to } if endpoint == ep => {
                    Some((from, to))
                }
                _ => None,
            })
            .collect()
    };
    for _ in 0..3 {
        assert!(client.select_failover(&fed, ep, &q).is_err());
    }
    assert_eq!(transitions(), [(HealthState::Closed, HealthState::Open)]);

    // While the cooldown runs, requests short-circuit without touching
    // the wire.
    let before = fed.endpoint(ep).stats_snapshot();
    assert!(matches!(
        client.select_failover(&fed, ep, &q),
        Err(EndpointError::Unavailable)
    ));
    assert_eq!(
        fed.endpoint(ep)
            .stats_snapshot()
            .since(&before)
            .select_requests,
        0
    );

    // The regression this pins: a tripped endpoint used to stay banned
    // forever. After the cooldown the circuit half-opens, the probe
    // succeeds, and the endpoint is re-admitted for good.
    clock.advance(Duration::from_secs(6));
    let (_, rows) = client.select_failover(&fed, ep, &q).unwrap();
    assert_eq!(rows.len(), 5);
    assert_eq!(
        transitions(),
        [
            (HealthState::Closed, HealthState::Open),
            (HealthState::Open, HealthState::HalfOpen),
            (HealthState::HalfOpen, HealthState::Closed),
        ]
    );
    assert!(client.select_failover(&fed, ep, &q).is_ok());
}

/// An endpoint whose every `SELECT` advances a [`ManualClock`] by `delay`
/// and then fails with `fail`.
struct SlowEndpoint {
    inner: LocalEndpoint,
    clock: Arc<ManualClock>,
    delay: Duration,
    fail: EndpointError,
}

impl SparqlEndpoint for SlowEndpoint {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn ask(&self, q: &lusail_sparql::Query) -> Result<bool, EndpointError> {
        self.inner.ask(q)
    }
    fn select(
        &self,
        q: &lusail_sparql::Query,
    ) -> Result<lusail_sparql::SolutionSet, EndpointError> {
        self.clock.advance(self.delay);
        // Let the inner endpoint count the attempt: a failed request still
        // crossed the wire.
        self.inner.select(q)?;
        Err(self.fail)
    }
    fn count(&self, q: &lusail_sparql::Query) -> Result<u64, EndpointError> {
        self.inner.count(q)
    }
    fn stats_snapshot(&self) -> StatsSnapshot {
        self.inner.stats_snapshot()
    }
    fn triple_count(&self) -> usize {
        self.inner.triple_count()
    }
}

// ---------- statistics staleness across failover ----------------------------

/// Offline statistics summarize the *primary's* store. Once a dead
/// primary's group is served by a replica that has diverged from it, a
/// conclusive local answer derived from those statistics may be wrong —
/// so the query driver every engine runs through
/// (`lusail_core::exec::run_query`) drops the endpoint's stats, and the
/// engine its memoized probe answers (the PR-4 staleness rule).
/// Regression scenario: the primary has no `<q>` triples (its statistics
/// conclusively deny the predicate), the replica *does*; after the first
/// query fails over, a second query over `<q>` must reach the wire and
/// return the replica's rows instead of being elided to empty by stale
/// statistics. Every engine must drop the statistics; the rows come back
/// for all but SPLENDID, which selects sources from its own VOID index of
/// the primary and so never consults the federation's statistics.
#[test]
fn failover_to_diverged_replica_invalidates_stale_statistics() {
    let mut violations = Vec::new();
    for kind in EngineKind::ALL {
        let diverged_rows = kind != EngineKind::Splendid;
        violations.extend(
            diverged_replica_after_failover(kind, diverged_rows)
                .into_iter()
                .map(|v| format!("{}: {v}", kind.name())),
        );
    }
    assert!(violations.is_empty(), "{violations:#?}");
}

/// Runs the scenario above on a fresh federation with `kind` built over
/// the primary's store, and returns the expectations it violated: the
/// statistics survived the failover, or (when `diverged_rows`) the
/// replica's `<q>` rows went missing.
fn diverged_replica_after_failover(kind: EngineKind, diverged_rows: bool) -> Vec<&'static str> {
    use lusail_sparql::ast::{PatternTerm, TriplePattern};
    use lusail_store::EndpointStats;

    let dict = Dictionary::shared();
    let mut primary_st = TripleStore::new(Arc::clone(&dict));
    let mut replica_st = TripleStore::new(Arc::clone(&dict));
    for i in 0..4 {
        let s = Term::iri(format!("http://x/s{i}"));
        primary_st.insert_terms(&s, &Term::iri("http://x/p"), &Term::int(i));
        replica_st.insert_terms(&s, &Term::iri("http://x/p"), &Term::int(i));
    }
    // The divergence: three <q> triples only the replica carries.
    for i in 0..3 {
        replica_st.insert_terms(
            &Term::iri(format!("http://x/s{i}")),
            &Term::iri("http://x/q"),
            &Term::int(100 + i),
        );
    }

    // Statistics built from the primary conclusively deny <q> — the
    // answer a stale consultation would serve after the failover.
    let stats = Arc::new(EndpointStats::build(&primary_st));
    let q_probe = TriplePattern::new(
        PatternTerm::Var("s".into()),
        PatternTerm::Const(dict.encode(&Term::iri("http://x/q"))),
        PatternTerm::Var("o".into()),
    );
    assert_eq!(stats.ask_pattern(&q_probe), Some(false));

    // The elided probe leaves the SELECT as the *only* wire attempt on the
    // primary, so the circuit must trip on that first failure for the
    // report to mark the endpoint dead.
    let policy = RequestPolicy {
        trip_threshold: 1,
        ..RequestPolicy::default()
    };
    let primary_ep = Arc::new(LocalEndpoint::new("P", primary_st));
    let mut fed = Federation::new(Arc::clone(&dict)).with_policy(policy);
    let primary = fed.add(Arc::new(FlakyEndpoint::new(
        primary_ep.clone(),
        FaultProfile::dead(),
    )));
    fed.add_replica(primary, Arc::new(LocalEndpoint::new("R", replica_st)));
    fed.attach_stats(primary, stats);

    let engine = kind.build(&[&primary_ep], LusailConfig::default());
    let run = |text: &str| {
        let q = parse_query(text, &dict).unwrap();
        engine.run_with(&fed, &q, &ExecOptions::default()).unwrap()
    };

    // Query 1 (over <p>): the probe is elided by the (still valid)
    // statistics or the engine's index, the SELECT discovers the dead
    // primary and fails over to the replica, and the failure report marks
    // the primary dead — which must take its statistics down with its
    // probe caches.
    let r1 = run("SELECT * WHERE { ?s <http://x/p> ?o }");
    assert!(r1.complete, "replica failed to absorb the dead primary");
    assert_eq!(r1.solutions.len(), 4);
    assert!(
        r1.failures.iter().any(|f| f.endpoint == primary && f.dead),
        "failure report does not mark the primary dead: {:?}",
        r1.failures
    );
    let mut violations = Vec::new();
    if fed.stats_for(primary).is_some() {
        violations.push("stale statistics survived the failover");
    }

    // Query 2 (over <q>): with the stats gone the probe goes to the wire,
    // fails at the dead primary and so assumes it relevant; the SELECT
    // fails over and the replica's diverged rows come back. Stale
    // statistics would have concluded "no source" and returned an empty
    // (yet nominally complete) result.
    let r2 = run("SELECT * WHERE { ?s <http://x/q> ?o }");
    assert!(r2.complete, "replica failed to absorb the dead primary");
    if diverged_rows && r2.solutions.len() != 3 {
        violations.push("diverged replica rows went missing after failover");
    }
    violations
}

#[test]
fn passed_query_deadline_blocks_failover_wire_attempts() {
    let (dict, st) = tiny_endpoint();
    let mut replica_st = TripleStore::new(Arc::clone(&dict));
    replica_st.insert_terms(
        &Term::iri("http://x/s0"),
        &Term::iri("http://x/p"),
        &Term::int(0),
    );
    let clock = ManualClock::new();
    let mut fed = Federation::new(Arc::clone(&dict));
    // The primary burns 120 ms of virtual time and then times out — more
    // than the whole 100 ms query deadline in a single attempt.
    let primary = fed.add(Arc::new(SlowEndpoint {
        inner: LocalEndpoint::new("P", st),
        clock: clock.clone(),
        delay: Duration::from_millis(120),
        fail: EndpointError::Timeout,
    }));
    let replica = fed.add_replica(primary, Arc::new(LocalEndpoint::new("R", replica_st)));
    let q = parse_query("SELECT * WHERE { ?s <http://x/p> ?o }", &dict).unwrap();

    let policy = RequestPolicy {
        max_retries: 3,
        base_backoff: Duration::from_millis(1),
        trip_threshold: 0,
        ..RequestPolicy::default()
    };
    let client = ResilientClient::traced(policy, clock.clone(), TraceSink::disabled())
        .with_query_deadline(Duration::from_millis(100));

    // The deadline pin: once the deadline has passed, *no* wire attempt
    // may start — not a retry on the primary, not the failover hop to the
    // healthy replica.
    let err = client.select_failover(&fed, primary, &q).unwrap_err();
    assert_eq!(err, EndpointError::Timeout);
    assert_eq!(fed.endpoint(primary).stats_snapshot().select_requests, 1);
    assert_eq!(
        fed.endpoint(replica).stats_snapshot().select_requests,
        0,
        "failover crossed the wire after the query deadline"
    );
    // The deadline has passed for the whole client: a request to the
    // healthy replica itself now times out without a wire attempt.
    let err = client.select_failover(&fed, replica, &q).unwrap_err();
    assert_eq!(err, EndpointError::Timeout);
    assert_eq!(fed.endpoint(replica).stats_snapshot().select_requests, 0);
}

/// Advances the federation's [`ManualClock`] by one second on every
/// request, after noting the clock time the attempt started at.
struct TickingEndpoint {
    inner: EndpointRef,
    clock: Arc<ManualClock>,
    starts: Arc<Mutex<Vec<Duration>>>,
}

impl TickingEndpoint {
    fn tick(&self) {
        self.starts.lock().unwrap().push(self.clock.elapsed());
        self.clock.advance(Duration::from_secs(1));
    }
}

impl SparqlEndpoint for TickingEndpoint {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn ask(&self, q: &lusail_sparql::Query) -> Result<bool, EndpointError> {
        self.tick();
        self.inner.ask(q)
    }
    fn select(
        &self,
        q: &lusail_sparql::Query,
    ) -> Result<lusail_sparql::SolutionSet, EndpointError> {
        self.tick();
        self.inner.select(q)
    }
    fn count(&self, q: &lusail_sparql::Query) -> Result<u64, EndpointError> {
        self.tick();
        self.inner.count(q)
    }
    fn stats_snapshot(&self) -> StatsSnapshot {
        self.inner.stats_snapshot()
    }
    fn triple_count(&self) -> usize {
        self.inner.triple_count()
    }
}

/// Every engine measures the query deadline on the federation's clock:
/// with each request costing a virtual second, a 1.5 s deadline admits
/// the attempts that start at 0 s and 1 s and no later one, and the
/// data lost to it makes every engine's answer incomplete.
#[test]
fn every_engine_stops_at_the_deadline_on_the_federations_clock() {
    let w = lubm::generate(&lubm::LubmConfig::new(4));
    let q = &w.query("Q2").query;
    let deadline = Duration::from_millis(1500);
    for (name, engine) in engines(&w) {
        let clock = ManualClock::new();
        let starts = Arc::new(Mutex::new(Vec::new()));
        let mut fed = Federation::new(Arc::clone(&w.dict)).with_clock(clock.clone());
        for (_, ep) in w.federation.iter() {
            fed.add(Arc::new(TickingEndpoint {
                inner: ep.clone(),
                clock: clock.clone(),
                starts: Arc::clone(&starts),
            }));
        }
        let opts = ExecOptions::default().with_deadline(deadline);
        let outcome = engine.run_with(&fed, q, &opts).unwrap();
        let starts = starts.lock().unwrap();
        assert!(!starts.is_empty(), "{name}: no request reached the wire");
        assert!(
            starts.iter().all(|&t| t < deadline),
            "{name}: a wire attempt started after the deadline: {starts:?}"
        );
        assert!(!outcome.complete, "{name}: complete despite the deadline");
    }
}
