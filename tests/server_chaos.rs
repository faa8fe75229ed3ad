//! Concurrent-chaos soak for the multi-tenant query server.
//!
//! Each seeded round generates a `lusail-testkit` case (data, partition,
//! query, oracle), wraps its federation in a [`QueryServer`] with small
//! global/tenant capacities and a bounded shared probe cache, and hammers
//! it from several tenant threads while a seeded fault plan kills
//! endpoints mid-run (dead outright, dying after N requests, or
//! transiently flaky). The server's contract under chaos:
//!
//! * every **admitted** query that claims a complete result is
//!   oracle-exact (a stale shared probe cache or statistics entry would
//!   surface here as a complete-but-wrong answer);
//! * every admitted query that degrades stays an honest **subset** of the
//!   oracle — rows may go missing, never be invented;
//! * every refusal is a **typed** [`Rejection`] (shed with a reason,
//!   deadline, or draining) — no query is silently dropped or queued;
//! * after [`QueryServer::drain`] every tenant is refused with
//!   `draining`, the wait is bounded by the longest outstanding deadline
//!   plus the drain margin, and nothing is abandoned;
//! * the admission ledger balances exactly: admitted + rejected equals
//!   the attempts the tenants made;
//! * the admitted queries' request ledgers sum to the federation's wire
//!   total: each query counts its own requests, none of its neighbours'.
//!
//! Odd rounds run with **cross-tenant batching enabled** (a short window
//! and a small count trigger, so concurrent tenants really do land in
//! shared windows): every contract above must hold unchanged, and two
//! batching-specific hazards get adversarial coverage — a mid-run kill
//! landing *inside a shared subquery evaluation* must degrade every
//! dependent tenant honestly (their complete-claims are still checked
//! against the oracle, so a silently-shared hole or a cross-tenant row
//! leak would fail the exactness/subset asserts), and the admission
//! ledger must balance even though queries now wait in windows while
//! holding their sessions.
//!
//! Cases are generated without OPTIONAL (so subset means plain multiset
//! inclusion, no subsumption wrinkle) and without LIMIT (so a complete
//! answer has exactly one correct value).

use lusail_benchdata::common::Rng;
use lusail_core::{Lusail, LusailConfig};
use lusail_server::{
    BatchConfig, BatchStats, QueryServer, Rejection, ServeError, ServerConfig, TenantPolicy,
};
use lusail_sparql::SolutionSet;
use lusail_testkit::diff::faulty_policy;
use lusail_testkit::{oracle_solutions, Case, FaultSpec, GenConfig};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

const SEEDS: u64 = 40;
const TENANTS: usize = 4;
const QUERIES_PER_TENANT: usize = 6;
const DEADLINE_BUDGET: Duration = Duration::from_secs(5);
/// Must match the processing margin `QueryServer::drain` adds to the
/// longest outstanding deadline.
const DRAIN_MARGIN: Duration = Duration::from_millis(500);

fn soak_config() -> GenConfig {
    GenConfig {
        p_optional: 0.0,
        p_limit: 0.0,
        ..GenConfig::default()
    }
}

/// True when every row of `sub` appears in `sup` with at least the same
/// multiplicity. Both sides must be canonicalized (sorted rows, sorted
/// vars); schemas may still differ when degradation dropped a column, in
/// which case the subset claim is checked on the shared projection.
fn is_multiset_subset(sub: &SolutionSet, sup: &SolutionSet) -> bool {
    if sub.is_empty() {
        return true;
    }
    let (sub, sup) = if sub.vars == sup.vars {
        (sub.clone(), sup.clone())
    } else {
        let shared: Vec<String> = sup
            .vars
            .iter()
            .filter(|v| sub.vars.contains(v))
            .cloned()
            .collect();
        (
            sub.project(&shared).canonicalize(),
            sup.project(&shared).canonicalize(),
        )
    };
    let mut i = 0;
    for row in sup.rows.iter() {
        if i == sub.rows.len() {
            return true;
        }
        if row == &sub.rows[i] {
            i += 1;
        }
    }
    i == sub.rows.len()
}

/// One seeded chaos round. Returns the server counters and batching
/// stats for the cross-round aggregate assertions.
fn chaos_round(round: u64, seed: u64) -> (lusail_server::ServerCounters, BatchStats) {
    let case = Case::generate(seed, &soak_config());
    let faults = match round % 3 {
        0 => FaultSpec::default(), // clean round: everything must complete
        1 => {
            let mut rng = Rng::new(seed ^ 0xC4A0_5000_0000_0001);
            FaultSpec::random(&mut rng, case.n_endpoints)
        }
        _ => {
            // Mid-run kills: healthy endpoints that die after a few
            // requests, exactly while other tenants' queries are in
            // flight against the shared caches.
            let mut rng = Rng::new(seed ^ 0xC4A0_5000_0000_0002);
            let mut spec = FaultSpec::random_dead_only(&mut rng, case.n_endpoints);
            for slot in spec.profiles.iter_mut().flatten() {
                *slot = lusail_endpoint::FaultProfile::dies_after(1 + rng.below(12) as u64);
            }
            spec
        }
    };
    let clean = faults.is_clean();
    let oracle = oracle_solutions(&case);
    let (fed, _locals) = case.federation(&faults);

    let engine = Lusail::new(LusailConfig {
        probe_cache_capacity: Some(64), // small: force LRU churn under load
        ..LusailConfig::default()
    })
    .with_policy(faulty_policy());
    let server = QueryServer::new(
        fed,
        engine,
        ServerConfig {
            max_in_flight: 3,
            threads_per_query: 1 + (round % 2) as usize,
            tenant: TenantPolicy {
                max_in_flight: 2,
                deadline_budget: DEADLINE_BUDGET,
            },
            // Odd rounds batch: a window short enough to keep the soak
            // fast but long enough that racing tenants genuinely share
            // it, with the count trigger alternating between 2 and 3.
            batch: BatchConfig {
                enabled: round % 2 == 1,
                window: Duration::from_millis(8),
                max_batch: 2 + (round as usize / 2 % 2),
            },
        },
    );

    // Phase 1: concurrent tenants, released together so admissions race.
    let barrier = Arc::new(Barrier::new(TENANTS));
    let mut handles = Vec::new();
    for t in 0..TENANTS {
        let server = Arc::clone(&server);
        let query = case.query.clone();
        let oracle = oracle.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(thread::spawn(move || {
            let tenant = format!("tenant-{t}");
            barrier.wait();
            let (mut attempts, mut requests) = (0u64, 0u64);
            for _ in 0..QUERIES_PER_TENANT {
                attempts += 1;
                match server.execute(&tenant, &query) {
                    Ok(result) => {
                        requests += result.metrics.total_requests();
                        let got = result.solutions.canonicalize();
                        if result.complete {
                            assert_eq!(
                                got, oracle,
                                "{tenant}: complete result diverged from the oracle \
                                 (seed {seed:#x}) — stale shared cache?"
                            );
                        } else {
                            assert!(
                                !clean,
                                "{tenant}: degraded result on a clean federation \
                                 (seed {seed:#x})"
                            );
                            assert!(
                                is_multiset_subset(&got, &oracle),
                                "{tenant}: incomplete result invented rows \
                                 (seed {seed:#x})"
                            );
                        }
                    }
                    Err(ServeError::Rejected(rejection)) => {
                        // Phase 1 never drains; the only legal refusals
                        // are load shedding, and every one carries its
                        // reason.
                        match rejection {
                            Rejection::Shed { reason } => {
                                assert!(!reason.is_empty(), "untyped shed (seed {seed:#x})")
                            }
                            other => panic!(
                                "{tenant}: unexpected {} rejection before drain \
                                 (seed {seed:#x})",
                                other.code()
                            ),
                        }
                    }
                    Err(ServeError::Engine(e)) => {
                        panic!("{tenant}: engine error under chaos (seed {seed:#x}): {e:?}")
                    }
                }
            }
            (attempts, requests)
        }));
    }
    let (mut attempts, mut requests) = (0, 0);
    for handle in handles {
        let (a, r) = handle.join().unwrap();
        (attempts, requests) = (attempts + a, requests + r);
    }
    // Each admitted query's ledger is its own traffic, so together they
    // are everything the federation served: no request is counted twice
    // (a neighbour's) or missed (a batch memo hit sends nothing).
    assert_eq!(
        requests,
        server.federation().stats_snapshot().total_requests(),
        "the admitted queries' ledgers do not sum to the wire total (seed {seed:#x})"
    );

    // Phase 2: graceful drain. Nothing is in flight anymore, so the wait
    // must come in far under its own bound, and nothing may be abandoned.
    let report = server.drain();
    assert_eq!(
        report.abandoned, 0,
        "drain abandoned queries (seed {seed:#x})"
    );
    assert!(
        report.waited <= DEADLINE_BUDGET + DRAIN_MARGIN,
        "drain waited {:?}, beyond the longest deadline bound (seed {seed:#x})",
        report.waited
    );

    // Phase 3: every tenant is now refused with the draining code.
    for t in 0..TENANTS {
        match server.execute(&format!("tenant-{t}"), &case.query) {
            Err(ServeError::Rejected(Rejection::Draining)) => {}
            other => panic!(
                "post-drain query was not refused as draining (seed {seed:#x}): \
                 {other:?}"
            ),
        }
    }

    // The ledger balances: every attempt was admitted or typed-rejected.
    let counters = server.counters();
    assert_eq!(
        counters.admitted + counters.shed + counters.deadline_rejected,
        attempts,
        "admission ledger out of balance (seed {seed:#x})"
    );
    assert_eq!(counters.draining_rejected, TENANTS as u64);
    // `/stats` reports `queries_shed` as this total.
    assert_eq!(
        counters.total_rejected(),
        attempts - counters.admitted + TENANTS as u64,
        "rejection total diverged from the admission ledger (seed {seed:#x})"
    );
    // Nothing is left in flight: a second drain abandons nothing.
    assert_eq!(server.drain().abandoned, 0);
    (counters, server.batch_stats())
}

#[test]
fn concurrent_chaos_soak() {
    let mut stream = Rng::new(0xC4A0_57E5);
    let mut total = lusail_server::ServerCounters::default();
    let mut batch_total = BatchStats::default();
    for round in 0..SEEDS {
        let seed = stream.next_u64();
        let (counters, batch) = chaos_round(round, seed);
        total.admitted += counters.admitted;
        total.complete_results += counters.complete_results;
        total.incomplete_results += counters.incomplete_results;
        total.shed += counters.shed;
        total.health_invalidations += counters.health_invalidations;
        if round % 2 == 1 {
            batch_total.windows += batch.windows;
            batch_total.batched_queries += batch.batched_queries;
            batch_total.max_window = batch_total.max_window.max(batch.max_window);
            batch_total.shared_hits += batch.shared_hits;
            batch_total.wire_requests_saved += batch.wire_requests_saved;
        } else {
            assert_eq!(
                batch,
                BatchStats::default(),
                "an unbatched round went through the scheduler (seed {seed:#x})"
            );
        }
    }
    // The soak must actually have exercised both sides of every contract:
    // completed queries, degraded queries (mid-run kills landed), and
    // circuit transitions that invalidated the shared caches.
    assert!(total.complete_results > 0, "no round completed a query");
    assert!(
        total.incomplete_results > 0,
        "no round degraded — the fault plans never landed mid-run"
    );
    assert!(
        total.health_invalidations > 0,
        "no circuit transition reached the shared-cache invalidation hook"
    );
    assert_eq!(
        total.admitted,
        total.complete_results + total.incomplete_results
    );
    // The batched rounds must really have batched — windows ran, tenants
    // shared them, and identical subqueries were answered from the memo
    // rather than the wire.
    assert!(batch_total.windows > 0, "no batched round ran a window");
    assert!(
        batch_total.max_window >= 2,
        "no window ever held two tenants: {batch_total:?}"
    );
    assert!(
        batch_total.shared_hits > 0 && batch_total.wire_requests_saved > 0,
        "batched rounds never shared a subquery: {batch_total:?}"
    );
}
