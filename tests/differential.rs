//! Tier-1 differential suite: every federated engine against the merged
//! single-store oracle, over seeded random cases (see `lusail-testkit`).
//!
//! Each engine runs a bounded stream of generated cases twice — clean
//! (exact oracle equality) and under a seeded fault plan (honesty: no
//! invented rows, `complete` only when nothing is missing). Every run is
//! traced, and the trace invariants of
//! `lusail_testkit::check_trace_invariants` are enforced alongside the
//! oracle contract: wire attempts must equal the federation's request
//! counters (kind by kind for the baselines, in total for Lusail, whose
//! probes travel coalesced), delayed subqueries must carry a delay reason,
//! and the trace must end with its query-finished event. A failure prints
//! a shrunk, self-contained repro whose seed replays here via
//!
//! ```text
//! LUSAIL_TEST_SEED=0x<case seed> cargo test -q differential
//! ```
//!
//! (when the variable is set, the suite runs that one case for every
//! engine *in addition to* seeding the regular stream with it). The
//! long-running exploration lives in the `fuzz` binary of
//! `lusail-testkit`; this suite pins a fixed budget so `cargo test -q`
//! stays fast.

use lusail_benchdata::common::Rng;
use lusail_testkit::{
    observe, run_axis_case, run_batched_case, run_case, seed_from_env, Axis, Case, EngineKind,
    FaultSpec, GenConfig, Setup, SEED_ENV_VAR,
};

/// Default stream seed; overridable via `LUSAIL_TEST_SEED`.
const DEFAULT_STREAM_SEED: u64 = 0xD1FF_0001;

/// Cases per engine; each case runs clean *and* faulty.
const CASES_PER_ENGINE: usize = 60;

fn drive(engine: EngineKind) {
    let config = GenConfig::default();
    let env_override = std::env::var(SEED_ENV_VAR).is_ok();
    let stream_seed = seed_from_env(DEFAULT_STREAM_SEED);

    // A seed printed by a repro is a *case* seed: replay it directly
    // first so the printed rerun line is honest.
    if env_override {
        for faulty in [false, true] {
            if let Err(repro) = run_case(stream_seed, &config, engine, faulty) {
                panic!(
                    "replayed case {stream_seed:#x} ({} mode):\n{repro}",
                    if faulty { "faulty" } else { "clean" }
                );
            }
        }
    }

    let mut stream = Rng::new(stream_seed);
    for i in 0..CASES_PER_ENGINE {
        let case_seed = stream.next_u64();
        for faulty in [false, true] {
            if let Err(repro) = run_case(case_seed, &config, engine, faulty) {
                panic!(
                    "case {i} (seed {case_seed:#x}, {} mode):\n{repro}",
                    if faulty { "faulty" } else { "clean" }
                );
            }
        }
    }
}

#[test]
fn lusail_matches_the_oracle() {
    drive(EngineKind::Lusail);
}

#[test]
fn fedx_matches_the_oracle() {
    drive(EngineKind::FedX);
}

#[test]
fn hibiscus_matches_the_oracle() {
    drive(EngineKind::Hibiscus);
}

#[test]
fn splendid_matches_the_oracle() {
    drive(EngineKind::Splendid);
}

/// The base setup at a worker budget (the axis sweeps alternate 1 and 4).
fn at(threads: usize) -> Setup {
    Setup {
        threads,
        ..Setup::BASE
    }
}

/// One replica per endpoint, for the two replicated sweeps.
const REPLICATION: usize = 2;
const REPLICATED: Setup = Setup {
    replication: REPLICATION,
    ..Setup::BASE
};

/// Replicated-partition sweep: every endpoint gets one replica
/// (replication 2) and a seeded fault plan kills one or more *primaries*
/// — dead outright or dying after a few served requests, the
/// "primary killed mid-query" scenario. Since every replica group keeps a
/// healthy member, failover must absorb every kill: all four engines are
/// required to return the exact oracle answer with `complete = true`
/// (`observe` turns an incomplete outcome into a violation whenever the
/// plan spares a member of every group).
#[test]
fn replicated_partitions_survive_primary_kills() {
    let config = GenConfig::default();
    let mut stream = Rng::new(seed_from_env(DEFAULT_STREAM_SEED) ^ 0x5EB1_1CA7);
    for i in 0..30 {
        let case_seed = stream.next_u64();
        let case = Case::generate(case_seed, &config);
        let mut fault_rng = Rng::new(case_seed ^ 0xF417_0C11);
        let faults = FaultSpec::random_primary_kill(&mut fault_rng, case.n_endpoints, REPLICATION);
        assert!(faults.spares_every_group(case.n_endpoints, REPLICATION));
        for engine in EngineKind::ALL {
            if let Err(v) = observe(&case, engine, &faults, &REPLICATED) {
                panic!(
                    "replicated case {i} (seed {case_seed:#x}, {}): {v}",
                    engine.name()
                );
            }
        }
    }
}

/// Honesty when a *whole* replica group is dead: no replica can absorb
/// the kill, so rows may go missing — the contract degrades to the
/// faulty-mode one (no invented rows, `complete` only when nothing is
/// actually missing).
#[test]
fn whole_group_death_degrades_honestly() {
    let config = GenConfig::default();
    let mut stream = Rng::new(seed_from_env(DEFAULT_STREAM_SEED) ^ 0xDEAD_97F0);
    for i in 0..10 {
        let case_seed = stream.next_u64();
        let case = Case::generate(case_seed, &config);
        // Kill endpoint 0's whole group: the primary and its replica.
        let mut profiles = vec![None; case.n_endpoints * REPLICATION];
        profiles[0] = Some(lusail_endpoint::FaultProfile::dead());
        profiles[case.n_endpoints] = Some(lusail_endpoint::FaultProfile::dead());
        let faults = FaultSpec { profiles };
        for engine in EngineKind::ALL {
            if let Err(v) = observe(&case, engine, &faults, &REPLICATED) {
                panic!(
                    "group-death case {i} (seed {case_seed:#x}, {}): {v}",
                    engine.name()
                );
            }
        }
    }
}

/// Adaptive-batching sweep: Lusail with a tiny `block_size` (2), so even
/// the small generated cases genuinely split bound subqueries into
/// multiple `VALUES` blocks and then grow them from the first block's
/// observed cardinality. The baselines run with their defaults (the block
/// size only affects Lusail) and every engine is held to the usual oracle
/// contract, clean and faulted.
#[test]
fn tuned_adaptive_batching_matches_the_oracle() {
    let tuned = Setup {
        block_size: Some(2),
        ..Setup::BASE
    };
    let config = GenConfig::default();
    let mut stream = Rng::new(seed_from_env(DEFAULT_STREAM_SEED) ^ 0xADA7_B10C);
    for i in 0..30 {
        let case_seed = stream.next_u64();
        let case = Case::generate(case_seed, &config);
        let mut fault_rng = Rng::new(case_seed ^ 0xF417_0C11);
        let clean = FaultSpec::default();
        let faulty = FaultSpec::random(&mut fault_rng, case.n_endpoints);
        for engine in EngineKind::ALL {
            for faults in [&clean, &faulty] {
                if let Err(v) = observe(&case, engine, faults, &tuned) {
                    panic!(
                        "tuned case {i} (seed {case_seed:#x}, {}, {} mode): {v}",
                        engine.name(),
                        if faults.is_clean() { "clean" } else { "faulty" }
                    );
                }
            }
        }
    }
}

/// Stats-vs-wire differential sweep: 30 seeded cases, every engine, with
/// offline statistics attached vs absent, clean and under dead-only fault
/// plans, at worker budgets 1 and 4. Statistics may only *elide* probes:
/// the `stats` axis demands byte-identical canonicalized solutions and
/// completeness flags, per-kind wire requests stats-on ≤ stats-off, and
/// both runs individually passing the oracle contract and trace
/// invariants. (Lusail, FedX and HiBISCuS consult statistics — the latter
/// two through `select_sources`; SPLENDID selects sources from its own
/// VOID index and runs as the "attached stats are inert" control.)
/// Failures shrink to a self-contained repro like every other sweep here.
#[test]
fn stats_elision_is_invisible_in_results() {
    let axis = Axis::named("stats");
    let config = GenConfig::default();
    let mut stream = Rng::new(seed_from_env(DEFAULT_STREAM_SEED) ^ 0x57A7_57A7);
    for i in 0..30 {
        let case_seed = stream.next_u64();
        // Alternate worker budgets across the stream (running every case
        // at both budgets would double the tier-1 bill; the parallel
        // determinism contract is pinned separately).
        let threads = if i % 2 == 0 { 1 } else { 4 };
        for engine in EngineKind::ALL {
            for faulty in [false, true] {
                if let Err(repro) =
                    run_axis_case(case_seed, &config, engine, axis, faulty, at(threads))
                {
                    panic!(
                        "stats case {i} (seed {case_seed:#x}, {}, {} mode, {threads} threads):\n{repro}",
                        engine.name(),
                        if faulty { "faulty" } else { "clean" }
                    );
                }
            }
        }
    }
}

/// Backend-differential sweep: 30 seeded cases, every engine, each case
/// materialized on the BTree backend *and* the compressed sorted-column
/// backend, clean and under full-random fault plans, at worker budgets 1
/// and 4. The contract is strict identity, not subset: the `backends`
/// axis demands byte-identical canonicalized solutions, completeness
/// flags, per-kind wire request counters, `rows_scanned`, and the full
/// counter window on both backends (generated cases sit below the BTree
/// estimate cap, so both backends plan identically — see the `AXES`
/// docs). A failure shrinks to a self-contained repro and replays via
/// `LUSAIL_TEST_SEED` like every other sweep here.
#[test]
fn storage_backends_are_observationally_identical() {
    let axis = Axis::named("backends");
    let config = GenConfig::default();
    if std::env::var(SEED_ENV_VAR).is_ok() {
        let case_seed = seed_from_env(DEFAULT_STREAM_SEED);
        for engine in EngineKind::ALL {
            for faulty in [false, true] {
                for threads in [1, 4] {
                    if let Err(repro) =
                        run_axis_case(case_seed, &config, engine, axis, faulty, at(threads))
                    {
                        panic!(
                            "replayed backend case {case_seed:#x} ({}, {} mode, {threads} threads):\n{repro}",
                            engine.name(),
                            if faulty { "faulty" } else { "clean" }
                        );
                    }
                }
            }
        }
    }
    let mut stream = Rng::new(seed_from_env(DEFAULT_STREAM_SEED) ^ 0xBACC_E4D5);
    for i in 0..30 {
        let case_seed = stream.next_u64();
        // Alternate worker budgets across the stream, like the stats
        // sweep: both budgets get coverage without doubling the bill.
        let threads = if i % 2 == 0 { 1 } else { 4 };
        for engine in EngineKind::ALL {
            for faulty in [false, true] {
                if let Err(repro) =
                    run_axis_case(case_seed, &config, engine, axis, faulty, at(threads))
                {
                    panic!(
                        "backend case {i} (seed {case_seed:#x}, {}, {} mode, {threads} threads):\n{repro}",
                        engine.name(),
                        if faulty { "faulty" } else { "clean" }
                    );
                }
            }
        }
    }
}

/// Batched-vs-solo differential sweep: 30 seeded cases plus a 10-case
/// nested slice (UNION + OPTIONAL + NOT EXISTS grafted onto every query),
/// clean and under dead-only fault plans, at batch windows 1, 2, and 8 and
/// worker budgets 1 and 4 (alternating across the stream). `check_batched`
/// submits the window's copies of the case's query as one MQO batch and
/// demands every batched answer be byte-identical to the sequential solo
/// execution of the same query — canonicalized solutions, completeness
/// flag, failure attribution, and planning metrics — with the batch never
/// issuing more wire requests than the sequential baseline (strictly fewer
/// whenever a clean batch claims savings, and the identical counter window
/// for a batch of one). LIMIT is excluded: any `k` oracle rows
/// are a correct limited answer, so "byte-identical" would be
/// ill-defined. Fault plans are dead-only because transient fates are
/// drawn per request index — not invariant under the elision batching
/// performs. A failure shrinks to a self-contained repro and replays via
/// `LUSAIL_TEST_SEED` like every other sweep here.
#[test]
fn batched_execution_is_byte_identical_to_solo() {
    let config = GenConfig {
        p_limit: 0.0,
        ..GenConfig::default()
    };
    let mut stream = Rng::new(seed_from_env(DEFAULT_STREAM_SEED) ^ 0xBA7C_4ED1);
    let mut shared_hits = 0u64;
    let mut saved_requests = 0u64;
    for i in 0..40 {
        let case_seed = stream.next_u64();
        let threads = if i % 2 == 0 { 1 } else { 4 };
        let nested = i >= 30;
        for faulty in [false, true] {
            for window in [1usize, 2, 8] {
                match run_batched_case(case_seed, &config, faulty, nested, window, threads) {
                    Ok(report) => {
                        shared_hits += report.shared_hits;
                        saved_requests += report.wire_requests_saved;
                    }
                    Err(repro) => panic!(
                        "batched case {i} (seed {case_seed:#x}, {} mode, window {window}, \
                         {threads} threads):\n{repro}",
                        if faulty { "faulty" } else { "clean" }
                    ),
                }
            }
        }
    }
    // Coverage: a sweep that never shared a subquery (or never saved a
    // request) would be vacuous — multi-item windows of identical
    // queries must hit the shared-relation memo.
    assert!(
        shared_hits > 0,
        "batched sweep never hit the shared-relation memo"
    );
    assert!(
        saved_requests > 0,
        "batched sweep never saved a wire request"
    );
}

/// High-straddle configuration: join instances cross endpoints as often
/// as the generator can arrange, so the GJV/decomposition machinery (not
/// the disjoint fast path) carries the load.
#[test]
fn high_straddle_cases_match_the_oracle() {
    let config = GenConfig {
        straddle: 1.0,
        ..GenConfig::default()
    };
    let mut stream = Rng::new(seed_from_env(DEFAULT_STREAM_SEED) ^ 0x57AD_D1E5);
    for i in 0..20 {
        let case_seed = stream.next_u64();
        for engine in EngineKind::ALL {
            if let Err(repro) = run_case(case_seed, &config, engine, false) {
                panic!(
                    "case {i} (seed {case_seed:#x}, {}):\n{repro}",
                    engine.name()
                );
            }
        }
    }
}
