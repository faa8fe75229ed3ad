//! `lusail-testkit` — the differential-testing subsystem.
//!
//! Lusail's correctness claim (Theorem 1 in the paper) is that
//! locality-aware decomposition plus bound execution returns exactly the
//! answers a centralized evaluation would. This crate turns that claim
//! into a permanent, seeded, shrinking test harness:
//!
//! 1. [`gen`] synthesizes a random-but-valid SPARQL query
//!    (BGP / FILTER / OPTIONAL / DISTINCT / LIMIT) together with a random
//!    triple set partitioned across 2–6 endpoints with controllable
//!    locality — the `straddle` knob decides how often join instances
//!    cross endpoints, so global join variables actually arise;
//! 2. [`diff`] evaluates the query on a merged single
//!    [`TripleStore`](lusail_store::TripleStore) as the oracle, then runs
//!    Lusail, FedX, HiBISCuS, and SPLENDID over the federation — clean
//!    runs must equal the oracle, faulty runs (seeded
//!    [`FlakyEndpoint`](lusail_endpoint::FlakyEndpoint)s) must stay a
//!    subset of it and may claim completeness only when nothing is
//!    missing;
//! 3. on a mismatch, [`shrink`] greedily reduces the case — data triples,
//!    then query structure, then endpoints — and prints a self-contained
//!    [`Repro`](shrink::Repro) (seed, partition map, query text, fault
//!    plan, Lusail's plan).
//!
//! Entry points: the `tests/differential.rs` tier-1 suite (bounded case
//! count) and the `fuzz` binary (`cargo run -p lusail-testkit --bin fuzz
//! -- --seed 1 --iters 10000`) for long-running exploration.

pub mod diff;
pub mod gen;
pub mod seed;
pub mod shrink;

pub use diff::{
    check, check_backends, check_batched, check_replicated, check_stats, check_trace_invariants,
    check_tuned, observe, oracle_solutions, EngineKind, LusailTuning, Observation, Violation,
};
pub use gen::{Case, FaultSpec, GenConfig};
pub use seed::{parse_seed, seed_from_env, SEED_ENV_VAR};
pub use shrink::{shrink, Repro};

/// Runs one seeded stats-vs-wire differential case end-to-end for one
/// engine (see [`check_stats`]): generate, run with and without offline
/// statistics, compare, and on failure shrink and package the repro.
/// `faulty` draws a *dead-only* fault plan (the only fault family under
/// which probe elision is behavior-invariant — see
/// [`FaultSpec::random_dead_only`]).
pub fn run_stats_case(
    case_seed: u64,
    config: &GenConfig,
    engine: EngineKind,
    faulty: bool,
    threads: usize,
) -> Result<(), Box<Repro>> {
    let case = Case::generate(case_seed, config);
    let faults = if faulty {
        let mut rng = lusail_benchdata::common::Rng::new(case_seed ^ 0xFA17_0000_0000_0002);
        FaultSpec::random_dead_only(&mut rng, case.n_endpoints)
    } else {
        FaultSpec::default()
    };
    match check_stats(&case, engine, &faults, threads) {
        Ok(()) => Ok(()),
        Err(first_violation) => {
            let still_fails =
                |c: &Case, f: &FaultSpec| -> bool { check_stats(c, engine, f, threads).is_err() };
            let (small, small_faults) = shrink(&case, &faults, &still_fails);
            let violation = check_stats(&small, engine, &small_faults, threads)
                .err()
                .unwrap_or(first_violation);
            Err(Box::new(Repro {
                case: small,
                faults: small_faults,
                engine,
                violation,
            }))
        }
    }
}

/// Runs one seeded backend-differential case end-to-end for one engine
/// (see [`check_backends`]): generate, materialize the same federation on
/// the BTree and columnar backends, run both, demand byte-identical
/// observations, and on failure shrink and package the repro. `faulty`
/// draws a full-random fault plan — backend identity must hold under any
/// fault family, since identical request streams see identical fates.
pub fn run_backend_case(
    case_seed: u64,
    config: &GenConfig,
    engine: EngineKind,
    faulty: bool,
    threads: usize,
) -> Result<(), Box<Repro>> {
    let case = Case::generate(case_seed, config);
    let faults = if faulty {
        let mut rng = lusail_benchdata::common::Rng::new(case_seed ^ 0xFA17_0000_0000_0003);
        FaultSpec::random(&mut rng, case.n_endpoints)
    } else {
        FaultSpec::default()
    };
    match check_backends(&case, engine, &faults, threads) {
        Ok(()) => Ok(()),
        Err(first_violation) => {
            let still_fails = |c: &Case, f: &FaultSpec| -> bool {
                check_backends(c, engine, f, threads).is_err()
            };
            let (small, small_faults) = shrink(&case, &faults, &still_fails);
            let violation = check_backends(&small, engine, &small_faults, threads)
                .err()
                .unwrap_or(first_violation);
            Err(Box::new(Repro {
                case: small,
                faults: small_faults,
                engine,
                violation,
            }))
        }
    }
}

/// Runs one seeded batched-vs-solo differential case end-to-end (see
/// [`check_batched`]; only the Lusail engine batches): generate, execute
/// the case's query `window` times solo and once as one MQO batch,
/// compare item-by-item, and on failure shrink and package the repro.
/// `faulty` draws a *dead-only* fault plan — the only fault family
/// invariant under the request elision batching performs (see
/// [`FaultSpec::random_dead_only`]). `nested` grafts UNION, OPTIONAL, and
/// NOT EXISTS groups onto the query ([`Case::with_nested_groups`]).
/// Returns the batch's
/// [`BatchReport`](lusail_core::BatchReport) so sweeps can assert
/// aggregate sharing coverage.
pub fn run_batched_case(
    case_seed: u64,
    config: &GenConfig,
    faulty: bool,
    nested: bool,
    window: usize,
    threads: usize,
) -> Result<lusail_core::BatchReport, Box<Repro>> {
    let mut case = Case::generate(case_seed, config);
    if nested {
        case = case.with_nested_groups(config);
    }
    let faults = if faulty {
        let mut rng = lusail_benchdata::common::Rng::new(case_seed ^ 0xFA17_0000_0000_0004);
        FaultSpec::random_dead_only(&mut rng, case.n_endpoints)
    } else {
        FaultSpec::default()
    };
    match check_batched(&case, &faults, window, threads) {
        Ok(report) => Ok(report),
        Err(first_violation) => {
            let still_fails =
                |c: &Case, f: &FaultSpec| -> bool { check_batched(c, f, window, threads).is_err() };
            let (small, small_faults) = shrink(&case, &faults, &still_fails);
            let violation = check_batched(&small, &small_faults, window, threads)
                .err()
                .unwrap_or(first_violation);
            Err(Box::new(Repro {
                case: small,
                faults: small_faults,
                engine: EngineKind::Lusail,
                violation,
            }))
        }
    }
}

/// Runs one seeded case end-to-end for one engine: generate, check, and
/// on failure shrink and package the repro. `faulty` draws a fault plan
/// from the case's own seed stream so the plan is as reproducible as the
/// case.
pub fn run_case(
    case_seed: u64,
    config: &GenConfig,
    engine: EngineKind,
    faulty: bool,
) -> Result<(), Box<Repro>> {
    let case = Case::generate(case_seed, config);
    let faults = if faulty {
        let mut rng = lusail_benchdata::common::Rng::new(case_seed ^ 0xFA17_0000_0000_0001);
        FaultSpec::random(&mut rng, case.n_endpoints)
    } else {
        FaultSpec::default()
    };
    match check(&case, engine, &faults) {
        Ok(()) => Ok(()),
        Err(first_violation) => {
            let still_fails = |c: &Case, f: &FaultSpec| -> bool { check(c, engine, f).is_err() };
            let (small, small_faults) = shrink(&case, &faults, &still_fails);
            let violation = check(&small, engine, &small_faults)
                .err()
                .unwrap_or(first_violation);
            Err(Box::new(Repro {
                case: small,
                faults: small_faults,
                engine,
                violation,
            }))
        }
    }
}
