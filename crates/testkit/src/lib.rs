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

use lusail_benchdata::common::Rng;

/// The body every driver shares: draw the fault plan from the case's own
/// seed stream (`fault_seed` is the case seed salted per driver, `None`
/// for a clean run), check, and on failure shrink, re-check the shrunk
/// pair for its own violation and package the repro.
fn drive<T>(
    case: Case,
    fault_seed: Option<u64>,
    draw: fn(&mut Rng, usize) -> FaultSpec,
    engine: EngineKind,
    check: impl Fn(&Case, &FaultSpec) -> Result<T, Violation>,
) -> Result<T, Box<Repro>> {
    let faults = match fault_seed {
        Some(seed) => draw(&mut Rng::new(seed), case.n_endpoints),
        None => FaultSpec::default(),
    };
    check(&case, &faults).map_err(|first_violation| {
        let (small, small_faults) = shrink(&case, &faults, &|c, f| check(c, f).is_err());
        let violation = check(&small, &small_faults)
            .err()
            .unwrap_or(first_violation);
        Box::new(Repro {
            case: small,
            faults: small_faults,
            engine,
            violation,
        })
    })
}

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
    let fault_seed = faulty.then_some(case_seed ^ 0xFA17_0000_0000_0002);
    drive(
        case,
        fault_seed,
        FaultSpec::random_dead_only,
        engine,
        |c, f| check_stats(c, engine, f, threads),
    )
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
    let fault_seed = faulty.then_some(case_seed ^ 0xFA17_0000_0000_0003);
    drive(case, fault_seed, FaultSpec::random, engine, |c, f| {
        check_backends(c, engine, f, threads)
    })
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
    let fault_seed = faulty.then_some(case_seed ^ 0xFA17_0000_0000_0004);
    drive(
        case,
        fault_seed,
        FaultSpec::random_dead_only,
        EngineKind::Lusail,
        |c, f| check_batched(c, f, window, threads),
    )
}

/// Runs one seeded case end-to-end for one engine: generate, check, and
/// on failure shrink and package the repro.
pub fn run_case(
    case_seed: u64,
    config: &GenConfig,
    engine: EngineKind,
    faulty: bool,
) -> Result<(), Box<Repro>> {
    let case = Case::generate(case_seed, config);
    let fault_seed = faulty.then_some(case_seed ^ 0xFA17_0000_0000_0001);
    drive(case, fault_seed, FaultSpec::random, engine, |c, f| {
        check(c, engine, f)
    })
}
