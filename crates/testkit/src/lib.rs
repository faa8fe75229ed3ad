//! `lusail-testkit` — the differential-testing subsystem.
//!
//! Lusail's correctness claim (Theorem 1 in the paper) is that
//! locality-aware decomposition plus bound execution returns exactly the
//! answers a centralized evaluation would. This crate turns that claim
//! into a permanent, seeded, shrinking test harness:
//!
//! 1. [`Case::generate`] synthesizes a random-but-valid SPARQL query
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
//! 3. on a mismatch, [`shrink()`] greedily reduces the case — data triples,
//!    then query structure, then endpoints — and prints a self-contained
//!    [`Repro`] (seed, partition map, query text, fault
//!    plan, Lusail's plan).
//!
//! Entry points: the `tests/differential.rs` tier-1 suite (bounded case
//! count) and the `fuzz` binary (`cargo run -p lusail-testkit --bin fuzz
//! -- --seed 1 --iters 10000`) for long-running exploration.

pub mod diff;
mod gen;
mod seed;
mod shrink;

pub use diff::{
    check_batched, check_trace_invariants, compare, observe, oracle_solutions, Axis, EngineKind,
    Observation, Rel, Setup, Violation, AXES,
};
pub use gen::{Case, FaultSpec, GenConfig};
pub use seed::{parse_seed, seed_from_env, SEED_ENV_VAR};
pub use shrink::{shrink, Repro};

use lusail_benchdata::common::Rng;

/// The body every driver shares: draw the fault plan from the case's own
/// seed stream (the case seed XOR the driver's `salt`; no plan unless
/// `faulty`), check, and on failure shrink, re-check the shrunk pair for
/// its own violation and package the repro.
fn drive<T>(
    case: Case,
    faulty: bool,
    salt: u64,
    draw: fn(&mut Rng, usize) -> FaultSpec,
    engine: EngineKind,
    check: impl Fn(&Case, &FaultSpec) -> Result<T, Violation>,
) -> Result<T, Box<Repro>> {
    let faults = if faulty {
        draw(&mut Rng::new(case.seed ^ salt), case.n_endpoints)
    } else {
        FaultSpec::default()
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

/// Runs one seeded case end-to-end along one [`AXES`] row for one
/// engine: generate, observe the row's left setup once and each right
/// setup (all as edits of `base`), [`compare`], and on failure shrink to
/// a repro. `faulty` draws a plan from the row's fault family and salt.
pub fn run_axis_case(
    case_seed: u64,
    config: &GenConfig,
    engine: EngineKind,
    axis: &Axis,
    faulty: bool,
    base: Setup,
) -> Result<(), Box<Repro>> {
    let case = Case::generate(case_seed, config);
    drive(case, faulty, axis.salt, axis.faults, engine, |c, f| {
        let left = observe(c, engine, f, &(axis.left)(base))?;
        axis.rights
            .iter()
            .try_for_each(|right| compare(axis, &left, &observe(c, engine, f, &right(base))?))
    })
}

/// Runs one seeded batched-vs-solo differential case end-to-end (see
/// [`check_batched`], which also says why `faulty` draws a *dead-only*
/// plan; only Lusail batches), shrinking a failure to a repro. `nested`
/// grafts UNION, OPTIONAL, and NOT EXISTS groups onto the query
/// (`Case::with_nested_groups`). Returns the batch's report.
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
    let (salt, draw) = (0xFA17_0000_0000_0004, FaultSpec::random_dead_only);
    drive(case, faulty, salt, draw, EngineKind::Lusail, |c, f| {
        check_batched(c, f, window, threads)
    })
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
    let salt = 0xFA17_0000_0000_0001;
    drive(case, faulty, salt, FaultSpec::random, engine, |c, f| {
        observe(c, engine, f, &Setup::BASE).map(drop)
    })
}
