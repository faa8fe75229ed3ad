//! Thread-count invariance sweep: the parallel executor's determinism
//! contract, enforced across the whole engine matrix.
//!
//! The worker budget (`ExecOptions::with_threads`) is a *physical*
//! execution knob: it decides how many scoped threads dispatch
//! per-endpoint subqueries (mediator joins run on the one sequential join
//! kernel at every budget), and must never change anything observable.
//! Each generated case runs every engine along the `threads` row of
//! `lusail_testkit::AXES` — budget 1 against budgets 2 and 8, clean and
//! under a seeded fault plan: byte-identical canonicalized solutions,
//! identical completeness flags and the identical `StatsSnapshot` window,
//! request for request (the row's docs say why faults are deterministic
//! across budgets). Every observation is held to the oracle contract and
//! the trace invariants as well, and a failure shrinks to a repro.

use lusail_benchdata::common::Rng;
use lusail_testkit::{run_axis_case, Axis, EngineKind, GenConfig, Setup};

/// Stream seed for the sweep's case generator.
const STREAM_SEED: u64 = 0x7EAD_C0DE;

/// Generated cases; each runs clean *and* faulted, at three budgets,
/// for all four engines.
const CASES: usize = 30;

#[test]
fn observations_are_identical_across_worker_budgets() {
    let axis = Axis::named("threads");
    let config = GenConfig::default();
    let mut stream = Rng::new(STREAM_SEED);
    for i in 0..CASES {
        let case_seed = stream.next_u64();
        for faulty in [false, true] {
            for engine in EngineKind::ALL {
                if let Err(repro) =
                    run_axis_case(case_seed, &config, engine, axis, faulty, Setup::BASE)
                {
                    panic!(
                        "case {i} (seed {case_seed:#x}, {}, {} mode):\n{repro}",
                        engine.name(),
                        if faulty { "faulty" } else { "clean" }
                    );
                }
            }
        }
    }
}
