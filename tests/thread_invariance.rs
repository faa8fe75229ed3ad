//! Thread-count invariance sweep: the parallel executor's determinism
//! contract, enforced across the whole engine matrix.
//!
//! The worker budget (`ExecOptions::with_threads`) is a *physical*
//! execution knob: it decides how many scoped threads dispatch
//! per-endpoint subqueries (mediator joins run on the one sequential join
//! kernel at every budget), and must never change anything observable. Each generated case runs every
//! engine at budgets 1, 2, and 8 — clean and under a seeded fault plan —
//! and the three observations must compare equal: byte-identical
//! canonicalized solution multisets, identical completeness flags, and
//! identical per-kind wire counters (the full `StatsSnapshot` window,
//! request for request). Trace invariants are enforced inside every
//! observation as well, so a budget that broke the trace contract would
//! fail even before the comparison.
//!
//! Fault determinism rests on the seeded fault profiles drawing from
//! per-endpoint streams: the executor preserves each endpoint's request
//! subsequence exactly, so the same faults fire on the same requests at
//! any budget.

use lusail_benchdata::common::Rng;
use lusail_testkit::{observe, Case, EngineKind, FaultSpec, GenConfig};

/// Stream seed for the sweep's case generator.
const STREAM_SEED: u64 = 0x7EAD_C0DE;

/// Generated cases; each runs clean *and* faulted, at three budgets,
/// for all four engines.
const CASES: usize = 30;

/// The worker budgets under comparison. 1 is the sequential reference.
const BUDGETS: [usize; 3] = [1, 2, 8];

#[test]
fn observations_are_identical_across_worker_budgets() {
    let config = GenConfig::default();
    let mut stream = Rng::new(STREAM_SEED);
    for i in 0..CASES {
        let case_seed = stream.next_u64();
        let case = Case::generate(case_seed, &config);
        let fault_plan = {
            let mut rng = Rng::new(case_seed ^ 0xFA17_0000_0000_0001);
            FaultSpec::random(&mut rng, case.n_endpoints)
        };
        for faults in [FaultSpec::default(), fault_plan] {
            let mode = if faults.is_clean() { "clean" } else { "faulty" };
            for engine in EngineKind::ALL {
                let reference = observe(&case, engine, &faults, BUDGETS[0]).unwrap_or_else(|v| {
                    panic!(
                        "case {i} (seed {case_seed:#x}) engine {} {mode} \
                         threads={}: {v}",
                        engine.name(),
                        BUDGETS[0]
                    )
                });
                for &threads in &BUDGETS[1..] {
                    let got = observe(&case, engine, &faults, threads).unwrap_or_else(|v| {
                        panic!(
                            "case {i} (seed {case_seed:#x}) engine {} {mode} \
                             threads={threads}: {v}",
                            engine.name()
                        )
                    });
                    assert_eq!(
                        got.solutions,
                        reference.solutions,
                        "case {i} (seed {case_seed:#x}) engine {} {mode}: \
                         solutions at threads={threads} differ from threads=1",
                        engine.name()
                    );
                    assert_eq!(
                        got.complete,
                        reference.complete,
                        "case {i} (seed {case_seed:#x}) engine {} {mode}: \
                         completeness at threads={threads} differs from threads=1",
                        engine.name()
                    );
                    assert_eq!(
                        got.window,
                        reference.window,
                        "case {i} (seed {case_seed:#x}) engine {} {mode}: \
                         request counters at threads={threads} differ from \
                         threads=1",
                        engine.name()
                    );
                }
            }
        }
    }
}
