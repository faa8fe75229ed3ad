//! Differential execution: every federated engine against the merged
//! single-store oracle.
//!
//! * **Clean mode** (no faults): the engine's solutions must equal the
//!   centralized evaluation exactly (multiset equality after
//!   canonicalization). `LIMIT k` is the one modifier without a unique
//!   answer — any `k` oracle rows are correct — so limited queries are
//!   checked as *oracle-subset of the un-limited result* plus the exact
//!   row count `min(k, |oracle|)`.
//! * **Faulty mode**: endpoints misbehave, so rows may legitimately go
//!   missing. The contract is honesty: every reported row is backed by an
//!   oracle row (exactly, or — in an outcome flagged incomplete — by
//!   subsumption, where variables bound only inside a lost OPTIONAL group
//!   may come back unbound), and an outcome flagged `complete` must be
//!   indistinguishable from a clean run.

use crate::gen::{Case, FaultSpec};
use lusail_baselines::{FedX, HiBisCus, HibiscusIndex, Splendid, VoidIndex};
use lusail_core::{Lusail, LusailConfig, QueryTrace, RequestKind, TraceSink};
use lusail_endpoint::{ExecOptions, FederatedEngine, LocalEndpoint, RequestPolicy, StatsSnapshot};
use lusail_sparql::SolutionSet;
use std::sync::Arc;
use std::time::Duration;

/// The four engines under differential test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The Lusail engine (LADE + SAPE).
    Lusail,
    /// The FedX baseline (exclusive groups + bound joins).
    FedX,
    /// The HiBISCuS baseline (authority-based source pruning over FedX).
    Hibiscus,
    /// The SPLENDID baseline (VOID statistics + DP join ordering).
    Splendid,
}

impl EngineKind {
    /// All four engines.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Lusail,
        EngineKind::FedX,
        EngineKind::Hibiscus,
        EngineKind::Splendid,
    ];

    /// The engine's display name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Lusail => "Lusail",
            EngineKind::FedX => "FedX",
            EngineKind::Hibiscus => "HiBISCuS",
            EngineKind::Splendid => "SPLENDID",
        }
    }

    /// Parses a `--engine` argument (case-insensitive).
    pub fn parse(s: &str) -> Option<EngineKind> {
        EngineKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s))
    }

    /// Instantiates the engine. The index-building baselines preprocess
    /// the given endpoint handles (their offline phase sees clean data
    /// even when the federation injects faults at query time).
    pub fn build(
        self,
        endpoints: &[Arc<LocalEndpoint>],
        policy: RequestPolicy,
    ) -> Box<dyn FederatedEngine> {
        self.build_tuned(endpoints, policy, None)
    }

    /// [`EngineKind::build`] with an optional Lusail tuning override
    /// (ignored by the baselines, which have no equivalent knobs).
    pub fn build_tuned(
        self,
        endpoints: &[Arc<LocalEndpoint>],
        policy: RequestPolicy,
        tuning: Option<LusailTuning>,
    ) -> Box<dyn FederatedEngine> {
        let refs: Vec<&LocalEndpoint> = endpoints.iter().map(|e| e.as_ref()).collect();
        match self {
            EngineKind::Lusail => {
                let config = match tuning {
                    Some(t) => LusailConfig {
                        block_size: t.block_size,
                        adaptive_values: t.adaptive_values,
                        ..LusailConfig::default()
                    },
                    None => LusailConfig::default(),
                };
                Box::new(Lusail::new(config).with_policy(policy))
            }
            EngineKind::FedX => Box::new(FedX::default().with_policy(policy)),
            EngineKind::Hibiscus => {
                Box::new(HiBisCus::new(HibiscusIndex::build(&refs)).with_policy(policy))
            }
            EngineKind::Splendid => {
                Box::new(Splendid::new(VoidIndex::build(&refs)).with_policy(policy))
            }
        }
    }
}

/// Lusail execution-tuning overrides for differential runs: a tiny
/// `block_size` forces real `VALUES` batching (and, with
/// `adaptive_values`, the adaptive sizer's probe-then-scale path) even on
/// the small generated cases, so the batching machinery is exercised
/// under the oracle contract rather than skipped for fitting in one block.
#[derive(Debug, Clone, Copy)]
pub struct LusailTuning {
    /// Bindings per `VALUES` block (probe-block size when adaptive).
    pub block_size: usize,
    /// Enable adaptive block sizing.
    pub adaptive_values: bool,
}

/// The ways a differential run can disagree with the oracle.
#[derive(Debug, Clone)]
pub enum Violation {
    /// Clean run: the multiset of solutions differs from the oracle's.
    Mismatch {
        /// Rows the engine returned (canonicalized).
        got: usize,
        /// Rows the oracle returned (canonicalized).
        want: usize,
    },
    /// `LIMIT k`: wrong number of rows (must be `min(k, |oracle|)`).
    WrongLimitCount {
        /// Rows the engine returned.
        got: usize,
        /// The required count.
        want: usize,
    },
    /// A returned row does not appear in the oracle result at all.
    SpuriousRow {
        /// Rendered binding row.
        row: String,
    },
    /// The outcome claimed `complete` although rows are missing.
    FalseComplete {
        /// Rows the engine returned.
        got: usize,
        /// Rows the oracle returned.
        want: usize,
    },
    /// The engine returned a federation-level error on a legal input.
    EngineError(String),
    /// Trace invariant: the summed wire attempts of one request kind in
    /// the trace disagree with the federation's request counters.
    TraceRequestMismatch {
        /// The request-kind label (`ask`, `count`, or `select+check`).
        kind: &'static str,
        /// Wire attempts summed over the trace's request events.
        trace_attempts: u64,
        /// Requests the federation counters recorded.
        stats_requests: u64,
    },
    /// Trace invariant: a subquery was recorded delayed without a reason.
    MissingDelayReason {
        /// The offending subquery's index.
        index: usize,
    },
    /// Trace invariant: an enabled trace has no query-finished event.
    MissingFinish,
    /// Trace invariant: events were recorded after query-finished.
    EventsAfterFinish {
        /// How many trailing events follow the finish.
        count: usize,
    },
    /// Every replica group kept a healthy member, yet the outcome was
    /// flagged incomplete — failover should have absorbed every kill.
    DegradedDespiteReplicas,
    /// The stats-on run diverged from the stats-off run — statistics may
    /// only *elide* probes, never change what the query returns.
    StatsDivergence {
        /// Which facet diverged (`rows`, `solutions`, or `complete`).
        facet: &'static str,
        /// The facet's value with statistics attached.
        on: String,
        /// The facet's value without statistics.
        off: String,
    },
    /// The stats-on run issued *more* wire requests of some kind than the
    /// stats-off run — statistics must be a pure saving.
    StatsRequestRegression {
        /// The request-counter label.
        kind: &'static str,
        /// Requests with statistics attached.
        on: u64,
        /// Requests without statistics.
        off: u64,
    },
    /// A batched execution diverged from the solo execution of the same
    /// query — multi-query batching may only *elide* wire traffic, never
    /// change what a query returns, how its completeness is flagged, or
    /// which endpoints its failures are attributed to.
    BatchDivergence {
        /// The batch-window size the divergence occurred at.
        window: usize,
        /// The diverging item's position in the batch.
        index: usize,
        /// Which facet diverged (`outcome`, `solutions`, `complete`,
        /// `failures`, `metrics`, `wire`, or `bytes`).
        facet: &'static str,
        /// The facet's value in the batched execution.
        batched: String,
        /// The facet's value in the solo execution.
        solo: String,
    },
    /// The same run on the two storage backends disagreed — backends must
    /// be observationally identical (solutions, completeness, per-kind
    /// wire requests, and rows scanned).
    BackendDivergence {
        /// Which facet diverged (`solutions`, `complete`, a request-kind
        /// label, `rows_scanned`, or `counters`).
        facet: &'static str,
        /// The facet's value on the BTree backend.
        btree: String,
        /// The facet's value on the columnar backend.
        columns: String,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Mismatch { got, want } => {
                write!(
                    f,
                    "result mismatch: engine returned {got} rows, oracle {want}"
                )
            }
            Violation::WrongLimitCount { got, want } => {
                write!(f, "LIMIT produced {got} rows, expected exactly {want}")
            }
            Violation::SpuriousRow { row } => {
                write!(f, "spurious row not in the oracle result: {row}")
            }
            Violation::FalseComplete { got, want } => write!(
                f,
                "outcome flagged complete but rows are missing ({got} of {want})"
            ),
            Violation::EngineError(e) => write!(f, "engine error: {e}"),
            Violation::TraceRequestMismatch {
                kind,
                trace_attempts,
                stats_requests,
            } => write!(
                f,
                "trace/stats mismatch for {kind} requests: trace recorded \
                 {trace_attempts} wire attempts, federation counted {stats_requests}"
            ),
            Violation::MissingDelayReason { index } => write!(
                f,
                "subquery {index} was delayed without a recorded delay reason"
            ),
            Violation::MissingFinish => {
                write!(f, "trace has no query-finished event")
            }
            Violation::EventsAfterFinish { count } => {
                write!(f, "{count} trace event(s) recorded after query-finished")
            }
            Violation::DegradedDespiteReplicas => write!(
                f,
                "outcome flagged incomplete although every replica group \
                 had a healthy member"
            ),
            Violation::StatsDivergence { facet, on, off } => write!(
                f,
                "stats-on run diverged from stats-off on {facet}: \
                 {on} with stats, {off} without"
            ),
            Violation::StatsRequestRegression { kind, on, off } => write!(
                f,
                "stats-on run issued more {kind} requests than stats-off \
                 ({on} vs {off})"
            ),
            Violation::BatchDivergence {
                window,
                index,
                facet,
                batched,
                solo,
            } => write!(
                f,
                "batched execution diverged from solo on {facet} \
                 (window {window}, item {index}): {batched} batched, \
                 {solo} solo"
            ),
            Violation::BackendDivergence {
                facet,
                btree,
                columns,
            } => write!(
                f,
                "storage backends diverged on {facet}: {btree} on btree, \
                 {columns} on columns"
            ),
        }
    }
}

/// Request policy for clean runs: nothing fails, so retries never fire.
pub fn clean_policy() -> RequestPolicy {
    RequestPolicy::default()
}

/// Request policy for faulty runs: a couple of fast retries with
/// microsecond backoffs (so injected faults are *sometimes* absorbed and
/// sometimes leak through to the degradation paths), and circuit tripping
/// after three consecutive failures.
pub fn faulty_policy() -> RequestPolicy {
    RequestPolicy {
        max_retries: 2,
        base_backoff: Duration::from_micros(10),
        backoff_multiplier: 2.0,
        max_backoff: Duration::from_micros(100),
        jitter: 0.0,
        deadline: Duration::ZERO,
        trip_threshold: 3,
        // Cooldown far above the µs-scale wall time of a differential run:
        // a tripped endpoint stays tripped for the whole query, exactly the
        // legacy one-way behavior the invariants were pinned against.
        open_cooldown: Duration::from_secs(30),
        hedge_threshold: Duration::ZERO,
        query_budget: Duration::ZERO,
    }
}

/// Evaluates the case's query on the merged oracle store, without `LIMIT`
/// (the caller accounts for it). Returns the canonicalized solutions.
pub fn oracle_solutions(case: &Case) -> SolutionSet {
    let mut q = case.query.clone();
    q.limit = None;
    lusail_store::eval::evaluate(&case.oracle(), &q).canonicalize()
}

/// Runs `engine` over the case's federation and checks it against the
/// oracle. `faults.is_clean()` selects the strict equality contract;
/// otherwise the subset + completeness-honesty contract applies.
pub fn check(case: &Case, engine: EngineKind, faults: &FaultSpec) -> Result<(), Violation> {
    let (fed, locals) = case.federation(faults);
    observe_on(case, engine, &fed, &locals, faults.is_clean(), 1, None).map(drop)
}

/// Everything observable about one run at a given worker budget: the
/// canonicalized solutions, the completeness flag, and the full window of
/// federation request counters. The parallel executor's determinism
/// contract is that two observations differing only in `threads` compare
/// equal — same rows, same wire traffic, request for request.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Canonicalized solution multiset.
    pub solutions: SolutionSet,
    /// The outcome's completeness flag.
    pub complete: bool,
    /// Request counters accumulated during the run.
    pub window: StatsSnapshot,
}

/// Runs `engine` over the case's federation with `threads` workers,
/// enforces the oracle contract *and* the trace invariants, and returns
/// the run's [`Observation`] for cross-budget comparison.
pub fn observe(
    case: &Case,
    engine: EngineKind,
    faults: &FaultSpec,
    threads: usize,
) -> Result<Observation, Violation> {
    let (fed, locals) = case.federation(faults);
    observe_on(
        case,
        engine,
        &fed,
        &locals,
        faults.is_clean(),
        threads,
        None,
    )
}

/// The one run every check goes through: run the engine over an
/// already-built federation, enforce the oracle contract and trace
/// invariants, and return the run's [`Observation`].
fn observe_on(
    case: &Case,
    engine: EngineKind,
    fed: &lusail_endpoint::Federation,
    locals: &[Arc<LocalEndpoint>],
    clean: bool,
    threads: usize,
    tuning: Option<LusailTuning>,
) -> Result<Observation, Violation> {
    let policy = if clean {
        clean_policy()
    } else {
        faulty_policy()
    };
    let runner = engine.build_tuned(locals, policy, tuning);
    let before = fed.stats_snapshot();
    let sink = TraceSink::enabled();
    let opts = ExecOptions::default()
        .with_threads(threads)
        .with_trace(sink.clone());
    let outcome = runner
        .run_with(fed, &case.query, &opts)
        .map_err(|e| Violation::EngineError(format!("{e:?}")))?;
    let window = fed.stats_snapshot().since(&before);
    check_trace_invariants(&QueryTrace::from_sink(&sink), &window)?;
    check_outcome(case, clean, &outcome)?;
    Ok(Observation {
        solutions: outcome.solutions.canonicalize(),
        complete: outcome.complete,
        window,
    })
}

/// The per-kind wire request counters two runs are compared on, labelled.
fn wire_kinds(a: &StatsSnapshot, b: &StatsSnapshot) -> [(&'static str, u64, u64); 4] {
    [
        ("ask", a.ask_requests, b.ask_requests),
        ("count", a.count_requests, b.count_requests),
        ("select", a.select_requests, b.select_requests),
        ("total", a.total_requests(), b.total_requests()),
    ]
}

/// The stats-vs-wire differential: runs `engine` over the case twice —
/// once without statistics and once with [`EndpointStats`] built from
/// every *healthy* endpoint's store — and demands that statistics are
/// invisible except as elided traffic:
///
/// * byte-identical canonicalized solutions and completeness flags
///   (both runs also individually pass the ordinary oracle contract and
///   trace invariants);
/// * per-kind wire requests with stats on ≤ with stats off.
///
/// Faulted sweeps must use [`FaultSpec::random_dead_only`] plans: a
/// transiently-flaky endpoint draws each fate from its request *index*,
/// so eliding a probe would shift every later fate and the two runs would
/// legitimately diverge. Dead-only plans are elision-invariant. Stats are
/// withheld from dead endpoints — the state PR 4's invalidation converges
/// to after a death is observed — so conclusive answers never speak for
/// an endpoint whose data the engine can no longer reach.
///
/// [`EndpointStats`]: lusail_store::EndpointStats
pub fn check_stats(
    case: &Case,
    engine: EngineKind,
    faults: &FaultSpec,
    threads: usize,
) -> Result<(), Violation> {
    let clean = faults.is_clean();
    let (fed_off, locals_off) = case.federation(faults);
    let off = observe_on(case, engine, &fed_off, &locals_off, clean, threads, None)?;

    let (fed_on, locals_on) = case.federation(faults);
    for (i, ep) in locals_on.iter().enumerate() {
        if faults.profiles.get(i).copied().flatten().is_none() {
            fed_on.attach_stats(i, Arc::new(lusail_store::EndpointStats::build(ep.store())));
        }
    }
    let on = observe_on(case, engine, &fed_on, &locals_on, clean, threads, None)?;

    if on.solutions != off.solutions {
        return Err(Violation::StatsDivergence {
            facet: "solutions",
            on: format!("{} rows", on.solutions.len()),
            off: format!("{} rows", off.solutions.len()),
        });
    }
    if on.complete != off.complete {
        return Err(Violation::StatsDivergence {
            facet: "complete",
            on: on.complete.to_string(),
            off: off.complete.to_string(),
        });
    }
    for (kind, on_n, off_n) in wire_kinds(&on.window, &off.window) {
        if on_n > off_n {
            return Err(Violation::StatsRequestRegression {
                kind,
                on: on_n,
                off: off_n,
            });
        }
    }
    Ok(())
}

/// The backend-differential oracle: runs `engine` over the case once per
/// storage backend — the same stores materialized as BTree indexes and as
/// compressed sorted columns — and demands the two runs be byte-identical
/// in everything observable: canonicalized solutions, the completeness
/// flag, every per-kind wire request counter, and `rows_scanned`.
///
/// Identity (not mere equivalence) holds because generated cases are
/// smaller than the BTree estimate cap, so both backends hand
/// `plan_bgp_order` the same exact estimates, producing the same plans,
/// the same scans, and the same request streams — which also makes the
/// check fault-plan-invariant: injected fates are drawn per request
/// index, and the indexes coincide. Both runs additionally pass the
/// ordinary oracle contract and trace invariants on their own.
pub fn check_backends(
    case: &Case,
    engine: EngineKind,
    faults: &FaultSpec,
    threads: usize,
) -> Result<(), Violation> {
    let clean = faults.is_clean();
    let (fed_b, locals_b) = case.federation_on(faults, lusail_store::BackendKind::Btree);
    let btree = observe_on(case, engine, &fed_b, &locals_b, clean, threads, None)?;
    let (fed_c, locals_c) = case.federation_on(faults, lusail_store::BackendKind::Columns);
    let columns = observe_on(case, engine, &fed_c, &locals_c, clean, threads, None)?;

    if btree.solutions != columns.solutions {
        return Err(Violation::BackendDivergence {
            facet: "solutions",
            btree: format!("{} rows", btree.solutions.len()),
            columns: format!("{} rows", columns.solutions.len()),
        });
    }
    if btree.complete != columns.complete {
        return Err(Violation::BackendDivergence {
            facet: "complete",
            btree: btree.complete.to_string(),
            columns: columns.complete.to_string(),
        });
    }
    let scanned = (
        "rows_scanned",
        btree.window.rows_scanned,
        columns.window.rows_scanned,
    );
    for (kind, b, c) in wire_kinds(&btree.window, &columns.window)
        .into_iter()
        .chain([scanned])
    {
        if b != c {
            return Err(Violation::BackendDivergence {
                facet: kind,
                btree: b.to_string(),
                columns: c.to_string(),
            });
        }
    }
    // Catch-all: the full counter window (bytes, rows returned, fault
    // injections, VALUES blocks, …) must coincide too.
    if btree.window != columns.window {
        return Err(Violation::BackendDivergence {
            facet: "counters",
            btree: format!("{:?}", btree.window),
            columns: format!("{:?}", columns.window),
        });
    }
    Ok(())
}

/// The batched-vs-solo differential: submits `window` copies of the
/// case's query as one MQO batch and demands that every batched answer
/// is indistinguishable from the solo execution of the same query —
/// byte-identical canonicalized solutions, the same completeness flag,
/// and the same per-query failure attribution (the set of endpoints
/// blamed), clean and under seeded faults alike.
///
/// The solo baseline is exactly what a server with batching disabled
/// does: one engine executes the window's queries sequentially, probe
/// caches shared, subquery sharing off. Item `i` of the batch is
/// compared against sequential run `i`, so engine-cache warming is
/// identical on both sides and the *only* difference under test is the
/// batch's shared-relation memo.
///
/// Faulted sweeps must use [`FaultSpec::random_dead_only`] plans:
/// transient fates are drawn per request index, so eliding a shared
/// subquery's requests would shift every later fate and the two sides
/// would legitimately diverge. Dead-only plans are elision- and
/// order-invariant.
///
/// Wire contract: batching is a pure saving — the batch never issues
/// more total requests than the sequential baseline, and in a clean run
/// whose report claims saved requests, strictly fewer. A batch of one has
/// nothing to share, so its whole counter window (per-kind requests,
/// bytes both ways, rows returned, rows scanned) must *equal* solo's.
///
/// Plan contract: item `i` carries the same planning metrics (subquery
/// and delayed-subquery counts, GJVs, check queries) as solo run `i` —
/// the memo may elide fetches, never change what was planned.
///
/// Returns the batch's [`BatchReport`](lusail_core::BatchReport) so
/// sweeps can assert aggregate sharing coverage.
pub fn check_batched(
    case: &Case,
    faults: &FaultSpec,
    window: usize,
    threads: usize,
) -> Result<lusail_core::BatchReport, Violation> {
    use lusail_core::{BatchItem, BatchOutcome};
    use std::collections::BTreeSet;

    let clean = faults.is_clean();
    let policy = || {
        if clean {
            clean_policy()
        } else {
            faulty_policy()
        }
    };
    let opts = ExecOptions::default().with_threads(threads);

    fn blamed(failures: &[lusail_endpoint::EndpointFailure]) -> BTreeSet<String> {
        failures
            .iter()
            .filter(|f| f.failed_requests > 0 || f.dead)
            .map(|f| f.name.clone())
            .collect()
    }

    // Solo baseline: sequential runs on one engine over its own
    // federation instance.
    let (solo_fed, _solo_locals) = case.federation(faults);
    let solo_engine = Lusail::new(LusailConfig::default()).with_policy(policy());
    let solo_before = solo_fed.stats_snapshot();
    let mut solos = Vec::with_capacity(window);
    for _ in 0..window {
        let result = solo_engine
            .execute_with(&solo_fed, &case.query, &opts)
            .map_err(|e| Violation::EngineError(format!("{e:?}")))?;
        solos.push(result);
    }
    let solo_window = solo_fed.stats_snapshot().since(&solo_before);
    let solo_wire = solo_window.total_requests();

    // The solo answers themselves stay under the ordinary oracle
    // contract when nothing is faulted (LIMIT aside — any k oracle rows
    // are correct, and the batched side must simply pick the same ones).
    if clean && case.query.limit.is_none() {
        let oracle = oracle_solutions(case);
        for solo in &solos {
            let got = solo.solutions.canonicalize();
            if got != oracle {
                return Err(Violation::Mismatch {
                    got: got.len(),
                    want: oracle.len(),
                });
            }
        }
    }

    // Batched run: the same window of queries as one MQO batch.
    let (fed, _locals) = case.federation(faults);
    let engine = Lusail::new(LusailConfig::default()).with_policy(policy());
    let items: Vec<BatchItem> = (0..window)
        .map(|_| BatchItem {
            query: case.query.clone(),
            opts: opts.clone(),
        })
        .collect();
    let before = fed.stats_snapshot();
    let (outcomes, report) = engine.execute_batch_with(&fed, &items);
    let batched_window = fed.stats_snapshot().since(&before);
    let batched_wire = batched_window.total_requests();

    for (index, (outcome, solo)) in outcomes.iter().zip(&solos).enumerate() {
        let diverged = |facet, batched: String, solo: String| Violation::BatchDivergence {
            window,
            index,
            facet,
            batched,
            solo,
        };
        let result = match outcome {
            BatchOutcome::Finished(result) => result,
            BatchOutcome::DeadlineExpired => {
                return Err(diverged(
                    "outcome",
                    "deadline-expired".into(),
                    "finished".into(),
                ));
            }
            BatchOutcome::Error(e) => {
                return Err(diverged("outcome", format!("{e:?}"), "finished".into()));
            }
        };
        let got = result.solutions.canonicalize();
        let want = solo.solutions.canonicalize();
        if got != want {
            return Err(diverged(
                "solutions",
                format!("{} rows", got.len()),
                format!("{} rows", want.len()),
            ));
        }
        if result.complete != solo.complete {
            return Err(diverged(
                "complete",
                result.complete.to_string(),
                solo.complete.to_string(),
            ));
        }
        let got_blamed = blamed(&result.failures);
        let want_blamed = blamed(&solo.failures);
        if got_blamed != want_blamed {
            return Err(diverged(
                "failures",
                format!("{got_blamed:?}"),
                format!("{want_blamed:?}"),
            ));
        }
        let planned = |m: &lusail_core::QueryMetrics| {
            format!(
                "{} subqueries, {} delayed, gjvs {:?}, {} check queries",
                m.subqueries, m.delayed_subqueries, m.gjvs, m.check_queries
            )
        };
        if planned(&result.metrics) != planned(&solo.metrics) {
            return Err(diverged(
                "metrics",
                planned(&result.metrics),
                planned(&solo.metrics),
            ));
        }
    }

    if window == 1 && batched_window != solo_window {
        return Err(Violation::BatchDivergence {
            window,
            index: 0,
            facet: "bytes",
            batched: format!("{batched_window:?}"),
            solo: format!("{solo_window:?}"),
        });
    }

    if batched_wire > solo_wire {
        return Err(Violation::BatchDivergence {
            window,
            index: 0,
            facet: "wire",
            batched: format!("{batched_wire} requests"),
            solo: format!("{solo_wire} requests"),
        });
    }
    if clean && report.wire_requests_saved > 0 && batched_wire >= solo_wire {
        return Err(Violation::BatchDivergence {
            window,
            index: 0,
            facet: "wire",
            batched: format!(
                "{batched_wire} requests (claims {} saved)",
                report.wire_requests_saved
            ),
            solo: format!("{solo_wire} requests"),
        });
    }
    Ok(report)
}

/// [`check`] with a [`LusailTuning`] override, so sweeps can exercise the
/// adaptive `VALUES` batching and bound-subquery paths that the default
/// `block_size` of 100 never reaches on small generated cases.
pub fn check_tuned(
    case: &Case,
    engine: EngineKind,
    faults: &FaultSpec,
    tuning: LusailTuning,
) -> Result<(), Violation> {
    let (fed, locals) = case.federation(faults);
    observe_on(
        case,
        engine,
        &fed,
        &locals,
        faults.is_clean(),
        1,
        Some(tuning),
    )
    .map(drop)
}

/// [`check`] over a *replicated* federation (see
/// [`Case::replicated_federation`]). `require_complete` encodes the
/// failover guarantee: when the fault plan leaves every replica group a
/// healthy member (e.g. a [`FaultSpec::random_primary_kill`] plan at
/// replication ≥ 2), the engines must return the exact oracle answer
/// *and* flag it complete — an incomplete outcome is itself a violation.
/// With `require_complete` false (e.g. a whole group killed) the ordinary
/// honesty contract applies.
pub fn check_replicated(
    case: &Case,
    engine: EngineKind,
    faults: &FaultSpec,
    replication: usize,
    require_complete: bool,
) -> Result<(), Violation> {
    let (fed, locals) = case.replicated_federation(faults, replication);
    let run = observe_on(case, engine, &fed, &locals, faults.is_clean(), 1, None)?;
    if require_complete && !run.complete {
        return Err(Violation::DegradedDespiteReplicas);
    }
    Ok(())
}

/// The oracle contract applied to an already-obtained outcome: exact
/// equality when clean (or claimed complete), honesty (subset +
/// subsumption) when degraded, and the `LIMIT` row-count rules.
fn check_outcome(
    case: &Case,
    clean: bool,
    outcome: &lusail_endpoint::QueryOutcome,
) -> Result<(), Violation> {
    let got = outcome.solutions.canonicalize();
    let full = oracle_solutions(case);

    if clean || outcome.complete {
        // A clean run — or a faulty one that *claims* completeness — must
        // match the oracle exactly.
        match case.query.limit {
            None => {
                if got != full {
                    return Err(if clean {
                        Violation::Mismatch {
                            got: got.len(),
                            want: full.len(),
                        }
                    } else {
                        Violation::FalseComplete {
                            got: got.len(),
                            want: full.len(),
                        }
                    });
                }
            }
            Some(k) => {
                let want = k.min(full.len());
                if got.len() != want {
                    return Err(if clean {
                        Violation::WrongLimitCount {
                            got: got.len(),
                            want,
                        }
                    } else {
                        Violation::FalseComplete {
                            got: got.len(),
                            want,
                        }
                    });
                }
            }
        }
    } else if let Some(k) = case.query.limit {
        if got.len() > k {
            return Err(Violation::WrongLimitCount {
                got: got.len(),
                want: k.min(full.len()),
            });
        }
    }

    // Under faults (and with LIMIT in any mode) every returned row must
    // still be backed by an oracle row: degradation may lose answers,
    // never invent them. One wrinkle: when an OPTIONAL group's endpoint
    // dies, engines legitimately degrade a row to its mandatory bindings
    // with the optional variables unbound. An incomplete outcome may
    // therefore report a row *subsumed* by an oracle row — every bound
    // cell agrees, and unbound cells are confined to variables bound only
    // inside OPTIONAL groups. Complete (and clean) outcomes get no such
    // slack.
    let optional_only: Vec<bool> = got
        .vars
        .iter()
        .map(|v| {
            !case.query.pattern.triples.iter().any(|tp| tp.mentions(v))
                && mentioned_in_optionals(&case.query.pattern, v)
        })
        .collect();
    let may_degrade = !clean && !outcome.complete;
    for row in got.rows.iter() {
        let exact = full.rows.iter().any(|oracle_row| oracle_row == row);
        let subsumed = may_degrade
            && full.rows.iter().any(|oracle_row| {
                row.iter()
                    .zip(oracle_row)
                    .enumerate()
                    .all(|(i, (r, o))| match r {
                        None => optional_only[i] || o.is_none(),
                        Some(_) => r == o,
                    })
            });
        if !exact && !subsumed {
            return Err(Violation::SpuriousRow {
                row: render_row(&got.vars, row, case),
            });
        }
    }
    Ok(())
}

/// The trace invariants every engine must uphold (clean *and* faulted):
///
/// 1. The wire attempts summed over the trace's request events equal the
///    federation's request counters, per kind. Retried requests count
///    once per attempt in both; circuit-broken requests count in
///    neither. (`Check` queries are wire-level SELECTs, so their
///    attempts merge into the select counter.)
/// 2. Every subquery recorded as delayed carries a delay reason.
/// 3. The trace ends with exactly one query-finished event — nothing is
///    recorded after it.
pub fn check_trace_invariants(trace: &QueryTrace, window: &StatsSnapshot) -> Result<(), Violation> {
    let checks: [(&'static str, u64, u64); 3] = [
        (
            "ask",
            trace.requests(RequestKind::Ask).attempts,
            window.ask_requests,
        ),
        (
            "count",
            trace.requests(RequestKind::Count).attempts,
            window.count_requests,
        ),
        (
            "select+check",
            trace.select_wire_attempts(),
            window.select_requests,
        ),
    ];
    for (kind, trace_attempts, stats_requests) in checks {
        if trace_attempts != stats_requests {
            return Err(Violation::TraceRequestMismatch {
                kind,
                trace_attempts,
                stats_requests,
            });
        }
    }
    if let Some(&index) = trace.delayed_without_reason().first() {
        return Err(Violation::MissingDelayReason { index });
    }
    if trace.finish_index().is_none() {
        return Err(Violation::MissingFinish);
    }
    let count = trace.events_after_finish();
    if count > 0 {
        return Err(Violation::EventsAfterFinish { count });
    }
    Ok(())
}

/// True when `var` occurs in some OPTIONAL group (recursively) of `g`.
fn mentioned_in_optionals(g: &lusail_sparql::ast::GroupPattern, var: &str) -> bool {
    g.optionals.iter().any(|opt| {
        opt.triples.iter().any(|tp| tp.mentions(var)) || mentioned_in_optionals(opt, var)
    })
}

fn render_row(vars: &[String], row: &[Option<lusail_rdf::TermId>], case: &Case) -> String {
    vars.iter()
        .zip(row)
        .map(|(v, cell)| match cell {
            Some(id) => format!("?{v}={}", case.dict.decode(*id)),
            None => format!("?{v}=UNDEF"),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenConfig;

    #[test]
    fn engine_kind_parses_case_insensitively() {
        assert_eq!(EngineKind::parse("lusail"), Some(EngineKind::Lusail));
        assert_eq!(EngineKind::parse("FEDX"), Some(EngineKind::FedX));
        assert_eq!(EngineKind::parse("HiBisCuS"), Some(EngineKind::Hibiscus));
        assert_eq!(EngineKind::parse("splendid"), Some(EngineKind::Splendid));
        assert_eq!(EngineKind::parse("virtuoso"), None);
    }

    #[test]
    fn a_handful_of_clean_cases_pass_for_every_engine() {
        let cfg = GenConfig::default();
        for seed in 0..6 {
            let case = Case::generate(seed, &cfg);
            for engine in EngineKind::ALL {
                if let Err(v) = check(&case, engine, &FaultSpec::default()) {
                    panic!("seed {seed} engine {}: {v}", engine.name());
                }
            }
        }
    }
}
