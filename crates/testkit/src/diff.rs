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
//!
//! [`observe`] holds one run to that contract and to the trace invariants.
//! Every further oracle is one relation over its [`Observation`]s: a row
//! of [`AXES`] names [`Setup`]s whose runs must [`compare`] equal in
//! solutions and completeness, with each counter under `=` or `≤`.

use crate::gen::{Case, FaultSpec};
pub use lusail_baselines::EngineKind;
use lusail_benchdata::common::Rng;
use lusail_core::{Lusail, LusailConfig, QueryTrace, RequestKind, TraceEvent, TraceSink};
use lusail_endpoint::{ExecOptions, LocalEndpoint, RequestPolicy, StatsSnapshot};
use lusail_sparql::SolutionSet;
use lusail_store::BackendKind::{self, Btree, Columns};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::sync::Arc;
use std::time::Duration;
use Rel::{Equal, Free, RightLe};

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
    /// Trace invariant: a subquery was evaluated (or served from a batch
    /// memo) more than once, or without exactly one plan.
    SubqueryAccounting {
        /// The subquery's query-wide index.
        index: usize,
        /// Evaluated and shared events naming it.
        evaluated: usize,
        /// Planned events naming it.
        planned: usize,
    },
    /// Trace invariant: a delayed subquery fetched whole from an endpoint
    /// sent it other than one `SELECT` request, or a `VALUES` block too.
    WholeFetchAccounting {
        /// The subquery's query-wide index.
        subquery: usize,
        /// The endpoint it was fetched whole from.
        endpoint: usize,
        /// `SELECT` requests to the endpoint while the subquery ran.
        selects: usize,
        /// `VALUES` blocks shipped to the endpoint for the subquery.
        values_blocks: usize,
    },
    /// Trace invariant: an enabled trace has no query-finished event.
    MissingFinish,
    /// Trace invariant: events were recorded after query-finished.
    EventsAfterFinish {
        /// How many trailing events follow the finish.
        count: usize,
    },
    /// Every replica group (a lone endpoint is a group of one) kept a
    /// healthy member, yet the outcome was flagged incomplete.
    DegradedDespiteReplicas,
    /// Two things that must be observationally related were not: an
    /// [`AXES`] row's sides (through [`compare`]), the solo runs and the
    /// batch (axis `batched`, from [`check_batched`]), or the trace and
    /// the federation's counters (axis `trace`).
    Divergence {
        /// The axis name.
        axis: &'static str,
        /// Which facet broke its relation: `solutions`, `complete`,
        /// `planned`, one of [`COUNTERS`], `window` (the whole counter
        /// window), or a batch-only facet (`outcome`, `failures`,
        /// `metrics`, `wire`).
        facet: &'static str,
        /// The facet's value on the left-hand side.
        left: String,
        /// The facet's value on the right-hand side.
        right: String,
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
            Violation::SubqueryAccounting {
                index,
                evaluated,
                planned,
            } => write!(
                f,
                "subquery {index} was evaluated {evaluated} time(s) and planned \
                 {planned} time(s); each must be exactly once"
            ),
            Violation::WholeFetchAccounting {
                subquery,
                endpoint,
                selects,
                values_blocks,
            } => write!(
                f,
                "subquery {subquery} fetched whole from endpoint {endpoint} sent it \
                 {selects} SELECT request(s) and {values_blocks} VALUES block(s); \
                 it must be one request and no block"
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
            Violation::Divergence {
                axis,
                facet,
                left,
                right,
            } => write!(
                f,
                "axis `{axis}` diverged on {facet}: left {left}, right {right}"
            ),
        }
    }
}

/// The request policy of a run: in a clean one nothing fails, so the
/// default (whose retries never fire) serves; a faulty one gets
/// [`faulty_policy`].
pub fn policy(clean: bool) -> RequestPolicy {
    if clean {
        RequestPolicy::default()
    } else {
        faulty_policy()
    }
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
        trip_threshold: 3,
        // Cooldown far above the µs-scale wall time of a differential run:
        // a tripped endpoint stays tripped for the whole query.
        open_cooldown: Duration::from_secs(30),
    }
}

/// Evaluates the case's query on the merged oracle store, without `LIMIT`
/// (the caller accounts for it). Returns the canonicalized solutions.
pub fn oracle_solutions(case: &Case) -> SolutionSet {
    let mut q = case.query.clone();
    q.limit = None;
    lusail_store::eval::evaluate(&case.oracle(), &q).canonicalize()
}

/// Everything about a run that an axis may vary.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Attach [`EndpointStats`](lusail_store::EndpointStats) built from
    /// every *healthy* endpoint's store. Faulted endpoints get none — the
    /// state invalidation converges to after a death is observed — so
    /// conclusive answers never speak for data the engine cannot reach.
    pub stats: bool,
    /// The storage backend the endpoints' stores are materialized into.
    pub backend: BackendKind,
    /// The worker budget ([`ExecOptions::with_threads`]).
    pub threads: usize,
    /// Lusail's `LusailConfig::block_size` (`None` = its default). A tiny
    /// one forces real `VALUES` batching — the probe block, then the blocks
    /// sized from its response — even on the small generated cases, so the
    /// batching machinery is exercised under the oracle contract rather
    /// than skipped for fitting in one block.
    pub block_size: Option<usize>,
    /// Copies of every endpoint (1 = unreplicated; see
    /// `Case::federation_on` for the id layout fault plans index).
    pub replication: usize,
}

impl Setup {
    /// The setup sweeps start from and axes edit.
    pub const BASE: Setup = Setup {
        stats: false,
        backend: Btree,
        threads: 1,
        block_size: None,
        replication: 1,
    };
}

/// Everything observable about one run.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The setup the run was observed under (quoted by [`compare`]).
    pub setup: Setup,
    /// Canonicalized solution multiset.
    pub solutions: SolutionSet,
    /// The outcome's completeness flag.
    pub complete: bool,
    /// Request counters accumulated during the run.
    pub window: StatsSnapshot,
    /// What the trace says was planned: subqueries, global join variables,
    /// delayed subqueries (all zero for an engine that plans none).
    pub planned: [usize; 3],
}

/// The one run every check goes through: builds the case's federation as
/// `setup` says, runs `engine` over it, enforces the oracle contract
/// (strict equality when `faults.is_clean()`, else subset + completeness
/// honesty) *and* the trace invariants, and returns the [`Observation`].
/// When the plan leaves every replica group a healthy member (a clean
/// plan, or a [`FaultSpec::random_primary_kill`] one at replication ≥ 2)
/// nothing can be lost, so an incomplete outcome is itself a violation.
pub fn observe(
    case: &Case,
    engine: EngineKind,
    faults: &FaultSpec,
    setup: &Setup,
) -> Result<Observation, Violation> {
    let clean = faults.is_clean();
    let (fed, locals) = case.federation_on(faults, setup.backend, setup.replication);
    if setup.stats {
        for (i, ep) in locals.iter().enumerate() {
            if faults.healthy(i) {
                fed.attach_stats(i, Arc::new(lusail_store::EndpointStats::build(ep.store())));
            }
        }
    }
    // The index-building baselines preprocess the endpoint handles: their
    // offline phase sees clean data even when the federation injects
    // faults at query time.
    let refs: Vec<&LocalEndpoint> = locals.iter().map(|e| e.as_ref()).collect();
    let defaults = LusailConfig::default();
    let lusail = LusailConfig {
        block_size: setup.block_size.unwrap_or(defaults.block_size),
        ..defaults
    };
    let runner = engine.build(&refs, lusail, policy(clean));
    let before = fed.stats_snapshot();
    let sink = TraceSink::enabled();
    let opts = ExecOptions::default()
        .with_threads(setup.threads)
        .with_trace(sink.clone());
    let outcome = runner
        .run_with(&fed, &case.query, &opts)
        .map_err(|e| Violation::EngineError(format!("{e:?}")))?;
    let window = fed.stats_snapshot().since(&before);
    let trace = QueryTrace::from_sink(&sink);
    check_trace_invariants(&trace, &window, engine)?;
    let (solutions, complete) = (outcome.solutions.canonicalize(), outcome.complete);
    check_outcome(case, clean, &solutions, complete)?;
    if !complete && faults.spares_every_group(case.n_endpoints, setup.replication) {
        return Err(Violation::DegradedDespiteReplicas);
    }
    Ok(Observation {
        setup: *setup,
        solutions,
        complete,
        window,
        planned: trace.planned(),
    })
}

/// How the right-hand side of an axis must relate to the left on one
/// counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// The counters coincide.
    Equal,
    /// The right-hand side never counts more — it is a pure saving.
    RightLe,
    /// Unconstrained.
    Free,
}

impl Rel {
    fn holds(self, left: u64, right: u64) -> bool {
        match self {
            Rel::Equal => left == right,
            Rel::RightLe => right <= left,
            Rel::Free => true,
        }
    }
}

/// Reads one counter out of a window.
pub type Counter = fn(&StatsSnapshot) -> u64;

/// The counter facets an axis relates, in [`Axis::counters`] order: the
/// per-kind wire requests, the store rows scanned and the wire requests
/// of all kinds together.
pub const COUNTERS: [(&str, Counter); 5] = [
    ("ask", |w| w.ask_requests),
    ("count", |w| w.count_requests),
    ("select", |w| w.select_requests),
    ("rows_scanned", |w| w.rows_scanned),
    ("requests", |w| w.total_requests()),
];

/// One differential oracle: the runs under `left` and under each of
/// `rights` (edits of a sweep's base [`Setup`]; the left is observed once
/// per case) must agree on solutions, completeness and what was planned,
/// and relate on the counters as the row says. Every run also passes [`observe`]'s own
/// contract.
pub struct Axis {
    /// The row's name, quoted in [`Violation::Divergence`].
    pub name: &'static str,
    /// The left-hand setup.
    pub left: fn(Setup) -> Setup,
    /// The right-hand setups, each compared against the left.
    pub rights: &'static [fn(Setup) -> Setup],
    /// The relation on each of [`COUNTERS`].
    pub counters: [Rel; 5],
    /// Whether the whole counter window (bytes both ways, rows returned,
    /// fault injections, …) must coincide too.
    pub whole_window: bool,
    /// The fault family the relation is invariant under. Transient fates
    /// are drawn per request *index*, so [`FaultSpec::random`] only suits
    /// an axis whose sides issue identical request streams; one that
    /// elides requests needs [`FaultSpec::random_dead_only`].
    pub faults: fn(&mut Rng, usize) -> FaultSpec,
    /// XOR-ed into the case seed to seed the fault plan.
    pub salt: u64,
}

/// The differential axes.
///
/// * `stats` — statistics may only *elide* probes: identical answers,
///   per-kind wire requests with stats attached ≤ without.
/// * `backends` — BTree indexes and compressed sorted columns are
///   byte-identical in everything observable. Identity (not mere
///   equivalence) holds because generated cases are smaller than the
///   BTree estimate cap, so both backends hand `plan_bgp_order` the same
///   exact estimates, hence the same plans, scans and request streams.
/// * `threads` — the worker budget is a physical knob: the executor
///   preserves each endpoint's request subsequence exactly, so the same
///   faults fire on the same requests at any budget.
pub const AXES: &[Axis] = &[
    Axis {
        name: "stats",
        left: |s| Setup { stats: false, ..s },
        rights: &[|s| Setup { stats: true, ..s }],
        counters: [RightLe, RightLe, RightLe, Free, RightLe],
        whole_window: false,
        faults: FaultSpec::random_dead_only,
        salt: 0xFA17_0000_0000_0002,
    },
    Axis {
        name: "backends",
        left: |s| Setup {
            backend: Btree,
            ..s
        },
        rights: &[|s| Setup {
            backend: Columns,
            ..s
        }],
        counters: [Equal; 5],
        whole_window: true,
        faults: FaultSpec::random,
        salt: 0xFA17_0000_0000_0003,
    },
    Axis {
        name: "threads",
        left: |s| Setup { threads: 1, ..s },
        rights: &[|s| Setup { threads: 2, ..s }, |s| Setup { threads: 8, ..s }],
        counters: [Equal; 5],
        whole_window: true,
        faults: FaultSpec::random,
        salt: 0xFA17_0000_0000_0001,
    },
];

impl Axis {
    /// The [`AXES`] row called `name`.
    pub fn named(name: &str) -> &'static Axis {
        AXES.iter()
            .find(|axis| axis.name == name)
            .unwrap_or_else(|| panic!("no differential axis named {name:?}"))
    }
}

/// The one differential relation: `left` and `right` must agree on
/// solutions, completeness and what was planned, and on each counter as
/// `axis` says.
pub fn compare(axis: &Axis, left: &Observation, right: &Observation) -> Result<(), Violation> {
    let fail = |facet, l: &dyn Display, r: &dyn Display| {
        Err(Violation::Divergence {
            axis: axis.name,
            facet,
            left: format!("{l} under {:?}", left.setup),
            right: format!("{r} under {:?}", right.setup),
        })
    };
    if left.solutions != right.solutions {
        let rows = |o: &Observation| format!("{} rows", o.solutions.len());
        return fail("solutions", &rows(left), &rows(right));
    }
    if left.complete != right.complete {
        return fail("complete", &left.complete, &right.complete);
    }
    if left.planned != right.planned {
        let plan = |o: &Observation| {
            let [subqueries, gjvs, delayed] = o.planned;
            format!("{subqueries} subqueries, {gjvs} GJVs, {delayed} delayed")
        };
        return fail("planned", &plan(left), &plan(right));
    }
    for ((facet, counter), rel) in COUNTERS.iter().zip(axis.counters) {
        let (l, r) = (counter(&left.window), counter(&right.window));
        if !rel.holds(l, r) {
            return fail(facet, &l, &r);
        }
    }
    if axis.whole_window && left.window != right.window {
        let (l, r) = (left.window, right.window);
        return fail("window", &format_args!("{l:?}"), &format_args!("{r:?}"));
    }
    Ok(())
}

/// The batched-vs-solo differential — the one oracle that is not a pair
/// of [`Setup`]s: `window` sequential solo runs of the case's query
/// against the same `window` copies submitted as one MQO batch, reported
/// as [`Violation::Divergence`] on axis `batched` (left = solo, right =
/// batch). Item `i` of the batch must be indistinguishable from solo run
/// `i`: byte-identical canonicalized solutions, the same completeness
/// flag, failure attribution (the set of endpoints blamed) and planning
/// metrics — the memo may elide fetches, never change what was planned.
///
/// The solo baseline is exactly what a server with batching disabled
/// does: one engine executes the window's queries sequentially, probe
/// caches shared, subquery sharing off — so engine-cache warming is
/// identical on both sides and the *only* difference under test is the
/// batch's shared-relation memo. Faulted sweeps must use
/// [`FaultSpec::random_dead_only`] plans, the fault family invariant
/// under the elision (and reordering) of requests.
///
/// Wire contract: batching is a pure saving — the batch never issues
/// more total requests than the sequential baseline, and in a clean run
/// whose report claims saved requests, strictly fewer. A batch of one has
/// nothing to share, so its whole counter window must *equal* solo's.
///
/// Returns the batch's [`BatchReport`](lusail_core::BatchReport) so
/// sweeps can assert aggregate sharing coverage.
pub fn check_batched(
    case: &Case,
    faults: &FaultSpec,
    window: usize,
    threads: usize,
) -> Result<lusail_core::BatchReport, Violation> {
    use lusail_core::{BatchItem, BatchOutcome, QueryResult};

    let clean = faults.is_clean();
    let engine = || Lusail::default().with_policy(policy(clean));
    let opts = ExecOptions::default().with_threads(threads);

    // Solo baseline: sequential runs on one engine, own federation.
    let (fed, _locals) = case.federation(faults);
    let solo_engine = engine();
    let before = fed.stats_snapshot();
    let solos = (0..window)
        .map(|_| solo_engine.execute_with(&fed, &case.query, &opts))
        .collect::<Result<Vec<QueryResult>, _>>()
        .map_err(|e| Violation::EngineError(format!("{e:?}")))?;
    let solo_window = fed.stats_snapshot().since(&before);

    // The solo answers themselves stay under the ordinary oracle
    // contract when nothing is faulted (LIMIT aside — any k oracle rows
    // are correct, and the batched side must simply pick the same ones).
    if clean && case.query.limit.is_none() {
        let want = oracle_solutions(case);
        let mut answers = solos.iter().map(|solo| solo.solutions.canonicalize());
        if let Some(got) = answers.find(|got| *got != want) {
            let (got, want) = (got.len(), want.len());
            return Err(Violation::Mismatch { got, want });
        }
    }

    // Batched run: the same window of queries as one MQO batch.
    let (fed, _locals) = case.federation(faults);
    let query = case.query.clone();
    let items = vec![BatchItem { query, opts }; window];
    let before = fed.stats_snapshot();
    let (outcomes, report) = engine().execute_batch_with(&fed, &items);
    let batch_window = fed.stats_snapshot().since(&before);

    let diverged = |facet, solo: String, batch: String| Violation::Divergence {
        axis: "batched",
        facet,
        left: solo,
        right: batch,
    };
    // What an item must share with its solo run beyond the solutions.
    let facets = |r: &QueryResult| {
        let blamed: std::collections::BTreeSet<&str> = r
            .failures
            .iter()
            .filter(|f| f.failed_requests > 0 || f.dead)
            .map(|f| f.name.as_str())
            .collect();
        let m = &r.metrics;
        let planned = format!(
            "{} subqueries, {} delayed, gjvs {:?}, {} check queries",
            m.subqueries, m.delayed_subqueries, m.gjvs, m.check_queries
        );
        [
            ("complete", r.complete.to_string()),
            ("failures", format!("{blamed:?}")),
            ("metrics", planned),
        ]
    };
    for (i, (outcome, solo)) in outcomes.iter().zip(&solos).enumerate() {
        let item = |value: &dyn Display| format!("{value} (item {i} of {window})");
        let BatchOutcome::Finished(result) = outcome else {
            let outcome = format!("{outcome:?}");
            return Err(diverged("outcome", item(&"finished"), item(&outcome)));
        };
        if result.solutions.canonicalize() != solo.solutions.canonicalize() {
            let rows = |r: &QueryResult| item(&format_args!("{} rows", r.solutions.len()));
            return Err(diverged("solutions", rows(solo), rows(result)));
        }
        for ((facet, solo), (_, batch)) in facets(solo).into_iter().zip(facets(result)) {
            if solo != batch {
                return Err(diverged(facet, item(&solo), item(&batch)));
            }
        }
    }

    let (solo_wire, batch_wire) = (solo_window.total_requests(), batch_window.total_requests());
    let claimed = report.wire_requests_saved;
    let whole = |facet| {
        Err(diverged(
            facet,
            format!("{solo_wire} requests in {window} solo runs: {solo_window:?}"),
            format!(
                "{batch_wire} requests, {claimed} claimed saved, in one batch: {batch_window:?}"
            ),
        ))
    };
    if window == 1 && batch_window != solo_window {
        return whole("window");
    }
    if batch_wire > solo_wire || (clean && claimed > 0 && batch_wire == solo_wire) {
        return whole("wire");
    }
    Ok(report)
}

/// The oracle contract applied to an outcome's canonicalized solutions
/// and completeness flag: exact equality when clean (or claimed
/// complete), honesty (subset + subsumption) when degraded, and the
/// `LIMIT` row-count rules.
fn check_outcome(
    case: &Case,
    clean: bool,
    got: &SolutionSet,
    complete: bool,
) -> Result<(), Violation> {
    let full = oracle_solutions(case);

    if clean || complete {
        // A clean run — or a faulty one that *claims* completeness — must
        // match the oracle exactly.
        match case.query.limit {
            None => {
                if *got != full {
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
    let may_degrade = !clean && !complete;
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
///    federation's request counters (a [`Violation::Divergence`] on axis
///    `trace` otherwise). Retried requests count once per attempt in both;
///    circuit-broken requests count in neither. A trace labels a request by
///    what it was *for*. The baselines send one request per probe, each
///    travelling as its own kind, so theirs are held equal kind by kind.
///    Lusail's coalesced probes travel as SELECTs, so only its totals can
///    be.
/// 2. Every subquery evaluated or served from a batch memo is so exactly
///    once, and is planned exactly once: subquery numbers are query-wide,
///    so a nested group's subqueries never reuse the WHERE group's.
/// 3. A delayed subquery fetched whole from an endpoint sends it exactly
///    one `SELECT` request (its retries are attempts of that one request)
///    and no `VALUES` block: phase 2 runs one delayed subquery at a time,
///    so every request between the whole-fetch mark and the subquery's
///    evaluated event is the subquery's.
/// 4. The trace ends with exactly one query-finished event — nothing is
///    recorded after it.
pub fn check_trace_invariants(
    trace: &QueryTrace,
    window: &StatsSnapshot,
    engine: EngineKind,
) -> Result<(), Violation> {
    let attempts = |kind| trace.requests(kind).attempts;
    let per_kind = [
        ("ask", attempts(RequestKind::Ask), window.ask_requests),
        ("count", attempts(RequestKind::Count), window.count_requests),
        (
            "select",
            attempts(RequestKind::Select),
            window.select_requests,
        ),
    ];
    let traced = RequestKind::ALL.into_iter().map(attempts).sum();
    let total = [("requests", traced, window.total_requests())];
    let facets = match engine {
        EngineKind::Lusail => &total[..],
        _ => &per_kind[..],
    };
    for (facet, traced, counted) in facets {
        if traced != counted {
            return Err(Violation::Divergence {
                axis: "trace",
                facet,
                left: format!("{traced} wire attempts traced"),
                right: format!("{counted} requests counted by the federation"),
            });
        }
    }
    let mut subqueries: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    for ev in &trace.events {
        match ev {
            TraceEvent::SubqueryEvaluated { index, .. }
            | TraceEvent::SubqueryShared { index, .. } => {
                subqueries.entry(*index).or_default().0 += 1
            }
            TraceEvent::SubqueryPlanned { index, .. } => {
                subqueries.entry(*index).or_default().1 += 1
            }
            _ => {}
        }
    }
    let misaccounted = (subqueries.into_iter())
        .find(|&(_, (evaluated, planned))| evaluated > 1 || (evaluated == 1 && planned != 1));
    if let Some((index, (evaluated, planned))) = misaccounted {
        return Err(Violation::SubqueryAccounting {
            index,
            evaluated,
            planned,
        });
    }
    check_whole_fetches(trace)?;
    if trace.finish_index().is_none() {
        return Err(Violation::MissingFinish);
    }
    let count = trace.events_after_finish();
    if count > 0 {
        return Err(Violation::EventsAfterFinish { count });
    }
    Ok(())
}

/// Invariant 3 of [`check_trace_invariants`].
fn check_whole_fetches(trace: &QueryTrace) -> Result<(), Violation> {
    for (at, ev) in trace.events.iter().enumerate() {
        let &TraceEvent::WholeFetched {
            subquery, endpoint, ..
        } = ev
        else {
            continue;
        };
        let ran = (trace.events[at..].iter()).take_while(
            |ev| !matches!(ev, TraceEvent::SubqueryEvaluated { index, .. } if *index == subquery),
        );
        let selects = ran
            .filter(|ev| {
                matches!(ev, TraceEvent::Request { endpoint: e, kind: RequestKind::Select, .. }
                    if *e == endpoint)
            })
            .count();
        let values_blocks = (trace.events.iter())
            .filter(|ev| {
                matches!(ev, TraceEvent::ValuesBatch { subquery: s, endpoint: e, .. }
                    if (*s, *e) == (subquery, endpoint))
            })
            .count();
        if (selects, values_blocks) != (1, 0) {
            return Err(Violation::WholeFetchAccounting {
                subquery,
                endpoint,
                selects,
                values_blocks,
            });
        }
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
                if let Err(v) = observe(&case, engine, &FaultSpec::default(), &Setup::BASE) {
                    panic!("seed {seed} engine {}: {v}", engine.name());
                }
            }
        }
    }

    /// The oracle rejecting: for every row and every facet, a right-hand
    /// side that differs from the left in that facet alone is a
    /// `Divergence` naming the row and the facet exactly when the row
    /// constrains it — `Equal` both ways, `RightLe` only when the right
    /// counts more. (`requests` is the sum of the three kinds, so it moves
    /// with each of them and is named when the kind itself is free.)
    #[test]
    fn every_axis_rejects_a_divergence_in_each_facet_it_constrains() {
        let left = Observation {
            setup: Setup::BASE,
            solutions: SolutionSet::unit(),
            complete: true,
            window: StatsSnapshot {
                ask_requests: 5,
                count_requests: 5,
                select_requests: 5,
                rows_scanned: 5,
                bytes_sent: 5,
                ..StatsSnapshot::default()
            },
            planned: [2, 1, 0],
        };
        type Mutation = fn(&mut Observation, i64);
        fn moved(counter: &mut u64, by: i64) {
            *counter = counter.checked_add_signed(by).expect("small counters");
        }
        // Mover `i` moves the counter `COUNTERS[i]` reads, and the total
        // with it when that is a request kind.
        let movers: [Mutation; 4] = [
            |o, by| moved(&mut o.window.ask_requests, by),
            |o, by| moved(&mut o.window.count_requests, by),
            |o, by| moved(&mut o.window.select_requests, by),
            |o, by| moved(&mut o.window.rows_scanned, by),
        ];
        let (total, get_total) = (COUNTERS.len() - 1, COUNTERS[COUNTERS.len() - 1].1);
        for (i, mover) in movers.iter().enumerate() {
            let mut probe = left.clone();
            mover(&mut probe, 72);
            let get = COUNTERS[i].1;
            assert_eq!(get(&probe.window), get(&left.window) + 72);
            let with_it = if i < 3 { 72 } else { 0 };
            assert_eq!(get_total(&probe.window), get_total(&left.window) + with_it);
        }
        for axis in AXES {
            compare(axis, &left, &left).expect("an observation agrees with itself");
            // A mutation, and the facets it moves in the order `compare`
            // looks at them.
            let mut cases: Vec<(Vec<(&str, Rel)>, Mutation)> = vec![
                (vec![("solutions", Equal)], |o, _| {
                    o.solutions = SolutionSet::empty(vec![])
                }),
                (vec![("complete", Equal)], |o, _| o.complete = false),
                (vec![("planned", Equal)], |o, _| o.planned[2] += 1),
                (
                    vec![("window", if axis.whole_window { Equal } else { Free })],
                    |o, by| moved(&mut o.window.bytes_sent, by),
                ),
            ];
            for (i, mover) in movers.into_iter().enumerate() {
                let mut facets = vec![(COUNTERS[i].0, axis.counters[i])];
                if i < 3 {
                    facets.push((COUNTERS[total].0, axis.counters[total]));
                }
                cases.push((facets, mover));
            }
            for (facets, mutate) in cases {
                for by in [-1, 1] {
                    let mut right = left.clone();
                    mutate(&mut right, by);
                    let rejected = match compare(axis, &left, &right) {
                        Ok(()) => None,
                        Err(Violation::Divergence {
                            axis: a, facet: f, ..
                        }) => {
                            assert_eq!(a, axis.name);
                            Some(f)
                        }
                        Err(other) => panic!("axis {} facets {facets:?}: {other}", axis.name),
                    };
                    let rejects = |rel: &Rel| match rel {
                        Free => false,
                        Equal => true,
                        RightLe => by > 0,
                    };
                    let expected = (facets.iter().find(|(_, rel)| rejects(rel))).map(|(f, _)| *f);
                    assert_eq!(
                        rejected, expected,
                        "axis {} facets {facets:?} right-hand moved by {by}",
                        axis.name
                    );
                }
            }
        }
    }

    /// A source a delayed subquery was fetched whole from gets one SELECT
    /// request and no VALUES block.
    #[test]
    fn a_whole_fetch_is_one_select_and_no_block() {
        let whole = TraceEvent::WholeFetched {
            subquery: 1,
            endpoint: 2,
            rows_bound: 5,
        };
        let select = |endpoint| TraceEvent::Request {
            endpoint,
            kind: RequestKind::Select,
            attempts: 1,
            error: None,
        };
        let block = |endpoint| TraceEvent::ValuesBatch {
            subquery: 1,
            endpoint,
            bindings: 3,
        };
        let check = |events: Vec<TraceEvent>| {
            let finish = [
                TraceEvent::SubqueryEvaluated { index: 1, rows: 5 },
                select(2), // a later subquery's request
                TraceEvent::QueryFinished {
                    rows: 5,
                    complete: true,
                },
            ];
            let planned = TraceEvent::SubqueryPlanned {
                index: 1,
                delay_reason: Some("test".into()),
            };
            let events = [&[planned, whole.clone()][..], &events, &finish].concat();
            let selects = events
                .iter()
                .filter(|ev| matches!(ev, TraceEvent::Request { .. }));
            let window = StatsSnapshot {
                select_requests: selects.count() as u64,
                ..StatsSnapshot::default()
            };
            match check_trace_invariants(&QueryTrace { events }, &window, EngineKind::Lusail) {
                Err(Violation::WholeFetchAccounting {
                    selects,
                    values_blocks,
                    ..
                }) => Some((selects, values_blocks)),
                Ok(()) => None,
                Err(other) => panic!("{other}"),
            }
        };
        assert_eq!(check(vec![block(0), select(0), select(2)]), None);
        assert_eq!(check(vec![select(0)]), Some((0, 0)));
        assert_eq!(check(vec![select(2), select(2)]), Some((2, 0)));
        assert_eq!(check(vec![block(2), select(2)]), Some((1, 1)));
    }

    /// A subquery number names one subquery: evaluated or shared at most
    /// once, and then planned exactly once. Nested groups that reused the
    /// WHERE group's numbers broke both.
    #[test]
    fn each_subquery_is_planned_and_evaluated_once() {
        let planned = |index| TraceEvent::SubqueryPlanned {
            index,
            delay_reason: None,
        };
        let evaluated = |index| TraceEvent::SubqueryEvaluated { index, rows: 1 };
        let shared = |index| TraceEvent::SubqueryShared {
            index,
            saved_requests: 1,
        };
        let check = |mut events: Vec<TraceEvent>| {
            events.push(TraceEvent::QueryFinished {
                rows: 1,
                complete: true,
            });
            let trace = QueryTrace { events };
            check_trace_invariants(&trace, &StatsSnapshot::default(), EngineKind::Lusail)
        };
        let accounting = |events| match check(events) {
            Err(Violation::SubqueryAccounting {
                index,
                evaluated,
                planned,
            }) => Some((index, evaluated, planned)),
            Ok(()) => None,
            Err(other) => panic!("{other}"),
        };
        let ok = vec![planned(0), planned(1), evaluated(0), shared(1), planned(2)];
        assert_eq!(accounting(ok), None);
        let twice = vec![planned(0), evaluated(0), planned(0), evaluated(0)];
        assert_eq!(accounting(twice), Some((0, 2, 2)));
        let evaluated_and_shared = vec![planned(3), evaluated(3), shared(3)];
        assert_eq!(accounting(evaluated_and_shared), Some((3, 2, 1)));
        assert_eq!(accounting(vec![shared(1)]), Some((1, 1, 0)));
        assert_eq!(
            accounting(vec![planned(2), planned(2), evaluated(2)]),
            Some((2, 1, 2))
        );
    }
}
