//! Lusail: scalable SPARQL query processing over decentralized RDF graphs
//! (Abdelaziz et al., ICDE 2017).
//!
//! The engine processes a federated query in three phases, mirroring the
//! paper's architecture (Fig. 4):
//!
//! 1. **Source selection** ([`source_selection`]) — how many triples match
//!    each triple pattern at each endpoint? A count above zero makes the
//!    endpoint relevant, and the counts are the cost model's cardinalities.
//!    Memoized in a cache shared across queries.
//! 2. **Query analysis / LADE** (`gjv`, `decompose`) — locality-aware
//!    decomposition. Check queries (`FILTER NOT EXISTS` existence tests)
//!    detect *global join variables*: join variables whose instances are
//!    not co-located at the endpoints. Triple patterns are grouped into
//!    maximal subqueries that endpoints can answer locally without losing
//!    results (Algorithms 1 and 2).
//! 3. **Query execution / SAPE** (`cost`, [`exec`], [`join`]) —
//!    selectivity-aware parallel execution. Source selection's per-pattern
//!    counts feed a cost model; subqueries with outlying estimated cardinality or
//!    endpoint fan-out (threshold `μ+σ` after Chauvenet outlier
//!    rejection) are *delayed* and later evaluated as bound subqueries
//!    over `VALUES` blocks of already-found bindings — or, at a source
//!    whose counted answer is smaller than those bindings, fetched whole
//!    and filtered by the join. Non-delayed
//!    subqueries are dispatched together, at most `threads` endpoints at
//!    a time (one, inline, by default; see DESIGN.md "Parallel
//!    execution"), and results are combined with
//!    dynamic-programming-ordered hash joins.
//!
//! Planning waits on the wire once for source selection's `COUNT`s — one
//! wave per query, for the patterns of every group — plus one wave of
//! check queries per group that has a multi-source join. A group sends
//! checks only for joined pairs whose patterns share the same two or more
//! relevant sources: a pair whose patterns have one and the same source is
//! local, and one whose sources differ conflicts without a check, so a
//! federation where every predicate has a single authority plans in one
//! wave. Each wave travels as one request per endpoint: a `SELECT` whose
//! one row holds every probe's answer.
//!
//! A query is planned whole before it runs: [`Lusail::explain`] returns
//! the [`QueryPlan`] execution walks, one [`GroupPlan`] per group in
//! preorder, each subquery a [`PlannedSubquery`] whose [`Schedule`] says
//! which SAPE phase runs it. Planning is the engine's alone — GJV detection,
//! decomposition and the cost model are private to this crate:
//!
//! ```compile_fail,E0603
//! use lusail_core::cost::{decide_delays_detailed, estimate_cardinalities};
//! use lusail_core::decompose::{decompose, decompose_indices, is_disjoint};
//! use lusail_core::gjv::{detect_gjvs, GjvAnalysis};
//! ```
//!
//! Entry point: [`Lusail::execute`]. Lusail and the three baselines run
//! every query through one driver, [`exec::run_query`].

pub mod cache;
mod cost;
mod decompose;
mod engine;
pub mod exec;
mod explain;
pub mod fetch;
mod gjv;
pub mod join;
mod metrics;
mod mqo;
mod probe;
pub mod source_selection;
pub mod subquery;
mod trace;

pub use cost::{DelayPolicy, Schedule};
pub use engine::{
    GroupPlan, Lusail, LusailConfig, PlanShape, PlannedSubquery, ProbeCacheStats, QueryPlan,
    QueryResult,
};
pub use metrics::QueryMetrics;
pub use mqo::{BatchItem, BatchOutcome, BatchReport, SubqueryKey};
pub use subquery::Subquery;
pub use trace::{QueryTrace, RequestKind, RequestSummary, TraceEvent, TraceSink};
