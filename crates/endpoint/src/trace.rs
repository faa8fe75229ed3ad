//! Structured query tracing: typed events and the sink handle that
//! collects them.
//!
//! A [`TraceSink`] is a cheap, cloneable handle that is either *disabled*
//! (the default — a `None`, so tracing is zero-cost: event constructors
//! are closures that are never invoked) or *enabled* (a shared,
//! mutex-guarded event log). Engines thread one sink through their whole
//! request path; [`TraceEvent`]s are plain data (ids, counts, strings) so
//! a finished trace can be inspected, aggregated, and rendered without
//! holding any engine state.
//!
//! Determinism contract: events emitted from concurrent request workers
//! ([`TraceEvent::Request`]) arrive in a nondeterministic order, so
//! consumers must aggregate them (per endpoint and kind) rather than
//! depend on their sequence. All other events are emitted from the
//! engine's sequential planning/join path and their relative order *is*
//! deterministic, as are all payload values when the engine runs under
//! the test [`Clock`](crate::Clock).

use crate::EndpointId;
use std::sync::{Arc, Mutex};

/// What a traced remote request was for.
///
/// `Check` is a LADE check query — carried on the wire as a SELECT (it
/// bumps the endpoint's *select* counter) but recorded separately so
/// traces can distinguish analysis probes from data-bearing selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// ASK source-selection (or bound source-refinement) probe.
    Ask,
    /// Data-bearing SELECT.
    Select,
    /// `SELECT (COUNT(*) …)` cardinality probe.
    Count,
    /// GJV check query (wire-level SELECT).
    Check,
}

impl RequestKind {
    /// All kinds, in display order.
    pub const ALL: [RequestKind; 4] = [
        RequestKind::Ask,
        RequestKind::Select,
        RequestKind::Count,
        RequestKind::Check,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Ask => "ask",
            RequestKind::Select => "select",
            RequestKind::Count => "count",
            RequestKind::Check => "check",
        }
    }

    /// Dense index (for per-kind counters).
    pub(crate) fn index(self) -> usize {
        match self {
            RequestKind::Ask => 0,
            RequestKind::Select => 1,
            RequestKind::Count => 2,
            RequestKind::Check => 3,
        }
    }
}

/// Wire attempts per [`RequestKind`], labelled by purpose: the ledger of a
/// [`ResilientClient`](crate::ResilientClient), or a window of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestCounts(pub(crate) [u64; 4]);

impl RequestCounts {
    /// Wire attempts of one kind.
    pub fn get(&self, kind: RequestKind) -> u64 {
        self.0[kind.index()]
    }
    /// Wire attempts of every kind.
    pub fn total_requests(&self) -> u64 {
        self.0.iter().sum()
    }
    /// Kind-wise difference `self - earlier`.
    pub fn since(&self, earlier: &RequestCounts) -> RequestCounts {
        RequestCounts(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }
}

/// The circuit-breaker state of one endpoint, as recorded in
/// [`TraceEvent::HealthTransition`] events.
///
/// `Closed` admits requests normally; `Open` short-circuits them without
/// touching the wire; `HalfOpen` admits a single probe request whose
/// outcome decides between re-closing and re-opening the circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Healthy: requests flow normally.
    Closed,
    /// Tripped: requests fail fast without a wire attempt.
    Open,
    /// Cooling down: the next request is admitted as a recovery probe.
    HalfOpen,
}

impl HealthState {
    /// Display name (lower-case, used by EXPLAIN ANALYZE).
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Closed => "closed",
            HealthState::Open => "open",
            HealthState::HalfOpen => "half-open",
        }
    }
}

/// One structured trace event. Variants are plain data so traces can
/// outlive the engine run that produced them.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// One *logical* remote request (possibly several wire attempts under
    /// the retry policy). `attempts` counts invocations that actually
    /// reached the endpoint — it is `0` when the circuit breaker
    /// fast-failed the request without touching the wire.
    Request {
        /// Target endpoint.
        endpoint: EndpointId,
        /// What the request was for.
        kind: RequestKind,
        /// Wire attempts (each bumps the endpoint's request counter).
        attempts: u64,
        /// The final error when the request failed; `None` when it
        /// succeeded.
        error: Option<String>,
    },
    /// A batch of tasks handed to the request handler's fan-out.
    Dispatch {
        /// Number of tasks in the batch.
        tasks: usize,
        /// Distinct endpoints the batch touches.
        endpoints: usize,
    },
    /// One group pattern was decomposed into subqueries; its
    /// [`TraceEvent::SubqueryPlanned`] events follow. Groups are planned in
    /// preorder: the WHERE group first, each group before its nested ones.
    Decomposed {
        /// Nesting depth of the group: 0 for the WHERE group.
        depth: usize,
        /// Number of subqueries produced.
        subqueries: usize,
        /// Global join variables detected by LADE.
        gjvs: usize,
    },
    /// The cost model's verdict for one subquery. The subquery itself —
    /// patterns, sources, estimate — is in the engine's plan, which
    /// `EXPLAIN` and `EXPLAIN ANALYZE` render.
    SubqueryPlanned {
        /// Subquery index, query-wide: numbered in group preorder, so the
        /// WHERE group's are `0..n` and no two groups share one.
        index: usize,
        /// Why the cost model delayed the subquery (the Chauvenet `μ+kσ`
        /// threshold the estimate exceeded); `None` when it did not. A
        /// delayed subquery promoted to the concurrent phase (every
        /// subquery of its group was delayed) keeps its reason.
        delay_reason: Option<String>,
    },
    /// A subquery finished evaluating.
    SubqueryEvaluated {
        /// Query-wide subquery index (see [`TraceEvent::SubqueryPlanned`]).
        index: usize,
        /// Actual rows returned (across endpoints).
        rows: usize,
    },
    /// A subquery was served from a batch's shared-relation memo
    /// (multi-query optimization) instead of being re-evaluated. No
    /// [`TraceEvent::Request`] events are emitted for the elided
    /// evaluation — request accounting only ever counts wire work.
    SubqueryShared {
        /// Query-wide subquery index (see [`TraceEvent::SubqueryPlanned`]).
        index: usize,
        /// Wire requests the producing evaluation spent — the traffic
        /// this reuse avoided.
        saved_requests: u64,
    },
    /// One VALUES-bound block dispatched for a delayed subquery.
    ValuesBatch {
        /// Query-wide subquery index (see [`TraceEvent::SubqueryPlanned`]).
        subquery: usize,
        /// Target endpoint.
        endpoint: EndpointId,
        /// Bindings in the block.
        bindings: usize,
    },
    /// A delayed subquery's source answers the unbound subquery in one
    /// request instead of `VALUES` blocks: its whole answer, priced by
    /// `rows_bound`, costs fewer wire bytes than the bindings alone.
    WholeFetched {
        /// Query-wide subquery index (see [`TraceEvent::SubqueryPlanned`]).
        subquery: usize,
        /// Target endpoint.
        endpoint: EndpointId,
        /// Source selection's count of the subquery's pattern there: an
        /// upper bound on the rows the request returns.
        rows_bound: u64,
    },
    /// One executed hash join.
    JoinStep {
        /// Rows on the left input.
        left_rows: usize,
        /// Rows on the right input.
        right_rows: usize,
        /// Rows produced.
        output_rows: usize,
        /// The `JoinCost` that ordered this step (DP: planned step cost;
        /// greedy: the combined parallel work of the pair).
        cost: f64,
    },
    /// A request failed on one replica-group member and was re-issued
    /// against the next healthy member.
    FailedOver {
        /// The member that failed.
        from: EndpointId,
        /// The member the request was re-issued against.
        to: EndpointId,
        /// What the request was for.
        kind: RequestKind,
        /// The error that triggered the failover.
        error: String,
    },
    /// Offline statistics answered a planning question locally, eliding
    /// the wire probe that would otherwise have been issued. No
    /// [`TraceEvent::Request`] is emitted for an elided probe — request
    /// accounting only ever counts wire work — so these events are the
    /// audit trail for where statistics saved traffic.
    StatsAnswered {
        /// The endpoint whose probe was elided.
        endpoint: EndpointId,
        /// The kind of probe that would have gone to the wire.
        kind: RequestKind,
    },
    /// The engine found offline statistics attached to the federation at
    /// query start. Emitted at most once per run.
    StatsLoaded {
        /// Endpoints carrying statistics.
        endpoints: usize,
        /// Total characteristic sets across those endpoints.
        sets: usize,
    },
    /// An endpoint's circuit-breaker state changed.
    HealthTransition {
        /// The endpoint whose circuit moved.
        endpoint: EndpointId,
        /// State before the transition.
        from: HealthState,
        /// State after the transition.
        to: HealthState,
    },
    /// The engine finished. Always the last event of a trace.
    QueryFinished {
        /// Result rows.
        rows: usize,
        /// Whether the outcome was complete.
        complete: bool,
    },
}

/// A cloneable handle to an (optional) event log.
///
/// Disabled sinks ([`TraceSink::disabled`], also the `Default`) carry no
/// allocation and never invoke the event-constructor closure passed to
/// [`emit`](TraceSink::emit); enabled sinks ([`TraceSink::enabled`])
/// share one mutex-guarded `Vec<TraceEvent>` across clones.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<Mutex<Vec<TraceEvent>>>>,
}

impl TraceSink {
    /// A sink that records nothing and costs nothing.
    pub fn disabled() -> TraceSink {
        TraceSink { inner: None }
    }

    /// A sink that records events.
    pub fn enabled() -> TraceSink {
        TraceSink {
            inner: Some(Arc::new(Mutex::new(Vec::new()))),
        }
    }

    /// Records the event built by `f` — which is *not invoked* when the
    /// sink is disabled, so arbitrary rendering work may sit inside it.
    pub fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(inner) = &self.inner {
            inner.lock().expect("trace sink poisoned").push(f());
        }
    }

    /// Snapshot of the events recorded so far (empty when disabled).
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => inner.lock().expect("trace sink poisoned").clone(),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TraceSink {
        /// Whether events are being recorded.
        fn is_enabled(&self) -> bool {
            self.inner.is_some()
        }

        /// Number of events recorded so far.
        fn len(&self) -> usize {
            self.events().len()
        }

        /// True when no events have been recorded (always true when
        /// disabled).
        fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    #[test]
    fn disabled_sink_never_invokes_the_constructor() {
        let sink = TraceSink::disabled();
        let mut invoked = false;
        sink.emit(|| {
            invoked = true;
            TraceEvent::QueryFinished {
                rows: 0,
                complete: true,
            }
        });
        assert!(!invoked);
        assert!(!sink.is_enabled());
        assert!(sink.is_empty());
        assert!(sink.events().is_empty());
    }

    #[test]
    fn enabled_sink_shares_events_across_clones() {
        let sink = TraceSink::enabled();
        let clone = sink.clone();
        clone.emit(|| TraceEvent::Dispatch {
            tasks: 3,
            endpoints: 2,
        });
        sink.emit(|| TraceEvent::QueryFinished {
            rows: 1,
            complete: true,
        });
        assert!(sink.is_enabled());
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.events(), clone.events());
        assert_eq!(
            sink.events()[0],
            TraceEvent::Dispatch {
                tasks: 3,
                endpoints: 2
            }
        );
    }

    #[test]
    fn default_sink_is_disabled() {
        assert!(!TraceSink::default().is_enabled());
    }

    #[test]
    fn request_kind_indices_are_dense_and_distinct() {
        let mut seen = [false; 4];
        for kind in RequestKind::ALL {
            assert!(!seen[kind.index()], "duplicate index for {kind:?}");
            seen[kind.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
