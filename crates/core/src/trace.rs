//! Query-trace aggregation: the finalized view of a [`TraceSink`]'s
//! event log, with the summaries the EXPLAIN ANALYZE renderer and the
//! trace-invariant checks in `lusail-testkit` are built on.
//!
//! The event types themselves live in `lusail-endpoint` (the
//! [`ResilientClient`](lusail_endpoint::ResilientClient) emits
//! [`TraceEvent::Request`] directly); this module re-exports them and
//! adds [`QueryTrace`].

pub use lusail_endpoint::{RequestKind, TraceEvent, TraceSink};

/// Aggregate of the [`TraceEvent::Request`] events of one kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestSummary {
    /// Logical requests (one event each).
    pub requests: u64,
    /// Wire attempts across those requests (retries count per attempt;
    /// circuit-broken requests contribute zero).
    pub attempts: u64,
    /// Requests that ultimately failed.
    pub failures: u64,
}

/// A finalized query trace: the events a [`TraceSink`] collected during
/// one engine run, snapshotted for inspection.
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    /// The recorded events, in emission order.
    pub events: Vec<TraceEvent>,
}

impl QueryTrace {
    /// Snapshots the sink's current event log.
    pub fn from_sink(sink: &TraceSink) -> QueryTrace {
        QueryTrace {
            events: sink.events(),
        }
    }

    /// Aggregates the request events of one kind.
    pub fn requests(&self, kind: RequestKind) -> RequestSummary {
        let mut summary = RequestSummary::default();
        for ev in &self.events {
            if let TraceEvent::Request {
                kind: k,
                attempts,
                error,
                ..
            } = ev
            {
                if *k == kind {
                    summary.requests += 1;
                    summary.attempts += attempts;
                    summary.failures += u64::from(error.is_some());
                }
            }
        }
        summary
    }

    /// What was planned for the WHERE group (depth 0, subqueries `0..n`):
    /// `[subqueries, global join variables, delayed subqueries]`; zeros
    /// when it was not decomposed.
    pub fn planned(&self) -> [usize; 3] {
        let mut planned = [0; 3];
        for ev in &self.events {
            match ev {
                TraceEvent::Decomposed {
                    depth: 0,
                    subqueries,
                    gjvs,
                } => (planned[0], planned[1]) = (*subqueries, *gjvs),
                TraceEvent::SubqueryPlanned {
                    index,
                    delay_reason: Some(_),
                } if *index < planned[0] => planned[2] += 1,
                _ => {}
            }
        }
        planned
    }

    /// Position of the [`TraceEvent::QueryFinished`] event, if any.
    pub fn finish_index(&self) -> Option<usize> {
        self.events
            .iter()
            .position(|ev| matches!(ev, TraceEvent::QueryFinished { .. }))
    }

    /// Number of events recorded *after* the query-finished event —
    /// nonzero only for a malformed trace.
    pub fn events_after_finish(&self) -> usize {
        match self.finish_index() {
            Some(i) => self.events.len() - i - 1,
            None => 0,
        }
    }

    /// All recorded join steps, in execution order.
    pub(crate) fn join_steps(&self) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|ev| matches!(ev, TraceEvent::JoinStep { .. }))
            .collect()
    }

    /// True when the trace records any resilience activity (failover or
    /// a circuit transition) worth rendering.
    pub(crate) fn has_resilience_events(&self) -> bool {
        self.events.iter().any(|ev| {
            matches!(
                ev,
                TraceEvent::FailedOver { .. } | TraceEvent::HealthTransition { .. }
            )
        })
    }

    /// Number of probes of one kind answered locally from offline
    /// statistics (each elided exactly one wire request of that kind).
    pub(crate) fn stats_answered(&self, kind: RequestKind) -> u64 {
        self.events
            .iter()
            .filter(|ev| matches!(ev, TraceEvent::StatsAnswered { kind: k, .. } if *k == kind))
            .count() as u64
    }

    /// The statistics the engine found loaded at query start:
    /// `(endpoints with stats, total characteristic sets)`. `None` when
    /// the run had no statistics attached.
    pub(crate) fn stats_loaded(&self) -> Option<(usize, usize)> {
        self.events.iter().find_map(|ev| match ev {
            TraceEvent::StatsLoaded { endpoints, sets } => Some((*endpoints, *sets)),
            _ => None,
        })
    }

    /// True when the trace records any statistics activity worth
    /// rendering.
    pub(crate) fn has_stats_events(&self) -> bool {
        self.events.iter().any(|ev| {
            matches!(
                ev,
                TraceEvent::StatsLoaded { .. } | TraceEvent::StatsAnswered { .. }
            )
        })
    }

    /// Total rows driven through hash-table probes across all join steps.
    /// Each hash join builds on its smaller input and probes with the
    /// larger one, so the probe side of a step is `max(left, right)` —
    /// a deterministic work counter for the bench harness.
    pub fn join_probe_rows(&self) -> u64 {
        self.events
            .iter()
            .map(|ev| match ev {
                TraceEvent::JoinStep {
                    left_rows,
                    right_rows,
                    ..
                } => (*left_rows).max(*right_rows) as u64,
                _ => 0,
            })
            .sum()
    }

    /// The endpoints delayed subquery `subquery` was fetched whole from,
    /// in emission order.
    pub(crate) fn whole_fetched(&self, subquery: usize) -> Vec<lusail_endpoint::EndpointId> {
        (self.events.iter())
            .filter_map(|ev| match ev {
                TraceEvent::WholeFetched {
                    subquery: s,
                    endpoint,
                    ..
                } if *s == subquery => Some(*endpoint),
                _ => None,
            })
            .collect()
    }

    /// Total VALUES blocks and bindings shipped for delayed subqueries.
    pub fn values_batch_totals(&self) -> (usize, usize) {
        let mut blocks = 0;
        let mut bindings = 0;
        for ev in &self.events {
            if let TraceEvent::ValuesBatch {
                bindings: b_count, ..
            } = ev
            {
                blocks += 1;
                bindings += b_count;
            }
        }
        (blocks, bindings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(kind: RequestKind, attempts: u64, ok: bool) -> TraceEvent {
        TraceEvent::Request {
            endpoint: 0,
            kind,
            attempts,
            error: if ok { None } else { Some("x".into()) },
        }
    }

    #[test]
    fn request_summary_sums_attempts_and_failures() {
        let trace = QueryTrace {
            events: vec![
                request(RequestKind::Ask, 1, true),
                request(RequestKind::Ask, 3, false),
                request(RequestKind::Select, 2, true),
                request(RequestKind::Check, 1, true),
            ],
        };
        assert_eq!(
            trace.requests(RequestKind::Ask),
            RequestSummary {
                requests: 2,
                attempts: 4,
                failures: 1,
            }
        );
        assert_eq!(trace.requests(RequestKind::Check).attempts, 1);
        assert_eq!(
            trace.requests(RequestKind::Count),
            RequestSummary::default()
        );
    }

    #[test]
    fn finish_position_and_trailing_events() {
        let finished = TraceEvent::QueryFinished {
            rows: 1,
            complete: true,
        };
        let trace = QueryTrace {
            events: vec![
                request(RequestKind::Select, 1, true),
                finished.clone(),
                request(RequestKind::Select, 1, true),
            ],
        };
        assert_eq!(trace.finish_index(), Some(1));
        assert_eq!(trace.events_after_finish(), 1);
        let ok = QueryTrace {
            events: vec![request(RequestKind::Select, 1, true), finished],
        };
        assert_eq!(ok.events_after_finish(), 0);
        assert_eq!(QueryTrace::default().finish_index(), None);
    }

    #[test]
    fn join_probe_rows_sums_the_larger_side_per_step() {
        let step = |l: usize, r: usize| TraceEvent::JoinStep {
            left_rows: l,
            right_rows: r,
            output_rows: l.min(r),
            cost: 1.0,
        };
        let trace = QueryTrace {
            events: vec![
                step(10, 3),
                step(4, 40),
                request(RequestKind::Select, 1, true),
            ],
        };
        assert_eq!(trace.join_probe_rows(), 50);
        assert_eq!(QueryTrace::default().join_probe_rows(), 0);
    }

    #[test]
    fn stats_events_are_aggregated() {
        let plain = QueryTrace {
            events: vec![request(RequestKind::Select, 1, true)],
        };
        assert!(!plain.has_stats_events());
        assert_eq!(plain.stats_loaded(), None);
        assert_eq!(plain.stats_answered(RequestKind::Ask), 0);
        let trace = QueryTrace {
            events: vec![
                TraceEvent::StatsLoaded {
                    endpoints: 2,
                    sets: 5,
                },
                TraceEvent::StatsAnswered {
                    endpoint: 0,
                    kind: RequestKind::Ask,
                },
                TraceEvent::StatsAnswered {
                    endpoint: 1,
                    kind: RequestKind::Ask,
                },
                TraceEvent::StatsAnswered {
                    endpoint: 0,
                    kind: RequestKind::Count,
                },
                request(RequestKind::Select, 1, true),
            ],
        };
        assert!(trace.has_stats_events());
        assert_eq!(trace.stats_loaded(), Some((2, 5)));
        assert_eq!(trace.stats_answered(RequestKind::Ask), 2);
        assert_eq!(trace.stats_answered(RequestKind::Count), 1);
        assert_eq!(trace.stats_answered(RequestKind::Check), 0);
    }

    #[test]
    fn resilience_events_are_extracted() {
        use lusail_endpoint::HealthState;
        let plain = QueryTrace {
            events: vec![request(RequestKind::Select, 1, true)],
        };
        assert!(!plain.has_resilience_events());
        let trace = QueryTrace {
            events: vec![
                TraceEvent::HealthTransition {
                    endpoint: 0,
                    from: HealthState::Closed,
                    to: HealthState::Open,
                },
                TraceEvent::FailedOver {
                    from: 0,
                    to: 1,
                    kind: RequestKind::Select,
                    error: "Unavailable".into(),
                },
                request(RequestKind::Select, 1, true),
            ],
        };
        assert!(trace.has_resilience_events());
        let failovers = (trace.events.iter())
            .filter(|ev| matches!(ev, TraceEvent::FailedOver { .. }))
            .count();
        assert_eq!(failovers, 1);
    }
}
