//! Per-query metrics: phase timings and request counts.
//!
//! These are the quantities the paper's evaluation plots: response time
//! split into source selection / query analysis / query execution
//! (Fig. 10) and the number of remote requests per phase (Figs. 3, 10).
//! Bytes and scanned rows are endpoint-side counters: read them from a
//! `Federation::stats_snapshot` window around a solo run.

use lusail_endpoint::RequestCounts;
use std::time::Duration;

/// Everything measured while executing one query.
#[derive(Debug, Clone, Default)]
pub struct QueryMetrics {
    /// Wall time of the source-selection phase (one `COUNT` probe per
    /// pattern and endpoint, read as relevance and cardinality).
    pub source_selection: Duration,
    /// Wall time of the query-analysis phase (LADE check queries,
    /// decomposition, the cost model over source selection's counts), for
    /// every group of the query.
    pub analysis: Duration,
    /// Wall time of the execution phase (SAPE).
    pub execution: Duration,
    /// Total wall time.
    pub total: Duration,
    /// This query's wire attempts during source selection, by purpose.
    /// This and the two windows below are windows of the query's own
    /// request client: they count this query's requests only, whatever
    /// else runs on the `Federation`. A coalesced probe counts under its
    /// probe kind.
    pub requests_source_selection: RequestCounts,
    /// This query's wire attempts during analysis.
    pub requests_analysis: RequestCounts,
    /// This query's wire attempts during execution.
    pub requests_execution: RequestCounts,
    /// Check-query wire attempts LADE made for every group:
    /// `requests_analysis.get(RequestKind::Check)`, split out for Fig. 10
    /// commentary.
    pub check_queries: u64,
    /// Global join variables detected in the WHERE group.
    pub gjvs: Vec<String>,
    /// Number of subqueries produced by decomposition (WHERE group).
    pub subqueries: usize,
    /// How many of them the cost model delayed.
    pub delayed_subqueries: usize,
    /// Rows in the final result.
    pub result_rows: usize,
    /// Source-selection probes (and execution-time `ASK`s) that failed and
    /// were degraded to "assume relevant"; a failed `COUNT`'s cardinality
    /// is the endpoint's total triple count.
    pub degraded_ask_probes: u64,
    /// LADE check queries that failed and were degraded to "assume
    /// conflict".
    pub degraded_check_queries: u64,
}

impl QueryMetrics {
    /// Total remote requests across all phases.
    pub fn total_requests(&self) -> u64 {
        self.requests_source_selection.total_requests()
            + self.requests_analysis.total_requests()
            + self.requests_execution.total_requests()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_endpoint::{ManualClock, RequestKind, RequestPolicy, ResilientClient, TraceSink};

    #[test]
    fn totals_sum_phases() {
        let client = ResilientClient::traced(
            RequestPolicy::default(),
            ManualClock::new(),
            TraceSink::disabled(),
        );
        let send = |kind, n| {
            for _ in 0..n {
                client.request_kind(0, kind, || Ok(())).unwrap();
            }
        };
        let s0 = client.requests();
        send(RequestKind::Ask, 4);
        let s1 = client.requests();
        send(RequestKind::Check, 2);
        send(RequestKind::Count, 3);
        let s2 = client.requests();
        send(RequestKind::Select, 5);
        let m = QueryMetrics {
            requests_source_selection: s1.since(&s0),
            requests_analysis: s2.since(&s1),
            requests_execution: client.requests().since(&s2),
            ..QueryMetrics::default()
        };
        assert_eq!(m.total_requests(), 14);
        assert_eq!(m.requests_analysis.get(RequestKind::Check), 2);
        assert_eq!(m.requests_execution.get(RequestKind::Ask), 0);
    }
}
