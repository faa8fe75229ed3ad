//! Per-query metrics: phase timings and network counters.
//!
//! These are the quantities the paper's evaluation plots: response time
//! split into source selection / query analysis / query execution
//! (Fig. 10), number of remote requests (Fig. 3), and intermediate data
//! volume.

use lusail_endpoint::StatsSnapshot;
use std::time::Duration;

/// Everything measured while executing one query.
#[derive(Debug, Clone, Default)]
pub struct QueryMetrics {
    /// Wall time of the source-selection phase (ASK probes).
    pub source_selection: Duration,
    /// Wall time of the query-analysis phase (LADE check queries,
    /// decomposition, COUNT probes for the cost model).
    pub analysis: Duration,
    /// Wall time of the execution phase (SAPE).
    pub execution: Duration,
    /// Total wall time.
    pub total: Duration,
    /// Network counters accumulated during source selection. This and the
    /// two windows below are differences of the *federation-wide* endpoint
    /// counters, exact only while no other query runs against the same
    /// `Federation`: a served query's figure includes its neighbours'
    /// traffic (the server's `/stats` reports the totals).
    pub requests_source_selection: StatsSnapshot,
    /// Network counters accumulated during analysis.
    pub requests_analysis: StatsSnapshot,
    /// Network counters accumulated during execution.
    pub requests_execution: StatsSnapshot,
    /// Check queries evaluated by LADE (already contained in
    /// `requests_analysis`, split out for Fig. 10 commentary).
    pub check_queries: u64,
    /// Global join variables detected.
    pub gjvs: Vec<String>,
    /// Number of subqueries produced by decomposition (top-level group).
    pub subqueries: usize,
    /// How many of them the cost model delayed.
    pub delayed_subqueries: usize,
    /// Rows in the final result.
    pub result_rows: usize,
    /// ASK probes that failed and were degraded to "assume relevant".
    pub degraded_ask_probes: u64,
    /// LADE check queries that failed and were degraded to "assume
    /// conflict".
    pub degraded_check_queries: u64,
    /// COUNT probes that failed and fell back to the endpoint's total
    /// triple count.
    pub degraded_count_probes: u64,
}

impl QueryMetrics {
    /// Total remote requests across all phases.
    pub fn total_requests(&self) -> u64 {
        self.requests_source_selection.total_requests()
            + self.requests_analysis.total_requests()
            + self.requests_execution.total_requests()
    }

    /// Total bytes moved (both directions) across all phases.
    pub fn total_bytes(&self) -> u64 {
        let sum = |s: &StatsSnapshot| s.bytes_sent + s.bytes_returned;
        sum(&self.requests_source_selection)
            + sum(&self.requests_analysis)
            + sum(&self.requests_execution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_phases() {
        let mut m = QueryMetrics::default();
        m.requests_source_selection.ask_requests = 4;
        m.requests_analysis.select_requests = 2;
        m.requests_analysis.count_requests = 3;
        m.requests_execution.select_requests = 5;
        assert_eq!(m.total_requests(), 14);
        m.requests_execution.bytes_sent = 10;
        m.requests_execution.bytes_returned = 20;
        m.requests_analysis.bytes_sent = 1;
        assert_eq!(m.total_bytes(), 31);
    }
}
