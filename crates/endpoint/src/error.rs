//! Error taxonomy for the fallible endpoint API, plus the outcome types
//! federated engines report.
//!
//! The paper treats endpoints as autonomous remote services; real SPARQL
//! endpoints time out, drop connections, and go down. [`EndpointError`]
//! models the failure classes a federated engine must distinguish:
//! transient errors are worth retrying, [`EndpointError::Unavailable`] is
//! not. Engines never
//! panic on a failing endpoint — they degrade and report the damage via
//! [`QueryOutcome`].

use crate::federation::EndpointId;
use std::fmt;

/// A failed endpoint request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointError {
    /// The request (or its retry budget) exceeded its deadline.
    Timeout,
    /// The endpoint is down or refusing connections. Not transient: a
    /// resilient client fails fast instead of retrying.
    Unavailable,
    /// The connection dropped mid-request (reset, truncated response).
    Interrupted,
}

impl EndpointError {
    /// All error kinds, in taxonomy order (the order deduped failure
    /// reports list them in).
    pub const ALL: [EndpointError; 3] = [
        EndpointError::Timeout,
        EndpointError::Unavailable,
        EndpointError::Interrupted,
    ];

    /// True if an immediate retry has a reasonable chance of succeeding.
    /// `Unavailable` is the one terminal class: retrying a down endpoint
    /// only burns the deadline budget.
    pub(crate) fn is_transient(&self) -> bool {
        !matches!(self, EndpointError::Unavailable)
    }

    /// Dense index (for per-kind sets carried as bitmasks).
    pub fn index(self) -> usize {
        match self {
            EndpointError::Timeout => 0,
            EndpointError::Unavailable => 1,
            EndpointError::Interrupted => 2,
        }
    }
}

impl fmt::Display for EndpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndpointError::Timeout => write!(f, "request timed out"),
            EndpointError::Unavailable => write!(f, "endpoint unavailable"),
            EndpointError::Interrupted => write!(f, "connection interrupted"),
        }
    }
}

impl std::error::Error for EndpointError {}

/// A federation-level failure: the query could not be attempted at all
/// (as opposed to partial endpoint failures, which degrade gracefully
/// into an incomplete [`QueryOutcome`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FederationError {
    /// The federation has no endpoints.
    EmptyFederation,
    /// The query projects `(EXISTS {…} AS ?v)` tests. That is an endpoint
    /// form — coalesced planning probes travel as one — which no mediator
    /// evaluates over the federation.
    ProjectedExists,
}

impl fmt::Display for FederationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FederationError::EmptyFederation => {
                write!(f, "the federation has no endpoints")
            }
            FederationError::ProjectedExists => write!(
                f,
                "projected EXISTS tests are evaluated by endpoints only, not over a federation"
            ),
        }
    }
}

impl std::error::Error for FederationError {}

/// Per-endpoint damage report for one query execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointFailure {
    /// The endpoint's id within the federation.
    pub endpoint: EndpointId,
    /// The endpoint's name.
    pub name: String,
    /// Requests that ultimately failed (after retries).
    pub failed_requests: u64,
    /// Retries spent on this endpoint.
    pub retries: u64,
    /// True if the endpoint's circuit was opened (tripped) at some point
    /// during the query, even if it later recovered through a half-open
    /// probe.
    pub dead: bool,
    /// The distinct error kinds observed, deduped, in
    /// [`EndpointError::ALL`] order — deterministic regardless of the
    /// order failures arrived in.
    pub errors: Vec<EndpointError>,
}

/// What a federated engine returns: the solutions, whether they are
/// provably complete, and which endpoints misbehaved.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The solutions retrieved.
    pub solutions: lusail_sparql::SolutionSet,
    /// True if no result-bearing request was lost. Degraded *probes*
    /// (ASK/COUNT/check queries answered conservatively) do not clear
    /// this flag — only lost solution data does.
    pub complete: bool,
    /// Endpoints that failed requests, with retry counts and trip status.
    pub failures: Vec<EndpointFailure>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transience_classification() {
        assert!(EndpointError::Timeout.is_transient());
        assert!(EndpointError::Interrupted.is_transient());
        assert!(!EndpointError::Unavailable.is_transient());
    }

    #[test]
    fn errors_display_and_propagate() {
        let e: Box<dyn std::error::Error> = Box::new(EndpointError::Timeout);
        assert_eq!(e.to_string(), "request timed out");
        let f: Box<dyn std::error::Error> = Box::new(FederationError::EmptyFederation);
        assert!(f.to_string().contains("no endpoints"));
    }
}
