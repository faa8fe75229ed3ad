//! `TimedEndpoint`: the traced run's view of the `endpoint` layer.
//!
//! It wraps an endpoint behind the same [`SparqlEndpoint`] trait the engine
//! already talks to and records one span per wire request, so endpoint time
//! (store evaluation + serialization + simulated network) is measured from
//! outside, with no change to the endpoint crate.

use crate::span::Recorder;
use lusail_endpoint::{EndpointError, Federation, SparqlEndpoint, StatsSnapshot};
use lusail_sparql::{Query, SolutionSet};
use std::sync::Arc;

/// An endpoint whose every request is recorded as a child span of the
/// recorder's current span.
pub struct TimedEndpoint {
    inner: Arc<dyn SparqlEndpoint>,
    rec: Arc<Recorder>,
}

impl TimedEndpoint {
    fn timed<T>(
        &self,
        name: &'static str,
        call: impl FnOnce() -> Result<T, EndpointError>,
        rows: impl FnOnce(&T) -> u64,
    ) -> Result<T, EndpointError> {
        let start = self.rec.now_ns();
        let result = call();
        let end = self.rec.now_ns();
        self.rec
            .record_child(name, start, end, result.as_ref().map(rows).unwrap_or(0));
        result
    }
}

impl SparqlEndpoint for TimedEndpoint {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn ask(&self, q: &Query) -> Result<bool, EndpointError> {
        self.timed("endpoint.ask", || self.inner.ask(q), |_| 0)
    }

    fn select(&self, q: &Query) -> Result<SolutionSet, EndpointError> {
        self.timed(
            "endpoint.select",
            || self.inner.select(q),
            |s| s.len() as u64,
        )
    }

    fn count(&self, q: &Query) -> Result<u64, EndpointError> {
        self.timed("endpoint.count", || self.inner.count(q), |_| 1)
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.inner.stats_snapshot()
    }

    fn triple_count(&self) -> usize {
        self.inner.triple_count()
    }

    fn resident_bytes(&self) -> Option<u64> {
        self.inner.resident_bytes()
    }
}

/// A federation over the same endpoints as `fed`, in the same order (so
/// endpoint ids, plans and wire traffic are unchanged), each behind a
/// [`TimedEndpoint`].
pub fn timed_federation(fed: &Federation, rec: &Arc<Recorder>) -> Federation {
    let mut timed = Federation::new(Arc::clone(fed.dict()));
    for (_, ep) in fed.iter() {
        timed.add(Arc::new(TimedEndpoint {
            inner: Arc::clone(ep),
            rec: Arc::clone(rec),
        }));
    }
    timed
}
