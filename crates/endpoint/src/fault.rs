//! Fault injection: wrap any endpoint in a [`FlakyEndpoint`] that drops a
//! seeded fraction of requests, dies (at once or after serving `n`
//! requests), or replays a per-request script.
//!
//! This is how the reproduction tests the engines against the unreliable
//! WANs the paper's geo-distributed setting (Fig. 14) implies. Injection is
//! fully deterministic: the same seed produces the same fault sequence on
//! every platform, and scripted mode replays an exact per-request schedule
//! for unit tests of the retry machinery.

use crate::error::EndpointError;
use crate::network::{NetworkStats, StatsSnapshot};
use crate::{EndpointRef, SparqlEndpoint};
use lusail_rdf::SplitMix64;
use lusail_sparql::{Query, SolutionSet};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Describes how often and how an endpoint misbehaves. The default never
/// injects anything.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultProfile {
    /// Seed for the per-endpoint fault stream.
    pub seed: u64,
    /// Probability a request drops mid-flight ([`EndpointError::Interrupted`]).
    pub failure_rate: f64,
    /// `Some(n)`: the endpoint serves its first `n` requests normally
    /// (still subject to `failure_rate`) and then goes permanently
    /// [`EndpointError::Unavailable`] — a primary killed mid-query, or
    /// with `n = 0` an endpoint that is down from the start. `None`: it
    /// never dies.
    pub dead_after: Option<u64>,
}

impl FaultProfile {
    /// A profile injecting transient connection drops at the given rate.
    pub fn transient(seed: u64, failure_rate: f64) -> Self {
        FaultProfile {
            seed,
            failure_rate,
            ..FaultProfile::default()
        }
    }

    /// A permanently unavailable endpoint: [`FaultProfile::dies_after`]
    /// zero requests.
    pub fn dead() -> Self {
        FaultProfile::dies_after(0)
    }

    /// An endpoint that dies permanently after serving `n` requests —
    /// the "primary killed mid-query" scenario failover tests exercise.
    pub fn dies_after(n: u64) -> Self {
        FaultProfile {
            dead_after: Some(n),
            ..FaultProfile::default()
        }
    }
}

/// Wraps an endpoint and injects faults per a [`FaultProfile`], or per an
/// explicit per-request script. Failed requests are counted both in the
/// request-kind counter (an attempt crossed the wire) and in the
/// `faults_injected` counter of the wrapper's stats.
pub struct FlakyEndpoint {
    inner: EndpointRef,
    profile: FaultProfile,
    rng: Mutex<SplitMix64>,
    script: Mutex<VecDeque<Option<EndpointError>>>,
    fault_stats: NetworkStats,
    /// Requests seen so far, for the `dead_after` kill switch.
    requests_seen: AtomicU64,
}

impl FlakyEndpoint {
    /// Wraps `inner`, injecting faults according to `profile`.
    pub fn new(inner: EndpointRef, profile: FaultProfile) -> Self {
        FlakyEndpoint {
            inner,
            rng: Mutex::new(SplitMix64::new(profile.seed)),
            profile,
            script: Mutex::new(VecDeque::new()),
            fault_stats: NetworkStats::default(),
            requests_seen: AtomicU64::new(0),
        }
    }

    /// Wraps `inner` with an exact per-request schedule: entry `i` decides
    /// request `i` (`Some(e)` fails it, `None` passes it through). Once the
    /// script drains, the profile (here: no faults) takes over.
    pub fn scripted(
        inner: EndpointRef,
        script: impl IntoIterator<Item = Option<EndpointError>>,
    ) -> Self {
        let ep = FlakyEndpoint::new(inner, FaultProfile::default());
        ep.script.lock().unwrap().extend(script);
        ep
    }

    /// Decides one request's fate. `bump` records a failed attempt of the
    /// right request kind on the wrapper's stats.
    fn intercept(&self, bump: impl Fn(&NetworkStats)) -> Result<(), EndpointError> {
        let seen = self.requests_seen.fetch_add(1, Ordering::Relaxed) + 1;
        let scripted = self.script.lock().unwrap().pop_front();
        let fault = match scripted {
            Some(decision) => decision,
            None => {
                if self.profile.dead_after.is_some_and(|n| seen > n) {
                    Some(EndpointError::Unavailable)
                } else if self.profile.failure_rate > 0.0
                    // A zero rate draws nothing, so it leaves the stream as is.
                    && self.rng.lock().unwrap().chance(self.profile.failure_rate)
                {
                    Some(EndpointError::Interrupted)
                } else {
                    None
                }
            }
        };
        match fault {
            Some(e) => {
                bump(&self.fault_stats);
                self.fault_stats.bump_fault();
                Err(e)
            }
            None => Ok(()),
        }
    }
}

impl SparqlEndpoint for FlakyEndpoint {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn ask(&self, q: &Query) -> Result<bool, EndpointError> {
        self.intercept(|s| s.bump_ask())?;
        self.inner.ask(q)
    }

    fn select(&self, q: &Query) -> Result<SolutionSet, EndpointError> {
        self.intercept(|s| s.bump_select())?;
        self.inner.select(q)
    }

    fn count(&self, q: &Query) -> Result<u64, EndpointError> {
        self.intercept(|s| s.bump_count())?;
        self.inner.count(q)
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.inner
            .stats_snapshot()
            .plus(&self.fault_stats.snapshot())
    }

    fn triple_count(&self) -> usize {
        self.inner.triple_count()
    }

    fn resident_bytes(&self) -> Option<u64> {
        self.inner.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalEndpoint;
    use lusail_rdf::{Dictionary, Term};
    use lusail_sparql::parse_query;
    use lusail_store::TripleStore;
    use std::sync::Arc;

    fn inner() -> (EndpointRef, Query) {
        let dict = Dictionary::shared();
        let mut st = TripleStore::new(Arc::clone(&dict));
        st.insert_terms(
            &Term::iri("http://x/s"),
            &Term::iri("http://x/p"),
            &Term::iri("http://x/o"),
        );
        let q = parse_query("SELECT * WHERE { ?s <http://x/p> ?o }", &dict).unwrap();
        (Arc::new(LocalEndpoint::new("A", st)), q)
    }

    #[test]
    fn seeded_injection_is_deterministic() {
        let outcomes = |seed| {
            let (ep, q) = inner();
            let flaky = FlakyEndpoint::new(ep, FaultProfile::transient(seed, 0.4));
            (0..64)
                .map(|_| flaky.select(&q).is_ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(outcomes(7), outcomes(7));
        assert_ne!(outcomes(7), outcomes(8));
        assert!(outcomes(7).iter().any(|ok| !ok), "no fault ever injected");
        assert!(outcomes(7).iter().any(|ok| *ok), "every request failed");
    }

    #[test]
    fn scripted_faults_fire_in_order_then_pass_through() {
        let (ep, q) = inner();
        let flaky = FlakyEndpoint::scripted(
            ep,
            [
                Some(EndpointError::Interrupted),
                None,
                Some(EndpointError::Timeout),
            ],
        );
        assert_eq!(flaky.select(&q), Err(EndpointError::Interrupted));
        assert!(flaky.select(&q).is_ok());
        assert_eq!(flaky.ask(&q), Err(EndpointError::Timeout));
        assert!(flaky.count(&q).is_ok());
    }

    #[test]
    fn dead_profile_fails_everything() {
        let (ep, q) = inner();
        let flaky = FlakyEndpoint::new(ep, FaultProfile::dead());
        for _ in 0..3 {
            assert_eq!(flaky.select(&q), Err(EndpointError::Unavailable));
        }
    }

    #[test]
    fn faults_are_counted_as_requests_and_faults() {
        let (ep, q) = inner();
        let flaky = FlakyEndpoint::scripted(ep, [Some(EndpointError::Interrupted), None]);
        let _ = flaky.select(&q);
        let _ = flaky.select(&q);
        let s = flaky.stats_snapshot();
        // Both the failed attempt and the successful one count as selects.
        assert_eq!(s.select_requests, 2);
        assert_eq!(s.faults_injected, 1);
    }

    #[test]
    fn dies_after_serves_then_fails_permanently() {
        let (ep, q) = inner();
        let flaky = FlakyEndpoint::new(ep, FaultProfile::dies_after(2));
        assert!(flaky.select(&q).is_ok());
        assert!(flaky.ask(&q).is_ok());
        for _ in 0..3 {
            assert_eq!(flaky.select(&q), Err(EndpointError::Unavailable));
        }
        // Failed attempts still count as requests plus injected faults.
        let s = flaky.stats_snapshot();
        assert_eq!(s.faults_injected, 3);
    }

    #[test]
    fn dies_after_zero_fails_the_first_request() {
        let (ep, q) = inner();
        let flaky = FlakyEndpoint::new(ep, FaultProfile::dies_after(0));
        assert_eq!(flaky.select(&q), Err(EndpointError::Unavailable));
        assert_eq!(flaky.stats_snapshot().faults_injected, 1);
    }
}
