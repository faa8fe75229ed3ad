//! SPARQL endpoint abstraction for decentralized RDF graphs.
//!
//! In the paper every data source is an independent SPARQL endpoint
//! (Jena Fuseki or Virtuoso behind HTTP). Here an endpoint is a
//! [`StorageBackend`] — the BTree-indexed
//! [`TripleStore`] or the compressed columnar store, selected at
//! construction — behind the [`SparqlEndpoint`] trait, with a simulated
//! network in front of it:
//!
//! * every request is **counted** (ASK / SELECT / COUNT separately) and the
//!   serialized request & response sizes are accumulated — these counters
//!   are exactly the "number of remote requests" and "intermediate data"
//!   metrics driving the paper's analysis (Figs. 3, 11–14);
//! * an optional [`NetworkProfile`] adds real latency (`thread::sleep`) and
//!   bandwidth delay per request, used for the geo-distributed experiments
//!   (Fig. 14); the same virtual time is always *accumulated* so harnesses
//!   can compute modeled response times without sleeping;
//! * every request is **fallible**: `ask`/`select`/`count` return
//!   `Result<_, EndpointError>`, a [`FlakyEndpoint`] wrapper injects
//!   deterministic faults, and engines route calls through a
//!   [`ResilientClient`] that retries, backs off, and trips dead endpoints.
//!
//! A [`Federation`] is a named, ordered collection of endpoints sharing a
//! term dictionary, one [`RequestPolicy`] and one [`Clock`].

mod error;
mod fault;
mod federation;
mod network;
mod resilience;
mod trace;

pub use error::{EndpointError, EndpointFailure, FederationError, QueryOutcome};
pub use fault::{FaultProfile, FlakyEndpoint};
pub use federation::{EndpointId, Federation};
pub use network::{NetworkProfile, NetworkStats, StatsSnapshot};
pub use resilience::{Clock, HealthHook, ManualClock, RequestPolicy, ResilientClient};
pub use trace::{HealthState, RequestCounts, RequestKind, TraceEvent, TraceSink};

use lusail_sparql::{query_wire_len, Query, SolutionSet};
use lusail_store::{BackendKind, StorageBackend, TripleStore};
use std::sync::Arc;
use std::time::Duration;

/// The interface a federated query engine sees for one remote source.
pub trait SparqlEndpoint: Send + Sync {
    /// The endpoint's stable name (e.g. `"DrugBank"` or `"univ-0"`).
    fn name(&self) -> &str;
    /// Executes an `ASK`: does the query's pattern have any solution here?
    fn ask(&self, q: &Query) -> Result<bool, EndpointError>;
    /// Executes a `SELECT`, returning the solutions.
    fn select(&self, q: &Query) -> Result<SolutionSet, EndpointError>;
    /// Executes a `SELECT (COUNT(*) …)`, returning the count.
    fn count(&self, q: &Query) -> Result<u64, EndpointError>;
    /// A point-in-time copy of this endpoint's request/byte counters.
    fn stats_snapshot(&self) -> StatsSnapshot;
    /// Number of triples stored at this endpoint (catalog metadata, not a
    /// remote request — engines use it as a conservative cardinality
    /// fallback when COUNT probes fail).
    fn triple_count(&self) -> usize;
    /// Resident heap bytes of the endpoint's storage, when the endpoint
    /// is local enough to know (see
    /// [`StorageBackend::resident_bytes`]).
    /// `None` for endpoints whose storage is not observable (the default).
    fn resident_bytes(&self) -> Option<u64> {
        None
    }
}

/// An in-process SPARQL endpoint over a [`StorageBackend`] (the
/// BTree-indexed [`TripleStore`] by default), with simulated network
/// costs. Never fails on its own; wrap it in a [`FlakyEndpoint`] to
/// inject faults.
pub struct LocalEndpoint {
    name: String,
    store: Box<dyn StorageBackend>,
    profile: NetworkProfile,
    stats: NetworkStats,
}

impl LocalEndpoint {
    /// Creates an endpoint with no network delay (local-cluster setting)
    /// over the default BTree backend.
    pub fn new(name: impl Into<String>, store: TripleStore) -> Self {
        Self::on_backend(name, store, BackendKind::Btree, NetworkProfile::default())
    }

    /// Creates an endpoint by materializing a populated [`TripleStore`]
    /// into the chosen backend, with the given network profile
    /// (geo-distributed setting).
    pub fn on_backend(
        name: impl Into<String>,
        store: TripleStore,
        backend: BackendKind,
        profile: NetworkProfile,
    ) -> Self {
        LocalEndpoint {
            name: name.into(),
            store: backend.realize(store),
            profile,
            stats: NetworkStats::default(),
        }
    }

    /// Read access to the underlying store (used by index-building
    /// baselines, whose preprocessing cost the paper measures).
    pub fn store(&self) -> &dyn StorageBackend {
        &*self.store
    }

    /// Accounts for one request: serialized request size, latency and
    /// transfer delay, sleeping if the profile says to.
    fn charge(&self, q: &Query, response_bytes: u64, rows: u64) {
        let request_bytes = query_wire_len(q, self.store.dict()) as u64;
        let virtual_time =
            self.profile.latency + self.profile.transfer_time(request_bytes + response_bytes);
        self.stats
            .record(request_bytes, response_bytes, rows, virtual_time);
        if self.profile.sleep && virtual_time > Duration::ZERO {
            std::thread::sleep(virtual_time);
        }
    }
}

impl SparqlEndpoint for LocalEndpoint {
    fn name(&self) -> &str {
        &self.name
    }

    fn ask(&self, q: &Query) -> Result<bool, EndpointError> {
        let result = lusail_store::eval::ask(&*self.store, q);
        self.stats.bump_ask();
        // The serialized response is the boolean literal itself.
        let body = if result { "true" } else { "false" };
        self.charge(q, body.len() as u64, 0);
        Ok(result)
    }

    fn select(&self, q: &Query) -> Result<SolutionSet, EndpointError> {
        let result = lusail_store::eval::evaluate(&*self.store, q);
        self.stats.bump_select();
        self.charge(q, result.wire_bytes(), result.len() as u64);
        Ok(result)
    }

    fn count(&self, q: &Query) -> Result<u64, EndpointError> {
        let result = lusail_store::eval::count(&*self.store, q);
        self.stats.bump_count();
        // The serialized response is the count's decimal digits.
        self.charge(q, result.to_string().len() as u64, 1);
        Ok(result)
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        // Overlay the store's own work counter: it is monotonic like the
        // network counters, so window arithmetic (`since`) applies to it
        // unchanged, and fault wrappers inherit it through `plus`.
        let mut snap = self.stats.snapshot();
        snap.rows_scanned = self.store.rows_scanned();
        snap
    }

    fn triple_count(&self) -> usize {
        self.store.len()
    }

    fn resident_bytes(&self) -> Option<u64> {
        Some(self.store.resident_bytes())
    }
}

/// Convenience alias used throughout the engines.
pub type EndpointRef = Arc<dyn SparqlEndpoint>;

/// Per-call execution options for [`FederatedEngine::run_with`].
///
/// This is the single options-carrying entry point that replaced the
/// `run` / `run_traced` method split: tracing, the physical parallelism
/// budget, and an optional wall-clock deadline all travel together.
#[derive(Clone)]
pub struct ExecOptions {
    /// Structured event sink. A disabled sink (the default) costs nothing.
    pub trace: TraceSink,
    /// Physical parallelism budget: how many worker threads the executor
    /// may use for endpoint dispatch (mediator joins are sequential). `1`
    /// (the default) runs fully inline — request order, work counters,
    /// traces, and results are identical at every budget; higher budgets
    /// only change wall-clock time.
    pub threads: std::num::NonZeroUsize,
    /// Optional per-query wall-clock deadline, measured on the
    /// federation's clock from the start of the call: no wire attempt
    /// starts once it has passed. Without one, a request is bounded only
    /// by its policy's retries and backoffs.
    pub deadline: Option<Duration>,
    /// Optional observer of circuit-breaker health transitions during
    /// this call. A long-lived server hangs shared-cache invalidation
    /// here so a failover in one tenant's query is visible to every
    /// other tenant *before* the failing query finishes.
    pub on_health_transition: Option<resilience::HealthHook>,
}

impl std::fmt::Debug for ExecOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecOptions")
            .field("trace", &self.trace)
            .field("threads", &self.threads)
            .field("deadline", &self.deadline)
            .field(
                "on_health_transition",
                &self.on_health_transition.as_ref().map(|_| "<hook>"),
            )
            .finish()
    }
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            trace: TraceSink::disabled(),
            threads: std::num::NonZeroUsize::MIN,
            deadline: None,
            on_health_transition: None,
        }
    }
}

impl ExecOptions {
    /// Replaces the trace sink.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.trace = sink;
        self
    }

    /// Sets the worker-thread budget; `0` is clamped to `1`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = std::num::NonZeroUsize::new(threads.max(1)).expect("clamped to >= 1");
        self
    }

    /// Sets the per-query deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Installs a health-transition observer for this call.
    pub fn with_health_hook(mut self, hook: resilience::HealthHook) -> Self {
        self.on_health_transition = Some(hook);
        self
    }

    /// The thread budget as a plain `usize`.
    pub fn thread_budget(&self) -> usize {
        self.threads.get()
    }
}

/// A federated SPARQL query engine — implemented by Lusail and by the
/// FedX / SPLENDID / HiBISCuS baselines so harnesses can drive them
/// uniformly. Request counts and byte volumes are read from the
/// federation's [`StatsSnapshot`] around the call.
pub trait FederatedEngine: Send + Sync {
    /// Executes the query under the given [`ExecOptions`]. Endpoint
    /// failures degrade gracefully into an incomplete [`QueryOutcome`];
    /// only federation-level misuse (e.g. an empty federation) is an
    /// `Err`. With an enabled sink in `opts.trace`, engines guarantee a
    /// [`TraceEvent::QueryFinished`] is the last event emitted.
    fn run_with(
        &self,
        fed: &Federation,
        query: &Query,
        opts: &ExecOptions,
    ) -> Result<QueryOutcome, FederationError>;
}

#[cfg(test)]
mod wire_tests {
    use super::*;
    use lusail_rdf::{Dictionary, Term};
    use lusail_sparql::parse_query;
    use std::time::Instant;

    fn endpoint(profile: NetworkProfile) -> LocalEndpoint {
        let dict = Dictionary::shared();
        let mut st = TripleStore::new(std::sync::Arc::clone(&dict));
        for i in 0..50 {
            st.insert_terms(
                &Term::iri(format!("http://x/s{i}")),
                &Term::iri("http://x/p"),
                &Term::lit(format!("value {i}")),
            );
        }
        LocalEndpoint::on_backend("T", st, BackendKind::Btree, profile)
    }

    #[test]
    fn accounting_without_sleep_is_fast_but_counted() {
        let mut profile = NetworkProfile::wan(50, 1);
        profile.sleep = false; // accounting only
        let ep = endpoint(profile);
        let q = parse_query("SELECT * WHERE { ?s <http://x/p> ?o }", ep.store().dict()).unwrap();
        let t0 = Instant::now();
        let sols = ep.select(&q).unwrap();
        assert_eq!(sols.len(), 50);
        assert!(
            t0.elapsed().as_millis() < 40,
            "accounting-only profile slept"
        );
        let s = ep.stats_snapshot();
        assert_eq!(s.select_requests, 1);
        assert_eq!(s.rows_returned, 50);
        // Virtual time includes the 50 ms latency even without sleeping.
        assert!(s.virtual_time_ns >= 50_000_000);
    }

    #[test]
    fn wan_profile_actually_sleeps() {
        let ep = endpoint(NetworkProfile::wan(30, 100));
        let q = parse_query("ASK { ?s <http://x/p> ?o }", ep.store().dict()).unwrap();
        let t0 = Instant::now();
        assert!(ep.ask(&q).unwrap());
        assert!(
            t0.elapsed().as_millis() >= 30,
            "WAN profile did not sleep for its latency"
        );
    }

    #[test]
    fn bigger_results_cost_more_virtual_time_under_bandwidth() {
        let mut profile = NetworkProfile::wan(0, 1); // 1 Mbit/s, no latency
        profile.sleep = false;
        let ep = endpoint(profile);
        let dict = ep.store().dict();
        let small = parse_query("SELECT * WHERE { ?s <http://x/p> ?o } LIMIT 1", dict).unwrap();
        let large = parse_query("SELECT * WHERE { ?s <http://x/p> ?o }", dict).unwrap();
        let _ = ep.select(&small);
        let after_small = ep.stats_snapshot().virtual_time_ns;
        let _ = ep.select(&large);
        let after_large = ep.stats_snapshot().virtual_time_ns - after_small;
        assert!(
            after_large > after_small,
            "transfer time did not grow with result size: {after_small} vs {after_large}"
        );
    }

    #[test]
    fn ask_and_count_charge_real_response_sizes() {
        let ep = endpoint(NetworkProfile::default());
        let dict = ep.store().dict();
        let hit = parse_query("ASK { ?s <http://x/p> ?o }", dict).unwrap();
        let miss = parse_query("ASK { ?s <http://x/q> ?o }", dict).unwrap();
        let before = ep.stats_snapshot();
        assert!(ep.ask(&hit).unwrap());
        let true_bytes = ep.stats_snapshot().since(&before).bytes_returned;
        assert_eq!(true_bytes, 4); // "true"

        let before = ep.stats_snapshot();
        assert!(!ep.ask(&miss).unwrap());
        let false_bytes = ep.stats_snapshot().since(&before).bytes_returned;
        assert_eq!(false_bytes, 5); // "false"

        let count_q =
            parse_query("SELECT (COUNT(*) AS ?c) WHERE { ?s <http://x/p> ?o }", dict).unwrap();
        let before = ep.stats_snapshot();
        assert_eq!(ep.count(&count_q).unwrap(), 50);
        let count_bytes = ep.stats_snapshot().since(&before).bytes_returned;
        assert_eq!(count_bytes, 2); // "50"
    }

    #[test]
    fn rows_scanned_surfaces_in_snapshots() {
        let ep = endpoint(NetworkProfile::default());
        let dict = ep.store().dict();
        let q = parse_query("SELECT * WHERE { ?s <http://x/p> ?o }", dict).unwrap();
        let before = ep.stats_snapshot();
        assert_eq!(ep.select(&q).unwrap().len(), 50);
        let window = ep.stats_snapshot().since(&before);
        assert_eq!(window.rows_scanned, 50);
        // A LIMIT 1 pushdown visits a single index entry.
        let limited = parse_query("SELECT * WHERE { ?s <http://x/p> ?o } LIMIT 1", dict).unwrap();
        let before = ep.stats_snapshot();
        let _ = ep.select(&limited);
        assert_eq!(ep.stats_snapshot().since(&before).rows_scanned, 1);
    }
}
