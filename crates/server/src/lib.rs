//! `lusail-server` — a long-lived, multi-tenant federated query service.
//!
//! The engines in `lusail-core` are one-shot: a caller builds a
//! [`Federation`], runs a query, and throws everything away. A production
//! deployment instead keeps **one shared `Federation` and one shared
//! [`Lusail`] engine** alive across many concurrent tenants, which raises
//! three problems this crate solves:
//!
//! * **Shared cross-query caches.** The engine's probe caches and the
//!   federation's offline statistics are now read and written by many
//!   queries at once. Both were already internally synchronized; the new
//!   hazard is *staleness across tenants*: tenant A's query discovers an
//!   endpoint is dead mid-flight, but tenant B plans its next query from
//!   probe answers that endpoint gave before it died. The server installs
//!   a [`HealthHook`] on every query so a circuit-breaker transition
//!   invalidates the shared probe caches and statistics **at transition
//!   time**, before any concurrent tenant's next planning read — not just
//!   when the failing query finishes.
//! * **Admission control and load shedding.** Queries are never queued:
//!   a query is either admitted immediately or rejected with a typed
//!   [`Rejection`] (global capacity, per-tenant quota, an impossible
//!   deadline, an unhealthy federation, or a draining server), counted by
//!   reason in [`QueryServer::counters`].
//! * **Graceful drain.** [`QueryServer::drain`] refuses new admissions
//!   and waits for in-flight queries to finish, bounded by the longest
//!   outstanding per-query deadline — deadlines are mandatory at
//!   admission precisely so drain terminates.
//!
//! The HTTP front end (a dependency-free HTTP/1.1 loop) lives in
//! [`http`]; `lusail-cli serve` wires it to a federation loaded from
//! endpoint files.

mod batch;
pub mod http;

pub use batch::{BatchConfig, BatchStats};

use lusail_core::{BatchOutcome, Lusail, QueryResult};
use lusail_endpoint::{
    Clock, EndpointId, Federation, FederationError, HealthHook, HealthState, SystemClock,
};
use lusail_sparql::Query;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-tenant admission limits (every tenant gets the same ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Queries this tenant may have in flight at once.
    pub max_in_flight: usize,
    /// Upper bound (and default) for the tenant's per-query deadline: a
    /// requested deadline is clamped to this budget, and a request with
    /// no deadline gets exactly this budget. Admission always assigns
    /// *some* finite deadline so graceful drain has a bound to wait for.
    pub deadline_budget: Duration,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            max_in_flight: 4,
            deadline_budget: Duration::from_secs(30),
        }
    }
}

/// Server-wide configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Global cap on concurrently executing queries across all tenants.
    pub max_in_flight: usize,
    /// Worker-thread budget each admitted query executes with (the PR 6
    /// `ExecOptions` threading); total worker pressure is bounded by
    /// `max_in_flight * threads_per_query`.
    pub threads_per_query: usize,
    /// The limits each tenant is admitted under.
    pub tenant: TenantPolicy,
    /// Cross-tenant batching: admitted queries accumulate in a bounded
    /// window and shared subqueries are evaluated once (see [`BatchConfig`]).
    pub batch: BatchConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_in_flight: 8,
            threads_per_query: 1,
            tenant: TenantPolicy::default(),
            batch: BatchConfig::default(),
        }
    }
}

/// Why a query was refused admission. Every refusal is typed — the
/// server never queues and never silently drops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// Load shedding: the server (or this tenant) is at capacity, or the
    /// federation is unhealthy. `reason` is human-readable.
    Shed {
        /// What tripped the shed decision.
        reason: String,
    },
    /// The effective deadline (requested, clamped to the tenant budget)
    /// is zero or already in the past: the query could never finish.
    DeadlineExceeded,
    /// The server is draining: in-flight queries are finishing, new
    /// admissions are refused.
    Draining,
}

impl Rejection {
    /// A stable machine-readable code: `shed`, `deadline`, or `draining`.
    pub fn code(&self) -> &'static str {
        match self {
            Rejection::Shed { .. } => "shed",
            Rejection::DeadlineExceeded => "deadline",
            Rejection::Draining => "draining",
        }
    }
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::Shed { reason } => write!(f, "shed: {reason}"),
            Rejection::DeadlineExceeded => write!(f, "deadline: effective deadline is zero"),
            Rejection::Draining => write!(f, "draining: server is shutting down"),
        }
    }
}

/// Why [`QueryServer::execute`] did not return a result.
#[derive(Debug)]
pub enum ServeError {
    /// Refused at admission (typed; never reached the engine).
    Rejected(Rejection),
    /// The engine itself refused the query (federation-level misuse).
    Engine(FederationError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected(r) => write!(f, "rejected ({r})"),
            ServeError::Engine(e) => write!(f, "engine error: {e:?}"),
        }
    }
}

/// What [`QueryServer::drain`] observed.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// How long drain waited for in-flight queries.
    pub waited: Duration,
    /// Queries still in flight when the wait bound expired (`0` on a
    /// clean drain).
    pub abandoned: usize,
}

/// Monotonic serving counters (all incremented exactly once per query).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Queries admitted and executed.
    pub admitted: u64,
    /// Admitted queries whose result was complete.
    pub complete_results: u64,
    /// Admitted queries that degraded to an incomplete result.
    pub incomplete_results: u64,
    /// Rejections with code `shed`.
    pub shed: u64,
    /// Rejections with code `deadline`.
    pub deadline_rejected: u64,
    /// Rejections with code `draining`.
    pub draining_rejected: u64,
    /// Shared-cache / statistics invalidations triggered by circuit
    /// transitions observed mid-query.
    pub health_invalidations: u64,
}

impl ServerCounters {
    /// Total typed rejections of any kind.
    pub fn total_rejected(&self) -> u64 {
        self.shed + self.deadline_rejected + self.draining_rejected
    }
}

#[derive(Default)]
struct Atomics {
    admitted: AtomicU64,
    complete_results: AtomicU64,
    incomplete_results: AtomicU64,
    shed: AtomicU64,
    deadline_rejected: AtomicU64,
    draining_rejected: AtomicU64,
}

/// Admission bookkeeping, guarded by one mutex: the decision to admit
/// and the in-flight accounting are atomic, so the capacity bound is
/// never overshot by racing tenants.
#[derive(Default)]
struct Admission {
    draining: bool,
    in_flight: usize,
    per_tenant: HashMap<String, usize>,
    next_session: u64,
    /// Absolute deadline of every in-flight session — the drain bound.
    deadlines: HashMap<u64, Instant>,
}

/// A long-lived, multi-tenant query service over one shared
/// [`Federation`] and one shared [`Lusail`] engine.
pub struct QueryServer {
    engine: Arc<Lusail>,
    fed: Federation,
    config: ServerConfig,
    hook: HealthHook,
    state: Mutex<Admission>,
    drained: Condvar,
    counters: Atomics,
    /// Endpoints currently believed dead (circuit open), fed by the
    /// health hook; cleared by the next complete query.
    unhealthy: Arc<Mutex<HashSet<EndpointId>>>,
    /// Shared-cache invalidations performed by the hook (the hook holds
    /// a clone of this `Arc`, not a reference back to the server).
    invalidations: Arc<AtomicU64>,
    /// The clock batching windows and deadlines are measured on
    /// (injectable so scheduler tests are deterministic).
    pub(crate) clock: Arc<dyn Clock>,
    /// Cross-tenant batching scheduler state (see [`batch`]).
    pub(crate) batcher: batch::Batcher,
}

impl QueryServer {
    /// Builds a server around a federation, constructing the shared
    /// engine with the given configuration.
    pub fn new(fed: Federation, engine: Lusail, config: ServerConfig) -> Arc<Self> {
        Self::with_clock(fed, engine, config, Arc::new(SystemClock::default()))
    }

    /// [`QueryServer::new`] with an injected clock: batching windows and
    /// per-query deadlines are measured on it, so a
    /// [`ManualClock`](lusail_endpoint::ManualClock) shared with the
    /// engine makes scheduler timing fully deterministic in tests.
    pub(crate) fn with_clock(
        fed: Federation,
        engine: Lusail,
        config: ServerConfig,
        clock: Arc<dyn Clock>,
    ) -> Arc<Self> {
        let engine = Arc::new(engine);
        let unhealthy: Arc<Mutex<HashSet<EndpointId>>> = Arc::default();
        let invalidations = Arc::new(AtomicU64::new(0));
        let hook = make_invalidation_hook(
            Arc::clone(&engine),
            fed.clone(),
            Arc::clone(&unhealthy),
            Arc::clone(&invalidations),
        );
        Arc::new(QueryServer {
            engine,
            fed,
            config,
            hook,
            state: Mutex::new(Admission::default()),
            drained: Condvar::new(),
            counters: Atomics::default(),
            unhealthy,
            invalidations,
            clock,
            batcher: batch::Batcher::default(),
        })
    }

    /// The shared engine (its probe caches are the cross-query layer).
    pub fn engine(&self) -> &Arc<Lusail> {
        &self.engine
    }

    /// The shared federation.
    pub fn federation(&self) -> &Federation {
        &self.fed
    }

    /// True once [`QueryServer::drain`] has started.
    pub(crate) fn is_draining(&self) -> bool {
        self.state.lock().unwrap().draining
    }

    /// Executes `query` for `tenant` with the tenant's full deadline
    /// budget.
    pub fn execute(&self, tenant: &str, query: &Query) -> Result<QueryResult, ServeError> {
        self.execute_with_deadline(tenant, query, None)
    }

    /// Executes `query` for `tenant`, clamping `requested` to the
    /// tenant's deadline budget (`None` uses the full budget). The query
    /// is either admitted and run to completion (possibly degraded, per
    /// the engine's graceful-degradation semantics) or refused with a
    /// typed [`Rejection`] — never queued.
    pub(crate) fn execute_with_deadline(
        &self,
        tenant: &str,
        query: &Query,
        requested: Option<Duration>,
    ) -> Result<QueryResult, ServeError> {
        let budget = self.config.tenant.deadline_budget;
        let deadline = requested.map_or(budget, |d| d.min(budget));
        let session = match self.admit(tenant, deadline) {
            Ok(session) => session,
            Err(rejection) => {
                self.count_rejection(&rejection);
                return Err(ServeError::Rejected(rejection));
            }
        };
        let guard = SessionGuard {
            server: self,
            tenant: tenant.to_string(),
            session,
        };
        if self.config.batch.enabled {
            // The session stays held across the window wait — capacity
            // applies to queries the server has accepted, whether they
            // are executing or waiting for their batch to form.
            let outcome = self.batch_submit(query, deadline);
            drop(guard);
            return match outcome {
                BatchOutcome::Finished(result) => {
                    self.count_executed(result.complete);
                    Ok(*result)
                }
                BatchOutcome::DeadlineExpired => {
                    // The window wait (or a neighbour's work) consumed the
                    // whole budget: the refusal is typed exactly like an
                    // impossible deadline at admission.
                    let rejection = Rejection::DeadlineExceeded;
                    self.count_rejection(&rejection);
                    Err(ServeError::Rejected(rejection))
                }
                BatchOutcome::Error(e) => {
                    self.counters.admitted.fetch_add(1, Ordering::Relaxed);
                    Err(ServeError::Engine(e))
                }
            };
        }
        let opts = lusail_endpoint::ExecOptions::default()
            .with_threads(self.config.threads_per_query)
            .with_deadline(deadline)
            .with_health_hook(self.hook.clone());
        let result = self.engine.execute_with(&self.fed, query, &opts);
        drop(guard);
        match result {
            Ok(result) => {
                self.count_executed(result.complete);
                Ok(result)
            }
            Err(e) => {
                self.counters.admitted.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Engine(e))
            }
        }
    }

    /// Counts an admitted query that reached the engine and produced a
    /// result (shared by the direct and batched paths).
    fn count_executed(&self, complete: bool) {
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        if complete {
            self.counters
                .complete_results
                .fetch_add(1, Ordering::Relaxed);
            // A complete query is proof of life: whatever the health
            // model believed, the federation answered.
            self.unhealthy.lock().unwrap().clear();
        } else {
            self.counters
                .incomplete_results
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The admission decision: draining, impossible deadline, federation
    /// health, global capacity, then tenant quota — all under one lock
    /// so concurrent admissions can never overshoot a bound.
    fn admit(&self, tenant: &str, deadline: Duration) -> Result<u64, Rejection> {
        if deadline.is_zero() {
            return Err(Rejection::DeadlineExceeded);
        }
        // Shed while every endpoint of the federation is believed dead
        // (circuit open); recovery is observed through the next complete
        // query.
        {
            let down = self.unhealthy.lock().unwrap();
            let ids = self.fed.all_ids();
            if !ids.is_empty() && ids.iter().all(|id| down.contains(id)) {
                return Err(Rejection::Shed {
                    reason: "no healthy endpoints (all circuits open)".into(),
                });
            }
        }
        let mut state = self.state.lock().unwrap();
        if state.draining {
            return Err(Rejection::Draining);
        }
        if state.in_flight >= self.config.max_in_flight {
            return Err(Rejection::Shed {
                reason: format!("server at capacity ({} queries in flight)", state.in_flight),
            });
        }
        let tenant_load = state.per_tenant.get(tenant).copied().unwrap_or(0);
        if tenant_load >= self.config.tenant.max_in_flight {
            return Err(Rejection::Shed {
                reason: format!("tenant {tenant:?} at quota ({tenant_load} queries in flight)"),
            });
        }
        state.in_flight += 1;
        *state.per_tenant.entry(tenant.to_string()).or_insert(0) += 1;
        let session = state.next_session;
        state.next_session += 1;
        state.deadlines.insert(session, Instant::now() + deadline);
        Ok(session)
    }

    fn count_rejection(&self, rejection: &Rejection) {
        let counter = match rejection {
            Rejection::Shed { .. } => &self.counters.shed,
            Rejection::DeadlineExceeded => &self.counters.deadline_rejected,
            Rejection::Draining => &self.counters.draining_rejected,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Graceful drain: refuses new admissions and waits for every
    /// in-flight query, bounded by the longest outstanding deadline plus
    /// a small processing margin (admission guarantees every session has
    /// a finite deadline, so the bound always exists).
    pub fn drain(&self) -> DrainReport {
        let started = Instant::now();
        let mut state = self.state.lock().unwrap();
        state.draining = true;
        let bound = state
            .deadlines
            .values()
            .max()
            .map(|d| d.saturating_duration_since(started))
            .unwrap_or(Duration::ZERO)
            + Duration::from_millis(500);
        while state.in_flight > 0 {
            let elapsed = started.elapsed();
            if elapsed >= bound {
                break;
            }
            let (next, _) = self.drained.wait_timeout(state, bound - elapsed).unwrap();
            state = next;
        }
        DrainReport {
            waited: started.elapsed(),
            abandoned: state.in_flight,
        }
    }

    /// A snapshot of the serving counters.
    pub fn counters(&self) -> ServerCounters {
        ServerCounters {
            admitted: self.counters.admitted.load(Ordering::Relaxed),
            complete_results: self.counters.complete_results.load(Ordering::Relaxed),
            incomplete_results: self.counters.incomplete_results.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            deadline_rejected: self.counters.deadline_rejected.load(Ordering::Relaxed),
            draining_rejected: self.counters.draining_rejected.load(Ordering::Relaxed),
            health_invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

/// Decrements in-flight accounting (and wakes drain) even if the engine
/// panics. A tenant with nothing left in flight leaves the admission map:
/// tenant names are client-supplied, so the map holds only live ones.
struct SessionGuard<'a> {
    server: &'a QueryServer,
    tenant: String,
    session: u64,
}

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.server.state.lock().unwrap();
        state.in_flight -= 1;
        if let Some(n) = state.per_tenant.get_mut(&self.tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                state.per_tenant.remove(&self.tenant);
            }
        }
        state.deadlines.remove(&self.session);
        self.server.drained.notify_all();
    }
}

/// Builds the standard shared-cache invalidation hook: on **every**
/// circuit transition the endpoint's memoized probe answers and offline
/// statistics are dropped (conservative — an endpoint coming back may
/// have diverged just as much as one going away), and the unhealthy set
/// feeding health-driven shedding is updated.
fn make_invalidation_hook(
    engine: Arc<Lusail>,
    fed: Federation,
    unhealthy: Arc<Mutex<HashSet<EndpointId>>>,
    invalidations: Arc<AtomicU64>,
) -> HealthHook {
    Arc::new(move |ep, _from, to| {
        engine.invalidate_endpoint_probes(ep);
        fed.invalidate_stats(ep);
        invalidations.fetch_add(1, Ordering::Relaxed);
        let mut down = unhealthy.lock().unwrap();
        match to {
            HealthState::Open => {
                down.insert(ep);
            }
            HealthState::Closed => {
                down.remove(&ep);
            }
            HealthState::HalfOpen => {}
        }
    })
}

#[cfg(test)]
mod tests;
