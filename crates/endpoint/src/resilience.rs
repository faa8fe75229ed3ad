//! The resilience layer every engine routes remote calls through:
//! retries with exponential backoff and jitter, a per-query deadline, and
//! a per-endpoint circuit breaker.
//!
//! A [`ResilientClient`] is created per query execution. Each endpoint's
//! circuit moves Closed → Open (after `trip_threshold` consecutive
//! failures) → HalfOpen (once `open_cooldown` has elapsed on the
//! injectable [`Clock`]) and back: the half-open state admits a single
//! probe request whose success re-closes the circuit, so an endpoint
//! that recovers mid-query is re-admitted instead of staying dead
//! forever. When the federation replicates partitions, data-bearing
//! selects additionally *fail over*: a request that exhausts its retries
//! on one replica-group member is transparently re-issued against the
//! next healthy member ([`ResilientClient::select_failover`]). Time is
//! abstracted behind [`Clock`] so every schedule is testable without
//! real sleeping.

use crate::error::{EndpointError, EndpointFailure};
use crate::federation::{EndpointId, Federation};
use crate::trace::{HealthState, RequestCounts, RequestKind, TraceEvent, TraceSink};
use lusail_rdf::SplitMix64;
use lusail_sparql::{Query, SolutionSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A monotonic time source the client schedules retries against.
pub trait Clock: Send + Sync {
    /// Time elapsed since the clock's origin.
    fn now(&self) -> Duration;
    /// Blocks (or pretends to block) for the given duration.
    fn sleep(&self, d: Duration);
}

/// The real clock: `Instant`-based, actually sleeps. Only
/// [`Federation::new`] builds one.
pub(crate) struct SystemClock {
    origin: Instant,
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn sleep(&self, d: Duration) {
        if d > Duration::ZERO {
            std::thread::sleep(d);
        }
    }
}

/// A manually-advanced clock for deterministic tests: `sleep` advances
/// virtual time instantly, so a test can assert the exact backoff
/// schedule the client produced.
#[derive(Default)]
pub struct ManualClock {
    now: Mutex<Duration>,
}

impl ManualClock {
    /// A clock at time zero.
    pub fn new() -> Arc<Self> {
        Arc::new(ManualClock::default())
    }

    /// Advances virtual time.
    pub fn advance(&self, d: Duration) {
        *self.now.lock().unwrap() += d;
    }

    /// Virtual time elapsed so far (sum of all sleeps and advances).
    pub fn elapsed(&self) -> Duration {
        *self.now.lock().unwrap()
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        *self.now.lock().unwrap()
    }

    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

/// Retry/backoff/circuit policy for remote requests. A request is bounded
/// by `max_retries` × `max_backoff` and by the query deadline
/// ([`ResilientClient::with_query_deadline`]).
#[derive(Debug, Clone, Copy)]
pub struct RequestPolicy {
    /// Retries per request after the first attempt (transient errors only).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Multiplier applied per subsequent retry.
    pub backoff_multiplier: f64,
    /// Cap on any single backoff.
    pub max_backoff: Duration,
    /// Jitter fraction: each backoff is scaled by a deterministic factor
    /// uniform in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Consecutive failed requests before the endpoint's circuit opens
    /// (requests short-circuit without a wire attempt); `0` disables
    /// tripping.
    pub trip_threshold: u32,
    /// How long an open circuit stays open before the next request is
    /// admitted as a half-open recovery probe (`Duration::ZERO`: the very
    /// next request).
    pub open_cooldown: Duration,
}

impl Default for RequestPolicy {
    fn default() -> Self {
        RequestPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(10),
            backoff_multiplier: 2.0,
            max_backoff: Duration::from_secs(1),
            jitter: 0.2,
            trip_threshold: 3,
            open_cooldown: Duration::from_secs(30),
        }
    }
}

impl RequestPolicy {
    /// The backoff before retry number `attempt` (0-based), with the
    /// deterministic jitter stream keyed by `nonce`.
    fn backoff_for(&self, attempt: u32, nonce: u64) -> Duration {
        let base = self.base_backoff.as_secs_f64()
            * self
                .backoff_multiplier
                .powi(attempt.min(i32::MAX as u32) as i32);
        let capped = base.min(self.max_backoff.as_secs_f64());
        let factor = if self.jitter > 0.0 {
            let r = SplitMix64::new(nonce).next_u64() as f64 / u64::MAX as f64;
            1.0 - self.jitter + 2.0 * self.jitter * r
        } else {
            1.0
        };
        Duration::from_secs_f64((capped * factor).max(0.0))
    }
}

/// Internal circuit state; `Open` remembers *when* it opened so the
/// cooldown can be measured on the clock.
#[derive(Debug, Clone, Copy, Default)]
enum Health {
    #[default]
    Closed,
    Open {
        since: Duration,
    },
    HalfOpen,
}

#[derive(Debug, Clone, Copy, Default)]
struct EpState {
    consecutive_failures: u32,
    failed_requests: u64,
    retries: u64,
    health: Health,
    /// True if the circuit was ever opened, even if it later recovered.
    ever_opened: bool,
    /// Bitmask over [`EndpointError::index`] of every error kind seen.
    error_kinds: u8,
}

/// Routes requests to endpoints with retry, backoff, query deadline, and
/// trip-to-dead semantics. One instance per query execution.
pub struct ResilientClient {
    policy: RequestPolicy,
    clock: Arc<dyn Clock>,
    /// When the query started (clock time at construction) — the origin
    /// the query deadline is measured from.
    origin: Duration,
    /// The query deadline ([`ResilientClient::with_query_deadline`]).
    query_deadline: Option<Duration>,
    states: Mutex<Vec<EpState>>,
    nonce: AtomicU64,
    trace: TraceSink,
    /// Wire attempts per [`RequestKind`] (indexed by `kind.index()`): each
    /// increment corresponds to exactly one invocation of the request
    /// operation, i.e. one bump of the endpoint's request counter.
    requests: [AtomicU64; 4],
    /// Observer invoked on every circuit transition, outside the state
    /// lock — a long-lived server hangs shared-cache invalidation here.
    on_transition: Option<HealthHook>,
}

/// Callback invoked on every circuit-breaker health transition. The hook
/// runs with no client lock held, so it may itself issue queries (e.g. to
/// warm a cache) without deadlocking, but it runs on the request path:
/// keep it short.
pub type HealthHook = Arc<dyn Fn(EndpointId, HealthState, HealthState) + Send + Sync>;

impl ResilientClient {
    /// A client over an injected clock that emits one
    /// [`TraceEvent::Request`] per logical request into `trace`.
    pub fn traced(policy: RequestPolicy, clock: Arc<dyn Clock>, trace: TraceSink) -> Self {
        let origin = clock.now();
        ResilientClient {
            policy,
            clock,
            origin,
            query_deadline: None,
            states: Mutex::new(Vec::new()),
            nonce: AtomicU64::new(0),
            trace,
            requests: [const { AtomicU64::new(0) }; 4],
            on_transition: None,
        }
    }

    /// Sets the query deadline, measured from the client's construction and
    /// shared by every request it issues: no wire attempt starts once it
    /// has passed, so retries and failovers can never exceed the caller's
    /// deadline.
    pub fn with_query_deadline(mut self, deadline: Duration) -> Self {
        self.query_deadline = Some(deadline);
        self
    }

    /// Installs a [`HealthHook`] observing every circuit transition this
    /// client performs. The hook fires after the transition is committed
    /// and after the state lock is released.
    pub fn with_transition_hook(mut self, hook: HealthHook) -> Self {
        self.on_transition = Some(hook);
        self
    }

    /// Wire attempts routed through this client so far, per kind — one per
    /// operation invocation, so a retried request counts once per attempt
    /// and a circuit-broken one not at all. Windows of it are one query's
    /// own traffic, whatever else runs on the federation.
    pub fn requests(&self) -> RequestCounts {
        RequestCounts(self.requests.each_ref().map(|n| n.load(Ordering::Relaxed)))
    }

    fn with_state<R>(&self, ep: EndpointId, f: impl FnOnce(&mut EpState) -> R) -> R {
        let mut states = self.states.lock().unwrap();
        if states.len() <= ep {
            states.resize_with(ep + 1, EpState::default);
        }
        f(&mut states[ep])
    }

    /// True if a request to this endpoint would currently short-circuit:
    /// the circuit is open and its cooldown has not yet elapsed.
    fn is_dead(&self, ep: EndpointId) -> bool {
        let now = self.clock.now();
        let cooldown = self.policy.open_cooldown;
        self.with_state(ep, |s| match s.health {
            Health::Open { since } => now.saturating_sub(since) < cooldown,
            _ => false,
        })
    }

    /// True once the query deadline has passed (always false without one).
    fn deadline_passed(&self) -> bool {
        self.query_deadline
            .is_some_and(|d| self.clock.now().saturating_sub(self.origin) >= d)
    }

    fn emit_transition(&self, ep: EndpointId, from: HealthState, to: HealthState) {
        self.trace.emit(|| TraceEvent::HealthTransition {
            endpoint: ep,
            from,
            to,
        });
        if let Some(hook) = &self.on_transition {
            hook(ep, from, to);
        }
    }

    /// Admission control: decides whether a request may touch the wire,
    /// moving an open circuit to half-open once its cooldown has elapsed
    /// (that request becomes the recovery probe). While a probe is in
    /// flight (half-open), further requests are short-circuited.
    fn admit(&self, ep: EndpointId) -> bool {
        let now = self.clock.now();
        let cooldown = self.policy.open_cooldown;
        let mut transition = None;
        let admitted = self.with_state(ep, |s| match s.health {
            Health::Closed => true,
            Health::HalfOpen => false,
            Health::Open { since } => {
                if now.saturating_sub(since) >= cooldown {
                    transition = Some((HealthState::Open, HealthState::HalfOpen));
                    s.health = Health::HalfOpen;
                    true
                } else {
                    false
                }
            }
        });
        if let Some((from, to)) = transition {
            self.emit_transition(ep, from, to);
        }
        admitted
    }

    fn record_success(&self, ep: EndpointId) {
        let mut transition = None;
        self.with_state(ep, |s| {
            s.consecutive_failures = 0;
            if matches!(s.health, Health::HalfOpen) {
                transition = Some((HealthState::HalfOpen, HealthState::Closed));
                s.health = Health::Closed;
            }
        });
        if let Some((from, to)) = transition {
            self.emit_transition(ep, from, to);
        }
    }

    fn record_failure(&self, ep: EndpointId, e: EndpointError) {
        let trip = self.policy.trip_threshold;
        let now = self.clock.now();
        let mut transition = None;
        self.with_state(ep, |s| {
            s.consecutive_failures += 1;
            s.failed_requests += 1;
            s.error_kinds |= 1 << e.index();
            match s.health {
                // A failed half-open probe re-opens the circuit.
                Health::HalfOpen => {
                    transition = Some((HealthState::HalfOpen, HealthState::Open));
                    s.health = Health::Open { since: now };
                    s.ever_opened = true;
                }
                Health::Closed if trip > 0 && s.consecutive_failures >= trip => {
                    transition = Some((HealthState::Closed, HealthState::Open));
                    s.health = Health::Open { since: now };
                    s.ever_opened = true;
                }
                _ => {}
            }
        });
        if let Some((from, to)) = transition {
            self.emit_transition(ep, from, to);
        }
    }

    /// Runs one logical request against endpoint `ep`, retrying transient
    /// failures per the policy. Tripped endpoints fail immediately with
    /// [`EndpointError::Unavailable`] without counting a new failure. The
    /// [`RequestKind`] label lets the trace (and the per-kind wire-attempt
    /// counters) distinguish ASK probes, COUNT probes, and check queries
    /// from data selects.
    pub fn request_kind<T>(
        &self,
        ep: EndpointId,
        kind: RequestKind,
        op: impl Fn() -> Result<T, EndpointError>,
    ) -> Result<T, EndpointError> {
        if !self.admit(ep) {
            // The circuit breaker short-circuits without touching the
            // wire: zero attempts, no endpoint counter moves.
            self.trace.emit(|| TraceEvent::Request {
                endpoint: ep,
                kind,
                attempts: 0,
                error: Some(format!("{:?}", EndpointError::Unavailable)),
            });
            return Err(EndpointError::Unavailable);
        }
        let mut attempt: u32 = 0;
        let mut attempts: u64 = 0;
        let result = loop {
            if self.deadline_passed() {
                // The query deadline has passed: no wire attempt may
                // start. The endpoint is blameless when it never got an
                // attempt, so only record a failure against it otherwise.
                if attempts > 0 {
                    self.record_failure(ep, EndpointError::Timeout);
                }
                break Err(EndpointError::Timeout);
            }
            attempts += 1;
            self.requests[kind.index()].fetch_add(1, Ordering::Relaxed);
            match op() {
                Ok(v) => {
                    self.record_success(ep);
                    break Ok(v);
                }
                Err(e) => {
                    if !e.is_transient() || attempt >= self.policy.max_retries {
                        self.record_failure(ep, e);
                        break Err(e);
                    }
                    let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
                    let backoff = self.policy.backoff_for(attempt, nonce);
                    if let Some(deadline) = self.query_deadline {
                        // Sleeping past the query deadline would let the
                        // next attempt start after it.
                        let spent = self.clock.now().saturating_sub(self.origin);
                        if spent + backoff >= deadline {
                            self.record_failure(ep, EndpointError::Timeout);
                            break Err(EndpointError::Timeout);
                        }
                    }
                    self.with_state(ep, |s| s.retries += 1);
                    self.clock.sleep(backoff);
                    attempt += 1;
                }
            }
        };
        self.trace.emit(|| TraceEvent::Request {
            endpoint: ep,
            kind,
            attempts,
            error: result.as_ref().err().map(|e| format!("{e:?}")),
        });
        result
    }

    /// The candidate order a data-bearing select tries the endpoint's
    /// replica group in: the requested member first, then every other
    /// *healthy* member in id order.
    fn failover_candidates(&self, fed: &Federation, ep: EndpointId) -> Vec<EndpointId> {
        let mut candidates: Vec<EndpointId> = vec![ep];
        candidates.extend(
            fed.replica_group(ep)
                .into_iter()
                .filter(|&m| m != ep && !self.is_dead(m)),
        );
        candidates
    }

    /// A data-bearing `SELECT` with replica-aware failover: the request
    /// is issued to the endpoint's replica group one member at a time
    /// (see `failover_candidates` for the order; each member gets the full retry policy), and the first
    /// success wins. Returns the winning member's id alongside the rows
    /// so callers can invalidate per-endpoint state for the losers. Errs
    /// only when every candidate failed.
    pub fn select_failover(
        &self,
        fed: &Federation,
        ep: EndpointId,
        q: &Query,
    ) -> Result<(EndpointId, SolutionSet), EndpointError> {
        let candidates = self.failover_candidates(fed, ep);
        let mut last_err = EndpointError::Unavailable;
        for (i, &member) in candidates.iter().enumerate() {
            match self.request_kind(member, RequestKind::Select, || {
                fed.endpoint(member).select(q)
            }) {
                Ok(rows) => return Ok((member, rows)),
                Err(e) => {
                    last_err = e;
                    if let Some(&next) = candidates.get(i + 1) {
                        self.trace.emit(|| TraceEvent::FailedOver {
                            from: member,
                            to: next,
                            kind: RequestKind::Select,
                            error: format!("{e:?}"),
                        });
                    }
                }
            }
        }
        Err(last_err)
    }

    /// The per-endpoint failure report for this query: one entry per
    /// endpoint that failed a request, spent retries, or had its circuit
    /// opened — sorted by endpoint id, with the distinct error kinds
    /// deduped in [`EndpointError::ALL`] order, so the report is
    /// deterministic however the failures interleaved.
    pub fn report(&self, fed: &Federation) -> Vec<EndpointFailure> {
        let states = self.states.lock().unwrap();
        let mut out: Vec<EndpointFailure> = states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.failed_requests > 0 || s.retries > 0 || s.ever_opened)
            .map(|(ep, s)| EndpointFailure {
                endpoint: ep,
                name: fed.endpoint(ep).name().to_string(),
                failed_requests: s.failed_requests,
                retries: s.retries,
                dead: s.ever_opened,
                errors: EndpointError::ALL
                    .into_iter()
                    .filter(|e| s.error_kinds & (1 << e.index()) != 0)
                    .collect(),
            })
            .collect();
        out.sort_by_key(|f| f.endpoint);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ResilientClient {
        /// A client over an injected clock, tracing nothing.
        fn with_clock(policy: RequestPolicy, clock: Arc<dyn Clock>) -> Self {
            ResilientClient::traced(policy, clock, TraceSink::disabled())
        }

        /// The endpoint's current circuit state.
        fn health(&self, ep: EndpointId) -> HealthState {
            self.with_state(ep, |s| match s.health {
                Health::Closed => HealthState::Closed,
                Health::Open { .. } => HealthState::Open,
                Health::HalfOpen => HealthState::HalfOpen,
            })
        }

        /// Retries spent on the endpoint so far.
        fn retries(&self, ep: EndpointId) -> u64 {
            self.with_state(ep, |s| s.retries)
        }

        /// Requests that ultimately failed at the endpoint.
        fn failed_requests(&self, ep: EndpointId) -> u64 {
            self.with_state(ep, |s| s.failed_requests)
        }
    }
    use std::sync::atomic::AtomicUsize;

    fn counting_op(
        outcomes: Vec<Result<u32, EndpointError>>,
    ) -> (Arc<AtomicUsize>, impl Fn() -> Result<u32, EndpointError>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&calls);
        let op = move || {
            let i = c.fetch_add(1, Ordering::Relaxed);
            outcomes.get(i).copied().unwrap_or(Ok(0))
        };
        (calls, op)
    }

    #[test]
    fn transient_errors_are_retried_until_success() {
        let clock = ManualClock::new();
        let client = ResilientClient::with_clock(RequestPolicy::default(), clock);
        let (calls, op) = counting_op(vec![
            Err(EndpointError::Interrupted),
            Err(EndpointError::Timeout),
            Ok(42),
        ]);
        assert_eq!(client.request_kind(0, RequestKind::Select, op), Ok(42));
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(client.retries(0), 2);
        assert_eq!(client.failed_requests(0), 0);
    }

    #[test]
    fn unavailable_fails_fast_without_retry() {
        let clock = ManualClock::new();
        let client = ResilientClient::with_clock(RequestPolicy::default(), clock.clone());
        let (calls, op) = counting_op(vec![Err(EndpointError::Unavailable)]);
        assert_eq!(
            client.request_kind(0, RequestKind::Select, op),
            Err(EndpointError::Unavailable)
        );
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(client.retries(0), 0);
        assert_eq!(client.failed_requests(0), 1);
        assert_eq!(clock.elapsed(), Duration::ZERO, "no backoff was slept");
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RequestPolicy {
            base_backoff: Duration::from_millis(10),
            backoff_multiplier: 2.0,
            max_backoff: Duration::from_millis(60),
            jitter: 0.0,
            ..RequestPolicy::default()
        };
        assert_eq!(policy.backoff_for(0, 0), Duration::from_millis(10));
        assert_eq!(policy.backoff_for(1, 0), Duration::from_millis(20));
        assert_eq!(policy.backoff_for(2, 0), Duration::from_millis(40));
        assert_eq!(policy.backoff_for(3, 0), Duration::from_millis(60)); // capped
        assert_eq!(policy.backoff_for(9, 0), Duration::from_millis(60));
    }

    #[test]
    fn jitter_stays_within_bounds_and_is_deterministic() {
        let policy = RequestPolicy {
            base_backoff: Duration::from_millis(100),
            jitter: 0.2,
            ..RequestPolicy::default()
        };
        for nonce in 0..50 {
            let b = policy.backoff_for(0, nonce);
            assert!(b >= Duration::from_millis(80), "{b:?} below jitter floor");
            assert!(
                b <= Duration::from_millis(120),
                "{b:?} above jitter ceiling"
            );
            assert_eq!(b, policy.backoff_for(0, nonce));
        }
        // Not all nonces land on the same value.
        assert_ne!(policy.backoff_for(0, 1), policy.backoff_for(0, 2));
    }

    #[test]
    fn retries_sleep_the_backoff_schedule() {
        let clock = ManualClock::new();
        let policy = RequestPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(10),
            backoff_multiplier: 2.0,
            max_backoff: Duration::from_secs(1),
            jitter: 0.0,
            trip_threshold: 0,
            ..RequestPolicy::default()
        };
        let client = ResilientClient::with_clock(policy, clock.clone());
        let (_, op) = counting_op(vec![
            Err(EndpointError::Interrupted),
            Err(EndpointError::Interrupted),
            Err(EndpointError::Interrupted),
            Ok(1),
        ]);
        assert_eq!(client.request_kind(0, RequestKind::Select, op), Ok(1));
        // 10 + 20 + 40 ms of backoff slept on the virtual clock.
        assert_eq!(clock.elapsed(), Duration::from_millis(70));
    }

    #[test]
    fn deadline_aborts_the_retry_loop() {
        let clock = ManualClock::new();
        let policy = RequestPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(30),
            backoff_multiplier: 2.0,
            max_backoff: Duration::from_secs(10),
            jitter: 0.0,
            trip_threshold: 0,
            ..RequestPolicy::default()
        };
        let client = ResilientClient::with_clock(policy, clock.clone())
            .with_query_deadline(Duration::from_millis(100));
        let (calls, op) = counting_op(vec![Err(EndpointError::Interrupted); 20]);
        assert_eq!(
            client.request_kind(0, RequestKind::Select, op),
            Err(EndpointError::Timeout)
        );
        // Backoffs 30 + 60 fit in the 100 ms budget; the third (120) would
        // blow it, so the request aborts after 3 attempts.
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(clock.elapsed(), Duration::from_millis(90));
        assert_eq!(client.failed_requests(0), 1);
    }

    #[test]
    fn consecutive_failures_trip_the_endpoint_dead() {
        let clock = ManualClock::new();
        let policy = RequestPolicy {
            max_retries: 0,
            trip_threshold: 3,
            jitter: 0.0,
            ..RequestPolicy::default()
        };
        let client = ResilientClient::with_clock(policy, clock);
        for _ in 0..3 {
            let _ = client.request_kind(1, RequestKind::Select, || {
                Err::<u32, _>(EndpointError::Interrupted)
            });
        }
        assert!(client.is_dead(1));
        // Further requests fail fast without invoking the operation.
        let (calls, op) = counting_op(vec![Ok(5)]);
        assert_eq!(
            client.request_kind(1, RequestKind::Select, op),
            Err(EndpointError::Unavailable)
        );
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        // Other endpoints are unaffected.
        assert!(!client.is_dead(0));
        assert_eq!(client.request_kind(0, RequestKind::Select, || Ok(7)), Ok(7));
    }

    #[test]
    fn wire_attempts_count_once_per_operation_invocation() {
        let clock = ManualClock::new();
        let policy = RequestPolicy {
            max_retries: 2,
            jitter: 0.0,
            ..RequestPolicy::default()
        };
        let sink = TraceSink::enabled();
        let client = ResilientClient::traced(policy, clock, sink.clone());
        assert_eq!(client.request_kind(1, RequestKind::Select, || Ok(1)), Ok(1));
        let before = client.requests();
        let (_, op) = counting_op(vec![
            Err(EndpointError::Interrupted),
            Err(EndpointError::Interrupted),
            Ok(9),
        ]);
        assert_eq!(client.request_kind(2, RequestKind::Ask, op), Ok(9));
        let window = client.requests().since(&before);
        assert_eq!(window.get(RequestKind::Ask), 3);
        assert_eq!(window.get(RequestKind::Select), 0);
        assert_eq!(window.total_requests(), 3);
        assert_eq!(client.requests().total_requests(), 4);
        assert_eq!(
            sink.events()[1..],
            [TraceEvent::Request {
                endpoint: 2,
                kind: RequestKind::Ask,
                attempts: 3,
                error: None,
            }]
        );
    }

    #[test]
    fn tripped_endpoint_records_a_zero_attempt_request_event() {
        let clock = ManualClock::new();
        let policy = RequestPolicy {
            max_retries: 0,
            trip_threshold: 1,
            jitter: 0.0,
            ..RequestPolicy::default()
        };
        let sink = TraceSink::enabled();
        let client = ResilientClient::traced(policy, clock, sink.clone());
        let _ = client.request_kind(0, RequestKind::Count, || {
            Err::<u32, _>(EndpointError::Interrupted)
        });
        assert!(client.is_dead(0));
        let (calls, op) = counting_op(vec![Ok(5)]);
        assert_eq!(
            client.request_kind(0, RequestKind::Count, op),
            Err(EndpointError::Unavailable)
        );
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        // One wire attempt total (the tripping request), zero for the
        // short-circuited one — and both requests left an event, plus the
        // circuit-open transition between them.
        assert_eq!(client.requests().get(RequestKind::Count), 1);
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0],
            TraceEvent::HealthTransition {
                endpoint: 0,
                from: HealthState::Closed,
                to: HealthState::Open,
            }
        );
        assert_eq!(
            events[2],
            TraceEvent::Request {
                endpoint: 0,
                kind: RequestKind::Count,
                attempts: 0,
                error: Some(format!("{:?}", EndpointError::Unavailable)),
            }
        );
    }

    #[test]
    fn open_circuit_half_opens_after_cooldown_and_recloses_on_success() {
        let clock = ManualClock::new();
        let policy = RequestPolicy {
            max_retries: 0,
            trip_threshold: 2,
            jitter: 0.0,
            open_cooldown: Duration::from_secs(5),
            ..RequestPolicy::default()
        };
        let sink = TraceSink::enabled();
        let client = ResilientClient::traced(policy, clock.clone(), sink.clone());
        for _ in 0..2 {
            let _ = client.request_kind(0, RequestKind::Select, || {
                Err::<u32, _>(EndpointError::Interrupted)
            });
        }
        assert!(client.is_dead(0));
        assert_eq!(client.health(0), HealthState::Open);
        // Before the cooldown, requests still short-circuit.
        let (calls, op) = counting_op(vec![Ok(1)]);
        assert_eq!(
            client.request_kind(0, RequestKind::Select, op),
            Err(EndpointError::Unavailable)
        );
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        // After the cooldown, the next request is the half-open probe.
        clock.advance(Duration::from_secs(5));
        assert!(!client.is_dead(0));
        assert_eq!(client.request_kind(0, RequestKind::Select, || Ok(7)), Ok(7));
        assert_eq!(client.health(0), HealthState::Closed);
        // Subsequent requests flow normally again.
        assert_eq!(client.request_kind(0, RequestKind::Select, || Ok(8)), Ok(8));
        let transitions: Vec<_> = sink
            .events()
            .into_iter()
            .filter_map(|ev| match ev {
                TraceEvent::HealthTransition { from, to, .. } => Some((from, to)),
                _ => None,
            })
            .collect();
        assert_eq!(
            transitions,
            vec![
                (HealthState::Closed, HealthState::Open),
                (HealthState::Open, HealthState::HalfOpen),
                (HealthState::HalfOpen, HealthState::Closed),
            ]
        );
    }

    #[test]
    fn failed_half_open_probe_reopens_the_circuit() {
        let clock = ManualClock::new();
        let policy = RequestPolicy {
            max_retries: 0,
            trip_threshold: 1,
            jitter: 0.0,
            open_cooldown: Duration::from_secs(5),
            ..RequestPolicy::default()
        };
        let client = ResilientClient::with_clock(policy, clock.clone());
        let _ = client.request_kind(0, RequestKind::Select, || {
            Err::<u32, _>(EndpointError::Interrupted)
        });
        assert_eq!(client.health(0), HealthState::Open);
        clock.advance(Duration::from_secs(5));
        // The probe fails: open again, with the cooldown restarted.
        let _ = client.request_kind(0, RequestKind::Select, || {
            Err::<u32, _>(EndpointError::Interrupted)
        });
        assert_eq!(client.health(0), HealthState::Open);
        assert!(client.is_dead(0));
        clock.advance(Duration::from_secs(4));
        assert!(client.is_dead(0), "cooldown was not restarted");
        clock.advance(Duration::from_secs(1));
        assert!(!client.is_dead(0));
    }

    #[test]
    fn zero_cooldown_half_opens_on_the_next_request() {
        let clock = ManualClock::new();
        let policy = RequestPolicy {
            max_retries: 0,
            trip_threshold: 1,
            jitter: 0.0,
            open_cooldown: Duration::ZERO,
            ..RequestPolicy::default()
        };
        let client = ResilientClient::with_clock(policy, clock);
        let _ = client.request_kind(0, RequestKind::Select, || {
            Err::<u32, _>(EndpointError::Interrupted)
        });
        // The circuit opened, but with no time elapsed the next request is
        // already the half-open probe: it reaches the wire.
        assert_eq!(client.health(0), HealthState::Open);
        assert!(!client.is_dead(0));
        let (calls, op) = counting_op(vec![Ok(1)]);
        assert_eq!(client.request_kind(0, RequestKind::Select, op), Ok(1));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(client.health(0), HealthState::Closed);
    }

    #[test]
    fn query_deadline_blocks_wire_attempts_once_passed() {
        let clock = ManualClock::new();
        let policy = RequestPolicy {
            max_retries: 10,
            base_backoff: Duration::from_millis(40),
            backoff_multiplier: 1.0,
            max_backoff: Duration::from_secs(1),
            jitter: 0.0,
            trip_threshold: 0,
            ..RequestPolicy::default()
        };
        let client = ResilientClient::with_clock(policy, clock.clone())
            .with_query_deadline(Duration::from_millis(100));
        let (calls, op) = counting_op(vec![Err(EndpointError::Interrupted); 20]);
        assert_eq!(
            client.request_kind(0, RequestKind::Select, op),
            Err(EndpointError::Timeout)
        );
        // Attempts at t=0, 40, 80; sleeping to 120 would pass the 100 ms
        // deadline, so the request stops after 3 attempts at t=80.
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert!(clock.elapsed() < Duration::from_millis(100));
        // The deadline is per *query*, not per request: a fresh request is
        // refused before its first wire attempt once it has passed.
        clock.advance(Duration::from_millis(100));
        assert!(client.deadline_passed());
        let (calls2, op2) = counting_op(vec![Ok(5)]);
        assert_eq!(
            client.request_kind(0, RequestKind::Select, op2),
            Err(EndpointError::Timeout)
        );
        assert_eq!(
            calls2.load(Ordering::Relaxed),
            0,
            "wire attempt after deadline"
        );
    }

    #[test]
    fn report_is_sorted_by_endpoint_and_dedups_error_kinds() {
        let clock = ManualClock::new();
        let policy = RequestPolicy {
            max_retries: 0,
            jitter: 0.0,
            trip_threshold: 0,
            ..RequestPolicy::default()
        };
        let client = ResilientClient::with_clock(policy, clock);
        // Failures arrive out of id order, with repeats of the same kind.
        let _ = client.request_kind(2, RequestKind::Select, || {
            Err::<u32, _>(EndpointError::Interrupted)
        });
        let _ = client.request_kind(0, RequestKind::Select, || {
            Err::<u32, _>(EndpointError::Timeout)
        });
        let _ = client.request_kind(2, RequestKind::Select, || {
            Err::<u32, _>(EndpointError::Interrupted)
        });
        let _ = client.request_kind(2, RequestKind::Select, || {
            Err::<u32, _>(EndpointError::Timeout)
        });
        let mut fed = Federation::new(lusail_rdf::Dictionary::shared());
        for name in ["A", "B", "C"] {
            let store = lusail_store::TripleStore::new(fed.dict().clone());
            fed.add(Arc::new(crate::LocalEndpoint::new(name, store)));
        }
        let report = client.report(&fed);
        assert_eq!(report.len(), 2);
        assert_eq!(
            report.iter().map(|f| f.endpoint).collect::<Vec<_>>(),
            vec![0, 2],
            "report not sorted by endpoint id"
        );
        assert_eq!(report[0].errors, vec![EndpointError::Timeout]);
        // Repeated Interrupted failures dedup to one entry; kinds are in
        // taxonomy order (Timeout before Interrupted).
        assert_eq!(
            report[1].errors,
            vec![EndpointError::Timeout, EndpointError::Interrupted]
        );
        assert_eq!(report[1].failed_requests, 3);
    }

    #[test]
    fn success_resets_the_consecutive_counter() {
        let clock = ManualClock::new();
        let policy = RequestPolicy {
            max_retries: 0,
            trip_threshold: 3,
            ..RequestPolicy::default()
        };
        let client = ResilientClient::with_clock(policy, clock);
        for _ in 0..2 {
            let _ = client.request_kind(0, RequestKind::Select, || {
                Err::<u32, _>(EndpointError::Interrupted)
            });
        }
        assert_eq!(client.request_kind(0, RequestKind::Select, || Ok(1)), Ok(1));
        for _ in 0..2 {
            let _ = client.request_kind(0, RequestKind::Select, || {
                Err::<u32, _>(EndpointError::Interrupted)
            });
        }
        assert!(!client.is_dead(0), "success did not reset the trip counter");
    }

    /// The jittered exponential backoff schedule is a pure function of
    /// `(policy, attempt, nonce)`: deterministic (same inputs, same delay),
    /// jitter-bounded around the capped exponential base, monotone and
    /// exactly capped when jitter is off, and bit-identical across platforms
    /// (SplitMix64 plus IEEE-754 arithmetic — pinned below).
    #[test]
    fn backoff_schedule_is_deterministic_bounded_and_capped() {
        let policy = RequestPolicy::default();
        let mut rng = SplitMix64::new(0xBAC0FF);
        for case in 0..500 {
            let attempt = rng.below(64) as u32;
            let nonce = rng.next_u64();
            let d = policy.backoff_for(attempt, nonce);
            assert_eq!(
                d,
                policy.backoff_for(attempt, nonce),
                "case {case}: same (attempt, nonce) must reproduce the delay"
            );
            let base =
                policy.base_backoff.as_secs_f64() * policy.backoff_multiplier.powi(attempt as i32);
            let capped = base.min(policy.max_backoff.as_secs_f64());
            let got = d.as_secs_f64();
            assert!(
                got >= capped * (1.0 - policy.jitter) - 1e-12
                    && got <= capped * (1.0 + policy.jitter) + 1e-12,
                "case {case}: delay {got} outside jitter bounds around {capped}"
            );
        }

        // Jitter off: the schedule is non-decreasing and saturates exactly
        // at the cap.
        let flat = RequestPolicy {
            jitter: 0.0,
            ..RequestPolicy::default()
        };
        let mut prev = Duration::ZERO;
        for attempt in 0..64 {
            let d = flat.backoff_for(attempt, 12345);
            assert!(d >= prev, "attempt {attempt}: schedule decreased");
            assert!(d <= flat.max_backoff, "attempt {attempt}: cap exceeded");
            prev = d;
        }
        assert_eq!(prev, flat.max_backoff, "schedule never reached the cap");

        // Cross-platform pin: these exact nanosecond delays must come out on
        // every platform, or seeded reproductions stop replaying elsewhere.
        let pinned: Vec<u128> = (0..4)
            .map(|i| policy.backoff_for(i, 0xC0FFEE).as_nanos())
            .collect();
        assert_eq!(
            pinned,
            vec![11_701_438u128, 23_402_876, 46_805_751, 93_611_503]
        );
    }
}
