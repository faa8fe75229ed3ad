//! Cross-tenant batching: admitted queries accumulate in a bounded
//! window and execute together through the engine's multi-query
//! optimizer, so identical subqueries from different tenants hit the
//! wire once.
//!
//! The scheduler is leader/follower: the query that *opens* a window
//! becomes its leader, waits until the window closes — a count trigger
//! (`max_batch` pending), the window duration elapsing, or the nearest
//! pending deadline coming due, whichever is first — then drains the
//! queue and runs the batch. Followers park on a per-query slot until
//! the leader delivers their outcome. All waiting is measured on the
//! server's injectable [`Clock`](lusail_endpoint::Clock) so tests drive the window
//! deterministically; the real-time elapsed wait is used as a fallback
//! bound so a frozen `ManualClock` can never wedge a leader.
//!
//! Isolation contracts (enforced by the engine's
//! [`execute_batch_with`](lusail_core::Lusail::execute_batch_with) and
//! pinned by the deadline-isolation regression test):
//!
//! * a tenant's deadline is fixed at admission and charged across both
//!   the window wait and every earlier item in its batch — waiting on
//!   another tenant's work can only *shorten* the budget, never extend
//!   it, and an expired item is refused with the typed deadline
//!   rejection instead of executing late;
//! * a failed shared subquery degrades every dependent tenant honestly
//!   (incomplete result plus inherited failure attribution), never
//!   silently.

use crate::QueryServer;
use lusail_core::{BatchItem, BatchOutcome};
use lusail_endpoint::ExecOptions;
use lusail_sparql::Query;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Batching-window configuration (see [`crate::ServerConfig::batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Route admitted queries through the batching scheduler. Off by
    /// default: a query then executes immediately on its own thread.
    pub enabled: bool,
    /// How long an open window collects queries, measured on the
    /// federation's clock (real elapsed time is a fallback bound under a
    /// frozen test clock).
    pub window: Duration,
    /// Count trigger: the window closes as soon as this many queries are
    /// pending.
    pub max_batch: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            enabled: false,
            window: Duration::from_millis(2),
            max_batch: 8,
        }
    }
}

/// Monotonic counters describing the batching scheduler's work, exposed
/// through `/stats` as the `batch.*` lines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Windows executed.
    pub windows: u64,
    /// Queries that went through a window (including singleton windows).
    pub batched_queries: u64,
    /// Largest window observed.
    pub max_window: u64,
    /// Subquery evaluations answered from a batch memo instead of the
    /// wire.
    pub shared_hits: u64,
    /// Wire requests those memo hits avoided.
    pub wire_requests_saved: u64,
}

/// A parked query's mailbox: the leader delivers the item's
/// [`BatchOutcome`] as the engine returned it.
#[derive(Default)]
struct Slot {
    outcome: Mutex<Option<BatchOutcome>>,
    ready: Condvar,
}

impl Slot {
    fn deliver(&self, outcome: BatchOutcome) {
        *self.outcome.lock().unwrap() = Some(outcome);
        self.ready.notify_all();
    }

    fn wait(&self) -> BatchOutcome {
        let mut guard = self.outcome.lock().unwrap();
        loop {
            match guard.take() {
                Some(outcome) => return outcome,
                None => guard = self.ready.wait(guard).unwrap(),
            }
        }
    }
}

struct Entry {
    query: Query,
    /// Absolute deadline on the federation's clock, fixed at submission
    /// — window waits and neighbours' work are charged against it.
    deadline_at: Duration,
    slot: Arc<Slot>,
}

#[derive(Default)]
struct BatchQueue {
    pending: Vec<Entry>,
    /// True while some submitter is leading an open window.
    window_open: bool,
}

/// The shared scheduler state hanging off [`QueryServer`].
#[derive(Default)]
pub(crate) struct Batcher {
    state: Mutex<BatchQueue>,
    arrived: Condvar,
    stats: Mutex<BatchStats>,
}

impl QueryServer {
    /// Submits an admitted query to the batching scheduler and blocks
    /// until its outcome is delivered. The caller still holds its
    /// admission session (so capacity applies to queries waiting in a
    /// window) and does its own counter accounting on the returned
    /// outcome.
    pub(crate) fn batch_submit(&self, query: &Query, deadline: Duration) -> BatchOutcome {
        let slot = Arc::new(Slot::default());
        let deadline_at = self.fed.clock().now() + deadline;
        let leader = {
            let mut queue = self.batcher.state.lock().unwrap();
            queue.pending.push(Entry {
                query: query.clone(),
                deadline_at,
                slot: Arc::clone(&slot),
            });
            self.batcher.arrived.notify_all();
            let lead = !queue.window_open;
            queue.window_open = true;
            lead
        };
        if leader {
            self.lead_window();
        }
        slot.wait()
    }

    /// Collects the open window until it closes, then runs the batch.
    fn lead_window(&self) {
        let cfg = self.config.batch;
        let opened_real = Instant::now();
        let opened_clock = self.fed.clock().now();
        let mut queue = self.batcher.state.lock().unwrap();
        loop {
            if queue.pending.len() >= cfg.max_batch {
                break;
            }
            let clock_now = self.fed.clock().now();
            let clock_left = cfg
                .window
                .saturating_sub(clock_now.saturating_sub(opened_clock));
            let real_left = cfg.window.saturating_sub(opened_real.elapsed());
            // Never queue past a pending deadline: the window closes when
            // the nearest one comes due, so a tight-deadline tenant is
            // executed (or typed-refused) on time instead of waiting out
            // a generous window.
            let nearest_deadline = queue
                .pending
                .iter()
                .map(|e| e.deadline_at.saturating_sub(clock_now))
                .min()
                .unwrap_or(Duration::ZERO);
            let wait = clock_left.min(real_left).min(nearest_deadline);
            if wait.is_zero() {
                break;
            }
            let (next, timeout) = self.batcher.arrived.wait_timeout(queue, wait).unwrap();
            queue = next;
            if timeout.timed_out() {
                // The window (or a deadline) elapsed in real time; under a
                // frozen test clock this is the fallback that keeps the
                // leader from wedging.
                break;
            }
        }
        let batch: Vec<Entry> = std::mem::take(&mut queue.pending);
        queue.window_open = false;
        drop(queue);
        self.run_batch(batch);
    }

    /// Executes one closed window through the engine's multi-query
    /// optimizer and delivers every entry's outcome.
    fn run_batch(&self, batch: Vec<Entry>) {
        let items: Vec<BatchItem> = batch
            .iter()
            .map(|entry| {
                // Remaining budget after the window wait; zero means the
                // wait itself consumed the deadline and the engine will
                // refuse the item without touching the wire. The engine
                // further charges earlier items' work against it.
                let remaining = entry.deadline_at.saturating_sub(self.fed.clock().now());
                BatchItem {
                    query: entry.query.clone(),
                    opts: ExecOptions::default()
                        .with_threads(self.config.threads_per_query)
                        .with_deadline(remaining)
                        .with_health_hook(self.hook.clone()),
                }
            })
            .collect();
        let (outcomes, report) = self.engine.execute_batch_with(&self.fed, &items);
        {
            let mut stats = self.batcher.stats.lock().unwrap();
            stats.windows += 1;
            stats.batched_queries += batch.len() as u64;
            stats.max_window = stats.max_window.max(batch.len() as u64);
            stats.shared_hits += report.shared_hits;
            stats.wire_requests_saved += report.wire_requests_saved;
        }
        for (entry, outcome) in batch.into_iter().zip(outcomes) {
            entry.slot.deliver(outcome);
        }
    }

    /// A snapshot of the batching counters.
    pub fn batch_stats(&self) -> BatchStats {
        *self.batcher.stats.lock().unwrap()
    }
}
