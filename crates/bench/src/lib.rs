//! The `lusail-bench` harness: the byte-exact counter gate
//! ([`counters`]) and the paper's tables and figures ([`figures`]).
//!
//! The helpers here run an engine on a query with request accounting and
//! a soft timeout, and print/persist result tables. The engines come from
//! the one roster, [`lusail_baselines::EngineKind`].

pub mod counters;
pub mod figures;

use lusail_baselines::EngineKind;
use lusail_endpoint::ExecOptions;
use lusail_endpoint::{FederatedEngine, Federation, QueryOutcome, StatsSnapshot};
use lusail_sparql::{Query, SolutionSet};
use std::io::Write as _;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The outcome of one engine/query run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Wall time.
    pub elapsed: Duration,
    /// Network counters accumulated during the run (all endpoints).
    pub requests: StatsSnapshot,
    /// The solutions (`None` on timeout).
    pub solutions: Option<SolutionSet>,
    /// False when endpoint failures degraded the run to a partial answer
    /// (also false on timeout).
    pub complete: bool,
}

impl RunResult {
    /// True if the soft timeout fired (no solutions came back).
    pub fn timed_out(&self) -> bool {
        self.solutions.is_none()
    }

    /// Result rows (`None` on timeout).
    pub fn rows(&self) -> Option<usize> {
        self.solutions.as_ref().map(|s| s.len())
    }

    /// A compact display cell: time in ms, or `TIMEOUT`.
    pub fn cell(&self) -> String {
        if self.timed_out() {
            "TIMEOUT".to_string()
        } else {
            format!("{:.1}", self.elapsed.as_secs_f64() * 1e3)
        }
    }
}

/// Runs `engine` on `query`, measuring wall time and the federation's
/// request counters. If the run exceeds `timeout`, returns a timed-out
/// result and abandons the run (the paper's harness likewise abandons runs
/// at its one-hour limit). The run carries `timeout` as its query deadline,
/// so the abandoned thread starts no wire attempt after it and cannot add
/// requests to the next run's counter window; in-memory join work may
/// still finish.
pub(crate) fn run_with_timeout(
    engine: &Arc<dyn FederatedEngine>,
    fed: &Federation,
    query: &Query,
    timeout: Duration,
) -> RunResult {
    let before = fed.stats_snapshot();
    let start = Instant::now();
    let (tx, rx) = mpsc::channel();
    {
        let engine = Arc::clone(engine);
        let fed = fed.clone();
        let query = query.clone();
        std::thread::spawn(move || {
            let opts = ExecOptions::default().with_deadline(timeout);
            let outcome = engine
                .run_with(&fed, &query, &opts)
                .expect("bench federations are non-empty");
            let _ = tx.send(outcome);
        });
    }
    let outcome = rx.recv_timeout(timeout).ok();
    let requests = fed.stats_snapshot().since(&before);
    settle(outcome, start.elapsed(), timeout, requests)
}

/// The result of a run whose `outcome` arrived (`Some`) or did not after
/// `elapsed`. A run that used up its `timeout` timed out whichever came
/// first: the engine stops at that same deadline and may hand back its
/// cut-short outcome before the wait for it ends.
fn settle(
    outcome: Option<QueryOutcome>,
    elapsed: Duration,
    timeout: Duration,
    requests: StatsSnapshot,
) -> RunResult {
    match outcome {
        Some(outcome) if elapsed < timeout => RunResult {
            elapsed,
            requests,
            solutions: Some(outcome.solutions),
            complete: outcome.complete,
        },
        _ => RunResult {
            elapsed,
            requests,
            solutions: None,
            complete: false,
        },
    }
}

/// Runs without a timeout (trusted-fast paths).
pub fn run(engine: &dyn FederatedEngine, fed: &Federation, query: &Query) -> RunResult {
    let before = fed.stats_snapshot();
    let start = Instant::now();
    let outcome = engine
        .run_with(fed, query, &ExecOptions::default())
        .expect("bench federations are non-empty");
    RunResult {
        elapsed: start.elapsed(),
        requests: fed.stats_snapshot().since(&before),
        solutions: Some(outcome.solutions),
        complete: outcome.complete,
    }
}

/// Repeats a run `n` times (after one warm-up that primes the caches, as
/// the paper does: "Lusail as well as its competitors are allowed to cache
/// the results of the source selection phase ... we run each query three
/// times and report their average") and averages the wall time. Counters
/// are taken from the *last* repetition (steady state).
pub(crate) fn run_averaged(
    engine: &dyn FederatedEngine,
    fed: &Federation,
    query: &Query,
    n: usize,
) -> RunResult {
    let _ = run(engine, fed, query); // warm-up primes the probe caches
    let mut total = Duration::ZERO;
    let mut last = None;
    for _ in 0..n.max(1) {
        let r = run(engine, fed, query);
        total += r.elapsed;
        last = Some(r);
    }
    let mut result = last.expect("n >= 1");
    result.elapsed = total / n.max(1) as u32;
    result
}

/// A simple fixed-width table writer that also saves CSV under
/// `results/<name>.csv`.
pub struct Table {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given CSV stem and column headers.
    pub fn new(name: &str, header: &[&str]) -> Self {
        Table {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Prints the table to stdout and writes `results/<name>.csv`.
    pub fn finish(&self) {
        let widths: Vec<usize> = self
            .header
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain([h.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
            }
            s
        };
        println!("{}", line(&self.header));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for r in &self.rows {
            println!("{}", line(r));
        }
        // CSV (cells containing commas — e.g. grouped counts — are quoted).
        let csv_cell = |c: &String| -> String {
            if c.contains(',') {
                format!("\"{c}\"")
            } else {
                c.clone()
            }
        };
        if std::fs::create_dir_all("results").is_ok() {
            if let Ok(mut f) = std::fs::File::create(format!("results/{}.csv", self.name)) {
                let _ = writeln!(f, "{}", self.header.join(","));
                for r in &self.rows {
                    let cells: Vec<String> = r.iter().map(csv_cell).collect();
                    let _ = writeln!(f, "{}", cells.join(","));
                }
            }
        }
    }
}

/// Runs a list of engines over a list of queries with timeout and result
/// verification, producing one table row per (query, engine). Engines
/// that finish must agree with each other (multiset equality); the first
/// finisher's canonical result is the reference.
pub(crate) fn compare_engines(
    table_name: &str,
    fed: &Federation,
    engines: &[(EngineKind, Arc<dyn FederatedEngine>)],
    queries: &[(&str, &Query)],
    timeout: Duration,
) -> Table {
    let mut header = vec!["query".to_string()];
    for (kind, _) in engines {
        header.push(format!("{} (ms)", kind.name()));
        header.push(format!("{} reqs", kind.name()));
    }
    header.push("rows".to_string());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(table_name, &header_refs);

    for (qname, query) in queries {
        let mut cells = vec![qname.to_string()];
        let mut reference: Option<SolutionSet> = None;
        let mut rows = String::from("-");
        for (kind, engine) in engines {
            let ename = kind.name();
            // Warm-up primes caches (the paper lets every system cache its
            // source selection), then the measured run.
            let warm = run_with_timeout(engine, fed, query, timeout);
            let r = if warm.timed_out() {
                warm
            } else {
                run_with_timeout(engine, fed, query, timeout)
            };
            // Incomplete (degraded) answers are legitimately partial:
            // they neither set the reference nor get cross-checked.
            if let (Some(sols), true) = (&r.solutions, r.complete) {
                let canon = sols.canonicalize();
                match &reference {
                    None => {
                        rows = sols.len().to_string();
                        reference = Some(canon);
                    }
                    // With LIMIT, any k-subset is a valid answer: engines
                    // need only agree on the row count.
                    Some(refsols) if query.limit.is_some() => assert_eq!(
                        refsols.len(),
                        canon.len(),
                        "{ename} returns a different row count on {qname}"
                    ),
                    Some(refsols) => assert_eq!(
                        *refsols, canon,
                        "{ename} disagrees with reference on {qname}"
                    ),
                }
            }
            cells.push(r.cell());
            cells.push(fmt_count(r.requests.total_requests()));
        }
        cells.push(rows);
        table.row(cells);
    }
    table
}

/// Formats a request count with thousands separators.
pub(crate) fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An outcome that arrives once the timeout is used up is a timeout:
    /// the engine gave up at the same deadline, so its answer may be cut
    /// short. Only an outcome inside the timeout counts as finished.
    #[test]
    fn an_outcome_at_the_timeout_is_a_timeout() {
        let timeout = Duration::from_millis(50);
        let outcome = || QueryOutcome {
            solutions: SolutionSet::unit(),
            complete: false,
            failures: Vec::new(),
        };
        let at = |elapsed| settle(Some(outcome()), elapsed, timeout, StatsSnapshot::default());
        assert!(at(timeout).timed_out());
        assert!(at(timeout * 2).timed_out());
        let inside = at(timeout - Duration::from_millis(1));
        assert_eq!((inside.timed_out(), inside.rows()), (false, Some(1)));
        assert!(settle(None, timeout, timeout, StatsSnapshot::default()).timed_out());
    }

    /// Holds every request until the test opens it.
    #[derive(Default)]
    struct Gate {
        open: std::sync::Mutex<bool>,
        opened: std::sync::Condvar,
        in_flight: std::sync::atomic::AtomicUsize,
    }

    impl Gate {
        fn pass<T>(&self, request: impl FnOnce() -> T) -> T {
            use std::sync::atomic::Ordering::SeqCst;
            self.in_flight.fetch_add(1, SeqCst);
            let open = self.open.lock().unwrap();
            drop(self.opened.wait_while(open, |open| !*open).unwrap());
            let answer = request();
            self.in_flight.fetch_sub(1, SeqCst);
            answer
        }

        fn open(&self) {
            *self.open.lock().unwrap() = true;
            self.opened.notify_all();
        }
    }

    /// An endpoint whose every request waits at a shared [`Gate`].
    struct Gated(Arc<lusail_endpoint::LocalEndpoint>, Arc<Gate>);

    impl lusail_endpoint::SparqlEndpoint for Gated {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn ask(&self, q: &Query) -> Result<bool, lusail_endpoint::EndpointError> {
            self.1.pass(|| self.0.ask(q))
        }
        fn select(&self, q: &Query) -> Result<SolutionSet, lusail_endpoint::EndpointError> {
            self.1.pass(|| self.0.select(q))
        }
        fn count(&self, q: &Query) -> Result<u64, lusail_endpoint::EndpointError> {
            self.1.pass(|| self.0.count(q))
        }
        fn stats_snapshot(&self) -> StatsSnapshot {
            self.0.stats_snapshot()
        }
        fn triple_count(&self) -> usize {
            self.0.triple_count()
        }
    }

    /// A run abandoned at its timeout stops using the wire: counters read
    /// after it are not moved by the detached thread. Every request waits
    /// at a gate that opens only after the run was abandoned, so the run
    /// cannot finish in time however the machine schedules it.
    #[test]
    fn timed_out_run_sends_no_request_after_its_timeout() {
        use lusail_benchdata::lubm;
        use std::sync::atomic::Ordering::SeqCst;
        let w = lubm::generate(&lubm::LubmConfig::new(2));
        let gate = Arc::new(Gate::default());
        let mut fed = Federation::new(Arc::clone(&w.dict));
        for ep in &w.endpoints {
            fed.add(Arc::new(Gated(Arc::clone(ep), Arc::clone(&gate))));
        }
        let engine: Arc<dyn FederatedEngine> = Arc::new(lusail_baselines::FedX::default());
        let query = &w.query("Q2").query;
        let r = run_with_timeout(&engine, &fed, query, Duration::from_millis(50));
        assert!(r.timed_out(), "a run whose requests are all held finished");
        gate.open();
        // The request held at the gate, if any, now completes; after it
        // the deadline lets no other request start.
        let released = Instant::now();
        while gate.in_flight.load(SeqCst) > 0 {
            assert!(
                released.elapsed() < Duration::from_secs(10),
                "a held request never returned"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(50));
        let settled = fed.stats_snapshot().total_requests();
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(fed.stats_snapshot().total_requests(), settled);
    }

    #[test]
    fn fmt_count_groups_thousands() {
        assert_eq!(fmt_count(5), "5");
        assert_eq!(fmt_count(1234), "1,234");
        assert_eq!(fmt_count(1234567), "1,234,567");
    }
}
