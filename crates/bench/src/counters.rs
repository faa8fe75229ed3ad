//! The byte-exact counter gate behind `lusail-bench counters`.
//!
//! One committed text file, `crates/bench/counters.tsv`, holds one line
//! per (workload, config, engine, query): result rows, completeness, and
//! the thirteen work counters of that run — wire requests by kind, bytes,
//! store rows scanned, `VALUES` blocks/bindings, join probe rows, virtual
//! network time — on an accounting-only WAN profile (40 ms RTT,
//! 10 Mbit/s; nothing sleeps). Counters come from `StatsSnapshot` windows
//! and the structured trace and repeat exactly.
//!
//! The configurations:
//!
//! * **optimized** — every engine at its defaults;
//! * **stats** — optimized plus offline characteristic-set statistics
//!   ([`lusail_store::EndpointStats`]) attached to every endpoint, so
//!   Lusail's planner answers conclusive COUNT/check probes locally.
//!   FedX and HiBISCuS resolve their source-selection ASKs through the
//!   same probe path and skip the conclusive ones too (LUBM Q1: 18 ASKs
//!   optimized, 9 with statistics). Only SPLENDID, which selects sources
//!   from its own VOID index, ignores them: its lines are the inertness
//!   control.
//!
//! The axes that must not matter are asserted, not stored: [`run`]
//! executes every line at worker budgets {1, 4} on both storage backends
//! and reports any twin that differs from the btree/1-thread run in any
//! column. [`check_inequalities`] holds the fresh run to the optimization
//! claims, and [`diff`] compares it with the committed file.

use lusail_baselines::EngineKind;
use lusail_benchdata::{bio2rdf, lrb, lubm, qfed, Workload};
use lusail_core::{LusailConfig, QueryTrace, RequestKind, TraceSink};
use lusail_endpoint::{ExecOptions, NetworkProfile};
use lusail_store::{BackendKind, EndpointStats};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// The workload axis.
pub const WORKLOADS: [&str; 4] = ["lubm", "qfed", "bio2rdf", "lrb"];

/// The configuration axis (see module docs).
pub const CONFIGS: [&str; 2] = ["optimized", "stats"];

/// Worker budgets every line must be identical at.
const THREADS: [usize; 2] = [1, 4];

/// The columns that identify a line.
pub const KEY_COLUMNS: [&str; 4] = ["workload", "config", "engine", "query"];

/// The columns that are compared: result rows, completeness (1 = every
/// endpoint answered), then the thirteen work counters.
pub const VALUE_COLUMNS: [&str; 15] = [
    "rows",
    "complete",
    "ask_requests",
    "select_requests",
    "count_requests",
    "check_queries",
    "total_requests",
    "bytes_sent",
    "bytes_returned",
    "rows_returned",
    "rows_scanned",
    "virtual_time_ns",
    "values_blocks",
    "values_bindings",
    "join_probe_rows",
];

/// First line of the file: the generator seed offset and the profile the
/// counters were taken on. Parsed by exact match.
const HEADER: &str = "# lusail-bench counters: seed 0, profile wan-sim (40 ms RTT, 10 Mbit/s)";

/// One line of `counters.tsv`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    /// Values of [`KEY_COLUMNS`].
    pub key: [String; 4],
    /// Values of [`VALUE_COLUMNS`].
    pub values: [u64; 15],
}

impl Line {
    /// The value of one of [`VALUE_COLUMNS`].
    pub(crate) fn get(&self, column: &str) -> u64 {
        let i = VALUE_COLUMNS
            .iter()
            .position(|c| *c == column)
            .unwrap_or_else(|| panic!("no value column {column}"));
        self.values[i]
    }
}

/// Renders lines as the committed file's text.
pub fn render(lines: &[Line]) -> String {
    let mut out = format!("{HEADER}\n");
    out.push_str(&KEY_COLUMNS.join("\t"));
    for column in VALUE_COLUMNS {
        out.push('\t');
        out.push_str(column);
    }
    out.push('\n');
    for line in lines {
        out.push_str(&line.key.join("\t"));
        for value in line.values {
            out.push_str(&format!("\t{value}"));
        }
        out.push('\n');
    }
    out
}

/// Why a `counters.tsv` text was refused; every variant names the
/// 1-based line at fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Line 1 is not the expected header comment.
    BadHeader { line: usize },
    /// The column-name line names a column this build does not know (or
    /// knows at another position).
    UnknownColumn { line: usize, name: String },
    /// A line has the wrong number of tab-separated fields.
    FieldCount {
        line: usize,
        found: usize,
        expected: usize,
    },
    /// A value field is not an unsigned integer.
    BadValue {
        line: usize,
        column: &'static str,
        text: String,
    },
    /// Two lines carry the same key.
    DuplicateKey {
        line: usize,
        first_line: usize,
        key: String,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadHeader { line } => write!(f, "line {line}: expected `{HEADER}`"),
            ParseError::UnknownColumn { line, name } => {
                write!(f, "line {line}: unknown column `{name}`")
            }
            ParseError::FieldCount {
                line,
                found,
                expected,
            } => write!(f, "line {line}: {found} fields, expected {expected}"),
            ParseError::BadValue { line, column, text } => {
                write!(
                    f,
                    "line {line}: {column} `{text}` is not an unsigned integer"
                )
            }
            ParseError::DuplicateKey {
                line,
                first_line,
                key,
            } => write!(f, "line {line}: key {key} already on line {first_line}"),
        }
    }
}

/// Parses the committed file's text; the inverse of [`render`].
pub fn parse(text: &str) -> Result<Vec<Line>, ParseError> {
    let expected = KEY_COLUMNS.len() + VALUE_COLUMNS.len();
    let field_count = |line: usize, found: usize| {
        if found == expected {
            Ok(())
        } else {
            Err(ParseError::FieldCount {
                line,
                found,
                expected,
            })
        }
    };
    let mut rows = text.lines();
    if rows.next() != Some(HEADER) {
        return Err(ParseError::BadHeader { line: 1 });
    }
    let names: Vec<&str> = rows.next().unwrap_or_default().split('\t').collect();
    for (name, known) in names.iter().zip(KEY_COLUMNS.iter().chain(&VALUE_COLUMNS)) {
        if name != known {
            return Err(ParseError::UnknownColumn {
                line: 2,
                name: name.to_string(),
            });
        }
    }
    field_count(2, names.len())?;
    let mut lines: Vec<Line> = Vec::new();
    for (i, row) in rows.enumerate() {
        let line = i + 3;
        let fields: Vec<&str> = row.split('\t').collect();
        field_count(line, fields.len())?;
        let key: [String; 4] = std::array::from_fn(|k| fields[k].to_string());
        let mut values = [0u64; 15];
        for (v, column) in VALUE_COLUMNS.iter().enumerate() {
            let text = fields[KEY_COLUMNS.len() + v];
            values[v] = text.parse().map_err(|_| ParseError::BadValue {
                line,
                column,
                text: text.to_string(),
            })?;
        }
        if let Some(first) = lines.iter().position(|l| l.key == key) {
            return Err(ParseError::DuplicateKey {
                line,
                first_line: first + 3,
                key: key.join("/"),
            });
        }
        lines.push(Line { key, values });
    }
    Ok(lines)
}

/// One column of one line that differs between two sources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// The line's key (workload, config, engine, query).
    pub key: [String; 4],
    /// The differing column, or `"line"` when one side has no such line.
    pub column: &'static str,
    /// `(source, value)` of the reference side.
    pub want: (String, String),
    /// `(source, value)` of the side held against it.
    pub got: (String, String),
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}: {} {}, {} {}",
            self.key.join("/"),
            self.column,
            self.want.0,
            self.want.1,
            self.got.0,
            self.got.1
        )
    }
}

/// Every column in which `got` differs from `want` (same key assumed).
fn diff_line(want: (&str, &Line), got: (&str, &Line), out: &mut Vec<Mismatch>) {
    for (i, column) in VALUE_COLUMNS.iter().enumerate() {
        if want.1.values[i] != got.1.values[i] {
            out.push(Mismatch {
                key: want.1.key.clone(),
                column,
                want: (want.0.to_string(), want.1.values[i].to_string()),
                got: (got.0.to_string(), got.1.values[i].to_string()),
            });
        }
    }
}

/// Compares a fresh run with the committed lines of the same scope: the
/// two must hold the same keys with identical values in every column.
pub fn diff(committed: &[Line], fresh: &[Line]) -> Vec<Mismatch> {
    let sources = ("counters.tsv", "fresh run");
    let absent = |line: &Line, present_in: &str, absent_from: &str| Mismatch {
        key: line.key.clone(),
        column: "line",
        want: (present_in.to_string(), "present".to_string()),
        got: (absent_from.to_string(), "absent".to_string()),
    };
    let mut out = Vec::new();
    for line in fresh {
        match committed.iter().find(|c| c.key == line.key) {
            Some(c) => diff_line((sources.0, c), (sources.1, line), &mut out),
            None => out.push(absent(line, sources.1, sources.0)),
        }
    }
    for c in committed {
        if !fresh.iter().any(|line| line.key == c.key) {
            out.push(absent(c, sources.0, sources.1));
        }
    }
    out
}

/// Which lines to run: empty filters mean everything.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    /// Workload filter (empty = all of [`WORKLOADS`]).
    pub workloads: Vec<String>,
    /// Query-name filter (empty = all queries of each workload).
    pub queries: Vec<String>,
}

impl Scope {
    fn wants(filter: &[String], name: &str) -> bool {
        filter.is_empty() || filter.iter().any(|f| f.eq_ignore_ascii_case(name))
    }

    /// True when `line` is one this scope runs.
    pub fn contains(&self, line: &Line) -> bool {
        Self::wants(&self.workloads, &line.key[0]) && Self::wants(&self.queries, &line.key[3])
    }
}

/// Builds one workload on the accounting-only WAN profile: virtual
/// latency and bandwidth are charged into `virtual_time_ns`, nothing
/// sleeps.
fn build_workload(name: &str, backend: BackendKind) -> Workload {
    let wan_sim = |n: usize| {
        Some(vec![
            NetworkProfile {
                latency: Duration::from_millis(40),
                bandwidth_bytes_per_sec: Some(10 * 1_000_000 / 8),
                sleep: false,
            };
            n
        ])
    };
    match name {
        "lubm" => lubm::generate(&lubm::LubmConfig {
            profiles: wan_sim(3),
            backend,
            ..lubm::LubmConfig::new(3)
        }),
        "qfed" => qfed::generate(&qfed::QfedConfig {
            profiles: wan_sim(4),
            backend,
            ..Default::default()
        }),
        "bio2rdf" => bio2rdf::generate(&bio2rdf::Bio2RdfConfig {
            profiles: wan_sim(5),
            backend,
            ..Default::default()
        }),
        "lrb" => lrb::generate(&lrb::LrbConfig {
            profiles: wan_sim(13),
            backend,
            ..Default::default()
        }),
        other => panic!("unknown workload {other}"),
    }
}

/// One traced run on a fresh engine: the counter window plus the
/// trace-derived work totals, as the values of [`VALUE_COLUMNS`].
fn traced_run(
    engine: EngineKind,
    workload: &Workload,
    query: &lusail_sparql::Query,
    threads: usize,
) -> [u64; 15] {
    let refs = workload.endpoint_refs();
    let engine = engine.build(&refs, LusailConfig::default());
    let sink = TraceSink::enabled();
    let before = workload.federation.stats_snapshot();
    let opts = ExecOptions::default()
        .with_threads(threads)
        .with_trace(sink.clone());
    let outcome = engine
        .run_with(&workload.federation, query, &opts)
        .expect("bench federations are non-empty");
    let window = workload.federation.stats_snapshot().since(&before);
    let trace = QueryTrace::from_sink(&sink);
    let (values_blocks, values_bindings) = trace.values_batch_totals();
    [
        outcome.solutions.len() as u64,
        outcome.complete as u64,
        window.ask_requests,
        window.select_requests,
        window.count_requests,
        trace.requests(RequestKind::Check).requests,
        window.total_requests(),
        window.bytes_sent,
        window.bytes_returned,
        window.rows_returned,
        window.rows_scanned,
        window.virtual_time_ns,
        values_blocks as u64,
        values_bindings as u64,
        trace.join_probe_rows(),
    ]
}

/// Runs every in-scope line at each worker budget on each backend.
/// Returns the btree / 1-thread lines, in file order, and every column in
/// which a twin (other budget, other backend) differs from them.
pub fn run(scope: &Scope) -> (Vec<Line>, Vec<Mismatch>) {
    let mut lines: Vec<Line> = Vec::new();
    let mut mismatches = Vec::new();
    for workload_name in WORKLOADS {
        if !Scope::wants(&scope.workloads, workload_name) {
            continue;
        }
        for config in CONFIGS {
            for backend in BackendKind::ALL {
                // A fresh federation per pass: counters start cold.
                let workload = build_workload(workload_name, backend);
                if config == "stats" {
                    // The offline phase: summaries built before any run
                    // window opens, so nothing of it leaks into counters.
                    for (id, ep) in workload.endpoints.iter().enumerate() {
                        let stats = EndpointStats::build(ep.store());
                        workload.federation.attach_stats(id, Arc::new(stats));
                    }
                }
                for engine in EngineKind::ALL {
                    for nq in &workload.queries {
                        if !Scope::wants(&scope.queries, &nq.name) {
                            continue;
                        }
                        for threads in THREADS {
                            let values = traced_run(engine, &workload, &nq.query, threads);
                            let key = [workload_name, config, engine.name(), &nq.name]
                                .map(str::to_string);
                            let twin = Line { key, values };
                            // The btree / 1-thread run of a key comes first.
                            match lines.iter().find(|l| l.key == twin.key) {
                                None => lines.push(twin),
                                Some(reference) => {
                                    let source = format!("{backend}/t{threads}");
                                    let got = (source.as_str(), &twin);
                                    diff_line(("btree/t1", reference), got, &mut mismatches);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    (lines, mismatches)
}

/// The claims a run is held to, each computed from its lines:
///
/// * every `stats` line reports the rows and completeness of its
///   `optimized` twin (statistics may only elide work, never change
///   answers);
/// * per (workload, config, query), Lusail sends no more requests than
///   HiBISCuS, and HiBISCuS no more than FedX;
/// * per (workload, config) run in full, Lusail sends fewer requests in
///   total than FedX, and fewer than SPLENDID;
/// * per workload run in full, Lusail's `stats` configuration sends
///   strictly fewer request bytes than `optimized` in no more requests.
///
/// An engine with no line in the run is compared with nothing. Returns the
/// printable gate lines.
pub fn check_inequalities(lines: &[Line], scope: &Scope) -> Result<Vec<String>, String> {
    let of = |workload: &'static str, config: &'static str| {
        lines
            .iter()
            .filter(move |l| l.key[0] == workload && l.key[1] == config)
    };
    for workload in WORKLOADS {
        for (stats, optimized) in of(workload, "stats").zip(of(workload, "optimized")) {
            for column in ["rows", "complete"] {
                if stats.get(column) != optimized.get(column) {
                    return Err(format!(
                        "{} {column}: optimized {}, stats {} — statistics changed results",
                        stats.key.join("/"),
                        optimized.get(column),
                        stats.get(column)
                    ));
                }
            }
        }
    }
    // EXPERIMENTS.md Figs. 11, 12 and 13: Lusail's subqueries never cost
    // more requests than pattern-at-a-time bound joins, and HiBISCuS is
    // FedX plus source pruning.
    for lusail in lines.iter().filter(|l| l.key[2] == "Lusail") {
        let requests = |engine| {
            let key = [&*lusail.key[0], &lusail.key[1], engine, &lusail.key[3]];
            let line = lines.iter().find(|l| l.key == key)?;
            Some(line.get("total_requests"))
        };
        if let (Some(h), Some(f)) = (requests("HiBISCuS"), requests("FedX")) {
            let l = lusail.get("total_requests");
            if l > h || h > f {
                return Err(format!(
                    "{} total_requests: Lusail {l}, HiBISCuS {h}, FedX {f} — not Lusail <= \
                     HiBISCuS <= FedX (Figs. 11-13)",
                    lusail.key.join("/")
                ));
            }
        }
    }
    let mut report = Vec::new();
    for workload in WORKLOADS {
        // Sums over a query subset prove nothing about the workload.
        if !scope.queries.is_empty() || !Scope::wants(&scope.workloads, workload) {
            continue;
        }
        let sum = |config, engine, column| -> u64 {
            let of = of(workload, config).filter(|l| l.key[2] == engine);
            of.map(|l| l.get(column)).sum()
        };
        // Figs. 11-13: FedX's bound joins send orders of magnitude more
        // requests than Lusail, and SPLENDID several times as many; on
        // `lrb` SPLENDID wins single queries, never the workload.
        for config in CONFIGS {
            for engine in ["FedX", "SPLENDID"] {
                let [lusail, other] = ["Lusail", engine].map(|e| sum(config, e, "total_requests"));
                if lusail == 0 || other == 0 {
                    continue; // an engine without lines in this run
                }
                let line =
                    format!("{workload}/{config}: Lusail {lusail} requests, {engine} {other}");
                if lusail >= other {
                    return Err(format!("{line} — Lusail must send fewer"));
                }
                report.push(line);
            }
        }
        // A conclusive answer takes a probe out of its endpoint's coalesced
        // request; the request itself goes only when all its members do.
        let [r0, r1, s0, s1] = [
            ("optimized", "total_requests"),
            ("stats", "total_requests"),
            ("optimized", "bytes_sent"),
            ("stats", "bytes_sent"),
        ]
        .map(|(config, column)| sum(config, "Lusail", column));
        if r0 == 0 {
            continue; // no Lusail line of this workload in this run
        }
        if r1 > r0 || s1 >= s0 {
            return Err(format!(
                "{workload}: stats total_requests {r1} / bytes_sent {s1} are not below \
                 optimized {r0} / {s0} — statistics elided nothing"
            ));
        }
        report.push(format!(
            "{workload}/Lusail: requests {r0} -> {r1} (stats), bytes_sent {s0} -> {s1} (stats)"
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed file, as `cargo test` sees it.
    const COMMITTED: &str = include_str!("../counters.tsv");

    /// LUBM Q1 + Q4: the tier-1 slice.
    fn small_scope() -> Scope {
        Scope {
            workloads: vec!["lubm".into()],
            queries: vec!["Q1".into(), "Q4".into()],
        }
    }

    fn in_scope(scope: &Scope) -> Vec<Line> {
        let mut lines = parse(COMMITTED).expect("committed counters.tsv parses");
        lines.retain(|l| scope.contains(l));
        lines
    }

    #[test]
    fn committed_file_round_trips_and_malformed_files_are_typed_errors() {
        let lines = parse(COMMITTED).unwrap();
        assert_eq!(lines.len(), 360);
        assert_eq!(render(&lines), COMMITTED);
        assert_eq!(parse(&render(&lines[..5])).unwrap(), lines[..5]);

        let rows: Vec<&str> = COMMITTED.lines().collect();
        let with = |line: usize, text: String| {
            let mut rows: Vec<String> = rows[..4].iter().map(|r| r.to_string()).collect();
            rows[line - 1] = text;
            parse(&rows.join("\n"))
        };
        assert_eq!(
            with(1, "# something else".into()),
            Err(ParseError::BadHeader { line: 1 })
        );
        assert_eq!(
            with(2, rows[1].replace("rows_scanned", "rows_skipped")),
            Err(ParseError::UnknownColumn {
                line: 2,
                name: "rows_skipped".into()
            })
        );
        let short = rows[3].rsplit_once('\t').unwrap().0;
        assert_eq!(
            with(4, short.into()),
            Err(ParseError::FieldCount {
                line: 4,
                found: 18,
                expected: 19
            })
        );
        assert_eq!(
            with(4, format!("{short}\t-1")),
            Err(ParseError::BadValue {
                line: 4,
                column: "join_probe_rows",
                text: "-1".into()
            })
        );
        let err = with(4, rows[2].into()).unwrap_err();
        assert_eq!(
            err,
            ParseError::DuplicateKey {
                line: 4,
                first_line: 3,
                key: "lubm/optimized/Lusail/Q1".into()
            }
        );
        assert!(err.to_string().starts_with("line 4: "), "{err}");
    }

    #[test]
    fn tier1_slice_reproduces_the_committed_counters_at_every_twin() {
        let scope = small_scope();
        let (fresh, twins) = run(&scope);
        assert_eq!(twins, Vec::new(), "a thread or backend twin diverged");
        assert_eq!(diff(&in_scope(&scope), &fresh), Vec::new());
        assert_eq!(fresh.len(), 2 * 4 * 2);
        // Out of the gate's full-workload scope: no aggregate lines, but
        // the stats-vs-optimized result identity still holds.
        assert_eq!(check_inequalities(&fresh, &scope), Ok(Vec::new()));
    }

    #[test]
    fn a_mismatch_names_the_line_the_counter_and_both_values() {
        let committed = in_scope(&small_scope());
        let mut fresh = committed.clone();
        let i = fresh
            .iter()
            .position(|l| l.key == ["lubm", "optimized", "FedX", "Q4"])
            .unwrap();
        let was = fresh[i].get("bytes_sent");
        fresh[i].values[7] += 1;
        let dropped = fresh.pop().unwrap();
        let report: Vec<String> = diff(&committed, &fresh)
            .iter()
            .map(Mismatch::to_string)
            .collect();
        assert_eq!(
            report,
            [
                format!(
                    "lubm/optimized/FedX/Q4 bytes_sent: counters.tsv {was}, fresh run {}",
                    was + 1
                ),
                format!(
                    "{} line: counters.tsv present, fresh run absent",
                    dropped.key.join("/")
                ),
            ]
        );
    }

    #[test]
    fn committed_counters_hold_the_paper_comparisons_and_doctored_copies_fail() {
        let committed = parse(COMMITTED).unwrap();
        let report = check_inequalities(&committed, &Scope::default()).unwrap();
        // Per workload: two engines in two configurations, and the stats line.
        assert_eq!(report.len(), 5 * WORKLOADS.len(), "{report:#?}");
        let splendid = "lrb/optimized: Lusail 533 requests, SPLENDID 2128";
        assert!(report.contains(&splendid.into()), "{report:#?}");
        // Sets `column` of every line whose key starts with `prefix`.
        let doctored = |prefix: &[&str], column: &str, value: &dyn Fn(&Line) -> u64| {
            let mut lines = committed.clone();
            let i = VALUE_COLUMNS.iter().position(|c| *c == column).unwrap();
            for line in (lines.iter_mut()).filter(|l| l.key.iter().zip(prefix).all(|(k, p)| k == p))
            {
                line.values[i] = value(line);
            }
            check_inequalities(&lines, &Scope::default()).unwrap_err()
        };
        let requests = |key: [&str; 4]| {
            let line = committed.iter().find(|l| l.key == key).unwrap();
            line.get("total_requests")
        };
        // Lusail above HiBISCuS on one query.
        let hibiscus = requests(["lrb", "optimized", "HiBISCuS", "S13"]);
        let err = doctored(
            &["lrb", "optimized", "Lusail", "S13"],
            "total_requests",
            &|_| hibiscus + 1,
        );
        assert!(err.contains("not Lusail <= HiBISCuS <= FedX"), "{err}");
        // HiBISCuS above FedX on one query.
        let fedx = requests(["lrb", "stats", "FedX", "C10"]);
        let err = doctored(
            &["lrb", "stats", "HiBISCuS", "C10"],
            "total_requests",
            &|_| fedx + 1,
        );
        assert!(
            err.starts_with("lrb/stats/Lusail/C10 total_requests"),
            "{err}"
        );
        // FedX and HiBISCuS no worse than Lusail on any query: the chain
        // holds per query, the strict total does not.
        let lusail = |l: &Line| requests(["lubm", "stats", "Lusail", &l.key[3]]);
        let mut lines = committed.clone();
        for line in lines.iter_mut().filter(|l| {
            l.key[..2] == ["lubm", "stats"] && ["FedX", "HiBISCuS"].contains(&l.key[2].as_str())
        }) {
            line.values[6] = lusail(line);
        }
        let err = check_inequalities(&lines, &Scope::default()).unwrap_err();
        assert!(
            err.starts_with("lubm/stats: Lusail 39 requests, FedX 39 — "),
            "{err}"
        );
        // SPLENDID sends one request per query.
        let err = doctored(&["qfed", "optimized", "SPLENDID"], "total_requests", &|_| 1);
        assert!(err.contains("SPLENDID"), "{err}");
        // Statistics stop paying on a workload the rule did not cover.
        for workload in ["bio2rdf", "lrb"] {
            let err = doctored(&[workload, "stats", "Lusail"], "bytes_sent", &|l| {
                let optimized = [workload, "optimized", "Lusail", &l.key[3]];
                committed
                    .iter()
                    .find(|o| o.key == optimized)
                    .unwrap()
                    .get("bytes_sent")
            });
            assert!(err.starts_with(&format!("{workload}: stats")), "{err}");
        }
    }

    #[test]
    fn inequalities_fail_when_an_optimization_stops_paying() {
        // (rows, total_requests, bytes_sent) of one line.
        let line = |config: &str, [rows, requests, sent]: [u64; 3]| {
            let mut values = [0u64; 15];
            values[0] = rows;
            values[1] = 1;
            values[6] = requests;
            values[7] = sent;
            ["lubm", "qfed"].map(|w| Line {
                key: [w, config, "Lusail", "Q1"].map(str::to_string),
                values,
            })
        };
        let check = |opt: [u64; 3], stats: [u64; 3]| {
            let lines = [line("optimized", opt), line("stats", stats)].concat();
            check_inequalities(&lines, &Scope::default())
        };
        let opt = [5, 10, 900];
        assert_eq!(check(opt, [5, 9, 800]).unwrap().len(), 2);
        // Fewer bytes in as many requests: members were elided.
        assert_eq!(check(opt, [5, 10, 800]).unwrap().len(), 2);
        assert!(check(opt, [5, 10, 900]).is_err()); // no elision
        assert!(check(opt, [5, 11, 800]).is_err()); // stats added a request
        assert!(check(opt, [6, 9, 800]).is_err()); // stats changed rows
    }
}
