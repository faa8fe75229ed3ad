//! The repository benchmark: four workloads, end-to-end metrics measured
//! with tracing off, and a traced run that attributes time to layers from
//! outside — by timing calls into public functions and reading public
//! result fields. See `README.md` beside this crate.
//!
//! ```text
//! lusail-benchmark --workload W --seed N --seconds S --trace 0|1   one run, JSON last line
//! lusail-benchmark run      [--seed N] [--seconds S] [--repeats R] [--json FILE] [--rev REV]
//! lusail-benchmark trace    [--seed N] [--seconds S] [--json FILE] [--rev REV]
//! lusail-benchmark selfcheck [--seed N]
//! lusail-benchmark compare A.json B.json
//! ```

mod alloc;
mod awake;
mod check;
mod compare;
mod json;
mod micro;
mod names;
mod report;
mod serve;
mod solo;
mod span;
mod stats;
mod timed;

use json::Value;
use solo::Solo;
use std::process::{Command, ExitCode};
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Seconds one run measures for when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

/// Named measurements of one run.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Records `value` under `name`.
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// What one run of one workload produced.
pub struct Outcome {
    /// Operations attempted (queries executed, requests sent).
    pub attempted: u64,
    /// Operations that errored, were rejected, came back incomplete or
    /// failed the answer check.
    pub failed: u64,
    /// The run's metrics.
    pub metrics: Metrics,
}

/// Arguments of one run of one workload.
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Folded into every generator seed, shuffle and arrival schedule.
    pub seed: u64,
    /// How long to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Exact pass count instead of a time box (selfcheck); skips the
    /// isolated layer probes.
    pub passes: Option<usize>,
}

impl RunArgs {
    /// The measuring time as a `Duration`.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// `--key value` pairs after the subcommand, plus positional arguments.
struct Flags {
    pairs: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    flags.pairs.push((key.to_string(), value.clone()));
                }
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} value: {v}")),
        }
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One run of one workload; prints the result object as the last line.
fn run_one(flags: &Flags) -> Result<ExitCode, String> {
    let args = RunArgs {
        workload: flags
            .get("workload")
            .ok_or("--workload is required")?
            .to_string(),
        seed: flags.number("seed", 1)?,
        seconds: flags.number("seconds", DEFAULT_SECONDS)?,
        trace: flags.number::<u8>("trace", 0)? != 0,
        passes: flags
            .get("passes")
            .map(|v| v.parse().map_err(|_| "bad --passes"))
            .transpose()?,
    };
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err(format!("bad --seconds value: {}", args.seconds));
    }
    let solo = match args.workload.as_str() {
        "cold_plan" => Some(Solo::ColdPlan),
        "warm_exec" => Some(Solo::WarmExec),
        "wan_overlap" => Some(Solo::WanOverlap),
        "serve_open" => None,
        other => return Err(format!("unknown workload: {other}")),
    };
    let mut outcome = if args.trace {
        let (mut outcome, rec) = match solo {
            Some(kind) => solo::trace(kind, &args),
            None => serve::trace(&args),
        };
        if args.passes.is_none() {
            micro::run(args.seed, &mut outcome.metrics);
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.jsonl", args.workload));
        if let Err(e) = rec.write_jsonl(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
        outcome
    } else {
        match solo {
            Some(kind) => solo::run(kind, &args),
            None => serve::run(&args),
        }
    };
    outcome.metrics.put("peak_rss_mib", peak_rss_mib());

    // A per-layer metric the workload does not exercise (or that cannot be
    // observed from outside on it) reads 0; an end-to-end metric is always
    // measured.
    let names: Vec<(String, &str)> = if args.trace {
        names::per_layer()
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect()
    } else {
        names::END_TO_END
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u))
            .collect()
    };
    let metrics = names
        .into_iter()
        .map(|(name, unit)| {
            let value = match outcome.metrics.get(&name) {
                Some(v) => v,
                None if args.trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let entry = Value::Obj(vec![
                ("value".into(), Value::Num(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]);
            (name, entry)
        })
        .collect();
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(outcome.failed == 0)),
        ("attempted".into(), Value::Num(outcome.attempted as f64)),
        ("failed".into(), Value::Num(outcome.failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(ExitCode::SUCCESS)
}

/// Re-executes this binary for one workload (a fresh process, so peak RSS
/// and allocator state are the workload's own) and parses its result line.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    passes: Option<usize>,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(n) = passes {
        cmd.args(["--passes", &n.to_string()]);
    }
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("could not start {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload} printed nothing"))?;
    json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

/// `run` / `trace`: every workload once per repeat, one line per metric.
fn run_all(flags: &Flags, trace: bool) -> Result<ExitCode, String> {
    let seed: u64 = flags.number("seed", 1)?;
    let seconds: f64 = flags.number("seconds", DEFAULT_SECONDS)?;
    let repeats: usize = flags.number("repeats", 1)?;
    let mut failed_any = false;
    let mut recorded = Vec::new();
    for workload in names::WORKLOADS {
        // metric -> (unit, one value per repeat)
        let mut table: Vec<(String, String, Vec<f64>)> = Vec::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for _ in 0..repeats.max(1) {
            let result = child_run(workload, seed, seconds, trace, None)?;
            attempted += result
                .get("attempted")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
            let metrics = result
                .get("metrics")
                .and_then(Value::as_obj)
                .ok_or("no metrics")?;
            for (name, entry) in metrics {
                let value = entry
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or("no value")?;
                let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("");
                match table.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, _, values)) => values.push(value),
                    None => table.push((name.clone(), unit.to_string(), vec![value])),
                }
            }
        }
        failed_any |= failed > 0.0;
        println!(
            "{workload} failed_share {} ratio",
            failed / attempted.max(1.0)
        );
        for (name, unit, values) in &table {
            println!("{workload} {name} {} {unit}", stats::median(values));
        }
        let metrics = table
            .into_iter()
            .map(|(name, unit, values)| {
                let entry = Value::Obj(vec![
                    ("unit".into(), Value::Str(unit)),
                    (
                        "values".into(),
                        Value::Arr(values.into_iter().map(Value::Num).collect()),
                    ),
                ]);
                (name, entry)
            })
            .collect();
        recorded.push((
            workload.to_string(),
            Value::Obj(vec![
                ("attempted".into(), Value::Num(attempted)),
                ("failed".into(), Value::Num(failed)),
                ("metrics".into(), Value::Obj(metrics)),
            ]),
        ));
    }
    if let Some(path) = flags.get("json") {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let doc = Value::Obj(vec![
            (
                "kind".into(),
                Value::Str(if trace { "trace" } else { "run" }.into()),
            ),
            ("seed".into(), Value::Num(seed as f64)),
            ("seconds".into(), Value::Num(seconds)),
            ("repeats".into(), Value::Num(repeats as f64)),
            (
                "rev".into(),
                Value::Str(flags.get("rev").unwrap_or("unknown").into()),
            ),
            ("nproc".into(), Value::Num(nproc as f64)),
            (
                "loadavg".into(),
                Value::Str(
                    std::fs::read_to_string("/proc/loadavg")
                        .unwrap_or_default()
                        .trim()
                        .to_string(),
                ),
            ),
            ("workloads".into(), Value::Obj(recorded)),
        ]);
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(if failed_any {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Counts that must repeat exactly between two fresh processes.
const EXACT: [&str; 5] = [
    "wire_requests_per_pass",
    "wire_kib_per_pass",
    "store.eval.rows_scanned_per_pass",
    "core.join.probe_rows_per_pass",
    "bench.alloc.count_per_pass",
];

/// `selfcheck`: two passes of each solo workload, twice, in fresh
/// processes; the exact counts must be identical.
fn selfcheck(flags: &Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags.number("seed", 1)?;
    let mut ok = true;
    for workload in &names::WORKLOADS[..3] {
        let mut runs: Vec<Vec<(String, f64)>> = Vec::new();
        for _ in 0..2 {
            let mut counts = Vec::new();
            for trace in [false, true] {
                let result = child_run(workload, seed, 1.0, trace, Some(2))?;
                if result.get("failed").and_then(Value::as_f64) != Some(0.0) {
                    return Err(format!("{workload}: failed operations"));
                }
                for name in EXACT {
                    let value = result
                        .get("metrics")
                        .and_then(|m| m.get(name))
                        .and_then(|m| m.get("value"))
                        .and_then(Value::as_f64);
                    if let Some(value) = value {
                        counts.push((name.to_string(), value));
                    }
                }
            }
            runs.push(counts);
        }
        for ((name, first), (_, second)) in runs[0].iter().zip(&runs[1]) {
            let same = first == second;
            ok &= same;
            println!(
                "{workload} {name} {first} {second} {}",
                if same { "identical" } else { "DIFFERENT" }
            );
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(first) if !first.starts_with("--") => (first, &args[1..]),
        _ => ("", &args[..]),
    };
    let result = Flags::parse(rest).and_then(|flags| match command {
        "" => run_one(&flags),
        "run" => run_all(&flags, false),
        "trace" => run_all(&flags, true),
        "selfcheck" => selfcheck(&flags),
        "compare" => compare::run(&flags.positional),
        other => Err(format!("unknown subcommand: {other}")),
    });
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("lusail-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `run` prints the end-to-end names and `trace` the per-layer names;
    /// together they must be exactly what `BENCHMARK.json` declares.
    #[test]
    fn printed_names_equal_benchmark_json() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared =
            |key: &str| -> Vec<Value> { doc.get(key).unwrap().as_arr().unwrap().to_vec() };
        let field = |v: &Value, key: &str| v.get(key).unwrap().as_str().unwrap().to_string();
        let valid = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };

        let e2e: BTreeSet<(String, String)> = declared("end_to_end")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        let printed: BTreeSet<(String, String)> = names::END_TO_END
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(e2e, printed);
        for m in declared("end_to_end") {
            let name = field(&m, "name");
            let bound = names::END_TO_END
                .iter()
                .find(|(n, _, _)| *n == name)
                .unwrap()
                .2;
            assert_eq!(m.get("bound").unwrap().as_f64(), Some(bound), "{name}");
            assert_eq!(field(&m, "better"), "lower");
        }

        let layers: BTreeSet<(String, String, String)> = declared("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let printed: BTreeSet<(String, String, String)> = names::per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(layers, printed);
        assert_eq!(
            printed.len(),
            names::per_layer().len(),
            "a name is used twice"
        );
        assert!(printed.iter().all(|(n, _, _)| valid(n)));
        assert!(names::END_TO_END.iter().all(|(n, _, _)| valid(n)));

        let workloads: Vec<String> = declared("workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, names::WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn flags_split_pairs_from_positionals() {
        let args: Vec<String> = ["a.json", "--seed", "7", "b.json"]
            .map(String::from)
            .to_vec();
        let flags = Flags::parse(&args).unwrap();
        assert_eq!(flags.positional, ["a.json", "b.json"]);
        assert_eq!(flags.number("seed", 1u64), Ok(7));
        assert_eq!(flags.number("repeats", 3usize), Ok(3));
        assert!(Flags::parse(&["--seed".to_string()]).is_err());
        assert!(flags.number::<u64>("seed", 0).is_ok());
    }
}
