//! `compare A.json B.json`: two recorded runs (`run --json`), A the
//! baseline. Every end-to-end metric of every workload is judged against
//! the bound fixed in `names::END_TO_END`; lower is better for all of them.

use crate::json::{self, Value};
use crate::names::{END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use std::process::ExitCode;

/// How one metric of one workload compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Better than the baseline by more than the bound.
    Better,
    /// Worse than the baseline by more than the bound.
    Regression,
    /// One input's own repeats spread wider than the bound: nothing can be
    /// said either way.
    Unresolved,
}

/// Judges baseline repeats `a` against `b` under `bound`.
pub fn judge(a: &[f64], b: &[f64], bound: f64) -> (f64, Verdict) {
    let base = median(a);
    let delta = if base == 0.0 {
        0.0
    } else {
        (median(b) - base) / base
    };
    let verdict = if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if delta > bound {
        Verdict::Regression
    } else if delta < -bound {
        Verdict::Better
    } else {
        Verdict::Ok
    };
    (delta, verdict)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(doc: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

fn failed(doc: &Value, workload: &str) -> f64 {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("failed"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Prints the comparison; fails on a regression or on failed operations.
pub fn run(paths: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = paths else {
        return Err("usage: compare A.json B.json".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut bad = false;
    println!("workload metric A B delta bound spread_A spread_B verdict");
    for workload in WORKLOADS {
        for (metric, _, bound) in END_TO_END {
            let (Some(va), Some(vb)) = (values(&a, workload, metric), values(&b, workload, metric))
            else {
                println!("{workload} {metric} - - - {bound} - - missing");
                bad = true;
                continue;
            };
            let (delta, verdict) = judge(&va, &vb, bound);
            bad |= verdict == Verdict::Regression;
            println!(
                "{workload} {metric} {:.4} {:.4} {:+.2}% {:.0}% {:.2}% {:.2}% {}",
                median(&va),
                median(&vb),
                delta * 100.0,
                bound * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Better => "better",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let (fa, fb) = (failed(&a, workload), failed(&b, workload));
        if fa > 0.0 || fb > 0.0 {
            println!("{workload} failed_operations {fa} {fb} - 0% - - FAILED");
            bad = true;
        }
    }
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_repeat_spread() {
        let base = [100.0, 101.0, 99.0];
        assert_eq!(judge(&base, &[104.0, 105.0, 103.0], 0.10).1, Verdict::Ok);
        assert_eq!(
            judge(&base, &[120.0, 121.0, 119.0], 0.10).1,
            Verdict::Regression
        );
        assert_eq!(judge(&base, &[80.0, 81.0, 79.0], 0.10).1, Verdict::Better);
        // A side whose own repeats disagree by more than the bound decides
        // nothing, however large the difference looks.
        assert_eq!(
            judge(&base, &[100.0, 160.0, 130.0], 0.10).1,
            Verdict::Unresolved
        );
        let (delta, _) = judge(&base, &[110.0], 0.10);
        assert!((delta - 0.10).abs() < 1e-12);
    }
}
