//! Greedy shrinking of failing differential cases, and self-contained
//! repro printing.
//!
//! Shrinking proceeds in the order the ISSUE prescribes — data triples
//! first, then query structure, then endpoints — because a smaller
//! *dataset* usually collapses the query and topology reductions for
//! free. Every reduction preserves the generator's invariant that a
//! subject's triples live at a single endpoint (endpoints shrink by
//! *merging*, never by splitting an adjacency list).

use crate::diff::{EngineKind, Violation};
use crate::gen::{Case, FaultSpec};
use lusail_sparql::write_query;
use std::fmt;

/// Upper bound on predicate evaluations per shrink run, so a pathological
/// case cannot wedge CI. Greedy passes stop early when the budget runs
/// out; the partially shrunk case is still printed.
const MAX_CHECKS: usize = 2000;

/// Shrinks `(case, faults)` while `still_fails` keeps returning `true`.
/// Returns the smallest failing pair found.
pub fn shrink(
    case: &Case,
    faults: &FaultSpec,
    still_fails: &dyn Fn(&Case, &FaultSpec) -> bool,
) -> (Case, FaultSpec) {
    let mut cur = case.clone();
    let mut cur_faults = faults.clone();
    let mut budget = MAX_CHECKS;
    loop {
        let mut progress = false;
        progress |= shrink_triples(&mut cur, &cur_faults, still_fails, &mut budget);
        progress |= shrink_query(&mut cur, &cur_faults, still_fails, &mut budget);
        progress |= shrink_endpoints(&mut cur, &mut cur_faults, still_fails, &mut budget);
        if !progress || budget == 0 {
            return (cur, cur_faults);
        }
    }
}

fn try_accept(
    cur: &mut Case,
    candidate: Case,
    faults: &FaultSpec,
    still_fails: &dyn Fn(&Case, &FaultSpec) -> bool,
    budget: &mut usize,
) -> bool {
    if *budget == 0 {
        return false;
    }
    *budget -= 1;
    if still_fails(&candidate, faults) {
        *cur = candidate;
        true
    } else {
        false
    }
}

/// Level 1: drop data triples one at a time (highest index first, so
/// removals don't disturb pending indices).
fn shrink_triples(
    cur: &mut Case,
    faults: &FaultSpec,
    still_fails: &dyn Fn(&Case, &FaultSpec) -> bool,
    budget: &mut usize,
) -> bool {
    let mut progress = false;
    let mut i = cur.triples.len();
    while i > 0 {
        i -= 1;
        let mut candidate = cur.clone();
        candidate.triples.remove(i);
        candidate.homes.remove(i);
        if try_accept(cur, candidate, faults, still_fails, budget) {
            progress = true;
        }
    }
    progress
}

/// Level 2: simplify the query — drop triple patterns (keeping at least
/// one), optional groups, filters, and the DISTINCT / LIMIT / projection
/// modifiers.
fn shrink_query(
    cur: &mut Case,
    faults: &FaultSpec,
    still_fails: &dyn Fn(&Case, &FaultSpec) -> bool,
    budget: &mut usize,
) -> bool {
    let mut progress = false;
    let mut i = cur.query.pattern.triples.len();
    while i > 0 && cur.query.pattern.triples.len() > 1 {
        i -= 1;
        if i >= cur.query.pattern.triples.len() {
            continue;
        }
        let mut candidate = cur.clone();
        candidate.query.pattern.triples.remove(i);
        if try_accept(cur, candidate, faults, still_fails, budget) {
            progress = true;
        }
    }
    let mut i = cur.query.pattern.optionals.len();
    while i > 0 {
        i -= 1;
        let mut candidate = cur.clone();
        candidate.query.pattern.optionals.remove(i);
        if try_accept(cur, candidate, faults, still_fails, budget) {
            progress = true;
        }
    }
    let mut i = cur.query.pattern.filters.len();
    while i > 0 {
        i -= 1;
        let mut candidate = cur.clone();
        candidate.query.pattern.filters.remove(i);
        if try_accept(cur, candidate, faults, still_fails, budget) {
            progress = true;
        }
    }
    if cur.query.limit.is_some() {
        let mut candidate = cur.clone();
        candidate.query.limit = None;
        progress |= try_accept(cur, candidate, faults, still_fails, budget);
    }
    if cur.query.distinct {
        let mut candidate = cur.clone();
        candidate.query.distinct = false;
        progress |= try_accept(cur, candidate, faults, still_fails, budget);
    }
    if !cur.query.projection.is_empty() {
        let mut candidate = cur.clone();
        candidate.query.projection.clear();
        progress |= try_accept(cur, candidate, faults, still_fails, budget);
    }
    progress
}

/// Level 3: merge endpoints away (endpoint `e` folds into endpoint 0),
/// shrinking the federation topology while keeping every subject's
/// adjacency list intact.
fn shrink_endpoints(
    cur: &mut Case,
    faults: &mut FaultSpec,
    still_fails: &dyn Fn(&Case, &FaultSpec) -> bool,
    budget: &mut usize,
) -> bool {
    let mut progress = false;
    let mut e = cur.n_endpoints;
    while e > 1 && cur.n_endpoints > 2 {
        e -= 1;
        if e >= cur.n_endpoints {
            continue;
        }
        let mut candidate = cur.clone();
        for h in &mut candidate.homes {
            if *h == e {
                *h = 0;
            } else if *h > e {
                *h -= 1;
            }
        }
        candidate.n_endpoints -= 1;
        let mut cand_faults = faults.clone();
        if e < cand_faults.profiles.len() {
            cand_faults.profiles.remove(e);
        }
        if *budget == 0 {
            break;
        }
        *budget -= 1;
        if still_fails(&candidate, &cand_faults) {
            *cur = candidate;
            *faults = cand_faults;
            progress = true;
        }
    }
    progress
}

/// A self-contained description of a failing (usually shrunk) case:
/// everything needed to reproduce it without the generator — the seed,
/// the query text, the exact partition map, the fault plan, and Lusail's
/// compile-time plan for the query as a diagnostic.
pub struct Repro {
    /// The failing case (after shrinking).
    pub case: Case,
    /// The fault plan active when the violation was observed.
    pub faults: FaultSpec,
    /// The engine that disagreed with the oracle.
    pub engine: EngineKind,
    /// What went wrong.
    pub violation: Violation,
}

impl fmt::Display for Repro {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let case = &self.case;
        writeln!(f, "=== differential-test repro ===")?;
        writeln!(f, "engine:    {}", self.engine.name())?;
        writeln!(f, "violation: {}", self.violation)?;
        writeln!(
            f,
            "seed:      {:#x}  (original, pre-shrink case)",
            case.seed
        )?;
        writeln!(f, "query:     {}", write_query(&case.query, &case.dict))?;
        writeln!(f, "partition map ({} endpoints):", case.n_endpoints)?;
        for ep in 0..case.n_endpoints {
            let fault = match self.faults.profiles.get(ep).copied().flatten() {
                Some(p) if p.dead => "  [DEAD]".to_string(),
                Some(p) => format!(
                    "  [flaky: fail {:.0}% / seed {:#x}]",
                    p.failure_rate * 100.0,
                    p.seed
                ),
                None => String::new(),
            };
            writeln!(f, "  ep{ep}:{fault}")?;
            for (t, &h) in case.triples.iter().zip(&case.homes) {
                if h == ep {
                    writeln!(
                        f,
                        "    {} {} {} .",
                        case.dict.decode(t.s),
                        case.dict.decode(t.p),
                        case.dict.decode(t.o)
                    )?;
                }
            }
        }
        // Lusail's compile-time plan over the (fault-free) federation: the
        // decomposition and delay decisions the mediator would make.
        let (fed, _) = case.federation(&FaultSpec::default());
        let plan = lusail_core::Lusail::default().explain(&fed, &case.query);
        writeln!(f, "lusail plan:")?;
        for line in plan.render(&fed).lines() {
            writeln!(f, "  {line}")?;
        }
        writeln!(
            f,
            "rerun:     LUSAIL_TEST_SEED={:#x} cargo test -q differential  # or:",
            case.seed
        )?;
        write!(
            f,
            "           cargo run -p lusail-testkit --bin fuzz -- --case-seed {:#x}",
            case.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenConfig;

    /// A fake "bug": the case fails whenever the dataset still contains a
    /// triple with predicate p0 AND one with p1, the query has ≥1 pattern,
    /// and ≥2 endpoints remain. The shrinker must find a near-minimal
    /// witness (2 triples, 1 pattern, 2 endpoints).
    #[test]
    fn shrinker_reaches_a_minimal_witness() {
        let cfg = GenConfig::default();
        let dict_probe = |case: &Case, name: &str| {
            case.dict
                .lookup(&lusail_rdf::Term::iri(format!("http://fuzz/{name}")))
        };
        let predicate = |case: &Case, _f: &FaultSpec| -> bool {
            let p0 = dict_probe(case, "p0");
            let p1 = dict_probe(case, "p1");
            let has = |p: Option<lusail_rdf::TermId>| {
                p.is_some_and(|p| case.triples.iter().any(|t| t.p == p))
            };
            has(p0) && has(p1) && !case.query.pattern.triples.is_empty() && case.n_endpoints >= 2
        };
        // Find a seed whose generated case trips the fake bug.
        let mut shrunk_any = false;
        for seed in 0..50u64 {
            let case = Case::generate(seed, &cfg);
            let faults = FaultSpec::default();
            if !predicate(&case, &faults) {
                continue;
            }
            let (small, _) = shrink(&case, &faults, &predicate);
            assert!(predicate(&small, &faults), "shrink lost the failure");
            assert!(
                small.triples.len() <= 2,
                "seed {seed}: expected ≤2 triples, got {}",
                small.triples.len()
            );
            assert_eq!(small.query.pattern.triples.len(), 1, "seed {seed}");
            assert_eq!(small.n_endpoints, 2, "seed {seed}");
            shrunk_any = true;
            break;
        }
        assert!(shrunk_any, "no seed in 0..50 tripped the fake bug");
    }

    #[test]
    fn repro_printing_is_self_contained() {
        let case = Case::generate(3, &GenConfig::default());
        let repro = Repro {
            faults: FaultSpec::default(),
            engine: EngineKind::Lusail,
            violation: Violation::Mismatch { got: 0, want: 1 },
            case,
        };
        let text = repro.to_string();
        assert!(text.contains("differential-test repro"));
        assert!(text.contains("seed:"));
        assert!(text.contains("partition map"));
        assert!(text.contains("lusail plan:"));
        assert!(text.contains("--bin fuzz"));
        assert!(text.contains("SELECT"));
    }
}
