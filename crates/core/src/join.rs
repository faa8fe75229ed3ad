//! Global join evaluation: DP-ordered hash joins (§V-B "Join
//! Evaluation").
//!
//! Each subquery result is a relation whose *true* cardinality is known.
//! Join order within a connected component (relations sharing variables)
//! is chosen by the dynamic-programming enumeration of bushy trees without
//! cross products (Moerkotte & Neumann), with the paper's cost function
//!
//! ```text
//! JoinCost(S, R) = |S| / S.threads  +  |R| / R.threads
//! ```
//!
//! at `threads = 1`: every join runs on the one sequential build/probe
//! kernel, [`SolutionSet::hash_join`], so a step costs `|S| + |R|`
//! (DESIGN.md, Substitutions).

use lusail_endpoint::{TraceEvent, TraceSink};
use lusail_rdf::FxHashMap;
use lusail_sparql::solution::SolutionSet;

fn shares_var(a: &SolutionSet, b: &SolutionSet) -> bool {
    a.vars.iter().any(|v| b.col(v).is_some())
}

/// Joins every *connected component* of the relation graph (edges =
/// shared variables) down to a single relation, using DP join ordering
/// inside each component. Disconnected components are returned separately
/// — the caller decides whether a cross product is actually needed. Each
/// executed hash join emits one [`TraceEvent::JoinStep`] into `trace` with
/// its input/output cardinalities and the `JoinCost` that ordered it.
pub(crate) fn join_components(relations: Vec<SolutionSet>, trace: &TraceSink) -> Vec<SolutionSet> {
    let n = relations.len();
    if n <= 1 {
        return relations;
    }
    // Union-find over shared-variable edges.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    for i in 0..n {
        for j in i + 1..n {
            if shares_var(&relations[i], &relations[j]) {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                if a != b {
                    parent[a] = b;
                }
            }
        }
    }
    let mut components: Vec<Vec<SolutionSet>> = Vec::new();
    let mut roots: Vec<usize> = Vec::new();
    for (i, rel) in relations.into_iter().enumerate() {
        let root = find(&mut parent, i);
        let idx = match roots.iter().position(|&r| r == root) {
            Some(idx) => idx,
            None => {
                roots.push(root);
                components.push(Vec::new());
                components.len() - 1
            }
        };
        components[idx].push(rel);
    }
    components
        .into_iter()
        .map(|c| join_connected(c, trace))
        .collect()
}

/// Joins a connected set of relations into one, ordering by DP when small
/// enough and by greedy smallest-pair otherwise.
fn join_connected(mut relations: Vec<SolutionSet>, trace: &TraceSink) -> SolutionSet {
    if relations.len() == 1 {
        return relations.pop().unwrap();
    }
    if relations.len() <= 12 {
        dp_join(relations, trace)
    } else {
        greedy_join(relations, trace)
    }
}

/// Executes one join step of a plan and traces it as a
/// [`TraceEvent::JoinStep`] carrying the `JoinCost` that ordered it.
fn join_step(left: &SolutionSet, right: &SolutionSet, cost: f64, trace: &TraceSink) -> SolutionSet {
    let sols = left.hash_join(right);
    trace.emit(|| TraceEvent::JoinStep {
        left_rows: left.len(),
        right_rows: right.len(),
        output_rows: sols.len(),
        cost,
    });
    sols
}

/// Bushy DP over subsets: `best[mask]` is the cheapest plan joining the
/// relations in `mask`, considering only connected splits (no cross
/// products within a component).
fn dp_join(relations: Vec<SolutionSet>, trace: &TraceSink) -> SolutionSet {
    #[derive(Clone)]
    struct Plan {
        cost: f64,
        // (left mask, right mask); single relations have no split.
        split: Option<(u32, u32)>,
        rows: f64,
    }
    let n = relations.len();
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let mut plans: FxHashMap<u32, Plan> = FxHashMap::default();
    for (i, r) in relations.iter().enumerate() {
        plans.insert(
            1 << i,
            Plan {
                cost: 0.0,
                split: None,
                rows: r.len() as f64,
            },
        );
    }
    // Precomputed adjacency bitmasks: neighbors[i] has bit j set when
    // relation i shares a variable with relation j. Mask connectivity is
    // then a couple of bit operations instead of repeated string compares.
    let neighbors: Vec<u32> = (0..n)
        .map(|i| {
            let mut mask = 0u32;
            for j in 0..n {
                if i != j && shares_var(&relations[i], &relations[j]) {
                    mask |= 1 << j;
                }
            }
            mask
        })
        .collect();
    let connected =
        |a: u32, b: u32| -> bool { (0..n).any(|i| a & (1 << i) != 0 && neighbors[i] & b != 0) };

    // Enumerate masks in increasing popcount order.
    let mut masks: Vec<u32> = (1..=full).collect();
    masks.sort_by_key(|m| m.count_ones());
    for &mask in &masks {
        if mask.count_ones() < 2 {
            continue;
        }
        let mut best: Option<Plan> = None;
        // Enumerate proper sub-splits (left < right to halve the work).
        let mut left = (mask - 1) & mask;
        while left > 0 {
            let right = mask & !left;
            if left < right {
                if let (Some(pl), Some(pr)) = (plans.get(&left), plans.get(&right)) {
                    if connected(left, right) {
                        // JoinCost: hash one side, probe the other.
                        let cost = pl.cost + pr.cost + pl.rows + pr.rows;
                        // Optimistic output estimate: the smaller input (a
                        // key join usually reduces); exact sizes are only
                        // known after execution.
                        let rows = pl.rows.min(pr.rows).max(1.0);
                        if best.as_ref().is_none_or(|b| cost < b.cost) {
                            best = Some(Plan {
                                cost,
                                split: Some((left, right)),
                                rows,
                            });
                        }
                    }
                }
            }
            left = (left - 1) & mask;
        }
        if let Some(plan) = best {
            plans.insert(mask, plan);
        }
    }

    // Execute the chosen plan bottom-up.
    fn execute(
        mask: u32,
        plans: &FxHashMap<u32, Plan>,
        relations: &mut [Option<SolutionSet>],
        trace: &TraceSink,
    ) -> SolutionSet {
        // Every connected set has a plan (split off a leaf of a spanning
        // tree), and `join_connected` only receives connected sets.
        let plan = plans.get(&mask).expect("a connected set has a DP plan");
        match plan.split {
            None => {
                // Each leaf participates in exactly one place of the plan
                // tree: take ownership instead of cloning its rows.
                let i = mask.trailing_zeros() as usize;
                relations[i].take().expect("leaf used once")
            }
            Some((l, r)) => {
                let left = execute(l, plans, relations, trace);
                let right = execute(r, plans, relations, trace);
                // The marginal DP step cost that ordered this join.
                let cost = plan.cost - plans[&l].cost - plans[&r].cost;
                join_step(&left, &right, cost, trace)
            }
        }
    }
    let mut slots: Vec<Option<SolutionSet>> = relations.into_iter().map(Some).collect();
    execute(full, &plans, &mut slots, trace)
}

/// Greedy ordering for sets too wide for the DP: repeatedly join the
/// connected pair with the smallest combined work.
fn greedy_join(mut relations: Vec<SolutionSet>, trace: &TraceSink) -> SolutionSet {
    while relations.len() > 1 {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..relations.len() {
            for j in i + 1..relations.len() {
                if !shares_var(&relations[i], &relations[j]) {
                    continue;
                }
                let cost = (relations[i].len() + relations[j].len()) as f64;
                if best.is_none_or(|(_, _, c)| cost < c) {
                    best = Some((i, j, cost));
                }
            }
        }
        // A pairwise join keeps a connected set connected, so a pair
        // sharing a variable is always left.
        let (i, j, _) = best.expect("a connected set has a joinable pair");
        let b = relations.remove(j);
        let a = relations.remove(i);
        relations.push(join_step(&a, &b, (a.len() + b.len()) as f64, trace));
    }
    relations.pop().unwrap_or_else(SolutionSet::unit)
}

/// [`SolutionSet::hash_join`] under the name and signature the benchmark
/// crate's join probe calls. `partitions`, `threads` and `threshold` are
/// ignored: the chunked parallel probe this function used to run was
/// deleted after it measured slower at two workers than at one on the
/// 50 k × 50 k probe, the only input that reached it (DESIGN.md,
/// "Parallel execution"). The result bytes are the sequential join's at
/// every budget — unbound join-key cells included.
pub fn par_hash_join(
    a: &SolutionSet,
    b: &SolutionSet,
    _partitions: usize,
    _threads: usize,
    _threshold: usize,
) -> SolutionSet {
    a.hash_join(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_rdf::TermId;

    fn rel(vars: &[&str], rows: Vec<Vec<u32>>) -> SolutionSet {
        SolutionSet {
            vars: vars.iter().map(|s| s.to_string()).collect(),
            rows: rows
                .into_iter()
                .map(|r| r.into_iter().map(|x| Some(TermId(x))).collect())
                .collect(),
        }
    }

    #[test]
    fn chain_join_produces_expected_rows() {
        let a = rel(&["x", "y"], vec![vec![1, 10], vec![2, 20]]);
        let b = rel(&["y", "z"], vec![vec![10, 100], vec![20, 200]]);
        let c = rel(&["z", "w"], vec![vec![100, 7]]);
        let out = join_components(vec![a, b, c], &TraceSink::disabled());
        assert_eq!(out.len(), 1);
        let sols = &out[0];
        assert_eq!(sols.len(), 1);
        let canon = sols.canonicalize();
        assert_eq!(canon.vars, ["w", "x", "y", "z"]);
        assert_eq!(
            canon.rows[0],
            vec![
                Some(TermId(7)),
                Some(TermId(1)),
                Some(TermId(10)),
                Some(TermId(100))
            ]
        );
    }

    #[test]
    fn disconnected_components_stay_apart() {
        let a = rel(&["x"], vec![vec![1]]);
        let b = rel(&["y"], vec![vec![2]]);
        let out = join_components(vec![a, b], &TraceSink::disabled());
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn star_join_with_many_relations() {
        // A center relation joined with 5 satellites.
        let mut rels = vec![rel(&["c", "a0"], vec![vec![1, 10], vec![2, 20]])];
        for i in 0..5 {
            rels.push(rel(
                &["c", &format!("s{i}")],
                vec![vec![1, 100 + i], vec![2, 200 + i]],
            ));
        }
        let out = join_components(rels, &TraceSink::disabled());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 2);
        assert_eq!(out[0].vars.len(), 7);
    }

    #[test]
    fn par_join_matches_sequential() {
        let n = 2_000u32;
        let a = rel(&["x", "y"], (0..n).map(|i| vec![i, i * 2]).collect());
        let b = rel(&["y", "z"], (0..n).map(|i| vec![i, i + 1]).collect());
        let seq = a.hash_join(&b).canonicalize();
        let par = par_hash_join(&a, &b, 4, 4, 100).canonicalize();
        assert_eq!(seq, par);
        // y values 0..2n step 2 that are < n: n/2 matches.
        assert_eq!(par.len(), (n / 2) as usize);
    }

    #[test]
    fn par_join_falls_back_on_unbound_keys() {
        let a = SolutionSet {
            vars: vec!["x".into(), "y".into()],
            rows: vec![vec![Some(TermId(1)), None]].into_iter().collect(),
        };
        let b = rel(&["y", "z"], vec![vec![10, 100]]);
        let out = par_hash_join(&a, &b, 2, 2, 0);
        assert_eq!(out.len(), 1);
        assert_eq!(
            out.rows[0],
            vec![Some(TermId(1)), Some(TermId(10)), Some(TermId(100))]
        );
    }

    #[test]
    fn greedy_join_used_for_large_sets() {
        // 14 relations in a chain exceed the DP width.
        let mut rels = Vec::new();
        for i in 0..14 {
            rels.push(rel(
                &[&format!("v{i}"), &format!("v{}", i + 1)],
                vec![vec![1, 1], vec![2, 2]],
            ));
        }
        let out = join_components(rels, &TraceSink::disabled());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 2);
    }

    #[test]
    fn join_steps_are_traced_with_cardinalities_and_cost() {
        let a = rel(&["x", "y"], vec![vec![1, 10], vec![2, 20]]);
        let b = rel(&["y", "z"], vec![vec![10, 100], vec![20, 200]]);
        let c = rel(&["z", "w"], vec![vec![100, 7]]);
        let sink = TraceSink::enabled();
        let out = join_components(vec![a, b, c], &sink);
        assert_eq!(out.len(), 1);
        let events = sink.events();
        // Three relations join in exactly two steps, innermost first.
        assert_eq!(events.len(), 2);
        for ev in &events {
            let TraceEvent::JoinStep {
                left_rows,
                right_rows,
                output_rows,
                cost,
            } = ev
            else {
                panic!("unexpected event {ev:?}");
            };
            assert!(*left_rows >= 1 && *right_rows >= 1);
            assert!(*output_rows <= left_rows * right_rows);
            assert!(*cost > 0.0);
        }
        // The final step produced the component's result cardinality.
        let TraceEvent::JoinStep { output_rows, .. } = events[1] else {
            unreachable!()
        };
        assert_eq!(output_rows, out[0].len());
    }
}
