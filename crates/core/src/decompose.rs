//! Locality-aware query decomposition (Algorithm 2 in the paper).
//!
//! Given the GJV analysis, the conjunctive triple patterns are grouped
//! into subqueries such that within one subquery:
//!
//! * every pattern has exactly the same relevant sources,
//! * no two patterns form a conflicting pair (one that made a variable
//!   global), and
//! * the patterns are connected through shared variables (so a subquery
//!   never forces an endpoint into a local cross product).
//!
//! The grouping is a greedy pass followed by the paper's `mergeSubQ`
//! fixpoint: two subqueries merge when they share a variable, have the
//! same sources, and no pattern of one conflicts with a pattern of the
//! other. The paper notes that different traversal orders give different
//! (equally correct) decompositions; SAPE orders whatever comes out.

use crate::gjv::GjvAnalysis;
use crate::source_selection::SourceMap;
use crate::subquery::Subquery;
use lusail_endpoint::EndpointId;
use lusail_sparql::ast::TriplePattern;

/// Decomposes `triples` into subqueries. Returns groups of *indices* into
/// `triples` (callers materialize [`Subquery`] values with sources).
pub(crate) fn decompose_indices(
    triples: &[TriplePattern],
    sources: &SourceMap,
    analysis: &GjvAnalysis,
) -> Vec<Vec<usize>> {
    let n = triples.len();
    if n == 0 {
        return Vec::new();
    }

    let shares_var =
        |i: usize, j: usize| -> bool { triples[i].vars().any(|v| triples[j].mentions(v)) };
    let same_sources = |i: usize, j: usize| -> bool {
        sources.sources(&triples[i]) == sources.sources(&triples[j])
    };

    // Greedy assignment in document order.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    'next: for i in 0..n {
        for g in &mut groups {
            let compatible = g
                .iter()
                .all(|&j| same_sources(i, j) && !analysis.conflicting(i, j));
            let connected = g.iter().any(|&j| shares_var(i, j));
            if compatible && connected {
                g.push(i);
                continue 'next;
            }
        }
        groups.push(vec![i]);
    }

    // mergeSubQ: merge pairs until fixpoint.
    loop {
        let mut merged = false;
        'outer: for a in 0..groups.len() {
            for b in a + 1..groups.len() {
                let connected = groups[a]
                    .iter()
                    .any(|&i| groups[b].iter().any(|&j| shares_var(i, j)));
                let compatible = groups[a].iter().all(|&i| {
                    groups[b]
                        .iter()
                        .all(|&j| same_sources(i, j) && !analysis.conflicting(i, j))
                });
                if connected && compatible {
                    let moved = groups.remove(b);
                    groups[a].extend(moved);
                    merged = true;
                    break 'outer;
                }
            }
        }
        if !merged {
            break;
        }
    }
    groups
}

/// Materializes subqueries from index groups: each subquery's sources are
/// the (identical) sources of its member patterns.
pub(crate) fn decompose(
    triples: &[TriplePattern],
    sources: &SourceMap,
    analysis: &GjvAnalysis,
) -> Vec<Subquery> {
    decompose_indices(triples, sources, analysis)
        .into_iter()
        .map(|group| {
            let tps: Vec<TriplePattern> = group.iter().map(|&i| triples[i].clone()).collect();
            let srcs: Vec<EndpointId> = sources.sources(&tps[0]).to_vec();
            Subquery::new(tps, srcs)
        })
        .collect()
}

/// True when the whole conjunctive block can run as **one** subquery at
/// every relevant endpoint (the paper's "disjoint query" case, Algorithm 3
/// line 2): no conflicts, identical sources throughout, and the patterns
/// connected through shared variables. A disconnected BGP is a Cartesian
/// product; concatenating per-endpoint local products would drop the
/// cross-endpoint combinations, so disconnected blocks take the fast path
/// only when a single endpoint holds everything.
pub(crate) fn is_disjoint(
    triples: &[TriplePattern],
    sources: &SourceMap,
    analysis: &GjvAnalysis,
) -> bool {
    if triples.is_empty() {
        return true;
    }
    if !analysis.conflicts.is_empty() {
        return false;
    }
    let first = sources.sources(&triples[0]);
    if !triples.iter().all(|tp| sources.sources(tp) == first) {
        return false;
    }
    first.len() == 1 || is_connected(triples)
}

/// True when the join graph (patterns as nodes, shared variables as edges)
/// has a single connected component.
fn is_connected(triples: &[TriplePattern]) -> bool {
    let n = triples.len();
    if n <= 1 {
        return true;
    }
    let shares_var =
        |i: usize, j: usize| -> bool { triples[i].vars().any(|v| triples[j].mentions(v)) };
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    while let Some(i) = stack.pop() {
        for (j, seen_j) in seen.iter_mut().enumerate() {
            if !*seen_j && shares_var(i, j) {
                *seen_j = true;
                stack.push(j);
            }
        }
    }
    seen.into_iter().all(|s| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_rdf::{FxHashSet, TermId};
    use lusail_sparql::ast::PatternTerm;

    fn v(name: &str) -> PatternTerm {
        PatternTerm::Var(name.into())
    }

    fn c(id: u32) -> PatternTerm {
        PatternTerm::Const(TermId(id))
    }

    /// Source map stub: same sources `[0, 1]` for all patterns unless
    /// overridden.
    fn sources_for(triples: &[TriplePattern], overrides: &[(usize, Vec<usize>)]) -> SourceMap {
        let mut sm = SourceMap::default();
        // SourceMap has no public constructor for tests; emulate through
        // its intended builder path.
        for (i, tp) in triples.iter().enumerate() {
            let src = overrides
                .iter()
                .find(|(j, _)| *j == i)
                .map(|(_, s)| s.clone())
                .unwrap_or_else(|| vec![0, 1]);
            sm.push_entry(tp.clone(), src);
        }
        sm
    }

    fn analysis(conflicts: &[(usize, usize)]) -> GjvAnalysis {
        let mut set = FxHashSet::default();
        for &(i, j) in conflicts {
            set.insert(if i < j { (i, j) } else { (j, i) });
        }
        GjvAnalysis {
            gjvs: Vec::new(),
            conflicts: set,
        }
    }

    /// Qa's shape: S-advisor-P, S-takesCourse-C, P-phd-U, U-address-A,
    /// with (2,3) conflicting on ?U (paper Fig. 7).
    fn qa_triples() -> Vec<TriplePattern> {
        vec![
            TriplePattern::new(v("S"), c(10), v("P")),
            TriplePattern::new(v("S"), c(11), v("C")),
            TriplePattern::new(v("P"), c(12), v("U")),
            TriplePattern::new(v("U"), c(13), v("A")),
        ]
    }

    #[test]
    fn conflict_splits_exactly_there() {
        let triples = qa_triples();
        let sm = sources_for(&triples, &[]);
        let a = analysis(&[(2, 3)]);
        let groups = decompose_indices(&triples, &sm, &a);
        assert_eq!(groups.len(), 2);
        // (0,1,2) merge; 3 is alone — one of the paper's two valid
        // decompositions of Qa.
        let mut sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, [1, 3]);
        assert!(!is_disjoint(&triples, &sm, &a));
    }

    #[test]
    fn two_conflicts_paper_fig7() {
        // GJVs ?U and ?P: conflicts (0,2) on P and (2,3) on U.
        let triples = qa_triples();
        let sm = sources_for(&triples, &[]);
        let a = analysis(&[(0, 2), (2, 3)]);
        let groups = decompose_indices(&triples, &sm, &a);
        // {advisor, takesCourse}, {phd}, {address} — paper Fig. 7 (left).
        assert_eq!(groups.len(), 3);
        let with_0 = groups.iter().find(|g| g.contains(&0)).unwrap();
        assert!(with_0.contains(&1));
        assert!(!with_0.contains(&2));
    }

    #[test]
    fn no_conflicts_same_sources_is_disjoint_single_group() {
        let triples = qa_triples();
        let sm = sources_for(&triples, &[]);
        let a = analysis(&[]);
        let groups = decompose_indices(&triples, &sm, &a);
        assert_eq!(groups.len(), 1);
        assert!(is_disjoint(&triples, &sm, &a));
    }

    #[test]
    fn different_sources_split_even_without_conflicts() {
        let triples = vec![
            TriplePattern::new(v("a"), c(1), v("b")),
            TriplePattern::new(v("b"), c(2), v("d")),
        ];
        let sm = sources_for(&triples, &[(1, vec![0])]);
        // Differing sources on a shared variable would normally have been a
        // conflict already, but decomposition must hold on its own.
        let a = analysis(&[]);
        let groups = decompose_indices(&triples, &sm, &a);
        assert_eq!(groups.len(), 2);
        assert!(!is_disjoint(&triples, &sm, &a));
    }

    #[test]
    fn disconnected_patterns_stay_separate() {
        let triples = vec![
            TriplePattern::new(v("a"), c(1), v("b")),
            TriplePattern::new(v("x"), c(2), v("y")),
        ];
        let sm = sources_for(&triples, &[]);
        let a = analysis(&[]);
        let groups = decompose_indices(&triples, &sm, &a);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn disconnected_patterns_are_not_disjoint_across_endpoints() {
        // Found by the differential fuzzer (seed 0xa60589ebc76d7f10): a
        // Cartesian product whose factors both match at two endpoints.
        // Concatenating local products yields 2 rows where the oracle has
        // 4 — the block must go through decomposition + global join.
        let triples = vec![
            TriplePattern::new(v("a"), c(1), v("b")),
            TriplePattern::new(v("x"), c(2), v("x")),
        ];
        let sm = sources_for(&triples, &[]);
        let a = analysis(&[]);
        assert!(!is_disjoint(&triples, &sm, &a));
        // At a single endpoint the local product *is* the global product.
        let sm1 = sources_for(&triples, &[(0, vec![0]), (1, vec![0])]);
        assert!(is_disjoint(&triples, &sm1, &a));
    }

    #[test]
    fn merge_phase_joins_transitively_compatible_groups() {
        // 0 and 2 don't share a var, but both share with 1; greedy starts
        // {0,1} and then 2 joins via 1's variable.
        let triples = vec![
            TriplePattern::new(v("a"), c(1), v("b")),
            TriplePattern::new(v("b"), c(2), v("d")),
            TriplePattern::new(v("d"), c(3), v("e")),
        ];
        let sm = sources_for(&triples, &[]);
        let a = analysis(&[]);
        let groups = decompose_indices(&triples, &sm, &a);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 3);
    }

    #[test]
    fn transitive_conflict_via_middleman_splits() {
        // 0–1 compatible, 1–2 compatible, but 0–2 conflict: the group with
        // 0 and 1 cannot absorb 2.
        let triples = vec![
            TriplePattern::new(v("a"), c(1), v("b")),
            TriplePattern::new(v("b"), c(2), v("cc")),
            TriplePattern::new(v("b"), c(3), v("a")),
        ];
        let sm = sources_for(&triples, &[]);
        let a = analysis(&[(0, 2)]);
        let groups = decompose_indices(&triples, &sm, &a);
        assert_eq!(groups.len(), 2);
        let g0 = groups.iter().find(|g| g.contains(&0)).unwrap();
        assert!(!g0.contains(&2));
    }

    #[test]
    fn materialized_subqueries_carry_sources() {
        let triples = qa_triples();
        let sm = sources_for(&triples, &[]);
        let a = analysis(&[(2, 3)]);
        let sqs = decompose(&triples, &sm, &a);
        assert_eq!(sqs.len(), 2);
        for sq in &sqs {
            assert_eq!(sq.sources, vec![0, 1]);
        }
    }
}
