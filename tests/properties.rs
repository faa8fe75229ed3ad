//! Randomized-but-deterministic tests on the core invariants:
//!
//! * solution-set algebra (join commutativity, left-join/anti-join
//!   partitioning, dedup idempotence),
//! * parser ↔ writer round-trips over randomly generated queries,
//! * the flagship federation property: however a random graph is
//!   *partitioned across endpoints*, every engine returns exactly the
//!   centralized result for random chain queries.
//!
//! Each test drives a seeded SplitMix64 generator through a fixed number
//! of cases, so failures reproduce from the case index alone. The default
//! per-test seeds below can be overridden through `LUSAIL_TEST_SEED`
//! (decimal or `0x`-hex) to replay a seed reported by the differential
//! harness or to widen coverage.

use lusail_baselines::FedX;
use lusail_benchdata::common::Rng;
use lusail_core::exec::run_query;
use lusail_core::fetch::fetch_from;
use lusail_core::join::par_hash_join;
use lusail_core::{Lusail, Subquery};
use lusail_endpoint::ExecOptions;
use lusail_endpoint::{FederatedEngine, Federation, LocalEndpoint, RequestPolicy, SystemClock};
use lusail_rdf::{Dictionary, Term, TermId};
use lusail_sparql::ast::{GroupPattern, PatternTerm, Query, TriplePattern};
use lusail_sparql::solution::{JoinKind, JoinPredicate};
use lusail_sparql::{parse_query, write_query, SolutionSet, MAX_NESTING};
use lusail_store::TripleStore;
use lusail_testkit::seed_from_env;
use std::sync::Arc;

// ---------- solution-set algebra -------------------------------------------

fn rand_solutions(rng: &mut Rng, vars: &[&str]) -> SolutionSet {
    let width = vars.len();
    let n = rng.below(20);
    SolutionSet {
        vars: vars.iter().map(|s| s.to_string()).collect(),
        rows: (0..n)
            .map(|_| {
                (0..width)
                    .map(|_| {
                        if rng.chance(0.2) {
                            None
                        } else {
                            Some(TermId(rng.below(8) as u32))
                        }
                    })
                    .collect()
            })
            .collect(),
    }
}

#[test]
fn hash_join_is_commutative() {
    let mut rng = Rng::new(seed_from_env(0xA1));
    for case in 0..200 {
        let a = rand_solutions(&mut rng, &["x", "y"]);
        let b = rand_solutions(&mut rng, &["y", "z"]);
        let ab = a.hash_join(&b).canonicalize();
        let ba = b.hash_join(&a).canonicalize();
        assert_eq!(ab, ba, "case {case}");
    }
}

#[test]
fn join_with_empty_is_empty() {
    let mut rng = Rng::new(seed_from_env(0xA2));
    for case in 0..100 {
        let a = rand_solutions(&mut rng, &["x", "y"]);
        let empty = SolutionSet::empty(vec!["y".into(), "z".into()]);
        assert_eq!(a.hash_join(&empty).len(), 0, "case {case}");
    }
}

#[test]
fn left_join_preserves_left_rows() {
    let mut rng = Rng::new(seed_from_env(0xA3));
    for case in 0..200 {
        let a = rand_solutions(&mut rng, &["x", "y"]);
        let b = rand_solutions(&mut rng, &["y", "z"]);
        // Every left row appears at least once in the left join.
        let lj = a.left_join(&b);
        assert!(lj.len() >= a.len(), "case {case}");
        // And the left join contains the inner join.
        let inner = a.hash_join(&b);
        assert!(lj.len() >= inner.len(), "case {case}");
    }
}

#[test]
fn anti_join_and_semi_join_partition() {
    let mut rng = Rng::new(seed_from_env(0xA4));
    for case in 0..200 {
        let a = rand_solutions(&mut rng, &["x", "y"]);
        let b = rand_solutions(&mut rng, &["y"]);
        // Rows either have a compatible partner in b or they don't.
        let anti = a.anti_join(&b);
        let joined = a.hash_join(&b);
        // Every anti row is an original row.
        for row in anti.rows.iter() {
            assert!(a.rows.iter().any(|r| r == row), "case {case}");
        }
        // A row can't be in both the join (projected back) and the anti join.
        let joined_back = joined.project(&a.vars);
        for row in anti.rows.iter() {
            assert!(
                !joined_back.rows.iter().any(|r| r == row),
                "case {case}: row in both join and anti-join"
            );
        }
    }
}

/// Nested-loop reference for [`SolutionSet::join`]: SPARQL compatibility
/// on the shared variables, `a.or(b)` merge, optional predicate on the
/// merged row. Left-row order, partners in right-row order.
fn reference_join(
    left: &SolutionSet,
    right: &SolutionSet,
    kind: JoinKind,
    accept: Option<JoinPredicate>,
) -> SolutionSet {
    let mut vars = left.vars.clone();
    vars.extend(right.vars.iter().filter(|v| left.col(v).is_none()).cloned());
    let cell = |set: &SolutionSet, row: &[Option<TermId>], v: &str| set.col(v).and_then(|c| row[c]);
    let mut rows = Vec::new();
    for lrow in left.rows.iter() {
        let mut partners = Vec::new();
        for rrow in right.rows.iter() {
            let compatible = left.vars.iter().all(|v| {
                let (a, b) = (cell(left, lrow, v), cell(right, rrow, v));
                a.is_none() || b.is_none() || a == b
            });
            let merged: Vec<Option<TermId>> = (vars.iter())
                .map(|v| cell(left, lrow, v).or(cell(right, rrow, v)))
                .collect();
            if compatible && accept.is_none_or(|accept| accept(&vars, &merged)) {
                partners.push(merged);
            }
        }
        match kind {
            JoinKind::Inner => rows.extend(partners),
            JoinKind::Left if !partners.is_empty() => rows.extend(partners),
            JoinKind::Anti if !partners.is_empty() => {}
            JoinKind::Left | JoinKind::Anti => {
                let width = if kind == JoinKind::Left {
                    vars.len()
                } else {
                    left.vars.len()
                };
                let mut row = lrow.to_vec();
                row.resize(width, None);
                rows.push(row);
            }
        }
    }
    if kind == JoinKind::Anti {
        vars.truncate(left.vars.len());
    }
    SolutionSet {
        vars,
        rows: rows.into_iter().collect(),
    }
}

/// Relations over `shared` common variables (in opposite column orders)
/// plus one private column each, ~10 % of the cells unbound.
fn rand_join_inputs(rng: &mut Rng, shared: usize, rows: usize) -> (SolutionSet, SolutionSet) {
    let keys: Vec<String> = (0..shared).map(|i| format!("k{i}")).collect();
    let mut relation = |vars: Vec<String>| SolutionSet {
        rows: (0..rng.below(rows + 1))
            .map(|_| {
                (0..vars.len())
                    .map(|_| (!rng.chance(0.1)).then(|| TermId(rng.below(4) as u32)))
                    .collect()
            })
            .collect(),
        vars,
    };
    let left = relation(keys.iter().cloned().chain(["l".to_string()]).collect());
    let right = relation(
        ["r".to_string()]
            .into_iter()
            .chain(keys.into_iter().rev())
            .collect(),
    );
    (left, right)
}

#[test]
fn join_kernel_matches_nested_loop_reference() {
    let mut rng = Rng::new(seed_from_env(0xA6));
    // A predicate on a merged column that only the right side supplies.
    let r_is_even = |vars: &[String], row: &[Option<TermId>]| {
        let r = vars
            .iter()
            .position(|v| v == "r")
            .expect("merged schema has ?r");
        row[r].is_some_and(|id| id.0 % 2 == 0)
    };
    let mut with_unbound_key = 0;
    for case in 0..400 {
        let shared = case % 4;
        let (a, b) = rand_join_inputs(&mut rng, shared, 12);
        let unbound_key = [&a, &b].into_iter().any(|set| {
            (set.rows.iter())
                .any(|row| (0..shared).any(|k| row[set.col(&format!("k{k}")).unwrap()].is_none()))
        });
        with_unbound_key += unbound_key as usize;
        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Anti] {
            for accept in [None, Some(&r_is_even as JoinPredicate)] {
                let got = a.join(&b, kind, accept);
                let want = reference_join(&a, &b, kind, accept);
                let ctx = format!(
                    "case {case}: {shared} shared, {kind:?}, predicate {}",
                    accept.is_some()
                );
                assert_eq!(got.canonicalize(), want.canonicalize(), "{ctx}");
                // Left-driven kinds with fully bound keys also keep the
                // reference's row sequence.
                if kind != JoinKind::Inner && !unbound_key {
                    assert_eq!(got, want, "{ctx}: row sequence");
                }
            }
        }
        // The public wrappers are the kernel, and `par_hash_join` returns the
        // sequential join's bytes at every budget, below and above its
        // threshold.
        let inner = a.hash_join(&b);
        assert_eq!(inner, a.join(&b, JoinKind::Inner, None), "case {case}");
        assert_eq!(
            a.left_join(&b),
            a.join(&b, JoinKind::Left, None),
            "case {case}"
        );
        assert_eq!(
            a.anti_join(&b),
            a.join(&b, JoinKind::Anti, None),
            "case {case}"
        );
        for threads in [1, 2, 4] {
            for threshold in [0, usize::MAX] {
                assert_eq!(
                    par_hash_join(&a, &b, 4, threads, threshold),
                    inner,
                    "case {case}"
                );
            }
        }
    }
    assert!(with_unbound_key > 100, "generator must exercise loose rows");
}

/// The input the old parallel join bailed out of: above the threshold,
/// with unbound join-key cells on both sides.
#[test]
fn par_hash_join_above_threshold_with_unbound_keys() {
    let mut rng = Rng::new(seed_from_env(0xA7));
    let (a, b) = rand_join_inputs(&mut rng, 2, 300);
    assert!(a
        .rows
        .iter()
        .chain(b.rows.iter())
        .any(|row| row.contains(&None)));
    let want = reference_join(&a, &b, JoinKind::Inner, None).canonicalize();
    for threads in [1, 2, 4] {
        let got = par_hash_join(&a, &b, 4, threads, 100);
        assert_eq!(got, a.hash_join(&b), "threads {threads}: row sequence");
        assert_eq!(got.canonicalize(), want, "threads {threads}");
    }
}

#[test]
fn dedup_is_idempotent() {
    let mut rng = Rng::new(seed_from_env(0xA5));
    for case in 0..200 {
        let a = rand_solutions(&mut rng, &["x", "y"]);
        let mut once = a.clone();
        once.dedup();
        let mut twice = once.clone();
        twice.dedup();
        assert_eq!(once, twice, "case {case}");
    }
}

#[test]
fn canonicalize_is_stable() {
    let mut rng = Rng::new(seed_from_env(0xA6));
    for case in 0..200 {
        let a = rand_solutions(&mut rng, &["x", "y"]);
        let c1 = a.canonicalize();
        let c2 = c1.canonicalize();
        assert_eq!(c1, c2, "case {case}");
    }
}

// ---------- parser / writer round-trips -------------------------------------

/// A random (tiny) SPARQL query as text, built from a constrained grammar
/// so it is always valid.
fn rand_query_text(rng: &mut Rng) -> String {
    const VARS: [&str; 4] = ["?a", "?b", "?c", "?d"];
    const PREDS: [&str; 3] = ["<http://x/p>", "<http://x/q>", "a"];
    const TERMS: [&str; 5] = [
        "<http://x/e1>",
        "<http://x/e2>",
        "\"lit one\"",
        "\"v\"@en",
        "42",
    ];
    let n = 1 + rng.below(3);
    let mut q = String::from("SELECT ");
    if rng.chance(0.5) {
        q.push_str("DISTINCT ");
    }
    q.push_str("* WHERE { ");
    for _ in 0..n {
        let s = VARS[rng.below(VARS.len())];
        let p = PREDS[rng.below(PREDS.len())];
        let o = if rng.chance(0.4) {
            VARS[rng.below(VARS.len())]
        } else {
            TERMS[rng.below(TERMS.len())]
        };
        q.push_str(&format!("{s} {p} {o} . "));
    }
    q.push('}');
    if rng.chance(0.5) {
        q.push_str(&format!(" LIMIT {}", 1 + rng.below(9)));
    }
    q
}

#[test]
fn parse_write_parse_is_identity() {
    let mut rng = Rng::new(seed_from_env(0xB1));
    for case in 0..300 {
        let text = rand_query_text(&mut rng);
        let dict = Dictionary::new();
        let q1 = parse_query(&text, &dict).expect("generated query parses");
        let written = write_query(&q1, &dict);
        let q2 = parse_query(&written, &dict)
            .unwrap_or_else(|e| panic!("case {case}: round-trip failed: {e}\n{written}"));
        assert_eq!(q1, q2, "case {case}:\n{text}\n{written}");
    }
}

/// A random nest of groups and expressions around one triple: `levels`
/// openers drawn from `{`, `OPTIONAL {`, `FILTER (`, `(`, `!` and `&&`,
/// closed in order. With `noise`, the closers are dropped, doubled or
/// shuffled instead, so most such strings fail to parse.
fn rand_nest(rng: &mut Rng, levels: usize, noise: bool) -> String {
    let (mut open, mut close) = (String::new(), Vec::new());
    let mut in_expression = false;
    for _ in 0..levels {
        let (opener, closer) = match (in_expression, rng.below(3)) {
            (false, 0) => ("{ ", Some(" }")),
            (false, 1) => ("?s <http://x/p> ?o OPTIONAL { ", Some(" }")),
            (false, _) => ("?s <http://x/p> ?o FILTER (", Some(")")),
            (true, 0) => ("(", Some(")")),
            (true, 1) => ("!", None),
            (true, _) => ("(BOUND(?s) && ", Some(")")),
        };
        in_expression |= opener.ends_with('(');
        open.push_str(opener);
        close.extend(closer);
    }
    close.reverse();
    if noise {
        for _ in 0..1 + rng.below(4) {
            let (i, j) = (rng.below(close.len() + 1), rng.below(close.len() + 1));
            match rng.below(3) {
                0 if i < close.len() => drop(close.remove(i)),
                1 => close.insert(i, if rng.chance(0.5) { " }" } else { ")" }),
                _ if i < close.len() && j < close.len() => close.swap(i, j),
                _ => {}
            }
        }
    }
    let core = if in_expression {
        "BOUND(?o)"
    } else {
        "?s <http://x/p> ?o"
    };
    format!("SELECT * WHERE {{ {open}{core}{} }}", close.concat())
}

/// However a query nests, `parse_query` answers `Ok` or `Err` and never
/// overflows its stack: the nesting bound refuses every query deeper than
/// `MAX_NESTING` before its recursion gets there. Every query it accepts
/// is written back too, since the writer recurses once per level for
/// every wire request. The cases run on a thread with an explicit 1 MiB
/// stack, half a server connection thread's default, so the test holds
/// in a debug build whatever `RUST_MIN_STACK` says.
#[test]
fn nesting_never_overflows_the_parser_or_writer() {
    let seed = seed_from_env(0xB2);
    let cases = std::thread::Builder::new()
        .stack_size(1 << 20)
        .spawn(move || {
            let mut rng = Rng::new(seed);
            let (mut accepted, mut refused) = (0, 0);
            for case in 0..400 {
                // Half the cases within 16 levels of the bound, or past it.
                let levels = match rng.chance(0.5) {
                    true => MAX_NESTING - 16 + rng.below(48),
                    false => rng.below(MAX_NESTING),
                };
                let noise = rng.chance(0.3);
                let text = rand_nest(&mut rng, levels, noise);
                let dict = Dictionary::new();
                match parse_query(&text, &dict) {
                    Ok(q) => {
                        accepted += 1;
                        assert!(!write_query(&q, &dict).is_empty(), "case {case}");
                    }
                    Err(e) => refused += usize::from(e.to_string().contains("nests deeper")),
                }
            }
            (accepted, refused)
        })
        .expect("the test thread starts")
        .join();
    let (accepted, refused) = cases.expect("no case aborted the parser or writer");
    assert!(
        accepted > 100 && refused > 50,
        "{accepted} accepted, {refused} refused"
    );
}

// ---------- store vs naive matcher ------------------------------------------

#[test]
fn store_scan_matches_naive_filter() {
    let mut rng = Rng::new(seed_from_env(0xC1));
    for case in 0..150 {
        let dict = Dictionary::shared();
        let mut st = TripleStore::new(Arc::clone(&dict));
        let id = |n: usize, kind: &str| dict.encode(&Term::iri(format!("http://x/{kind}{n}")));
        let mut naive = std::collections::BTreeSet::new();
        for _ in 0..rng.below(60) {
            let t = lusail_rdf::Triple::new(
                id(rng.below(6), "s"),
                id(rng.below(4), "p"),
                id(rng.below(6), "o"),
            );
            st.insert(t);
            naive.insert((t.s, t.p, t.o));
        }
        let qs = rng.chance(0.5).then(|| id(rng.below(6), "s"));
        let qp = rng.chance(0.5).then(|| id(rng.below(4), "p"));
        let qo = rng.chance(0.5).then(|| id(rng.below(6), "o"));
        let got: std::collections::BTreeSet<_> = st
            .matches(qs, qp, qo)
            .into_iter()
            .map(|t| (t.s, t.p, t.o))
            .collect();
        let want: std::collections::BTreeSet<_> = naive
            .iter()
            .filter(|(a, b, c)| {
                qs.is_none_or(|x| x == *a)
                    && qp.is_none_or(|x| x == *b)
                    && qo.is_none_or(|x| x == *c)
            })
            .copied()
            .collect();
        assert_eq!(got, want, "case {case}");
    }
}

// ---------- storage-backend scan/estimate equivalence ------------------------

/// The cross-backend storage contract (see `lusail_store::backend`):
/// for the same triples, the BTree and columnar backends must hand scan
/// callbacks the same triples *in the same order* on every one of the
/// eight bound/unbound access paths, honor early exit at the same point,
/// charge `rows_scanned` identically, and agree on `estimate` up to the
/// documented cap — the columnar estimate is always the exact match
/// count, and `btree_estimate == min(true_count, ESTIMATE_CAP)` on the
/// five range-walk shapes (it is exact on `(?, p, ?)` and the all-free
/// shape). Universes are sized so the cap genuinely binds in some cases;
/// the test asserts that coverage rather than hoping for it.
///
/// The columnar subject lookup is a bitmap over 64-id words, so half the
/// cases put subjects on word edges several words apart, and subject
/// probes include raw ids below, inside and past the subjects' span.
#[test]
fn backend_scans_and_estimates_agree() {
    use lusail_store::{BackendKind, StorageBackend, ESTIMATE_CAP};
    use std::collections::BTreeSet;

    let mut rng = Rng::new(seed_from_env(0xBAC_E4D));
    let mut cap_bound_patterns = 0u64;
    let mut nonempty_scans = 0u64;
    let (mut below_span, mut in_gap, mut above_span, mut multi_word) = (0u64, 0u64, 0u64, 0u64);
    let mut edge_subjects = BTreeSet::<u32>::new();
    for case in 0..60 {
        let dict = Dictionary::shared();
        // Small subject/predicate universes with a wider object universe:
        // single-bound paths like (s, ?, ?) can then exceed ESTIMATE_CAP
        // matches even though the store is a *set* of triples.
        let ns = 1 + rng.below(4);
        let np = 1 + rng.below(4);
        let no = 1 + rng.below(80);
        let node = |n: usize, dict: &Dictionary| dict.encode(&Term::iri(format!("http://g/n{n}")));
        let pred = |n: usize, dict: &Dictionary| dict.encode(&Term::iri(format!("http://g/p{n}")));
        if case % 2 == 1 {
            // Filler terms before and between the subjects put node n at
            // id 64(n + 1) − 1, + 0 or + 1.
            for n in 0..ns {
                let target = 64 * (n + 1) - 1 + rng.below(3);
                while dict.len() < target {
                    dict.encode(&Term::iri(format!("http://g/pad{}", dict.len())));
                }
                node(n, &dict);
            }
        }
        let mut st = TripleStore::new(Arc::clone(&dict));
        for _ in 0..rng.below(400) {
            st.insert(lusail_rdf::Triple::new(
                node(rng.below(ns), &dict),
                pred(rng.below(np), &dict),
                node(rng.below(no), &dict),
            ));
        }
        // One deliberately dense subject: the full np × no grid hangs off
        // node 0, so subject-led paths exceed ESTIMATE_CAP whenever the
        // universe allows it (the store is a set — sparse random inserts
        // alone rarely pile more than the cap onto one run).
        for p in 0..np {
            for o in 0..no {
                st.insert(lusail_rdf::Triple::new(
                    node(0, &dict),
                    pred(p, &dict),
                    node(o, &dict),
                ));
            }
        }
        let mut subjects = BTreeSet::new();
        st.scan(None, None, None, |t| {
            subjects.insert(t.s.0);
            true
        });
        let (first, last) = (*subjects.first().unwrap(), *subjects.last().unwrap());
        multi_word += u64::from(last / 64 - first / 64 >= 2);
        edge_subjects.extend(
            subjects
                .iter()
                .filter(|&&s| s >= 63 && matches!(s % 64, 63 | 0 | 1)),
        );
        let backends: Vec<Box<dyn StorageBackend>> = {
            let copy = {
                let mut c = TripleStore::new(Arc::clone(&dict));
                let mut all = Vec::new();
                st.scan(None, None, None, |t| {
                    all.push(t);
                    true
                });
                for t in all {
                    c.insert(t);
                }
                c
            };
            vec![
                BackendKind::Btree.realize(st),
                BackendKind::Columns.realize(copy),
            ]
        };
        let (btree, columns) = (&backends[0], &backends[1]);
        assert_eq!(btree.len(), columns.len(), "case {case}: len diverged");

        for probe in 0..40 {
            // Constants range past each universe so absent terms occur in
            // every position; every bound/unbound combination arises. A
            // subject may also be any id, interned or not.
            let qs = match rng.below(8) {
                0..=3 => None,
                4..=6 => Some(node(rng.below(ns + 2), &dict)),
                _ => Some(TermId(rng.below(dict.len() + 70) as u32)),
            };
            let qp = rng.chance(0.5).then(|| pred(rng.below(np + 2), &dict));
            let qo = rng.chance(0.5).then(|| node(rng.below(no + 2), &dict));
            if let Some(s) = qs {
                below_span += u64::from(s.0 < first);
                in_gap += u64::from(s.0 > first && s.0 < last && !subjects.contains(&s.0));
                above_span += u64::from(s.0 > last);
            }
            let ctx =
                |what: &str| format!("case {case} probe {probe} ({qs:?},{qp:?},{qo:?}): {what}");

            // Full scans: same triples, same order, same work charged.
            let before = (btree.rows_scanned(), columns.rows_scanned());
            let got_b = btree.matches(qs, qp, qo);
            let got_c = columns.matches(qs, qp, qo);
            assert_eq!(got_b, got_c, "{}", ctx("scan order/content diverged"));
            let scanned_b = btree.rows_scanned() - before.0;
            let scanned_c = columns.rows_scanned() - before.1;
            assert_eq!(
                scanned_b,
                got_b.len() as u64,
                "{}",
                ctx("btree rows_scanned")
            );
            assert_eq!(
                scanned_c,
                got_c.len() as u64,
                "{}",
                ctx("columns rows_scanned")
            );
            let true_count = got_b.len() as u64;
            if true_count > 0 {
                nonempty_scans += 1;
            }

            // Early exit: both backends stop at the same prefix, report
            // the same "stopped early" flag, and charge exactly the
            // prefix.
            if true_count > 0 {
                let k = 1 + rng.below(true_count as usize);
                for backend in [btree, columns] {
                    let before = backend.rows_scanned();
                    let mut seen = Vec::new();
                    let completed = backend.scan(qs, qp, qo, |t| {
                        seen.push(t);
                        seen.len() < k
                    });
                    assert!(
                        !completed || k == true_count as usize,
                        "{}",
                        ctx("early-exit flag")
                    );
                    assert_eq!(seen, got_b[..k], "{}", ctx("early-exit prefix"));
                    assert_eq!(
                        backend.rows_scanned() - before,
                        k as u64,
                        "{}",
                        ctx("early-exit rows_scanned")
                    );
                }
            }

            // Estimates: columnar is always exact; BTree is exact on the
            // predicate-only and all-free shapes and capped elsewhere.
            let est_b = btree.estimate(qs, qp, qo);
            let est_c = columns.estimate(qs, qp, qo);
            assert_eq!(
                est_c,
                true_count,
                "{}",
                ctx("columns estimate must be exact")
            );
            let btree_exact =
                (qs.is_none() && qo.is_none()) || (qs.is_none() && qp.is_none() && qo.is_none());
            if btree_exact {
                assert_eq!(
                    est_b,
                    true_count,
                    "{}",
                    ctx("btree estimate on exact shape")
                );
            } else {
                assert_eq!(
                    est_b,
                    true_count.min(ESTIMATE_CAP),
                    "{}",
                    ctx("btree estimate vs documented cap bound")
                );
            }
            if est_c > ESTIMATE_CAP && !btree_exact {
                cap_bound_patterns += 1;
            }
        }
    }
    // The contract's interesting half is vacuous if the cap never binds
    // or every scan is empty.
    assert!(
        cap_bound_patterns > 20 && nonempty_scans > 400,
        "coverage too thin: {cap_bound_patterns} cap-bound patterns, {nonempty_scans} nonempty scans"
    );
    assert!(
        below_span > 20 && in_gap > 20 && above_span > 20 && multi_word > 10,
        "directory coverage too thin: subject probes {below_span} below the span, {in_gap} in \
         gaps, {above_span} above it; {multi_word} stores spanning 3+ words"
    );
    for id in [63, 64, 65, 127, 128] {
        assert!(
            edge_subjects.contains(&id),
            "no store had subject id {id}: {edge_subjects:?}"
        );
    }
}

// ---------- the federation partition property --------------------------------

// Random graph, partitioned across endpoints **by subject** — the
// decentralized-RDF setting the paper targets, where every authority
// stores the triples of its own entities and interlinks are object
// references to remote entities. Chain queries over any such partition
// must return exactly the centralized result, for both Lusail and FedX.
//
// (Partitioning by *edge* instead can split one entity's adjacency list
// across endpoints; the paper's set-difference locality checks — like
// ours — cannot see cross-endpoint combinations of such split lists.
// That assumption is inherent to the algorithm and documented in
// DESIGN.md.)
#[test]
fn any_subject_partition_yields_centralized_results() {
    let mut rng = Rng::new(seed_from_env(0xF1));
    for case in 0..24 {
        let endpoints = 2 + rng.below(2);
        let chain_len = 2 + rng.below(2);
        let assignment_seed = rng.next_u64() % 1000;
        let dict = Dictionary::shared();
        let mut oracle = TripleStore::new(Arc::clone(&dict));
        let mut stores: Vec<TripleStore> = (0..endpoints)
            .map(|_| TripleStore::new(Arc::clone(&dict)))
            .collect();
        let node = |n: u32, dict: &Dictionary| dict.encode(&Term::iri(format!("http://g/n{n}")));
        let pred = |n: u32, dict: &Dictionary| dict.encode(&Term::iri(format!("http://g/p{n}")));
        // Each subject node gets a random *home* endpoint; all its triples
        // live there.
        let home = |n: u32| -> usize {
            let mut h = (n as u64 + 1).wrapping_mul(assignment_seed.wrapping_add(7));
            h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((h >> 33) as usize) % endpoints
        };
        for _ in 0..1 + rng.below(79) {
            let (a, p, b) = (
                rng.below(12) as u32,
                rng.below(3) as u32,
                rng.below(12) as u32,
            );
            let t = lusail_rdf::Triple::new(node(a, &dict), pred(p, &dict), node(b, &dict));
            oracle.insert(t);
            stores[home(a)].insert(t);
        }
        let mut fed = Federation::new(Arc::clone(&dict));
        for (i, st) in stores.into_iter().enumerate() {
            fed.add(Arc::new(LocalEndpoint::new(format!("ep{i}"), st)));
        }

        // Chain query ?v0 p0 ?v1 p1 ?v2 …
        let mut triples = Vec::new();
        for i in 0..chain_len {
            triples.push(TriplePattern::new(
                PatternTerm::Var(format!("v{i}")),
                PatternTerm::Const(pred((i % 3) as u32, &dict)),
                PatternTerm::Var(format!("v{}", i + 1)),
            ));
        }
        let query = Query::select_all(GroupPattern::bgp(triples));
        let expected = lusail_store::eval::evaluate(&oracle, &query).canonicalize();

        let lusail = Lusail::default();
        assert_eq!(
            lusail
                .run_with(&fed, &query, &ExecOptions::default())
                .unwrap()
                .solutions
                .canonicalize(),
            expected,
            "case {case}: Lusail differs from centralized evaluation"
        );
        let fedx = FedX::default();
        assert_eq!(
            fedx.run_with(&fed, &query, &ExecOptions::default())
                .unwrap()
                .solutions
                .canonicalize(),
            expected,
            "case {case}: FedX differs from centralized evaluation"
        );
    }
}

// ---------- statistics soundness --------------------------------------------

/// Soundness of probe elision: whenever the offline characteristic-set
/// statistics give a *conclusive* answer for a triple pattern, that
/// answer must equal what the wire probe returns against the very store
/// the statistics were built from — `ask_pattern` vs an ASK request,
/// `count_pattern` vs a COUNT request. Inconclusive (`None`) is always
/// acceptable (the planner falls back to the wire), but a conclusive lie
/// would silently change query results, so exactness is the bar. The
/// generator deliberately produces repeated variables, constants in
/// every position, absent predicates, and empty stores — the shapes the
/// decidability rules in `EndpointStats::count_pattern` must refuse or
/// answer exactly.
#[test]
fn conclusive_stats_answers_match_wire_probes() {
    use lusail_endpoint::SparqlEndpoint;
    use lusail_store::EndpointStats;

    let mut rng = Rng::new(seed_from_env(0x57A7_0B0B));
    let (mut asks, mut counts) = (0u64, 0u64);
    let (mut seen_true, mut seen_false) = (false, false);
    for case in 0..120 {
        let dict = Dictionary::shared();
        let mut st = TripleStore::new(Arc::clone(&dict));
        let node = |n: usize, dict: &Dictionary| dict.encode(&Term::iri(format!("http://g/n{n}")));
        let pred = |n: usize, dict: &Dictionary| dict.encode(&Term::iri(format!("http://g/p{n}")));
        // `below(40)` includes 0, so empty stores are exercised too.
        for _ in 0..rng.below(40) {
            st.insert(lusail_rdf::Triple::new(
                node(rng.below(10), &dict),
                pred(rng.below(4), &dict),
                node(rng.below(10), &dict),
            ));
        }
        let stats = EndpointStats::build(&st);
        let ep = LocalEndpoint::new("e", st);

        const VARS: [&str; 3] = ["a", "b", "c"];
        for probe in 0..40 {
            // Constants range past the data universe so absent predicates
            // and unmatched nodes occur; variables repeat across positions.
            let position = |rng: &mut Rng, is_pred: bool, dict: &Dictionary| {
                if rng.chance(0.5) {
                    PatternTerm::Var(VARS[rng.below(VARS.len())].to_string())
                } else if is_pred {
                    PatternTerm::Const(pred(rng.below(6), dict))
                } else {
                    PatternTerm::Const(node(rng.below(12), dict))
                }
            };
            let tp = TriplePattern::new(
                position(&mut rng, false, &dict),
                position(&mut rng, true, &dict),
                position(&mut rng, false, &dict),
            );
            let bgp = || GroupPattern::bgp(vec![tp.clone()]);
            if let Some(local) = stats.ask_pattern(&tp) {
                let wire = ep.ask(&Query::ask(bgp())).unwrap();
                assert_eq!(
                    local, wire,
                    "case {case} probe {probe}: conclusive ASK diverged for {tp:?}"
                );
                asks += 1;
                seen_true |= local;
                seen_false |= !local;
            }
            if let Some(local) = stats.count_pattern(&tp) {
                let wire = ep.count(&Query::count(bgp())).unwrap();
                assert_eq!(
                    local, wire,
                    "case {case} probe {probe}: conclusive COUNT diverged for {tp:?}"
                );
                counts += 1;
            }
        }
    }
    // The property is vacuous if the rules never conclude, or conclude
    // only one way.
    assert!(
        asks > 500 && counts > 500 && seen_true && seen_false,
        "coverage too thin: {asks} asks, {counts} counts, true {seen_true}, false {seen_false}"
    );
}

/// The three offline builders — Lusail's statistics, SPLENDID's VOID
/// index and HiBISCuS's authority index — read a store through its
/// uncharged `for_each_spo` pass, so building them moves no endpoint's
/// `rows_scanned`, on either backend. And the per-predicate numbers both
/// Lusail and SPLENDID plan with are the brute-force counts over `scan`,
/// identical across backends.
#[test]
fn offline_builds_charge_nothing_and_agree_across_backends() {
    use lusail_baselines::{HibiscusIndex, VoidIndex};
    use lusail_endpoint::NetworkProfile;
    use lusail_store::{BackendKind, EndpointStats, PredicateSummary};
    use std::collections::{BTreeMap, BTreeSet};

    let mut rng = Rng::new(seed_from_env(0x0FF_B1D));
    let mut predicates_checked = 0usize;
    for case in 0..40 {
        let dict = Dictionary::shared();
        let node = |n: usize| match n % 5 {
            // Literal objects have no authority: HiBISCuS's wildcard.
            4 => Term::lit(format!("v{n}")),
            _ => Term::iri(format!("http://h{}.org/n{n}", n % 3)),
        };
        let mut triples = Vec::new();
        for _ in 0..rng.below(120) {
            let s = Term::iri(format!("http://h0.org/n{}", rng.below(12)));
            let p = Term::iri(format!("http://g/p{}", rng.below(5)));
            triples.push((s, p, node(rng.below(20))));
        }
        let per_backend: Vec<EndpointStats> = BackendKind::ALL
            .into_iter()
            .map(|kind| {
                let mut st = TripleStore::new(Arc::clone(&dict));
                for (s, p, o) in &triples {
                    st.insert_terms(s, p, o);
                }
                let ep = LocalEndpoint::on_backend("e", st, kind, NetworkProfile::default());
                let store = ep.store();
                let stats = EndpointStats::build(store);
                let void = VoidIndex::build(&[&ep]);
                let _ = HibiscusIndex::build(&[&ep]);
                assert_eq!(
                    store.rows_scanned(),
                    0,
                    "case {case}, {kind}: a build scanned"
                );

                let mut brute: BTreeMap<TermId, (u64, BTreeSet<TermId>, BTreeSet<TermId>)> =
                    BTreeMap::new();
                store.scan(None, None, None, |t| {
                    let (n, subjects, objects) = brute.entry(t.p).or_default();
                    *n += 1;
                    subjects.insert(t.s);
                    objects.insert(t.o);
                    true
                });
                assert_eq!(
                    stats.total_triples,
                    store.len() as u64,
                    "case {case}, {kind}"
                );
                assert_eq!(stats.predicates.len(), brute.len(), "case {case}, {kind}");
                for (p, (n, subjects, objects)) in brute {
                    let got: &PredicateSummary = stats.predicate(p).expect("predicate summarized");
                    let want = (n, subjects.len() as u64, objects.len() as u64);
                    assert_eq!(
                        (got.triples, got.subjects, got.objects),
                        want,
                        "case {case}, {kind}: {p:?}"
                    );
                    predicates_checked += 1;
                }
                // SPLENDID's VOID description is the same summary.
                let [description] = &void.descriptions[..] else {
                    panic!("case {case}, {kind}: one endpoint, one description");
                };
                assert_eq!(description.total_triples, stats.total_triples);
                assert_eq!(description.predicates, stats.predicates);
                stats
            })
            .collect();
        let (btree, columns) = (&per_backend[0], &per_backend[1]);
        assert_eq!(btree.total_triples, columns.total_triples, "case {case}");
        assert_eq!(btree.predicates, columns.predicates, "case {case}");
        assert_eq!(btree.sets, columns.sets, "case {case}");
    }
    assert!(
        predicates_checked > 200,
        "coverage too thin: {predicates_checked} predicates"
    );
}

// ---------- MQO signature soundness -----------------------------------------

/// Soundness of the batch memo's sharing key: whenever two subqueries —
/// possibly decomposed from *different* queries — have equal
/// [`SubqueryKey`](lusail_core::SubqueryKey)s, evaluating
/// them standalone must yield multiset-equal relations. This is the
/// safety condition for [`Lusail::execute_batch`] reusing a memoized
/// relation across tenants: an unsound signature would silently hand one
/// tenant another tenant's (different) rows. The generator produces, per
/// case, the seeded query itself plus a triple-order permutation of it —
/// the signature normalizes pattern order, so permuted decompositions
/// must collide and agree; identical queries (the cross-tenant shape the
/// server batches) collide on every subquery. Replay any reported seed
/// with `LUSAIL_TEST_SEED`.
#[test]
fn equal_subquery_signatures_imply_multiset_equal_relations() {
    use lusail_core::{PlanShape, SubqueryKey};
    use lusail_testkit::{Case, FaultSpec, GenConfig};

    let mut rng = Rng::new(seed_from_env(0x516_A7B5));
    let config = GenConfig::default();
    let mut collisions = 0u64;
    let mut cross_query_collisions = 0u64;
    let mut planned_cases = 0u64;
    for case_no in 0..60 {
        let seed = rng.next_u64();
        let case = Case::generate(seed, &config);
        let (fed, _endpoints) = case.federation(&FaultSpec::default());
        let engine = Lusail::default();

        // Variant 0: the query as generated. Variant 1: the same query
        // with its triple patterns in reversed order (decomposition may
        // group/order differently; signatures must not care). Variant 2:
        // an identical resubmission — the cross-tenant sharing shape.
        let mut permuted = case.query.clone();
        permuted.pattern.triples.reverse();
        let variants = [case.query.clone(), permuted, case.query.clone()];

        // signature -> (variant index, sorted projection, canonical rows)
        let mut memo: std::collections::HashMap<SubqueryKey, (usize, Vec<String>, SolutionSet)> =
            std::collections::HashMap::new();
        let mut any_planned = false;
        for (vi, query) in variants.iter().enumerate() {
            let PlanShape::Decomposed { subqueries, .. } =
                engine.explain(&fed, query).groups.swap_remove(0).shape
            else {
                continue;
            };
            any_planned = true;
            for sq in subqueries.iter().map(|planned| &planned.subquery) {
                let sig = SubqueryKey::of(sq);
                // Compare relations over the signature's own (sorted)
                // projection: signature-equal subqueries project the same
                // variable set, possibly discovered in different orders.
                let mut proj = sq.projection.clone();
                proj.sort();
                let rel = evaluate_standalone(&fed, sq).project(&proj).canonicalize();
                match memo.get(&sig) {
                    Some((prev_vi, prev_proj, prev_rel)) => {
                        collisions += 1;
                        if *prev_vi != vi {
                            cross_query_collisions += 1;
                        }
                        assert_eq!(
                            (prev_proj, prev_rel),
                            (&proj, &rel),
                            "case {case_no} (seed {seed:#x}): signature {sig:?} maps to \
                             different relations — sharing would be unsound"
                        );
                    }
                    None => {
                        memo.insert(sig, (vi, proj, rel));
                    }
                }
            }
        }
        if any_planned {
            planned_cases += 1;
        }
    }
    // The property is vacuous without real collisions, and the interesting
    // half needs collisions across *distinct submissions*.
    assert!(
        planned_cases >= 10 && collisions >= 20 && cross_query_collisions >= 10,
        "coverage too thin: {planned_cases} planned cases, {collisions} collisions, \
         {cross_query_collisions} cross-query"
    );
}

/// Evaluates one subquery standalone (no bindings from neighbours): its
/// query sent to each of its sources and concatenated, through the query
/// driver and fetch path every engine's unbound retrieval takes. This is
/// the relation the batch memo shares.
fn evaluate_standalone(fed: &Federation, sq: &Subquery) -> SolutionSet {
    let query = sq.to_query(None);
    let (outcome, (), _) = run_query(
        fed,
        &query,
        RequestPolicy::default(),
        Arc::new(SystemClock::default()),
        &ExecOptions::default(),
        |net| (fetch_from(fed, net, &query, &sq.sources), ()),
    )
    .unwrap();
    outcome.solutions
}

// ---------- adaptive VALUES batching ---------------------------------------

/// Batching a bound subquery's bindings into `VALUES` blocks — at any
/// block size — must yield exactly the same solution multiset as shipping
/// all bindings in one unbatched block. Blocks partition the *distinct*
/// values of one variable, so no split may ever lose or duplicate a row.
#[test]
fn adaptive_values_batching_preserves_the_solution_multiset() {
    use lusail_core::{DelayPolicy, LusailConfig, QueryTrace, TraceSink};

    let mut rng = Rng::new(seed_from_env(0xADA7));
    let mut multi_block_runs = 0usize;
    for case_no in 0..30 {
        // A chain split over two endpoints: A holds ?s -p-> ?m edges into
        // a small midpoint pool, B fans each midpoint out into 0..6
        // ?m -q-> ?n edges — so the q-side is usually the heavier, delayed
        // subquery and gets bound with VALUES blocks over ?m.
        let dict = Dictionary::shared();
        let mut a = TripleStore::new(Arc::clone(&dict));
        let mut b = TripleStore::new(Arc::clone(&dict));
        let subjects = 5 + rng.below(40);
        let mids = 2 + rng.below(10);
        for i in 0..subjects {
            let s = Term::iri(format!("http://a/s{i}"));
            let m = Term::iri(format!("http://m/v{}", rng.below(mids)));
            a.insert_terms(&s, &Term::iri("http://x/p"), &m);
        }
        for j in 0..mids {
            let m = Term::iri(format!("http://m/v{j}"));
            for k in 0..rng.below(7) {
                b.insert_terms(
                    &m,
                    &Term::iri("http://x/q"),
                    &Term::int((j * 10 + k) as i64),
                );
            }
        }
        let mut fed = Federation::new(Arc::clone(&dict));
        fed.add(Arc::new(LocalEndpoint::new("A", a)));
        fed.add(Arc::new(LocalEndpoint::new("B", b)));
        let q = parse_query(
            "SELECT ?s ?m ?n WHERE { ?s <http://x/p> ?m . ?m <http://x/q> ?n }",
            &dict,
        )
        .unwrap();

        let run = |block_size: usize| {
            let engine = Lusail::new(LusailConfig {
                block_size,
                // Delay past the mean so the heavier subquery really takes
                // the bound-subquery path (μ+σ never fires with only two).
                delay_policy: DelayPolicy::Mu,
                ..LusailConfig::default()
            });
            let sink = TraceSink::enabled();
            let r = engine
                .execute_with(&fed, &q, &ExecOptions::default().with_trace(sink.clone()))
                .unwrap();
            assert!(r.complete, "case {case_no}: clean run must be complete");
            let (blocks, _) = QueryTrace::from_sink(&sink).values_batch_totals();
            (r.solutions.canonicalize(), blocks)
        };

        // Reference: one unbatched block carrying every binding.
        let (reference, _) = run(1_000_000);
        for block_size in [1, 7, 100] {
            let (sols, blocks) = run(block_size);
            assert_eq!(
                sols, reference,
                "case {case_no}: block_size {block_size} changed the solution multiset"
            );
            if blocks > 1 {
                multi_block_runs += 1;
            }
        }
    }
    // The property is vacuous if no run ever split its bindings.
    assert!(
        multi_block_runs > 0,
        "no run ever exercised multi-block VALUES batching"
    );
}
