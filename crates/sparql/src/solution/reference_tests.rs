//! The flat operations held to the `Vec<Row>` code they replaced: the old
//! implementations, one heap row per solution, kept as the reference model.
//! Every comparison is on schema and row *sequence*, not on multisets.

use super::*;
use lusail_rdf::{FxHashSet, SplitMix64 as Rng};

type Row = Vec<Option<TermId>>;

/// A relation as it used to be stored.
#[derive(Debug, Clone, PartialEq)]
struct RefSet {
    vars: Vec<String>,
    rows: Vec<Row>,
}

impl RefSet {
    fn of(s: &SolutionSet) -> RefSet {
        RefSet {
            vars: s.vars.clone(),
            rows: s.rows.iter().map(<[_]>::to_vec).collect(),
        }
    }

    fn col(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }

    fn append(&mut self, other: RefSet) {
        if self.vars == other.vars {
            self.rows.extend(other.rows);
            return;
        }
        for v in &other.vars {
            if self.col(v).is_none() {
                self.vars.push(v.clone());
                for row in &mut self.rows {
                    row.push(None);
                }
            }
        }
        let mapping: Vec<usize> = (other.vars.iter())
            .map(|v| self.col(v).expect("column just added"))
            .collect();
        for orow in other.rows {
            let mut row = vec![None; self.vars.len()];
            for (j, val) in orow.into_iter().enumerate() {
                row[mapping[j]] = val;
            }
            self.rows.push(row);
        }
    }

    fn project(&self, vars: &[String]) -> RefSet {
        let cols: Vec<Option<usize>> = vars.iter().map(|v| self.col(v)).collect();
        let rows = (self.rows.iter())
            .map(|row| cols.iter().map(|c| c.and_then(|c| row[c])).collect())
            .collect();
        RefSet {
            vars: vars.to_vec(),
            rows,
        }
    }

    fn dedup(&mut self) {
        let mut seen = FxHashSet::default();
        self.rows.retain(|row| seen.insert(row.clone()));
    }

    fn distinct_tuples(&self, vars: &[String]) -> Vec<Row> {
        let cols: Vec<usize> = vars.iter().filter_map(|v| self.col(v)).collect();
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for row in &self.rows {
            let tuple: Row = cols.iter().map(|&c| row[c]).collect();
            if seen.insert(tuple.clone()) {
                out.push(tuple);
            }
        }
        out
    }

    fn canonicalize(&self) -> RefSet {
        let mut vars = self.vars.clone();
        vars.sort();
        let mut out = self.project(&vars);
        out.rows.sort();
        out
    }

    /// The join kernel over `Vec<Row>`, keyed by an owned `Vec<TermId>`.
    fn join(&self, other: &RefSet, kind: JoinKind, accept: Option<JoinPredicate>) -> RefSet {
        let shared: Vec<(usize, usize)> = (self.vars.iter().enumerate())
            .filter_map(|(l, v)| other.col(v).map(|r| (l, r)))
            .collect();
        let extra: Vec<usize> = (0..other.vars.len())
            .filter(|&r| self.col(&other.vars[r]).is_none())
            .collect();
        let merged_vars: Vec<String> = (self.vars.iter())
            .chain(extra.iter().map(|&r| &other.vars[r]))
            .cloned()
            .collect();
        let build_is_left =
            kind == JoinKind::Inner && !shared.is_empty() && self.rows.len() <= other.rows.len();
        let (build, probe) = if build_is_left {
            (self, other)
        } else {
            (other, self)
        };
        let (build_cols, probe_cols): (Vec<usize>, Vec<usize>) = shared
            .iter()
            .map(|&(l, r)| if build_is_left { (l, r) } else { (r, l) })
            .unzip();
        let key_of = |row: &Row, cols: &[usize]| -> Option<Vec<TermId>> {
            cols.iter().map(|&c| row[c]).collect()
        };
        let mut table: FxHashMap<Vec<TermId>, usize> = FxHashMap::default();
        let mut next: Vec<Option<usize>> = vec![None; build.rows.len()];
        let mut loose: Vec<usize> = Vec::new();
        for (i, row) in build.rows.iter().enumerate().rev() {
            match key_of(row, &build_cols) {
                Some(key) => next[i] = table.insert(key, i),
                None => loose.push(i),
            }
        }
        loose.reverse();

        let out_width = match kind {
            JoinKind::Anti => self.vars.len(),
            _ => merged_vars.len(),
        };
        let merge = |lrow: &Row, rrow: &Row| -> Row {
            let mut row = Vec::with_capacity(merged_vars.len());
            row.extend_from_slice(lrow);
            row.extend(extra.iter().map(|&r| rrow[r]));
            for &(l, r) in &shared {
                if row[l].is_none() {
                    row[l] = rrow[r];
                }
            }
            row
        };
        let mut rows: Vec<Row> = Vec::new();
        for prow in &probe.rows {
            let (first, loose, scan) = match key_of(prow, &probe_cols) {
                Some(key) => (table.get(&key).copied(), &loose[..], 0..0),
                None => (None, &[][..], 0..build.rows.len()),
            };
            let bucket = std::iter::successors(first, |&bi| next[bi]).map(|bi| (bi, true));
            let unhashed = loose.iter().copied().chain(scan).map(|bi| (bi, false));
            let mut paired = false;
            for (bi, hashed) in bucket.chain(unhashed) {
                let brow = &build.rows[bi];
                if !hashed && !compatible(brow, &build_cols, prow, &probe_cols) {
                    continue;
                }
                if kind != JoinKind::Anti || accept.is_some() {
                    let merged = if build_is_left {
                        merge(brow, prow)
                    } else {
                        merge(prow, brow)
                    };
                    if accept.is_some_and(|accept| !accept(&merged_vars, &merged)) {
                        continue;
                    }
                    if kind != JoinKind::Anti {
                        rows.push(merged);
                    }
                }
                paired = true;
                if kind == JoinKind::Anti {
                    break;
                }
            }
            if !paired && kind != JoinKind::Inner {
                let mut row = prow.clone();
                row.resize(out_width, None);
                rows.push(row);
            }
        }
        let mut vars = merged_vars;
        vars.truncate(out_width);
        RefSet { vars, rows }
    }
}

fn names(vars: &[&str]) -> Vec<String> {
    vars.iter().map(|v| v.to_string()).collect()
}

/// `rows` rows over `vars`, ids below `ids`, one cell in `unbound_one_in`
/// unbound (0: none).
fn relation(
    rng: &mut Rng,
    vars: Vec<String>,
    rows: usize,
    ids: usize,
    unbound_one_in: usize,
) -> SolutionSet {
    let rows = (0..rows)
        .map(|_| {
            (0..vars.len())
                .map(|_| {
                    let unbound = unbound_one_in > 0 && rng.below(unbound_one_in) == 0;
                    (!unbound).then(|| TermId(rng.below(ids) as u32))
                })
                .collect()
        })
        .collect();
    SolutionSet { vars, rows }
}

#[test]
fn join_matches_the_row_vector_kernel() {
    let mut rng = Rng(0x16_0001);
    // Keep the merged rows whose cell sum is even: rejects about half.
    let even = |_: &[String], row: &[Option<TermId>]| {
        row.iter().flatten().map(|id| id.0).sum::<u32>() % 2 == 0
    };
    let (mut nonempty, mut rejected, mut loose_build, mut unbound_probe) = (0, 0, 0, 0);
    for shared in 0..=3usize {
        // Where the unbound key cells are: nowhere, left, right, both.
        for (left_unbound, right_unbound) in [(0, 0), (5, 0), (0, 5), (5, 5)] {
            for case in 0..40 {
                let keys: Vec<String> = (0..shared).map(|i| format!("k{i}")).collect();
                // The shared columns sit in opposite orders on the two sides.
                let lvars = keys.iter().cloned().chain(names(&["l"])).collect();
                let rvars = (names(&["r"]).into_iter())
                    .chain(keys.iter().rev().cloned())
                    .collect();
                let (n, m) = (rng.below(13), rng.below(13));
                let a = relation(&mut rng, lvars, n, 3, left_unbound);
                let b = relation(&mut rng, rvars, m, 3, right_unbound);
                let (ra, rb) = (RefSet::of(&a), RefSet::of(&b));
                for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Anti] {
                    for accept in [None, Some(&even as JoinPredicate)] {
                        let ctx = format!(
                            "{shared} shared, unbound 1/{left_unbound} | 1/{right_unbound}, \
                             case {case}, {kind:?}, accept {}",
                            accept.is_some()
                        );
                        let got = a.join(&b, kind, accept);
                        let want = ra.join(&rb, kind, accept);
                        assert_eq!(RefSet::of(&got), want, "{ctx}");
                        assert_eq!(got.len(), want.rows.len(), "{ctx}");
                        nonempty += usize::from(!got.is_empty());
                        if accept.is_some() && kind == JoinKind::Inner {
                            rejected += usize::from(got.len() < a.join(&b, kind, None).len());
                        }
                    }
                }
                let unbound_key = |s: &SolutionSet| {
                    (s.rows.iter()).any(|row| keys.iter().any(|k| row[s.col(k).unwrap()].is_none()))
                };
                loose_build += usize::from(unbound_key(&b));
                unbound_probe += usize::from(unbound_key(&a));
            }
        }
    }
    assert!(nonempty > 1000, "non-empty results: {nonempty}");
    assert!(rejected > 100, "joins `accept` cut rows from: {rejected}");
    assert!(loose_build > 100, "loose build rows: {loose_build}");
    assert!(unbound_probe > 100, "unbound probe keys: {unbound_probe}");
}

/// Three-column keys over relations large enough that most chains hold
/// several rows and most probes find several partners.
#[test]
fn join_on_many_composite_keys_matches_the_reference() {
    let mut rng = Rng(0x16_0002);
    let a = relation(&mut rng, names(&["k0", "k1", "k2", "l"]), 300, 6, 0);
    let b = relation(&mut rng, names(&["k2", "r", "k0", "k1"]), 400, 6, 0);
    let got = a.hash_join(&b);
    assert!(got.len() > 300, "{} rows", got.len());
    assert_eq!(
        RefSet::of(&got),
        RefSet::of(&a).join(&RefSet::of(&b), JoinKind::Inner, None)
    );
}

#[test]
fn append_matches_the_row_vector_append() {
    let mut rng = Rng(0x16_0003);
    let schemas: [(&[&str], &[&str]); 5] = [
        (&["x", "y"], &["x", "y"]), // equal
        (&["x", "y"], &["y", "x"]), // permuted
        (&["x"], &["x", "y", "z"]), // widened by the appended side
        (&["x", "y", "z"], &["z"]), // the appended side is narrower
        (&[], &["x"]),              // zero-width rows grow a column
    ];
    for (left, right) in schemas {
        for case in 0..40 {
            let (n, m) = (rng.below(7), rng.below(7));
            let mut a = relation(&mut rng, names(left), n, 4, 4);
            let b = relation(&mut rng, names(right), m, 4, 4);
            let mut want = RefSet::of(&a);
            want.append(RefSet::of(&b));
            a.append(b);
            assert_eq!(RefSet::of(&a), want, "{left:?} + {right:?}, case {case}");
        }
    }
}

#[test]
fn dedup_tuples_and_canonical_form_match_the_row_vector_code() {
    let mut rng = Rng(0x16_0004);
    let mut duplicates = 0;
    for case in 0..200 {
        // Few ids, so duplicate rows and duplicate tuples are common.
        let n = rng.below(31);
        let s = relation(&mut rng, names(&["b", "c", "a"]), n, 2, 5);
        let reference = RefSet::of(&s);

        let mut got = s.clone();
        got.dedup();
        let mut want = reference.clone();
        want.dedup();
        assert_eq!(RefSet::of(&got), want, "case {case}: dedup");
        duplicates += usize::from(got.len() < s.len());

        for vars in [&["a"][..], &["c", "b"], &["a", "b", "c"], &[]] {
            let vars = names(vars);
            let tuples: Vec<Row> = (s.distinct_tuples(&vars).iter())
                .map(<[_]>::to_vec)
                .collect();
            assert_eq!(
                tuples,
                reference.distinct_tuples(&vars),
                "case {case}: {vars:?}"
            );
        }
        assert_eq!(
            RefSet::of(&s.canonicalize()),
            reference.canonicalize(),
            "case {case}: canonicalize"
        );
    }
    assert!(duplicates > 100, "sets with duplicate rows: {duplicates}");
}
