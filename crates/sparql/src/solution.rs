//! Solution sets: the tabular results exchanged between endpoints and
//! federated engines.
//!
//! A [`SolutionSet`] is a schema (`vars`) over flat [`Rows`]: one strided
//! buffer per relation, rows handed out as `&[Option<TermId>]` slices whose
//! column order follows `vars`. Every operation here reads slices and
//! writes into one output buffer — no row is a heap object of its own.

use crate::rows::{Rows, NO_ROW};
use lusail_rdf::fx::FxHasher;
use lusail_rdf::{FxHashMap, TermId};
use std::hash::Hasher;

/// A set of solutions over a fixed variable schema.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolutionSet {
    /// Column names (variable names without `?`), in column order.
    pub vars: Vec<String>,
    /// The solution rows, `vars.len()` cells each.
    pub rows: Rows,
}

impl SolutionSet {
    /// An empty solution set over the given variables.
    pub fn empty(vars: Vec<String>) -> Self {
        SolutionSet {
            vars,
            rows: Rows::default(),
        }
    }

    /// The one solution that binds nothing (the answer of `SELECT * {}` and
    /// of a satisfied `ASK`): the identity of [`hash_join`](Self::hash_join).
    pub fn unit() -> Self {
        SolutionSet {
            vars: Vec::new(),
            rows: Rows::unit(),
        }
    }

    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no solutions.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The column index of a variable, if present.
    pub fn col(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }

    /// Reads the binding of `var` in row `i`.
    pub fn get(&self, i: usize, var: &str) -> Option<TermId> {
        self.col(var).and_then(|c| self.rows[i][c])
    }

    /// Appends all rows of `other`, aligning columns by variable name.
    /// Variables missing from `other` become unbound; variables new in
    /// `other` are added as columns (unbound in existing rows).
    pub fn append(&mut self, other: SolutionSet) {
        if self.vars == other.vars {
            return self.rows.extend(&other.rows);
        }
        let old_width = self.vars.len();
        for v in &other.vars {
            if self.col(v).is_none() {
                self.vars.push(v.clone());
            }
        }
        if self.vars.len() > old_width {
            let widened: Vec<Option<usize>> = (0..self.vars.len())
                .map(|c| (c < old_width).then_some(c))
                .collect();
            self.rows = self.rows.project(&widened);
        }
        let aligned: Vec<Option<usize>> = self.vars.iter().map(|v| other.col(v)).collect();
        self.rows.extend(&other.rows.project(&aligned));
    }

    /// Projects onto the given variables (in the given order). Variables
    /// absent from the schema yield all-unbound columns, matching SPARQL's
    /// treatment of projecting an unbound variable.
    pub fn project(&self, vars: &[String]) -> SolutionSet {
        let cols: Vec<Option<usize>> = vars.iter().map(|v| self.col(v)).collect();
        SolutionSet {
            vars: vars.to_vec(),
            rows: self.rows.project(&cols),
        }
    }

    /// [`project`](Self::project) for an owner: a projection onto the schema
    /// itself returns `self` untouched.
    pub fn into_projected(self, vars: &[String]) -> SolutionSet {
        if self.vars == vars {
            return self;
        }
        self.project(vars)
    }

    /// Removes duplicate rows, preserving first-seen order.
    pub fn dedup(&mut self) {
        self.rows.dedup();
    }

    /// Truncates to at most `n` rows.
    pub fn truncate(&mut self, n: usize) {
        self.rows.truncate(n);
    }

    /// The distinct binding tuples over the given columns, in first-seen
    /// order: `vars.len()` cells each. Used by bound joins to build `VALUES`
    /// blocks. Panics on a variable absent from the schema — the tuples
    /// would not have the arity of `vars`.
    pub fn distinct_tuples(&self, vars: &[String]) -> Rows {
        for v in vars {
            assert!(self.col(v).is_some(), "distinct_tuples: no column ?{v}");
        }
        let mut tuples = self.project(vars).rows;
        tuples.dedup();
        tuples
    }

    /// The distinct bound values of `var` across all rows.
    pub fn distinct_values(&self, var: &str) -> Vec<TermId> {
        let Some(c) = self.col(var) else {
            return Vec::new();
        };
        let mut seen = lusail_rdf::FxHashSet::default();
        let mut out = Vec::new();
        for row in self.rows.iter() {
            if let Some(id) = row[c] {
                if seen.insert(id) {
                    out.push(id);
                }
            }
        }
        out
    }

    /// Canonicalizes for multiset comparison in tests: projects columns in
    /// sorted-variable order and sorts rows. Two solution sets are
    /// SPARQL-equivalent iff their canonical forms are equal.
    pub fn canonicalize(&self) -> SolutionSet {
        let mut vars = self.vars.clone();
        vars.sort();
        let mut out = self.project(&vars);
        out.rows.sort();
        out
    }

    /// Estimates the wire size of this solution set in bytes (used by the
    /// simulated network layer): see [`SolutionSet::wire_bytes_of`].
    pub fn wire_bytes(&self) -> u64 {
        Self::wire_bytes_of(&self.vars, self.rows.len() as u64)
    }

    /// The wire size of `rows` rows over `vars`: 8 bytes per cell plus a
    /// header of each variable's name and a separator. A planner that
    /// knows a row count prices an answer it has not fetched by it.
    pub fn wire_bytes_of(vars: &[String], rows: u64) -> u64 {
        let header: u64 = vars.iter().map(|v| v.len() as u64 + 1).sum();
        header + rows * (vars.len() as u64) * 8
    }

    /// Hash-joins two solution sets on their shared variables. Rows join if
    /// all shared variables that are bound on both sides agree; the SPARQL
    /// compatibility rule (unbound matches anything) applies. With no
    /// shared variable this is the cross product.
    pub fn hash_join(&self, other: &SolutionSet) -> SolutionSet {
        self.join(other, JoinKind::Inner, None)
    }

    /// Left-joins `other` into `self` (OPTIONAL semantics): rows that find
    /// no compatible partner keep their bindings with the right-hand columns
    /// unbound.
    pub fn left_join(&self, other: &SolutionSet) -> SolutionSet {
        self.join(other, JoinKind::Left, None)
    }

    /// Anti-join: keeps rows of `self` with **no** compatible partner in
    /// `other` (the semantics of `FILTER NOT EXISTS` joined on shared
    /// vars; with none shared, `self` survives only if `other` is empty).
    pub fn anti_join(&self, other: &SolutionSet) -> SolutionSet {
        self.join(other, JoinKind::Anti, None)
    }

    /// The join kernel — the only build/probe loop in the workspace. A left
    /// row (`self`) and a right row (`other`) *pair* when every shared
    /// variable bound on both sides agrees (`compatible`) and, if `accept`
    /// is given, the merged row satisfies it; `kind` says what the pairs
    /// become. The merged schema is `self`'s columns followed by `other`'s
    /// new ones, a shared cell taking whichever side is bound.
    ///
    /// One side is hashed on the shared variables — the smaller one for a
    /// keyed `Inner` join, `other` otherwise — and the rows of the opposite
    /// side probe it. The table maps the hash of a row's key cells to the
    /// first build row carrying it and chains on to the later ones by row
    /// index; a candidate is confirmed by comparing key cells, so neither
    /// side ever builds a key. With no shared variable every build row is
    /// in the one chain of the empty key, which makes the join the cross
    /// product.
    ///
    /// Merged rows are written at the tail of the one output buffer and cut
    /// off again when `accept` rejects them.
    ///
    /// **Order.** Output follows probe-row order. Within one probe row,
    /// partners come as: the hash chain in build order, then the *loose*
    /// build rows (those with an unbound key cell) in build order; a probe
    /// row with an unbound key cell of its own scans the whole build side
    /// in order. A `Left`/`Anti` row without a partner is emitted at its
    /// probe position.
    pub fn join(
        &self,
        other: &SolutionSet,
        kind: JoinKind,
        accept: Option<JoinPredicate>,
    ) -> SolutionSet {
        // Output column sources, computed once: the (left, right) columns of
        // every shared variable, and the right columns that extend a left
        // row into the merged row.
        let shared: Vec<(usize, usize)> = (self.vars.iter().enumerate())
            .filter_map(|(l, v)| other.col(v).map(|r| (l, r)))
            .collect();
        let extra: Vec<usize> = (0..other.vars.len())
            .filter(|&r| self.col(&other.vars[r]).is_none())
            .collect();
        let mut vars: Vec<String> = (self.vars.iter())
            .chain(extra.iter().map(|&r| &other.vars[r]))
            .cloned()
            .collect();
        let build_is_left =
            kind == JoinKind::Inner && !shared.is_empty() && self.len() <= other.len();
        let (build, probe) = if build_is_left {
            (self, other)
        } else {
            (other, self)
        };
        let (build_cols, probe_cols): (Vec<usize>, Vec<usize>) = shared
            .iter()
            .map(|&(l, r)| if build_is_left { (l, r) } else { (r, l) })
            .unzip();
        // Inserting back to front leaves every chain in build order.
        let mut heads: FxHashMap<u64, usize> =
            FxHashMap::with_capacity_and_hasher(build.len(), Default::default());
        let mut next: Vec<usize> = vec![NO_ROW; build.len()];
        let mut loose: Vec<usize> = Vec::new();
        for (i, row) in build.rows.iter().enumerate().rev() {
            match key_hash(row, &build_cols) {
                Some(key) => next[i] = heads.insert(key, i).unwrap_or(NO_ROW),
                None => loose.push(i),
            }
        }
        loose.reverse();

        // An anti-join keeps the left schema; the others emit merged rows.
        let out_width = match kind {
            JoinKind::Anti => self.vars.len(),
            _ => vars.len(),
        };
        let mut cells: Vec<Option<TermId>> = Vec::new();
        let mut len = 0;
        for prow in probe.rows.iter() {
            // Candidate partners, each checked cell by cell: the hash chain
            // and the loose build rows, or the whole build side when `prow`
            // has an unbound key cell itself.
            let (first, loose, scan) = match key_hash(prow, &probe_cols) {
                Some(key) => (heads.get(&key).copied(), &loose[..], 0..0),
                None => (None, &[][..], 0..build.len()),
            };
            let chain = std::iter::successors(first, |&bi| Some(next[bi]).filter(|&n| n != NO_ROW));
            let mut paired = false;
            for bi in chain.chain(loose.iter().copied()).chain(scan) {
                let brow = &build.rows[bi];
                if !compatible(brow, &build_cols, prow, &probe_cols) {
                    continue;
                }
                if kind != JoinKind::Anti || accept.is_some() {
                    let (lrow, rrow) = if build_is_left {
                        (brow, prow)
                    } else {
                        (prow, brow)
                    };
                    let at = cells.len();
                    cells.extend_from_slice(lrow);
                    cells.extend(extra.iter().map(|&r| rrow[r]));
                    for &(l, r) in &shared {
                        if cells[at + l].is_none() {
                            cells[at + l] = rrow[r];
                        }
                    }
                    let accepted = accept.is_none_or(|accept| accept(&vars, &cells[at..]));
                    if accepted && kind != JoinKind::Anti {
                        len += 1;
                    } else {
                        cells.truncate(at);
                    }
                    if !accepted {
                        continue;
                    }
                }
                paired = true;
                if kind == JoinKind::Anti {
                    break; // NOT EXISTS is settled by one partner
                }
            }
            if !paired && kind != JoinKind::Inner {
                let at = cells.len();
                cells.extend_from_slice(prow);
                cells.resize(at + out_width, None);
                len += 1;
            }
        }
        vars.truncate(out_width);
        SolutionSet {
            vars,
            rows: Rows::from_cells(out_width, len, cells),
        }
    }
}

/// What the pairs found by [`SolutionSet::join`] become.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// One merged row per pair.
    Inner,
    /// `Inner`, plus every left row without a partner, its right-hand
    /// columns unbound (`OPTIONAL`).
    Left,
    /// Only the left rows without a partner, unmerged (`FILTER NOT EXISTS`).
    Anti,
}

/// An extra pairing condition for [`SolutionSet::join`], called with the
/// merged schema and a merged candidate row. This is how the store's
/// evaluator passes correlated `FILTER`s into the join without this crate
/// knowing how expressions are evaluated.
pub type JoinPredicate<'a> = &'a dyn Fn(&[String], &[Option<TermId>]) -> bool;

/// The hash of a row's key cells: `None` when any of them is unbound (such
/// rows cannot be hashed and meet every candidate through [`compatible`]).
fn key_hash(row: &[Option<TermId>], cols: &[usize]) -> Option<u64> {
    let mut h = FxHasher::default();
    for &c in cols {
        h.write_u32(row[c]?.0);
    }
    Some(h.finish())
}

/// SPARQL compatibility on the given key columns: every position where both
/// rows are bound must agree.
fn compatible(
    a: &[Option<TermId>],
    a_cols: &[usize],
    b: &[Option<TermId>],
    b_cols: &[usize],
) -> bool {
    a_cols
        .iter()
        .zip(b_cols)
        .all(|(&ca, &cb)| match (a[ca], b[cb]) {
            (Some(x), Some(y)) => x == y,
            _ => true,
        })
}

#[cfg(test)]
mod reference_tests;

#[cfg(test)]
mod tests {
    use super::*;

    type Row = Vec<Option<TermId>>;

    fn id(n: u32) -> Option<TermId> {
        Some(TermId(n))
    }

    fn set(vars: &[&str], rows: Vec<Row>) -> SolutionSet {
        SolutionSet {
            vars: vars.iter().map(|s| s.to_string()).collect(),
            rows: rows.into_iter().collect(),
        }
    }

    fn owned(rows: &Rows) -> Vec<Row> {
        rows.iter().map(<[_]>::to_vec).collect()
    }

    #[test]
    fn hash_join_on_shared_var() {
        let a = set(&["x", "y"], vec![vec![id(1), id(10)], vec![id(2), id(20)]]);
        let b = set(
            &["y", "z"],
            vec![vec![id(10), id(100)], vec![id(10), id(101)]],
        );
        let j = a.hash_join(&b);
        assert_eq!(j.vars, ["x", "y", "z"]);
        let mut rows = owned(&j.rows);
        rows.sort();
        assert_eq!(
            rows,
            vec![vec![id(1), id(10), id(100)], vec![id(1), id(10), id(101)]]
        );
    }

    #[test]
    fn hash_join_no_shared_is_cross() {
        let a = set(&["x"], vec![vec![id(1)], vec![id(2)]]);
        let b = set(&["y"], vec![vec![id(3)]]);
        let j = a.hash_join(&b);
        assert_eq!(j.rows.len(), 2);
    }

    #[test]
    fn hash_join_with_unbound_is_compatible() {
        let a = set(&["x", "y"], vec![vec![id(1), None]]);
        let b = set(&["y", "z"], vec![vec![id(10), id(100)]]);
        let j = a.hash_join(&b);
        assert_eq!(owned(&j.rows), vec![vec![id(1), id(10), id(100)]]);
    }

    #[test]
    fn left_join_keeps_unmatched() {
        let a = set(&["x"], vec![vec![id(1)], vec![id(2)]]);
        let b = set(&["x", "n"], vec![vec![id(1), id(9)]]);
        let j = a.left_join(&b);
        let mut rows = owned(&j.rows);
        rows.sort();
        assert_eq!(rows, vec![vec![id(1), id(9)], vec![id(2), None]]);
    }

    #[test]
    fn anti_join_filters_matches() {
        let a = set(&["x"], vec![vec![id(1)], vec![id(2)]]);
        let b = set(&["x"], vec![vec![id(1)]]);
        let j = a.anti_join(&b);
        assert_eq!(owned(&j.rows), vec![vec![id(2)]]);
    }

    #[test]
    fn anti_join_disjoint_vars() {
        let a = set(&["x"], vec![vec![id(1)]]);
        let empty = set(&["z"], vec![]);
        let nonempty = set(&["z"], vec![vec![id(5)]]);
        assert_eq!(a.anti_join(&empty).rows.len(), 1);
        assert_eq!(a.anti_join(&nonempty).rows.len(), 0);
    }

    #[test]
    fn append_aligns_columns() {
        let mut a = set(&["x", "y"], vec![vec![id(1), id(2)]]);
        let b = set(&["y", "z"], vec![vec![id(3), id(4)]]);
        a.append(b);
        assert_eq!(a.vars, ["x", "y", "z"]);
        assert_eq!(a.rows[0], [id(1), id(2), None]);
        assert_eq!(a.rows[1], [None, id(3), id(4)]);
    }

    #[test]
    fn project_and_dedup() {
        let s = set(
            &["x", "y"],
            vec![vec![id(1), id(2)], vec![id(1), id(3)], vec![id(1), id(2)]],
        );
        let mut p = s.project(&["x".to_string()]);
        assert_eq!(p.rows.len(), 3);
        p.dedup();
        assert_eq!(owned(&p.rows), vec![vec![id(1)]]);
    }

    #[test]
    fn into_projected_equals_project() {
        let s = set(
            &["x", "y", "z"],
            vec![vec![id(1), id(2), None], vec![id(4), None, id(6)]],
        );
        let schemas: [&[&str]; 5] = [
            &["x", "y", "z"],               // identity
            &["z", "x", "y"],               // permuted
            &["y"],                         // narrowed
            &["y", "ghost", "x", "z", "y"], // widened: absent and repeated vars
            &[],                            // zero-width rows keep their count
        ];
        for schema in schemas {
            let vars: Vec<String> = schema.iter().map(|v| v.to_string()).collect();
            let projected = s.clone().into_projected(&vars);
            assert_eq!(projected, s.project(&vars), "{schema:?}");
            assert_eq!(projected.len(), 2, "{schema:?}");
        }
        // The identity projection hands the buffer back unmoved.
        let kept = s.rows[0].as_ptr();
        let vars = s.vars.clone();
        assert_eq!(s.into_projected(&vars).rows[0].as_ptr(), kept);
    }

    #[test]
    fn distinct_values_skips_unbound() {
        let s = set(
            &["x"],
            vec![vec![id(1)], vec![None], vec![id(1)], vec![id(2)]],
        );
        assert_eq!(s.distinct_values("x"), vec![TermId(1), TermId(2)]);
    }

    #[test]
    fn distinct_tuples_have_the_arity_of_their_vars() {
        let s = set(
            &["x", "y", "z"],
            vec![
                vec![id(1), id(2), id(3)],
                vec![id(1), id(9), id(3)],
                vec![None, id(2), id(3)],
            ],
        );
        let vars = ["z".to_string(), "x".to_string()];
        let tuples = s.distinct_tuples(&vars);
        assert_eq!(owned(&tuples), vec![vec![id(3), id(1)], vec![id(3), None]]);
        // No variables: every row is the same empty tuple.
        assert_eq!(s.distinct_tuples(&[]), Rows::unit());
    }

    #[test]
    #[should_panic(expected = "no column ?ghost")]
    fn distinct_tuples_rejects_a_variable_outside_the_schema() {
        let s = set(&["x"], vec![vec![id(1)]]);
        s.distinct_tuples(&["x".to_string(), "ghost".to_string()]);
    }

    #[test]
    fn canonicalize_is_order_insensitive() {
        let a = set(&["x", "y"], vec![vec![id(1), id(2)], vec![id(3), id(4)]]);
        let b = set(&["y", "x"], vec![vec![id(4), id(3)], vec![id(2), id(1)]]);
        assert_eq!(a.canonicalize(), b.canonicalize());
    }

    /// Zero-width rows: the unit relation is the identity of the join and
    /// an empty one annihilates it; counts survive every operation.
    #[test]
    fn zero_width_rows_keep_their_count() {
        let unit = SolutionSet::unit();
        assert_eq!(unit.len(), 1);
        assert_eq!(unit.wire_bytes(), 0);
        let a = set(&["x"], vec![vec![id(1)], vec![id(2)]]);
        assert_eq!(unit.hash_join(&a), a);
        assert_eq!(a.hash_join(&unit), a);
        assert_eq!(unit.hash_join(&unit), unit);
        assert_eq!(unit.left_join(&unit), unit);
        assert!(unit.anti_join(&unit).is_empty());
        assert_eq!(unit.anti_join(&SolutionSet::default()), unit);
        assert!(a.hash_join(&SolutionSet::default()).is_empty());

        // Three empty solutions: appended, deduplicated, truncated.
        let mut three = unit.clone();
        three.append(unit.clone());
        three.append(unit.clone());
        assert_eq!(three.len(), 3);
        assert_eq!(three.hash_join(&a).len(), 6);
        assert_eq!(three.canonicalize().len(), 3);
        three.truncate(2);
        assert_eq!(three.len(), 2);
        three.dedup();
        assert_eq!(three, unit);
    }

    /// `SolutionSet { vars, rows: <empty iterator>.collect() }` — the shape
    /// literals produce — behaves as the empty relation over `vars`.
    #[test]
    fn empty_rows_fit_under_any_schema() {
        let empty = set(&["x", "y"], vec![]);
        assert_eq!(empty, SolutionSet::empty(empty.vars.clone()));
        let a = set(&["y", "z"], vec![vec![id(1), id(2)]]);
        assert!(empty.hash_join(&a).is_empty());
        assert_eq!(empty.hash_join(&a).vars, ["x", "y", "z"]);
        assert_eq!(
            owned(&a.left_join(&empty).rows),
            vec![vec![id(1), id(2), None]]
        );
        let mut grown = empty.clone();
        grown.append(a.clone());
        assert_eq!(owned(&grown.rows), vec![vec![None, id(1), id(2)]]);
        let mut same = set(&["y", "z"], vec![]);
        same.append(a.clone());
        assert_eq!(same, a);
        assert_eq!(empty.canonicalize().vars, ["x", "y"]);
        assert_eq!(empty.wire_bytes(), 4);
    }
}
