//! Solution sets: the tabular results exchanged between endpoints and
//! federated engines.

use lusail_rdf::{FxHashMap, TermId};

/// One solution row; column order follows [`SolutionSet::vars`]. `None`
/// means the variable is unbound in this solution (e.g. OPTIONAL misses).
pub type Row = Vec<Option<TermId>>;

/// A set of solutions over a fixed variable schema.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolutionSet {
    /// Column names (variable names without `?`), in column order.
    pub vars: Vec<String>,
    /// The solution rows.
    pub rows: Vec<Row>,
}

impl SolutionSet {
    /// An empty solution set over the given variables.
    pub fn empty(vars: Vec<String>) -> Self {
        SolutionSet {
            vars,
            rows: Vec::new(),
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
            self.rows.extend(other.rows);
            return;
        }
        // Add any new columns.
        for v in &other.vars {
            if self.col(v).is_none() {
                self.vars.push(v.clone());
                for row in &mut self.rows {
                    row.push(None);
                }
            }
        }
        let mapping: Vec<usize> = other
            .vars
            .iter()
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

    /// Projects onto the given variables (in the given order). Variables
    /// absent from the schema yield all-unbound columns, matching SPARQL's
    /// treatment of projecting an unbound variable.
    pub fn project(&self, vars: &[String]) -> SolutionSet {
        let cols: Vec<Option<usize>> = vars.iter().map(|v| self.col(v)).collect();
        let rows = self
            .rows
            .iter()
            .map(|row| cols.iter().map(|c| c.and_then(|c| row[c])).collect())
            .collect();
        SolutionSet {
            vars: vars.to_vec(),
            rows,
        }
    }

    /// [`project`](Self::project) for an owner: the same result, reusing
    /// every row's allocation. A projection onto the schema itself returns
    /// `self` untouched.
    pub fn into_projected(mut self, vars: &[String]) -> SolutionSet {
        if self.vars == vars {
            return self;
        }
        let cols: Vec<Option<usize>> = vars.iter().map(|v| self.col(v)).collect();
        let mut scratch: Row = Vec::with_capacity(cols.len());
        for row in &mut self.rows {
            scratch.clear();
            scratch.extend(cols.iter().map(|c| c.and_then(|c| row[c])));
            row.clear();
            row.extend_from_slice(&scratch);
        }
        self.vars = vars.to_vec();
        self
    }

    /// Removes duplicate rows, preserving first-seen order.
    pub fn dedup(&mut self) {
        let mut seen = lusail_rdf::FxHashSet::default();
        self.rows.retain(|row| seen.insert(row.clone()));
    }

    /// Truncates to at most `n` rows.
    pub fn truncate(&mut self, n: usize) {
        self.rows.truncate(n);
    }

    /// The distinct binding tuples over the given (present) columns, in
    /// first-seen order. Used by bound joins to build `VALUES` blocks.
    pub fn distinct_tuples(&self, vars: &[String]) -> Vec<Row> {
        let cols: Vec<usize> = vars.iter().filter_map(|v| self.col(v)).collect();
        let mut seen = lusail_rdf::FxHashSet::default();
        let mut out = Vec::new();
        for row in &self.rows {
            let tuple: Row = cols.iter().map(|&c| row[c]).collect();
            if seen.insert(tuple.clone()) {
                out.push(tuple);
            }
        }
        out
    }

    /// The distinct bound values of `var` across all rows.
    pub fn distinct_values(&self, var: &str) -> Vec<TermId> {
        let Some(c) = self.col(var) else {
            return Vec::new();
        };
        let mut seen = lusail_rdf::FxHashSet::default();
        let mut out = Vec::new();
        for row in &self.rows {
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
    /// simulated network layer): 8 bytes per cell plus schema overhead.
    pub fn wire_bytes(&self) -> u64 {
        let header: u64 = self.vars.iter().map(|v| v.len() as u64 + 1).sum();
        header + (self.rows.len() as u64) * (self.vars.len() as u64) * 8
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
    /// variable bound on both sides agrees ([`compatible`]) and, if `accept`
    /// is given, the merged row satisfies it; `kind` says what the pairs
    /// become. The merged schema is `self`'s columns followed by `other`'s
    /// new ones, a shared cell taking whichever side is bound.
    ///
    /// One side is hashed on the shared variables — the smaller one for a
    /// keyed `Inner` join, `other` otherwise — and the rows of the opposite
    /// side probe it. The key is a raw `TermId` for one shared variable (no
    /// per-row allocation) and a `Vec<TermId>` otherwise; with no shared
    /// variable every build row lands in the one empty-key bucket, which
    /// makes the join the cross product.
    ///
    /// **Order.** Output follows probe-row order. Within one probe row,
    /// partners come as: the hash bucket in build order, then the *loose*
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
        // The (left, right) columns of every shared variable.
        let shared: Vec<(usize, usize)> = (self.vars.iter().enumerate())
            .filter_map(|(l, v)| other.col(v).map(|r| (l, r)))
            .collect();
        if shared.len() == 1 {
            self.join_keyed::<TermId>(other, kind, accept, &shared)
        } else {
            self.join_keyed::<Vec<TermId>>(other, kind, accept, &shared)
        }
    }

    fn join_keyed<K: JoinKey>(
        &self,
        other: &SolutionSet,
        kind: JoinKind,
        accept: Option<JoinPredicate>,
        shared: &[(usize, usize)],
    ) -> SolutionSet {
        // Output column sources, computed once: `shared`, and the right
        // columns that extend a left row into the merged row.
        let extra: Vec<usize> = (0..other.vars.len())
            .filter(|&r| self.col(&other.vars[r]).is_none())
            .collect();
        let merged_vars: Vec<String> = (self.vars.iter())
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
        // The hash table maps a key to the first build row carrying it and
        // `next` chains on to the later ones: no allocation per key.
        // Inserting back to front leaves every chain in build order.
        let mut table: FxHashMap<K, usize> = FxHashMap::default();
        let mut next: Vec<Option<usize>> = vec![None; build.rows.len()];
        let mut loose: Vec<usize> = Vec::new();
        for (i, row) in build.rows.iter().enumerate().rev() {
            match K::of(row, &build_cols) {
                Some(key) => next[i] = table.insert(key, i),
                None => loose.push(i),
            }
        }
        loose.reverse();

        // An anti-join keeps the left schema; the others emit merged rows.
        let out_width = match kind {
            JoinKind::Anti => self.vars.len(),
            _ => merged_vars.len(),
        };
        let merge = |lrow: &Row, rrow: &Row| -> Row {
            let mut row = Vec::with_capacity(merged_vars.len());
            row.extend_from_slice(lrow);
            row.extend(extra.iter().map(|&r| rrow[r]));
            for &(l, r) in shared {
                if row[l].is_none() {
                    row[l] = rrow[r];
                }
            }
            row
        };
        let mut rows: Vec<Row> = Vec::new();
        for prow in &probe.rows {
            // Candidate partners: the hash bucket (compatible by
            // construction), then the rows to check cell by cell — the
            // loose build rows, or the whole build side when `prow` has an
            // unbound key cell itself.
            let (first, loose, scan) = match K::of(prow, &probe_cols) {
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
                    break; // NOT EXISTS is settled by one partner
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
        SolutionSet { vars, rows }
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

/// A hashable join key over a row's key columns: `None` when any key cell
/// is unbound (such rows cannot be hashed and go through [`compatible`]).
trait JoinKey: std::hash::Hash + Eq + Sized {
    fn of(row: &Row, cols: &[usize]) -> Option<Self>;
}

impl JoinKey for TermId {
    fn of(row: &Row, cols: &[usize]) -> Option<Self> {
        row[cols[0]]
    }
}

impl JoinKey for Vec<TermId> {
    fn of(row: &Row, cols: &[usize]) -> Option<Self> {
        cols.iter().map(|&c| row[c]).collect()
    }
}

/// SPARQL compatibility on the given key columns: every position where both
/// rows are bound must agree.
fn compatible(a: &Row, a_cols: &[usize], b: &Row, b_cols: &[usize]) -> bool {
    a_cols
        .iter()
        .zip(b_cols)
        .all(|(&ca, &cb)| match (a[ca], b[cb]) {
            (Some(x), Some(y)) => x == y,
            _ => true,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> Option<TermId> {
        Some(TermId(n))
    }

    fn set(vars: &[&str], rows: Vec<Vec<Option<TermId>>>) -> SolutionSet {
        SolutionSet {
            vars: vars.iter().map(|s| s.to_string()).collect(),
            rows,
        }
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
        let mut rows = j.rows.clone();
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
        assert_eq!(j.rows, vec![vec![id(1), id(10), id(100)]]);
    }

    #[test]
    fn left_join_keeps_unmatched() {
        let a = set(&["x"], vec![vec![id(1)], vec![id(2)]]);
        let b = set(&["x", "n"], vec![vec![id(1), id(9)]]);
        let j = a.left_join(&b);
        let mut rows = j.rows.clone();
        rows.sort();
        assert_eq!(rows, vec![vec![id(1), id(9)], vec![id(2), None]]);
    }

    #[test]
    fn anti_join_filters_matches() {
        let a = set(&["x"], vec![vec![id(1)], vec![id(2)]]);
        let b = set(&["x"], vec![vec![id(1)]]);
        let j = a.anti_join(&b);
        assert_eq!(j.rows, vec![vec![id(2)]]);
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
        assert_eq!(a.rows[0], vec![id(1), id(2), None]);
        assert_eq!(a.rows[1], vec![None, id(3), id(4)]);
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
        assert_eq!(p.rows, vec![vec![id(1)]]);
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
            &[],
        ];
        for schema in schemas {
            let vars: Vec<String> = schema.iter().map(|v| v.to_string()).collect();
            assert_eq!(
                s.clone().into_projected(&vars),
                s.project(&vars),
                "{schema:?}"
            );
        }
        // The identity projection hands the rows back unmoved.
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
    fn canonicalize_is_order_insensitive() {
        let a = set(&["x", "y"], vec![vec![id(1), id(2)], vec![id(3), id(4)]]);
        let b = set(&["y", "x"], vec![vec![id(4), id(3)], vec![id(2), id(1)]]);
        assert_eq!(a.canonicalize(), b.canonicalize());
    }
}
