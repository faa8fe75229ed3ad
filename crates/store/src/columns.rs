//! The compressed sorted-column backend: CSR-style SPO columns plus
//! POS/OSP permutation indexes, all bit-packed.
//!
//! [`ColumnStore`] is built once from a populated [`TripleStore`] and is
//! immutable afterwards. Layout, in the spirit of HDT's bitmap-triples
//! representation:
//!
//! * **SPO as CSR**: a sorted, deduplicated column of distinct subjects
//!   plus an offsets column delimiting each subject's run of `(p, o)`
//!   rows; the per-row predicate and object columns are sorted within
//!   each subject run. A triple's *row index* is its rank in this order,
//!   and a per-row column of subject ranks inverts the offsets, so a row
//!   reached through a permutation finds its subject in constant time.
//! * **Subject directory**: a bitmap over the 64-id words the subject ids
//!   span, one bit per id, plus the running popcount before each word. A
//!   subject's rank — and so its run — is one add and one popcount, not a
//!   search: every `(s, ·, ·)` probe a bound subquery's `VALUES` seeds
//!   starts here.
//! * **POS / OSP as permutations**: row indexes sorted by `(p, o, s)` and
//!   `(o, s, p)` respectively, each fronted by a packed key directory
//!   (distinct predicates / objects with run offsets). The directory run
//!   lengths *are* the per-predicate histogram — exact `(?, p, ?)`
//!   estimates fall out of construction for free.
//!
//! Every other column lives in a [`PackedVec`]: fixed-width bit-packed
//! `u32` values, width chosen per column as the bit-length of its maximum.
//! On the 1 M-triple LUBM store `lusail-bench counters` builds for its
//! footprint floor this measures 12.9 bytes per triple (2.2 of them the
//! subject ranks, 0.09 the subject directory), versus 75.5 for the
//! three-B-tree layout.
//!
//! One private `run` decides every pattern's access path: the index
//! (SPO rows, `pos_perm` or `osp_perm`) and the exact `[lo, hi)` run of
//! it that holds the matches — subject-led patterns by rank, the rest by
//! binary search over the predicate and object key directories. Scans
//! walk that run in the same index order as the BTree backend (SPO for
//! subject-led, `(p,o,s)` for predicate-led, `(o,s,p)` for object-led),
//! so the two backends are observationally identical — `rows_scanned`
//! included. Estimates are the run's length and are therefore **exact**
//! for every pattern shape, which is where the columnar backend feeds the
//! join orderer better information than the BTree backend's capped walks.

use crate::backend::StorageBackend;
use crate::store::TripleStore;
use lusail_rdf::{Dictionary, TermId, Triple};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fixed-width bit-packed vector of `u32` values. The width is the
/// bit-length of the largest stored value (minimum 1), so a column of
/// small ids costs a fraction of a `Vec<u32>`.
pub struct PackedVec {
    words: Vec<u64>,
    bits: u32,
    len: usize,
}

impl PackedVec {
    /// Packs a slice of values at the minimal fixed width.
    pub fn build(values: &[u32]) -> PackedVec {
        let max = values.iter().copied().max().unwrap_or(0);
        let bits = (32 - max.leading_zeros()).max(1);
        let total_bits = values.len() as u64 * u64::from(bits);
        let words = vec![0u64; total_bits.div_ceil(64) as usize];
        let mut pv = PackedVec {
            words,
            bits,
            len: values.len(),
        };
        for (i, &v) in values.iter().enumerate() {
            pv.set(i, v);
        }
        pv
    }

    fn set(&mut self, i: usize, v: u32) {
        let off = i as u64 * u64::from(self.bits);
        let (w, sh) = ((off / 64) as usize, (off % 64) as u32);
        self.words[w] |= u64::from(v) << sh;
        if sh + self.bits > 64 {
            self.words[w + 1] |= u64::from(v) >> (64 - sh);
        }
    }

    /// The value at index `i`.
    pub fn get(&self, i: usize) -> u32 {
        debug_assert!(i < self.len);
        let off = i as u64 * u64::from(self.bits);
        let (w, sh) = ((off / 64) as usize, (off % 64) as u32);
        let mut v = self.words[w] >> sh;
        if sh + self.bits > 64 {
            v |= self.words[w + 1] << (64 - sh);
        }
        (v & ((1u64 << self.bits) - 1)) as u32
    }

    /// Number of packed values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Heap bytes held by the word buffer.
    pub(crate) fn heap_bytes(&self) -> u64 {
        self.words.len() as u64 * 8
    }
}

/// Binary search: the first index in `[lo, hi)` where `pred` is false
/// (i.e. `pred` must be monotone true-then-false over the range).
fn partition_point(lo: usize, hi: usize, mut pred: impl FnMut(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (lo, hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The immutable bit-packed sorted-column backend. See the module docs
/// for the layout; see [`StorageBackend`] for the behavioral contract it
/// shares with [`TripleStore`].
pub struct ColumnStore {
    dict: Arc<Dictionary>,
    n: usize,
    /// Distinct subjects, ascending: rank → id, for `subject_of_row`. The
    /// lookup id → rank is the subject directory.
    subjects: PackedVec,
    /// Subject directory: bit `s % 64` of word `s / 64 - subject_word0` is
    /// set iff `s` is a subject, over the words its ids span.
    subject_bits: Vec<u64>,
    /// Per directory word, the set bits in the words before it, so a
    /// subject's rank is one add and one popcount.
    subject_prefix: Vec<u32>,
    /// The directory's first word, `subjects[0] / 64`.
    subject_word0: u32,
    /// `subjects.len() + 1` row offsets delimiting each subject's run.
    s_offsets: PackedVec,
    /// Per-row rank of the row's subject in `subjects` — the inverse of
    /// `s_offsets`, so a scan with a free subject maps a row back to it
    /// with two packed reads instead of a binary search.
    row_ranks: PackedVec,
    /// Per-row predicate, grouped by subject, sorted by `(p, o)` within
    /// each run.
    preds: PackedVec,
    /// Per-row object.
    objs: PackedVec,
    /// SPO row indexes sorted by `(p, o, s)`.
    pos_perm: PackedVec,
    /// Distinct predicates, ascending.
    pred_keys: PackedVec,
    /// `pred_keys.len() + 1` offsets into `pos_perm`.
    p_offsets: PackedVec,
    /// SPO row indexes sorted by `(o, s, p)`.
    osp_perm: PackedVec,
    /// Distinct objects, ascending.
    obj_keys: PackedVec,
    /// `obj_keys.len() + 1` offsets into `osp_perm`.
    o_offsets: PackedVec,
    rows_scanned: AtomicU64,
}

impl ColumnStore {
    /// Builds the columnar layout from a populated [`TripleStore`]
    /// (already sorted and deduplicated by its SPO index).
    pub fn from_store(store: &TripleStore) -> ColumnStore {
        let mut rows = Vec::with_capacity(store.len());
        for (s, p, o) in store.triples_spo() {
            rows.push((s.0, p.0, o.0));
        }
        Self::from_rows(Arc::clone(store.dict()), rows)
    }

    fn from_rows(dict: Arc<Dictionary>, rows: Vec<(u32, u32, u32)>) -> ColumnStore {
        let n = rows.len();

        let mut subjects = Vec::new();
        let mut s_offsets = Vec::new();
        let mut row_ranks = Vec::with_capacity(n);
        for (i, &(s, _, _)) in rows.iter().enumerate() {
            if subjects.last() != Some(&s) {
                subjects.push(s);
                s_offsets.push(i as u32);
            }
            row_ranks.push(subjects.len() as u32 - 1);
        }
        s_offsets.push(n as u32);

        let subject_word0 = subjects.first().map_or(0, |&s| s / 64);
        let words = subjects
            .last()
            .map_or(0, |&s| (s / 64 - subject_word0) as usize + 1);
        let mut subject_bits = vec![0u64; words];
        for &s in &subjects {
            subject_bits[(s / 64 - subject_word0) as usize] |= 1 << (s % 64);
        }
        let subject_prefix = subject_bits
            .iter()
            .scan(0u32, |rank, w| {
                let before = *rank;
                *rank += w.count_ones();
                Some(before)
            })
            .collect();

        let preds: Vec<u32> = rows.iter().map(|r| r.1).collect();
        let objs: Vec<u32> = rows.iter().map(|r| r.2).collect();

        let mut pos_perm: Vec<u32> = (0..n as u32).collect();
        pos_perm.sort_unstable_by_key(|&i| {
            let (s, p, o) = rows[i as usize];
            (p, o, s)
        });
        let mut pred_keys = Vec::new();
        let mut p_offsets = Vec::new();
        for (j, &row) in pos_perm.iter().enumerate() {
            let p = rows[row as usize].1;
            if pred_keys.last() != Some(&p) {
                pred_keys.push(p);
                p_offsets.push(j as u32);
            }
        }
        p_offsets.push(n as u32);

        let mut osp_perm: Vec<u32> = (0..n as u32).collect();
        osp_perm.sort_unstable_by_key(|&i| {
            let (s, p, o) = rows[i as usize];
            (o, s, p)
        });
        let mut obj_keys = Vec::new();
        let mut o_offsets = Vec::new();
        for (j, &row) in osp_perm.iter().enumerate() {
            let o = rows[row as usize].2;
            if obj_keys.last() != Some(&o) {
                obj_keys.push(o);
                o_offsets.push(j as u32);
            }
        }
        o_offsets.push(n as u32);
        drop(rows);

        ColumnStore {
            dict,
            n,
            subjects: PackedVec::build(&subjects),
            subject_bits,
            subject_prefix,
            subject_word0,
            s_offsets: PackedVec::build(&s_offsets),
            row_ranks: PackedVec::build(&row_ranks),
            preds: PackedVec::build(&preds),
            objs: PackedVec::build(&objs),
            pos_perm: PackedVec::build(&pos_perm),
            pred_keys: PackedVec::build(&pred_keys),
            p_offsets: PackedVec::build(&p_offsets),
            osp_perm: PackedVec::build(&osp_perm),
            obj_keys: PackedVec::build(&obj_keys),
            o_offsets: PackedVec::build(&o_offsets),
            rows_scanned: AtomicU64::new(0),
        }
    }

    /// The subject id owning SPO row `row`.
    fn subject_of_row(&self, row: usize) -> u32 {
        self.subjects.get(self.row_ranks.get(row) as usize)
    }

    /// The `[start, end)` SPO row run for subject `s`, if present: its
    /// rank is a directory lookup, not a search.
    fn subject_run(&self, s: u32) -> Option<(usize, usize)> {
        let w = (s / 64).checked_sub(self.subject_word0)? as usize;
        let word = *self.subject_bits.get(w)?;
        let bit = 1u64 << (s % 64);
        if word & bit == 0 {
            return None;
        }
        let k = (self.subject_prefix[w] + (word & (bit - 1)).count_ones()) as usize;
        Some((
            self.s_offsets.get(k) as usize,
            self.s_offsets.get(k + 1) as usize,
        ))
    }

    /// Narrows a subject run to its predicate sub-run (rows sorted by
    /// `(p, o)` within the run).
    fn pred_subrun(&self, run: (usize, usize), p: u32) -> (usize, usize) {
        let lo = partition_point(run.0, run.1, |i| self.preds.get(i) < p);
        let hi = partition_point(lo, run.1, |i| self.preds.get(i) <= p);
        (lo, hi)
    }

    /// Narrows an `(s, p)` sub-run to its object sub-run.
    fn obj_subrun(&self, run: (usize, usize), o: u32) -> (usize, usize) {
        let lo = partition_point(run.0, run.1, |i| self.objs.get(i) < o);
        let hi = partition_point(lo, run.1, |i| self.objs.get(i) <= o);
        (lo, hi)
    }

    /// The `[start, end)` run in `pos_perm` for predicate `p`.
    fn pred_run(&self, p: u32) -> (usize, usize) {
        let np = self.pred_keys.len();
        let k = partition_point(0, np, |k| self.pred_keys.get(k) < p);
        if k < np && self.pred_keys.get(k) == p {
            (
                self.p_offsets.get(k) as usize,
                self.p_offsets.get(k + 1) as usize,
            )
        } else {
            (0, 0)
        }
    }

    /// Narrows a `pos_perm` predicate run to its object sub-run (the run
    /// is sorted by `(o, s)`).
    fn pred_obj_subrun(&self, run: (usize, usize), o: u32) -> (usize, usize) {
        let obj_at = |j: usize| self.objs.get(self.pos_perm.get(j) as usize);
        let lo = partition_point(run.0, run.1, |j| obj_at(j) < o);
        let hi = partition_point(lo, run.1, |j| obj_at(j) <= o);
        (lo, hi)
    }

    /// The `[start, end)` run in `osp_perm` for object `o`.
    fn obj_run(&self, o: u32) -> (usize, usize) {
        let no = self.obj_keys.len();
        let k = partition_point(0, no, |k| self.obj_keys.get(k) < o);
        if k < no && self.obj_keys.get(k) == o {
            (
                self.o_offsets.get(k) as usize,
                self.o_offsets.get(k + 1) as usize,
            )
        } else {
            (0, 0)
        }
    }

    /// Narrows an `osp_perm` object run to its subject sub-run (the run
    /// is sorted by `(s, p)`).
    fn obj_subj_subrun(&self, run: (usize, usize), s: u32) -> (usize, usize) {
        let subj_at = |j: usize| self.subject_of_row(self.osp_perm.get(j) as usize);
        let lo = partition_point(run.0, run.1, |j| subj_at(j) < s);
        let hi = partition_point(lo, run.1, |j| subj_at(j) <= s);
        (lo, hi)
    }

    /// The access path of a pattern: the index its matches are a run of —
    /// SPO rows (`None`), `pos_perm` or `osp_perm` — and that run. The
    /// index is chosen as the BTree backend chooses its ordering (POS when
    /// `p` is bound and `s` is not, OSP when `o` is bound and `p` is not,
    /// SPO otherwise), so both emit in the same order. Subject-led runs
    /// start at the directory rank and narrow to the predicate and object
    /// sub-runs; the rest start at a key directory.
    fn run(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> (Option<&PackedVec>, (usize, usize)) {
        match (s, p, o) {
            (None, Some(p), o) => {
                let run = self.pred_run(p.0);
                let run = o.map_or(run, |o| self.pred_obj_subrun(run, o.0));
                (Some(&self.pos_perm), run)
            }
            (s, None, Some(o)) => {
                let run = self.obj_run(o.0);
                let run = s.map_or(run, |s| self.obj_subj_subrun(run, s.0));
                (Some(&self.osp_perm), run)
            }
            (Some(s), p, o) => {
                let run = self.subject_run(s.0).unwrap_or((0, 0));
                let run = p.map_or(run, |p| self.pred_subrun(run, p.0));
                let run = o.map_or(run, |o| self.obj_subrun(run, o.0));
                (None, run)
            }
            (None, None, None) => (None, (0, self.n)),
        }
    }

    /// The triple at SPO row `row`: bound positions come from the pattern,
    /// free ones from the SPO columns. Always inlined: as a call, the scan
    /// loop passed its pattern on the stack for every row.
    #[inline(always)]
    fn triple_at(
        &self,
        row: usize,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Triple {
        Triple::new(
            s.unwrap_or_else(|| TermId(self.subject_of_row(row))),
            p.unwrap_or_else(|| TermId(self.preds.get(row))),
            o.unwrap_or_else(|| TermId(self.objs.get(row))),
        )
    }
}

impl StorageBackend for ColumnStore {
    fn dict(&self) -> &Arc<Dictionary> {
        &self.dict
    }

    fn len(&self) -> usize {
        self.n
    }

    fn scan_with(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        f: &mut dyn FnMut(Triple) -> bool,
    ) -> bool {
        let (perm, (lo, hi)) = self.run(s, p, o);
        for j in lo..hi {
            let row = perm.map_or(j, |perm| perm.get(j) as usize);
            let t = self.triple_at(row, s, p, o);
            self.rows_scanned.fetch_add(1, Ordering::Relaxed);
            if !f(t) {
                return false;
            }
        }
        true
    }

    /// Exact for every shape: each pattern maps to a run whose length the
    /// sorted layout yields by rank or binary search — no cap is needed
    /// because no walk happens.
    fn estimate(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> u64 {
        let (_, (lo, hi)) = self.run(s, p, o);
        (hi - lo) as u64
    }

    fn for_each_spo(&self, f: &mut dyn FnMut(TermId, TermId, TermId)) {
        for row in 0..self.n {
            let t = self.triple_at(row, None, None, None);
            f(t.s, t.p, t.o);
        }
    }

    fn rows_scanned(&self) -> u64 {
        self.rows_scanned.load(Ordering::Relaxed)
    }

    /// Exact: the sum of every packed column's word buffer, the subject
    /// directory, and the struct itself.
    fn resident_bytes(&self) -> u64 {
        self.subjects.heap_bytes()
            + self.subject_bits.len() as u64 * 8
            + self.subject_prefix.len() as u64 * 4
            + self.s_offsets.heap_bytes()
            + self.row_ranks.heap_bytes()
            + self.preds.heap_bytes()
            + self.objs.heap_bytes()
            + self.pos_perm.heap_bytes()
            + self.pred_keys.heap_bytes()
            + self.p_offsets.heap_bytes()
            + self.osp_perm.heap_bytes()
            + self.obj_keys.heap_bytes()
            + self.o_offsets.heap_bytes()
            + std::mem::size_of::<ColumnStore>() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_rdf::Term;

    #[test]
    fn packed_vec_round_trips_across_word_boundaries() {
        // 27-bit values force every alignment of a value against the
        // 64-bit word grid within a few entries.
        let values: Vec<u32> = (0..200).map(|i| (i * 0x005A_5A5A) & 0x07FF_FFFF).collect();
        let pv = PackedVec::build(&values);
        assert_eq!(pv.bits, 27);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(pv.get(i), v, "index {i}");
        }
    }

    #[test]
    fn packed_vec_handles_empty_zero_and_max() {
        let empty = PackedVec::build(&[]);
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.heap_bytes(), 0);
        let zeros = PackedVec::build(&[0, 0, 0]);
        assert_eq!(zeros.bits, 1);
        assert_eq!(zeros.get(2), 0);
        let max = PackedVec::build(&[u32::MAX, 7]);
        assert_eq!(max.bits, 32);
        assert_eq!(max.get(0), u32::MAX);
        assert_eq!(max.get(1), 7);
    }

    fn both_backends(triples: &[(&str, &str, &str)]) -> (TripleStore, ColumnStore) {
        let dict = Dictionary::shared();
        let mut st = TripleStore::new(dict);
        for (s, p, o) in triples {
            st.insert_terms(&Term::iri(*s), &Term::iri(*p), &Term::iri(*o));
        }
        let cols = ColumnStore::from_store(&st);
        (st, cols)
    }

    #[test]
    fn scans_match_btree_on_all_paths() {
        let (st, cols) = both_backends(&[
            ("s1", "p1", "o1"),
            ("s1", "p1", "o2"),
            ("s1", "p2", "o1"),
            ("s2", "p1", "o1"),
            ("s3", "p2", "o3"),
        ]);
        let d = st.dict();
        let ids: Vec<Option<TermId>> = ["s1", "p1", "o1"]
            .iter()
            .map(|n| d.lookup(&Term::iri(*n)))
            .collect();
        let (s1, p1, o1) = (ids[0], ids[1], ids[2]);
        let shapes = [
            (None, None, None),
            (s1, None, None),
            (None, p1, None),
            (None, None, o1),
            (s1, p1, None),
            (None, p1, o1),
            (s1, None, o1),
            (s1, p1, o1),
        ];
        let cols_dyn: &dyn StorageBackend = &cols;
        for (s, p, o) in shapes {
            assert_eq!(
                st.matches(s, p, o),
                cols_dyn.matches(s, p, o),
                "shape ({s:?},{p:?},{o:?})"
            );
            assert_eq!(
                st.estimate(s, p, o),
                StorageBackend::estimate(&cols, s, p, o),
                "estimate ({s:?},{p:?},{o:?})"
            );
        }
    }

    #[test]
    fn subject_of_row_at_run_boundaries() {
        // Runs of 3, 1, 1 and 2 rows: the first and last row of a run,
        // single-row subjects, and the final subject's last row.
        let (st, cols) = both_backends(&[
            ("s1", "p1", "o1"),
            ("s1", "p1", "o2"),
            ("s1", "p2", "o1"),
            ("s2", "p1", "o1"),
            ("s3", "p2", "o3"),
            ("s4", "p1", "o1"),
            ("s4", "p2", "o9"),
        ]);
        let subjects: Vec<u32> = st.triples_spo().map(|(s, _, _)| s.0).collect();
        assert_eq!(subjects.len(), 7);
        for (row, &s) in subjects.iter().enumerate() {
            assert_eq!(cols.subject_of_row(row), s, "row {row}");
        }
        // The same answers through the scans that map rows back to
        // subjects (`_p_`, `_po`, `__o`) and the `s_o` comparator.
        let cols_dyn: &dyn StorageBackend = &cols;
        let id = |n: &str| st.dict().lookup(&Term::iri(n));
        for (s, p, o) in [
            (None, id("p1"), None),
            (None, id("p2"), id("o9")),
            (None, None, id("o1")),
            (id("s4"), None, id("o1")),
            (id("s1"), None, id("o1")),
        ] {
            assert_eq!(st.matches(s, p, o), cols_dyn.matches(s, p, o));
        }
    }

    #[test]
    fn absent_keys_scan_empty_and_estimate_zero() {
        let (st, cols) = both_backends(&[("s1", "p1", "o1")]);
        let ghost = st.dict().encode(&Term::iri("ghost"));
        let cols_dyn: &dyn StorageBackend = &cols;
        for (s, p, o) in [
            (Some(ghost), None, None),
            (None, Some(ghost), None),
            (None, None, Some(ghost)),
            (Some(ghost), Some(ghost), None),
            (None, Some(ghost), Some(ghost)),
            (Some(ghost), None, Some(ghost)),
            (Some(ghost), Some(ghost), Some(ghost)),
        ] {
            assert!(cols_dyn.matches(s, p, o).is_empty());
            assert_eq!(StorageBackend::estimate(&cols, s, p, o), 0);
        }
        // A present triple's membership reads 1 through the same runs.
        let t = st.matches(None, None, None)[0];
        assert_eq!(
            StorageBackend::estimate(&cols, Some(t.s), Some(t.p), Some(t.o)),
            1
        );
    }

    #[test]
    fn rows_scanned_semantics_match_btree() {
        let (st, cols) = both_backends(&[("s1", "p", "o1"), ("s2", "p", "o2"), ("s3", "p", "o3")]);
        let p = st.dict().lookup(&Term::iri("p")).unwrap();
        let cols_dyn: &dyn StorageBackend = &cols;
        assert_eq!(cols_dyn.rows_scanned(), 0);
        cols_dyn.matches(None, None, None);
        assert_eq!(cols_dyn.rows_scanned(), 3);
        cols_dyn.matches(None, Some(p), None);
        assert_eq!(cols_dyn.rows_scanned(), 6);
        // Early-exiting scans only count what they actually visited.
        cols_dyn.scan(None, None, None, |_| false);
        assert_eq!(cols_dyn.rows_scanned(), 7);
        // Estimation (membership included) and the stats iterator are
        // planning work.
        StorageBackend::estimate(&cols, None, Some(p), None);
        StorageBackend::estimate(&cols, Some(p), Some(p), Some(p));
        cols_dyn.for_each_spo(&mut |_, _, _| {});
        assert_eq!(cols_dyn.rows_scanned(), 7);
    }

    #[test]
    fn predicate_stats_and_distinct_counts_match_btree() {
        let (st, cols) = both_backends(&[
            ("s1", "p", "o1"),
            ("s1", "p", "o2"),
            ("s2", "p", "o2"),
            ("s2", "q", "o3"),
        ]);
        let p = st.dict().lookup(&Term::iri("p")).unwrap();
        let q = st.dict().lookup(&Term::iri("q")).unwrap();
        let from_cols = crate::stats::EndpointStats::build(&cols);
        let from_btree = crate::stats::EndpointStats::build(&st);
        assert_eq!(from_cols.predicate(p), from_btree.predicate(p));
        assert_eq!(from_cols.predicate(q), from_btree.predicate(q));
        assert_eq!(from_cols.predicate(TermId(9999)), None);
        let p_stats = from_cols.predicate(p).unwrap();
        assert_eq!(
            (p_stats.triples, p_stats.subjects, p_stats.objects),
            (3, 2, 2)
        );
        let q_stats = from_cols.predicate(q).unwrap();
        assert_eq!(
            (q_stats.triples, q_stats.subjects, q_stats.objects),
            (1, 1, 1)
        );
        assert_eq!(from_cols.predicates, from_btree.predicates);
        assert_eq!(from_cols.total_triples, from_btree.total_triples);
    }

    #[test]
    fn for_each_spo_order_matches_btree() {
        let (st, cols) = both_backends(&[
            ("z", "p", "a"),
            ("a", "q", "z"),
            ("m", "p", "m"),
            ("a", "p", "b"),
        ]);
        let mut btree_order = Vec::new();
        for t in st.triples_spo() {
            btree_order.push(t);
        }
        let mut cols_order = Vec::new();
        (&cols as &dyn StorageBackend).for_each_spo(&mut |s, p, o| cols_order.push((s, p, o)));
        assert_eq!(btree_order, cols_order);
    }

    #[test]
    fn columnar_estimates_are_exact_beyond_the_btree_cap() {
        let dict = Dictionary::shared();
        let mut st = TripleStore::new(Arc::clone(&dict));
        let p = dict.encode(&Term::iri("p"));
        let s = dict.encode(&Term::iri("hub"));
        for i in 0..200 {
            let o = dict.encode(&Term::iri(format!("o{i}")));
            st.insert(Triple::new(s, p, o));
        }
        let cols = ColumnStore::from_store(&st);
        // The BTree walk saturates at the cap; the columnar run length is
        // the true count.
        assert_eq!(st.estimate(Some(s), None, None), crate::store::ESTIMATE_CAP);
        assert_eq!(StorageBackend::estimate(&cols, Some(s), None, None), 200);
        // Predicate-only estimates are exact on both (stats-backed).
        assert_eq!(st.estimate(None, Some(p), None), 200);
        assert_eq!(StorageBackend::estimate(&cols, None, Some(p), None), 200);
    }

    #[test]
    fn resident_bytes_beats_btree_model_at_scale() {
        let dict = Dictionary::shared();
        let mut st = TripleStore::new(Arc::clone(&dict));
        let mut k = 0u32;
        for s in 0..100 {
            for o in 0..20 {
                let sid = dict.encode(&Term::iri(format!("s{s}")));
                let pid = dict.encode(&Term::iri(format!("p{}", k % 7)));
                let oid = dict.encode(&Term::iri(format!("o{o}_{s}")));
                st.insert(Triple::new(sid, pid, oid));
                k += 1;
            }
        }
        let cols = ColumnStore::from_store(&st);
        let cols_bytes = StorageBackend::resident_bytes(&cols);
        let btree_bytes = StorageBackend::resident_bytes(&st);
        assert!(
            cols_bytes * 3 < btree_bytes,
            "columns {cols_bytes} vs btree model {btree_bytes}"
        );
        // Per-triple footprint should be in the low tens of bytes.
        assert!(cols_bytes / (st.len() as u64) < 20);
    }

    #[test]
    fn empty_store_is_safe_on_every_path() {
        let dict = Dictionary::shared();
        let st = TripleStore::new(Arc::clone(&dict));
        let cols = ColumnStore::from_store(&st);
        let cols_dyn: &dyn StorageBackend = &cols;
        assert_eq!(cols_dyn.len(), 0);
        assert!(cols_dyn.is_empty());
        let x = TermId(1);
        for (s, p, o) in [
            (None, None, None),
            (Some(x), None, None),
            (None, Some(x), None),
            (None, None, Some(x)),
            (Some(x), Some(x), Some(x)),
        ] {
            assert!(cols_dyn.matches(s, p, o).is_empty());
            assert_eq!(StorageBackend::estimate(&cols, s, p, o), 0);
        }
        cols_dyn.for_each_spo(&mut |s, p, o| panic!("empty store yielded ({s:?}, {p:?}, {o:?})"));
        assert_eq!(cols_dyn.rows_scanned(), 0);
    }

    /// The subject directory answers every id — below the words it spans,
    /// inside them, and past them — as the BTree backend's search does.
    #[test]
    fn subject_directory_agrees_with_btree_on_every_id() {
        // An empty store, then one subject at either side of a word edge.
        for subject_id in [None, Some(63), Some(64)] {
            let dict = Dictionary::shared();
            let mut st = TripleStore::new(Arc::clone(&dict));
            if let Some(target) = subject_id {
                while dict.len() < target {
                    dict.encode(&Term::iri(format!("pad{}", dict.len())));
                }
                let s = dict.encode(&Term::iri("s"));
                assert_eq!(s, TermId(target as u32));
                for o in ["o1", "o2"] {
                    st.insert_terms(&Term::iri("s"), &Term::iri("p"), &Term::iri(o));
                }
            }
            let cols = ColumnStore::from_store(&st);
            let cols_dyn: &dyn StorageBackend = &cols;
            let (p, o) = (dict.encode(&Term::iri("p")), dict.encode(&Term::iri("o1")));
            for id in 0..=dict.len() as u32 + 70 {
                let s = Some(TermId(id));
                for (qp, qo) in [(None, None), (Some(p), None), (Some(p), Some(o))] {
                    let ctx = format!("subject {subject_id:?}, probe ({id}, {qp:?}, {qo:?})");
                    assert_eq!(st.matches(s, qp, qo), cols_dyn.matches(s, qp, qo), "{ctx}");
                    assert_eq!(
                        st.estimate(s, qp, qo),
                        StorageBackend::estimate(&cols, s, qp, qo),
                        "{ctx}"
                    );
                }
                let t = Triple::new(TermId(id), p, o);
                assert_eq!(
                    st.matches(Some(t.s), Some(t.p), Some(t.o)).len() as u64,
                    StorageBackend::estimate(&cols, Some(t.s), Some(t.p), Some(t.o)),
                    "{id}"
                );
            }
        }
    }
}
