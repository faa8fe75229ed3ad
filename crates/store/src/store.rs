//! The triple store: three sorted indexes plus per-predicate triple counts.

use lusail_rdf::{Dictionary, FxHashMap, Term, TermId, Triple};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

type Key = (u32, u32, u32);

/// Index probes stop counting at this many entries when estimating a
/// pattern's cardinality: beyond it, "large" is all the join orderer
/// needs to know, and an unbounded count would turn planning into a scan.
/// Public because the cross-backend estimate contract (see
/// [`crate::backend`]) is stated in terms of this cap.
pub const ESTIMATE_CAP: u64 = 64;

/// An in-memory triple store over a shared [`Dictionary`].
///
/// Inserts maintain SPO/POS/OSP orderings so any combination of bound
/// positions in a triple pattern maps to a contiguous range scan.
///
/// ```
/// use lusail_rdf::{Dictionary, Term};
/// use lusail_store::TripleStore;
///
/// let dict = Dictionary::shared();
/// let mut store = TripleStore::new(std::sync::Arc::clone(&dict));
/// store.insert_terms(
///     &Term::iri("http://x/s"),
///     &Term::iri("http://x/p"),
///     &Term::lit("o"),
/// );
/// let p = dict.lookup(&Term::iri("http://x/p")).unwrap();
/// assert_eq!(store.matches(None, Some(p), None).len(), 1);
/// ```
pub struct TripleStore {
    dict: Arc<Dictionary>,
    spo: BTreeSet<Key>,
    pos: BTreeSet<Key>,
    osp: BTreeSet<Key>,
    /// Triples per predicate, kept on insert so `(?, p, ?)` estimates are
    /// exact without a walk.
    pred_triples: FxHashMap<TermId, u64>,
    /// Monotonic count of triples handed to [`TripleStore::scan`]
    /// callbacks — the store-side work counter the bench harness gates on.
    rows_scanned: AtomicU64,
}

impl TripleStore {
    /// Creates an empty store over the given dictionary.
    pub fn new(dict: Arc<Dictionary>) -> Self {
        TripleStore {
            dict,
            spo: BTreeSet::new(),
            pos: BTreeSet::new(),
            osp: BTreeSet::new(),
            pred_triples: FxHashMap::default(),
            rows_scanned: AtomicU64::new(0),
        }
    }

    /// Total triples handed to scan callbacks since the store was built.
    /// The indexes answer every pattern with an exact range, so this is
    /// precisely the number of index entries the store had to visit.
    pub fn rows_scanned(&self) -> u64 {
        self.rows_scanned.load(Ordering::Relaxed)
    }

    /// The store's dictionary.
    pub fn dict(&self) -> &Arc<Dictionary> {
        &self.dict
    }

    /// Inserts a triple. Returns true if it was not already present.
    pub fn insert(&mut self, t: Triple) -> bool {
        let added = self.spo.insert((t.s.0, t.p.0, t.o.0));
        if added {
            self.pos.insert((t.p.0, t.o.0, t.s.0));
            self.osp.insert((t.o.0, t.s.0, t.p.0));
            *self.pred_triples.entry(t.p).or_default() += 1;
        }
        added
    }

    /// Convenience: encodes three terms and inserts the triple.
    pub fn insert_terms(&mut self, s: &Term, p: &Term, o: &Term) -> bool {
        let t = Triple::new(
            self.dict.encode(s),
            self.dict.encode(p),
            self.dict.encode(o),
        );
        self.insert(t)
    }

    /// Bulk-inserts triples.
    pub fn extend(&mut self, triples: impl IntoIterator<Item = Triple>) {
        for t in triples {
            self.insert(t);
        }
    }

    /// Number of triples in the store.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True if the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Iterates over every triple in subject-grouped (SPO) order.
    /// Planning-time work — used by the offline statistics build — so it
    /// does *not* count toward [`TripleStore::rows_scanned`], unlike
    /// [`TripleStore::scan`].
    pub fn triples_spo(&self) -> impl Iterator<Item = (TermId, TermId, TermId)> + '_ {
        self.spo
            .iter()
            .map(|&(s, p, o)| (TermId(s), TermId(p), TermId(o)))
    }

    /// The access path of a pattern: walks the range of the one ordering
    /// whose key prefix is the pattern's constants — POS when `p` is bound
    /// and `s` is not, OSP when `o` is bound and `p` is not, SPO otherwise
    /// — handing `f` each key permuted back to `(s, p, o)`, until `f`
    /// returns `false` (then so does this). Scans and estimates both walk
    /// here, so a shape reads the same range for either.
    fn range(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        mut f: impl FnMut(Key) -> bool,
    ) -> bool {
        // `rot`: how many places the ordering rotates `(s, p, o)`.
        let (index, prefix, rot) = match (s, p, o) {
            (None, Some(_), _) => (&self.pos, [p, o, s], 1),
            (_, None, Some(_)) => (&self.osp, [o, s, p], 2),
            _ => (&self.spo, [s, p, o], 0),
        };
        let bound = |free: u32| {
            let at = |i: usize| prefix[i].map_or(free, |t: TermId| t.0);
            (at(0), at(1), at(2))
        };
        let (lo, hi) = (bound(0), bound(u32::MAX));
        // One rotation for every key, so the branch predicts.
        let mut visit = |&(a, b, c): &Key| match rot {
            0 => f((a, b, c)),
            1 => f((c, a, b)),
            _ => f((b, c, a)),
        };
        if lo == hi {
            // A one-key range is a lookup: one descent, where a range
            // search makes two.
            return !index.contains(&lo) || visit(&lo);
        }
        for key in index.range(lo..=hi) {
            if !visit(key) {
                return false;
            }
        }
        true
    }

    /// Matches a triple pattern with optionally-bound positions, invoking
    /// `f` for each matching triple. Returns early (with `false`) if `f`
    /// returns `false`; returns `true` if the scan ran to completion.
    pub fn scan(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        mut f: impl FnMut(Triple) -> bool,
    ) -> bool {
        self.range(s, p, o, |(s, p, o)| {
            // Every triple that reaches the caller is one unit of store work.
            self.rows_scanned.fetch_add(1, Ordering::Relaxed);
            f(Triple::new(TermId(s), TermId(p), TermId(o)))
        })
    }

    /// Collects all matches of a pattern into a vector (convenience for
    /// tests and small scans).
    pub fn matches(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> Vec<Triple> {
        let mut out = Vec::new();
        self.scan(s, p, o, |t| {
            out.push(t);
            true
        });
        out
    }

    /// Estimated number of matches for a pattern, used by the BGP join
    /// orderer. Exact for (p)-bound patterns (from the per-predicate
    /// counts), for the
    /// fully-bound probe, and for the all-free scan; for every other
    /// shape the matching index range is counted directly, capped at
    /// [`ESTIMATE_CAP`] so estimation never degenerates into a full scan.
    pub fn estimate(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> u64 {
        match (s, p, o) {
            (None, Some(p), None) => self.pred_triples.get(&p).copied().unwrap_or(0),
            (None, None, None) => self.len() as u64,
            _ => {
                let mut n = 0;
                self.range(s, p, o, |_| {
                    n += 1;
                    n < ESTIMATE_CAP
                });
                n
            }
        }
    }
}

impl crate::backend::StorageBackend for TripleStore {
    fn dict(&self) -> &Arc<Dictionary> {
        self.dict()
    }

    fn len(&self) -> usize {
        self.len()
    }

    fn scan_with(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        f: &mut dyn FnMut(Triple) -> bool,
    ) -> bool {
        self.scan(s, p, o, f)
    }

    fn estimate(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> u64 {
        self.estimate(s, p, o)
    }

    fn for_each_spo(&self, f: &mut dyn FnMut(TermId, TermId, TermId)) {
        for (s, p, o) in self.triples_spo() {
            f(s, p, o);
        }
    }

    fn rows_scanned(&self) -> u64 {
        self.rows_scanned()
    }

    fn resident_bytes(&self) -> u64 {
        // Coarse model, not a measurement: each of the three `BTreeSet`
        // indexes holds one 12-byte key per triple in nodes that are
        // ~2/3 full with per-node headers, which lands near 20 bytes per
        // key in practice. The bench harness measures the real allocator
        // delta; this figure only feeds display lines.
        self.len() as u64 * 3 * 20
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(triples: &[(&str, &str, &str)]) -> TripleStore {
        let dict = Dictionary::shared();
        let mut st = TripleStore::new(dict);
        for (s, p, o) in triples {
            st.insert_terms(&Term::iri(*s), &Term::iri(*p), &Term::iri(*o));
        }
        st
    }

    #[test]
    fn insert_is_idempotent() {
        let mut st = store_with(&[("s", "p", "o")]);
        assert_eq!(st.len(), 1);
        let t = st.matches(None, None, None)[0];
        assert!(!st.insert(t));
        assert_eq!(st.len(), 1);
        assert_eq!(st.estimate(None, Some(t.p), None), 1);
    }

    #[test]
    fn all_access_paths_agree() {
        let st = store_with(&[
            ("s1", "p1", "o1"),
            ("s1", "p1", "o2"),
            ("s1", "p2", "o1"),
            ("s2", "p1", "o1"),
        ]);
        let d = st.dict();
        let s1 = d.lookup(&Term::iri("s1")).unwrap();
        let p1 = d.lookup(&Term::iri("p1")).unwrap();
        let o1 = d.lookup(&Term::iri("o1")).unwrap();

        assert_eq!(st.matches(Some(s1), None, None).len(), 3);
        assert_eq!(st.matches(None, Some(p1), None).len(), 3);
        assert_eq!(st.matches(None, None, Some(o1)).len(), 3);
        assert_eq!(st.matches(Some(s1), Some(p1), None).len(), 2);
        assert_eq!(st.matches(None, Some(p1), Some(o1)).len(), 2);
        assert_eq!(st.matches(Some(s1), None, Some(o1)).len(), 2);
        assert_eq!(st.matches(Some(s1), Some(p1), Some(o1)).len(), 1);
        assert_eq!(st.matches(None, None, None).len(), 4);
    }

    #[test]
    fn scan_early_exit() {
        let st = store_with(&[("s1", "p", "o1"), ("s2", "p", "o2"), ("s3", "p", "o3")]);
        let mut seen = 0;
        let completed = st.scan(None, None, None, |_| {
            seen += 1;
            seen < 2
        });
        assert!(!completed);
        assert_eq!(seen, 2);
    }

    #[test]
    fn distinct_subject_object_counts() {
        let st = store_with(&[("s1", "p", "o1"), ("s1", "p", "o2"), ("s2", "p", "o2")]);
        let p = st.dict().lookup(&Term::iri("p")).unwrap();
        let stats = crate::stats::EndpointStats::build(&st);
        let summary = stats.predicate(p).unwrap();
        assert_eq!(summary.subjects, 2);
        assert_eq!(summary.objects, 2);
    }

    #[test]
    fn estimate_uses_predicate_stats() {
        let st = store_with(&[("a", "p", "b"), ("c", "p", "d"), ("e", "q", "f")]);
        let p = st.dict().lookup(&Term::iri("p")).unwrap();
        let q = st.dict().lookup(&Term::iri("q")).unwrap();
        assert_eq!(st.estimate(None, Some(p), None), 2);
        assert_eq!(st.estimate(None, Some(q), None), 1);
        assert_eq!(st.estimate(None, None, None), 3);
    }

    #[test]
    fn estimate_counts_index_ranges_exactly_when_small() {
        let st = store_with(&[
            ("s1", "p1", "o1"),
            ("s1", "p1", "o2"),
            ("s1", "p2", "o1"),
            ("s2", "p1", "o1"),
        ]);
        let d = st.dict();
        let s1 = d.lookup(&Term::iri("s1")).unwrap();
        let s2 = d.lookup(&Term::iri("s2")).unwrap();
        let p1 = d.lookup(&Term::iri("p1")).unwrap();
        let p2 = d.lookup(&Term::iri("p2")).unwrap();
        let o1 = d.lookup(&Term::iri("o1")).unwrap();
        assert_eq!(st.estimate(Some(s1), Some(p1), None), 2);
        assert_eq!(st.estimate(Some(s1), None, None), 3);
        assert_eq!(st.estimate(None, Some(p1), Some(o1)), 2);
        assert_eq!(st.estimate(None, None, Some(o1)), 3);
        assert_eq!(st.estimate(Some(s1), None, Some(o1)), 2);
        assert_eq!(st.estimate(Some(s1), Some(p1), Some(o1)), 1);
        // Absent combinations estimate zero, letting the planner
        // short-circuit an empty pattern first.
        assert_eq!(st.estimate(Some(s2), Some(p2), Some(o1)), 0);
        assert_eq!(st.estimate(Some(s2), Some(p2), None), 0);
    }

    #[test]
    fn rows_scanned_counts_visited_triples() {
        let st = store_with(&[("s1", "p", "o1"), ("s2", "p", "o2"), ("s3", "p", "o3")]);
        assert_eq!(st.rows_scanned(), 0);
        st.matches(None, None, None);
        assert_eq!(st.rows_scanned(), 3);
        let p = st.dict().lookup(&Term::iri("p")).unwrap();
        st.matches(None, Some(p), None);
        assert_eq!(st.rows_scanned(), 6);
        // Early-exiting scans only count what they actually visited.
        st.scan(None, None, None, |_| false);
        assert_eq!(st.rows_scanned(), 7);
        // Estimation probes are planning work, not scan work.
        st.estimate(None, Some(p), None);
        assert_eq!(st.rows_scanned(), 7);
    }
}
