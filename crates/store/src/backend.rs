//! The [`StorageBackend`] trait: the storage contract every local store
//! implementation answers, and the [`BackendKind`] selector harnesses and
//! CLIs plumb through construction.
//!
//! Two backends implement the trait:
//!
//! * [`TripleStore`] — three `BTreeSet` orderings (SPO/POS/OSP), mutable,
//!   the default;
//! * [`ColumnStore`] — a bit-packed sorted-column
//!   layout built once from a populated store, immutable, several times
//!   smaller in resident memory.
//!
//! The contract is *observational equivalence*: for the same triples, both
//! backends must hand [`scan`](StorageBackend::scan_with) callbacks the
//! same triples in the same order on every one of the eight bound/unbound
//! access paths, charge [`rows_scanned`](StorageBackend::rows_scanned)
//! identically (one unit per triple handed to a scan callback — estimation
//! probes and the [`for_each_spo`](StorageBackend::for_each_spo) planning
//! iterator are exempt), and agree on
//! [`estimate`](StorageBackend::estimate) up to the documented cap (see
//! below). `tests/differential.rs` and `tests/properties.rs` enforce this
//! with a backend-differential oracle.
//!
//! # Estimate contract
//!
//! Both backends are **exact** for the fully-bound probe (0 or 1), the
//! predicate-only pattern `(?, p, ?)` (per-predicate statistics), and the
//! all-free pattern (store size). For the remaining five shapes the BTree
//! backend counts the matching index range but caps the walk at
//! [`ESTIMATE_CAP`](crate::store::ESTIMATE_CAP) entries, while the
//! columnar backend derives the exact count from its sorted-run
//! boundaries for free. The documented bound therefore is:
//! `btree_estimate == min(columns_estimate, ESTIMATE_CAP)`, with the
//! columnar estimate equal to the true match count.

use crate::columns::ColumnStore;
use crate::store::TripleStore;
use lusail_rdf::{Dictionary, TermId, Triple};
use std::sync::Arc;

/// Which storage backend to materialize an endpoint's triples into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The mutable `BTreeSet`-based [`TripleStore`] (the default).
    #[default]
    Btree,
    /// The immutable bit-packed [`ColumnStore`].
    Columns,
}

impl BackendKind {
    /// Both backends, in canonical order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Btree, BackendKind::Columns];

    /// The backend's stable display name (`"btree"` / `"columns"`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Btree => "btree",
            BackendKind::Columns => "columns",
        }
    }

    /// Parses a `--backend` argument (case-insensitive).
    pub fn parse(s: &str) -> Option<BackendKind> {
        BackendKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s))
    }

    /// Materializes a populated [`TripleStore`] into this backend: the
    /// BTree kind keeps the store as-is, the columnar kind rebuilds it
    /// into a [`ColumnStore`] and drops the B-trees.
    pub fn realize(self, store: TripleStore) -> Box<dyn StorageBackend> {
        match self {
            BackendKind::Btree => Box::new(store),
            BackendKind::Columns => Box::new(ColumnStore::from_store(&store)),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The storage contract behind every [`LocalEndpoint`]: triple-pattern
/// scans with bound-position dispatch, cardinality estimates, the
/// subject-grouped iterator offline statistics are built from, and
/// rows-scanned accounting.
///
/// All methods take `&self`; the work counters are interior-mutable
/// atomics so an assembled federation's endpoints can be observed and
/// reconfigured without tearing them down.
///
/// [`LocalEndpoint`]: ../../lusail_endpoint/struct.LocalEndpoint.html
pub trait StorageBackend: Send + Sync {
    /// The backend's shared term dictionary.
    fn dict(&self) -> &Arc<Dictionary>;

    /// Number of triples stored.
    fn len(&self) -> usize;

    /// True if the backend holds no triples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Matches a triple pattern with optionally-bound positions, invoking
    /// `f` for each matching triple *in index order* (SPO order for
    /// subject-led paths, `(p,o,s)` for predicate-led, `(o,s,p)` for
    /// object-led — identical across backends). Returns early (with
    /// `false`) if `f` returns `false`; returns `true` if the scan ran to
    /// completion. Every triple handed to `f` charges one unit to
    /// [`rows_scanned`](StorageBackend::rows_scanned).
    ///
    /// Prefer the generic [`scan`](trait.StorageBackend.html#method.scan)
    /// wrapper on `dyn StorageBackend` at call sites.
    fn scan_with(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        f: &mut dyn FnMut(Triple) -> bool,
    ) -> bool;

    /// Estimated number of matches for a pattern, used by the BGP join
    /// orderer. See the module docs for the cross-backend contract.
    /// Planning work — never charged to `rows_scanned`.
    fn estimate(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> u64;

    /// Invokes `f` for every triple in subject-grouped (SPO) order.
    /// Planning-time work — the one pass every offline summary is built
    /// from (`EndpointStats`, SPLENDID's VOID index, HiBISCuS's authority
    /// index) — so it is **exempt** from `rows_scanned`, unlike
    /// [`scan_with`](StorageBackend::scan_with). (This is the trait form
    /// of `TripleStore::triples_spo`, which carries the same exemption.)
    fn for_each_spo(&self, f: &mut dyn FnMut(TermId, TermId, TermId));

    /// Total triples handed to scan callbacks since the backend was built
    /// — the store-side work counter the bench harness gates on.
    fn rows_scanned(&self) -> u64;

    /// Resident heap bytes held by the backend's index structures. Exact
    /// for the columnar backend (a sum over its packed buffers); a coarse
    /// per-triple model for the BTree backend. The bench harness measures
    /// the real allocator delta independently — this method feeds display
    /// lines, not gates.
    fn resident_bytes(&self) -> u64;
}

impl dyn StorageBackend + '_ {
    /// Generic-closure convenience over
    /// [`scan_with`](StorageBackend::scan_with), restoring the ergonomic
    /// `store.scan(s, p, o, |t| ...)` shape at call sites.
    pub fn scan(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        mut f: impl FnMut(Triple) -> bool,
    ) -> bool {
        self.scan_with(s, p, o, &mut f)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_rdf::Term;

    #[test]
    fn backend_kind_parses_and_displays() {
        assert_eq!(BackendKind::parse("btree"), Some(BackendKind::Btree));
        assert_eq!(BackendKind::parse("COLUMNS"), Some(BackendKind::Columns));
        assert_eq!(BackendKind::parse("rocksdb"), None);
        assert_eq!(BackendKind::Columns.to_string(), "columns");
        assert_eq!(BackendKind::default(), BackendKind::Btree);
    }

    #[test]
    fn realize_preserves_data_on_both_kinds() {
        for kind in BackendKind::ALL {
            let dict = Dictionary::shared();
            let mut st = TripleStore::new(Arc::clone(&dict));
            st.insert_terms(&Term::iri("s"), &Term::iri("p"), &Term::iri("o"));
            st.insert_terms(&Term::iri("s2"), &Term::iri("p"), &Term::iri("o"));
            let backend = kind.realize(st);
            assert_eq!(backend.len(), 2);
            assert!(!backend.is_empty());
            assert_eq!(backend.matches(None, None, None).len(), 2);
            assert!(backend.resident_bytes() > 0);
        }
    }
}
