//! Thread-safe term interning dictionary.
//!
//! Every federation shares a single [`Dictionary`]: endpoints, the federated
//! engine, and workload generators all encode [`Term`]s into dense
//! [`TermId`]s through it. Sharing one dictionary is purely an encoding
//! convenience — it does not leak any data-placement information, because
//! interning a string says nothing about *which endpoint* holds triples
//! mentioning it.

use crate::fx::FxHashMap;
use crate::term::Term;
use std::sync::{Arc, RwLock};

/// A dense identifier for an interned [`Term`]. `TermId(0)` is the first
/// interned term; ids are assigned in interning order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The id as a `usize` index.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Default)]
struct Inner {
    terms: Vec<Arc<Term>>,
    ids: FxHashMap<Arc<Term>, TermId>,
}

/// A bidirectional, thread-safe `Term` ↔ [`TermId`] mapping.
///
/// Interning is write-locked; lookups are read-locked. Workloads intern
/// during data generation and then run read-mostly, so a `RwLock` is the
/// right tradeoff.
#[derive(Default)]
pub struct Dictionary {
    inner: RwLock<Inner>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty dictionary behind an `Arc`, the usual way a
    /// federation holds it.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Interns a term, returning its id. Idempotent.
    pub fn encode(&self, term: &Term) -> TermId {
        if let Some(id) = self.inner.read().unwrap().ids.get(term) {
            return *id;
        }
        let mut inner = self.inner.write().unwrap();
        // Re-check under the write lock: another thread may have interned it.
        if let Some(id) = inner.ids.get(term) {
            return *id;
        }
        let id = TermId(u32::try_from(inner.terms.len()).expect("dictionary overflow"));
        let arc = Arc::new(term.clone());
        inner.terms.push(Arc::clone(&arc));
        inner.ids.insert(arc, id);
        id
    }

    /// Interns an IRI given as a string.
    pub fn encode_iri(&self, iri: &str) -> TermId {
        self.encode(&Term::iri(iri))
    }

    /// Looks up a term id without interning. Returns `None` if the term has
    /// never been seen.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        self.inner.read().unwrap().ids.get(term).copied()
    }

    /// Decodes an id back to its term. Panics on an id that was never issued
    /// by this dictionary (a program logic error, not a data error).
    pub fn decode(&self, id: TermId) -> Arc<Term> {
        Arc::clone(&self.inner.read().unwrap().terms[id.index()])
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().terms.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_idempotent() {
        let d = Dictionary::new();
        let a = d.encode(&Term::iri("http://x/a"));
        let b = d.encode(&Term::iri("http://x/a"));
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let d = Dictionary::new();
        let a = d.encode(&Term::iri("http://x/a"));
        let b = d.encode(&Term::lit("http://x/a")); // same text, different kind
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn decode_roundtrip() {
        let d = Dictionary::new();
        let t = Term::lang_lit("bonjour", "fr");
        let id = d.encode(&t);
        assert_eq!(*d.decode(id), t);
    }

    #[test]
    fn lookup_does_not_intern() {
        let d = Dictionary::new();
        assert_eq!(d.lookup(&Term::lit("x")), None);
        assert!(d.is_empty());
        let id = d.encode(&Term::lit("x"));
        assert_eq!(d.lookup(&Term::lit("x")), Some(id));
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let d = Dictionary::shared();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    (0..1000)
                        .map(|i| d.encode(&Term::iri(format!("http://x/{i}"))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<TermId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        assert_eq!(d.len(), 1000);
    }
}
