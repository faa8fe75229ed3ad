//! Offline per-endpoint statistics: characteristic sets and predicate
//! summaries that let a planner answer relevance and cardinality
//! questions *locally*, eliding the wire probe it would otherwise issue
//! (Odyssey-style planning over precomputed characteristic sets).
//!
//! The correctness bar is strict: a conclusive answer from
//! [`EndpointStats`] must be *exactly* the answer the corresponding wire
//! probe would have returned against the same store. Anything the
//! summaries cannot decide exactly is `None`, and the caller falls back
//! to the wire. Under that contract statistics can only remove requests,
//! never change results.
//!
//! The build is a single pass over the store's subject-grouped index:
//! every subject's sorted predicate signature is its *characteristic
//! set*; subjects sharing a signature aggregate into one
//! [`CharacteristicSet`] with per-predicate triple counts. Alongside the
//! sets the pass derives per-predicate totals ([`PredicateSummary`]) and
//! the subject/object join-degree summary (`objects_foreign`) Lusail's
//! home checks ask about.

use crate::backend::StorageBackend;
use lusail_rdf::{Dictionary, FxHashMap, FxHashSet, Term, TermId};
use lusail_sparql::ast::TriplePattern;

/// Serialization format tag (first line of a stats file).
pub const STATS_FORMAT: &str = "lusail-stats/v1";

/// One characteristic set: the subjects whose predicate signature is
/// exactly `predicates`, with per-predicate triple totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CharacteristicSet {
    /// The signature: the distinct predicates of these subjects, sorted
    /// by term id.
    pub predicates: Vec<TermId>,
    /// Number of subjects with exactly this signature.
    pub subjects: u64,
    /// Triples per signature predicate (parallel to `predicates`),
    /// summed over the set's subjects.
    pub triples: Vec<u64>,
}

impl CharacteristicSet {
    /// True if the signature contains `p`.
    pub(crate) fn has(&self, p: TermId) -> bool {
        self.predicates.binary_search(&p).is_ok()
    }
}

/// Per-predicate totals, derived from the same scan that builds the
/// characteristic sets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredicateSummary {
    /// Triples with this predicate.
    pub triples: u64,
    /// Distinct subjects.
    pub subjects: u64,
    /// Distinct objects.
    pub objects: u64,
    /// Distinct objects that never occur as a *subject* of any local
    /// triple — the values a GJV home check would report as foreign.
    /// Literal objects count (they are never subjects), exactly as the
    /// wire home-check query would return them.
    pub objects_foreign: u64,
}

/// The statistics layer for one endpoint, built offline from its store.
#[derive(Debug, Clone, Default)]
pub struct EndpointStats {
    /// Total triples in the summarized store.
    pub total_triples: u64,
    /// The characteristic sets, ordered by signature.
    pub sets: Vec<CharacteristicSet>,
    /// Per-predicate summaries.
    pub predicates: FxHashMap<TermId, PredicateSummary>,
}

impl EndpointStats {
    /// Scans `store` into its statistics. One pass over the
    /// subject-grouped index (any [`StorageBackend`], via its
    /// `for_each_spo` iterator); planning work, so nothing is charged to
    /// the store's `rows_scanned` counter.
    pub fn build(store: &dyn StorageBackend) -> EndpointStats {
        let mut subjects: FxHashSet<TermId> = FxHashSet::default();
        let mut per_pred: FxHashMap<TermId, (u64, FxHashSet<TermId>, FxHashSet<TermId>)> =
            FxHashMap::default();
        // signature -> (subject count, per-predicate triple counts)
        let mut sigs: FxHashMap<Vec<TermId>, (u64, Vec<u64>)> = FxHashMap::default();

        let mut current: Option<TermId> = None;
        let mut sig: Vec<TermId> = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        let mut flush = |sig: &mut Vec<TermId>, counts: &mut Vec<u64>| {
            if sig.is_empty() {
                return;
            }
            // Sort the signature (with its parallel counts) by term id.
            let mut paired: Vec<(TermId, u64)> = sig.drain(..).zip(counts.drain(..)).collect();
            paired.sort_by_key(|&(p, _)| p);
            let signature: Vec<TermId> = paired.iter().map(|&(p, _)| p).collect();
            let entry = sigs
                .entry(signature)
                .or_insert_with(|| (0, vec![0; paired.len()]));
            entry.0 += 1;
            for (slot, (_, n)) in entry.1.iter_mut().zip(&paired) {
                *slot += n;
            }
        };

        store.for_each_spo(&mut |s, p, o| {
            subjects.insert(s);
            let pred = per_pred
                .entry(p)
                .or_insert_with(|| (0, FxHashSet::default(), FxHashSet::default()));
            pred.0 += 1;
            pred.1.insert(s);
            pred.2.insert(o);
            if current != Some(s) {
                flush(&mut sig, &mut counts);
                current = Some(s);
            }
            // The SPO index groups a subject's triples by predicate, so a
            // new predicate for the current subject extends the signature.
            match sig.last() {
                Some(&last) if last == p => *counts.last_mut().expect("parallel") += 1,
                _ => {
                    sig.push(p);
                    counts.push(1);
                }
            }
        });
        flush(&mut sig, &mut counts);

        let predicates = per_pred
            .into_iter()
            .map(|(p, (triples, subj, obj))| {
                let objects_foreign = obj.iter().filter(|o| !subjects.contains(o)).count() as u64;
                (
                    p,
                    PredicateSummary {
                        triples,
                        subjects: subj.len() as u64,
                        objects: obj.len() as u64,
                        objects_foreign,
                    },
                )
            })
            .collect();

        let mut sets: Vec<CharacteristicSet> = sigs
            .into_iter()
            .map(|(predicates, (subjects, triples))| CharacteristicSet {
                predicates,
                subjects,
                triples,
            })
            .collect();
        sets.sort_by(|a, b| a.predicates.cmp(&b.predicates));

        EndpointStats {
            total_triples: store.len() as u64,
            sets,
            predicates,
        }
    }

    /// The summary for predicate `p`, if it occurs at this endpoint.
    pub fn predicate(&self, p: TermId) -> Option<&PredicateSummary> {
        self.predicates.get(&p)
    }

    /// Distinct objects of `p` that are not local subjects (0 when `p`
    /// is absent — the home-check query over an absent predicate binds
    /// nothing and returns empty).
    pub fn objects_foreign(&self, p: TermId) -> u64 {
        self.predicates.get(&p).map_or(0, |s| s.objects_foreign)
    }

    /// True if some characteristic set contains `with` but not
    /// `without` — i.e. some subject has a `with` triple and no
    /// `without` triple. This is exactly the answer to Lusail's
    /// uncorrelated set-difference check over subject-role patterns, and
    /// it is exact: every subject belongs to exactly one set.
    pub fn any_signature_with_without(&self, with: TermId, without: TermId) -> bool {
        self.sets.iter().any(|cs| cs.has(with) && !cs.has(without))
    }

    /// Locally answers the ASK probe for a single triple pattern, when
    /// the summaries are conclusive. A `Some` answer is exactly what
    /// `ASK { tp }` would return against the summarized store:
    ///
    /// * empty store ⇒ `false` for every pattern;
    /// * constant predicate absent ⇒ `false`, whatever the subject and
    ///   object positions hold;
    /// * constant predicate present with *distinct* subject and object
    ///   variables ⇒ `true`;
    /// * three distinct variables ⇒ `true` (the store is non-empty).
    ///
    /// Everything else (constants or repeated variables in the subject /
    /// object positions) is `None`: the summaries cannot decide it
    /// exactly, so the caller must probe the wire.
    pub fn ask_pattern(&self, tp: &TriplePattern) -> Option<bool> {
        self.count_pattern(tp).map(|n| n > 0)
    }

    /// Locally answers the COUNT probe for a single triple pattern, when
    /// the summaries are conclusive. A `Some` answer is exactly what
    /// `SELECT (COUNT(*) …) { tp }` would return against the summarized
    /// store (see [`EndpointStats::ask_pattern`] for the decidable
    /// shapes: per-predicate totals for `?s <p> ?o`, the store total for
    /// `?s ?p ?o`, and zero for absent predicates or an empty store).
    pub fn count_pattern(&self, tp: &TriplePattern) -> Option<u64> {
        if self.total_triples == 0 {
            return Some(0);
        }
        if let Some(p) = tp.p.as_const() {
            let Some(summary) = self.predicates.get(&p) else {
                // No triple carries this predicate, so no binding of the
                // remaining positions can match.
                return Some(0);
            };
            return match (tp.s.as_var(), tp.o.as_var()) {
                (Some(s), Some(o)) if s != o => Some(summary.triples),
                _ => None,
            };
        }
        // Variable predicate: only the unconstrained scan is decidable.
        match (tp.s.as_var(), tp.p.as_var(), tp.o.as_var()) {
            (Some(s), Some(p), Some(o)) if s != p && s != o && p != o => Some(self.total_triples),
            _ => None,
        }
    }

    /// Serializes into the `lusail-stats/v1` text format. Fails when a
    /// predicate is not an IRI (never the case for RDF data, whose
    /// predicates are IRIs by definition).
    pub fn to_text(&self, dict: &Dictionary) -> Result<String, String> {
        use std::fmt::Write as _;
        let iri = |id: TermId| -> Result<String, String> {
            match dict.decode(id).as_ref() {
                Term::Iri(iri) => Ok(iri.clone()),
                other => Err(format!("predicate {other} is not an IRI")),
            }
        };
        let mut out = String::new();
        let _ = writeln!(out, "{STATS_FORMAT}");
        let _ = writeln!(out, "total {}", self.total_triples);
        // Sort predicates by IRI so the file is dictionary-independent.
        let mut preds: Vec<(String, PredicateSummary)> = Vec::new();
        for (&p, &summary) in &self.predicates {
            preds.push((iri(p)?, summary));
        }
        preds.sort_by(|a, b| a.0.cmp(&b.0));
        for (iri, s) in preds {
            let _ = writeln!(
                out,
                "pred {iri} {} {} {} {}",
                s.triples, s.subjects, s.objects, s.objects_foreign
            );
        }
        let mut sets: Vec<String> = Vec::new();
        for cs in &self.sets {
            let mut line = format!("set {}", cs.subjects);
            let mut pairs: Vec<(String, u64)> = Vec::new();
            for (&p, &n) in cs.predicates.iter().zip(&cs.triples) {
                pairs.push((iri(p)?, n));
            }
            pairs.sort();
            for (iri, n) in pairs {
                let _ = write!(line, " {iri} {n}");
            }
            sets.push(line);
        }
        sets.sort();
        for line in sets {
            let _ = writeln!(out, "{line}");
        }
        Ok(out)
    }

    /// Parses the `lusail-stats/v1` text format, encoding predicate IRIs
    /// into `dict`.
    pub fn from_text(text: &str, dict: &Dictionary) -> Result<EndpointStats, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(tag) if tag.trim() == STATS_FORMAT => {}
            other => return Err(format!("bad stats header: {other:?}")),
        }
        let mut stats = EndpointStats::default();
        let parse_u64 =
            |s: &str| -> Result<u64, String> { s.parse().map_err(|e| format!("bad count: {e}")) };
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut fields = line.split_whitespace();
            match fields.next() {
                Some("total") => {
                    stats.total_triples = parse_u64(fields.next().ok_or("total: missing value")?)?;
                }
                Some("pred") => {
                    let iri = fields.next().ok_or("pred: missing IRI")?;
                    let mut next = || -> Result<u64, String> {
                        parse_u64(fields.next().ok_or("pred: short line")?)
                    };
                    let summary = PredicateSummary {
                        triples: next()?,
                        subjects: next()?,
                        objects: next()?,
                        objects_foreign: next()?,
                    };
                    stats.predicates.insert(dict.encode_iri(iri), summary);
                }
                Some("set") => {
                    let subjects = parse_u64(fields.next().ok_or("set: missing subjects")?)?;
                    let mut paired: Vec<(TermId, u64)> = Vec::new();
                    while let Some(iri) = fields.next() {
                        let n = parse_u64(fields.next().ok_or("set: IRI without count")?)?;
                        paired.push((dict.encode_iri(iri), n));
                    }
                    paired.sort_by_key(|&(p, _)| p);
                    stats.sets.push(CharacteristicSet {
                        predicates: paired.iter().map(|&(p, _)| p).collect(),
                        subjects,
                        triples: paired.iter().map(|&(_, n)| n).collect(),
                    });
                }
                other => return Err(format!("unknown stats line: {other:?}")),
            }
        }
        stats.sets.sort_by(|a, b| a.predicates.cmp(&b.predicates));
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripleStore;
    use lusail_rdf::Dictionary;
    use lusail_sparql::ast::PatternTerm;
    use std::sync::Arc;

    fn store_with(triples: &[(&str, &str, &str)]) -> TripleStore {
        let dict = Dictionary::shared();
        let mut st = TripleStore::new(dict);
        for (s, p, o) in triples {
            st.insert_terms(&Term::iri(*s), &Term::iri(*p), &Term::iri(*o));
        }
        st
    }

    fn pattern(s: PatternTerm, p: PatternTerm, o: PatternTerm) -> TriplePattern {
        TriplePattern::new(s, p, o)
    }

    fn var(name: &str) -> PatternTerm {
        PatternTerm::Var(name.to_string())
    }

    #[test]
    fn build_groups_subjects_into_characteristic_sets() {
        let st = store_with(&[
            ("s1", "p", "o1"),
            ("s1", "p", "o2"),
            ("s1", "q", "o1"),
            ("s2", "p", "o1"),
            ("s3", "q", "s1"),
        ]);
        let stats = EndpointStats::build(&st);
        assert_eq!(stats.total_triples, 5);
        // Signatures: {p,q} (s1), {p} (s2), {q} (s3).
        assert_eq!(stats.sets.len(), 3);
        let total_subjects: u64 = stats.sets.iter().map(|cs| cs.subjects).sum();
        assert_eq!(total_subjects, 3);
        let total_from_sets: u64 = stats.sets.iter().flat_map(|cs| cs.triples.iter()).sum();
        assert_eq!(total_from_sets, 5);
        let p = st.dict().lookup(&Term::iri("p")).unwrap();
        let q = st.dict().lookup(&Term::iri("q")).unwrap();
        let ps = stats.predicate(p).unwrap();
        assert_eq!(ps.triples, 3);
        assert_eq!(ps.subjects, 2);
        assert_eq!(ps.objects, 2);
        // o1, o2 are never subjects; both are objects of p.
        assert_eq!(ps.objects_foreign, 2);
        // q's objects are o1 (foreign) and s1 (a local subject).
        assert_eq!(stats.objects_foreign(q), 1);
        // Subjects with p but without q: s2 exists.
        assert!(stats.any_signature_with_without(p, q));
        assert!(stats.any_signature_with_without(q, p));
    }

    #[test]
    fn conclusive_answers_match_wire_semantics() {
        let st = store_with(&[("s1", "p", "o1"), ("s2", "p", "o2"), ("s3", "q", "o3")]);
        let dict = Arc::clone(st.dict());
        let stats = EndpointStats::build(&st);
        let p = PatternTerm::Const(dict.lookup(&Term::iri("p")).unwrap());
        let q = PatternTerm::Const(dict.lookup(&Term::iri("q")).unwrap());
        let absent = PatternTerm::Const(dict.encode(&Term::iri("never")));
        let s1 = PatternTerm::Const(dict.lookup(&Term::iri("s1")).unwrap());

        // Present predicate, distinct variables: exact count.
        assert_eq!(
            stats.count_pattern(&pattern(var("s"), p.clone(), var("o"))),
            Some(2)
        );
        assert_eq!(
            stats.count_pattern(&pattern(var("s"), q, var("o"))),
            Some(1)
        );
        assert_eq!(
            stats.ask_pattern(&pattern(var("s"), p.clone(), var("o"))),
            Some(true)
        );
        // Absent predicate: conclusive false whatever else is bound.
        assert_eq!(
            stats.ask_pattern(&pattern(var("s"), absent.clone(), var("o"))),
            Some(false)
        );
        assert_eq!(
            stats.count_pattern(&pattern(s1.clone(), absent, var("o"))),
            Some(0)
        );
        // Full scan: the store total.
        assert_eq!(
            stats.count_pattern(&pattern(var("s"), var("p"), var("o"))),
            Some(3)
        );
        // Bound subject, repeated variables: inconclusive.
        assert_eq!(stats.count_pattern(&pattern(s1, p.clone(), var("o"))), None);
        assert_eq!(stats.count_pattern(&pattern(var("x"), p, var("x"))), None);
        assert_eq!(
            stats.count_pattern(&pattern(var("x"), var("p"), var("x"))),
            None
        );
    }

    #[test]
    fn empty_store_is_conclusively_empty() {
        let st = TripleStore::new(Dictionary::shared());
        let stats = EndpointStats::build(&st);
        let tp = pattern(var("x"), var("p"), var("x"));
        assert_eq!(stats.ask_pattern(&tp), Some(false));
        assert_eq!(stats.count_pattern(&tp), Some(0));
    }

    #[test]
    fn text_roundtrip_preserves_everything() {
        let st = store_with(&[
            ("s1", "p", "o1"),
            ("s1", "q", "o2"),
            ("s2", "p", "o1"),
            ("s3", "r", "s2"),
        ]);
        let dict = st.dict();
        let stats = EndpointStats::build(&st);
        let text = stats.to_text(dict).unwrap();
        assert!(text.starts_with(STATS_FORMAT));
        let parsed = EndpointStats::from_text(&text, dict).unwrap();
        assert_eq!(parsed.total_triples, stats.total_triples);
        assert_eq!(parsed.sets, stats.sets);
        assert_eq!(parsed.predicates, stats.predicates);
        // And the round trip is a fixed point of serialization.
        assert_eq!(parsed.to_text(dict).unwrap(), text);
    }

    #[test]
    fn from_text_rejects_garbage() {
        let dict = Dictionary::shared();
        assert!(EndpointStats::from_text("", &dict).is_err());
        assert!(EndpointStats::from_text("lusail-stats/v0\n", &dict).is_err());
        assert!(EndpointStats::from_text("lusail-stats/v1\nbogus line\n", &dict).is_err());
        assert!(EndpointStats::from_text("lusail-stats/v1\npred x 1\n", &dict).is_err());
    }
}
