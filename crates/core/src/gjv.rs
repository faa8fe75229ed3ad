//! Detecting global join variables (Algorithm 1 in the paper).
//!
//! A *global join variable* (GJV) is a variable shared by two triple
//! patterns that cannot be solved together by a single endpoint: either
//! the two patterns have different relevant sources, or the data instances
//! matching the variable in the two patterns are not co-located at some
//! endpoint.
//!
//! Co-location is established by *check queries* — lightweight
//! `SELECT … FILTER NOT EXISTS { … } LIMIT 1` probes computing the set
//! difference of the variable's instances under the two patterns (Fig. 6
//! in the paper). For a variable appearing as object in `TPᵢ` and subject
//! in `TPⱼ`, one difference (`vᵢ − vⱼ`, evaluated at every relevant
//! endpoint) suffices; for subject-only or object-only variables both
//! differences are checked. Constants in the inner pattern are replaced
//! with fresh variables; a known `rdf:type` constraint on the variable is
//! added to narrow the probe.
//!
//! Object–object joins additionally run a *home check* (`?v` matching the
//! pattern with no local subject triple): object instances are references
//! that may occur at several endpoints, so empty mutual differences alone
//! do not rule out a cross-endpoint join. See [`home_check_query`].
//!
//! False positives (a variable flagged global although grouping would have
//! been safe) cost extra remote joins but never correctness — exactly the
//! trade-off the paper describes.
//!
//! Two paper-inherited caveats, both documented in DESIGN.md: (1) the
//! probes establish co-location only under entity-partitioned data (each
//! subject's triples at its authority's endpoint — the setting of Fig. 1);
//! (2) adding the `rdf:type` constraint to the outer pattern makes checks
//! *against the type pattern itself* vacuous by construction. Both follow
//! the paper's Fig. 6 exactly — dropping the type constraint would flag
//! every remote-referenced entity and destroy the disjointness of LUBM
//! Q1/Q2 that §VI-C reports.

use crate::cache::ProbeCache;
use crate::exec::Net;
use crate::probe;
use crate::source_selection::SourceMap;
use lusail_endpoint::{EndpointId, Federation};
use lusail_rdf::{vocab, FxHashSet, TermId};
use lusail_sparql::ast::{GroupPattern, PatternTerm, Query, TriplePattern};

/// The result of GJV analysis over one basic graph pattern.
#[derive(Debug, Clone, Default)]
pub struct GjvAnalysis {
    /// The global join variables, in detection order.
    pub gjvs: Vec<String>,
    /// Unordered index pairs (into the analyzed pattern slice) that caused
    /// some variable to be global. Patterns in a conflicting pair must not
    /// share a subquery.
    pub conflicts: FxHashSet<(usize, usize)>,
}

impl GjvAnalysis {
    /// True if the pair `(i, j)` conflicts (order-insensitive).
    pub fn conflicting(&self, i: usize, j: usize) -> bool {
        self.conflicts.contains(&key(i, j))
    }
}

fn key(i: usize, j: usize) -> (usize, usize) {
    if i < j {
        (i, j)
    } else {
        (j, i)
    }
}

/// How a variable occurs in a pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Subject,
    Object,
    Predicate,
}

/// A check probe: the query the wire sees and its memo key.
pub(crate) struct CheckQuery {
    pub(crate) query: Query,
    /// The serialized structure — stable and canonical enough for
    /// memoization (term ids are stable within a dictionary).
    pub(crate) sig: String,
}

/// Runs Algorithm 1 over the triple patterns of one conjunctive block.
/// Check queries are answered by `probe::resolve` (memo, then
/// statistics, then the wire; a failed check assumes the pair conflicting
/// — a false positive costs extra remote joins, never answers).
pub fn detect_gjvs(
    fed: &Federation,
    triples: &[TriplePattern],
    sources: &SourceMap,
    cache: &ProbeCache<String, bool>,
    net: &Net,
) -> GjvAnalysis {
    let mut analysis = GjvAnalysis::default();
    let rdf_type = fed.dict().encode_iri(vocab::RDF_TYPE);

    // Map var -> (pattern index, role) occurrences.
    let mut vars: Vec<(String, Vec<(usize, Role)>)> = Vec::new();
    for (i, tp) in triples.iter().enumerate() {
        let add = |name: &str, role: Role, vars: &mut Vec<(String, Vec<(usize, Role)>)>| match vars
            .iter_mut()
            .find(|(v, _)| v == name)
        {
            Some((_, occ)) => occ.push((i, role)),
            None => vars.push((name.to_string(), vec![(i, role)])),
        };
        if let PatternTerm::Var(v) = &tp.s {
            add(v, Role::Subject, &mut vars);
        }
        if let PatternTerm::Var(v) = &tp.p {
            add(v, Role::Predicate, &mut vars);
        }
        if let PatternTerm::Var(v) = &tp.o {
            add(v, Role::Object, &mut vars);
        }
    }

    // A known type constraint per variable: (?v rdf:type <T>) with T const.
    let type_of = |v: &str| -> Option<(usize, TermId)> {
        triples.iter().enumerate().find_map(|(i, tp)| {
            if tp.s.as_var() == Some(v) && tp.p.as_const() == Some(rdf_type) && !tp.o.is_var() {
                Some((i, tp.o.as_const().unwrap()))
            } else {
                None
            }
        })
    };

    for (var, occurrences) in &vars {
        // Occurrences in distinct patterns only (a repeated variable inside
        // one pattern is a local constraint, not a join).
        let patterns: Vec<(usize, Role)> = occurrences.clone();
        let distinct: FxHashSet<usize> = patterns.iter().map(|(i, _)| *i).collect();
        if distinct.len() < 2 {
            continue;
        }

        let mut is_gjv = false;

        // Pairs of distinct patterns sharing the variable.
        let idxs: Vec<usize> = {
            let mut v: Vec<usize> = distinct.into_iter().collect();
            v.sort_unstable();
            v
        };

        // Case 1 (lines 8–11): differing relevant sources ⇒ GJV, no check
        // queries needed for those pairs. Unlike the paper's Algorithm 1
        // (which skips all remaining checks once the variable is known
        // global), same-source pairs of the variable are still checked
        // below — otherwise an unchecked pair could be grouped although
        // its instances straddle endpoints.
        for (a, &i) in idxs.iter().enumerate() {
            for &j in &idxs[a + 1..] {
                if sources.sources(&triples[i]) != sources.sources(&triples[j]) {
                    analysis.conflicts.insert(key(i, j));
                    is_gjv = true;
                }
            }
        }
        {
            // Case 2: same sources everywhere — formulate check queries.
            // Predicate-position joins cannot be checked with the paper's
            // probe shapes; treat them conservatively as global.
            let has_predicate_role = patterns.iter().any(|(_, r)| *r == Role::Predicate);
            if has_predicate_role {
                for (a, &i) in idxs.iter().enumerate() {
                    for &j in &idxs[a + 1..] {
                        analysis.conflicts.insert(key(i, j));
                    }
                }
                is_gjv = true;
            } else {
                let type_info = type_of(var);
                let mut checks: Vec<(usize, usize, CheckQuery)> = Vec::new();
                let difference = |keep: usize, probe: usize| {
                    check_query(var, &triples[keep], &triples[probe], type_info, triples)
                };
                let home = |keep: usize| home_check_query(var, &triples[keep], type_info, triples);
                // One check per (pair, rendered text).
                let push =
                    |i: usize,
                     j: usize,
                     check: CheckQuery,
                     checks: &mut Vec<(usize, usize, CheckQuery)>| {
                        if !checks
                            .iter()
                            .any(|(a, b, c)| (*a, *b) == (i, j) && c.sig == check.sig)
                        {
                            checks.push((i, j, check));
                        }
                    };
                // Enumerate occurrence pairs. For an (object TPᵢ, subject
                // TPⱼ) pair the paper's single difference vᵢ − vⱼ suffices
                // (the probe runs at every relevant endpoint). For
                // same-role pairs both differences are checked. The paper
                // skips same-role pairs when the variable also has a
                // mixed-role pair; checking them too is a strict superset
                // — it can only add (safe) conflicts.
                //
                // Object–object pairs need one probe beyond the paper's
                // differences: an object instance is a *reference* and may
                // occur at several endpoints, so empty mutual differences
                // do not rule out a cross-endpoint join (both endpoints
                // bind the same value with different subjects). Under
                // entity partitioning a value that is a local subject
                // everywhere it matches is homed at a single endpoint and
                // thus cannot match at two; the home check asks for an
                // instance with **no** local subject triple and flags the
                // pair when one exists.
                for a in 0..patterns.len() {
                    for b in a + 1..patterns.len() {
                        let (i, ri) = patterns[a];
                        let (j, rj) = patterns[b];
                        if i == j || analysis.conflicting(i, j) {
                            // Same pattern, or already conflicting via the
                            // source-mismatch case: no check query needed.
                            continue;
                        }
                        match (ri, rj) {
                            (Role::Object, Role::Subject) => {
                                push(i, j, difference(i, j), &mut checks);
                            }
                            (Role::Subject, Role::Object) => {
                                push(i, j, difference(j, i), &mut checks);
                            }
                            _ => {
                                push(i, j, difference(i, j), &mut checks);
                                push(i, j, difference(j, i), &mut checks);
                                if (ri, rj) == (Role::Object, Role::Object) {
                                    push(i, j, home(i), &mut checks);
                                    push(i, j, home(j), &mut checks);
                                }
                            }
                        }
                    }
                }

                // Evaluate check queries at all relevant endpoints
                // (identical source lists for both patterns of a pair).
                let mut probes: Vec<(EndpointId, &CheckQuery)> = Vec::new();
                let mut pairs: Vec<(usize, usize)> = Vec::new();
                for (i, j, check) in &checks {
                    for &ep in sources.sources(&triples[*i]) {
                        probes.push((ep, check));
                        pairs.push(key(*i, *j));
                    }
                }
                let nonempty = probe::resolve::<probe::Check>(fed, net, cache, &probes);
                for (pair, nonempty) in pairs.into_iter().zip(nonempty) {
                    if nonempty {
                        analysis.conflicts.insert(pair);
                        is_gjv = true;
                    }
                }
            }
        }

        if is_gjv {
            analysis.gjvs.push(var.clone());
        }
    }
    analysis
}

/// Builds the paper's check query (Fig. 6): instances of `var` matching
/// `keep` that have **no** local match in `probe`. Constants (other than
/// the predicate) inside the probe pattern are replaced with fresh
/// variables; a known type constraint is added.
fn check_query(
    var: &str,
    keep: &TriplePattern,
    probe: &TriplePattern,
    type_info: Option<(usize, TermId)>,
    triples: &[TriplePattern],
) -> CheckQuery {
    // Probe pattern: keep the analyzed variable, the predicate, and any
    // variable shared with the kept pattern (preserving multi-variable
    // join correlation makes the NOT EXISTS stricter, i.e. strictly more
    // conservative); generalize constants and unrelated variables to
    // fresh names so the check is about *locality*, not specific values.
    let fresh = |tag: &str, t: &PatternTerm| -> PatternTerm {
        match t {
            PatternTerm::Var(v) if v == var || keep.mentions(v) => PatternTerm::Var(v.clone()),
            _ => PatternTerm::Var(format!("__chk_{tag}")),
        }
    };
    let inner = TriplePattern::new(fresh("s", &probe.s), probe.p.clone(), fresh("o", &probe.o));
    not_exists_probe(var, keep, inner, type_info, triples)
}

/// Builds the home-check probe used for object–object joins: instances of
/// `var` matching `keep` that are **not** the subject of any local triple.
/// A non-empty result means some instance is a remote reference whose home
/// endpoint may contribute further matches — the pair must not be grouped.
fn home_check_query(
    var: &str,
    keep: &TriplePattern,
    type_info: Option<(usize, TermId)>,
    triples: &[TriplePattern],
) -> CheckQuery {
    let inner = TriplePattern::new(
        PatternTerm::Var(var.to_string()),
        PatternTerm::Var("__chk_hp".to_string()),
        PatternTerm::Var("__chk_ho".to_string()),
    );
    not_exists_probe(var, keep, inner, type_info, triples)
}

/// `SELECT ?var { [?var rdf:type T .] keep FILTER NOT EXISTS { inner } }
/// LIMIT 1` — the shape both check builders share.
fn not_exists_probe(
    var: &str,
    keep: &TriplePattern,
    inner: TriplePattern,
    type_info: Option<(usize, TermId)>,
    triples: &[TriplePattern],
) -> CheckQuery {
    let mut outer = vec![keep.clone()];
    if let Some((ti, ty)) = type_info {
        let type_tp = &triples[ti];
        // Add the type constraint unless it *is* the kept pattern.
        if type_tp != keep {
            outer.insert(
                0,
                TriplePattern::new(
                    PatternTerm::Var(var.to_string()),
                    type_tp.p.clone(),
                    PatternTerm::Const(ty),
                ),
            );
        }
    }
    let mut pattern = GroupPattern::bgp(outer);
    pattern.not_exists.push(GroupPattern::bgp(vec![inner]));
    let query = Query {
        limit: Some(1),
        ..Query::select(vec![var.to_string()], pattern)
    };
    let sig = write_query_for_sig(&query);
    CheckQuery { query, sig }
}

/// A dictionary-free signature: serialize structure with raw term ids.
fn write_query_for_sig(q: &Query) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let tp = |t: &TriplePattern, s: &mut String| {
        for x in [&t.s, &t.p, &t.o] {
            match x {
                PatternTerm::Var(v) => {
                    let _ = write!(s, "?{v} ");
                }
                PatternTerm::Const(id) => {
                    let _ = write!(s, "#{} ", id.0);
                }
            }
        }
        s.push('|');
    };
    for t in &q.pattern.triples {
        tp(t, &mut s);
    }
    s.push_str("^^");
    for g in &q.pattern.not_exists {
        for t in &g.triples {
            tp(t, &mut s);
        }
    }
    s
}

/// Answers a check/home-check probe from offline statistics when the
/// probe's shape makes the summary *conclusive* — i.e. provably equal to
/// what evaluating the probe at the endpoint would return. `None` sends
/// the probe to the wire.
///
/// Both probe shapes built above are
/// `SELECT ?v { outer… FILTER NOT EXISTS { inner } } LIMIT 1` with a
/// single-triple NOT EXISTS group and plain BGPs throughout — any other
/// shape returns `None` unseen. The conclusive cases are:
///
/// 1. Some outer pattern is locally empty (its [`ask_pattern`] is
///    conclusively false) ⇒ the probe is empty, answer `false`.
/// 2. Home check (inner is `?v ?p ?o` where `?p`/`?o` are *fresh*:
///    distinct from `?v`, from each other, and unmentioned in the outer
///    patterns) with `?v` in subject position of some outer pattern ⇒
///    every binding of `?v` *is* a local subject, the NOT EXISTS
///    excludes all of them, answer `false`. (The type constraint has
///    this shape, so typed home checks are vacuous — a direct
///    consequence of the paper's Fig. 6 construction.) Freshness is
///    load-bearing: `check_query` preserves variables shared with the
///    kept pattern, so a repeated join variable reappears as the inner
///    object (`?v ?x ?v`), which only excludes self-referencing
///    subjects — not every local subject.
/// 3. Home check (same freshness requirement) with a single outer
///    `?a <p> ?v` ⇒ nonempty iff `p` has a *foreign* object (one that
///    is no local subject): [`objects_foreign`]`(p) > 0`.
/// 4. Set-difference check with a single outer `?v <pk> ?b` and an
///    uncorrelated inner `?v <pp> ?fresh` ⇒ nonempty iff some
///    characteristic set contains `pk` but not `pp` — exact because the
///    sets partition the endpoint's subjects:
///    [`any_signature_with_without`]`(pk, pp)`.
///
/// [`ask_pattern`]: lusail_store::EndpointStats::ask_pattern
/// [`objects_foreign`]: lusail_store::EndpointStats::objects_foreign
/// [`any_signature_with_without`]: lusail_store::EndpointStats::any_signature_with_without
pub(crate) fn stats_check_answer(stats: &lusail_store::EndpointStats, q: &Query) -> Option<bool> {
    let var = q.projection.first()?.as_str();
    // The reasoning below assumes the exact probe shape the builders
    // above produce; answer only that shape, never a partial view of a
    // richer pattern.
    let pat = &q.pattern;
    if !pat.filters.is_empty()
        || !pat.optionals.is_empty()
        || !pat.unions.is_empty()
        || pat.values.is_some()
    {
        return None;
    }
    let [group] = pat.not_exists.as_slice() else {
        return None;
    };
    let [inner] = group.triples.as_slice() else {
        return None;
    };
    if !group.filters.is_empty()
        || !group.optionals.is_empty()
        || !group.unions.is_empty()
        || !group.not_exists.is_empty()
        || group.values.is_some()
    {
        return None;
    }
    for tp in &pat.triples {
        if stats.ask_pattern(tp) == Some(false) {
            return Some(false);
        }
    }
    let outer_mentions = |name: &str| pat.triples.iter().any(|tp| tp.mentions(name));
    let home = inner.s.as_var() == Some(var)
        && match (inner.p.as_var(), inner.o.as_var()) {
            (Some(ip), Some(io)) => {
                ip != var && io != var && ip != io && !outer_mentions(ip) && !outer_mentions(io)
            }
            _ => false,
        };
    if home {
        if pat.triples.iter().any(|tp| tp.s.as_var() == Some(var)) {
            return Some(false);
        }
        if let [keep] = pat.triples.as_slice() {
            if keep.o.as_var() == Some(var) && keep.s.as_var().is_some() {
                if let Some(p) = keep.p.as_const() {
                    return Some(stats.objects_foreign(p) > 0);
                }
            }
        }
        return None;
    }
    let [keep] = pat.triples.as_slice() else {
        return None;
    };
    let (Some(ks), Some(pk), Some(kb)) = (keep.s.as_var(), keep.p.as_const(), keep.o.as_var())
    else {
        return None;
    };
    if ks != var || kb == var {
        return None;
    }
    let (Some(is_), Some(pp), Some(io)) = (inner.s.as_var(), inner.p.as_const(), inner.o.as_var())
    else {
        return None;
    };
    if is_ != var || io == var || io == kb {
        return None;
    }
    Some(stats.any_signature_with_without(pk, pp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source_selection::select_sources;
    use lusail_endpoint::{LocalEndpoint, RequestKind};
    use lusail_rdf::{Dictionary, Term};
    use lusail_sparql::parse_query;
    use lusail_store::TripleStore;
    use std::sync::Arc;

    /// Builds the paper's running example (Fig. 1): two universities.
    /// EP1 (MIT-like): all professors got their PhD locally; EP2 has Tim,
    /// whose PhD university (incl. its address) lives at EP1.
    fn universities() -> Federation {
        universities_with_locals().0
    }

    /// [`universities`] plus handles on the two local endpoints (the
    /// federation's trait objects hide their stores).
    fn universities_with_locals() -> (Federation, [Arc<LocalEndpoint>; 2]) {
        let dict = Dictionary::shared();
        let ub = |l: &str| Term::iri(format!("http://ub/{l}"));
        let e1 = |l: &str| Term::iri(format!("http://ep1/{l}"));
        let e2 = |l: &str| Term::iri(format!("http://ep2/{l}"));

        let mut ep1 = TripleStore::new(Arc::clone(&dict));
        // EP1: professor Joy advises Kim; Joy's PhD from CMU (local entity
        // with address); university MIT with address (referenced by EP2).
        ep1.insert_terms(&e1("Kim"), &ub("advisor"), &e1("Joy"));
        ep1.insert_terms(&e1("Kim"), &ub("takesCourse"), &e1("c1"));
        ep1.insert_terms(&e1("Joy"), &ub("teacherOf"), &e1("c1"));
        ep1.insert_terms(&e1("Joy"), &ub("type"), &ub("Professor"));
        ep1.insert_terms(&e1("Joy"), &ub("PhDDegreeFrom"), &e1("CMU"));
        ep1.insert_terms(&e1("CMU"), &ub("address"), &Term::lit("CCCC"));
        ep1.insert_terms(&e1("MIT"), &ub("address"), &Term::lit("XXX"));
        // Ann advises nobody yet but has joined; causes the ?P false
        // positive in the paper (advisor without teacherOf).
        ep1.insert_terms(&e1("Bob"), &ub("advisor"), &e1("Ann"));
        ep1.insert_terms(&e1("Bob"), &ub("takesCourse"), &e1("c2"));
        ep1.insert_terms(&e1("Ann"), &ub("type"), &ub("Professor"));
        ep1.insert_terms(&e1("Ann"), &ub("PhDDegreeFrom"), &e1("CMU"));

        let mut ep2 = TripleStore::new(Arc::clone(&dict));
        // EP2: Tim's PhD is from MIT — which lives at EP1 (the interlink).
        ep2.insert_terms(&e2("Lee"), &ub("advisor"), &e2("Tim"));
        ep2.insert_terms(&e2("Lee"), &ub("takesCourse"), &e2("c3"));
        ep2.insert_terms(&e2("Tim"), &ub("teacherOf"), &e2("c3"));
        ep2.insert_terms(&e2("Tim"), &ub("type"), &ub("Professor"));
        ep2.insert_terms(&e2("Tim"), &ub("PhDDegreeFrom"), &e1("MIT"));
        ep2.insert_terms(&e2("UoQ"), &ub("address"), &Term::lit("QQQ"));

        let locals = [
            Arc::new(LocalEndpoint::new("EP1", ep1)),
            Arc::new(LocalEndpoint::new("EP2", ep2)),
        ];
        let mut fed = Federation::new(dict);
        for local in &locals {
            fed.add(Arc::clone(local) as _);
        }
        (fed, locals)
    }

    fn qa(fed: &Federation) -> lusail_sparql::Query {
        parse_query(
            "PREFIX ub: <http://ub/> \
             SELECT ?S ?P ?U ?A WHERE { \
               ?S ub:advisor ?P . \
               ?S ub:takesCourse ?C . \
               ?P ub:PhDDegreeFrom ?U . \
               ?U ub:address ?A }",
            fed.dict(),
        )
        .unwrap()
    }

    fn analyze(fed: &Federation, q: &lusail_sparql::Query) -> GjvAnalysis {
        analyze_on(fed, q, &Net::default())
    }

    fn analyze_on(fed: &Federation, q: &lusail_sparql::Query, net: &Net) -> GjvAnalysis {
        let ask_cache = ProbeCache::new(true);
        let sources = select_sources(fed, &q.pattern, &ask_cache, net);
        let check_cache = ProbeCache::new(true);
        detect_gjvs(fed, &q.pattern.triples, &sources, &check_cache, net)
    }

    #[test]
    fn paper_example_detects_u_as_gjv_but_not_s() {
        let fed = universities();
        let q = qa(&fed);
        let analysis = analyze(&fed, &q);
        // ?U straddles EP1/EP2 (Tim's MIT) → global.
        assert!(analysis.gjvs.contains(&"U".to_string()), "{analysis:?}");
        // ?S is local everywhere (every advisee takes a course and vice
        // versa at the same endpoint) → not global.
        assert!(!analysis.gjvs.contains(&"S".to_string()), "{analysis:?}");
        // The conflicting pair is (PhDDegreeFrom, address) = indices 2,3.
        assert!(analysis.conflicting(2, 3));
        assert!(!analysis.conflicting(0, 1));
    }

    #[test]
    fn false_positive_on_p_is_allowed() {
        // The paper's ?P example: Ann advises but teaches nothing, so the
        // subject-only check for ?P over (advisor, teacherOf) reports a
        // difference although grouping would have been safe. Lusail accepts
        // this as a false positive.
        let fed = universities();
        let q = parse_query(
            "PREFIX ub: <http://ub/> \
             SELECT ?S ?P ?C WHERE { ?S ub:advisor ?P . ?P ub:teacherOf ?C }",
            fed.dict(),
        )
        .unwrap();
        let analysis = analyze(&fed, &q);
        assert!(analysis.gjvs.contains(&"P".to_string()));
    }

    #[test]
    fn colocated_subject_join_is_not_global() {
        let fed = universities();
        let q = parse_query(
            "PREFIX ub: <http://ub/> \
             SELECT * WHERE { ?S ub:advisor ?P . ?S ub:takesCourse ?C }",
            fed.dict(),
        )
        .unwrap();
        let analysis = analyze(&fed, &q);
        assert!(analysis.gjvs.is_empty(), "{analysis:?}");
        assert!(analysis.conflicts.is_empty());
    }

    #[test]
    fn source_mismatch_is_gjv_without_check_queries() {
        let dict = Dictionary::shared();
        let mut a = TripleStore::new(Arc::clone(&dict));
        a.insert_terms(
            &Term::iri("http://a/s"),
            &Term::iri("http://x/p1"),
            &Term::iri("http://a/v"),
        );
        let mut b = TripleStore::new(Arc::clone(&dict));
        b.insert_terms(
            &Term::iri("http://a/v"),
            &Term::iri("http://x/p2"),
            &Term::iri("http://b/o"),
        );
        let mut fed = Federation::new(dict);
        fed.add(Arc::new(LocalEndpoint::new("A", a)));
        fed.add(Arc::new(LocalEndpoint::new("B", b)));
        let q = parse_query(
            "SELECT * WHERE { ?s <http://x/p1> ?v . ?v <http://x/p2> ?o }",
            fed.dict(),
        )
        .unwrap();
        let net = Net::default();
        let analysis = analyze_on(&fed, &q, &net);
        assert_eq!(analysis.gjvs, ["v"]);
        assert!(analysis.conflicting(0, 1));
        assert_eq!(net.client.requests().get(RequestKind::Check), 0);
    }

    #[test]
    fn object_object_join_straddling_endpoints_is_global() {
        // Found by the differential fuzzer (seed 0x990cd70b12c5d084):
        // ep0 holds (e11 p0 e12), ep1 holds (e12 p0 e12). Both endpoints
        // bind ?v0 = e12, with empty mutual set differences — yet the
        // cross-endpoint combinations (?v2 at ep0 × ?v3 at ep1) exist, so
        // ?v0 must be global. The home check catches it: at ep0 the
        // instance e12 has no local subject triple.
        let dict = Dictionary::shared();
        let e = |l: &str| Term::iri(format!("http://fuzz/{l}"));
        let mut ep0 = TripleStore::new(Arc::clone(&dict));
        ep0.insert_terms(&e("e11"), &e("p0"), &e("e12"));
        let mut ep1 = TripleStore::new(Arc::clone(&dict));
        ep1.insert_terms(&e("e12"), &e("p0"), &e("e12"));
        let mut fed = Federation::new(dict);
        fed.add(Arc::new(LocalEndpoint::new("ep0", ep0)));
        fed.add(Arc::new(LocalEndpoint::new("ep1", ep1)));
        let q = parse_query(
            "SELECT * WHERE { ?v2 <http://fuzz/p0> ?v0 . ?v3 <http://fuzz/p0> ?v0 . }",
            fed.dict(),
        )
        .unwrap();
        let analysis = analyze(&fed, &q);
        assert_eq!(analysis.gjvs, ["v0"], "{analysis:?}");
        assert!(analysis.conflicting(0, 1));
    }

    #[test]
    fn object_object_join_on_homed_instances_stays_local() {
        // Every object instance is a local subject at the only endpoint
        // where it matches, so the home check is empty and the pair may be
        // grouped (each endpoint computes its own complete cross product).
        let dict = Dictionary::shared();
        let e = |l: &str| Term::iri(format!("http://fuzz/{l}"));
        let mut ep0 = TripleStore::new(Arc::clone(&dict));
        ep0.insert_terms(&e("a"), &e("p"), &e("x"));
        ep0.insert_terms(&e("b"), &e("q"), &e("x"));
        ep0.insert_terms(&e("x"), &e("r"), &Term::lit("home"));
        let mut ep1 = TripleStore::new(Arc::clone(&dict));
        ep1.insert_terms(&e("c"), &e("p"), &e("y"));
        ep1.insert_terms(&e("d"), &e("q"), &e("y"));
        ep1.insert_terms(&e("y"), &e("r"), &Term::lit("home"));
        let mut fed = Federation::new(dict);
        fed.add(Arc::new(LocalEndpoint::new("ep0", ep0)));
        fed.add(Arc::new(LocalEndpoint::new("ep1", ep1)));
        let q = parse_query(
            "SELECT * WHERE { ?s <http://fuzz/p> ?v . ?t <http://fuzz/q> ?v . }",
            fed.dict(),
        )
        .unwrap();
        let analysis = analyze(&fed, &q);
        assert!(analysis.gjvs.is_empty(), "{analysis:?}");
        assert!(analysis.conflicts.is_empty());
    }

    /// Mini-fuzz for [`stats_check_answer`]: across seeded random stores
    /// and every probe shape the detector builds, a conclusive local
    /// answer must equal evaluating the very same probe at the endpoint.
    /// (The public-API property test in `lusail-testkit` covers the
    /// ask/count paths; the check-probe builders are private to this
    /// module, so their soundness is pinned here.)
    #[test]
    fn stats_check_answers_match_wire_evaluation() {
        let mut conclusive = 0u32;
        let mut nonempty_seen = false;
        let mut empty_seen = false;
        for seed in 0..48u64 {
            let dict = Dictionary::shared();
            let e = |l: String| Term::iri(format!("http://fz/{l}"));
            let preds: Vec<Term> = (0..3).map(|i| e(format!("p{i}"))).collect();
            let ty = e("T".into());
            let type_pred = e("type".into());
            let mut st = TripleStore::new(Arc::clone(&dict));
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut rng = move || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 33
            };
            for s in 0..(rng() % 8) {
                let subj = e(format!("s{s}"));
                for (pi, p) in preds.iter().enumerate() {
                    if rng() % 2 == 0 {
                        let o = match rng() % 3 {
                            0 => e(format!("s{}", rng() % 8)),
                            1 => e(format!("o{}", rng() % 4)),
                            _ => Term::lit(format!("l{pi}")),
                        };
                        st.insert_terms(&subj, p, &o);
                    }
                }
                if rng() % 3 == 0 {
                    st.insert_terms(&subj, &type_pred, &ty);
                }
            }
            use lusail_endpoint::SparqlEndpoint;
            let stats = lusail_store::EndpointStats::build(&st);
            let ep = lusail_endpoint::LocalEndpoint::new("E", st);
            let pid: Vec<TermId> = preds.iter().map(|p| dict.encode(p)).collect();
            let ty_id = dict.encode(&ty);
            let v = |n: &str| PatternTerm::Var(n.to_string());
            let c = PatternTerm::Const;
            // The type pattern the detector would attach (index 0 of the
            // `triples` slice handed to the builders).
            let type_tp = TriplePattern::new(v("v"), c(dict.encode(&type_pred)), c(ty_id));
            let triples = [type_tp];
            let keeps = [
                TriplePattern::new(v("v"), c(pid[0]), v("b")),
                TriplePattern::new(v("a"), c(pid[0]), v("v")),
                TriplePattern::new(c(dict.encode(&e("s0".into()))), c(pid[0]), v("v")),
                TriplePattern::new(v("v"), c(pid[0]), v("v")),
                TriplePattern::new(v("v"), v("k"), v("b")),
            ];
            let mut queries: Vec<Query> = Vec::new();
            for keep in &keeps {
                for probe in [
                    TriplePattern::new(v("v"), c(pid[1]), v("x")),
                    TriplePattern::new(v("x"), c(pid[1]), v("v")),
                    TriplePattern::new(v("v"), c(pid[1]), v("b")),
                    // Variable-predicate probes: after `check_query`'s
                    // generalization these produce the home-shaped and
                    // correlated inner triples (`?v ?x ?v` repeats the
                    // join variable; `?b`/`?k` stay shared with the kept
                    // pattern) that route through — or must be rejected
                    // by — the home-detection branch.
                    TriplePattern::new(v("v"), v("x"), v("v")),
                    TriplePattern::new(v("v"), v("x"), v("a")),
                    TriplePattern::new(v("v"), v("x"), v("b")),
                    TriplePattern::new(v("a"), v("x"), v("v")),
                    TriplePattern::new(v("v"), v("b"), v("x")),
                    TriplePattern::new(v("v"), v("k"), v("x")),
                ] {
                    for type_info in [None, Some((0usize, ty_id))] {
                        queries.push(check_query("v", keep, &probe, type_info, &triples).query);
                    }
                }
                for type_info in [None, Some((0usize, ty_id))] {
                    queries.push(home_check_query("v", keep, type_info, &triples).query);
                }
            }
            for q in &queries {
                let Some(local) = stats_check_answer(&stats, q) else {
                    continue;
                };
                conclusive += 1;
                let wire = !ep.select(q).unwrap().is_empty();
                assert_eq!(
                    local, wire,
                    "seed {seed}: conclusive stats answer diverged from \
                     wire evaluation for {q:?}"
                );
                nonempty_seen |= wire;
                empty_seen |= !wire;
            }
        }
        // The sweep must actually exercise the conclusive paths, both ways.
        assert!(conclusive > 100, "only {conclusive} conclusive answers");
        assert!(nonempty_seen && empty_seen);
    }

    #[test]
    fn stats_elide_check_probes_without_changing_the_analysis() {
        let (fed, locals) = universities_with_locals();
        let q = qa(&fed);
        let checks = |net: &Net| net.client.requests().get(RequestKind::Check);
        let wire = Net::default();
        let baseline = analyze_on(&fed, &q, &wire);
        for (id, local) in locals.iter().enumerate() {
            let stats = lusail_store::EndpointStats::build(local.store());
            fed.attach_stats(id, Arc::new(stats));
        }
        let stats = Net::default();
        let with_stats = analyze_on(&fed, &q, &stats);
        assert_eq!(with_stats.gjvs, baseline.gjvs);
        assert_eq!(with_stats.conflicts, baseline.conflicts);
        // Some check probes were answered locally: strictly fewer wire
        // check requests than the baseline run issued.
        let (baseline_checks, stats_checks) = (checks(&wire), checks(&stats));
        assert!(
            stats_checks < baseline_checks,
            "stats run issued {stats_checks} check requests vs {baseline_checks}"
        );
    }

    #[test]
    fn variable_predicate_join_is_conservatively_global() {
        let fed = universities();
        let q = parse_query(
            "SELECT * WHERE { ?s ?p ?v . ?v <http://ub/address> ?a }",
            fed.dict(),
        )
        .unwrap();
        let analysis = analyze(&fed, &q);
        // ?v occurs with a variable-predicate pattern → conservative GJV
        // (or source-mismatch GJV, depending on data); either way global.
        assert!(analysis.gjvs.contains(&"v".to_string()));
    }
}
