//! Detecting global join variables (Algorithm 1 in the paper).
//!
//! A *global join variable* (GJV) is a variable shared by two triple
//! patterns that cannot be solved together by a single endpoint: either
//! the two patterns have different relevant sources, or the data instances
//! matching the variable in the two patterns are not co-located at some
//! endpoint.
//!
//! A joined pair whose two patterns have exactly one relevant source, the
//! same one, is local without a check (case 0 of `detect_gjvs`): every
//! triple matching either pattern lives at that endpoint, so their join
//! over the federation is their join there. This holds for any data and
//! any variable role, predicate position included. The paper's
//! Algorithm 1 checks such pairs too; FedX's exclusive groups rest on the
//! same argument.
//!
//! Co-location is established by *check queries* — lightweight
//! `{ … FILTER NOT EXISTS { … } }` existence probes computing the set
//! difference of the variable's instances under the two patterns (Fig. 6
//! in the paper), each a typed [`CheckQuery`] that travels as an `EXISTS`
//! member of its endpoint's one coalesced `SELECT`, the check kind's only
//! transport. For a variable appearing as object in `TPᵢ` and subject in
//! `TPⱼ`, one difference (`vᵢ − vⱼ`, evaluated at every relevant
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
//! subject's triples at its authority's endpoint — the setting of Fig. 1;
//! case 0 needs no such assumption);
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
use lusail_sparql::ast::{GroupPattern, PatternTerm, TriplePattern};

/// The result of GJV analysis over one basic graph pattern.
#[derive(Debug, Clone, Default)]
pub(crate) struct GjvAnalysis {
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

/// A check probe: is there an instance of `var` matching every `outer`
/// pattern of its [`CheckKey`] with no local match of its `inner` triple?
/// The wire sends [`CheckQuery::group`]; the memo keys it by `key`.
pub(crate) struct CheckQuery {
    pub(crate) var: String,
    pub(crate) key: CheckKey,
}

/// What a check probe asks, and its memo key: `outer` is the variable's
/// type constraint, if any, then the kept pattern; `inner` is the one
/// `NOT EXISTS` triple. The variable is named in the triples, not here;
/// constants are term ids, stable within a dictionary.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CheckKey {
    pub(crate) outer: Vec<TriplePattern>,
    pub(crate) inner: TriplePattern,
}

impl CheckQuery {
    /// `{ outer… FILTER NOT EXISTS { inner } }`.
    pub(crate) fn group(&self) -> GroupPattern {
        let mut group = GroupPattern::bgp(self.key.outer.clone());
        (group.not_exists).push(GroupPattern::bgp(vec![self.key.inner.clone()]));
        group
    }
}

/// The occurrences of one variable in the analyzed patterns.
type Occurrences = Vec<(usize, Role)>;

/// Runs Algorithm 1 over the triple patterns of one conjunctive block, in
/// three steps, so that all of its check queries travel in one wave:
///
/// 1. every variable's checks are built against the *static* conflicts
///    known so far — differing sources and predicate-position joins — in
///    variable order. A pair whose patterns share their one relevant source
///    is local (case 0, see the module docs): never fixed, checked or
///    conflicting. A failed COUNT only adds sources, so a degraded probe
///    can turn such a pair back into a checked one, never the reverse;
/// 2. one `probe::resolve` call answers them all (memo, then statistics,
///    then the wire; a failed check assumes the pair conflicting — a false
///    positive costs extra remote joins, never answers);
/// 3. Algorithm 1 is replayed in variable order over the answers. An answer
///    for a pair an earlier variable already made conflicting is ignored:
///    resolving one variable at a time, that check would not have been
///    asked.
///
/// The GJVs and conflicts are therefore the per-variable algorithm's; the
/// ignored checks' bytes are the price of the round trips saved.
pub(crate) fn detect_gjvs(
    fed: &Federation,
    triples: &[TriplePattern],
    sources: &SourceMap,
    cache: &ProbeCache<CheckKey, bool>,
    net: &Net,
) -> GjvAnalysis {
    let rdf_type = fed.dict().encode_iri(vocab::RDF_TYPE);

    // Step 1: each joining variable's static conflicts and checks.
    let mut known: FxHashSet<(usize, usize)> = FxHashSet::default();
    let mut steps: Vec<Step> = Vec::new();
    let local = |pair| one_source(sources, triples, pair);
    for (var, occurrences) in variable_occurrences(triples) {
        // Case 0: single-source pairs are local, in any role.
        let pairs: Vec<(usize, usize)> = (joined_pairs(&occurrences).into_iter())
            .filter(|&pair| !local(pair))
            .collect();
        if pairs.is_empty() {
            continue;
        }
        // Case 1 (lines 8–11): differing relevant sources ⇒ GJV, no check
        // queries needed for those pairs. Unlike the paper's Algorithm 1
        // (which skips all remaining checks once the variable is known
        // global), same-source pairs of the variable are still checked —
        // otherwise an unchecked pair could be grouped although its
        // instances straddle endpoints.
        let mut fixed: Vec<(usize, usize)> = (pairs.iter().copied())
            .filter(|&(i, j)| sources.sources(&triples[i]) != sources.sources(&triples[j]))
            .collect();
        known.extend(fixed.iter().copied());
        // Case 2: same sources everywhere — formulate check queries.
        // Predicate-position joins cannot be checked with the paper's probe
        // shapes; treat them conservatively as global.
        let checks = if occurrences.iter().any(|(_, r)| *r == Role::Predicate) {
            fixed.extend(pairs.iter().copied());
            known.extend(pairs);
            Vec::new()
        } else {
            let type_info = type_constraint(triples, rdf_type, &var);
            variable_checks(&var, &occurrences, triples, type_info, |pair| {
                local(pair) || known.contains(&pair)
            })
        };
        steps.push(Step { var, fixed, checks });
    }

    // Step 2: every check at every relevant endpoint of its pair (identical
    // source lists for both patterns), in one wave.
    let mut probes: Vec<(EndpointId, &CheckQuery)> = Vec::new();
    let mut asked: Vec<(usize, (usize, usize))> = Vec::new();
    for (step, Step { checks, .. }) in steps.iter().enumerate() {
        for (pair, check) in checks {
            for &ep in sources.sources(&triples[pair.0]) {
                probes.push((ep, check));
                asked.push((step, *pair));
            }
        }
    }
    let nonempty = probe::resolve::<probe::Check>(fed, net, cache, &probes);

    // Step 3: the replay.
    let mut analysis = GjvAnalysis::default();
    let mut answers = asked.into_iter().zip(nonempty).peekable();
    for (step, Step { var, fixed, .. }) in steps.into_iter().enumerate() {
        let mut is_gjv = !fixed.is_empty();
        analysis.conflicts.extend(fixed);
        while let Some(((_, pair), nonempty)) = answers.next_if(|((s, _), _)| *s == step) {
            // A pair already conflicting is not inserted: its answer is
            // ignored.
            if nonempty && analysis.conflicts.insert(pair) {
                is_gjv = true;
            }
        }
        if is_gjv {
            analysis.gjvs.push(var);
        }
    }
    analysis
}

/// Case 0 of [`detect_gjvs`]: both patterns of `pair` have exactly one
/// relevant source, the same one.
fn one_source(sources: &SourceMap, triples: &[TriplePattern], (i, j): (usize, usize)) -> bool {
    let at = sources.sources(&triples[i]);
    at.len() == 1 && at == sources.sources(&triples[j])
}

/// One joining variable's part of Algorithm 1 before the wave.
struct Step {
    var: String,
    /// Pairs conflicting without a check: differing sources, or every pair
    /// of a predicate-position variable.
    fixed: Vec<(usize, usize)>,
    checks: Vec<Check>,
}

/// A check query and the pattern pair it tests, as a [`key`].
type Check = ((usize, usize), CheckQuery);

/// Every variable of `triples` with its occurrences, in order of first
/// appearance.
fn variable_occurrences(triples: &[TriplePattern]) -> Vec<(String, Occurrences)> {
    let mut vars: Vec<(String, Occurrences)> = Vec::new();
    for (i, tp) in triples.iter().enumerate() {
        for (term, role) in [
            (&tp.s, Role::Subject),
            (&tp.p, Role::Predicate),
            (&tp.o, Role::Object),
        ] {
            let PatternTerm::Var(v) = term else {
                continue;
            };
            match vars.iter_mut().find(|(name, _)| name == v) {
                Some((_, occurrences)) => occurrences.push((i, role)),
                None => vars.push((v.clone(), vec![(i, role)])),
            }
        }
    }
    vars
}

/// The unordered pairs of distinct patterns a variable joins (a repeated
/// variable inside one pattern is a local constraint, not a join).
fn joined_pairs(occurrences: &Occurrences) -> Vec<(usize, usize)> {
    let mut idxs: Vec<usize> = occurrences.iter().map(|(i, _)| *i).collect();
    idxs.sort_unstable();
    idxs.dedup();
    let mut pairs = Vec::new();
    for (a, &i) in idxs.iter().enumerate() {
        pairs.extend(idxs[a + 1..].iter().map(|&j| (i, j)));
    }
    pairs
}

/// A known type constraint on `var`: `(?var rdf:type <T>)` with `T` constant.
fn type_constraint(
    triples: &[TriplePattern],
    rdf_type: TermId,
    var: &str,
) -> Option<(usize, TermId)> {
    triples.iter().enumerate().find_map(|(i, tp)| {
        let typed = tp.s.as_var() == Some(var) && tp.p.as_const() == Some(rdf_type);
        typed.then(|| tp.o.as_const().map(|class| (i, class)))?
    })
}

/// The check queries of one variable: one per (pair, [`CheckKey`]), for
/// each pair of its occurrences in distinct patterns that `settled` does
/// not already know to conflict.
fn variable_checks(
    var: &str,
    occurrences: &Occurrences,
    triples: &[TriplePattern],
    type_info: Option<(usize, TermId)>,
    settled: impl Fn((usize, usize)) -> bool,
) -> Vec<Check> {
    let mut checks: Vec<Check> = Vec::new();
    let difference = |keep: usize, probe: usize| {
        check_query(var, &triples[keep], &triples[probe], type_info, triples)
    };
    let home = |keep: usize| home_check_query(var, &triples[keep], type_info, triples);
    let mut push = |pair: (usize, usize), check: CheckQuery| {
        if !(checks.iter()).any(|(p, c)| *p == pair && c.key == check.key) {
            checks.push((pair, check));
        }
    };
    // Enumerate occurrence pairs. For an (object TPᵢ, subject TPⱼ) pair the
    // paper's single difference vᵢ − vⱼ suffices (the probe runs at every
    // relevant endpoint). For same-role pairs both differences are
    // checked. The paper skips same-role pairs when the variable also has a
    // mixed-role pair; checking them too is a strict superset — it can
    // only add (safe) conflicts.
    //
    // Object–object pairs need one probe beyond the paper's differences:
    // an object instance is a *reference* and may occur at several
    // endpoints, so empty mutual differences do not rule out a
    // cross-endpoint join (both endpoints bind the same value with
    // different subjects). Under entity partitioning a value that is a
    // local subject everywhere it matches is homed at a single endpoint
    // and thus cannot match at two; the home check asks for an instance
    // with **no** local subject triple and flags the pair when one exists.
    for a in 0..occurrences.len() {
        for &(j, rj) in &occurrences[a + 1..] {
            let (i, ri) = occurrences[a];
            let pair = key(i, j);
            if i == j || settled(pair) {
                // Same pattern, or already known to conflict: no check
                // query needed.
                continue;
            }
            match (ri, rj) {
                (Role::Object, Role::Subject) => push(pair, difference(i, j)),
                (Role::Subject, Role::Object) => push(pair, difference(j, i)),
                _ => {
                    push(pair, difference(i, j));
                    push(pair, difference(j, i));
                    if (ri, rj) == (Role::Object, Role::Object) {
                        push(pair, home(i));
                        push(pair, home(j));
                    }
                }
            }
        }
    }
    checks
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
            _ => fresh_var(tag, var, &[keep, probe]),
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
        fresh_var("hp", var, &[keep]),
        fresh_var("ho", var, &[keep]),
    );
    not_exists_probe(var, keep, inner, type_info, triples)
}

/// `?__chk_<tag>`, with `_` appended until neither `var` nor `patterns`
/// use the name: a probe's own variables never meet the query's.
fn fresh_var(tag: &str, var: &str, patterns: &[&TriplePattern]) -> PatternTerm {
    let mut name = format!("__chk_{tag}");
    while name == var || patterns.iter().any(|tp| tp.mentions(&name)) {
        name.push('_');
    }
    PatternTerm::Var(name)
}

/// `{ [?var rdf:type T .] keep FILTER NOT EXISTS { inner } }` — the shape
/// both check builders share.
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
    CheckQuery {
        var: var.to_string(),
        key: CheckKey { outer, inner },
    }
}

/// Answers a check/home-check probe from offline statistics when the
/// probe's shape makes the summary *conclusive* — i.e. provably equal to
/// what evaluating the probe at the endpoint would return. `None` sends
/// the probe to the wire.
///
/// Every probe is `{ outer… FILTER NOT EXISTS { inner } }` by its type:
/// plain triples outside and one triple inside. Which builder made it does
/// not matter; the cases read its parts. The conclusive cases are:
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
pub(crate) fn stats_check_answer(
    stats: &lusail_store::EndpointStats,
    check: &CheckQuery,
) -> Option<bool> {
    let (var, CheckKey { outer, inner }) = (check.var.as_str(), &check.key);
    if outer.iter().any(|tp| stats.ask_pattern(tp) == Some(false)) {
        return Some(false);
    }
    let outer_mentions = |name: &str| outer.iter().any(|tp| tp.mentions(name));
    let home = inner.s.as_var() == Some(var)
        && match (inner.p.as_var(), inner.o.as_var()) {
            (Some(ip), Some(io)) => {
                ip != var && io != var && ip != io && !outer_mentions(ip) && !outer_mentions(io)
            }
            _ => false,
        };
    if home {
        if outer.iter().any(|tp| tp.s.as_var() == Some(var)) {
            return Some(false);
        }
        if let [keep] = outer.as_slice() {
            if keep.o.as_var() == Some(var) && keep.s.as_var().is_some() {
                if let Some(p) = keep.p.as_const() {
                    return Some(stats.objects_foreign(p) > 0);
                }
            }
        }
        return None;
    }
    let [keep] = outer.as_slice() else {
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
    use lusail_endpoint::LocalEndpoint;
    use lusail_rdf::{Dictionary, SplitMix64, Term};
    use lusail_sparql::{parse_query, Query};
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
        analyze_with(fed, q, &ProbeCache::new())
    }

    /// [`analyze`] memoizing checks in `checks`, which then holds one entry
    /// per (check, endpoint) the wire answered.
    fn analyze_with(
        fed: &Federation,
        q: &lusail_sparql::Query,
        checks: &ProbeCache<CheckKey, bool>,
    ) -> GjvAnalysis {
        let net = Net::default();
        let sources = select_sources(fed, &q.pattern, &ProbeCache::<_, u64>::new(), &net);
        detect_gjvs(fed, &q.pattern.triples, &sources, checks, &net)
    }

    /// Algorithm 1 one variable at a time: one `probe::resolve` call per
    /// variable, and a pair an earlier variable made conflicting is not
    /// checked again. With `case_0`, [`detect_gjvs`] must replay it
    /// exactly; without, it is the paper's rule-free Algorithm 1, which
    /// checks single-source pairs too.
    fn per_variable_reference(
        fed: &Federation,
        triples: &[TriplePattern],
        sources: &SourceMap,
        cache: &ProbeCache<CheckKey, bool>,
        net: &Net,
        case_0: bool,
    ) -> GjvAnalysis {
        let mut analysis = GjvAnalysis::default();
        let rdf_type = fed.dict().encode_iri(vocab::RDF_TYPE);
        let local = |pair| case_0 && one_source(sources, triples, pair);
        for (var, occurrences) in variable_occurrences(triples) {
            let pairs: Vec<(usize, usize)> = (joined_pairs(&occurrences).into_iter())
                .filter(|&pair| !local(pair))
                .collect();
            if pairs.is_empty() {
                continue;
            }
            let mut is_gjv = false;
            for &(i, j) in &pairs {
                if sources.sources(&triples[i]) != sources.sources(&triples[j]) {
                    analysis.conflicts.insert((i, j));
                    is_gjv = true;
                }
            }
            if occurrences.iter().any(|(_, r)| *r == Role::Predicate) {
                analysis.conflicts.extend(pairs);
                is_gjv = true;
            } else {
                let type_info = type_constraint(triples, rdf_type, &var);
                let checks = variable_checks(&var, &occurrences, triples, type_info, |(i, j)| {
                    local((i, j)) || analysis.conflicting(i, j)
                });
                let mut probes = Vec::new();
                let mut asked = Vec::new();
                for (pair, check) in &checks {
                    for &ep in sources.sources(&triples[pair.0]) {
                        probes.push((ep, check));
                        asked.push(*pair);
                    }
                }
                let nonempty = probe::resolve::<probe::Check>(fed, net, cache, &probes);
                for (pair, nonempty) in asked.into_iter().zip(nonempty) {
                    if nonempty {
                        analysis.conflicts.insert(pair);
                        is_gjv = true;
                    }
                }
            }
            if is_gjv {
                analysis.gjvs.push(var);
            }
        }
        analysis
    }

    /// A small random federation: 2–3 endpoints over six entities, three
    /// predicates and two classes, with entities and references spread
    /// so that patterns often share sources and checks often differ.
    fn random_federation(rng: &mut SplitMix64) -> Federation {
        let dict = Dictionary::shared();
        let e = |i: usize| Term::iri(format!("http://g/e{i}"));
        let mut fed = Federation::new(Arc::clone(&dict));
        for ep in 0..2 + rng.below(2) {
            let mut st = TripleStore::new(Arc::clone(&dict));
            for _ in 0..3 + rng.below(10) {
                let s = e(rng.below(6));
                if rng.chance(0.2) {
                    let class = Term::iri(format!("http://g/T{}", rng.below(2)));
                    st.insert_terms(&s, &Term::iri(vocab::RDF_TYPE), &class);
                    continue;
                }
                let p = Term::iri(format!("http://g/p{}", rng.below(3)));
                let o = match rng.below(3) {
                    0 => Term::lit(format!("l{}", rng.below(3))),
                    _ => e(rng.below(6)),
                };
                st.insert_terms(&s, &p, &o);
            }
            fed.add(Arc::new(LocalEndpoint::new(format!("ep{ep}"), st)));
        }
        fed
    }

    /// A random BGP of 2–4 patterns over four variables: predicates are
    /// sometimes variables, objects often shared, subjects sometimes typed.
    fn random_bgp(rng: &mut SplitMix64, fed: &Federation) -> Vec<TriplePattern> {
        let dict = fed.dict();
        let var =
            |rng: &mut SplitMix64| PatternTerm::Var(["a", "b", "c", "d"][rng.below(4)].into());
        let iri = |text: String| PatternTerm::Const(dict.encode(&Term::iri(text)));
        (0..2 + rng.below(3))
            .map(|_| {
                let s = var(rng);
                if rng.chance(0.2) {
                    let class = iri(format!("http://g/T{}", rng.below(2)));
                    return TriplePattern::new(s, iri(vocab::RDF_TYPE.into()), class);
                }
                let p = match rng.chance(0.15) {
                    true => var(rng),
                    false => iri(format!("http://g/p{}", rng.below(3))),
                };
                let o = match rng.chance(0.15) {
                    true => iri(format!("http://g/e{}", rng.below(6))),
                    false => var(rng),
                };
                TriplePattern::new(s, p, o)
            })
            .collect()
    }

    #[test]
    fn one_wave_changes_no_plan() {
        let mut rng = SplitMix64::new(0x6A75);
        let (mut predicate_vars, mut object_pairs, mut typed, mut checked) = (0, 0, 0, 0);
        let (mut by_checks, mut ignored, mut one_source_pairs, mut removed) = (0, 0, 0, 0);
        for case in 0..400 {
            let fed = random_federation(&mut rng);
            let triples = random_bgp(&mut rng, &fed);
            let sources = select_sources(
                &fed,
                &GroupPattern::bgp(triples.clone()),
                &ProbeCache::<_, u64>::new(),
                &Net::default(),
            );
            // Nothing fails and no statistics are attached, so each memo
            // ends up holding one entry per (check, endpoint) its side asked.
            let (wave, reference) = (ProbeCache::new(), ProbeCache::new());
            let got = detect_gjvs(&fed, &triples, &sources, &wave, &Net::default());
            let want =
                per_variable_reference(&fed, &triples, &sources, &reference, &Net::default(), true);
            assert_eq!(got.gjvs, want.gjvs, "case {case}: {triples:?}");
            assert_eq!(got.conflicts, want.conflicts, "case {case}: {triples:?}");
            // The paper's Algorithm 1, which checks single-source pairs too:
            // case 0 only removes conflicts, and only single-source ones.
            let paper = per_variable_reference(
                &fed,
                &triples,
                &sources,
                &ProbeCache::new(),
                &Net::default(),
                false,
            );
            assert!(
                got.conflicts.is_subset(&paper.conflicts),
                "case {case}: {triples:?}"
            );
            for &pair in paper.conflicts.difference(&got.conflicts) {
                assert!(
                    one_source(&sources, &triples, pair),
                    "case {case}: {pair:?}"
                );
            }
            removed += (paper.conflicts.len() > got.conflicts.len()) as u32;
            assert!(
                got.gjvs.iter().all(|v| paper.gjvs.contains(v)),
                "case {case}"
            );

            let rdf_type = fed.dict().encode_iri(vocab::RDF_TYPE);
            let occurrences = variable_occurrences(&triples);
            for (var, occ) in &occurrences {
                let joins = !joined_pairs(occ).is_empty();
                let objects: FxHashSet<usize> = (occ.iter())
                    .filter(|(_, r)| *r == Role::Object)
                    .map(|(i, _)| *i)
                    .collect();
                predicate_vars += (joins && occ.iter().any(|(_, r)| *r == Role::Predicate)) as u32;
                object_pairs += (objects.len() > 1) as u32;
                typed += (joins && type_constraint(&triples, rdf_type, var).is_some()) as u32;
            }
            checked += (wave.len() > 0) as u32;
            ignored += (wave.len() > reference.len()) as u32;
            let mut fixed = FxHashSet::default();
            let mut settled_by_one_source = false;
            for (_, occ) in &occurrences {
                let predicate = occ.iter().any(|(_, r)| *r == Role::Predicate);
                for (i, j) in joined_pairs(occ) {
                    settled_by_one_source |= one_source(&sources, &triples, (i, j));
                    if predicate || sources.sources(&triples[i]) != sources.sources(&triples[j]) {
                        fixed.insert((i, j));
                    }
                }
            }
            by_checks += got.conflicts.iter().any(|pair| !fixed.contains(pair)) as u32;
            one_source_pairs += settled_by_one_source as u32;
        }
        for (what, n) in [
            ("joining predicate-position variables", predicate_vars),
            ("variables joining objects", object_pairs),
            ("joining typed variables", typed),
            ("cases with check queries", checked),
            ("cases with ignored answers", ignored),
            ("cases with conflicts from checks", by_checks),
            ("cases with a pair settled by one source", one_source_pairs),
            ("cases where one source removes a paper conflict", removed),
        ] {
            assert!(n >= 10, "{what}: only {n}");
        }
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
        let checks = ProbeCache::new();
        let analysis = analyze_with(&fed, &q, &checks);
        assert_eq!(analysis.gjvs, ["v"]);
        assert!(analysis.conflicting(0, 1));
        assert_eq!(checks.len(), 0, "a check went to the wire");
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
                // User variables named like the builders' fresh ones.
                TriplePattern::new(v("v"), c(pid[0]), v("__chk_o")),
                TriplePattern::new(v("__chk_ho"), c(pid[0]), v("v")),
            ];
            let mut checks: Vec<CheckQuery> = Vec::new();
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
                        checks.push(check_query("v", keep, &probe, type_info, &triples));
                    }
                }
                for type_info in [None, Some((0usize, ty_id))] {
                    checks.push(home_check_query("v", keep, type_info, &triples));
                }
            }
            for check in &checks {
                let Some(local) = stats_check_answer(&stats, check) else {
                    continue;
                };
                conclusive += 1;
                let wire = ep.ask(&Query::ask(check.group())).unwrap();
                assert_eq!(
                    local, wire,
                    "seed {seed}: conclusive stats answer diverged from \
                     wire evaluation for {:?}",
                    check.key
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
        let wire = ProbeCache::new();
        let baseline = analyze_with(&fed, &q, &wire);
        for (id, local) in locals.iter().enumerate() {
            let stats = lusail_store::EndpointStats::build(local.store());
            fed.attach_stats(id, Arc::new(stats));
        }
        let stats = ProbeCache::new();
        let with_stats = analyze_with(&fed, &q, &stats);
        assert_eq!(with_stats.gjvs, baseline.gjvs);
        assert_eq!(with_stats.conflicts, baseline.conflicts);
        // Some check probes were answered locally: strictly fewer checks
        // went to the wire (and into the memo) than in the baseline run.
        let (baseline_checks, stats_checks) = (wire.len(), stats.len());
        assert!(
            stats_checks < baseline_checks,
            "stats run sent {stats_checks} checks to the wire vs {baseline_checks}"
        );
    }

    /// A builder's fresh variable never takes a user variable's name: the
    /// difference check's inner `?v <q> ?__chk_o` would otherwise be
    /// correlated with the kept pattern's object and report a false
    /// conflict.
    #[test]
    fn renaming_a_variable_never_changes_the_analysis() {
        let dict = Dictionary::shared();
        let x = |l: &str| Term::iri(format!("http://x/{l}"));
        let mut store = TripleStore::new(Arc::clone(&dict));
        store.insert_terms(&x("v1"), &x("p"), &x("o1"));
        store.insert_terms(&x("v1"), &x("q"), &x("o2"));
        let mut fed = Federation::new(dict);
        fed.add(Arc::new(LocalEndpoint::new("E", store)));
        let analysis = |name: &str| {
            let text = format!("SELECT * {{ ?v <http://x/p> ?{name} . ?v <http://x/q> ?y }}");
            analyze(&fed, &parse_query(&text, fed.dict()).unwrap())
        };
        let (plain, colliding) = (analysis("z"), analysis("__chk_o"));
        assert_eq!(plain.gjvs, colliding.gjvs);
        assert_eq!(plain.conflicts, colliding.conflicts);
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
