//! Machinery shared by the baseline engines: the query body, exclusive
//! groups, bound joins, and clause handling. The engines' work unit is
//! Lusail's [`Subquery`] (projecting every variable), and all their data
//! comes through `lusail_core::fetch`.

use lusail_core::exec::Net;
use lusail_core::fetch::fetch_from;
use lusail_core::source_selection::SourceMap;
use lusail_core::subquery::{push_filters_into, Subquery};
use lusail_endpoint::Federation;
use lusail_rdf::FxHashSet;
use lusail_sparql::ast::{Expression, GroupPattern, Query, TriplePattern, ValuesBlock};
use lusail_sparql::SolutionSet;

/// The query body the baseline engines share, run inside the query driver
/// (`lusail_core::exec::run_query`): the engine's `select_sources`, an
/// empty answer when a required pattern has no source, otherwise the
/// engine's `evaluate_group` (handed the first-k cutoff where one is
/// sound) and the query's modifiers.
pub fn answer(
    fed: &Federation,
    query: &Query,
    select_sources: impl FnOnce(&GroupPattern) -> SourceMap,
    evaluate_group: impl FnOnce(&GroupPattern, &SourceMap, Option<usize>) -> SolutionSet,
) -> SolutionSet {
    let sources = select_sources(&query.pattern);
    if sources.any_required_empty(&query.pattern.triples) {
        return SolutionSet::empty(query.output_vars());
    }
    let solutions = evaluate_group(&query.pattern, &sources, query.first_k_limit());
    lusail_store::eval::apply_modifiers(solutions, query, fed.dict())
}

/// Groups patterns into FedX's exclusive groups: patterns whose relevant
/// source list is exactly one endpoint are merged per endpoint; everything
/// else becomes a singleton unit sent to all its sources.
pub(crate) fn exclusive_groups(triples: &[TriplePattern], sources: &SourceMap) -> Vec<Subquery> {
    let mut units: Vec<Subquery> = Vec::new();
    for tp in triples {
        let srcs = sources.sources(tp).to_vec();
        if srcs.len() == 1 {
            // Try to join an existing exclusive group for this endpoint.
            if let Some(u) = units.iter_mut().find(|u| u.sources == srcs) {
                u.triples.push(tp.clone());
                u.projection = u.vars();
                continue;
            }
        }
        units.push(Subquery::new(vec![tp.clone()], srcs));
    }
    units
}

/// FedX's variable-counting heuristic: order units so that each step binds
/// as many variables as possible — fewest *free* variables first, with
/// constants counting as bound, preferring exclusive groups on ties.
pub(crate) fn order_units(mut units: Vec<Subquery>) -> Vec<Subquery> {
    let mut ordered: Vec<Subquery> = Vec::with_capacity(units.len());
    let mut bound: FxHashSet<String> = FxHashSet::default();
    while !units.is_empty() {
        let (idx, _) = units
            .iter()
            .enumerate()
            .min_by_key(|(_, u)| {
                let free = u
                    .projection
                    .iter()
                    .filter(|v| !bound.contains(v.as_str()))
                    .count();
                let consts: usize = u.triples.iter().map(|t| t.bound_positions()).sum();
                let exclusive = usize::from(u.sources.len() != 1);
                // Prefer: more bound vars, then exclusive groups, then
                // more constants.
                (free, exclusive, usize::MAX - consts)
            })
            .expect("non-empty units");
        let u = units.remove(idx);
        bound.extend(u.projection.iter().cloned());
        ordered.push(u);
    }
    ordered
}

/// `VALUES`-block shipping, the one copy the baselines share: the distinct
/// `shared` bindings of `current` go to every relevant endpoint of `unit`
/// in blocks of `block_size` (at least 1), one request per block per
/// endpoint. Yields each block's rows as the caller asks for them, so a
/// caller that stops early ships no further block; blocks go out one after
/// the other, and within a block the per-endpoint requests fan out through
/// the budgeted handler.
pub(crate) fn bound_fetch<'a>(
    fed: &'a Federation,
    net: &'a Net,
    current: &SolutionSet,
    unit: &'a Subquery,
    shared: &'a [String],
    block_size: usize,
) -> impl Iterator<Item = SolutionSet> + 'a {
    let blocks: Vec<_> = current
        .distinct_tuples(shared)
        .chunks(block_size.max(1))
        .collect();
    blocks.into_iter().map(move |rows| {
        let values = ValuesBlock {
            vars: shared.to_vec(),
            rows,
        };
        fetch_from(fed, net, &unit.to_query(Some(values)), &unit.sources)
    })
}

/// The variables of `current` that `unit` mentions: what a bound fetch
/// ships.
pub(crate) fn shared_vars(current: &SolutionSet, unit: &Subquery) -> Vec<String> {
    let mentioned = |v: &&String| unit.mentions(v);
    current.vars.iter().filter(mentioned).cloned().collect()
}

/// The left-deep unit pipeline FedX and HiBISCuS share: exclusive groups
/// over `sources` with the group's filters pushed in, variable-counting
/// order, the first unit fetched unbound and each later one bound-joined
/// in blocks of `block_size`, starting from the group's `VALUES` rows if
/// it has any. `limit` is the first-k cutoff; it reaches the last bound
/// join only when nothing downstream (nested clauses, leftover filters)
/// can drop or multiply rows. Returns the bindings and the filters no
/// unit could absorb.
pub(crate) fn evaluate_units(
    fed: &Federation,
    group: &GroupPattern,
    sources: &SourceMap,
    block_size: usize,
    limit: Option<usize>,
    net: &Net,
) -> (SolutionSet, Vec<Expression>) {
    let mut units = exclusive_groups(&group.triples, sources);
    let global_filters = push_filters_into(&group.filters, &mut units);
    let units = order_units(units);
    let simple = group.optionals.is_empty()
        && group.unions.is_empty()
        && group.not_exists.is_empty()
        && global_filters.is_empty();

    let mut current = match group.values {
        Some(ref v) => SolutionSet {
            vars: v.vars.clone(),
            rows: v.rows.clone(),
        },
        None => SolutionSet::unit(),
    };
    for (i, unit) in units.iter().enumerate() {
        let is_first = current.vars.is_empty() && current.len() == 1;
        current = if is_first {
            fetch_from(fed, net, &unit.to_query(None), &unit.sources)
        } else {
            let cutoff = limit.filter(|_| simple && i + 1 == units.len());
            bound_join(fed, &current, unit, block_size, cutoff, net)
        };
        if current.is_empty() {
            // Short-circuit: downstream joins cannot revive rows, but
            // OPTIONAL/UNION clauses may still contribute columns.
            break;
        }
    }
    (current, global_filters)
}

/// Block nested-loop **bound join** (FedX §4): ships the current
/// intermediate bindings of the shared variables in blocks of
/// `block_size`, one request per block per relevant endpoint, then joins
/// the retrieved rows back with the intermediate result locally.
///
/// When `limit` is `Some(k)`, block submission stops as soon as the joined
/// output reaches `k` rows — FedX's first-k cutoff (the reason it wins the
/// paper's C4).
pub(crate) fn bound_join(
    fed: &Federation,
    current: &SolutionSet,
    unit: &Subquery,
    block_size: usize,
    limit: Option<usize>,
    net: &Net,
) -> SolutionSet {
    let shared = shared_vars(current, unit);
    if shared.is_empty() || current.is_empty() {
        // Cross product or empty input: fall back to unbound evaluation.
        let fetched = fetch_from(fed, net, &unit.to_query(None), &unit.sources);
        return current.hash_join(&fetched);
    }
    // Join distributes over the union of block results, so each block is
    // joined once and appended — no re-join over the accumulated set. The
    // first-k cutoff sees each block's contribution before the next ships.
    let mut joined = current.hash_join(&SolutionSet::empty(unit.projection.clone()));
    for fetched in bound_fetch(fed, net, current, unit, &shared, block_size) {
        joined.append(current.hash_join(&fetched));
        if limit.is_some_and(|k| joined.len() >= k) {
            break;
        }
    }
    joined
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_endpoint::{ExecOptions, LocalEndpoint};
    use lusail_rdf::{Dictionary, Term, TermId};
    use lusail_sparql::ast::PatternTerm;
    use lusail_store::TripleStore;
    use std::sync::Arc;

    fn v(name: &str) -> PatternTerm {
        PatternTerm::Var(name.into())
    }

    fn c(id: u32) -> PatternTerm {
        PatternTerm::Const(TermId(id))
    }

    fn sm(entries: Vec<(TriplePattern, Vec<usize>)>) -> SourceMap {
        let mut m = SourceMap::default();
        for (tp, srcs) in entries {
            m.push_entry(tp, srcs);
        }
        m
    }

    #[test]
    fn exclusive_groups_merge_single_source_patterns() {
        let t1 = TriplePattern::new(v("a"), c(1), v("b"));
        let t2 = TriplePattern::new(v("b"), c(2), v("d"));
        let t3 = TriplePattern::new(v("d"), c(3), v("e"));
        let sources = sm(vec![
            (t1.clone(), vec![0]),
            (t2.clone(), vec![0]),
            (t3.clone(), vec![0, 1]),
        ]);
        let units = exclusive_groups(&[t1, t2, t3], &sources);
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].triples.len(), 2); // exclusive group at ep 0
        assert_eq!(units[0].projection, ["a", "b", "d"]); // of both patterns
        assert_eq!(units[1].sources, vec![0, 1]);
    }

    #[test]
    fn ordering_prefers_bound_and_exclusive() {
        let t1 = TriplePattern::new(v("a"), c(1), v("b")); // 2 free, multi-source
        let t2 = TriplePattern::new(v("b"), c(2), c(9)); // 1 free, single source
        let sources = sm(vec![(t1.clone(), vec![0, 1]), (t2.clone(), vec![0])]);
        let units = order_units(exclusive_groups(&[t1, t2.clone()], &sources));
        assert_eq!(units[0].triples[0], t2);
    }

    #[test]
    fn bound_join_ships_blocks_and_matches_plain_join() {
        // Endpoint with p2 triples for half the subjects.
        let dict = Dictionary::shared();
        let mut st = TripleStore::new(Arc::clone(&dict));
        let p2 = Term::iri("http://x/p2");
        for i in 0..10 {
            if i % 2 == 0 {
                st.insert_terms(
                    &Term::iri(format!("http://x/s{i}")),
                    &p2,
                    &Term::iri(format!("http://x/o{i}")),
                );
            }
        }
        let mut fed = Federation::new(Arc::clone(&dict));
        fed.add(Arc::new(LocalEndpoint::new("A", st)));

        // Intermediate bindings: all 10 subjects.
        let mut current = SolutionSet::empty(vec!["s".into()]);
        for i in 0..10 {
            let id = dict.encode(&Term::iri(format!("http://x/s{i}")));
            current.rows.push(&[Some(id)]);
        }
        let p2id = dict.encode(&p2);
        let unit = Subquery::new(
            vec![TriplePattern::new(v("s"), PatternTerm::Const(p2id), v("o"))],
            vec![0],
        );
        let net = Net::for_query(&fed, &ExecOptions::default());
        let before = fed.stats_snapshot();
        let joined = bound_join(&fed, &current, &unit, 3, None, &net);
        let window = fed.stats_snapshot().since(&before);
        // 10 bindings / block 3 = 4 blocks = 4 requests.
        assert_eq!(window.select_requests, 4);
        assert_eq!(joined.len(), 5);
        // No request failed or was retried, so no data was lost.
        assert!(net.client.report(&fed).is_empty());
        // Identical to evaluating unbound then joining.
        let unbound = fetch_from(&fed, &net, &unit.to_query(None), &unit.sources);
        assert_eq!(
            joined.canonicalize(),
            current.hash_join(&unbound).canonicalize()
        );
    }

    #[test]
    fn push_filters_splits_local_and_global() {
        let t1 = TriplePattern::new(v("a"), c(1), v("b"));
        let t2 = TriplePattern::new(v("x"), c(2), v("y"));
        let sources = sm(vec![(t1.clone(), vec![0]), (t2.clone(), vec![1])]);
        let mut units = exclusive_groups(&[t1, t2], &sources);
        let local = Expression::Bound("b".into());
        let global = Expression::Cmp(
            lusail_sparql::ast::CmpOp::Eq,
            Box::new(Expression::Var("b".into())),
            Box::new(Expression::Var("y".into())),
        );
        let rest = push_filters_into(&[local, global.clone()], &mut units);
        assert_eq!(rest, vec![global]);
        assert_eq!(units[0].filters.len(), 1);
    }
}
