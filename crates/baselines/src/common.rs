//! Machinery shared by the baseline engines: evaluation units (exclusive
//! groups), bound joins, and clause handling.

use lusail_core::exec::Net;
use lusail_core::source_selection::SourceMap;
use lusail_endpoint::{
    EndpointId, ExecOptions, Federation, FederationError, QueryOutcome, RequestPolicy, SystemClock,
    TraceEvent,
};
use lusail_rdf::FxHashSet;
use lusail_sparql::ast::{Expression, GroupPattern, Query, QueryForm, TriplePattern, ValuesBlock};
use lusail_sparql::SolutionSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// An evaluation unit: either an *exclusive group* (several patterns whose
/// only relevant source is one identical endpoint) or a single pattern.
#[derive(Debug, Clone)]
pub struct Unit {
    /// The unit's triple patterns.
    pub triples: Vec<TriplePattern>,
    /// Relevant endpoints.
    pub sources: Vec<EndpointId>,
    /// Filters pushed into the unit.
    pub filters: Vec<Expression>,
}

impl Unit {
    /// All variables of the unit.
    pub fn vars(&self) -> Vec<String> {
        lusail_sparql::ast::collect_pattern_vars(&self.triples)
    }

    /// Renders the unit as a SELECT over all its variables, with an
    /// optional bindings block.
    pub fn to_query(&self, values: Option<ValuesBlock>) -> Query {
        let mut pattern = GroupPattern::bgp(self.triples.clone());
        pattern.filters = self.filters.clone();
        pattern.values = values;
        Query {
            form: QueryForm::Select,
            distinct: false,
            projection: self.vars(),
            pattern,
            aggregates: Vec::new(),
            group_by: Vec::new(),
            having: Vec::new(),
            order_by: Vec::new(),
            limit: None,
        }
    }
}

/// The query driver all three baseline engines share: applies the
/// deadline override, builds the per-query [`Net`] from the options, runs
/// the engine's `execute_inner(net, loss)`, derives completeness from the
/// loss flag and the network's degradation record, closes the trace with
/// [`TraceEvent::QueryFinished`] and attaches the per-endpoint failure
/// report.
pub fn run_query(
    mut policy: RequestPolicy,
    fed: &Federation,
    opts: &ExecOptions,
    execute_inner: impl FnOnce(&Net, &AtomicBool) -> SolutionSet,
) -> Result<QueryOutcome, FederationError> {
    if fed.is_empty() {
        return Err(FederationError::EmptyFederation);
    }
    if let Some(deadline) = opts.deadline {
        policy.query_budget = deadline;
    }
    let net = Net::build(
        policy,
        Arc::new(SystemClock::default()),
        opts.trace.clone(),
        opts.thread_budget(),
        opts.on_health_transition.clone(),
    );
    let loss = AtomicBool::new(false);
    let solutions = execute_inner(&net, &loss);
    let complete = !loss.load(Ordering::Relaxed) && !net.degradation.data_loss();
    opts.trace.emit(|| TraceEvent::QueryFinished {
        rows: solutions.len(),
        complete,
    });
    Ok(QueryOutcome {
        solutions,
        complete,
        failures: net.client.report(fed),
    })
}

/// Groups patterns into FedX's exclusive groups: patterns whose relevant
/// source list is exactly one endpoint are merged per endpoint; everything
/// else becomes a singleton unit sent to all its sources.
pub fn exclusive_groups(triples: &[TriplePattern], sources: &SourceMap) -> Vec<Unit> {
    let mut units: Vec<Unit> = Vec::new();
    for tp in triples {
        let srcs = sources.sources(tp).to_vec();
        if srcs.len() == 1 {
            // Try to join an existing exclusive group for this endpoint.
            if let Some(u) = units
                .iter_mut()
                .find(|u| u.sources.len() == 1 && u.sources == srcs)
            {
                u.triples.push(tp.clone());
                continue;
            }
        }
        units.push(Unit {
            triples: vec![tp.clone()],
            sources: srcs,
            filters: Vec::new(),
        });
    }
    units
}

impl lusail_core::subquery::FilterTarget for Unit {
    fn mentions_var(&self, var: &str) -> bool {
        self.triples.iter().any(|t| t.mentions(var))
    }

    fn push_filter(&mut self, filter: Expression) {
        self.filters.push(filter);
    }
}

/// Pushes filters whose variables are all local to one unit; returns the
/// rest.
pub fn push_filters(filters: &[Expression], units: &mut [Unit]) -> Vec<Expression> {
    lusail_core::subquery::push_filters_into(filters, units)
}

/// FedX's variable-counting heuristic: order units so that each step binds
/// as many variables as possible — fewest *free* variables first, with
/// constants counting as bound, preferring exclusive groups on ties.
pub fn order_units(mut units: Vec<Unit>) -> Vec<Unit> {
    let mut ordered: Vec<Unit> = Vec::with_capacity(units.len());
    let mut bound: FxHashSet<String> = FxHashSet::default();
    while !units.is_empty() {
        let (idx, _) = units
            .iter()
            .enumerate()
            .min_by_key(|(_, u)| {
                let free = u
                    .vars()
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
        for v in u.vars() {
            bound.insert(v);
        }
        ordered.push(u);
    }
    ordered
}

/// Evaluates a unit, restricted to the `values` bindings if given: one
/// SELECT per relevant endpoint, dispatched through the net's budgeted
/// request handler (endpoints run in parallel up to the thread budget),
/// results concatenated in source order. An endpoint that fails (after the
/// client's retries) contributes nothing and raises the `loss` flag — the
/// engine reports the query incomplete instead of aborting.
pub fn fetch_unit(
    fed: &Federation,
    unit: &Unit,
    values: Option<ValuesBlock>,
    net: &Net,
    loss: &AtomicBool,
) -> SolutionSet {
    let q = unit.to_query(values);
    let tasks: Vec<(EndpointId, ())> = unit.sources.iter().map(|&ep| (ep, ())).collect();
    let results = net.handler.run(fed, tasks, |ep_id, _, _| {
        match net.client.select_failover(fed, ep_id, &q) {
            Ok((_, part)) => Some(part),
            Err(_) => {
                loss.store(true, Ordering::Relaxed);
                None
            }
        }
    });
    let mut out = SolutionSet::empty(unit.vars());
    for (_, _, part) in results {
        if let Some(part) = part {
            out.append(part);
        }
    }
    out
}

/// The left-deep unit pipeline FedX and HiBISCuS share: exclusive groups
/// over `sources` with the group's filters pushed in, variable-counting
/// order, the first unit fetched unbound and each later one bound-joined
/// in blocks of `block_size`, starting from the group's `VALUES` rows if
/// it has any. `limit` is the first-k cutoff; it reaches the last bound
/// join only when nothing downstream (nested clauses, leftover filters)
/// can drop or multiply rows. Returns the bindings and the filters no
/// unit could absorb.
pub fn evaluate_units(
    fed: &Federation,
    group: &GroupPattern,
    sources: &SourceMap,
    block_size: usize,
    limit: Option<usize>,
    net: &Net,
    loss: &AtomicBool,
) -> (SolutionSet, Vec<Expression>) {
    let mut units = exclusive_groups(&group.triples, sources);
    let global_filters = push_filters(&group.filters, &mut units);
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
            fetch_unit(fed, unit, None, net, loss)
        } else {
            let cutoff = limit.filter(|_| simple && i + 1 == units.len());
            bound_join(fed, &current, unit, block_size, cutoff, net, loss)
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
pub fn bound_join(
    fed: &Federation,
    current: &SolutionSet,
    unit: &Unit,
    block_size: usize,
    limit: Option<usize>,
    net: &Net,
    loss: &AtomicBool,
) -> SolutionSet {
    let unit_vars = unit.vars();
    let shared: Vec<String> = current
        .vars
        .iter()
        .filter(|v| unit_vars.contains(v))
        .cloned()
        .collect();
    if shared.is_empty() || current.is_empty() {
        // Cross product or empty input: fall back to unbound evaluation.
        let fetched = fetch_unit(fed, unit, None, net, loss);
        return current.hash_join(&fetched);
    }

    // Distinct binding tuples over the shared variables.
    let tuples = current.distinct_tuples(&shared);

    // Join distributes over the union of block results, so each block is
    // joined once and appended — no re-join over the accumulated set. The
    // block loop stays sequential (the first-k cutoff must see each
    // block's contribution before shipping the next); within a block the
    // per-endpoint requests fan out through the budgeted handler.
    let mut joined: Option<SolutionSet> = None;
    for rows in tuples.chunks(block_size) {
        let vb = ValuesBlock {
            vars: shared.clone(),
            rows,
        };
        let fetched = fetch_unit(fed, unit, Some(vb), net, loss);
        let block_join = current.hash_join(&fetched);
        match &mut joined {
            None => joined = Some(block_join),
            Some(j) => j.append(block_join),
        }
        if let Some(k) = limit {
            if joined.as_ref().is_some_and(|j| j.len() >= k) {
                return joined.unwrap();
            }
        }
    }
    joined.unwrap_or_else(|| current.hash_join(&SolutionSet::empty(unit_vars)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_endpoint::LocalEndpoint;
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
        let unit = Unit {
            triples: vec![TriplePattern::new(v("s"), PatternTerm::Const(p2id), v("o"))],
            sources: vec![0],
            filters: Vec::new(),
        };
        let net = Net::default();
        let loss = AtomicBool::new(false);
        let before = fed.stats_snapshot();
        let joined = bound_join(&fed, &current, &unit, 3, None, &net, &loss);
        let window = fed.stats_snapshot().since(&before);
        // 10 bindings / block 3 = 4 blocks = 4 requests.
        assert_eq!(window.select_requests, 4);
        assert_eq!(joined.len(), 5);
        assert!(!loss.load(Ordering::Relaxed));
        // Identical to evaluating unbound then joining.
        let unbound = fetch_unit(&fed, &unit, None, &net, &loss);
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
        let rest = push_filters(&[local, global.clone()], &mut units);
        assert_eq!(rest, vec![global]);
        assert_eq!(units[0].filters.len(), 1);
    }
}
