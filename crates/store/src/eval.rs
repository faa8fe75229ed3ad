//! The local SPARQL evaluator backing every endpoint.
//!
//! Evaluation strategy:
//!
//! * **BGP** — index nested-loop join over one plan. [`plan_bgp_order`]
//!   orders the triple patterns greedily by `(disconnected, free positions,
//!   estimated cardinality, textual position)`: a pattern sharing no
//!   variable with what is already bound is a Cartesian product and waits
//!   until nothing connected remains. The ordered patterns are compiled
//!   once, each position resolved to a constant or a column of a single
//!   binding array, and run as a **depth-first pipeline**: a match of
//!   pattern *k* is extended through patterns *k+1…* before the next match
//!   of *k* is looked at, and every complete binding goes to a *sink*.
//!   Three sinks exist: *collect* (one row per solution, with the pushed
//!   `LIMIT` — [`evaluate`], [`eval_group`]), *count* ([`count`] and
//!   `COUNT(*)`: nothing is allocated) and *first hit* ([`ask`]: a count
//!   that stops at one). The counting sinks sit on the pipeline only when
//!   the group is a bare BGP; otherwise the group is collected first. A
//!   projected `(EXISTS {…} AS ?a)` is a first hit too, and `COUNT`s over
//!   a `UNION` of bare BGPs are one count per branch (`count_branches`),
//!   so a request that coalesces many planning probes scans exactly the
//!   rows its members would have scanned one by one.
//!
//!   Depth-first visits solutions in the order a level-by-level expansion
//!   would list them — that order is "by match of pattern 1, then by match
//!   of pattern 2, …", which is what the recursion enumerates — so row
//!   sequences do not depend on the strategy, and nothing but the current
//!   binding is ever held. It is also why a `LIMIT` (or `ASK`) bounds every
//!   level: the pipeline stops the moment the sink has enough, where the
//!   level-by-level form had to finish every level but the last.
//! * **UNION** — branches evaluated independently, concatenated, then
//!   joined with the surrounding solutions.
//! * **OPTIONAL** — left join.
//! * **FILTER NOT EXISTS** — anti join on shared variables.
//! * **FILTER** — row predicate via the crate's `expr` module.

use crate::backend::StorageBackend;
use crate::expr::eval_filter;
use crate::store::ESTIMATE_CAP;
use lusail_rdf::TermId;
use lusail_sparql::ast::{GroupPattern, PatternTerm, Query, QueryForm, TriplePattern, ValuesBlock};
use lusail_sparql::solution::{JoinKind, JoinPredicate, SolutionSet};
use lusail_sparql::Rows;

/// Evaluates a query against a store, producing its solution set.
///
/// * For `SELECT`, applies aggregation, projection, `DISTINCT`, and
///   `LIMIT`; plain `COUNT`s over a bare BGP (or a `UNION` of them) —
///   `SELECT (COUNT(*) AS ?c)`, the cardinality probe, among them — are
///   answered on the count sink (`count_branches`).
/// * For `ASK`, returns a one-row/zero-row set over no variables.
/// * Projected `(EXISTS {…} AS ?alias)` tests become trailing columns
///   holding the `xsd:boolean` of one first-hit probe each.
pub fn evaluate(store: &dyn StorageBackend, q: &Query) -> SolutionSet {
    match &q.form {
        QueryForm::Ask => {
            if ask(store, q) {
                SolutionSet::unit()
            } else {
                SolutionSet::default()
            }
        }
        QueryForm::Select => {
            let sols = match count_branches(store, q) {
                Some(counted) => apply_modifiers_after_grouping(counted, q, store.dict()),
                None => {
                    let sols = eval_group(store, &q.pattern, q.first_k_limit());
                    apply_modifiers(sols, q, store.dict())
                }
            };
            with_exists_columns(store, q, sols)
        }
    }
}

/// Appends one boolean column per projected `EXISTS` test. A test is
/// uncorrelated (see [`ExistsTest`](lusail_sparql::ast::ExistsTest)), so it
/// has one value for every solution: a single *first hit* probe of its
/// group, appended to each row.
fn with_exists_columns(store: &dyn StorageBackend, q: &Query, sols: SolutionSet) -> SolutionSet {
    if q.exists.is_empty() {
        return sols;
    }
    let boolean = |b: bool| Some(store.dict().encode(&lusail_rdf::Term::boolean(b)));
    let (yes, no) = (boolean(true), boolean(false));
    let SolutionSet { mut vars, rows } = sols;
    vars.reserve_exact(q.exists.len());
    let mut row = Vec::with_capacity(vars.len() + q.exists.len());
    row.resize(vars.len(), None);
    for test in &q.exists {
        vars.push(test.alias.clone());
        row.push(match count_group(store, &test.group, Some(1)) {
            0 => no,
            _ => yes,
        });
    }
    let mut widened = Rows::default();
    for solution in rows.iter() {
        row[..solution.len()].copy_from_slice(solution);
        widened.push(&row);
    }
    SolutionSet {
        vars,
        rows: widened,
    }
}

/// `SELECT (COUNT(?v) AS ?c)… { {A} UNION {B} … }` without materialising a
/// row: when every aggregate is a plain `COUNT`, nothing is grouped, and
/// the pattern is one bare BGP or one `UNION` of them, a branch contributes
/// its solution count to `COUNT(*)` and to `COUNT(?v)` of every variable
/// its triples bind — each branch counted once, by the *count* sink.
/// `None` when the query is not of that shape (or a counted variable is
/// bound by a `VALUES` block alone, whose `UNDEF` cells this cannot see).
fn count_branches(store: &dyn StorageBackend, q: &Query) -> Option<SolutionSet> {
    use lusail_sparql::ast::AggFunc;
    let g = &q.pattern;
    let plain_counts = !q.aggregates.is_empty()
        && (q.aggregates.iter()).all(|a| a.func == AggFunc::Count && !a.distinct);
    if !plain_counts || !q.group_by.is_empty() || !q.projection.is_empty() {
        return None;
    }
    let branches: &[GroupPattern] = match g.unions.as_slice() {
        [] if is_simple(g) => std::slice::from_ref(g),
        [branches]
            if g.triples.is_empty()
                && g.filters.is_empty()
                && g.optionals.is_empty()
                && g.not_exists.is_empty()
                && g.values.is_none()
                && branches.iter().all(is_simple) =>
        {
            branches
        }
        _ => return None,
    };
    let binds = |b: &GroupPattern, v: &str| b.triples.iter().any(|tp| tp.mentions(v));
    let seeds = |b: &GroupPattern, v: &str| {
        (b.values.as_ref()).is_some_and(|values| values.vars.iter().any(|x| x == v))
    };
    if (q.aggregates.iter().filter_map(|a| a.var.as_deref()))
        .any(|v| branches.iter().any(|b| seeds(b, v) && !binds(b, v)))
    {
        return None;
    }
    let mut counts: Vec<Option<u64>> = vec![None; branches.len()];
    let cells = (q.aggregates.iter())
        .map(|a| {
            let n: u64 = (branches.iter().zip(&mut counts))
                .filter(|(b, _)| a.var.as_deref().is_none_or(|v| binds(b, v)))
                .map(|(b, n)| *n.get_or_insert_with(|| count_group(store, b, None)))
                .sum();
            Some(store.dict().encode(&lusail_rdf::Term::int(n as i64)))
        })
        .collect();
    Some(SolutionSet {
        vars: q.aggregates.iter().map(|a| a.alias.clone()).collect(),
        rows: Rows::from_cells(q.aggregates.len(), 1, cells),
    })
}

/// Applies a query's solution modifiers to already-computed pattern
/// solutions, in SPARQL's order: aggregation (GROUP BY + HAVING), ORDER
/// BY (over the *full* schema — sort keys need not be projected),
/// projection, DISTINCT, LIMIT. Shared by the local evaluator, the Lusail
/// engine, and the baseline engines.
pub fn apply_modifiers(sols: SolutionSet, q: &Query, dict: &lusail_rdf::Dictionary) -> SolutionSet {
    let sols = if q.aggregates.is_empty() {
        sols
    } else {
        apply_group_by(&sols, &q.group_by, &q.aggregates, dict)
    };
    apply_modifiers_after_grouping(sols, q, dict)
}

/// [`apply_modifiers`] from HAVING on, over solutions that are already
/// grouped and aggregated when the query aggregates.
fn apply_modifiers_after_grouping(
    mut sols: SolutionSet,
    q: &Query,
    dict: &lusail_rdf::Dictionary,
) -> SolutionSet {
    if !q.aggregates.is_empty() {
        // HAVING: aggregate aliases are ordinary columns at this point.
        retain_filtered(&mut sols, &q.having, dict);
        apply_order(&mut sols, &q.order_by, dict);
    } else {
        // ORDER BY before projection: its keys may be non-projected vars.
        apply_order(&mut sols, &q.order_by, dict);
        // Always project onto the query's output schema — `SELECT *` must
        // expose every pattern variable as a column even when the BGP
        // short-circuited to an empty result, and a query that projects
        // only `EXISTS` tests keeps its rows and none of their cells.
        let projection = q.output_vars();
        if !projection.is_empty() || !q.exists.is_empty() {
            sols = sols.into_projected(&projection);
        }
    }
    if q.distinct {
        sols.dedup();
    }
    if let Some(limit) = q.limit {
        sols.truncate(limit);
    }
    sols
}

/// Groups solutions by the `GROUP BY` keys and computes the aggregate
/// projection (`COUNT`/`SUM`/`MIN`/`MAX`/`AVG`). With no keys, everything
/// aggregates into a single row (SPARQL's implicit group). `COUNT` counts
/// bound values of its variable (or all rows for `*`); `SUM`/`AVG` skip
/// non-numeric bindings; `MIN`/`MAX` use numeric order when both sides are
/// numeric and term order otherwise.
pub(crate) fn apply_group_by(
    sols: &SolutionSet,
    group_by: &[String],
    aggregates: &[lusail_sparql::ast::Aggregate],
    dict: &lusail_rdf::Dictionary,
) -> SolutionSet {
    use lusail_rdf::FxHashMap;
    use lusail_sparql::ast::AggFunc;

    let key_cols: Vec<Option<usize>> = group_by.iter().map(|v| sols.col(v)).collect();
    let agg_cols: Vec<Option<usize>> = aggregates
        .iter()
        .map(|a| a.var.as_deref().and_then(|v| sols.col(v)))
        .collect();

    // Group rows by key; preserve first-seen group order. The keys are one
    // flat relation of their own and the table borrows its rows.
    let keys = sols.rows.project(&key_cols);
    let mut index: FxHashMap<&[Option<TermId>], usize> = FxHashMap::default();
    let mut groups: Vec<(&[Option<TermId>], Vec<usize>)> = Vec::new();
    if sols.is_empty() && group_by.is_empty() {
        // SPARQL: aggregating an empty solution sequence with no GROUP BY
        // yields one row (COUNT = 0).
        groups.push((&[], Vec::new()));
    }
    for (i, key) in keys.iter().enumerate() {
        let g = *index.entry(key).or_insert_with(|| {
            groups.push((key, Vec::new()));
            groups.len() - 1
        });
        groups[g].1.push(i);
    }

    let mut out_vars: Vec<String> = group_by.to_vec();
    out_vars.extend(aggregates.iter().map(|a| a.alias.clone()));
    let mut out = SolutionSet::empty(out_vars);

    for (key, members) in &groups {
        let mut row = key.to_vec();
        for (ai, agg) in aggregates.iter().enumerate() {
            let value: Option<TermId> = match agg.func {
                AggFunc::Count => {
                    let n = match agg_cols[ai] {
                        // COUNT(?v): bound values only, DISTINCT-aware.
                        Some(c) => {
                            if agg.distinct {
                                let set: lusail_rdf::FxHashSet<TermId> =
                                    members.iter().filter_map(|&i| sols.rows[i][c]).collect();
                                set.len() as i64
                            } else {
                                members
                                    .iter()
                                    .filter(|&&i| sols.rows[i][c].is_some())
                                    .count() as i64
                            }
                        }
                        // COUNT(*) — or COUNT of a var absent from the
                        // schema, which counts nothing.
                        None if agg.var.is_none() => members.len() as i64,
                        None => 0,
                    };
                    Some(dict.encode(&lusail_rdf::Term::int(n)))
                }
                AggFunc::Sum | AggFunc::Avg => {
                    let nums: Vec<f64> = agg_cols[ai]
                        .map(|c| {
                            members
                                .iter()
                                .filter_map(|&i| sols.rows[i][c])
                                .filter_map(|id| dict.decode(id).as_f64())
                                .collect()
                        })
                        .unwrap_or_default();
                    if agg.func == AggFunc::Avg && nums.is_empty() {
                        None
                    } else {
                        let total: f64 = nums.iter().sum();
                        let value = if agg.func == AggFunc::Avg {
                            total / nums.len() as f64
                        } else {
                            total
                        };
                        // Integral results stay integers for readability.
                        let term = if value.fract() == 0.0 && value.abs() < 1e15 {
                            lusail_rdf::Term::int(value as i64)
                        } else {
                            lusail_rdf::Term::Literal {
                                lexical: format!("{value}"),
                                lang: None,
                                datatype: Some(lusail_rdf::vocab::XSD_DECIMAL.to_string()),
                            }
                        };
                        Some(dict.encode(&term))
                    }
                }
                AggFunc::Min | AggFunc::Max => {
                    let mut best: Option<TermId> = None;
                    if let Some(c) = agg_cols[ai] {
                        for &i in members {
                            let Some(id) = sols.rows[i][c] else { continue };
                            best = Some(match best {
                                None => id,
                                Some(cur) => {
                                    let ord = compare_cells(Some(id), Some(cur), dict);
                                    let take = if agg.func == AggFunc::Min {
                                        ord == std::cmp::Ordering::Less
                                    } else {
                                        ord == std::cmp::Ordering::Greater
                                    };
                                    if take {
                                        id
                                    } else {
                                        cur
                                    }
                                }
                            });
                        }
                    }
                    best
                }
            };
            row.push(value);
        }
        out.rows.push(&row);
    }
    out
}

/// Joins a group's nested clauses into already-computed solutions:
/// `UNION` blocks (branch concatenation then join), `OPTIONAL` groups
/// (left join with correlated filters lifted into the join condition),
/// and `FILTER NOT EXISTS` groups (anti join, likewise correlated).
/// `eval_subgroup` supplies the evaluation of one nested group — the
/// local evaluator recurses into the store, the federated engines recurse
/// into their own pipelines.
pub fn join_nested_groups(
    mut sols: SolutionSet,
    group: &lusail_sparql::ast::GroupPattern,
    dict: &lusail_rdf::Dictionary,
    mut eval_subgroup: impl FnMut(&lusail_sparql::ast::GroupPattern) -> SolutionSet,
) -> SolutionSet {
    for branches in &group.unions {
        let mut union_sols: Option<SolutionSet> = None;
        for b in branches {
            let bs = eval_subgroup(b);
            match &mut union_sols {
                None => union_sols = Some(bs),
                Some(u) => u.append(bs),
            }
        }
        if let Some(u) = union_sols {
            sols = sols.hash_join(&u);
        }
    }
    for opt in &group.optionals {
        let (inner, correlated) = opt.split_correlated_filters();
        let os = eval_subgroup(&inner);
        sols = left_join_filtered(&sols, &os, &correlated, dict);
    }
    for ne in &group.not_exists {
        let (inner, correlated) = ne.split_correlated_filters();
        let ns = eval_subgroup(&inner);
        sols = anti_join_filtered(&sols, &ns, &correlated, dict);
    }
    sols
}

/// True when `row` (over `vars`) satisfies every filter.
fn passes(
    filters: &[lusail_sparql::ast::Expression],
    vars: &[String],
    row: &[Option<TermId>],
    dict: &lusail_rdf::Dictionary,
) -> bool {
    let ctx = (vars, row);
    filters.iter().all(|f| eval_filter(f, &ctx, dict))
}

/// Drops rows failing any of the filters (the FILTER / HAVING retain loop
/// shared by every engine).
pub fn retain_filtered(
    sols: &mut SolutionSet,
    filters: &[lusail_sparql::ast::Expression],
    dict: &lusail_rdf::Dictionary,
) {
    if filters.is_empty() {
        return;
    }
    let SolutionSet { vars, rows } = sols;
    rows.retain(|row| passes(filters, vars, row, dict));
}

/// [`SolutionSet::join`] with correlated filters as the pairing predicate.
fn join_filtered(
    left: &SolutionSet,
    right: &SolutionSet,
    kind: JoinKind,
    filters: &[lusail_sparql::ast::Expression],
    dict: &lusail_rdf::Dictionary,
) -> SolutionSet {
    let accept = |vars: &[String], row: &[Option<TermId>]| passes(filters, vars, row, dict);
    let accept: Option<JoinPredicate> = if filters.is_empty() {
        None
    } else {
        Some(&accept)
    };
    left.join(right, kind, accept)
}

/// SPARQL `LeftJoin(P1, P2, F)`: a left row extends with a compatible
/// right row only when the *merged* row satisfies every filter; left rows
/// with no surviving partner are kept with the right-hand columns
/// unbound. Needed for filters inside `OPTIONAL` that reference outer
/// variables (correlated filters); with no filters this is
/// [`SolutionSet::left_join`].
pub fn left_join_filtered(
    left: &SolutionSet,
    right: &SolutionSet,
    filters: &[lusail_sparql::ast::Expression],
    dict: &lusail_rdf::Dictionary,
) -> SolutionSet {
    join_filtered(left, right, JoinKind::Left, filters, dict)
}

/// `FILTER NOT EXISTS` with correlated filters: a left row is dropped
/// when some compatible right row makes the merged row satisfy every
/// filter. With no filters this is [`SolutionSet::anti_join`].
pub(crate) fn anti_join_filtered(
    left: &SolutionSet,
    right: &SolutionSet,
    filters: &[lusail_sparql::ast::Expression],
    dict: &lusail_rdf::Dictionary,
) -> SolutionSet {
    join_filtered(left, right, JoinKind::Anti, filters, dict)
}

/// Sorts solutions by `ORDER BY` keys: unbound first, then numeric order
/// when both values are numeric, then full term order.
pub fn apply_order(
    sols: &mut SolutionSet,
    keys: &[lusail_sparql::ast::OrderKey],
    dict: &lusail_rdf::Dictionary,
) {
    if keys.is_empty() {
        return;
    }
    let cols: Vec<(Option<usize>, bool)> = keys
        .iter()
        .map(|k| (sols.col(&k.var), k.descending))
        .collect();
    sols.rows.sort_by(|a, b| {
        for &(col, descending) in &cols {
            let Some(c) = col else { continue };
            let ord = compare_cells(a[c], b[c], dict);
            if ord != std::cmp::Ordering::Equal {
                return if descending { ord.reverse() } else { ord };
            }
        }
        std::cmp::Ordering::Equal
    });
}

fn compare_cells(
    a: Option<TermId>,
    b: Option<TermId>,
    dict: &lusail_rdf::Dictionary,
) -> std::cmp::Ordering {
    match (a, b) {
        (None, None) => std::cmp::Ordering::Equal,
        (None, Some(_)) => std::cmp::Ordering::Less,
        (Some(_), None) => std::cmp::Ordering::Greater,
        (Some(x), Some(y)) => {
            if x == y {
                return std::cmp::Ordering::Equal;
            }
            let tx = dict.decode(x);
            let ty = dict.decode(y);
            match (tx.as_f64(), ty.as_f64()) {
                (Some(nx), Some(ny)) => nx.total_cmp(&ny),
                _ => tx.cmp(&ty),
            }
        }
    }
}

/// Evaluates an `ASK`-style existence check for the query's pattern: the
/// *first hit* sink — a count that stops at one.
pub fn ask(store: &dyn StorageBackend, q: &Query) -> bool {
    count_group(store, &q.pattern, Some(1)) > 0
}

/// Counts the solutions of the query's pattern.
pub fn count(store: &dyn StorageBackend, q: &Query) -> u64 {
    count_group(store, &q.pattern, None)
}

/// True when the group is a bare BGP (plus `VALUES`): every binding the
/// pipeline completes is a final solution, so a limit or a counting sink
/// can sit directly on the pipeline.
fn is_simple(g: &GroupPattern) -> bool {
    g.filters.is_empty() && g.optionals.is_empty() && g.unions.is_empty() && g.not_exists.is_empty()
}

/// The number of solutions of a group, counting no further than `cap`. On a
/// simple group this is the *count* sink: no row is ever allocated.
///
/// An uncapped count of a single triple pattern is read off the index when
/// [`StorageBackend::estimate`] is exact for it, with no row scanned: always
/// for the fully bound, the `(?, p, ?)` and the all-free shape, and for the
/// other five whenever the estimate is below [`ESTIMATE_CAP`] — there the
/// BTree backend's capped range walk has seen every match, and the test
/// reads the same on the columnar backend, whose estimates are all exact.
fn count_group(store: &dyn StorageBackend, g: &GroupPattern, cap: Option<usize>) -> u64 {
    if !is_simple(g) {
        return eval_group(store, g, cap).len() as u64;
    }
    if let (None, None, [tp]) = (cap, &g.values, g.triples.as_slice()) {
        let repeated = (tp.vars().enumerate()).any(|(i, v)| tp.vars().take(i).any(|w| w == v));
        if !repeated {
            let (s, p, o) = (tp.s.as_const(), tp.p.as_const(), tp.o.as_const());
            let n = store.estimate(s, p, o);
            let always_exact = matches!(
                (s, p, o),
                (Some(_), Some(_), Some(_)) | (None, Some(_), None) | (None, None, None)
            );
            if always_exact || n < ESTIMATE_CAP {
                return n;
            }
        }
    }
    let mut n = 0usize;
    Pipeline::compile(store, g).run(store, g.values.as_ref(), &mut |_| {
        n += 1;
        cap.is_none_or(|cap| n < cap)
    });
    n as u64
}

/// Evaluates a group pattern. `limit` is an upper bound on the number of
/// rows the caller needs; it is only *pushed into* the pipeline when the
/// group is simple enough that early rows are final rows.
pub fn eval_group(
    store: &dyn StorageBackend,
    g: &GroupPattern,
    limit: Option<usize>,
) -> SolutionSet {
    let scan_limit = if is_simple(g) { limit } else { None };

    // The *collect* sink: every solution is copied to the tail of one
    // buffer — no allocation per solution, none per level.
    let pipeline = Pipeline::compile(store, g);
    let mut rows = Rows::default();
    pipeline.run(store, g.values.as_ref(), &mut |binding| {
        rows.push(binding);
        scan_limit.is_none_or(|l| rows.len() < l)
    });
    let mut sols = SolutionSet {
        vars: pipeline.vars.into_iter().map(str::to_string).collect(),
        rows,
    };

    sols = join_nested_groups(sols, g, store.dict(), |sub| eval_group(store, sub, None));
    retain_filtered(&mut sols, &g.filters, store.dict());

    if let Some(l) = limit {
        sols.truncate(l);
    }
    sols
}

/// Plans the evaluation order of a BGP's patterns. At each step the greedy
/// planner picks the remaining pattern with the smallest key
/// `(disconnected, free, estimate, position)`:
///
/// * `disconnected` — the pattern has variables and none of them is in the
///   bound set (the variables of the patterns chosen so far plus `bound`,
///   e.g. the `VALUES` variables). Joining it now would be a Cartesian
///   product, so it waits until no connected pattern remains — which only
///   happens when the BGP really has several components;
/// * `free` — its still-free positions (constants and bound variables
///   count as bound);
/// * `estimate` — the index-estimated cardinality of its constant
///   positions (bound variables vary per row and are left out);
/// * `position` — its place in the query text.
///
/// The returned indices are into `triples`. Boundness depends only on
/// which variables appear earlier in the chosen order — never on row
/// contents — so the plan is computed once up front, and pinned in tests.
pub fn plan_bgp_order(
    store: &dyn StorageBackend,
    triples: &[TriplePattern],
    bound: &[String],
) -> Vec<usize> {
    if triples.len() < 2 {
        // Nothing to order: every probe of a single pattern takes this exit.
        return (0..triples.len()).collect();
    }
    let estimates: Vec<u64> = (triples.iter())
        .map(|tp| store.estimate(tp.s.as_const(), tp.p.as_const(), tp.o.as_const()))
        .collect();
    let mut bound: Vec<&str> = bound.iter().map(String::as_str).collect();
    let mut remaining: Vec<usize> = (0..triples.len()).collect();
    let mut order = Vec::with_capacity(triples.len());
    while !remaining.is_empty() {
        let (best_pos, _) = (remaining.iter().enumerate())
            .map(|(pos, &i)| {
                let tp = &triples[i];
                let free = tp.vars().filter(|v| !bound.contains(v)).count();
                let disconnected = free > 0 && free == tp.vars().count();
                (pos, (disconnected, free, estimates[i]))
            })
            .min_by_key(|&(_, key)| key)
            .expect("remaining is non-empty");
        let i = remaining.remove(best_pos);
        for v in triples[i].vars() {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
        order.push(i);
    }
    order
}

/// Where a pattern position takes its value: a constant of the query, or a
/// column of the binding array — a bound variable when the cell is filled
/// at the time the pattern runs, a free one when it is not.
#[derive(Clone, Copy)]
enum Slot {
    Const(TermId),
    Col(usize),
}

/// A BGP compiled for execution: the patterns in plan order with every
/// position resolved to a [`Slot`], over the schema `vars` (the `VALUES`
/// variables, then each pattern's new variables in plan order).
struct Pipeline<'g> {
    vars: Vec<&'g str>,
    steps: Vec<[Slot; 3]>,
}

impl<'g> Pipeline<'g> {
    /// Orders the group's triple patterns ([`plan_bgp_order`]) and resolves
    /// their positions.
    fn compile(store: &dyn StorageBackend, g: &'g GroupPattern) -> Pipeline<'g> {
        let seeded: &[String] = g.values.as_ref().map_or(&[], |v| &v.vars);
        let mut vars: Vec<&str> = seeded.iter().map(String::as_str).collect();
        let steps = plan_bgp_order(store, &g.triples, seeded)
            .into_iter()
            .map(|i| {
                let tp = &g.triples[i];
                [&tp.s, &tp.p, &tp.o].map(|t| match t {
                    PatternTerm::Const(id) => Slot::Const(*id),
                    PatternTerm::Var(v) => {
                        Slot::Col(vars.iter().position(|x| x == v).unwrap_or_else(|| {
                            vars.push(v);
                            vars.len() - 1
                        }))
                    }
                })
            })
            .collect();
        Pipeline { vars, steps }
    }

    /// Hands every solution of the BGP to `sink`, as a binding over
    /// `self.vars`, until the sink returns `false`. Seeds are the borrowed
    /// `VALUES` rows (`UNDEF` cells stay free), or one empty binding.
    fn run(
        &self,
        store: &dyn StorageBackend,
        values: Option<&ValuesBlock>,
        sink: &mut dyn FnMut(&[Option<TermId>]) -> bool,
    ) {
        let mut binding = vec![None; self.vars.len()];
        let unseeded = Rows::unit();
        for seed in values.map_or(&unseeded, |v| &v.rows).iter() {
            binding[..seed.len()].copy_from_slice(seed);
            if !self.descend(store, 0, &mut binding, sink) {
                return;
            }
        }
    }

    /// Index nested-loop join, depth first: extends `binding` by every
    /// match of pattern `depth`, descending into the next pattern before
    /// moving to the next match, and hands the binding to `sink` once every
    /// pattern has matched. Cells bound at this level are cleared again on
    /// the way out. Returns `false` when the sink asked to stop.
    fn descend(
        &self,
        store: &dyn StorageBackend,
        depth: usize,
        binding: &mut [Option<TermId>],
        sink: &mut dyn FnMut(&[Option<TermId>]) -> bool,
    ) -> bool {
        let Some(step) = self.steps.get(depth) else {
            return sink(binding);
        };
        // The scan key, and the column each still-free position binds.
        let mut key = [None; 3];
        let mut free = [None; 3];
        for (i, slot) in step.iter().enumerate() {
            match *slot {
                Slot::Const(id) => key[i] = Some(id),
                Slot::Col(c) if binding[c].is_some() => key[i] = binding[c],
                Slot::Col(c) => free[i] = Some(c),
            }
        }
        store.scan(key[0], key[1], key[2], |t| {
            // A variable repeated within the pattern (`?x ?p ?x`) binds at
            // its first position and must agree at the later ones.
            let consistent = (free.iter().zip([t.s, t.p, t.o])).all(|(c, actual)| match *c {
                Some(c) => *binding[c].get_or_insert(actual) == actual,
                None => true,
            });
            let go_on = !consistent || self.descend(store, depth + 1, binding, sink);
            for c in free.into_iter().flatten() {
                binding[c] = None;
            }
            go_on
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TripleStore;
    use lusail_rdf::{Dictionary, Term};
    use lusail_sparql::parse_query;
    use std::sync::Arc;

    /// A small two-department graph for evaluator tests.
    fn fixture() -> TripleStore {
        let dict = Dictionary::shared();
        let mut st = TripleStore::new(dict);
        let data = [
            ("alice", "type", "Student"),
            ("bob", "type", "Student"),
            ("carol", "type", "Professor"),
            ("alice", "advisor", "carol"),
            ("bob", "advisor", "carol"),
            ("alice", "takesCourse", "db"),
            ("bob", "takesCourse", "os"),
            ("carol", "teacherOf", "db"),
            ("db", "type", "Course"),
            ("os", "type", "Course"),
        ];
        for (s, p, o) in data {
            st.insert_terms(
                &Term::iri(format!("http://u/{s}")),
                &Term::iri(format!("http://u/{p}")),
                &Term::iri(format!("http://u/{o}")),
            );
        }
        // Names as literals.
        st.insert_terms(
            &Term::iri("http://u/alice"),
            &Term::iri("http://u/name"),
            &Term::lit("Alice"),
        );
        st
    }

    fn run(st: &TripleStore, q: &str) -> SolutionSet {
        let query = parse_query(q, st.dict()).unwrap();
        evaluate(st, &query)
    }

    /// The group with its triple patterns written in other orders: reversed,
    /// and rotated by one. The evaluator owes all of them one multiset.
    pub(super) fn permutations(g: &GroupPattern) -> [GroupPattern; 2] {
        let mut reversed = g.clone();
        reversed.triples.reverse();
        let mut rotated = g.clone();
        if !rotated.triples.is_empty() {
            rotated.triples.rotate_left(1);
        }
        [reversed, rotated]
    }

    #[test]
    fn single_pattern() {
        let st = fixture();
        let s = run(
            &st,
            "SELECT ?x WHERE { ?x <http://u/type> <http://u/Student> }",
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn triangle_join() {
        let st = fixture();
        // Students taking a course taught by their advisor: only alice (db).
        let s = run(
            &st,
            "SELECT ?x ?c WHERE { ?x <http://u/advisor> ?p . ?x <http://u/takesCourse> ?c . ?p <http://u/teacherOf> ?c }",
        );
        assert_eq!(s.len(), 1);
        let dict = st.dict();
        let x = s.get(0, "x").unwrap();
        assert_eq!(*dict.decode(x), Term::iri("http://u/alice"));
    }

    #[test]
    fn optional_keeps_unmatched() {
        let st = fixture();
        let s = run(
            &st,
            "SELECT ?x ?n WHERE { ?x <http://u/type> <http://u/Student> . OPTIONAL { ?x <http://u/name> ?n } }",
        );
        assert_eq!(s.len(), 2);
        let bound: Vec<bool> = (0..2).map(|i| s.get(i, "n").is_some()).collect();
        assert_eq!(bound.iter().filter(|b| **b).count(), 1);
    }

    #[test]
    fn union_concatenates() {
        let st = fixture();
        let s = run(
            &st,
            "SELECT ?x WHERE { { ?x <http://u/type> <http://u/Student> } UNION { ?x <http://u/type> <http://u/Professor> } }",
        );
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn not_exists_excludes() {
        let st = fixture();
        // Students with no takesCourse triple: none (both take courses).
        let s = run(
            &st,
            "SELECT ?x WHERE { ?x <http://u/type> <http://u/Student> . FILTER NOT EXISTS { ?x <http://u/takesCourse> ?c } }",
        );
        assert_eq!(s.len(), 0);
        // Professors with no advisor triple pointing at them... check the
        // inverse direction: professors who take no course = carol.
        let s = run(
            &st,
            "SELECT ?x WHERE { ?x <http://u/type> <http://u/Professor> . FILTER NOT EXISTS { ?x <http://u/takesCourse> ?c } }",
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn filter_on_literal() {
        let st = fixture();
        let s = run(
            &st,
            "SELECT ?x WHERE { ?x <http://u/name> ?n . FILTER (?n = \"Alice\") }",
        );
        assert_eq!(s.len(), 1);
        let s = run(
            &st,
            "SELECT ?x WHERE { ?x <http://u/name> ?n . FILTER (?n = \"Nobody\") }",
        );
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn values_restricts() {
        let st = fixture();
        let s = run(
            &st,
            "SELECT ?x ?c WHERE { VALUES ?x { <http://u/alice> } ?x <http://u/takesCourse> ?c }",
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn distinct_and_limit() {
        let st = fixture();
        let s = run(&st, "SELECT DISTINCT ?p WHERE { ?x <http://u/advisor> ?p }");
        assert_eq!(s.len(), 1);
        let s = run(&st, "SELECT ?x WHERE { ?x ?p ?o } LIMIT 3");
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn ask_and_count() {
        let st = fixture();
        let q = parse_query("ASK { ?x <http://u/type> <http://u/Student> }", st.dict()).unwrap();
        assert!(ask(&st, &q));
        let q = parse_query("ASK { ?x <http://u/type> <http://u/Robot> }", st.dict()).unwrap();
        assert!(!ask(&st, &q));
        let q = parse_query(
            "SELECT (COUNT(*) AS ?c) WHERE { ?x <http://u/takesCourse> ?c2 }",
            st.dict(),
        )
        .unwrap();
        assert_eq!(count(&st, &q), 2);
    }

    #[test]
    fn count_query_returns_literal_row() {
        let st = fixture();
        let s = run(
            &st,
            "SELECT (COUNT(*) AS ?n) WHERE { ?x <http://u/advisor> ?p }",
        );
        assert_eq!(s.vars, ["n"]);
        let id = s.rows[0][0].unwrap();
        assert_eq!(*st.dict().decode(id), Term::int(2));
    }

    #[test]
    fn projected_exists_tests_are_constant_boolean_columns() {
        let st = fixture();
        let s = run(
            &st,
            "SELECT (EXISTS { ?x <http://u/type> <http://u/Student> } AS ?a0) \
             (EXISTS { ?x <http://u/type> <http://u/Robot> } AS ?a1) \
             (EXISTS { ?x <http://u/type> <http://u/Professor> \
                       FILTER NOT EXISTS { ?x <http://u/takesCourse> ?c } } AS ?a2) WHERE { }",
        );
        assert_eq!(
            (s.vars.as_slice(), s.len()),
            (&["a0", "a1", "a2"].map(String::from)[..], 1)
        );
        let cell =
            |sols: &SolutionSet, row, col: usize| st.dict().decode(sols.rows[row][col].unwrap());
        let got: Vec<_> = (0..3).map(|c| cell(&s, 0, c)).collect();
        assert_eq!(got, [true, false, true].map(|b| Arc::new(Term::boolean(b))));
        // Beside solutions of a pattern, every row carries the test's value;
        // without a plain projection the tests are the only columns.
        let s = run(
            &st,
            "SELECT ?s (EXISTS { ?x <http://u/teacherOf> ?y } AS ?a) WHERE { ?s <http://u/advisor> ?p }",
        );
        assert_eq!(
            (s.vars.as_slice(), s.len()),
            (&["s", "a"].map(String::from)[..], 2)
        );
        assert!((0..2).all(|row| *cell(&s, row, 1) == Term::boolean(true)));
        let s = run(
            &st,
            "SELECT (EXISTS { ?x <http://u/teacherOf> ?y } AS ?a) WHERE { ?s <http://u/advisor> ?p }",
        );
        assert_eq!((s.vars.as_slice(), s.len()), (&["a".to_string()][..], 2));
    }

    /// The generic route a plain-`COUNT` query takes when [`count_branches`]
    /// does not apply: collect, group, aggregate.
    fn counted_generically(st: &TripleStore, q: &Query) -> SolutionSet {
        apply_modifiers(eval_group(st, &q.pattern, None), q, st.dict())
    }

    #[test]
    fn counts_over_union_branches_match_the_generic_aggregation() {
        let st = fixture();
        for text in [
            // One branch per aggregate, own variables: the coalesced form.
            "SELECT (COUNT(?s0) AS ?c0) (COUNT(?s1) AS ?c1) (COUNT(?o2) AS ?c2) WHERE { \
               { ?s0 <http://u/type> ?o0 } UNION { ?s1 <http://u/advisor> ?o1 } \
               UNION { <http://u/alice> <http://u/name> ?o2 } }",
            // A variable two branches share, one no branch binds, `*`, and
            // a branch seeded by VALUES.
            "SELECT (COUNT(?x) AS ?n) (COUNT(?ghost) AS ?g) (COUNT(*) AS ?all) (COUNT(?c) AS ?k) WHERE { \
               { ?x <http://u/advisor> ?p } UNION { ?x <http://u/takesCourse> ?c } \
               UNION { VALUES ?p { <http://u/carol> UNDEF } ?z <http://u/advisor> ?p } }",
            // A bare BGP is a union of one.
            "SELECT (COUNT(?x) AS ?n) (COUNT(?c) AS ?k) WHERE { ?x <http://u/advisor> ?p . ?x <http://u/takesCourse> ?c }",
            // HAVING and LIMIT still apply to the one row.
            "SELECT (COUNT(?x) AS ?n) WHERE { { ?x <http://u/advisor> ?p } UNION { ?x <http://u/name> ?p } } HAVING (?n > 5)",
        ] {
            let q = parse_query(text, st.dict()).unwrap();
            let fast = count_branches(&st, &q).expect(text);
            assert_eq!(fast.rows.len(), 1, "{text}");
            assert_eq!(evaluate(&st, &q), counted_generically(&st, &q), "{text}");
        }
        // Not that shape: grouped, DISTINCT, another aggregate, a nested
        // clause beside the branches, a variable only VALUES binds.
        for text in [
            "SELECT ?p (COUNT(?x) AS ?n) WHERE { ?x <http://u/advisor> ?p } GROUP BY ?p",
            "SELECT (COUNT(DISTINCT ?p) AS ?n) WHERE { ?x <http://u/advisor> ?p }",
            "SELECT (MAX(?p) AS ?n) WHERE { ?x <http://u/advisor> ?p }",
            "SELECT (COUNT(?x) AS ?n) WHERE { ?x <http://u/advisor> ?p . { ?x <http://u/type> ?t } UNION { ?x <http://u/name> ?t } }",
            "SELECT (COUNT(?v) AS ?n) WHERE { VALUES ?v { <http://u/carol> UNDEF } ?x <http://u/advisor> ?p }",
        ] {
            let q = parse_query(text, st.dict()).unwrap();
            assert!(count_branches(&st, &q).is_none(), "{text}");
            assert_eq!(evaluate(&st, &q), counted_generically(&st, &q), "{text}");
        }
    }

    /// `SELECT (COUNT(*) AS ?c)` is a one-aggregate query like any other:
    /// its one cell is `count_group`'s figure for the same rows scanned,
    /// on the count sink for a bare BGP and through the generic aggregation
    /// for a pattern that is not simple.
    #[test]
    fn count_star_is_count_group_in_one_cell() {
        let btree = fixture();
        let columns = crate::columns::ColumnStore::from_store(&btree);
        let backends: [(&str, &dyn StorageBackend); 2] = [("btree", &btree), ("columns", &columns)];
        for (pattern, simple, n) in [
            (
                "?x <http://u/advisor> ?p . ?x <http://u/takesCourse> ?c",
                true,
                2,
            ),
            (
                "?x <http://u/type> ?t FILTER NOT EXISTS { ?x <http://u/advisor> ?p }",
                false,
                3,
            ),
        ] {
            let text = format!("SELECT (COUNT(*) AS ?c) WHERE {{ {pattern} }}");
            for (kind, store) in backends {
                let q = parse_query(&text, store.dict()).unwrap();
                assert_eq!(q, Query::count(q.pattern.clone()));
                assert_eq!(count_branches(store, &q).is_some(), simple, "{text}");

                let before = store.rows_scanned();
                let counted = count_group(store, &q.pattern, None);
                let count_scans = store.rows_scanned() - before;
                assert_eq!(counted, n, "{text}");

                let before = store.rows_scanned();
                let sols = evaluate(store, &q);
                let scans = store.rows_scanned() - before;
                assert_eq!(sols.vars, ["c"], "{text}");
                assert_eq!(sols.rows.len(), 1, "{text}");
                let cell = store.dict().decode(sols.rows[0][0].unwrap());
                assert_eq!(*cell, Term::int(n as i64), "{text}");
                assert_eq!(scans, count_scans, "{kind}: {text}");
            }
        }
    }

    /// `hub` and `big` sit on 200 triples each, far above the estimate cap;
    /// `leaf` and `small` on two.
    fn skewed() -> TripleStore {
        let x = |l: String| Term::iri(format!("http://u/{l}"));
        let mut st = TripleStore::new(Dictionary::shared());
        for i in 0..100 {
            st.insert_terms(&x("hub".into()), &x("p".into()), &x(format!("o{i}")));
            st.insert_terms(&x("hub".into()), &x(format!("q{i}")), &x("big".into()));
            st.insert_terms(&x(format!("s{i}")), &x("p".into()), &x("big".into()));
        }
        st.insert_terms(&x("leaf".into()), &x("p".into()), &x("small".into()));
        st.insert_terms(&x("leaf".into()), &x("r".into()), &x("small".into()));
        st
    }

    #[test]
    fn a_single_pattern_is_counted_off_the_index_when_the_estimate_is_exact() {
        let btree = skewed();
        let columns = crate::columns::ColumnStore::from_store(&btree);
        let u = "http://u";
        // (pattern, matches, rows a count scans).
        let cases = [
            // Exact on every backend whatever the size.
            ("?s ?p ?o".to_string(), 302, 0),
            ("?s <{u}/p> ?o".replace("{u}", u), 201, 0),
            ("<{u}/hub> <{u}/p> <{u}/o5>".replace("{u}", u), 1, 0),
            ("<{u}/hub> <{u}/p> <{u}/small>".replace("{u}", u), 0, 0),
            // The other five shapes: exact below the cap ...
            ("<{u}/leaf> ?p ?o".replace("{u}", u), 2, 0),
            ("?s ?p <{u}/small>".replace("{u}", u), 2, 0),
            ("<{u}/leaf> <{u}/p> ?o".replace("{u}", u), 1, 0),
            ("<{u}/leaf> ?p <{u}/small>".replace("{u}", u), 2, 0),
            ("?s <{u}/r> <{u}/small>".replace("{u}", u), 1, 0),
            // ... and scanned at or above it, where BTree estimates stop.
            ("<{u}/hub> ?p ?o".replace("{u}", u), 200, 200),
            ("?s ?p <{u}/big>".replace("{u}", u), 200, 200),
            ("<{u}/hub> <{u}/p> ?o".replace("{u}", u), 100, 100),
            ("<{u}/hub> ?p <{u}/big>".replace("{u}", u), 100, 100),
            ("?s <{u}/p> <{u}/big>".replace("{u}", u), 100, 100),
            // A repeated variable filters the matches: always scanned.
            ("?x <{u}/p> ?x".replace("{u}", u), 0, 201),
        ];
        let backends: [(&str, &dyn StorageBackend); 2] = [("btree", &btree), ("columns", &columns)];
        for (kind, store) in backends {
            for (tp, matches, scanned) in &cases {
                let q = parse_query(&format!("SELECT (COUNT(*) AS ?c) {{ {tp} }}"), store.dict());
                let q = q.unwrap();
                let before = store.rows_scanned();
                assert_eq!(count(store, &q), *matches, "{kind}: {tp}");
                let charged = store.rows_scanned() - before;
                assert_eq!(charged, *scanned, "{kind}: {tp} rows scanned");
                // The rule held to the scan it replaces.
                let t = &q.pattern.triples[0];
                let mut by_scan = 0;
                store.scan(t.s.as_const(), t.p.as_const(), t.o.as_const(), |m| {
                    by_scan += u64::from(t.s != t.o || m.s == m.o);
                    true
                });
                assert_eq!(by_scan, *matches, "{kind}: {tp} by scan");
                // ASK keeps the first-hit pipeline.
                let before = store.rows_scanned();
                assert_eq!(ask(store, &q), *matches > 0, "{kind}: {tp}");
                assert!(store.rows_scanned() - before <= 201, "{kind}: {tp}");
            }
        }
    }

    #[test]
    fn an_existence_test_stops_at_its_first_witness() {
        let mut st = TripleStore::new(Dictionary::shared());
        for i in 0..10_000 {
            st.insert_terms(
                &Term::iri(format!("http://u/s{i}")),
                &Term::iri("http://u/p"),
                &Term::iri(format!("http://u/o{}", i % 7)),
            );
        }
        let q = parse_query(
            "SELECT (EXISTS { ?s <http://u/p> ?o } AS ?a0) (EXISTS { ?s <http://u/p> <http://u/o3> } AS ?a1) \
             (EXISTS { ?s <http://u/absent> ?o } AS ?a2) WHERE { }",
            st.dict(),
        )
        .unwrap();
        let before = st.rows_scanned();
        let sols = evaluate(&st, &q);
        assert_eq!(sols.len(), 1);
        // One row per member that has a witness, none for the one without.
        assert_eq!(st.rows_scanned() - before, 2);
    }

    #[test]
    fn repeated_variable_in_pattern() {
        let dict = Dictionary::shared();
        let mut st = TripleStore::new(dict);
        st.insert_terms(
            &Term::iri("http://u/x"),
            &Term::iri("http://u/rel"),
            &Term::iri("http://u/x"),
        );
        st.insert_terms(
            &Term::iri("http://u/y"),
            &Term::iri("http://u/rel"),
            &Term::iri("http://u/z"),
        );
        let s = run(&st, "SELECT ?a WHERE { ?a <http://u/rel> ?a }");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn cartesian_product_of_disconnected_patterns() {
        let st = fixture();
        let s = run(
            &st,
            "SELECT ?a ?b WHERE { ?a <http://u/type> <http://u/Student> . ?b <http://u/type> <http://u/Course> }",
        );
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn empty_group_yields_one_empty_row() {
        let st = fixture();
        let s = run(&st, "SELECT * WHERE { }");
        assert_eq!(s.len(), 1);
        assert!(s.vars.is_empty());
    }

    #[test]
    fn ask_answer_is_one_row_of_no_cells() {
        let st = fixture();
        let yes = run(&st, "ASK { ?x <http://u/type> <http://u/Student> }");
        assert_eq!((yes.len(), yes.vars.len()), (1, 0));
        assert_eq!(yes, SolutionSet::unit());
        let no = run(&st, "ASK { ?x <http://u/type> <http://u/Robot> }");
        assert!(no.is_empty());
    }

    #[test]
    fn empty_group_is_the_identity_of_its_nested_joins() {
        let st = fixture();
        // The outer group has no pattern: its one empty solution left-joins
        // with both students, and survives a NOT EXISTS that finds nothing.
        let s = run(
            &st,
            "SELECT * WHERE { OPTIONAL { ?x <http://u/type> <http://u/Student> } }",
        );
        assert_eq!((s.len(), s.vars.len()), (2, 1));
        let s = run(
            &st,
            "SELECT * WHERE { FILTER NOT EXISTS { ?x <http://u/type> <http://u/Robot> } }",
        );
        assert_eq!((s.len(), s.get(0, "x")), (1, None));
        let s = run(
            &st,
            "SELECT * WHERE { FILTER NOT EXISTS { ?x <http://u/type> <http://u/Student> } }",
        );
        assert!(s.is_empty());
    }

    #[test]
    fn projection_of_missing_var_is_unbound() {
        let st = fixture();
        let s = run(&st, "SELECT ?ghost WHERE { ?x <http://u/advisor> ?p }");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0, "ghost"), None);
    }

    #[test]
    fn planner_starts_with_the_most_selective_pattern() {
        let st = fixture();
        let q = parse_query(
            "SELECT * WHERE { ?x <http://u/type> ?t . ?x <http://u/teacherOf> ?c . ?x <http://u/advisor> ?p }",
            st.dict(),
        )
        .unwrap();
        // teacherOf has 1 triple, advisor 2, type 5: the planner must lead
        // with teacherOf, then stay connected through ?x.
        let order = plan_bgp_order(&st, &q.pattern.triples, &[]);
        assert_eq!(order[0], 1);
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn planner_honors_seed_bindings_from_values() {
        let st = fixture();
        let q = parse_query(
            "SELECT * WHERE { ?x <http://u/type> ?t . ?x <http://u/name> ?n }",
            st.dict(),
        )
        .unwrap();
        // With ?t pre-bound (e.g. by VALUES), pattern 0 has one free
        // position against pattern 1's two, despite name (1 triple) being
        // rarer than type (5).
        let order = plan_bgp_order(&st, &q.pattern.triples, &["t".to_string()]);
        assert_eq!(order, vec![0, 1]);
        // Unseeded, both have two free positions and name's lower
        // cardinality wins.
        let order = plan_bgp_order(&st, &q.pattern.triples, &[]);
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn results_do_not_depend_on_the_textual_pattern_order() {
        let st = fixture();
        let q = "SELECT ?x ?c WHERE { ?x <http://u/advisor> ?p . ?x <http://u/takesCourse> ?c . ?p <http://u/teacherOf> ?c }";
        let query = parse_query(q, st.dict()).unwrap();
        let written = evaluate(&st, &query).canonicalize();
        assert_eq!(written.len(), 1);
        for permuted in permutations(&query.pattern) {
            let query = Query {
                pattern: permuted,
                ..query.clone()
            };
            assert_eq!(evaluate(&st, &query).canonicalize(), written);
        }
    }
}

/// The pipeline held to the evaluator it replaced.
#[cfg(test)]
mod pipeline_tests {
    use super::*;
    use crate::columns::ColumnStore;
    use crate::store::TripleStore;
    use lusail_rdf::{Dictionary, SplitMix64 as Rng, Triple};
    use std::sync::Arc;

    /// The breadth-first evaluator the pipeline replaced, kept as
    /// the reference: one materialised solution set per pattern, each row
    /// extended by an index scan, the limit applied to the last level only,
    /// and an empty level ending the evaluation (with that level's schema).
    fn reference_bgp(
        store: &dyn StorageBackend,
        g: &GroupPattern,
        limit: Option<usize>,
    ) -> SolutionSet {
        let mut sols = match &g.values {
            Some(v) => SolutionSet {
                vars: v.vars.clone(),
                rows: v.rows.clone(),
            },
            None => SolutionSet::unit(),
        };
        let order = plan_bgp_order(store, &g.triples, &sols.vars);
        for (k, &i) in order.iter().enumerate() {
            let row_cap = if k + 1 == order.len() { limit } else { None };
            sols = reference_extend(store, &sols, &g.triples[i], row_cap);
            if sols.is_empty() {
                return sols;
            }
        }
        sols
    }

    fn reference_extend(
        store: &dyn StorageBackend,
        sols: &SolutionSet,
        tp: &TriplePattern,
        limit: Option<usize>,
    ) -> SolutionSet {
        let mut vars = sols.vars.clone();
        for v in tp.vars() {
            if !vars.iter().any(|x| x == v) {
                vars.push(v.to_string());
            }
        }
        let mut out = SolutionSet::empty(vars);
        // A position is bound (`Ok`) or names the output column it fills.
        let resolve = |t: &PatternTerm, row: &[Option<TermId>]| -> Result<TermId, usize> {
            match t {
                PatternTerm::Const(id) => Ok(*id),
                PatternTerm::Var(v) => match sols.col(v).and_then(|c| row[c]) {
                    Some(id) => Ok(id),
                    None => Err((out.vars.iter().position(|x| x == v)).expect("var in schema")),
                },
            }
        };
        'rows: for row in sols.rows.iter() {
            let rs = resolve(&tp.s, row);
            let rp = resolve(&tp.p, row);
            let ro = resolve(&tp.o, row);
            let done = !store.scan(rs.ok(), rp.ok(), ro.ok(), |t| {
                let mut new_row = vec![None; out.vars.len()];
                new_row[..row.len()].copy_from_slice(row);
                for (r, actual) in [(&rs, t.s), (&rp, t.p), (&ro, t.o)] {
                    if let Err(c) = r {
                        match new_row[*c] {
                            None => new_row[*c] = Some(actual),
                            Some(prev) if prev == actual => {}
                            Some(_) => return true, // inconsistent; skip match
                        }
                    }
                }
                out.rows.push(&new_row);
                limit.is_none_or(|l| out.rows.len() < l)
            });
            if done {
                break 'rows;
            }
        }
        out
    }

    /// What the generated cases exercised (asserted at the end).
    #[derive(Default)]
    struct Coverage {
        repeated_var: usize,
        undef_cell: usize,
        empty_bgp: usize,
        empty_intermediate_level: usize,
        limit_saved_scans: usize,
        nonempty: usize,
    }

    /// Eight ids serve as subjects, predicates and objects alike, so every
    /// position joins with every other and `?x ?p ?x` has matches.
    fn random_triples(rng: &mut Rng) -> Vec<Triple> {
        (0..rng.below(40))
            .map(|_| {
                let mut id = || TermId(1 + rng.below(8) as u32);
                Triple::new(id(), id(), id())
            })
            .collect()
    }

    fn random_group(rng: &mut Rng, cov: &mut Coverage) -> GroupPattern {
        let term = |rng: &mut Rng| match rng.below(3) {
            0 => PatternTerm::Const(TermId(1 + rng.below(8) as u32)),
            _ => PatternTerm::Var(["a", "b", "c", "d"][rng.below(4)].to_string()),
        };
        let triples: Vec<TriplePattern> = (0..rng.below(5))
            .map(|_| TriplePattern::new(term(rng), term(rng), term(rng)))
            .collect();
        cov.empty_bgp += usize::from(triples.is_empty());
        cov.repeated_var += usize::from(triples.iter().any(|tp| {
            let vars: Vec<&str> = tp.vars().collect();
            (1..vars.len()).any(|i| vars[..i].contains(&vars[i]))
        }));
        let values = (rng.below(2) == 0).then(|| {
            // `e` occurs in no pattern: a seed column the BGP never touches.
            let vars: Vec<String> = (["a", "c", "e"].iter())
                .filter(|_| rng.below(2) == 0)
                .map(|v| v.to_string())
                .collect();
            let rows: Vec<Vec<Option<TermId>>> = (0..rng.below(4))
                .map(|_| {
                    (vars.iter())
                        .map(|_| (rng.below(4) > 0).then(|| TermId(1 + rng.below(8) as u32)))
                        .collect()
                })
                .collect();
            cov.undef_cell += usize::from(rows.iter().flatten().any(|cell| cell.is_none()));
            ValuesBlock {
                vars,
                rows: rows.into_iter().collect(),
            }
        });
        GroupPattern {
            triples,
            values,
            ..Default::default()
        }
    }

    #[test]
    fn pipeline_matches_the_breadth_first_reference() {
        let mut rng = Rng(0xE7A1);
        let mut cov = Coverage::default();
        for case in 0..400 {
            let dict = Dictionary::shared();
            let triples = random_triples(&mut rng);
            let mut btree = TripleStore::new(Arc::clone(&dict));
            for t in &triples {
                btree.insert(*t);
            }
            let columns = ColumnStore::from_store(&btree);
            let g = random_group(&mut rng, &mut cov);
            let query = Query::select_all(g.clone());
            let backends: [(&str, &dyn StorageBackend); 2] =
                [("btree", &btree), ("columns", &columns)];
            for (kind, store) in backends {
                let ctx = format!("case {case}, {kind}");
                let mut full_len = 0;
                for limit in [None, Some(1), Some(3)] {
                    let before = store.rows_scanned();
                    let mut want = reference_bgp(store, &g, limit);
                    let want_scans = store.rows_scanned() - before;
                    let before = store.rows_scanned();
                    let got = eval_group(store, &g, limit);
                    let got_scans = store.rows_scanned() - before;

                    if let Some(l) = limit {
                        want.truncate(l);
                    }
                    assert_eq!(got.rows, want.rows, "{ctx}, limit {limit:?}: row sequence");
                    if !want.is_empty() {
                        assert_eq!(got.vars, want.vars, "{ctx}, limit {limit:?}: schema");
                    }
                    match limit {
                        None => {
                            assert_eq!(got_scans, want_scans, "{ctx}: rows scanned");
                            full_len = got.len();
                            let short_circuited = want.vars.len() < got.vars.len();
                            cov.empty_intermediate_level += usize::from(short_circuited);
                            cov.nonempty += usize::from(!got.is_empty());
                            // The order the patterns are written in is not
                            // part of the answer.
                            let got = got.canonicalize();
                            for permuted in super::tests::permutations(&g) {
                                let other = eval_group(store, &permuted, None).canonicalize();
                                assert_eq!(other, got, "{ctx}: patterns as {:?}", permuted.triples);
                            }
                        }
                        Some(_) => {
                            assert!(got_scans <= want_scans, "{ctx}, limit {limit:?}");
                            cov.limit_saved_scans += usize::from(got_scans < want_scans);
                        }
                    }
                }
                assert_eq!(count(store, &query), full_len as u64, "{ctx}: count");
                assert_eq!(ask(store, &query), full_len > 0, "{ctx}: ask");
            }
        }
        assert!(
            cov.repeated_var > 20,
            "repeated variables: {}",
            cov.repeated_var
        );
        assert!(cov.undef_cell > 20, "UNDEF cells: {}", cov.undef_cell);
        assert!(cov.empty_bgp > 20, "empty BGPs: {}", cov.empty_bgp);
        assert!(
            cov.empty_intermediate_level > 20,
            "empty intermediate levels: {}",
            cov.empty_intermediate_level
        );
        assert!(
            cov.limit_saved_scans > 20,
            "limits that saved scans: {}",
            cov.limit_saved_scans
        );
        assert!(cov.nonempty > 200, "non-empty results: {}", cov.nonempty);
    }
}

#[cfg(test)]
mod order_tests {
    use super::*;
    use crate::store::TripleStore;
    use lusail_rdf::{Dictionary, Term};
    use lusail_sparql::parse_query;

    fn fixture() -> TripleStore {
        let dict = Dictionary::shared();
        let mut st = TripleStore::new(dict);
        for (name, age) in [("carol", 41), ("alice", 29), ("bob", 35)] {
            st.insert_terms(
                &Term::iri(format!("http://u/{name}")),
                &Term::iri("http://u/age"),
                &Term::int(age),
            );
            st.insert_terms(
                &Term::iri(format!("http://u/{name}")),
                &Term::iri("http://u/name"),
                &Term::lit(name),
            );
        }
        st
    }

    fn names_in_order(st: &TripleStore, q: &str) -> Vec<String> {
        let query = parse_query(q, st.dict()).unwrap();
        let sols = evaluate(st, &query);
        (0..sols.len())
            .map(|i| {
                st.dict()
                    .decode(sols.get(i, "n").unwrap())
                    .lexical()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn order_by_string_ascending() {
        let st = fixture();
        let names = names_in_order(&st, "SELECT ?n WHERE { ?x <http://u/name> ?n } ORDER BY ?n");
        assert_eq!(names, ["alice", "bob", "carol"]);
    }

    #[test]
    fn order_by_numeric_descending() {
        let st = fixture();
        let names = names_in_order(
            &st,
            "SELECT ?n ?a WHERE { ?x <http://u/name> ?n . ?x <http://u/age> ?a } ORDER BY DESC(?a)",
        );
        assert_eq!(names, ["carol", "bob", "alice"]);
    }

    #[test]
    fn order_by_with_limit_takes_smallest() {
        let st = fixture();
        let names = names_in_order(
            &st,
            "SELECT ?n ?a WHERE { ?x <http://u/name> ?n . ?x <http://u/age> ?a } ORDER BY ?a LIMIT 1",
        );
        assert_eq!(names, ["alice"]);
    }

    #[test]
    fn order_by_roundtrips_through_writer() {
        let st = fixture();
        let q = parse_query(
            "SELECT ?n WHERE { ?x <http://u/name> ?n } ORDER BY DESC(?n) ?x LIMIT 2",
            st.dict(),
        )
        .unwrap();
        let text = lusail_sparql::write_query(&q, st.dict());
        let q2 = parse_query(&text, st.dict()).unwrap();
        assert_eq!(q, q2);
    }

    /// `apply_order` and `retain_filtered` held to the `Vec<Row>` code they
    /// replaced: the same comparator under `Vec::sort_by`, the same
    /// predicate under `Vec::retain`.
    #[test]
    fn order_and_filter_match_the_row_vector_code() {
        use lusail_sparql::ast::{CmpOp, Expression, OrderKey};
        type Row = Vec<Option<TermId>>;
        let dict = Dictionary::shared();
        // Numbers that compare numerically, strings that compare as terms.
        let ids: Vec<TermId> = ([Term::int(7), Term::int(-3), Term::int(40)].iter())
            .chain(&[Term::lit("b"), Term::lit("a"), Term::iri("http://u/z")])
            .map(|t| dict.encode(t))
            .collect();
        let mut rng = lusail_rdf::SplitMix64(0x16_0020);
        let mut below = |n: usize| rng.below(n);
        let vars: Vec<String> = ["a", "b", "c"].iter().map(|v| v.to_string()).collect();
        let (mut reordered, mut dropped) = (0, 0);
        for case in 0..200 {
            let rows: Vec<Row> = (0..below(25))
                .map(|_| {
                    (0..3)
                        .map(|_| (below(5) > 0).then(|| ids[below(ids.len())]))
                        .collect()
                })
                .collect();
            let sols = SolutionSet {
                vars: vars.clone(),
                rows: rows.iter().cloned().collect(),
            };
            let owned =
                |s: &SolutionSet| -> Vec<Row> { s.rows.iter().map(<[_]>::to_vec).collect() };

            // `ghost` is not a column: such a key orders nothing.
            let keys: Vec<OrderKey> = (0..1 + below(3))
                .map(|_| OrderKey {
                    var: ["a", "b", "c", "ghost"][below(4)].to_string(),
                    descending: below(2) == 0,
                })
                .collect();
            let mut want = rows.clone();
            want.sort_by(|x, y| {
                for key in &keys {
                    let Some(c) = sols.col(&key.var) else {
                        continue;
                    };
                    let ord = compare_cells(x[c], y[c], &dict);
                    if ord != std::cmp::Ordering::Equal {
                        return if key.descending { ord.reverse() } else { ord };
                    }
                }
                std::cmp::Ordering::Equal
            });
            let mut got = sols.clone();
            apply_order(&mut got, &keys, &dict);
            assert_eq!(owned(&got), want, "case {case}: {keys:?}");
            reordered += usize::from(want != rows);

            let filters = [Expression::Cmp(
                CmpOp::Lt,
                Box::new(Expression::Var("a".into())),
                Box::new(Expression::Var("b".into())),
            )];
            let mut want = rows.clone();
            want.retain(|row| passes(&filters, &vars, row, &dict));
            let mut got = sols.clone();
            retain_filtered(&mut got, &filters, &dict);
            assert_eq!(owned(&got), want, "case {case}: filter");
            dropped += usize::from(want.len() < rows.len() && !want.is_empty());
        }
        assert!(reordered > 100, "sorts that moved a row: {reordered}");
        assert!(
            dropped > 50,
            "filters that kept some and dropped some: {dropped}"
        );
    }
}
