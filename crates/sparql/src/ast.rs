//! The SPARQL query algebra used throughout the workspace.
//!
//! The shapes here are deliberately *flattened*: a [`GroupPattern`] holds its
//! basic graph pattern (the conjunctive triple patterns) alongside filters,
//! optionals, unions, `FILTER NOT EXISTS` groups and an optional `VALUES`
//! block. This is the shape Lusail's locality-aware decomposition (LADE)
//! operates on directly.

use crate::rows::Rows;
use lusail_rdf::TermId;

/// A position in a triple pattern: either a variable (by name, without the
/// leading `?`) or a constant term (dictionary-encoded).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PatternTerm {
    /// A query variable, e.g. `?s` is `Var("s".into())`.
    Var(String),
    /// A constant RDF term.
    Const(TermId),
}

impl PatternTerm {
    /// The variable name, if this position is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            PatternTerm::Var(v) => Some(v),
            PatternTerm::Const(_) => None,
        }
    }

    /// The constant term id, if this position is a constant.
    pub fn as_const(&self) -> Option<TermId> {
        match self {
            PatternTerm::Var(_) => None,
            PatternTerm::Const(id) => Some(*id),
        }
    }

    /// True if this position is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, PatternTerm::Var(_))
    }
}

/// A triple pattern `subject predicate object`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TriplePattern {
    /// Subject position.
    pub s: PatternTerm,
    /// Predicate position.
    pub p: PatternTerm,
    /// Object position.
    pub o: PatternTerm,
}

impl TriplePattern {
    /// Creates a triple pattern.
    pub fn new(s: PatternTerm, p: PatternTerm, o: PatternTerm) -> Self {
        TriplePattern { s, p, o }
    }

    /// Iterates over the variable names appearing in this pattern
    /// (duplicates possible, e.g. `?x ?p ?x`).
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        [&self.s, &self.p, &self.o]
            .into_iter()
            .filter_map(|t| t.as_var())
    }

    /// True if `var` occurs anywhere in the pattern.
    pub fn mentions(&self, var: &str) -> bool {
        self.vars().any(|v| v == var)
    }

    /// Number of bound (constant) positions — a crude selectivity proxy.
    pub fn bound_positions(&self) -> usize {
        [&self.s, &self.p, &self.o]
            .into_iter()
            .filter(|t| !t.is_var())
            .count()
    }
}

/// Collects the distinct variable names of a set of triple patterns, in
/// first-appearance order (the shared "all variables of these patterns"
/// loop used by subqueries and evaluation units alike).
pub fn collect_pattern_vars<'a>(
    patterns: impl IntoIterator<Item = &'a TriplePattern>,
) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for tp in patterns {
        for v in tp.vars() {
            if !out.iter().any(|x| x == v) {
                out.push(v.to_string());
            }
        }
    }
    out
}

/// Comparison operators in FILTER expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A FILTER expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expression {
    /// A variable reference.
    Var(String),
    /// A constant term.
    Const(TermId),
    /// Binary comparison. Numeric comparison is used when both sides have
    /// numeric interpretations, otherwise term/lexicographic comparison.
    Cmp(CmpOp, Box<Expression>, Box<Expression>),
    /// Logical conjunction.
    And(Box<Expression>, Box<Expression>),
    /// Logical disjunction.
    Or(Box<Expression>, Box<Expression>),
    /// Logical negation.
    Not(Box<Expression>),
    /// `BOUND(?v)`.
    Bound(String),
    /// `REGEX(expr, pattern, flags)`; only substring patterns and the `i`
    /// flag are supported (that is what the benchmark queries use).
    Regex(Box<Expression>, String, bool),
    /// `CONTAINS(expr, literal)`.
    Contains(Box<Expression>, String),
    /// `STR(expr)` — the lexical form.
    Str(Box<Expression>),
    /// `LANG(expr)` — the language tag or empty string.
    Lang(Box<Expression>),
    /// `LANGMATCHES(expr, range)`; `*` matches any non-empty tag.
    LangMatches(Box<Expression>, String),
}

impl Expression {
    /// Collects the names of all variables referenced by the expression.
    pub fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Expression::Var(v) | Expression::Bound(v) => {
                if !out.iter().any(|x| x == v) {
                    out.push(v.clone());
                }
            }
            Expression::Const(_) => {}
            Expression::Cmp(_, a, b) | Expression::And(a, b) | Expression::Or(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expression::Not(a)
            | Expression::Regex(a, _, _)
            | Expression::Contains(a, _)
            | Expression::Str(a)
            | Expression::Lang(a)
            | Expression::LangMatches(a, _) => a.collect_vars(out),
        }
    }

    /// The set of variables referenced by the expression.
    pub fn vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }
}

/// An inline `VALUES` data block.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValuesBlock {
    /// The block's variables, in column order.
    pub vars: Vec<String>,
    /// Rows, `vars.len()` cells each; `None` encodes `UNDEF`.
    pub rows: Rows,
}

/// A group graph pattern (the content of `{ … }`), flattened.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupPattern {
    /// The basic graph pattern: conjunctive triple patterns.
    pub triples: Vec<TriplePattern>,
    /// `FILTER (…)` expressions scoped to this group.
    pub filters: Vec<Expression>,
    /// `OPTIONAL { … }` groups, left-joined in order.
    pub optionals: Vec<GroupPattern>,
    /// `{…} UNION {…} (UNION {…})*` blocks; each entry lists the branches.
    pub unions: Vec<Vec<GroupPattern>>,
    /// `FILTER NOT EXISTS { … }` groups (anti-joins).
    pub not_exists: Vec<GroupPattern>,
    /// An inline `VALUES` block, if present.
    pub values: Option<ValuesBlock>,
}

impl GroupPattern {
    /// A group containing only the given triple patterns.
    pub fn bgp(triples: Vec<TriplePattern>) -> Self {
        GroupPattern {
            triples,
            ..Default::default()
        }
    }

    /// True if the group has no content at all.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
            && self.filters.is_empty()
            && self.optionals.is_empty()
            && self.unions.is_empty()
            && self.not_exists.is_empty()
            && self.values.is_none()
    }

    /// Collects every variable name mentioned anywhere in the group
    /// (triples, filters, nested groups, values), without duplicates.
    pub fn collect_vars(&self, out: &mut Vec<String>) {
        let push = |v: &str, out: &mut Vec<String>| {
            if !out.iter().any(|x| x == v) {
                out.push(v.to_string());
            }
        };
        for t in &self.triples {
            for v in t.vars() {
                push(v, out);
            }
        }
        for f in &self.filters {
            for v in f.vars() {
                push(&v, out);
            }
        }
        for g in self
            .optionals
            .iter()
            .chain(self.not_exists.iter())
            .chain(self.unions.iter().flatten())
        {
            g.collect_vars(out);
        }
        if let Some(v) = &self.values {
            for var in &v.vars {
                push(var, out);
            }
        }
    }

    /// All variables mentioned in the group.
    pub fn all_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    /// Splits this group's top-level filters into those local to the group
    /// (every variable occurs in the group itself) and those *correlated*
    /// with the enclosing scope. Per SPARQL's LeftJoin/Minus algebra,
    /// correlated filters inside `OPTIONAL` / `FILTER NOT EXISTS` are part
    /// of the join condition and must see the outer bindings; local ones
    /// may be evaluated inside the group.
    pub fn split_correlated_filters(&self) -> (GroupPattern, Vec<Expression>) {
        let mut inner = self.clone();
        let own_vars = {
            let mut g = self.clone();
            g.filters = Vec::new();
            g.all_vars()
        };
        let mut correlated = Vec::new();
        inner.filters = Vec::new();
        for f in &self.filters {
            if f.vars().iter().all(|v| own_vars.contains(v)) {
                inner.filters.push(f.clone());
            } else {
                correlated.push(f.clone());
            }
        }
        (inner, correlated)
    }

    /// All triple patterns in the group *and* its nested groups, in document
    /// order. Useful for source selection, which probes every pattern.
    pub fn all_triples(&self) -> Vec<&TriplePattern> {
        let mut out = Vec::new();
        self.collect_triples(&mut out);
        out
    }

    fn collect_triples<'a>(&'a self, out: &mut Vec<&'a TriplePattern>) {
        out.extend(self.triples.iter());
        for g in self
            .optionals
            .iter()
            .chain(self.not_exists.iter())
            .chain(self.unions.iter().flatten())
        {
            g.collect_triples(out);
        }
    }
}

/// The query form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryForm {
    /// `SELECT …`.
    Select,
    /// `ASK` — existence check.
    Ask,
}

/// An aggregate function in the SELECT clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(?v)` / `COUNT(*)` (with `var: None`).
    Count,
    /// `SUM(?v)` over numeric bindings.
    Sum,
    /// `MIN(?v)`.
    Min,
    /// `MAX(?v)`.
    Max,
    /// `AVG(?v)` over numeric bindings.
    Avg,
}

/// One aggregate projection item: `(FUNC(?var) AS ?alias)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aggregate {
    /// The function.
    pub func: AggFunc,
    /// The aggregated variable; `None` means `*` (COUNT only).
    pub var: Option<String>,
    /// `COUNT(DISTINCT ?v)`.
    pub distinct: bool,
    /// The output variable name.
    pub alias: String,
}

/// One projected existence test: `(EXISTS { group } AS ?alias)`, a boolean
/// column. Only *uncorrelated* tests are supported — the group shares no
/// variable with the query's `WHERE` pattern (the parser rejects the rest)
/// — so a test has one value for the whole query, and an endpoint finds it
/// with a single first-hit probe. This is how a batch of source-selection
/// `ASK`s or LADE check queries travels as one request.
#[derive(Debug, Clone, PartialEq)]
pub struct ExistsTest {
    /// The tested group pattern.
    pub group: GroupPattern,
    /// The output variable name.
    pub alias: String,
}

/// One `ORDER BY` key: a variable and its direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderKey {
    /// The sort variable.
    pub var: String,
    /// True for `DESC(?v)`.
    pub descending: bool,
}

/// A parsed SPARQL query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The query form.
    pub form: QueryForm,
    /// `DISTINCT` modifier on SELECT.
    pub distinct: bool,
    /// Projected variable names; empty means `SELECT *`.
    pub projection: Vec<String>,
    /// The WHERE pattern.
    pub pattern: GroupPattern,
    /// Aggregate projection items (empty for plain SELECT).
    pub aggregates: Vec<Aggregate>,
    /// Projected existence tests, output after every other column.
    pub exists: Vec<ExistsTest>,
    /// `GROUP BY` keys (empty groups everything into one row when
    /// aggregates are present).
    pub group_by: Vec<String>,
    /// `HAVING` constraints, evaluated over the grouped rows (aggregate
    /// aliases are in scope).
    pub having: Vec<Expression>,
    /// `ORDER BY` keys, outermost first.
    pub order_by: Vec<OrderKey>,
    /// `LIMIT`, if present.
    pub limit: Option<usize>,
}

impl Query {
    /// A plain `SELECT` of `projection` (empty = `SELECT *`) over the given
    /// pattern: no modifiers, no aggregates.
    pub fn select(projection: Vec<String>, pattern: GroupPattern) -> Self {
        Query {
            form: QueryForm::Select,
            distinct: false,
            projection,
            pattern,
            aggregates: Vec::new(),
            exists: Vec::new(),
            group_by: Vec::new(),
            having: Vec::new(),
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// The `LIMIT` that may cut matching off after its first `k` rows:
    /// none under DISTINCT (which collapses rows afterwards), ORDER BY or
    /// aggregation (both must see every row before truncation).
    pub fn first_k_limit(&self) -> Option<usize> {
        (self.limit)
            .filter(|_| !self.distinct && self.order_by.is_empty() && self.aggregates.is_empty())
    }

    /// A plain `SELECT *` over the given pattern.
    pub fn select_all(pattern: GroupPattern) -> Self {
        Query::select(Vec::new(), pattern)
    }

    /// An `ASK` over the given pattern.
    pub fn ask(pattern: GroupPattern) -> Self {
        Query {
            form: QueryForm::Ask,
            ..Query::select_all(pattern)
        }
    }

    /// A `SELECT (COUNT(*) AS ?c)` over the given pattern — the cardinality
    /// probe, and what that text parses to.
    pub fn count(pattern: GroupPattern) -> Self {
        Query {
            aggregates: vec![Aggregate {
                func: AggFunc::Count,
                var: None,
                distinct: false,
                alias: "c".into(),
            }],
            ..Query::select_all(pattern)
        }
    }

    /// The variables of the solution sequence this query returns: group
    /// keys plus aggregate aliases when aggregating; otherwise the explicit
    /// projection, or every pattern variable for `SELECT *`. The aliases of
    /// projected [`ExistsTest`]s are not variables of the solutions and are
    /// not listed: the endpoint evaluator appends those columns after these.
    pub fn output_vars(&self) -> Vec<String> {
        if !self.aggregates.is_empty() {
            let mut out = self.group_by.clone();
            // Plain variables may be projected alongside aggregates when
            // they are group keys; `projection` holds them in order.
            for v in &self.projection {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            out.extend(self.aggregates.iter().map(|a| a.alias.clone()));
            return out;
        }
        if !self.projection.is_empty() {
            self.projection.clone()
        } else if self.exists.is_empty() {
            self.pattern.all_vars()
        } else {
            // `SELECT (EXISTS {…} AS ?a) …` projects its tests alone.
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(name: &str) -> PatternTerm {
        PatternTerm::Var(name.into())
    }

    #[test]
    fn first_k_limit_is_refused_by_each_of_its_three_disqualifiers() {
        let mut q = Query::select_all(GroupPattern::bgp(vec![TriplePattern::new(
            v("s"),
            PatternTerm::Const(TermId(0)),
            v("o"),
        )]));
        assert_eq!(q.first_k_limit(), None, "no LIMIT");
        q.limit = Some(3);
        assert_eq!(q.first_k_limit(), Some(3));
        let distinct = Query {
            distinct: true,
            ..q.clone()
        };
        assert_eq!(distinct.first_k_limit(), None, "DISTINCT");
        let ordered = Query {
            order_by: vec![OrderKey {
                var: "o".into(),
                descending: false,
            }],
            ..q.clone()
        };
        assert_eq!(ordered.first_k_limit(), None, "ORDER BY");
        let counted = Query {
            aggregates: vec![Aggregate {
                func: AggFunc::Count,
                var: None,
                distinct: false,
                alias: "n".into(),
            }],
            ..q
        };
        assert_eq!(counted.first_k_limit(), None, "aggregation");
    }

    #[test]
    fn triple_pattern_vars() {
        let tp = TriplePattern::new(v("s"), PatternTerm::Const(TermId(0)), v("o"));
        let vars: Vec<_> = tp.vars().collect();
        assert_eq!(vars, ["s", "o"]);
        assert_eq!(tp.bound_positions(), 1);
    }

    #[test]
    fn group_collects_vars_from_nested_groups() {
        let mut g = GroupPattern::bgp(vec![TriplePattern::new(
            v("a"),
            PatternTerm::Const(TermId(0)),
            v("b"),
        )]);
        g.optionals.push(GroupPattern::bgp(vec![TriplePattern::new(
            v("b"),
            PatternTerm::Const(TermId(1)),
            v("c"),
        )]));
        g.filters.push(Expression::Bound("d".into()));
        let vars = g.all_vars();
        assert_eq!(vars, ["a", "b", "d", "c"]);
    }

    #[test]
    fn all_triples_walks_nested_groups() {
        let inner = GroupPattern::bgp(vec![TriplePattern::new(
            v("x"),
            PatternTerm::Const(TermId(1)),
            v("y"),
        )]);
        let mut g = GroupPattern::bgp(vec![TriplePattern::new(
            v("a"),
            PatternTerm::Const(TermId(0)),
            v("x"),
        )]);
        g.unions.push(vec![inner.clone(), inner.clone()]);
        g.not_exists.push(inner);
        assert_eq!(g.all_triples().len(), 4);
    }

    #[test]
    fn expression_vars_dedup() {
        let e = Expression::And(
            Box::new(Expression::Cmp(
                CmpOp::Lt,
                Box::new(Expression::Var("x".into())),
                Box::new(Expression::Var("y".into())),
            )),
            Box::new(Expression::Bound("x".into())),
        );
        assert_eq!(e.vars(), ["x", "y"]);
    }

    #[test]
    fn output_vars_select_star() {
        let q = Query::select_all(GroupPattern::bgp(vec![TriplePattern::new(
            v("s"),
            v("p"),
            v("o"),
        )]));
        assert_eq!(q.output_vars(), ["s", "p", "o"]);
    }
}
