//! Subqueries: the unit of work LADE produces and SAPE schedules.

use lusail_endpoint::EndpointId;
use lusail_sparql::ast::{Expression, GroupPattern, Query, TriplePattern, ValuesBlock};

/// Pushes each filter into every subquery containing all its variables;
/// returns the filters that could not be pushed anywhere (the caller
/// applies them globally, per §IV-C's clause-placement rule).
pub fn push_filters_into(filters: &[Expression], subqueries: &mut [Subquery]) -> Vec<Expression> {
    let mut global = Vec::new();
    for f in filters {
        let vars = f.vars();
        let mut pushed = false;
        for sq in subqueries.iter_mut() {
            if !vars.is_empty() && vars.iter().all(|v| sq.mentions(v)) {
                sq.filters.push(f.clone());
                pushed = true;
            }
        }
        if !pushed {
            global.push(f.clone());
        }
    }
    global
}

/// A subquery: a group of triple patterns that every relevant endpoint can
/// answer locally without missing results, plus any filters pushed into it.
#[derive(Debug, Clone, PartialEq)]
pub struct Subquery {
    /// The triple patterns evaluated together.
    pub triples: Vec<TriplePattern>,
    /// Filters pushed down into this subquery (all their variables are
    /// local to it).
    pub filters: Vec<Expression>,
    /// The endpoints this subquery must be sent to (sorted).
    pub sources: Vec<EndpointId>,
    /// The variables to project back to the federated engine: join
    /// variables, globally-filtered variables, and query output variables.
    pub projection: Vec<String>,
}

impl Subquery {
    /// Creates a subquery over the given patterns and sources; projection
    /// defaults to every variable (callers shrink it afterwards).
    pub fn new(triples: Vec<TriplePattern>, sources: Vec<EndpointId>) -> Self {
        let projection = lusail_sparql::ast::collect_pattern_vars(&triples);
        Subquery {
            triples,
            filters: Vec::new(),
            sources,
            projection,
        }
    }

    /// All variables appearing in the subquery's patterns.
    pub fn vars(&self) -> Vec<String> {
        lusail_sparql::ast::collect_pattern_vars(&self.triples)
    }

    /// True if the subquery mentions the variable.
    pub fn mentions(&self, var: &str) -> bool {
        self.triples.iter().any(|t| t.mentions(var))
    }

    /// Renders the subquery as an executable `SELECT`, optionally with a
    /// `VALUES` block of bindings (used for delayed/bound evaluation).
    pub fn to_query(&self, values: Option<ValuesBlock>) -> Query {
        let mut pattern = GroupPattern::bgp(self.triples.clone());
        pattern.filters = self.filters.clone();
        pattern.values = values;
        Query::select(self.projection.clone(), pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_rdf::TermId;
    use lusail_sparql::ast::PatternTerm;

    fn tp(s: &str, p: u32, o: &str) -> TriplePattern {
        TriplePattern::new(
            PatternTerm::Var(s.into()),
            PatternTerm::Const(TermId(p)),
            PatternTerm::Var(o.into()),
        )
    }

    #[test]
    fn new_projects_all_vars() {
        let sq = Subquery::new(vec![tp("a", 1, "b"), tp("b", 2, "c")], vec![0, 1]);
        assert_eq!(sq.projection, ["a", "b", "c"]);
        assert_eq!(sq.vars(), ["a", "b", "c"]);
        assert!(sq.mentions("b"));
        assert!(!sq.mentions("z"));
    }

    #[test]
    fn to_query_carries_projection_and_values() {
        let mut sq = Subquery::new(vec![tp("a", 1, "b")], vec![0]);
        sq.projection = vec!["a".into()];
        let vb = ValuesBlock {
            vars: vec!["a".into()],
            rows: vec![vec![Some(TermId(7))]].into_iter().collect(),
        };
        let q = sq.to_query(Some(vb.clone()));
        assert_eq!(q.projection, ["a"]);
        assert_eq!(q.pattern.values, Some(vb));
        assert_eq!(q.pattern.triples.len(), 1);
    }
}
