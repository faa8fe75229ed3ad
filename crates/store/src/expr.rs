//! FILTER expression evaluation.
//!
//! Follows SPARQL's effective-boolean-value discipline in simplified form:
//! type errors (e.g. comparing an unbound variable) make the enclosing
//! filter reject the row rather than aborting the query.

use lusail_rdf::{Dictionary, Term, TermId};
use lusail_sparql::ast::{CmpOp, Expression};

/// The value lattice for expression evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An RDF term (by id).
    Term(TermId),
    /// A derived string (result of STR/LANG).
    Str(String),
    /// A boolean.
    Bool(bool),
    /// Evaluation error (unbound variable, type mismatch).
    Error,
}

/// A row context: resolves variable names to bound term ids.
pub trait VarContext {
    /// The binding of `var`, or `None` if unbound.
    fn value_of(&self, var: &str) -> Option<TermId>;
}

impl VarContext for (&[String], &[Option<TermId>]) {
    fn value_of(&self, var: &str) -> Option<TermId> {
        self.0.iter().position(|v| v == var).and_then(|i| self.1[i])
    }
}

/// Evaluates `expr` to its effective boolean value in `ctx`. Errors count
/// as `false`, per SPARQL FILTER semantics.
pub(crate) fn eval_filter(expr: &Expression, ctx: &dyn VarContext, dict: &Dictionary) -> bool {
    match eval(expr, ctx, dict) {
        Value::Bool(b) => b,
        Value::Term(id) => term_ebv(&dict.decode(id)),
        Value::Str(s) => !s.is_empty(),
        Value::Error => false,
    }
}

fn term_ebv(t: &Term) -> bool {
    match t {
        Term::Literal {
            lexical, datatype, ..
        } => {
            // SPARQL EBV: numeric literals are false when 0/NaN; boolean
            // literals by value; plain and xsd:string literals are false
            // only when empty. A plain "0" is a *string* and therefore
            // true.
            let numeric = datatype.as_deref().is_some_and(|dt| {
                dt.starts_with("http://www.w3.org/2001/XMLSchema#") && !dt.ends_with("#string")
            });
            if numeric {
                match lexical.as_str() {
                    "true" => true,
                    "false" => false,
                    _ => lexical.parse::<f64>().map(|n| n != 0.0).unwrap_or(false),
                }
            } else {
                !lexical.is_empty()
            }
        }
        // IRIs/blank nodes have no boolean value in SPARQL; treating them
        // as true keeps `FILTER(?x)` harmless for the workloads used here.
        _ => true,
    }
}

/// Evaluates an expression to a [`Value`].
pub fn eval(expr: &Expression, ctx: &dyn VarContext, dict: &Dictionary) -> Value {
    match expr {
        Expression::Var(v) => match ctx.value_of(v) {
            Some(id) => Value::Term(id),
            None => Value::Error,
        },
        Expression::Const(id) => Value::Term(*id),
        Expression::Bound(v) => Value::Bool(ctx.value_of(v).is_some()),
        Expression::Not(inner) => match eval(inner, ctx, dict) {
            Value::Error => Value::Error,
            v => Value::Bool(!value_ebv(&v, dict)),
        },
        Expression::And(a, b) => {
            // SPARQL logical AND: false wins over error.
            let va = eval(a, ctx, dict);
            let vb = eval(b, ctx, dict);
            match (ebv_opt(&va, dict), ebv_opt(&vb, dict)) {
                (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                (Some(true), Some(true)) => Value::Bool(true),
                _ => Value::Error,
            }
        }
        Expression::Or(a, b) => {
            let va = eval(a, ctx, dict);
            let vb = eval(b, ctx, dict);
            match (ebv_opt(&va, dict), ebv_opt(&vb, dict)) {
                (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                (Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Error,
            }
        }
        Expression::Cmp(op, a, b) => {
            let va = eval(a, ctx, dict);
            let vb = eval(b, ctx, dict);
            compare(*op, &va, &vb, dict)
        }
        Expression::Str(inner) => match eval(inner, ctx, dict) {
            Value::Term(id) => Value::Str(dict.decode(id).lexical().to_string()),
            Value::Str(s) => Value::Str(s),
            Value::Bool(b) => Value::Str(b.to_string()),
            Value::Error => Value::Error,
        },
        Expression::Lang(inner) => match eval(inner, ctx, dict) {
            Value::Term(id) => match &*dict.decode(id) {
                Term::Literal {
                    lang: Some(lang), ..
                } => Value::Str(lang.clone()),
                Term::Literal { .. } => Value::Str(String::new()),
                _ => Value::Error,
            },
            _ => Value::Error,
        },
        Expression::LangMatches(inner, range) => match eval(inner, ctx, dict) {
            Value::Str(tag) => {
                if range == "*" {
                    Value::Bool(!tag.is_empty())
                } else {
                    Value::Bool(
                        tag.eq_ignore_ascii_case(range)
                            || tag
                                .to_ascii_lowercase()
                                .starts_with(&format!("{}-", range.to_ascii_lowercase())),
                    )
                }
            }
            _ => Value::Error,
        },
        Expression::Regex(inner, pattern, ci) => match string_of(eval(inner, ctx, dict), dict) {
            Some(s) => Value::Bool(substring_match(&s, pattern, *ci)),
            None => Value::Error,
        },
        Expression::Contains(inner, needle) => match string_of(eval(inner, ctx, dict), dict) {
            Some(s) => Value::Bool(s.contains(needle)),
            None => Value::Error,
        },
    }
}

fn value_ebv(v: &Value, dict: &Dictionary) -> bool {
    match v {
        Value::Bool(b) => *b,
        Value::Term(id) => term_ebv(&dict.decode(*id)),
        Value::Str(s) => !s.is_empty(),
        Value::Error => false,
    }
}

fn ebv_opt(v: &Value, dict: &Dictionary) -> Option<bool> {
    match v {
        Value::Error => None,
        v => Some(value_ebv(v, dict)),
    }
}

fn string_of(v: Value, dict: &Dictionary) -> Option<String> {
    match v {
        Value::Term(id) => Some(dict.decode(id).lexical().to_string()),
        Value::Str(s) => Some(s),
        Value::Bool(b) => Some(b.to_string()),
        Value::Error => None,
    }
}

/// REGEX support is restricted to the patterns the benchmark queries use:
/// a plain substring, optionally anchored with `^` and/or `$` (escape the
/// anchors as `\^` / `\$` to match them literally).
fn substring_match(s: &str, pattern: &str, ci: bool) -> bool {
    let (s, pattern) = if ci {
        (s.to_lowercase(), pattern.to_lowercase())
    } else {
        (s.to_string(), pattern.to_string())
    };
    let anchored_start = pattern.starts_with('^');
    let anchored_end = pattern.ends_with('$') && !pattern.ends_with("\\$");
    let mut core = pattern;
    if anchored_start {
        core.remove(0);
    }
    if anchored_end {
        core.pop();
    }
    // Unescape literal anchors inside the core.
    let core = core.replace("\\^", "^").replace("\\$", "$");
    match (anchored_start, anchored_end) {
        (true, true) => s == core,
        (true, false) => s.starts_with(&core),
        (false, true) => s.ends_with(&core),
        (false, false) => s.contains(&core),
    }
}

fn compare(op: CmpOp, a: &Value, b: &Value, dict: &Dictionary) -> Value {
    use std::cmp::Ordering;
    if matches!(a, Value::Error) || matches!(b, Value::Error) {
        return Value::Error;
    }
    // Numeric comparison when both sides are numeric.
    let num = |v: &Value| -> Option<f64> {
        match v {
            Value::Term(id) => dict.decode(*id).as_f64(),
            Value::Str(s) => s.parse().ok(),
            Value::Bool(_) => None,
            Value::Error => None,
        }
    };
    let ord = if let (Some(x), Some(y)) = (num(a), num(b)) {
        x.partial_cmp(&y)
    } else if let (Value::Term(x), Value::Term(y)) = (a, b) {
        if x == y {
            Some(Ordering::Equal)
        } else {
            let tx = dict.decode(*x);
            let ty = dict.decode(*y);
            match (&*tx, &*ty) {
                // Literal vs literal: lexical-form comparison (the string
                // case of SPARQL's operator mapping).
                (Term::Literal { .. }, Term::Literal { .. }) => Some(tx.cmp(&ty)),
                // Same-kind non-literals: equality is term equality; an
                // *ordering* between IRIs/blank nodes is a SPARQL type
                // error, handled below.
                _ if matches!(op, CmpOp::Eq | CmpOp::Ne) => Some(tx.cmp(&ty)),
                _ => None,
            }
        }
    } else {
        let sa = string_of(a.clone(), dict);
        let sb = string_of(b.clone(), dict);
        match (sa, sb) {
            (Some(x), Some(y)) => Some(x.cmp(&y)),
            _ => None,
        }
    };
    let Some(ord) = ord else { return Value::Error };
    let result = match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    };
    Value::Bool(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_sparql::parse_query;

    struct Ctx<'a> {
        vars: Vec<(&'a str, TermId)>,
    }

    impl VarContext for Ctx<'_> {
        fn value_of(&self, var: &str) -> Option<TermId> {
            self.vars.iter().find(|(v, _)| *v == var).map(|(_, id)| *id)
        }
    }

    /// Parses `FILTER (…)` out of a probe query to get an Expression.
    fn expr(dict: &Dictionary, text: &str) -> Expression {
        let q = parse_query(
            &format!("SELECT ?x WHERE {{ ?x ?p ?o . FILTER ({text}) }}"),
            dict,
        )
        .unwrap();
        q.pattern.filters[0].clone()
    }

    #[test]
    fn numeric_comparisons() {
        let dict = Dictionary::new();
        let age = dict.encode(&Term::int(25));
        let ctx = Ctx {
            vars: vec![("a", age)],
        };
        assert!(eval_filter(&expr(&dict, "?a >= 18"), &ctx, &dict));
        assert!(eval_filter(&expr(&dict, "?a < 65"), &ctx, &dict));
        assert!(!eval_filter(&expr(&dict, "?a = 24"), &ctx, &dict));
        assert!(eval_filter(&expr(&dict, "?a != 24"), &ctx, &dict));
    }

    #[test]
    fn numeric_compare_across_datatypes() {
        let dict = Dictionary::new();
        let v = dict.encode(&Term::lit("3.5"));
        let ctx = Ctx {
            vars: vec![("a", v)],
        };
        assert!(eval_filter(&expr(&dict, "?a > 3"), &ctx, &dict));
    }

    #[test]
    fn unbound_variable_is_error_hence_false() {
        let dict = Dictionary::new();
        let ctx = Ctx { vars: vec![] };
        assert!(!eval_filter(&expr(&dict, "?missing = 1"), &ctx, &dict));
        assert!(!eval_filter(&expr(&dict, "BOUND(?missing)"), &ctx, &dict));
        assert!(eval_filter(&expr(&dict, "!BOUND(?missing)"), &ctx, &dict));
    }

    #[test]
    fn and_or_error_propagation() {
        let dict = Dictionary::new();
        let v = dict.encode(&Term::int(1));
        let ctx = Ctx {
            vars: vec![("a", v)],
        };
        // false && error = false; true || error = true.
        assert!(!eval_filter(
            &expr(&dict, "?a = 2 && ?missing = 1"),
            &ctx,
            &dict
        ));
        assert!(eval_filter(
            &expr(&dict, "?a = 1 || ?missing = 1"),
            &ctx,
            &dict
        ));
        // true && error = error → filter false.
        assert!(!eval_filter(
            &expr(&dict, "?a = 1 && ?missing = 1"),
            &ctx,
            &dict
        ));
    }

    #[test]
    fn string_builtins() {
        let dict = Dictionary::new();
        let name = dict.encode(&Term::lang_lit("Alice Smith", "en"));
        let ctx = Ctx {
            vars: vec![("n", name)],
        };
        assert!(eval_filter(
            &expr(&dict, "CONTAINS(STR(?n), \"Smith\")"),
            &ctx,
            &dict
        ));
        assert!(!eval_filter(
            &expr(&dict, "CONTAINS(STR(?n), \"Bob\")"),
            &ctx,
            &dict
        ));
        assert!(eval_filter(
            &expr(&dict, "REGEX(?n, \"smith\", \"i\")"),
            &ctx,
            &dict
        ));
        assert!(eval_filter(
            &expr(&dict, "REGEX(?n, \"^Alice\")"),
            &ctx,
            &dict
        ));
        assert!(!eval_filter(
            &expr(&dict, "REGEX(?n, \"^Smith\")"),
            &ctx,
            &dict
        ));
        assert!(eval_filter(&expr(&dict, "LANG(?n) = \"en\""), &ctx, &dict));
        assert!(eval_filter(
            &expr(&dict, "LANGMATCHES(LANG(?n), \"en\")"),
            &ctx,
            &dict
        ));
        assert!(eval_filter(
            &expr(&dict, "LANGMATCHES(LANG(?n), \"*\")"),
            &ctx,
            &dict
        ));
    }

    #[test]
    fn iri_equality() {
        let dict = Dictionary::new();
        let x = dict.encode(&Term::iri("http://x/a"));
        let ctx = Ctx {
            vars: vec![("x", x)],
        };
        assert!(eval_filter(&expr(&dict, "?x = <http://x/a>"), &ctx, &dict));
        assert!(!eval_filter(&expr(&dict, "?x = <http://x/b>"), &ctx, &dict));
        assert!(eval_filter(&expr(&dict, "?x != <http://x/b>"), &ctx, &dict));
    }

    #[test]
    fn lexicographic_string_compare() {
        let dict = Dictionary::new();
        let v = dict.encode(&Term::lit("banana"));
        let ctx = Ctx {
            vars: vec![("s", v)],
        };
        assert!(eval_filter(&expr(&dict, "?s > \"apple\""), &ctx, &dict));
        assert!(eval_filter(&expr(&dict, "?s < \"cherry\""), &ctx, &dict));
    }
}
