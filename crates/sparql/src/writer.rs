//! Serializing queries back to SPARQL text.
//!
//! Used to simulate the wire format between the federated engine and the
//! endpoints (byte counting) and for human-readable diagnostics. The writer
//! emits full IRIs (no prefixes), so `parse(write(q))` reproduces `q`.

use crate::ast::*;
use lusail_rdf::{Dictionary, Term, TermId};
use std::fmt::{self, Write};

/// Where the writer's text goes: text is written through [`Write`], and
/// a constant term through `term`, so a sink that only counts can count a
/// term without formatting it.
trait Sink: Write {
    fn term(&mut self, t: &Term) -> fmt::Result;
}

impl Sink for String {
    fn term(&mut self, t: &Term) -> fmt::Result {
        write!(self, "{t}")
    }
}

/// Counts the bytes of the text instead of keeping it.
struct ByteCount(usize);

impl Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

impl Sink for ByteCount {
    fn term(&mut self, t: &Term) -> fmt::Result {
        self.0 += t.wire_len();
        Ok(())
    }
}

/// Serializes a query to SPARQL text.
pub fn write_query(q: &Query, dict: &Dictionary) -> String {
    let mut out = String::new();
    write_query_to(&mut out, q, dict).expect("writing to a String cannot fail");
    out
}

/// The length in bytes of [`write_query`]'s text, without building it: the
/// same writer run over a sink that only counts, and counts each term by
/// [`Term::wire_len`]. The simulated network charges every request by
/// this number.
pub fn query_wire_len(q: &Query, dict: &Dictionary) -> usize {
    let mut count = ByteCount(0);
    write_query_to(&mut count, q, dict).expect("counting cannot fail");
    count.0
}

fn write_query_to<W: Sink>(out: &mut W, q: &Query, dict: &Dictionary) -> fmt::Result {
    match &q.form {
        QueryForm::Select => {
            out.write_str("SELECT ")?;
            if q.distinct {
                out.write_str("DISTINCT ")?;
            }
            if q.projection.is_empty() && q.aggregates.is_empty() && q.exists.is_empty() {
                out.write_str("* ")?;
            } else {
                for v in &q.projection {
                    write!(out, "?{v} ")?;
                }
                for a in &q.aggregates {
                    let func = match a.func {
                        AggFunc::Count => "COUNT",
                        AggFunc::Sum => "SUM",
                        AggFunc::Min => "MIN",
                        AggFunc::Max => "MAX",
                        AggFunc::Avg => "AVG",
                    };
                    write!(out, "({func}(")?;
                    if a.distinct {
                        out.write_str("DISTINCT ")?;
                    }
                    match &a.var {
                        Some(v) => write!(out, "?{v}")?,
                        None => out.write_char('*')?,
                    }
                    write!(out, ") AS ?{}) ", a.alias)?;
                }
                for test in &q.exists {
                    out.write_str("(EXISTS ")?;
                    write_group(out, &test.group, dict)?;
                    write!(out, " AS ?{}) ", test.alias)?;
                }
            }
            out.write_str("WHERE ")?;
        }
        QueryForm::Ask => out.write_str("ASK ")?,
    }
    write_group(out, &q.pattern, dict)?;
    if !q.group_by.is_empty() {
        out.write_str(" GROUP BY")?;
        for v in &q.group_by {
            write!(out, " ?{v}")?;
        }
    }
    for h in &q.having {
        out.write_str(" HAVING (")?;
        write_expr(out, h, dict)?;
        out.write_char(')')?;
    }
    if !q.order_by.is_empty() {
        out.write_str(" ORDER BY")?;
        for key in &q.order_by {
            if key.descending {
                write!(out, " DESC(?{})", key.var)?;
            } else {
                write!(out, " ?{}", key.var)?;
            }
        }
    }
    if let Some(limit) = q.limit {
        write!(out, " LIMIT {limit}")?;
    }
    Ok(())
}

fn write_group<W: Sink>(out: &mut W, g: &GroupPattern, dict: &Dictionary) -> fmt::Result {
    out.write_str("{ ")?;
    for t in &g.triples {
        write_pattern_term(out, &t.s, dict)?;
        out.write_char(' ')?;
        write_pattern_term(out, &t.p, dict)?;
        out.write_char(' ')?;
        write_pattern_term(out, &t.o, dict)?;
        out.write_str(" . ")?;
    }
    if let Some(values) = &g.values {
        write_values(out, values, dict)?;
    }
    for branches in &g.unions {
        for (i, b) in branches.iter().enumerate() {
            if i > 0 {
                out.write_str(" UNION ")?;
            }
            write_group(out, b, dict)?;
        }
        out.write_char(' ')?;
    }
    for opt in &g.optionals {
        out.write_str("OPTIONAL ")?;
        write_group(out, opt, dict)?;
        out.write_char(' ')?;
    }
    for ne in &g.not_exists {
        out.write_str("FILTER NOT EXISTS ")?;
        write_group(out, ne, dict)?;
        out.write_char(' ')?;
    }
    for f in &g.filters {
        out.write_str("FILTER (")?;
        write_expr(out, f, dict)?;
        out.write_str(") ")?;
    }
    out.write_char('}')
}

fn write_values<W: Sink>(out: &mut W, v: &ValuesBlock, dict: &Dictionary) -> fmt::Result {
    out.write_str("VALUES (")?;
    for var in &v.vars {
        write!(out, "?{var} ")?;
    }
    out.write_str(") { ")?;
    for row in v.rows.iter() {
        out.write_char('(')?;
        for cell in row {
            match cell {
                Some(id) => write_const(out, *id, dict)?,
                None => out.write_str("UNDEF")?,
            }
            out.write_char(' ')?;
        }
        out.write_str(") ")?;
    }
    out.write_str("} ")
}

fn write_pattern_term<W: Sink>(out: &mut W, t: &PatternTerm, dict: &Dictionary) -> fmt::Result {
    match t {
        PatternTerm::Var(v) => write!(out, "?{v}"),
        PatternTerm::Const(id) => write_const(out, *id, dict),
    }
}

fn write_const<W: Sink>(out: &mut W, id: TermId, dict: &Dictionary) -> fmt::Result {
    out.term(&dict.decode(id))
}

fn write_expr<W: Sink>(out: &mut W, e: &Expression, dict: &Dictionary) -> fmt::Result {
    match e {
        Expression::Var(v) => write!(out, "?{v}")?,
        Expression::Const(id) => write_const(out, *id, dict)?,
        Expression::Cmp(op, a, b) => {
            out.write_char('(')?;
            write_expr(out, a, dict)?;
            let sym = match op {
                CmpOp::Eq => "=",
                CmpOp::Ne => "!=",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            write!(out, " {sym} ")?;
            write_expr(out, b, dict)?;
            out.write_char(')')?;
        }
        Expression::And(a, b) => {
            out.write_char('(')?;
            write_expr(out, a, dict)?;
            out.write_str(" && ")?;
            write_expr(out, b, dict)?;
            out.write_char(')')?;
        }
        Expression::Or(a, b) => {
            out.write_char('(')?;
            write_expr(out, a, dict)?;
            out.write_str(" || ")?;
            write_expr(out, b, dict)?;
            out.write_char(')')?;
        }
        Expression::Not(a) => {
            out.write_str("!(")?;
            write_expr(out, a, dict)?;
            out.write_char(')')?;
        }
        Expression::Bound(v) => write!(out, "BOUND(?{v})")?,
        Expression::Regex(a, pat, ci) => {
            out.write_str("REGEX(")?;
            write_expr(out, a, dict)?;
            write!(out, ", \"{pat}\"")?;
            if *ci {
                out.write_str(", \"i\"")?;
            }
            out.write_char(')')?;
        }
        Expression::Contains(a, s) => {
            out.write_str("CONTAINS(")?;
            write_expr(out, a, dict)?;
            write!(out, ", \"{s}\")")?;
        }
        Expression::Str(a) => {
            out.write_str("STR(")?;
            write_expr(out, a, dict)?;
            out.write_char(')')?;
        }
        Expression::Lang(a) => {
            out.write_str("LANG(")?;
            write_expr(out, a, dict)?;
            out.write_char(')')?;
        }
        Expression::LangMatches(a, r) => {
            out.write_str("LANGMATCHES(")?;
            write_expr(out, a, dict)?;
            write!(out, ", \"{r}\")")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use lusail_rdf::{Dictionary, SplitMix64 as Rng};

    fn roundtrip(query: &str) {
        let dict = Dictionary::new();
        let q1 = parse_query(query, &dict).unwrap();
        let text = write_query(&q1, &dict);
        let q2 = parse_query(&text, &dict)
            .unwrap_or_else(|e| panic!("re-parse of {text:?} failed: {e}"));
        assert_eq!(q1, q2, "roundtrip mismatch for {text:?}");
    }

    #[test]
    fn roundtrip_select() {
        roundtrip("SELECT ?s ?o WHERE { ?s <http://x/p> ?o . ?o <http://x/q> \"v\"@en }");
    }

    #[test]
    fn roundtrip_ask_and_count() {
        roundtrip("ASK { ?s ?p ?o }");
        roundtrip("SELECT (COUNT(*) AS ?c) WHERE { ?s <http://x/p> ?o }");
    }

    #[test]
    fn roundtrip_coalesced_probe_forms() {
        // Existence members: a plain pattern, and a check query's group.
        roundtrip(
            "SELECT (EXISTS { ?s <http://x/p> ?o } AS ?a0) \
             (EXISTS { ?v <http://x/q> ?b FILTER NOT EXISTS { ?v <http://x/p> ?c } } AS ?a1) \
             WHERE { }",
        );
        // Count members: one branch of own variables per aggregate, with a
        // member that has nothing to count as an existence test.
        roundtrip(
            "SELECT (COUNT(?s0) AS ?c0) (COUNT(?p2) AS ?c2) \
             (EXISTS { <http://x/s> <http://x/p> <http://x/o> } AS ?a1) \
             WHERE { { ?s0 <http://x/p> ?o0 } UNION { <http://x/s> ?p2 ?o2 } }",
        );
        roundtrip("SELECT ?s (EXISTS { ?x <http://x/p> ?y } AS ?a) WHERE { ?s <http://x/q> ?o }");
        // A test that shares a variable with the WHERE pattern would have to
        // be evaluated per solution: refused.
        let dict = Dictionary::new();
        let correlated =
            "SELECT (EXISTS { ?s <http://x/p> ?o } AS ?a) WHERE { ?s <http://x/q> ?z }";
        let err = parse_query(correlated, &dict).unwrap_err();
        assert!(err.0.contains("shares ?s"), "{err}");
    }

    #[test]
    fn roundtrip_filters() {
        roundtrip(
            "SELECT ?x WHERE { ?x <http://x/age> ?a . FILTER ((?a >= 18 && !(?a > 65)) || BOUND(?x)) }",
        );
        roundtrip("SELECT ?x WHERE { ?x <http://x/n> ?n . FILTER REGEX(STR(?n), \"ab\", \"i\") }");
    }

    #[test]
    fn roundtrip_structure() {
        roundtrip(
            "SELECT * WHERE { ?s <http://x/p> ?o . OPTIONAL { ?o <http://x/q> ?z } \
             FILTER NOT EXISTS { ?o <http://x/r> ?w } }",
        );
        roundtrip("SELECT ?x WHERE { { ?x <http://x/a> ?y } UNION { ?x <http://x/b> ?y } }");
        roundtrip(
            "SELECT ?x WHERE { ?x <http://x/p> ?y . VALUES (?x ?y) { (<http://x/1> UNDEF) (<http://x/2> \"s\") } } LIMIT 3",
        );
    }

    #[test]
    fn roundtrip_distinct_limit() {
        roundtrip("SELECT DISTINCT ?s WHERE { ?s ?p ?o } LIMIT 10");
    }

    #[test]
    fn values_block_literal_escaping_roundtrips() {
        // VALUES cells carry arbitrary constants across the wire (bound
        // execution ships bindings this way), so the writer's escaping
        // must survive a parse for every awkward literal shape.
        use lusail_rdf::Term;
        let dict = Dictionary::new();
        let tricky = [
            Term::lit("he said \"hi\""),
            Term::lit("line one\nline two"),
            Term::lit("tab\there, cr\rthere"),
            Term::lit("backslash \\ then quote \""),
            Term::lit(""),
            Term::lang_lit("gr\u{fc}\u{df}e \"quoted\"", "de"),
            Term::lang_lit("newline\nin tagged", "en"),
            Term::int(-42),
        ];
        let mut rows: Vec<Vec<Option<TermId>>> = tricky
            .iter()
            .map(|t| vec![Some(dict.encode(t)), None])
            .collect();
        rows.push(vec![None, Some(dict.encode(&Term::lit("\\\"\n")))]);
        let mut pattern = GroupPattern::bgp(vec![TriplePattern::new(
            PatternTerm::Var("x".into()),
            PatternTerm::Const(dict.encode(&Term::iri("http://x/p"))),
            PatternTerm::Var("y".into()),
        )]);
        pattern.values = Some(ValuesBlock {
            vars: vec!["x".into(), "y".into()],
            rows: rows.into_iter().collect(),
        });
        let q1 = Query::select_all(pattern);
        let text = write_query(&q1, &dict);
        let q2 = parse_query(&text, &dict)
            .unwrap_or_else(|e| panic!("re-parse of {text:?} failed: {e}"));
        assert_eq!(q1, q2, "roundtrip mismatch for {text:?}");
    }

    #[test]
    fn values_block_unusual_iris_roundtrip() {
        // IRIs with legal-but-uncommon characters (the lexer admits
        // anything except whitespace, braces, and '>').
        use lusail_rdf::Term;
        let dict = Dictionary::new();
        let iris = [
            Term::iri("http://x/ok?query=a&b=c#frag"),
            Term::iri("http://x/percent%20encoded"),
            Term::iri("http://x/odd'chars!$()*+,;=[]@"),
            Term::iri("http://x/caret^pipe|backtick`quote\""),
            Term::iri("urn:uuid:6e8bc430-9c3a-11d9-9669-0800200c9a66"),
        ];
        let rows: Vec<Vec<Option<TermId>>> =
            iris.iter().map(|t| vec![Some(dict.encode(t))]).collect();
        let mut pattern = GroupPattern::bgp(vec![TriplePattern::new(
            PatternTerm::Var("x".into()),
            PatternTerm::Const(dict.encode(&Term::iri("http://x/p"))),
            PatternTerm::Var("o".into()),
        )]);
        pattern.values = Some(ValuesBlock {
            vars: vec!["x".into()],
            rows: rows.into_iter().collect(),
        });
        let q1 = Query::select_all(pattern);
        let text = write_query(&q1, &dict);
        let q2 = parse_query(&text, &dict)
            .unwrap_or_else(|e| panic!("re-parse of {text:?} failed: {e}"));
        assert_eq!(q1, q2, "roundtrip mismatch for {text:?}");
    }

    fn coin(rng: &mut Rng) -> bool {
        rng.below(2) == 0
    }

    fn rand_var(rng: &mut Rng) -> String {
        ["a", "b", "c", "long_name"][rng.below(4)].to_string()
    }

    fn rand_const(rng: &mut Rng, dict: &Dictionary) -> TermId {
        use lusail_rdf::Term;
        dict.encode(&match rng.below(7) {
            0 => Term::iri("http://x/e?q=1&r=2#frag"),
            1 => Term::lit("he said \"hi\"\n\tbackslash \\ done"),
            2 => Term::lang_lit("gr\u{fc}\u{df}e \"quoted\"", "de"),
            3 => Term::int(-42),
            4 => Term::lit(""),
            5 => Term::iri(format!("http://x/e{}", rng.below(1000))),
            _ => Term::lit("\u{1F600} four-byte scalar"),
        })
    }

    fn rand_expr(rng: &mut Rng, dict: &Dictionary, depth: usize) -> Expression {
        let leaf = |rng: &mut Rng| match coin(rng) {
            true => Expression::Var(rand_var(rng)),
            false => Expression::Const(rand_const(rng, dict)),
        };
        if depth == 0 {
            return leaf(rng);
        }
        let sub = |rng: &mut Rng| Box::new(rand_expr(rng, dict, depth - 1));
        match rng.below(11) {
            0 => {
                let ops = [
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                ];
                Expression::Cmp(ops[rng.below(6)], sub(rng), sub(rng))
            }
            1 => Expression::And(sub(rng), sub(rng)),
            2 => Expression::Or(sub(rng), sub(rng)),
            3 => Expression::Not(sub(rng)),
            4 => Expression::Bound(rand_var(rng)),
            5 => Expression::Regex(sub(rng), "^ab+".to_string(), coin(rng)),
            6 => Expression::Contains(sub(rng), "needle".to_string()),
            7 => Expression::Str(sub(rng)),
            8 => Expression::Lang(sub(rng)),
            9 => Expression::LangMatches(sub(rng), "en".to_string()),
            _ => leaf(rng),
        }
    }

    fn rand_group(rng: &mut Rng, dict: &Dictionary, depth: usize) -> GroupPattern {
        let term = |rng: &mut Rng| match coin(rng) {
            true => PatternTerm::Var(rand_var(rng)),
            false => PatternTerm::Const(rand_const(rng, dict)),
        };
        let mut g = GroupPattern::bgp(
            (0..rng.below(4))
                .map(|_| TriplePattern::new(term(rng), term(rng), term(rng)))
                .collect(),
        );
        g.filters = (0..rng.below(3)).map(|_| rand_expr(rng, dict, 2)).collect();
        if coin(rng) {
            let vars: Vec<String> = (0..rng.below(4)).map(|i| format!("v{i}")).collect();
            let rows: Vec<Vec<Option<TermId>>> = (0..rng.below(5))
                .map(|_| {
                    (vars.iter())
                        .map(|_| (rng.below(3) > 0).then(|| rand_const(rng, dict)))
                        .collect()
                })
                .collect();
            g.values = Some(ValuesBlock {
                vars,
                rows: rows.into_iter().collect(),
            });
        }
        if depth > 0 {
            let sub = |rng: &mut Rng| rand_group(rng, dict, depth - 1);
            g.optionals = (0..rng.below(2)).map(|_| sub(rng)).collect();
            g.not_exists = (0..rng.below(2)).map(|_| sub(rng)).collect();
            g.unions = (0..rng.below(2))
                .map(|_| (0..1 + rng.below(3)).map(|_| sub(rng)).collect())
                .collect();
        }
        g
    }

    fn rand_query(rng: &mut Rng, dict: &Dictionary) -> Query {
        let mut q = Query::select_all(rand_group(rng, dict, 2));
        match rng.below(6) {
            0 => return Query::ask(q.pattern),
            1 => {
                q = Query::count(q.pattern);
                q.aggregates[0].alias = rand_var(rng);
            }
            2 => {
                let funcs = [
                    AggFunc::Count,
                    AggFunc::Sum,
                    AggFunc::Min,
                    AggFunc::Max,
                    AggFunc::Avg,
                ];
                q.aggregates = (0..1 + rng.below(3))
                    .map(|i| Aggregate {
                        func: funcs[rng.below(5)],
                        var: coin(rng).then(|| rand_var(rng)),
                        distinct: coin(rng),
                        alias: format!("agg{i}"),
                    })
                    .collect();
                q.group_by = (0..rng.below(3)).map(|_| rand_var(rng)).collect();
                q.projection = q.group_by.clone();
                q.having = (0..rng.below(2)).map(|_| rand_expr(rng, dict, 1)).collect();
            }
            3 => {
                // The coalesced probe forms (`lusail-core`'s `probe.rs`):
                // projected existence tests, and plain counts over a UNION.
                q = Query::select_all(GroupPattern::default());
                q.exists = (0..1 + rng.below(4))
                    .map(|i| ExistsTest {
                        group: rand_group(rng, dict, 1),
                        alias: format!("a{i}"),
                    })
                    .collect();
                if coin(rng) {
                    let branches: Vec<GroupPattern> = (0..2 + rng.below(3))
                        .map(|_| rand_group(rng, dict, 0))
                        .collect();
                    q.aggregates = (0..branches.len())
                        .map(|i| Aggregate {
                            func: AggFunc::Count,
                            var: Some(rand_var(rng)),
                            distinct: false,
                            alias: format!("c{i}"),
                        })
                        .collect();
                    q.pattern.unions.push(branches);
                }
                return q;
            }
            _ => q.projection = (0..rng.below(3)).map(|_| rand_var(rng)).collect(),
        }
        q.distinct = coin(rng);
        q.order_by = (0..rng.below(3))
            .map(|_| OrderKey {
                var: rand_var(rng),
                descending: coin(rng),
            })
            .collect();
        q.limit = coin(rng).then(|| rng.below(100_000));
        q
    }

    /// The cardinality probe has one form: the text parses to the query
    /// `Query::count` builds, and that query is written back as the text —
    /// every `bytes_sent` of a COUNT probe is this string's length.
    #[test]
    fn count_probe_wire_form_is_pinned() {
        let dict = Dictionary::new();
        let text = "SELECT (COUNT(*) AS ?c) WHERE { ?s <http://x/p> ?o . }";
        let parsed = parse_query(text, &dict).unwrap();
        assert_eq!(write_query(&parsed, &dict), text);
        assert_eq!(query_wire_len(&parsed, &dict), text.len());
        assert_eq!(Query::count(parsed.pattern.clone()), parsed);
    }

    /// The simulated network charges a request `query_wire_len` bytes and
    /// every wire counter is gated byte-exact: the counting sink must see
    /// exactly the text `write_query` builds.
    #[test]
    fn query_wire_len_is_the_length_of_the_written_text() {
        let mut rng = Rng(0x16_0010);
        let dict = Dictionary::new();
        let (mut undef, mut nested, mut aggregates, mut longest, mut exists) = (0, 0, 0, 0, 0);
        for case in 0..500 {
            let q = rand_query(&mut rng, &dict);
            let text = write_query(&q, &dict);
            assert_eq!(
                query_wire_len(&q, &dict),
                text.len(),
                "case {case}:\n{text}"
            );
            undef += usize::from(text.contains("UNDEF"));
            nested += usize::from(text.contains("OPTIONAL") && text.contains("UNION"));
            aggregates += usize::from(!q.aggregates.is_empty());
            exists += usize::from(text.contains("(EXISTS {"));
            longest = longest.max(text.len());
        }
        assert!(undef > 50, "queries with UNDEF cells: {undef}");
        assert!(nested > 50, "queries with OPTIONAL and UNION: {nested}");
        assert!(aggregates > 50, "aggregate queries: {aggregates}");
        assert!(exists > 50, "queries projecting EXISTS tests: {exists}");
        assert!(longest > 2000, "longest query: {longest} bytes");
    }
}
