//! Recursive-descent parser for the SPARQL subset.
//!
//! Constants are interned into the supplied [`Dictionary`] during parsing,
//! so the resulting [`Query`] is ready for evaluation against any store that
//! shares that dictionary.

use crate::ast::*;
use crate::lexer::{tokenize, Token};
use crate::rows::Rows;
use lusail_rdf::{vocab, Dictionary, Term, TermId};

/// A parse error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SPARQL parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// How deeply a query may nest. Every `{ … }` group counts one level, and
/// so does every expression level — a parenthesis, a builtin's argument, a
/// `!` — on top of the levels of the group it sits in. The parser, and
/// every later pass over a query (planning, evaluation, writing, dropping
/// it), recurse once per level; the server tests run a query at this bound
/// on a connection thread's default 2 MiB stack. A deeper query is a
/// [`ParseError`], which the server answers with `400`.
///
/// Stack per level, measured by bisecting the smallest thread stack that
/// survives (x86-64 Linux, rustc 1.95): parsing and writing back nested
/// groups, the costliest kind, take about 1.5 KiB per level in a release
/// build (200 KiB at this bound) and 6.7 KiB in a debug build (860 KiB);
/// expression levels take a little less, and planning plus executing a
/// query of nested `OPTIONAL`s at the bound needs no more than parsing
/// it. On a connection thread's default 2 MiB stack a release server keeps
/// about 1.8 MiB, nine tenths of it, to spare at the bound, so connection
/// threads keep the default stack size.
pub const MAX_NESTING: usize = 128;

/// Parses a SPARQL query string, interning constants into `dict`.
///
/// ```
/// use lusail_rdf::Dictionary;
/// use lusail_sparql::parse_query;
///
/// let dict = Dictionary::new();
/// let q = parse_query(
///     "PREFIX ex: <http://example.org/> \
///      SELECT ?name WHERE { ?p ex:name ?name . FILTER (?name != \"N/A\") } \
///      ORDER BY ?name LIMIT 10",
///     &dict,
/// )
/// .unwrap();
/// assert_eq!(q.projection, ["name"]);
/// assert_eq!(q.limit, Some(10));
/// assert_eq!(q.pattern.filters.len(), 1);
/// ```
pub fn parse_query(input: &str, dict: &Dictionary) -> Result<Query, ParseError> {
    let tokens = tokenize(input)
        .map_err(|e| ParseError(format!("lex error at byte {}: {}", e.position, e.message)))?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
        dict,
        prefixes: Vec::new(),
    };
    let q = parser.parse_query()?;
    parser.expect_eof()?;
    Ok(q)
}

struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    /// Nesting levels entered so far (see [`MAX_NESTING`]).
    depth: usize,
    dict: &'a Dictionary,
    prefixes: Vec<(String, String)>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn next(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error<T>(&self, msg: &str) -> Result<T, ParseError> {
        Err(ParseError(format!("{msg} (at {})", self.peek())))
    }

    /// Runs `parse` one nesting level deeper, refusing past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return self.error(&format!("query nests deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if *self.peek() == Token::Punct(c) {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat_punct(c) {
            Ok(())
        } else {
            self.error(&format!("expected '{c}'"))
        }
    }

    /// Case-insensitive keyword check without consuming.
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Word(w) if w.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            self.error(&format!("expected keyword {kw}"))
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if *self.peek() == Token::Eof {
            Ok(())
        } else {
            self.error("unexpected trailing content")
        }
    }

    fn resolve_prefix(&self, prefix: &str, local: &str) -> Result<String, ParseError> {
        for (p, iri) in &self.prefixes {
            if p == prefix {
                return Ok(format!("{iri}{local}"));
            }
        }
        // Built-in well-known prefixes, so short test queries don't need a
        // prologue.
        match prefix {
            "rdf" => Ok(format!(
                "http://www.w3.org/1999/02/22-rdf-syntax-ns#{local}"
            )),
            "rdfs" => Ok(format!("http://www.w3.org/2000/01/rdf-schema#{local}")),
            "owl" => Ok(format!("http://www.w3.org/2002/07/owl#{local}")),
            "xsd" => Ok(format!("http://www.w3.org/2001/XMLSchema#{local}")),
            _ => Err(ParseError(format!("unknown prefix '{prefix}:'"))),
        }
    }

    fn parse_query(&mut self) -> Result<Query, ParseError> {
        self.parse_prologue()?;
        if self.at_keyword("SELECT") {
            self.parse_select()
        } else if self.at_keyword("ASK") {
            self.next();
            let pattern = self.parse_group()?;
            Ok(Query::ask(pattern))
        } else {
            self.error("expected SELECT or ASK")
        }
    }

    fn parse_prologue(&mut self) -> Result<(), ParseError> {
        while self.eat_keyword("PREFIX") {
            let (prefix, local) = match self.next() {
                Token::PName(p, l) => (p, l),
                t => return Err(ParseError(format!("expected prefix name, got {t}"))),
            };
            if !local.is_empty() {
                return Err(ParseError(format!(
                    "prefix declaration '{prefix}:{local}' must end with ':'"
                )));
            }
            let iri = match self.next() {
                Token::Iri(i) => i,
                t => return Err(ParseError(format!("expected IRI after PREFIX, got {t}"))),
            };
            self.prefixes.push((prefix, iri));
        }
        Ok(())
    }

    fn parse_select(&mut self) -> Result<Query, ParseError> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let mut projection = Vec::new();
        let mut aggregates: Vec<Aggregate> = Vec::new();
        let mut exists: Vec<ExistsTest> = Vec::new();
        if self.eat_punct('*') {
            // SELECT * — empty projection.
        } else {
            loop {
                match self.peek() {
                    Token::Var(_) => {
                        if let Token::Var(v) = self.next() {
                            projection.push(v);
                        }
                    }
                    Token::Punct('(') => {
                        let after = self.tokens.get(self.pos + 1);
                        if matches!(after, Some(Token::Word(w)) if w.eq_ignore_ascii_case("EXISTS"))
                        {
                            exists.push(self.parse_exists_test()?);
                        } else {
                            aggregates.push(self.parse_aggregate()?);
                        }
                    }
                    _ => break,
                }
            }
            if projection.is_empty() && aggregates.is_empty() && exists.is_empty() {
                return self.error(
                    "expected projection variables, '*', (AGG(…) AS ?v) or (EXISTS {…} AS ?v)",
                );
            }
        }
        // WHERE is optional in SPARQL.
        self.eat_keyword("WHERE");
        let pattern = self.parse_group()?;
        // A projected EXISTS is evaluated once per query, not once per
        // solution: that is only its SPARQL meaning when it is uncorrelated.
        let outer = pattern.all_vars();
        for test in &exists {
            if let Some(v) = test.group.all_vars().iter().find(|v| outer.contains(v)) {
                return Err(ParseError(format!(
                    "projected EXISTS (AS ?{}) shares ?{v} with the WHERE pattern; \
                     only uncorrelated tests are supported",
                    test.alias
                )));
            }
        }
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            while let Token::Var(_) = self.peek() {
                if let Token::Var(v) = self.next() {
                    group_by.push(v);
                }
            }
            if group_by.is_empty() {
                return self.error("empty GROUP BY clause");
            }
        }
        let mut having = Vec::new();
        while self.eat_keyword("HAVING") {
            having.push(self.parse_bracketed_or_builtin()?);
        }
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                match self.peek().clone() {
                    Token::Var(v) => {
                        self.next();
                        order_by.push(OrderKey {
                            var: v,
                            descending: false,
                        });
                    }
                    Token::Word(w)
                        if w.eq_ignore_ascii_case("ASC") || w.eq_ignore_ascii_case("DESC") =>
                    {
                        let descending = w.eq_ignore_ascii_case("DESC");
                        self.next();
                        self.expect_punct('(')?;
                        let v = match self.next() {
                            Token::Var(v) => v,
                            t => {
                                return Err(ParseError(format!(
                                    "expected variable in ORDER BY, got {t}"
                                )))
                            }
                        };
                        self.expect_punct(')')?;
                        order_by.push(OrderKey { var: v, descending });
                    }
                    _ => break,
                }
            }
            if order_by.is_empty() {
                return self.error("empty ORDER BY clause");
            }
        }
        let mut limit = None;
        if self.eat_keyword("LIMIT") {
            match self.next() {
                Token::Number(n) => {
                    limit = Some(
                        n.parse::<usize>()
                            .map_err(|_| ParseError(format!("bad LIMIT value {n}")))?,
                    );
                }
                t => return Err(ParseError(format!("expected number after LIMIT, got {t}"))),
            }
        }
        Ok(Query {
            form: QueryForm::Select,
            distinct,
            projection,
            pattern,
            aggregates,
            exists,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    /// Parses `(FUNC(DISTINCT? (* | ?v)) AS ?alias)`.
    fn parse_aggregate(&mut self) -> Result<Aggregate, ParseError> {
        self.expect_punct('(')?;
        let func = match self.next() {
            Token::Word(w) if w.eq_ignore_ascii_case("COUNT") => AggFunc::Count,
            Token::Word(w) if w.eq_ignore_ascii_case("SUM") => AggFunc::Sum,
            Token::Word(w) if w.eq_ignore_ascii_case("MIN") => AggFunc::Min,
            Token::Word(w) if w.eq_ignore_ascii_case("MAX") => AggFunc::Max,
            Token::Word(w) if w.eq_ignore_ascii_case("AVG") => AggFunc::Avg,
            t => return Err(ParseError(format!("expected aggregate function, got {t}"))),
        };
        self.expect_punct('(')?;
        let distinct = self.eat_keyword("DISTINCT");
        let var = if self.eat_punct('*') {
            if func != AggFunc::Count {
                return self.error("only COUNT supports '*'");
            }
            None
        } else {
            match self.next() {
                Token::Var(v) => Some(v),
                t => return Err(ParseError(format!("expected variable or '*', got {t}"))),
            }
        };
        self.expect_punct(')')?;
        self.expect_keyword("AS")?;
        let alias = match self.next() {
            Token::Var(v) => v,
            t => return Err(ParseError(format!("expected alias variable, got {t}"))),
        };
        self.expect_punct(')')?;
        Ok(Aggregate {
            func,
            var,
            distinct,
            alias,
        })
    }

    /// Parses `(EXISTS { … } AS ?alias)`.
    fn parse_exists_test(&mut self) -> Result<ExistsTest, ParseError> {
        self.expect_punct('(')?;
        self.expect_keyword("EXISTS")?;
        let group = self.parse_group()?;
        self.expect_keyword("AS")?;
        let alias = match self.next() {
            Token::Var(v) => v,
            t => return Err(ParseError(format!("expected alias variable, got {t}"))),
        };
        self.expect_punct(')')?;
        Ok(ExistsTest { group, alias })
    }

    /// Parses `{ … }` into a flattened [`GroupPattern`].
    fn parse_group(&mut self) -> Result<GroupPattern, ParseError> {
        self.nested(Self::parse_group_body)
    }

    fn parse_group_body(&mut self) -> Result<GroupPattern, ParseError> {
        self.expect_punct('{')?;
        let mut group = GroupPattern::default();
        loop {
            if self.eat_punct('}') {
                return Ok(group);
            }
            match self.peek() {
                Token::Eof => return self.error("unexpected end of input inside group"),
                Token::Word(w) if w.eq_ignore_ascii_case("FILTER") => {
                    self.next();
                    if self.eat_keyword("NOT") {
                        self.expect_keyword("EXISTS")?;
                        let inner = self.parse_group()?;
                        group.not_exists.push(inner);
                    } else {
                        let expr = self.parse_bracketed_or_builtin()?;
                        group.filters.push(expr);
                    }
                    self.eat_punct('.');
                }
                Token::Word(w) if w.eq_ignore_ascii_case("OPTIONAL") => {
                    self.next();
                    let inner = self.parse_group()?;
                    group.optionals.push(inner);
                    self.eat_punct('.');
                }
                Token::Word(w) if w.eq_ignore_ascii_case("VALUES") => {
                    self.next();
                    let block = self.parse_values()?;
                    if group.values.is_some() {
                        return self.error("multiple VALUES blocks in one group");
                    }
                    group.values = Some(block);
                    self.eat_punct('.');
                }
                Token::Punct('{') => {
                    // Nested group: either a UNION chain or a plain subgroup.
                    let first = self.parse_group()?;
                    if self.at_keyword("UNION") {
                        let mut branches = vec![first];
                        while self.eat_keyword("UNION") {
                            branches.push(self.parse_group()?);
                        }
                        group.unions.push(branches);
                    } else {
                        // Flatten a plain nested group into the parent.
                        merge_group(&mut group, first)?;
                    }
                    self.eat_punct('.');
                }
                _ => {
                    self.parse_triples_block(&mut group.triples)?;
                }
            }
        }
    }

    /// Parses a triples block: `s p o (; p o)* (, o)* .?`
    fn parse_triples_block(&mut self, triples: &mut Vec<TriplePattern>) -> Result<(), ParseError> {
        let s = self.parse_pattern_term(Position::Subject)?;
        loop {
            let p = self.parse_pattern_term(Position::Predicate)?;
            loop {
                let o = self.parse_pattern_term(Position::Object)?;
                triples.push(TriplePattern::new(s.clone(), p.clone(), o));
                if !self.eat_punct(',') {
                    break;
                }
            }
            if !self.eat_punct(';') {
                break;
            }
            // Allow a dangling ';' before '.' or '}'.
            if matches!(self.peek(), Token::Punct('.') | Token::Punct('}')) {
                break;
            }
        }
        self.eat_punct('.');
        Ok(())
    }

    fn parse_pattern_term(&mut self, position: Position) -> Result<PatternTerm, ParseError> {
        match self.next() {
            Token::Var(v) => Ok(PatternTerm::Var(v)),
            Token::Iri(i) => Ok(PatternTerm::Const(self.dict.encode(&Term::iri(i)))),
            Token::PName(p, l) => {
                let iri = self.resolve_prefix(&p, &l)?;
                Ok(PatternTerm::Const(self.dict.encode(&Term::iri(iri))))
            }
            Token::Word(w) if w == "a" && position == Position::Predicate => Ok(
                PatternTerm::Const(self.dict.encode(&Term::iri(vocab::RDF_TYPE))),
            ),
            Token::Literal {
                lexical,
                lang,
                datatype,
            } if position == Position::Object => {
                Ok(PatternTerm::Const(self.dict.encode(&Term::Literal {
                    lexical,
                    lang,
                    datatype,
                })))
            }
            Token::Number(n) if position == Position::Object => {
                Ok(PatternTerm::Const(self.encode_number(&n)))
            }
            t => Err(ParseError(format!(
                "unexpected {t} in {position:?} position"
            ))),
        }
    }

    fn encode_number(&self, n: &str) -> TermId {
        let datatype = if n.contains('.') || n.contains('e') || n.contains('E') {
            vocab::XSD_DECIMAL
        } else {
            vocab::XSD_INTEGER
        };
        self.dict.encode(&Term::Literal {
            lexical: n.to_string(),
            lang: None,
            datatype: Some(datatype.to_string()),
        })
    }

    fn parse_values(&mut self) -> Result<ValuesBlock, ParseError> {
        let mut vars = Vec::new();
        let multi = self.eat_punct('(');
        loop {
            match self.peek() {
                Token::Var(_) => {
                    if let Token::Var(v) = self.next() {
                        vars.push(v);
                    }
                    if !multi {
                        break;
                    }
                }
                Token::Punct(')') if multi => {
                    self.next();
                    break;
                }
                t => return Err(ParseError(format!("expected variable in VALUES, got {t}"))),
            }
        }
        self.expect_punct('{')?;
        let mut rows = Rows::default();
        let mut row = Vec::with_capacity(vars.len());
        loop {
            if self.eat_punct('}') {
                break;
            }
            row.clear();
            if multi {
                self.expect_punct('(')?;
                while !self.eat_punct(')') {
                    row.push(self.parse_values_cell()?);
                }
            } else {
                row.push(self.parse_values_cell()?);
            }
            if row.len() != vars.len() {
                return Err(ParseError(format!(
                    "VALUES row has {} cells, expected {}",
                    row.len(),
                    vars.len()
                )));
            }
            rows.push(&row);
        }
        Ok(ValuesBlock { vars, rows })
    }

    fn parse_values_cell(&mut self) -> Result<Option<TermId>, ParseError> {
        match self.next() {
            Token::Word(w) if w.eq_ignore_ascii_case("UNDEF") => Ok(None),
            Token::Iri(i) => Ok(Some(self.dict.encode(&Term::iri(i)))),
            Token::PName(p, l) => {
                let iri = self.resolve_prefix(&p, &l)?;
                Ok(Some(self.dict.encode(&Term::iri(iri))))
            }
            Token::Literal {
                lexical,
                lang,
                datatype,
            } => Ok(Some(self.dict.encode(&Term::Literal {
                lexical,
                lang,
                datatype,
            }))),
            Token::Number(n) => Ok(Some(self.encode_number(&n))),
            t => Err(ParseError(format!("unexpected {t} in VALUES row"))),
        }
    }

    /// After `FILTER`, parse either `( expr )` or a bare builtin call.
    fn parse_bracketed_or_builtin(&mut self) -> Result<Expression, ParseError> {
        if *self.peek() == Token::Punct('(') {
            self.expect_punct('(')?;
            let e = self.parse_expr()?;
            self.expect_punct(')')?;
            Ok(e)
        } else {
            self.parse_primary_expr()
        }
    }

    fn parse_expr(&mut self) -> Result<Expression, ParseError> {
        self.nested(Self::parse_or)
    }

    fn parse_or(&mut self) -> Result<Expression, ParseError> {
        let mut left = self.parse_and()?;
        while *self.peek() == Token::Op("||") {
            self.next();
            let right = self.parse_and()?;
            left = Expression::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expression, ParseError> {
        let mut left = self.parse_cmp()?;
        while *self.peek() == Token::Op("&&") {
            self.next();
            let right = self.parse_cmp()?;
            left = Expression::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_cmp(&mut self) -> Result<Expression, ParseError> {
        let left = self.parse_unary()?;
        let op = match self.peek() {
            Token::Punct('=') => Some(CmpOp::Eq),
            Token::Op("!=") => Some(CmpOp::Ne),
            Token::Op("<") => Some(CmpOp::Lt),
            Token::Op("<=") => Some(CmpOp::Le),
            Token::Op(">") => Some(CmpOp::Gt),
            Token::Op(">=") => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.next();
            let right = self.parse_unary()?;
            Ok(Expression::Cmp(op, Box::new(left), Box::new(right)))
        } else {
            Ok(left)
        }
    }

    fn parse_unary(&mut self) -> Result<Expression, ParseError> {
        if *self.peek() == Token::Op("!") {
            self.next();
            let inner = self.nested(Self::parse_unary)?;
            return Ok(Expression::Not(Box::new(inner)));
        }
        self.parse_primary_expr()
    }

    fn parse_primary_expr(&mut self) -> Result<Expression, ParseError> {
        match self.peek().clone() {
            Token::Punct('(') => {
                self.next();
                let e = self.parse_expr()?;
                self.expect_punct(')')?;
                Ok(e)
            }
            Token::Var(v) => {
                self.next();
                Ok(Expression::Var(v))
            }
            Token::Iri(i) => {
                self.next();
                Ok(Expression::Const(self.dict.encode(&Term::iri(i))))
            }
            Token::PName(p, l) => {
                self.next();
                let iri = self.resolve_prefix(&p, &l)?;
                Ok(Expression::Const(self.dict.encode(&Term::iri(iri))))
            }
            Token::Literal {
                lexical,
                lang,
                datatype,
            } => {
                self.next();
                Ok(Expression::Const(self.dict.encode(&Term::Literal {
                    lexical,
                    lang,
                    datatype,
                })))
            }
            Token::Number(n) => {
                self.next();
                Ok(Expression::Const(self.encode_number(&n)))
            }
            Token::Word(w) => self.parse_builtin(&w),
            t => Err(ParseError(format!("unexpected {t} in expression"))),
        }
    }

    fn parse_builtin(&mut self, word: &str) -> Result<Expression, ParseError> {
        let upper = word.to_ascii_uppercase();
        self.next(); // consume the builtin name
        match upper.as_str() {
            "BOUND" => {
                self.expect_punct('(')?;
                let v = match self.next() {
                    Token::Var(v) => v,
                    t => return Err(ParseError(format!("expected variable in BOUND, got {t}"))),
                };
                self.expect_punct(')')?;
                Ok(Expression::Bound(v))
            }
            "REGEX" => {
                self.expect_punct('(')?;
                let target = self.parse_expr()?;
                self.expect_punct(',')?;
                let pattern = self.parse_string_arg()?;
                let mut ci = false;
                if self.eat_punct(',') {
                    let flags = self.parse_string_arg()?;
                    ci = flags.contains('i');
                }
                self.expect_punct(')')?;
                Ok(Expression::Regex(Box::new(target), pattern, ci))
            }
            "CONTAINS" => {
                self.expect_punct('(')?;
                let target = self.parse_expr()?;
                self.expect_punct(',')?;
                let needle = self.parse_string_arg()?;
                self.expect_punct(')')?;
                Ok(Expression::Contains(Box::new(target), needle))
            }
            "STR" => {
                self.expect_punct('(')?;
                let inner = self.parse_expr()?;
                self.expect_punct(')')?;
                Ok(Expression::Str(Box::new(inner)))
            }
            "LANG" => {
                self.expect_punct('(')?;
                let inner = self.parse_expr()?;
                self.expect_punct(')')?;
                Ok(Expression::Lang(Box::new(inner)))
            }
            "LANGMATCHES" => {
                self.expect_punct('(')?;
                let inner = self.parse_expr()?;
                self.expect_punct(',')?;
                let range = self.parse_string_arg()?;
                self.expect_punct(')')?;
                Ok(Expression::LangMatches(Box::new(inner), range))
            }
            other => Err(ParseError(format!("unsupported builtin {other}"))),
        }
    }

    fn parse_string_arg(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Token::Literal { lexical, .. } => Ok(lexical),
            t => Err(ParseError(format!("expected string literal, got {t}"))),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Position {
    Subject,
    Predicate,
    Object,
}

/// Merges a nested plain group into its parent (SPARQL group flattening for
/// the conjunctive case).
fn merge_group(parent: &mut GroupPattern, child: GroupPattern) -> Result<(), ParseError> {
    parent.triples.extend(child.triples);
    parent.filters.extend(child.filters);
    parent.optionals.extend(child.optionals);
    parent.unions.extend(child.unions);
    parent.not_exists.extend(child.not_exists);
    if let Some(v) = child.values {
        if parent.values.is_some() {
            return Err(ParseError("multiple VALUES blocks after flattening".into()));
        }
        parent.values = Some(v);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict() -> Dictionary {
        Dictionary::new()
    }

    #[test]
    fn parse_basic_select() {
        let d = dict();
        let q = parse_query("SELECT ?s ?o WHERE { ?s <http://x/p> ?o . }", &d).unwrap();
        assert_eq!(q.form, QueryForm::Select);
        assert_eq!(q.projection, ["s", "o"]);
        assert_eq!(q.pattern.triples.len(), 1);
        assert!(q.pattern.triples[0].s.is_var());
        assert_eq!(
            q.pattern.triples[0].p,
            PatternTerm::Const(d.lookup(&Term::iri("http://x/p")).unwrap())
        );
    }

    #[test]
    fn parse_prefixes_and_a() {
        let d = dict();
        let q = parse_query(
            "PREFIX ub: <http://ub.org/> SELECT ?x WHERE { ?x a ub:Student . }",
            &d,
        )
        .unwrap();
        assert_eq!(
            q.pattern.triples[0].p,
            PatternTerm::Const(d.lookup(&Term::iri(vocab::RDF_TYPE)).unwrap())
        );
        assert_eq!(
            q.pattern.triples[0].o,
            PatternTerm::Const(d.lookup(&Term::iri("http://ub.org/Student")).unwrap())
        );
    }

    #[test]
    fn parse_semicolon_and_comma_abbreviations() {
        let d = dict();
        let q = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?a , ?b ; <http://x/q> ?c . }",
            &d,
        )
        .unwrap();
        assert_eq!(q.pattern.triples.len(), 3);
        assert!(q
            .pattern
            .triples
            .iter()
            .all(|t| t.s == PatternTerm::Var("s".into())));
    }

    #[test]
    fn parse_ask() {
        let d = dict();
        let q = parse_query("ASK { ?s ?p ?o }", &d).unwrap();
        assert_eq!(q.form, QueryForm::Ask);
    }

    #[test]
    fn parse_count_star() {
        let d = dict();
        let q = parse_query("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }", &d).unwrap();
        let mut want = Query::count(q.pattern.clone());
        want.aggregates[0].alias = "n".into();
        assert_eq!(q, want);
    }

    #[test]
    fn parse_filter_expression() {
        let d = dict();
        let q = parse_query(
            "SELECT ?x WHERE { ?x <http://x/age> ?a . FILTER (?a >= 18 && ?a < 65) }",
            &d,
        )
        .unwrap();
        assert_eq!(q.pattern.filters.len(), 1);
        match &q.pattern.filters[0] {
            Expression::And(l, _) => match l.as_ref() {
                Expression::Cmp(CmpOp::Ge, _, _) => {}
                e => panic!("unexpected {e:?}"),
            },
            e => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn parse_filter_not_exists() {
        let d = dict();
        let q = parse_query(
            "SELECT ?p WHERE { ?p a <http://x/T> . \
             FILTER NOT EXISTS { SELECT ?p WHERE { ?p <http://x/q> ?c } } }",
            &d,
        );
        // Sub-selects inside NOT EXISTS are not supported; the paper's check
        // query shape uses a plain group. Verify the plain form works.
        assert!(q.is_err());
        let q = parse_query(
            "SELECT ?p WHERE { ?p a <http://x/T> . FILTER NOT EXISTS { ?p <http://x/q> ?c } }",
            &d,
        )
        .unwrap();
        assert_eq!(q.pattern.not_exists.len(), 1);
        assert_eq!(q.pattern.not_exists[0].triples.len(), 1);
    }

    #[test]
    fn parse_optional_and_limit() {
        let d = dict();
        let q = parse_query(
            "SELECT ?s ?n WHERE { ?s a <http://x/T> . OPTIONAL { ?s <http://x/name> ?n } } LIMIT 5",
            &d,
        )
        .unwrap();
        assert_eq!(q.pattern.optionals.len(), 1);
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn parse_union() {
        let d = dict();
        let q = parse_query(
            "SELECT ?x WHERE { { ?x a <http://x/A> } UNION { ?x a <http://x/B> } UNION { ?x a <http://x/C> } }",
            &d,
        )
        .unwrap();
        assert_eq!(q.pattern.unions.len(), 1);
        assert_eq!(q.pattern.unions[0].len(), 3);
    }

    #[test]
    fn parse_values_single_and_multi() {
        let d = dict();
        let q = parse_query(
            "SELECT ?x WHERE { ?x a <http://x/A> . VALUES ?x { <http://x/1> <http://x/2> } }",
            &d,
        )
        .unwrap();
        let v = q.pattern.values.unwrap();
        assert_eq!(v.vars, ["x"]);
        assert_eq!(v.rows.len(), 2);

        let q = parse_query(
            "SELECT * WHERE { VALUES (?a ?b) { (<http://x/1> UNDEF) (<http://x/2> \"z\") } ?a <http://x/p> ?b }",
            &d,
        )
        .unwrap();
        let v = q.pattern.values.unwrap();
        assert_eq!(v.vars, ["a", "b"]);
        assert_eq!(v.rows[0][1], None);
    }

    #[test]
    fn parse_distinct() {
        let d = dict();
        let q = parse_query("SELECT DISTINCT ?s WHERE { ?s ?p ?o }", &d).unwrap();
        assert!(q.distinct);
    }

    #[test]
    fn parse_nested_plain_group_flattens() {
        let d = dict();
        let q = parse_query(
            "SELECT * WHERE { { ?s <http://x/p> ?o } ?o <http://x/q> ?z }",
            &d,
        )
        .unwrap();
        assert_eq!(q.pattern.triples.len(), 2);
        assert!(q.pattern.unions.is_empty());
    }

    #[test]
    fn parse_regex_and_contains() {
        let d = dict();
        let q = parse_query(
            "SELECT ?x WHERE { ?x <http://x/name> ?n . FILTER REGEX(?n, \"smith\", \"i\") }",
            &d,
        )
        .unwrap();
        assert!(matches!(
            q.pattern.filters[0],
            Expression::Regex(_, ref p, true) if p == "smith"
        ));
        let q = parse_query(
            "SELECT ?x WHERE { ?x <http://x/name> ?n . FILTER CONTAINS(STR(?n), \"ab\") }",
            &d,
        )
        .unwrap();
        assert!(matches!(q.pattern.filters[0], Expression::Contains(_, _)));
    }

    #[test]
    fn parse_numbers_as_typed_literals() {
        let d = dict();
        let q = parse_query("SELECT ?x WHERE { ?x <http://x/v> 42 }", &d).unwrap();
        let id = q.pattern.triples[0].o.as_const().unwrap();
        assert_eq!(*d.decode(id), Term::int(42));
    }

    #[test]
    fn unknown_prefix_is_error() {
        let d = dict();
        assert!(parse_query("SELECT ?x WHERE { ?x nope:p ?y }", &d).is_err());
    }

    #[test]
    fn trailing_garbage_is_error() {
        let d = dict();
        assert!(parse_query("SELECT ?x WHERE { ?x ?p ?y } garbage", &d).is_err());
    }

    /// Parses `text` and says whether the nesting bound refused it.
    fn too_deep(text: &str) -> bool {
        match parse_query(text, &dict()) {
            Ok(_) => false,
            Err(e) if e.0.contains("nests deeper than 128 levels") => true,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn groups_nest_up_to_the_limit() {
        let groups = |depth: usize| {
            let (open, close) = ("{ ".repeat(depth), " }".repeat(depth));
            format!("SELECT * WHERE {open}?s ?p ?o{close}")
        };
        assert!(!too_deep(&groups(MAX_NESTING)));
        assert!(too_deep(&groups(MAX_NESTING + 1)));
        // An OPTIONAL or UNION group nests as a plain one does.
        let optionals = |depth: usize| {
            let open = "{ ?s ?p ?o OPTIONAL ".repeat(depth - 1);
            format!(
                "SELECT * WHERE {open}{{ ?s ?p ?o }}{}",
                " }".repeat(depth - 1)
            )
        };
        assert!(!too_deep(&optionals(MAX_NESTING)));
        assert!(too_deep(&optionals(MAX_NESTING + 1)));
    }

    #[test]
    fn expressions_nest_up_to_the_limit() {
        // The WHERE group is one level; each parenthesis, and each `!`
        // after the FILTER's own parenthesis, is one more.
        let parens = |depth: usize| {
            let (open, close) = ("(".repeat(depth - 1), ")".repeat(depth - 1));
            format!("SELECT * WHERE {{ ?s ?p ?o FILTER {open}?o{close} }}")
        };
        assert!(!too_deep(&parens(MAX_NESTING)));
        assert!(too_deep(&parens(MAX_NESTING + 1)));
        let negations = |depth: usize| {
            let not = "!".repeat(depth - 2);
            format!("SELECT * WHERE {{ ?s ?p ?o FILTER ({not}BOUND(?o)) }}")
        };
        assert!(!too_deep(&negations(MAX_NESTING)));
        assert!(too_deep(&negations(MAX_NESTING + 1)));
    }
}

#[cfg(test)]
mod aggregate_tests {
    use super::*;

    fn dict() -> Dictionary {
        Dictionary::new()
    }

    #[test]
    fn count_star_with_group_by_is_general_aggregate() {
        let d = dict();
        let q = parse_query(
            "SELECT ?p (COUNT(*) AS ?c) WHERE { ?s ?p ?o } GROUP BY ?p",
            &d,
        )
        .unwrap();
        assert_eq!(q.form, QueryForm::Select);
        assert_eq!(q.aggregates.len(), 1);
        assert_eq!(q.group_by, ["p"]);
        assert_eq!(q.projection, ["p"]);
        assert_eq!(q.output_vars(), ["p", "c"]);
    }

    #[test]
    fn all_aggregate_functions_parse() {
        let d = dict();
        let q = parse_query(
            "SELECT (COUNT(?a) AS ?c) (SUM(?a) AS ?s) (MIN(?a) AS ?lo) \
                    (MAX(?a) AS ?hi) (AVG(?a) AS ?m) \
             WHERE { ?x <http://x/v> ?a }",
            &d,
        )
        .unwrap();
        assert_eq!(q.aggregates.len(), 5);
        use crate::ast::AggFunc::*;
        let funcs: Vec<_> = q.aggregates.iter().map(|a| a.func).collect();
        assert_eq!(funcs, [Count, Sum, Min, Max, Avg]);
    }

    #[test]
    fn sum_star_is_rejected() {
        let d = dict();
        assert!(parse_query("SELECT (SUM(*) AS ?s) WHERE { ?s ?p ?o }", &d).is_err());
    }

    #[test]
    fn empty_group_by_is_rejected() {
        let d = dict();
        assert!(parse_query("SELECT (COUNT(*) AS ?c) WHERE { ?s ?p ?o } GROUP BY", &d).is_err());
    }

    #[test]
    fn having_requires_parenthesized_expression() {
        let d = dict();
        let q = parse_query(
            "SELECT ?p (COUNT(*) AS ?c) WHERE { ?s ?p ?o } GROUP BY ?p HAVING (?c > 2)",
            &d,
        )
        .unwrap();
        assert_eq!(q.having.len(), 1);
    }

    #[test]
    fn missing_alias_is_rejected() {
        let d = dict();
        assert!(parse_query("SELECT (COUNT(*)) WHERE { ?s ?p ?o }", &d).is_err());
    }
}
