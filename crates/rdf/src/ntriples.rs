//! A small N-Triples parser and serializer.
//!
//! Supports the subset of N-Triples the workspace needs: IRIs, blank nodes,
//! and literals with optional language tags or datatypes, with the standard
//! string escapes. Each line holds one triple terminated by `.`.

use crate::dictionary::Dictionary;
use crate::term::Term;
use crate::triple::Triple;
use std::fmt::Write as _;

/// An error raised while parsing N-Triples text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "N-Triples parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a full N-Triples document, interning terms into `dict` and
/// returning the encoded triples. Blank lines and `#` comments are skipped.
pub fn parse_document(text: &str, dict: &Dictionary) -> Result<Vec<Triple>, ParseError> {
    let mut triples = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let (s, p, o) = parse_line(trimmed).map_err(|message| ParseError {
            line: line_no,
            message,
        })?;
        triples.push(Triple::new(
            dict.encode(&s),
            dict.encode(&p),
            dict.encode(&o),
        ));
    }
    Ok(triples)
}

/// Parses one N-Triples line (without trailing newline) into three terms.
pub(crate) fn parse_line(line: &str) -> Result<(Term, Term, Term), String> {
    let mut cursor = Cursor::new(line);
    let s = cursor.parse_term()?;
    let p = cursor.parse_term()?;
    let o = cursor.parse_term()?;
    cursor.skip_ws();
    if !cursor.eat('.') {
        return Err("expected terminating '.'".into());
    }
    cursor.skip_ws();
    if !cursor.at_end() {
        return Err("trailing content after '.'".into());
    }
    Ok((s, p, o))
}

/// Serializes triples as an N-Triples document.
pub fn serialize(triples: &[Triple], dict: &Dictionary) -> String {
    let mut out = String::new();
    for t in triples {
        let _ = writeln!(
            out,
            "{} {} {} .",
            dict.decode(t.s),
            dict.decode(t.p),
            dict.decode(t.o)
        );
    }
    out
}

struct Cursor<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str) -> Self {
        Cursor {
            chars: s.chars().peekable(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(c) if c.is_whitespace()) {
            self.chars.next();
        }
    }

    fn eat(&mut self, c: char) -> bool {
        if self.chars.peek() == Some(&c) {
            self.chars.next();
            true
        } else {
            false
        }
    }

    fn at_end(&mut self) -> bool {
        self.chars.peek().is_none()
    }

    fn parse_term(&mut self) -> Result<Term, String> {
        self.skip_ws();
        match self.chars.peek() {
            Some('<') => self.parse_iri().map(Term::Iri),
            Some('_') => self.parse_blank(),
            Some('"') => self.parse_literal(),
            other => Err(format!("unexpected character {other:?} at start of term")),
        }
    }

    fn parse_iri(&mut self) -> Result<String, String> {
        assert!(self.eat('<'));
        let mut iri = String::new();
        for c in self.chars.by_ref() {
            if c == '>' {
                return Ok(iri);
            }
            iri.push(c);
        }
        Err("unterminated IRI".into())
    }

    fn parse_blank(&mut self) -> Result<Term, String> {
        assert!(self.eat('_'));
        if !self.eat(':') {
            return Err("expected ':' after '_' in blank node".into());
        }
        let mut label = String::new();
        while let Some(&c) = self.chars.peek() {
            if c.is_alphanumeric() || c == '_' || c == '-' {
                label.push(c);
                self.chars.next();
            } else {
                break;
            }
        }
        if label.is_empty() {
            return Err("empty blank node label".into());
        }
        Ok(Term::Blank(label))
    }

    fn parse_literal(&mut self) -> Result<Term, String> {
        assert!(self.eat('"'));
        let mut lexical = String::new();
        loop {
            match self.chars.next() {
                None => return Err("unterminated literal".into()),
                Some('"') => break,
                Some('\\') => match self.chars.next() {
                    Some('n') => lexical.push('\n'),
                    Some('r') => lexical.push('\r'),
                    Some('t') => lexical.push('\t'),
                    Some('"') => lexical.push('"'),
                    Some('\\') => lexical.push('\\'),
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) => lexical.push(c),
            }
        }
        // Optional language tag or datatype.
        if self.eat('@') {
            let mut lang = String::new();
            while let Some(&c) = self.chars.peek() {
                if c.is_ascii_alphanumeric() || c == '-' {
                    lang.push(c);
                    self.chars.next();
                } else {
                    break;
                }
            }
            if lang.is_empty() {
                return Err("empty language tag".into());
            }
            Ok(Term::lang_lit(lexical, lang))
        } else if self.eat('^') {
            if !self.eat('^') {
                return Err("expected '^^' before datatype".into());
            }
            if self.chars.peek() != Some(&'<') {
                return Err("expected IRI after '^^'".into());
            }
            let dt = self.parse_iri()?;
            Ok(Term::Literal {
                lexical,
                lang: None,
                datatype: Some(dt),
            })
        } else {
            Ok(Term::lit(lexical))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_triple() {
        let (s, p, o) = parse_line("<http://x/a> <http://x/p> <http://x/b> .").unwrap();
        assert_eq!(s, Term::iri("http://x/a"));
        assert_eq!(p, Term::iri("http://x/p"));
        assert_eq!(o, Term::iri("http://x/b"));
    }

    #[test]
    fn parse_literal_objects() {
        let (_, _, o) = parse_line("<http://x/a> <http://x/p> \"hi\" .").unwrap();
        assert_eq!(o, Term::lit("hi"));
        let (_, _, o) = parse_line("<http://x/a> <http://x/p> \"hi\"@en .").unwrap();
        assert_eq!(o, Term::lang_lit("hi", "en"));
        let (_, _, o) = parse_line(
            "<http://x/a> <http://x/p> \"3\"^^<http://www.w3.org/2001/XMLSchema#integer> .",
        )
        .unwrap();
        assert_eq!(o, Term::int(3));
    }

    #[test]
    fn parse_blank_nodes() {
        let (s, _, _) = parse_line("_:b0 <http://x/p> \"v\" .").unwrap();
        assert_eq!(s, Term::Blank("b0".into()));
    }

    #[test]
    fn parse_escaped_literal() {
        let (_, _, o) = parse_line(r#"<http://x/a> <http://x/p> "a\"b\nc" ."#).unwrap();
        assert_eq!(o, Term::lit("a\"b\nc"));
    }

    #[test]
    fn document_roundtrip() {
        let dict = Dictionary::new();
        let doc = "<http://x/a> <http://x/p> \"hi\"@en .\n\
                   # a comment\n\
                   \n\
                   _:b <http://x/q> \"3\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
        let triples = parse_document(doc, &dict).unwrap();
        assert_eq!(triples.len(), 2);
        let out = serialize(&triples, &dict);
        let reparsed = parse_document(&out, &dict).unwrap();
        assert_eq!(triples, reparsed);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let dict = Dictionary::new();
        let err = parse_document("<http://x/a> <http://x/p> .\n", &dict).unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_line("<http://x/a> <http://x/p> \"v\" . extra").is_err());
    }
}
