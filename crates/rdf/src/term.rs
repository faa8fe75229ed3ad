//! RDF terms: IRIs, literals, and blank nodes.

use std::fmt;

/// An RDF term.
///
/// Literals carry an optional language tag or datatype IRI (mutually
/// exclusive per the RDF 1.1 data model; a plain literal has neither).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI reference, stored without the surrounding angle brackets.
    Iri(String),
    /// A literal value.
    Literal {
        /// The lexical form.
        lexical: String,
        /// Language tag (e.g. `en`), if any.
        lang: Option<String>,
        /// Datatype IRI, if any.
        datatype: Option<String>,
    },
    /// A blank node with its local label (without the `_:` prefix).
    Blank(String),
}

impl Term {
    /// Convenience constructor for an IRI term.
    pub fn iri(iri: impl Into<String>) -> Self {
        Term::Iri(iri.into())
    }

    /// Convenience constructor for a plain literal.
    pub fn lit(lexical: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            lang: None,
            datatype: None,
        }
    }

    /// Convenience constructor for an integer literal (`xsd:integer`).
    pub fn int(value: i64) -> Self {
        Term::Literal {
            lexical: value.to_string(),
            lang: None,
            datatype: Some(crate::vocab::XSD_INTEGER.to_string()),
        }
    }

    /// Convenience constructor for a boolean literal (`xsd:boolean`).
    pub fn boolean(value: bool) -> Self {
        Term::Literal {
            lexical: value.to_string(),
            lang: None,
            datatype: Some(crate::vocab::XSD_BOOLEAN.to_string()),
        }
    }

    /// Convenience constructor for a language-tagged literal.
    pub fn lang_lit(lexical: impl Into<String>, lang: impl Into<String>) -> Self {
        Term::Literal {
            lexical: lexical.into(),
            lang: Some(lang.into()),
            datatype: None,
        }
    }

    /// The lexical value of the term: IRI text, literal lexical form, or
    /// blank-node label.
    pub fn lexical(&self) -> &str {
        match self {
            Term::Iri(i) => i,
            Term::Literal { lexical, .. } => lexical,
            Term::Blank(b) => b,
        }
    }

    /// Numeric interpretation of a literal, if its lexical form parses.
    ///
    /// Used by FILTER comparison semantics: numeric comparison is preferred
    /// when both operands are numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Term::Literal { lexical, .. } => lexical.parse().ok(),
            _ => None,
        }
    }

    /// The *authority* (scheme + host) of an IRI, used by the HiBISCuS-style
    /// source-pruning baseline. Returns `None` for non-IRI terms.
    ///
    /// For `http://example.org/a/b` this returns `http://example.org`.
    pub fn authority(&self) -> Option<&str> {
        let Term::Iri(iri) = self else { return None };
        let scheme_end = iri.find("://")?;
        let rest = &iri[scheme_end + 3..];
        let host_end = rest.find('/').unwrap_or(rest.len());
        Some(&iri[..scheme_end + 3 + host_end])
    }

    /// The length in bytes of the term's `Display` text, computed without
    /// formatting it: what a request's byte count charges per term.
    pub fn wire_len(&self) -> usize {
        match self {
            Term::Iri(i) => i.len() + 2,
            Term::Literal {
                lexical,
                lang,
                datatype,
            } => {
                // Each escaped character is one ASCII byte written as two.
                let escapes = lexical
                    .bytes()
                    .filter(|b| matches!(b, b'"' | b'\\' | b'\n' | b'\r' | b'\t'))
                    .count();
                let suffix = match (lang, datatype) {
                    (Some(lang), _) => 1 + lang.len(),
                    (None, Some(dt)) => 4 + dt.len(),
                    (None, None) => 0,
                };
                2 + lexical.len() + escapes + suffix
            }
            Term::Blank(b) => 2 + b.len(),
        }
    }
}

impl fmt::Display for Term {
    /// Formats the term in N-Triples syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(i) => write!(f, "<{i}>"),
            Term::Literal {
                lexical,
                lang,
                datatype,
            } => {
                write!(f, "\"")?;
                for c in lexical.chars() {
                    match c {
                        '"' => write!(f, "\\\"")?,
                        '\\' => write!(f, "\\\\")?,
                        '\n' => write!(f, "\\n")?,
                        '\r' => write!(f, "\\r")?,
                        '\t' => write!(f, "\\t")?,
                        c => write!(f, "{c}")?,
                    }
                }
                write!(f, "\"")?;
                if let Some(lang) = lang {
                    write!(f, "@{lang}")?;
                } else if let Some(dt) = datatype {
                    write!(f, "^^<{dt}>")?;
                }
                Ok(())
            }
            Term::Blank(b) => write!(f, "_:{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_iri() {
        assert_eq!(Term::iri("http://x.org/a").to_string(), "<http://x.org/a>");
    }

    #[test]
    fn display_plain_literal() {
        assert_eq!(Term::lit("hello").to_string(), "\"hello\"");
    }

    #[test]
    fn display_escapes_quotes_and_backslashes() {
        assert_eq!(Term::lit("a\"b\\c\nd").to_string(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn display_lang_literal() {
        assert_eq!(Term::lang_lit("hi", "en").to_string(), "\"hi\"@en");
    }

    #[test]
    fn display_typed_literal() {
        assert_eq!(
            Term::int(42).to_string(),
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
    }

    #[test]
    fn display_blank() {
        assert_eq!(Term::Blank("b0".into()).to_string(), "_:b0");
    }

    #[test]
    fn wire_len_is_the_display_length() {
        let terms = [
            Term::iri("http://x.org/a"),
            Term::iri(""),
            Term::lit(""),
            Term::lit("plain"),
            Term::lit("quote \" here"),
            Term::lit("backslash \\ here"),
            Term::lit("newline \n here"),
            Term::lit("return \r here"),
            Term::lit("tab \t here"),
            Term::lit("all five \"\\\n\r\t at once"),
            Term::lit("gr\u{fc}\u{df}e \u{1F600} \u{4e2d}"),
            Term::lang_lit("hi \"there\"", "en-GB"),
            Term::int(-42),
            Term::boolean(true),
            Term::Literal {
                lexical: "both".into(),
                lang: Some("en".into()),
                datatype: Some("http://x/dt".into()),
            },
            Term::Blank("b0".into()),
            Term::Blank(String::new()),
        ];
        for t in &terms {
            assert_eq!(t.wire_len(), t.to_string().len(), "{t:?}");
        }
    }

    #[test]
    fn numeric_interpretation() {
        assert_eq!(Term::int(7).as_f64(), Some(7.0));
        assert_eq!(Term::lit("3.5").as_f64(), Some(3.5));
        assert_eq!(Term::lit("abc").as_f64(), None);
        assert_eq!(Term::iri("http://x/1").as_f64(), None);
    }

    #[test]
    fn authority_extraction() {
        assert_eq!(
            Term::iri("http://example.org/a/b").authority(),
            Some("http://example.org")
        );
        assert_eq!(
            Term::iri("http://example.org").authority(),
            Some("http://example.org")
        );
        assert_eq!(Term::lit("x").authority(), None);
        assert_eq!(Term::iri("no-scheme").authority(), None);
    }
}
