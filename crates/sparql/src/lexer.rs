//! Tokenizer for the SPARQL subset.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// `<…>` IRI reference (contents only).
    Iri(String),
    /// Prefixed name `prefix:local` (the prefix may be empty).
    PName(String, String),
    /// `?name` or `$name` variable (name only).
    Var(String),
    /// String literal with optional language tag / datatype IRI.
    Literal {
        /// Lexical form with escapes resolved.
        lexical: String,
        /// `@lang`, if present.
        lang: Option<String>,
        /// `^^<iri>` datatype, if present.
        datatype: Option<String>,
    },
    /// Numeric literal, kept in source form.
    Number(String),
    /// A bare word: keyword or the `a` shorthand. Uppercased for keywords.
    Word(String),
    /// Single punctuation: `{ } ( ) . ; , * =`.
    Punct(char),
    /// `!=`, `<=`, `>=`, `&&`, `||`, `!`, `<`, `>`.
    Op(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Iri(i) => write!(f, "<{i}>"),
            Token::PName(p, l) => write!(f, "{p}:{l}"),
            Token::Var(v) => write!(f, "?{v}"),
            Token::Literal { lexical, .. } => write!(f, "\"{lexical}\""),
            Token::Number(n) => write!(f, "{n}"),
            Token::Word(w) => write!(f, "{w}"),
            Token::Punct(c) => write!(f, "{c}"),
            Token::Op(o) => write!(f, "{o}"),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}

/// Error produced by the lexer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset of the error in the input.
    pub position: usize,
    /// Description of the problem.
    pub message: String,
}

/// Tokenizes a SPARQL query string. `#` starts a comment to end of line
/// (except inside IRIs/literals).
pub(crate) fn tokenize(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '<' => {
                // Either an IRI or the `<`/`<=` operator. An IRI follows `<`
                // with no whitespace and contains no spaces before `>`.
                if let Some((iri, next)) = try_iri(input, i) {
                    tokens.push(Token::Iri(iri));
                    i = next;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Op("<="));
                    i += 2;
                } else {
                    tokens.push(Token::Op("<"));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Op(">="));
                    i += 2;
                } else {
                    tokens.push(Token::Op(">"));
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Op("!="));
                    i += 2;
                } else {
                    tokens.push(Token::Op("!"));
                    i += 1;
                }
            }
            '&' => {
                if bytes.get(i + 1) == Some(&b'&') {
                    tokens.push(Token::Op("&&"));
                    i += 2;
                } else {
                    return Err(err(i, "stray '&'"));
                }
            }
            '|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    tokens.push(Token::Op("||"));
                    i += 2;
                } else {
                    return Err(err(i, "stray '|'"));
                }
            }
            '?' | '$' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && is_name_char(bytes[j] as char) {
                    j += 1;
                }
                if j == start {
                    return Err(err(i, "empty variable name"));
                }
                tokens.push(Token::Var(input[start..j].to_string()));
                i = j;
            }
            '"' => {
                let (tok, next) = lex_string(input, i)?;
                tokens.push(tok);
                i = next;
            }
            '{' | '}' | '(' | ')' | '.' | ';' | ',' | '*' | '=' => {
                // '.' could start a decimal like `.5`; the workloads never
                // use that form, so '.' is always punctuation here.
                tokens.push(Token::Punct(c));
                i += 1;
            }
            c if c.is_ascii_digit() || c == '-' || c == '+' => {
                let start = i;
                let mut j = i + 1;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_digit()
                        || bytes[j] == b'.'
                        || bytes[j] == b'e'
                        || bytes[j] == b'E')
                {
                    // Don't swallow a trailing '.' (triple terminator).
                    if bytes[j] == b'.'
                        && !(j + 1 < bytes.len() && (bytes[j + 1] as char).is_ascii_digit())
                    {
                        break;
                    }
                    j += 1;
                }
                if j == start + 1 && !(bytes[start] as char).is_ascii_digit() {
                    return Err(err(i, "stray sign character"));
                }
                tokens.push(Token::Number(input[start..j].to_string()));
                i = j;
            }
            c if is_name_start(c) => {
                let start = i;
                let mut j = i;
                while j < bytes.len() && is_name_char(bytes[j] as char) {
                    j += 1;
                }
                // Prefixed name if immediately followed by ':'.
                if j < bytes.len() && bytes[j] == b':' {
                    let prefix = input[start..j].to_string();
                    let lstart = j + 1;
                    let mut k = lstart;
                    while k < bytes.len() && is_local_char(bytes[k] as char) {
                        k += 1;
                    }
                    tokens.push(Token::PName(prefix, input[lstart..k].to_string()));
                    i = k;
                } else {
                    tokens.push(Token::Word(input[start..j].to_string()));
                    i = j;
                }
            }
            ':' => {
                // Prefixed name with empty prefix.
                let lstart = i + 1;
                let mut k = lstart;
                while k < bytes.len() && is_local_char(bytes[k] as char) {
                    k += 1;
                }
                tokens.push(Token::PName(String::new(), input[lstart..k].to_string()));
                i = k;
            }
            _ => return Err(err(i, &format!("unexpected character {c:?}"))),
        }
    }
    tokens.push(Token::Eof);
    Ok(tokens)
}

fn err(position: usize, message: &str) -> LexError {
    LexError {
        position,
        message: message.to_string(),
    }
}

fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn is_local_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '-' || c == '.'
}

/// Attempts to lex an IRI starting at `start` (which must be `<`). Returns
/// the IRI contents and the index after `>`. IRIs must not contain
/// whitespace; if a space or newline is hit first, this is not an IRI.
fn try_iri(input: &str, start: usize) -> Option<(String, usize)> {
    let bytes = input.as_bytes();
    let mut j = start + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'>' => return Some((input[start + 1..j].to_string(), j + 1)),
            b' ' | b'\t' | b'\n' | b'\r' | b'{' | b'}' => return None,
            _ => j += 1,
        }
    }
    None
}

fn lex_string(input: &str, start: usize) -> Result<(Token, usize), LexError> {
    let bytes = input.as_bytes();
    let mut lexical = String::new();
    let mut i = start + 1;
    loop {
        if i >= bytes.len() {
            return Err(err(start, "unterminated string literal"));
        }
        match bytes[i] {
            b'"' => {
                i += 1;
                break;
            }
            b'\\' => {
                i += 1;
                match bytes.get(i) {
                    Some(b'n') => lexical.push('\n'),
                    Some(b't') => lexical.push('\t'),
                    Some(b'r') => lexical.push('\r'),
                    Some(b'"') => lexical.push('"'),
                    Some(b'\\') => lexical.push('\\'),
                    _ => return Err(err(i, "bad escape in string literal")),
                }
                i += 1;
            }
            _ => {
                // Copy one UTF-8 character.
                let ch = input[i..].chars().next().unwrap();
                lexical.push(ch);
                i += ch.len_utf8();
            }
        }
    }
    // Optional @lang or ^^<iri>.
    if i < bytes.len() && bytes[i] == b'@' {
        let lstart = i + 1;
        let mut j = lstart;
        while j < bytes.len() && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'-') {
            j += 1;
        }
        if j == lstart {
            return Err(err(i, "empty language tag"));
        }
        return Ok((
            Token::Literal {
                lexical,
                lang: Some(input[lstart..j].to_string()),
                datatype: None,
            },
            j,
        ));
    }
    if i + 1 < bytes.len() && bytes[i] == b'^' && bytes[i + 1] == b'^' {
        let (iri, next) = try_iri(input, i + 2).ok_or_else(|| err(i, "expected IRI after '^^'"))?;
        return Ok((
            Token::Literal {
                lexical,
                lang: None,
                datatype: Some(iri),
            },
            next,
        ));
    }
    Ok((
        Token::Literal {
            lexical,
            lang: None,
            datatype: None,
        },
        i,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_select_tokens() {
        let toks = tokenize("SELECT ?s WHERE { ?s <http://x/p> \"v\" . }").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Word("SELECT".into()),
                Token::Var("s".into()),
                Token::Word("WHERE".into()),
                Token::Punct('{'),
                Token::Var("s".into()),
                Token::Iri("http://x/p".into()),
                Token::Literal {
                    lexical: "v".into(),
                    lang: None,
                    datatype: None
                },
                Token::Punct('.'),
                Token::Punct('}'),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn prefixed_names() {
        let toks = tokenize("ub:GraduateStudent rdf:type :local").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::PName("ub".into(), "GraduateStudent".into()),
                Token::PName("rdf".into(), "type".into()),
                Token::PName("".into(), "local".into()),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn comparison_vs_iri() {
        let toks = tokenize("FILTER (?x < 5 && ?y >= 2)").unwrap();
        assert!(toks.contains(&Token::Op("<")));
        assert!(toks.contains(&Token::Op(">=")));
        assert!(toks.contains(&Token::Op("&&")));
        // `<http://x>` must still lex as an IRI.
        let toks = tokenize("?x = <http://x>").unwrap();
        assert!(toks.contains(&Token::Iri("http://x".into())));
    }

    #[test]
    fn numbers_do_not_swallow_dot_terminator() {
        let toks = tokenize("?s ?p 5 .").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Var("s".into()),
                Token::Var("p".into()),
                Token::Number("5".into()),
                Token::Punct('.'),
                Token::Eof,
            ]
        );
        let toks = tokenize("3.5 .").unwrap();
        assert_eq!(toks[0], Token::Number("3.5".into()));
        assert_eq!(toks[1], Token::Punct('.'));
    }

    #[test]
    fn string_with_lang_and_datatype() {
        let toks = tokenize("\"hi\"@en \"3\"^^<http://dt>").unwrap();
        assert_eq!(
            toks[0],
            Token::Literal {
                lexical: "hi".into(),
                lang: Some("en".into()),
                datatype: None
            }
        );
        assert_eq!(
            toks[1],
            Token::Literal {
                lexical: "3".into(),
                lang: None,
                datatype: Some("http://dt".into())
            }
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("?s # comment with <junk> \"stuff\"\n?p").unwrap();
        assert_eq!(
            toks,
            vec![Token::Var("s".into()), Token::Var("p".into()), Token::Eof]
        );
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokenize("\"abc").is_err());
    }

    #[test]
    fn escaped_quotes_in_string() {
        let toks = tokenize(r#""a\"b""#).unwrap();
        assert_eq!(
            toks[0],
            Token::Literal {
                lexical: "a\"b".into(),
                lang: None,
                datatype: None
            }
        );
    }
}
