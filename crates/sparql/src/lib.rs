//! A SPARQL subset sufficient for federated query processing à la Lusail
//! (ICDE 2017).
//!
//! The crate provides:
//!
//! * [`ast`] — the query algebra: `SELECT` (aggregates included) and `ASK`
//!   forms over group graph patterns with basic graph patterns, `FILTER`
//!   (including `FILTER NOT EXISTS`), `OPTIONAL`, `UNION`, `VALUES`,
//!   `DISTINCT` and `LIMIT`;
//! * [`parse_query`] — a hand-written recursive-descent parser that interns all
//!   constant terms into a shared [`Dictionary`](lusail_rdf::Dictionary);
//! * [`write_query`] — a serializer back to SPARQL text, used to simulate the
//!   wire format between the federated engine and the endpoints;
//! * [`solution`] — result sets (`SolutionSet`) exchanged between engines
//!   and endpoints, over [`Rows`] — one flat buffer of cells per relation.
//!
//! The subset is exactly what the paper's workloads exercise; anything
//! outside it is a parse error rather than a silent misinterpretation.

pub mod ast;
mod lexer;
mod parser;
mod rows;
pub mod solution;
mod writer;

pub use ast::{
    CmpOp, Expression, GroupPattern, PatternTerm, Query, QueryForm, TriplePattern, ValuesBlock,
};
pub use parser::{parse_query, ParseError, MAX_NESTING};
pub use rows::Rows;
pub use solution::SolutionSet;
pub use writer::{query_wire_len, values_row_wire_len, write_query};
