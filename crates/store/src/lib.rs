//! An in-memory, dictionary-encoded RDF triple store with a SPARQL
//! evaluator.
//!
//! Each decentralized endpoint in the federation is backed by one
//! [`StorageBackend`]: either the mutable [`TripleStore`] — three
//! orderings of its triples (SPO, POS, OSP) so that any triple-pattern
//! access path is a contiguous range scan, mirroring the index layout of
//! engines like RDF-3X — or the immutable bit-packed [`ColumnStore`]
//! built once from sorted triples. The backend contract
//! is scans, estimates and accounting; per-predicate triple counts, which
//! make `(?, p, ?)` estimates exact, are kept on insert (BTree) or fall
//! out of the sorted runs (columnar).
//!
//! Every offline summary of an endpoint is built by one
//! [`for_each_spo`](StorageBackend::for_each_spo) pass that charges no
//! scanned rows: [`EndpointStats`] (characteristic sets and per-predicate
//! triple / distinct subject / distinct object counts) answers Lusail's
//! conclusive probes and is also the VOID description the SPLENDID
//! baseline plans with.
//!
//! The [`eval`] module implements the SPARQL subset from
//! [`lusail_sparql`]: BGPs (index nested-loop joins with greedy
//! selectivity ordering), FILTER (including NOT EXISTS), OPTIONAL, UNION,
//! VALUES, DISTINCT and LIMIT — generic over `&dyn StorageBackend`.

pub mod backend;
mod columns;
pub mod eval;
mod expr;
pub mod stats;
mod store;

pub use backend::{BackendKind, StorageBackend};
pub use columns::ColumnStore;
pub use stats::{CharacteristicSet, EndpointStats, PredicateSummary};
pub use store::{TripleStore, ESTIMATE_CAP};
