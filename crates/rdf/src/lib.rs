//! RDF data model for the Lusail reproduction.
//!
//! This crate provides the vocabulary-independent building blocks shared by
//! every other crate in the workspace:
//!
//! * [`Term`] — an RDF term (IRI, literal, or blank node),
//! * [`Dictionary`] — a thread-safe interning dictionary mapping terms to
//!   dense [`TermId`]s (dictionary encoding, the standard trick in RDF
//!   engines such as RDF-3X and Virtuoso),
//! * [`Triple`] — a dictionary-encoded RDF triple,
//! * [`ntriples`] — a small N-Triples parser and serializer,
//! * [`fx`] — a fast, non-cryptographic hasher used for integer-keyed maps
//!   throughout the workspace (per the Rust perf-book guidance; implemented
//!   here to avoid an extra dependency),
//! * [`SplitMix64`] — the deterministic generator every seeded dataset,
//!   fault stream and randomized test draws from.

mod dictionary;
pub mod fx;
pub mod ntriples;
mod splitmix;
mod term;
mod triple;

pub use dictionary::{Dictionary, TermId};
pub use fx::{FxHashMap, FxHashSet};
pub use splitmix::SplitMix64;
pub use term::Term;
pub use triple::Triple;

/// Common RDF vocabulary IRIs used across the workspace.
pub mod vocab {
    /// `rdf:type`.
    pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
    /// `rdfs:label`.
    pub const RDFS_LABEL: &str = "http://www.w3.org/2000/01/rdf-schema#label";
    /// `owl:sameAs`.
    pub const OWL_SAME_AS: &str = "http://www.w3.org/2002/07/owl#sameAs";
    /// `xsd:integer`.
    pub const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
    /// `xsd:decimal`.
    pub const XSD_DECIMAL: &str = "http://www.w3.org/2001/XMLSchema#decimal";
    /// `xsd:boolean`.
    pub const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
}
