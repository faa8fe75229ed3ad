//! Re-implementations of the federated SPARQL systems the paper compares
//! against.
//!
//! The paper evaluates Lusail against three systems; each is rebuilt here
//! from its published algorithm so the comparison exercises the same
//! *strategies* the original Java codebases implement:
//!
//! * [`fedx`] — **FedX** (Schwarte et al., ISWC 2011): index-free. ASK
//!   source selection with caching, *exclusive groups* (patterns whose
//!   single relevant source coincides), variable-counting join ordering,
//!   and block nested-loop **bound joins** that ship intermediate bindings
//!   in fixed-size blocks — the triple-pattern-at-a-time behaviour whose
//!   request explosion Fig. 3 of the paper demonstrates.
//! * [`splendid`] — **SPLENDID** (Görlitz & Staab, COLD 2011):
//!   index-based. A VOID-style statistics index built in a preprocessing
//!   pass (whose cost the paper reports: seconds to hours), DP-style join
//!   ordering over index cardinalities, and per-join choice between hash
//!   join (independent retrieval) and bind join.
//! * [`hibiscus`] — **HiBISCuS** (Saleem & Ngonga Ngomo, ESWC 2014): an
//!   add-on that prunes sources using per-predicate URI-authority
//!   summaries; run (as in the paper) on top of the FedX executor —
//!   [`FedX::hibiscus`].
//!
//! All three implement [`FederatedEngine`](lusail_endpoint::FederatedEngine)
//! and return results equivalent to the centralized evaluation of the
//! query over the union of all endpoint graphs (verified in the
//! workspace's integration tests).

pub mod common;
pub mod fedx;
pub mod hibiscus;
pub mod splendid;

pub use fedx::FedX;
pub use hibiscus::HibiscusIndex;
pub use splendid::{Splendid, VoidIndex};
