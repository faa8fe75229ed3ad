//! Re-implementations of the federated SPARQL systems the paper compares
//! against.
//!
//! The paper evaluates Lusail against three systems; each is rebuilt here
//! from its published algorithm so the comparison exercises the same
//! *strategies* the original Java codebases implement:
//!
//! * [`FedX`] — **FedX** (Schwarte et al., ISWC 2011): index-free. ASK
//!   source selection with caching, *exclusive groups* (patterns whose
//!   single relevant source coincides), variable-counting join ordering,
//!   and block nested-loop **bound joins** that ship intermediate bindings
//!   in fixed-size blocks — the triple-pattern-at-a-time behaviour whose
//!   request explosion Fig. 3 of the paper demonstrates.
//! * [`Splendid`] — **SPLENDID** (Görlitz & Staab, COLD 2011):
//!   index-based. A VOID-style statistics index built in a preprocessing
//!   pass (whose cost the paper reports: seconds to hours), DP-style join
//!   ordering over index cardinalities, and per-join choice between hash
//!   join (independent retrieval) and bind join.
//! * [`HibiscusIndex`] — **HiBISCuS** (Saleem & Ngonga Ngomo, ESWC 2014): an
//!   add-on that prunes sources using per-predicate URI-authority
//!   summaries; run (as in the paper) on top of the FedX executor —
//!   `FedX::hibiscus`.
//!
//! All three implement [`FederatedEngine`] and return results equivalent
//! to the centralized evaluation of the query over the union of all
//! endpoint graphs (verified in the workspace's integration tests).
//! [`EngineKind`] is the one roster of the four engines: every harness
//! names and builds them through it. The constructors it calls belong to
//! this crate, so no caller outside it can build a baseline around the
//! roster:
//!
//! ```compile_fail,E0624
//! use lusail_baselines::{FedX, HibiscusIndex};
//! let _ = FedX::hibiscus(HibiscusIndex::build(&[]));
//! ```
//!
//! ```compile_fail,E0624
//! use lusail_baselines::{Splendid, VoidIndex};
//! let _ = Splendid::new(VoidIndex::build(&[]));
//! ```

mod common;
mod fedx;
mod hibiscus;
mod splendid;

pub use fedx::FedX;
pub use hibiscus::HibiscusIndex;
pub use splendid::{Splendid, VoidIndex};

use lusail_core::{Lusail, LusailConfig};
use lusail_endpoint::{FederatedEngine, LocalEndpoint};

/// The four engines of the paper's evaluation, in its table-column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The Lusail engine (LADE + SAPE).
    Lusail,
    /// The FedX baseline (exclusive groups + bound joins).
    FedX,
    /// The HiBISCuS baseline (authority-based source pruning over FedX).
    Hibiscus,
    /// The SPLENDID baseline (VOID statistics + DP join ordering).
    Splendid,
}

impl EngineKind {
    /// All four engines.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Lusail,
        EngineKind::FedX,
        EngineKind::Hibiscus,
        EngineKind::Splendid,
    ];

    /// The engine's display name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Lusail => "Lusail",
            EngineKind::FedX => "FedX",
            EngineKind::Hibiscus => "HiBISCuS",
            EngineKind::Splendid => "SPLENDID",
        }
    }

    /// Parses a display name (case-insensitive).
    pub fn parse(s: &str) -> Option<EngineKind> {
        EngineKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s))
    }

    /// Instantiates the engine. The index-building baselines preprocess
    /// `endpoints` here, their offline phase: it sees the stores directly,
    /// so no request is counted and injected faults do not reach it.
    /// `lusail` configures Lusail; the baselines ignore it. Statistics
    /// attached to the federation are consulted by every engine's probes
    /// but SPLENDID's, which selects sources from its own VOID index.
    /// Every engine runs its queries on the federation's request policy
    /// and clock.
    pub fn build(
        self,
        endpoints: &[&LocalEndpoint],
        lusail: LusailConfig,
    ) -> Box<dyn FederatedEngine> {
        match self {
            EngineKind::Lusail => Box::new(Lusail::new(lusail)),
            EngineKind::FedX => Box::new(FedX::default()),
            EngineKind::Hibiscus => Box::new(FedX::hibiscus(HibiscusIndex::build(endpoints))),
            EngineKind::Splendid => Box::new(Splendid::new(VoidIndex::build(endpoints))),
        }
    }
}
