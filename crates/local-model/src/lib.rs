//! Central simulation of the distributed LOCAL model.
//!
//! The algorithms of Harris–Su–Vu (PODC 2021) are stated in the LOCAL model:
//! synchronous rounds, unbounded message sizes, unique `O(log n)`-bit
//! identifiers, and complexity measured in rounds. This crate provides the
//! machinery their implementations in the `forest-decomp` crate rely on:
//!
//! * [`RoundLedger`] — round accounting with per-phase provenance for the
//!   phases the engines simulate centrally (cluster-local computations,
//!   network decompositions, recolorings), plus the standard cost formulas
//!   in [`rounds::costs`].
//! * [`decomposition`] — `(O(log n), O(log n))` network decompositions of
//!   a power graph `G^r`, each power neighbourhood read from one bounded
//!   BFS in `G` so `G^r` is never built, and Miller–Peng–Xu partial network
//!   decompositions.
//! * [`views`] — the materialized power graph [`power_graph`], the oracle
//!   the tests decompose `G^r` against.
//! * [`cole_vishkin`] — `O(log* n)` 3-coloring of rooted forests.
//!
//! # Example: charging a phase at its standard cost
//!
//! ```
//! use local_model::rounds::costs;
//! use local_model::RoundLedger;
//!
//! let n = 1024;
//! let mut ledger = RoundLedger::new();
//! // A network decomposition of G^2, then one LLL resampling pass whose
//! // bad events depend on radius-2 neighborhoods.
//! ledger.charge("network decomposition of G^2", costs::network_decomposition(n, 2));
//! ledger.charge("LLL color-set sampling", costs::lll(n, 2));
//! assert_eq!(ledger.total_rounds(), 2 * 10 * 10 + 10 * 2);
//! assert_eq!(ledger.charges()[1].label, "LLL color-set sampling");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::disallowed_types
    )
)]

pub mod cole_vishkin;
pub mod decomposition;
pub mod rounds;
pub mod views;

pub use cole_vishkin::{cole_vishkin_three_coloring, RootedForestView, TreeColoring};
pub use decomposition::{
    network_decomposition, partial_network_decomposition, NetworkDecomposition,
    PartialNetworkDecomposition,
};
pub use rounds::{RoundCharge, RoundLedger};
pub use views::power_graph;
