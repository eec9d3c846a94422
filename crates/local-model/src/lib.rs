//! A simulator for the distributed LOCAL model.
//!
//! The algorithms of Harris–Su–Vu (PODC 2021) are stated in the LOCAL model:
//! synchronous rounds, unbounded message sizes, unique `O(log n)`-bit
//! identifiers, and complexity measured in rounds. This crate provides the
//! machinery their implementations in the `forest-decomp` crate rely on:
//!
//! * [`SyncNetwork`] — a faithful synchronous message-passing simulator for
//!   the algorithms that are naturally expressed vertex-by-vertex.
//! * [`RoundLedger`] — round accounting with per-phase provenance for the
//!   parts that are simulated centrally (cluster-local computations), plus
//!   the standard cost formulas in [`rounds::costs`].
//! * [`views`] — radius-`r` neighborhood views and power graphs `G^r`,
//!   including the lazy [`PowerView`] the engines use to run on `G^r`
//!   without ever materializing it.
//! * [`decomposition`] — `(O(log n), O(log n))` network decompositions and
//!   Miller–Peng–Xu partial network decompositions.
//! * [`lll`] — the distributed Lovász Local Lemma via parallel resampling.
//! * [`cole_vishkin`] — `O(log* n)` 3-coloring of rooted forests.
//!
//! # Example: measuring the round cost of collecting a view
//!
//! ```
//! use forest_graph::{generators, VertexId};
//! use local_model::{views, RoundLedger};
//!
//! let g = generators::grid(8, 8);
//! let mut ledger = RoundLedger::new();
//! let view = views::collect_view(&g, &[VertexId::new(0)], 3, &mut ledger);
//! assert_eq!(ledger.total_rounds(), 3);
//! assert!(view.vertices.len() >= 10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cole_vishkin;
pub mod decomposition;
pub mod lll;
pub mod network;
pub mod rounds;
pub mod views;

pub use cole_vishkin::{cole_vishkin_three_coloring, RootedForestView, TreeColoring};
pub use decomposition::{
    network_decomposition, partial_network_decomposition, NetworkDecomposition,
    PartialNetworkDecomposition,
};
pub use lll::{solve_lll, BadEvent, LllInstance, LllOutcome};
pub use network::{NodeInfo, SyncNetwork};
pub use rounds::{RoundCharge, RoundLedger};
pub use views::{collect_view, power_graph, NeighborhoodView, PowerView, PowerViewStats};
