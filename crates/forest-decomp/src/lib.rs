//! Distributed `(1+ε)α` forest, list-forest and star-forest decompositions
//! behind one facade.
//!
//! This crate implements the algorithms of Harris, Su and Vu, *"On the
//! Locality of Nash-Williams Forest Decomposition and Star-Forest
//! Decomposition"* (PODC 2021), on top of the [`forest_graph`] substrate and
//! the [`local_model`] LOCAL-model simulator.
//!
//! # The `Decomposer` facade
//!
//! Every pipeline is reachable through the [`api`] module: build a
//! [`api::DecompositionRequest`] naming a problem kind (`Forest`,
//! `ListForest`, `StarForest`, `ListStarForest`, `Orientation`) and an engine
//! (`HarrisSuVu`, `BarenboimElkin`, `Folklore2Alpha`, `ExactMatroid`), then
//! run it with a [`api::Decomposer`]:
//!
//! ```
//! use forest_decomp::api::{Decomposer, DecompositionRequest, ProblemKind, Validate};
//! use forest_graph::generators;
//!
//! let mut rng = rand::thread_rng();
//! let g = generators::planted_forest_union(64, 3, &mut rng);
//! let request = DecompositionRequest::new(ProblemKind::Forest)
//!     .with_epsilon(0.5)
//!     .with_seed(42);
//! let report = Decomposer::new(request).run(&g)?;
//! report.validate(&g)?;
//! println!(
//!     "alpha = {}, colors used = {}, LOCAL rounds = {}",
//!     report.arboricity,
//!     report.num_colors,
//!     report.ledger.total_rounds()
//! );
//! # Ok::<(), forest_decomp::FdError>(())
//! ```
//!
//! Runs are reproducible (the request seed derives an owned RNG; same seed →
//! byte-identical [`api::DecompositionReport::canonical_bytes`]), batchable
//! ([`api::Decomposer::run_batch`] fans one request across many graphs on all
//! cores) and uniformly validated (the [`api::Validate`] trait wires every
//! artifact to the `forest_graph::decomposition` validators). Graphs that
//! mutate between queries stream through the [`api::DynamicDecomposer`]
//! instead: every [`api::EdgeUpdate`] repairs the live coloring, usually
//! with one free-color query (per-color connectivity keeps each color class
//! as an Euler-tour forest), and its `snapshot()` reproduces the cold
//! pipeline byte-identically on the surviving edges.
//!
//! # Algorithm modules
//!
//! The paper's machinery lives in per-section modules, all reachable through
//! the facade:
//!
//! * [`hpartition`] — the H-partition toolbox of Theorem 2.1: the vertex
//!   peeling itself, acyclic `t`-orientations, `3t`-star-forest and
//!   `t`-list-forest decompositions.
//! * [`lsfd_degeneracy`] — Theorems 2.2 / 2.3: list-star-forest
//!   decompositions from low-degeneracy orientations.
//! * [`diameter_reduction`] — Proposition 2.4 / Corollary 2.5.
//! * [`augmenting`] — Section 3: augmenting sequences for list-forest
//!   decomposition (Algorithm 1, Proposition 3.4, Lemma 3.1).
//! * [`cut`] — the CUT load-balancing rules of Theorem 4.2.
//! * [`algorithm2`] — Algorithm 2 / Theorem 4.5: local forest decomposition
//!   via network decomposition, CUT and augmentation.
//! * [`color_splitting`] — Theorem 4.9 vertex-color-splittings.
//! * [`combine`] — the end-to-end pipelines of Theorem 4.6 (ordinary colors)
//!   and Theorem 4.10 (lists).
//! * [`star_forest`] — Section 5 / Theorem 5.4: star-forest and
//!   list-star-forest decompositions of simple graphs.
//! * [`orientation`] — Corollary 1.1: `(1+ε)α`-orientations.
//! * [`baselines`] — Barenboim–Elkin `(2+ε)α`-FD, the folklore `2α`-SFD and
//!   the exact centralized decomposition.
//!
//! # Frozen topology, on any storage
//!
//! Every pipeline runs over a frozen [`CsrGraph`](forest_graph::CsrGraph)
//! and reads nothing but that view and the request:
//! [`api::Decomposer::run`] freezes a `MultiGraph` input once per request,
//! a caller that runs the same graph many times freezes it once with
//! [`CsrGraph::from_multigraph`](forest_graph::CsrGraph::from_multigraph)
//! (a seed sweep is [`api::Decomposer::run_batch`] over
//! `iter::repeat_n(&csr, n)`), and the engines dispatch on the request's
//! `(problem, engine)` pair over one zero-copy
//! [`CsrRef`](forest_graph::CsrRef). The CSR is storage-generic
//! ([`forest_graph::CsrStorage`]), so the same code runs over owned arrays,
//! an mmap-backed on-disk graph ([`api::GraphInput::from_mmap`]) or one
//! shard extracted from a [`ShardPlan`](forest_graph::ShardPlan). Both
//! sharded drivers cut with that one plan:
//! [`api::Decomposer::run_sharded`] decomposes its shards in parallel (after
//! relabelling the graph along a BFS/RCM order, when asked) and
//! [`api::Decomposer::run_out_of_core`] walks them one at a time from disk
//! (identity order only); both stitch the boundary through one shared
//! module, the paper's compose-per-part-plus-leftover step.
//! Phase-level entrypoints ([`algorithm2`], [`augmenting`], [`cut`],
//! [`hpartition`]) are generic over [`forest_graph::GraphView`], so they
//! accept any representation and produce identical output on all of them.
//!
//! # The pre-facade entrypoints
//!
//! The historical free-function entrypoints were folded into the engine
//! dispatch when the facade landed; each maps onto one `(problem, engine)`
//! request:
//!
//! | removed entrypoint | request |
//! |---|---|
//! | `combine::forest_decomposition` | `ProblemKind::Forest` + `Engine::HarrisSuVu` |
//! | `combine::list_forest_decomposition` | `ProblemKind::ListForest` + `Engine::HarrisSuVu` |
//! | `star_forest::star_forest_decomposition_simple` | `ProblemKind::StarForest` + `Engine::HarrisSuVu` |
//! | `star_forest::list_star_forest_decomposition_simple` | `ProblemKind::ListStarForest` + `Engine::HarrisSuVu` |
//! | `orientation::low_outdegree_orientation` | `ProblemKind::Orientation` + `Engine::HarrisSuVu` |
//!
//! The request is their only option set: `ε`, `α`, the CUT rule, the
//! diameter target and the radii are the request's `with_*` knobs, and the
//! RNG is derived from `with_seed`. The baselines (`baselines::*`) remain
//! available as plain functions for phase-level experiments, and are also
//! reachable through `Engine::BarenboimElkin`, `Engine::Folklore2Alpha` and
//! `Engine::ExactMatroid`.

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

pub mod algorithm2;
pub mod api;
pub mod augmenting;
pub mod baselines;
pub mod color_splitting;
pub mod combine;
pub mod cut;
pub mod diameter_reduction;
pub mod error;
pub mod hpartition;
pub mod lsfd_degeneracy;
pub mod matching;
pub mod orientation;
pub mod star_forest;

pub use api::{
    Decomposer, DecompositionReport, DecompositionRequest, Engine, GraphInput, ProblemKind,
    Validate,
};

pub use algorithm2::{Algorithm2Config, Algorithm2Output, CutStrategyKind, PipelineStats};
pub use augmenting::{AugmentationContext, AugmentingSequence, ColorConnectivity};
pub use diameter_reduction::{reduce_diameter, DiameterTarget};
pub use error::FdError;
pub use hpartition::HPartition;
