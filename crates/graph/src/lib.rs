//! Graph substrate for the Nash-Williams forest-decomposition workspace.
//!
//! This crate provides everything the distributed decomposition algorithms
//! (crate `forest-decomp`) and the LOCAL-model simulator (crate
//! `local-model`) need from a graph library, built from scratch:
//!
//! * [`MultiGraph`] / [`SimpleGraph`] — undirected (multi-)graph containers
//!   with dense [`VertexId`] / [`EdgeId`] identifiers.
//! * [`GraphView`] / [`CsrGraph`] — the read-only topology abstraction and
//!   its frozen compressed-sparse-row instantiation, generic over storage
//!   via the sealed [`CsrStorage`] trait: [`OwnedCsr`] (heap `Vec<u32>`),
//!   [`CsrRef`] (zero-copy borrowed slices) and [`MmapCsr`] (arrays backed
//!   by a memory-mapped file in a versioned little-endian on-disk format —
//!   `save` / `load_mmap` round-trip byte-identically). Build mutably as a
//!   `MultiGraph`, freeze once with [`CsrGraph::from_multigraph`] at the
//!   point where algorithms start, and run every phase over the flat CSR
//!   arrays; conversion preserves incidence order, so outputs are identical
//!   on every representation. All traversal, orientation, density and
//!   validation helpers in this crate are generic over `GraphView`.
//! * [`CsrPartition`] — zero-copy sharding of one frozen graph: per-shard
//!   [`CsrRef`] views (local renumbering kept as two small index arrays)
//!   plus the explicit boundary-edge list shard-parallel decomposition
//!   stitches through. [`reorder`] supplies the locality-improving vertex
//!   orders (BFS / reverse Cuthill–McKee as [`VertexPermutation`]s) that
//!   [`CsrPartition::split_ordered`] cuts along when vertex ids are not
//!   already banded.
//! * [`dynamic`] — fully-dynamic connectivity for graphs that *mutate*:
//!   splay-backed Euler-tour trees ([`DynamicForest`]: `link` / `cut` /
//!   `connected` / `component_size` in amortized `O(log n)`) and the
//!   Holm–de Lichtenberg–Thorup level structure ([`DynamicConnectivity`]:
//!   `insert_edge` / `delete_edge` in amortized `O(log² n)`), plus
//!   [`DynamicGraph`] — a mutable adjacency container with stable edge ids
//!   implementing [`GraphView`] over its live edges, the substrate of
//!   streaming decomposition.
//! * [`connectivity`] — the per-color union-find cache (with optional edge
//!   filter and per-color [`rebuild_colors`](ColorConnectivity::rebuild_colors)
//!   invalidation) shared by the augmenting search, the matroid partition
//!   and shard-boundary stitching — and [`DynamicColorConnectivity`], its
//!   deletion-capable sibling riding each color class on the [`dynamic`]
//!   subsystem for exchange-heavy and streaming workloads.
//! * [`decomposition`] — forest / star-forest decompositions and their
//!   validators, the central result types of the whole workspace.
//! * [`palette`] — per-edge color lists for list-forest decompositions.
//! * [`orientation`] — edge orientations and exact minimum-out-degree
//!   orientations (pseudo-arboricity).
//! * [`matroid`] — the exact centralized `α`-forest decomposition
//!   (Gabow–Westermann-style matroid partition), used as ground truth.
//! * [`density`] — exact densest subgraph and the Nash-Williams sparsity
//!   measures.
//! * [`generators`] — synthetic benchmark families (fat paths, planted
//!   arboricity graphs, `G(n,m)`, cliques, grids, hypercubes, ...).
//! * [`extsort`] — out-of-core CSR construction: external-sorts a raw edge
//!   file into the versioned on-disk format under a hard memory ceiling,
//!   byte-identical to freezing through a `MultiGraph`, with a one-pass
//!   Nash-Williams degree/density watermark computed during the merge.
//! * [`kernels`] — branchless `chunks_exact` scan kernels over flat
//!   `u32`/`u8` arrays (max/histogram/masked-select), the epoch-stamped
//!   [`StampSet`](kernels::StampSet) behind the no-`O(n)`-clears scratch
//!   idiom of the ball-local cluster pipeline, and the composite scans
//!   built on it ([`gather_unique_sorted`](kernels::gather_unique_sorted)
//!   incidence-union merges,
//!   [`select_edges_masked`](kernels::select_edges_masked) mask-pair edge
//!   filters).
//! * [`flow`], [`traversal`], [`union_find`] — supporting algorithms.
//!
//! # Quick example
//!
//! ```
//! use forest_graph::{generators, matroid, decomposition};
//!
//! // A multigraph with planted arboricity 3.
//! let mut rng = rand::thread_rng();
//! let g = generators::planted_forest_union(32, 3, &mut rng);
//! let exact = matroid::exact_forest_decomposition(&g);
//! assert!(exact.arboricity <= 3);
//! decomposition::validate_forest_decomposition(&g, &exact.decomposition, Some(exact.arboricity))
//!     .expect("matroid partition always returns a valid decomposition");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod connectivity;
mod csr;
pub mod decomposition;
pub mod density;
pub mod dynamic;
mod error;
pub mod extsort;
pub mod flow;
pub mod generators;
mod ids;
pub mod kernels;
pub mod matroid;
mod multigraph;
pub mod orientation;
pub mod palette;
mod partition;
pub mod reorder;
pub mod traversal;
pub mod union_find;
mod view;

pub use connectivity::{ColorConnectivity, DynamicColorConnectivity};
pub use csr::{CsrGraph, CsrRef, CsrStorage, MmapCsr, MmapStorage, OwnedCsr};
pub use decomposition::{ForestDecomposition, PartialEdgeColoring};
pub use dynamic::{DynamicConnectivity, DynamicForest, DynamicGraph, EdgeIdRemap};
pub use error::{GraphError, ValidationError};
pub use flow::FlowNetwork;
pub use ids::{u32_of, Color, EdgeId, VertexId};
pub use multigraph::{edge_subgraph, MultiGraph, SimpleGraph};
pub use orientation::Orientation;
pub use palette::ListAssignment;
pub use partition::{CsrPartition, ExtractedShard, ShardPlan};
pub use reorder::{ReorderKind, VertexPermutation};
pub use union_find::UnionFind;
pub use view::GraphView;
