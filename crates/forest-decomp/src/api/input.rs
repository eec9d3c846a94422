//! The [`GraphInput`] conversion layer: every representation a
//! [`Decomposer`](super::Decomposer) accepts, funneled into one type.
//!
//! The facade used to take `&MultiGraph` only; `GraphInput` generalizes the
//! entrypoints without breaking them — `run(&graph)` still compiles via
//! `From<&MultiGraph>` — while opening two more front doors:
//!
//! * [`GraphInput::from_mmap`] — an on-disk CSR file
//!   ([`MmapCsr`](forest_graph::MmapCsr)): engines run straight over the
//!   mapped arrays through a zero-copy
//!   [`CsrRef`](forest_graph::CsrRef), and the run's
//!   [`canonical_bytes`](super::DecompositionReport::canonical_bytes) are
//!   byte-identical to the owned-storage run of the same request.
//! * `From<FrozenGraph>` / `From<&FrozenGraph>` — pre-frozen graphs, owned
//!   or borrowed.
//!
//! Every `run*` entrypoint takes these conversions, including
//! [`run_batch`](super::Decomposer::run_batch) (any iterator of them) and
//! [`run_sharded`](super::Decomposer::run_sharded), which splits the input
//! itself and stitches the shard boundaries through the private `stitch`
//! module it shares with
//! [`run_out_of_core`](super::Decomposer::run_out_of_core) (which reads a
//! file path, not a `GraphInput`, and cuts the identity order only). Mmap
//! inputs are **CSR-only**: no adjacency-list twin is ever
//! materialized — forest and orientation pipelines are CSR-generic end to
//! end, and the few simple-graph pipelines thaw on demand inside the run.

use super::engines::FrozenInput;
use super::FrozenGraph;
use crate::error::FdError;
use forest_graph::{CsrGraph, GraphView, MmapCsr, MultiGraph, OwnedCsr};
use std::path::Path;

/// Any graph a [`Decomposer`](super::Decomposer) can run on.
///
/// Construct one with the `From` conversions (`&MultiGraph`, `MultiGraph`,
/// `&FrozenGraph`, `FrozenGraph`) or [`from_mmap`](GraphInput::from_mmap);
/// the `run*` entrypoints take `impl Into<GraphInput>`, so call sites
/// usually never name this type.
#[derive(Debug)]
pub enum GraphInput<'a> {
    /// A borrowed multigraph, frozen once per run.
    Borrowed(&'a MultiGraph),
    /// An owned multigraph, frozen once per run.
    Owned(Box<MultiGraph>),
    /// A borrowed pre-frozen graph (no conversion at run time).
    Frozen(&'a FrozenGraph),
    /// An owned pre-frozen graph (no conversion at run time).
    OwnedFrozen(Box<FrozenGraph>),
    /// An mmap-backed CSR: engines consume the mapped arrays directly
    /// (zero-copy view); nothing is thawed.
    Mmap(Box<MmapCsr>),
}

impl<'a> GraphInput<'a> {
    /// Loads the on-disk CSR file at `path` (see
    /// [`MmapCsr::load_mmap`](forest_graph::MmapCsr::load_mmap) for the
    /// format).
    ///
    /// # Errors
    ///
    /// Returns [`FdError::Io`] for I/O failures or a malformed file.
    pub fn from_mmap<P: AsRef<Path>>(path: P) -> Result<GraphInput<'static>, FdError> {
        let path = path.as_ref();
        let csr = MmapCsr::load_mmap(path).map_err(|err| FdError::Io {
            context: format!("loading CSR file {}: {err}", path.display()),
        })?;
        Ok(GraphInput::Mmap(Box::new(csr)))
    }

    /// The adjacency-list form of the input, when one exists (`None` for the
    /// CSR-only mmap variant, which never thaws).
    pub fn multigraph(&self) -> Option<&MultiGraph> {
        match self {
            GraphInput::Borrowed(g) => Some(g),
            GraphInput::Owned(g) => Some(g),
            GraphInput::Frozen(f) => Some(f.graph()),
            GraphInput::OwnedFrozen(f) => Some(f.graph()),
            GraphInput::Mmap(_) => None,
        }
    }

    /// Number of edges of the input.
    pub fn num_edges(&self) -> usize {
        match self {
            GraphInput::Borrowed(g) => g.num_edges(),
            GraphInput::Owned(g) => g.num_edges(),
            GraphInput::Frozen(f) => f.csr().num_edges(),
            GraphInput::OwnedFrozen(f) => f.csr().num_edges(),
            GraphInput::Mmap(m) => m.num_edges(),
        }
    }

    /// Resolves the input to the `(graph, csr)` pair engines consume,
    /// freezing into `scratch` when the input arrived unfrozen. Zero-copy
    /// for every already-frozen variant.
    pub(super) fn resolve<'s>(&'s self, scratch: &'s mut Option<OwnedCsr>) -> FrozenInput<'s> {
        match self {
            GraphInput::Borrowed(g) => {
                let csr = scratch.insert(CsrGraph::from_multigraph(g));
                FrozenInput::new(g, csr.view())
            }
            GraphInput::Owned(g) => {
                let csr = scratch.insert(CsrGraph::from_multigraph(g));
                FrozenInput::new(g, csr.view())
            }
            GraphInput::Frozen(f) => f.input(),
            GraphInput::OwnedFrozen(f) => f.input(),
            GraphInput::Mmap(m) => FrozenInput::from_csr(m.view()),
        }
    }
}

impl<'a> From<&'a MultiGraph> for GraphInput<'a> {
    fn from(g: &'a MultiGraph) -> Self {
        GraphInput::Borrowed(g)
    }
}

impl From<MultiGraph> for GraphInput<'static> {
    fn from(g: MultiGraph) -> Self {
        GraphInput::Owned(Box::new(g))
    }
}

impl<'a> From<&'a FrozenGraph> for GraphInput<'a> {
    fn from(f: &'a FrozenGraph) -> Self {
        GraphInput::Frozen(f)
    }
}

impl From<FrozenGraph> for GraphInput<'static> {
    fn from(f: FrozenGraph) -> Self {
        GraphInput::OwnedFrozen(Box::new(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest_graph::generators;

    #[test]
    fn conversions_agree_on_the_graph() {
        let g = generators::grid(4, 4);
        let frozen = FrozenGraph::freeze(g.clone());
        let borrowed: GraphInput<'_> = (&g).into();
        let owned: GraphInput<'_> = g.clone().into();
        let fref: GraphInput<'_> = (&frozen).into();
        let fown: GraphInput<'_> = frozen.clone().into();
        for input in [&borrowed, &owned, &fref, &fown] {
            assert_eq!(input.multigraph(), Some(&g));
            assert_eq!(input.num_edges(), g.num_edges());
            let mut scratch = None;
            let resolved = input.resolve(&mut scratch);
            assert_eq!(resolved.multigraph(), Some(&g));
            assert_eq!(resolved.csr, frozen.csr().view());
        }
    }

    #[test]
    fn from_mmap_propagates_bad_files() {
        let err = GraphInput::from_mmap("/definitely/not/a/file.csr").unwrap_err();
        assert!(matches!(err, FdError::Io { .. }));
        assert!(err.to_string().contains("not/a/file.csr"));
    }
}
