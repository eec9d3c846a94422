//! The [`GraphInput`] conversion layer: every representation a
//! [`Decomposer`](super::Decomposer) accepts, funneled into one type.
//!
//! Every engine reads one zero-copy [`CsrRef`], and [`GraphInput::resolve`]
//! is where each representation becomes one:
//!
//! * `&MultiGraph` / `MultiGraph` are frozen with
//!   [`CsrGraph::from_multigraph`], once per run;
//! * `&CsrGraph` / `CsrGraph` — graphs the caller froze once, for repeated
//!   runs — are borrowed as they are;
//! * [`GraphInput::from_mmap`] loads an on-disk CSR file ([`MmapCsr`]), and
//!   engines run straight over the mapped arrays; the run's
//!   [`canonical_bytes`](super::DecompositionReport::canonical_bytes) are
//!   byte-identical to the owned-storage run of the same request.
//!
//! No representation is ever turned back into adjacency lists: every
//! pipeline, the star-forest ones included, reads the CSR.
//!
//! Every `run*` entrypoint takes these conversions, including
//! [`run_batch`](super::Decomposer::run_batch) (any iterator of them) and
//! [`run_sharded`](super::Decomposer::run_sharded), which splits the input
//! itself and stitches the shard boundaries through the private `stitch`
//! module it shares with
//! [`run_out_of_core`](super::Decomposer::run_out_of_core) (which reads a
//! file path, not a `GraphInput`, and cuts the identity order only).

use crate::error::FdError;
use forest_graph::{CsrGraph, CsrRef, MmapCsr, MultiGraph, OwnedCsr};
use std::path::Path;

/// Any graph a [`Decomposer`](super::Decomposer) can run on.
///
/// Construct one with the `From` conversions (`&MultiGraph`, `MultiGraph`,
/// `&CsrGraph`, `CsrGraph`) or [`from_mmap`](GraphInput::from_mmap); the
/// `run*` entrypoints take `impl Into<GraphInput>`, so call sites usually
/// never name this type.
#[derive(Debug)]
pub enum GraphInput<'a> {
    /// A borrowed multigraph, frozen once per run.
    Borrowed(&'a MultiGraph),
    /// An owned multigraph, frozen once per run.
    Owned(Box<MultiGraph>),
    /// A borrowed frozen graph (no conversion at run time).
    Frozen(&'a CsrGraph),
    /// An owned frozen graph (no conversion at run time).
    OwnedFrozen(Box<CsrGraph>),
    /// An mmap-backed CSR: engines consume the mapped arrays directly
    /// (zero-copy view).
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

    /// The frozen view engines consume, freezing into `scratch` when the
    /// input arrived unfrozen. Zero-copy for every already-frozen variant.
    pub(super) fn resolve<'s>(&'s self, scratch: &'s mut Option<OwnedCsr>) -> CsrRef<'s> {
        match self {
            GraphInput::Borrowed(g) => scratch.insert(CsrGraph::from_multigraph(g)).view(),
            GraphInput::Owned(g) => scratch.insert(CsrGraph::from_multigraph(g)).view(),
            GraphInput::Frozen(csr) => csr.view(),
            GraphInput::OwnedFrozen(csr) => csr.view(),
            GraphInput::Mmap(m) => m.view(),
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

impl<'a> From<&'a CsrGraph> for GraphInput<'a> {
    fn from(csr: &'a CsrGraph) -> Self {
        GraphInput::Frozen(csr)
    }
}

impl From<CsrGraph> for GraphInput<'static> {
    fn from(csr: CsrGraph) -> Self {
        GraphInput::OwnedFrozen(Box::new(csr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest_graph::generators;

    #[test]
    fn conversions_agree_on_the_graph() {
        let g = generators::grid(4, 4);
        let frozen = CsrGraph::from_multigraph(&g);
        let borrowed: GraphInput<'_> = (&g).into();
        let owned: GraphInput<'_> = g.clone().into();
        let fref: GraphInput<'_> = (&frozen).into();
        let fown: GraphInput<'_> = frozen.clone().into();
        for input in [&borrowed, &owned, &fref, &fown] {
            let mut scratch = None;
            let resolved = input.resolve(&mut scratch);
            assert_eq!(resolved, frozen.view());
            // Only the unfrozen variants freeze.
            let froze = matches!(input, GraphInput::Borrowed(_) | GraphInput::Owned(_));
            assert_eq!(scratch.is_some(), froze);
        }
    }

    #[test]
    fn from_mmap_propagates_bad_files() {
        let err = GraphInput::from_mmap("/definitely/not/a/file.csr").unwrap_err();
        assert!(matches!(err, FdError::Io { .. }));
        assert!(err.to_string().contains("not/a/file.csr"));
    }
}
