//! A frozen compressed-sparse-row graph, generic over where its arrays live:
//! the cache-friendly topology every decomposition pipeline runs on.
//!
//! [`CsrGraph`] stores the incidence structure of a
//! [`MultiGraph`](crate::MultiGraph) in four flat `u32` arrays (`offsets`,
//! `neighbors`, `edge_ids`, interleaved `endpoints`): neighborhood iteration
//! is a contiguous slice scan instead of a pointer chase through per-vertex
//! `Vec`s, degrees are O(1) offset differences, and iteration order is fixed
//! by construction. The topology is *frozen* — there is no `add_edge` —
//! which is exactly what the Harris–Su–Vu algorithms need: they are
//! round-synchronous scans over static topology.
//!
//! # Storage genericity
//!
//! The arrays are abstracted behind the sealed [`CsrStorage`] trait, so the
//! same graph type works over three homes without any algorithm noticing:
//!
//! * [`OwnedCsr`] (`CsrGraph<Vec<u32>>`, the default) — heap-owned arrays,
//!   what [`CsrGraph::from_multigraph`] builds.
//! * [`CsrRef`] (`CsrGraph<&[u32]>`) — borrowed slices. Every storage can
//!   produce one with [`CsrGraph::view`] at zero cost, and
//!   [`CsrPartition`](crate::CsrPartition) hands out per-shard `CsrRef`s
//!   without copying.
//! * [`MmapCsr`] (`CsrGraph<MmapStorage>`) — arrays backed by a
//!   memory-mapped file ([`MmapCsr::load_mmap`]), sharing one buffer across
//!   clones so batch workers share pages.
//!
//! All [`GraphView`] methods are allocation-free on every storage, so every
//! decomposition pipeline runs unchanged on any of them.
//!
//! # On-disk format
//!
//! [`CsrGraph::save`] / [`MmapCsr::load_mmap`] speak a versioned
//! little-endian format (see [`FORMAT_VERSION`]): a 32-byte header
//! (`magic`, `version`, `n`, `m` as `u64` LE) followed by the four arrays as
//! `u32` LE words — `offsets` (`n + 1`), `neighbors` (`2m`), `edge_ids`
//! (`2m`), `endpoints` (`2m`, interleaved `u, v` per edge). Save → load →
//! save round-trips byte-identically.
//!
//! # When to freeze
//!
//! Freeze once per request/run, not per phase: build the graph mutably as a
//! `MultiGraph`, convert with [`CsrGraph::from_multigraph`] at the boundary
//! where algorithms start (the `Decomposer` facade does this automatically),
//! and thread the `CsrGraph` through every phase. Conversion is `O(n + m)`
//! and preserves `MultiGraph`'s incidence order, so algorithm output is
//! identical on both representations.

use crate::ids::{u32_of, EdgeId, VertexId};
use crate::multigraph::MultiGraph;
use crate::view::GraphView;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

mod sealed {
    pub trait Sealed {}
    impl Sealed for Vec<u32> {}
    impl Sealed for &[u32] {}
    impl Sealed for super::MmapStorage {}
}

/// Where a [`CsrGraph`]'s flat arrays live. Sealed: exactly the owned
/// (`Vec<u32>`), borrowed (`&[u32]`) and mmap-backed ([`MmapStorage`])
/// storages are supported, so downstream code can match on behavior instead
/// of chasing an open-ended abstraction.
pub trait CsrStorage: sealed::Sealed {
    /// The stored words as a slice (no allocation, no copy).
    fn as_u32s(&self) -> &[u32];
}

impl CsrStorage for Vec<u32> {
    #[inline]
    fn as_u32s(&self) -> &[u32] {
        self
    }
}

impl CsrStorage for &[u32] {
    #[inline]
    fn as_u32s(&self) -> &[u32] {
        self
    }
}

/// The shared backing of a memory-mapped [`CsrGraph`]: either the live
/// kernel mapping viewed in place (little-endian hosts — the demand-paged
/// path, where a word is only faulted in when an algorithm touches it) or a
/// heap buffer decoded once at load time (big-endian / misaligned fallback).
enum WordBuf {
    /// The mapping itself; payload words are reinterpreted zero-copy via
    /// [`memmap2::as_u32s_le`] (alignment/endianness proven at load time).
    Mapped(memmap2::Mmap),
    /// Owned decode of the payload (every page already touched).
    Decoded(Vec<u32>),
}

impl WordBuf {
    #[inline]
    fn words(&self) -> &[u32] {
        match self {
            // The alignment/endianness check passed at load time and the
            // mapping is immutable, so it cannot start failing now.
            WordBuf::Mapped(map) => memmap2::as_u32s_le(&map[HEADER_BYTES..])
                .expect("mapped CSR payload was validated u32-viewable at load"),
            WordBuf::Decoded(words) => words,
        }
    }
}

/// One array of a memory-mapped [`CsrGraph`]: a word range of the shared
/// payload backing. Clones share the backing, so a batch of workers
/// decomposing the same on-disk graph hold one mapping between them — and on
/// the demand-paged path ([`MmapCsr::is_demand_paged`]) the kernel only
/// makes resident the pages their scans actually touch.
#[derive(Clone)]
pub struct MmapStorage {
    buf: Arc<WordBuf>,
    start: usize,
    len: usize,
}

impl CsrStorage for MmapStorage {
    #[inline]
    fn as_u32s(&self) -> &[u32] {
        &self.buf.words()[self.start..self.start + self.len]
    }
}

impl std::fmt::Debug for MmapStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapStorage")
            .field("start", &self.start)
            .field("len", &self.len)
            .field("demand_paged", &matches!(&*self.buf, WordBuf::Mapped(_)))
            .finish()
    }
}

/// Magic number opening every on-disk CSR file (`b"FGCSR\0v1"` as LE `u64`).
pub(crate) const FORMAT_MAGIC: u64 = u64::from_le_bytes(*b"FGCSR\0v1");

/// Current version of the on-disk CSR format.
pub const FORMAT_VERSION: u64 = 1;

/// Size of the on-disk header: magic, version, `n`, `m`, all `u64` LE.
pub(crate) const HEADER_BYTES: usize = 32;

/// A frozen-topology compressed-sparse-row graph over storage `S`
/// (see the [module docs](self) for the storage menu).
///
/// ```
/// use forest_graph::{CsrGraph, GraphView, MultiGraph};
/// let g = MultiGraph::from_pairs(3, &[(0, 1), (1, 2), (0, 1)])?;
/// let csr = CsrGraph::from_multigraph(&g);
/// assert_eq!(csr.num_edges(), 3);
/// assert_eq!(csr.degree(1.into()), 3);
/// assert_eq!(csr.to_multigraph(), g);
/// // A zero-copy borrowed view runs the same algorithms unchanged.
/// let view = csr.view();
/// assert_eq!(view.degree(1.into()), 3);
/// # Ok::<(), forest_graph::GraphError>(())
/// ```
#[derive(Clone, Debug)]
pub struct CsrGraph<S: CsrStorage = Vec<u32>> {
    /// `offsets[v]..offsets[v + 1]` is vertex `v`'s slice of the incidence
    /// arrays; length `n + 1`.
    offsets: S,
    /// Neighbor of each incidence slot; length `2m`.
    neighbors: S,
    /// Edge of each incidence slot; parallel to `neighbors`.
    edge_ids: S,
    /// Endpoints of each edge in insertion order, interleaved
    /// `(u_0, v_0, u_1, v_1, ...)`; length `2m`.
    endpoints: S,
}

/// A CSR graph owning its arrays (the default storage).
pub type OwnedCsr = CsrGraph<Vec<u32>>;

/// A zero-copy borrowed CSR view: what engines and shard workers consume.
pub type CsrRef<'a> = CsrGraph<&'a [u32]>;

/// A CSR graph whose arrays are backed by a memory-mapped file.
pub type MmapCsr = CsrGraph<MmapStorage>;

impl<S: CsrStorage + Copy> Copy for CsrGraph<S> {}

impl<S1: CsrStorage, S2: CsrStorage> PartialEq<CsrGraph<S2>> for CsrGraph<S1> {
    fn eq(&self, other: &CsrGraph<S2>) -> bool {
        self.offsets.as_u32s() == other.offsets.as_u32s()
            && self.neighbors.as_u32s() == other.neighbors.as_u32s()
            && self.edge_ids.as_u32s() == other.edge_ids.as_u32s()
            && self.endpoints.as_u32s() == other.endpoints.as_u32s()
    }
}

impl<S: CsrStorage> Eq for CsrGraph<S> {}

impl OwnedCsr {
    /// Freezes any [`GraphView`] into CSR form, preserving the view's
    /// per-vertex incidence order. `O(n + m)`.
    pub fn from_view<G: GraphView>(g: &G) -> Self {
        let n = g.num_vertices();
        let m = g.num_edges();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * m);
        let mut edge_ids = Vec::with_capacity(2 * m);
        offsets.push(0);
        for v in g.vertices() {
            for (u, e) in g.incidences(v) {
                neighbors.push(u.raw());
                edge_ids.push(e.raw());
            }
            assert!(
                neighbors.len() <= u32::MAX as usize,
                "CSR incidence count exceeds u32 (graph too large for 32-bit offsets)"
            );
            offsets.push(u32_of(neighbors.len()));
        }
        let mut endpoints = Vec::with_capacity(2 * m);
        for e in g.edge_ids() {
            let (u, v) = g.endpoints(e);
            endpoints.push(u.raw());
            endpoints.push(v.raw());
        }
        CsrGraph {
            offsets,
            neighbors,
            edge_ids,
            endpoints,
        }
    }

    /// Freezes a [`MultiGraph`]. Equivalent to [`CsrGraph::from_view`]; kept
    /// as the named conversion the rest of the workspace uses.
    pub fn from_multigraph(g: &MultiGraph) -> Self {
        Self::from_view(g)
    }

    /// Assembles a CSR directly from pre-built arrays (the shard splitter's
    /// zero-intermediate construction path). The caller guarantees the same
    /// layout [`CsrGraph::from_view`] would produce; debug builds verify the
    /// structural invariants.
    pub(crate) fn from_raw_parts(
        offsets: Vec<u32>,
        neighbors: Vec<u32>,
        edge_ids: Vec<u32>,
        endpoints: Vec<u32>,
    ) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap() as usize, neighbors.len());
        debug_assert_eq!(neighbors.len(), edge_ids.len());
        debug_assert_eq!(neighbors.len(), endpoints.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        CsrGraph {
            offsets,
            neighbors,
            edge_ids,
            endpoints,
        }
    }

    /// Decodes a graph from the on-disk byte format (see the
    /// [module docs](self)).
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidData`] for a bad magic/version,
    /// truncated payload, or structurally invalid arrays.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<OwnedCsr> {
        let (n, m) = parse_header(bytes)?;
        let words: Vec<u32> = bytes[HEADER_BYTES..]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let bounds = SectionBounds::new(n, m);
        let csr = CsrGraph {
            offsets: words[bounds.offsets.clone()].to_vec(),
            neighbors: words[bounds.neighbors.clone()].to_vec(),
            edge_ids: words[bounds.edge_ids.clone()].to_vec(),
            endpoints: words[bounds.endpoints.clone()].to_vec(),
        };
        validate_structure(&csr)?;
        Ok(csr)
    }
}

impl MmapCsr {
    /// Maps the on-disk CSR file at `path`, yielding a graph whose four
    /// arrays are word ranges of one shared mapping (clones share it).
    ///
    /// **Demand-paged**: on little-endian 64-bit unix the payload is viewed
    /// in place over the live `mmap(2)` region, so loading a file far larger
    /// than physical memory is O(touched pages) — only the header and the
    /// `offsets` array (validated here, and needed by any algorithm's first
    /// step anyway) are faulted in; the `6m` incidence/endpoint words stay
    /// on disk until a scan reaches them. The trade-off is that per-word
    /// range checks on those arrays are deferred: a corrupted neighbor or
    /// endpoint value surfaces as an index panic at use, not as an error
    /// here.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; returns [`io::ErrorKind::InvalidData`] for a
    /// bad magic/version, truncated payload, or an invalid `offsets` array.
    pub fn load_mmap<P: AsRef<Path>>(path: P) -> io::Result<MmapCsr> {
        let file = File::open(path)?;
        let map = memmap2::Mmap::map(&file)?;
        let (n, m) = parse_header(&map)?;
        // Zero-copy u32 view when the host matches the on-disk LE layout
        // (the mmap base is page-aligned and the 32-byte header keeps the
        // payload 4-byte aligned); otherwise decode once into a heap buffer
        // — the portable path, which necessarily touches every page.
        let buf = if memmap2::as_u32s_le(&map[HEADER_BYTES..]).is_some() {
            Arc::new(WordBuf::Mapped(map))
        } else {
            Arc::new(WordBuf::Decoded(
                map[HEADER_BYTES..]
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect(),
            ))
        };
        let bounds = SectionBounds::new(n, m);
        let segment = |range: std::ops::Range<usize>| MmapStorage {
            buf: Arc::clone(&buf),
            start: range.start,
            len: range.len(),
        };
        let csr = CsrGraph {
            offsets: segment(bounds.offsets.clone()),
            neighbors: segment(bounds.neighbors.clone()),
            edge_ids: segment(bounds.edge_ids.clone()),
            endpoints: segment(bounds.endpoints.clone()),
        };
        validate_offsets_section(csr.offsets.as_u32s(), 2 * m)?;
        Ok(csr)
    }

    /// `true` when the arrays are served straight from the kernel mapping
    /// (pages faulted in lazily), `false` on the eager-decode fallback.
    pub fn is_demand_paged(&self) -> bool {
        matches!(&*self.offsets.buf, WordBuf::Mapped(map) if map.is_demand_paged())
    }
}

/// Word ranges of the four array sections inside the payload.
struct SectionBounds {
    offsets: std::ops::Range<usize>,
    neighbors: std::ops::Range<usize>,
    edge_ids: std::ops::Range<usize>,
    endpoints: std::ops::Range<usize>,
}

impl SectionBounds {
    fn new(n: usize, m: usize) -> Self {
        let o = n + 1;
        let s = 2 * m;
        SectionBounds {
            offsets: 0..o,
            neighbors: o..o + s,
            edge_ids: o + s..o + 2 * s,
            endpoints: o + 2 * s..o + 3 * s,
        }
    }

    /// Total payload words for an `(n, m)` graph, or `None` on overflow
    /// (a crafted header must not panic the decoder).
    fn total_words_checked(n: u64, m: u64) -> Option<u64> {
        let vertices = n.checked_add(1)?;
        let incidences = m.checked_mul(6)?;
        vertices.checked_add(incidences)
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Validates the 32-byte header and the payload length, returning `(n, m)`.
fn parse_header(bytes: &[u8]) -> io::Result<(usize, usize)> {
    if bytes.len() < HEADER_BYTES {
        return Err(invalid(format!(
            "CSR file too short for header: {} bytes",
            bytes.len()
        )));
    }
    let word64 = |i: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[8 * i..8 * (i + 1)]);
        u64::from_le_bytes(b)
    };
    if word64(0) != FORMAT_MAGIC {
        return Err(invalid("not a forest-graph CSR file (bad magic)"));
    }
    let version = word64(1);
    if version != FORMAT_VERSION {
        return Err(invalid(format!(
            "unsupported CSR format version {version} (this build reads version {FORMAT_VERSION})"
        )));
    }
    let n = word64(2);
    let m = word64(3);
    // Checked arithmetic end to end: header sizes are untrusted input, and a
    // crafted n/m must yield InvalidData, not an overflow panic or a
    // wrapped length that slices out of range.
    let expected = SectionBounds::total_words_checked(n, m)
        .and_then(|words| words.checked_mul(4))
        .and_then(|payload| payload.checked_add(HEADER_BYTES as u64))
        .filter(|&total| total == bytes.len() as u64);
    if expected.is_none() {
        return Err(invalid(format!(
            "CSR payload length mismatch: header says n = {n}, m = {m} but the file has {} bytes",
            bytes.len()
        )));
    }
    Ok((n as usize, m as usize))
}

/// Checks the `offsets` array alone: starts at 0, non-decreasing, ends at
/// the incidence count. This is the portion of the structural validation the
/// demand-paged loader runs eagerly — it touches only the front of the file
/// and is what keeps `incidence_range` slicing in bounds.
fn validate_offsets_section(offsets: &[u32], incidences: usize) -> io::Result<()> {
    if offsets.is_empty() || offsets[0] != 0 {
        return Err(invalid("CSR offsets must start at 0"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(invalid("CSR offsets must be non-decreasing"));
    }
    if offsets[offsets.len() - 1] as usize != incidences {
        return Err(invalid("CSR offsets must end at the incidence count"));
    }
    Ok(())
}

/// Checks the structural invariants a decoded CSR must satisfy before any
/// algorithm indexes into it.
fn validate_structure<S: CsrStorage>(csr: &CsrGraph<S>) -> io::Result<()> {
    let offsets = csr.offsets.as_u32s();
    let neighbors = csr.neighbors.as_u32s();
    let edge_ids = csr.edge_ids.as_u32s();
    let endpoints = csr.endpoints.as_u32s();
    let n = offsets.len().saturating_sub(1);
    let m = endpoints.len() / 2;
    validate_offsets_section(offsets, neighbors.len())?;
    if neighbors.iter().any(|&v| v as usize >= n) {
        return Err(invalid("CSR neighbor out of vertex range"));
    }
    if edge_ids.iter().any(|&e| e as usize >= m) {
        return Err(invalid("CSR edge id out of edge range"));
    }
    if endpoints.iter().any(|&v| v as usize >= n) {
        return Err(invalid("CSR endpoint out of vertex range"));
    }
    Ok(())
}

impl<S: CsrStorage> CsrGraph<S> {
    /// A zero-copy borrowed view of this graph: the type every engine and
    /// shard worker consumes, erasing where the arrays live.
    #[inline]
    pub fn view(&self) -> CsrRef<'_> {
        CsrGraph {
            offsets: self.offsets.as_u32s(),
            neighbors: self.neighbors.as_u32s(),
            edge_ids: self.edge_ids.as_u32s(),
            endpoints: self.endpoints.as_u32s(),
        }
    }

    /// Thaws back into a [`MultiGraph`] (edges re-added in id order).
    ///
    /// Round-trips exactly: `CsrGraph::from_multigraph(&g).to_multigraph()`
    /// equals `g`, because `MultiGraph` incidence order is ascending edge id
    /// by construction.
    pub fn to_multigraph(&self) -> MultiGraph {
        let endpoints = self.endpoints.as_u32s();
        MultiGraph::with_edges(
            self.num_vertices(),
            endpoints
                .chunks_exact(2)
                .map(|uv| (VertexId::new(uv[0] as usize), VertexId::new(uv[1] as usize))),
        )
        .expect("CSR endpoints are valid by construction")
    }

    /// The raw interleaved endpoints array (`u_0, v_0, u_1, v_1, ...`):
    /// the shard splitter's allocation-free edge scan.
    pub(crate) fn endpoint_words(&self) -> &[u32] {
        self.endpoints.as_u32s()
    }

    /// The contiguous range of incidence-slot indices belonging to `v`.
    #[inline]
    pub fn incidence_range(&self, v: VertexId) -> std::ops::Range<usize> {
        let offsets = self.offsets.as_u32s();
        offsets[v.index()] as usize..offsets[v.index() + 1] as usize
    }

    /// Total number of incidence slots, i.e. `2m`.
    #[inline]
    pub fn num_incidences(&self) -> usize {
        self.neighbors.as_u32s().len()
    }

    /// The neighbor stored at incidence slot `slot`.
    #[inline]
    pub fn slot_neighbor(&self, slot: usize) -> VertexId {
        VertexId::new(self.neighbors.as_u32s()[slot] as usize)
    }

    /// The edge stored at incidence slot `slot`.
    #[inline]
    pub fn slot_edge(&self, slot: usize) -> EdgeId {
        EdgeId::new(self.edge_ids.as_u32s()[slot] as usize)
    }

    /// For every incidence slot, the slot of the *same edge* at the other
    /// endpoint: a permutation of `0..2m` that message-passing simulators use
    /// to exchange per-edge messages without any per-vertex allocation.
    pub fn mirror_slots(&self) -> Vec<u32> {
        let edge_ids = self.edge_ids.as_u32s();
        let slots = edge_ids.len();
        // First slot seen for each edge, then matched by its partner.
        let mut first = vec![u32::MAX; self.num_edges()];
        let mut mirror = vec![0u32; slots];
        for (slot, &e) in edge_ids.iter().enumerate() {
            let other = &mut first[e as usize];
            if *other == u32::MAX {
                *other = u32_of(slot);
            } else {
                mirror[slot] = *other;
                mirror[*other as usize] = u32_of(slot);
            }
        }
        mirror
    }

    /// Encodes the graph in the versioned on-disk byte format (see the
    /// [module docs](self)). Identical graphs produce identical bytes
    /// regardless of storage, so save → load → save round-trips exactly.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.num_vertices() as u64;
        let m = self.num_edges() as u64;
        let sections = [
            self.offsets.as_u32s(),
            self.neighbors.as_u32s(),
            self.edge_ids.as_u32s(),
            self.endpoints.as_u32s(),
        ];
        let words: usize = sections.iter().map(|s| s.len()).sum();
        let mut bytes = Vec::with_capacity(HEADER_BYTES + 4 * words);
        for header_word in [FORMAT_MAGIC, FORMAT_VERSION, n, m] {
            bytes.extend_from_slice(&header_word.to_le_bytes());
        }
        for section in sections {
            for &w in section {
                bytes.extend_from_slice(&w.to_le_bytes());
            }
        }
        bytes
    }

    /// Writes the on-disk format to `path` (atomically enough for tests:
    /// a single `write_all`).
    ///
    /// # Errors
    ///
    /// Propagates any I/O error.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let mut file = File::create(path)?;
        file.write_all(&self.to_bytes())
    }
}

impl Default for OwnedCsr {
    /// The frozen empty graph (0 vertices, 0 edges). A manual impl because
    /// the `offsets` invariant (`offsets.len() == n + 1`, starting at 0)
    /// must hold even for the default value.
    fn default() -> Self {
        CsrGraph {
            offsets: vec![0],
            neighbors: Vec::new(),
            edge_ids: Vec::new(),
            endpoints: Vec::new(),
        }
    }
}

impl From<&MultiGraph> for OwnedCsr {
    fn from(g: &MultiGraph) -> Self {
        CsrGraph::from_multigraph(g)
    }
}

impl<S: CsrStorage> GraphView for CsrGraph<S> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.offsets.as_u32s().len() - 1
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.endpoints.as_u32s().len() / 2
    }

    #[inline]
    fn endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        let endpoints = self.endpoints.as_u32s();
        (
            VertexId::new(endpoints[2 * e.index()] as usize),
            VertexId::new(endpoints[2 * e.index() + 1] as usize),
        )
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        let offsets = self.offsets.as_u32s();
        (offsets[v.index() + 1] - offsets[v.index()]) as usize
    }

    #[inline]
    fn incidences(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        let range = self.incidence_range(v);
        self.neighbors.as_u32s()[range.clone()]
            .iter()
            .zip(self.edge_ids.as_u32s()[range].iter())
            .map(|(&u, &e)| (VertexId::new(u as usize), EdgeId::new(e as usize)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("forest-graph-csr-{tag}-{}.csr", std::process::id()))
    }

    #[test]
    fn freeze_preserves_counts_and_order() {
        let g = MultiGraph::from_pairs(5, &[(0, 1), (1, 2), (0, 1), (3, 4), (2, 0)]).unwrap();
        let csr = CsrGraph::from_multigraph(&g);
        assert_eq!(csr.num_vertices(), 5);
        assert_eq!(csr.num_edges(), 5);
        assert_eq!(csr.num_incidences(), 10);
        for x in g.vertices() {
            assert_eq!(csr.degree(x), g.degree(x));
            let mg: Vec<_> = g.incidences(x).collect();
            let cs: Vec<_> = csr.incidences(x).collect();
            assert_eq!(mg, cs);
        }
        for e in g.edge_ids() {
            assert_eq!(csr.endpoints(e), g.endpoints(e));
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let g = MultiGraph::from_pairs(6, &[(0, 1), (2, 3), (0, 1), (4, 5), (1, 4)]).unwrap();
        let csr = CsrGraph::from_multigraph(&g);
        assert_eq!(csr.to_multigraph(), g);
        // Freezing the thawed graph gives back the same CSR.
        assert_eq!(CsrGraph::from_multigraph(&csr.to_multigraph()), csr);
    }

    #[test]
    fn roundtrip_of_empty_and_isolated() {
        let g = MultiGraph::new(4);
        let csr = CsrGraph::from_multigraph(&g);
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.to_multigraph(), g);
        let empty = CsrGraph::from_multigraph(&MultiGraph::new(0));
        assert_eq!(empty.num_vertices(), 0);
    }

    #[test]
    fn mirror_slots_pair_up_edges() {
        let g = MultiGraph::from_pairs(4, &[(0, 1), (1, 2), (0, 1), (2, 3)]).unwrap();
        let csr = CsrGraph::from_multigraph(&g);
        let mirror = csr.mirror_slots();
        assert_eq!(mirror.len(), csr.num_incidences());
        for slot in 0..csr.num_incidences() {
            let other = mirror[slot] as usize;
            assert_ne!(slot, other);
            assert_eq!(mirror[other] as usize, slot, "mirror is an involution");
            assert_eq!(csr.slot_edge(slot), csr.slot_edge(other));
        }
    }

    #[test]
    fn default_is_the_valid_empty_graph() {
        let d = OwnedCsr::default();
        assert_eq!(d.num_vertices(), 0);
        assert_eq!(d.num_edges(), 0);
        assert!(d.vertices().next().is_none());
        assert_eq!(d, CsrGraph::from_multigraph(&MultiGraph::new(0)));
    }

    #[test]
    fn from_view_accepts_csr_itself() {
        let g = MultiGraph::from_pairs(3, &[(0, 1), (1, 2)]).unwrap();
        let csr = CsrGraph::from_multigraph(&g);
        assert_eq!(CsrGraph::from_view(&csr), csr);
    }

    #[test]
    fn slot_accessors_match_incidences() {
        let g = MultiGraph::from_pairs(3, &[(0, 2), (2, 1)]).unwrap();
        let csr = CsrGraph::from_multigraph(&g);
        let r = csr.incidence_range(v(2));
        assert_eq!(r.len(), 2);
        let slots: Vec<_> = r
            .map(|s| (csr.slot_neighbor(s), csr.slot_edge(s)))
            .collect();
        let incidences: Vec<_> = csr.incidences(v(2)).collect();
        assert_eq!(slots, incidences);
    }

    #[test]
    fn borrowed_view_is_equal_and_copy() {
        let g = MultiGraph::from_pairs(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        let csr = CsrGraph::from_multigraph(&g);
        let view = csr.view();
        let copy = view; // CsrRef is Copy
        assert_eq!(view, csr);
        assert_eq!(copy.to_multigraph(), g);
        assert_eq!(copy.mirror_slots(), csr.mirror_slots());
        for x in g.vertices() {
            let a: Vec<_> = csr.incidences(x).collect();
            let b: Vec<_> = view.incidences(x).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn byte_format_roundtrips_exactly() {
        let g = MultiGraph::from_pairs(6, &[(0, 1), (2, 3), (0, 1), (4, 5), (1, 4)]).unwrap();
        let csr = CsrGraph::from_multigraph(&g);
        let bytes = csr.to_bytes();
        let back = OwnedCsr::from_bytes(&bytes).unwrap();
        assert_eq!(back, csr);
        assert_eq!(
            back.to_bytes(),
            bytes,
            "save -> load -> save is byte-identical"
        );
    }

    #[test]
    fn mmap_load_shares_one_buffer_and_matches_owned() {
        let g = MultiGraph::from_pairs(5, &[(0, 1), (1, 2), (3, 4), (2, 3), (0, 4)]).unwrap();
        let csr = CsrGraph::from_multigraph(&g);
        let path = temp_path("share");
        csr.save(&path).unwrap();
        let mapped = MmapCsr::load_mmap(&path).unwrap();
        assert_eq!(mapped, csr);
        assert_eq!(mapped.to_multigraph(), g);
        assert_eq!(mapped.to_bytes(), csr.to_bytes());
        let clone = mapped.clone();
        assert_eq!(clone, mapped);
        // The GraphView surface works straight off the mapped storage.
        assert_eq!(GraphView::max_degree(&mapped), GraphView::max_degree(&g));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_graph_survives_the_format() {
        let csr = OwnedCsr::default();
        let path = temp_path("empty");
        csr.save(&path).unwrap();
        let mapped = MmapCsr::load_mmap(&path).unwrap();
        assert_eq!(mapped.num_vertices(), 0);
        assert_eq!(mapped.num_edges(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn format_rejects_garbage() {
        assert!(OwnedCsr::from_bytes(b"short").is_err());
        // Right length, wrong magic.
        let g = MultiGraph::from_pairs(2, &[(0, 1)]).unwrap();
        let mut bytes = CsrGraph::from_multigraph(&g).to_bytes();
        bytes[0] ^= 0xFF;
        assert!(OwnedCsr::from_bytes(&bytes).is_err());
        // Wrong version.
        let mut bytes = CsrGraph::from_multigraph(&g).to_bytes();
        bytes[8] = 99;
        assert!(OwnedCsr::from_bytes(&bytes).is_err());
        // Truncated payload.
        let bytes = CsrGraph::from_multigraph(&g).to_bytes();
        assert!(OwnedCsr::from_bytes(&bytes[..bytes.len() - 4]).is_err());
        // Structurally broken: neighbor out of range.
        let mut bytes = CsrGraph::from_multigraph(&g).to_bytes();
        let neighbors_start = HEADER_BYTES + 4 * 3; // offsets has n + 1 = 3 words
        bytes[neighbors_start] = 7;
        assert!(OwnedCsr::from_bytes(&bytes).is_err());
    }

    #[test]
    fn crafted_headers_cannot_panic_the_decoder() {
        // Valid magic/version but adversarial n/m: the size computation must
        // fail closed (InvalidData), never overflow or slice out of range.
        for (n, m) in [
            (u64::MAX, 0u64),
            (0, u64::MAX),
            (u64::MAX, u64::MAX),
            (u64::MAX / 4, u64::MAX / 24),
            (1 << 60, 1),
        ] {
            let mut bytes = Vec::new();
            for w in [FORMAT_MAGIC, FORMAT_VERSION, n, m] {
                bytes.extend_from_slice(&w.to_le_bytes());
            }
            let err = OwnedCsr::from_bytes(&bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "n={n}, m={m}");
            // Same with a little padding, in case a wrapped size lands on it.
            bytes.extend_from_slice(&[0u8; 64]);
            assert!(OwnedCsr::from_bytes(&bytes).is_err());
        }
    }

    #[test]
    fn load_mmap_is_demand_paged_and_defers_array_checks() {
        let g = MultiGraph::from_pairs(3, &[(0, 1), (1, 2)]).unwrap();
        let mut bytes = CsrGraph::from_multigraph(&g).to_bytes();
        let path = temp_path("lazy");
        std::fs::write(&path, &bytes).unwrap();
        let mapped = MmapCsr::load_mmap(&path).unwrap();
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(
            mapped.is_demand_paged(),
            "little-endian unix must serve the payload straight from the mapping"
        );
        // Corrupt a neighbor word: the lazy loader (header + offsets only)
        // accepts the file, while the eager byte decoder rejects it.
        let neighbors_start = HEADER_BYTES + 4 * 4; // offsets has n + 1 = 4 words
        bytes[neighbors_start] = 9;
        std::fs::write(&path, &bytes).unwrap();
        assert!(MmapCsr::load_mmap(&path).is_ok());
        let err = CsrGraph::from_bytes(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A broken offsets array is caught even lazily.
        let mut broken_offsets = CsrGraph::from_multigraph(&g).to_bytes();
        broken_offsets[HEADER_BYTES] = 1; // offsets[0] != 0
        std::fs::write(&path, &broken_offsets).unwrap();
        assert!(MmapCsr::load_mmap(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_mmap_rejects_non_csr_files() {
        let path = temp_path("garbage");
        std::fs::write(&path, b"not a csr file at all").unwrap();
        let err = MmapCsr::load_mmap(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }
}
