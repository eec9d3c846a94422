//! The wire protocol: little-endian, length-prefixed binary frames in the
//! style of the versioned on-disk CSR format.
//!
//! Every message travels as one frame: a `u32` payload length (LE,
//! capped at [`MAX_FRAME_LEN`]) followed by the payload. Payloads open
//! with the magic `"FSRV"` ([`MAGIC`]) and a `u16` protocol version
//! ([`VERSION`]); requests follow with an opcode byte and the request
//! body, responses with a status byte (`0` = ok, which echoes the
//! request's opcode before the body; `1` = error, carrying a typed
//! [`WireError`]). Integers are unsigned LE; strings and byte blobs are
//! `u32`-length-prefixed; `ε` travels as `f64::to_bits`.
//!
//! Decoding is **total**: any byte sequence decodes to either a message
//! or a typed [`WireError`] — never a panic, never an allocation sized by
//! unvalidated input (collection counts are checked against the bytes
//! actually remaining before reserving). The round-trip identity
//! (`decode(encode(x)) == x`) and the never-panics property are
//! proptested in `tests/protocol.rs`.

use forest_decomp::api::EdgeUpdate;
use forest_decomp::{Engine, FdError};
use forest_graph::EdgeId;
use std::fmt;
use std::io::{self, Read, Write};

/// `"FSRV"` little-endian.
pub const MAGIC: u32 = u32::from_le_bytes(*b"FSRV");
/// Protocol version this build speaks. Version 2 retired the `Stats` op
/// (opcode 8): its stream counters travel in `Metrics`, its live totals in
/// `ArboricityWatermark`.
pub const VERSION: u16 = 2;
/// Hard cap on one frame's payload (64 MiB): bounds what a malformed or
/// hostile length prefix can make the server allocate.
pub const MAX_FRAME_LEN: u32 = 64 << 20;
/// What [`read_frame`] reserves before any payload byte arrives: every
/// ordinary frame fits in one allocation, while a length prefix with no
/// payload behind it costs at most this much.
const FRAME_PREALLOC: usize = 64 << 10;

/// Request opcodes (also echoed in ok responses).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Register a tenant graph.
    RegisterGraph = 1,
    /// Apply a batch of edge updates and publish the next epoch.
    ApplyUpdates = 2,
    /// The forest color of one edge.
    ColorOfEdge = 3,
    /// The root of a vertex's tree in one color's forest.
    ForestOfVertex = 4,
    /// The out-edges the orientation assigns a vertex.
    OrientationOut = 5,
    /// The live arboricity watermark.
    ArboricityWatermark = 6,
    /// The epoch's reproducible cold-run report bytes.
    SnapshotBytes = 7,
    /// Stop the server (drains, then exits the accept loop).
    Shutdown = 9,
    /// The graph's service and stream counters (name/value pairs).
    Metrics = 10,
}

impl Opcode {
    fn from_u8(b: u8) -> Option<Opcode> {
        Some(match b {
            1 => Opcode::RegisterGraph,
            2 => Opcode::ApplyUpdates,
            3 => Opcode::ColorOfEdge,
            4 => Opcode::ForestOfVertex,
            5 => Opcode::OrientationOut,
            6 => Opcode::ArboricityWatermark,
            7 => Opcode::SnapshotBytes,
            9 => Opcode::Shutdown,
            10 => Opcode::Metrics,
            _ => return None,
        })
    }

    /// The wire byte of this opcode.
    ///
    /// Enum-to-integer is the one place `as` is unavoidable; the
    /// discriminants are declared `1..=10` above, so the cast is lossless.
    fn wire(self) -> u8 {
        // forest-lint: allow(FL004) audited: Opcode discriminants are declared in u8 range
        self as u8
    }
}

/// Where a registered graph's initial edges come from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphSource {
    /// No initial edges; the graph is grown by `ApplyUpdates`.
    Empty {
        /// Vertex count.
        num_vertices: u64,
    },
    /// An inline edge list.
    Edges {
        /// Vertex count.
        num_vertices: u64,
        /// Endpoint pairs, applied in order (their ids are `0..len`).
        edges: Vec<(u64, u64)>,
    },
    /// A versioned on-disk CSR file the *server* mmaps.
    MmapPath {
        /// Path on the server's filesystem.
        path: String,
    },
}

/// One request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Register `tenant/graph` with a deterministic seed (the
    /// byte-reproducibility knob) and a snapshot engine.
    RegisterGraph {
        /// Tenant id.
        tenant: String,
        /// Graph id within the tenant.
        graph: String,
        /// Engine used by snapshot reports (wire-coded; see
        /// [`engine_to_wire`]).
        engine: Engine,
        /// Slack parameter `ε ∈ (0, 1)`.
        epsilon: f64,
        /// Deterministic seed for snapshot reports.
        seed: u64,
        /// Initial edges.
        source: GraphSource,
    },
    /// Apply a batch of updates (deletes first, then inserts) and publish
    /// the next epoch.
    ApplyUpdates {
        /// Tenant id.
        tenant: String,
        /// Graph id.
        graph: String,
        /// The updates.
        updates: Vec<EdgeUpdate>,
    },
    /// The forest color of `edge`.
    ColorOfEdge {
        /// Tenant id.
        tenant: String,
        /// Graph id.
        graph: String,
        /// The (stable) edge id.
        edge: u64,
    },
    /// The root of `vertex`'s tree in `color`'s forest.
    ForestOfVertex {
        /// Tenant id.
        tenant: String,
        /// Graph id.
        graph: String,
        /// The color (forest index).
        color: u64,
        /// The vertex.
        vertex: u64,
    },
    /// The out-edges the orientation assigns `vertex`.
    OrientationOut {
        /// Tenant id.
        tenant: String,
        /// Graph id.
        graph: String,
        /// The vertex.
        vertex: u64,
    },
    /// The live arboricity watermark.
    ArboricityWatermark {
        /// Tenant id.
        tenant: String,
        /// Graph id.
        graph: String,
    },
    /// The epoch's reproducible cold-run report bytes
    /// (`DecompositionReport::canonical_bytes`).
    SnapshotBytes {
        /// Tenant id.
        tenant: String,
        /// Graph id.
        graph: String,
    },
    /// The graph's counters as name/value pairs: the service counters
    /// (requests served, updates applied, publishes, queries …) and the
    /// answering epoch's cumulative stream counters (`stream.*`).
    Metrics {
        /// Tenant id.
        tenant: String,
        /// Graph id.
        graph: String,
    },
    /// Stop the server.
    Shutdown,
}

/// One response frame (`Error` travels with status byte 1, everything
/// else with status 0 + the echoed opcode).
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// `RegisterGraph` succeeded.
    Registered {
        /// Epoch of the registration snapshot (0).
        epoch: u64,
        /// Vertices.
        num_vertices: u64,
        /// Initial live edges.
        live_edges: u64,
        /// Initial color budget.
        color_budget: u64,
    },
    /// `ApplyUpdates` succeeded and published.
    Applied {
        /// The epoch the batch published.
        epoch: u64,
        /// Updates applied.
        applied: u64,
        /// Ids assigned to the batch's inserts, in order.
        inserted_edges: Vec<u64>,
        /// Previously-colored edges whose color changed.
        recolored_edges: u64,
        /// Color budget after the batch.
        color_budget: u64,
        /// Live edges after the batch.
        live_edges: u64,
    },
    /// `ColorOfEdge` answer (`None` = the id is dead or unknown at this
    /// epoch — a normal outcome, not an error).
    EdgeColor {
        /// The answering epoch.
        epoch: u64,
        /// The color, if the edge is live.
        color: Option<u64>,
    },
    /// `ForestOfVertex` answer.
    VertexForest {
        /// The answering epoch.
        epoch: u64,
        /// The canonical root of the vertex's tree in that forest.
        root: u64,
    },
    /// `OrientationOut` answer.
    OutEdges {
        /// The answering epoch.
        epoch: u64,
        /// The vertex's out-edges (≤ color budget of that epoch).
        edges: Vec<u64>,
    },
    /// `ArboricityWatermark` answer.
    Watermark {
        /// The answering epoch.
        epoch: u64,
        /// Best certified arboricity lower bound.
        lower_bound: u64,
        /// Colors in use.
        color_budget: u64,
        /// Live edges.
        live_edges: u64,
        /// Vertices.
        num_vertices: u64,
    },
    /// `SnapshotBytes` answer.
    Snapshot {
        /// The answering epoch.
        epoch: u64,
        /// `DecompositionReport::canonical_bytes` of the epoch's cold run.
        bytes: Vec<u8>,
    },
    /// `Metrics` answer: the graph's counters as sorted name/value pairs.
    MetricsReport {
        /// The answering epoch.
        epoch: u64,
        /// `(name, value)` pairs in ascending name order (the server emits
        /// a fixed, documented set; clients must tolerate additions).
        entries: Vec<(String, u64)>,
    },
    /// `Shutdown` acknowledged; the server stops accepting connections.
    ShuttingDown,
    /// Typed failure (status byte 1).
    Error(WireError),
}

/// Stable error codes carried by error frames, mirroring `FdError` (plus
/// the server-layer conditions the library never sees).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame failed to decode (bad magic, unknown version or opcode,
    /// truncation, trailing bytes, non-UTF-8 string, oversized count).
    Malformed = 1,
    /// The tenant/graph pair is not registered.
    UnknownGraph = 2,
    /// The tenant/graph pair is already registered.
    AlreadyRegistered = 3,
    /// An update named an edge id that is not live
    /// (`FdError::UnknownEdge`).
    UnknownEdge = 4,
    /// A query named a color or vertex outside the snapshot's range.
    OutOfRange = 5,
    /// The requested engine/problem combination is unsupported
    /// (`FdError::UnsupportedCombination` / `DynamicUnsupported` /
    /// `ShardingUnsupported` / `ReorderUnsupported`).
    Unsupported = 6,
    /// The request was structurally valid but semantically rejected
    /// (`FdError::InvalidEpsilon`, bad bounds, mismatched artifacts …).
    InvalidRequest = 7,
    /// Graph I/O failed on the server (`FdError::Io` — e.g. a bad
    /// `MmapPath`).
    Io = 8,
    /// A structurally invalid update at the graph layer
    /// (`FdError::Graph`: self-loop, endpoint out of range).
    Graph = 9,
    /// Everything else (`FdError::NotConverged`, validation failures …).
    Internal = 10,
}

impl ErrorCode {
    fn from_u16(b: u16) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnknownGraph,
            3 => ErrorCode::AlreadyRegistered,
            4 => ErrorCode::UnknownEdge,
            5 => ErrorCode::OutOfRange,
            6 => ErrorCode::Unsupported,
            7 => ErrorCode::InvalidRequest,
            8 => ErrorCode::Io,
            9 => ErrorCode::Graph,
            10 => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// The wire value of this error code.
    ///
    /// Enum-to-integer is the one place `as` is unavoidable; the
    /// discriminants are declared `1..=10` above, so the cast is lossless.
    fn wire(self) -> u16 {
        // forest-lint: allow(FL004) audited: ErrorCode discriminants are declared in u16 range
        self as u16
    }
}

/// A typed error frame: a stable [`ErrorCode`] plus the human-readable
/// message (the library error's `Display`, when one caused it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// The stable code clients dispatch on.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// An error frame with `code` and `message`.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
        }
    }

    /// A malformed-frame error.
    pub fn malformed(message: impl Into<String>) -> Self {
        WireError::new(ErrorCode::Malformed, message)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for WireError {}

impl From<FdError> for WireError {
    fn from(err: FdError) -> Self {
        let code = match &err {
            FdError::UnknownEdge { .. } => ErrorCode::UnknownEdge,
            FdError::Graph(_) => ErrorCode::Graph,
            FdError::DynamicUnsupported { .. }
            | FdError::UnsupportedCombination { .. }
            | FdError::ShardingUnsupported { .. }
            | FdError::ReorderUnsupported { .. } => ErrorCode::Unsupported,
            FdError::InvalidEpsilon { .. }
            | FdError::InvalidShardCount { .. }
            | FdError::GraphMismatch { .. }
            | FdError::MissingPalettes { .. }
            | FdError::ArboricityBoundTooSmall { .. }
            | FdError::PaletteTooSmall { .. } => ErrorCode::InvalidRequest,
            FdError::Io { .. } => ErrorCode::Io,
            _ => ErrorCode::Internal,
        };
        WireError::new(code, err.to_string())
    }
}

/// The engine's wire byte.
fn engine_to_wire(engine: Engine) -> u8 {
    match engine {
        Engine::HarrisSuVu => 0,
        Engine::BarenboimElkin => 1,
        Engine::Folklore2Alpha => 2,
        Engine::ExactMatroid => 3,
    }
}

/// The engine a wire byte names.
fn engine_from_wire(b: u8) -> Option<Engine> {
    Some(match b {
        0 => Engine::HarrisSuVu,
        1 => Engine::BarenboimElkin,
        2 => Engine::Folklore2Alpha,
        3 => Engine::ExactMatroid,
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Writes one `[u32 len][payload]` frame.
///
/// # Errors
///
/// Propagates the writer's I/O errors; rejects payloads over
/// [`MAX_FRAME_LEN`] with `InvalidInput`.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME_LEN", payload.len()),
        ));
    }
    // forest-lint: allow(FL004) bounded: the MAX_FRAME_LEN check above caps payload.len()
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload.
///
/// The payload buffer grows as bytes arrive rather than being sized by the
/// declared length up front, so a peer that sends only a length prefix
/// costs the reader no more than the bytes it actually sent.
///
/// # Errors
///
/// Propagates the reader's I/O errors (including clean EOF before the
/// length prefix, or a stream that ends before the declared length, as
/// `UnexpectedEof`); rejects length prefixes over [`MAX_FRAME_LEN`] with
/// `InvalidData` — the connection is not recoverable after that, since the
/// stream position is ambiguous.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_LEN"),
        ));
    }
    let mut payload = Vec::with_capacity((len as usize).min(FRAME_PREALLOC));
    r.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() != len as usize {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "frame declared {len} bytes, stream ended after {}",
                payload.len()
            ),
        ));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------------------

struct Enc(Vec<u8>);

impl Enc {
    fn new(opcode_or_status: &[u8]) -> Self {
        let mut buf = Vec::with_capacity(16);
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(opcode_or_status);
        Enc(buf)
    }

    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(len_u32(s.len()));
        self.0.extend_from_slice(s.as_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.u32(len_u32(b.len()));
        self.0.extend_from_slice(b);
    }

    fn u64s(&mut self, vs: &[u64]) {
        self.u32(len_u32(vs.len()));
        for &v in vs {
            self.u64(v);
        }
    }
}

/// Total `usize -> u32` for wire length prefixes. Saturating is safe here:
/// a saturated length implies a payload far beyond [`MAX_FRAME_LEN`], which
/// [`write_frame`] rejects before anything reaches the wire.
fn len_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// A bounds-checked little-endian cursor: every read is total (truncation
/// becomes a [`WireError::malformed`], never a panic).
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

type DecResult<T> = Result<T, WireError>;

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::malformed(format!(
                "truncated frame: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or_else(|| WireError::malformed("frame bounds check failed".to_string()))?;
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as a fixed array, without indexing: `take`
    /// bounds-checks and `first_chunk` re-proves the length to the type
    /// system, so truncation is a [`WireError`], never a panic.
    fn array<const N: usize>(&mut self) -> DecResult<[u8; N]> {
        let s = self.take(N)?;
        s.first_chunk::<N>()
            .copied()
            .ok_or_else(|| WireError::malformed("frame bounds check failed".to_string()))
    }

    fn u8(&mut self) -> DecResult<u8> {
        let [b] = self.array::<1>()?;
        Ok(b)
    }

    fn u16(&mut self) -> DecResult<u16> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> DecResult<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> DecResult<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A wire `u64` carrying a graph id (edge or vertex): the id space is
    /// `u32`-dense, so anything larger is malformed — constructing the id
    /// anyway would truncate (or panic in debug builds).
    fn id(&mut self) -> DecResult<usize> {
        let v = self.u64()?;
        if v > u32::MAX as u64 {
            return Err(WireError::malformed(format!(
                "id {v} exceeds the u32 id space"
            )));
        }
        Ok(v as usize)
    }

    fn str(&mut self) -> DecResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::malformed("string field is not UTF-8"))
    }

    fn bytes(&mut self) -> DecResult<Vec<u8>> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// A `u32` element count, validated against the bytes actually left
    /// (`min_item` bytes each) before any allocation happens.
    fn count(&mut self, min_item: usize) -> DecResult<usize> {
        let count = self.u32()? as usize;
        if count.saturating_mul(min_item) > self.remaining() {
            return Err(WireError::malformed(format!(
                "count {count} larger than the frame can hold"
            )));
        }
        Ok(count)
    }

    fn u64s(&mut self) -> DecResult<Vec<u64>> {
        let count = self.count(8)?;
        let mut vs = Vec::with_capacity(count);
        for _ in 0..count {
            vs.push(self.u64()?);
        }
        Ok(vs)
    }

    fn finish(&self) -> DecResult<()> {
        if self.remaining() != 0 {
            return Err(WireError::malformed(format!(
                "{} trailing bytes after the message",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Checks the shared magic + version prologue.
    fn prologue(&mut self) -> DecResult<()> {
        let magic = self.u32()?;
        if magic != MAGIC {
            return Err(WireError::malformed(format!(
                "bad magic {magic:#010x} (want FSRV)"
            )));
        }
        let version = self.u16()?;
        if version != VERSION {
            return Err(WireError::malformed(format!(
                "unsupported protocol version {version} (this build speaks {VERSION})"
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Encodes a request payload (frame it with [`write_frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let op = |o: Opcode| Enc::new(&[o.wire()]);
    let mut e = match req {
        Request::RegisterGraph {
            tenant,
            graph,
            engine,
            epsilon,
            seed,
            source,
        } => {
            let mut e = op(Opcode::RegisterGraph);
            e.str(tenant);
            e.str(graph);
            e.u8(engine_to_wire(*engine));
            e.u64(epsilon.to_bits());
            e.u64(*seed);
            match source {
                GraphSource::Empty { num_vertices } => {
                    e.u8(0);
                    e.u64(*num_vertices);
                }
                GraphSource::Edges {
                    num_vertices,
                    edges,
                } => {
                    e.u8(1);
                    e.u64(*num_vertices);
                    e.u32(len_u32(edges.len()));
                    for &(u, v) in edges {
                        e.u64(u);
                        e.u64(v);
                    }
                }
                GraphSource::MmapPath { path } => {
                    e.u8(2);
                    e.str(path);
                }
            }
            e
        }
        Request::ApplyUpdates {
            tenant,
            graph,
            updates,
        } => {
            let mut e = op(Opcode::ApplyUpdates);
            e.str(tenant);
            e.str(graph);
            e.u32(len_u32(updates.len()));
            for u in updates {
                match *u {
                    EdgeUpdate::Insert { u, v } => {
                        e.u8(0);
                        e.u64(u.index() as u64);
                        e.u64(v.index() as u64);
                    }
                    EdgeUpdate::Delete { edge } => {
                        e.u8(1);
                        e.u64(edge.index() as u64);
                    }
                }
            }
            e
        }
        Request::ColorOfEdge {
            tenant,
            graph,
            edge,
        } => {
            let mut e = op(Opcode::ColorOfEdge);
            e.str(tenant);
            e.str(graph);
            e.u64(*edge);
            e
        }
        Request::ForestOfVertex {
            tenant,
            graph,
            color,
            vertex,
        } => {
            let mut e = op(Opcode::ForestOfVertex);
            e.str(tenant);
            e.str(graph);
            e.u64(*color);
            e.u64(*vertex);
            e
        }
        Request::OrientationOut {
            tenant,
            graph,
            vertex,
        } => {
            let mut e = op(Opcode::OrientationOut);
            e.str(tenant);
            e.str(graph);
            e.u64(*vertex);
            e
        }
        Request::ArboricityWatermark { tenant, graph } => {
            let mut e = op(Opcode::ArboricityWatermark);
            e.str(tenant);
            e.str(graph);
            e
        }
        Request::SnapshotBytes { tenant, graph } => {
            let mut e = op(Opcode::SnapshotBytes);
            e.str(tenant);
            e.str(graph);
            e
        }
        Request::Metrics { tenant, graph } => {
            let mut e = op(Opcode::Metrics);
            e.str(tenant);
            e.str(graph);
            e
        }
        Request::Shutdown => op(Opcode::Shutdown),
    };
    e.u8(0); // reserved trailer, room for flags without a version bump
    e.0
}

/// Decodes a request payload.
///
/// # Errors
///
/// [`WireError`] with [`ErrorCode::Malformed`] on any structural problem;
/// never panics.
pub fn decode_request(buf: &[u8]) -> Result<Request, WireError> {
    let mut d = Dec::new(buf);
    d.prologue()?;
    let opcode = d.u8()?;
    let opcode = Opcode::from_u8(opcode)
        .ok_or_else(|| WireError::malformed(format!("unknown opcode {opcode}")))?;
    let req = match opcode {
        Opcode::RegisterGraph => {
            let tenant = d.str()?;
            let graph = d.str()?;
            let engine_byte = d.u8()?;
            let engine = engine_from_wire(engine_byte)
                .ok_or_else(|| WireError::malformed(format!("unknown engine {engine_byte}")))?;
            let epsilon = f64::from_bits(d.u64()?);
            let seed = d.u64()?;
            let source = match d.u8()? {
                0 => GraphSource::Empty {
                    num_vertices: d.u64()?,
                },
                1 => {
                    let num_vertices = d.u64()?;
                    let count = d.count(16)?;
                    let mut edges = Vec::with_capacity(count);
                    for _ in 0..count {
                        edges.push((d.u64()?, d.u64()?));
                    }
                    GraphSource::Edges {
                        num_vertices,
                        edges,
                    }
                }
                2 => GraphSource::MmapPath { path: d.str()? },
                tag => {
                    return Err(WireError::malformed(format!(
                        "unknown graph source tag {tag}"
                    )))
                }
            };
            Request::RegisterGraph {
                tenant,
                graph,
                engine,
                epsilon,
                seed,
                source,
            }
        }
        Opcode::ApplyUpdates => {
            let tenant = d.str()?;
            let graph = d.str()?;
            let count = d.count(9)?;
            let mut updates = Vec::with_capacity(count);
            for _ in 0..count {
                updates.push(match d.u8()? {
                    0 => {
                        let u = d.id()?;
                        let v = d.id()?;
                        EdgeUpdate::insert(u, v)
                    }
                    1 => EdgeUpdate::delete(EdgeId::new(d.id()?)),
                    tag => return Err(WireError::malformed(format!("unknown update tag {tag}"))),
                });
            }
            Request::ApplyUpdates {
                tenant,
                graph,
                updates,
            }
        }
        Opcode::ColorOfEdge => Request::ColorOfEdge {
            tenant: d.str()?,
            graph: d.str()?,
            edge: d.u64()?,
        },
        Opcode::ForestOfVertex => Request::ForestOfVertex {
            tenant: d.str()?,
            graph: d.str()?,
            color: d.u64()?,
            vertex: d.u64()?,
        },
        Opcode::OrientationOut => Request::OrientationOut {
            tenant: d.str()?,
            graph: d.str()?,
            vertex: d.u64()?,
        },
        Opcode::ArboricityWatermark => Request::ArboricityWatermark {
            tenant: d.str()?,
            graph: d.str()?,
        },
        Opcode::SnapshotBytes => Request::SnapshotBytes {
            tenant: d.str()?,
            graph: d.str()?,
        },
        Opcode::Metrics => Request::Metrics {
            tenant: d.str()?,
            graph: d.str()?,
        },
        Opcode::Shutdown => Request::Shutdown,
    };
    let _reserved = d.u8()?;
    d.finish()?;
    Ok(req)
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

impl Response {
    fn opcode(&self) -> Option<Opcode> {
        Some(match self {
            Response::Registered { .. } => Opcode::RegisterGraph,
            Response::Applied { .. } => Opcode::ApplyUpdates,
            Response::EdgeColor { .. } => Opcode::ColorOfEdge,
            Response::VertexForest { .. } => Opcode::ForestOfVertex,
            Response::OutEdges { .. } => Opcode::OrientationOut,
            Response::Watermark { .. } => Opcode::ArboricityWatermark,
            Response::Snapshot { .. } => Opcode::SnapshotBytes,
            Response::MetricsReport { .. } => Opcode::Metrics,
            Response::ShuttingDown => Opcode::Shutdown,
            Response::Error(_) => return None,
        })
    }
}

/// Encodes a response payload (frame it with [`write_frame`]).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut e = match resp.opcode() {
        Some(op) => Enc::new(&[0, op.wire()]),
        None => Enc::new(&[1]),
    };
    match resp {
        Response::Registered {
            epoch,
            num_vertices,
            live_edges,
            color_budget,
        } => {
            e.u64(*epoch);
            e.u64(*num_vertices);
            e.u64(*live_edges);
            e.u64(*color_budget);
        }
        Response::Applied {
            epoch,
            applied,
            inserted_edges,
            recolored_edges,
            color_budget,
            live_edges,
        } => {
            e.u64(*epoch);
            e.u64(*applied);
            e.u64s(inserted_edges);
            e.u64(*recolored_edges);
            e.u64(*color_budget);
            e.u64(*live_edges);
        }
        Response::EdgeColor { epoch, color } => {
            e.u64(*epoch);
            match color {
                Some(c) => {
                    e.u8(1);
                    e.u64(*c);
                }
                None => e.u8(0),
            }
        }
        Response::VertexForest { epoch, root } => {
            e.u64(*epoch);
            e.u64(*root);
        }
        Response::OutEdges { epoch, edges } => {
            e.u64(*epoch);
            e.u64s(edges);
        }
        Response::Watermark {
            epoch,
            lower_bound,
            color_budget,
            live_edges,
            num_vertices,
        } => {
            e.u64(*epoch);
            e.u64(*lower_bound);
            e.u64(*color_budget);
            e.u64(*live_edges);
            e.u64(*num_vertices);
        }
        Response::Snapshot { epoch, bytes } => {
            e.u64(*epoch);
            e.bytes(bytes);
        }
        Response::MetricsReport { epoch, entries } => {
            e.u64(*epoch);
            e.u32(len_u32(entries.len()));
            for (name, value) in entries {
                e.str(name);
                e.u64(*value);
            }
        }
        Response::ShuttingDown => {}
        Response::Error(err) => {
            e.u16(err.code.wire());
            e.str(&err.message);
        }
    }
    e.0
}

/// Decodes a response payload.
///
/// # Errors
///
/// [`WireError`] with [`ErrorCode::Malformed`] on any structural problem;
/// never panics. A well-formed error *frame* decodes to
/// `Ok(Response::Error(..))`, not `Err`.
pub fn decode_response(buf: &[u8]) -> Result<Response, WireError> {
    let mut d = Dec::new(buf);
    d.prologue()?;
    let status = d.u8()?;
    let resp = match status {
        1 => {
            let code_raw = d.u16()?;
            let code = ErrorCode::from_u16(code_raw)
                .ok_or_else(|| WireError::malformed(format!("unknown error code {code_raw}")))?;
            Response::Error(WireError::new(code, d.str()?))
        }
        0 => {
            let opcode = d.u8()?;
            let opcode = Opcode::from_u8(opcode)
                .ok_or_else(|| WireError::malformed(format!("unknown response opcode {opcode}")))?;
            match opcode {
                Opcode::RegisterGraph => Response::Registered {
                    epoch: d.u64()?,
                    num_vertices: d.u64()?,
                    live_edges: d.u64()?,
                    color_budget: d.u64()?,
                },
                Opcode::ApplyUpdates => Response::Applied {
                    epoch: d.u64()?,
                    applied: d.u64()?,
                    inserted_edges: d.u64s()?,
                    recolored_edges: d.u64()?,
                    color_budget: d.u64()?,
                    live_edges: d.u64()?,
                },
                Opcode::ColorOfEdge => Response::EdgeColor {
                    epoch: d.u64()?,
                    color: match d.u8()? {
                        0 => None,
                        1 => Some(d.u64()?),
                        tag => {
                            return Err(WireError::malformed(format!("unknown option tag {tag}")))
                        }
                    },
                },
                Opcode::ForestOfVertex => Response::VertexForest {
                    epoch: d.u64()?,
                    root: d.u64()?,
                },
                Opcode::OrientationOut => Response::OutEdges {
                    epoch: d.u64()?,
                    edges: d.u64s()?,
                },
                Opcode::ArboricityWatermark => Response::Watermark {
                    epoch: d.u64()?,
                    lower_bound: d.u64()?,
                    color_budget: d.u64()?,
                    live_edges: d.u64()?,
                    num_vertices: d.u64()?,
                },
                Opcode::SnapshotBytes => Response::Snapshot {
                    epoch: d.u64()?,
                    bytes: d.bytes()?,
                },
                Opcode::Metrics => {
                    let epoch = d.u64()?;
                    // Min bytes per entry: a 4-byte (possibly empty-string)
                    // length prefix + an 8-byte value — validated against
                    // the remaining frame before the Vec is sized.
                    let count = d.count(12)?;
                    let mut entries = Vec::with_capacity(count);
                    for _ in 0..count {
                        let name = d.str()?;
                        let value = d.u64()?;
                        entries.push((name, value));
                    }
                    Response::MetricsReport { epoch, entries }
                }
                Opcode::Shutdown => Response::ShuttingDown,
            }
        }
        s => return Err(WireError::malformed(format!("unknown status byte {s}"))),
    };
    d.finish()?;
    Ok(resp)
}
