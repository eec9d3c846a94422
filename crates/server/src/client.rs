//! A small blocking client over the frame protocol — the same module the
//! integration tests, the CI smoke job and the benchmarks drive.

use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, GraphSource, Request, Response,
    WireError,
};
use forest_decomp::api::EdgeUpdate;
use forest_decomp::Engine;
use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// What a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, peer hang-up).
    Io(io::Error),
    /// The server answered with a typed error frame.
    Server(WireError),
    /// The server's response failed to decode, or answered a different
    /// request kind than was asked.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "transport error: {err}"),
            ClientError::Server(err) => write!(f, "server error: {err}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(err: io::Error) -> Self {
        ClientError::Io(err)
    }
}

/// What `ApplyUpdates` came back with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Applied {
    /// The epoch the batch published.
    pub epoch: u64,
    /// Updates applied.
    pub applied: u64,
    /// Ids the server assigned to the batch's inserts, in order.
    pub inserted_edges: Vec<u64>,
    /// Previously-colored edges whose color changed.
    pub recolored_edges: u64,
    /// Color budget after the batch.
    pub color_budget: u64,
    /// Live edges after the batch.
    pub live_edges: u64,
}

/// The watermark a snapshot reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Watermark {
    /// The answering epoch.
    pub epoch: u64,
    /// Best certified arboricity lower bound.
    pub lower_bound: u64,
    /// Colors in use.
    pub color_budget: u64,
    /// Live edges.
    pub live_edges: u64,
    /// Vertices.
    pub num_vertices: u64,
}

/// A blocking connection to a `forest-serve` instance.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a serving address.
    ///
    /// # Errors
    ///
    /// Whatever [`TcpStream::connect`] reports.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// One request/response round trip.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure, [`ClientError::Server`]
    /// when the server answers a typed error frame,
    /// [`ClientError::Protocol`] when the response fails to decode.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &encode_request(request))?;
        let payload = read_frame(&mut self.stream)?;
        match decode_response(&payload) {
            Ok(Response::Error(err)) => Err(ClientError::Server(err)),
            Ok(resp) => Ok(resp),
            Err(err) => Err(ClientError::Protocol(err.to_string())),
        }
    }

    /// Registers `(tenant, graph)` from `source`; answers
    /// `(epoch, num_vertices, live_edges, color_budget)`.
    ///
    /// # Errors
    ///
    /// See [`call`](Client::call).
    pub fn register(
        &mut self,
        tenant: &str,
        graph: &str,
        engine: Engine,
        epsilon: f64,
        seed: u64,
        source: GraphSource,
    ) -> Result<(u64, u64, u64, u64), ClientError> {
        match self.call(&Request::RegisterGraph {
            tenant: tenant.into(),
            graph: graph.into(),
            engine,
            epsilon,
            seed,
            source,
        })? {
            Response::Registered {
                epoch,
                num_vertices,
                live_edges,
                color_budget,
            } => Ok((epoch, num_vertices, live_edges, color_budget)),
            other => Err(unexpected("Registered", &other)),
        }
    }

    /// Applies a batch of updates and publishes the next epoch.
    ///
    /// # Errors
    ///
    /// See [`call`](Client::call).
    pub fn apply_updates(
        &mut self,
        tenant: &str,
        graph: &str,
        updates: Vec<EdgeUpdate>,
    ) -> Result<Applied, ClientError> {
        match self.call(&Request::ApplyUpdates {
            tenant: tenant.into(),
            graph: graph.into(),
            updates,
        })? {
            Response::Applied {
                epoch,
                applied,
                inserted_edges,
                recolored_edges,
                color_budget,
                live_edges,
            } => Ok(Applied {
                epoch,
                applied,
                inserted_edges,
                recolored_edges,
                color_budget,
                live_edges,
            }),
            other => Err(unexpected("Applied", &other)),
        }
    }

    /// The forest color of `edge` (`None` = dead or unknown id), with the
    /// answering epoch.
    ///
    /// # Errors
    ///
    /// See [`call`](Client::call).
    pub fn color_of_edge(
        &mut self,
        tenant: &str,
        graph: &str,
        edge: u64,
    ) -> Result<(u64, Option<u64>), ClientError> {
        match self.call(&Request::ColorOfEdge {
            tenant: tenant.into(),
            graph: graph.into(),
            edge,
        })? {
            Response::EdgeColor { epoch, color } => Ok((epoch, color)),
            other => Err(unexpected("EdgeColor", &other)),
        }
    }

    /// The canonical root of `vertex`'s tree in `color`'s forest.
    ///
    /// # Errors
    ///
    /// See [`call`](Client::call).
    pub fn forest_of_vertex(
        &mut self,
        tenant: &str,
        graph: &str,
        color: u64,
        vertex: u64,
    ) -> Result<(u64, u64), ClientError> {
        match self.call(&Request::ForestOfVertex {
            tenant: tenant.into(),
            graph: graph.into(),
            color,
            vertex,
        })? {
            Response::VertexForest { epoch, root } => Ok((epoch, root)),
            other => Err(unexpected("VertexForest", &other)),
        }
    }

    /// The out-edges the orientation assigns `vertex`.
    ///
    /// # Errors
    ///
    /// See [`call`](Client::call).
    pub fn orientation_out(
        &mut self,
        tenant: &str,
        graph: &str,
        vertex: u64,
    ) -> Result<(u64, Vec<u64>), ClientError> {
        match self.call(&Request::OrientationOut {
            tenant: tenant.into(),
            graph: graph.into(),
            vertex,
        })? {
            Response::OutEdges { epoch, edges } => Ok((epoch, edges)),
            other => Err(unexpected("OutEdges", &other)),
        }
    }

    /// The live arboricity watermark.
    ///
    /// # Errors
    ///
    /// See [`call`](Client::call).
    pub fn watermark(&mut self, tenant: &str, graph: &str) -> Result<Watermark, ClientError> {
        match self.call(&Request::ArboricityWatermark {
            tenant: tenant.into(),
            graph: graph.into(),
        })? {
            Response::Watermark {
                epoch,
                lower_bound,
                color_budget,
                live_edges,
                num_vertices,
            } => Ok(Watermark {
                epoch,
                lower_bound,
                color_budget,
                live_edges,
                num_vertices,
            }),
            other => Err(unexpected("Watermark", &other)),
        }
    }

    /// The epoch's reproducible cold-run report bytes.
    ///
    /// # Errors
    ///
    /// See [`call`](Client::call).
    pub fn snapshot_bytes(
        &mut self,
        tenant: &str,
        graph: &str,
    ) -> Result<(u64, Vec<u8>), ClientError> {
        match self.call(&Request::SnapshotBytes {
            tenant: tenant.into(),
            graph: graph.into(),
        })? {
            Response::Snapshot { epoch, bytes } => Ok((epoch, bytes)),
            other => Err(unexpected("Snapshot", &other)),
        }
    }

    /// The tenant's service counters and the answering epoch's cumulative
    /// stream counters (`stream.*`) as `(name, value)` pairs in ascending
    /// name order, with the answering epoch. Counters are monotonically
    /// non-decreasing; clients must tolerate new names appearing between
    /// calls.
    ///
    /// # Errors
    ///
    /// See [`call`](Client::call).
    pub fn metrics(
        &mut self,
        tenant: &str,
        graph: &str,
    ) -> Result<(u64, Vec<(String, u64)>), ClientError> {
        match self.call(&Request::Metrics {
            tenant: tenant.into(),
            graph: graph.into(),
        })? {
            Response::MetricsReport { epoch, entries } => Ok((epoch, entries)),
            other => Err(unexpected("MetricsReport", &other)),
        }
    }

    /// Asks the server to shut down cleanly.
    ///
    /// # Errors
    ///
    /// See [`call`](Client::call).
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}
