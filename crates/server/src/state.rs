//! The resident engine: a tenant registry mapping `(tenant, graph)` ids
//! to versioned decomposers, and the request handler every connection
//! thread calls into.
//!
//! Concurrency layout: the registry itself is an `RwLock<HashMap>`, taken
//! for writing only by `RegisterGraph`. Each entry owns its **writer**
//! (the [`VersionedDecomposer`] behind a `Mutex` — update batches for the
//! same graph serialize, different graphs proceed in parallel) and its
//! **reader** (a [`SnapshotReader`]). The query path is a registry
//! read-lock (uncontended once tenants are registered) plus a snapshot
//! clone under the entry's publication lock, which a publish holds only
//! to swap one pointer: queries never touch the writer mutex, so they
//! never wait for a concurrent update batch — the property the
//! concurrent-reader test and the `BENCH_pr6.json` service rows pin down.

use crate::protocol::{ErrorCode, GraphSource, Request, Response, WireError};
use forest_decomp::api::versioned::{ColoringSnapshot, SnapshotReader, VersionedDecomposer};
use forest_decomp::api::{DecompositionRequest, DynamicStats, EdgeUpdate, ProblemKind};
use forest_decomp::{Engine, FdError};
use forest_graph::{Color, EdgeId, MmapCsr, MultiGraph, VertexId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Per-`(tenant, graph)` service counters, maintained by the request
/// handler and served over the wire by the `Metrics` op (next to the
/// answering epoch's stream counters).
///
/// These are *service-level* counters (what did this tenant ask of the
/// server), one `TenantMetrics` per registered graph, and the only
/// metrics a client can read: the library layers keep no process-wide
/// counters, only the stats they return and their trace spans.
///
/// All counters are monotonically non-decreasing for the lifetime of
/// the entry; `server_smoke` pins that down across update batches.
#[derive(Default)]
pub struct TenantMetrics {
    /// Requests of any kind routed to this entry (including failed ones).
    requests_total: AtomicU64,
    /// `ApplyUpdates` batches routed to this entry.
    update_batches_total: AtomicU64,
    /// Individual updates successfully applied across all batches.
    updates_applied_total: AtomicU64,
    /// Epochs published by this entry's writer.
    publishes_total: AtomicU64,
    /// Read-path queries served from a snapshot.
    queries_total: AtomicU64,
    /// Requests answered with a typed error.
    errors_total: AtomicU64,
}

impl TenantMetrics {
    fn bump(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    /// The service counters plus `stream`'s cumulative `DynamicStats`
    /// counters (named `stream.<field>`) as `(name, value)` pairs in
    /// ascending name order — the wire contract of
    /// [`Response::MetricsReport`]. Every entry only ever grows.
    fn entries(&self, stream: &DynamicStats) -> Vec<(String, u64)> {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut entries = [
            ("errors_total", read(&self.errors_total)),
            ("publishes_total", read(&self.publishes_total)),
            ("queries_total", read(&self.queries_total)),
            ("requests_total", read(&self.requests_total)),
            ("update_batches_total", read(&self.update_batches_total)),
            ("updates_applied_total", read(&self.updates_applied_total)),
            ("stream.budget_raises", stream.budget_raises as u64),
            (
                "stream.compaction_recolorings",
                stream.compaction_recolorings as u64,
            ),
            ("stream.compactions", stream.compactions as u64),
            (
                "stream.exchange_recolorings",
                stream.exchange_recolorings as u64,
            ),
            ("stream.exchanges", stream.exchanges as u64),
            ("stream.fast_deletes", stream.fast_deletes as u64),
            ("stream.fast_inserts", stream.fast_inserts as u64),
            ("stream.updates", stream.updates as u64),
        ];
        entries.sort_unstable_by_key(|&(name, _)| name);
        entries
            .iter()
            .map(|&(name, value)| (name.to_string(), value))
            .collect()
    }
}

/// One registered graph: the serialized writer, the snapshot reader, and
/// the tenant's service counters.
pub struct GraphEntry {
    writer: Mutex<VersionedDecomposer>,
    reader: SnapshotReader,
    metrics: TenantMetrics,
}

impl GraphEntry {
    fn new(vd: VersionedDecomposer) -> Self {
        let reader = vd.reader();
        GraphEntry {
            writer: Mutex::new(vd),
            reader,
            metrics: TenantMetrics::default(),
        }
    }

    /// The entry's snapshot reader.
    pub fn reader(&self) -> &SnapshotReader {
        &self.reader
    }
}

/// The shared server state: every registered graph, addressable by
/// `(tenant, graph)`.
#[derive(Default)]
pub struct ServerState {
    graphs: RwLock<HashMap<(String, String), Arc<GraphEntry>>>,
}

impl ServerState {
    /// An empty registry.
    pub fn new() -> Self {
        ServerState::default()
    }

    /// Registers `(tenant, graph)` from `source`, publishing the
    /// registration snapshot as epoch 0.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::AlreadyRegistered`] when the pair exists, typed
    /// mirrors of the library errors otherwise (bad epsilon, unsupported
    /// engine, I/O on an `MmapPath`, structurally invalid inline edges).
    pub fn register(
        &self,
        tenant: &str,
        graph: &str,
        engine: Engine,
        epsilon: f64,
        seed: u64,
        source: &GraphSource,
    ) -> Result<Arc<ColoringSnapshot>, WireError> {
        let key = (tenant.to_string(), graph.to_string());
        // Cheap pre-check without building anything; the authoritative
        // check repeats under the write lock.
        if self.lookup(tenant, graph).is_some() {
            return Err(already_registered(tenant, graph));
        }
        let request = DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(engine)
            .with_epsilon(epsilon)
            .with_seed(seed);
        let vd = match source {
            GraphSource::Empty { num_vertices } => {
                VersionedDecomposer::new(request, usize_of(*num_vertices)?)?
            }
            GraphSource::Edges {
                num_vertices,
                edges,
            } => {
                let mut g = MultiGraph::new(usize_of(*num_vertices)?);
                for &(u, v) in edges {
                    g.add_edge(VertexId::new(usize_of(u)?), VertexId::new(usize_of(v)?))
                        .map_err(FdError::Graph)?;
                }
                VersionedDecomposer::from_graph(request, &g)?
            }
            GraphSource::MmapPath { path } => {
                let csr = MmapCsr::load_mmap(path).map_err(|err| FdError::Io {
                    context: format!("mmap-loading {path}: {err}"),
                })?;
                VersionedDecomposer::from_view(request, &csr)?
            }
        };
        let snap = vd.current();
        let entry = Arc::new(GraphEntry::new(vd));
        let mut graphs = self.graphs.write().unwrap_or_else(PoisonError::into_inner);
        if graphs.contains_key(&key) {
            return Err(already_registered(tenant, graph));
        }
        graphs.insert(key, entry);
        Ok(snap)
    }

    /// The entry for `(tenant, graph)`, if registered.
    pub fn lookup(&self, tenant: &str, graph: &str) -> Option<Arc<GraphEntry>> {
        let graphs = self.graphs.read().unwrap_or_else(PoisonError::into_inner);
        graphs
            .get(&(tenant.to_string(), graph.to_string()))
            .cloned()
    }

    /// Applies an update batch to `(tenant, graph)`'s writer and
    /// publishes the next epoch. On a mid-batch error the applied prefix
    /// is still published (matching the sequential semantics of
    /// `apply_batch`: the prefix *happened*), so readers never see a
    /// state the writer left behind silently.
    fn apply_updates(&self, tenant: &str, graph: &str, updates: &[EdgeUpdate]) -> Response {
        let Some(entry) = self.lookup(tenant, graph) else {
            return Response::Error(unknown_graph(tenant, graph));
        };
        TenantMetrics::bump(&entry.metrics.requests_total, 1);
        TenantMetrics::bump(&entry.metrics.update_batches_total, 1);
        let mut writer = entry.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let outcome = writer.apply_batch(updates);
        let snap = writer.publish();
        TenantMetrics::bump(&entry.metrics.publishes_total, 1);
        match outcome {
            Ok(report) => {
                TenantMetrics::bump(&entry.metrics.updates_applied_total, report.applied as u64);
                Response::Applied {
                    epoch: snap.epoch(),
                    applied: report.applied as u64,
                    inserted_edges: report
                        .inserted_edges
                        .iter()
                        .map(|e| e.index() as u64)
                        .collect(),
                    recolored_edges: report.recolored_edges as u64,
                    color_budget: report.color_budget as u64,
                    live_edges: report.live_edges as u64,
                }
            }
            Err(err) => {
                TenantMetrics::bump(&entry.metrics.errors_total, 1);
                Response::Error(WireError::from(err))
            }
        }
    }

    /// Serves one decoded request. `Shutdown` is not handled here — the
    /// connection layer owns the accept loop.
    pub fn handle(&self, req: &Request) -> Response {
        match req {
            Request::RegisterGraph {
                tenant,
                graph,
                engine,
                epsilon,
                seed,
                source,
            } => match self.register(tenant, graph, *engine, *epsilon, *seed, source) {
                Ok(snap) => Response::Registered {
                    epoch: snap.epoch(),
                    num_vertices: snap.num_vertices() as u64,
                    live_edges: snap.live_edges() as u64,
                    color_budget: snap.color_budget() as u64,
                },
                Err(err) => Response::Error(err),
            },
            Request::ApplyUpdates {
                tenant,
                graph,
                updates,
            } => self.apply_updates(tenant, graph, updates),
            Request::ColorOfEdge {
                tenant,
                graph,
                edge,
            } => self.query(tenant, graph, |snap| {
                let color = usize_of(*edge)
                    .ok()
                    .and_then(|e| snap.color_of_edge(EdgeId::new(e)))
                    .map(|c| c.index() as u64);
                Ok(Response::EdgeColor {
                    epoch: snap.epoch(),
                    color,
                })
            }),
            Request::ForestOfVertex {
                tenant,
                graph,
                color,
                vertex,
            } => self.query(tenant, graph, |snap| {
                let c = Color::new(usize_of(*color)?);
                let v = VertexId::new(usize_of(*vertex)?);
                match snap.forest_of_vertex(c, v) {
                    Some(root) => Ok(Response::VertexForest {
                        epoch: snap.epoch(),
                        root: root.index() as u64,
                    }),
                    None => Err(WireError::new(
                        ErrorCode::OutOfRange,
                        format!(
                            "color {color} or vertex {vertex} out of range at epoch {} \
                             (budget {}, {} vertices)",
                            snap.epoch(),
                            snap.color_budget(),
                            snap.num_vertices()
                        ),
                    )),
                }
            }),
            Request::OrientationOut {
                tenant,
                graph,
                vertex,
            } => self.query(tenant, graph, |snap| {
                let v = VertexId::new(usize_of(*vertex)?);
                match snap.orientation_out(v) {
                    Some(edges) => Ok(Response::OutEdges {
                        epoch: snap.epoch(),
                        edges: edges.iter().map(|e| e.index() as u64).collect(),
                    }),
                    None => Err(WireError::new(
                        ErrorCode::OutOfRange,
                        format!(
                            "vertex {vertex} out of range ({} vertices)",
                            snap.num_vertices()
                        ),
                    )),
                }
            }),
            Request::ArboricityWatermark { tenant, graph } => self.query(tenant, graph, |snap| {
                let w = snap.watermark();
                Ok(Response::Watermark {
                    epoch: w.epoch,
                    lower_bound: w.lower_bound as u64,
                    color_budget: w.color_budget as u64,
                    live_edges: w.live_edges as u64,
                    num_vertices: w.num_vertices as u64,
                })
            }),
            Request::SnapshotBytes { tenant, graph } => self.query(tenant, graph, |snap| {
                let bytes = snap.canonical_bytes()?;
                Ok(Response::Snapshot {
                    epoch: snap.epoch(),
                    bytes,
                })
            }),
            Request::Metrics { tenant, graph } => {
                let Some(entry) = self.lookup(tenant, graph) else {
                    return Response::Error(unknown_graph(tenant, graph));
                };
                TenantMetrics::bump(&entry.metrics.requests_total, 1);
                // Read the counters *after* counting this request, so a
                // client polling only `Metrics` still observes strictly
                // increasing `requests_total`.
                let snap = entry.reader().current();
                Response::MetricsReport {
                    epoch: snap.epoch(),
                    entries: entry.metrics.entries(&snap.stats()),
                }
            }
            Request::Shutdown => Response::ShuttingDown,
        }
    }

    /// The read path: registry read-lock, snapshot clone, then `f` against
    /// that pinned epoch. The writer mutex is never touched.
    fn query<F>(&self, tenant: &str, graph: &str, f: F) -> Response
    where
        F: FnOnce(&ColoringSnapshot) -> Result<Response, WireError>,
    {
        let Some(entry) = self.lookup(tenant, graph) else {
            return Response::Error(unknown_graph(tenant, graph));
        };
        TenantMetrics::bump(&entry.metrics.requests_total, 1);
        TenantMetrics::bump(&entry.metrics.queries_total, 1);
        let snap = entry.reader().current();
        let resp = f(&snap).unwrap_or_else(Response::Error);
        if matches!(resp, Response::Error(_)) {
            TenantMetrics::bump(&entry.metrics.errors_total, 1);
        }
        resp
    }
}

fn unknown_graph(tenant: &str, graph: &str) -> WireError {
    WireError::new(
        ErrorCode::UnknownGraph,
        format!("no graph {graph:?} registered for tenant {tenant:?}"),
    )
}

fn already_registered(tenant: &str, graph: &str) -> WireError {
    WireError::new(
        ErrorCode::AlreadyRegistered,
        format!("tenant {tenant:?} already registered graph {graph:?}"),
    )
}

/// Checked `u64 → usize`, bounded by the `u32`-dense id space every graph
/// identifier (vertex, edge, color, vertex count) lives in — constructing
/// an id past that would truncate.
fn usize_of(v: u64) -> Result<usize, WireError> {
    u32::try_from(v).map(|id| id as usize).map_err(|_| {
        WireError::new(
            ErrorCode::OutOfRange,
            format!("value {v} exceeds the u32 id space"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn register_triangle(state: &ServerState) {
        let resp = state.handle(&Request::RegisterGraph {
            tenant: "acme".into(),
            graph: "g".into(),
            engine: Engine::ExactMatroid,
            epsilon: 0.5,
            seed: 7,
            source: GraphSource::Edges {
                num_vertices: 3,
                edges: vec![(0, 1), (1, 2), (2, 0)],
            },
        });
        assert!(
            matches!(
                resp,
                Response::Registered {
                    epoch: 0,
                    live_edges: 3,
                    ..
                }
            ),
            "{resp:?}"
        );
    }

    #[test]
    fn register_apply_query_cycle() {
        let state = ServerState::new();
        register_triangle(&state);
        // Duplicate registration is a typed error.
        let resp = state.handle(&Request::RegisterGraph {
            tenant: "acme".into(),
            graph: "g".into(),
            engine: Engine::ExactMatroid,
            epsilon: 0.5,
            seed: 7,
            source: GraphSource::Empty { num_vertices: 1 },
        });
        assert!(
            matches!(
                resp,
                Response::Error(WireError {
                    code: ErrorCode::AlreadyRegistered,
                    ..
                })
            ),
            "{resp:?}"
        );
        // Unknown graph is a typed error.
        let resp = state.handle(&Request::SnapshotBytes {
            tenant: "acme".into(),
            graph: "nope".into(),
        });
        assert!(
            matches!(
                resp,
                Response::Error(WireError {
                    code: ErrorCode::UnknownGraph,
                    ..
                })
            ),
            "{resp:?}"
        );
        // Apply publishes epoch 1 and reports assigned ids.
        let resp = state.handle(&Request::ApplyUpdates {
            tenant: "acme".into(),
            graph: "g".into(),
            updates: vec![EdgeUpdate::insert(0, 2), EdgeUpdate::delete(EdgeId::new(0))],
        });
        let Response::Applied {
            epoch,
            applied,
            inserted_edges,
            live_edges,
            ..
        } = resp
        else {
            panic!("{resp:?}");
        };
        assert_eq!((epoch, applied, live_edges), (1, 2, 3));
        assert_eq!(inserted_edges.len(), 1);
        // Queries answer at the published epoch.
        let resp = state.handle(&Request::ColorOfEdge {
            tenant: "acme".into(),
            graph: "g".into(),
            edge: 0,
        });
        assert!(
            matches!(
                resp,
                Response::EdgeColor {
                    epoch: 1,
                    color: None
                }
            ),
            "deleted edge answers None: {resp:?}"
        );
        let resp = state.handle(&Request::ArboricityWatermark {
            tenant: "acme".into(),
            graph: "g".into(),
        });
        assert!(
            matches!(
                resp,
                Response::Watermark {
                    epoch: 1,
                    lower_bound: 2,
                    ..
                }
            ),
            "3 edges on 3 vertices: NW bound 2: {resp:?}"
        );
        // Out-of-range query is typed, not a panic.
        let resp = state.handle(&Request::ForestOfVertex {
            tenant: "acme".into(),
            graph: "g".into(),
            color: 99,
            vertex: 0,
        });
        assert!(
            matches!(
                resp,
                Response::Error(WireError {
                    code: ErrorCode::OutOfRange,
                    ..
                })
            ),
            "{resp:?}"
        );
    }

    #[test]
    fn mid_batch_error_still_publishes_prefix() {
        let state = ServerState::new();
        register_triangle(&state);
        let resp = state.handle(&Request::ApplyUpdates {
            tenant: "acme".into(),
            graph: "g".into(),
            updates: vec![
                EdgeUpdate::insert(0, 1),
                EdgeUpdate::insert(1, 1), // self-loop
            ],
        });
        assert!(
            matches!(
                resp,
                Response::Error(WireError {
                    code: ErrorCode::Graph,
                    ..
                })
            ),
            "{resp:?}"
        );
        // The prefix was applied AND published.
        let resp = state.handle(&Request::ArboricityWatermark {
            tenant: "acme".into(),
            graph: "g".into(),
        });
        let Response::Watermark {
            epoch, live_edges, ..
        } = resp
        else {
            panic!("{resp:?}");
        };
        assert_eq!(epoch, 1);
        assert_eq!(live_edges, 4);
    }

    /// A vertex one past the `u32` id space answers `usize_of`'s
    /// `OutOfRange`, not the range check's: `VertexId::new` would
    /// otherwise truncate it to vertex 0 in release builds.
    #[test]
    fn vertex_past_the_u32_id_space_is_out_of_range() {
        let state = ServerState::new();
        register_triangle(&state);
        let resp = state.handle(&Request::ForestOfVertex {
            tenant: "acme".into(),
            graph: "g".into(),
            color: 0,
            vertex: 1 << 32,
        });
        let Response::Error(err) = resp else {
            panic!("{resp:?}");
        };
        assert_eq!(err.code, ErrorCode::OutOfRange);
        assert_eq!(err.message, "value 4294967296 exceeds the u32 id space");
    }

    fn metric(entries: &[(String, u64)], name: &str) -> u64 {
        entries
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing metric {name}"))
            .1
    }

    #[test]
    fn metrics_count_the_tenants_traffic() {
        let state = ServerState::new();
        register_triangle(&state);
        let metrics_req = Request::Metrics {
            tenant: "acme".into(),
            graph: "g".into(),
        };
        let Response::MetricsReport { epoch, entries } = state.handle(&metrics_req) else {
            panic!("metrics on a fresh entry");
        };
        assert_eq!(epoch, 0);
        let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "entries arrive in ascending name order");
        assert_eq!(metric(&entries, "requests_total"), 1);
        assert_eq!(metric(&entries, "update_batches_total"), 0);
        let updates_before = metric(&entries, "stream.updates");
        // One update batch + one query + one failed query.
        state.handle(&Request::ApplyUpdates {
            tenant: "acme".into(),
            graph: "g".into(),
            updates: vec![EdgeUpdate::insert(0, 2)],
        });
        state.handle(&Request::ArboricityWatermark {
            tenant: "acme".into(),
            graph: "g".into(),
        });
        state.handle(&Request::ForestOfVertex {
            tenant: "acme".into(),
            graph: "g".into(),
            color: 99,
            vertex: 0,
        });
        let Response::MetricsReport { epoch, entries } = state.handle(&metrics_req) else {
            panic!("metrics after traffic");
        };
        assert_eq!(epoch, 1);
        assert_eq!(metric(&entries, "requests_total"), 5);
        assert_eq!(metric(&entries, "update_batches_total"), 1);
        assert_eq!(metric(&entries, "updates_applied_total"), 1);
        assert_eq!(metric(&entries, "publishes_total"), 1);
        assert_eq!(metric(&entries, "queries_total"), 2);
        assert_eq!(metric(&entries, "errors_total"), 1);
        // The stream counters ride along: one insert, published at epoch 1.
        assert_eq!(metric(&entries, "stream.updates"), updates_before + 1);
        let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        assert_eq!(names.len(), 14);
        // Unknown graph stays a typed error.
        let resp = state.handle(&Request::Metrics {
            tenant: "acme".into(),
            graph: "nope".into(),
        });
        assert!(
            matches!(
                resp,
                Response::Error(WireError {
                    code: ErrorCode::UnknownGraph,
                    ..
                })
            ),
            "{resp:?}"
        );
    }
}
