//! `serve`: the `forest-serve` binary on loopback, driven through the
//! `forest_serve` client — the only workload through client → protocol →
//! server → state.
//!
//! Set-up starts the binary, churns a `grid(24, 24)` in the benchmark's
//! own mirror of the edge list and registers the surviving edges
//! (ExactMatroid snapshots). The timed phase runs two threads on two
//! connections:
//!
//! * a reader in a closed loop cycling `ColorOfEdge`, `ForestOfVertex`,
//!   `OrientationOut` and `ArboricityWatermark` (the op), timed as
//!   measured: it waits on the transport's timer, not the CPU;
//! * a writer sending 32-update `ApplyUpdates` batches in an open loop at
//!   [`WRITE_RATE_HZ`], each timed from when it was due (`op2`) and scaled
//!   by a probe the writer runs after the previous batch.
//!
//! `ColorOfEdge` asks for registered edges and the writer deletes only
//! edges it inserted itself, so every `ColorOfEdge` finds a live edge.
//! `SnapshotBytes` stays out of the timed mix: it runs a cold
//! decomposition the first time each epoch is read, so its latency is
//! bimodal. It is read once after the timed phase, where its bytes must
//! equal a local cold run on the mirror.

use crate::churn::churn_batch;
use crate::spans::Spans;
use crate::speed::{Probe, Speed};
use crate::stats::{median, mix, ms, Latencies, Schedule, Tally};
use crate::{host, repeated_setup, with_recorder, Config, Outcome, Timed};
use forest_decomp::api::{
    Decomposer, DecompositionRequest, EdgeUpdate, Engine, ProblemKind, VersionedDecomposer,
};
use forest_graph::{generators, EdgeId, MultiGraph, VertexId};
use forest_obs::clock::Stopwatch;
use forest_obs::Span;
use forest_serve::protocol::{decode_request, decode_response, encode_request, encode_response};
use forest_serve::{Client, GraphSource, Request, Response, ServerState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

const TENANT: &str = "bench";
const GRAPH: &str = "g";
const GRID: usize = 24;
const EPSILON: f64 = 0.5;
/// Batches the mirror applies before registration.
const PRE_CHURN_BATCHES: usize = 256;
/// Paced `ApplyUpdates` batches per second.
pub const WRITE_RATE_HZ: u64 = 10;
/// How long before a due time the writer stops sleeping and spins.
const SPIN_NANOS: u64 = 3_000_000;

/// The benchmark's copy of the served edge list, by stable edge id.
struct Mirror {
    n: usize,
    /// Endpoints per stable id; `None` once deleted.
    endpoints: Vec<Option<(usize, usize)>>,
    /// The ids deletes may pick, in the order they pick victims from.
    live: Vec<EdgeId>,
}

impl Mirror {
    fn from_edges(n: usize, edges: impl Iterator<Item = (usize, usize)>) -> Mirror {
        let endpoints: Vec<_> = edges.map(Some).collect();
        let live = (0..endpoints.len()).map(EdgeId::new).collect();
        Mirror { n, endpoints, live }
    }

    /// A grid churned like the `churn` workload's, renumbered `0..m` in
    /// insertion order — what the server registers. Deletes may pick only
    /// edges inserted after registration, so the registered `0..m` stay
    /// live for the reader's `ColorOfEdge`.
    fn churned(seed: u64) -> Mirror {
        let g = generators::grid(GRID, GRID);
        let mut mirror = Mirror::from_edges(
            g.num_vertices(),
            g.edges().map(|(_, u, v)| (u.index(), v.index())),
        );
        let mut rng = StdRng::seed_from_u64(mix(seed, 1));
        for _ in 0..PRE_CHURN_BATCHES {
            let batch = churn_batch(&mut rng, &mut mirror.live, mirror.n);
            // Ids are assigned in insert order and never reused.
            let inserts = batch
                .iter()
                .filter(|u| matches!(u, EdgeUpdate::Insert { .. }))
                .count();
            let first = mirror.endpoints.len() as u64;
            let ids: Vec<u64> = (first..first + inserts as u64).collect();
            mirror.record(&batch, &ids);
        }
        let mut registered = Mirror::from_edges(mirror.n, mirror.endpoints.iter().flatten().copied());
        registered.live.clear();
        registered
    }

    /// Applies a batch the server acknowledged with `inserted` ids; false
    /// when the server's ids are not the next sequential ones.
    fn record(&mut self, batch: &[EdgeUpdate], inserted: &[u64]) -> bool {
        let mut next = inserted.iter();
        let mut ok = true;
        for update in batch {
            match *update {
                EdgeUpdate::Delete { edge } => {
                    if let Some(slot) = self.endpoints.get_mut(edge.index()) {
                        *slot = None;
                    }
                }
                EdgeUpdate::Insert { u, v } => {
                    let id = self.endpoints.len();
                    ok &= next.next() == Some(&(id as u64));
                    self.endpoints.push(Some((u.index(), v.index())));
                    self.live.push(EdgeId::new(id));
                }
            }
        }
        ok && next.next().is_none()
    }

    fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.endpoints.iter().flatten().copied()
    }

    /// The live edges in insertion order: the graph a snapshot is of.
    fn graph(&self) -> MultiGraph {
        let mut g = MultiGraph::new(self.n);
        for (u, v) in self.edges() {
            g.add_edge(VertexId::new(u), VertexId::new(v))
                .expect("mirror edges are valid");
        }
        g
    }
}

/// A running `forest-serve` child; stopped (and waited for) on drop.
struct ServerProc {
    child: Child,
    /// Held open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    stopped: bool,
}

impl ServerProc {
    fn spawn(bin: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .arg("127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("no stdout pipe to the server".into());
        };
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(_) => line
                .trim()
                .strip_prefix("forest-serve listening on ")
                .map(str::to_string),
            Err(_) => None,
        };
        let mut proc = ServerProc {
            child,
            _stdout: stdout,
            addr: String::new(),
            stopped: false,
        };
        match addr {
            Some(addr) => {
                proc.addr = addr;
                Ok(proc)
            }
            None => {
                proc.stop();
                Err(format!("server did not announce its address: {line:?}"))
            }
        }
    }

    /// Asks for a clean shutdown, waits up to 5 s, then kills.
    fn stop(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        if !self.addr.is_empty() {
            if let Ok(mut client) = Client::connect(self.addr.as_str()) {
                let _ = client.shutdown();
            }
        }
        for _ in 0..500 {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One read as sent and answered.
struct Read {
    request: Request,
    response: Response,
    epoch: u64,
}

/// One write as sent and answered.
struct Write {
    updates: Vec<EdgeUpdate>,
    response: Response,
}

/// A set-up serve instance. Field order is drop order: the connections
/// close before the server stops.
struct Serve {
    reader: Client,
    writer: Client,
    admin: Client,
    mirror: Mirror,
    /// The registration request, replayed in-process for attribution.
    register: Request,
    registered: MultiGraph,
    snapshot_request: DecompositionRequest,
    reader_rng: StdRng,
    writer_rng: StdRng,
    reads: Vec<Read>,
    writes: Vec<Write>,
    server: ServerProc,
}

/// A timed phase: op = reads, op2 = writes from their due time.
#[derive(Default)]
struct Phase {
    timed: Timed,
    /// Writes from send to answer.
    write_round_trips: Latencies,
    /// The writer's largest lateness against its schedule.
    max_lateness_ns: u64,
}

fn read_request(rng: &mut StdRng, i: u64, n: usize, m: usize) -> Request {
    let (tenant, graph) = (TENANT.to_string(), GRAPH.to_string());
    match i % 4 {
        0 => Request::ColorOfEdge {
            tenant,
            graph,
            edge: rng.gen_range(0..m) as u64,
        },
        1 => Request::ForestOfVertex {
            tenant,
            graph,
            // Every live graph here has arboricity ≥ 2, so colors 0 and 1
            // are always inside the budget.
            color: rng.gen_range(0..2u64),
            vertex: rng.gen_range(0..n) as u64,
        },
        2 => Request::OrientationOut {
            tenant,
            graph,
            vertex: rng.gen_range(0..n) as u64,
        },
        _ => Request::ArboricityWatermark { tenant, graph },
    }
}

/// The answering epoch, when `response` is the right kind for `request`
/// (and, for `ColorOfEdge`, names the colour of the live edge asked for).
fn answered_epoch(request: &Request, response: &Response) -> Option<u64> {
    match (request, response) {
        (
            Request::ColorOfEdge { .. },
            Response::EdgeColor {
                epoch,
                color: Some(_),
            },
        )
        | (Request::ForestOfVertex { .. }, Response::VertexForest { epoch, .. })
        | (Request::OrientationOut { .. }, Response::OutEdges { epoch, .. })
        | (Request::ArboricityWatermark { .. }, Response::Watermark { epoch, .. }) => Some(*epoch),
        _ => None,
    }
}

impl Serve {
    fn setup(cfg: &Config) -> Result<Serve, String> {
        let bin = cfg
            .server_bin
            .as_deref()
            .ok_or("serve needs --server-bin")?;
        let mirror = Mirror::churned(cfg.seed);
        let seed = mix(cfg.seed, 4);
        let registered = mirror.graph();
        let server = ServerProc::spawn(bin)?;
        let connect = |what: &str| {
            Client::connect(server.addr.as_str()).map_err(|e| format!("{what} connection: {e}"))
        };
        let mut admin = connect("admin")?;
        let register = Request::RegisterGraph {
            tenant: TENANT.into(),
            graph: GRAPH.into(),
            engine: Engine::ExactMatroid,
            epsilon: EPSILON,
            seed,
            source: GraphSource::Edges {
                num_vertices: mirror.n as u64,
                edges: mirror.edges().map(|(u, v)| (u as u64, v as u64)).collect(),
            },
        };
        match admin.call(&register) {
            Ok(Response::Registered { live_edges, .. })
                if live_edges == registered.num_edges() as u64 => {}
            other => return Err(format!("registration: {other:?}")),
        }
        let snapshot_request = DecompositionRequest::new(ProblemKind::Forest)
            .with_engine(Engine::ExactMatroid)
            .with_epsilon(EPSILON)
            .with_seed(seed);
        Ok(Serve {
            reader: connect("reader")?,
            writer: connect("writer")?,
            admin,
            mirror,
            register,
            registered,
            snapshot_request,
            reader_rng: StdRng::seed_from_u64(mix(cfg.seed, 2)),
            writer_rng: StdRng::seed_from_u64(mix(cfg.seed, 3)),
            reads: Vec::new(),
            writes: Vec::new(),
            server,
        })
    }

    /// One timed phase of `budget` nanoseconds: the reader thread and the
    /// writer thread, each on its own connection.
    fn phase(&mut self, budget: u64) -> Phase {
        let (n, m) = (self.registered.num_vertices(), self.registered.num_edges());
        let mut phase = Phase::default();
        let mut probe = Probe::default();
        let mut speed = phase.timed.probe(&mut probe);
        let clock = Stopwatch::start();
        let reader = &mut self.reader;
        let reader_rng = &mut self.reader_rng;
        let writer = &mut self.writer;
        let writer_rng = &mut self.writer_rng;
        let mirror = &mut self.mirror;
        let (reads, writes) = std::thread::scope(|scope| {
            let reading = scope.spawn(move || {
                let mut t = Timed::default();
                let mut reads = Vec::new();
                for i in 0u64.. {
                    if clock.elapsed_nanos() >= budget {
                        break;
                    }
                    let request = read_request(reader_rng, i, n, m);
                    let _s = Span::enter("bench.read");
                    let sw = Stopwatch::start();
                    let answer = reader.call(&request);
                    t.op.push(sw.elapsed_nanos(), Speed::reference());
                    let response = match answer {
                        Ok(response) => response,
                        Err(err) => {
                            t.tally.record(false);
                            t.errors.push(format!("read {request:?}: {err}"));
                            continue;
                        }
                    };
                    let epoch = answered_epoch(&request, &response);
                    t.tally.record(epoch.is_some());
                    if let Response::Watermark {
                        lower_bound,
                        color_budget,
                        ..
                    } = response
                    {
                        t.ratio
                            .push(color_budget as f64 / lower_bound.max(1) as f64);
                    }
                    if let Some(epoch) = epoch {
                        reads.push(Read {
                            request,
                            response,
                            epoch,
                        });
                    }
                }
                (t, reads)
            });
            let t = &mut phase.timed;
            let mut writes = Vec::new();
            let schedule = Schedule {
                period: 1_000_000_000 / WRITE_RATE_HZ,
            };
            for i in 0u64.. {
                let due = schedule.due(i);
                if due >= budget {
                    break;
                }
                let updates = churn_batch(writer_rng, &mut mirror.live, mirror.n);
                // Sleep to just short of the due time, then spin to it: a
                // sleeping thread wakes milliseconds late on a busy host,
                // which would charge the generator's lateness to the server.
                let now = clock.elapsed_nanos();
                if now + SPIN_NANOS < due {
                    std::thread::sleep(Duration::from_nanos(due - SPIN_NANOS - now));
                }
                while clock.elapsed_nanos() < due {
                    std::hint::spin_loop();
                }
                let sent = clock.elapsed_nanos();
                phase.max_lateness_ns = phase.max_lateness_ns.max(schedule.lateness(i, sent));
                let request = Request::ApplyUpdates {
                    tenant: TENANT.into(),
                    graph: GRAPH.into(),
                    updates: updates.clone(),
                };
                let answer = {
                    let _s = Span::enter("bench.write");
                    writer.call(&request)
                };
                let done = clock.elapsed_nanos();
                t.op2.push(schedule.latency(i, done), speed);
                phase
                    .write_round_trips
                    .push(done.saturating_sub(sent), Speed::reference());
                // Well before the next due time: the writer is otherwise idle.
                speed = t.probe(&mut probe);
                let response = match answer {
                    Ok(response) => response,
                    Err(err) => {
                        t.tally.record(false);
                        t.errors.push(format!("write {i}: {err}"));
                        continue;
                    }
                };
                let ok = match &response {
                    Response::Applied {
                        applied,
                        inserted_edges,
                        ..
                    } => {
                        *applied == updates.len() as u64 && mirror.record(&updates, inserted_edges)
                    }
                    _ => false,
                };
                if !t.tally.record(ok) {
                    t.errors.push(format!("write {i}: {response:?}"));
                }
                writes.push(Write { updates, response });
            }
            let (read, reads) = reading.join().unwrap_or_else(|_| {
                let mut failed = Timed::default();
                failed.tally.record(false);
                failed.errors.push("reader thread panicked".into());
                (failed, Vec::new())
            });
            t.op = read.op;
            t.ratio = read.ratio;
            t.tally.merge(read.tally);
            t.errors.extend(read.errors);
            (reads, writes)
        });
        phase.timed.elapsed_ns = clock.elapsed_nanos();
        // Reads, the op `ops_per_s` counts, wait on a timer: not scaled.
        phase.timed.scaled_ns = phase.timed.elapsed_ns;
        self.reads.extend(reads);
        self.writes.extend(writes);
        phase
    }

    /// `SnapshotBytes` over the wire must equal a local cold run on the
    /// mirror.
    fn snapshot_check(&mut self, tally: &mut Tally, notes: &mut Vec<String>) {
        let wire = self.admin.snapshot_bytes(TENANT, GRAPH);
        let local = Decomposer::new(self.snapshot_request.clone()).run(self.mirror.graph());
        let same = match (&wire, &local) {
            (Ok((_, bytes)), Ok(report)) => *bytes == report.canonical_bytes(),
            _ => false,
        };
        if !tally.record(same) {
            notes.push("check failed: SnapshotBytes differs from a local cold run".into());
        }
    }

    /// Replays every write and read in-process, in epoch order, each in
    /// its own span: `ServerState::handle` on a registry registered the
    /// same way, the protocol codec of each frame, and the write's
    /// `apply_batch` and `publish` on a `VersionedDecomposer`. Every
    /// in-process answer must equal the one the server sent.
    fn replay(&self, tally: &mut Tally, notes: &mut Vec<String>) -> (f64, usize) {
        let state = ServerState::new();
        if !tally.record(matches!(
            state.handle(&self.register),
            Response::Registered { .. }
        )) {
            notes.push("replay: registration failed".into());
            return (0.0, 0);
        }
        let mut versioned = match VersionedDecomposer::from_graph(
            self.snapshot_request.clone(),
            &self.registered,
        ) {
            Ok(v) => v,
            Err(err) => {
                tally.record(false);
                notes.push(format!("replay: {err}"));
                return (0.0, 0);
            }
        };
        let mut reads: Vec<&Read> = self.reads.iter().collect();
        reads.sort_by_key(|r| r.epoch);
        let mut next_read = 0;
        let (mut frame_bytes, mut frames) = (0usize, 0usize);
        let mut mismatches = 0u64;
        for epoch in 0..=self.writes.len() {
            if epoch > 0 {
                let write = &self.writes[epoch - 1];
                let request = Request::ApplyUpdates {
                    tenant: TENANT.into(),
                    graph: GRAPH.into(),
                    updates: write.updates.clone(),
                };
                let response = {
                    let _s = Span::enter("bench.replay.handle_write");
                    state.handle(&request)
                };
                mismatches += u64::from(response != write.response);
                {
                    let _s = Span::enter("bench.replay.codec_write");
                    codec_round_trip(&request, &response);
                }
                {
                    let _s = Span::enter("bench.replay.apply_batch");
                    let _ = std::hint::black_box(versioned.apply_batch(&write.updates));
                }
                {
                    let _s = Span::enter("bench.replay.publish");
                    std::hint::black_box(versioned.publish());
                }
            }
            while next_read < reads.len() && reads[next_read].epoch == epoch as u64 {
                let read = reads[next_read];
                next_read += 1;
                let response = {
                    let _s = Span::enter("bench.replay.handle_read");
                    state.handle(&read.request)
                };
                mismatches += u64::from(response != read.response);
                let bytes = {
                    let _s = Span::enter("bench.replay.codec_read");
                    codec_round_trip(&read.request, &response)
                };
                frame_bytes += bytes;
                frames += 1;
            }
        }
        // Reads the replay never reached answered at an epoch no write made.
        mismatches += (reads.len() - next_read) as u64;
        if !tally.record(mismatches == 0) {
            notes.push(format!(
                "check failed: {mismatches} in-process answers differ from the server's"
            ));
        }
        (frame_bytes as f64 / frames.max(1) as f64, frames)
    }
}

/// Encodes and decodes a request and its response as the client and
/// server do; returns the bytes both frames put on the wire.
fn codec_round_trip(request: &Request, response: &Response) -> usize {
    let req = encode_request(request);
    let decoded_req = decode_request(&req);
    let resp = encode_response(response);
    let decoded_resp = decode_response(&resp);
    std::hint::black_box((decoded_req.is_ok(), decoded_resp.is_ok()));
    // Each frame carries a 4-byte length prefix.
    8 + req.len() + resp.len()
}

/// Runs `serve`.
pub fn run(cfg: &Config, process_clock: Stopwatch) -> Result<Outcome, String> {
    let (mut serve, setup) = repeated_setup(process_clock, |_| Serve::setup(cfg))?;
    let mut out = Outcome::default();
    if !cfg.trace {
        let p = serve.phase(cfg.budget_nanos());
        out.notes.push(format!(
            "writer: {} batches at {WRITE_RATE_HZ}/s, largest lateness {:.3} ms",
            p.timed.op2.len(),
            ms(p.max_lateness_ns)
        ));
        let rss = host::peak_rss_mib(Some(serve.server.child.id()));
        out.set_end_to_end(&setup, rss, p.timed);
    } else {
        let half = cfg.budget_nanos() / 2;
        let untraced = serve.phase(half);
        let mut checks = Tally::default();
        let mut notes = Vec::new();
        let (traced, (frame_bytes, frames)) = with_recorder(&mut out, || {
            let traced = serve.phase(half);
            (traced, serve.replay(&mut checks, &mut notes))
        });
        out.tally.merge(checks);
        out.notes.extend(notes);
        let spans = Spans::from_events(&out.events);
        let durations = |name: &str| -> Vec<f64> {
            spans
                .named(name)
                .filter_map(|id| spans.get(id))
                .map(|s| ms(s.duration()))
                .collect()
        };
        let handle_read = median(&durations("bench.replay.handle_read"));
        let codec_read = median(&durations("bench.replay.codec_read"));
        let handle_write = median(&durations("bench.replay.handle_write"));
        let codec_write = median(&durations("bench.replay.codec_write"));
        let reads = traced.timed.op.summary();
        let writes = traced.write_round_trips.summary();
        let n_writes = serve.writes.len();
        out.set("state.handle_read_us", handle_read * 1e3, frames);
        out.set("state.handle_write_ms", handle_write, n_writes);
        out.set("protocol.codec_us", codec_read * 1e3, frames);
        out.set("protocol.frame_bytes", frame_bytes, frames);
        let transport_read = reads.p50_ms - handle_read - codec_read;
        out.set("server.transport_read_ms", transport_read, reads.n);
        let transport_write = writes.p50_ms - handle_write - codec_write;
        out.set("server.transport_write_ms", transport_write, writes.n);
        let apply = durations("bench.replay.apply_batch");
        out.set("versioned.apply_batch_ms", median(&apply), n_writes);
        let publish = durations("bench.replay.publish");
        out.set("versioned.publish_ms", median(&publish), n_writes);
        let late = ms(untraced.max_lateness_ns.max(traced.max_lateness_ns));
        out.set("bench.writer_late_ms", late, n_writes);
        out.set_trace_costs(&traced.timed.op, &untraced.timed.op);
        out.absorb(untraced.timed);
        out.absorb(traced.timed);
    }
    serve.snapshot_check(&mut out.tally, &mut out.notes);
    Ok(out)
}
