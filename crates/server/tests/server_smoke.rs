//! End-to-end smoke test over a real socket: spawn the `forest-serve`
//! binary on an OS-assigned port, register a tenant graph, stream 1 000
//! edge updates through it in batches, and check every query answer —
//! including the acceptance check that `SnapshotBytes` served over
//! the wire is byte-identical to a local cold [`Decomposer::run`] on the
//! same surviving edges. Ends with a clean `Shutdown` and asserts the
//! process exits successfully (the CI smoke job runs exactly this test).

use forest_decomp::api::{Decomposer, DecompositionRequest, EdgeUpdate, Engine, ProblemKind};
use forest_graph::{EdgeId, MultiGraph, VertexId};
use forest_serve::protocol::{decode_response, read_frame, write_frame};
use forest_serve::{Client, ClientError, ErrorCode, GraphSource, Response};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};

const N: usize = 96;
const SEED: u64 = 23;
const EPSILON: f64 = 0.5;

fn request() -> DecompositionRequest {
    DecompositionRequest::new(ProblemKind::Forest)
        .with_engine(Engine::ExactMatroid)
        .with_epsilon(EPSILON)
        .with_seed(SEED)
}

/// Pulls one named counter out of a `Metrics` reply.
fn metric(entries: &[(String, u64)], name: &str) -> u64 {
    entries
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("missing metric {name}"))
        .1
}

/// Spawns the server binary on port 0 and reads the bound address back
/// from its announcement line.
fn spawn_server() -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_forest-serve"))
        .arg("127.0.0.1:0")
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn forest-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read announcement");
    let addr = line
        .trim()
        .strip_prefix("forest-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement {line:?}"))
        .parse()
        .expect("parse bound address");
    (child, addr)
}

#[test]
fn register_churn_query_snapshot_shutdown() {
    let (mut child, addr) = spawn_server();
    let mut client = Client::connect(addr).expect("connect");

    // Register from an inline edge list; ids are assigned 0..m0 in order.
    let mut rng = StdRng::seed_from_u64(4242);
    let initial: Vec<(u64, u64)> = (0..64)
        .filter_map(|_| {
            let u = rng.gen_range(0..N as u64);
            let v = rng.gen_range(0..N as u64);
            (u != v).then_some((u, v))
        })
        .collect();
    let (epoch, nv, live, _budget) = client
        .register(
            "acme",
            "web",
            Engine::ExactMatroid,
            EPSILON,
            SEED,
            GraphSource::Edges {
                num_vertices: N as u64,
                edges: initial.clone(),
            },
        )
        .expect("register");
    assert_eq!(epoch, 0);
    assert_eq!(nv, N as u64);
    assert_eq!(live, initial.len() as u64);

    // Duplicate registration and unknown graphs fail typed.
    let dup = client.register(
        "acme",
        "web",
        Engine::ExactMatroid,
        EPSILON,
        SEED,
        GraphSource::Empty {
            num_vertices: N as u64,
        },
    );
    assert!(matches!(
        dup,
        Err(ClientError::Server(err)) if err.code == ErrorCode::AlreadyRegistered
    ));
    assert!(matches!(
        client.watermark("acme", "nope"),
        Err(ClientError::Server(err)) if err.code == ErrorCode::UnknownGraph
    ));

    // Mirror of the server's live edge set: id -> endpoints.
    let mut mirror: BTreeMap<u64, (u64, u64)> = initial
        .iter()
        .enumerate()
        .map(|(i, &e)| (i as u64, e))
        .collect();
    let (metrics_epoch, metrics0) = client.metrics("acme", "web").expect("metrics");
    assert_eq!(metrics_epoch, 0, "no batch published yet");
    {
        let names: Vec<&str> = metrics0.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "metric entries arrive in ascending order");
    }
    let mut last_requests = metric(&metrics0, "requests_total");

    // 1 000 updates in 4 batches of 250: each batch deletes from the
    // edges live before it, then inserts fresh endpoints (the protocol's
    // deletes-first order makes that unambiguous).
    let mut applied_total = 0u64;
    for batch_no in 0..4 {
        let mut updates = Vec::with_capacity(250);
        let mut deleted = Vec::new();
        let mut inserted = Vec::new();
        let live_ids: Vec<u64> = mirror.keys().copied().collect();
        for &id in live_ids.iter() {
            if updates.len() < 80 && rng.gen_bool(0.4) {
                updates.push(EdgeUpdate::delete(EdgeId::new(id as usize)));
                deleted.push(id);
            }
        }
        while updates.len() < 250 {
            let u = rng.gen_range(0..N);
            let v = rng.gen_range(0..N);
            if u != v {
                updates.push(EdgeUpdate::insert(u, v));
                inserted.push((u as u64, v as u64));
            }
        }
        let report = client
            .apply_updates("acme", "web", updates)
            .expect("apply batch");
        applied_total += report.applied;
        assert_eq!(report.epoch, batch_no + 1, "one publish per batch");
        assert_eq!(report.applied, 250);
        assert_eq!(
            report.inserted_edges.len(),
            inserted.len(),
            "one id per insert, in order"
        );
        for id in deleted {
            mirror.remove(&id);
        }
        for (&id, &endpoints) in report.inserted_edges.iter().zip(inserted.iter()) {
            mirror.insert(id, endpoints);
        }
        assert_eq!(report.live_edges, mirror.len() as u64);

        // The tenant's service counters track the batch stream and are
        // monotone between polls.
        let (metrics_epoch, metrics) = client.metrics("acme", "web").expect("metrics poll");
        assert_eq!(metrics_epoch, batch_no + 1);
        assert_eq!(metric(&metrics, "update_batches_total"), batch_no + 1);
        assert_eq!(metric(&metrics, "publishes_total"), batch_no + 1);
        assert_eq!(
            metric(&metrics, "updates_applied_total"),
            (batch_no + 1) * 250
        );
        let requests = metric(&metrics, "requests_total");
        assert!(
            requests > last_requests,
            "requests_total went {last_requests} -> {requests}"
        );
        last_requests = requests;
    }
    assert_eq!(applied_total, 1_000);

    // Queries answer from the published epoch.
    let wm = client.watermark("acme", "web").expect("watermark");
    assert_eq!(wm.epoch, 4);
    assert_eq!(wm.live_edges, mirror.len() as u64);
    assert_eq!(wm.num_vertices, N as u64);
    let nw_floor = mirror.len() as u64 / (N as u64 - 1)
        + u64::from(!(mirror.len() as u64).is_multiple_of(N as u64 - 1));
    assert!(wm.lower_bound >= nw_floor, "watermark below Nash-Williams");
    assert!(wm.color_budget >= wm.lower_bound);

    let (&live_id, &(u, v)) = mirror.iter().next().expect("a live edge");
    let (_, color) = client
        .color_of_edge("acme", "web", live_id)
        .expect("color query");
    let color = color.expect("live edge is colored");
    assert!(color < wm.color_budget);
    // Both endpoints of a colored edge sit in the same tree of that forest.
    let (_, root_u) = client
        .forest_of_vertex("acme", "web", color, u)
        .expect("root of u");
    let (_, root_v) = client
        .forest_of_vertex("acme", "web", color, v)
        .expect("root of v");
    assert_eq!(root_u, root_v, "edge endpoints in different trees");

    // A deleted id answers None (a normal outcome, not an error)…
    let gone = (0..u64::MAX).find(|id| !mirror.contains_key(id)).unwrap();
    let (_, color) = client
        .color_of_edge("acme", "web", gone)
        .expect("dead-edge query");
    assert_eq!(color, None);
    // …while out-of-range vertices answer typed errors.
    assert!(matches!(
        client.forest_of_vertex("acme", "web", 0, N as u64),
        Err(ClientError::Server(err)) if err.code == ErrorCode::OutOfRange
    ));

    // The orientation honors the budget at every vertex.
    for vertex in 0..N as u64 {
        let (_, out) = client
            .orientation_out("acme", "web", vertex)
            .expect("orientation");
        assert!(out.len() as u64 <= wm.color_budget);
    }

    // The stream counters moved by exactly the stream we sent (the live
    // edge count was checked against the watermark above).
    let (_, metrics) = client.metrics("acme", "web").expect("metrics");
    assert_eq!(
        metric(&metrics, "stream.updates") - metric(&metrics0, "stream.updates"),
        1_000
    );

    // Acceptance check: the served snapshot bytes are byte-identical
    // to a cold local `Decomposer::run` on the same surviving edges.
    let mut expected = MultiGraph::new(N);
    for &(u, v) in mirror.values() {
        expected
            .add_edge(VertexId::new(u as usize), VertexId::new(v as usize))
            .expect("mirror edge");
    }
    let cold = Decomposer::new(request()).run(&expected).expect("cold run");
    let (epoch, wire_bytes) = client.snapshot_bytes("acme", "web").expect("snapshot");
    assert_eq!(epoch, 4);
    assert_eq!(
        wire_bytes,
        cold.canonical_bytes(),
        "wire snapshot differs from the cold run"
    );

    // A second registered graph is isolated from the first.
    client
        .register(
            "acme",
            "staging",
            Engine::ExactMatroid,
            EPSILON,
            SEED,
            GraphSource::Empty { num_vertices: 8 },
        )
        .expect("second graph");
    let wm2 = client.watermark("acme", "staging").expect("watermark 2");
    assert_eq!(wm2.live_edges, 0);
    assert_eq!(wm.live_edges, mirror.len() as u64, "tenant 1 untouched");

    // A framing-level attack gets a typed Malformed error, then the
    // server closes that connection — without disturbing others.
    let mut raw = TcpStream::connect(addr).expect("raw connect");
    write_frame(&mut raw, b"not a frame").expect("send garbage");
    let payload = read_frame(&mut raw).expect("typed error frame");
    match decode_response(&payload) {
        Ok(Response::Error(err)) => assert_eq!(err.code, ErrorCode::Malformed),
        other => panic!("wanted a malformed error frame, got {other:?}"),
    }
    assert!(
        read_frame(&mut raw).is_err(),
        "connection should close after a malformed frame"
    );
    let wm_again = client.watermark("acme", "web").expect("still serving");
    assert_eq!(wm_again, wm);

    // Clean shutdown: acknowledged on the wire, process exits 0 — even
    // with an idle connection still open (`lingerer` below, and `client`
    // itself after the ack). The drain half-closes parked connections
    // instead of waiting for peers to hang up.
    let lingerer = Client::connect(addr).expect("idle connection");
    client.shutdown().expect("shutdown ack");
    let status = child.wait().expect("server exit");
    assert!(status.success(), "server exited {status:?}");
    drop(lingerer);
}
