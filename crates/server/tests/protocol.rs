//! Wire-protocol contract tests: `decode(encode(x)) == x` for every
//! request and response shape, and decoding is *total* — arbitrary bytes,
//! truncations and single-byte corruptions of valid frames all come back
//! as a typed [`ErrorCode::Malformed`] (or a different well-formed
//! message), never a panic.

use forest_decomp::api::{EdgeUpdate, ReorderKind};
use forest_decomp::{Engine, FdError};
use forest_graph::EdgeId;
use forest_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, GraphSource, Request,
    Response, WireError, MAGIC, VERSION,
};
use forest_serve::ErrorCode;
use proptest::prelude::*;

const ENGINES: [Engine; 4] = [
    Engine::HarrisSuVu,
    Engine::BarenboimElkin,
    Engine::Folklore2Alpha,
    Engine::ExactMatroid,
];

const NAMES: [&str; 5] = ["", "t", "tenant-α", "graphs/web", "a b\tc"];

const CODES: [ErrorCode; 10] = [
    ErrorCode::Malformed,
    ErrorCode::UnknownGraph,
    ErrorCode::AlreadyRegistered,
    ErrorCode::UnknownEdge,
    ErrorCode::OutOfRange,
    ErrorCode::Unsupported,
    ErrorCode::InvalidRequest,
    ErrorCode::Io,
    ErrorCode::Graph,
    ErrorCode::Internal,
];

/// Every request variant, driven by one flat tuple of draws.
fn arb_request() -> impl Strategy<Value = Request> {
    (
        (0..9usize, 0..NAMES.len(), 0..NAMES.len(), 0..ENGINES.len()),
        (1..99u64, 0..1_000_000u64, 0..3usize),
        proptest::collection::vec((0..2usize, 0..64u64, 0..64u64), 8),
        (0..5usize, 0..64u64, 0..64u64),
    )
        .prop_map(
            |((variant, t, g, eng), (eps, seed, src), items, (len, a, b))| {
                let tenant = NAMES[t].to_string();
                let graph = NAMES[g].to_string();
                match variant {
                    0 => Request::RegisterGraph {
                        tenant,
                        graph,
                        engine: ENGINES[eng],
                        epsilon: eps as f64 / 100.0,
                        seed,
                        source: match src {
                            0 => GraphSource::Empty { num_vertices: a },
                            1 => GraphSource::Edges {
                                num_vertices: a,
                                edges: items.iter().take(len).map(|&(_, u, v)| (u, v)).collect(),
                            },
                            _ => GraphSource::MmapPath {
                                path: format!("/data/{b}.fgcsr"),
                            },
                        },
                    },
                    1 => Request::ApplyUpdates {
                        tenant,
                        graph,
                        updates: items
                            .iter()
                            .map(|&(tag, u, v)| {
                                if tag == 0 {
                                    EdgeUpdate::insert(u as usize, v as usize)
                                } else {
                                    EdgeUpdate::delete(EdgeId::new(u as usize))
                                }
                            })
                            .collect(),
                    },
                    2 => Request::ColorOfEdge {
                        tenant,
                        graph,
                        edge: a,
                    },
                    3 => Request::ForestOfVertex {
                        tenant,
                        graph,
                        color: a,
                        vertex: b,
                    },
                    4 => Request::OrientationOut {
                        tenant,
                        graph,
                        vertex: b,
                    },
                    5 => Request::ArboricityWatermark { tenant, graph },
                    6 => Request::SnapshotBytes { tenant, graph },
                    7 => Request::Metrics { tenant, graph },
                    _ => Request::Shutdown,
                }
            },
        )
}

/// Every response variant, including well-formed error frames.
fn arb_response() -> impl Strategy<Value = Response> {
    (
        (0..10usize, 0..50u64, 0..100u64, 0..100u64),
        proptest::collection::vec(0..1_000u64, 6),
        (0..CODES.len(), 0..NAMES.len(), 0..7usize),
    )
        .prop_map(
            |((variant, epoch, x, y), vals, (code, msg, len))| match variant {
                0 => Response::Registered {
                    epoch,
                    num_vertices: x,
                    live_edges: y,
                    color_budget: vals[0],
                },
                1 => Response::Applied {
                    epoch,
                    applied: x,
                    inserted_edges: vals[..len].to_vec(),
                    recolored_edges: y,
                    color_budget: vals[0],
                    live_edges: vals[1],
                },
                2 => Response::EdgeColor {
                    epoch,
                    color: (x % 2 == 0).then_some(y),
                },
                3 => Response::VertexForest { epoch, root: x },
                4 => Response::OutEdges {
                    epoch,
                    edges: vals[..len].to_vec(),
                },
                5 => Response::Watermark {
                    epoch,
                    lower_bound: x,
                    color_budget: y,
                    live_edges: vals[0],
                    num_vertices: vals[1],
                },
                6 => Response::Snapshot {
                    epoch,
                    bytes: vals[..len].iter().map(|&v| v as u8).collect(),
                },
                7 => Response::ShuttingDown,
                8 => Response::MetricsReport {
                    epoch,
                    entries: vals[..len]
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| (format!("{}_total_{i}", NAMES[msg]), v))
                        .collect(),
                },
                _ => Response::Error(WireError::new(CODES[code], NAMES[msg])),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `decode_request ∘ encode_request` is the identity.
    #[test]
    fn request_round_trips(req in arb_request()) {
        let buf = encode_request(&req);
        let back = decode_request(&buf);
        prop_assert!(back.is_ok(), "decode failed: {:?}", back);
        prop_assert_eq!(back.unwrap(), req);
    }

    /// `decode_response ∘ encode_response` is the identity — including for
    /// error frames, which decode to `Ok(Response::Error(..))`.
    #[test]
    fn response_round_trips(resp in arb_response()) {
        let buf = encode_response(&resp);
        let back = decode_response(&buf);
        prop_assert!(back.is_ok(), "decode failed: {:?}", back);
        prop_assert_eq!(back.unwrap(), resp);
    }

    /// Arbitrary byte soup never panics either decoder; failures are the
    /// typed malformed error.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in (0..64usize)
        .prop_flat_map(|len| proptest::collection::vec(0..256usize, len))
        .prop_map(|v| v.into_iter().map(|b| b as u8).collect::<Vec<u8>>()))
    {
        if let Err(err) = decode_request(&bytes) {
            prop_assert_eq!(err.code, ErrorCode::Malformed);
        }
        if let Err(err) = decode_response(&bytes) {
            prop_assert_eq!(err.code, ErrorCode::Malformed);
        }
    }

    /// Garbage *behind a valid prologue* (the adversarial half: magic and
    /// version pass, the body is noise) never panics and never succeeds
    /// silently with trailing bytes.
    #[test]
    fn prologued_garbage_never_panics(bytes in (0..48usize)
        .prop_flat_map(|len| proptest::collection::vec(0..256usize, len))
        .prop_map(|v| {
            let mut buf = Vec::with_capacity(v.len() + 6);
            buf.extend_from_slice(&MAGIC.to_le_bytes());
            buf.extend_from_slice(&VERSION.to_le_bytes());
            buf.extend(v.into_iter().map(|b| b as u8));
            buf
        }))
    {
        if let Err(err) = decode_request(&bytes) {
            prop_assert_eq!(err.code, ErrorCode::Malformed);
        }
        if let Err(err) = decode_response(&bytes) {
            prop_assert_eq!(err.code, ErrorCode::Malformed);
        }
    }

    /// Every strict prefix of a valid frame is rejected as malformed (no
    /// partial parse ever passes), and every single-byte corruption either
    /// decodes to *some* well-formed message or fails typed — never panics.
    #[test]
    fn truncations_and_corruptions_stay_typed(req in arb_request()) {
        let buf = encode_request(&req);
        for len in 0..buf.len() {
            let err = decode_request(&buf[..len]).expect_err("prefix accepted");
            prop_assert_eq!(err.code, ErrorCode::Malformed);
        }
        for pos in 0..buf.len() {
            let mut bent = buf.clone();
            bent[pos] ^= 0x41;
            if let Err(err) = decode_request(&bent) {
                prop_assert_eq!(err.code, ErrorCode::Malformed);
            }
        }
    }
}

/// A hostile element count (4 billion updates in a 40-byte frame) is
/// rejected before any allocation happens.
#[test]
fn oversized_counts_are_rejected_without_allocating() {
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(2); // ApplyUpdates
    buf.extend_from_slice(&0u32.to_le_bytes()); // tenant ""
    buf.extend_from_slice(&0u32.to_le_bytes()); // graph ""
    buf.extend_from_slice(&u32::MAX.to_le_bytes()); // update count
    let err = decode_request(&buf).expect_err("hostile count accepted");
    assert_eq!(err.code, ErrorCode::Malformed);
}

/// Same hostile-count discipline for the `Metrics` response decoder: a
/// claimed 4-billion-entry report in a 23-byte frame fails typed before
/// the entries `Vec` is ever sized.
#[test]
fn oversized_metrics_report_is_rejected_without_allocating() {
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(0); // status: ok
    buf.push(10); // Metrics
    buf.extend_from_slice(&0u64.to_le_bytes()); // epoch
    buf.extend_from_slice(&u32::MAX.to_le_bytes()); // entry count
    let err = decode_response(&buf).expect_err("hostile count accepted");
    assert_eq!(err.code, ErrorCode::Malformed);
}

/// Version 2 retired the `Stats` op: opcode 8 is now an unknown opcode and
/// decodes to the typed malformed error, in requests and in responses.
#[test]
fn retired_stats_opcode_is_malformed() {
    let mut req = Vec::new();
    req.extend_from_slice(&MAGIC.to_le_bytes());
    req.extend_from_slice(&VERSION.to_le_bytes());
    req.push(8);
    req.extend_from_slice(&0u32.to_le_bytes()); // tenant ""
    req.extend_from_slice(&0u32.to_le_bytes()); // graph ""
    req.push(0); // reserved trailer
    let err = decode_request(&req).expect_err("opcode 8 accepted");
    assert_eq!(err.code, ErrorCode::Malformed);
    assert!(err.message.contains("opcode 8"), "{err}");

    let mut resp = Vec::new();
    resp.extend_from_slice(&MAGIC.to_le_bytes());
    resp.extend_from_slice(&VERSION.to_le_bytes());
    resp.push(0); // status: ok
    resp.push(8);
    resp.extend_from_slice(&[0u8; 88]); // the old epoch + ten counters
    let err = decode_response(&resp).expect_err("opcode 8 accepted");
    assert_eq!(err.code, ErrorCode::Malformed);
}

/// A version-1 header is refused typed: the Stats op changed the opcode
/// table, so a v1 peer must not be half-understood.
#[test]
fn version_one_header_is_malformed() {
    assert_eq!(VERSION, 2);
    let mut buf = encode_request(&Request::Shutdown);
    buf[4..6].copy_from_slice(&1u16.to_le_bytes());
    let err = decode_request(&buf).expect_err("v1 request accepted");
    assert_eq!(err.code, ErrorCode::Malformed);
    assert!(err.message.contains("version 1"), "{err}");
    let mut buf = encode_response(&Response::ShuttingDown);
    buf[4..6].copy_from_slice(&1u16.to_le_bytes());
    let err = decode_response(&buf).expect_err("v1 response accepted");
    assert_eq!(err.code, ErrorCode::Malformed);
}

/// Out-of-core's typed refusal of a reordered split travels as
/// `Unsupported`, not as the `Internal` catch-all.
#[test]
fn reorder_refusal_maps_to_unsupported() {
    let err = WireError::from(FdError::ReorderUnsupported {
        reorder: ReorderKind::Rcm,
    });
    assert_eq!(err.code, ErrorCode::Unsupported);
}
