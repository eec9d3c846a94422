//! Decomposition-as-a-service: a resident, multi-tenant TCP server over
//! snapshot-isolated live forest colorings.
//!
//! Tenants register graphs once (inline edges, an on-disk CSR path the
//! server mmaps, or empty + a live update stream) and many concurrent
//! readers query the maintained `α(+ε)` coloring — per-edge colors,
//! per-color forest roots, the bounded-out-degree orientation, the live
//! Nash-Williams arboricity watermark, and byte-reproducible snapshot
//! reports — while one writer per graph streams edge updates through the
//! [`DynamicDecomposer`](forest_decomp::api::DynamicDecomposer).
//!
//! The crate splits along the three layers of the tentpole:
//!
//! * [`protocol`] — the little-endian, length-prefixed binary wire
//!   format: request/response frames, typed error frames mirroring
//!   [`FdError`](forest_decomp::FdError), and a total (never-panicking)
//!   decoder.
//! * [`state`] — the tenant registry and request handler over
//!   [`VersionedDecomposer`](forest_decomp::api::VersionedDecomposer):
//!   per-graph single-writer/multi-reader snapshot isolation, with
//!   queries that never wait for an update batch.
//! * [`server`] / [`client`] — `std::net` front end (thread per
//!   connection, clean shutdown) and the small blocking client the
//!   tests, smoke job and benchmarks reuse.
//!
//! Run the binary with `cargo run -p forest-serve -- 127.0.0.1:7433`, or
//! embed [`Server`] directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap)
)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod state;

pub use client::{Applied, Client, ClientError, Watermark};
pub use protocol::{ErrorCode, GraphSource, Opcode, Request, Response, WireError};
pub use server::Server;
pub use state::{GraphEntry, ServerState};
