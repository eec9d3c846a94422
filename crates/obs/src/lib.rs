//! # forest-obs — the workspace observability substrate
//!
//! One crate, zero external dependencies, three layers:
//!
//! * [`clock`] — the workspace's **single wall-clock module** (the only
//!   FL005-allowed `Instant::now` site). [`clock::Stopwatch`] replaces the
//!   `Instant::now()/elapsed()` idiom everywhere; a manual test clock
//!   makes timing-derived behavior deterministic in this crate's tests.
//! * [`metrics`] — always-on counters, gauges and log₂-bucketed
//!   histograms addressed by [`metrics::MetricId`]s, registered through
//!   `Lazy*` statics so hot paths never take a lock. Snapshots are
//!   name-ordered (deterministic) and histogram snapshots merge
//!   associatively across threads and shards.
//! * [`trace`] — opt-in spans and instants behind the process
//!   [`trace::Recorder`]. Disabled (default) cost is one relaxed atomic
//!   load per site; instrumentation is provably behavior-neutral —
//!   `canonical_bytes` is byte-identical with the recorder off, on, or
//!   drained mid-run.
//!
//! [`export`] renders both halves: chrome-trace JSON (Perfetto-loadable)
//! for drained spans, prometheus text exposition for metric snapshots,
//! plus the [`export::validate_trace`] schema checker the CI `obs-smoke`
//! step runs.
//!
//! ## Naming scheme
//!
//! Dotted lowercase, `layer.quantity`: spans like `ooc.shard` and
//! `serve.request`; metrics like `extsort.spilled_runs_total` (counter),
//! `ooc.peak_resident_bytes` (gauge), `dynamic.apply_nanos` (histogram).
//! Counters end in `_total`; quantities carry a unit suffix
//! (`_nanos`, `_bytes`).
//!
//! ## Capturing a trace
//!
//! ```
//! use forest_obs::{recorder, Span};
//! let rec = recorder();
//! rec.enable();
//! {
//!     let _run = Span::enter("demo.run");
//!     // … instrumented work …
//! }
//! rec.disable();
//! let events = rec.drain();
//! forest_obs::export::validate_trace(&events).unwrap();
//! let json = forest_obs::export::chrome_trace_json(&events);
//! // write `json` to a file; open it in chrome://tracing or ui.perfetto.dev
//! assert!(json.contains("demo.run"));
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod clock;
pub mod export;
pub mod metrics;
pub mod trace;

pub use clock::{MonotonicClock, Stopwatch};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, LazyCounter, LazyGauge, LazyHistogram, MetricId,
    MetricKind, MetricSnapshot, Registry,
};
pub use trace::{event, recorder, Phase, Recorder, Span, TraceEvent};
