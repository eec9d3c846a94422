//! # forest-obs — the workspace observability substrate
//!
//! One crate, zero external dependencies, two pieces:
//!
//! * [`clock`] — the workspace's **single wall-clock module** (the only
//!   `Instant::now` site that clippy's `disallowed_methods` lets through).
//!   [`clock::Stopwatch`] replaces the `Instant::now()/elapsed()` idiom
//!   everywhere.
//! * [`trace`] — opt-in spans and instants behind the process
//!   [`trace::Recorder`]. Disabled (default) cost is one relaxed atomic
//!   load per site; instrumentation is provably behavior-neutral —
//!   `canonical_bytes` is byte-identical with the recorder off, on, or
//!   drained mid-run.
//!
//! [`export`] renders drained spans as chrome-trace JSON
//! (Perfetto-loadable), plus the [`export::validate_trace`] schema checker
//! the CI `obs-smoke` step runs.
//!
//! Spans time the phases; counts live in the stats each engine and driver
//! returns (`RoundLedger`, `BuildStats`, `OocStats`, ...), not in a
//! process-wide registry.
//!
//! ## Naming scheme
//!
//! Dotted lowercase, `layer.operation`: spans like `ooc.shard` and
//! `versioned.publish`.
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap)
)]

pub mod clock;
pub mod export;
pub mod trace;

pub use clock::Stopwatch;
pub use trace::{event, recorder, Phase, Recorder, Span, TraceEvent};
