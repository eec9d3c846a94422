//! The workspace's **single wall-clock module**.
//!
//! Every elapsed-time measurement in the pipeline — facade and dynamic
//! update wall-clocks, trace timestamps, bench medians — reads the clock
//! through here. No other first-party module may call
//! `Instant::now`/`SystemTime::now` (enforced by forest-lint FL005; this
//! file carries the one checked-in allow entry). Centralizing the read
//! keeps the byte-determinism contract auditable: timings flow into stats
//! ledgers and traces, which are excluded from `canonical_bytes`, and the
//! lint proves nothing else can sneak a clock read into an artifact path.
//!
//! Readings are **monotonic nanoseconds anchored at the first read** of the
//! process (so they fit comfortably in a `u64` and are directly usable as
//! chrome-trace timestamps); they are never a calendar time.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The process anchor: all readings are relative to this instant.
fn anchor() -> &'static Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now)
}

/// Nanoseconds since the process anchor (the first clock read). Monotonic:
/// never decreases. This is the only first-party function that touches
/// `std::time::Instant`.
pub fn now_nanos() -> u64 {
    let a = *anchor();
    let d = Instant::now().saturating_duration_since(a);
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// An elapsed-time measurement: the drop-in replacement for the
/// `let start = Instant::now(); … start.elapsed()` idiom at every
/// instrumentation site.
///
/// ```
/// let sw = forest_obs::clock::Stopwatch::start();
/// // … work …
/// let _nanos: u64 = sw.elapsed_nanos();
/// let _dur: std::time::Duration = sw.elapsed();
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start_nanos: u64,
}

impl Stopwatch {
    /// Starts measuring now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start_nanos: now_nanos(),
        }
    }

    /// Nanoseconds since [`start`](Stopwatch::start).
    pub fn elapsed_nanos(&self) -> u64 {
        now_nanos().saturating_sub(self.start_nanos)
    }

    /// [`elapsed_nanos`](Stopwatch::elapsed_nanos) as a `Duration`.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.elapsed_nanos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_never_decreases() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
    }
}
