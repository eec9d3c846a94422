//! The workspace's **single wall-clock module**.
//!
//! Every elapsed-time measurement in the pipeline — extsort phase timings,
//! Algorithm 2 ball BFS nanos, out-of-core phase splits, dynamic per-update
//! cost, facade wall-clocks, trace timestamps, bench medians — reads the
//! clock through here. No other first-party module may call
//! `Instant::now`/`SystemTime::now` (enforced by forest-lint FL005; this
//! file carries the one checked-in allow entry). Centralizing the read has
//! two payoffs:
//!
//! * the byte-determinism contract is auditable: timings flow into stats
//!   ledgers and traces, which are excluded from `canonical_bytes`, and the
//!   lint proves nothing else can sneak a clock read into an artifact path;
//! * this crate's tests swap in a deterministic manual clock and drive
//!   "time" explicitly, so timing-derived observability (histograms, span
//!   durations) is testable to the nanosecond.
//!
//! Readings are **monotonic nanoseconds anchored at the first read** of the
//! process (so they fit comfortably in a `u64` and are directly usable as
//! chrome-trace timestamps); they are never a calendar time.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const MODE_MONOTONIC: u8 = 0;
const MODE_MANUAL: u8 = 1;

/// Which source [`now_nanos`] reads: the real monotonic clock (default) or
/// the manual test clock.
static MODE: AtomicU8 = AtomicU8::new(MODE_MONOTONIC);

/// The manual clock's current reading, nanoseconds.
static MANUAL_NANOS: AtomicU64 = AtomicU64::new(0);

/// The process anchor: all monotonic readings are relative to this instant.
fn anchor() -> &'static Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now)
}

/// Nanoseconds since the process anchor (first clock read), from whichever
/// source is installed. Monotonic: never decreases under the real clock;
/// under the manual test clock it reads exactly what the test set.
pub fn now_nanos() -> u64 {
    match MODE.load(Ordering::Relaxed) {
        MODE_MANUAL => MANUAL_NANOS.load(Ordering::Relaxed),
        _ => MonotonicClock.now_nanos(),
    }
}

/// The real clock: monotonic nanoseconds anchored at the first read. This
/// is the only first-party type that touches `std::time::Instant`.
#[derive(Clone, Copy, Debug, Default)]
pub struct MonotonicClock;

impl MonotonicClock {
    /// Nanoseconds since the process anchor.
    pub fn now_nanos(&self) -> u64 {
        let a = *anchor();
        let d = Instant::now().saturating_duration_since(a);
        u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A deterministic test clock. While a handle is alive, [`now_nanos`] (and
/// therefore every [`Stopwatch`], trace timestamp and timing histogram in
/// the process) reads the value the test set — no real time passes.
///
/// Install with [`ManualClock::install`]; dropping the handle restores the
/// monotonic clock. Tests sharing a process must serialize installs (the
/// clock is process-global by design — that is the whole point).
#[cfg(test)]
#[derive(Debug)]
struct ManualClock(());

#[cfg(test)]
impl ManualClock {
    /// Switches the process clock to manual mode, starting at 0 ns.
    fn install() -> ManualClock {
        MANUAL_NANOS.store(0, Ordering::Relaxed);
        MODE.store(MODE_MANUAL, Ordering::Relaxed);
        ManualClock(())
    }

    /// Sets the manual reading.
    fn set(&self, nanos: u64) {
        MANUAL_NANOS.store(nanos, Ordering::Relaxed);
    }

    /// Advances the manual reading.
    fn advance(&self, nanos: u64) {
        MANUAL_NANOS.fetch_add(nanos, Ordering::Relaxed);
    }
}

#[cfg(test)]
impl Drop for ManualClock {
    fn drop(&mut self) {
        MODE.store(MODE_MONOTONIC, Ordering::Relaxed);
    }
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

    /// Nanoseconds since [`start`](Stopwatch::start). Saturates at 0 if a
    /// manual clock was set backwards.
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
    use std::sync::Mutex;

    /// Serializes the tests that install the process-global manual clock.
    static CLOCK_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn monotonic_never_decreases() {
        let _guard = CLOCK_LOCK.lock().unwrap();
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_drives_stopwatch() {
        let _guard = CLOCK_LOCK.lock().unwrap();
        let clock = ManualClock::install();
        let sw = Stopwatch::start();
        assert_eq!(sw.elapsed_nanos(), 0);
        clock.advance(1_500);
        assert_eq!(sw.elapsed_nanos(), 1_500);
        assert_eq!(sw.elapsed(), Duration::from_nanos(1_500));
        clock.set(10_000);
        assert_eq!(sw.elapsed_nanos(), 10_000);
        clock.set(0);
        assert_eq!(sw.elapsed_nanos(), 0, "backwards set saturates");
        drop(clock);
        // Restored: real time flows again.
        let a = now_nanos();
        assert!(now_nanos() >= a);
    }
}
