//! The benchmark's own arithmetic: percentiles and the tail rule, failure
//! accounting, open-loop scheduling, remainder attribution and seed
//! derivation. Pure functions over numbers, unit-tested at the bottom.

use crate::speed::Speed;

/// A percentile is reported as the tail only when at least this many
/// samples lie beyond it in the run.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` in `n` sorted samples.
pub fn rank(n: usize, q: f64) -> usize {
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond quantile `q`.
pub fn tail_supported(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// Nearest-rank percentile of already sorted samples (`None` when empty).
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// Median of real values (mean of the two middle ones for even counts);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nanoseconds to milliseconds.
pub fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// The latencies of one kind of operation, in nanoseconds: each sample
/// scaled to the reference speed, and as measured.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    samples: Vec<u64>,
    measured: Vec<u64>,
}

/// What a latency metric reports: median, p90, and whether the run had
/// enough samples beyond p90 for it to be a tail.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median, milliseconds.
    pub p50_ms: f64,
    /// 90th percentile, milliseconds.
    pub p90_ms: f64,
    /// At least [`MIN_BEYOND`] samples lie beyond p90.
    pub tail_ok: bool,
}

impl Latencies {
    /// Records one sample measured at `speed`.
    pub fn push(&mut self, nanos: u64, speed: Speed) {
        self.samples.push(speed.scale(nanos));
        self.measured.push(nanos);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Median and p90 at the reference speed (zeros when empty).
    pub fn summary(&self) -> Summary {
        Summary::of(&self.samples)
    }

    /// Median and p90 as measured.
    pub fn measured(&self) -> Summary {
        Summary::of(&self.measured)
    }
}

impl Summary {
    fn of(samples: &[u64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let p = |q| percentile(&sorted, q).map(ms).unwrap_or(0.0);
        Summary {
            n: sorted.len(),
            p50_ms: p(0.5),
            p90_ms: p(0.9),
            tail_ok: tail_supported(sorted.len(), 0.9),
        }
    }
}

/// Attempted and failed operations of every kind, output checks included.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Those that failed (an error, a wrong answer or a failed check).
    pub failed: u64,
}

impl Tally {
    /// Counts one attempt; returns `ok` so call sites can branch on it.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// failed ÷ attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// An open-loop schedule: request `i` is due `i · period` nanoseconds
/// after the phase starts, whether or not earlier requests have finished.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Spacing between due times, nanoseconds.
    pub period: u64,
}

impl Schedule {
    /// When request `i` is due.
    pub fn due(&self, i: u64) -> u64 {
        i * self.period
    }

    /// Latency of a request that completed at `done`, counted from its
    /// due time so a stall also charges the requests queued behind it.
    pub fn latency(&self, i: u64, done: u64) -> u64 {
        done.saturating_sub(self.due(i))
    }

    /// How late the generator sent request `i` (0 when on time).
    pub fn lateness(&self, i: u64, sent: u64) -> u64 {
        sent.saturating_sub(self.due(i))
    }
}

/// The part of `total` that the attributed `parts` do not explain. May be
/// negative when the parts were measured on separate replays that ran
/// slower than their share of the op; it is reported, never clamped.
pub fn remainder(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

/// One step of SplitMix64: a seed stream for generated inputs that does
/// not depend on any helper of the code under test.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_is_the_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.9), Some(90));
        assert_eq!(percentile(&sorted, 0.5), Some(50));
        assert_eq!(percentile(&[7], 0.9), Some(7));
        assert_eq!(percentile(&[], 0.9), None);
        // Eleven samples: rank ⌈9.9⌉ = 10, one sample beyond.
        let eleven: Vec<u64> = (1..=11).collect();
        assert_eq!(percentile(&eleven, 0.9), Some(10));
    }

    #[test]
    fn the_tail_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(100, 0.9), 10);
        assert!(tail_supported(100, 0.9));
        assert_eq!(beyond(99, 0.9), 9);
        assert!(!tail_supported(99, 0.9));
        assert!(!tail_supported(0, 0.9));
        assert!(tail_supported(21, 0.5));
        assert!(!tail_supported(19, 0.5));
    }

    #[test]
    fn summaries_report_milliseconds_and_the_tail_rule() {
        let mut lat = Latencies::default();
        for i in 1..=100u64 {
            lat.push(i * 1_000_000, Speed::reference());
        }
        let s = lat.summary();
        assert_eq!(s.n, 100);
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p90_ms, 90.0);
        assert!(s.tail_ok);
        assert_eq!(lat.measured(), s);
        lat.samples.pop();
        assert!(!lat.summary().tail_ok);
        assert_eq!(Latencies::default().summary().p90_ms, 0.0);
    }

    #[test]
    fn latencies_keep_the_scaled_and_the_measured_sample() {
        let mut lat = Latencies::default();
        // Measured while the probe ran at twice the reference time.
        let slow = Speed::from_probe(2 * crate::speed::REFERENCE_NANOS);
        lat.push(8_000_000, slow);
        lat.push(6_000_000, Speed::reference());
        assert_eq!(lat.len(), 2);
        assert_eq!(lat.summary().p50_ms, 4.0);
        assert_eq!(lat.summary().p90_ms, 6.0);
        assert_eq!(lat.measured().p50_ms, 6.0);
        assert_eq!(lat.measured().p90_ms, 8.0);
    }

    #[test]
    fn fail_ratio_counts_failed_checks_against_all_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_ratio(), 0.0);
        assert!(t.record(true));
        assert!(!t.record(false));
        t.record(true);
        t.record(true);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.fail_ratio(), 0.25);
        let mut checks = Tally::default();
        checks.record(false);
        t.merge(checks);
        assert_eq!(t.fail_ratio(), 2.0 / 5.0);
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        let s = Schedule { period: 100 };
        assert_eq!(s.due(0), 0);
        assert_eq!(s.due(3), 300);
        // Sent on time, answered 20 later.
        assert_eq!(s.lateness(0, 0), 0);
        assert_eq!(s.latency(0, 20), 20);
        // Request 1 waited behind a stall: sent 150 late, answered 10
        // after it was sent; its latency includes the wait.
        assert_eq!(s.lateness(1, 250), 150);
        assert_eq!(s.latency(1, 260), 160);
        // A request sent early (a coarse sleep) is not negative lateness.
        assert_eq!(s.lateness(2, 190), 0);
    }

    #[test]
    fn remainder_is_the_explicit_unattributed_part() {
        assert_eq!(remainder(10.0, &[2.0, 3.0, 1.5]), 3.5);
        assert_eq!(remainder(10.0, &[]), 10.0);
        assert_eq!(remainder(4.0, &[3.0, 2.0]), -1.0);
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn seed_streams_are_stable_and_distinct() {
        assert_eq!(mix(7, 1), mix(7, 1));
        assert_ne!(mix(7, 1), mix(7, 2));
        assert_ne!(mix(7, 1), mix(8, 1));
    }
}
