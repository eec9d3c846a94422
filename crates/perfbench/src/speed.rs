//! Host speed, and durations scaled to a reference speed.
//!
//! On a shared host the speed of a core drifts with other tenants' load:
//! `cold_mesh`'s op took 82 ms in one run and 140 ms in another, so a
//! duration as measured says as much about the neighbours as about the
//! program. The benchmark therefore runs a fixed piece of its own work,
//! the [`Probe`], right next to every timed op (or block of ops) and reports
//! CPU-bound durations as they would read on a host where the probe takes
//! [`REFERENCE_NANOS`]. The probe is code of this package, not of the
//! program, so a change to the program moves the scaled figures as much as
//! the measured ones. Durations that wait on a timer rather than the CPU
//! (serve's reads) are reported as measured.

use forest_obs::clock::Stopwatch;

/// The probe's time on the reference host, nanoseconds.
pub const REFERENCE_NANOS: u64 = 1_000_000;

/// Values the probe generates and sorts: 512 KiB, inside one core's cache.
const PROBE_LEN: usize = 1 << 16;

/// How fast the host ran the probe at one moment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Speed {
    probe_nanos: u64,
}

impl Speed {
    /// The reference speed: scaling leaves a duration as measured.
    pub fn reference() -> Speed {
        Speed {
            probe_nanos: REFERENCE_NANOS,
        }
    }

    /// The speed at which the probe took `probe_nanos`.
    pub fn from_probe(probe_nanos: u64) -> Speed {
        Speed {
            probe_nanos: probe_nanos.max(1),
        }
    }

    /// The probe's wall time at this speed.
    pub fn probe_nanos(self) -> u64 {
        self.probe_nanos
    }

    /// `nanos` measured at this speed, as it would read at the reference
    /// speed.
    pub fn scale(self, nanos: u64) -> u64 {
        let scaled = u128::from(nanos) * u128::from(REFERENCE_NANOS) / u128::from(self.probe_nanos);
        u64::try_from(scaled).unwrap_or(u64::MAX)
    }
}

/// The reference work: generate [`PROBE_LEN`] pseudo-random `u64`s from a
/// fixed seed and sort them. Identical on every call, in every run.
pub struct Probe {
    buf: Vec<u64>,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe {
            buf: vec![0; PROBE_LEN],
        }
    }
}

impl Probe {
    /// Runs the reference work once and returns the speed it ran at.
    pub fn measure(&mut self) -> Speed {
        let clock = Stopwatch::start();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for slot in &mut self.buf {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *slot = x;
        }
        self.buf.sort_unstable();
        std::hint::black_box(&self.buf);
        Speed::from_probe(clock.elapsed_nanos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_by_the_probe_time_relative_to_the_reference() {
        // Probe twice as slow as the reference: durations read half.
        assert_eq!(Speed::from_probe(2 * REFERENCE_NANOS).scale(80), 40);
        // Probe faster than the reference: durations read longer.
        assert_eq!(Speed::from_probe(REFERENCE_NANOS / 2).scale(80), 160);
        assert_eq!(Speed::reference().scale(12_345), 12_345);
        // A zero probe time cannot divide by zero.
        assert_eq!(Speed::from_probe(0).probe_nanos(), 1);
        assert_eq!(Speed::from_probe(0).scale(u64::MAX), u64::MAX);
    }

    #[test]
    fn the_probe_does_the_same_work_every_time() {
        let mut probe = Probe::default();
        probe.measure();
        let first = probe.buf.clone();
        probe.measure();
        assert_eq!(probe.buf, first);
        assert!(first.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(first.len(), PROBE_LEN);
    }
}
