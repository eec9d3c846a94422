//! Round accounting for the LOCAL model.
//!
//! The complexity measure of the LOCAL model is the number of synchronous
//! communication rounds. Algorithms in this workspace are executed by a
//! central simulator, so every phase *charges* the number of rounds the
//! distributed execution would have used to a [`RoundLedger`]. The ledger
//! keeps per-phase provenance so the benchmark harness can report where the
//! rounds went (network decomposition, cluster processing, recoloring, ...).

use forest_obs::LazyCounter;
use std::fmt;

/// LOCAL rounds charged process-wide, as a typed `forest-obs` counter.
/// Counted in [`RoundLedger::charge`] only — [`RoundLedger::absorb`] moves
/// charges between ledgers without re-charging, so shard-local rounds are
/// counted exactly once.
static ROUNDS_CHARGED: LazyCounter = LazyCounter::new("local_model.rounds_charged_total");
/// Number of individual [`RoundLedger::charge`] calls process-wide.
static CHARGES: LazyCounter = LazyCounter::new("local_model.charges_total");

/// A single charged phase of a distributed algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundCharge {
    /// Human-readable label of the phase (e.g. `"network decomposition"`).
    pub label: String,
    /// Number of LOCAL rounds charged by the phase.
    pub rounds: usize,
}

/// Accumulates the LOCAL round cost of an algorithm execution, phase by phase.
///
/// ```
/// use local_model::RoundLedger;
/// let mut ledger = RoundLedger::new();
/// ledger.charge("H-partition", 12);
/// ledger.charge("recoloring", 3);
/// assert_eq!(ledger.total_rounds(), 15);
/// assert_eq!(ledger.charges().len(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundLedger {
    charges: Vec<RoundCharge>,
}

impl RoundLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        RoundLedger::default()
    }

    /// Charges `rounds` LOCAL rounds under the given phase label.
    pub fn charge(&mut self, label: impl Into<String>, rounds: usize) {
        ROUNDS_CHARGED.add(rounds as u64);
        CHARGES.inc();
        self.charges.push(RoundCharge {
            label: label.into(),
            rounds,
        });
    }

    /// Total rounds charged so far.
    pub fn total_rounds(&self) -> usize {
        self.charges.iter().map(|c| c.rounds).sum()
    }

    /// The individual charges in the order they were made.
    pub fn charges(&self) -> &[RoundCharge] {
        &self.charges
    }

    /// Sum of rounds charged under labels for which `matches` returns true.
    pub fn rounds_for<F>(&self, mut matches: F) -> usize
    where
        F: FnMut(&str) -> bool,
    {
        self.charges
            .iter()
            .filter(|c| matches(&c.label))
            .map(|c| c.rounds)
            .sum()
    }

    /// Absorbs all charges of `other`, prefixing their labels.
    pub fn absorb(&mut self, prefix: &str, other: RoundLedger) {
        for c in other.charges {
            self.charges.push(RoundCharge {
                label: format!("{prefix}/{}", c.label),
                rounds: c.rounds,
            });
        }
    }

    /// Clears all charges.
    pub fn clear(&mut self) {
        self.charges.clear();
    }
}

impl fmt::Display for RoundLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "total LOCAL rounds: {}", self.total_rounds())?;
        for c in &self.charges {
            writeln!(f, "  {:>8} rounds  {}", c.rounds, c.label)?;
        }
        Ok(())
    }
}

/// Standard round-cost formulas shared by the algorithms, so that the charged
/// quantities stay consistent with the paper's statements.
pub mod costs {

    /// Rounds charged for an `(O(log n), O(log n))` network decomposition of
    /// the power graph `G^d`: `O(d · log² n)` (Elkin–Neiman style construction
    /// simulated on the power graph).
    pub fn network_decomposition(n: usize, power: usize) -> usize {
        let log_n = log2_ceil(n).max(1);
        power.max(1) * log_n * log_n
    }

    /// Rounds charged for an MPX `(O(log n / β), β)` partial network
    /// decomposition: `O(log n / β)`.
    pub fn partial_network_decomposition(n: usize, beta: f64) -> usize {
        let log_n = log2_ceil(n).max(1) as f64;
        (log_n / beta.max(1e-9)).ceil() as usize
    }

    /// Rounds charged for the distributed Lovász Local Lemma algorithm of
    /// Chung–Pettie–Su: `O(log n)` resampling rounds, each implementable in
    /// `dependency_radius` LOCAL rounds.
    pub fn lll(n: usize, dependency_radius: usize) -> usize {
        log2_ceil(n).max(1) * dependency_radius.max(1)
    }

    /// Ceiling of log2 (0 for n <= 1).
    pub fn log2_ceil(n: usize) -> usize {
        if n <= 1 {
            0
        } else {
            (usize::BITS - (n - 1).leading_zeros()) as usize
        }
    }

    /// Natural-log-based `⌈ln n⌉`, used by the `O(log n / ε)` formulas.
    pub fn ln_ceil(n: usize) -> usize {
        if n <= 1 {
            0
        } else {
            (n as f64).ln().ceil() as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates_charges() {
        let mut ledger = RoundLedger::new();
        assert_eq!(ledger.total_rounds(), 0);
        ledger.charge("phase-a", 5);
        ledger.charge("phase-b", 7);
        assert_eq!(ledger.total_rounds(), 12);
        assert_eq!(ledger.charges().len(), 2);
        assert_eq!(ledger.charges()[0].label, "phase-a");
        assert_eq!(ledger.rounds_for(|l| l == "phase-b"), 7);
    }

    #[test]
    fn absorb_prefixes_labels() {
        let mut outer = RoundLedger::new();
        outer.charge("setup", 1);
        let mut inner = RoundLedger::new();
        inner.charge("cut", 3);
        outer.absorb("cluster-0", inner);
        assert_eq!(outer.total_rounds(), 4);
        assert_eq!(outer.charges()[1].label, "cluster-0/cut");
    }

    #[test]
    fn clear_resets_ledger() {
        let mut ledger = RoundLedger::new();
        ledger.charge("x", 2);
        ledger.clear();
        assert_eq!(ledger.total_rounds(), 0);
        assert!(ledger.charges().is_empty());
    }

    #[test]
    fn display_mentions_total() {
        let mut ledger = RoundLedger::new();
        ledger.charge("x", 2);
        let text = ledger.to_string();
        assert!(text.contains("total LOCAL rounds: 2"));
        assert!(text.contains('x'));
    }

    #[test]
    fn log_helpers() {
        assert_eq!(costs::log2_ceil(0), 0);
        assert_eq!(costs::log2_ceil(1), 0);
        assert_eq!(costs::log2_ceil(2), 1);
        assert_eq!(costs::log2_ceil(3), 2);
        assert_eq!(costs::log2_ceil(1024), 10);
        assert_eq!(costs::log2_ceil(1025), 11);
        assert_eq!(costs::ln_ceil(1), 0);
        assert!(costs::ln_ceil(1000) >= 7);
    }

    #[test]
    fn cost_formulas_are_monotone() {
        assert!(costs::network_decomposition(1024, 2) >= costs::network_decomposition(64, 2));
        assert!(costs::network_decomposition(64, 4) >= costs::network_decomposition(64, 2));
        assert!(
            costs::partial_network_decomposition(1024, 0.1)
                >= costs::partial_network_decomposition(1024, 0.5)
        );
        assert!(costs::lll(1 << 20, 3) >= costs::lll(1 << 10, 3));
    }
}
