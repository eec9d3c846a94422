//! Distributed Lovász Local Lemma via parallel resampling.
//!
//! The paper repeatedly invokes the LLL algorithm of Chung–Pettie–Su \[CPS17\]
//! under the polynomially-strengthened condition `e·p·d² ≤ 1 − Ω(1)`: each
//! vertex draws private random variables, each *bad event* depends on the
//! variables of a bounded neighborhood, and the algorithm finds an assignment
//! avoiding every bad event in `O(log n)` rounds.
//!
//! We implement the Moser–Tardos style parallel resampling loop: in every
//! round all currently-violated events resample their variables
//! simultaneously (a superset of an independent set of violated events, which
//! only helps convergence in practice), and the loop ends when no bad event
//! holds. Under the paper's condition the expected number of rounds is
//! `O(log n)`; the simulator enforces a configurable round cap and reports
//! failure if it is exceeded, mirroring the "with high probability" guarantee.

use crate::rounds::RoundLedger;
use rand::Rng;

/// Predicate deciding whether a bad event currently holds on the variable
/// assignment.
pub type EventPredicate = Box<dyn Fn(&[u64]) -> bool>;

/// Resampling distribution: draws a fresh value for variable `i`.
pub type VariableSampler<'a, R> = Box<dyn FnMut(&mut R, usize) -> u64 + 'a>;

/// One bad event of an LLL instance over variables indexed by `usize`.
pub struct BadEvent {
    /// Indices of the variables this event reads.
    pub variables: Vec<usize>,
    /// Returns `true` if the event currently *holds* (i.e. is bad).
    pub holds: EventPredicate,
}

impl std::fmt::Debug for BadEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BadEvent")
            .field("variables", &self.variables)
            .finish_non_exhaustive()
    }
}

/// An LLL instance: variables with a resampling distribution plus bad events.
pub struct LllInstance<'a, R: Rng> {
    /// Number of variables.
    pub num_variables: usize,
    /// Samples a fresh value for variable `i`.
    pub sample: VariableSampler<'a, R>,
    /// The bad events to avoid.
    pub events: Vec<BadEvent>,
}

/// Outcome of running the LLL solver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LllOutcome {
    /// Final values of the variables (guaranteed to avoid all bad events when
    /// `converged` is true).
    pub values: Vec<u64>,
    /// Number of parallel resampling rounds executed.
    pub rounds: usize,
    /// Whether all bad events were avoided within the round cap.
    pub converged: bool,
}

/// Runs the parallel resampling LLL solver.
///
/// `max_rounds` caps the number of resampling rounds (use
/// `O(log n)`-proportional values to mirror \[CPS17\]). Rounds are charged to
/// `ledger` with the given dependency radius (each resampling round costs
/// `dependency_radius` LOCAL rounds, since an event must inspect the
/// variables in its neighborhood).
pub fn solve_lll<R: Rng>(
    mut instance: LllInstance<'_, R>,
    rng: &mut R,
    max_rounds: usize,
    dependency_radius: usize,
    ledger: &mut RoundLedger,
) -> LllOutcome {
    let mut values: Vec<u64> = (0..instance.num_variables)
        .map(|i| (instance.sample)(rng, i))
        .collect();
    let mut rounds = 0usize;
    let mut converged = false;
    while rounds < max_rounds {
        let violated: Vec<&BadEvent> = instance
            .events
            .iter()
            .filter(|ev| (ev.holds)(&values))
            .collect();
        if violated.is_empty() {
            converged = true;
            break;
        }
        // Parallel resampling: every variable of every violated event gets a
        // fresh sample (deduplicated so each variable is resampled once).
        let mut to_resample: Vec<usize> = violated
            .iter()
            .flat_map(|ev| ev.variables.iter().copied())
            .collect();
        to_resample.sort_unstable();
        to_resample.dedup();
        for i in to_resample {
            values[i] = (instance.sample)(rng, i);
        }
        rounds += 1;
    }
    if !converged {
        converged = instance.events.iter().all(|ev| !(ev.holds)(&values));
    }
    ledger.charge(
        "LLL parallel resampling",
        rounds.max(1) * dependency_radius.max(1),
    );
    LllOutcome {
        values,
        rounds,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn trivial_instance_with_no_events_converges_immediately() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ledger = RoundLedger::new();
        let instance = LllInstance {
            num_variables: 4,
            sample: Box::new(|rng: &mut StdRng, _| rng.gen_range(0..2u64)),
            events: Vec::new(),
        };
        let outcome = solve_lll(instance, &mut rng, 10, 1, &mut ledger);
        assert!(outcome.converged);
        assert_eq!(outcome.rounds, 0);
        assert_eq!(outcome.values.len(), 4);
    }

    #[test]
    fn avoids_all_equal_events_on_a_cycle() {
        // Variables on a cycle; bad event for each adjacent pair: both equal.
        // Each event has probability 1/2 per pair over {0,1} variables; use
        // a larger domain {0..7} so p = 1/8 and d = 2: e * p * d^2 < 1.
        let n = 50usize;
        let mut rng = StdRng::seed_from_u64(7);
        let mut ledger = RoundLedger::new();
        let events = (0..n)
            .map(|i| {
                let j = (i + 1) % n;
                BadEvent {
                    variables: vec![i, j],
                    holds: Box::new(move |vals: &[u64]| vals[i] == vals[j]),
                }
            })
            .collect();
        let instance = LllInstance {
            num_variables: n,
            sample: Box::new(|rng: &mut StdRng, _| rng.gen_range(0..8u64)),
            events,
        };
        let outcome = solve_lll(instance, &mut rng, 200, 1, &mut ledger);
        assert!(outcome.converged);
        for i in 0..n {
            assert_ne!(outcome.values[i], outcome.values[(i + 1) % n]);
        }
        assert!(ledger.total_rounds() >= 1);
    }

    #[test]
    fn impossible_instance_reports_non_convergence() {
        // A single event that always holds can never be avoided.
        let mut rng = StdRng::seed_from_u64(3);
        let mut ledger = RoundLedger::new();
        let instance = LllInstance {
            num_variables: 1,
            sample: Box::new(|rng: &mut StdRng, _| rng.gen_range(0..2u64)),
            events: vec![BadEvent {
                variables: vec![0],
                holds: Box::new(|_| true),
            }],
        };
        let outcome = solve_lll(instance, &mut rng, 5, 1, &mut ledger);
        assert!(!outcome.converged);
        assert_eq!(outcome.rounds, 5);
    }

    #[test]
    fn hypergraph_two_coloring() {
        // Classic LLL application: 2-color 40 ground elements so that no
        // "hyperedge" of 10 random elements is monochromatic. p = 2^-9,
        // d <= #edges = 30, so e p d^2 < 1 comfortably fails the simple bound
        // but parallel resampling still converges fast in practice.
        let ground = 40usize;
        let edges = 30usize;
        let mut rng = StdRng::seed_from_u64(11);
        let mut hyperedges = Vec::new();
        for _ in 0..edges {
            let mut members: Vec<usize> = (0..ground).collect();
            // Fisher-Yates prefix shuffle.
            for i in 0..10 {
                let j = rng.gen_range(i..ground);
                members.swap(i, j);
            }
            hyperedges.push(members[..10].to_vec());
        }
        let events = hyperedges
            .iter()
            .cloned()
            .map(|members| BadEvent {
                variables: members.clone(),
                holds: Box::new(move |vals: &[u64]| {
                    members.iter().all(|&i| vals[i] == 0) || members.iter().all(|&i| vals[i] == 1)
                }),
            })
            .collect();
        let mut ledger = RoundLedger::new();
        let instance = LllInstance {
            num_variables: ground,
            sample: Box::new(|rng: &mut StdRng, _| rng.gen_range(0..2u64)),
            events,
        };
        let outcome = solve_lll(instance, &mut rng, 500, 2, &mut ledger);
        assert!(outcome.converged);
        for members in &hyperedges {
            let first = outcome.values[members[0]];
            assert!(members.iter().any(|&i| outcome.values[i] != first));
        }
    }
}
