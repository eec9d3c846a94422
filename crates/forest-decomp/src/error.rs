//! Error type for the decomposition algorithms.

use crate::api::{Engine, ProblemKind};
use forest_graph::{EdgeId, GraphError, ListAssignment, ReorderKind, ValidationError};
use std::error::Error;
use std::fmt;

/// Errors returned by the forest-decomposition algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum FdError {
    /// An edge's palette is too small for the requested decomposition.
    PaletteTooSmall {
        /// The offending edge.
        edge: EdgeId,
        /// Number of colors the algorithm needs on this edge.
        needed: usize,
        /// Number of colors actually available.
        available: usize,
    },
    /// No augmenting sequence was found for an uncolored edge within the
    /// allotted locality radius (indicates the palette/arboricity
    /// preconditions are violated).
    AugmentationFailed {
        /// The edge that could not be colored.
        edge: EdgeId,
    },
    /// The provided arboricity bound is smaller than what the graph requires.
    ArboricityBoundTooSmall {
        /// The bound that was supplied.
        bound: usize,
        /// A lower bound on the true arboricity.
        required: usize,
    },
    /// A randomized phase failed to converge within its round budget.
    NotConverged {
        /// Description of the phase.
        phase: String,
    },
    /// The algorithm requires a simple graph but was given parallel edges.
    NotSimple,
    /// An epsilon outside the supported range `(0, 1)` was supplied.
    InvalidEpsilon {
        /// The supplied value.
        epsilon: f64,
    },
    /// A produced decomposition failed validation (internal invariant
    /// violation; should not happen).
    InvalidDecomposition(ValidationError),
    /// The requested engine cannot solve the requested problem kind (the
    /// `Decomposer` facade returns this instead of panicking on any
    /// `(problem, engine)` pair).
    UnsupportedCombination {
        /// The requested problem.
        problem: ProblemKind,
        /// The engine that does not support it.
        engine: Engine,
    },
    /// A request artifact (explicit palettes, a report being re-validated)
    /// does not match the graph it was paired with.
    GraphMismatch {
        /// Edge count the artifact was built for.
        expected_edges: usize,
        /// Edge count of the graph actually supplied.
        actual_edges: usize,
    },
    /// An orientation artifact assigns an edge a tail that is not one of its
    /// endpoints in the graph it is validated against.
    InvalidOrientation {
        /// The offending edge.
        edge: EdgeId,
    },
    /// A list problem reached an engine without resolved palettes (engines
    /// driven directly must supply them; the `Decomposer` always does).
    MissingPalettes {
        /// The list problem that was requested.
        problem: ProblemKind,
    },
    /// An I/O failure while loading or saving a graph (mmap inputs).
    Io {
        /// What was being done, including the underlying error text.
        context: String,
    },
    /// `run_sharded` only composes problems whose per-shard artifacts merge
    /// safely across vertex-disjoint shards (currently: `Forest`).
    ShardingUnsupported {
        /// The problem that was requested.
        problem: ProblemKind,
    },
    /// `run_sharded` or `run_out_of_core` was asked for zero shards. (The
    /// low-level `ShardPlan::new` clamps instead, documented; the facade
    /// rejects so a misconfigured caller hears about it.)
    InvalidShardCount {
        /// The shard count that was requested.
        requested: usize,
    },
    /// `run_out_of_core` cuts along the identity vertex order only: a
    /// BFS/RCM reorder relabels the whole graph first, an `O(n + m)` copy
    /// its bounded shard walk exists to avoid. (`run_sharded` supports
    /// every order.)
    ReorderUnsupported {
        /// The order the request asked for.
        reorder: ReorderKind,
    },
    /// The `DynamicDecomposer` only maintains problems whose coloring stays
    /// valid under edge-local recoloring (currently: `Forest`).
    DynamicUnsupported {
        /// The problem that was requested.
        problem: ProblemKind,
    },
    /// An update named an edge id that is not live (never inserted, or
    /// already deleted — dynamic edge ids are retired, not reused).
    UnknownEdge {
        /// The offending edge id.
        edge: EdgeId,
    },
    /// An update was structurally invalid at the graph layer (endpoint out
    /// of range, self-loop).
    Graph(GraphError),
}

impl fmt::Display for FdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FdError::PaletteTooSmall {
                edge,
                needed,
                available,
            } => write!(
                f,
                "palette of edge {edge} has {available} colors but {needed} are needed"
            ),
            FdError::AugmentationFailed { edge } => {
                write!(f, "no augmenting sequence found for edge {edge}")
            }
            FdError::ArboricityBoundTooSmall { bound, required } => write!(
                f,
                "arboricity bound {bound} is below the required value {required}"
            ),
            FdError::NotConverged { phase } => {
                write!(f, "randomized phase did not converge: {phase}")
            }
            FdError::NotSimple => write!(f, "algorithm requires a simple graph"),
            FdError::InvalidEpsilon { epsilon } => {
                write!(f, "epsilon {epsilon} outside the supported range (0, 1)")
            }
            FdError::InvalidDecomposition(err) => {
                write!(f, "produced decomposition failed validation: {err}")
            }
            FdError::UnsupportedCombination { problem, engine } => {
                write!(f, "engine {engine} does not support the {problem} problem")
            }
            FdError::GraphMismatch {
                expected_edges,
                actual_edges,
            } => write!(
                f,
                "artifact was built for {expected_edges} edges but the graph has {actual_edges}"
            ),
            FdError::InvalidOrientation { edge } => write!(
                f,
                "orientation tail of edge {edge} is not one of its endpoints"
            ),
            FdError::MissingPalettes { problem } => write!(
                f,
                "the {problem} problem requires palettes; run it through the Decomposer \
                 or pass lists to the engine"
            ),
            FdError::Io { context } => write!(f, "graph I/O failed: {context}"),
            FdError::ShardingUnsupported { problem } => write!(
                f,
                "run_sharded does not support the {problem} problem (per-shard artifacts \
                 only merge safely for forest decomposition)"
            ),
            FdError::InvalidShardCount { requested } => write!(
                f,
                "run_sharded requires at least one shard (got {requested})"
            ),
            FdError::ReorderUnsupported { reorder } => write!(
                f,
                "run_out_of_core splits along the identity vertex order only (got \
                 {reorder:?}); use run_sharded for a reordered split"
            ),
            FdError::DynamicUnsupported { problem } => write!(
                f,
                "the DynamicDecomposer does not maintain the {problem} problem (recoloring \
                 an update's neighborhood only preserves plain forest colorings)"
            ),
            FdError::UnknownEdge { edge } => {
                write!(
                    f,
                    "edge {edge} is not live (never inserted or already deleted)"
                )
            }
            FdError::Graph(err) => write!(f, "invalid update: {err}"),
        }
    }
}

impl Error for FdError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FdError::InvalidDecomposition(err) => Some(err),
            FdError::Graph(err) => Some(err),
            _ => None,
        }
    }
}

impl From<GraphError> for FdError {
    fn from(err: GraphError) -> Self {
        FdError::Graph(err)
    }
}

impl From<ValidationError> for FdError {
    fn from(err: ValidationError) -> Self {
        FdError::InvalidDecomposition(err)
    }
}

/// Validates that epsilon lies in the supported range `(0, 1)`.
pub fn check_epsilon(epsilon: f64) -> Result<(), FdError> {
    if epsilon > 0.0 && epsilon < 1.0 && epsilon.is_finite() {
        Ok(())
    } else {
        Err(FdError::InvalidEpsilon { epsilon })
    }
}

/// `⌈(1+ε)·x⌉`: the palette size and out-degree budget of the paper's
/// `(1+ε)α` bounds.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a ceiling of a finite non-negative count; `as` saturates"
)]
pub(crate) fn one_plus_eps_ceil(epsilon: f64, x: usize) -> usize {
    ((1.0 + epsilon) * x as f64).ceil() as usize
}

/// Validates that every palette holds at least `needed` colors, naming the
/// first edge whose palette is short.
pub(crate) fn check_palettes(lists: &ListAssignment, needed: usize) -> Result<(), FdError> {
    match lists.first_short_palette(needed) {
        Some((edge, available)) => Err(FdError::PaletteTooSmall {
            edge,
            needed,
            available,
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = FdError::PaletteTooSmall {
            edge: EdgeId::new(3),
            needed: 5,
            available: 2,
        };
        let text = err.to_string();
        assert!(text.contains("e3"));
        assert!(text.contains('5'));
        assert!(text.contains('2'));
    }

    #[test]
    fn epsilon_validation() {
        assert!(check_epsilon(0.25).is_ok());
        assert!(check_epsilon(0.0).is_err());
        assert!(check_epsilon(1.0).is_err());
        assert!(check_epsilon(-0.5).is_err());
        assert!(check_epsilon(f64::NAN).is_err());
    }

    #[test]
    fn validation_error_converts() {
        let inner = ValidationError::UncoloredEdge {
            edge: EdgeId::new(1),
        };
        let err: FdError = inner.clone().into();
        assert_eq!(err, FdError::InvalidDecomposition(inner));
        assert!(std::error::Error::source(&err).is_some());
    }
}
