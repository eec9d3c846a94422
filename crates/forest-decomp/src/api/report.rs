//! The report side of the facade: one result shape for every pipeline, plus
//! the [`Validate`] wiring onto the `forest_graph::decomposition` validators.

use super::{Engine, ProblemKind};
use crate::error::FdError;
use forest_graph::decomposition::{
    validate_forest_decomposition, validate_star_forest_decomposition,
};
use forest_graph::{ForestDecomposition, GraphView, ListAssignment, Orientation, ValidationError};
use local_model::RoundLedger;
use std::time::Duration;

/// The object a run produced.
#[derive(Clone, Debug, PartialEq)]
pub enum Artifact {
    /// A complete edge coloring whose classes are (star) forests.
    Decomposition(ForestDecomposition),
    /// An edge orientation (Corollary 1.1 output).
    Orientation {
        /// The orientation itself.
        orientation: Orientation,
        /// Its maximum out-degree.
        max_out_degree: usize,
    },
}

impl Artifact {
    /// The decomposition, if this artifact is one.
    pub fn decomposition(&self) -> Option<&ForestDecomposition> {
        match self {
            Artifact::Decomposition(fd) => Some(fd),
            Artifact::Orientation { .. } => None,
        }
    }

    /// The orientation, if this artifact is one.
    pub fn orientation(&self) -> Option<&Orientation> {
        match self {
            Artifact::Decomposition(_) => None,
            Artifact::Orientation { orientation, .. } => Some(orientation),
        }
    }
}

/// Whether the artifact was checked by the validators.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ValidationStatus {
    /// The run validated the artifact before returning it.
    Validated,
    /// Validation was disabled by the request.
    Skipped,
}

/// Everything a decomposition run reports, uniformly across problems and
/// engines.
///
/// Two runs of the same [`DecompositionRequest`](super::DecompositionRequest)
/// (same seed) on the same graph produce reports whose
/// [`canonical_bytes`](DecompositionReport::canonical_bytes) are identical;
/// only [`wall_clock`](DecompositionReport::wall_clock) varies, which is why
/// the canonical encoding excludes it.
#[derive(Clone, Debug)]
pub struct DecompositionReport {
    /// The problem that was solved.
    pub problem: ProblemKind,
    /// The engine that solved it.
    pub engine: Engine,
    /// The seed this run used.
    pub seed: u64,
    /// Number of edges of the input graph.
    pub num_edges: usize,
    /// The produced artifact.
    pub artifact: Artifact,
    /// Resolved per-edge palettes (list problems only).
    pub lists: Option<ListAssignment>,
    /// The arboricity bound the run was based on.
    pub arboricity: usize,
    /// Number of distinct colors (forests / stars) used, or the number of
    /// forests underlying an orientation.
    pub num_colors: usize,
    /// Maximum tree diameter of the (underlying) decomposition.
    pub max_diameter: usize,
    /// Edges that went through a leftover/recoloring phase.
    pub leftover_edges: usize,
    /// LOCAL round accounting.
    pub ledger: RoundLedger,
    /// Wall-clock time of the run (excluded from the canonical encoding).
    pub wall_clock: Duration,
    /// Whether the artifact was validated.
    pub validation: ValidationStatus,
}

fn push_u64(bytes: &mut Vec<u8>, v: u64) {
    bytes.extend_from_slice(&v.to_le_bytes());
}

fn push_str(bytes: &mut Vec<u8>, s: &str) {
    push_u64(bytes, s.len() as u64);
    bytes.extend_from_slice(s.as_bytes());
}

impl DecompositionReport {
    /// A stable byte encoding of everything the run computed, excluding the
    /// wall-clock time. Byte-identical across runs of the same request (same
    /// seed) on the same graph — the reproducibility contract of the facade.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        push_str(&mut bytes, &self.problem.to_string());
        push_str(&mut bytes, &self.engine.to_string());
        push_u64(&mut bytes, self.seed);
        push_u64(&mut bytes, self.arboricity as u64);
        push_u64(&mut bytes, self.num_colors as u64);
        push_u64(&mut bytes, self.max_diameter as u64);
        push_u64(&mut bytes, self.leftover_edges as u64);
        match &self.artifact {
            Artifact::Decomposition(fd) => {
                bytes.push(0);
                push_u64(&mut bytes, fd.num_edges() as u64);
                for e in 0..fd.num_edges() {
                    push_u64(
                        &mut bytes,
                        fd.color(forest_graph::EdgeId::new(e)).index() as u64,
                    );
                }
            }
            Artifact::Orientation {
                orientation,
                max_out_degree,
            } => {
                bytes.push(1);
                push_u64(&mut bytes, *max_out_degree as u64);
                push_u64(&mut bytes, self.num_edges as u64);
                for e in 0..self.num_edges {
                    push_u64(
                        &mut bytes,
                        orientation.tail(forest_graph::EdgeId::new(e)).index() as u64,
                    );
                }
            }
        }
        match &self.lists {
            None => bytes.push(0),
            Some(lists) => {
                bytes.push(1);
                push_u64(&mut bytes, lists.num_edges() as u64);
                for e in 0..lists.num_edges() {
                    let palette = lists.palette(forest_graph::EdgeId::new(e));
                    push_u64(&mut bytes, palette.len() as u64);
                    for c in palette {
                        push_u64(&mut bytes, c.index() as u64);
                    }
                }
            }
        }
        for charge in self.ledger.charges() {
            push_str(&mut bytes, &charge.label);
            push_u64(&mut bytes, charge.rounds as u64);
        }
        bytes.push(match self.validation {
            ValidationStatus::Validated => 1,
            ValidationStatus::Skipped => 0,
        });
        bytes
    }
}

/// Artifacts (and reports) that can be checked against the graph they were
/// computed from, using the `forest_graph::decomposition` validators.
pub trait Validate {
    /// Validates the artifact against any topology view; returns the typed
    /// validation failure if it is not what it claims to be.
    fn validate<G: GraphView>(&self, g: &G) -> Result<(), FdError>;
}

impl Validate for DecompositionReport {
    fn validate<G: GraphView>(&self, g: &G) -> Result<(), FdError> {
        if self.num_edges != g.num_edges() {
            return Err(FdError::GraphMismatch {
                expected_edges: self.num_edges,
                actual_edges: g.num_edges(),
            });
        }
        match &self.artifact {
            Artifact::Decomposition(fd) => {
                match self.problem {
                    ProblemKind::StarForest | ProblemKind::ListStarForest => {
                        validate_star_forest_decomposition(g, fd, None)?;
                    }
                    _ => {
                        validate_forest_decomposition(g, fd, Some(self.num_colors))?;
                    }
                }
                if self.problem.is_list() {
                    if let Some(lists) = &self.lists {
                        // Every edge is colored and the length is checked:
                        // read each color in place, with no partial copy.
                        let outside = g.edge_ids().find(|&e| !lists.contains(e, fd.color(e)));
                        if let Some(edge) = outside {
                            let color = fd.color(edge);
                            return Err(ValidationError::ColorNotInPalette { edge, color }.into());
                        }
                    }
                }
                Ok(())
            }
            Artifact::Orientation {
                orientation,
                max_out_degree,
            } => {
                // Check the orientation against the graph itself (every tail
                // must be an endpoint of its edge), not just against the
                // report's own bookkeeping.
                for e in g.edge_ids() {
                    if !g.is_endpoint(e, orientation.tail(e)) {
                        return Err(FdError::InvalidOrientation { edge: e });
                    }
                }
                let recomputed = orientation.max_out_degree(g);
                if recomputed != *max_out_degree {
                    return Err(FdError::NotConverged {
                        phase: format!(
                            "orientation reports max out-degree {max_out_degree} but \
                             recomputation gives {recomputed}"
                        ),
                    });
                }
                Ok(())
            }
        }
    }
}
