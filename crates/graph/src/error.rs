//! Error types for the graph substrate.

use crate::{Color, EdgeId, VertexId};
use std::error::Error;
use std::fmt;

/// Errors produced while constructing or mutating graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A vertex index was outside `0..n`.
    VertexOutOfRange {
        /// The offending vertex.
        vertex: VertexId,
        /// The number of vertices in the graph.
        num_vertices: usize,
    },
    /// An edge index was outside `0..m`.
    EdgeOutOfRange {
        /// The offending edge.
        edge: EdgeId,
        /// The number of edges in the graph.
        num_edges: usize,
    },
    /// A self-loop was rejected (forests never contain self-loops).
    SelfLoop {
        /// The vertex at both endpoints.
        vertex: VertexId,
    },
    /// A parallel edge was rejected by a [`SimpleGraph`](crate::SimpleGraph).
    ParallelEdge {
        /// One endpoint.
        u: VertexId,
        /// Other endpoint.
        v: VertexId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} is out of range for a graph with {num_vertices} vertices"
            ),
            GraphError::EdgeOutOfRange { edge, num_edges } => write!(
                f,
                "edge {edge} is out of range for a graph with {num_edges} edges"
            ),
            GraphError::SelfLoop { vertex } => {
                write!(f, "self-loop at {vertex} rejected")
            }
            GraphError::ParallelEdge { u, v } => {
                write!(
                    f,
                    "parallel edge between {u} and {v} rejected by simple graph"
                )
            }
        }
    }
}

impl Error for GraphError {}

/// Errors produced while validating decompositions, orientations or palettes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// An edge is missing a color where a complete decomposition was required.
    UncoloredEdge {
        /// The uncolored edge.
        edge: EdgeId,
    },
    /// A color class contains a cycle, so it is not a forest.
    CycleInColorClass {
        /// The offending color.
        color: Color,
        /// An edge of the class's cycles: the union-find validators name the
        /// edge that closes one; the diameter peel
        /// ([`ForestDecomposition::max_diameter`](crate::ForestDecomposition::max_diameter))
        /// names the lowest-id edge it could not peel, which lies on a cycle
        /// or on a path joining two.
        witness: EdgeId,
    },
    /// A color class contains a path with three edges, so it is not a star-forest.
    NotAStarForest {
        /// The offending color.
        color: Color,
        /// The middle vertex of a three-edge path.
        witness: VertexId,
    },
    /// An edge was assigned a color outside its palette.
    ColorNotInPalette {
        /// The offending edge.
        edge: EdgeId,
        /// The color that was assigned.
        color: Color,
    },
    /// A tree in some color class exceeds the requested diameter bound.
    DiameterExceeded {
        /// The offending color.
        color: Color,
        /// The measured diameter.
        measured: usize,
        /// The allowed bound.
        bound: usize,
    },
    /// The number of colors used exceeds the requested bound.
    TooManyColors {
        /// Colors actually used.
        used: usize,
        /// The allowed bound.
        bound: usize,
    },
    /// The coloring vector length does not match the number of edges.
    LengthMismatch {
        /// Length of the coloring.
        coloring_len: usize,
        /// Number of edges in the graph.
        num_edges: usize,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::UncoloredEdge { edge } => {
                write!(f, "edge {edge} is uncolored in a complete decomposition")
            }
            ValidationError::CycleInColorClass { color, witness } => write!(
                f,
                "color class {color} contains a cycle (witness edge {witness})"
            ),
            ValidationError::NotAStarForest { color, witness } => write!(
                f,
                "color class {color} contains a 3-edge path through vertex {witness}"
            ),
            ValidationError::ColorNotInPalette { edge, color } => {
                write!(
                    f,
                    "edge {edge} was assigned color {color} outside its palette"
                )
            }
            ValidationError::DiameterExceeded {
                color,
                measured,
                bound,
            } => write!(
                f,
                "color class {color} has tree diameter {measured}, exceeding bound {bound}"
            ),
            ValidationError::TooManyColors { used, bound } => {
                write!(
                    f,
                    "decomposition uses {used} colors, exceeding bound {bound}"
                )
            }
            ValidationError::LengthMismatch {
                coloring_len,
                num_edges,
            } => write!(
                f,
                "coloring has {coloring_len} entries but the graph has {num_edges} edges"
            ),
        }
    }
}

impl Error for ValidationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_error_display_is_informative() {
        let err = GraphError::SelfLoop {
            vertex: VertexId::new(3),
        };
        assert!(err.to_string().contains("v3"));
        let err = GraphError::VertexOutOfRange {
            vertex: VertexId::new(9),
            num_vertices: 4,
        };
        assert!(err.to_string().contains("9"));
        assert!(err.to_string().contains("4"));
    }

    #[test]
    fn validation_error_display_is_informative() {
        let err = ValidationError::CycleInColorClass {
            color: Color::new(2),
            witness: EdgeId::new(7),
        };
        let text = err.to_string();
        assert!(text.contains("c2"));
        assert!(text.contains("e7"));
    }

    #[test]
    fn errors_implement_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<GraphError>();
        assert_err::<ValidationError>();
    }
}
