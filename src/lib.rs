//! Umbrella crate for the Harris–Su–Vu (PODC 2021) decomposition suite.
//!
//! Re-exports the workspace crates and the [`forest_decomp::api`] facade so a
//! single dependency is enough to drive every pipeline. See the repository
//! `README.md` for the quickstart.
//!
//! ```
//! use nash_williams::api::{Decomposer, DecompositionRequest, ProblemKind};
//! use nash_williams::forest_graph::generators;
//!
//! let g = generators::fat_path(32, 2);
//! let report = Decomposer::new(
//!     DecompositionRequest::new(ProblemKind::Forest).with_alpha(2).with_seed(1),
//! )
//! .run(&g)?;
//! assert!(report.num_colors >= 2);
//! # Ok::<(), nash_williams::forest_decomp::FdError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap)
)]

pub use forest_decomp;
pub use forest_graph;
pub use local_model;

/// The unified request/report facade (re-export of [`forest_decomp::api`]).
pub use forest_decomp::api;
