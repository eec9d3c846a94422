//! Strongly-typed identifiers for vertices, edges and colors.
//!
//! All identifiers are thin wrappers around `u32` indices into the owning
//! [`MultiGraph`](crate::MultiGraph) (or into a color space). Using newtypes
//! keeps vertex, edge and color indices from being mixed up silently.

use std::fmt;

/// Audited narrowing of a dense index to `u32`.
///
/// Every identifier in the workspace is internally `u32` (graphs are bounded
/// at `u32::MAX` vertices/edges), so this conversion is lossless for every
/// reachable index; the debug assertion documents and enforces that bound.
/// Code outside this helper must not write bare `expr as u32` — clippy's
/// `cast_possible_truncation` rejects it.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "the single audited usize -> u32 narrowing; the bound is asserted above"
)]
pub fn u32_of(index: usize) -> u32 {
    debug_assert!(index <= u32::MAX as usize, "index {index} overflows u32");
    index as u32
}

/// Identifier of a vertex in a [`MultiGraph`](crate::MultiGraph).
///
/// Vertices are numbered densely from `0` to `n - 1`.
///
/// ```
/// use forest_graph::VertexId;
/// let v = VertexId::new(3);
/// assert_eq!(v.index(), 3);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VertexId(u32);

/// Identifier of an edge in a [`MultiGraph`](crate::MultiGraph).
///
/// Edges are numbered densely from `0` to `m - 1` in insertion order. Parallel
/// edges receive distinct identifiers.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EdgeId(u32);

/// A color in a forest-decomposition / list-coloring color space.
///
/// Colors are abstract labels; the decomposition algorithms interpret a color
/// class as the set of edges assigned that color.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Color(u32);

macro_rules! impl_id {
    ($ty:ident, $name:expr) => {
        impl $ty {
            /// Creates an identifier from a dense index.
            #[inline]
            pub fn new(index: usize) -> Self {
                debug_assert!(index <= u32::MAX as usize, "{} index overflow", $name);
                $ty(crate::ids::u32_of(index))
            }

            /// Returns the dense index wrapped by this identifier.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Returns the raw `u32` value.
            #[inline]
            pub fn raw(self) -> u32 {
                self.0
            }
        }

        impl From<usize> for $ty {
            fn from(index: usize) -> Self {
                $ty::new(index)
            }
        }

        impl From<$ty> for usize {
            fn from(id: $ty) -> usize {
                id.index()
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $name, self.0)
            }
        }
    };
}

impl_id!(VertexId, "v");
impl_id!(EdgeId, "e");
impl_id!(Color, "c");

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn vertex_roundtrip() {
        let v = VertexId::new(42);
        assert_eq!(v.index(), 42);
        assert_eq!(v.raw(), 42);
        assert_eq!(usize::from(v), 42);
        assert_eq!(VertexId::from(42usize), v);
    }

    #[test]
    fn edge_roundtrip() {
        let e = EdgeId::new(7);
        assert_eq!(e.index(), 7);
        assert_eq!(EdgeId::from(7usize), e);
    }

    #[test]
    fn color_roundtrip() {
        let c = Color::new(0);
        assert_eq!(c.index(), 0);
        assert_eq!(Color::default(), c);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        let mut set = HashSet::new();
        set.insert(VertexId::new(1));
        set.insert(VertexId::new(2));
        set.insert(VertexId::new(1));
        assert_eq!(set.len(), 2);
        assert!(VertexId::new(1) < VertexId::new(2));
        assert!(Color::new(3) > Color::new(1));
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(VertexId::new(5).to_string(), "v5");
        assert_eq!(EdgeId::new(5).to_string(), "e5");
        assert_eq!(Color::new(5).to_string(), "c5");
    }
}
