//! Bounded memory on hostile color ids: the diameter and rooting kernels,
//! every validator and `num_colors_used` run on colorings whose ids reach
//! `u32::MAX`, and nothing they allocate may be sized by the largest id.
//!
//! A global allocator refuses every single request above 64 MiB, and the
//! process then aborts, so a structure sized by the largest id fails the
//! test before it touches memory (one byte per id up to `u32::MAX` is
//! 4 GiB). Each kernel must give on the hostile ids what it gives on their
//! ranks among the distinct ids, with an error naming the hostile id of
//! its rank's class.
//!
//! The `Decomposer` facade is not run here: `ColorConnectivity` still keeps
//! one slot per color id up to the largest.

use forest_graph::decomposition::{
    max_forest_diameter, validate_diameter_bound, validate_forest_decomposition,
    validate_list_coloring, validate_partial_forest_decomposition,
    validate_star_forest_decomposition, PartialEdgeColoring,
};
use forest_graph::{
    generators, Color, EdgeId, ForestDecomposition, ListAssignment, MultiGraph, ValidationError,
    VertexId,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::ptr;

/// The largest single allocation the bounded allocator grants.
const LIMIT: usize = 64 << 20;

/// Forwards to the system allocator, refusing (with a null pointer) every
/// request above [`LIMIT`] bytes.
struct Bounded;

// SAFETY: every granted request is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; a refusal returns null, which the
// contract allows.
unsafe impl GlobalAlloc for Bounded {
    // SAFETY: forwards to `System.alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > LIMIT {
            return ptr::null_mut();
        }
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards to `System.alloc_zeroed` with the caller's layout.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() > LIMIT {
            return ptr::null_mut();
        }
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: forwards to `System.realloc`; `ptr` came from this allocator,
    // which is `System` underneath.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > LIMIT {
            return ptr::null_mut();
        }
        // SAFETY: `ptr`/`layout` were produced by `System` via this type.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: forwards to `System.dealloc`; `ptr` came from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` were produced by `System` via this type.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Bounded = Bounded;

/// The ids the colorings draw from, ascending.
const HOSTILE: [u32; 6] = [0, 1, 1 << 16, 1 << 31, u32::MAX - 1, u32::MAX];

fn hostile(i: usize) -> Color {
    Color::new(HOSTILE[i] as usize)
}

/// Named graphs with colorings over [`HOSTILE`] ids: `path(64)` in runs of
/// 11 edges per id, complete and with every seventh edge uncolored; a
/// union of three spanning trees on 12 vertices colored 2^31,
/// `u32::MAX − 1` and `u32::MAX` tree by tree, plus one more edge colored
/// 2^16; and the same graph plus a triangle colored `u32::MAX − 1`, which
/// makes that class not a forest.
fn hostile_colorings() -> Vec<(&'static str, MultiGraph, Vec<Option<Color>>)> {
    let path = generators::path(64);
    let runs: Vec<Option<Color>> = (0..63).map(|i| Some(hostile(i / 11))).collect();
    let holes = (0..63)
        .map(|i| (i % 7 != 6).then(|| hostile(i / 11)))
        .collect();
    let mut planted = generators::planted_forest_union(12, 3, &mut StdRng::seed_from_u64(7));
    let mut trees: Vec<Option<Color>> = (0..planted.num_edges())
        .map(|i| Some(hostile(3 + i / 11)))
        .collect();
    let add = |g: &mut MultiGraph, a: usize, b: usize| {
        g.add_edge(VertexId::new(a), VertexId::new(b))
            .expect("distinct endpoints");
    };
    add(&mut planted, 3, 4);
    trees.push(Some(hostile(2)));
    let forest = planted.clone();
    let mut cyclic = trees.clone();
    for (a, b) in [(0, 1), (1, 2), (2, 0)] {
        add(&mut planted, a, b);
        cyclic.push(Some(hostile(4)));
    }
    vec![
        ("path runs", path.clone(), runs),
        ("path with holes", path, holes),
        ("planted trees", forest, trees),
        ("planted trees and a triangle", planted, cyclic),
    ]
}

/// Each id replaced by its rank among the distinct ids, and those ids.
fn ranked(colors: &[Option<Color>]) -> (Vec<Option<Color>>, Vec<Color>) {
    let mut distinct: Vec<Color> = colors.iter().flatten().copied().collect();
    distinct.sort_unstable();
    distinct.dedup();
    let rank = |c: Color| Color::new(distinct.binary_search(&c).expect("a listed id"));
    (colors.iter().map(|c| c.map(rank)).collect(), distinct)
}

/// A result on the ranks, with an error's rank mapped back to its id.
fn unranked<T>(result: Result<T, ValidationError>, ids: &[Color]) -> Result<T, ValidationError> {
    let id = |c: Color| ids[c.index()];
    result.map_err(|err| match err {
        ValidationError::CycleInColorClass { color, witness } => {
            ValidationError::CycleInColorClass {
                color: id(color),
                witness,
            }
        }
        ValidationError::NotAStarForest { color, witness } => ValidationError::NotAStarForest {
            color: id(color),
            witness,
        },
        ValidationError::DiameterExceeded {
            color,
            measured,
            bound,
        } => ValidationError::DiameterExceeded {
            color: id(color),
            measured,
            bound,
        },
        other => other,
    })
}

#[test]
fn the_bounded_allocator_refuses_large_requests() {
    let mut granted: Vec<u8> = Vec::new();
    assert!(granted.try_reserve_exact(LIMIT).is_ok());
    let mut refused: Vec<u8> = Vec::new();
    assert!(refused.try_reserve_exact(LIMIT + 1).is_err());
}

#[test]
fn kernels_on_hostile_ids_match_their_ranks() {
    for (what, g, colors) in hostile_colorings() {
        assert!(
            colors.iter().flatten().any(|c| c.index() > 1 << 30),
            "{what}: ids near u32::MAX"
        );
        let (ranks, ids) = ranked(&colors);
        let partial = PartialEdgeColoring::from_colors(colors.clone());
        let by_rank = PartialEdgeColoring::from_colors(ranks.clone());
        assert_eq!(partial.num_colors_used(), ids.len(), "{what}");
        let forests = validate_partial_forest_decomposition(&g, &partial);
        assert_eq!(
            forests,
            unranked(validate_partial_forest_decomposition(&g, &by_rank), &ids),
            "{what}"
        );
        assert_eq!(
            partial.rooted_edges(&g),
            unranked(by_rank.rooted_edges(&g), &ids),
            "{what}"
        );
        if forests.is_ok() {
            assert_eq!(
                max_forest_diameter(&g, &partial),
                max_forest_diameter(&g, &by_rank),
                "{what}"
            );
            for bound in 0..13 {
                assert_eq!(
                    validate_diameter_bound(&g, &partial, bound),
                    unranked(validate_diameter_bound(&g, &by_rank, bound), &ids),
                    "{what} at bound {bound}"
                );
            }
        }
        let (Ok(fd), Ok(fd_ranks)) = (partial.into_complete(), by_rank.into_complete()) else {
            continue;
        };
        assert_eq!(fd.num_colors_used(), ids.len(), "{what}");
        assert_eq!(
            fd.max_diameter(&g),
            unranked(fd_ranks.max_diameter(&g), &ids),
            "{what}"
        );
        assert_eq!(
            fd.rooted_edges(&g),
            unranked(fd_ranks.rooted_edges(&g), &ids),
            "{what}"
        );
        for bound in [None, Some(ids.len()), Some(ids.len() - 1)] {
            assert_eq!(
                validate_forest_decomposition(&g, &fd, bound),
                unranked(validate_forest_decomposition(&g, &fd_ranks, bound), &ids),
                "{what} with at most {bound:?} colors"
            );
            assert_eq!(
                validate_star_forest_decomposition(&g, &fd, bound),
                unranked(
                    validate_star_forest_decomposition(&g, &fd_ranks, bound),
                    &ids
                ),
                "{what} with at most {bound:?} colors"
            );
        }
    }
}

/// The triangle's class is the one the kernels reject, on hostile ids as
/// on ranks: `u32::MAX − 1`, which no structure indexed by id could hold.
#[test]
fn the_cycle_is_named_by_its_hostile_id() {
    let (_, g, colors) = hostile_colorings().pop().expect("the cyclic coloring");
    let fd = PartialEdgeColoring::from_colors(colors)
        .into_complete()
        .expect("every edge colored");
    let class = Color::new(HOSTILE[4] as usize);
    for result in [
        fd.max_diameter(&g).map(|_| ()),
        fd.rooted_edges(&g).map(|_| ()),
        validate_forest_decomposition(&g, &fd, None),
    ] {
        match result {
            Err(ValidationError::CycleInColorClass { color, .. }) => assert_eq!(color, class),
            other => panic!("expected a cycle in class {class}, got {other:?}"),
        }
    }
}

#[test]
fn list_colorings_with_hostile_ids_validate() {
    let g = generators::path(64);
    let colors: Vec<Color> = (0..63).map(|i| hostile(i / 11)).collect();
    let palettes: Vec<Vec<Color>> = colors
        .iter()
        .map(|&c| vec![c, Color::new(c.index() ^ 1)])
        .collect();
    let coloring = PartialEdgeColoring::from_colors(colors.iter().map(|&c| Some(c)).collect());
    let lists = ListAssignment::from_palettes(palettes.clone());
    assert_eq!(validate_list_coloring(&g, &coloring, &lists), Ok(()));
    let mut shifted = palettes;
    shifted[62] = vec![Color::new(0)];
    let lists = ListAssignment::from_palettes(shifted);
    assert_eq!(
        validate_list_coloring(&g, &coloring, &lists),
        Err(ValidationError::ColorNotInPalette {
            edge: EdgeId::new(62),
            color: hostile(5),
        })
    );
    let fd = ForestDecomposition::from_colors(colors);
    assert_eq!(fd.num_colors_used(), HOSTILE.len());
}
