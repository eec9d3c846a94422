//! Model test of `ListAssignment`, flat or uniform: every constructor,
//! query and mutator must agree with a plain `Vec<Vec<Color>>` of sorted,
//! deduplicated palettes.

use forest_graph::{Color, EdgeId, ListAssignment};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeSet;

type Model = Vec<Vec<Color>>;

fn normalized(mut palette: Vec<Color>) -> Vec<Color> {
    palette.sort_unstable();
    palette.dedup();
    palette
}

/// An unsorted palette with repeats (possibly empty) over `0..space`.
fn raw_palette(rng: &mut StdRng, space: usize) -> Vec<Color> {
    let len = rng.gen_range(0..2 * space + 1);
    (0..len)
        .map(|_| Color::new(rng.gen_range(0..space)))
        .collect()
}

/// Every query of `lists` answers as the model does.
fn agrees(lists: &ListAssignment, model: &Model, space: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(lists.num_edges(), model.len());
    prop_assert_eq!(lists.is_empty(), model.is_empty());
    for (i, palette) in model.iter().enumerate() {
        let e = EdgeId::new(i);
        prop_assert_eq!(lists.palette(e), palette.as_slice());
        for c in (0..space + 2).map(Color::new) {
            prop_assert_eq!(lists.contains(e, c), palette.contains(&c));
        }
    }
    let sizes = model.iter().map(Vec::len);
    prop_assert_eq!(
        lists.min_palette_size(),
        sizes.clone().min().unwrap_or(usize::MAX)
    );
    prop_assert_eq!(lists.max_palette_size(), sizes.max().unwrap_or(0));
    let distinct: BTreeSet<Color> = model.iter().flatten().copied().collect();
    prop_assert_eq!(lists.colorspace_size(), distinct.len());
    // The same palettes built in one go compare equal: the layout holds no
    // trace of how it was reached.
    prop_assert!(*lists == ListAssignment::from_palettes(model.clone()));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn uniform_matches_the_model((m, k) in (0..24usize, 0..7usize)) {
        let model: Model = vec![(0..k).map(Color::new).collect(); m];
        agrees(&ListAssignment::uniform(m, k), &model, k)?;
    }

    #[test]
    fn random_draws_what_per_edge_palettes_drew(
        (m, space, size, seed) in (0..24usize, 1..9usize, 0..9usize, 0..u64::MAX)
    ) {
        let size = size.min(space);
        let mut rng = StdRng::seed_from_u64(seed);
        let lists = ListAssignment::random(m, space, size, &mut rng);
        // The per-edge construction, drawing from an identical stream.
        let mut model_rng = StdRng::seed_from_u64(seed);
        let all: Vec<Color> = (0..space).map(Color::new).collect();
        let model: Model = (0..m)
            .map(|_| normalized(all.choose_multiple(&mut model_rng, size).copied().collect()))
            .collect();
        agrees(&lists, &model, space)?;
        // Both consumed the stream identically.
        prop_assert_eq!(rng.next_u64(), model_rng.next_u64());
    }

    #[test]
    fn filter_and_set_palette_track_the_model(
        (m, space, steps, seed) in (0..16usize, 1..8usize, 0..12usize, 0..u64::MAX)
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let raw: Model = (0..m).map(|_| raw_palette(&mut rng, space)).collect();
        let mut model: Model = raw.iter().cloned().map(normalized).collect();
        let mut lists = ListAssignment::from_palettes(raw);
        agrees(&lists, &model, space)?;
        for _ in 0..steps {
            match rng.gen_range(0..3usize) {
                // Keep a pseudo-random subset of the (edge, color) pairs.
                0 => {
                    let a = rng.gen_range(0..7usize);
                    let b = rng.gen_range(0..7usize);
                    let modulus = rng.gen_range(2..5usize);
                    let keep =
                        move |e: EdgeId, c: Color| !(a * e.index() + b * c.index()).is_multiple_of(modulus);
                    lists = lists.filter(keep);
                    for (i, palette) in model.iter_mut().enumerate() {
                        palette.retain(|&c| keep(EdgeId::new(i), c));
                    }
                }
                // Filter every palette to empty.
                1 if rng.gen_range(0..4usize) == 0 => {
                    lists = lists.filter(|_, _| false);
                    model.iter_mut().for_each(Vec::clear);
                }
                // Replace one palette, growing, shrinking or emptying it.
                _ if m > 0 => {
                    let i = rng.gen_range(0..m);
                    let palette = raw_palette(&mut rng, space);
                    lists.set_palette(EdgeId::new(i), palette.clone());
                    model[i] = normalized(palette);
                }
                _ => {}
            }
            agrees(&lists, &model, space)?;
        }
    }

    #[test]
    fn set_palette_turns_uniform_palettes_flat(
        (m, k, steps, seed) in (1..16usize, 0..6usize, 1..8usize, 0..u64::MAX)
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let space = k + 2;
        let mut lists = ListAssignment::uniform(m, k);
        let mut model: Model = vec![(0..k).map(Color::new).collect(); m];
        for _ in 0..steps {
            let i = rng.gen_range(0..m);
            let palette = raw_palette(&mut rng, space);
            lists.set_palette(EdgeId::new(i), palette.clone());
            model[i] = normalized(palette);
            agrees(&lists, &model, space)?;
        }
    }
}
