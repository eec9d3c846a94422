//! Prints every reproduced result of the paper in the paper's order: the
//! rows of `bench::CLAIMS`, plus Table 1 as CSV. Exits non-zero on the
//! first row that breaks the paper's bound.

#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap)
)]

fn main() {
    for (_, check) in bench::CLAIMS {
        check();
    }
}
