#![forbid(unsafe_code)]
//! Prints every table of EXPERIMENTS.md: the seeded tables first, then
//! the wall-clock ones (build with `--release` for meaningful timings).
//!
//! Run: `cargo run -p grandma-bench --release --bin experiments`

use grandma_bench::experiments::{DETERMINISTIC, TIMING};

fn main() {
    for (id, render) in DETERMINISTIC {
        println!("== {id} ==\n{}", render());
    }
    for (id, render) in TIMING {
        println!("== {id} (timing) ==\n{}", render());
    }
}
