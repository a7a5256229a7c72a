//! Fork-join cost of the shim: microseconds per `par_iter_mut().for_each`
//! over N trivial items, next to the same loop run serially.
//!
//! `cargo run --release -p rayon --example fork_join`

use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("threads: {threads}");
    println!("{:>8} {:>14} {:>14}", "items", "region us", "serial us");
    for n in [2usize, 16, 128, 1000] {
        let mut v = vec![0u32; n];
        let reps = 20_000;
        // Warm-up: starts the pool and lets the workers reach their spin.
        for _ in 0..1000 {
            v.par_iter_mut().for_each(|x| *x = x.wrapping_add(1));
        }
        let t = Instant::now();
        for _ in 0..reps {
            black_box(&mut v)
                .par_iter_mut()
                .for_each(|x| *x = x.wrapping_add(1));
        }
        let region = t.elapsed().as_secs_f64() * 1e6 / reps as f64;
        let t = Instant::now();
        for _ in 0..reps {
            black_box(&mut v)
                .iter_mut()
                .for_each(|x| *x = x.wrapping_add(1));
        }
        let serial = t.elapsed().as_secs_f64() * 1e6 / reps as f64;
        println!("{n:>8} {region:>14.2} {serial:>14.3}");
    }
}
