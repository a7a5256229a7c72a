//! Seeded random tensor initialisation.
//!
//! Every stochastic component in the reproduction flows through explicit
//! [`rand::rngs::StdRng`] seeds so that experiments are bit-reproducible;
//! nothing in the workspace touches thread-local RNG state.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{polar_pairs, Distribution, Normal};
use rayon::prelude::*;

/// Creates a deterministic RNG from a 64-bit seed.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child seed from a parent seed and a stream index.
///
/// SplitMix64-style mixing: distinct `(seed, stream)` pairs yield
/// decorrelated child streams, letting the simulator hand every device /
/// edge / dataset its own RNG without coordination.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Tensor with i.i.d. uniform entries in `[lo, hi)`.
pub fn uniform(
    shape: impl Into<crate::shape::Shape>,
    lo: f32,
    hi: f32,
    rng: &mut StdRng,
) -> Tensor {
    let shape = shape.into();
    let n = shape.len();
    let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
    Tensor::from_vec(shape, data)
}

/// Tensor with i.i.d. normal entries `N(mean, std²)`.
pub fn normal(
    shape: impl Into<crate::shape::Shape>,
    mean: f32,
    std: f32,
    rng: &mut StdRng,
) -> Tensor {
    let shape = shape.into();
    let n = shape.len();
    let dist = Normal::new(mean, std).expect("std must be finite and non-negative");
    let data = (0..n).map(|_| dist.sample(rng)).collect();
    Tensor::from_vec(shape, data)
}

/// Accepted polar pairs [`noisy_rows_into`] draws per block: 512 KiB, so
/// the block is still in L2 when the parallel stage reads it back.
const PAIR_BLOCK: usize = 32 * 1024;

/// Fills the rows of `out` (each `row_len` long) with
/// `gain_r · base_r[j] + z_rj`, consuming from `rng` exactly what a loop
/// of `noise.sample(rng)` calls in row order would: per row one lead
/// draw `g_r` — handed to `row(r, g_r)`, which returns `(gain_r, base_r)`
/// — then `row_len` noise draws `z_rj`.
///
/// Only the rejection sampling is sequential ([`polar_pairs`], into a
/// reused block buffer); the `ln`/`sqrt`/divide per draw and the fill run
/// as a parallel region over each block's rows. The result is bitwise
/// independent of block size and thread count.
pub fn noisy_rows_into<'a>(
    out: &mut [f32],
    row_len: usize,
    noise: &Normal<f32>,
    rng: &mut StdRng,
    row: impl Fn(usize, f32) -> (f32, &'a [f32]) + Sync,
) {
    assert!(row_len > 0, "rows must not be empty");
    assert_eq!(out.len() % row_len, 0, "out must hold whole rows");
    let draws_per_row = row_len + 1;
    let block_rows = (PAIR_BLOCK / draws_per_row).max(1);
    let mut pairs = vec![(0.0, 0.0); block_rows.min(out.len() / row_len) * draws_per_row];
    for (block, out_rows) in out.chunks_mut(block_rows * row_len).enumerate() {
        let pairs = &mut pairs[..out_rows.len() / row_len * draws_per_row];
        polar_pairs(rng, pairs);
        let pairs = &*pairs;
        out_rows
            .par_chunks_mut(row_len)
            .enumerate()
            .for_each(|(i, out_row)| {
                let draws = &pairs[i * draws_per_row..][..draws_per_row];
                let (gain, base) = row(block * block_rows + i, noise.from_pair(draws[0]));
                assert_eq!(base.len(), row_len, "base row length");
                for ((o, &b), &pair) in out_row.iter_mut().zip(base).zip(&draws[1..]) {
                    *o = gain * b + noise.from_pair(pair);
                }
            });
    }
}

/// Xavier/Glorot uniform initialisation for a layer with the given fan-in
/// and fan-out (appropriate for tanh/linear layers).
pub fn xavier_uniform(
    shape: impl Into<crate::shape::Shape>,
    fan_in: usize,
    fan_out: usize,
    rng: &mut StdRng,
) -> Tensor {
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(shape, -bound, bound, rng)
}

/// He/Kaiming normal initialisation (appropriate for ReLU layers).
pub fn he_normal(shape: impl Into<crate::shape::Shape>, fan_in: usize, rng: &mut StdRng) -> Tensor {
    let std = (2.0 / fan_in as f32).sqrt();
    normal(shape, 0.0, std, rng)
}

/// Fisher–Yates shuffled index permutation `0..n`.
pub fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_reproducible() {
        let a = uniform([16], 0.0, 1.0, &mut rng(42));
        let b = uniform([16], 0.0, 1.0, &mut rng(42));
        assert_eq!(a, b);
        let c = uniform([16], 0.0, 1.0, &mut rng(43));
        assert_ne!(a, c);
    }

    #[test]
    fn derive_seed_decorrelates_streams() {
        let s = 1234u64;
        let children: Vec<u64> = (0..8).map(|i| derive_seed(s, i)).collect();
        let mut sorted = children.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "child seeds must be distinct");
        assert_ne!(derive_seed(s, 0), derive_seed(s + 1, 0));
    }

    #[test]
    fn uniform_respects_bounds() {
        let t = uniform([1000], -2.0, 3.0, &mut rng(7));
        assert!(t.data().iter().all(|&x| (-2.0..3.0).contains(&x)));
    }

    #[test]
    fn normal_moments_roughly_match() {
        let t = normal([10_000], 1.0, 2.0, &mut rng(11));
        let mean = t.mean();
        let var = t
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f32>()
            / t.len() as f32;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn noisy_rows_match_the_per_draw_loop_across_blocks() {
        let noise = Normal::new(0.0f32, 0.7).unwrap();
        let bases = [vec![0.5f32; 300], vec![-1.25f32; 300]];
        // 300 rows of 301 draws: two full blocks of 108 rows and a part.
        let rows = 300;
        let mut expected = vec![0.0f32; rows * 300];
        let mut serial = rng(77);
        for (r, out_row) in expected.chunks_mut(300).enumerate() {
            let gain = 1.0 + 0.1 * noise.sample(&mut serial);
            for (o, &b) in out_row.iter_mut().zip(&bases[r % 2]) {
                *o = gain * b + noise.sample(&mut serial);
            }
        }
        let mut got = vec![0.0f32; rows * 300];
        let mut staged = rng(77);
        noisy_rows_into(&mut got, 300, &noise, &mut staged, |r, g| {
            (1.0 + 0.1 * g, &bases[r % 2])
        });
        assert_eq!(got, expected);
        assert_eq!(staged.gen::<u64>(), serial.gen::<u64>());
    }

    #[test]
    fn xavier_bound_scales_with_fans() {
        let t = xavier_uniform([1000], 100, 100, &mut rng(3));
        let bound = (6.0f32 / 200.0).sqrt();
        assert!(t.data().iter().all(|&x| x.abs() <= bound));
    }

    #[test]
    fn he_normal_std_scales_with_fan_in() {
        let t = he_normal([20_000], 50, &mut rng(5));
        let std = (t.data().iter().map(|x| x * x).sum::<f32>() / t.len() as f32).sqrt();
        let expected = (2.0f32 / 50.0).sqrt();
        assert!((std - expected).abs() < 0.02, "std {std} vs {expected}");
    }

    #[test]
    fn permutation_is_a_bijection() {
        let p = permutation(100, &mut rng(9));
        let mut seen = [false; 100];
        for &i in &p {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
