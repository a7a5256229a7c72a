//! Uniform mini-batch sampling over a [`Dataset`].

use crate::dataset::Dataset;
use middle_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// Draws one uniform random batch (with replacement) — the `ξ_m^t`
/// stochastic mini-batch of the paper's local update (Eq. 1).
pub fn random_batch(dataset: &Dataset, batch: usize, rng: &mut StdRng) -> (Tensor, Vec<usize>) {
    assert!(!dataset.is_empty(), "cannot sample from an empty dataset");
    assert!(batch > 0, "batch size must be positive");
    let idxs: Vec<usize> = (0..batch)
        .map(|_| rng.gen_range(0..dataset.len()))
        .collect();
    dataset.gather(&idxs)
}

/// [`random_batch`] into caller-provided buffers: draws exactly the same
/// index sequence from `rng` (bitwise-identical batches for a given rng
/// state), gathering into `x`/`y` via [`Dataset::gather_into`]. `idxs` is
/// the reused index buffer.
pub fn random_batch_into(
    dataset: &Dataset,
    batch: usize,
    rng: &mut StdRng,
    idxs: &mut Vec<usize>,
    x: &mut Tensor,
    y: &mut Vec<usize>,
) {
    assert!(!dataset.is_empty(), "cannot sample from an empty dataset");
    assert!(batch > 0, "batch size must be positive");
    idxs.clear();
    idxs.extend((0..batch).map(|_| rng.gen_range(0..dataset.len())));
    dataset.gather_into(idxs, x, y);
}

#[cfg(test)]
mod tests {
    use super::*;
    use middle_tensor::random::rng;

    fn ds(n: usize) -> Dataset {
        Dataset::new(
            Tensor::from_vec([n, 1], (0..n).map(|i| i as f32).collect()),
            (0..n).map(|i| i % 3).collect(),
            3,
        )
    }

    #[test]
    fn random_batch_is_seed_deterministic() {
        let d = ds(20);
        let (a, la) = random_batch(&d, 5, &mut rng(7));
        let (b, lb) = random_batch(&d, 5, &mut rng(7));
        assert_eq!(a, b);
        assert_eq!(la, lb);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn random_batch_of_empty_panics() {
        let d = Dataset::empty(&[1], 2);
        random_batch(&d, 1, &mut rng(1));
    }

    #[test]
    fn random_batch_into_matches_allocating_path() {
        let d = ds(20);
        let mut idxs = Vec::new();
        let mut x = Tensor::zeros([0]);
        let mut y = Vec::new();
        // Same rng seed must produce identical draws on both paths, and
        // reusing dirty buffers (second draw) must not leak stale data.
        let mut ra = rng(7);
        let mut rb = rng(7);
        for batch in [5, 3, 8] {
            let (ax, ay) = random_batch(&d, batch, &mut ra);
            random_batch_into(&d, batch, &mut rb, &mut idxs, &mut x, &mut y);
            assert_eq!(ax, x);
            assert_eq!(ay, y);
        }
    }
}
