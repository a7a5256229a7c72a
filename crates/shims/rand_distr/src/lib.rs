//! Offline drop-in stand-in for the `rand_distr` crate.
//!
//! Provides the two distributions this workspace samples — [`Normal`]
//! (Box–Muller–Marsaglia polar method) and [`Dirichlet`]
//! (Marsaglia–Tsang gamma sampling, normalised) — behind the same
//! `Distribution::sample` interface as the real crate.

use rand::{Rng, RngCore};

/// A sampleable distribution, mirroring `rand_distr::Distribution`.
pub trait Distribution<T> {
    /// Draws one value using `rng`.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// Floating-point scalars the distributions are generic over.
pub trait Float: Copy + PartialOrd {
    /// Converts from `f64` (used internally for the core samplers).
    fn from_f64(v: f64) -> Self;
    /// Converts to `f64`.
    fn to_f64(self) -> f64;
}

impl Float for f32 {
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
}

impl Float for f64 {
    fn from_f64(v: f64) -> Self {
        v
    }
    fn to_f64(self) -> f64 {
        self
    }
}

/// Error for invalid distribution parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamError(&'static str);

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for ParamError {}

/// An accepted draw of the Marsaglia polar method: `(u, s)` with
/// `s = u² + v²` inside the open unit disc.
pub type PolarPair = (f64, f64);

/// Stage 1 of the polar method for a whole buffer: fills `out` with the
/// accepted pairs of the next `out.len()` normal draws, consuming exactly
/// the random words those draws would. Everything sequential about
/// sampling is here; stage 2, [`Normal::from_pair`] (the `ln`, `sqrt` and
/// divide), can then run over `out` in any order, on any thread.
pub fn polar_pairs<R: RngCore + ?Sized>(rng: &mut R, out: &mut [PolarPair]) {
    let mut filled = 0;
    while filled < out.len() {
        let u = 2.0 * rng.gen::<f64>() - 1.0;
        let v = 2.0 * rng.gen::<f64>() - 1.0;
        let s = u * u + v * v;
        // Branch-free rejection (about one draw in five): a rejected pair
        // is overwritten by the next one.
        out[filled] = (u, s);
        filled += usize::from(s > 0.0 && s < 1.0);
    }
}

/// The standard-normal value of an accepted pair.
fn polar_value((u, s): PolarPair) -> f64 {
    u * (-2.0 * s.ln() / s).sqrt()
}

/// The accepted pair of one normal draw.
fn polar_pair<R: RngCore + ?Sized>(rng: &mut R) -> PolarPair {
    let mut pair = [(0.0, 0.0)];
    polar_pairs(rng, &mut pair);
    pair[0]
}

/// One standard-normal draw via the Marsaglia polar method.
fn standard_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    polar_value(polar_pair(rng))
}

/// Normal distribution `N(mean, std_dev²)`.
#[derive(Debug, Clone, Copy)]
pub struct Normal<F: Float> {
    mean: F,
    std_dev: F,
}

impl<F: Float> Normal<F> {
    /// Creates the distribution; `std_dev` must be finite and
    /// non-negative.
    pub fn new(mean: F, std_dev: F) -> Result<Self, ParamError> {
        let sd = std_dev.to_f64();
        if !sd.is_finite() || sd < 0.0 {
            return Err(ParamError("std_dev must be finite and non-negative"));
        }
        Ok(Normal { mean, std_dev })
    }

    /// Stage 2 of the polar method: the value [`Distribution::sample`]
    /// returns when its draw accepts `pair` (see [`polar_pairs`]).
    pub fn from_pair(&self, pair: PolarPair) -> F {
        F::from_f64(self.mean.to_f64() + self.std_dev.to_f64() * polar_value(pair))
    }
}

impl<F: Float> Distribution<F> for Normal<F> {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> F {
        self.from_pair(polar_pair(rng))
    }
}

/// One `Gamma(shape, 1)` draw via Marsaglia–Tsang (with the `U^{1/a}`
/// boost for `shape < 1`).
fn gamma<R: RngCore + ?Sized>(shape: f64, rng: &mut R) -> f64 {
    if shape < 1.0 {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u: f64 = rng.gen();
        if u < 1.0 - 0.0331 * x * x * x * x
            || u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln())
        {
            return d * v3;
        }
    }
}

/// Dirichlet distribution over the simplex, parameterised by
/// concentration `alpha` per component.
#[derive(Debug, Clone)]
pub struct Dirichlet<F: Float> {
    alpha: Vec<F>,
}

impl<F: Float> Dirichlet<F> {
    /// Creates the distribution; needs at least two components, all with
    /// positive finite concentration.
    pub fn new(alpha: &[F]) -> Result<Self, ParamError> {
        if alpha.len() < 2 {
            return Err(ParamError("Dirichlet needs at least two components"));
        }
        for a in alpha {
            let a = a.to_f64();
            if !a.is_finite() || a <= 0.0 {
                return Err(ParamError("Dirichlet alpha must be positive and finite"));
            }
        }
        Ok(Dirichlet {
            alpha: alpha.to_vec(),
        })
    }
}

impl<F: Float> Distribution<Vec<F>> for Dirichlet<F> {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> Vec<F> {
        let draws: Vec<f64> = self
            .alpha
            .iter()
            .map(|a| gamma(a.to_f64(), rng).max(f64::MIN_POSITIVE))
            .collect();
        let total: f64 = draws.iter().sum();
        draws.iter().map(|g| F::from_f64(g / total)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments_match() {
        let dist = Normal::new(2.0f64, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn two_stage_sampling_is_the_same_stream() {
        let dist = Normal::new(0.5f32, 1.5).unwrap();
        let mut one_by_one = StdRng::seed_from_u64(9);
        let mut staged = one_by_one.clone();
        let expected: Vec<f32> = (0..1000).map(|_| dist.sample(&mut one_by_one)).collect();
        let mut pairs = vec![(0.0, 0.0); 1000];
        polar_pairs(&mut staged, &mut pairs);
        let got: Vec<f32> = pairs.iter().map(|&p| dist.from_pair(p)).collect();
        assert_eq!(got, expected);
        // Both consumed the same number of random words.
        assert_eq!(staged.gen::<u64>(), one_by_one.gen::<u64>());
    }

    #[test]
    fn normal_rejects_negative_std() {
        assert!(Normal::new(0.0f32, -1.0).is_err());
        assert!(Normal::new(0.0f32, f32::NAN).is_err());
    }

    #[test]
    fn dirichlet_samples_live_on_the_simplex() {
        let dist = Dirichlet::new(&[0.3f32, 0.3, 0.3, 0.3]).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let p = dist.sample(&mut rng);
            assert_eq!(p.len(), 4);
            assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
            let total: f32 = p.iter().sum();
            assert!((total - 1.0).abs() < 1e-4, "sum {total}");
        }
    }

    #[test]
    fn dirichlet_low_alpha_is_sparse_high_alpha_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let sparse = Dirichlet::new(&vec![0.05f32; 8]).unwrap();
        let max_share: f32 = (0..50)
            .map(|_| {
                sparse
                    .sample(&mut rng)
                    .into_iter()
                    .fold(0.0f32, f32::max)
            })
            .sum::<f32>()
            / 50.0;
        assert!(max_share > 0.7, "sparse max share {max_share}");

        let flat = Dirichlet::new(&vec![100.0f32; 8]).unwrap();
        let flat_max: f32 = (0..50)
            .map(|_| flat.sample(&mut rng).into_iter().fold(0.0f32, f32::max))
            .sum::<f32>()
            / 50.0;
        assert!(flat_max < 0.25, "flat max share {flat_max}");
    }

    #[test]
    fn dirichlet_rejects_bad_alpha() {
        assert!(Dirichlet::new(&[1.0f32]).is_err());
        assert!(Dirichlet::new(&[1.0f32, 0.0]).is_err());
    }
}
