//! Seeded synthetic stand-ins for the paper's four benchmark datasets.
//!
//! The paper evaluates on MNIST, EMNIST-Letters, CIFAR10 and
//! SpeechCommands. Those corpora are unavailable here, and — crucially —
//! the phenomena MIDDLE studies are driven by *label-distribution skew*
//! across devices and edges, not by pixel statistics. Each task is
//! therefore modelled as a class-conditional prototype + structured noise
//! generator with a matching shape signature:
//!
//! | Task | Stand-in shape | Classes | Hardness knob |
//! |---|---|---|---|
//! | `mnist` | `[1, 16, 16]` | 10 | well-separated prototypes |
//! | `emnist` | `[1, 16, 16]` | 26 | more classes, same separation |
//! | `cifar10` | `[3, 16, 16]` | 10 | reduced separation + channel noise |
//! | `speech` | `[1, 1, 64]` | 10 | long sparse vectors (paper §6.2.2) |
//!
//! Prototypes are smooth random fields (low-frequency sinusoid mixtures),
//! so nearby pixels correlate like image data and convolution has real
//! structure to exploit. Every sample is `prototype[class] + per-sample
//! jitter`, fully determined by `(task, seed)`.

use crate::dataset::Dataset;
use middle_nn::InputSpec;
use middle_tensor::random::{derive_seed, noisy_rows_into, rng};
use middle_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::Rng;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// The four benchmark tasks of the paper's evaluation (§6.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum Task {
    /// 10-class grayscale digits stand-in.
    Mnist,
    /// 26-class grayscale letters stand-in (EMNIST "Letters" track).
    Emnist,
    /// 10-class colour images stand-in.
    Cifar10,
    /// 10-class long-sparse-vector keyword-spotting stand-in.
    Speech,
}

impl Task {
    /// All four tasks in the paper's presentation order.
    pub const ALL: [Task; 4] = [Task::Mnist, Task::Emnist, Task::Cifar10, Task::Speech];

    /// The task's canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            Task::Mnist => "mnist",
            Task::Emnist => "emnist",
            Task::Cifar10 => "cifar10",
            Task::Speech => "speech",
        }
    }

    /// Input signature of the stand-in dataset.
    pub fn spec(&self) -> InputSpec {
        match self {
            Task::Mnist => InputSpec {
                channels: 1,
                height: 16,
                width: 16,
                classes: 10,
            },
            Task::Emnist => InputSpec {
                channels: 1,
                height: 16,
                width: 16,
                classes: 26,
            },
            Task::Cifar10 => InputSpec {
                channels: 3,
                height: 16,
                width: 16,
                classes: 10,
            },
            Task::Speech => InputSpec {
                channels: 1,
                height: 1,
                width: 64,
                classes: 10,
            },
        }
    }

    /// The target accuracy the paper uses for time-to-accuracy
    /// measurements (§6.1.2): 0.95 / 0.80 / 0.55 / 0.85.
    pub fn target_accuracy(&self) -> f32 {
        match self {
            Task::Mnist => 0.95,
            Task::Emnist => 0.80,
            Task::Cifar10 => 0.55,
            Task::Speech => 0.85,
        }
    }

    /// Between-class prototype separation (smaller = harder task).
    fn separation(&self) -> f32 {
        match self {
            Task::Mnist => 0.55,
            Task::Emnist => 0.42,
            Task::Cifar10 => 0.28,
            Task::Speech => 2.6,
        }
    }

    /// Per-sample noise standard deviation.
    fn noise_std(&self) -> f32 {
        match self {
            Task::Mnist => 0.7,
            Task::Emnist => 0.6,
            Task::Cifar10 => 1.1,
            Task::Speech => 0.6,
        }
    }

    /// Fraction of active (non-zero prototype) positions; 1.0 = dense.
    /// The speech stand-in mimics the paper's "long sparse vectors".
    fn density(&self) -> f32 {
        match self {
            Task::Speech => 0.2,
            _ => 1.0,
        }
    }
}

/// Generator for one task's synthetic distribution: holds per-class
/// prototypes and draws i.i.d. samples around them.
#[derive(Debug, Clone)]
pub struct SyntheticSource {
    task: Task,
    prototypes: Vec<Vec<f32>>,
    seed: u64,
}

impl SyntheticSource {
    /// Builds the generator for `(task, seed)`; prototypes are fixed from
    /// the seed, so two sources with the same arguments are identical.
    pub fn new(task: Task, seed: u64) -> Self {
        let spec = task.spec();
        let n = spec.features();
        let sep = task.separation();
        let mut prototypes = Vec::with_capacity(spec.classes);
        for c in 0..spec.classes {
            let mut r = rng(derive_seed(seed, 0x5EED_0000 + c as u64));
            prototypes.push(smooth_field(&spec, sep, task.density(), &mut r));
            debug_assert_eq!(prototypes[c].len(), n);
        }
        SyntheticSource {
            task,
            prototypes,
            seed,
        }
    }

    /// The class prototype vectors.
    pub fn prototypes(&self) -> &[Vec<f32>] {
        &self.prototypes
    }

    /// Draws one sample of class `c` into `out`.
    pub fn sample_into(&self, c: usize, rng: &mut StdRng, out: &mut [f32]) {
        let proto = &self.prototypes[c];
        assert_eq!(out.len(), proto.len());
        let noise = Normal::new(0.0f32, self.task.noise_std()).expect("valid std");
        // Global per-sample gain models brightness / loudness variation.
        let gain = 1.0 + 0.1 * noise.sample(rng);
        for (o, &p) in out.iter_mut().zip(proto) {
            *o = gain * p + noise.sample(rng);
        }
    }

    /// Generates a dataset with `counts[c]` samples of each class, in
    /// class-sorted order (shuffle downstream if needed).
    pub fn generate_counts(&self, counts: &[usize], sample_seed: u64) -> Dataset {
        let spec = self.task.spec();
        assert_eq!(counts.len(), spec.classes, "counts per class");
        let n: usize = counts.iter().sum();
        let flen = spec.features();
        let mut data = vec![0.0f32; n * flen];
        let labels: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(c, &k)| std::iter::repeat_n(c, k))
            .collect();
        let mut r = rng(derive_seed(self.seed, sample_seed ^ 0xDA7A));
        // `sample_into` for every row, from the same stream, with the
        // arithmetic fanned out over the pool.
        let noise = Normal::new(0.0f32, self.task.noise_std()).expect("valid std");
        noisy_rows_into(&mut data, flen, &noise, &mut r, |i, g| {
            (1.0 + 0.1 * g, &self.prototypes[labels[i]])
        });
        let shape = Shape::new(vec![n, spec.channels, spec.height, spec.width]);
        Dataset::new(Tensor::from_vec(shape, data), labels, spec.classes)
    }

    /// Generates a class-balanced dataset of `n` samples (remainders go
    /// to the lowest class indices).
    pub fn generate_balanced(&self, n: usize, sample_seed: u64) -> Dataset {
        let classes = self.task.spec().classes;
        let mut counts = vec![n / classes; classes];
        for item in counts.iter_mut().take(n % classes) {
            *item += 1;
        }
        self.generate_counts(&counts, sample_seed)
    }
}

/// A smooth random field over the task's spatial grid: a mixture of a few
/// low-frequency sinusoids, scaled to `sep`, optionally sparsified.
fn smooth_field(spec: &InputSpec, sep: f32, density: f32, r: &mut StdRng) -> Vec<f32> {
    let (c, h, w) = (spec.channels, spec.height, spec.width);
    let mut field = vec![0.0f32; c * h * w];
    const WAVES: usize = 4;
    for ch in 0..c {
        let plane = &mut field[ch * h * w..(ch + 1) * h * w];
        for _ in 0..WAVES {
            let fy = r.gen_range(0.5..2.5f32);
            let fx = r.gen_range(0.5..2.5f32);
            let py = r.gen_range(0.0..std::f32::consts::TAU);
            let px = r.gen_range(0.0..std::f32::consts::TAU);
            let amp = r.gen_range(0.3..1.0f32) * sep / WAVES as f32 * 2.0;
            for y in 0..h {
                for x in 0..w {
                    let vy = (fy * y as f32 / h.max(2) as f32 * std::f32::consts::TAU + py).sin();
                    let vx = (fx * x as f32 / w.max(2) as f32 * std::f32::consts::TAU + px).sin();
                    plane[y * w + x] += amp * vy * vx;
                }
            }
        }
    }
    if density < 1.0 {
        for v in field.iter_mut() {
            if r.gen::<f32>() > density {
                *v = 0.0;
            }
        }
    }
    field
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_paper_signatures() {
        assert_eq!(Task::Mnist.spec().classes, 10);
        assert_eq!(Task::Emnist.spec().classes, 26);
        assert_eq!(Task::Cifar10.spec().channels, 3);
        assert_eq!(Task::Speech.spec().width, 64);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticSource::new(Task::Mnist, 42).generate_balanced(20, 1);
        let b = SyntheticSource::new(Task::Mnist, 42).generate_balanced(20, 1);
        assert_eq!(a, b);
        let c = SyntheticSource::new(Task::Mnist, 43).generate_balanced(20, 1);
        assert_ne!(a, c);
    }

    #[test]
    fn counts_are_respected() {
        let src = SyntheticSource::new(Task::Mnist, 1);
        let counts = [5, 0, 0, 3, 0, 0, 0, 0, 0, 2];
        let d = src.generate_counts(&counts, 7);
        assert_eq!(d.len(), 10);
        let by_class = d.indices_by_class();
        assert_eq!(by_class.iter().map(Vec::len).collect::<Vec<_>>(), counts);
    }

    #[test]
    fn generate_counts_is_the_per_sample_loop() {
        for task in Task::ALL {
            let src = SyntheticSource::new(task, 31);
            let spec = task.spec();
            // Uneven, with empty classes; 8xx samples is more than one
            // block of the staged sampler for every task, and not a
            // whole number of them for any.
            let counts: Vec<usize> = (0..spec.classes)
                .map(|c| {
                    if c % 4 == 3 {
                        0
                    } else {
                        (c * 37 + 11) % 97 * 3
                    }
                })
                .collect();
            let fast = src.generate_counts(&counts, 5);

            let flen = spec.features();
            let mut r = rng(derive_seed(31, 5 ^ 0xDA7A));
            let mut data = vec![0.0f32; fast.len() * flen];
            let mut labels = Vec::new();
            for (c, &k) in counts.iter().enumerate() {
                for _ in 0..k {
                    let off = labels.len() * flen;
                    src.sample_into(c, &mut r, &mut data[off..off + flen]);
                    labels.push(c);
                }
            }
            assert_eq!(fast.labels(), labels, "{}", task.name());
            let same = fast
                .inputs()
                .data()
                .iter()
                .zip(&data)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{} samples differ from sample_into", task.name());
            assert!(fast.len() > 600, "{} samples", fast.len());
        }
    }

    #[test]
    fn balanced_split_is_balanced() {
        let d = SyntheticSource::new(Task::Emnist, 3).generate_balanced(52, 1);
        assert!(d.indices_by_class().iter().all(|c| c.len() == 2));
    }

    #[test]
    fn speech_samples_are_sparse_at_prototype_level() {
        let src = SyntheticSource::new(Task::Speech, 5);
        for proto in src.prototypes() {
            let zeros = proto.iter().filter(|&&v| v == 0.0).count();
            assert!(
                zeros as f32 / proto.len() as f32 > 0.5,
                "speech prototypes should be mostly zero"
            );
        }
    }

    #[test]
    fn classes_are_separable_by_nearest_prototype() {
        // Sanity: nearest-prototype classification on fresh samples beats
        // 80% on the easy task — the signal is real.
        let src = SyntheticSource::new(Task::Mnist, 11);
        let d = src.generate_balanced(200, 9);
        let protos = src.prototypes();
        let flen = d.sample_len();
        let mut correct = 0usize;
        for i in 0..d.len() {
            let x = &d.inputs().data()[i * flen..(i + 1) * flen];
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (c, p) in protos.iter().enumerate() {
                let dist: f32 = x.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum();
                if dist < best_d {
                    best_d = dist;
                    best = c;
                }
            }
            if best == d.labels()[i] {
                correct += 1;
            }
        }
        assert!(correct >= 160, "nearest-prototype accuracy {correct}/200");
    }

    #[test]
    fn task_hardness_ordering() {
        // Nearest-prototype accuracy should be higher on mnist than cifar10.
        let acc = |task: Task| {
            let src = SyntheticSource::new(task, 21);
            let d = src.generate_balanced(300, 3);
            let protos = src.prototypes();
            let flen = d.sample_len();
            let mut correct = 0usize;
            for i in 0..d.len() {
                let x = &d.inputs().data()[i * flen..(i + 1) * flen];
                let mut best = (0usize, f32::INFINITY);
                for (c, p) in protos.iter().enumerate() {
                    let dist: f32 = x.iter().zip(p).map(|(a, b)| (a - b) * (a - b)).sum();
                    if dist < best.1 {
                        best = (c, dist);
                    }
                }
                if best.0 == d.labels()[i] {
                    correct += 1;
                }
            }
            correct as f32 / d.len() as f32
        };
        assert!(acc(Task::Mnist) > acc(Task::Cifar10) + 0.05);
    }
}
