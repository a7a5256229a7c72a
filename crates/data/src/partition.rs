//! Non-IID partitioners: distribute dataset samples across federated
//! devices and edges with controlled label skew.
//!
//! All partitioners return index lists into a base [`Dataset`], so the
//! same generated corpus can be re-partitioned without re-sampling.

use crate::dataset::Dataset;
use middle_tensor::random::{derive_seed, rng};
use rand::Rng;
use rand_distr::{Dirichlet, Distribution};
use serde::{Deserialize, Serialize};

/// A device-level partition: `assignments[m]` holds the sample indices of
/// device `m`, and `major_class[m]` its dominant class when the scheme
/// defines one.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Partition {
    /// Sample indices per device.
    pub assignments: Vec<Vec<usize>>,
    /// Dominant class per device (`None` for schemes without one).
    pub major_class: Vec<Option<usize>>,
}

impl Partition {
    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.assignments.len()
    }

    /// Number of samples on device `m`.
    pub fn device_len(&self, m: usize) -> usize {
        self.assignments[m].len()
    }

    /// Total assigned samples.
    pub fn total(&self) -> usize {
        self.assignments.iter().map(Vec::len).sum()
    }

    /// Label histogram of device `m` against the base dataset.
    pub fn device_class_counts(&self, m: usize, base: &Dataset) -> Vec<usize> {
        let mut counts = vec![0usize; base.classes()];
        for &i in &self.assignments[m] {
            counts[base.labels()[i]] += 1;
        }
        counts
    }
}

/// Declarative partition scheme, serialisable inside experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Scheme {
    /// Uniform IID split.
    Iid,
    /// Each device gets a dominant class covering `major_frac` of its
    /// samples and the rest uniform over other classes — the paper's
    /// main setting (§6.1.2: "more than 80% of all samples").
    MajorClass {
        /// Fraction of the device's samples from its major class.
        major_frac: f32,
    },
    /// Each device holds samples of exactly one class (the paper's
    /// Question-2 motivation experiment).
    SingleClass,
    /// Dirichlet(α) label distribution per device (the standard FL
    /// Non-IID knob; small α = heavy skew).
    Dirichlet {
        /// Concentration parameter.
        alpha: f32,
    },
}

/// Partitions `base` across `devices` devices with `per_device` samples
/// each, according to `scheme`.
///
/// Samples are drawn *with replacement by index reuse avoided per device*
/// when the base has enough samples of the requested class, otherwise
/// indices may repeat across devices (devices never share memory, so this
/// mirrors sampling from the underlying distribution).
pub fn partition(
    base: &Dataset,
    devices: usize,
    per_device: usize,
    scheme: Scheme,
    seed: u64,
) -> Partition {
    assert!(devices > 0 && per_device > 0, "empty partition request");
    let classes = base.classes();
    let by_class = base.indices_by_class();
    assert!(
        by_class.iter().any(|v| !v.is_empty()),
        "base dataset has no samples"
    );
    let mut r = rng(derive_seed(seed, 0x9A27));

    // Rotating cursors per class spread the base samples across devices.
    let mut cursors = vec![0usize; classes];
    let take = |c: usize, cursors: &mut Vec<usize>, r: &mut rand::rngs::StdRng| -> usize {
        let pool = &by_class[c];
        if pool.is_empty() {
            // Fall back to any class; degenerate but keeps invariants.
            let any: Vec<usize> = (0..classes).filter(|&k| !by_class[k].is_empty()).collect();
            let k = any[r.gen_range(0..any.len())];
            let idx = by_class[k][cursors[k] % by_class[k].len()];
            cursors[k] += 1;
            return idx;
        }
        let idx = pool[cursors[c] % pool.len()];
        cursors[c] += 1;
        idx
    };

    let mut assignments = Vec::with_capacity(devices);
    let mut major_class = Vec::with_capacity(devices);

    match scheme {
        Scheme::Iid => {
            for _ in 0..devices {
                let mut idxs = Vec::with_capacity(per_device);
                for _ in 0..per_device {
                    let c = r.gen_range(0..classes);
                    idxs.push(take(c, &mut cursors, &mut r));
                }
                assignments.push(idxs);
                major_class.push(None);
            }
        }
        Scheme::MajorClass { major_frac } => {
            assert!(
                (0.0..=1.0).contains(&major_frac),
                "major_frac must be in [0, 1]"
            );
            for m in 0..devices {
                // Deal major classes round-robin so every class appears.
                let major = m % classes;
                let n_major = ((per_device as f32) * major_frac).round() as usize;
                let mut idxs = Vec::with_capacity(per_device);
                for _ in 0..n_major {
                    idxs.push(take(major, &mut cursors, &mut r));
                }
                for _ in n_major..per_device {
                    let mut c = r.gen_range(0..classes);
                    if classes > 1 {
                        while c == major {
                            c = r.gen_range(0..classes);
                        }
                    }
                    idxs.push(take(c, &mut cursors, &mut r));
                }
                assignments.push(idxs);
                major_class.push(Some(major));
            }
        }
        Scheme::SingleClass => {
            for m in 0..devices {
                let c = m % classes;
                let idxs = (0..per_device)
                    .map(|_| take(c, &mut cursors, &mut r))
                    .collect();
                assignments.push(idxs);
                major_class.push(Some(c));
            }
        }
        Scheme::Dirichlet { alpha } => {
            assert!(alpha > 0.0, "Dirichlet alpha must be positive");
            let dir = Dirichlet::new(&vec![alpha; classes]).expect("valid Dirichlet");
            for _ in 0..devices {
                let probs = dir.sample(&mut r);
                let mut idxs = Vec::with_capacity(per_device);
                for _ in 0..per_device {
                    let c = sample_categorical(&probs, &mut r);
                    idxs.push(take(c, &mut cursors, &mut r));
                }
                // Dominant class of the drawn distribution.
                let major = probs
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i);
                assignments.push(idxs);
                major_class.push(major);
            }
        }
    }

    Partition {
        assignments,
        major_class,
    }
}

fn sample_categorical(probs: &[f32], r: &mut rand::rngs::StdRng) -> usize {
    let u: f32 = r.gen();
    let mut acc = 0.0f32;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{SyntheticSource, Task};

    fn base() -> Dataset {
        SyntheticSource::new(Task::Mnist, 1).generate_balanced(500, 1)
    }

    #[test]
    fn iid_partition_covers_all_devices() {
        let b = base();
        let p = partition(&b, 10, 20, Scheme::Iid, 1);
        assert_eq!(p.devices(), 10);
        assert!(p.assignments.iter().all(|a| a.len() == 20));
        assert_eq!(p.total(), 200);
    }

    #[test]
    fn major_class_dominates() {
        let b = base();
        let p = partition(&b, 10, 50, Scheme::MajorClass { major_frac: 0.8 }, 2);
        for m in 0..10 {
            let counts = p.device_class_counts(m, &b);
            let major = p.major_class[m].unwrap();
            assert_eq!(major, m % 10);
            assert!(
                counts[major] >= 40,
                "device {m} major count {}",
                counts[major]
            );
        }
    }

    #[test]
    fn single_class_is_pure() {
        let b = base();
        let p = partition(&b, 20, 10, Scheme::SingleClass, 3);
        for m in 0..20 {
            let counts = p.device_class_counts(m, &b);
            assert_eq!(counts[m % 10], 10);
            assert_eq!(counts.iter().sum::<usize>(), 10);
        }
    }

    #[test]
    fn dirichlet_small_alpha_is_skewed() {
        let b = base();
        let p = partition(&b, 10, 100, Scheme::Dirichlet { alpha: 0.1 }, 4);
        // With α=0.1 most devices should concentrate >50% in one class.
        let mut concentrated = 0;
        for m in 0..10 {
            let counts = p.device_class_counts(m, &b);
            if *counts.iter().max().unwrap() > 50 {
                concentrated += 1;
            }
        }
        assert!(concentrated >= 7, "only {concentrated}/10 concentrated");
    }

    #[test]
    fn dirichlet_large_alpha_is_flat() {
        let b = base();
        let p = partition(&b, 5, 200, Scheme::Dirichlet { alpha: 100.0 }, 5);
        for m in 0..5 {
            let counts = p.device_class_counts(m, &b);
            assert!(
                *counts.iter().max().unwrap() < 60,
                "α=100 should be near-uniform: {counts:?}"
            );
        }
    }

    #[test]
    fn partitions_are_deterministic() {
        let b = base();
        let p1 = partition(&b, 5, 10, Scheme::MajorClass { major_frac: 0.8 }, 7);
        let p2 = partition(&b, 5, 10, Scheme::MajorClass { major_frac: 0.8 }, 7);
        assert_eq!(p1.assignments, p2.assignments);
    }
}
