//! Property-based tests for datasets, partitioners and metrics.

use middle_data::metrics::Confusion;
use middle_data::partition::{partition, Scheme};
use middle_data::synthetic::{SyntheticSource, Task};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any partition assigns exactly `devices × per_device` sample slots,
    /// all indices in range.
    #[test]
    fn partitions_have_exact_shape(
        devices in 1usize..20,
        per_device in 1usize..30,
        scheme_pick in 0usize..4,
        seed in 0u64..500,
    ) {
        let base = SyntheticSource::new(Task::Mnist, 1).generate_balanced(300, 1);
        let scheme = match scheme_pick {
            0 => Scheme::Iid,
            1 => Scheme::MajorClass { major_frac: 0.8 },
            2 => Scheme::SingleClass,
            _ => Scheme::Dirichlet { alpha: 0.5 },
        };
        let p = partition(&base, devices, per_device, scheme, seed);
        prop_assert_eq!(p.devices(), devices);
        prop_assert_eq!(p.total(), devices * per_device);
        for a in &p.assignments {
            prop_assert!(a.iter().all(|&i| i < base.len()));
        }
    }

    /// Major-class partitions put at least `major_frac` of each device's
    /// samples in its major class (up to rounding).
    #[test]
    fn major_class_fraction_holds(
        per_device in 5usize..40,
        frac in 0.5f32..1.0,
        seed in 0u64..200,
    ) {
        let base = SyntheticSource::new(Task::Mnist, 2).generate_balanced(400, 1);
        let p = partition(&base, 10, per_device, Scheme::MajorClass { major_frac: frac }, seed);
        for m in 0..10 {
            let counts = p.device_class_counts(m, &base);
            let major = p.major_class[m].unwrap();
            let expect = (per_device as f32 * frac).round() as usize;
            prop_assert!(counts[major] >= expect, "{} < {}", counts[major], expect);
        }
    }

    /// Generated datasets have the right shape signature and labels.
    #[test]
    fn generated_datasets_are_well_formed(
        task_pick in 0usize..4,
        n in 1usize..100,
        seed in 0u64..200,
    ) {
        let task = Task::ALL[task_pick];
        let d = SyntheticSource::new(task, seed).generate_balanced(n, 3);
        let spec = task.spec();
        prop_assert_eq!(d.len(), n);
        prop_assert_eq!(d.classes(), spec.classes);
        prop_assert_eq!(d.sample_shape(), vec![spec.channels, spec.height, spec.width]);
        prop_assert!(d.labels().iter().all(|&l| l < spec.classes));
        prop_assert!(d.inputs().data().iter().all(|x| x.is_finite()));
    }

    /// Confusion accuracy equals plain accuracy for any prediction set.
    #[test]
    fn confusion_agrees_with_plain_accuracy(
        truth in prop::collection::vec(0usize..5, 1..60),
    ) {
        // Predictions: shift every other label to create controlled errors.
        let pred: Vec<usize> = truth.iter().enumerate()
            .map(|(i, &t)| if i % 3 == 0 { (t + 1) % 5 } else { t })
            .collect();
        let conf = Confusion::from_predictions(&truth, &pred, 5);
        let plain = middle_data::accuracy(&truth, &pred);
        prop_assert!((conf.accuracy() - plain).abs() < 1e-6);
        prop_assert_eq!(conf.total(), truth.len());
    }
}
