//! Property-based tests for the mobility substrate.

use middle_mobility::{generate_markov_hop, Trace};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn markov_trace_structure(
        edges in 1usize..12,
        devices in 1usize..40,
        steps in 1usize..60,
        p in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let t = generate_markov_hop(edges, devices, steps, p, seed);
        prop_assert_eq!(t.steps(), steps);
        prop_assert_eq!(t.devices(), devices);
        // Every assignment in range; occupancy always partitions devices.
        for step in 0..steps {
            let occ = t.occupancy(step);
            prop_assert_eq!(occ.iter().sum::<usize>(), devices);
        }
    }

    #[test]
    fn empirical_mobility_bounded(
        edges in 2usize..8,
        p in 0.0f64..1.0,
        seed in 0u64..500,
    ) {
        let t = generate_markov_hop(edges, 50, 100, p, seed);
        let e = t.empirical_mobility();
        prop_assert!((0.0..=1.0).contains(&e));
        // Mobility can't exceed requested rate by a wide margin.
        prop_assert!(e <= p + 0.15, "p={}, empirical={}", p, e);
    }

    #[test]
    fn one_report_roundtrip_any_trace(
        edges in 1usize..6,
        devices in 1usize..10,
        steps in 1usize..10,
        seed in 0u64..200,
    ) {
        let t = generate_markov_hop(edges, devices, steps, 0.5, seed);
        let parsed = Trace::from_one_report(&t.to_one_report(), edges).unwrap();
        prop_assert_eq!(t, parsed);
    }

    #[test]
    fn json_roundtrip_any_trace(seed in 0u64..200) {
        let t = generate_markov_hop(4, 7, 9, 0.4, seed);
        let json = serde_json::to_string(&t).unwrap();
        prop_assert_eq!(serde_json::from_str::<Trace>(&json).unwrap(), t);
    }

    #[test]
    fn moved_is_consistent_with_assignments(seed in 0u64..300) {
        let t = generate_markov_hop(5, 10, 30, 0.5, seed);
        for step in 1..t.steps() {
            for m in 0..t.devices() {
                prop_assert_eq!(
                    t.moved(step, m),
                    t.edge_of(step, m) != t.edge_of(step - 1, m)
                );
            }
        }
    }
}
