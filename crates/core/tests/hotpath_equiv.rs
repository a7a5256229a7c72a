//! Gates for the zero-copy hot path: the fused dot and in-place
//! aggregation kernels are bit-identical to the allocating originals.
//! The round's trajectories, pinned before each plane (faults,
//! compression) and each retired round-level oracle existed, are cells
//! of the differential matrix (`matrix.rs`).

use middle_core::aggregation::{
    cloud_aggregate, cloud_aggregate_into, edge_aggregate, edge_aggregate_into,
};
use middle_nn::params::flatten;
use middle_nn::Sequential;
use middle_tensor::ops::{dot3_slices, dot_slices};
use proptest::prelude::*;

mod common;
use common::model_from;

fn vals(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-3.0f32..3.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fused three-way dot product agrees bitwise with three
    /// separate accumulations (same chunked summation order).
    #[test]
    fn dot3_is_bitwise_three_dots(a in vals(67), b in vals(67)) {
        let (ab, aa, bb) = dot3_slices(&a, &b);
        prop_assert_eq!(ab.to_bits(), dot_slices(&a, &b).to_bits());
        prop_assert_eq!(aa.to_bits(), dot_slices(&a, &a).to_bits());
        prop_assert_eq!(bb.to_bits(), dot_slices(&b, &b).to_bits());
    }
}

#[test]
fn in_place_aggregates_match_references_bitwise() {
    let vs: Vec<Vec<f32>> = (0..4)
        .map(|j| {
            (0..8)
                .map(|i| ((i * 3 + j * 7) as f32 * 0.21).sin())
                .collect()
        })
        .collect();
    let models: Vec<Sequential> = vs.iter().map(|v| model_from(v)).collect();
    let refs: Vec<&Sequential> = models.iter().collect();

    let counts = [12usize, 40, 7, 21];
    let reference = edge_aggregate(&refs, &counts);
    let mut dst = model_from(&[9.0; 8]);
    edge_aggregate_into(&mut dst, refs.iter().copied().zip(counts.iter().copied()));
    assert_eq!(flatten(&reference), flatten(&dst));

    for windows in [[5.0f64, 0.0, 2.5, 30.0], [0.0, 0.0, 0.0, 0.0]] {
        let reference = cloud_aggregate(&refs, &windows);
        let mut dst = model_from(&[9.0; 8]);
        cloud_aggregate_into(&mut dst, refs.iter().copied().zip(windows.iter().copied()));
        assert_eq!(flatten(&reference), flatten(&dst));
    }
}
