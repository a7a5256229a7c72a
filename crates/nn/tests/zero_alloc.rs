//! The workspace train path allocates nothing in steady state: after a
//! warm-up, `train_batch_ws` and `infer_ws` make no heap allocation at
//! all, for the zoo's models at the batches the benchmark trains them at.
//!
//! A counting global allocator sees every allocation of the process, so
//! this file holds one test: no other test thread can allocate while it
//! measures.

use middle_nn::{zoo, InputSpec, NetScratch, OptimizerKind, Sequential};
use middle_tensor::random::{rng, uniform};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting allocations (and reallocations).
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MNIST: InputSpec = InputSpec {
    channels: 1,
    height: 16,
    width: 16,
    classes: 10,
};

const SPEECH: InputSpec = InputSpec {
    channels: 1,
    height: 1,
    width: 64,
    classes: 10,
};

/// Allocations made by 100 steady-state training steps, each followed by
/// an inference pass on its own scratch (as `Device::local_train` runs
/// them), after two warm-up rounds.
fn steady_state_allocations(
    mut model: Sequential,
    spec: InputSpec,
    batch: usize,
    kind: OptimizerKind,
) -> usize {
    let mut opt = kind.build();
    let (mut train, mut eval) = (NetScratch::new(), NetScratch::new());
    let x = uniform(
        [batch, spec.channels, spec.height, spec.width],
        -1.0,
        1.0,
        &mut rng(batch as u64),
    );
    let labels: Vec<usize> = (0..batch).map(|i| i % spec.classes).collect();
    let mut round = |model: &mut Sequential| {
        model.train_batch_ws(&x, &labels, opt.as_mut(), &mut train);
        model.infer_ws(&x, &mut eval);
    };
    for _ in 0..2 {
        round(&mut model);
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..100 {
        round(&mut model);
    }
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn steady_state_train_and_infer_allocate_nothing() {
    let momentum = OptimizerKind::Momentum {
        lr: 0.01,
        momentum: 0.9,
    };
    let adam = OptimizerKind::Adam { lr: 0.001 };
    let sgd = OptimizerKind::Sgd { lr: 0.01 };
    let cnn2 = zoo::cnn2(&MNIST, &mut rng(1));
    let mlp = zoo::mlp(&SPEECH, 64, &mut rng(2));
    let cases = [
        ("cnn2", cnn2, MNIST, 16, momentum),
        ("mlp", mlp.clone(), SPEECH, 2, adam),
        ("mlp", mlp.clone(), SPEECH, 16, adam),
        ("mlp", mlp.clone(), SPEECH, 2, sgd),
        ("mlp", mlp, SPEECH, 16, sgd),
    ];
    for (name, model, spec, batch, kind) in cases {
        let n = steady_state_allocations(model, spec, batch, kind);
        assert_eq!(n, 0, "{name}, batch {batch}, {kind:?}: {n} allocations");
    }
}
