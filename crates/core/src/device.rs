//! A mobile device: local data, the carried local model, and local
//! training (paper Eqs. 1 and 5).

use crate::selection::update_similarity;
#[cfg(test)]
use middle_data::batch::random_batch;
use middle_data::batch::random_batch_into;
use middle_data::Dataset;
#[cfg(test)]
use middle_nn::loss::per_sample_cross_entropy;
use middle_nn::loss::per_sample_cross_entropy_into;
use middle_nn::optim::Optimizer;
use middle_nn::params::unflatten;
use middle_nn::{NetScratch, OptimizerKind, Sequential};
use middle_tensor::ops::dot_slices;
use middle_tensor::random::{derive_seed, rng};
use middle_tensor::Tensor;
use rand::rngs::StdRng;
use std::cell::RefCell;
use std::ops::Range;

/// Training workspace: batch-gather buffers, the network scratch for the
/// train and inference passes (the Oort pass and the test-set chunks of
/// [`infer_chunk`]) — the train scratch holds the gradient plane — the
/// per-sample loss buffer, and a cached optimizer with its momentum or
/// moment planes. Owned by the *thread* that trains ([`SCRATCH`]), not by the
/// device: memory is threads × scratch, and in steady state a device's
/// local training allocates nothing, first participation included.
///
/// One scratch therefore serves every device — of any simulation, task,
/// architecture or optimizer — that its thread happens to train, so it
/// holds no semantic state and assumes nothing about its last user:
/// every buffer is sized from the model and batch at hand (grow-only
/// capacity) and fully overwritten before it is read, and the cached
/// optimizer is reset on every participation (bitwise-equivalent to a
/// fresh build — see the `optimizer_reset_matches_fresh_build` property
/// test — with its state re-sized from the parameters it then steps).
/// Checkpoints never capture it.
struct TrainScratch {
    net: NetScratch,
    eval: NetScratch,
    batch_idx: Vec<usize>,
    batch_x: Tensor,
    batch_y: Vec<usize>,
    losses: Vec<f32>,
    opt: Option<(OptimizerKind, Box<dyn Optimizer>)>,
}

thread_local! {
    static SCRATCH: RefCell<TrainScratch> = RefCell::new(TrainScratch {
        net: NetScratch::new(),
        eval: NetScratch::new(),
        batch_idx: Vec::new(),
        batch_x: Tensor::zeros([0]),
        batch_y: Vec::new(),
        losses: Vec::new(),
        opt: None,
    });
}

/// One mobile device.
///
/// The device persistently carries its local model `w_m` between time
/// steps — the crux of MIDDLE: after moving to a new edge, this carried
/// model transports the previous edge's "knowledge".
///
/// The flat parameter vector the selection and on-device aggregation
/// hot paths read ([`Device::flat`]) is the model's own plane, so it
/// cannot go stale. Two values derived from it are cached beside it and
/// never checkpointed:
///
/// * its squared norm ([`Device::flat_norm_sq`]), set by every mutator
///   that writes the whole plane and dropped by
///   [`Device::invalidate_flat`] — which a blend in place calls, and code
///   that mutates `model` directly must call — until
///   [`Device::refresh_flat`] recomputes it;
/// * the selection score `U(w_c, Δw_m)` ([`Device::cloud_score`]), a
///   function of this plane and the cloud's, tagged with the cloud epoch
///   it was computed against and dropped with the norm.
pub struct Device {
    /// Stable device identifier (index into the simulation's device set).
    pub id: usize,
    /// The carried local model `w_m^t`.
    pub model: Sequential,
    /// Oort statistical utility from the most recent participation that
    /// computed it ([`Device::refresh_oort_utility`]). The round computes
    /// it only under a selection policy that reads it (OORT, FedLECC —
    /// [`crate::SelectionSignal::Utility`]); under any other policy, and
    /// until the device first trains, it stays `None`.
    pub oort_utility: Option<f32>,
    /// Time step of the most recent participation (staleness tracking).
    pub last_participation: Option<usize>,
    data: Dataset,
    rng: StdRng,
    /// `dot_slices` of the plane with itself; `None` from an in-place
    /// blend until the next refresh.
    norm_sq: Option<f32>,
    cloud_score: Option<(u64, f32)>,
}

/// The device's private batch-sampling stream, derived from the run seed.
fn device_rng(id: usize, seed: u64) -> StdRng {
    rng(derive_seed(seed, 0xD0_0000 + id as u64))
}

/// Oort statistical utility `|B_m| · sqrt(mean(loss_i²))` from the
/// per-sample losses of a device's `|B_m|` local samples.
fn oort_utility(losses: &[f32]) -> f32 {
    let mean_sq = losses.iter().map(|l| l * l).sum::<f32>() / losses.len() as f32;
    losses.len() as f32 * mean_sq.sqrt()
}

/// Infers rows `rows` of `inputs` (a batch tensor, samples along its
/// first dimension) through the calling thread's evaluation workspace and
/// writes their logits into `out`, which must hold exactly that many rows
/// of logits. Inference is per sample, so the logits are bitwise those
/// rows of one `infer` over the whole batch; [`Simulation::evaluate`]
/// runs its test set as such chunks in one parallel region.
///
/// [`Simulation::evaluate`]: crate::Simulation::evaluate
pub(crate) fn infer_chunk(
    model: &Sequential,
    inputs: &Tensor,
    rows: Range<usize>,
    out: &mut [f32],
) {
    let dims = inputs.shape().dims();
    let sample_len: usize = dims[1..].iter().product();
    SCRATCH.with_borrow_mut(|scratch| {
        let TrainScratch { eval, batch_x, .. } = scratch;
        let mut chunk_dims = dims.to_vec();
        chunk_dims[0] = rows.len();
        batch_x.resize(chunk_dims);
        batch_x
            .data_mut()
            .copy_from_slice(&inputs.data()[rows.start * sample_len..rows.end * sample_len]);
        out.copy_from_slice(model.infer_ws(batch_x, eval).data());
    });
}

impl Device {
    /// Creates a device with its local dataset and initial model.
    pub fn new(id: usize, data: Dataset, initial_model: Sequential, seed: u64) -> Self {
        assert!(!data.is_empty(), "device {id} has no data");
        let mut device = Device {
            id,
            model: initial_model,
            oort_utility: None,
            last_participation: None,
            data,
            rng: device_rng(id, seed),
            norm_sq: None,
            cloud_score: None,
        };
        device.refresh_flat();
        device
    }

    /// Re-purposes this replica as a never-trained device `id` whose
    /// dataset is `base`'s `rows`: after the caller loads parameters
    /// ([`Device::load_flat`] or an init that overwrites every one) it is
    /// bitwise the device [`Device::new`] builds from
    /// `base.subset(rows)` and loads the same way — id, data, derived
    /// rng, no utility, no participation, layer state reset
    /// (`recycled_replica_is_a_fresh_one` below). The rows are gathered
    /// into the replica's own dataset buffers. The previous owner's
    /// parameters stay in the plane until then, with no cached norm. The
    /// model must have the architecture `id` trains.
    pub fn recycle(&mut self, id: usize, base: &Dataset, rows: &[usize], seed: u64) {
        assert!(!rows.is_empty(), "device {id} has no data");
        self.id = id;
        base.subset_into(rows, &mut self.data);
        self.rng = device_rng(id, seed);
        self.oort_utility = None;
        self.last_participation = None;
        self.model.reset_state();
        self.invalidate_flat();
    }

    /// The device's local dataset.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// Heap bytes of the values the replica holds: its model's
    /// ([`Sequential::held_bytes`]) and its dataset's inputs and labels.
    #[doc(hidden)]
    pub fn held_bytes(&self) -> usize {
        self.model.held_bytes()
            + size_of_val(self.data.inputs().data())
            + size_of_val(self.data.labels())
    }

    /// The carried model's flat parameter vector: its parameter plane.
    pub fn flat(&self) -> &[f32] {
        self.model.params()
    }

    /// Cached squared L2 norm of the carried model's parameters.
    ///
    /// # Panics
    /// Panics when the norm was dropped ([`Device::invalidate_flat`]) and
    /// not recomputed since.
    pub fn flat_norm_sq(&self) -> f32 {
        self.norm_sq
            .expect("device norm read after a mutation without `refresh_flat`")
    }

    /// Drops the cached norm and selection score after a direct mutation
    /// of `model`; [`Device::refresh_flat`] restores them.
    pub fn invalidate_flat(&mut self) {
        self.norm_sq = None;
        self.cloud_score = None;
    }

    /// Recomputes the cached norm from the current carried model and
    /// drops the selection score.
    pub fn refresh_flat(&mut self) {
        let flat = self.model.params();
        self.norm_sq = Some(dot_slices(flat, flat));
        self.cloud_score = None;
    }

    /// Overwrites the carried model's parameters from a flat vector whose
    /// squared norm is already known (the broadcast fast path: one copy
    /// into the plane, no re-norm).
    pub fn load_flat(&mut self, flat: &[f32], norm_sq: f32) {
        unflatten(&mut self.model, flat);
        self.norm_sq = Some(norm_sq);
        self.cloud_score = None;
    }

    /// The cached selection score `U(w_c, Δw_m)` (Eqs. 10–11) against
    /// the cloud model of `epoch`; `None` when the flat or the cloud
    /// changed since it was computed.
    pub fn cloud_score(&self, epoch: u64) -> Option<f32> {
        self.cloud_score
            .and_then(|(at, score)| (at == epoch).then_some(score))
    }

    /// Scores the carried model against the cloud model of `epoch`
    /// ([`update_similarity`]) and caches the result until the flat or
    /// the epoch next changes.
    pub fn refresh_cloud_score(&mut self, epoch: u64, cloud_flat: &[f32], cloud_norm_sq: f32) {
        let score = update_similarity(self, cloud_flat, cloud_norm_sq);
        self.cloud_score = Some((epoch, score));
    }

    /// Runs `I` local SGD steps (Eq. 5) on the carried model in place
    /// (the caller positions `w_m` first, e.g. via [`Device::load_flat`]
    /// or on-device aggregation), and refreshes the cached norm. Returns
    /// the final mini-batch training loss. The Oort utility is left as
    /// it was: [`Device::refresh_oort_utility`] computes it, for the
    /// policies that read it.
    pub fn local_train(
        &mut self,
        local_steps: usize,
        batch_size: usize,
        optimizer: &OptimizerKind,
        time_step: usize,
    ) -> f32 {
        assert!(local_steps > 0, "need at least one local step");
        let bs = batch_size.min(self.data.len()).max(1);
        let loss = SCRATCH.with_borrow_mut(|scratch| {
            let TrainScratch {
                net,
                batch_idx,
                batch_x,
                batch_y,
                opt: opt_slot,
                ..
            } = scratch;
            // Optimizer state must not persist across participations
            // (momentum/Adam state is meaningless after the model is
            // replaced by aggregation), so the cached optimizer is reset —
            // which is bitwise-equivalent to a fresh `build` — and rebuilt
            // only when the configured kind changes.
            let opt = match opt_slot {
                Some((kind, o)) if kind == optimizer => {
                    o.reset();
                    o
                }
                slot => &mut slot.insert((*optimizer, optimizer.build())).1,
            };
            let mut loss = 0.0f32;
            for _ in 0..local_steps {
                random_batch_into(&self.data, bs, &mut self.rng, batch_idx, batch_x, batch_y);
                loss = self
                    .model
                    .train_batch_ws(batch_x, batch_y, opt.as_mut(), net);
            }
            loss
        });
        self.last_participation = Some(time_step);
        self.refresh_flat();
        loss
    }

    /// The Oort pass: one inference of the carried model over every
    /// local sample, through the thread's evaluation workspace, sets the
    /// statistical utility `|B_m| · sqrt(mean(loss_i²))`. Reads the
    /// model only, so the norm and score caches stay valid.
    pub fn refresh_oort_utility(&mut self) {
        let utility = SCRATCH.with_borrow_mut(|scratch| {
            let logits = self.model.infer_ws(self.data.inputs(), &mut scratch.eval);
            per_sample_cross_entropy_into(logits, self.data.labels(), &mut scratch.losses);
            oort_utility(&scratch.losses)
        });
        self.oort_utility = Some(utility);
    }

    /// The pre-workspace [`local_train`](Self::local_train): the
    /// allocating `train_batch` path, a fresh optimizer and fresh batch
    /// buffers every participation. Test support: the oracle the
    /// kernel-pair harness in `sim` holds every participant of a hostile
    /// round to.
    #[cfg(test)]
    pub(crate) fn local_train_reference(
        &mut self,
        local_steps: usize,
        batch_size: usize,
        optimizer: &OptimizerKind,
        time_step: usize,
    ) -> f32 {
        assert!(local_steps > 0, "need at least one local step");
        let mut opt = optimizer.build();
        let bs = batch_size.min(self.data.len()).max(1);
        let mut loss = 0.0f32;
        for _ in 0..local_steps {
            let (x, y) = random_batch(&self.data, bs, &mut self.rng);
            loss = self.model.train_batch(&x, &y, opt.as_mut());
        }
        self.last_participation = Some(time_step);
        self.refresh_flat();
        loss
    }

    /// The allocating [`refresh_oort_utility`](Self::refresh_oort_utility):
    /// `infer` and `per_sample_cross_entropy`, its oracle.
    #[cfg(test)]
    pub(crate) fn refresh_oort_utility_reference(&mut self) {
        let logits = self.model.infer(self.data.inputs());
        let losses = per_sample_cross_entropy(&logits, self.data.labels());
        self.oort_utility = Some(oort_utility(&losses));
    }

    /// The device's private batch-sampling RNG, for checkpoint capture.
    pub fn rng_ref(&self) -> &StdRng {
        &self.rng
    }

    /// Overwrites the batch-sampling RNG from a checkpointed state.
    pub fn restore_rng(&mut self, rng: StdRng) {
        self.rng = rng;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use middle_data::synthetic::{SyntheticSource, Task};
    use middle_nn::layers::{Dense, Flatten, Relu};
    use middle_nn::loss::softmax_cross_entropy;
    use middle_nn::params::flatten;
    use middle_nn::zoo;
    use middle_tensor::ops::dot_slices;
    use middle_tensor::random::rng as seed_rng;
    use proptest::prelude::*;

    fn mk_device(id: usize, seed: u64) -> Device {
        let src = SyntheticSource::new(Task::Mnist, 5);
        let data = src.generate_balanced(20, id as u64);
        let spec = Task::Mnist.spec();
        let model = zoo::logistic(&spec, &mut seed_rng(1));
        Device::new(id, data, model, seed)
    }

    #[test]
    fn local_training_reduces_loss() {
        let mut d = mk_device(0, 42);
        let (inputs, labels) = (d.data().inputs().clone(), d.data().labels().to_vec());
        let loss = |m: &Sequential| softmax_cross_entropy(&m.infer(&inputs), &labels).0;
        let before = loss(&d.model);
        let kind = OptimizerKind::Sgd { lr: 0.1 };
        d.local_train(20, 10, &kind, 3);
        let after = loss(&d.model);
        assert!(after < before, "{before} -> {after}");
        assert_eq!(d.last_participation, Some(3));
    }

    #[test]
    fn oort_utility_set_by_the_oort_pass_only() {
        let mut d = mk_device(1, 43);
        assert!(d.oort_utility.is_none());
        d.local_train(1, 5, &OptimizerKind::Sgd { lr: 0.01 }, 0);
        assert!(d.oort_utility.is_none(), "training runs no Oort pass");
        let flat = d.flat().to_vec();
        d.refresh_oort_utility();
        assert_eq!(d.flat(), flat.as_slice(), "the pass reads the model only");
        let u = d.oort_utility.unwrap();
        assert!(u > 0.0 && u.is_finite());
    }

    #[test]
    fn oort_utility_falls_as_model_fits() {
        let mut d = mk_device(2, 44);
        d.local_train(1, 10, &OptimizerKind::Sgd { lr: 0.05 }, 0);
        d.refresh_oort_utility();
        let early = d.oort_utility.unwrap();
        d.local_train(40, 10, &OptimizerKind::Sgd { lr: 0.05 }, 1);
        d.refresh_oort_utility();
        let late = d.oort_utility.unwrap();
        assert!(late < early, "{early} -> {late}");
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut d = mk_device(0, seed);
            d.local_train(3, 8, &OptimizerKind::Sgd { lr: 0.05 }, 0);
            middle_nn::params::flatten(&d.model)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn flat_cache_tracks_model_through_train_and_load() {
        let mut d = mk_device(4, 46);
        assert_eq!(d.flat(), flatten(&d.model).as_slice());
        d.local_train(2, 8, &OptimizerKind::Sgd { lr: 0.05 }, 0);
        let f = flatten(&d.model);
        assert_eq!(d.flat(), f.as_slice());
        assert_eq!(d.flat_norm_sq().to_bits(), dot_slices(&f, &f).to_bits());
        // Broadcast path: load a different flat vector.
        let other = vec![0.25f32; f.len()];
        let norm = dot_slices(&other, &other);
        d.load_flat(&other, norm);
        assert_eq!(d.flat(), other.as_slice());
        assert_eq!(flatten(&d.model), other);
        assert_eq!(d.flat_norm_sq().to_bits(), norm.to_bits());
    }

    #[test]
    fn the_flat_is_the_plane_and_only_the_norm_waits_for_a_refresh() {
        let mut d = mk_device(5, 47);
        let before = d.flat_norm_sq();
        for v in d.model.params_mut() {
            *v *= 0.5;
        }
        assert_eq!(d.flat(), flatten(&d.model).as_slice(), "no refresh needed");
        d.invalidate_flat();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.flat_norm_sq()));
        assert!(caught.is_err(), "a dropped norm is not read");
        d.refresh_flat();
        let f = flatten(&d.model);
        assert_eq!(d.flat_norm_sq().to_bits(), dot_slices(&f, &f).to_bits());
        assert_ne!(d.flat_norm_sq(), before);
    }

    #[test]
    fn scratch_follows_each_device_sample_count_and_model() {
        // Same thread, no region: every `local_train` and Oort pass below
        // reuses the one scratch, whose evaluation workspace must grow
        // from 6 rows to 40 and serve 12 afterwards, and whose optimizer
        // meets a same-shaped-but-for-the-last-layer model, then an MLP,
        // then a single layer — each time bitwise the scratch-free
        // reference path.
        let optimizer = OptimizerKind::Adam { lr: 0.01 };
        let device = |task: Task, id: usize, samples: usize, logistic: bool| {
            let data = SyntheticSource::new(task, 3).generate_balanced(samples, id as u64);
            let spec = task.spec();
            let model = if logistic {
                zoo::logistic(&spec, &mut seed_rng(id as u64))
            } else {
                zoo::model_for_task(task.name(), &spec, &mut seed_rng(id as u64))
            };
            Device::new(id, data, model, 40 + id as u64)
        };
        for (id, (task, samples, logistic)) in [
            (Task::Mnist, 6, false),
            (Task::Mnist, 40, false),
            (Task::Emnist, 12, false),
            (Task::Speech, 9, false),
            (Task::Mnist, 25, true),
        ]
        .into_iter()
        .enumerate()
        {
            let mut fast = device(task, id, samples, logistic);
            let mut reference = device(task, id, samples, logistic);
            let loss = fast.local_train(3, 4, &optimizer, id);
            let loss_ref = reference.local_train_reference(3, 4, &optimizer, id);
            fast.refresh_oort_utility();
            reference.refresh_oort_utility_reference();
            assert_eq!(loss.to_bits(), loss_ref.to_bits(), "device {id} loss");
            assert_eq!(fast.flat(), reference.flat(), "device {id}");
            assert_eq!(
                fast.oort_utility.map(f32::to_bits),
                reference.oort_utility.map(f32::to_bits),
                "device {id} utility"
            );
        }
    }

    /// Five architectures a replica pool can hold: the four zoo models and
    /// a one-hidden-layer MLP of another width.
    fn pooled_architecture(which: usize) -> (Task, Sequential) {
        let (task, build): (Task, fn(Task) -> Sequential) = match which {
            0 => (Task::Mnist, |t| zoo::cnn2(&t.spec(), &mut seed_rng(1))),
            1 => (Task::Cifar10, |t| zoo::cnn3(&t.spec(), &mut seed_rng(2))),
            2 => (Task::Speech, |t| zoo::mlp(&t.spec(), 16, &mut seed_rng(3))),
            3 => (Task::Mnist, |t| zoo::logistic(&t.spec(), &mut seed_rng(4))),
            _ => (Task::Speech, |t| {
                let spec = t.spec();
                let mut r = seed_rng(5);
                Sequential::new()
                    .push(Flatten::new())
                    .push(Dense::new(spec.features(), 12, &mut r))
                    .push(Relu::new())
                    .push(Dense::new(12, spec.classes, &mut r))
            }),
        };
        (task, build(task))
    }

    /// Everything about a device that a later step can observe. A model
    /// holds no gradients (the trainer's scratch does), so there are none
    /// to compare; what the replica holds besides its plane and data is
    /// compared through its byte count.
    fn device_state(d: &Device) -> impl PartialEq + std::fmt::Debug {
        (
            (d.id, d.data().clone(), d.last_participation),
            d.flat().iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
            d.flat_norm_sq().to_bits(),
            d.oort_utility.map(f32::to_bits),
            d.rng_ref().state(),
            d.held_bytes(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// A recycled replica is a fresh one: train device A for a while,
        /// re-purpose it as device B (`Device::recycle`, which gathers B's
        /// rows into A's dataset buffers), load a broadcast
        /// and train — every observable of the result is bitwise what
        /// `Device::new(B)` gives after the same load and training, through
        /// the workspace path and the reference path alike.
        #[test]
        fn recycled_replica_is_a_fresh_one(
            which in 0usize..5,
            reference in 0usize..2,
            worn in 0usize..4,
            steps in 1usize..3,
            a in 0usize..50,
            b in 50usize..100,
            samples_a in 3usize..9,
            samples_b in 3usize..9,
            seed in 0u64..1000,
            fill in -0.5f32..0.5,
        ) {
            let (task, init) = pooled_architecture(which);
            let source = SyntheticSource::new(task, 11);
            let data = |id: usize, n: usize| source.generate_balanced(n, id as u64);
            let optimizer = OptimizerKind::Momentum { lr: 0.05, momentum: 0.9 };
            let train = |d: &mut Device, steps: usize, t: usize| if reference == 1 {
                let loss = d.local_train_reference(steps, 4, &optimizer, t);
                d.refresh_oort_utility_reference();
                loss
            } else {
                let loss = d.local_train(steps, 4, &optimizer, t);
                d.refresh_oort_utility();
                loss
            };
            let broadcast: Vec<f32> = (0..init.param_count())
                .map(|i| fill + 0.01 * ((i * 7 + 3) % 13) as f32)
                .collect();
            let norm_sq = dot_slices(&broadcast, &broadcast);

            let mut recycled = Device::new(a, data(a, samples_a), init.clone(), seed);
            if worn > 0 {
                train(&mut recycled, worn, 0);
            }
            // B's rows of a shared base, gathered out of order into A's
            // buffers (sized for another sample count).
            let base = data(b, samples_b + 3);
            let rows: Vec<usize> = (0..samples_b).map(|i| samples_b + 2 - i).collect();
            recycled.recycle(b, &base, &rows, seed);
            let mut fresh = Device::new(b, base.subset(&rows), init.clone(), seed);
            for dev in [&mut recycled, &mut fresh] {
                dev.load_flat(&broadcast, norm_sq);
            }
            prop_assert_eq!(device_state(&recycled), device_state(&fresh));
            let (loss, loss_fresh) = (train(&mut recycled, steps, 5), train(&mut fresh, steps, 5));
            prop_assert_eq!(loss.to_bits(), loss_fresh.to_bits());
            prop_assert_eq!(device_state(&recycled), device_state(&fresh));
        }
    }
}
