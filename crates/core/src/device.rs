//! A mobile device: local data, the carried local model, and local
//! training (paper Eqs. 1 and 5).

use crate::selection::update_similarity;
use middle_data::batch::{random_batch, random_batch_into};
use middle_data::Dataset;
use middle_nn::loss::{per_sample_cross_entropy, per_sample_cross_entropy_into};
use middle_nn::optim::Optimizer;
use middle_nn::params::{unflatten, FlatView};
use middle_nn::{NetScratch, OptimizerKind, Sequential};
use middle_tensor::random::{derive_seed, rng};
use middle_tensor::Tensor;
use rand::rngs::StdRng;
use std::cell::RefCell;

/// Training workspace: batch-gather buffers, the network scratch for the
/// train and evaluation passes, the per-sample loss buffer, and a cached
/// optimizer. Owned by the *thread* that trains ([`SCRATCH`]), not by the
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
/// Alongside the structured model the device maintains a [`FlatView`]
/// cache (flat parameter vector + squared norm) so the selection and
/// on-device aggregation hot paths never flatten per candidate. Code
/// that mutates `model` directly must call [`Device::invalidate_flat`]
/// (or [`Device::refresh_flat`]); the built-in mutators do so already.
///
/// The selection score `U(w_c, Δw_m)` is cached where the flat is
/// ([`Device::cloud_score`]): it is a function of this flat and the
/// cloud's, so it is tagged with the cloud epoch it was computed against
/// and dropped by every mutator of the flat. Neither cache is ever
/// checkpointed.
pub struct Device {
    /// Stable device identifier (index into the simulation's device set).
    pub id: usize,
    /// The carried local model `w_m^t`.
    pub model: Sequential,
    /// Oort statistical utility from the most recent participation;
    /// `None` until the device first trains.
    pub oort_utility: Option<f32>,
    /// Time step of the most recent participation (staleness tracking).
    pub last_participation: Option<usize>,
    data: Dataset,
    rng: StdRng,
    flat: FlatView,
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

impl Device {
    /// Creates a device with its local dataset and initial model.
    pub fn new(id: usize, data: Dataset, initial_model: Sequential, seed: u64) -> Self {
        assert!(!data.is_empty(), "device {id} has no data");
        let flat = FlatView::of(&initial_model);
        Device {
            id,
            model: initial_model,
            oort_utility: None,
            last_participation: None,
            data,
            rng: device_rng(id, seed),
            flat,
            cloud_score: None,
        }
    }

    /// Re-purposes this replica as a never-trained device `id`: after
    /// the caller loads parameters ([`Device::load_flat`] or an init that
    /// overwrites every one) it is bitwise the device [`Device::new`]
    /// builds and loads the same way — id, data, derived rng, no
    /// utility, no participation, layer state reset
    /// (`recycled_replica_is_a_fresh_one` in `tests/proptests.rs`). The
    /// previous owner's parameters stay in place until then, behind a
    /// dirty flat cache; gradients are zero, as every optimizer step
    /// leaves them. The model must have the architecture `id` trains.
    pub fn recycle(&mut self, id: usize, data: Dataset, seed: u64) {
        assert!(!data.is_empty(), "device {id} has no data");
        self.id = id;
        self.data = data;
        self.rng = device_rng(id, seed);
        self.oort_utility = None;
        self.last_participation = None;
        self.model.reset_state();
        self.invalidate_flat();
    }

    /// Number of local samples (`d_m`).
    pub fn num_samples(&self) -> usize {
        self.data.len()
    }

    /// The device's local dataset.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// Cached flat parameter vector of the carried model.
    ///
    /// # Panics
    /// Panics when the cache is dirty (model mutated without a refresh).
    pub fn flat(&self) -> &[f32] {
        self.flat.flat()
    }

    /// Cached squared L2 norm of the carried model's parameters.
    pub fn flat_norm_sq(&self) -> f32 {
        self.flat.norm_sq()
    }

    /// Marks the flat cache stale after a direct mutation of `model`.
    pub fn invalidate_flat(&mut self) {
        self.flat.invalidate();
        self.cloud_score = None;
    }

    /// Recomputes the flat cache from the current carried model.
    pub fn refresh_flat(&mut self) {
        self.flat.refresh(&self.model);
        self.cloud_score = None;
    }

    /// Overwrites the carried model's parameters from a flat vector whose
    /// squared norm is already known (the broadcast fast path: the cache
    /// is filled by copying, with no re-flatten and no re-norm).
    pub fn load_flat(&mut self, flat: &[f32], norm_sq: f32) {
        unflatten(&mut self.model, flat);
        self.flat.set_from_slice(flat, norm_sq);
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
    /// or on-device aggregation), and refreshes the Oort statistical
    /// utility and the flat cache. Returns the final mini-batch training
    /// loss.
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
                eval,
                batch_idx,
                batch_x,
                batch_y,
                losses,
                opt: opt_slot,
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
            // The Oort utility of `refresh_oort_utility`, through the
            // evaluation workspace: bitwise-identical, no allocation.
            let logits = self.model.infer_ws(self.data.inputs(), eval);
            per_sample_cross_entropy_into(logits, self.data.labels(), losses);
            self.oort_utility = Some(oort_utility(losses));
            loss
        });
        self.last_participation = Some(time_step);
        self.refresh_flat();
        loss
    }

    /// The pre-workspace [`local_train`](Self::local_train): per-sample
    /// conv kernels via the allocating `train_batch` path, a fresh
    /// optimizer and fresh batch buffers every participation. Kept as the
    /// reference-mode oracle — the Fast/Reference fingerprint gate in
    /// `hotpath_equiv` proves the workspace path bitwise-matches it.
    pub fn local_train_reference(
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
        self.refresh_oort_utility();
        self.last_participation = Some(time_step);
        self.refresh_flat();
        loss
    }

    /// Recomputes the Oort statistical utility over the device's local
    /// samples with the current carried model.
    pub fn refresh_oort_utility(&mut self) {
        let logits = self.model.infer(self.data.inputs());
        let losses = per_sample_cross_entropy(&logits, self.data.labels());
        self.oort_utility = Some(oort_utility(&losses));
    }

    /// Steps since the device last participated (`None` if never).
    pub fn staleness(&self, now: usize) -> Option<usize> {
        self.last_participation.map(|t| now.saturating_sub(t))
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
    use middle_nn::params::flatten;
    use middle_nn::zoo;
    use middle_tensor::ops::dot_slices;
    use middle_tensor::random::rng as seed_rng;

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
        let before = d.model.eval_loss(&inputs, &labels);
        let kind = OptimizerKind::Sgd { lr: 0.1 };
        d.local_train(20, 10, &kind, 3);
        let after = d.model.eval_loss(&inputs, &labels);
        assert!(after < before, "{before} -> {after}");
        assert_eq!(d.last_participation, Some(3));
    }

    #[test]
    fn oort_utility_set_after_training() {
        let mut d = mk_device(1, 43);
        assert!(d.oort_utility.is_none());
        d.local_train(1, 5, &OptimizerKind::Sgd { lr: 0.01 }, 0);
        let u = d.oort_utility.unwrap();
        assert!(u > 0.0 && u.is_finite());
    }

    #[test]
    fn oort_utility_falls_as_model_fits() {
        let mut d = mk_device(2, 44);
        d.local_train(1, 10, &OptimizerKind::Sgd { lr: 0.05 }, 0);
        let early = d.oort_utility.unwrap();
        d.local_train(40, 10, &OptimizerKind::Sgd { lr: 0.05 }, 1);
        let late = d.oort_utility.unwrap();
        assert!(late < early, "{early} -> {late}");
    }

    #[test]
    fn staleness_counts_from_last_participation() {
        let mut d = mk_device(3, 45);
        assert_eq!(d.staleness(10), None);
        d.local_train(1, 5, &OptimizerKind::Sgd { lr: 0.01 }, 4);
        assert_eq!(d.staleness(10), Some(6));
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
    #[should_panic(expected = "dirty")]
    fn direct_mutation_without_refresh_is_caught() {
        let mut d = mk_device(5, 47);
        d.invalidate_flat();
        d.flat();
    }
}
