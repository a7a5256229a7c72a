//! The device population plane: dense replicas or lazily-materialised
//! virtual devices (DESIGN.md §13).
//!
//! A hierarchical-FL step touches `K·E` devices out of `N`; at
//! million-device scale the other `N − K·E` replicas exist only to hold
//! the parameters the last cloud broadcast gave them. [`Population`]
//! makes that explicit:
//!
//! * [`PopulationMode::Dense`](crate::config::PopulationMode): the
//!   original `Vec<Device>` — every device fully materialised.
//! * [`PopulationMode::Lazy`](crate::config::PopulationMode): an idle
//!   device is a stub — a version id into a shared, reference-counted
//!   [`VersionSlot`] table (one `u32` per device, the `slot` array) plus
//!   its carried scalar state ([`StubMeta`]) — materialised into a real
//!   [`Device`] only when selected. A cloud broadcast stores *one* new
//!   version and retargets every reached stub at it — the per-device
//!   dense model copy of the dense path becomes a version-id write —
//!   while reached resident replicas are demoted back to stubs and
//!   their replicas pooled for the next materialisation
//!   ([`Device::recycle`]). Materialisation is split in two: phase 1 of
//!   the round *reserves* a replica per selected stub, serially and
//!   cheaply, and one parallel region after the last edge loads the
//!   parameters and runs the inits (`Population::init_participants`).
//!
//! The invariant making this exact: the simulation only ever mutates a
//! device's parameters while it participates, and every broadcast
//! overwrites the parameters of every reached device with the same flat
//! vector. An idle dense device therefore carries bitwise the flat
//! vector of the last broadcast that reached it, which is exactly what
//! its stub's version slot stores. The `population_plane` integration
//! tests pin dense and lazy runs to bitwise-identical RunRecords.

use crate::algorithms::OnDevicePolicy;
use crate::builder::SharedInputs;
use crate::checkpoint::{
    DeviceCheckpoint, DeviceSlotCheckpoint, PopulationCheckpoint, RngStateCheckpoint,
    VersionCheckpoint,
};
use crate::device::Device;
use crate::selection::{
    update_similarity_flat, update_similarity_reference, update_similarity_tolerance,
};
use middle_data::Dataset;
use middle_nn::params::FlatView;
use middle_nn::serialize::{Checkpoint, Packed};
use rand::rngs::StdRng;
use rayon::prelude::*;
use std::sync::Arc;

/// Which devices a cloud broadcast reaches.
pub enum Reached<'a> {
    /// Every device (the fault-free, uncompressed sync).
    All,
    /// Devices whose current edge's WAN link is up: device `m` is
    /// reached iff `up[edge_of[m]]`.
    Mask {
        /// Per-edge WAN-up flags.
        up: &'a [bool],
        /// Current device→edge assignment row (step index `cur`).
        edge_of: &'a [usize],
    },
}

impl Reached<'_> {
    pub(crate) fn hits(&self, m: usize) -> bool {
        match self {
            Reached::All => true,
            Reached::Mask { up, edge_of } => up[edge_of[m]],
        }
    }
}

/// A borrowed view of one device, cheap in either mode.
pub enum DeviceRef<'a> {
    /// The device is materialised.
    Resident(&'a Device),
    /// The device is a stub; its parameters are version `.0`'s flat.
    Stub(u32),
}

/// What phase 1 of the round records for one participant, consumed by
/// [`Population::init_participants`].
pub(crate) struct PendingInit {
    /// The participant.
    pub device: usize,
    /// The broadcast version a replica reserved this step still has to
    /// load ([`Population::reserve`]); `None` when the device was
    /// already materialised.
    pub version: Option<u32>,
    /// The edge the device trains under this step.
    pub edge: usize,
    /// The on-device verdict; `None` when the carried model continues
    /// untouched (a FedFly migration).
    pub init: Option<OnDevicePolicy>,
}

/// `slot` value of a materialised device; every other value is the id of
/// the broadcast version the stub carries.
const RESIDENT: u32 = u32::MAX;

/// The carried scalar state of a virtualized (non-resident) device. Its
/// parameters are not here: they are version `slot[m]`'s flat.
#[derive(Debug, Clone)]
pub struct StubMeta {
    /// Oort statistical utility from the most recent participation.
    pub oort_utility: Option<f32>,
    /// Time step of the most recent participation.
    pub last_participation: Option<usize>,
    /// Saved batch-sampling RNG state; `None` until the device first
    /// participates (a virgin device's stream is derived from the seed
    /// on materialisation, identical to dense construction).
    pub rng: Option<[u64; 4]>,
}

/// One reference-counted broadcast version: the flat parameter vector
/// every stub pointing here carries, plus the squared norm the dense
/// path would have cached for it.
pub struct VersionSlot {
    flat: Vec<f32>,
    norm_sq: f32,
    refs: usize,
}

impl VersionSlot {
    /// Whether any stub still references this version.
    pub fn is_live(&self) -> bool {
        self.refs > 0
    }

    /// Nobody carries this version any more: drop the payload but keep
    /// its allocation for the broadcast that reuses the id.
    fn tombstone(&mut self) {
        self.refs = 0;
        self.flat.clear();
    }
}

/// Lazy population state: stubs, resident replicas and the shared
/// version table, laid out so that a step touches what it uses
/// (DESIGN.md §13): the per-device word the hot paths read is `slot`,
/// one `u32` each; a broadcast walks `residents`, not the population;
/// a demoted replica waits in `pool` for the next materialisation.
pub struct LazyPopulation {
    inputs: Arc<SharedInputs>,
    seed: u64,
    /// Per device: the broadcast version its stub carries, or
    /// [`RESIDENT`]. The one authority on residency.
    slot: Vec<u32>,
    /// The devices with `slot[m] == RESIDENT`, in no particular order.
    residents: Vec<usize>,
    /// Materialised replicas; `Some` exactly where `slot` says
    /// [`RESIDENT`].
    resident: Vec<Option<Box<Device>>>,
    /// Per-device carried scalar state, authoritative only while the
    /// device is a stub (residents carry their own).
    meta: Vec<StubMeta>,
    /// Broadcast versions by id. A slot nobody references is a
    /// tombstone, and the tombstones are the free list: a broadcast
    /// takes the lowest dead id, so the table never outgrows the most
    /// versions ever live at once plus one, and a table restored from
    /// live ids alone hands out the ids the uninterrupted run does.
    versions: Vec<VersionSlot>,
    /// Demoted replicas awaiting re-use. Replicas are never freed, so
    /// `residents.len() + pool.len()` is the number ever allocated, and
    /// one is only allocated while the pool is empty — the run's peak
    /// residency bounds the sum. Boxed like `resident`, so a replica
    /// changes hands without moving.
    #[allow(clippy::vec_box)]
    pool: Vec<Box<Device>>,
    peak_resident: usize,
    fresh_replicas: usize,
}

impl LazyPopulation {
    fn new(inputs: Arc<SharedInputs>, seed: u64, num_devices: usize) -> Self {
        // Version 0 is the shared initial model; every device starts as
        // a stub of it. The slot's norm is computed by the same
        // `FlatView::of` a dense `Device::new` runs, so a virgin stub is
        // bitwise a virgin dense device.
        let init = FlatView::of(&inputs.init);
        let versions = vec![VersionSlot {
            flat: init.flat().to_vec(),
            norm_sq: init.norm_sq(),
            refs: num_devices,
        }];
        LazyPopulation {
            inputs,
            seed,
            slot: vec![0; num_devices],
            residents: Vec::new(),
            resident: (0..num_devices).map(|_| None).collect(),
            meta: vec![
                StubMeta {
                    oort_utility: None,
                    last_participation: None,
                    rng: None,
                };
                num_devices
            ],
            versions,
            pool: Vec::new(),
            peak_resident: 0,
            fresh_replicas: 0,
        }
    }

    /// Device `m`'s local dataset, re-gathered from the shared base on
    /// demand; `SharedInputs::build` skips the dense per-device
    /// pre-gather in lazy mode.
    fn device_data(&self, m: usize) -> Dataset {
        match &self.inputs.base {
            Some(base) => base.subset(&self.inputs.partition.assignments[m]),
            None => self.inputs.device_data[m].clone(),
        }
    }

    fn unref(&mut self, version: u32) {
        let slot = &mut self.versions[version as usize];
        debug_assert!(slot.refs > 0, "version refcount underflow");
        slot.refs -= 1;
        if slot.refs == 0 {
            slot.tombstone();
        }
    }

    /// Stores a broadcast under the lowest dead id (growing the table
    /// only when every slot is live) with no references yet.
    fn alloc_version(&mut self, flat: &[f32], norm_sq: f32) -> u32 {
        let id = match self.versions.iter().position(|s| !s.is_live()) {
            Some(id) => id,
            None => {
                self.versions.push(VersionSlot {
                    flat: Vec::new(),
                    norm_sq: 0.0,
                    refs: 0,
                });
                self.versions.len() - 1
            }
        };
        assert!(id < RESIDENT as usize, "version table outgrew its id space");
        let slot = &mut self.versions[id];
        slot.flat.clear();
        slot.flat.extend_from_slice(flat);
        slot.norm_sq = norm_sq;
        id as u32
    }

    /// The serial half of materialisation: gives stub `m` a replica — a
    /// pooled one re-purposed, a new one only while the pool is empty —
    /// carrying its scalar state, and marks it resident. Returns the
    /// version whose flat the replica must still load, with `m`'s
    /// reference to it left in place so the flat outlives its readers
    /// ([`Population::init_participants`] loads and releases). `None`
    /// when `m` is already resident.
    fn reserve(&mut self, m: usize) -> Option<u32> {
        let version = self.slot[m];
        if version == RESIDENT {
            return None;
        }
        let data = self.device_data(m);
        let mut dev = match self.pool.pop() {
            Some(mut dev) => {
                dev.recycle(m, data, self.seed);
                dev
            }
            None => {
                self.fresh_replicas += 1;
                Box::new(Device::new(m, data, self.inputs.init.clone(), self.seed))
            }
        };
        let meta = &self.meta[m];
        dev.oort_utility = meta.oort_utility;
        dev.last_participation = meta.last_participation;
        if let Some(state) = meta.rng {
            dev.restore_rng(StdRng::from_state(state));
        }
        self.resident[m] = Some(dev);
        self.slot[m] = RESIDENT;
        self.residents.push(m);
        self.peak_resident = self.peak_resident.max(self.residents.len());
        Some(version)
    }

    /// Demotes resident `m` to a stub of `version`: the broadcast
    /// overwrote the replica's parameters with the shared version, so
    /// the replica is redundant — its scalar state is saved and it goes
    /// to the pool. The caller owns `residents` and the version's
    /// reference count.
    fn demote(&mut self, m: usize, version: u32) {
        let dev = self.resident[m]
            .take()
            .expect("residents lists a virtualized device");
        self.meta[m] = StubMeta {
            oort_utility: dev.oort_utility,
            last_participation: dev.last_participation,
            rng: Some(dev.rng_ref().state()),
        };
        self.slot[m] = version;
        self.pool.push(dev);
    }

    fn apply_broadcast(&mut self, flat: &[f32], norm_sq: f32, reached: &Reached<'_>) {
        let mut residents = std::mem::take(&mut self.residents);
        match reached {
            // Everyone carries the new version afterwards: O(residents)
            // demotions and one fill, no walk over the stubs.
            Reached::All => {
                self.versions.iter_mut().for_each(VersionSlot::tombstone);
                let version = self.alloc_version(flat, norm_sq);
                for m in residents.drain(..) {
                    self.demote(m, version);
                }
                self.slot.fill(version);
                self.versions[version as usize].refs = self.slot.len();
            }
            Reached::Mask { .. } => {
                let version = self.alloc_version(flat, norm_sq);
                let mut refs = 0;
                for m in 0..self.slot.len() {
                    let old = self.slot[m];
                    if old != RESIDENT && reached.hits(m) {
                        self.slot[m] = version;
                        self.unref(old);
                        refs += 1;
                    }
                }
                residents.retain(|&m| {
                    let hit = reached.hits(m);
                    if hit {
                        self.demote(m, version);
                        refs += 1;
                    }
                    !hit
                });
                // A mask that covered nobody leaves the slot dead, its
                // payload already reusable.
                let slot = &mut self.versions[version as usize];
                slot.refs = refs;
                if refs == 0 {
                    slot.tombstone();
                }
            }
        }
        self.residents = residents;
    }

    /// Live (still-referenced) version slots, as `(id, slot)`.
    pub fn live_versions(&self) -> impl Iterator<Item = (u32, &VersionSlot)> {
        self.versions
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_live())
            .map(|(i, s)| (i as u32, s))
    }

    /// Length of the version table, tombstones included.
    pub fn version_table_len(&self) -> usize {
        self.versions.len()
    }

    /// Panics unless the plane's redundant state agrees with itself
    /// between ticks: `slot`, `resident` and `residents` name the same
    /// resident set, every version's count is the number of stubs
    /// carrying it (so no stub carries a tombstone), and the replicas
    /// held never exceed the peak residency.
    fn check_invariants(&self) {
        for (m, (&v, replica)) in self.slot.iter().zip(&self.resident).enumerate() {
            assert_eq!(
                v == RESIDENT,
                replica.is_some(),
                "device {m}: slot and replica disagree on residency"
            );
            assert!(replica.as_ref().is_none_or(|dev| dev.id == m));
        }
        let mut listed = self.residents.clone();
        listed.sort_unstable();
        let resident_slots: Vec<usize> = (0..self.slot.len())
            .filter(|&m| self.slot[m] == RESIDENT)
            .collect();
        assert_eq!(
            listed, resident_slots,
            "residents list is not the resident set"
        );
        let mut refs = vec![0usize; self.versions.len()];
        for &v in self.slot.iter().filter(|&&v| v != RESIDENT) {
            refs[v as usize] += 1;
        }
        for (v, (slot, &carried)) in self.versions.iter().zip(&refs).enumerate() {
            assert_eq!(slot.refs, carried, "version {v}: count is not its stubs");
            assert!(
                !slot.is_live() || !slot.flat.is_empty(),
                "version {v} lost its payload"
            );
        }
        assert!(
            self.residents.len() + self.pool.len() <= self.peak_resident,
            "{} residents + {} pooled replicas exceed the peak residency {}",
            self.residents.len(),
            self.pool.len(),
            self.peak_resident
        );
    }

    fn checkpoint(&self) -> PopulationCheckpoint {
        PopulationCheckpoint {
            versions: self
                .live_versions()
                .map(|(id, s)| VersionCheckpoint {
                    id,
                    flat: Packed(s.flat.clone()),
                    norm_sq: s.norm_sq,
                })
                .collect(),
            devices: (0..self.meta.len())
                .map(|m| match &self.resident[m] {
                    Some(dev) => DeviceSlotCheckpoint::Resident {
                        device: DeviceCheckpoint {
                            params: Checkpoint::capture(&dev.model),
                            oort_utility: dev.oort_utility,
                            last_participation: dev.last_participation,
                            rng: RngStateCheckpoint::capture(dev.rng_ref()),
                        },
                    },
                    None => {
                        let meta = &self.meta[m];
                        DeviceSlotCheckpoint::Stub {
                            version: self.slot[m],
                            oort_utility: meta.oort_utility,
                            last_participation: meta.last_participation,
                            rng: meta.rng.map(|s| RngStateCheckpoint {
                                s0: s[0],
                                s1: s[1],
                                s2: s[2],
                                s3: s[3],
                            }),
                        }
                    }
                })
                .collect(),
        }
    }

    /// Rebuilds the plane from a checkpoint. The pool and every score
    /// cache are derived state and are not in it: the pool restarts
    /// empty and the restored replicas are new allocations.
    fn restore(&mut self, ck: &PopulationCheckpoint) -> Result<(), String> {
        if ck.devices.len() != self.meta.len() {
            return Err(format!(
                "population checkpoint holds {} devices (expected {})",
                ck.devices.len(),
                self.meta.len()
            ));
        }
        let len = ck
            .versions
            .iter()
            .map(|v| v.id as usize + 1)
            .max()
            .unwrap_or(0);
        let mut versions: Vec<VersionSlot> = (0..len)
            .map(|_| VersionSlot {
                flat: Vec::new(),
                norm_sq: 0.0,
                refs: 0,
            })
            .collect();
        for v in &ck.versions {
            let slot = &mut versions[v.id as usize];
            slot.flat = v.flat.0.clone();
            slot.norm_sq = v.norm_sq;
        }
        let mut resident: Vec<Option<Box<Device>>> = (0..ck.devices.len()).map(|_| None).collect();
        let mut slots: Vec<u32> = Vec::with_capacity(ck.devices.len());
        let mut residents: Vec<usize> = Vec::new();
        let mut meta: Vec<StubMeta> = Vec::with_capacity(ck.devices.len());
        for (m, slot) in ck.devices.iter().enumerate() {
            match slot {
                DeviceSlotCheckpoint::Stub {
                    version,
                    oort_utility,
                    last_participation,
                    rng,
                } => {
                    let v = *version as usize;
                    if v >= versions.len() || versions[v].flat.is_empty() {
                        return Err(format!("stub {m} references missing version {version}"));
                    }
                    versions[v].refs += 1;
                    slots.push(*version);
                    meta.push(StubMeta {
                        oort_utility: *oort_utility,
                        last_participation: *last_participation,
                        rng: rng.as_ref().map(|r| [r.s0, r.s1, r.s2, r.s3]),
                    });
                }
                DeviceSlotCheckpoint::Resident { device } => {
                    let mut dev =
                        Device::new(m, self.device_data(m), self.inputs.init.clone(), self.seed);
                    device.params.restore(&mut dev.model)?;
                    dev.refresh_flat();
                    dev.oort_utility = device.oort_utility;
                    dev.last_participation = device.last_participation;
                    dev.restore_rng(device.rng.restore());
                    resident[m] = Some(Box::new(dev));
                    slots.push(RESIDENT);
                    residents.push(m);
                    meta.push(StubMeta {
                        oort_utility: None,
                        last_participation: None,
                        rng: None,
                    });
                }
            }
        }
        self.versions = versions;
        self.slot = slots;
        self.resident = resident;
        self.meta = meta;
        self.pool.clear();
        self.peak_resident = residents.len();
        self.fresh_replicas = residents.len();
        self.residents = residents;
        Ok(())
    }
}

/// The simulation's device population, dense or lazy.
pub enum Population {
    /// Every device fully materialised (the original representation).
    Dense(Vec<Device>),
    /// Stubs + shared version table + resident working set.
    Lazy(LazyPopulation),
}

impl Population {
    /// Builds the dense population: one full replica per device.
    pub(crate) fn dense(devices: Vec<Device>) -> Self {
        Population::Dense(devices)
    }

    /// Builds the lazy population: every device a stub of version 0
    /// (the shared initial model).
    pub(crate) fn lazy(inputs: Arc<SharedInputs>, seed: u64, num_devices: usize) -> Self {
        Population::Lazy(LazyPopulation::new(inputs, seed, num_devices))
    }

    /// Number of devices, resident or not.
    pub fn len(&self) -> usize {
        match self {
            Population::Dense(d) => d.len(),
            Population::Lazy(p) => p.meta.len(),
        }
    }

    /// Whether the population holds no devices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this is the dense representation.
    pub fn is_dense(&self) -> bool {
        matches!(self, Population::Dense(_))
    }

    /// Currently materialised replicas (equals `len()` when dense).
    pub fn resident_count(&self) -> usize {
        match self {
            Population::Dense(d) => d.len(),
            Population::Lazy(p) => p.residents.len(),
        }
    }

    /// High-water mark of materialised replicas over the run.
    pub fn peak_resident(&self) -> usize {
        match self {
            Population::Dense(d) => d.len(),
            Population::Lazy(p) => p.peak_resident,
        }
    }

    /// Replicas allocated so far (equals `len()` when dense). Demoted
    /// replicas are pooled and re-purposed, so over a run this stays at
    /// or below [`Population::peak_resident`] however many devices
    /// materialise.
    pub fn fresh_replicas(&self) -> usize {
        match self {
            Population::Dense(d) => d.len(),
            Population::Lazy(p) => p.fresh_replicas,
        }
    }

    /// The dense device slice.
    ///
    /// # Panics
    /// Panics on a lazy population (idle devices have no replica to
    /// borrow); scale-aware callers use [`Population::view`].
    pub fn dense_slice(&self) -> &[Device] {
        match self {
            Population::Dense(d) => d,
            Population::Lazy(_) => panic!("lazy population has no dense device slice"),
        }
    }

    pub(crate) fn dense_slice_mut(&mut self) -> &mut [Device] {
        match self {
            Population::Dense(d) => d,
            Population::Lazy(_) => panic!("lazy population has no dense device slice"),
        }
    }

    /// A cheap per-device view: the replica when materialised, the
    /// version id when virtualized.
    pub fn view(&self, m: usize) -> DeviceRef<'_> {
        match self {
            Population::Dense(d) => DeviceRef::Resident(&d[m]),
            Population::Lazy(p) => match p.slot[m] {
                RESIDENT => DeviceRef::Resident(
                    p.resident[m]
                        .as_deref()
                        .expect("slot says resident but the replica is gone"),
                ),
                version => DeviceRef::Stub(version),
            },
        }
    }

    /// The device's Oort utility (carried by the stub while idle).
    pub fn oort_utility(&self, m: usize) -> Option<f32> {
        match self.view(m) {
            DeviceRef::Resident(dev) => dev.oort_utility,
            DeviceRef::Stub(_) => match self {
                Population::Lazy(p) => p.meta[m].oort_utility,
                Population::Dense(_) => unreachable!("dense devices are always resident"),
            },
        }
    }

    /// The flat parameter vector of version `v` (lazy only).
    pub fn version_flat(&self, v: u32) -> &[f32] {
        match self {
            Population::Dense(_) => panic!("dense population has no version table"),
            Population::Lazy(p) => {
                let slot = &p.versions[v as usize];
                debug_assert!(slot.is_live(), "reading a tombstoned version");
                &slot.flat
            }
        }
    }

    /// Scores every live version against the cloud model with the fast
    /// fused similarity kernel, indexed by version id (`NaN` for
    /// tombstones). One O(V·P) pass replaces per-stub O(P) scoring:
    /// every stub of a version shares its score bitwise, exactly as
    /// every idle dense device holding that broadcast shares one.
    pub fn version_scores(&self, cloud_flat: &[f32], cloud_norm_sq: f32, out: &mut Vec<f32>) {
        out.clear();
        if let Population::Lazy(p) = self {
            out.extend(p.versions.iter().map(|s| {
                if s.is_live() {
                    update_similarity_flat(&s.flat, s.norm_sq, cloud_flat, cloud_norm_sq)
                } else {
                    f32::NAN
                }
            }));
        }
    }

    /// Gives a selected device a replica before its init touches the
    /// carried model: the serial half of materialisation (no-op when
    /// dense or already resident). Returns the broadcast version the
    /// replica still has to load, which
    /// [`Population::init_participants`] does for every participant of
    /// the step at once.
    pub(crate) fn reserve(&mut self, m: usize) -> Option<u32> {
        match self {
            Population::Dense(_) => None,
            Population::Lazy(p) => p.reserve(m),
        }
    }

    /// The parallel half of materialisation and device init, one region
    /// over the step's participants (`pending`, ascending by device):
    /// a replica reserved this step loads its pending version's flat —
    /// unless its verdict is `EdgeModel`, which overwrites every
    /// parameter and the flat cache anyway — then `kernel` writes the
    /// device's initial model. The version references the reservations
    /// kept are released serially afterwards, so no flat is tombstoned
    /// under a reader.
    pub(crate) fn init_participants<F>(&mut self, ids: &[usize], pending: &[PendingInit], kernel: F)
    where
        F: Fn(&mut Device, &PendingInit) + Sync,
    {
        debug_assert!(ids.iter().eq(pending.iter().map(|p| &p.device)));
        let (mut devices, versions) = self.gather_parts(ids);
        devices
            .par_iter_mut()
            .zip(pending.par_iter())
            .for_each(|(dev, p)| {
                if let Some(v) = p.version {
                    if !matches!(p.init, Some(OnDevicePolicy::EdgeModel)) {
                        let slot = &versions[v as usize];
                        debug_assert!(slot.is_live(), "stub references a tombstoned version");
                        dev.load_flat(&slot.flat, slot.norm_sq);
                    }
                }
                kernel(dev, p);
            });
        drop(devices);
        if let Population::Lazy(p) = self {
            for version in pending.iter().filter_map(|p| p.version) {
                p.unref(version);
            }
        }
    }

    /// Fills the cached selection score of every materialised device
    /// whose cache is stale against the cloud model of `epoch`, in one
    /// parallel region — all of a dense population after a sync,
    /// residents a masked broadcast missed, anything after a restore;
    /// nothing in the steady state, where the training job has already
    /// scored every replica it touched. `stale` is scratch.
    pub(crate) fn refresh_cloud_scores(
        &mut self,
        epoch: u64,
        cloud_flat: &[f32],
        cloud_norm_sq: f32,
        stale: &mut Vec<usize>,
    ) {
        let is_stale = |dev: &Device| dev.cloud_score(epoch).is_none();
        stale.clear();
        match self {
            Population::Dense(d) => {
                stale.extend(d.iter().filter(|dev| is_stale(dev)).map(|dev| dev.id))
            }
            Population::Lazy(p) => {
                stale.extend(
                    p.residents
                        .iter()
                        .copied()
                        .filter(|&m| is_stale(p.resident[m].as_deref().expect("listed resident"))),
                );
                stale.sort_unstable();
            }
        }
        if stale.is_empty() {
            return;
        }
        self.gather_mut(stale)
            .par_iter_mut()
            .for_each(|dev| dev.refresh_cloud_score(epoch, cloud_flat, cloud_norm_sq));
    }

    /// The materialised device `m`.
    ///
    /// # Panics
    /// Panics when `m` is virtualized (callers touch only selected
    /// devices, which phase 1 materialises).
    pub fn get(&self, m: usize) -> &Device {
        match self {
            Population::Dense(d) => &d[m],
            Population::Lazy(p) => p.resident[m].as_deref().expect("device not resident"),
        }
    }

    /// Gathers disjoint `&mut Device` references for a strictly
    /// ascending id list of materialised devices, so the training phase
    /// parallelises over exactly the participants without re-scanning
    /// the population.
    pub fn gather_mut(&mut self, ids: &[usize]) -> Vec<&mut Device> {
        self.gather_parts(ids).0
    }

    /// [`Population::gather_mut`] plus the version table (empty when
    /// dense), which the borrow of the replicas would otherwise hide.
    fn gather_parts(&mut self, ids: &[usize]) -> (Vec<&mut Device>, &[VersionSlot]) {
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "participant ids must be strictly ascending"
        );
        if let Some(&last) = ids.last() {
            assert!(last < self.len(), "participant id out of range");
        }
        match self {
            Population::Dense(d) => {
                let ptr = d.as_mut_ptr();
                // SAFETY: the ids are strictly ascending (hence
                // distinct) and in range, so every produced reference
                // aliases a unique element.
                let devices = ids.iter().map(|&m| unsafe { &mut *ptr.add(m) }).collect();
                (devices, &[])
            }
            Population::Lazy(p) => {
                let ptr = p.resident.as_mut_ptr();
                let devices = ids
                    .iter()
                    .map(|&m| {
                        // SAFETY: as above — distinct, in-range slots.
                        unsafe { &mut *ptr.add(m) }
                            .as_deref_mut()
                            .expect("participant not resident")
                    })
                    .collect();
                (devices, &p.versions)
            }
        }
    }

    /// Panics unless the population's derived state is consistent: the
    /// lazy plane's tables ([`LazyPopulation::check_invariants`]) and,
    /// in either mode, every score cached against the cloud model of
    /// `epoch` (whose parameters are `cloud_flat`) within rounding of a
    /// fresh score by the reference scorer, which rebuilds `Δw` from the
    /// device's model.
    #[doc(hidden)]
    pub fn check_invariants(&self, epoch: u64, cloud_flat: &[f32]) {
        let check = |dev: &Device| {
            if let Some(score) = dev.cloud_score(epoch) {
                let oracle = update_similarity_reference(dev, cloud_flat);
                let tolerance = update_similarity_tolerance(dev.flat(), cloud_flat);
                assert!(
                    (score - oracle).abs() <= tolerance,
                    "device {}: cached cloud score {score} is not the reference {oracle}",
                    dev.id
                );
            }
        };
        match self {
            Population::Dense(d) => d.iter().for_each(check),
            Population::Lazy(p) => {
                p.check_invariants();
                p.resident.iter().flatten().for_each(|dev| check(dev));
            }
        }
    }

    /// Applies a cloud broadcast: every reached device's parameters
    /// become `flat` (with cached norm `norm_sq`). Dense: a parallel
    /// per-replica copy. Lazy: one new version slot; reached stubs are
    /// retargeted at it and reached residents demoted back to stubs —
    /// the per-device dense copy becomes a version-id write, and the
    /// resident working set resets.
    pub fn apply_broadcast(&mut self, flat: &[f32], norm_sq: f32, reached: Reached<'_>) {
        match self {
            Population::Dense(devices) => devices.par_iter_mut().for_each(|d| {
                if reached.hits(d.id) {
                    d.load_flat(flat, norm_sq);
                }
            }),
            Population::Lazy(p) => p.apply_broadcast(flat, norm_sq, &reached),
        }
    }

    /// Captures the lazy population's state (`None` when dense — the
    /// dense path serialises its replicas in the checkpoint's `devices`
    /// field).
    pub(crate) fn checkpoint(&self) -> Option<PopulationCheckpoint> {
        match self {
            Population::Dense(_) => None,
            Population::Lazy(p) => Some(p.checkpoint()),
        }
    }

    /// Restores a lazy population checkpoint.
    ///
    /// # Errors
    /// Returns a description when the checkpoint's shape disagrees or a
    /// stub references a missing version.
    pub(crate) fn restore(&mut self, ck: &PopulationCheckpoint) -> Result<(), String> {
        match self {
            Population::Dense(_) => {
                Err("population checkpoint applied to a dense simulation".into())
            }
            Population::Lazy(p) => p.restore(ck),
        }
    }
}
