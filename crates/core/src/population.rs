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
//! * [`PopulationMode::Lazy`](crate::config::PopulationMode): idle
//!   devices are [`StubMeta`] records (a version id into a shared,
//!   reference-counted [`VersionSlot`] table plus the device's carried
//!   scalar state), materialised into real [`Device`]s only when
//!   selected. A cloud broadcast pushes *one* new version slot and
//!   retargets every reached stub at it — the per-device dense model
//!   copy of the dense path becomes a version-id write — while reached
//!   resident replicas are demoted back to stubs, freeing their model,
//!   dataset and training scratch.
//!
//! The invariant making this exact: the simulation only ever mutates a
//! device's parameters while it participates, and every broadcast
//! overwrites the parameters of every reached device with the same flat
//! vector. An idle dense device therefore carries bitwise the flat
//! vector of the last broadcast that reached it, which is exactly what
//! its stub's version slot stores. The `population_plane` integration
//! tests pin dense and lazy runs to bitwise-identical RunRecords.

use crate::builder::SharedInputs;
use crate::checkpoint::{
    DeviceCheckpoint, DeviceSlotCheckpoint, PopulationCheckpoint, RngStateCheckpoint,
    VersionCheckpoint,
};
use crate::device::Device;
use crate::selection::update_similarity_flat;
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
    fn hits(&self, m: usize) -> bool {
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

/// The carried state of a virtualized (non-resident) device.
#[derive(Debug, Clone)]
pub struct StubMeta {
    /// Index into the version table; the device's parameters are
    /// bitwise `versions[version].flat`.
    pub version: u32,
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
}

/// Lazy population state: stubs, resident replicas and the shared
/// version table.
pub struct LazyPopulation {
    inputs: Arc<SharedInputs>,
    seed: u64,
    /// Materialised replicas; `None` = virtualized.
    resident: Vec<Option<Box<Device>>>,
    /// Per-device carried scalar state, authoritative only while the
    /// device is a stub (residents carry their own).
    meta: Vec<StubMeta>,
    versions: Vec<VersionSlot>,
    resident_count: usize,
    peak_resident: usize,
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
            resident: (0..num_devices).map(|_| None).collect(),
            meta: (0..num_devices)
                .map(|_| StubMeta {
                    version: 0,
                    oort_utility: None,
                    last_participation: None,
                    rng: None,
                })
                .collect(),
            versions,
            resident_count: 0,
            peak_resident: 0,
        }
    }

    fn unref(&mut self, version: usize) {
        let slot = &mut self.versions[version];
        debug_assert!(slot.refs > 0, "version refcount underflow");
        slot.refs -= 1;
        if slot.refs == 0 {
            // Tombstone: nobody carries this version any more; free the
            // dense vector (the slot index stays, ids are stable).
            slot.flat = Vec::new();
        }
    }

    fn materialize(&mut self, m: usize) {
        if self.resident[m].is_some() {
            return;
        }
        let meta = &self.meta[m];
        let version = meta.version as usize;
        // The device's local dataset is re-gathered from the shared base
        // on demand; `SharedInputs::build` skips the dense per-device
        // pre-gather in lazy mode.
        let data = match &self.inputs.base {
            Some(base) => base.subset(&self.inputs.partition.assignments[m]),
            None => self.inputs.device_data[m].clone(),
        };
        let mut dev = Device::new(m, data, self.inputs.init.clone(), self.seed);
        {
            let slot = &self.versions[version];
            debug_assert!(slot.is_live(), "stub references a tombstoned version");
            dev.load_flat(&slot.flat, slot.norm_sq);
        }
        dev.oort_utility = meta.oort_utility;
        dev.last_participation = meta.last_participation;
        if let Some(state) = meta.rng {
            dev.restore_rng(StdRng::from_state(state));
        }
        self.resident[m] = Some(Box::new(dev));
        self.resident_count += 1;
        self.peak_resident = self.peak_resident.max(self.resident_count);
        // Residents hold no version reference; their parameters live in
        // the replica now.
        self.unref(version);
    }

    fn apply_broadcast(&mut self, flat: &[f32], norm_sq: f32, reached: &Reached<'_>) {
        let id = self.versions.len();
        let version = u32::try_from(id).expect("version id overflow");
        self.versions.push(VersionSlot {
            flat: flat.to_vec(),
            norm_sq,
            refs: 0,
        });
        for m in 0..self.meta.len() {
            if !reached.hits(m) {
                continue;
            }
            if let Some(dev) = self.resident[m].take() {
                // Demote: the broadcast overwrote the replica's
                // parameters with the shared version, so the replica is
                // redundant — save its scalar state and free it.
                self.meta[m] = StubMeta {
                    version,
                    oort_utility: dev.oort_utility,
                    last_participation: dev.last_participation,
                    rng: Some(dev.rng_ref().state()),
                };
                self.resident_count -= 1;
            } else {
                let old = self.meta[m].version as usize;
                self.meta[m].version = version;
                self.unref(old);
            }
            self.versions[id].refs += 1;
        }
        if self.versions[id].refs == 0 {
            // The mask covered no devices; drop the payload immediately.
            self.versions[id].flat = Vec::new();
        }
    }

    /// Live (still-referenced) version slots, as `(id, slot)`.
    pub fn live_versions(&self) -> impl Iterator<Item = (u32, &VersionSlot)> {
        self.versions
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_live())
            .map(|(i, s)| (i as u32, s))
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
                            version: meta.version,
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
        let mut meta: Vec<StubMeta> = Vec::with_capacity(ck.devices.len());
        let mut resident_count = 0usize;
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
                    meta.push(StubMeta {
                        version: *version,
                        oort_utility: *oort_utility,
                        last_participation: *last_participation,
                        rng: rng.as_ref().map(|r| [r.s0, r.s1, r.s2, r.s3]),
                    });
                }
                DeviceSlotCheckpoint::Resident { device } => {
                    let data = match &self.inputs.base {
                        Some(base) => base.subset(&self.inputs.partition.assignments[m]),
                        None => self.inputs.device_data[m].clone(),
                    };
                    let mut dev = Device::new(m, data, self.inputs.init.clone(), self.seed);
                    device.params.restore(&mut dev.model)?;
                    dev.refresh_flat();
                    dev.oort_utility = device.oort_utility;
                    dev.last_participation = device.last_participation;
                    dev.restore_rng(device.rng.restore());
                    resident[m] = Some(Box::new(dev));
                    resident_count += 1;
                    meta.push(StubMeta {
                        version: 0,
                        oort_utility: None,
                        last_participation: None,
                        rng: None,
                    });
                }
            }
        }
        self.versions = versions;
        self.resident = resident;
        self.meta = meta;
        self.resident_count = resident_count;
        self.peak_resident = resident_count;
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
            Population::Lazy(p) => p.resident_count,
        }
    }

    /// High-water mark of materialised replicas over the run.
    pub fn peak_resident(&self) -> usize {
        match self {
            Population::Dense(d) => d.len(),
            Population::Lazy(p) => p.peak_resident,
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
            Population::Lazy(p) => match &p.resident[m] {
                Some(dev) => DeviceRef::Resident(dev),
                None => DeviceRef::Stub(p.meta[m].version),
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

    /// Ensures device `m` is materialised (no-op when dense or already
    /// resident).
    pub fn ensure_resident(&mut self, m: usize) {
        if let Population::Lazy(p) = self {
            p.materialize(m);
        }
    }

    /// The materialised device `m`.
    ///
    /// # Panics
    /// Panics when `m` is virtualized (callers touch only selected
    /// devices, which phase 1 materialises).
    pub fn get(&self, m: usize) -> &Device {
        match self {
            Population::Dense(d) => &d[m],
            Population::Lazy(p) => p.resident[m]
                .as_deref()
                .expect("device not resident; ensure_resident first"),
        }
    }

    /// Mutable access to the materialised device `m`.
    ///
    /// # Panics
    /// Panics when `m` is virtualized.
    pub fn get_mut(&mut self, m: usize) -> &mut Device {
        match self {
            Population::Dense(d) => &mut d[m],
            Population::Lazy(p) => p.resident[m]
                .as_deref_mut()
                .expect("device not resident; ensure_resident first"),
        }
    }

    /// Gathers disjoint `&mut Device` references for a strictly
    /// ascending id list of materialised devices, so the training phase
    /// parallelises over exactly the participants without re-scanning
    /// the population.
    pub fn gather_mut(&mut self, ids: &[usize]) -> Vec<&mut Device> {
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
                ids.iter().map(|&m| unsafe { &mut *ptr.add(m) }).collect()
            }
            Population::Lazy(p) => {
                let ptr = p.resident.as_mut_ptr();
                ids.iter()
                    .map(|&m| {
                        // SAFETY: as above — distinct, in-range slots.
                        unsafe { &mut *ptr.add(m) }
                            .as_deref_mut()
                            .expect("participant not resident")
                    })
                    .collect()
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
