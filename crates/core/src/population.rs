//! The device population plane: every device is a stub of a broadcast
//! version until it is selected (DESIGN.md §13).
//!
//! A hierarchical-FL step touches `K·E` devices out of `N`; the other
//! `N − K·E` exist only to hold the parameters the last cloud broadcast
//! gave them. [`Population`] holds exactly that: an idle device is a stub
//! — a version id into a shared, reference-counted [`VersionSlot`] table
//! (one `u32` per device, the `slot` array) plus its carried scalar state
//! ([`StubMeta`]) — materialised into a real [`Device`] only when
//! selected. A cloud broadcast stores *one* new version and retargets
//! every reached stub at it, while reached resident replicas are demoted
//! back to stubs and their replicas pooled for the next materialisation
//! ([`Device::recycle`]). Materialisation is split in two: phase 1 of the
//! round *reserves* a replica per selected stub, serially and cheaply — a
//! pooled one, or a fresh one while the pool is empty — and the step's
//! one participant region (`Population::run_participants`) finishes it on
//! the thread that then inits, trains and scores the device: a pooled
//! replica's dataset and re-purposing, then the carried state and
//! parameters.
//!
//! The invariant making this exact: the simulation only ever mutates a
//! device's parameters while it participates, and every broadcast
//! overwrites the parameters of every reached device with the same flat
//! vector. An idle device therefore is, bit for bit, the flat vector of
//! the last broadcast that reached it, which is exactly what its stub's
//! version slot stores. The differential matrix
//! (`crates/core/tests/matrix.rs`) holds runs to trajectories pinned
//! when every device still had a replica of its own.

use crate::algorithms::OnDevicePolicy;
use crate::builder::PopulationData;
use crate::checkpoint::{
    DeviceCheckpoint, DeviceSlotCheckpoint, PopulationCheckpoint, RngStateCheckpoint,
    VersionCheckpoint,
};
use crate::device::Device;
use crate::selection::{
    update_similarity_flat, update_similarity_reference, update_similarity_tolerance,
};
use middle_nn::serialize::{Checkpoint, Packed};
use middle_tensor::ops::dot_slices;
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

/// A borrowed view of one device.
pub enum DeviceRef<'a> {
    /// The device is materialised.
    Resident(&'a Device),
    /// The device is a stub; its parameters are version `.0`'s flat.
    Stub(u32),
}

/// What phase 1 of the round records for one participant, consumed by
/// [`Population::run_participants`].
pub(crate) struct PendingInit {
    /// The participant.
    pub device: usize,
    /// What the participant region still owes a device materialised
    /// this step ([`Population::reserve`]); `None` when the device was
    /// already materialised.
    pub reserved: Option<Reserved>,
    /// The edge the device trains under this step.
    pub edge: usize,
    /// The on-device verdict; `None` when the carried model continues
    /// untouched (a FedFly migration).
    pub init: Option<OnDevicePolicy>,
}

/// A replica [`Population::reserve`] gave a stub, which the participant
/// region finishes ([`finish_replica`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reserved {
    /// The broadcast version the replica must load.
    pub version: u32,
    /// Whether the replica came from the pool, so the region still has
    /// to re-purpose it ([`Device::recycle`]) for the device; a replica
    /// built on a pool miss is the device's already.
    pub recycle: bool,
}

/// `slot` value of a materialised device; every other value is the id of
/// the broadcast version the stub carries.
const RESIDENT: u32 = u32::MAX;

/// The carried scalar state of a virtualized (non-resident) device. Its
/// parameters are not here: they are version `slot[m]`'s flat.
#[derive(Debug, Clone)]
pub struct StubMeta {
    /// Oort statistical utility from the most recent participation
    /// ([`Device::oort_utility`]: `None` under a policy that never reads
    /// it).
    pub oort_utility: Option<f32>,
    /// Time step of the most recent participation.
    pub last_participation: Option<usize>,
    /// Saved batch-sampling RNG state; `None` until the device first
    /// participates (a virgin device's stream is derived from the seed
    /// on materialisation, as [`Device::new`] derives it).
    pub rng: Option<[u64; 4]>,
}

/// One reference-counted broadcast version: the flat parameter vector
/// every stub pointing here carries, plus its cached squared norm.
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

/// The simulation's device population: stubs, resident replicas and the
/// shared version table, laid out so that a step touches what it uses
/// (DESIGN.md §13): the per-device word the hot paths read is `slot`,
/// one `u32` each; a broadcast walks `residents`, not the population; a
/// demoted replica waits in `pool` for the next materialisation.
pub struct Population {
    data: Arc<PopulationData>,
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

/// The population's tables as a checkpoint restores them
/// ([`Population::decode`]).
pub(crate) struct PopulationTables {
    versions: Vec<VersionSlot>,
    slot: Vec<u32>,
    resident: Vec<Option<Box<Device>>>,
    residents: Vec<usize>,
    meta: Vec<StubMeta>,
}

impl Population {
    /// Builds the population: every device a stub of version 0, the
    /// shared initial model. The slot's norm is the same `dot_slices` of
    /// the plane a [`Device::new`] computes, so a virgin stub is bitwise
    /// a freshly built device.
    pub(crate) fn new(data: Arc<PopulationData>, seed: u64, num_devices: usize) -> Self {
        let init = data.init.params();
        let versions = vec![VersionSlot {
            flat: init.to_vec(),
            norm_sq: dot_slices(init, init),
            refs: num_devices,
        }];
        Population {
            data,
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

    /// Number of devices, resident or not.
    pub fn len(&self) -> usize {
        self.slot.len()
    }

    /// Whether the population holds no devices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Currently materialised replicas.
    pub fn resident_count(&self) -> usize {
        self.residents.len()
    }

    /// High-water mark of materialised replicas over the run.
    pub fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    /// Replicas allocated so far. Demoted replicas are pooled and
    /// re-purposed, so over a run this stays at or below
    /// [`Population::peak_resident`] however many devices materialise.
    pub fn fresh_replicas(&self) -> usize {
        self.fresh_replicas
    }

    /// A cheap per-device view: the replica when materialised, the
    /// version id when virtualized.
    pub fn view(&self, m: usize) -> DeviceRef<'_> {
        match self.slot[m] {
            // Cannot fire: `reserve` sets `slot[m] = RESIDENT` in the same
            // call that stores the replica, `demote` takes the replica in
            // the call that writes a version id, and `install` takes both
            // tables from one `decode` that pairs them
            // (`check_invariants` holds every run to this).
            RESIDENT => DeviceRef::Resident(
                self.resident[m]
                    .as_deref()
                    .expect("slot says resident but the replica is gone"),
            ),
            version => DeviceRef::Stub(version),
        }
    }

    /// The device's Oort utility (carried by the stub while idle).
    pub fn oort_utility(&self, m: usize) -> Option<f32> {
        match self.view(m) {
            DeviceRef::Resident(dev) => dev.oort_utility,
            DeviceRef::Stub(_) => self.meta[m].oort_utility,
        }
    }

    /// The flat parameter vector of version `v`.
    pub fn version_flat(&self, v: u32) -> &[f32] {
        let slot = &self.versions[v as usize];
        debug_assert!(slot.is_live(), "reading a tombstoned version");
        &slot.flat
    }

    /// Live (still-referenced) version slots, as `(id, slot)`.
    pub fn live_versions(&self) -> impl Iterator<Item = (u32, &VersionSlot)> {
        self.versions
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_live())
            .map(|(i, s)| (i as u32, s))
    }

    /// Scores every live version against the cloud model with the fast
    /// fused similarity kernel, indexed by version id (`NaN` for
    /// tombstones). One O(V·P) pass replaces per-stub O(P) scoring:
    /// every stub of a version shares its score bitwise.
    pub fn version_scores(&self, cloud_flat: &[f32], cloud_norm_sq: f32, out: &mut Vec<f32>) {
        out.clear();
        out.extend(self.versions.iter().map(|s| {
            if s.is_live() {
                update_similarity_flat(&s.flat, s.norm_sq, cloud_flat, cloud_norm_sq)
            } else {
                f32::NAN
            }
        }));
    }

    /// Device `m`'s rows of the shared base dataset.
    fn rows(&self, m: usize) -> &[usize] {
        &self.data.partition.assignments[m]
    }

    /// A replica of device `m` as [`Device::new`] builds it: its rows
    /// gathered from the base, the initial model, the seeded RNG.
    fn build_replica(&self, m: usize) -> Device {
        let data = self.data.base.subset(self.rows(m));
        Device::new(m, data, self.data.init.clone(), self.seed)
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

    /// Reserves a replica for a selected device before anything touches
    /// its carried model: the serial half of materialisation. Gives stub
    /// `m` a replica — a pooled one, or a fresh one only while the pool
    /// is empty — and marks it resident. Everything else waits for the
    /// participant region ([`Population::run_participants`]):
    /// re-purposing a pooled replica, the stub's carried state and the
    /// version's parameters. The version stays referenced by `m` until
    /// the region has loaded it. Fresh replicas are built here, on the
    /// calling thread, so every replica the run ever holds comes from
    /// one allocator arena. `None` when `m` is already resident.
    pub(crate) fn reserve(&mut self, m: usize) -> Option<Reserved> {
        let version = self.slot[m];
        if version == RESIDENT {
            return None;
        }
        let (replica, recycle) = match self.pool.pop() {
            Some(pooled) => (pooled, true),
            None => {
                self.fresh_replicas += 1;
                (Box::new(self.build_replica(m)), false)
            }
        };
        self.resident[m] = Some(replica);
        self.slot[m] = RESIDENT;
        self.residents.push(m);
        self.peak_resident = self.peak_resident.max(self.residents.len());
        Some(Reserved { version, recycle })
    }

    /// The step's participant region: one parallel pass over the
    /// participants (`pending`, ascending by device, `ids` its devices)
    /// in which each participant's whole job runs on one thread. A device
    /// reserved this step first gets its replica finished
    /// ([`finish_replica`]), then `job` inits, trains and scores it. The
    /// version references the reservations kept are released serially
    /// afterwards, so no flat is tombstoned under a reader.
    pub(crate) fn run_participants<F>(&mut self, ids: &[usize], pending: &[PendingInit], job: F)
    where
        F: Fn(&mut Device, &PendingInit) + Sync,
    {
        debug_assert!(ids.iter().eq(pending.iter().map(|p| &p.device)));
        // The replicas leave the plane for the region, so each job can
        // read the rest of it — datasets, carried state, version flats —
        // while it writes its own replica.
        let mut resident = std::mem::take(&mut self.resident);
        let population = &*self;
        disjoint_mut(&mut resident, ids)
            .par_iter_mut()
            .zip(pending.par_iter())
            .for_each(|(slot, p)| {
                // Cannot fire: phase 1 reserved every participant (or
                // found it resident), and nothing demotes between phase 1
                // and this region.
                let dev = slot.as_deref_mut().expect("participant not resident");
                if let Some(reserved) = p.reserved {
                    finish_replica(population, dev, p, reserved);
                }
                job(dev, p);
            });
        self.resident = resident;
        for reserved in pending.iter().filter_map(|p| p.reserved) {
            self.unref(reserved.version);
        }
    }

    /// Fills the cached selection score of every materialised device
    /// whose cache is stale against the cloud model of `epoch`, in one
    /// parallel region — residents a masked broadcast missed, anything
    /// after a restore; nothing in the steady state, where the training
    /// job has already scored every replica it touched. `stale` is
    /// scratch.
    pub(crate) fn refresh_cloud_scores(
        &mut self,
        epoch: u64,
        cloud_flat: &[f32],
        cloud_norm_sq: f32,
        stale: &mut Vec<usize>,
    ) {
        stale.clear();
        stale.extend(self.residents.iter().copied().filter(|&m| {
            // Cannot fire: `residents` lists exactly the devices whose
            // replica is present (see `view`).
            let dev = self.resident[m].as_deref().expect("listed resident");
            dev.cloud_score(epoch).is_none()
        }));
        if stale.is_empty() {
            return;
        }
        stale.sort_unstable();
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
        // Fires only on a caller's error, the precondition above: the
        // simulation asks for devices of the current step's cohorts,
        // which phase 1 made resident.
        self.resident[m].as_deref().expect("device not resident")
    }

    /// Gathers disjoint `&mut Device` references for a strictly
    /// ascending id list of materialised devices, so a region
    /// parallelises over exactly those devices without re-scanning the
    /// population.
    pub fn gather_mut(&mut self, ids: &[usize]) -> Vec<&mut Device> {
        disjoint_mut(&mut self.resident, ids)
            .into_iter()
            // Cannot fire for the simulation's calls, which pass the
            // stale residents `refresh_cloud_scores` just listed; any
            // other caller must pass resident ids, as documented.
            .map(|slot| slot.as_deref_mut().expect("participant not resident"))
            .collect()
    }

    /// Panics unless the population's derived state is consistent:
    /// `slot`, `resident` and `residents` name the same resident set,
    /// every version's count is the number of stubs carrying it (so no
    /// stub carries a tombstone), the replicas held never exceed the
    /// peak residency, and every score cached against the cloud model of
    /// `epoch` (whose parameters are `cloud_flat`) is within rounding of
    /// a fresh score by the reference scorer, which rebuilds `Δw` from
    /// the device's model.
    #[doc(hidden)]
    pub fn check_invariants(&self, epoch: u64, cloud_flat: &[f32]) {
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
        for dev in self.resident.iter().flatten() {
            if let Some(score) = dev.cloud_score(epoch) {
                let oracle = update_similarity_reference(dev, cloud_flat);
                let tolerance = update_similarity_tolerance(dev.flat(), cloud_flat);
                assert!(
                    (score - oracle).abs() <= tolerance,
                    "device {}: cached cloud score {score} is not the reference {oracle}",
                    dev.id
                );
            }
        }
    }

    /// Demotes resident `m` to a stub of `version`: the broadcast
    /// overwrote the replica's parameters with the shared version, so
    /// the replica is redundant — its scalar state is saved and it goes
    /// to the pool. The caller owns `residents` and the version's
    /// reference count.
    fn demote(&mut self, m: usize, version: u32) {
        // Cannot fire: callers demote only ids taken from `residents`,
        // which lists exactly the present replicas (see `view`).
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

    /// Applies a cloud broadcast: every reached device's parameters
    /// become `flat` (with cached norm `norm_sq`). One new version slot;
    /// reached stubs are retargeted at it and reached residents demoted
    /// back to stubs — a per-device model copy becomes a version-id
    /// write, and the resident working set resets.
    pub fn apply_broadcast(&mut self, flat: &[f32], norm_sq: f32, reached: Reached<'_>) {
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

    /// Captures the population's state: the live versions, and per
    /// device a resident replica or a stub of its version.
    pub(crate) fn checkpoint(&self) -> PopulationCheckpoint {
        PopulationCheckpoint {
            versions: self
                .live_versions()
                .map(|(id, s)| VersionCheckpoint {
                    id,
                    flat: Packed(s.flat.clone()),
                    norm_sq: s.norm_sq,
                })
                .collect(),
            devices: (0..self.len())
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

    /// Checks a checkpoint's population block against this population
    /// and decodes it into the plane's tables, writing nothing: the
    /// version table must pass [`decode_versions`], every stub must carry
    /// a version the checkpoint holds, and every resident replica must
    /// fit the model. A stub may carry its RNG state or not, and its
    /// version may be any plane — the shape a checkpoint written with a
    /// replica per device has (every device a stub with its RNG), which
    /// restores as it was written. The pool and every score cache are
    /// derived state and are not in it: the pool restarts empty and the
    /// restored replicas are new allocations.
    ///
    /// # Errors
    /// Returns a description when the block does not fit: the wrong
    /// device count, a flat that is not the model's length, a duplicate
    /// or out-of-range id, a stub of a missing version, or a replica of
    /// the wrong architecture.
    pub(crate) fn decode(&self, ck: &PopulationCheckpoint) -> Result<PopulationTables, String> {
        let devices = self.len();
        let mut versions = decode_versions(ck, devices, self.data.init.param_count())?;
        let mut resident: Vec<Option<Box<Device>>> = (0..devices).map(|_| None).collect();
        let mut slots: Vec<u32> = Vec::with_capacity(devices);
        let mut residents: Vec<usize> = Vec::new();
        let mut meta: Vec<StubMeta> = Vec::with_capacity(devices);
        for (m, slot) in ck.devices.iter().enumerate() {
            match slot {
                DeviceSlotCheckpoint::Stub {
                    version,
                    oort_utility,
                    last_participation,
                    rng,
                } => {
                    check_version(&versions, m, *version)?;
                    versions[*version as usize].refs += 1;
                    slots.push(*version);
                    meta.push(StubMeta {
                        oort_utility: *oort_utility,
                        last_participation: *last_participation,
                        rng: rng.as_ref().map(|r| [r.s0, r.s1, r.s2, r.s3]),
                    });
                }
                DeviceSlotCheckpoint::Resident { device } => {
                    let mut dev = self.build_replica(m);
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
        // A version no stub carries is dead, as in a live table.
        for slot in versions.iter_mut().filter(|s| !s.is_live()) {
            slot.tombstone();
        }
        Ok(PopulationTables {
            versions,
            slot: slots,
            resident,
            residents,
            meta,
        })
    }

    /// Installs tables [`Population::decode`] accepted.
    pub(crate) fn install(&mut self, tables: PopulationTables) {
        let PopulationTables {
            versions,
            slot,
            resident,
            residents,
            meta,
        } = tables;
        self.versions = versions;
        self.slot = slot;
        self.resident = resident;
        self.meta = meta;
        self.pool.clear();
        self.peak_resident = residents.len();
        self.fresh_replicas = residents.len();
        self.residents = residents;
    }
}

/// A checkpoint's version table, checked and indexed by id, with no
/// references counted yet: the device count must be `devices`, every
/// flat must hold `params` values, and ids must be distinct and at most
/// the device count (a table holds at most one plane per device, plus
/// the one being born).
fn decode_versions(
    ck: &PopulationCheckpoint,
    devices: usize,
    params: usize,
) -> Result<Vec<VersionSlot>, String> {
    if ck.devices.len() != devices {
        return Err(format!(
            "population checkpoint holds {} devices (expected {devices})",
            ck.devices.len()
        ));
    }
    for v in &ck.versions {
        if v.id as usize > devices {
            return Err(format!(
                "version id {} exceeds the device count {devices}",
                v.id
            ));
        }
        if v.flat.len() != params {
            return Err(format!(
                "version {} holds {} parameters (expected {params})",
                v.id,
                v.flat.len()
            ));
        }
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
        if !slot.flat.is_empty() {
            return Err(format!("version {} appears twice", v.id));
        }
        slot.flat = v.flat.0.clone();
        slot.norm_sq = v.norm_sq;
    }
    Ok(versions)
}

/// Checks that device `m`'s `version` is one [`decode_versions`] holds.
fn check_version(versions: &[VersionSlot], m: usize, version: u32) -> Result<(), String> {
    match versions.get(version as usize) {
        Some(slot) if !slot.flat.is_empty() => Ok(()),
        _ => Err(format!("stub {m} references missing version {version}")),
    }
}

/// The in-region half of materialising a device reserved this step:
/// re-purposes a pooled replica for it (re-gathering its rows into the
/// replica's own buffers), then restores the stub's carried state and
/// loads the reserved version — unless the verdict is `EdgeModel`, whose
/// init overwrites every parameter and the cached norm anyway.
fn finish_replica(population: &Population, dev: &mut Device, p: &PendingInit, reserved: Reserved) {
    let m = p.device;
    if reserved.recycle {
        dev.recycle(
            m,
            &population.data.base,
            population.rows(m),
            population.seed,
        );
    }
    let carried = &population.meta[m];
    dev.oort_utility = carried.oort_utility;
    dev.last_participation = carried.last_participation;
    if let Some(state) = carried.rng {
        dev.restore_rng(StdRng::from_state(state));
    }
    if !matches!(p.init, Some(OnDevicePolicy::EdgeModel)) {
        let slot = &population.versions[reserved.version as usize];
        debug_assert!(slot.is_live(), "stub references a tombstoned version");
        dev.load_flat(&slot.flat, slot.norm_sq);
    }
}

/// Disjoint `&mut` references to `items[id]` for a strictly ascending
/// id list, so a region splits over exactly those items without
/// re-scanning the rest.
fn disjoint_mut<'a, T>(mut items: &'a mut [T], ids: &[usize]) -> Vec<&'a mut T> {
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "participant ids must be strictly ascending"
    );
    let mut out = Vec::with_capacity(ids.len());
    let mut base = 0;
    for &id in ids {
        assert!(id - base < items.len(), "participant id out of range");
        let (head, tail) = std::mem::take(&mut items).split_at_mut(id - base + 1);
        out.push(&mut head[id - base]);
        items = tail;
        base = id + 1;
    }
    out
}
