//! Training algorithms behind a first-class policy API: MIDDLE, the
//! paper's §6.1.3 baselines, and the post-paper zoo (FedFly migration,
//! FedLECC cluster-guided selection), all expressed as a serde-nameable
//! [`Algorithm`] that resolves to an [`AlgorithmPolicy`] object
//! the simulation step loop drives through explicit hooks.
//!
//! | Algorithm | Selection | On-move device aggregation |
//! |---|---|---|
//! | MIDDLE | top-K of `−U(w_c, Δw_m)` (Eq. 12) | similarity-weighted (Eq. 9) |
//! | OORT | top-K Oort statistical utility | none (download edge model) |
//! | FedMes | random | plain average of edge + local |
//! | Greedy | top-K Oort statistical utility | keep previous local model |
//! | Ensemble | top-K Oort statistical utility | plain average |
//! | HierFAVG ("General") | random | none |
//! | FedFly | random | migrate in-flight update edge-to-edge |
//! | FedLECC | loss-guided cluster spread | none (download edge model) |
//! | Random | random | similarity-weighted (Eq. 9) |
//!
//! ## The policy API
//!
//! [`Algorithm`] is plain data (what rides [`crate::SimConfig`],
//! sweeps and JSON); [`Algorithm::resolve`] turns it into a boxed
//! [`AlgorithmPolicy`] carrying any cross-round state. The simulation
//! calls the hooks at fixed points of Algorithm 1, identically under
//! lockstep and event-driven execution:
//!
//! 1. [`AlgorithmPolicy::selection`] + [`AlgorithmPolicy::cluster_of`]
//!    — candidate scoring (feeds [`crate::selection`]);
//! 2. [`AlgorithmPolicy::on_move`] — what a device that changed edges
//!    does with its carried model (blend per an [`OnDevicePolicy`], or
//!    migrate it edge-to-edge, FedFly-style);
//! 3. [`AlgorithmPolicy::observe_participants`] — after local training,
//!    before edge aggregation (cluster bookkeeping);
//! 4. [`AlgorithmPolicy::after_edge_aggregate`] — per edge, after its
//!    cohort's updates are folded in (marks updates in-flight);
//! 5. [`AlgorithmPolicy::after_cloud_sync`] — after a cloud round,
//!    with the WAN reachability mask (clears delivered in-flight state).
//!
//! MIDDLE is the oracle: the composed policy resolved from
//! [`Algorithm::middle`] must keep the default-config run
//! bitwise-identical to the pre-policy-API implementation (pinned by
//! the FNV fingerprints of `crates/core/tests/matrix.rs`).

use serde::{Deserialize, Serialize};

/// In-edge device selection policy (paper §4.3 and baselines).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SelectionPolicy {
    /// Uniform random choice of `K` candidates.
    Random,
    /// MIDDLE (Eq. 12): select the `K` devices whose accumulated update
    /// `Δw_m = w_m − w_c` is *least* similar to the cloud model —
    /// `TOPK(−U(w_c, Δw_m))` — so under-represented data is preferred.
    LeastSimilarUpdate,
    /// Ablation: the sign-flipped variant `TOPK(+U(w_c, Δw_m))`.
    MostSimilarUpdate,
    /// Oort's statistical utility `|B_m| · sqrt(mean(loss²))` from each
    /// device's most recent participation; devices with no history get
    /// infinite utility (Oort's exploration of fresh clients).
    OortUtility,
    /// FedLECC-style loss-guided cluster spread (arXiv:2603.08911):
    /// devices are bucketed into loss-ranked clusters after each round
    /// they participate in, and selection round-robins over the
    /// clusters taking each cluster's highest-utility candidate, so
    /// every loss stratum stays represented.
    ClusterGuided {
        /// Number of loss-ranked clusters (≥ 1).
        clusters: usize,
    },
}

/// What a [`SelectionPolicy`] reads of a candidate to rank it
/// ([`SelectionPolicy::signal`]). The round computes a per-device signal
/// only for the policy that reads it: similarity scores
/// `U(w_c, Δw_m)` only under [`SelectionSignal::Similarity`], and the
/// Oort pass — one inference over each participant's local samples —
/// only under [`SelectionSignal::Utility`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionSignal {
    /// Nothing: the choice is uniform random.
    Nothing,
    /// The update similarity `U(w_c, Δw_m)` to the cloud model
    /// (Eqs. 10–11).
    Similarity,
    /// The Oort statistical utility of the device's last participation
    /// ([`crate::Device::oort_utility`]).
    Utility,
}

impl SelectionPolicy {
    /// What this policy reads of a candidate — the one place that
    /// decides which per-device signals a round computes.
    pub fn signal(self) -> SelectionSignal {
        match self {
            SelectionPolicy::Random => SelectionSignal::Nothing,
            SelectionPolicy::LeastSimilarUpdate | SelectionPolicy::MostSimilarUpdate => {
                SelectionSignal::Similarity
            }
            SelectionPolicy::OortUtility | SelectionPolicy::ClusterGuided { .. } => {
                SelectionSignal::Utility
            }
        }
    }
}

/// On-device model aggregation policy (paper §4.2 and baselines),
/// applied only to devices that moved across edges since the previous
/// step (Algorithm 1, line 4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OnDevicePolicy {
    /// Classical HFL: start local training from the downloaded edge
    /// model.
    EdgeModel,
    /// MIDDLE (Eq. 9): blend edge and carried local model with the
    /// similarity-utility weights `1/(1+U)` and `U/(1+U)`.
    SimilarityWeighted,
    /// Ablation of Eq. 9 without the `max(·, 0)` clipping: raw cosine is
    /// clamped into `[0, 1]` only after the weight computation would
    /// allow negative blending, i.e. weights use `(1+c)/2`-style signed
    /// similarity. Kept to measure the value of clipping.
    UnclippedSimilarity,
    /// FedMes / Ensemble: plain average of edge and local model.
    Average,
    /// Greedy: keep the carried local model, ignore the edge model.
    KeepLocal,
    /// Theory (§5): fixed blend `ŵ = (1−α)·w_m + α·w_n`.
    FixedAlpha {
        /// Weight on the *edge* model.
        alpha: f32,
    },
}

/// A complete, serde-nameable algorithm: what rides [`crate::SimConfig`]
/// and sweep scenario labels, resolved into a stateful policy object by
/// [`Algorithm::resolve`]. Every constructor below builds a zoo member.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Algorithm {
    /// Display name (baseline names follow the paper).
    pub name: String,
    /// In-edge device selection.
    pub selection: SelectionPolicy,
    /// On-device aggregation for moved devices.
    pub on_device: OnDevicePolicy,
    /// FedFly-style migration (arXiv:2111.01516): when a device moves
    /// while its last uploaded update is still in flight (folded into
    /// an edge model the cloud has not yet absorbed), the update is
    /// handed off edge-to-edge and the device keeps its carried model
    /// instead of re-blending; `on_device` applies only to moves with
    /// no in-flight update. Off (the paper's behaviour) by default and
    /// skipped in JSON when off, so existing configs and their digests
    /// are unchanged.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub migrate_in_flight: bool,
}

impl Algorithm {
    /// Builds a custom algorithm from its two components.
    pub fn custom(
        name: impl Into<String>,
        selection: SelectionPolicy,
        on_device: OnDevicePolicy,
    ) -> Algorithm {
        Algorithm {
            name: name.into(),
            selection,
            on_device,
            migrate_in_flight: false,
        }
    }

    /// MIDDLE (the paper's contribution).
    ///
    /// ```
    /// use middle_core::{Algorithm, SimConfig, SimulationBuilder};
    /// use middle_data::Task;
    ///
    /// let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::middle());
    /// cfg.steps = 2;
    /// let record = SimulationBuilder::new(cfg).build()?.run();
    /// assert!(record.final_accuracy() >= 0.0);
    /// # Ok::<(), middle_core::SimError>(())
    /// ```
    pub fn middle() -> Algorithm {
        Algorithm::custom(
            "MIDDLE",
            SelectionPolicy::LeastSimilarUpdate,
            OnDevicePolicy::SimilarityWeighted,
        )
    }

    /// OORT baseline [Lai et al., OSDI'21] adapted per §6.1.3.
    ///
    /// ```
    /// use middle_core::{Algorithm, SimConfig, SimulationBuilder};
    /// use middle_data::Task;
    ///
    /// let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::oort());
    /// cfg.steps = 2;
    /// let record = SimulationBuilder::new(cfg).build()?.run();
    /// assert!(record.final_accuracy() >= 0.0);
    /// # Ok::<(), middle_core::SimError>(())
    /// ```
    pub fn oort() -> Algorithm {
        Algorithm::custom(
            "OORT",
            SelectionPolicy::OortUtility,
            OnDevicePolicy::EdgeModel,
        )
    }

    /// FedMes baseline [Han et al., JSAC'21] adapted per §6.1.3.
    ///
    /// ```
    /// use middle_core::{Algorithm, SimConfig, SimulationBuilder};
    /// use middle_data::Task;
    ///
    /// let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::fedmes());
    /// cfg.steps = 2;
    /// let record = SimulationBuilder::new(cfg).build()?.run();
    /// assert!(record.final_accuracy() >= 0.0);
    /// # Ok::<(), middle_core::SimError>(())
    /// ```
    pub fn fedmes() -> Algorithm {
        Algorithm::custom("FedMes", SelectionPolicy::Random, OnDevicePolicy::Average)
    }

    /// Greedy baseline (§6.1.3): keep the carried model, Oort selection.
    ///
    /// ```
    /// use middle_core::{Algorithm, SimConfig, SimulationBuilder};
    /// use middle_data::Task;
    ///
    /// let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::greedy());
    /// cfg.steps = 2;
    /// let record = SimulationBuilder::new(cfg).build()?.run();
    /// assert!(record.final_accuracy() >= 0.0);
    /// # Ok::<(), middle_core::SimError>(())
    /// ```
    pub fn greedy() -> Algorithm {
        Algorithm::custom(
            "Greedy",
            SelectionPolicy::OortUtility,
            OnDevicePolicy::KeepLocal,
        )
    }

    /// Ensemble baseline (§6.1.3): OORT selection + FedMes aggregation.
    ///
    /// ```
    /// use middle_core::{Algorithm, SimConfig, SimulationBuilder};
    /// use middle_data::Task;
    ///
    /// let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::ensemble());
    /// cfg.steps = 2;
    /// let record = SimulationBuilder::new(cfg).build()?.run();
    /// assert!(record.final_accuracy() >= 0.0);
    /// # Ok::<(), middle_core::SimError>(())
    /// ```
    pub fn ensemble() -> Algorithm {
        Algorithm::custom(
            "Ensemble",
            SelectionPolicy::OortUtility,
            OnDevicePolicy::Average,
        )
    }

    /// Classical hierarchical FedAvg ("General" in §2) — random
    /// selection, no on-device aggregation.
    ///
    /// ```
    /// use middle_core::{Algorithm, SimConfig, SimulationBuilder};
    /// use middle_data::Task;
    ///
    /// let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::hierfavg());
    /// cfg.steps = 2;
    /// let record = SimulationBuilder::new(cfg).build()?.run();
    /// assert!(record.final_accuracy() >= 0.0);
    /// # Ok::<(), middle_core::SimError>(())
    /// ```
    pub fn hierfavg() -> Algorithm {
        Algorithm::custom(
            "HierFAVG",
            SelectionPolicy::Random,
            OnDevicePolicy::EdgeModel,
        )
    }

    /// FedFly-style model migration (arXiv:2111.01516): random
    /// selection, and a device that moves with an in-flight update has
    /// the update handed off edge-to-edge (charged to
    /// [`crate::CommStats::edge_to_edge`]) instead of re-blended; moves
    /// with nothing in flight download the destination edge model. The
    /// in-flight set rides [`crate::SimCheckpoint`].
    ///
    /// ```
    /// use middle_core::{Algorithm, SimConfig, SimulationBuilder};
    /// use middle_data::Task;
    ///
    /// let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::fedfly());
    /// cfg.steps = 2;
    /// let record = SimulationBuilder::new(cfg).build()?.run();
    /// assert!(record.final_accuracy() >= 0.0);
    /// # Ok::<(), middle_core::SimError>(())
    /// ```
    pub fn fedfly() -> Algorithm {
        let mut a = Algorithm::custom("FedFly", SelectionPolicy::Random, OnDevicePolicy::EdgeModel);
        a.migrate_in_flight = true;
        a
    }

    /// FedLECC-style cluster-/loss-guided selection (arXiv:2603.08911):
    /// participants are re-bucketed into loss-ranked clusters each
    /// round, and selection takes each cluster's best candidate
    /// round-robin so every loss stratum stays represented. The cluster
    /// assignment rides [`crate::SimCheckpoint`].
    ///
    /// ```
    /// use middle_core::{Algorithm, SimConfig, SimulationBuilder};
    /// use middle_data::Task;
    ///
    /// let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::fedlecc());
    /// cfg.steps = 2;
    /// let record = SimulationBuilder::new(cfg).build()?.run();
    /// assert!(record.final_accuracy() >= 0.0);
    /// # Ok::<(), middle_core::SimError>(())
    /// ```
    pub fn fedlecc() -> Algorithm {
        Algorithm::custom(
            "FedLECC",
            SelectionPolicy::ClusterGuided { clusters: 3 },
            OnDevicePolicy::EdgeModel,
        )
    }

    /// Random-selection control: ablates MIDDLE's Eq. 12 selection while
    /// keeping its Eq. 9 on-device blend, isolating how much of
    /// MIDDLE's gain comes from *which* devices are picked.
    ///
    /// ```
    /// use middle_core::{Algorithm, SimConfig, SimulationBuilder};
    /// use middle_data::Task;
    ///
    /// let mut cfg = SimConfig::tiny(Task::Mnist, Algorithm::random_control());
    /// cfg.steps = 2;
    /// let record = SimulationBuilder::new(cfg).build()?.run();
    /// assert!(record.final_accuracy() >= 0.0);
    /// # Ok::<(), middle_core::SimError>(())
    /// ```
    pub fn random_control() -> Algorithm {
        Algorithm::custom(
            "Random",
            SelectionPolicy::Random,
            OnDevicePolicy::SimilarityWeighted,
        )
    }

    /// The five algorithms plotted in Figures 6–7, in the paper's order.
    pub fn figure6() -> [Algorithm; 5] {
        [
            Algorithm::middle(),
            Algorithm::oort(),
            Algorithm::fedmes(),
            Algorithm::greedy(),
            Algorithm::ensemble(),
        ]
    }

    /// Every named algorithm in the zoo: the Figure 6 five plus
    /// HierFAVG, FedFly, FedLECC and the random control.
    pub fn zoo() -> Vec<Algorithm> {
        vec![
            Algorithm::middle(),
            Algorithm::oort(),
            Algorithm::fedmes(),
            Algorithm::greedy(),
            Algorithm::ensemble(),
            Algorithm::hierfavg(),
            Algorithm::fedfly(),
            Algorithm::fedlecc(),
            Algorithm::random_control(),
        ]
    }

    /// Looks an algorithm up by its display name (case-insensitive).
    pub fn by_name(name: &str) -> Option<Algorithm> {
        let lower = name.to_ascii_lowercase();
        Algorithm::zoo()
            .into_iter()
            .find(|a| a.name.to_ascii_lowercase() == lower)
    }

    /// Resolves the config into the policy object the step loop drives.
    ///
    /// Stateless combinations resolve to a composed policy (exactly the
    /// pre-policy-API behaviour); `migrate_in_flight` resolves to the
    /// FedFly policy and `ClusterGuided` selection to the FedLECC
    /// policy, each sized for `num_devices`.
    pub fn resolve(&self, num_devices: usize) -> Box<dyn AlgorithmPolicy> {
        if self.migrate_in_flight {
            Box::new(FedFlyPolicy::new(
                self.selection,
                self.on_device,
                num_devices,
            ))
        } else if let SelectionPolicy::ClusterGuided { clusters } = self.selection {
            Box::new(FedLeccPolicy::new(
                clusters,
                self.selection,
                self.on_device,
                num_devices,
            ))
        } else {
            Box::new(ComposedPolicy {
                selection: self.selection,
                on_device: self.on_device,
            })
        }
    }
}

/// What a moved device does with its carried model (the
/// [`AlgorithmPolicy::on_move`] verdict).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MoveAction {
    /// Blend the carried model with the destination edge model per the
    /// given policy ([`OnDevicePolicy::KeepLocal`] blends nothing and
    /// charges no download — the pre-policy-API behaviour).
    Blend(OnDevicePolicy),
    /// FedFly hand-off: the device keeps its carried model untouched;
    /// the source edge forwards its in-flight update to the destination
    /// edge over the edge-to-edge link (no device download).
    Migrate,
}

/// Serializable cross-round policy state; rides
/// [`crate::SimCheckpoint`] so checkpoint→resume reproduces stateful
/// algorithms bitwise. Stateless policies have none.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AlgorithmState {
    /// FedFly: devices whose last uploaded update is still in flight.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub in_flight: Vec<bool>,
    /// FedLECC: per-device loss-ranked cluster assignment.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub clusters: Vec<u32>,
}

/// The per-step hooks an algorithm exposes to the simulation loop.
///
/// Lockstep and event-driven execution call every hook at the same
/// points with the same arguments, so a policy's behaviour (and state
/// evolution) is identical in both. Hooks must be deterministic: any
/// randomness comes from the
/// simulation's own RNG streams via the selection policy.
pub trait AlgorithmPolicy: Send + Sync {
    /// The selection policy driving candidate scoring this step.
    fn selection(&self) -> SelectionPolicy;

    /// Called for each participating device that changed edges since
    /// the previous step (`from != to`), before local training.
    fn on_move(&mut self, m: usize, from_edge: usize, to_edge: usize) -> MoveAction;

    /// Loss-ranked cluster of device `m` (only meaningful under
    /// [`SelectionPolicy::ClusterGuided`]; everything else is one
    /// cluster).
    fn cluster_of(&self, m: usize) -> u32 {
        let _ = m;
        0
    }

    /// Called after local training with this step's participant set
    /// (sorted) and an Oort-utility probe (`None` = never participated).
    fn observe_participants(
        &mut self,
        participants: &[usize],
        utility: &dyn Fn(usize) -> Option<f32>,
    ) {
        let _ = (participants, utility);
    }

    /// Called per edge after its cohort's updates are aggregated into
    /// the edge model (the cohort is the devices actually delivered).
    fn after_edge_aggregate(&mut self, edge: usize, cohort: &[usize]) {
        let _ = (edge, cohort);
    }

    /// Called after a cloud sync round. `wan_up` is the per-edge WAN
    /// reachability mask (`None` = every edge reached); `edge_of` maps
    /// each device to its current edge.
    fn after_cloud_sync(&mut self, wan_up: Option<&[bool]>, edge_of: &[usize]) {
        let _ = (wan_up, edge_of);
    }

    /// Cross-round state to ride the checkpoint (`None` = stateless).
    fn state(&self) -> Option<AlgorithmState> {
        None
    }

    /// Restores state captured by [`AlgorithmPolicy::state`].
    ///
    /// # Errors
    /// A message describing the mismatch when `state` does not fit this
    /// policy (wrong field populated, wrong device count).
    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), String> {
        let _ = state;
        Err("algorithm carries no restorable state".into())
    }
}

/// Stateless (selection, on-device) pair — every pre-policy-API
/// algorithm, including MIDDLE. Behaviour is bit-for-bit the historical
/// step loop's: `on_move` always blends per the configured policy.
struct ComposedPolicy {
    selection: SelectionPolicy,
    on_device: OnDevicePolicy,
}

impl AlgorithmPolicy for ComposedPolicy {
    fn selection(&self) -> SelectionPolicy {
        self.selection
    }

    fn on_move(&mut self, _m: usize, _from_edge: usize, _to_edge: usize) -> MoveAction {
        MoveAction::Blend(self.on_device)
    }
}

/// FedFly migration (arXiv:2111.01516). A device's update is in flight
/// from the moment an edge folds it in until a cloud sync reaches that
/// device's edge; a move during that window migrates the update
/// edge-to-edge instead of re-blending the device model.
struct FedFlyPolicy {
    selection: SelectionPolicy,
    on_device: OnDevicePolicy,
    in_flight: Vec<bool>,
}

impl FedFlyPolicy {
    fn new(selection: SelectionPolicy, on_device: OnDevicePolicy, num_devices: usize) -> Self {
        FedFlyPolicy {
            selection,
            on_device,
            in_flight: vec![false; num_devices],
        }
    }
}

impl AlgorithmPolicy for FedFlyPolicy {
    fn selection(&self) -> SelectionPolicy {
        self.selection
    }

    fn on_move(&mut self, m: usize, _from_edge: usize, _to_edge: usize) -> MoveAction {
        if self.in_flight[m] {
            MoveAction::Migrate
        } else {
            MoveAction::Blend(self.on_device)
        }
    }

    fn after_edge_aggregate(&mut self, _edge: usize, cohort: &[usize]) {
        for &m in cohort {
            self.in_flight[m] = true;
        }
    }

    fn after_cloud_sync(&mut self, wan_up: Option<&[bool]>, edge_of: &[usize]) {
        for (m, flag) in self.in_flight.iter_mut().enumerate() {
            if wan_up.is_none_or(|up| up[edge_of[m]]) {
                *flag = false;
            }
        }
    }

    fn state(&self) -> Option<AlgorithmState> {
        Some(AlgorithmState {
            in_flight: self.in_flight.clone(),
            clusters: Vec::new(),
        })
    }

    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), String> {
        if !state.clusters.is_empty() {
            return Err("checkpoint carries cluster state but the algorithm is FedFly".into());
        }
        if state.in_flight.len() != self.in_flight.len() {
            return Err(format!(
                "checkpoint in-flight set covers {} devices, simulation has {}",
                state.in_flight.len(),
                self.in_flight.len()
            ));
        }
        self.in_flight.copy_from_slice(&state.in_flight);
        Ok(())
    }
}

/// FedLECC-style cluster-/loss-guided selection (arXiv:2603.08911).
///
/// After each round, participants are ranked by Oort statistical
/// utility (bitwise-identical between the training kernel and its
/// oracle — similarity scores are not, which is why clustering must key
/// off utility) and bucketed into `clusters` equal strata; selection then
/// round-robins over the strata (see
/// [`crate::selection::select_devices_scored`]).
struct FedLeccPolicy {
    clusters: usize,
    selection: SelectionPolicy,
    on_device: OnDevicePolicy,
    assignment: Vec<u32>,
    /// Scratch for the per-round ranking, kept to avoid re-allocating.
    ranked: Vec<(f32, usize)>,
}

impl FedLeccPolicy {
    fn new(
        clusters: usize,
        selection: SelectionPolicy,
        on_device: OnDevicePolicy,
        num_devices: usize,
    ) -> Self {
        FedLeccPolicy {
            clusters: clusters.max(1),
            selection,
            on_device,
            assignment: vec![0; num_devices],
            ranked: Vec::new(),
        }
    }
}

impl AlgorithmPolicy for FedLeccPolicy {
    fn selection(&self) -> SelectionPolicy {
        self.selection
    }

    fn on_move(&mut self, _m: usize, _from_edge: usize, _to_edge: usize) -> MoveAction {
        MoveAction::Blend(self.on_device)
    }

    fn cluster_of(&self, m: usize) -> u32 {
        self.assignment[m]
    }

    fn observe_participants(
        &mut self,
        participants: &[usize],
        utility: &dyn Fn(usize) -> Option<f32>,
    ) {
        if participants.is_empty() {
            return;
        }
        self.ranked.clear();
        self.ranked.extend(
            participants
                .iter()
                .map(|&m| (utility(m).unwrap_or(f32::INFINITY), m)),
        );
        // Highest utility (loss) first; device id breaks exact ties so
        // the ranking is a pure function of (utility, id) in both step
        // modes.
        self.ranked
            .sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let n = self.ranked.len();
        for (i, &(_, m)) in self.ranked.iter().enumerate() {
            self.assignment[m] = ((i * self.clusters) / n) as u32;
        }
    }

    fn state(&self) -> Option<AlgorithmState> {
        Some(AlgorithmState {
            in_flight: Vec::new(),
            clusters: self.assignment.clone(),
        })
    }

    fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), String> {
        if !state.in_flight.is_empty() {
            return Err("checkpoint carries in-flight state but the algorithm is FedLECC".into());
        }
        if state.clusters.len() != self.assignment.len() {
            return Err(format!(
                "checkpoint cluster assignment covers {} devices, simulation has {}",
                state.clusters.len(),
                self.assignment.len()
            ));
        }
        self.assignment.copy_from_slice(&state.clusters);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn middle_components_match_paper() {
        let m = Algorithm::middle();
        assert_eq!(m.selection, SelectionPolicy::LeastSimilarUpdate);
        assert_eq!(m.on_device, OnDevicePolicy::SimilarityWeighted);
        assert!(!m.migrate_in_flight);
    }

    #[test]
    fn baselines_match_section_6_1_3() {
        assert_eq!(Algorithm::oort().on_device, OnDevicePolicy::EdgeModel);
        assert_eq!(Algorithm::fedmes().selection, SelectionPolicy::Random);
        assert_eq!(Algorithm::fedmes().on_device, OnDevicePolicy::Average);
        assert_eq!(Algorithm::greedy().on_device, OnDevicePolicy::KeepLocal);
        assert_eq!(Algorithm::greedy().selection, SelectionPolicy::OortUtility);
        assert_eq!(
            Algorithm::ensemble().selection,
            SelectionPolicy::OortUtility
        );
        assert_eq!(Algorithm::ensemble().on_device, OnDevicePolicy::Average);
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert_eq!(Algorithm::by_name("middle"), Some(Algorithm::middle()));
        assert_eq!(Algorithm::by_name("FEDMES"), Some(Algorithm::fedmes()));
        assert_eq!(Algorithm::by_name("fedfly"), Some(Algorithm::fedfly()));
        assert_eq!(Algorithm::by_name("FedLECC"), Some(Algorithm::fedlecc()));
        assert_eq!(
            Algorithm::by_name("random"),
            Some(Algorithm::random_control())
        );
        assert_eq!(Algorithm::by_name("nope"), None);
    }

    #[test]
    fn figure6_has_five_distinct_algorithms() {
        let algos = Algorithm::figure6();
        let names: Vec<&str> = algos.iter().map(|a| a.name.as_str()).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names.len(), 5);
        assert_eq!(dedup.len(), 5);
    }

    #[test]
    fn zoo_names_are_distinct_and_resolvable() {
        let zoo = Algorithm::zoo();
        assert!(zoo.len() >= 9);
        let mut names: Vec<String> = zoo.iter().map(|a| a.name.to_ascii_lowercase()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), zoo.len());
        for a in &zoo {
            assert_eq!(Algorithm::by_name(&a.name), Some(a.clone()));
            let _ = a.resolve(8);
        }
    }

    #[test]
    fn legacy_json_without_migration_flag_still_parses() {
        // The exact shape `Algorithm` serialized to before the policy
        // API existed — must keep parsing, and must re-serialize
        // byte-identically so config digests are stable.
        let legacy = r#"{"name":"MIDDLE","selection":"LeastSimilarUpdate","on_device":"SimilarityWeighted"}"#;
        let parsed: Algorithm = serde_json::from_str(legacy).unwrap();
        assert_eq!(parsed, Algorithm::middle());
        assert_eq!(serde_json::to_string(&parsed).unwrap(), legacy);
    }

    #[test]
    fn fedfly_policy_tracks_in_flight_updates() {
        let cfg = Algorithm::fedfly();
        assert!(cfg.migrate_in_flight);
        let mut p = cfg.resolve(4);
        // Nothing in flight yet: a move blends per on_device.
        assert_eq!(
            p.on_move(1, 0, 1),
            MoveAction::Blend(OnDevicePolicy::EdgeModel)
        );
        // Edge 0 aggregates device 1's update: now in flight.
        p.after_edge_aggregate(0, &[1]);
        assert_eq!(p.on_move(1, 0, 1), MoveAction::Migrate);
        // A cloud sync that misses edge 1 keeps device 1 in flight.
        let edge_of = [0, 1, 0, 1];
        p.after_cloud_sync(Some(&[true, false]), &edge_of);
        assert_eq!(p.on_move(1, 1, 0), MoveAction::Migrate);
        // A full sync clears it.
        p.after_cloud_sync(None, &edge_of);
        assert_eq!(
            p.on_move(1, 0, 1),
            MoveAction::Blend(OnDevicePolicy::EdgeModel)
        );
    }

    #[test]
    fn fedfly_state_round_trips_and_rejects_mismatches() {
        let mut p = Algorithm::fedfly().resolve(3);
        p.after_edge_aggregate(0, &[2]);
        let state = p.state().unwrap();
        assert_eq!(state.in_flight, vec![false, false, true]);
        let mut fresh = Algorithm::fedfly().resolve(3);
        fresh.restore_state(&state).unwrap();
        assert_eq!(fresh.state().unwrap(), state);
        assert!(Algorithm::fedfly()
            .resolve(4)
            .restore_state(&state)
            .is_err());
        assert!(Algorithm::fedlecc()
            .resolve(3)
            .restore_state(&state)
            .is_err());
    }

    #[test]
    fn fedlecc_clusters_spread_by_utility_rank() {
        let mut p = Algorithm::fedlecc().resolve(6);
        let util = |m: usize| Some([6.0f32, 5.0, 4.0, 3.0, 2.0, 1.0][m]);
        p.observe_participants(&[0, 1, 2, 3, 4, 5], &util);
        let clusters: Vec<u32> = (0..6).map(|m| p.cluster_of(m)).collect();
        assert_eq!(clusters, vec![0, 0, 1, 1, 2, 2]);
        // Fresh (never-participated) devices rank first.
        let mut q = Algorithm::fedlecc().resolve(3);
        q.observe_participants(&[0, 1, 2], &|m| if m == 2 { None } else { Some(1.0) });
        assert_eq!(q.cluster_of(2), 0);
        let state = q.state().unwrap();
        assert!(state.in_flight.is_empty());
        let mut fresh = Algorithm::fedlecc().resolve(3);
        fresh.restore_state(&state).unwrap();
        assert_eq!(fresh.state().unwrap(), state);
    }

    #[test]
    fn stateless_policies_have_no_state() {
        for cfg in Algorithm::figure6() {
            let p = cfg.resolve(4);
            assert!(p.state().is_none());
        }
        assert!(Algorithm::middle()
            .resolve(4)
            .restore_state(&AlgorithmState::default())
            .is_err());
    }
}
