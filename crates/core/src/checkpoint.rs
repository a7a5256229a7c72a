//! Serializable snapshots of a running simulation.
//!
//! A [`SimCheckpoint`] captures *everything* a paused run needs to
//! continue bitwise-identically: model parameters (cloud, edges,
//! devices — via [`middle_nn::serialize::Checkpoint`]), every RNG
//! stream's internal state, the fault-plane state (dropout chains and
//! the pending stale-upload queue), the communication ledger, the
//! evaluation points recorded so far, and the step cursor.
//!
//! The encoding is one self-describing JSON document (schema version
//! 2). Every bulk float plane in it — parameter vectors, the lazy
//! population's version table, pending stale uploads, the timeline's
//! send-time snapshots, the compression residuals — is a
//! [`middle_nn::serialize::Packed`] plane: a string of hex digits, the
//! values' little-endian bytes. Resume is bitwise because those bytes
//! *are* the bits; the scalar fields ride as JSON numbers in
//! shortest-round-trip form, which is bit-exact for finite values. It
//! is also what makes a checkpoint cheap: a 16 MB decimal document that
//! took ~110 ms to print became 6.4 MB written at memory speed. A
//! version-1 document (decimal arrays) does not parse; whoever finds one
//! starts the run cold. The checkpoint-resume-equivalence tests in
//! `crates/core/tests/sweep_engine.rs` gate the round trip.
//!
//! What is deliberately *not* captured: telemetry latency histograms
//! (wall-clock measurements of the host that ran the first half —
//! meaningless to splice into a resumed run; the event counters, which
//! are deterministic, are captured), and per-step scratch buffers
//! (rebuilt on first use).
//!
//! A checkpoint records a digest of the originating [`SimConfig`]
//! ([`config_digest`]) and a schema version; [`crate::Simulation::restore`]
//! rejects a checkpoint whose digest or version disagrees instead of
//! silently resuming the wrong experiment.

use crate::comm::CommStats;
use crate::config::SimConfig;
use crate::faults::PendingStale;
use crate::metrics::EvalPoint;
use crate::telemetry::StepCounters;
use middle_nn::serialize::{Checkpoint, Packed};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Version of the [`SimCheckpoint`] JSON schema. Bump on any field
/// change; restore rejects other versions.
pub const SIM_CHECKPOINT_SCHEMA_VERSION: u32 = 2;

/// Captured xoshiro256** state of one RNG stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RngStateCheckpoint {
    /// State word 0.
    pub s0: u64,
    /// State word 1.
    pub s1: u64,
    /// State word 2.
    pub s2: u64,
    /// State word 3.
    pub s3: u64,
}

impl RngStateCheckpoint {
    /// Captures `rng`'s current state.
    pub fn capture(rng: &StdRng) -> Self {
        let s = rng.state();
        RngStateCheckpoint {
            s0: s[0],
            s1: s[1],
            s2: s[2],
            s3: s[3],
        }
    }

    /// Rebuilds a generator resuming exactly where the captured one
    /// left off.
    pub fn restore(&self) -> StdRng {
        StdRng::from_state([self.s0, self.s1, self.s2, self.s3])
    }
}

/// Snapshot of one device's mutable state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceCheckpoint {
    /// The carried local model's parameters.
    pub params: Checkpoint,
    /// Oort statistical utility from the last participation.
    pub oort_utility: Option<f32>,
    /// Time step of the last participation.
    pub last_participation: Option<usize>,
    /// The device's private batch-sampling RNG stream.
    pub rng: RngStateCheckpoint,
}

/// One live broadcast version of a lazy population: the shared flat
/// parameter vector and the cached squared norm every stub of this
/// version carries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VersionCheckpoint {
    /// Stable version id (index into the version table).
    pub id: u32,
    /// The flat parameter vector.
    pub flat: Packed<f32>,
    /// Cached squared L2 norm (bit-exact, not recomputed on restore).
    pub norm_sq: f32,
}

/// Snapshot of one device slot of a lazy population: either a fully
/// materialised replica or a virtualized stub.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum DeviceSlotCheckpoint {
    /// The device was resident at capture time.
    Resident {
        /// The replica's full state.
        device: DeviceCheckpoint,
    },
    /// The device was virtualized at capture time.
    Stub {
        /// Version id the stub's parameters point at.
        version: u32,
        /// Oort statistical utility from the last participation.
        oort_utility: Option<f32>,
        /// Time step of the last participation.
        last_participation: Option<usize>,
        /// Saved batch-sampling RNG state; `None` for a virgin device.
        rng: Option<RngStateCheckpoint>,
    },
}

/// Snapshot of a lazy population: the live version table plus one slot
/// per device. Only present on checkpoints of lazy-mode simulations;
/// dense checkpoints serialise through [`SimCheckpoint::devices`] and
/// omit the block.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PopulationCheckpoint {
    /// Live (still-referenced) version slots.
    pub versions: Vec<VersionCheckpoint>,
    /// Per-device slots, in device order.
    pub devices: Vec<DeviceSlotCheckpoint>,
}

/// Snapshot of one edge server's mutable state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EdgeCheckpoint {
    /// The edge model's parameters.
    pub params: Checkpoint,
    /// Participating samples since the last cloud sync (`d̂_n`).
    pub window_samples: f64,
}

/// Snapshot of the compression plane's mutable state. Only present
/// when the plane is lossy-active (an inert plane has no state).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompressionPlaneCheckpoint {
    /// The dedicated compression RNG stream (stream 10).
    pub rng: RngStateCheckpoint,
    /// Per-device error-feedback residuals, in device order. An empty
    /// vector means the device has not uploaded yet (all-zero residual).
    pub device_residuals: Vec<Packed<f64>>,
    /// Per-edge error-feedback residuals, in edge order, same
    /// convention.
    pub edge_residuals: Vec<Packed<f64>>,
}

/// Snapshot of the fault plane's mutable state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultPlaneCheckpoint {
    /// The dedicated fault RNG stream (stream 9).
    pub rng: RngStateCheckpoint,
    /// Per-device dropout chain state.
    pub device_down: Vec<bool>,
    /// Deadline-missed uploads awaiting their stale merge.
    pub pending: Vec<PendingStale>,
}

/// A complete snapshot of a running [`crate::Simulation`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimCheckpoint {
    /// [`SIM_CHECKPOINT_SCHEMA_VERSION`] at capture time.
    pub schema_version: u32,
    /// [`config_digest`] of the originating configuration.
    pub config_digest: u64,
    /// Next step to execute (steps `0..next_step` are done).
    pub next_step: usize,
    /// Wall-clock seconds accumulated by the run so far.
    pub elapsed_seconds: f64,
    /// Cloud model parameters.
    pub cloud: Checkpoint,
    /// Per-edge state, in edge order.
    pub edges: Vec<EdgeCheckpoint>,
    /// Per-device state, in device order (empty for lazy-mode
    /// simulations, which capture [`SimCheckpoint::population`] instead).
    pub devices: Vec<DeviceCheckpoint>,
    /// Lazy-population state (version table + device slots); `None`,
    /// and absent from the document, on dense simulations.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub population: Option<PopulationCheckpoint>,
    /// The selection RNG stream (stream 6).
    pub selection_rng: RngStateCheckpoint,
    /// The availability RNG stream (stream 8).
    pub availability_rng: RngStateCheckpoint,
    /// The fault plane's state (stream 9 plus queues).
    pub faults: FaultPlaneCheckpoint,
    /// The compression plane's state (stream 10 plus error-feedback
    /// residuals); `None` when compression is off or lossless.
    #[serde(default)]
    pub compression: Option<CompressionPlaneCheckpoint>,
    /// Cross-round algorithm-policy state (FedFly in-flight set,
    /// FedLECC cluster assignment); `None`, and absent from the
    /// document, for stateless algorithms.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub algorithm: Option<crate::algorithms::AlgorithmState>,
    /// Communication ledger so far.
    pub comm: CommStats,
    /// Cloud synchronisations so far.
    pub syncs: u64,
    /// Active steps so far.
    pub active_steps: u64,
    /// Evaluation points recorded so far.
    pub points: Vec<EvalPoint>,
    /// Telemetry event counters so far (`None` when telemetry is off;
    /// latency histograms are host wall-clock and are not captured).
    pub telemetry_counters: Option<StepCounters>,
    /// Event-driven timeline state (pending event heap, per-edge wave
    /// state, in-flight upload snapshots, the simulated clock as raw
    /// `f64` bits); `None`, and absent from the document, for lockstep
    /// runs.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub timeline: Option<crate::timeline::TimelineCheckpoint>,
}

impl SimCheckpoint {
    /// Serialises to JSON; [`SimCheckpoint::from_json`] returns every
    /// float bit for bit.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialisation cannot fail")
    }

    /// Deserialises from JSON.
    ///
    /// # Errors
    /// Returns the JSON parse error message.
    pub fn from_json(s: &str) -> Result<Self, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }
}

/// FNV-1a digest of a configuration's canonical JSON encoding. Stored
/// in checkpoints and sweep state files so a snapshot is never applied
/// to a different experiment.
pub fn config_digest(config: &SimConfig) -> u64 {
    let json = serde_json::to_string(config).expect("config serialisation cannot fail");
    fnv1a(json.as_bytes())
}

/// Appends an FNV-1a integrity trailer to a JSON payload.
///
/// The sweep ledger (`sweep_state.json`) is the shared source of truth
/// for shard-level resume across worker *processes*, so a torn or
/// bit-flipped write must never be deserialized into a bogus resume.
/// Atomic tmp+rename writes already rule out torn files from our own
/// writers, but the trailer also catches payload corruption that still
/// parses as JSON (a flipped digit, a half-synced page after power
/// loss). The sealed form is the payload followed by one comment-style
/// line:
///
/// ```text
/// {...payload json...}
/// #fnv1a:0123456789abcdef
/// ```
///
/// [`unseal_json`] verifies and strips the trailer; a file without one
/// (written by an older version) passes through unchanged and stands or
/// falls on its own JSON parse.
pub fn seal_json(payload: &str) -> String {
    format!("{payload}\n#fnv1a:{:016x}\n", fnv1a(payload.as_bytes()))
}

/// Verifies and strips a [`seal_json`] trailer.
///
/// Returns the bare payload. Legacy text with no trailer is returned
/// as-is (its JSON parse is the only integrity check available).
///
/// # Errors
/// A human-readable description when a trailer is present but its
/// digest does not match the payload (the file is corrupt).
pub fn unseal_json(text: &str) -> Result<&str, String> {
    const MARK: &str = "\n#fnv1a:";
    let Some(pos) = text.rfind(MARK) else {
        return Ok(text);
    };
    let payload = &text[..pos];
    let trailer = text[pos + MARK.len()..].trim_end();
    let Ok(expect) = u64::from_str_radix(trailer, 16) else {
        return Err(format!("malformed integrity trailer {trailer:?}"));
    };
    let got = fnv1a(payload.as_bytes());
    if got != expect {
        return Err(format!(
            "integrity trailer mismatch: payload hashes to {got:016x}, trailer says {expect:016x}"
        ));
    }
    Ok(payload)
}

/// FNV-1a over raw bytes (sweep state files digest their scenario list
/// with the same function).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use middle_data::Task;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rng_state_round_trips() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..7 {
            rng.gen::<u64>();
        }
        let ck = RngStateCheckpoint::capture(&rng);
        let mut restored = ck.restore();
        for _ in 0..16 {
            assert_eq!(rng.gen::<u64>(), restored.gen::<u64>());
        }
    }

    #[test]
    fn config_digest_tracks_config_changes() {
        let a = SimConfig::tiny(Task::Mnist, Algorithm::middle());
        let mut b = a.clone();
        assert_eq!(config_digest(&a), config_digest(&b));
        b.seed = 1234;
        assert_ne!(config_digest(&a), config_digest(&b));
    }

    #[test]
    fn fnv1a_matches_reference_vector() {
        // FNV-1a("a") from the reference implementation.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn seal_unseal_round_trips_and_detects_corruption() {
        let payload = r#"{"records":[1,2,3]}"#;
        let sealed = seal_json(payload);
        assert_eq!(unseal_json(&sealed).unwrap(), payload);
        // Legacy bare JSON passes through untouched.
        assert_eq!(unseal_json(payload).unwrap(), payload);
        // A flipped payload byte under an intact trailer is caught.
        let corrupt = sealed.replacen("2,3", "2,4", 1);
        assert!(unseal_json(&corrupt).unwrap_err().contains("mismatch"));
        // A mangled trailer is caught too.
        let bad_trailer = format!("{payload}\n#fnv1a:zzzz\n");
        assert!(unseal_json(&bad_trailer).unwrap_err().contains("malformed"));
    }
}
