//! Communication-cost accounting.
//!
//! The paper motivates hierarchical FL by communication efficiency in
//! wireless networks (§1, §7): edges aggregate locally over cheap
//! device-edge links and talk to the cloud over the expensive WAN only
//! every `T_c` steps. This module counts every model transmission the
//! simulation performs, so algorithms can be compared on bytes moved and
//! on a simple wall-clock model, not only on time steps.

use serde::{Deserialize, Serialize};

/// Reference seconds for one model transfer on a device↔edge wireless
/// link, shared by the `middle-sweepd run` presets and the benchmark so
/// their wall-clock models cannot drift.
pub const WIRELESS_SECS_PER_TRANSFER: f64 = 1.0;

/// Reference seconds for one model transfer on the edge↔cloud WAN.
pub const WAN_SECS_PER_TRANSFER: f64 = 10.0;

/// Transmission counters for one simulation run.
///
/// The `*_to_*` counters are in *model units* (one unit = one payload,
/// compressed or not); the `*_bytes` counters are the actual wire bytes
/// those payloads occupied. Without the compression plane every payload
/// is dense (`4 × param_count` bytes), so byte counters are count ×
/// dense size; under compression the uplink classes (`device_to_edge`,
/// `edge_to_cloud`) shrink while downlinks stay dense.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CommStats {
    /// Edge → device model downloads (one per selected device per step).
    pub edge_to_device: u64,
    /// Device → edge model uploads (one per participating device).
    pub device_to_edge: u64,
    /// Edge → cloud uploads (one per edge per sync).
    pub edge_to_cloud: u64,
    /// Cloud → edge broadcasts (one per edge per sync).
    pub cloud_to_edge: u64,
    /// Cloud → device broadcasts (one per device per sync).
    pub cloud_to_device: u64,
    /// Extra wireless upload attempts beyond the first, caused by
    /// fault-plane upload loss (each retransmission moves a full model
    /// and is included in [`Self::device_to_edge`]).
    #[serde(default)]
    pub upload_retransmissions: u64,
    /// Uploads abandoned after exhausting the fault-plane retry budget
    /// (the transmission attempts are still charged; the update never
    /// reaches the edge).
    #[serde(default)]
    pub lost_uploads: u64,
    /// Deadline-missed uploads delivered late and applied as stale
    /// similarity-weighted merges on the next step.
    #[serde(default)]
    pub stale_uploads: u64,
    /// Exponential-backoff slots waited before upload retries (retry
    /// `k` waits `2^(k−1)` slots); convert to seconds with
    /// [`Self::retry_backoff_seconds`].
    #[serde(default)]
    pub retry_backoff_slots: u64,
    /// Wire bytes of all edge → device downloads (always dense).
    #[serde(default)]
    pub edge_to_device_bytes: u64,
    /// Wire bytes of all device → edge uploads, including
    /// retransmissions and stale deliveries — compressed size when the
    /// compression plane is lossy-active.
    #[serde(default)]
    pub device_to_edge_bytes: u64,
    /// Wire bytes of all edge → cloud sync uploads — compressed size
    /// when the compression plane is lossy-active.
    #[serde(default)]
    pub edge_to_cloud_bytes: u64,
    /// Wire bytes of all cloud → edge broadcasts (always dense).
    #[serde(default)]
    pub cloud_to_edge_bytes: u64,
    /// Wire bytes of all cloud → device broadcasts (always dense).
    #[serde(default)]
    pub cloud_to_device_bytes: u64,
    /// Edge → edge in-flight update hand-offs (FedFly migration: one
    /// per device that moved edges while its last uploaded update was
    /// still in flight). Zero for every non-migrating algorithm.
    #[serde(default)]
    pub edge_to_edge: u64,
    /// Wire bytes of all edge → edge hand-offs (always dense).
    #[serde(default)]
    pub edge_to_edge_bytes: u64,
}

impl CommStats {
    /// Charges one version-deduped cloud→device broadcast: `receivers`
    /// devices receive the same dense model version. The ledger counts
    /// per-receiver units/bytes — identical to charging each device
    /// individually — while the simulation materialises the payload once.
    pub fn charge_broadcast(&mut self, receivers: u64, dense_bytes: u64) {
        self.cloud_to_device += receivers;
        self.cloud_to_device_bytes += receivers * dense_bytes;
    }

    /// Exact wire bytes moved over device-edge wireless links.
    pub fn wireless_bytes(&self) -> u64 {
        self.edge_to_device_bytes + self.device_to_edge_bytes + self.cloud_to_device_bytes
    }

    /// Exact wire bytes moved over the edge-cloud WAN (including
    /// edge → edge hand-offs on the inter-edge backhaul).
    pub fn wan_bytes(&self) -> u64 {
        self.edge_to_cloud_bytes + self.cloud_to_edge_bytes + self.edge_to_edge_bytes
    }

    /// Exact wire bytes moved on the two uplink classes the compression
    /// plane rewrites (device→edge uploads and edge→cloud syncs).
    pub fn uplink_bytes(&self) -> u64 {
        self.device_to_edge_bytes + self.edge_to_cloud_bytes
    }

    /// Exact total wire bytes moved, all transfer classes.
    pub fn payload_total_bytes(&self) -> u64 {
        self.wireless_bytes() + self.wan_bytes()
    }

    /// Simulated communication wall-clock under a two-tier link model.
    ///
    /// `wireless_s` / `wan_s` are the seconds one dense model transfer
    /// takes on each tier; transfers within a tier and step are assumed
    /// parallel across devices/edges, so the cost counts *rounds*. Each
    /// active step is a download and an upload round, each sync an
    /// edge→cloud and a cloud→edge WAN round plus the broadcast to the
    /// devices. A round's cost scales with the mean payload size of its
    /// transfer class relative to a dense `4 × param_count`-byte model,
    /// so compressed uplink rounds finish proportionally faster; classes
    /// that never transferred contribute nothing.
    ///
    /// `active_steps` must be the number of steps in which at least one
    /// device actually participated (`RunRecord::active_steps`, also
    /// `StepCounters::active_steps` when telemetry is on) — *not* the
    /// raw step count. A step where dropout filtering left every
    /// edge with zero selected devices moves no models and therefore
    /// costs no wireless rounds. Syncs still charge their broadcast
    /// round unconditionally: the simulation broadcasts the cloud model
    /// to every device at each sync regardless of that step's
    /// participation.
    pub fn wall_clock_bytes(
        &self,
        active_steps: u64,
        syncs: u64,
        wireless_s: f64,
        wan_s: f64,
        param_count: u64,
    ) -> f64 {
        let dense = (4 * param_count) as f64;
        let ratio = |bytes: u64, count: u64| {
            if count == 0 || dense == 0.0 {
                0.0
            } else {
                bytes as f64 / (count as f64 * dense)
            }
        };
        let down = ratio(self.edge_to_device_bytes, self.edge_to_device);
        let up = ratio(self.device_to_edge_bytes, self.device_to_edge);
        let bcast = ratio(self.cloud_to_device_bytes, self.cloud_to_device);
        let sync_up = ratio(self.edge_to_cloud_bytes, self.edge_to_cloud);
        let sync_down = ratio(self.cloud_to_edge_bytes, self.cloud_to_edge);
        let wireless_rounds = active_steps as f64 * (down + up) + syncs as f64 * bcast;
        let wan_rounds = syncs as f64 * (sync_up + sync_down);
        wireless_rounds * wireless_s + wan_rounds * wan_s
    }

    /// Wall-clock seconds spent in retry backoff, given the length of
    /// one backoff slot in seconds. Backoff waits are per-device and
    /// overlap with other devices' transfers, so this is reported
    /// separately rather than folded into [`Self::wall_clock_bytes`].
    pub fn retry_backoff_seconds(&self, slot_s: f64) -> f64 {
        self.retry_backoff_slots as f64 * slot_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> CommStats {
        CommStats {
            edge_to_device: 10,
            device_to_edge: 10,
            edge_to_cloud: 2,
            cloud_to_edge: 2,
            cloud_to_device: 8,
            ..CommStats::default()
        }
    }

    /// Dense payload size of the models in `dense_stats`: 1000 bytes.
    const D: u64 = 250;

    /// [`stats`] with every payload dense.
    fn dense_stats() -> CommStats {
        let s = stats();
        CommStats {
            edge_to_device_bytes: s.edge_to_device * 4 * D,
            device_to_edge_bytes: s.device_to_edge * 4 * D,
            edge_to_cloud_bytes: s.edge_to_cloud * 4 * D,
            cloud_to_edge_bytes: s.cloud_to_edge * 4 * D,
            cloud_to_device_bytes: s.cloud_to_device * 4 * D,
            ..s
        }
    }

    #[test]
    fn payload_byte_counters_partition_by_tier() {
        let s = CommStats {
            edge_to_device_bytes: 100,
            device_to_edge_bytes: 30,
            edge_to_cloud_bytes: 7,
            cloud_to_edge_bytes: 200,
            cloud_to_device_bytes: 1000,
            ..stats()
        };
        assert_eq!(s.wireless_bytes(), 1130);
        assert_eq!(s.wan_bytes(), 207);
        assert_eq!(s.uplink_bytes(), 37);
        assert_eq!(s.payload_total_bytes(), 1337);
    }

    #[test]
    fn wall_clock_bytes_scales_uplinks_with_compression() {
        let mut s = dense_stats();
        // Uplinks compressed 4×.
        s.device_to_edge_bytes = s.device_to_edge * D;
        s.edge_to_cloud_bytes = s.edge_to_cloud * D;
        // wireless = 10·(1 + 0.25) + 2·1 = 14.5; wan = 2·(0.25 + 1) = 2.5.
        let t = s.wall_clock_bytes(10, 2, 1.0, 10.0, D);
        assert!((t - (14.5 + 25.0)).abs() < 1e-9, "{t}");
        // Untransferred classes cost nothing.
        assert_eq!(
            CommStats::default().wall_clock_bytes(5, 5, 1.0, 10.0, D),
            0.0
        );
    }

    #[test]
    fn wall_clock_charges_wan_per_sync() {
        let s = dense_stats();
        // 10 steps, 1 sync, 1 s wireless, 10 s WAN:
        // wireless rounds = 21, wan rounds = 2 → 21 + 20 = 41 s.
        assert!((s.wall_clock_bytes(10, 1, 1.0, 10.0, D) - 41.0).abs() < 1e-9);
        // No syncs: WAN free.
        assert!((s.wall_clock_bytes(10, 0, 1.0, 10.0, D) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn wall_clock_charges_nothing_for_inactive_steps() {
        let s = dense_stats();
        // A fully-straggled run (0 active steps, 0 syncs) moves nothing.
        assert_eq!(s.wall_clock_bytes(0, 0, 1.0, 10.0, D), 0.0);
        // With syncs, only the sync rounds are charged.
        assert!((s.wall_clock_bytes(0, 2, 1.0, 10.0, D) - (2.0 + 40.0)).abs() < 1e-9);
    }

    #[test]
    fn backoff_slots_convert_to_seconds() {
        let s = CommStats {
            retry_backoff_slots: 7,
            ..CommStats::default()
        };
        assert!((s.retry_backoff_seconds(0.5) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn fault_fields_default_when_absent_in_json() {
        // Records serialised before the fault plane existed still load.
        let legacy = r#"{"edge_to_device":1,"device_to_edge":2,
            "edge_to_cloud":3,"cloud_to_edge":4,"cloud_to_device":5}"#;
        let s: CommStats = serde_json::from_str(legacy).unwrap();
        assert_eq!(s.device_to_edge, 2);
        assert_eq!(s.upload_retransmissions, 0);
        assert_eq!(s.lost_uploads, 0);
        assert_eq!(s.stale_uploads, 0);
        assert_eq!(s.retry_backoff_slots, 0);
        // Pre-compression records default every byte counter to zero.
        assert_eq!(s.payload_total_bytes(), 0);
        // Pre-migration records default the edge↔edge ledger to zero.
        assert_eq!(s.edge_to_edge, 0);
        assert_eq!(s.edge_to_edge_bytes, 0);
    }

    #[test]
    fn edge_to_edge_counts_toward_backhaul_totals() {
        let a = CommStats {
            edge_to_edge: 3,
            edge_to_edge_bytes: 12,
            ..stats()
        };
        assert_eq!(a.wan_bytes(), 12);
    }
}
