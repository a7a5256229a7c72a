//! Fingerprint helpers shared by the bitwise-equivalence batteries
//! (`hotpath_equiv`, `algo_zoo`, `fault_plane`, `population_plane`,
//! `timeline_plane`, `scratch_sharing`).
//! One FNV-1a scheme and one record comparison, so every battery pins
//! trajectories the same way and a re-pin only ever happens in one
//! place.
#![allow(dead_code)]

use middle_core::{DeviceRef, RunRecord, Simulation};
use middle_nn::params::flatten;

/// Feeds `bytes` into a running FNV-1a hash.
pub fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// FNV-1a over the little-endian bit patterns of a flat parameter
/// vector — the scheme behind every pinned fingerprint in the suite.
pub fn fnv_params(flat: &[f32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in flat {
        fnv(&mut h, &v.to_bits().to_le_bytes());
    }
    h
}

/// Bit patterns of a float slice, for exact (NaN-proof) comparison.
pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Device `m`'s parameters, read through the population's view: a
/// materialised replica's model, or the plane of the broadcast version
/// an idle device's stub carries.
pub fn device_plane(sim: &Simulation, m: usize) -> Vec<f32> {
    match sim.population().view(m) {
        DeviceRef::Resident(dev) => flatten(&dev.model),
        DeviceRef::Stub(v) => sim.population().version_flat(v).to_vec(),
    }
}

/// [`device_plane`] of every device, in id order.
pub fn device_planes(sim: &Simulation) -> impl Iterator<Item = Vec<f32>> + '_ {
    (0..sim.population().len()).map(move |m| device_plane(sim, m))
}

/// Whole-simulation fingerprint: cloud, then every edge, then every
/// device's parameters ([`device_plane`]), in id order.
pub fn sim_bits(sim: &Simulation) -> Vec<u32> {
    let mut out: Vec<u32> = flatten(sim.cloud_model())
        .iter()
        .map(|v| v.to_bits())
        .collect();
    for e in sim.edges() {
        out.extend(flatten(&e.model).iter().map(|v| v.to_bits()));
    }
    for plane in device_planes(sim) {
        out.extend(plane.iter().map(|v| v.to_bits()));
    }
    out
}

/// One FNV-1a fingerprint of a finished run: every model in the
/// system ([`sim_bits`]) and everything its record determines —
/// evaluation points, the communication ledger, sync and activity
/// counts. The pin a trajectory keeps once nothing is left to compare it
/// against.
pub fn trajectory_fnv(sim: &Simulation, record: &RunRecord) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in sim_bits(sim) {
        fnv(&mut h, &b.to_le_bytes());
    }
    for p in &record.points {
        fnv(&mut h, &(p.step as u64).to_le_bytes());
        fnv(&mut h, &p.global_accuracy.to_bits().to_le_bytes());
        fnv(&mut h, &p.global_loss.to_bits().to_le_bytes());
    }
    let counts = format!("{:?} {} {}", record.comm, record.syncs, record.active_steps);
    fnv(&mut h, counts.as_bytes());
    h
}

/// Demands two run records agree bit for bit on everything the
/// simulation determines: evaluation points, the communication ledger,
/// sync/activity counters, mobility, and the parameter count. Host
/// timing (`wall_seconds`, `telemetry`) and the simulated clock
/// (`event_seconds`, which legitimately differs between lockstep and
/// event-driven runs) are excluded.
pub fn assert_records_equal(a: &RunRecord, b: &RunRecord) {
    assert_eq!(a.points.len(), b.points.len(), "eval point count diverged");
    for (pa, pb) in a.points.iter().zip(&b.points) {
        assert_eq!(pa.step, pb.step);
        assert_eq!(
            pa.global_accuracy.to_bits(),
            pb.global_accuracy.to_bits(),
            "global accuracy diverged at step {}",
            pa.step
        );
        assert_eq!(
            pa.global_loss.to_bits(),
            pb.global_loss.to_bits(),
            "global loss diverged at step {}",
            pa.step
        );
        assert_eq!(
            bits(&pa.edge_accuracy),
            bits(&pb.edge_accuracy),
            "edge accuracy diverged at step {}",
            pa.step
        );
    }
    assert_eq!(a.comm, b.comm, "communication ledger diverged");
    assert_eq!(a.syncs, b.syncs, "sync count diverged");
    assert_eq!(a.active_steps, b.active_steps, "active-step count diverged");
    assert_eq!(
        a.empirical_mobility.to_bits(),
        b.empirical_mobility.to_bits()
    );
    assert_eq!(a.param_count, b.param_count);
}
