//! Mobility traces: the per-time-step device→edge assignment consumed by
//! the federated simulation.
//!
//! The paper is "orthogonal to the classic mobility models … we do not
//! need a whole mobile trajectory" (§3.2): only edge membership per step
//! matters, plus the global mobility probability `P` (the expected
//! per-step fraction of devices that switch edges). A [`Trace`] is made
//! one of two ways:
//!
//! * generated, by a Markov edge-hop process whose per-device move
//!   probability averages to the requested `P` (the controlled knob of
//!   the paper's Figure 7), optionally biased towards a home edge; or
//! * imported, from assignment rows ([`Trace::new`]), from an exported
//!   trace (its serde JSON form) or from a ONE-simulator report
//!   ([`Trace::from_one_report`]) — the way real ONE output comes in.
//!
//! A trace is backed either **densely** (every row materialised, the
//! historical representation) or by a **stream**: the Markov generators
//! can run as a cursor that keeps only the previous and current rows
//! plus the generator RNG, so holding a million-device trace costs
//! O(N), not O(N·T). The dense generators walk that same cursor and
//! keep every row, so the hop is written once and both backends replay
//! one RNG draw sequence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// A complete mobility trace: conceptually, `assignments[t][m]` is the
/// edge of device `m` during time step `t`.
pub struct Trace {
    num_edges: usize,
    backend: Backend,
}

enum Backend {
    /// Every row held in memory.
    Dense(Vec<Vec<usize>>),
    /// Rows regenerated on demand from the Markov process.
    Stream(Box<MarkovStream>),
}

/// Generator parameters of a streamed Markov trace — everything needed
/// to regenerate the full assignment sequence deterministically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarkovStreamSpec {
    /// Number of edge servers.
    pub num_edges: usize,
    /// Number of devices.
    pub devices: usize,
    /// Number of time steps.
    pub steps: usize,
    /// Requested global mobility `P`.
    pub p_global: f64,
    /// Home edges for the homed variant; `None` selects the plain hop.
    pub homes: Option<Vec<usize>>,
    /// Probability of returning home on a move (homed variant only).
    pub home_bias: f64,
    /// Generator seed.
    pub seed: u64,
}

impl MarkovStreamSpec {
    fn validate(&self) -> Result<(), String> {
        if self.num_edges == 0 {
            return Err("need at least one edge".into());
        }
        if self.steps == 0 {
            return Err("trace needs at least one step".into());
        }
        if !(0.0..=1.0).contains(&self.p_global) {
            return Err("P must be in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.home_bias) {
            return Err("home_bias must be in [0, 1]".into());
        }
        if let Some(h) = &self.homes {
            if h.len() != self.devices {
                return Err("homes length must match device count".into());
            }
            if h.iter().any(|&e| e >= self.num_edges) {
                return Err("home edge out of range".into());
            }
        }
        Ok(())
    }
}

/// Streaming Markov-hop backend: per-device move probabilities, the
/// initial row, the post-init RNG state, and a cursor holding the two
/// live rows.
struct MarkovStream {
    spec: MarkovStreamSpec,
    /// Per-device move probabilities (mean `p_global`).
    p: Vec<f64>,
    /// Row 0.
    initial: Vec<usize>,
    /// RNG state right after `p` and the initial row were drawn — the
    /// reset point for backward seeks.
    rng0: [u64; 4],
    cursor: Mutex<Cursor>,
}

struct Cursor {
    /// Step the `cur` row describes.
    t: usize,
    /// Row `t - 1`; empty while `t == 0`.
    prev: Vec<usize>,
    /// Row `t`.
    cur: Vec<usize>,
    rng: StdRng,
    /// Device-steps moved over generated steps `1..=t`.
    moved: u64,
}

impl MarkovStream {
    fn new(spec: MarkovStreamSpec) -> Self {
        if let Err(e) = spec.validate() {
            panic!("{e}");
        }
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let p = draw_move_probabilities(spec.devices, spec.p_global, &mut rng);
        let initial: Vec<usize> = match &spec.homes {
            Some(h) => h.clone(),
            None => (0..spec.devices)
                .map(|_| rng.gen_range(0..spec.num_edges))
                .collect(),
        };
        let rng0 = rng.state();
        let cursor = Mutex::new(Cursor {
            t: 0,
            prev: Vec::new(),
            cur: initial.clone(),
            rng,
            moved: 0,
        });
        MarkovStream {
            spec,
            p,
            initial,
            rng0,
            cursor,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Cursor> {
        self.cursor.lock().expect("trace cursor poisoned")
    }

    /// Positions the cursor on step `t`. Forward seeks advance the
    /// process; backward seeks restart from step 0 and regenerate
    /// (O(t·N) — the simulation only ever walks forward, so this path
    /// is taken once per checkpoint restore at most).
    fn seek(&self, cursor: &mut Cursor, t: usize) {
        assert!(t < self.spec.steps, "step {t} out of range");
        if t < cursor.t {
            cursor.t = 0;
            cursor.prev.clear();
            cursor.cur.clone_from(&self.initial);
            cursor.rng = StdRng::from_state(self.rng0);
            cursor.moved = 0;
        }
        while cursor.t < t {
            self.advance(cursor);
        }
    }

    /// Generates the next row in place: each device moves with its
    /// probability `p_m`, to a uniformly-random *other* edge (never a
    /// self-loop, so every draw is a real move and E[moves] tracks P) —
    /// or, on the homed variant, first back home with probability
    /// `home_bias` when it is away.
    fn advance(&self, cursor: &mut Cursor) {
        let num_edges = self.spec.num_edges;
        let homes = self.spec.homes.as_deref();
        cursor.prev.clone_from(&cursor.cur);
        let rng = &mut cursor.rng;
        for (m, e) in cursor.cur.iter_mut().enumerate() {
            if num_edges > 1 && rng.gen::<f64>() < self.p[m] {
                let home = homes.map(|h| h[m]);
                *e = match home {
                    Some(home) if *e != home && rng.gen::<f64>() < self.spec.home_bias => home,
                    _ => {
                        let next = rng.gen_range(0..num_edges - 1);
                        next + usize::from(next >= *e)
                    }
                };
            }
        }
        cursor.moved += cursor
            .prev
            .iter()
            .zip(&cursor.cur)
            .filter(|(a, b)| a != b)
            .count() as u64;
        cursor.t += 1;
    }

    /// Every row of the trace, walked from step 0 — the dense
    /// generators' output.
    fn rows(&self) -> Vec<Vec<usize>> {
        let mut cursor = self.lock();
        self.seek(&mut cursor, 0);
        let mut rows = Vec::with_capacity(self.spec.steps);
        rows.push(cursor.cur.clone());
        while rows.len() < self.spec.steps {
            self.advance(&mut cursor);
            rows.push(cursor.cur.clone());
        }
        rows
    }

    /// Total moved device-steps over the whole horizon: the cursor's
    /// running count plus a detached replay of the remaining steps
    /// (leaves the cursor untouched).
    fn total_moved(&self) -> u64 {
        let guard = self.lock();
        let mut replay = Cursor {
            t: guard.t,
            prev: Vec::new(),
            cur: guard.cur.clone(),
            rng: StdRng::from_state(guard.rng.state()),
            moved: guard.moved,
        };
        drop(guard);
        while replay.t < self.spec.steps - 1 {
            self.advance(&mut replay);
        }
        replay.moved
    }
}

impl Trace {
    /// Wraps raw assignments in a dense trace.
    ///
    /// # Panics
    /// Panics when steps have differing device counts or any edge index
    /// is out of range.
    pub fn new(num_edges: usize, assignments: Vec<Vec<usize>>) -> Self {
        assert!(num_edges > 0, "need at least one edge");
        assert!(!assignments.is_empty(), "trace needs at least one step");
        let devices = assignments[0].len();
        for (t, step) in assignments.iter().enumerate() {
            assert_eq!(step.len(), devices, "step {t} device count mismatch");
            assert!(
                step.iter().all(|&e| e < num_edges),
                "step {t} has an out-of-range edge index"
            );
        }
        Trace {
            num_edges,
            backend: Backend::Dense(assignments),
        }
    }

    /// Streaming counterpart of [`generate_markov_hop`]: identical rows,
    /// O(devices) resident memory instead of O(devices · steps).
    pub fn markov_hop_streaming(
        num_edges: usize,
        devices: usize,
        steps: usize,
        p_global: f64,
        seed: u64,
    ) -> Self {
        Trace {
            num_edges,
            backend: Backend::Stream(Box::new(MarkovStream::new(MarkovStreamSpec {
                num_edges,
                devices,
                steps,
                p_global,
                homes: None,
                home_bias: 0.0,
                seed,
            }))),
        }
    }

    /// Streaming counterpart of [`generate_markov_hop_homed`].
    pub fn markov_hop_homed_streaming(
        num_edges: usize,
        homes: &[usize],
        steps: usize,
        p_global: f64,
        home_bias: f64,
        seed: u64,
    ) -> Self {
        Trace {
            num_edges,
            backend: Backend::Stream(Box::new(MarkovStream::new(MarkovStreamSpec {
                num_edges,
                devices: homes.len(),
                steps,
                p_global,
                homes: Some(homes.to_vec()),
                home_bias,
                seed,
            }))),
        }
    }

    /// The same trace with every row materialised.
    fn into_dense(self) -> Trace {
        match self.backend {
            Backend::Dense(_) => self,
            Backend::Stream(s) => Trace::new(self.num_edges, s.rows()),
        }
    }

    /// Number of time steps.
    pub fn steps(&self) -> usize {
        match &self.backend {
            Backend::Dense(a) => a.len(),
            Backend::Stream(s) => s.spec.steps,
        }
    }

    /// Number of devices.
    pub fn devices(&self) -> usize {
        match &self.backend {
            Backend::Dense(a) => a[0].len(),
            Backend::Stream(s) => s.spec.devices,
        }
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Edge of device `m` at step `t`.
    pub fn edge_of(&self, t: usize, m: usize) -> usize {
        match &self.backend {
            Backend::Dense(a) => a[t][m],
            Backend::Stream(s) => {
                let mut cursor = s.lock();
                if t + 1 == cursor.t {
                    return cursor.prev[m];
                }
                s.seek(&mut cursor, t);
                cursor.cur[m]
            }
        }
    }

    /// All device→edge assignments at step `t`.
    ///
    /// # Panics
    /// Panics on streaming traces, which have no stable row to borrow —
    /// use [`Trace::fill_rows_into`] there.
    pub fn at(&self, t: usize) -> &[usize] {
        match &self.backend {
            Backend::Dense(a) => &a[t],
            Backend::Stream(_) => panic!("streaming traces cannot borrow rows; use fill_rows_into"),
        }
    }

    /// Copies row `t` into `cur` and, when `t > 0`, row `t − 1` into
    /// `prev`; returns whether `prev` was filled. This is the one-pass
    /// row access the simulation's per-step index uses — a single O(N)
    /// copy per step regardless of backend.
    pub fn fill_rows_into(&self, t: usize, cur: &mut Vec<usize>, prev: &mut Vec<usize>) -> bool {
        match &self.backend {
            Backend::Dense(a) => {
                cur.clear();
                cur.extend_from_slice(&a[t]);
                if t > 0 {
                    prev.clear();
                    prev.extend_from_slice(&a[t - 1]);
                }
                t > 0
            }
            Backend::Stream(s) => {
                let mut cursor = s.lock();
                s.seek(&mut cursor, t);
                cur.clear();
                cur.extend_from_slice(&cursor.cur);
                if t > 0 {
                    prev.clear();
                    prev.extend_from_slice(&cursor.prev);
                }
                t > 0
            }
        }
    }

    /// Devices attached to `edge` at step `t` (the candidate set `M_n^t`).
    pub fn devices_at(&self, t: usize, edge: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.devices_at_into(t, edge, &mut out);
        out
    }

    /// Allocation-free form of [`Trace::devices_at`]: clears `out` and
    /// fills it with the candidate set in ascending device order.
    pub fn devices_at_into(&self, t: usize, edge: usize, out: &mut Vec<usize>) {
        out.clear();
        let fill = |row: &[usize], out: &mut Vec<usize>| {
            out.extend(
                row.iter()
                    .enumerate()
                    .filter(|(_, &e)| e == edge)
                    .map(|(m, _)| m),
            );
        };
        match &self.backend {
            Backend::Dense(a) => fill(&a[t], out),
            Backend::Stream(s) => {
                let mut cursor = s.lock();
                s.seek(&mut cursor, t);
                fill(&cursor.cur, out);
            }
        }
    }

    /// True when device `m` entered its step-`t` edge from a different
    /// edge (the `m ∉ M_n^{t−1}` test of Algorithm 1, line 4). Step 0
    /// counts as not-moved.
    pub fn moved(&self, t: usize, m: usize) -> bool {
        if t == 0 {
            return false;
        }
        match &self.backend {
            Backend::Dense(a) => a[t][m] != a[t - 1][m],
            Backend::Stream(s) => {
                let mut cursor = s.lock();
                s.seek(&mut cursor, t);
                cursor.cur[m] != cursor.prev[m]
            }
        }
    }

    /// Empirical global mobility: the fraction of device-steps (from step
    /// 1 on) where the device changed edge — the measured counterpart of
    /// the paper's `P`.
    pub fn empirical_mobility(&self) -> f64 {
        if self.steps() < 2 {
            return 0.0;
        }
        let total = (self.steps() - 1) * self.devices();
        let moved = match &self.backend {
            Backend::Dense(a) => {
                let mut moved = 0u64;
                for t in 1..a.len() {
                    moved += a[t]
                        .iter()
                        .zip(&a[t - 1])
                        .filter(|(cur, prev)| cur != prev)
                        .count() as u64;
                }
                moved
            }
            Backend::Stream(s) => s.total_moved(),
        };
        moved as f64 / total as f64
    }

    /// Per-step edge occupancy histogram at step `t`.
    pub fn occupancy(&self, t: usize) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_edges];
        let fill = |row: &[usize], counts: &mut Vec<usize>| {
            for &e in row {
                counts[e] += 1;
            }
        };
        match &self.backend {
            Backend::Dense(a) => fill(&a[t], &mut counts),
            Backend::Stream(s) => {
                let mut cursor = s.lock();
                s.seek(&mut cursor, t);
                fill(&cursor.cur, &mut counts);
            }
        }
        counts
    }

    /// Exports in a ONE-simulator-style report format: one
    /// `time device edge` line per (step, device).
    pub fn to_one_report(&self) -> String {
        let mut out = String::with_capacity(self.steps() * self.devices() * 8);
        let mut cur = Vec::new();
        let mut prev = Vec::new();
        for t in 0..self.steps() {
            self.fill_rows_into(t, &mut cur, &mut prev);
            for (m, &e) in cur.iter().enumerate() {
                out.push_str(&format!("{t} {m} {e}\n"));
            }
        }
        out
    }

    /// Parses the `time device edge` report format.
    ///
    /// # Errors
    /// Returns a message describing the malformed line or inconsistent
    /// structure.
    pub fn from_one_report(s: &str, num_edges: usize) -> Result<Self, String> {
        let mut rows: Vec<(usize, usize, usize)> = Vec::new();
        for (lineno, line) in s.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut it = line.split_whitespace();
            let parse = |tok: Option<&str>| -> Result<usize, String> {
                tok.ok_or_else(|| format!("line {}: missing field", lineno + 1))?
                    .parse::<usize>()
                    .map_err(|e| format!("line {}: {e}", lineno + 1))
            };
            rows.push((parse(it.next())?, parse(it.next())?, parse(it.next())?));
        }
        if rows.is_empty() {
            return Err("empty report".into());
        }
        // Size the table from the indices only once the rows can fill it:
        // a report must list every (step, device) pair exactly once.
        let extent = |max: usize, what: &str| {
            max.checked_add(1)
                .ok_or_else(|| format!("{what} index {max} out of range"))
        };
        let steps = extent(rows.iter().map(|r| r.0).fold(0, usize::max), "step")?;
        let devices = extent(rows.iter().map(|r| r.1).fold(0, usize::max), "device")?;
        if steps
            .checked_mul(devices)
            .is_none_or(|cells| cells > rows.len())
        {
            return Err("report has gaps (missing device-step rows)".into());
        }
        let mut assignments = vec![vec![usize::MAX; devices]; steps];
        for (t, m, e) in rows {
            if e >= num_edges {
                return Err(format!("edge {e} out of range"));
            }
            if assignments[t][m] != usize::MAX {
                return Err(format!("duplicate row for step {t}, device {m}"));
            }
            assignments[t][m] = e;
        }
        Ok(Trace::new(num_edges, assignments))
    }
}

/// Heterogeneous per-device move probabilities with mean `p_global`:
/// draw U(0.5, 1.5)·P and renormalise the sample mean back to P. Drawn
/// first from a stream's seed, before its initial row.
fn draw_move_probabilities(devices: usize, p_global: f64, rng: &mut StdRng) -> Vec<f64> {
    let mut p: Vec<f64> = (0..devices)
        .map(|_| (rng.gen_range(0.5..1.5) * p_global).clamp(0.0, 1.0))
        .collect();
    if p_global > 0.0 && devices > 0 {
        let mean: f64 = p.iter().sum::<f64>() / devices as f64;
        if mean > 0.0 {
            let k = p_global / mean;
            for v in &mut p {
                *v = (*v * k).clamp(0.0, 1.0);
            }
        }
    }
    p
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.backend {
            Backend::Dense(a) => f
                .debug_struct("Trace")
                .field("num_edges", &self.num_edges)
                .field("assignments", a)
                .finish(),
            Backend::Stream(s) => f
                .debug_struct("Trace")
                .field("num_edges", &self.num_edges)
                .field("stream", &s.spec)
                .finish(),
        }
    }
}

impl Clone for Trace {
    fn clone(&self) -> Self {
        let backend = match &self.backend {
            Backend::Dense(a) => Backend::Dense(a.clone()),
            Backend::Stream(s) => {
                let guard = s.lock();
                let cursor = Mutex::new(Cursor {
                    t: guard.t,
                    prev: guard.prev.clone(),
                    cur: guard.cur.clone(),
                    rng: StdRng::from_state(guard.rng.state()),
                    moved: guard.moved,
                });
                drop(guard);
                Backend::Stream(Box::new(MarkovStream {
                    spec: s.spec.clone(),
                    p: s.p.clone(),
                    initial: s.initial.clone(),
                    rng0: s.rng0,
                    cursor,
                }))
            }
        };
        Trace {
            num_edges: self.num_edges,
            backend,
        }
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        if self.num_edges != other.num_edges {
            return false;
        }
        match (&self.backend, &other.backend) {
            (Backend::Dense(a), Backend::Dense(b)) => a == b,
            // Specs fully determine the rows, so spec equality is row
            // equality; the cursor position is not part of identity.
            (Backend::Stream(a), Backend::Stream(b)) => a.spec == b.spec,
            _ => false,
        }
    }
}

impl Eq for Trace {}

/// Wire format: exactly one of `assignments` (dense rows, the
/// historical layout) or `stream` (generator spec) is present.
#[derive(Serialize, Deserialize)]
struct TraceRepr {
    num_edges: usize,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    assignments: Option<Vec<Vec<usize>>>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    stream: Option<MarkovStreamSpec>,
}

impl Serialize for Trace {
    fn to_value(&self) -> serde::Value {
        let repr = match &self.backend {
            Backend::Dense(a) => TraceRepr {
                num_edges: self.num_edges,
                assignments: Some(a.clone()),
                stream: None,
            },
            Backend::Stream(s) => TraceRepr {
                num_edges: self.num_edges,
                assignments: None,
                stream: Some(s.spec.clone()),
            },
        };
        repr.to_value()
    }
}

/// The one JSON decoder: a parsed trace and every serde field of type
/// `Trace` go through it, so each checks what [`Trace::new`] and the
/// stream generator would otherwise assert. Dense traces keep their
/// historical row format; streaming traces carry the generator spec.
impl Deserialize for Trace {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let repr = TraceRepr::from_value(v)?;
        let invalid = |msg: &str| Err(serde::Error::custom(msg));
        if repr.num_edges == 0 {
            return invalid("need at least one edge");
        }
        let backend = match (repr.assignments, repr.stream) {
            (Some(assignments), None) => {
                let Some(first) = assignments.first() else {
                    return invalid("trace needs at least one step");
                };
                if assignments.iter().any(|step| step.len() != first.len()) {
                    return invalid("step device count mismatch");
                }
                if assignments.iter().flatten().any(|&e| e >= repr.num_edges) {
                    return invalid("edge index out of range");
                }
                Backend::Dense(assignments)
            }
            (None, Some(spec)) => {
                spec.validate().map_err(serde::Error::custom)?;
                if spec.num_edges != repr.num_edges {
                    return invalid("stream num_edges mismatch");
                }
                Backend::Stream(Box::new(MarkovStream::new(spec)))
            }
            _ => return invalid("trace JSON needs exactly one of `assignments` or `stream`"),
        };
        Ok(Trace {
            num_edges: repr.num_edges,
            backend,
        })
    }
}

/// Markov edge-hop trace with controlled global mobility.
///
/// Each device `m` has probability `p_m` of switching, at every step, to
/// a uniformly-random *other* edge; `p_m` is spread around `p_global`
/// (±50%, clamped to `[0, 1]`) so devices are heterogeneous while the
/// expectation matches the paper's global mobility `P` (§3.2).
pub fn generate_markov_hop(
    num_edges: usize,
    devices: usize,
    steps: usize,
    p_global: f64,
    seed: u64,
) -> Trace {
    Trace::markov_hop_streaming(num_edges, devices, steps, p_global, seed).into_dense()
}

/// Home-biased Markov edge-hop trace: like [`generate_markov_hop`], but
/// each device has a *home* edge it starts at and preferentially returns
/// to — approximating the spatial locality of real (ONE-simulator-style)
/// movement, which keeps edge-level data distributions persistently
/// Non-IID while still realising the requested global mobility `P`.
///
/// When a device relocates (probability `p_m` per step, mean `p_global`)
/// and is currently away from home, it returns home with probability
/// `home_bias`, otherwise it picks a uniformly-random different edge.
/// The stationary at-home fraction is `home_bias / (1 + home_bias)`.
pub fn generate_markov_hop_homed(
    num_edges: usize,
    homes: &[usize],
    steps: usize,
    p_global: f64,
    home_bias: f64,
    seed: u64,
) -> Trace {
    Trace::markov_hop_homed_streaming(num_edges, homes, steps, p_global, home_bias, seed)
        .into_dense()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markov_hop_matches_requested_mobility() {
        for p in [0.1f64, 0.3, 0.5] {
            let t = generate_markov_hop(10, 100, 300, p, 42);
            let emp = t.empirical_mobility();
            assert!((emp - p).abs() < 0.05, "requested P={p}, got {emp}");
        }
    }

    #[test]
    fn markov_hop_zero_p_is_static() {
        let t = generate_markov_hop(5, 20, 50, 0.0, 1);
        assert_eq!(t.empirical_mobility(), 0.0);
    }

    #[test]
    fn single_edge_never_moves() {
        let t = generate_markov_hop(1, 10, 20, 0.9, 2);
        assert_eq!(t.empirical_mobility(), 0.0);
    }

    #[test]
    fn devices_at_partitions_all_devices() {
        let t = generate_markov_hop(4, 30, 10, 0.4, 3);
        for step in 0..t.steps() {
            let total: usize = (0..4).map(|e| t.devices_at(step, e).len()).sum();
            assert_eq!(total, 30);
        }
    }

    #[test]
    fn moved_detects_transitions() {
        let t = Trace::new(3, vec![vec![0, 1], vec![0, 2], vec![1, 2]]);
        assert!(!t.moved(0, 0));
        assert!(!t.moved(1, 0));
        assert!(t.moved(1, 1));
        assert!(t.moved(2, 0));
        assert!(!t.moved(2, 1));
        assert!((t.empirical_mobility() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn json_roundtrip() {
        let t = generate_markov_hop(3, 5, 8, 0.3, 9);
        let t2: Trace = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn one_report_roundtrip() {
        let t = generate_markov_hop(4, 6, 5, 0.5, 10);
        let rep = t.to_one_report();
        let t2 = Trace::from_one_report(&rep, 4).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn one_report_rejects_gaps() {
        let rep = "0 0 1\n0 1 2\n1 0 1\n"; // missing (1, 1)
        assert!(Trace::from_one_report(rep, 3).is_err());
    }

    #[test]
    fn one_report_rejects_hostile_extents_and_duplicates() {
        let huge_device = format!("0 {} 0\n", usize::MAX / 4);
        let last_step = format!("{} 0 0\n", usize::MAX);
        let duplicate = "0 0 1\n0 1 0\n0 0 0\n";
        for rep in [huge_device.as_str(), last_step.as_str(), duplicate] {
            assert!(Trace::from_one_report(rep, 2).is_err(), "accepted {rep:?}");
        }
        let err = Trace::from_one_report(duplicate, 2).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    /// The JSON decoder validates what the constructors assert.
    #[test]
    fn malformed_json_is_rejected() {
        let stream = serde_json::to_string(&Trace::markov_hop_streaming(2, 4, 5, 0.5, 1)).unwrap();
        assert!(serde_json::from_str::<Trace>(&stream).is_ok());
        let foreign_stream = stream.replacen("\"num_edges\":2", "\"num_edges\":3", 1);
        for json in [
            r#"{"num_edges":2,"assignments":[]}"#,
            r#"{"num_edges":2,"assignments":[[0,1],[0]]}"#,
            r#"{"num_edges":2,"assignments":[[0,2]]}"#,
            foreign_stream.as_str(),
        ] {
            assert!(
                serde_json::from_str::<Trace>(json).is_err(),
                "serde accepted {json}"
            );
        }
    }

    #[test]
    fn one_report_skips_comments_and_blanks() {
        let rep = "# header\n\n0 0 1\n0 1 0\n";
        let t = Trace::from_one_report(rep, 2).unwrap();
        assert_eq!(t.devices(), 2);
        assert_eq!(t.steps(), 1);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn new_rejects_bad_edge_index() {
        Trace::new(2, vec![vec![0, 2]]);
    }

    #[test]
    fn homed_hop_matches_requested_mobility() {
        let homes: Vec<usize> = (0..100).map(|m| m % 5).collect();
        for p in [0.1f64, 0.5] {
            let t = generate_markov_hop_homed(5, &homes, 300, p, 0.6, 17);
            let emp = t.empirical_mobility();
            assert!((emp - p).abs() < 0.06, "requested P={p}, got {emp}");
        }
    }

    #[test]
    fn homed_hop_keeps_devices_near_home() {
        let homes: Vec<usize> = (0..100).map(|m| m % 5).collect();
        let t = generate_markov_hop_homed(5, &homes, 400, 0.5, 0.6, 23);
        // Count at-home device-steps over the tail (past mixing).
        let mut at_home = 0usize;
        let mut total = 0usize;
        for step in 200..t.steps() {
            for (m, &home) in homes.iter().enumerate() {
                total += 1;
                at_home += usize::from(t.edge_of(step, m) == home);
            }
        }
        let frac = at_home as f64 / total as f64;
        // Stationary at-home fraction ≈ hb/(1+hb) = 0.375 >> uniform 0.2.
        assert!(frac > 0.3, "at-home fraction {frac}");
        assert!(frac < 0.55, "at-home fraction {frac}");
    }

    #[test]
    fn homed_hop_starts_at_home() {
        let homes = vec![2usize, 0, 1];
        let t = generate_markov_hop_homed(3, &homes, 5, 0.9, 0.5, 3);
        assert_eq!(t.at(0), &homes[..]);
    }

    #[test]
    fn traces_are_seed_deterministic() {
        let a = generate_markov_hop(5, 10, 30, 0.4, 11);
        let b = generate_markov_hop(5, 10, 30, 0.4, 11);
        assert_eq!(a, b);
        let c = generate_markov_hop(5, 10, 30, 0.4, 12);
        assert_ne!(a, c);
    }

    // ----- streaming backend -----

    fn rows(t: &Trace) -> Vec<Vec<usize>> {
        let mut out = Vec::with_capacity(t.steps());
        let mut cur = Vec::new();
        let mut prev = Vec::new();
        for step in 0..t.steps() {
            t.fill_rows_into(step, &mut cur, &mut prev);
            out.push(cur.clone());
        }
        out
    }

    // The dense generators materialise the stream, so their rows agree
    // by construction; the `streaming_*` tests hold the two backends'
    // accessors to each other: random access, backward seeks, `moved`,
    // `occupancy`, `devices_at` and `empirical_mobility`.
    #[test]
    fn streaming_markov_hop_matches_dense_bitwise() {
        let dense = generate_markov_hop(7, 50, 40, 0.35, 99);
        let stream = Trace::markov_hop_streaming(7, 50, 40, 0.35, 99);
        assert!(matches!(stream.backend, Backend::Stream(_)));
        assert_eq!(rows(&dense), rows(&stream));
        assert_eq!(dense.empirical_mobility(), stream.empirical_mobility());
    }

    #[test]
    fn streaming_homed_hop_matches_dense_bitwise() {
        let homes: Vec<usize> = (0..60).map(|m| m % 6).collect();
        let dense = generate_markov_hop_homed(6, &homes, 30, 0.4, 0.6, 31);
        let stream = Trace::markov_hop_homed_streaming(6, &homes, 30, 0.4, 0.6, 31);
        assert_eq!(rows(&dense), rows(&stream));
        for t in 0..30 {
            for m in 0..60 {
                assert_eq!(dense.moved(t, m), stream.moved(t, m));
            }
            assert_eq!(dense.occupancy(t), stream.occupancy(t));
        }
        assert_eq!(dense.empirical_mobility(), stream.empirical_mobility());
    }

    #[test]
    fn streaming_backward_seek_regenerates() {
        let dense = generate_markov_hop(5, 20, 25, 0.5, 3);
        let stream = Trace::markov_hop_streaming(5, 20, 25, 0.5, 3);
        // Jump to the end, then back to the middle, then to the start —
        // each backward seek restarts the generator.
        for &t in &[24usize, 10, 0, 17, 3] {
            for m in 0..20 {
                assert_eq!(dense.edge_of(t, m), stream.edge_of(t, m), "t={t} m={m}");
            }
        }
        // empirical_mobility replays detached from wherever the cursor is.
        assert_eq!(dense.empirical_mobility(), stream.empirical_mobility());
    }

    #[test]
    fn streaming_devices_at_matches_dense() {
        let dense = generate_markov_hop(4, 30, 10, 0.4, 5);
        let stream = Trace::markov_hop_streaming(4, 30, 10, 0.4, 5);
        for t in 0..10 {
            for e in 0..4 {
                assert_eq!(dense.devices_at(t, e), stream.devices_at(t, e));
            }
        }
    }

    #[test]
    fn streaming_clone_preserves_rows() {
        let stream = Trace::markov_hop_streaming(5, 15, 12, 0.45, 8);
        let mut cur = Vec::new();
        let mut prev = Vec::new();
        stream.fill_rows_into(7, &mut cur, &mut prev); // move the cursor
        let cloned = stream.clone();
        assert_eq!(rows(&stream), rows(&cloned));
        assert_eq!(stream, cloned);
    }

    #[test]
    fn streaming_json_roundtrip_is_spec_sized() {
        let stream = Trace::markov_hop_homed_streaming(3, &[0, 1, 2, 0], 1000, 0.3, 0.5, 77);
        let json = serde_json::to_string(&stream).unwrap();
        // 1000 steps of rows would dwarf this; the spec form stays tiny.
        assert!(
            json.len() < 400,
            "spec JSON unexpectedly large: {}",
            json.len()
        );
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert!(matches!(back.backend, Backend::Stream(_)));
        assert_eq!(back, stream);
        assert_eq!(rows(&back)[999], rows(&stream)[999]);
    }

    #[test]
    fn streaming_one_report_roundtrip() {
        let stream = Trace::markov_hop_streaming(4, 6, 5, 0.5, 10);
        let dense = Trace::from_one_report(&stream.to_one_report(), 4).unwrap();
        assert_eq!(rows(&dense), rows(&stream));
    }
}
