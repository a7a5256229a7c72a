//! Micro-probes: timed calls into each layer's public functions at the
//! workload's own shapes, measured from outside the program.
//!
//! Samples are interleaved — one sample of every probe, then the next
//! sample of every probe — so that a burst of noise on a shared box
//! lands on all probes alike instead of on whichever ran at the time
//! (the pairing idea of `train_kernels::measure_pair`, for one side).
//! Each probe reports the median of 15 samples of at least 2 ms each;
//! a call so long that 15 samples would take over 1.5 s is sampled
//! fewer times, never under 3.

use crate::spans::{SpanId, Tracer};
use crate::stats::median;
use middle_core::aggregation::{cloud_aggregate_into, edge_aggregate_into, on_device_init_into};
use middle_core::compress::{compress_delta, keep_count};
use middle_core::selection::{select_devices_scored, update_similarity, CandidateScorers};
use middle_core::timeline::EventKind;
use middle_core::{
    Device, DeviceRef, FaultPlane, InputCache, MobilitySource, PopulationMode, SelectionScratch,
    SharedInputs, SimCheckpoint, SimConfig, Simulation, StepMode, Timeline,
};
use middle_data::{partition, SyntheticSource, Task};
use middle_mobility::trace::{generate_markov_hop, generate_markov_hop_homed};
use middle_mobility::Trace;
use middle_nn::params::FlatView;
use middle_nn::{NetScratch, Sequential};
use middle_tensor::conv::{
    conv2d_backward_into, conv2d_forward_into, im2col_batch, ConvGeometry, ConvScratch,
};
use middle_tensor::matmul::matmul_into;
use middle_tensor::random::{derive_seed, rng, uniform};
use middle_tensor::Tensor;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// How long and how often probes sample; `smoke` trades precision for
/// a test suite that finishes in seconds.
#[derive(Clone, Copy)]
struct Budget {
    min_sample_ns: f64,
    samples: usize,
    min_samples: usize,
    /// Sampling time one probe may take.
    probe_ns: f64,
}

impl Budget {
    fn new(smoke: bool) -> Self {
        if smoke {
            Budget {
                min_sample_ns: 0.2e6,
                samples: 3,
                min_samples: 1,
                probe_ns: 0.05e9,
            }
        } else {
            Budget {
                min_sample_ns: 2e6,
                samples: 15,
                min_samples: 3,
                probe_ns: 1.5e9,
            }
        }
    }
}

struct Probe<'a> {
    name: &'static str,
    call: Box<dyn FnMut() + 'a>,
    iters: usize,
    samples: usize,
    times: Vec<f64>,
}

/// A set of probes measured together.
pub struct ProbeSet<'a> {
    probes: Vec<Probe<'a>>,
    budget: Budget,
}

impl<'a> ProbeSet<'a> {
    pub fn new(smoke: bool) -> Self {
        ProbeSet {
            probes: Vec::new(),
            budget: Budget::new(smoke),
        }
    }

    pub fn add(&mut self, name: &'static str, call: impl FnMut() + 'a) {
        self.probes.push(Probe {
            name,
            call: Box::new(call),
            iters: 1,
            samples: self.budget.samples,
            times: Vec::new(),
        });
    }

    /// Calibrates every probe (one warm-up call sizes its samples),
    /// takes the samples round-robin and returns each probe's median
    /// nanoseconds per call.
    pub fn measure(mut self, tracer: &mut Tracer, parent: SpanId) -> HashMap<&'static str, f64> {
        for p in &mut self.probes {
            let start = Instant::now();
            (p.call)();
            let once = start.elapsed().as_nanos().max(1) as f64;
            let b = &self.budget;
            p.iters = (b.min_sample_ns / once).ceil().clamp(1.0, 1e7) as usize;
            p.samples =
                ((b.probe_ns / (once * p.iters as f64)) as usize).clamp(b.min_samples, b.samples);
        }
        let rounds = self.probes.iter().map(|p| p.samples).max().unwrap_or(0);
        for round in 0..rounds {
            for p in self.probes.iter_mut().filter(|p| round < p.samples) {
                let start = Instant::now();
                for _ in 0..p.iters {
                    (p.call)();
                }
                let end = Instant::now();
                tracer.record(format!("probe.{}", p.name), parent, start, end);
                p.times
                    .push((end - start).as_nanos() as f64 / p.iters as f64);
            }
        }
        self.probes
            .iter()
            .map(|p| (p.name, median(&p.times)))
            .collect()
    }
}

/// The GEMM and convolution shapes the workload's model runs at batch
/// `b`. The zoo does not expose its geometry, so the shapes are
/// restated here and checked against the model's parameter count.
struct ModelShapes {
    convs: Vec<ConvGeometry>,
    /// `(m, k, n)` of every GEMM probed: the batched conv GEMMs for a
    /// CNN, the dense-layer GEMMs for an MLP.
    gemms: Vec<(usize, usize, usize)>,
}

fn model_shapes(task: Task, b: usize, model: &Sequential) -> ModelShapes {
    let spec = task.spec();
    let (convs, dense): (Vec<ConvGeometry>, Vec<(usize, usize)>) = match task {
        Task::Mnist => {
            let conv = |in_c, out_c, side| ConvGeometry {
                in_c,
                out_c,
                kernel: 3,
                stride: 1,
                pad: 1,
                in_h: side,
                in_w: side,
            };
            let feat = 16 * (spec.height / 4) * (spec.width / 4);
            (
                vec![
                    conv(spec.channels, 8, spec.height),
                    conv(8, 16, spec.height / 2),
                ],
                vec![(feat, 64), (64, spec.classes)],
            )
        }
        Task::Speech => (
            Vec::new(),
            vec![(spec.features(), 64), (64, 32), (32, spec.classes)],
        ),
        other => panic!("no probe shapes for task {}", other.name()),
    };
    let implied: usize = convs
        .iter()
        .map(|g| g.out_c * g.patch_len() + g.out_c)
        .chain(dense.iter().map(|&(i, o)| i * o + o))
        .sum();
    assert_eq!(
        implied,
        model.param_count(),
        "probe shapes drifted from the {} model",
        task.name()
    );
    let gemms = if convs.is_empty() {
        dense.iter().map(|&(i, o)| (b, i, o)).collect()
    } else {
        convs
            .iter()
            .map(|g| (g.out_c, g.patch_len(), b * g.out_positions()))
            .collect()
    };
    ModelShapes { convs, gemms }
}

/// The mobility trace `SimulationBuilder` generates for `cfg`
/// (`sim::build_trace` is private to the core crate; the workloads only
/// use the Markov sources).
fn build_trace(cfg: &SimConfig, homes: &[usize]) -> Trace {
    let seed = derive_seed(cfg.seed, 7);
    let lazy = cfg.population == PopulationMode::Lazy;
    let (e, n, t) = (cfg.num_edges, cfg.num_devices, cfg.steps);
    match cfg.mobility {
        MobilitySource::MarkovHop { p } if lazy => Trace::markov_hop_streaming(e, n, t, p, seed),
        MobilitySource::HomedMarkovHop { p, home_bias } if lazy => {
            Trace::markov_hop_homed_streaming(e, homes, t, p, home_bias, seed)
        }
        MobilitySource::MarkovHop { p } => generate_markov_hop(e, n, t, p, seed),
        MobilitySource::HomedMarkovHop { p, home_bias } => {
            generate_markov_hop_homed(e, homes, t, p, home_bias, seed)
        }
        other => panic!("no trace probe for mobility source {other:?}"),
    }
}

fn built(cfg: &SimConfig) -> Simulation {
    crate::runloop::build(cfg, false)
        .expect("the run loop already built this configuration")
        .0
}

/// The tick walls of one full run of `cfg`, in milliseconds.
pub fn tick_ms(cfg: &SimConfig) -> Vec<f64> {
    let mut sim = built(cfg);
    let mut ticks = Vec::with_capacity(cfg.steps);
    while !sim.is_finished() {
        let start = Instant::now();
        sim.tick(StepMode::Fast);
        ticks.push(start.elapsed().as_secs_f64() * 1e3);
    }
    ticks
}

/// Probe results in nanoseconds per call, plus the constants needed to
/// turn them into the declared units.
pub struct ProbeResults {
    pub ns: HashMap<&'static str, f64>,
    pub gemm_flops: f64,
    pub im2col_bytes: f64,
    pub candidates: usize,
    pub checkpoint_bytes: usize,
}

impl ProbeResults {
    /// Nanoseconds per call of probe `name`; 0 when the workload does
    /// not exercise the layer and the probe was not registered.
    pub fn ns(&self, name: &str) -> f64 {
        self.ns.get(name).copied().unwrap_or(0.0)
    }
}

/// Runs every micro-probe at the shapes of `cfg`, against a simulation
/// of it ticked a little past its first cloud sync (so that a lazy
/// population holds residents and more than one live version).
pub fn run(cfg: &SimConfig, smoke: bool, tracer: &mut Tracer, root: SpanId) -> ProbeResults {
    let span = tracer.begin("probes", Some(root));
    let mut sim = built(cfg);
    for _ in 0..(cfg.cloud_interval + 2).min(cfg.steps - 1) {
        sim.tick(StepMode::Fast);
    }
    let mut restore_target = built(cfg);
    let sim = &sim;

    let (b, d) = (cfg.batch_size, sim.cloud_model().param_count());
    let model = sim.cloud_model().clone();
    let shapes = model_shapes(cfg.task, b, &model);
    let test = sim.test_set();
    // Everything the probes borrow is declared before the set, which
    // must be dropped first.
    let cloud = FlatView::of(&model);
    let candidates = sim.trace().devices_at(sim.next_step(), 0);
    let mut version_scores = Vec::new();
    sim.population()
        .version_scores(cloud.flat(), cloud.norm_sq(), &mut version_scores);
    let homes = SharedInputs::build(cfg).homes().to_vec();
    let checkpoint = sim.checkpoint();
    let checkpoint_json = checkpoint.to_json();
    let mut set = ProbeSet::new(smoke);

    // --- tensor ---
    let gemm_flops: f64 = shapes
        .gemms
        .iter()
        .map(|&(m, k, n)| 2.0 * (m * k * n) as f64)
        .sum();
    let mut gemm_bufs: Vec<_> = shapes
        .gemms
        .iter()
        .map(|&(m, k, n)| {
            let a = uniform([m * k], -1.0, 1.0, &mut rng(1)).into_vec();
            let bm = uniform([k * n], -1.0, 1.0, &mut rng(2)).into_vec();
            (a, bm, vec![0.0f32; m * n], (m, k, n))
        })
        .collect();
    set.add("tensor.gemm", move || {
        for (a, bm, c, (m, k, n)) in &mut gemm_bufs {
            matmul_into(a, bm, c, *m, *k, *n);
            black_box(&c);
        }
    });
    let mut im2col_bytes = 0.0;
    if !shapes.convs.is_empty() {
        let mut lowered: Vec<_> = shapes
            .convs
            .iter()
            .map(|g| {
                let input =
                    uniform([b * g.in_c * g.in_h * g.in_w], -1.0, 1.0, &mut rng(3)).into_vec();
                let cols = vec![0.0f32; g.patch_len() * b * g.out_positions()];
                im2col_bytes += 4.0 * (input.len() + cols.len()) as f64;
                (*g, input, cols)
            })
            .collect();
        set.add("tensor.im2col", move || {
            for (g, input, cols) in &mut lowered {
                im2col_batch(input, b, g, cols);
                black_box(&cols);
            }
        });
        let mut convs: Vec<_> = shapes
            .convs
            .iter()
            .map(|g| {
                let input = uniform([b, g.in_c, g.in_h, g.in_w], -1.0, 1.0, &mut rng(4));
                let weight = uniform([g.out_c, g.patch_len()], -0.5, 0.5, &mut rng(5));
                let bias = uniform([g.out_c], -0.1, 0.1, &mut rng(6));
                let dout = uniform([b, g.out_c, g.out_h(), g.out_w()], -1.0, 1.0, &mut rng(7));
                (*g, input, weight, bias, dout)
            })
            .collect();
        let mut scratch = ConvScratch::default();
        let (mut out, mut dw, mut db, mut di) = (
            Tensor::zeros([0]),
            Tensor::zeros([0]),
            Tensor::zeros([0]),
            Tensor::zeros([0]),
        );
        set.add("tensor.conv_fwd_bwd", move || {
            for (g, input, weight, bias, dout) in &mut convs {
                conv2d_forward_into(input, weight, bias, g, &mut scratch, &mut out);
                conv2d_backward_into(
                    input,
                    weight,
                    dout,
                    g,
                    &mut scratch,
                    &mut dw,
                    &mut db,
                    Some(&mut di),
                );
                black_box((&out, &dw, &db, &di));
            }
        });
    }

    // --- nn ---
    let batch_rows: Vec<usize> = (0..b).map(|i| i % test.len()).collect();
    let (x, y) = test.gather(&batch_rows);
    {
        let mut m = model.clone();
        let mut opt = cfg.optimizer.build();
        let mut scratch = NetScratch::new();
        set.add("nn.train_batch", move || {
            black_box(m.train_batch_ws(&x, &y, opt.as_mut(), &mut scratch));
        });
    }
    {
        let m = model.clone();
        let mut scratch = NetScratch::new();
        set.add("nn.infer", move || {
            black_box(m.infer_ws(test.inputs(), &mut scratch));
        });
    }
    {
        let m = model.clone();
        let mut flat = FlatView::of(&m);
        set.add("nn.flat_refresh", move || {
            flat.invalidate();
            flat.refresh(&m);
            black_box(&flat);
        });
    }

    // --- device / aggregation ---
    let device_rows: Vec<usize> = (0..cfg.samples_per_device.min(test.len())).collect();
    let new_device = || {
        let mut dev = Device::new(0, test.subset(&device_rows), model.clone(), cfg.seed);
        // One participation so the carried model differs from the edge's.
        dev.local_train(cfg.local_steps, b, &cfg.optimizer, 0);
        dev
    };
    {
        let mut dev = new_device();
        set.add("device.local_train", move || {
            black_box(dev.local_train(cfg.local_steps, b, &cfg.optimizer, 0));
        });
    }
    {
        // The blend leaves the device's flat cache stale and the next
        // call reads it, so each call pays one refresh; the metric
        // subtracts `nn.flat_refresh`.
        let mut dev = new_device();
        let edge = &sim.edges()[0];
        set.add("aggregation.on_device_init+refresh", move || {
            on_device_init_into(
                cfg.algorithm.on_device,
                &mut dev,
                &edge.model,
                edge.flat(),
                edge.flat_norm_sq(),
            );
            dev.refresh_flat();
        });
    }
    {
        let parts: Vec<Sequential> = (0..cfg.devices_per_edge).map(|_| model.clone()).collect();
        let mut dst = model.clone();
        let spd = cfg.samples_per_device;
        set.add("aggregation.edge", move || {
            edge_aggregate_into(&mut dst, parts.iter().map(|m| (m, spd)));
            black_box(&dst);
        });
    }
    {
        let mut dst = model.clone();
        set.add("aggregation.cloud", move || {
            cloud_aggregate_into(&mut dst, sim.edges().iter().map(|e| (&e.model, 1.0f64)));
            black_box(&dst);
        });
    }

    // --- selection / population ---
    {
        let (cloud, candidates, version_scores) = (&cloud, &candidates, &version_scores);
        let population = sim.population();
        let mut scratch = SelectionScratch::new();
        let mut pick_rng = rng(derive_seed(cfg.seed, 11));
        let mut out = Vec::new();
        set.add("selection.select", move || {
            let similarity = |m: usize| match population.view(m) {
                DeviceRef::Resident(dev) => update_similarity(dev, cloud.flat(), cloud.norm_sq()),
                DeviceRef::Stub(v) => version_scores[v as usize],
            };
            let oort = |m: usize| population.oort_utility(m).unwrap_or(f32::INFINITY);
            select_devices_scored(
                cfg.algorithm.selection,
                cfg.devices_per_edge,
                candidates,
                &CandidateScorers {
                    similarity: &similarity,
                    oort: &oort,
                    cluster: None,
                },
                &mut pick_rng,
                &mut scratch,
                &mut out,
            );
            black_box(&out);
        });
    }
    {
        let cloud = &cloud;
        let mut scores = Vec::new();
        set.add("population.version_scores", move || {
            sim.population()
                .version_scores(cloud.flat(), cloud.norm_sq(), &mut scores);
            black_box(&scores);
        });
    }

    // --- mobility / data / builder ---
    {
        let homes = &homes;
        set.add("mobility.trace_build", move || {
            black_box(build_trace(cfg, homes));
        });
    }
    {
        let trace = build_trace(cfg, &homes);
        let (mut cur, mut prev, mut t) = (Vec::new(), Vec::new(), 0usize);
        set.add("mobility.fill_rows", move || {
            t = (t + 1) % cfg.steps;
            black_box(trace.fill_rows_into(t, &mut cur, &mut prev));
        });
    }
    set.add("data.build", move || {
        let source = SyntheticSource::new(cfg.task, derive_seed(cfg.seed, 1));
        let base = source.generate_balanced(
            cfg.num_devices * cfg.samples_per_device,
            derive_seed(cfg.seed, 2),
        );
        black_box(partition(
            &base,
            cfg.num_devices,
            cfg.samples_per_device,
            cfg.scheme,
            derive_seed(cfg.seed, 3),
        ));
    });
    set.add("builder.shared_inputs", move || {
        black_box(SharedInputs::build(cfg));
    });
    {
        let cache = InputCache::new();
        cache.get_or_build(cfg);
        set.add("builder.cache_hit", move || {
            black_box(cache.get_or_build(cfg));
        });
    }

    // --- sim ---
    {
        let m = model.clone();
        set.add("sim.evaluate", move || {
            black_box(sim.evaluate(&m));
        });
    }

    // --- timeline / faults / compress ---
    {
        let depth = cfg.devices_per_edge * cfg.num_edges;
        let mut timeline = Timeline::new(cfg.num_edges, cfg.num_devices);
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        let mut next_delay = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 11) as f64 / (1u64 << 53) as f64
        };
        let upload = |i: usize| EventKind::DeviceUpload {
            edge: i % cfg.num_edges,
            device: i % cfg.num_devices,
            wave: 0,
        };
        for i in 0..depth {
            timeline.push(next_delay(), upload(i));
        }
        let mut i = depth;
        set.add("timeline.push_pop", move || {
            i += 1;
            timeline.push(timeline.clock() + next_delay(), upload(i));
            black_box(timeline.pop());
        });
    }
    {
        let mut plane = FaultPlane::new(cfg.faults, cfg.num_devices, cfg.seed);
        set.add("faults.draw", move || {
            black_box(plane.upload_attempts());
            black_box(plane.sample_upload_delay());
        });
    }
    if cfg.compression.lossy_active() {
        let delta: Vec<f64> = uniform([d], -0.01, 0.01, &mut rng(8))
            .data()
            .iter()
            .map(|&v| f64::from(v))
            .collect();
        let k = keep_count(d, cfg.compression.top_frac);
        let (bits, mode) = (cfg.compression.quantize_bits, cfg.compression.rounding);
        let mut draw_rng = rng(derive_seed(cfg.seed, 12));
        let (mut kept, mut sent, mut residual) = (Vec::new(), Vec::new(), Vec::new());
        set.add("compress.delta", move || {
            compress_delta(
                &delta,
                bits,
                k,
                mode,
                &mut draw_rng,
                &mut kept,
                &mut sent,
                &mut residual,
            );
            black_box((&kept, &sent, &residual));
        });
    }

    // --- checkpoint ---
    set.add("checkpoint.capture", move || {
        black_box(sim.checkpoint());
    });
    {
        let (ck, json) = (&checkpoint, &checkpoint_json);
        set.add("checkpoint.json", move || {
            black_box(ck.to_json());
            black_box(SimCheckpoint::from_json(json).expect("own checkpoint parses"));
        });
        set.add("checkpoint.restore", move || {
            restore_target
                .restore(ck)
                .expect("checkpoint of the same configuration restores");
        });
    }

    let ns = set.measure(tracer, span);
    tracer.end(span);
    ProbeResults {
        ns,
        gemm_flops,
        im2col_bytes,
        candidates: candidates.len(),
        checkpoint_bytes: checkpoint_json.len(),
    }
}

/// The two sweep-engine probes, against a ledger a full pass of `grid`
/// has completed: `run_sweep` then only reads, verifies and skips.
/// Returns `(sweep.resume, sweep.report_json)` in nanoseconds per call.
pub fn run_sweep_probes(
    grid: &middle_core::ScenarioGrid,
    dir: &std::path::Path,
    smoke: bool,
    tracer: &mut Tracer,
    root: SpanId,
) -> (f64, f64) {
    let span = tracer.begin("probes.sweep", Some(root));
    let opts = crate::runloop::sweep_options(dir, None);
    let _ = std::fs::remove_dir_all(dir);
    let report = middle_core::run_sweep(grid, &opts).expect("the run loop already ran this grid");
    let mut set = ProbeSet::new(smoke);
    {
        let opts = &opts;
        set.add("sweep.resume", move || {
            let resumed = middle_core::run_sweep(grid, opts).expect("complete ledger resumes");
            assert!(resumed.complete && resumed.cache_misses == 0);
        });
    }
    {
        let report = &report;
        set.add("sweep.report_json", move || {
            black_box(report.to_json());
            black_box(report.deterministic_json());
        });
    }
    let ns = set.measure(tracer, span);
    let _ = std::fs::remove_dir_all(dir);
    tracer.end(span);
    (ns["sweep.resume"], ns["sweep.report_json"])
}
