//! Command line of `perf`: one measured run (the form the benchmark
//! driver calls) and the dispatch to `run`, `compare` and `manifest`.

use crate::json::{f, obj, s, u, Json};
use crate::runloop::{self, Block, Measured, Outcome};
use crate::spans::Tracer;
use crate::stats::{highest_supported_percentile, median, percentile, samples_beyond, threads};
use crate::workloads::{self, Shape, Workload};
use crate::{compare, layers, metrics, suite};
use std::path::PathBuf;
use std::process::ExitCode;

/// Flags of one measured run.
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub shape: Shape,
    pub out_dir: PathBuf,
}

/// `--flag value` pairs and bare `--switch`es, in order.
pub fn parse_flags(args: &[String], switches: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
        let value = if switches.contains(&name) {
            String::new()
        } else {
            it.next()
                .ok_or_else(|| format!("--{name} takes a value"))?
                .clone()
        };
        flags.push((name.to_string(), value));
    }
    Ok(flags)
}

/// The switches that set a [`Shape`].
pub const SHAPE_SWITCHES: [&str; 3] = ["smoke", "perturb", "poison"];

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut run = RunArgs {
        workload: Workload::PaperCnn,
        seed: 2023,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        shape: Shape::default(),
        out_dir: PathBuf::from("perf/out"),
    };
    for (name, value) in parse_flags(args, &SHAPE_SWITCHES)? {
        let bad = |what: &str| format!("--{name} {value:?}: {what}");
        match name.as_str() {
            "workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("no such workload"))?);
            }
            "seed" => run.seed = value.parse().map_err(|_| bad("not a seed"))?,
            "seconds" => {
                run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("not a positive number"))?;
            }
            "trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "smoke" => run.shape.smoke = true,
            "perturb" => run.shape.perturb = true,
            "poison" => run.shape.poison = true,
            "out-dir" => run.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag --{name}")),
        }
    }
    run.workload = workload.ok_or("missing --workload")?;
    Ok(run)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Throughputs and tick percentiles over `blocks`: `(rounds_per_s,
/// device_train_steps_per_s, step_ms_p50, step_ms_p90)`.
fn host_time(blocks: &[&Block]) -> (f64, f64, f64, f64) {
    let rounds: Vec<f64> = blocks.iter().map(|b| b.rate()).collect();
    let train: Vec<f64> = blocks
        .iter()
        .map(|b| b.train_steps as f64 / b.wall_s)
        .collect();
    let ticks = Block::pooled_ticks(blocks);
    (
        median(&rounds),
        median(&train),
        median(&ticks),
        percentile(&ticks, 90.0),
    )
}

/// The end-to-end metrics of an untraced run; the host-time ones over
/// every measured block.
fn end_to_end(m: &Measured, outcome: Outcome, peak_rss_mb: f64) -> Vec<(&'static str, f64)> {
    let all: Vec<&Block> = m.blocks.iter().collect();
    let (rounds_per_s, train_steps_per_s, p50, p90) = host_time(&all);
    vec![
        ("setup_s", median(&m.setup_s)),
        ("rounds_per_s", rounds_per_s),
        ("device_train_steps_per_s", train_steps_per_s),
        ("step_ms_p50", p50),
        ("step_ms_p90", p90),
        ("peak_rss_mb", peak_rss_mb),
        ("sim_wall_s", outcome.sim_wall_s),
        ("uplink_mb", outcome.uplink_mb),
    ]
}

fn unit_of(name: &str) -> &'static str {
    metrics::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(metrics::PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .expect("emitted metrics are declared in the tables")
}

/// One measured run; prints the result line last.
fn measure(args: &RunArgs) -> Result<(), String> {
    let w = args.workload;
    let cfg = workloads::sim_config(w, args.seed, args.shape);
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let mut tracer = Tracer::new(w.name(), args.trace);
    let root = tracer.begin("workload", None);
    let m = match w {
        Workload::SweepGrid => runloop::run_sweep_grid(
            &cfg,
            args.shape,
            args.seconds,
            args.trace,
            &args.out_dir,
            &mut tracer,
            root,
        ),
        _ => runloop::run_sim(w, &cfg, args.seconds, args.trace, &mut tracer, root),
    };
    // Before the probes run: they allocate models and simulations of
    // their own.
    let rss = peak_rss_mb()?;

    println!(
        "perf: workload {} seed {} seconds {} trace {} threads {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads(),
    );
    for c in &m.checks {
        println!(
            "check {} {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    // A run with failed operations reports its checks and counts, no
    // metrics: there may be no complete episode to take them from.
    let outcome = m.outcome.filter(|_| m.failed == 0);
    let values = match outcome {
        None => Vec::new(),
        Some(_) if args.trace => {
            layers::layer_metrics(w, &cfg, args.shape, &m, &args.out_dir, &mut tracer, root)
        }
        Some(outcome) => end_to_end(&m, outcome, rss),
    };
    tracer.end(root);
    if args.trace {
        let path = args.out_dir.join(format!("{}.trace.json", w.name()));
        std::fs::write(&path, tracer.to_json().compact())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace {}", path.display());
    }

    if let Some(outcome) = outcome {
        let all: Vec<&Block> = m.blocks.iter().collect();
        let ticks = Block::pooled_ticks(&all);
        let n = ticks.len();
        let tail = match highest_supported_percentile(n) {
            Some(p) => format!(
                "highest percentile with 10 samples beyond it: p{p} = {:.3} ms",
                percentile(&ticks, p)
            ),
            None => "fewer than 20 samples: no percentile has 10 beyond it".to_string(),
        };
        println!(
            "samples: {} blocks with {n} ticks ({} beyond p90; {tail}); setup_s {}",
            all.len(),
            samples_beyond(n, 90.0),
            m.setup_s.len(),
        );
        let (rounds_per_s, _, p50, p90) = host_time(&m.quiet_blocks());
        println!(
            "quieter half of the blocks (not gated): rounds_per_s {rounds_per_s:.4} step_ms_p50 {p50:.4} step_ms_p90 {p90:.4}"
        );
        for (name, value) in &values {
            println!("{name} {value} {}", unit_of(name));
        }
        println!(
            "fingerprint {} {} {:016x}",
            w.name(),
            args.seed,
            outcome.fingerprint
        );
    }
    println!("ops attempted {} failed {}", m.attempted, m.failed);

    let correct =
        m.failed == 0 && m.checks.iter().all(|c| c.ok) && values.iter().all(|(_, v)| v.is_finite());
    let result = Json(obj([
        ("correct", serde::Value::Bool(correct)),
        ("attempted", u(m.attempted.max(1))),
        ("failed", u(m.failed)),
        (
            "metrics",
            serde::Value::Map(
                values
                    .iter()
                    .map(|(name, value)| {
                        (
                            name.to_string(),
                            obj([("value", f(*value)), ("unit", s(unit_of(name)))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]));
    println!("{}", result.compact());
    Ok(())
}

/// The `perf` binary's entry point.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => suite::run(&args[1..]),
        Some("compare") => compare::run(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest().pretty());
            Ok(true)
        }
        _ => parse_run_args(&args)
            .and_then(|run| measure(&run))
            .map(|()| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}
