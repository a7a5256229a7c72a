//! `perf run`: the whole benchmark in one command. Every workload runs
//! 5 untraced repeats (2 under `--smoke`), round-robin across workloads (W1r1,
//! W2r1, W3r1, W4r1, W1r2, ...) so that slow drift of a shared box
//! lands on all workloads alike, then one traced run each. Every run
//! is a child process of its own, so `peak_rss_mb` is per workload.
//! End-to-end metrics are reported as the median and quartiles over
//! the repeats; the results go to `<out-dir>/results-seed<seed>.json`
//! for `perf compare`.

use crate::cli::{parse_flags, SHAPE_SWITCHES};
use crate::json::{arr, f, obj, s, u, Json};
use crate::metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats::{median, quartiles, spread, threads};
use crate::workloads::{Shape, Workload};
use middle_core::telemetry::Phase;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// What one child run reported.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    fingerprint: String,
    metrics: Vec<(String, f64)>,
}

struct Options {
    seed: u64,
    shape: Shape,
    out_dir: PathBuf,
    baseline: Option<PathBuf>,
}

impl Options {
    /// Untraced repeats per workload and seconds per run: fixed, so
    /// that any two results of one size are comparable.
    fn repeats(&self) -> usize {
        if self.shape.smoke {
            2
        } else {
            5
        }
    }

    fn seconds(&self) -> f64 {
        if self.shape.smoke {
            0.5
        } else {
            RUN_SECONDS as f64
        }
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        seed: 2023,
        shape: Shape::default(),
        out_dir: PathBuf::from("perf/out"),
        baseline: None,
    };
    for (name, value) in parse_flags(args, &SHAPE_SWITCHES)? {
        match name.as_str() {
            "seed" => {
                o.seed = value
                    .parse()
                    .map_err(|_| format!("--seed {value:?}: not a seed"))?;
            }
            "smoke" => o.shape.smoke = true,
            "perturb" => o.shape.perturb = true,
            "poison" => o.shape.poison = true,
            "out-dir" => o.out_dir = PathBuf::from(value),
            "baseline" => o.baseline = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag --{name}")),
        }
    }
    if o.baseline.is_none() && !o.shape.smoke {
        let committed = PathBuf::from(format!("perf/results/seed-{}.json", o.seed));
        o.baseline = committed.exists().then_some(committed);
    }
    Ok(o)
}

fn child(o: &Options, w: Workload, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&o.out_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for (switch, on) in [
        ("--smoke", o.shape.smoke),
        ("--perturb", o.shape.perturb),
        ("--poison", o.shape.poison),
    ] {
        if on {
            cmd.arg(switch);
        }
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} run exited with {}\n{stdout}",
            w.name(),
            out.status
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("{} result line: {e}", w.name()))?;
    let field = |key: &str| {
        result
            .get(key)
            .ok_or_else(|| format!("{} result line lacks {key:?}", w.name()))
    };
    let mut metrics = Vec::new();
    for (name, entry) in field("metrics")?.entries() {
        let value = entry
            .get("value")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("{}: metric {name} has no numeric value", w.name()))?;
        metrics.push((name, value));
    }
    let fingerprint = stdout
        .lines()
        .find_map(|l| l.strip_prefix("fingerprint "))
        .and_then(|l| l.split_whitespace().last())
        .unwrap_or_default()
        .to_string();
    for line in stdout
        .lines()
        .filter(|l| l.starts_with("check ") && l.contains(" FAILED "))
    {
        println!("  {} {line}", w.name());
    }
    Ok(Child {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        fingerprint,
        metrics,
    })
}

/// The fingerprint a results file holds for `workload`.
pub fn stored_fingerprint(results: &Json, workload: &str) -> Option<String> {
    let entry = results.get("workloads")?.named(workload)?;
    Some(entry.get("fingerprint")?.as_str()?.to_string())
}

fn value_of(metrics: &[(String, f64)], name: &str) -> Option<f64> {
    metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let o = parse(args)?;
    std::fs::create_dir_all(&o.out_dir).map_err(|e| format!("{}: {e}", o.out_dir.display()))?;
    let baseline = match &o.baseline {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            (doc.get("seed").and_then(|v| v.as_u64()) == Some(o.seed)).then_some(doc)
        }
        None => None,
    };
    println!(
        "perf run: seed {} seconds {} repeats {} smoke {} threads {}",
        o.seed,
        o.seconds(),
        o.repeats(),
        o.shape.smoke,
        threads(),
    );

    let mut untraced: Vec<Vec<Child>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    for repeat in 1..=o.repeats() {
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            let c = child(&o, w, false)?;
            println!(
                "  [{repeat}/{}] {:<14} rounds_per_s {:>10.3}  step_ms_p50 {:>9.3}  {}",
                o.repeats(),
                w.name(),
                value_of(&c.metrics, "rounds_per_s").unwrap_or(f64::NAN),
                value_of(&c.metrics, "step_ms_p50").unwrap_or(f64::NAN),
                if c.correct { "ok" } else { "INCORRECT" },
            );
            untraced[i].push(c);
        }
    }
    let mut traced = Vec::new();
    for w in Workload::ALL {
        traced.push(child(&o, w, true)?);
        println!("  [traced] {}", w.name());
    }

    let mut all_ok = true;
    let mut docs = Vec::new();
    for ((w, runs), traced) in Workload::ALL.into_iter().zip(&untraced).zip(&traced) {
        println!("\n== {} — {}", w.name(), w.why());
        let mut e2e = Vec::new();
        for m in &END_TO_END {
            // A run with failed operations emits no metrics.
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|c| value_of(&c.metrics, m.name))
                .collect();
            let mut entry = vec![
                ("name".to_string(), s(m.name)),
                ("unit".to_string(), s(m.unit)),
                ("values".to_string(), arr(values.iter().map(|&v| f(v)))),
            ];
            if values.is_empty() {
                println!("  {:<26} no run emitted it", m.name);
            } else {
                let med = median(&values);
                let (q1, q3) = quartiles(&values);
                println!(
                    "  {:<26} {:>14.4} {:<6} q1 {:>12.4} q3 {:>12.4} n {} spread {:.1}% bound {:.0}%",
                    m.name,
                    med,
                    m.unit,
                    q1,
                    q3,
                    values.len(),
                    spread(&values) * 100.0,
                    m.bound * 100.0
                );
                for (key, value) in [("median", med), ("q1", q1), ("q3", q3)] {
                    entry.push((key.to_string(), f(value)));
                }
            }
            e2e.push(Value::Map(entry));
        }
        let mut layers = Vec::new();
        for m in &PER_LAYER {
            let Some(value) = value_of(&traced.metrics, m.name) else {
                continue;
            };
            println!("  {:<34} {:>14.4} {}", m.name, value, m.unit);
            layers.push(obj([
                ("name", s(m.name)),
                ("unit", s(m.unit)),
                ("value", f(value)),
            ]));
        }
        // How well the workloads separate the layers: the share of the
        // tick wall spent in local training (tensor/nn/device).
        let phases_ms: f64 = Phase::ALL
            .iter()
            .filter_map(|p| value_of(&traced.metrics, &format!("sim.{}_ms", p.name())))
            .sum();
        if let (Some(train_ms), Some(unattributed), true) = (
            value_of(&traced.metrics, "sim.local_training_ms"),
            value_of(&traced.metrics, "sim.unattributed_frac"),
            phases_ms > 0.0,
        ) {
            println!(
                "  tensor/nn/device share of the step (sim.local_training_ms / tick wall): {:.1}%",
                100.0 * train_ms * (1.0 - unattributed) / phases_ms
            );
        }

        let attempted: u64 = runs.iter().chain([traced]).map(|c| c.attempted).sum();
        let failed: u64 = runs.iter().chain([traced]).map(|c| c.failed).sum();
        let correct = runs.iter().chain([traced]).all(|c| c.correct);
        let fingerprint = &runs[0].fingerprint;
        let repeatable = runs
            .iter()
            .chain([traced])
            .all(|c| &c.fingerprint == fingerprint && !fingerprint.is_empty());
        println!("  ops_attempted {attempted} ops_failed {failed}");
        println!(
            "  fingerprint {fingerprint} ({})",
            if repeatable {
                "identical across the repeats and the traced run"
            } else {
                "DIFFERS between runs"
            }
        );
        match baseline
            .as_ref()
            .and_then(|b| stored_fingerprint(b, w.name()))
        {
            Some(stored) if &stored != fingerprint => {
                println!("  trajectory_changed {} (baseline {stored})", w.name());
            }
            Some(_) => println!("  trajectory unchanged against the baseline"),
            None => println!("  no baseline fingerprint for this seed"),
        }
        all_ok &= correct && repeatable && failed == 0;
        docs.push(obj([
            ("name", s(w.name())),
            ("fingerprint", s(fingerprint)),
            ("correct", Value::Bool(correct && repeatable)),
            ("attempted", u(attempted)),
            ("failed", u(failed)),
            ("end_to_end", arr(e2e)),
            ("per_layer", arr(layers)),
        ]));
    }

    let results = Json(obj([
        ("schema", u(1)),
        ("seed", u(o.seed)),
        ("smoke", Value::Bool(o.shape.smoke)),
        ("seconds", f(o.seconds())),
        ("repeats", u(o.repeats() as u64)),
        ("threads", u(threads() as u64)),
        ("workloads", arr(docs)),
    ]));
    let path = results_path(&o.out_dir, o.seed);
    std::fs::write(&path, results.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults {}", path.display());
    println!("checks {}", if all_ok { "passed" } else { "FAILED" });
    Ok(all_ok)
}

pub fn results_path(out_dir: &Path, seed: u64) -> PathBuf {
    out_dir.join(format!("results-seed{seed}.json"))
}
