//! Drives the built binary end to end at smoke size (every workload
//! shrunk to well under two seconds, two repeats): every metric
//! `BENCHMARK.json` declares is emitted for every workload, the
//! fingerprints repeat between two runs, a perturbed configuration is
//! reported as `trajectory_changed`, and a poisoned one as failed
//! operations that `perf compare` refuses.

use perf::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["paper_cnn", "lazy_100k", "async_hostile", "sweep_grid"];

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perf-smoke-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `perf run --smoke` into `dir`; returns whether it exited with 0,
/// its stdout and its results file.
fn smoke_run(dir: &Path, extra: &[&str]) -> (bool, String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["run", "--smoke", "--seed", "11", "--out-dir"])
        .arg(dir)
        .args(extra)
        .output()
        .expect("perf runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let results = std::fs::read_to_string(dir.join("results-seed11.json")).unwrap_or_else(|e| {
        panic!(
            "no results file: {e}\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (
        out.status.success(),
        stdout,
        Json::parse(&results).expect("results parse"),
    )
}

/// `perf compare old new`; returns whether it exited with 0 and its
/// stdout.
fn compare(old: &str, new: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["compare", old, new])
        .output()
        .expect("perf runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr),
    )
}

fn names(list: &Json) -> Vec<String> {
    list.items()
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

fn fingerprints(results: &Json) -> Vec<String> {
    results
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| w.get("fingerprint").unwrap().as_str().unwrap().to_string())
        .collect()
}

#[test]
fn smoke_run_emits_every_declared_metric_and_pins_the_trajectory() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root");
    let manifest = Json::parse(&manifest).expect("BENCHMARK.json parses");
    assert_eq!(names(&manifest.get("workloads").unwrap()), WORKLOADS);

    let first_dir = out_dir("first");
    let (ok, stdout, first) = smoke_run(&first_dir, &[]);
    assert!(ok && stdout.contains("checks passed"), "{stdout}");
    let workloads = first.get("workloads").unwrap().items();
    assert_eq!(names(&first.get("workloads").unwrap()), WORKLOADS);
    for w in &workloads {
        let name = w.get("name").unwrap().as_str().unwrap().to_string();
        assert_eq!(w.get("correct").unwrap().as_bool(), Some(true), "{name}");
        assert_eq!(w.get("failed").unwrap().as_u64(), Some(0), "{name}");
        for key in ["end_to_end", "per_layer"] {
            let declared = names(&manifest.get(key).unwrap());
            let emitted = names(&w.get(key).unwrap());
            assert_eq!(emitted, declared, "{name}: {key}");
            for metric in &emitted {
                assert!(
                    !metric.is_empty()
                        && metric
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{name}: metric name {metric:?}"
                );
            }
        }
        for m in w.get("end_to_end").unwrap().items() {
            let median = m.get("median").unwrap().as_f64().unwrap();
            assert!(
                median.is_finite() && median > 0.0,
                "{name}: {:?}",
                m.get("name")
            );
            assert_eq!(
                m.get("values").unwrap().items().len(),
                2,
                "two smoke repeats"
            );
        }
        assert!(
            first_dir.join(format!("{name}.trace.json")).exists(),
            "{name}: span trace written"
        );
    }

    // Same seed, same commit: the trajectory repeats run to run.
    let baseline = first_dir.join("results-seed11.json");
    let baseline = baseline.to_str().unwrap();
    let (ok, stdout, second) = smoke_run(&out_dir("second"), &["--baseline", baseline]);
    assert!(ok, "{stdout}");
    assert_eq!(fingerprints(&second), fingerprints(&first));
    assert!(!stdout.contains("trajectory_changed"), "{stdout}");

    // One more local step per participation: every trajectory moves.
    let (ok, stdout, perturbed) = smoke_run(
        &out_dir("perturbed"),
        &["--baseline", baseline, "--perturb"],
    );
    assert!(ok, "{stdout}");
    for (w, (old, new)) in WORKLOADS
        .iter()
        .zip(fingerprints(&first).iter().zip(&fingerprints(&perturbed)))
    {
        assert_ne!(old, new, "{w}");
        assert!(
            stdout.contains(&format!("trajectory_changed {w}")),
            "{w}\n{stdout}"
        );
    }

    // `compare` reads its own results back and finds no regression in
    // a file against itself.
    let (ok, stdout) = compare(baseline, baseline);
    assert!(ok, "{stdout}");

    // A NaN learning rate, which the first tick panics on: every run
    // still reports, the failed operations are counted in the results
    // file, and `compare` exits non-zero on the higher failed share.
    let poisoned_dir = out_dir("poisoned");
    let (ok, stdout, poisoned) = smoke_run(&poisoned_dir, &["--poison"]);
    assert!(!ok && stdout.contains("checks FAILED"), "{stdout}");
    for w in poisoned.get("workloads").unwrap().items() {
        let name = w.get("name").unwrap().as_str().unwrap().to_string();
        let attempted = w.get("attempted").unwrap().as_u64().unwrap();
        let failed = w.get("failed").unwrap().as_u64().unwrap();
        assert!(
            0 < failed && failed <= attempted,
            "{name}: {failed} of {attempted}"
        );
        assert_eq!(w.get("correct").unwrap().as_bool(), Some(false), "{name}");
    }
    let poisoned = poisoned_dir.join("results-seed11.json");
    let (ok, stdout) = compare(baseline, poisoned.to_str().unwrap());
    assert!(!ok, "{stdout}");
    for w in WORKLOADS {
        let section = stdout.split("== ").find(|s| s.starts_with(w)).unwrap();
        let ops = section
            .lines()
            .find(|l| l.contains("ops_failed / ops_attempted"))
            .unwrap();
        assert!(ops.ends_with("REGRESSION"), "{w}: {ops}");
    }
}

/// Only results of one seed, size, run length and repeat count compare.
#[test]
fn compare_rejects_results_of_different_shapes() {
    let dir = out_dir("shapes");
    std::fs::create_dir_all(&dir).unwrap();
    let doc = |repeats: u64| {
        format!(
            r#"{{"schema": 1, "seed": 3, "smoke": false, "seconds": 20.0, "repeats": {repeats}, "workloads": []}}"#
        )
    };
    let (five, two) = (dir.join("five.json"), dir.join("two.json"));
    std::fs::write(&five, doc(5)).unwrap();
    std::fs::write(&two, doc(2)).unwrap();
    let (ok, out) = compare(five.to_str().unwrap(), five.to_str().unwrap());
    assert!(ok, "{out}");
    let (ok, out) = compare(five.to_str().unwrap(), two.to_str().unwrap());
    assert!(!ok && out.contains("repeats"), "{out}");
}
