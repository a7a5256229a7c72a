//! `perf compare <old.json> <new.json>`: the regression verdict between
//! two `perf run` results of the same seed and size, per workload and
//! end-to-end metric.
//!
//! A metric regresses when its median worsens by more than its bound.
//! Where the run-to-run spread (interquartile range over the median, of
//! either side) is wider than the bound, the metric is `unresolved`,
//! not `ok` — unless every run of the new side reads better than every
//! run of the old. The exit code is non-zero on a regression, or when
//! the failed share of operations rose.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, quartiles, spread};
use crate::suite::stored_fingerprint;

struct Side {
    values: Vec<f64>,
    median: f64,
    q1: f64,
    q3: f64,
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn side(workload: &Json, metric: &str) -> Option<Side> {
    let entry = workload.get("end_to_end")?.named(metric)?;
    let values: Vec<f64> = entry
        .get("values")?
        .items()
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    if values.is_empty() {
        return None;
    }
    let (q1, q3) = quartiles(&values);
    Some(Side {
        median: median(&values),
        values,
        q1,
        q3,
    })
}

/// The verdict on one metric; `Err` is a regression.
fn verdict(better: Better, bound: f64, old: &Side, new: &Side) -> Result<&'static str, ()> {
    if better.worsening(old.median, new.median) > bound {
        return Err(());
    }
    if spread(&old.values).max(spread(&new.values)) <= bound {
        return Ok("ok");
    }
    let all_better = new
        .values
        .iter()
        .all(|&n| old.values.iter().all(|&o| better.worsening(o, n) < 0.0));
    Ok(if all_better { "improved" } else { "unresolved" })
}

fn ops(workload: &Json) -> (u64, u64) {
    let count = |key: &str| workload.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
    (count("attempted"), count("failed"))
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let [old_path, new_path] = args else {
        return Err("usage: perf compare <old.json> <new.json>".into());
    };
    let (old_doc, new_doc) = (load(old_path)?, load(new_path)?);
    // Only two results of the same seed (the simulated metrics), size,
    // run length and repeat count are comparable.
    for key in ["seed", "smoke", "seconds", "repeats"] {
        let (old, new) = (old_doc.get(key), new_doc.get(key));
        if old.is_none() || old != new {
            let show = |v: Option<Json>| v.map_or("nothing".to_string(), |v| v.compact());
            return Err(format!(
                "the two results are not comparable: {key} is {} in {old_path} and {} in {new_path}",
                show(old),
                show(new)
            ));
        }
    }
    let workloads = |d: &Json| {
        d.get("workloads")
            .ok_or("no \"workloads\" in a results file")
    };
    let (old_ws, new_ws) = (workloads(&old_doc)?, workloads(&new_doc)?);

    let mut regressed = false;
    for old_w in &old_ws.items() {
        let name = old_w
            .get("name")
            .and_then(|n| n.as_str().map(str::to_string));
        let Some(name) = name else { continue };
        let Some(new_w) = new_ws.named(&name) else {
            println!("{name}: missing from {new_path}");
            regressed = true;
            continue;
        };
        println!("== {name}");
        println!(
            "  {:<26} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {:>8} {:>6}  verdict",
            "metric",
            "old q1",
            "old median",
            "old q3",
            "new q1",
            "new median",
            "new q3",
            "change",
            "bound"
        );
        for m in &END_TO_END {
            let (Some(old), Some(new)) = (side(old_w, m.name), side(&new_w, m.name)) else {
                println!("  {:<26} missing on one side", m.name);
                regressed = true;
                continue;
            };
            let v = verdict(m.better, m.bound, &old, &new);
            regressed |= v.is_err();
            println!(
                "  {:<26} {:>12.4} {:>12.4} {:>12.4} | {:>12.4} {:>12.4} {:>12.4} | {:>+7.1}% {:>5.0}%  {}",
                m.name,
                old.q1,
                old.median,
                old.q3,
                new.q1,
                new.median,
                new.q3,
                -100.0 * Better::Higher.worsening(old.median, new.median),
                100.0 * m.bound,
                v.unwrap_or("REGRESSION"),
            );
        }
        let ((old_n, old_f), (new_n, new_f)) = (ops(old_w), ops(&new_w));
        // Cross-multiplied so that zero attempts never divide.
        let worse_ops = new_f * old_n.max(1) > old_f * new_n.max(1);
        println!(
            "  ops_failed / ops_attempted: {old_f} / {old_n} -> {new_f} / {new_n}{}",
            if worse_ops { "  REGRESSION" } else { "" }
        );
        regressed |= worse_ops;
        match (
            stored_fingerprint(&old_doc, &name),
            stored_fingerprint(&new_doc, &name),
        ) {
            (Some(a), Some(b)) if a != b => println!("  trajectory_changed {name} ({a} -> {b})"),
            _ => println!("  trajectory unchanged"),
        }
    }
    println!(
        "{}",
        if regressed {
            "REGRESSION"
        } else {
            "no regression"
        }
    );
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side_of(values: &[f64]) -> Side {
        let (q1, q3) = quartiles(values);
        Side {
            values: values.to_vec(),
            median: median(values),
            q1,
            q3,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = side_of(&[100.0, 101.0, 99.0, 100.0, 100.5]);
        let slower = side_of(&[120.0, 121.0, 119.0, 120.0, 120.5]);
        let noisy = side_of(&[80.0, 130.0, 100.0, 70.0, 125.0]);
        let faster = side_of(&[50.0, 60.0, 55.0, 52.0, 58.0]);
        assert_eq!(verdict(Better::Lower, 0.1, &steady, &steady), Ok("ok"));
        assert_eq!(verdict(Better::Lower, 0.1, &steady, &slower), Err(()));
        assert_eq!(verdict(Better::Higher, 0.1, &steady, &slower), Ok("ok"));
        assert_eq!(
            verdict(Better::Lower, 0.1, &steady, &noisy),
            Ok("unresolved")
        );
        assert_eq!(verdict(Better::Lower, 0.1, &noisy, &faster), Ok("improved"));
    }
}
