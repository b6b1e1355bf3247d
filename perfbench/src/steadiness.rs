//! Steadiness mode: two sets of runs of the same build, compared metric by
//! metric against the bounds in `BENCHMARK.json`.
//!
//! Each run is this executable in a child process (`--trace 0`), one seed
//! per run, the way the benchmark is driven from outside. A metric whose
//! two set medians differ by more than its bound is unresolved: a
//! difference that size could not be told apart from noise.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use serde_json::Value;

use crate::stats::{median, spread};
use crate::WORKLOADS;

struct Bound {
    name: String,
    bound: f64,
}

fn bounds() -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = doc
        .as_object()
        .and_then(|o| o.get("end_to_end"))
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let o = m.as_object().ok_or("end_to_end entry is not an object")?;
            Ok(Bound {
                name: o
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("metric without a name")?
                    .into(),
                bound: o
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// One child run; returns its end-to-end metric values.
fn one_run(workload: &str, seed: u64, seconds: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("spawning a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc: Value = serde_json::from_str(last).map_err(|e| {
        format!(
            "{workload} seed {seed}: exit {}, unreadable result: {e}",
            out.status
        )
    })?;
    let doc = doc.as_object().ok_or("result is not an object")?;
    if doc.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed}: incorrect output"));
    }
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("no metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| {
            let value = v.as_object()?.get("value")?.as_f64()?;
            Some((k.clone(), value))
        })
        .collect())
}

pub fn run(runs: usize, seed: u64, seconds: u64) -> Result<(), String> {
    let bounds = bounds()?;
    let runs = runs.max(2);
    // sets[s][(workload, metric)] = one value per run
    let mut sets: [BTreeMap<(&str, String), Vec<f64>>; 2] = Default::default();
    for (s, set) in sets.iter_mut().enumerate() {
        for workload in WORKLOADS {
            for i in 0..runs {
                let seed = seed + (s * runs + i) as u64;
                let metrics = one_run(workload, seed, seconds)?;
                eprintln!(
                    "steadiness: set {} {workload} seed {seed}: {metrics:?}",
                    s + 1
                );
                for (metric, value) in metrics {
                    set.entry((workload, metric)).or_default().push(value);
                }
            }
        }
    }

    println!(
        "{:<18} {:<14} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median 1", "median 2", "iqr 1", "iqr 2", "bound"
    );
    let mut unresolved = Vec::new();
    for workload in WORKLOADS {
        for b in &bounds {
            let key = (workload, b.name.clone());
            let (Some(a), Some(c)) = (sets[0].get(&key), sets[1].get(&key)) else {
                unresolved.push(format!("{workload} {}: missing", b.name));
                continue;
            };
            let (m1, m2) = (median(a), median(c));
            let shift = (m2 - m1).abs() / m1;
            let agree = shift <= b.bound;
            println!(
                "{:<18} {:<14} {:>12.5} {:>12.5} {:>7.2}% {:>7.2}% {:>6.0}%  {}",
                workload,
                b.name,
                m1,
                m2,
                100.0 * spread(a),
                100.0 * spread(c),
                100.0 * b.bound,
                if agree { "agree" } else { "UNRESOLVED" }
            );
            if !agree {
                unresolved.push(format!(
                    "{workload} {}: medians differ by {:.1}%",
                    b.name,
                    100.0 * shift
                ));
            }
        }
    }
    if unresolved.is_empty() {
        println!("all metrics agree within their bounds");
    } else {
        println!("unresolved:");
        for u in &unresolved {
            println!("  {u}");
        }
    }
    Ok(())
}
