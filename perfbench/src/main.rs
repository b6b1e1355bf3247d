//! The crumbcruncher benchmark: four workloads driven through the public
//! APIs of the workspace crates, each checked for correct output, timed
//! end to end with telemetry off, and broken down per layer in one extra
//! traced iteration. `perfbench/README.md` explains the workloads and
//! metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload study_report --seed 1 --seconds 15 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --steadiness 10 --seconds 15
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! The line before it is a fuller JSON report (every metric, the layer
//! table, `cpu_cores`), and a readable summary goes to standard error.

mod client;
mod layers;
mod stats;
mod steadiness;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::Metric;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "study_report",
    "checkpoint_crawl",
    "serve_load",
    "gaggle_crawl",
];

/// No rotation starts that would, at the pace of the last one, end after
/// this much measuring, and no iteration starts after it, so that one run
/// ends well inside three minutes even on a slow commit.
const MEASURE_CAP: Duration = Duration::from_secs(120);

const USAGE: &str = "\
usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
       perfbench --steadiness RUNS [--seconds S] [--seed N]

workloads: study_report checkpoint_crawl serve_load gaggle_crawl
Crawl threads, server workers and client connections each equal the core count.";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    steadiness: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15,
        trace: false,
        steadiness: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name.to_string());
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--steadiness" => args.steadiness = Some(number(value()?)? as usize),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_none() && args.steadiness.is_none() {
        return Err("give --workload or --steadiness".into());
    }
    Ok(args)
}

/// The number of cores this process may run on.
pub fn cpu_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let cores = cpu_cores();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.steadiness {
        Some(runs) => steadiness::run(runs, args.seed, args.seconds),
        None => run(&args, cores),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Work files go under the current directory (the checkout root) and are
/// removed when the run ends.
struct WorkDir(std::path::PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = std::path::PathBuf::from(".perfbench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(args: &Args, cores: usize) -> Result<(), String> {
    let name = args.workload.as_deref().expect("validated in parse_args");
    let work = WorkDir::create()?;
    let mut workload = workloads::prepare(name, args.seed, cores, &work.0)?;

    // Whole rotations through the workload's studies, so that every study
    // has as many iterations as every other whatever the program's speed.
    let mut samples = Vec::new();
    let (mut attempted, mut failed, mut incorrect) = (0u64, 0u64, 0usize);
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let (mut iterations, mut rotation_started) = (0usize, started);
    loop {
        let elapsed = started.elapsed();
        if elapsed >= MEASURE_CAP {
            break;
        }
        if iterations > 0 && iterations % workload.studies() == 0 {
            let last_rotation = rotation_started.elapsed();
            if elapsed >= budget || elapsed + last_rotation > MEASURE_CAP {
                break;
            }
            rotation_started = Instant::now();
        }
        iterations += 1;
        stats::reset_peak_rss();
        match workload.iteration(false) {
            Ok(mut it) => {
                it.peak_rss_mb = stats::peak_rss_mb()?;
                attempted += it.attempted;
                failed += it.failed;
                if it.problems.is_empty() {
                    samples.push(it);
                } else {
                    for p in &it.problems {
                        eprintln!("perfbench: {name}: check failed: {p}");
                    }
                    incorrect += 1;
                }
            }
            Err(e) => {
                eprintln!("perfbench: {name}: iteration failed: {e}");
                attempted += 1;
                failed += 1;
                incorrect += 1;
            }
        }
    }
    if samples.is_empty() {
        return Err(format!("{name}: no iteration passed its correctness check"));
    }

    let e2e = workloads::end_to_end(&*workload, &samples);
    let mut per_layer = Vec::new();
    let mut table = Vec::new();
    if args.trace {
        let traced = workloads::traced(&mut *workload)?;
        attempted += traced.iteration.attempted;
        failed += traced.iteration.failed;
        if !traced.iteration.problems.is_empty() {
            for p in &traced.iteration.problems {
                eprintln!("perfbench: {name}: traced check failed: {p}");
            }
            incorrect += 1;
        }
        per_layer = workloads::per_layer(&samples, &traced, attempted, failed, cores);
        table = traced.table;
    }
    let correct = incorrect == 0;

    eprint!(
        "{}",
        layers::render_summary(
            name,
            args.seed,
            cores,
            samples.len(),
            &e2e,
            &per_layer,
            &table
        )
    );
    println!(
        "{}",
        layers::full_report_json(
            name,
            args.seed,
            cores,
            &samples.iter().map(|s| s.wall_s).collect::<Vec<_>>(),
            &e2e,
            &per_layer,
            &table
        )
    );
    let shown: &[Metric] = if args.trace { &per_layer } else { &e2e };
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        attempted.max(1),
        layers::metrics_json(shown)
    );
    Ok(())
}
