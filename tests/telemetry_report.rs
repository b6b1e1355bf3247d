//! Telemetry's core contract, end to end: observation only.
//!
//! PR 1 proved serial and parallel crawls byte-identical. This suite
//! proves the guarantee *survives an active telemetry session* — spans,
//! counters, histograms, and events recording on every crawl thread must
//! not perturb a single byte of output — and that the resulting
//! [`RunReport`] actually carries the data `--metrics-out` promises:
//! span rollups, histogram quantiles, and per-worker progress.

use cc_crawler::{CrawlConfig, StudyConfig, StudyRun, Walker};
use cc_telemetry::{RunReport, Session, WorkerSection};
use cc_util::{ProgressCounters, ProgressSnapshot};
use cc_web::{generate, WebConfig};

/// Serializes the tests in this binary. Sessions are process-global, so a
/// sessionless crawl racing a sessioned test would record into the other
/// test's collector and perturb its exact-equality assertions.
static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn world(seed: u64) -> WebConfig {
    WebConfig {
        seed,
        ..WebConfig::small()
    }
}

fn crawl_cfg(seed: u64) -> CrawlConfig {
    CrawlConfig {
        seed,
        steps_per_walk: 4,
        max_walks: Some(12),
        connect_failure_rate: 0.05,
        ..CrawlConfig::default()
    }
}

/// The executor-side twin of [`crawl_cfg`].
fn study(seed: u64, workers: usize) -> StudyConfig {
    StudyConfig::builder()
        .web(world(seed))
        .seed(seed)
        .steps(4)
        .walks(12)
        .failure_rate(0.05)
        .workers(workers)
        .build()
        .expect("study config is valid")
}

/// Crawl with telemetry active; return the serialized dataset plus the
/// session's run report (with per-worker data folded in when parallel).
fn crawl_with_telemetry(seed: u64, workers: Option<usize>) -> (String, RunReport) {
    let session = Session::start();
    let (dataset, progress): (_, Option<ProgressSnapshot>) = match workers {
        None => {
            let ds = Walker::new(&generate(&world(seed)), crawl_cfg(seed)).crawl();
            (ds, None)
        }
        Some(n) => {
            let study = study(seed, n);
            let progress = ProgressCounters::new(n);
            let ds = StudyRun::new(&generate(&study.web), &study)
                .progress(&progress)
                .run()
                .expect("crawl runs");
            (ds, Some(progress.snapshot()))
        }
    };
    let json = dataset.to_json().expect("dataset serializes");
    let report = match &progress {
        Some(snapshot) => session.report_with_workers(WorkerSection::from_progress(snapshot)),
        None => session.report(),
    };
    (json, report)
}

#[test]
fn serial_and_parallel_stay_byte_identical_with_telemetry_enabled() {
    let _exclusive = exclusive();
    for seed in [11u64, 0xC0FFEE] {
        let (serial_json, serial_report) = crawl_with_telemetry(seed, None);
        assert!(serial_json.len() > 2, "seed {seed} produced no walks");
        for workers in [2usize, 4] {
            let (par_json, par_report) = crawl_with_telemetry(seed, Some(workers));
            assert_eq!(
                serial_json, par_json,
                "telemetry perturbed the crawl: seed {seed}, {workers} workers"
            );
            // The determinism boundary holds for the report itself: every
            // counter and event total is schedule-independent, so the
            // deterministic section must match the serial run exactly.
            assert_eq!(
                serial_report.deterministic, par_report.deterministic,
                "deterministic section diverged: seed {seed}, {workers} workers"
            );
        }
    }
}

#[test]
fn run_report_carries_spans_quantiles_and_worker_counters() {
    let _exclusive = exclusive();
    let (_, report) = crawl_with_telemetry(7, Some(4));

    // Span rollups cover the crawl hierarchy.
    let span_paths: Vec<&str> = report.timing.spans.iter().map(|s| s.path.as_str()).collect();
    assert!(
        span_paths.iter().any(|p| p.ends_with("crawl.walk")),
        "no walk spans in {span_paths:?}"
    );
    assert!(
        span_paths
            .iter()
            .any(|p| p.contains("crawl.walk/") && p.ends_with("crawl.step")),
        "step spans not nested under walk spans in {span_paths:?}"
    );
    for s in &report.timing.spans {
        assert!(s.count > 0, "empty rollup at {}", s.path);
        assert!(s.min_ms <= s.max_ms, "inverted bounds at {}", s.path);
        assert!(s.total_ms >= s.max_ms, "total below max at {}", s.path);
    }

    // Histograms expose quantiles, ordered as quantiles must be.
    let walk_hist = report
        .timing
        .histograms
        .get("crawl.walk_duration")
        .expect("walk-duration histogram present");
    assert!(walk_hist.count > 0);
    assert!(walk_hist.p50_ms <= walk_hist.p90_ms);
    assert!(walk_hist.p90_ms <= walk_hist.p99_ms);
    assert!(walk_hist.min_ms <= walk_hist.p50_ms);
    assert!(walk_hist.p99_ms <= walk_hist.max_ms);

    // Deterministic counters recorded the crawl's totals.
    let steps = report
        .deterministic
        .counters
        .get("crawl.steps.recorded")
        .copied()
        .unwrap_or(0);
    assert!(steps > 0, "no steps counted: {:?}", report.deterministic.counters);

    // Per-worker section: all four workers, shares summing to 1.
    let workers = report.workers.as_ref().expect("worker section present");
    assert_eq!(workers.n_workers, 4);
    assert_eq!(workers.per_worker.len(), 4);
    assert_eq!(
        workers.walks,
        workers.per_worker.iter().map(|w| w.walks).sum::<u64>(),
        "per-worker walks don't sum to the total"
    );
    assert_eq!(
        workers.steps,
        workers.per_worker.iter().map(|w| w.steps).sum::<u64>(),
        "per-worker steps don't sum to the total"
    );
    let share_sum: f64 = workers.per_worker.iter().map(|w| w.walk_share).sum();
    assert!((share_sum - 1.0).abs() < 1e-9, "shares sum to {share_sum}");

    // And the whole thing survives the JSON round trip `--metrics-out`
    // subjects it to.
    let json = report.to_json().expect("report serializes");
    let back = RunReport::from_json(&json).expect("report parses back");
    assert_eq!(back, report);
}

#[test]
fn executor_reports_per_worker_starvation_gauges() {
    let _exclusive = exclusive();
    let session = Session::start();
    let study = study(7, 2);
    let ds = StudyRun::new(&generate(&study.web), &study)
        .run()
        .expect("crawl runs");
    let gauges = session.report().timing.gauges;
    let mut claimed = 0.0;
    for w in 0..2 {
        let starvation = gauges
            .get(&format!("crawl.worker.queue_starvation.{w}"))
            .unwrap_or_else(|| panic!("no starvation gauge for worker {w}: {gauges:?}"));
        assert!(
            (0.0..=1.0).contains(starvation),
            "worker {w} starvation {starvation} out of range"
        );
        claimed += gauges
            .get(&format!("crawl.worker.walks_claimed.{w}"))
            .unwrap_or_else(|| panic!("no walks-claimed gauge for worker {w}: {gauges:?}"));
    }
    assert_eq!(claimed as usize, ds.walks.len(), "claims don't cover the crawl");
}

#[test]
fn telemetry_is_silent_without_a_session() {
    let _exclusive = exclusive();
    // No session → recording disabled → a crawl leaves no trace and a
    // fresh session that follows starts empty.
    let ds = Walker::new(&generate(&world(3)), crawl_cfg(3)).crawl();
    assert!(!ds.walks.is_empty());
    let session = Session::start();
    let report = session.report();
    assert!(report.deterministic.counters.is_empty());
    assert!(report.timing.spans.is_empty());
}

#[test]
fn final_checkpoint_is_not_written_twice() {
    let _exclusive = exclusive();
    let path = std::env::temp_dir().join(format!("cc-write-count-{}.json", std::process::id()));
    let mut study = study(5, 2);
    study.checkpoint = Some(cc_crawler::CheckpointPolicy {
        path: path.to_str().expect("temp path is UTF-8").to_string(),
        every: 4,
    });
    let session = Session::start();
    StudyRun::new(&generate(&study.web), &study)
        .run()
        .expect("crawl runs");
    let counters = session.report().deterministic.counters;
    // Writes at 4, 8 and 12 walks; the one at 12 already holds every walk,
    // so finishing the crawl writes nothing more.
    assert_eq!(counters["crawl.checkpoint.writes"], 3, "{counters:?}");
    std::fs::remove_file(&path).ok();
}
