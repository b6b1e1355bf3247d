//! The gaggle's contract, checked at the serialization layer like
//! `parallel_equivalence.rs` one level down: a distributed manager/worker
//! crawl over real TCP and real worker *processes* must assemble a
//! dataset, truth ledger, and rendered report **byte-identical** to a
//! single-process `--workers 4` run — at any worker count, and after a
//! worker is SIGKILLed mid-lease.

use std::process::{Child, Command, Stdio};

use cc_analysis::report::full_report;
use cc_crawler::{CrawlCheckpoint, StudyConfig, StudyRun};
use cc_gaggle::{GaggleConfig, Manager, ManagerOptions, ManagerOutcome};
use cc_web::{generate, WebConfig};
use crumbcruncher::Study;

fn study() -> StudyConfig {
    StudyConfig::builder()
        .web(WebConfig {
            seed: 23,
            ..WebConfig::small()
        })
        .seed(23)
        .steps(3)
        .walks(60)
        .failure_rate(0.1)
        .workers(4)
        .build()
        .expect("study config is valid")
}

/// Everything a released run pins: the dataset document, the world's
/// ground-truth ledger, and the paper-style rendered report.
fn artifacts(web: &cc_web::SimWeb, dataset: &cc_crawler::CrawlDataset) -> (String, String, String) {
    let output = cc_core::run_pipeline(dataset);
    (
        dataset.to_json().expect("dataset serializes"),
        serde_json::to_string(&web.truth_snapshot()).expect("truth serializes"),
        full_report(web, dataset, &output).render(),
    )
}

fn reference() -> (String, String, String) {
    let study = Study::from_config(&study()).expect("single-process study runs");
    artifacts(&study.web, &study.dataset)
}

fn spawn_worker(addr: &str, slow_ms: Option<u64>) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_crumbcruncher"));
    cmd.args(["gaggle", "worker", "--connect", addr])
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(ms) = slow_ms {
        cmd.env("CC_GAGGLE_TEST_SLOW_MS", ms.to_string());
    }
    cmd.spawn().expect("worker process spawns")
}

fn run_gaggle(n_workers: usize) -> ManagerOutcome {
    run_gaggle_study(&study(), ManagerOptions::default(), n_workers)
}

fn run_gaggle_study(study: &StudyConfig, opts: ManagerOptions, n_workers: usize) -> ManagerOutcome {
    let cfg = GaggleConfig {
        bind: "127.0.0.1:0".into(),
        workers_expected: n_workers,
        lease_walks: 5,
        lease_timeout_ms: 3_000,
    };
    let manager = Manager::start(study, cfg, opts).expect("manager starts");
    let addr = manager.addr().to_string();
    let mut children: Vec<Child> = (0..n_workers).map(|_| spawn_worker(&addr, None)).collect();
    let outcome = manager.join().expect("gaggle run completes");
    for child in &mut children {
        let status = child.wait().expect("worker process reaped");
        assert!(status.success(), "worker exited with {status}");
    }
    outcome
}

#[test]
fn gaggle_artifacts_are_byte_identical_to_single_process() {
    let (walks, truth, report) = reference();
    assert!(walks.len() > 2, "reference run produced no walks");
    for n_workers in [1, 2, 4] {
        let outcome = run_gaggle(n_workers);
        let (gw, gt, gr) = artifacts(&outcome.web, &outcome.dataset);
        assert_eq!(walks, gw, "dataset diverged with {n_workers} workers");
        assert_eq!(truth, gt, "truth ledger diverged with {n_workers} workers");
        assert_eq!(report, gr, "rendered report diverged with {n_workers} workers");

        let stats = &outcome.stats;
        assert_eq!(stats.workers_connected, n_workers as u64);
        assert_eq!(
            stats.leases_completed, stats.leases_issued,
            "a clean run reissues nothing: {stats:?}"
        );
        assert_eq!(stats.leases_expired, 0, "no deadline should lapse: {stats:?}");
        assert!(
            stats.frames_sent > 0 && stats.frames_received > 0,
            "frame counters never moved: {stats:?}"
        );
    }
}

#[test]
fn gaggle_survives_a_worker_killed_mid_lease() {
    let (walks, truth, report) = reference();

    let cfg = GaggleConfig {
        bind: "127.0.0.1:0".into(),
        workers_expected: 2,
        lease_walks: 5,
        lease_timeout_ms: 3_000,
    };
    let manager =
        Manager::start(&study(), cfg, ManagerOptions::default()).expect("manager starts");
    let addr = manager.addr().to_string();

    // The victim stalls 60 s at the start of every lease (heartbeating all
    // the while), so it is guaranteed to be holding an unfinished lease
    // when the SIGKILL lands. The survivor crawls normally.
    let mut victim = spawn_worker(&addr, Some(60_000));
    let mut survivor = spawn_worker(&addr, None);

    // Give the victim time to handshake and be issued its lease: connect
    // retries run every 100 ms and the manager leases on Welcome, so 2 s
    // is comfortable — then kill -9, no goodbye, socket just dies.
    std::thread::sleep(std::time::Duration::from_secs(2));
    victim.kill().expect("SIGKILL delivered");
    victim.wait().expect("victim reaped");

    let outcome = manager.join().expect("gaggle run completes despite the kill");
    let status = survivor.wait().expect("survivor reaped");
    assert!(status.success(), "survivor exited with {status}");

    let (gw, gt, gr) = artifacts(&outcome.web, &outcome.dataset);
    assert_eq!(walks, gw, "dataset diverged after kill -9");
    assert_eq!(truth, gt, "truth ledger diverged after kill -9");
    assert_eq!(report, gr, "rendered report diverged after kill -9");

    let stats = &outcome.stats;
    assert_eq!(stats.workers_connected, 2, "{stats:?}");
    assert!(
        stats.leases_reissued >= 1,
        "the victim's lease was never re-issued: {stats:?}"
    );
    assert!(
        stats.leases_issued > stats.leases_completed
            || stats.leases_reissued >= 1,
        "lease accounting inconsistent: {stats:?}"
    );
}

/// The manager's checkpoints against a single-process run's. A checkpoint
/// embeds its own path in the study config, so both sides write the same
/// path one after the other and the bytes are copied aside in between.
#[test]
fn gaggle_checkpoints_match_single_process() {
    let path = std::env::temp_dir().join(format!("cc-gaggle-ck-{}.json", std::process::id()));
    let path = path.to_str().expect("temp path is UTF-8").to_string();
    let mut study = study();
    study.checkpoint = Some(cc_crawler::CheckpointPolicy {
        path: path.clone(),
        every: 4,
    });
    let _ = std::fs::remove_file(&path);

    let solo = Study::from_config(&study).expect("single-process study runs");
    let solo_walks = solo.dataset.to_json().expect("dataset serializes");
    let solo_ck = std::fs::read(&path).expect("single-process run leaves a checkpoint");
    std::fs::remove_file(&path).expect("checkpoint removed");

    // (a) A checkpointing manager ends on the same final checkpoint.
    let outcome = run_gaggle_study(&study, ManagerOptions::default(), 2);
    let gaggle_walks = outcome.dataset.to_json().expect("dataset serializes");
    assert!(solo_walks == gaggle_walks, "gaggle dataset diverged");
    let gaggle_ck = std::fs::read(&path).expect("manager leaves a checkpoint");
    assert!(solo_ck == gaggle_ck, "final gaggle checkpoint bytes diverged");

    // (b) A manager resuming a killed single-process crawl's checkpoint
    // assembles the single-process dataset.
    let web = generate(&study.web);
    let killed = StudyRun::new(&web, &study)
        .stop_after(7)
        .run()
        .expect("killed crawl drains");
    assert_eq!(killed.walks.len(), 7);
    let ck = CrawlCheckpoint::load(&path).expect("killed crawl leaves a checkpoint");
    assert_eq!(ck.partial.walks.len(), 7);
    let opts = ManagerOptions {
        resume: Some(ck),
        progress: None,
    };
    let outcome = run_gaggle_study(&study, opts, 2);
    let resumed_walks = outcome.dataset.to_json().expect("dataset serializes");
    assert!(solo_walks == resumed_walks, "resumed gaggle dataset diverged");
    let resumed_ck = std::fs::read(&path).expect("resumed manager leaves a checkpoint");
    assert!(solo_ck == resumed_ck, "resumed gaggle checkpoint bytes diverged");
    std::fs::remove_file(&path).ok();
}
