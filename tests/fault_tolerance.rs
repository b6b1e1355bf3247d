//! Fault-tolerance acceptance tests: deterministic retries, circuit
//! breakers, and checkpoint/resume must never change *what* a crawl
//! observes — only how resilient the run is.
//!
//! The two load-bearing properties:
//!
//! 1. With a 20% connection-failure rate and retries enabled, serial and
//!    1/2/4/8-worker crawls are byte-identical.
//! 2. A crawl killed after K walks and resumed from its checkpoint yields
//!    the same dataset — and the same analysis report — as an
//!    uninterrupted run.

use cc_crawler::{crawl_study, CrawlCheckpoint, StudyConfig, Walker};
use cc_net::{BreakerPolicy, RetryPolicy};
use cc_web::{generate, WebConfig};
use crumbcruncher::Study;
use proptest::prelude::*;

fn faulty_config(workers: usize) -> StudyConfig {
    faulty_config_for(WebConfig::small(), workers)
}

fn faulty_config_for(web: WebConfig, workers: usize) -> StudyConfig {
    StudyConfig::builder()
        .web(web)
        .seed(13)
        .steps(4)
        .walks(12)
        .failure_rate(0.2)
        .retry(RetryPolicy::standard())
        .breaker(BreakerPolicy::standard())
        .workers(workers)
        .build()
        .unwrap()
}

fn temp_path(name: &str) -> String {
    let dir = std::env::temp_dir().join("ccrs-fault-tolerance");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_string()
}

#[test]
fn serial_and_parallel_crawls_are_byte_identical_under_faults() {
    let serial_json = {
        let config = faulty_config(1);
        let web = generate(&config.web);
        let dataset = Walker::new(&web, config.crawl_config()).crawl();
        assert!(
            dataset.recovery_totals().retries > 0,
            "a 20% fault rate with retries enabled should retry somewhere"
        );
        dataset.to_json().unwrap()
    };
    for workers in [1, 2, 4, 8] {
        let config = faulty_config(workers);
        let web = generate(&config.web);
        let dataset = crawl_study(&web, &config).unwrap();
        assert_eq!(
            serial_json,
            dataset.to_json().unwrap(),
            "dataset diverged at {workers} workers"
        );
    }
}

#[test]
fn killed_and_resumed_study_produces_an_identical_report() {
    let path = temp_path("kill-resume-report.json");
    let config = StudyConfig {
        checkpoint: Some(cc_crawler::CheckpointPolicy {
            path: path.clone(),
            every: 3,
        }),
        ..faulty_config(2)
    };

    let full = Study::from_config(&config).unwrap();

    let killed = Study::builder(&config).stop_after(5).run().unwrap();
    assert_eq!(killed.dataset.walks.len(), 5, "graceful drain stopped early");

    let resumed = Study::resume(&config, &path).unwrap();

    assert_eq!(
        full.dataset.to_json().unwrap(),
        resumed.dataset.to_json().unwrap(),
        "resumed dataset bytes diverged"
    );
    // Report identity is the stronger claim: it also exercises the restored
    // ground-truth ledger (precision/recall) and the failure ledger.
    assert_eq!(
        full.report().render(),
        resumed.report().render(),
        "resumed analysis report diverged"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn all_species_crawl_is_fault_and_parallelism_invariant() {
    // Same contract as above, with every evasion species planted: faults,
    // retries, worker counts, and a kill/resume cycle must not perturb a
    // single byte of the dataset — or of the ground-truth ledger the
    // species-evasion matrix is scored against.
    let species_web = WebConfig::small().all_species();

    let (serial_json, serial_truth) = {
        let config = faulty_config_for(species_web.clone(), 1);
        let web = generate(&config.web);
        let dataset = Walker::new(&web, config.crawl_config()).crawl();
        (
            dataset.to_json().unwrap(),
            serde_json::to_string(&web.truth_snapshot()).unwrap(),
        )
    };
    for workers in [1, 2, 4, 8] {
        let config = faulty_config_for(species_web.clone(), workers);
        let web = generate(&config.web);
        let dataset = crawl_study(&web, &config).unwrap();
        assert_eq!(
            serial_json,
            dataset.to_json().unwrap(),
            "species dataset diverged at {workers} workers"
        );
        assert_eq!(
            serial_truth,
            serde_json::to_string(&web.truth_snapshot()).unwrap(),
            "species truth ledger diverged at {workers} workers"
        );
    }

    // Kill after 5 walks, resume from the checkpoint: identical bytes.
    let path = temp_path("species-kill-resume.json");
    let config = StudyConfig {
        checkpoint: Some(cc_crawler::CheckpointPolicy {
            path: path.clone(),
            every: 2,
        }),
        ..faulty_config_for(species_web, 2)
    };
    let killed = Study::builder(&config).stop_after(5).run().unwrap();
    assert_eq!(killed.dataset.walks.len(), 5);
    let resumed = Study::resume(&config, &path).unwrap();
    assert_eq!(
        serial_json,
        resumed.dataset.to_json().unwrap(),
        "species resumed dataset diverged from the uninterrupted run"
    );
    assert_eq!(
        serial_truth,
        serde_json::to_string(&resumed.web.truth_snapshot()).unwrap(),
        "species resumed truth ledger diverged"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn degraded_walks_are_ledgered_not_lost() {
    let config = faulty_config(1);
    let web = generate(&config.web);
    let dataset = crawl_study(&web, &config).unwrap();
    let degraded = dataset
        .walks
        .iter()
        .filter(|w| !matches!(w.termination, cc_crawler::WalkTermination::Completed))
        .count();
    assert_eq!(
        dataset.ledger().len(),
        degraded,
        "every early-terminated walk gets a ledger entry"
    );
    for entry in &dataset.ledger().entries {
        let walk = dataset
            .walks
            .iter()
            .find(|w| w.walk_id == entry.walk_id)
            .expect("ledger entries reference recorded walks");
        assert_eq!(entry.steps_recorded, walk.steps.len());
        assert_eq!(entry.termination, walk.termination);
    }
}

#[test]
fn checkpoint_from_a_removed_driver_mode_still_resumes() {
    // Checkpoints written while the walk driver was selectable embed a
    // `"mode"` key in their study config. Fields are read by name, so the
    // stale key is ignored: such a checkpoint loads, validates against
    // today's config, and resumes to the uninterrupted bytes.
    let path = temp_path("legacy-mode.json");
    let config = StudyConfig {
        checkpoint: Some(cc_crawler::CheckpointPolicy {
            path: path.clone(),
            every: 2,
        }),
        ..faulty_config(2)
    };
    let full = crawl_study(&generate(&config.web), &config).unwrap();

    cc_crawler::StudyRun::new(&generate(&config.web), &config)
        .stop_after(5)
        .run()
        .unwrap();
    let mut doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let serde_json::Value::Object(top) = &mut doc else {
        panic!("checkpoint is not a JSON object");
    };
    let Some(serde_json::Value::Object(mut study)) = top.get("study").cloned() else {
        panic!("checkpoint embeds no study config");
    };
    study.insert(
        "mode".into(),
        serde_json::Value::String("PersistentWorkers".into()),
    );
    top.insert("study".into(), serde_json::Value::Object(study));
    let legacy = serde_json::to_string(&doc).unwrap();
    assert!(legacy.contains(r#""mode":"PersistentWorkers""#));
    std::fs::write(&path, legacy).unwrap();

    let ck = CrawlCheckpoint::load(&path).unwrap();
    ck.validate_against(&config)
        .expect("a stale mode key must not fail validation");
    assert_eq!(ck.partial.walks.len(), 5);
    let resumed = cc_crawler::StudyRun::new(&generate(&config.web), &config)
        .resume(ck)
        .run()
        .unwrap();
    assert_eq!(full.to_json().unwrap(), resumed.to_json().unwrap());
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Kill the crawl at any point, resume at any worker count: the final
    /// dataset is always byte-identical to the uninterrupted run.
    #[test]
    fn resume_equivalence_holds_for_any_kill_point(
        kill_after in 1usize..11,
        workers in 1usize..5,
    ) {
        let path = temp_path(&format!("prop-{kill_after}-{workers}.json"));
        let config = StudyConfig {
            checkpoint: Some(cc_crawler::CheckpointPolicy {
                path: path.clone(),
                every: 2,
            }),
            ..faulty_config(workers)
        };

        let web_full = generate(&config.web);
        let full = crawl_study(&web_full, &config).unwrap();

        let web_killed = generate(&config.web);
        cc_crawler::StudyRun::new(&web_killed, &config)
            .stop_after(kill_after)
            .run()
            .unwrap();

        let ck = CrawlCheckpoint::load(&path).unwrap();
        prop_assert_eq!(ck.partial.walks.len(), kill_after);
        let web_resumed = generate(&config.web);
        let resumed = cc_crawler::StudyRun::new(&web_resumed, &config)
            .resume(ck)
            .run()
            .unwrap();

        prop_assert_eq!(full.to_json().unwrap(), resumed.to_json().unwrap());
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn resume_reads_failure_accounting_from_the_walks() {
    // The walks are authoritative: a v1 checkpoint whose stored tallies,
    // degraded-walk ledger and walk total are corrupt still resumes to
    // the uninterrupted dataset and report, because the accounting is
    // derived from the walks and the total from the study config.
    let path = temp_path("derived-accounting.json");
    let web = WebConfig {
        n_sites: 200,
        n_seeders: 100,
        ..WebConfig::small()
    };
    let config = StudyConfig {
        steps: 3,
        walks: Some(100),
        checkpoint: Some(cc_crawler::CheckpointPolicy {
            path: path.clone(),
            every: 10,
        }),
        ..faulty_config_for(web, 4)
    };
    let full = Study::from_config(&config).unwrap();
    assert!(full.report().failures.connect_failures > 0);
    Study::builder(&config).stop_after(40).run().unwrap();

    let json = std::fs::read_to_string(&path).unwrap();
    let mut doc: serde_json::Value = serde_json::from_str(&json).unwrap();
    let serde_json::Value::Object(top) = &mut doc else {
        panic!("checkpoint is not a JSON object");
    };
    let Some(serde_json::Value::Object(mut partial)) = top.get("partial").cloned() else {
        panic!("checkpoint embeds no partial dataset");
    };
    let value = |s: &str| serde_json::from_str::<serde_json::Value>(s).unwrap();
    partial.insert(
        "failures".into(),
        value(r#"{"steps_attempted":0,"steps_completed":0,"sync_failures":0,"divergence_failures":0,"connect_failures":0}"#),
    );
    partial.insert("ledger".into(), value(r#"{"entries":[]}"#));
    top.insert("partial".into(), serde_json::Value::Object(partial));
    top.insert("total_walks".into(), value("40"));
    std::fs::write(&path, serde_json::to_string(&doc).unwrap()).unwrap();

    let resumed = Study::resume(&config, &path).unwrap();
    // `assert!`, not `assert_eq!`: both sides are megabytes long.
    assert!(
        full.dataset.to_json().unwrap() == resumed.dataset.to_json().unwrap(),
        "resumed dataset diverged ({} of 100 walks)",
        resumed.dataset.walks.len()
    );
    assert!(
        serde_json::to_string(&full.report()).unwrap()
            == serde_json::to_string(&resumed.report()).unwrap(),
        "resumed report diverged"
    );
    std::fs::remove_file(&path).ok();
}
