//! # cc-gaggle
//!
//! Distributed manager/worker crawling over TCP with lease-based fault
//! recovery — the process-level twin of the in-process work-stealing
//! executor, named for goose's gaggle architecture.
//!
//! * [`wire`] — the `cc-gaggle/v1` frame codec: length-prefixed JSON
//!   frames (Hello/Welcome/Lease/Heartbeat/ShardResult/Telemetry/Goodbye)
//!   with bounded reads and explicit decode errors, sharing cc-http's
//!   transport-error classification.
//! * [`manager`] — partitions the walk-id space into leases, streams them
//!   to workers, expires and re-issues leases whose holder dies (fresh
//!   lease ids make stale "zombie" results droppable), and assembles the
//!   shards through the same deterministic merge a single-process run
//!   uses — so the output is byte-identical at any worker count, any
//!   lease interleaving, and any kill history.
//! * [`worker`] — dials in, regenerates the world from the Welcome's
//!   study config, crawls each lease through the existing parallel
//!   executor, and ships dataset shards + truth snapshots back.
//!
//! Checkpoint/resume reuses cc-checkpoint/v1 unchanged: the manager
//! absorbs accepted shards into the same [`cc_crawler::CrawlLedger`] a
//! single-process run uses, so it saves on the study's checkpoint policy,
//! resumes from the same files, and stops leasing on a failed write.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod manager;
pub mod wire;
pub mod worker;

pub use manager::{GaggleConfig, GaggleStats, Manager, ManagerOptions, ManagerOutcome};
pub use wire::{read_frame, write_frame, Frame, FrameError, MAGIC, MAX_FRAME_BYTES, PROTOCOL};
pub use worker::{run_worker, WorkerConfig, WorkerSummary};

#[cfg(test)]
mod tests {
    use super::*;
    use cc_crawler::{crawl_study, StudyConfig};
    use cc_web::generate;

    fn small_study(workers: usize) -> StudyConfig {
        StudyConfig::builder()
            .web(cc_web::WebConfig::small())
            .seed(5)
            .steps(3)
            .walks(12)
            .failure_rate(0.1)
            .workers(workers)
            .build()
            .unwrap()
    }

    /// In-process end-to-end: a manager and two thread-workers over real
    /// loopback TCP produce the single-process dataset exactly.
    #[test]
    fn gaggle_matches_single_process() {
        let study = small_study(2);
        let web = generate(&study.web);
        let solo = crawl_study(&web, &study).unwrap();

        let manager = Manager::start(
            &study,
            GaggleConfig {
                lease_walks: 4,
                workers_expected: 2,
                ..GaggleConfig::default()
            },
            ManagerOptions::default(),
        )
        .unwrap();
        let addr = manager.addr().to_string();
        let joins: Vec<_> = (0..2)
            .map(|i| {
                let cfg = WorkerConfig {
                    connect: addr.clone(),
                    label: format!("test-worker-{i}"),
                };
                std::thread::spawn(move || run_worker(&cfg))
            })
            .collect();
        let outcome = manager.join().unwrap();
        let mut total_walks = 0;
        for j in joins {
            let summary = j.join().unwrap().unwrap();
            total_walks += summary.walks;
        }

        assert_eq!(outcome.dataset, solo);
        assert_eq!(
            outcome.dataset.to_json().unwrap(),
            solo.to_json().unwrap(),
            "assembled dataset bytes diverged"
        );
        assert_eq!(total_walks, 12, "every walk crawled exactly once");
        assert_eq!(outcome.stats.leases_issued, 3);
        assert_eq!(outcome.stats.leases_completed, 3);
        assert_eq!(outcome.stats.results_dropped_stale, 0);
        // Truth ledgers converge (solo ran on `web`, gaggle on its own).
        let gaggle_truth = outcome.web.truth_snapshot();
        let solo_truth = web.truth_snapshot();
        assert_eq!(gaggle_truth.len(), solo_truth.len());
        assert_eq!(gaggle_truth.uid_count(), solo_truth.uid_count());
    }

    /// A worker speaking the wrong protocol version is turned away.
    #[test]
    fn manager_refuses_protocol_mismatch() {
        let study = small_study(1);
        let manager =
            Manager::start(&study, GaggleConfig::default(), ManagerOptions::default()).unwrap();
        let addr = manager.addr();

        let mut bad = std::net::TcpStream::connect(addr).unwrap();
        write_frame(
            &mut bad,
            &Frame::Hello {
                protocol: "cc-gaggle/v0".into(),
                label: "relic".into(),
            },
        )
        .unwrap();
        bad.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        let (frame, _) = read_frame(&mut bad).unwrap();
        match frame {
            Frame::Goodbye { reason } => assert!(reason.contains("protocol mismatch"), "{reason}"),
            other => panic!("expected Goodbye, got {}", other.name()),
        }
        drop(bad);

        // A well-versed worker still completes the run.
        let cfg = WorkerConfig {
            connect: addr.to_string(),
            label: "good".into(),
        };
        let worker = std::thread::spawn(move || run_worker(&cfg));
        let outcome = manager.join().unwrap();
        worker.join().unwrap().unwrap();
        assert_eq!(outcome.dataset.walks.len(), 12);
    }

    /// An empty study (resume with nothing left) completes immediately.
    #[test]
    fn completed_resume_finishes_without_workers() {
        let study = small_study(1);
        let web = generate(&study.web);
        let full = crawl_study(&web, &study).unwrap();
        let ck = cc_crawler::CrawlCheckpoint::new(&study, full.clone(), web.truth_snapshot());
        let manager = Manager::start(
            &study,
            GaggleConfig::default(),
            ManagerOptions {
                resume: Some(ck),
                progress: None,
            },
        )
        .unwrap();
        let outcome = manager.join().unwrap();
        assert_eq!(outcome.dataset, full);
        assert_eq!(outcome.stats.leases_issued, 0);
    }

    /// A failed checkpoint write stops the leasing: the worker is sent
    /// away after its first lease and `join` returns the typed error.
    #[test]
    fn checkpoint_write_error_fails_the_run() {
        let path = std::env::temp_dir()
            .join("cc-gaggle-no-such-dir")
            .join("ck.json");
        let study = StudyConfig::builder()
            .web(cc_web::WebConfig {
                n_seeders: 40,
                ..cc_web::WebConfig::small()
            })
            .seed(5)
            .steps(3)
            .walks(40)
            .workers(2)
            .checkpoint(path.to_str().unwrap(), 1)
            .build()
            .unwrap();
        let manager = Manager::start(
            &study,
            GaggleConfig {
                lease_walks: 4,
                ..GaggleConfig::default()
            },
            ManagerOptions::default(),
        )
        .unwrap();
        let cfg = WorkerConfig {
            connect: manager.addr().to_string(),
            label: "doomed".into(),
        };
        let worker = std::thread::spawn(move || run_worker(&cfg));
        let err = manager.join().err().expect("a failed checkpoint write fails the run");
        assert!(matches!(err, cc_util::CcError::Io { .. }), "{err}");
        let summary = worker.join().unwrap().unwrap();
        assert_eq!(summary.leases, 1, "leases kept coming after the failed write");
    }
}
