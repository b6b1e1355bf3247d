//! The parallel crawl executor: work-stealing walk scheduling.
//!
//! The paper scales its crawl by running twelve EC2 instances over disjoint
//! seeder ranges (§3.8, run for real as cc-gaggle leases over
//! [`crawl_walk_ids`]). Within one process this module scales the *same*
//! crawl over threads, through a [`WalkQueue`]: each
//! worker first drains a small contiguous block reserved for it, then
//! claims adaptive batches from the shared tail as soon as it finishes,
//! so long walks and short walks balance automatically — no worker idles
//! while another still holds a backlog, the dynamic-stealing property
//! static per-shard ranges lack — while the reservation bounds how
//! lopsided the claim distribution can get (see [`WalkQueue`]).
//!
//! Determinism is preserved by construction, not by scheduling:
//!
//! * every stream of randomness in a walk is forked from the **global**
//!   walk id (`DetRng::fork_indexed`), never from thread identity or
//!   claim order, so a walk's record is the same whichever worker runs it;
//! * the ground-truth ledger resolves concurrent labels by precedence
//!   ([`cc_web`]'s `TruthLog::note` commutes), so interleaved mint
//!   notifications converge to one ledger;
//! * per-worker datasets merge through [`CrawlDataset::merge`], which
//!   re-sorts by walk id.
//!
//! Net effect: [`StudyRun`] with any worker count is **bit-identical** to
//! [`Walker::crawl`] — the parallel-equivalence integration tests assert
//! this on serialized JSON.

use std::sync::atomic::{AtomicUsize, Ordering};

use cc_util::{CcError, ProgressCounters};
use cc_web::SimWeb;

use crate::checkpoint::{CrawlCheckpoint, CrawlLedger, PublishPolicy};
use crate::config::StudyConfig;
use crate::record::CrawlDataset;
use crate::walker::Walker;

/// The shared walk queue: per-worker reserved prefixes plus a batched
/// common tail.
///
/// The former design was a single `fetch_add(1)` per walk, which is
/// maximally dynamic but lets scheduling luck hand one worker a wildly
/// skewed share — starvation gauges up to ~0.4 on short queues. This
/// queue splits the index range `0..total` in two:
///
/// * indices `0 .. reserve × n_workers` are **reserved**: worker `w` owns
///   the contiguous block `w×reserve .. (w+1)×reserve` (a quarter of its
///   fair share) and drains it without touching shared state;
/// * the remaining tail is claimed in batches sized
///   `remaining / (2 × n_workers)`, clamped to `1..=8` — large batches
///   while the tail is long (fewer contended claims), single walks near
///   the end (stragglers balance).
///
/// Every worker therefore executes at least its reserved quarter-share,
/// so the `crawl.worker.queue_starvation` gauge is bounded by ~0.75 by
/// construction instead of by scheduling luck. Which worker runs which
/// walk still varies run to run — outputs don't care, because walks are
/// keyed by global id and merged order-independently.
struct WalkQueue {
    total: usize,
    n_workers: usize,
    reserve: usize,
    next: AtomicUsize,
}

impl WalkQueue {
    fn new(total: usize, n_workers: usize) -> Self {
        let n_workers = n_workers.max(1);
        let reserve = total / (4 * n_workers);
        WalkQueue {
            total,
            n_workers,
            reserve,
            next: AtomicUsize::new(reserve * n_workers),
        }
    }

    /// Worker `w`'s view of the queue: an iterator over the indices it
    /// claims.
    fn worker(&self, w: usize) -> WorkerClaims<'_> {
        WorkerClaims {
            queue: self,
            reserved: (w * self.reserve)..((w + 1) * self.reserve),
            batch: 0..0,
        }
    }
}

/// One worker's claim stream: reserved block first, then shared batches.
struct WorkerClaims<'q> {
    queue: &'q WalkQueue,
    reserved: std::ops::Range<usize>,
    batch: std::ops::Range<usize>,
}

impl Iterator for WorkerClaims<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if let Some(i) = self.reserved.next() {
            return Some(i);
        }
        if let Some(i) = self.batch.next() {
            return Some(i);
        }
        loop {
            let start = self.queue.next.load(Ordering::Relaxed);
            if start >= self.queue.total {
                return None;
            }
            let remaining = self.queue.total - start;
            let size = (remaining / (2 * self.queue.n_workers)).clamp(1, 8).min(remaining);
            if self
                .queue
                .next
                .compare_exchange(start, start + size, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.batch = start..start + size;
                return self.batch.next();
            }
            // Lost the race; retry with the new head.
        }
    }
}

/// Run (or resume) a whole study through the work-stealing executor.
///
/// This is the [`StudyConfig`]-driven entry point: worker count, retry and
/// breaker policies, and the checkpoint schedule all come from the config.
/// The result is byte-identical to [`Walker::crawl`] with the lowered
/// [`CrawlConfig`](crate::CrawlConfig) — at any worker count, and whether the crawl ran
/// uninterrupted or was killed and resumed.
///
/// For resume / graceful-stop / snapshot-publishing / progress control,
/// chain options onto [`StudyRun`] instead.
pub fn crawl_study(web: &SimWeb, study: &StudyConfig) -> Result<CrawlDataset, CcError> {
    StudyRun::new(web, study).run()
}

/// A configured study run: the builder face of the executor.
///
/// Chain exactly the options a call site needs:
///
/// ```ignore
/// let dataset = StudyRun::new(&web, &study)
///     .resume(checkpoint)
///     .progress(&counters)
///     .publish(PublishPolicy::new(25, publisher))
///     .run()?;
/// ```
#[derive(Debug)]
#[must_use = "a StudyRun does nothing until .run() is called"]
pub struct StudyRun<'a> {
    web: &'a SimWeb,
    study: &'a StudyConfig,
    resume: Option<CrawlCheckpoint>,
    stop_after: Option<usize>,
    publish: Option<PublishPolicy>,
    progress: Option<&'a ProgressCounters>,
}

impl<'a> StudyRun<'a> {
    /// A run of `study` over `web` with default options (fresh start, no
    /// publishing, internal progress counters).
    pub fn new(web: &'a SimWeb, study: &'a StudyConfig) -> StudyRun<'a> {
        StudyRun {
            web,
            study,
            resume: None,
            stop_after: None,
            publish: None,
            progress: None,
        }
    }

    /// Resume from `checkpoint`: its walks are kept, the truth ledger
    /// restored, and only the remaining walk ids run.
    pub fn resume(mut self, checkpoint: CrawlCheckpoint) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Stop claiming after `n` *new* walks (graceful drain): the simulated
    /// `kill -TERM` used to exercise checkpoint/resume. Because walks are
    /// claimed in id order, the surviving set is deterministic.
    pub fn stop_after(mut self, n: usize) -> Self {
        self.stop_after = Some(n);
        self
    }

    /// Publish in-memory [`CrawlCheckpoint`] snapshots to `policy.sink`
    /// every `policy.every` walks, plus a final complete one (the
    /// live-serving hook; independent of the on-disk checkpoint policy).
    pub fn publish(mut self, policy: PublishPolicy) -> Self {
        self.publish = Some(policy);
        self
    }

    /// Update caller-owned progress counters (so a monitor thread can
    /// snapshot the live crawl). Must be sized to `study.workers`.
    pub fn progress(mut self, progress: &'a ProgressCounters) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Execute the run: every finished walk goes through one
    /// [`CrawlLedger`], which resumes, checkpoints, publishes and merges.
    pub fn run(self) -> Result<CrawlDataset, CcError> {
        let owned;
        let progress = match self.progress {
            Some(p) => p,
            None => {
                owned = ProgressCounters::new(self.study.workers);
                &owned
            }
        };
        let (ledger, mut ids) =
            CrawlLedger::start(self.study, self.web, self.resume, self.publish)?;
        if let Some(n) = self.stop_after {
            ids.truncate(n);
        }
        // With nothing to emit before the end, workers keep private shards
        // (no lock per walk) and the ledger takes each shard once.
        let per_walk = ledger.emits().then_some(&ledger);
        for shard in crawl_ids_sharded(self.web, self.study, &ids, progress, per_walk) {
            ledger.absorb(shard);
        }
        ledger.finish()
    }
}

/// Crawl exactly the given walk ids of `study` over `web`.
///
/// This is the **lease-ranged** entry point the cc-gaggle worker runs on
/// each lease: the manager partitions the walk-id space, and each worker
/// crawls its slice through the same work-stealing executor (with
/// `study.workers` threads) that a single-process run uses. Because every
/// walk is a pure function of `(study, walk_id)`, shards produced from
/// disjoint leases merge byte-identically to one uninterrupted run —
/// whatever the lease sizes, interleaving, or re-issue history.
///
/// Unlike [`crawl_study`], the returned dataset holds *only* the requested
/// ids (no resume base), and no checkpoint or publish sinks fire: the
/// lease holder owns transport, the lessor owns durability. Ids outside
/// the seeder range are skipped, matching [`CrawlLedger::start`]'s
/// clamping.
pub fn crawl_walk_ids(web: &SimWeb, study: &StudyConfig, ids: &[u32]) -> CrawlDataset {
    let progress = ProgressCounters::new(study.workers);
    crawl_walk_ids_with_progress(web, study, ids, &progress)
}

/// [`crawl_walk_ids`], updating caller-owned progress counters (sized to
/// `study.workers`).
pub fn crawl_walk_ids_with_progress(
    web: &SimWeb,
    study: &StudyConfig,
    ids: &[u32],
    progress: &ProgressCounters,
) -> CrawlDataset {
    let seeders = web.seeder_urls();
    let mut ids: Vec<u32> = ids.to_vec();
    ids.retain(|&id| (id as usize) < seeders.len());
    let shards = crawl_ids_sharded(web, study, &ids, progress, None);
    CrawlDataset::merge(shards)
}

/// The shared shard loop: crawl `ids` over `study.workers` work-stealing
/// threads and return the per-worker shards (unmerged, so callers choose
/// whether a resume base joins the merge). With a `ledger`, each walk is
/// handed to it as soon as it finishes (the returned shards are then
/// empty), and workers stop claiming once one of its writes has failed.
fn crawl_ids_sharded(
    web: &SimWeb,
    study: &StudyConfig,
    ids: &[u32],
    progress: &ProgressCounters,
    ledger: Option<&CrawlLedger<&SimWeb>>,
) -> Vec<CrawlDataset> {
    let seeders = web.seeder_urls();
    let queue = WalkQueue::new(ids.len(), study.workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..study.workers)
            .map(|worker| {
                let queue = &queue;
                let cfg = study.crawl_config();
                scope.spawn(move || {
                    // Per-worker telemetry shard: every ID-addressed
                    // counter/event/histogram touch in the walk loop stays
                    // thread-private until the shard drains at worker
                    // exit. Declared before the span so the worker span
                    // drops (and records) into the shard, not after it.
                    let _telemetry_shard = cc_telemetry::worker_shard();
                    // Root span of this worker thread's trace: walk spans
                    // nest under it.
                    let _worker_span = cc_telemetry::span("crawl.worker");
                    let mut walker = Walker::new(web, cfg);
                    let mut shard = CrawlDataset::default();
                    let mut claimed: u64 = 0;
                    for i in queue.worker(worker) {
                        if ledger.is_some_and(CrawlLedger::failed) {
                            break;
                        }
                        claimed += 1;
                        let walk_id = ids[i];
                        let walk = walker.walk(walk_id, seeders[walk_id as usize].clone());
                        progress.record_walk(worker, walk.steps.len() as u64);
                        shard.walks.push(walk);
                        if let Some(l) = ledger {
                            l.absorb(std::mem::take(&mut shard));
                        }
                    }
                    // Scheduling-dependent readings are gauges (timing
                    // section), never counters: which worker claimed how
                    // many walks varies run to run. Starvation compares a
                    // worker's claims to its fair share of the walks
                    // actually queued (a resumed run queues only the
                    // remainder) — 0.0 is a fair split, 1.0 a fully
                    // starved worker.
                    if cc_telemetry::enabled() {
                        let label = worker.to_string();
                        let fair = ids.len() as f64 / study.workers as f64;
                        let starvation = if fair > 0.0 {
                            (1.0 - claimed as f64 / fair).max(0.0)
                        } else {
                            0.0
                        };
                        cc_telemetry::gauge_labeled(
                            "crawl.worker.walks_claimed",
                            &label,
                            claimed as f64,
                        );
                        cc_telemetry::gauge_labeled(
                            "crawl.worker.queue_starvation",
                            &label,
                            starvation,
                        );
                    }
                    shard
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("crawl worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::SnapshotSink;
    use cc_web::{generate, WebConfig};
    use std::sync::{Arc, Mutex};

    fn study(workers: usize) -> StudyConfig {
        StudyConfig::builder()
            .web(WebConfig::small())
            .seed(5)
            .steps(3)
            .walks(10)
            .failure_rate(0.02)
            .workers(workers)
            .build()
            .unwrap()
    }

    #[test]
    fn parallel_equals_serial_exactly() {
        let serial = {
            let web = generate(&WebConfig::small());
            Walker::new(&web, study(1).crawl_config()).crawl()
        };
        for workers in [1, 2, 3, 8] {
            // Fresh world per run: truth-ledger state must not leak
            // between crawls being compared.
            let web = generate(&WebConfig::small());
            let parallel = crawl_study(&web, &study(workers)).unwrap();
            assert_eq!(serial, parallel, "{workers} workers diverged from serial");
        }
    }

    #[test]
    fn parallel_truth_ledger_matches_serial() {
        let web_a = generate(&WebConfig::small());
        Walker::new(&web_a, study(1).crawl_config()).crawl();
        let web_b = generate(&WebConfig::small());
        crawl_study(&web_b, &study(4)).unwrap();
        let (ta, tb) = (web_a.truth_snapshot(), web_b.truth_snapshot());
        assert_eq!(ta.len(), tb.len());
        assert_eq!(ta.uid_count(), tb.uid_count());
    }

    #[test]
    fn workers_beyond_walks_are_harmless() {
        let web = generate(&WebConfig::small());
        let few = StudyConfig {
            walks: Some(2),
            ..study(16)
        };
        let ds = crawl_study(&web, &few).unwrap();
        assert_eq!(ds.walks.len(), 2);
        assert_eq!(ds.walks[0].walk_id, 0);
        assert_eq!(ds.walks[1].walk_id, 1);
    }

    #[test]
    fn run_reports_progress() {
        let web = generate(&WebConfig::small());
        let progress = ProgressCounters::new(2);
        let ds = StudyRun::new(&web, &study(2)).progress(&progress).run().unwrap();
        let snap = progress.snapshot();
        assert_eq!(snap.walks as usize, ds.walks.len());
        assert_eq!(snap.steps as usize, ds.total_steps());
        assert_eq!(snap.per_worker.len(), 2);
        let worker_sum: u64 = snap.per_worker.iter().map(|w| w.walks).sum();
        assert_eq!(worker_sum, snap.walks);
    }

    fn faulty_study(workers: usize, checkpoint: Option<(&str, usize)>) -> StudyConfig {
        use cc_net::{BreakerPolicy, RetryPolicy};
        let mut b = StudyConfig::builder()
            .web(WebConfig::small())
            .seed(5)
            .steps(3)
            .walks(12)
            .failure_rate(0.2)
            .retry(RetryPolicy::standard())
            .breaker(BreakerPolicy::standard())
            .workers(workers);
        if let Some((path, every)) = checkpoint {
            b = b.checkpoint(path, every);
        }
        b.build().unwrap()
    }

    #[test]
    fn study_runner_matches_serial_walker_under_faults() {
        let study = faulty_study(4, None);
        let serial = {
            let web = generate(&study.web);
            Walker::new(&web, study.crawl_config()).crawl()
        };
        let web = generate(&study.web);
        let parallel = crawl_study(&web, &study).unwrap();
        assert_eq!(serial, parallel);
        assert!(
            parallel.recovery_totals().retries > 0,
            "a 20% fault rate with retries enabled should retry somewhere"
        );
    }

    #[test]
    fn killed_and_resumed_crawl_matches_uninterrupted() {
        let path = std::env::temp_dir().join("cc-exec-kill-resume.json");
        let path = path.to_str().unwrap().to_string();
        let study = faulty_study(2, Some((&path, 2)));

        // The uninterrupted reference run (its checkpoint write is
        // harmless; the kill run below overwrites the file anyway).
        let web_full = generate(&study.web);
        let full = crawl_study(&web_full, &study).unwrap();

        // Kill after 5 walks, then resume from the checkpoint on a fresh
        // world.
        let web_killed = generate(&study.web);
        let killed = StudyRun::new(&web_killed, &study).stop_after(5).run().unwrap();
        assert_eq!(killed.walks.len(), 5, "graceful drain stopped early");

        let ck = CrawlCheckpoint::load(&path).unwrap();
        assert_eq!(ck.remaining().len(), 12 - 5);
        let web_resumed = generate(&study.web);
        let resumed = StudyRun::new(&web_resumed, &study).resume(ck).run().unwrap();

        assert_eq!(full, resumed, "resumed dataset diverged");
        assert_eq!(
            full.to_json().unwrap(),
            resumed.to_json().unwrap(),
            "resumed dataset bytes diverged"
        );
        // The restored truth ledger converges too, so analysis reports
        // (precision/recall against ground truth) match.
        let (ta, tb) = (web_full.truth_snapshot(), web_resumed.truth_snapshot());
        assert_eq!(ta.len(), tb.len());
        assert_eq!(ta.uid_count(), tb.uid_count());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_write_error_stops_claims() {
        let path = std::env::temp_dir()
            .join("cc-exec-no-such-dir")
            .join("ck.json");
        let study = StudyConfig::builder()
            .web(WebConfig {
                n_seeders: 40,
                ..WebConfig::small()
            })
            .seed(5)
            .steps(3)
            .walks(40)
            .workers(2)
            .checkpoint(path.to_str().unwrap(), 1)
            .build()
            .unwrap();
        let web = generate(&study.web);
        let progress = ProgressCounters::new(2);
        let err = StudyRun::new(&web, &study).progress(&progress).run().unwrap_err();
        assert!(matches!(err, CcError::Io { .. }), "{err}");
        // The first write fails; each worker finishes at most the walk it
        // was on, then claims nothing more.
        let walks = progress.snapshot().walks;
        assert!(walks <= 2, "{walks} walks ran after the first failed write");
    }

    #[test]
    fn resume_with_mismatched_config_is_refused() {
        let study = faulty_study(1, None);
        let ck = CrawlCheckpoint::new(&study, CrawlDataset::default(), cc_web::TruthLog::new());
        let other = faulty_study(2, None); // differs in worker count
        let web = generate(&other.web);
        let err = StudyRun::new(&web, &other).resume(ck).run().unwrap_err();
        assert!(matches!(err, CcError::Checkpoint(_)), "{err}");
    }

    /// Collects every published snapshot for inspection.
    struct RecordingSink {
        snapshots: Mutex<Vec<CrawlCheckpoint>>,
    }

    impl SnapshotSink for RecordingSink {
        fn publish(&self, snapshot: CrawlCheckpoint) {
            self.snapshots.lock().unwrap().push(snapshot);
        }
    }

    #[test]
    fn published_snapshots_are_monotone_and_end_complete() {
        let study = faulty_study(3, None);
        let sink = Arc::new(RecordingSink {
            snapshots: Mutex::new(Vec::new()),
        });
        let web = generate(&study.web);
        let ds = StudyRun::new(&web, &study)
            .publish(PublishPolicy::new(4, Arc::clone(&sink) as Arc<dyn SnapshotSink>))
            .run()
            .unwrap();

        let snaps = sink.snapshots.lock().unwrap();
        assert!(!snaps.is_empty(), "a 12-walk study publishing every 4 must snapshot");
        assert_eq!(snaps.len(), 3, "publishes at 4, 8 and 12 walks, none repeated");
        let mut last = 0usize;
        for s in snaps.iter() {
            assert!(s.partial.walks.len() >= last, "snapshot walk counts regressed");
            last = s.partial.walks.len();
            assert_eq!(s.study.total_walks(), 12);
            s.validate_against(&study).expect("snapshot carries the study config");
        }
        let final_snap = snaps.last().unwrap();
        assert_eq!(final_snap.partial.walks.len(), ds.walks.len());
        assert_eq!(
            final_snap.partial.to_json().unwrap(),
            ds.to_json().unwrap(),
            "final published snapshot must hold the exact final dataset"
        );
    }

    #[test]
    fn publishing_does_not_perturb_crawl_bytes() {
        struct NullSink;
        impl SnapshotSink for NullSink {
            fn publish(&self, _snapshot: CrawlCheckpoint) {}
        }
        let study = faulty_study(2, None);
        let web_plain = generate(&study.web);
        let plain = crawl_study(&web_plain, &study).unwrap();
        let web_pub = generate(&study.web);
        let published = StudyRun::new(&web_pub, &study)
            .publish(PublishPolicy::new(1, Arc::new(NullSink)))
            .run()
            .unwrap();
        assert_eq!(plain.to_json().unwrap(), published.to_json().unwrap());
    }

    #[test]
    fn lease_partitions_merge_to_the_full_study() {
        let study = faulty_study(2, None);
        let web_full = generate(&study.web);
        let full = crawl_study(&web_full, &study).unwrap();

        // Crawl the same study as three disjoint leases (uneven sizes, out
        // of order) on a fresh world and merge the shards — the gaggle
        // manager's exact recipe.
        let web_leased = generate(&study.web);
        let leases: [&[u32]; 3] = [&[7, 8, 9, 10, 11], &[0, 1, 2], &[3, 4, 5, 6]];
        let shards: Vec<CrawlDataset> = leases
            .iter()
            .map(|ids| crawl_walk_ids(&web_leased, &study, ids))
            .collect();
        let merged = CrawlDataset::merge(shards);
        assert_eq!(full, merged, "lease-partitioned crawl diverged");
        assert_eq!(full.to_json().unwrap(), merged.to_json().unwrap());
    }

    #[test]
    fn out_of_range_lease_ids_are_skipped() {
        let study = faulty_study(1, None);
        let web = generate(&study.web);
        let ds = crawl_walk_ids(&web, &study, &[0, 1, 9_999_999]);
        assert_eq!(ds.walks.len(), 2);
    }
}
