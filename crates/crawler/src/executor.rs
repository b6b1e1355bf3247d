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
//!   re-sorts by walk id and sums failure counters commutatively.
//!
//! Net effect: [`StudyRun`] with any worker count is **bit-identical** to
//! [`Walker::crawl`] — the parallel-equivalence integration tests assert
//! this on serialized JSON.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use cc_util::{CcError, ProgressCounters};
use cc_web::SimWeb;

use crate::checkpoint::CrawlCheckpoint;
use crate::config::{CheckpointPolicy, StudyConfig};
use crate::record::{CrawlDataset, FailureStats, WalkRecord};
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

/// A consumer of in-memory crawl snapshots — the in-process twin of the
/// checkpoint file. The executor hands each subscribed sink a complete
/// [`CrawlCheckpoint`] (config + walks so far + truth ledger) every
/// [`PublishPolicy::every`] walks, plus a final one after the last walk.
///
/// Snapshots are **monotone**: each one's walk set is a superset of the
/// previous one's, and the final snapshot holds the whole study. A sink
/// that only keeps the latest snapshot it has seen (coalescing) loses
/// nothing — that is what lets cc-serve's `IndexPublisher` fold batches
/// into fresh `ServingIndex` epochs without ever blocking a crawl worker.
pub trait SnapshotSink: Send + Sync {
    /// Receive a snapshot of the crawl so far. Called from whichever
    /// worker thread completed the triggering walk, under the executor's
    /// accumulator lock — implementations must hand off quickly (queue,
    /// don't build).
    fn publish(&self, snapshot: CrawlCheckpoint);
}

/// Publish a merged snapshot to `sink` every `every` walks (same hook
/// family as [`CheckpointPolicy`], but in-memory instead of on-disk).
#[derive(Clone)]
pub struct PublishPolicy {
    /// Snapshot cadence, in completed walks (must be ≥ 1).
    pub every: usize,
    /// Where snapshots go.
    pub sink: Arc<dyn SnapshotSink>,
}

impl PublishPolicy {
    /// Publish to `sink` every `every` walks (panics on a zero cadence).
    pub fn new(every: usize, sink: Arc<dyn SnapshotSink>) -> PublishPolicy {
        assert!(every > 0, "publish cadence must be at least one walk");
        PublishPolicy { every, sink }
    }
}

impl std::fmt::Debug for PublishPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PublishPolicy").field("every", &self.every).finish()
    }
}

/// How a [`crawl_study`] run starts and stops.
#[derive(Debug, Default)]
pub struct StudyRunOptions {
    /// Resume from a checkpoint: its walks are kept, the truth ledger is
    /// restored, and only the remaining walk ids run.
    pub resume: Option<CrawlCheckpoint>,
    /// Stop claiming after this many *new* walks (graceful drain): the
    /// simulated `kill -TERM` used to exercise checkpoint/resume. Because
    /// walks are claimed in id order, the surviving set is deterministic.
    pub stop_after: Option<usize>,
    /// Publish in-memory snapshots while the crawl runs (the live-serving
    /// hook; independent of the on-disk [`CheckpointPolicy`]).
    pub publish: Option<PublishPolicy>,
}

/// Shared per-walk sink: workers report each finished walk into one
/// accumulator; every `checkpoint.every`-th completion serializes
/// base + accumulated walks to disk (atomic temp-file + rename), and
/// every `publish.every`-th completion hands the same merged snapshot to
/// the in-memory [`SnapshotSink`]. One accumulator serves both cadences,
/// so a walk is counted exactly once however many sinks are subscribed.
struct WalkSinks<'a> {
    checkpoint: Option<&'a CheckpointPolicy>,
    publish: Option<&'a PublishPolicy>,
    study: &'a StudyConfig,
    web: &'a SimWeb,
    base: &'a CrawlDataset,
    acc: Mutex<CrawlDataset>,
    error: Mutex<Option<CcError>>,
}

impl WalkSinks<'_> {
    fn active(&self) -> bool {
        self.checkpoint.is_some() || self.publish.is_some()
    }

    fn record(&self, walk: WalkRecord, failures: FailureStats) {
        let mut acc = self.acc.lock().expect("walk-sink accumulator poisoned");
        acc.ledger.note(&walk);
        acc.walks.push(walk);
        acc.failures.absorb(failures);
        let done = acc.walks.len();
        let save_due = self.checkpoint.is_some_and(|p| done.is_multiple_of(p.every));
        let publish_due = self.publish.is_some_and(|p| done.is_multiple_of(p.every));
        if save_due || publish_due {
            let partial = CrawlDataset::merge([self.base.clone(), acc.clone()]);
            // Emit while still holding the lock: checkpoint writes share
            // one temp file, so concurrent writers would race on the
            // write-then-rename pair — and serialized emission also keeps
            // both the on-disk checkpoint and the published snapshot
            // stream monotonically growing.
            self.emit(partial, save_due, publish_due);
        }
    }

    fn emit(&self, partial: CrawlDataset, save: bool, publish: bool) {
        let ck = CrawlCheckpoint::new(self.study, partial, self.web.truth_snapshot());
        if save {
            if let Some(policy) = self.checkpoint {
                if let Err(e) = ck.save(&policy.path) {
                    self.error
                        .lock()
                        .expect("walk-sink error slot poisoned")
                        .get_or_insert(e);
                }
            }
        }
        if publish {
            if let Some(policy) = self.publish {
                policy.sink.publish(ck);
            }
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
/// Replaces the widening `crawl_study_with_options` /
/// `crawl_study_with_progress` parameter lists — chain exactly the
/// options a call site needs:
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
    opts: StudyRunOptions,
    progress: Option<&'a ProgressCounters>,
}

impl<'a> StudyRun<'a> {
    /// A run of `study` over `web` with default options (fresh start, no
    /// publishing, internal progress counters).
    pub fn new(web: &'a SimWeb, study: &'a StudyConfig) -> StudyRun<'a> {
        StudyRun {
            web,
            study,
            opts: StudyRunOptions::default(),
            progress: None,
        }
    }

    /// Resume from `checkpoint`: its walks are kept, the truth ledger
    /// restored, and only the remaining walk ids run.
    pub fn resume(mut self, checkpoint: CrawlCheckpoint) -> Self {
        self.opts.resume = Some(checkpoint);
        self
    }

    /// Stop claiming after `n` *new* walks (deterministic graceful drain).
    pub fn stop_after(mut self, n: usize) -> Self {
        self.opts.stop_after = Some(n);
        self
    }

    /// Publish in-memory [`CrawlCheckpoint`] snapshots to `policy.sink`
    /// every `policy.every` walks, plus a final complete one.
    pub fn publish(mut self, policy: PublishPolicy) -> Self {
        self.opts.publish = Some(policy);
        self
    }

    /// Replace the whole option block at once (the escape hatch shims
    /// lower onto).
    pub fn options(mut self, opts: StudyRunOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Update caller-owned progress counters (so a monitor thread can
    /// snapshot the live crawl). Must be sized to `study.workers`.
    pub fn progress(mut self, progress: &'a ProgressCounters) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Execute the run.
    pub fn run(self) -> Result<CrawlDataset, CcError> {
        match self.progress {
            Some(p) => run_study(self.web, self.study, self.opts, p),
            None => {
                let progress = ProgressCounters::new(self.study.workers);
                run_study(self.web, self.study, self.opts, &progress)
            }
        }
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
/// the seeder range are skipped, matching [`run_study`]'s clamping.
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
/// whether a resume base joins the merge).
fn crawl_ids_sharded(
    web: &SimWeb,
    study: &StudyConfig,
    ids: &[u32],
    progress: &ProgressCounters,
    sinks: Option<&WalkSinks<'_>>,
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
                        claimed += 1;
                        let walk_id = ids[i];
                        // Fresh per-walk failure accounting so checkpoints
                        // carry exact counts for exactly the walks they
                        // hold (sums commute into the same totals).
                        let mut wf = FailureStats::default();
                        let walk = walker.walk(walk_id, seeders[walk_id as usize].clone(), &mut wf);
                        progress.record_walk(worker, walk.steps.len() as u64);
                        if let Some(s) = sinks {
                            s.record(walk.clone(), wf);
                        }
                        shard.failures.absorb(wf);
                        shard.ledger.note(&walk);
                        shard.walks.push(walk);
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

/// The study runner proper (every public entry point lowers to this).
fn run_study(
    web: &SimWeb,
    study: &StudyConfig,
    opts: StudyRunOptions,
    progress: &ProgressCounters,
) -> Result<CrawlDataset, CcError> {
    let seeders = web.seeder_urls();
    let total = study.total_walks().min(seeders.len());

    let (base, mut ids) = match opts.resume {
        Some(ck) => {
            ck.validate_against(study)?;
            // Restore the ground-truth ledger so the resumed run's report
            // (not only its dataset) matches an uninterrupted run.
            web.absorb_truth(&ck.truth);
            let remaining = ck.remaining();
            cc_telemetry::counter("crawl.resume.walks_restored", ck.partial.walks.len() as u64);
            cc_telemetry::counter("crawl.resume.walks_remaining", remaining.len() as u64);
            (ck.partial, remaining)
        }
        None => (CrawlDataset::default(), (0..total as u32).collect()),
    };
    ids.retain(|&id| (id as usize) < seeders.len());
    if let Some(n) = opts.stop_after {
        ids.truncate(n);
    }

    let sinks = WalkSinks {
        checkpoint: study.checkpoint.as_ref(),
        publish: opts.publish.as_ref(),
        study,
        web,
        base: &base,
        acc: Mutex::new(CrawlDataset::default()),
        error: Mutex::new(None),
    };
    let sinks = sinks.active().then_some(&sinks);

    let shards = crawl_ids_sharded(web, study, &ids, progress, sinks);

    if let Some(s) = sinks {
        if let Some(e) = s.error.lock().expect("walk-sink error slot poisoned").take() {
            return Err(e);
        }
    }

    let merged = CrawlDataset::merge(std::iter::once(base).chain(shards));
    if study.checkpoint.is_some() || opts.publish.is_some() {
        // Final emission: a crawl stopped between intervals (or drained by
        // stop_after) still leaves a current checkpoint behind, and
        // subscribers always see one snapshot holding every walk run.
        let final_ck = CrawlCheckpoint::new(study, merged.clone(), web.truth_snapshot());
        if let Some(policy) = &study.checkpoint {
            final_ck.save(&policy.path)?;
        }
        if let Some(policy) = &opts.publish {
            policy.sink.publish(final_ck);
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_web::{generate, WebConfig};

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
        let mut last = 0usize;
        for s in snaps.iter() {
            assert!(s.partial.walks.len() >= last, "snapshot walk counts regressed");
            last = s.partial.walks.len();
            assert_eq!(s.total_walks, 12);
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
