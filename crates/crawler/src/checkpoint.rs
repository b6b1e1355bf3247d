//! Crawl checkpoint/resume (`cc-checkpoint/v1`).
//!
//! Every walk is a pure function of `(StudyConfig, walk_id)`, so a crawl
//! interrupted at any point can be resumed from just three things: the
//! configuration, the set of walks already recorded, and the ground-truth
//! ledger accumulated so far. A [`CrawlCheckpoint`] bundles exactly that —
//! the embedded config lets `--resume` refuse a checkpoint produced under
//! different parameters, and the truth ledger makes the resumed run's
//! analysis report (not just its dataset) identical to an uninterrupted
//! run's. Nothing derivable is stored: the walk total comes from the
//! config and the failure accounting from the walks, so the fields older
//! v1 files carry for them (`total_walks`, `partial.failures`,
//! `partial.ledger`) are ignored on load.
//!
//! Checkpoints are written atomically (temp file + rename) so a crash
//! mid-write never leaves a truncated checkpoint behind.
//!
//! [`CrawlLedger`] is the one path from finished walks to checkpoints and
//! in-memory snapshots: the executor and the cc-gaggle manager both
//! resume, accumulate and emit through it.

use std::collections::HashSet;
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use cc_telemetry::CounterId;
use cc_util::CcError;
use cc_web::{SimWeb, TruthLog};
use serde::{Deserialize, Serialize};

use crate::config::StudyConfig;
use crate::record::CrawlDataset;

/// The checkpoint format identifier. Bump on incompatible change.
pub const CHECKPOINT_SCHEMA: &str = "cc-checkpoint/v1";

/// A resumable snapshot of a crawl in progress.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrawlCheckpoint {
    /// Format identifier, always [`CHECKPOINT_SCHEMA`].
    pub schema: String,
    /// The configuration the crawl ran under (its walk total keys the
    /// remainder).
    pub study: StudyConfig,
    /// Walks recorded so far (any subset; ids key the remainder).
    pub partial: CrawlDataset,
    /// Ground-truth ledger at checkpoint time.
    pub truth: TruthLog,
}

impl CrawlCheckpoint {
    /// Bundle a partial crawl into a checkpoint.
    pub fn new(study: &StudyConfig, partial: CrawlDataset, truth: TruthLog) -> Self {
        CrawlCheckpoint {
            schema: CHECKPOINT_SCHEMA.to_string(),
            study: study.clone(),
            partial,
            truth,
        }
    }

    /// Ids of the walks already recorded.
    pub fn completed(&self) -> HashSet<u32> {
        self.partial.walks.iter().map(|w| w.walk_id).collect()
    }

    /// Ids of the walks still to run, in order.
    pub fn remaining(&self) -> Vec<u32> {
        let done = self.completed();
        (0..self.study.total_walks() as u32)
            .filter(|id| !done.contains(id))
            .collect()
    }

    /// Refuse to resume under a different configuration.
    pub fn validate_against(&self, study: &StudyConfig) -> Result<(), CcError> {
        if self.schema != CHECKPOINT_SCHEMA {
            return Err(CcError::Checkpoint(format!(
                "unsupported schema {:?} (expected {CHECKPOINT_SCHEMA:?})",
                self.schema
            )));
        }
        if &self.study != study {
            return Err(CcError::Checkpoint(
                "checkpoint was produced under a different study configuration".into(),
            ));
        }
        if self.partial.walks.len() > study.total_walks() {
            return Err(CcError::Checkpoint(format!(
                "checkpoint holds {} walks but the study has {}",
                self.partial.walks.len(),
                study.total_walks()
            )));
        }
        Ok(())
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> Result<String, CcError> {
        serde_json::to_string(self).map_err(|e| CcError::Serde(e.to_string()))
    }

    /// Deserialize from JSON, checking the schema tag first.
    pub fn from_json(s: &str) -> Result<Self, CcError> {
        let ck: CrawlCheckpoint =
            serde_json::from_str(s).map_err(|e| CcError::Checkpoint(e.to_string()))?;
        if ck.schema != CHECKPOINT_SCHEMA {
            return Err(CcError::Checkpoint(format!(
                "unsupported schema {:?} (expected {CHECKPOINT_SCHEMA:?})",
                ck.schema
            )));
        }
        Ok(ck)
    }

    /// Write atomically: serialize to a `.tmp`-suffixed sibling, then
    /// rename over `path`, so an interrupted write never corrupts the
    /// previous checkpoint (and a follower polling the file never reads
    /// a torn one).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CcError> {
        let path = path.as_ref();
        let json = self.to_json()?;
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, &json).map_err(|e| CcError::io(tmp.display().to_string(), e))?;
        std::fs::rename(&tmp, path).map_err(|e| CcError::io(path.display().to_string(), e))?;
        Ok(())
    }

    /// Load a checkpoint from disk.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CcError> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path)
            .map_err(|e| CcError::io(path.display().to_string(), e))?;
        Self::from_json(&json)
    }
}

/// A consumer of in-memory crawl snapshots — the in-process twin of the
/// checkpoint file. A [`CrawlLedger`] hands each subscribed sink a
/// complete [`CrawlCheckpoint`] (config + walks so far + truth ledger)
/// every [`PublishPolicy::every`] walks, plus a final one holding every
/// walk.
///
/// Snapshots are **monotone**: each one's walk set is a superset of the
/// previous one's, and the final snapshot holds the whole study. A sink
/// that only keeps the latest snapshot it has seen (coalescing) loses
/// nothing — that is what lets cc-serve's `IndexPublisher` fold batches
/// into fresh `ServingIndex` epochs without ever blocking a crawl worker.
pub trait SnapshotSink: Send + Sync {
    /// Receive a snapshot of the crawl so far. Called from whichever
    /// thread absorbed the triggering walk, under the ledger's lock —
    /// implementations must hand off quickly (queue, don't build).
    fn publish(&self, snapshot: CrawlCheckpoint);
}

/// Publish a merged snapshot to `sink` every `every` walks (same cadence
/// rule as [`crate::CheckpointPolicy`], but in-memory instead of on-disk).
#[derive(Clone)]
pub struct PublishPolicy {
    /// Snapshot cadence, in walks held (must be ≥ 1).
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

/// The one path from finished walks to checkpoints and snapshots, shared
/// by the executor (`W = &SimWeb`) and the cc-gaggle manager
/// (`W = Arc<SimWeb>`).
///
/// * **Resume:** [`CrawlLedger::start`] validates the checkpoint, restores
///   its truth ledger into the world, and returns the walk ids still to
///   run, clamped to the seeder range.
/// * **Accumulate:** [`CrawlLedger::absorb`] takes one finished walk (an
///   executor worker) or one accepted lease shard (the gaggle manager).
/// * **Cadence:** a policy emits whenever the walks held, resume base
///   included, reach or pass the next multiple of its `every`.
/// * **Errors:** the first write error is kept and [`CrawlLedger::failed`]
///   turns true, so callers stop claiming work at once.
/// * **Finish:** [`CrawlLedger::finish`] emits again only where the last
///   emission does not already hold every walk.
pub struct CrawlLedger<W> {
    study: StudyConfig,
    web: W,
    publish: Option<PublishPolicy>,
    state: Mutex<LedgerState>,
    /// Set once a write fails. Claim loops poll it; the error itself is
    /// read under the lock, so the flag publishes nothing else.
    failed: AtomicBool,
}

struct LedgerState {
    /// Absorbed datasets, resume base first; merged at each emission.
    parts: Vec<CrawlDataset>,
    /// Walks held, resume base included.
    walks: usize,
    saved: Option<Cadence>,
    published: Option<Cadence>,
    error: Option<CcError>,
}

/// One policy's emission bookkeeping.
struct Cadence {
    every: usize,
    /// `walks / every` at the last emission (or at the resume).
    bucket: usize,
    /// Walks held by the last emission.
    emitted: Option<usize>,
}

impl Cadence {
    fn new(every: usize, walks: usize) -> Cadence {
        let every = every.max(1);
        let bucket = walks / every;
        Cadence {
            every,
            bucket,
            emitted: None,
        }
    }

    /// Whether to emit now: at a passed bucket, or when finishing with
    /// walks the last emission does not hold.
    fn due(&mut self, walks: usize, finishing: bool) -> bool {
        if finishing {
            return self.emitted != Some(walks);
        }
        let bucket = walks / self.every;
        std::mem::replace(&mut self.bucket, bucket) < bucket
    }
}

impl<W: Deref<Target = SimWeb>> CrawlLedger<W> {
    /// A ledger for `study` over `web`, resumed from `resume` if given,
    /// plus the walk ids still to run.
    pub fn start(
        study: &StudyConfig,
        web: W,
        resume: Option<CrawlCheckpoint>,
        publish: Option<PublishPolicy>,
    ) -> Result<(CrawlLedger<W>, Vec<u32>), CcError> {
        let seeders = web.seeder_urls().len();
        let (base, mut ids) = match resume {
            Some(ck) => {
                ck.validate_against(study)?;
                // Restore the ground-truth ledger so the resumed run's
                // report (not only its dataset) matches an uninterrupted
                // run.
                web.absorb_truth(&ck.truth);
                let remaining = ck.remaining();
                let restored = ck.partial.walks.len() as u64;
                cc_telemetry::counter_id(CounterId::CRAWL_RESUME_WALKS_RESTORED, restored);
                let left = remaining.len() as u64;
                cc_telemetry::counter_id(CounterId::CRAWL_RESUME_WALKS_REMAINING, left);
                (ck.partial, remaining)
            }
            None => {
                let total = study.total_walks().min(seeders) as u32;
                (CrawlDataset::default(), (0..total).collect())
            }
        };
        ids.retain(|&id| (id as usize) < seeders);
        let walks = base.walks.len();
        let state = LedgerState {
            parts: vec![base],
            walks,
            saved: study.checkpoint.as_ref().map(|p| Cadence::new(p.every, walks)),
            published: publish.as_ref().map(|p| Cadence::new(p.every, walks)),
            error: None,
        };
        let ledger = CrawlLedger {
            study: study.clone(),
            web,
            publish,
            state: Mutex::new(state),
            failed: AtomicBool::new(false),
        };
        Ok((ledger, ids))
    }

    /// Whether anything is emitted before [`CrawlLedger::finish`]. Only
    /// then do callers hand walks over one at a time; otherwise they keep
    /// private shards and absorb each once.
    pub fn emits(&self) -> bool {
        self.study.checkpoint.is_some() || self.publish.is_some()
    }

    /// Whether a write has failed: stop claiming work.
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    /// Take in finished walks and emit whatever cadence they complete.
    /// Once a write has failed, walks are only accumulated.
    pub fn absorb(&self, shard: CrawlDataset) {
        let mut st = self.lock();
        st.walks += shard.walks.len();
        st.parts.push(shard);
        self.emit_due(&mut st, false);
    }

    /// The final emission, then the merged dataset — or the first write
    /// error.
    pub fn finish(&self) -> Result<CrawlDataset, CcError> {
        let mut st = self.lock();
        self.emit_due(&mut st, true);
        match st.error.take() {
            Some(e) => Err(e),
            None => Ok(CrawlDataset::merge(std::mem::take(&mut st.parts))),
        }
    }

    /// Merge everything held into one checkpoint, then write and/or
    /// publish it as due. Runs under the lock: checkpoint writes share one
    /// temp file, and serialized emission keeps both the file and the
    /// snapshot stream monotonically growing.
    fn emit_due(&self, st: &mut LedgerState, finishing: bool) {
        if self.failed() {
            return;
        }
        let walks = st.walks;
        let due = |c: &mut Option<Cadence>| c.as_mut().is_some_and(|c| c.due(walks, finishing));
        let (save, publish) = (due(&mut st.saved), due(&mut st.published));
        if !(save || publish) {
            return;
        }
        let merged = CrawlDataset::merge(std::mem::take(&mut st.parts));
        let ck = CrawlCheckpoint::new(&self.study, merged, self.web.truth_snapshot());
        if let (true, Some(policy), Some(c)) = (save, &self.study.checkpoint, &mut st.saved) {
            match ck.save(&policy.path) {
                Ok(()) => {
                    c.emitted = Some(walks);
                    cc_telemetry::counter_id(CounterId::CRAWL_CHECKPOINT_WRITES, 1);
                }
                Err(e) => {
                    st.error = Some(e);
                    self.failed.store(true, Ordering::Relaxed);
                }
            }
        }
        let merged = match (publish, &self.publish, &mut st.published) {
            (true, Some(policy), Some(c)) => {
                c.emitted = Some(walks);
                let merged = ck.partial.clone();
                policy.sink.publish(ck);
                merged
            }
            _ => ck.partial,
        };
        st.parts.push(merged);
    }

    fn lock(&self) -> MutexGuard<'_, LedgerState> {
        self.state.lock().expect("crawl ledger poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{WalkRecord, WalkTermination};
    use cc_net::RecoveryStats;

    fn walk(id: u32) -> WalkRecord {
        WalkRecord {
            walk_id: id,
            seeder: format!("s{id}.com").into(),
            steps: Vec::new(),
            termination: WalkTermination::Completed,
            recovery: RecoveryStats::default(),
        }
    }

    fn study() -> StudyConfig {
        StudyConfig::builder().walks(5).build().unwrap()
    }

    #[test]
    fn remaining_is_the_complement_of_completed() {
        let mut partial = CrawlDataset::default();
        partial.walks.push(walk(0));
        partial.walks.push(walk(3));
        let ck = CrawlCheckpoint::new(&study(), partial, TruthLog::new());
        assert_eq!(ck.study.total_walks(), 5);
        assert_eq!(ck.remaining(), vec![1, 2, 4]);
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let mut partial = CrawlDataset::default();
        partial.walks.push(walk(1));
        let ck = CrawlCheckpoint::new(&study(), partial, TruthLog::new());
        let back = CrawlCheckpoint::from_json(&ck.to_json().unwrap()).unwrap();
        assert_eq!(back.schema, CHECKPOINT_SCHEMA);
        assert_eq!(back.study, ck.study);
        assert_eq!(back.partial, ck.partial);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let ck = CrawlCheckpoint::new(&study(), CrawlDataset::default(), TruthLog::new());
        let json = ck.to_json().unwrap().replace("cc-checkpoint/v1", "cc-checkpoint/v0");
        let err = CrawlCheckpoint::from_json(&json).unwrap_err();
        assert!(matches!(err, CcError::Checkpoint(_)), "{err}");
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let ck = CrawlCheckpoint::new(&study(), CrawlDataset::default(), TruthLog::new());
        let other = StudyConfig::builder().walks(5).seed(999).build().unwrap();
        assert!(ck.validate_against(&study()).is_ok());
        let err = ck.validate_against(&other).unwrap_err();
        assert!(matches!(err, CcError::Checkpoint(_)), "{err}");
    }

    #[test]
    fn save_and_load_round_trip_atomically() {
        let dir = std::env::temp_dir().join("cc-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.json");
        let path = path.to_str().unwrap();
        let mut partial = CrawlDataset::default();
        partial.walks.push(walk(2));
        let ck = CrawlCheckpoint::new(&study(), partial, TruthLog::new());
        ck.save(path).unwrap();
        assert!(!std::path::Path::new(&format!("{path}.tmp")).exists());
        let back = CrawlCheckpoint::load(path).unwrap();
        assert_eq!(back.partial, ck.partial);
        std::fs::remove_file(path).ok();
    }
}
