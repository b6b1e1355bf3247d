//! The crawl dataset: what CrumbCruncher records and releases.
//!
//! §3.1: at each step CrumbCruncher records "all first-party cookies, local
//! storage values, and web requests on the originator page", the clicked
//! element, "all navigation web requests" through the redirect chain, and
//! the same records on the destination. The paper publishes this dataset;
//! ours is serde-serializable for the same purpose.
//!
//! Only walks are stored: the §3.3 [`FailureStats`] and the degraded-walk
//! [`FailureLedger`] are computed from the walks' terminations.

use cc_browser::StorageSnapshot;
use cc_net::RecoveryStats;
use cc_url::Url;
use cc_util::IStr;
use cc_web::ElementKind;
use serde::{Deserialize, Serialize};

use crate::names::CrawlerName;

/// Summary of the element a crawler clicked.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClickedElement {
    /// Anchor or iframe.
    pub kind: ElementKind,
    /// The element's x-path on that crawler's page instance.
    pub xpath: String,
}

/// Everything one crawler observed during one walk step.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrawlObservation {
    /// Which crawler.
    pub crawler: CrawlerName,
    /// The page the step started on (where the click happened).
    pub page_url: Url,
    /// First-party storage on the start page after load.
    pub page_snapshot: StorageSnapshot,
    /// The clicked element, if a click happened on this crawler.
    pub clicked: Option<ClickedElement>,
    /// Every navigation-request URL of the click: clicked URL, redirector
    /// hops, final destination (empty when no click or navigation failed).
    pub nav_hops: Vec<Url>,
    /// Where this crawler ended up.
    pub final_url: Option<Url>,
    /// First-party storage on the destination after load.
    pub dest_snapshot: Option<StorageSnapshot>,
    /// Beacon/subresource requests observed during the step, with the
    /// top-level site they were sent from (interned: the vocabulary is
    /// the world's registered domains).
    pub beacons: Vec<(IStr, Url)>,
}

/// One step of a walk: observations from every crawler that executed it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct StepRecord {
    /// Step index within the walk (0-based).
    pub index: usize,
    /// Per-crawler observations.
    pub observations: Vec<CrawlObservation>,
}

/// Why a walk ended before its ten steps.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalkTermination {
    /// All ten steps completed.
    Completed,
    /// The controller found no element shared across the three parallel
    /// crawls (§3.3; 7.6% of steps in the paper).
    SyncFailure {
        /// The step at which matching failed.
        step: usize,
    },
    /// The clicked elements "were not actually the same, and led to
    /// different destination websites" (1.8% in the paper). Data retained.
    Divergence {
        /// The step at which the FQDNs disagreed.
        step: usize,
    },
    /// A network error prevented connecting (3.3% of site visits).
    ConnectFailure {
        /// The step at which the connection failed.
        step: usize,
        /// The rendered error (e.g. `ECONNREFUSED`).
        error: String,
    },
}

impl WalkTermination {
    /// The step the walk failed at, or `None` when it completed.
    pub fn failed_at(&self) -> Option<usize> {
        match self {
            WalkTermination::Completed => None,
            WalkTermination::SyncFailure { step }
            | WalkTermination::Divergence { step }
            | WalkTermination::ConnectFailure { step, .. } => Some(*step),
        }
    }
}

/// One ten-step random walk from a seeder domain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalkRecord {
    /// Walk number.
    pub walk_id: u32,
    /// The seeder domain the walk started from (interned).
    pub seeder: IStr,
    /// Completed steps.
    pub steps: Vec<StepRecord>,
    /// How the walk ended.
    pub termination: WalkTermination,
    /// Retry/breaker activity across the walk's four crawlers (all zeros
    /// when fault tolerance is disabled).
    pub recovery: RecoveryStats,
}

/// Aggregate failure accounting (the §3.3 evaluation), derived from the
/// walks by [`CrawlDataset::failures`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct FailureStats {
    /// Steps the controller attempted to synchronize.
    pub steps_attempted: u64,
    /// Steps that completed with agreeing FQDNs.
    pub steps_completed: u64,
    /// Steps lost to no-shared-element failures.
    pub sync_failures: u64,
    /// Steps lost to FQDN divergence after the click.
    pub divergence_failures: u64,
    /// Walks lost to connection errors.
    pub connect_failures: u64,
}

impl FailureStats {
    /// Fraction of attempted steps that failed to synchronize.
    pub fn sync_failure_rate(&self) -> f64 {
        ratio(self.sync_failures, self.steps_attempted)
    }

    /// Fraction of attempted steps that diverged after the click.
    pub fn divergence_rate(&self) -> f64 {
        ratio(self.divergence_failures, self.steps_attempted)
    }

    /// Fraction of attempted steps lost to connection errors.
    pub fn connect_failure_rate(&self) -> f64 {
        ratio(self.connect_failures, self.steps_attempted)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One degraded walk in the [`FailureLedger`]: a walk that ended before
/// its full step count, kept as *partial data* rather than silently
/// dropped (the paper keeps divergent steps for exactly this reason).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureEntry {
    /// The degraded walk.
    pub walk_id: u32,
    /// Its seeder domain (interned; shares the walk record's handle).
    pub seeder: IStr,
    /// Steps that were recorded before termination.
    pub steps_recorded: usize,
    /// How the walk ended.
    pub termination: WalkTermination,
    /// Retry/breaker activity during the walk.
    pub recovery: RecoveryStats,
}

/// The audit trail of degraded walks, consumed by the analysis report: a
/// view of the dataset's walks ([`CrawlDataset::ledger`]), never stored.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct FailureLedger {
    /// Degraded walks, ordered by walk id.
    pub entries: Vec<FailureEntry>,
}

impl FailureLedger {
    /// Number of degraded walks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether any walk degraded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A complete crawl: every walk. The §3.3 failure accounting and the
/// degraded-walk ledger are views of the walks' terminations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct CrawlDataset {
    /// All walks.
    pub walks: Vec<WalkRecord>,
}

impl CrawlDataset {
    /// Merge partial datasets (shards, parallel-worker outputs) into one:
    /// concatenate, then sort by walk id. Walk ids are global, so the
    /// merge of any partition in any order is byte-identical to the
    /// serial crawl of the same walk set.
    pub fn merge(parts: impl IntoIterator<Item = CrawlDataset>) -> CrawlDataset {
        let parts: Vec<CrawlDataset> = parts.into_iter().collect();
        // One allocation for the merged walks instead of doubling-growth
        // reallocations as shards stream in.
        let mut walks = Vec::with_capacity(parts.iter().map(|p| p.walks.len()).sum());
        for part in parts {
            walks.extend(part.walks);
        }
        // Walk ids are globally unique, so the faster unstable sort is
        // still deterministic.
        walks.sort_unstable_by_key(|w| w.walk_id);
        CrawlDataset { walks }
    }

    /// The §3.3 failure accounting, folded from the walk terminations: a
    /// walk that failed at step `s` attempted `s + 1` steps and completed
    /// `s`, a completed walk attempted and completed every recorded step,
    /// and each failure counts once in its class.
    pub fn failures(&self) -> FailureStats {
        let mut f = FailureStats::default();
        for w in &self.walks {
            let (attempted, completed) = match w.termination.failed_at() {
                Some(step) => (step + 1, step),
                None => (w.steps.len(), w.steps.len()),
            };
            f.steps_attempted += attempted as u64;
            f.steps_completed += completed as u64;
            match w.termination {
                WalkTermination::Completed => {}
                WalkTermination::SyncFailure { .. } => f.sync_failures += 1,
                WalkTermination::Divergence { .. } => f.divergence_failures += 1,
                WalkTermination::ConnectFailure { .. } => f.connect_failures += 1,
            }
        }
        f
    }

    /// The degraded walks (every non-`Completed` termination), in the
    /// dataset's walk-id order.
    pub fn ledger(&self) -> FailureLedger {
        let entries = self
            .walks
            .iter()
            .filter(|w| w.termination.failed_at().is_some())
            .map(|w| FailureEntry {
                walk_id: w.walk_id,
                seeder: w.seeder.clone(),
                steps_recorded: w.steps.len(),
                termination: w.termination.clone(),
                recovery: w.recovery,
            })
            .collect();
        FailureLedger { entries }
    }

    /// Sum of every walk's retry/breaker accounting.
    pub fn recovery_totals(&self) -> RecoveryStats {
        let mut total = RecoveryStats::default();
        for w in &self.walks {
            total.absorb(&w.recovery);
        }
        total
    }

    /// Total completed steps across all walks.
    pub fn total_steps(&self) -> usize {
        self.walks.iter().map(|w| w.steps.len()).sum()
    }

    /// Iterate over every observation in the dataset.
    pub fn observations(&self) -> impl Iterator<Item = &CrawlObservation> {
        self.walks
            .iter()
            .flat_map(|w| w.steps.iter())
            .flat_map(|s| s.observations.iter())
    }

    /// Serialize to JSON (the released-dataset format).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> serde_json::Result<Self> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs() -> CrawlObservation {
        CrawlObservation {
            crawler: CrawlerName::Safari1,
            page_url: Url::parse("https://www.a.com/").unwrap(),
            page_snapshot: StorageSnapshot::default(),
            clicked: Some(ClickedElement {
                kind: ElementKind::Iframe,
                xpath: "/html/body/iframe".into(),
            }),
            nav_hops: vec![
                Url::parse("https://t.net/click?uid=1").unwrap(),
                Url::parse("https://www.b.com/?uid=1").unwrap(),
            ],
            final_url: Some(Url::parse("https://www.b.com/?uid=1").unwrap()),
            dest_snapshot: Some(StorageSnapshot::default()),
            beacons: vec![],
        }
    }

    #[test]
    fn dataset_roundtrips_through_json() {
        let ds = CrawlDataset {
            walks: vec![WalkRecord {
                walk_id: 0,
                seeder: "a.com".into(),
                steps: vec![StepRecord {
                    index: 0,
                    observations: vec![obs()],
                }],
                termination: WalkTermination::Completed,
                recovery: RecoveryStats::default(),
            }],
        };
        let json = ds.to_json().unwrap();
        let back = CrawlDataset::from_json(&json).unwrap();
        assert_eq!(back, ds);
        assert_eq!(back.total_steps(), 1);
        assert_eq!(back.observations().count(), 1);
        // Each walk carries its own recovery stats; the failure accounting
        // is derived from the walks, not stored beside them.
        assert!(json.contains("recovery") && !json.contains("ledger"));
    }

    #[test]
    fn failures_and_ledger_derive_from_terminations() {
        let walk = |id: u32, steps: usize, termination| WalkRecord {
            walk_id: id,
            seeder: format!("s{id}.com").into(),
            steps: vec![StepRecord::default(); steps],
            termination,
            recovery: RecoveryStats {
                retries: u64::from(id),
                ..RecoveryStats::default()
            },
        };
        let error = "network error: ECONNRESET".to_string();
        let ds = CrawlDataset::merge([
            CrawlDataset {
                walks: vec![
                    walk(3, 2, WalkTermination::SyncFailure { step: 1 }),
                    walk(1, 4, WalkTermination::Completed),
                ],
            },
            CrawlDataset {
                walks: vec![
                    walk(0, 0, WalkTermination::ConnectFailure { step: 0, error }),
                    walk(2, 3, WalkTermination::Divergence { step: 2 }),
                ],
            },
        ]);
        let ledger = ds.ledger();
        let ids: Vec<u32> = ledger.entries.iter().map(|e| e.walk_id).collect();
        assert_eq!(ids, vec![0, 2, 3], "completed walks are not ledgered");
        assert_eq!(ledger.entries[2].steps_recorded, 2);
        assert_eq!(ledger.entries[2].recovery.retries, 3);
        // Walks 0..=3 attempted 1 + 4 + 3 + 2 steps and completed 0 + 4 + 2 + 1.
        let expected = FailureStats {
            steps_attempted: 10,
            steps_completed: 7,
            sync_failures: 1,
            divergence_failures: 1,
            connect_failures: 1,
        };
        assert_eq!(ds.failures(), expected);
    }

    #[test]
    fn failure_rates() {
        let f = FailureStats {
            steps_attempted: 1000,
            steps_completed: 900,
            sync_failures: 76,
            divergence_failures: 18,
            connect_failures: 33,
        };
        assert!((f.sync_failure_rate() - 0.076).abs() < 1e-12);
        assert!((f.divergence_rate() - 0.018).abs() < 1e-12);
        assert!((f.connect_failure_rate() - 0.033).abs() < 1e-12);
        let empty = FailureStats::default();
        assert_eq!(empty.sync_failure_rate(), 0.0);
    }
}
