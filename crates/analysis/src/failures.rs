//! Failure-rate independence across walk steps (§3.3).
//!
//! "We expect the probability of any of these failures occurring to be
//! independent of the step of the random walk CrumbCruncher was on." This
//! module computes per-step failure rates from the recorded walks and a
//! chi-square-style uniformity statistic so the expectation is checkable
//! rather than assumed.

use cc_crawler::CrawlDataset;
use serde::{Deserialize, Serialize};

/// Failure accounting for one step index across the whole crawl.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepFailureRow {
    /// Step index.
    pub step: usize,
    /// Walks that reached (attempted) this step.
    pub attempts: u64,
    /// Walks that failed at this step (any failure class).
    pub failures: u64,
}

impl StepFailureRow {
    /// Failure rate at this step.
    pub fn rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.failures as f64 / self.attempts as f64
        }
    }
}

/// Per-step failure analysis.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StepFailureReport {
    /// One row per step index.
    pub rows: Vec<StepFailureRow>,
    /// Pearson chi-square statistic against the pooled rate (df =
    /// rows − 1). Small values support the paper's independence
    /// expectation.
    pub chi_square: f64,
}

/// Compute per-step failure rates over a crawl of `steps_per_walk` steps.
pub fn failures_by_step(dataset: &CrawlDataset, steps_per_walk: usize) -> StepFailureReport {
    let mut rows: Vec<StepFailureRow> = (0..steps_per_walk)
        .map(|step| StepFailureRow {
            step,
            ..Default::default()
        })
        .collect();

    for walk in &dataset.walks {
        let failed_at = walk.termination.failed_at();
        let reached = failed_at.unwrap_or(steps_per_walk.saturating_sub(1));
        for row in rows.iter_mut().take(reached + 1) {
            row.attempts += 1;
        }
        if let Some(step) = failed_at {
            if let Some(row) = rows.get_mut(step) {
                row.failures += 1;
            }
        }
    }

    // Pooled rate and chi-square against it.
    let total_attempts: u64 = rows.iter().map(|r| r.attempts).sum();
    let total_failures: u64 = rows.iter().map(|r| r.failures).sum();
    let pooled = if total_attempts == 0 {
        0.0
    } else {
        total_failures as f64 / total_attempts as f64
    };
    let chi_square = rows
        .iter()
        .filter(|r| r.attempts > 0 && pooled > 0.0 && pooled < 1.0)
        .map(|r| {
            let expected = pooled * r.attempts as f64;
            let observed = r.failures as f64;
            let var = expected * (1.0 - pooled);
            if var == 0.0 {
                0.0
            } else {
                (observed - expected) * (observed - expected) / var
            }
        })
        .sum();

    StepFailureReport { rows, chi_square }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_crawler::{CrawlConfig, Walker};
    use cc_web::{generate, WebConfig};

    #[test]
    fn rates_roughly_uniform_across_steps() {
        let web = generate(&WebConfig {
            n_sites: 800,
            n_seeders: 300,
            ..WebConfig::default()
        });
        let ds = Walker::new(
            &web,
            CrawlConfig {
                seed: 47,
                steps_per_walk: 8,
                ..CrawlConfig::default()
            },
        )
        .crawl();
        let report = failures_by_step(&ds, 8);
        assert_eq!(report.rows.len(), 8);
        // Every step saw attempts and the early steps the most.
        assert!(report.rows[0].attempts >= report.rows[7].attempts);
        assert!(report.rows[0].attempts > 100);
        // The chi-square must not explode: with 7 degrees of freedom the
        // 99.9th percentile is ~24; allow generous slack for the sparse
        // tail steps.
        assert!(
            report.chi_square < 40.0,
            "failure rates vary wildly by step: {report:?}"
        );
    }

    #[test]
    fn synthetic_step_bias_is_detected() {
        // Sanity-check the statistic itself: a hand-built dataset failing
        // exclusively at step 0 must produce a large chi-square.
        use cc_crawler::{StepRecord, WalkRecord, WalkTermination};
        let mut ds = CrawlDataset::default();
        for i in 0..60u32 {
            let termination = if i % 2 == 0 {
                WalkTermination::SyncFailure { step: 0 }
            } else {
                WalkTermination::Completed
            };
            ds.walks.push(WalkRecord {
                walk_id: i,
                seeder: "a.com".into(),
                steps: (0..5)
                    .map(|s| StepRecord {
                        index: s,
                        observations: vec![],
                    })
                    .collect(),
                termination,
                recovery: Default::default(),
            });
        }
        let report = failures_by_step(&ds, 5);
        assert!(
            report.chi_square > 30.0,
            "a step-0-only failure pattern should be flagged: {report:?}"
        );
    }

    #[test]
    fn empty_dataset() {
        let report = failures_by_step(&CrawlDataset::default(), 5);
        assert_eq!(report.chi_square, 0.0);
        assert!(report.rows.iter().all(|r| r.attempts == 0));
    }
}
