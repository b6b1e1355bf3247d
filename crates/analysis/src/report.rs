//! The full analysis report: every table and figure in one structure, with
//! paper-style text rendering.

use cc_core::pipeline::PipelineOutput;
use cc_core::ComboClass;
use cc_crawler::{CrawlDataset, FailureLedger, FailureStats};
use cc_net::RecoveryStats;
use cc_util::{CcError, Counter};
use cc_web::SimWeb;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

use crate::bounce::{bounce_stats, BounceStats};
use crate::cookie_sync::{detect_cookie_sync, CookieSyncReport};
use crate::failures::{failures_by_step, StepFailureReport};
use crate::categories::{figure5, CategoryBreakdown};
use crate::cname::{detect_cloaking, CloakedHost};
use crate::fingerprint::{fingerprint_experiment, FingerprintExperiment};
use crate::orgs::{figure4, OrgAppearances};
use crate::paths::{figure7, figure8, Fig7Bar, Fig8Bar};
use crate::redirectors::{table3, Table3Row};
use crate::species::{species_evasion, SpeciesEvasion};
use crate::summary::{summarize, Summary};
use crate::third_party::{figure6, ThirdPartyRow};

/// Table 1: UID counts per crawler-profile combination.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table1 {
    /// Rows in the paper's order: (combo, token count).
    pub rows: Vec<(ComboClass, u64)>,
}

/// Build Table 1 from pipeline findings.
pub fn table1(output: &PipelineOutput) -> Table1 {
    let counts: Counter<ComboClass> = output.findings.iter().map(|f| f.combo).collect();
    let order = [
        ComboClass::TwoIdenticalPlusDifferent,
        ComboClass::TwoOrMoreDifferentOnly,
        ComboClass::TwoIdenticalOnly,
        ComboClass::OneProfileOnly,
    ];
    Table1 {
        rows: order.iter().map(|c| (*c, counts.get(c))).collect(),
    }
}

/// Everything the evaluation section reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Table 1.
    pub table1: Table1,
    /// Table 2 (plus the 8.11% headline via `summary.smuggling_rate()`).
    pub summary: Summary,
    /// Table 3 (top-30 redirectors).
    pub table3: Vec<Table3Row>,
    /// Figure 4.
    pub orgs: OrgAppearances,
    /// Figure 5.
    pub categories: CategoryBreakdown,
    /// Figure 6.
    pub third_parties: Vec<ThirdPartyRow>,
    /// Figure 7.
    pub fig7: Vec<Fig7Bar>,
    /// Figure 8.
    pub fig8: Vec<Fig8Bar>,
    /// Bounce-tracking comparison (§8).
    pub bounce: BounceStats,
    /// Fingerprinting experiment (§3.5).
    pub fingerprint: FingerprintExperiment,
    /// §3.3 crawl failure accounting, derived from the walk terminations.
    pub failures: FailureStats,
    /// Retry/breaker activity summed over every walk (all zeros when the
    /// crawl ran with fault tolerance disabled).
    pub recovery: RecoveryStats,
    /// Audit trail of walks that ended early (degraded rather than lost).
    pub ledger: FailureLedger,
    /// CNAME-cloaking findings (§8.3 extension).
    pub cloaked: Vec<CloakedHost>,
    /// Manual-stage counts (§3.7.2: 577 of 1,581 in the paper).
    pub manual_entered: u64,
    /// Tokens removed by the manual stage.
    pub manual_removed: u64,
    /// Cookie-sync analysis (§8.2 related work).
    pub cookie_sync: CookieSyncReport,
    /// Failure independence across walk steps (§3.3's expectation).
    pub step_failures: StepFailureReport,
    /// Species-evasion matrix (empty for worlds without evasion species;
    /// defaulted so pre-species serialized reports still deserialize).
    #[serde(default)]
    pub species: SpeciesEvasion,
}

/// The addressable sections of an [`AnalysisReport`].
///
/// Each section has a stable kebab-case [`slug`](ReportSection::slug)
/// (the `cc-serve` `/report/{section}` address) and a
/// [`heading`](ReportSection::heading) (the text renderer's `== … ==`
/// banner). Both surfaces draw from this one enum, so the HTTP API and
/// the rendered report can never drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReportSection {
    /// Table 1: UID counts per crawler-profile combination.
    Table1,
    /// Table 2: the summary statistics block.
    Summary,
    /// Table 3: top redirectors.
    Table3,
    /// Figure 4: top organizations.
    Orgs,
    /// Figure 5: site categories.
    Categories,
    /// Figure 6: third parties receiving UIDs.
    ThirdParties,
    /// Figure 7: redirectors per smuggling URL path.
    Fig7,
    /// Figure 8: UIDs per path portion.
    Fig8,
    /// Bounce-tracking comparison (§8).
    Bounce,
    /// Fingerprinting experiment (§3.5).
    Fingerprint,
    /// Crawl failure accounting (§3.3).
    Failures,
    /// Retry/breaker activity plus the degraded-walk ledger.
    FaultTolerance,
    /// Manual filtering stage counts (§3.7.2).
    Manual,
    /// Cookie-sync analysis (§8.2).
    CookieSync,
    /// Failure independence across walk steps (§3.3).
    StepFailures,
    /// CNAME-cloaking findings (§8.3 extension).
    Cloaking,
    /// Species-evasion matrix: per-species precision/recall × defense
    /// defeat rates from ground truth (DESIGN §5f).
    SpeciesEvasion,
}

impl ReportSection {
    /// Every section, in report order.
    pub const ALL: [ReportSection; 17] = [
        ReportSection::Table1,
        ReportSection::Summary,
        ReportSection::Table3,
        ReportSection::Orgs,
        ReportSection::Categories,
        ReportSection::ThirdParties,
        ReportSection::Fig7,
        ReportSection::Fig8,
        ReportSection::Bounce,
        ReportSection::Fingerprint,
        ReportSection::Failures,
        ReportSection::FaultTolerance,
        ReportSection::Manual,
        ReportSection::CookieSync,
        ReportSection::StepFailures,
        ReportSection::Cloaking,
        ReportSection::SpeciesEvasion,
    ];

    /// The stable kebab-case slug this section is addressed by.
    pub fn slug(&self) -> &'static str {
        match self {
            ReportSection::Table1 => "table-1",
            ReportSection::Summary => "summary",
            ReportSection::Table3 => "table-3",
            ReportSection::Orgs => "orgs",
            ReportSection::Categories => "categories",
            ReportSection::ThirdParties => "third-parties",
            ReportSection::Fig7 => "fig-7",
            ReportSection::Fig8 => "fig-8",
            ReportSection::Bounce => "bounce",
            ReportSection::Fingerprint => "fingerprint",
            ReportSection::Failures => "failures",
            ReportSection::FaultTolerance => "fault-tolerance",
            ReportSection::Manual => "manual",
            ReportSection::CookieSync => "cookie-sync",
            ReportSection::StepFailures => "step-failures",
            ReportSection::Cloaking => "cloaking",
            ReportSection::SpeciesEvasion => "species-evasion",
        }
    }

    /// The text renderer's banner for this section (printed as
    /// `== heading ==`).
    pub fn heading(&self) -> &'static str {
        match self {
            ReportSection::Table1 => "Table 1: crawler combinations of identified UIDs",
            ReportSection::Summary => "Table 2: summary",
            ReportSection::Table3 => "Table 3: top redirectors (* = multi-purpose)",
            ReportSection::Orgs => "Figure 4: top organizations",
            ReportSection::Categories => "Figure 5: categories (originators / destinations)",
            ReportSection::ThirdParties => "Figure 6: third parties receiving UIDs",
            ReportSection::Fig7 => "Figure 7: redirectors per smuggling URL path",
            ReportSection::Fig8 => "Figure 8: UIDs per path portion",
            ReportSection::Bounce => "Bounce tracking (§8)",
            ReportSection::Fingerprint => "Fingerprinting experiment (§3.5)",
            ReportSection::Failures => "Crawl failures (§3.3)",
            ReportSection::FaultTolerance => "Fault tolerance",
            ReportSection::Manual => "Manual stage (§3.7.2)",
            ReportSection::CookieSync => "Cookie syncing (§8.2)",
            ReportSection::StepFailures => "Failure independence across steps (§3.3)",
            ReportSection::Cloaking => "CNAME cloaking (§8.3 extension)",
            ReportSection::SpeciesEvasion => "Species evasion (ground truth)",
        }
    }
}

/// Build the slug → section table, failing on a duplicate slug.
///
/// `section_by_slug` used to scan [`ReportSection::ALL`] linearly and
/// silently return the *first* match — a new section accidentally reusing
/// an existing slug would shadow it and every `/report/{slug}` request
/// would serve the wrong bytes. Construction now rejects duplicates.
pub fn build_slug_registry(
    sections: &[ReportSection],
) -> Result<std::collections::BTreeMap<&'static str, ReportSection>, CcError> {
    let mut m = std::collections::BTreeMap::new();
    for s in sections {
        if let Some(prev) = m.insert(s.slug(), *s) {
            return Err(CcError::Config(format!(
                "duplicate report-section slug {:?} ({prev:?} vs {s:?})",
                s.slug()
            )));
        }
    }
    Ok(m)
}

fn slug_registry() -> &'static std::collections::BTreeMap<&'static str, ReportSection> {
    static REGISTRY: std::sync::OnceLock<std::collections::BTreeMap<&'static str, ReportSection>> =
        std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| {
        build_slug_registry(&ReportSection::ALL).expect("ReportSection slugs are unique")
    })
}

/// Look up a section by its kebab-case slug.
pub fn section_by_slug(slug: &str) -> Option<ReportSection> {
    slug_registry().get(slug).copied()
}

/// Build the complete report.
pub fn full_report(
    web: &SimWeb,
    dataset: &CrawlDataset,
    output: &PipelineOutput,
) -> AnalysisReport {
    let _report_span = cc_telemetry::span("report");
    // One timing span per report section, so a hot section (the per-walk
    // scans behind Figure 6, say) is visible in the `--trace` tree.
    fn section<T>(name: &'static str, build: impl FnOnce() -> T) -> T {
        let _section_span = cc_telemetry::span(name);
        build()
    }
    AnalysisReport {
        table1: section("report.table1", || table1(output)),
        summary: section("report.summary", || summarize(output)),
        table3: section("report.table3", || table3(output, 30)),
        orgs: section("report.orgs", || figure4(web, output, 20)),
        categories: section("report.categories", || figure5(web, output)),
        third_parties: section("report.third_parties", || figure6(dataset, output, 20)),
        fig7: section("report.fig7", || figure7(output)),
        fig8: section("report.fig8", || figure8(output)),
        bounce: section("report.bounce", || bounce_stats(output)),
        fingerprint: section("report.fingerprint", || fingerprint_experiment(web, output)),
        failures: dataset.failures(),
        recovery: dataset.recovery_totals(),
        ledger: dataset.ledger(),
        cloaked: section("report.cloaking", || detect_cloaking(web, dataset, output)),
        manual_entered: output.stats.entered_manual,
        manual_removed: output.stats.manual_removed,
        cookie_sync: section("report.cookie_sync", || detect_cookie_sync(dataset)),
        species: section("report.species", || species_evasion(web, output)),
        step_failures: section("report.step_failures", || {
            failures_by_step(
                dataset,
                dataset
                    .walks
                    .iter()
                    .flat_map(|w| w.steps.iter().map(|s| s.index + 1))
                    .max()
                    .unwrap_or(0),
            )
        }),
    }
}

impl AnalysisReport {
    /// The JSON value of one section — the same bytes `/report/{slug}`
    /// serves.
    pub fn section_value(&self, section: ReportSection) -> Result<serde_json::Value, CcError> {
        let serde = |e: serde_json::Error| CcError::Serde(e.to_string());
        Ok(match section {
            ReportSection::Table1 => serde_json::to_value(&self.table1).map_err(serde)?,
            ReportSection::Summary => serde_json::to_value(&self.summary).map_err(serde)?,
            ReportSection::Table3 => serde_json::to_value(&self.table3).map_err(serde)?,
            ReportSection::Orgs => serde_json::to_value(&self.orgs).map_err(serde)?,
            ReportSection::Categories => serde_json::to_value(&self.categories).map_err(serde)?,
            ReportSection::ThirdParties => {
                serde_json::to_value(&self.third_parties).map_err(serde)?
            }
            ReportSection::Fig7 => serde_json::to_value(&self.fig7).map_err(serde)?,
            ReportSection::Fig8 => serde_json::to_value(&self.fig8).map_err(serde)?,
            ReportSection::Bounce => serde_json::to_value(&self.bounce).map_err(serde)?,
            ReportSection::Fingerprint => serde_json::to_value(&self.fingerprint).map_err(serde)?,
            ReportSection::Failures => serde_json::to_value(&self.failures).map_err(serde)?,
            ReportSection::FaultTolerance => {
                let mut m = serde_json::Map::new();
                m.insert(
                    "recovery".into(),
                    serde_json::to_value(&self.recovery).map_err(serde)?,
                );
                m.insert(
                    "ledger".into(),
                    serde_json::to_value(&self.ledger).map_err(serde)?,
                );
                serde_json::Value::Object(m)
            }
            ReportSection::Manual => {
                let mut m = serde_json::Map::new();
                m.insert(
                    "entered".into(),
                    serde_json::to_value(&self.manual_entered).map_err(serde)?,
                );
                m.insert(
                    "removed".into(),
                    serde_json::to_value(&self.manual_removed).map_err(serde)?,
                );
                serde_json::Value::Object(m)
            }
            ReportSection::CookieSync => serde_json::to_value(&self.cookie_sync).map_err(serde)?,
            ReportSection::StepFailures => {
                serde_json::to_value(&self.step_failures).map_err(serde)?
            }
            ReportSection::Cloaking => serde_json::to_value(&self.cloaked).map_err(serde)?,
            ReportSection::SpeciesEvasion => serde_json::to_value(&self.species).map_err(serde)?,
        })
    }

    /// [`Self::section_value`] serialized to a JSON string.
    pub fn section_json(&self, section: ReportSection) -> Result<String, CcError> {
        serde_json::to_string(&self.section_value(section)?)
            .map_err(|e| CcError::Serde(e.to_string()))
    }

    /// Render the report as paper-style text tables.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== {} ==", ReportSection::Table1.heading());
        for (combo, count) in &self.table1.rows {
            let _ = writeln!(s, "  {:<48} {:>6}", combo.label(), count);
        }

        let sm = &self.summary;
        let _ = writeln!(s, "\n== {} ==", ReportSection::Summary.heading());
        let _ = writeln!(
            s,
            "  Unique URL Paths                    {:>8}",
            sm.unique_url_paths
        );
        let _ = writeln!(
            s,
            "  Unique URL Paths w/ UID Smuggling   {:>8}",
            sm.unique_url_paths_smuggling
        );
        let _ = writeln!(
            s,
            "  Unique Domain Paths w/ UID Smuggling{:>8}",
            sm.unique_domain_paths_smuggling
        );
        let _ = writeln!(
            s,
            "  Unique Redirectors                  {:>8}",
            sm.unique_redirectors
        );
        let _ = writeln!(
            s,
            "  Dedicated Smugglers                 {:>8}",
            sm.dedicated_smugglers
        );
        let _ = writeln!(
            s,
            "  Multi-Purpose Smugglers             {:>8}",
            sm.multi_purpose_smugglers
        );
        let _ = writeln!(
            s,
            "  Unique Originators                  {:>8}",
            sm.unique_originators
        );
        let _ = writeln!(
            s,
            "  Unique Destinations                 {:>8}",
            sm.unique_destinations
        );
        let _ = writeln!(
            s,
            "  >> UID smuggling on {} of unique URL paths",
            sm.smuggling_rate()
        );

        let _ = writeln!(s, "\n== {} ==", ReportSection::Table3.heading());
        for r in &self.table3 {
            let _ = writeln!(
                s,
                "  {:<44}{} {:>5}  {:>5.1}%",
                r.redirector,
                if r.multi_purpose { "*" } else { " " },
                r.count,
                r.pct_domain_paths
            );
        }

        let _ = writeln!(s, "\n== {} ==", ReportSection::Orgs.heading());
        let _ = writeln!(s, "  Originators:");
        for (org, n) in &self.orgs.originators {
            let _ = writeln!(s, "    {org:<40} {n:>5}");
        }
        let _ = writeln!(s, "  Destinations:");
        for (org, n) in &self.orgs.destinations {
            let _ = writeln!(s, "    {org:<40} {n:>5}");
        }

        let _ = writeln!(s, "\n== {} ==", ReportSection::Categories.heading());
        for (cat, n) in &self.categories.originators {
            let dest = self
                .categories
                .destinations
                .iter()
                .find(|(c, _)| c == cat)
                .map(|(_, n)| *n)
                .unwrap_or(0);
            let _ = writeln!(s, "  {:<32} {:>4} / {:>4}", cat.label(), n, dest);
        }

        let _ = writeln!(s, "\n== {} ==", ReportSection::ThirdParties.heading());
        for r in &self.third_parties {
            let _ = writeln!(
                s,
                "  {:<36} {:>5} requests ({} via full-URL leak only)",
                r.domain, r.requests, r.via_full_url_only
            );
        }

        let _ = writeln!(s, "\n== {} ==", ReportSection::Fig7.heading());
        for b in &self.fig7 {
            let _ = writeln!(
                s,
                "  {:>2} redirectors: {:>4} paths  (2+ dedicated: {}, 1: {}, none: {})",
                b.redirectors,
                b.total(),
                b.two_plus_dedicated,
                b.one_dedicated,
                b.no_dedicated
            );
        }

        let _ = writeln!(s, "\n== {} ==", ReportSection::Fig8.heading());
        for b in &self.fig8 {
            let _ = writeln!(
                s,
                "  {:<44} {:>4}  (dedicated in path: {}, none: {})",
                b.portion.label(),
                b.total(),
                b.with_dedicated,
                b.without_dedicated
            );
        }

        let _ = writeln!(s, "\n== {} ==", ReportSection::Bounce.heading());
        let _ = writeln!(s, "  Bounce-only paths: {}", self.bounce.bounce_rate());
        let _ = writeln!(
            s,
            "  Navigational tracking total: {}",
            self.bounce.navigational_tracking_rate()
        );

        let fp = &self.fingerprint;
        let _ = writeln!(s, "\n== {} ==", ReportSection::Fingerprint.heading());
        let _ = writeln!(
            s,
            "  Smuggling from fingerprinting sites: {}",
            fp.fp_share()
        );
        let _ = writeln!(
            s,
            "  Multi-crawler: {:.0}% (fingerprinting) vs {:.0}% (rest)",
            fp.fp_multi_rate() * 100.0,
            fp.non_fp_multi_rate() * 100.0
        );
        if let Some(z) = fp.z_test {
            let _ = writeln!(s, "  Two-proportion Z = {:.2}, p = {:.4}", z.z, z.p_value);
        }
        let _ = writeln!(s, "  Estimated missed cases: {:.1}", fp.estimated_missed);

        let f = &self.failures;
        let _ = writeln!(s, "\n== {} ==", ReportSection::Failures.heading());
        let _ = writeln!(
            s,
            "  Sync failures:    {:.1}%",
            f.sync_failure_rate() * 100.0
        );
        let _ = writeln!(s, "  Divergences:      {:.1}%", f.divergence_rate() * 100.0);
        let _ = writeln!(
            s,
            "  Connect failures: {:.1}%",
            f.connect_failure_rate() * 100.0
        );

        let r = &self.recovery;
        let _ = writeln!(s, "\n== {} ==", ReportSection::FaultTolerance.heading());
        let _ = writeln!(
            s,
            "  Retries: {} ({} recovered, {} exhausted, {} ms backoff)",
            r.retries, r.recovered, r.exhausted, r.backoff_ms
        );
        let _ = writeln!(
            s,
            "  Circuit breaker: {} trips, {} fast-fails",
            r.breaker_trips, r.breaker_fast_fails
        );
        let _ = writeln!(s, "  Degraded walks: {}", self.ledger.len());
        for e in self.ledger.entries.iter().take(10) {
            let _ = writeln!(
                s,
                "    walk {:>4} from {:<28} {} steps, {:?}",
                e.walk_id, e.seeder, e.steps_recorded, e.termination
            );
        }
        if self.ledger.len() > 10 {
            let _ = writeln!(s, "    ... and {} more", self.ledger.len() - 10);
        }

        let _ = writeln!(s, "\n== {} ==", ReportSection::Manual.heading());
        let _ = writeln!(
            s,
            "  {} of {} candidate tokens removed by hand",
            self.manual_removed, self.manual_entered
        );

        let _ = writeln!(s, "\n== {} ==", ReportSection::CookieSync.heading());
        let _ = writeln!(
            s,
            "  {} synced values across {} tracker pairs ({} crossed top-level sites)",
            self.cookie_sync.synced_values,
            self.cookie_sync.pairs.len(),
            self.cookie_sync.cross_site_values
        );

        let _ = writeln!(s, "\n== {} ==", ReportSection::StepFailures.heading());
        for row in &self.step_failures.rows {
            let _ = writeln!(
                s,
                "  step {:>2}: {:>5} attempts, {:>4} failures ({:.1}%)",
                row.step,
                row.attempts,
                row.failures,
                row.rate() * 100.0
            );
        }
        let _ = writeln!(s, "  chi-square vs pooled rate: {:.1}", self.step_failures.chi_square);

        if !self.cloaked.is_empty() {
            let _ = writeln!(s, "\n== {} ==", ReportSection::Cloaking.heading());
            for c in &self.cloaked {
                let _ = writeln!(s, "  {} -> {}", c.host, c.canonical);
            }
        }

        if !self.species.is_empty() {
            let _ = writeln!(s, "\n== {} ==", ReportSection::SpeciesEvasion.heading());
            for r in &self.species.rows {
                let _ = writeln!(
                    s,
                    "  {:<16} {:>2} trackers {:>4} findings  P {:.2}  R {:.2}  \
                     evades strip {:>3.0}% debounce {:>3.0}%  itp-flag {:>3.0}%  defeats: {}",
                    r.species,
                    r.trackers,
                    r.findings,
                    r.precision,
                    r.recall,
                    r.strip_evasion * 100.0,
                    r.debounce_evasion * 100.0,
                    r.itp_flag_rate * 100.0,
                    if r.defeats.is_empty() {
                        "-".to_string()
                    } else {
                        r.defeats.join(", ")
                    }
                );
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_crawler::{CrawlConfig, Walker};
    use cc_web::{generate, WebConfig};

    fn report() -> AnalysisReport {
        let web = generate(&WebConfig::small());
        let ds = Walker::new(
            &web,
            CrawlConfig {
                seed: 5,
                steps_per_walk: 5,
                max_walks: Some(15),
                connect_failure_rate: 0.0,
                ..CrawlConfig::default()
            },
        )
        .crawl();
        let out = cc_core::run_pipeline(&ds);
        full_report(&web, &ds, &out)
    }

    #[test]
    fn full_report_is_coherent() {
        let r = report();
        // Table 1 total equals findings count via summary linkage.
        let t1_total: u64 = r.table1.rows.iter().map(|(_, n)| n).sum();
        assert!(t1_total > 0, "no UIDs found");
        assert!(r.summary.unique_url_paths > 0);
        assert!(r.summary.unique_url_paths_smuggling <= r.summary.unique_url_paths);
        assert_eq!(
            r.summary.dedicated_smugglers + r.summary.multi_purpose_smugglers,
            r.summary.unique_redirectors
        );
        // Figure 8 totals equal the UID count.
        let f8: u64 = r.fig8.iter().map(|b| b.total()).sum();
        assert_eq!(f8, t1_total);
    }

    #[test]
    fn render_contains_all_sections() {
        let text = report().render();
        for section in [
            "Table 1",
            "Table 2",
            "Table 3",
            "Figure 4",
            "Figure 5",
            "Figure 6",
            "Figure 7",
            "Figure 8",
            "Bounce tracking",
            "Fingerprinting experiment",
            "Crawl failures",
            "Fault tolerance",
            "Manual stage",
            "Cookie syncing",
            "Failure independence",
        ] {
            assert!(text.contains(section), "missing section {section}");
        }
    }

    #[test]
    fn slugs_are_unique_kebab_case_and_round_trip() {
        let mut seen = std::collections::BTreeSet::new();
        for s in ReportSection::ALL {
            let slug = s.slug();
            assert!(seen.insert(slug), "duplicate slug {slug}");
            assert!(!slug.is_empty());
            assert!(
                slug.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "slug {slug:?} is not kebab-case"
            );
            assert!(!slug.starts_with('-') && !slug.ends_with('-'));
            assert_eq!(section_by_slug(slug), Some(s));
        }
        assert_eq!(section_by_slug("no-such-section"), None);
        assert_eq!(section_by_slug("Table-1"), None, "slugs are case-sensitive");
    }

    #[test]
    fn renderer_banners_and_sections_are_exhaustive() {
        let text = report().render();
        let banners: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("== ").and_then(|l| l.strip_suffix(" ==")))
            .collect();
        // Every banner the renderer prints is an addressable section...
        for b in &banners {
            assert!(
                ReportSection::ALL.iter().any(|s| s.heading() == *b),
                "renderer banner {b:?} has no ReportSection"
            );
        }
        // ...and every section appears in the render (cloaking and the
        // species matrix only when there are findings to print).
        for s in ReportSection::ALL {
            if matches!(s, ReportSection::Cloaking | ReportSection::SpeciesEvasion) {
                continue;
            }
            assert!(
                banners.contains(&s.heading()),
                "section {s:?} missing from render"
            );
        }
    }

    #[test]
    fn species_section_renders_when_species_present() {
        let web = generate(&WebConfig::small().all_species());
        let ds = Walker::new(
            &web,
            CrawlConfig {
                seed: 5,
                steps_per_walk: 5,
                max_walks: Some(20),
                connect_failure_rate: 0.0,
                ..CrawlConfig::default()
            },
        )
        .crawl();
        let out = cc_core::run_pipeline(&ds);
        let r = full_report(&web, &ds, &out);
        assert!(!r.species.is_empty());
        assert!(r
            .render()
            .contains(ReportSection::SpeciesEvasion.heading()));
        // Baseline render stays species-free.
        assert!(!report()
            .render()
            .contains(ReportSection::SpeciesEvasion.heading()));
    }

    #[test]
    fn slug_registry_rejects_duplicates() {
        let ok = build_slug_registry(&ReportSection::ALL).unwrap();
        assert_eq!(ok.len(), ReportSection::ALL.len());
        let err = build_slug_registry(&[ReportSection::Table1, ReportSection::Table1]);
        assert!(
            matches!(err, Err(cc_util::CcError::Config(ref m)) if m.contains("table-1")),
            "duplicate slug must be a constructor error: {err:?}"
        );
    }

    #[test]
    fn pre_species_reports_still_deserialize() {
        let r = report();
        let v = serde_json::to_value(&r).unwrap();
        // A report serialized before the species field existed.
        let pruned: serde_json::Map = v
            .as_object()
            .unwrap()
            .iter()
            .filter(|(k, _)| k.as_str() != "species")
            .map(|(k, val)| (k.clone(), val.clone()))
            .collect();
        let back: AnalysisReport =
            serde_json::from_value(serde_json::Value::Object(pruned)).unwrap();
        assert!(back.species.is_empty());
    }

    #[test]
    fn every_section_serves_valid_json() {
        let r = report();
        for s in ReportSection::ALL {
            let json = r.section_json(s).unwrap();
            let value: serde_json::Value = serde_json::from_str(&json).unwrap();
            assert_eq!(
                serde_json::to_string(&value).unwrap(),
                json,
                "section {s:?} JSON is not canonical"
            );
        }
    }

    #[test]
    fn report_serializes() {
        let r = report();
        let json = serde_json::to_string(&r).unwrap();
        let back: AnalysisReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.summary, r.summary);
    }
}
