//! Species-evaluation harness: crawl a world seeded with every evasion
//! species and hold the pipeline to measured precision/recall floors
//! against the ground-truth ledger — then replay the §7 defenses to show
//! *which* species each defense structurally misses (DESIGN.md §5f).
//!
//! The two headline demonstrations the matrix must support:
//!
//! * **SPA-pushState defeats ITP's navigation-hop detector**: its flows
//!   have zero redirect hops, so the detector never sees its domains.
//! * **CNAME-cloaked defeats link-decoration stripping**: its parameter
//!   names are first-party words, absent from any blocklist.

use std::collections::BTreeMap;

use cc_core::pipeline::PipelineOutput;
use cc_core::truth_eval::{score, score_by_tracker, TruthScore};
use cc_crawler::{CrawlConfig, Walker};
use cc_defense::itp::ItpClassifier;
use cc_defense::protected::{rewriter_for, Protection};
use cc_url::Host;
use cc_web::script::TokenTruth;
use cc_web::{generate, SimWeb, TrackerId, TrackerKind, WebConfig};
use proptest::prelude::*;

fn species_world() -> WebConfig {
    WebConfig::small().all_species()
}

fn crawl_cfg() -> CrawlConfig {
    CrawlConfig {
        seed: 5,
        steps_per_walk: 5,
        max_walks: Some(40),
        connect_failure_rate: 0.0,
        ..CrawlConfig::default()
    }
}

fn crawl(web: &SimWeb, protection: Protection) -> PipelineOutput {
    let cfg = CrawlConfig {
        rewriter: rewriter_for(protection),
        ..crawl_cfg()
    };
    cc_core::run_pipeline(&Walker::new(web, cfg).crawl())
}

/// Tracker-id → species kind for every species tracker in the world.
fn species_kinds(web: &SimWeb) -> BTreeMap<TrackerId, TrackerKind> {
    web.trackers
        .iter()
        .filter(|t| t.kind.is_species())
        .map(|t| (t.id, t.kind))
        .collect()
}

/// Per-species scorecards: ledger-attributed TP/FN summed over each
/// species' trackers.
fn species_scores(web: &SimWeb, output: &PipelineOutput) -> BTreeMap<TrackerKind, TruthScore> {
    let kinds = species_kinds(web);
    let truth = web.truth_snapshot();
    let mut per_kind: BTreeMap<TrackerKind, TruthScore> = BTreeMap::new();
    for (tid, card) in score_by_tracker(&output.groups, &truth) {
        let Some(kind) = kinds.get(&tid) else { continue };
        let s = per_kind.entry(*kind).or_default();
        s.true_positives += card.true_positives;
        s.false_negatives += card.false_negatives;
        s.fingerprint_misses += card.fingerprint_misses;
    }
    per_kind
}

/// Confirmed findings per species, attributed through the truth ledger.
fn species_findings(web: &SimWeb, output: &PipelineOutput) -> BTreeMap<TrackerKind, usize> {
    let kinds = species_kinds(web);
    let truth = web.truth_snapshot();
    let mut per_kind: BTreeMap<TrackerKind, usize> = BTreeMap::new();
    for f in &output.findings {
        let tid = f.values.values().flatten().find_map(|v| match truth.get(v) {
            Some(TokenTruth::Uid {
                tracker: Some(tid), ..
            }) => Some(tid),
            _ => None,
        });
        if let Some(kind) = tid.and_then(|tid| kinds.get(&tid)) {
            *per_kind.entry(*kind).or_default() += 1;
        }
    }
    per_kind
}

#[test]
fn every_species_yields_candidate_groups_and_meets_recall_floors() {
    let web = generate(&species_world());
    let output = crawl(&web, Protection::None);
    let scores = species_scores(&web, &output);

    for kind in TrackerKind::SPECIES {
        let label = kind.species_label().unwrap();
        let s = scores
            .get(&kind)
            .unwrap_or_else(|| panic!("{label}: no ledger-attributed groups at all"));
        let judged = s.true_positives + s.false_negatives;
        assert!(judged > 0, "{label}: no non-fingerprint UID reached a verdict");
        // The pipeline was not told about the species; a UID that crosses
        // contexts should still classify as a UID most of the time. The
        // floor is deliberately loose — the load-bearing claim is that
        // *recovery happens at all* and is measured, not that it is perfect.
        assert!(
            s.recall() >= 0.5,
            "{label}: recall {:.2} fell below the 0.5 floor ({s:?})",
            s.recall()
        );
    }
}

#[test]
fn species_add_no_new_false_positive_classes() {
    let web = generate(&species_world());
    let output = crawl(&web, Protection::None);
    let truth = web.truth_snapshot();
    let s = score(&output.groups, &truth);
    assert!(
        s.true_positives > 0,
        "species world produced no true positives: {s:?}"
    );
    // Planting evaders must not poison the classifier: every false
    // positive travels under a baseline parameter name (in practice the
    // long-standing `sid` session-id confusion), never a species one.
    let species_params: std::collections::BTreeSet<&str> = web
        .trackers
        .iter()
        .filter(|t| t.kind.is_species())
        .map(|t| t.uid_param.as_str())
        .collect();
    for g in &output.groups {
        if g.verdict != cc_core::classify::Verdict::Uid {
            continue;
        }
        let label = g.values.values().flatten().find_map(|v| truth.get(v));
        if matches!(label, Some(l) if !l.is_uid()) {
            assert!(
                !species_params.contains(g.name.as_str()),
                "false positive under species parameter {:?}",
                g.name
            );
        }
    }
    // And aggregate precision stays in the baseline world's neighborhood.
    assert!(
        s.precision() >= 0.7,
        "aggregate precision {:.3} collapsed ({s:?})",
        s.precision()
    );
}

#[test]
fn stripping_is_defeated_by_cname_cloaking_but_kills_spa_decoration() {
    let web = generate(&species_world());
    let baseline = species_findings(&web, &crawl(&web, Protection::None));
    let stripped = species_findings(&web, &crawl(&web, Protection::StripParams));

    let base_cname = baseline.get(&TrackerKind::CnameCloaked).copied().unwrap_or(0);
    let base_spa = baseline.get(&TrackerKind::SpaPushState).copied().unwrap_or(0);
    assert!(base_cname > 0, "baseline crawl found no cname-cloaked smuggling");
    assert!(base_spa > 0, "baseline crawl found no spa-pushstate smuggling");

    // CNAME-cloaked decorations use first-party parameter names unknown to
    // the blocklist: click-time stripping cannot touch them.
    let strip_cname = stripped.get(&TrackerKind::CnameCloaked).copied().unwrap_or(0);
    assert!(
        strip_cname * 2 >= base_cname,
        "stripping should leave cname-cloaked mostly intact: {base_cname} -> {strip_cname}"
    );

    // SPA-pushState decorates with a well-known parameter name right on the
    // link, where the click-time rewriter looks: stripping eliminates it.
    let strip_spa = stripped.get(&TrackerKind::SpaPushState).copied().unwrap_or(0);
    assert_eq!(
        strip_spa, 0,
        "stripping should eliminate spa-pushstate findings: {base_spa} -> {strip_spa}"
    );

    // The bounce-reminter's UID is born mid-chain, after the click-time
    // rewriter already ran: stripping cannot remove what does not exist yet.
    let base_remint = baseline.get(&TrackerKind::RemintBouncer).copied().unwrap_or(0);
    let strip_remint = stripped.get(&TrackerKind::RemintBouncer).copied().unwrap_or(0);
    assert!(base_remint > 0, "baseline crawl found no bounce-remint smuggling");
    assert!(
        strip_remint > 0,
        "mid-chain reminting should survive stripping: {base_remint} -> {strip_remint}"
    );
}

#[test]
fn itp_hop_detector_never_flags_spa_or_cname_but_flags_remint() {
    let web = generate(&species_world());
    let output = crawl(&web, Protection::None);

    let mut itp = ItpClassifier::new();
    for path in &output.paths {
        itp.observe_path(path);
    }
    assert!(!itp.is_empty(), "the crawl observed no redirectors at all");

    let domain = |fqdn: &str| Host::parse(fqdn).unwrap().registered_domain();
    let mut remint_flagged = 0usize;
    for t in web.trackers.iter().filter(|t| t.kind.is_species()) {
        match t.kind {
            // Zero-hop species: structurally invisible to a detector that
            // only looks at redirect chains.
            TrackerKind::SpaPushState | TrackerKind::CnameCloaked => assert!(
                !itp.is_smuggler(&domain(&t.fqdn)),
                "{} ({:?}) must not be flagged by the hop detector",
                t.fqdn,
                t.kind
            ),
            TrackerKind::RemintBouncer => {
                remint_flagged += usize::from(itp.is_smuggler(&domain(&t.fqdn)));
            }
            _ => {}
        }
    }
    assert!(
        remint_flagged > 0,
        "bounce-remint redirects are observable hops; ITP should flag them"
    );
}

#[test]
fn species_matrix_floors_match_the_harness() {
    // The analysis-layer matrix is computed from the same primitives; its
    // per-row precision/recall must satisfy the same floors the raw
    // harness enforces, so report consumers can trust the rendered table.
    let web = generate(&species_world());
    let output = crawl(&web, Protection::None);
    let matrix = cc_analysis::species_evasion(&web, &output);
    assert_eq!(matrix.rows.len(), TrackerKind::SPECIES.len());
    for row in &matrix.rows {
        assert!(
            row.recall >= 0.5,
            "{}: matrix recall {:.2} below floor",
            row.species,
            row.recall
        );
        assert!(
            row.precision >= 0.9,
            "{}: matrix precision {:.2} below floor",
            row.species,
            row.precision
        );
        assert!(row.findings > 0, "{}: no confirmed findings", row.species);
    }
}

/// Count ground-truth UIDs per minting tracker.
fn uid_census(web: &SimWeb) -> BTreeMap<Option<TrackerId>, usize> {
    let mut census: BTreeMap<Option<TrackerId>, usize> = BTreeMap::new();
    for (_, label) in web.truth_snapshot().iter() {
        if let TokenTruth::Uid { tracker, .. } = label {
            *census.entry(tracker).or_default() += 1;
        }
    }
    census
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Truth-label counts are conserved between serial and parallel crawls
    /// of an all-species world: no species mints more (or fewer) UIDs just
    /// because workers interleaved differently.
    #[test]
    fn species_truth_labels_conserved_serial_vs_parallel(
        seed in 0u64..3,
        workers in 2usize..6,
    ) {
        let cfg = WebConfig { seed, ..species_world() };
        let crawl_cfg = CrawlConfig {
            seed,
            steps_per_walk: 4,
            max_walks: Some(12),
            connect_failure_rate: 0.0,
            ..CrawlConfig::default()
        };

        let serial_web = generate(&cfg);
        Walker::new(&serial_web, crawl_cfg).crawl();
        let serial = uid_census(&serial_web);

        let study = cc_crawler::StudyConfig::builder()
            .web(cfg)
            .seed(seed)
            .steps(4)
            .walks(12)
            .failure_rate(0.0)
            .workers(workers)
            .build()
            .unwrap();
        let parallel_web = generate(&study.web);
        cc_crawler::crawl_study(&parallel_web, &study).unwrap();
        let parallel = uid_census(&parallel_web);

        prop_assert_eq!(&serial, &parallel, "per-tracker UID counts diverged");
        // Every species tracker that minted serially minted identically in
        // parallel (the census keys cover them via species_kinds).
        for (tid, kind) in species_kinds(&serial_web) {
            let n = serial.get(&Some(tid)).copied().unwrap_or(0);
            let m = parallel.get(&Some(tid)).copied().unwrap_or(0);
            prop_assert_eq!(n, m, "tracker {:?} ({:?})", tid, kind);
        }
    }
}
