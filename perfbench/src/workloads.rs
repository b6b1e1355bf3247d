//! The four workloads.
//!
//! Each one prepares its reference outputs outside any timed region, then
//! runs iterations. An iteration times the public calls one command of the
//! study makes, from the first call into the program until the final
//! output is in memory or on disk, and then checks that output against
//! the reference. Every workload runs the default world of `cc report`
//! (2,000 sites, 1,000 seeders, ten steps). The benchmark seed derives the
//! crawl seeds of several studies, which a run's iterations take in
//! rotation; the program only ever sees the generated studies.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use cc_analysis::report::{full_report, ReportSection};
use cc_crawler::{
    crawl_study, crawl_walk_ids, CrawlCheckpoint, CrawlDataset, StudyConfig, StudyRun,
    WalkTermination, Walker,
};
use cc_gaggle::{Frame, GaggleConfig, Manager, ManagerOptions, WorkerConfig};
use cc_serve::{ServeConfig, Server, ServingIndex};
use cc_telemetry::{RunReport, Session};
use cc_util::{DetRng, ProgressCounters, ProgressSnapshot};
use cc_web::{generate, SimWeb, WebConfig};

use crate::client::{self, Catalog, Conn};
use crate::layers::{self, Carve, Kind, LayerRow, Metric, Phase};
use crate::stats::{median, quantile};

/// Repeats of each call timed after a traced iteration to carve it by
/// layer (the median is used). A checkpoint load or a checkpointed crawl
/// varies by about a tenth from one call to the next, and the layer that
/// keeps what is left of the carved call would inherit that.
const CARVE_REPEATS: usize = 3;

/// Studies per run. The world stays the default one, because its shape
/// sets how large the truth ledger grows and the checkpoint cost grows
/// with the square of the ledger: across world seeds checkpoint_crawl's
/// wall time ranged over 1.7–2.7 s. Crawl seeds move it too (2.3–3.6 s
/// over twenty seeds), so a run rotates through several studies and
/// reports the mean over studies of each study's median, so that its
/// figures do not hang on one seed. A run measures whole rotations, so
/// every study weighs the same. study_report's costs grow linearly
/// with its 1,000 walks and vary less between seeds, and its serial
/// reference is the dearest to prepare, so it takes fewer.
const STUDIES: usize = 8;
const REPORT_STUDIES: usize = 4;
/// checkpoint_crawl: walks crawled, checkpoint cadence, and the walk count
/// after which the first leg drains gracefully.
const CHECKPOINT_WALKS: usize = 200;
const CHECKPOINT_EVERY: usize = 50;
const CHECKPOINT_STOP_AFTER: usize = 100;
/// serve_load: walks in the served checkpoint and the open-loop schedule.
const SERVE_WALKS: usize = 200;
const SERVE_RATE_PER_S: f64 = 2_000.0;
const SERVE_REQUESTS: usize = 1_000;
/// gaggle_crawl: walks, workers (each with one crawl thread) and lease size.
const GAGGLE_WALKS: usize = 250;
const GAGGLE_WORKERS: usize = 2;
const LEASE_WALKS: usize = 25;

/// What one iteration measured.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Which of the run's studies the iteration ran.
    pub study: usize,
    /// Failed correctness checks; an iteration with any is not timed.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Program set-up before the timed region, when the iteration has its own.
    pub setup_s: Option<f64>,
    pub wall_s: f64,
    pub walks: usize,
    /// The phase walks are processed in (`walks_per_s` = walks / this).
    pub walk_phase_s: f64,
    pub latencies_ms: Vec<f64>,
    pub send_lag_ms: Vec<f64>,
    /// The public calls the benchmark timed, in order.
    pub phases: Vec<Phase>,
    /// Readings taken by the benchmark, keyed by metric name: per-layer
    /// ones, and the workload-specific end-to-end ones (`resume_s`,
    /// `ready_s`, bytes per walk).
    pub readings: BTreeMap<&'static str, f64>,
    pub carve: Carve,
    /// Peak resident memory while the iteration ran.
    pub peak_rss_mb: f64,
}

impl Iteration {
    fn new(study: usize) -> Iteration {
        Iteration {
            study,
            ..Iteration::default()
        }
    }

    fn phase(&mut self, call: &'static str, kind: Kind, secs: f64, bytes: u64) {
        self.phases.push(Phase {
            call,
            kind,
            ms: secs * 1e3,
            bytes,
        });
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// A 64-bit digest of an output too large to keep a copy of.
fn digest(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

pub trait Workload {
    /// How many studies the iterations take in rotation.
    fn studies(&self) -> usize;

    /// Run one iteration; `traced` asks for the readings the layer table
    /// needs.
    fn iteration(&mut self, traced: bool) -> Result<Iteration, String>;

    /// Readings taken after the traced iteration with telemetry off.
    fn after_trace(&mut self, _it: &mut Iteration) -> Result<(), String> {
        Ok(())
    }

    /// Set-up times measured while preparing, for workloads whose
    /// iterations share their set-up.
    fn setup_samples(&self) -> Vec<f64> {
        Vec::new()
    }
}

/// The crawl seeds of a run's `n` studies, derived from the benchmark seed.
fn crawl_seeds(seed: u64, n: usize) -> Vec<u64> {
    let root = DetRng::new(seed);
    (0..n as u64)
        .map(|k| root.fork_indexed("perfbench.study", k).next())
        .collect()
}

/// The default study of `cc report` with `seed` as its crawl seed.
fn study(seed: u64, walks: Option<usize>, workers: usize) -> Result<StudyConfig, String> {
    let web = WebConfig {
        n_sites: 2_000,
        n_seeders: 1_000,
        ..WebConfig::default()
    };
    let mut b = StudyConfig::builder().web(web).seed(seed).workers(workers);
    if let Some(w) = walks {
        b = b.walks(w);
    }
    b.build().map_err(|e| e.to_string())
}

/// Index of the study the next iteration runs, in rotation over `n`.
fn rotate(next: &mut usize, n: usize) -> usize {
    let k = *next % n;
    *next += 1;
    k
}

pub fn prepare(
    name: &str,
    seed: u64,
    threads: usize,
    dir: &Path,
) -> Result<Box<dyn Workload>, String> {
    let seeds = crawl_seeds(seed, STUDIES);
    Ok(match name {
        "study_report" => Box::new(StudyReport::prepare(
            &crawl_seeds(seed, REPORT_STUDIES),
            threads,
        )?),
        "checkpoint_crawl" => Box::new(CheckpointCrawl::prepare(&seeds, threads, dir)?),
        "serve_load" => Box::new(ServeLoad::prepare(&seeds, threads, dir)?),
        "gaggle_crawl" => Box::new(GaggleCrawl::prepare(&seeds, threads)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Per-layer readings every crawl reports.
fn crawl_readings(it: &mut Iteration, dataset: &CrawlDataset, progress: &[ProgressSnapshot]) {
    let walks = dataset.walks.len().max(1) as f64;
    let completed = dataset
        .walks
        .iter()
        .filter(|w| w.termination == WalkTermination::Completed)
        .count() as f64;
    it.readings
        .insert("crawler.walks_completed_ratio", completed / walks);
    it.readings
        .insert("crawler.steps", dataset.total_steps() as f64);
    // A worker's starvation compares its walks to a fair share: 0 is an
    // even split, 1 a worker that got nothing.
    let starvation = progress
        .iter()
        .flat_map(|p| {
            let fair = p.walks as f64 / p.per_worker.len().max(1) as f64;
            p.per_worker.iter().map(move |w| {
                if fair > 0.0 {
                    (1.0 - w.walks as f64 / fair).max(0.0)
                } else {
                    0.0
                }
            })
        })
        .fold(0.0, f64::max);
    it.readings.insert("crawler.starvation_max", starvation);
}

// ---------------------------------------------------------------- study_report

/// `cc report` on the default study: crawl, extract and classify, report,
/// render. No files and no encoding.
struct StudyReport {
    threads: usize,
    /// Each study with its reference rendering.
    studies: Vec<(StudyConfig, String)>,
    next: usize,
}

impl StudyReport {
    fn prepare(seeds: &[u64], threads: usize) -> Result<StudyReport, String> {
        let mut studies = Vec::new();
        for &seed in seeds {
            let study = study(seed, None, threads)?;
            // The reference is a serial Walker crawl of the same study.
            let web = generate(&study.web);
            let dataset = Walker::new(&web, study.crawl_config()).crawl();
            let output = cc_core::run_pipeline(&dataset);
            let reference = full_report(&web, &dataset, &output).render();
            studies.push((study, reference));
        }
        Ok(StudyReport {
            threads,
            studies,
            next: 0,
        })
    }
}

impl Workload for StudyReport {
    fn studies(&self) -> usize {
        self.studies.len()
    }

    fn iteration(&mut self, _traced: bool) -> Result<Iteration, String> {
        let k = rotate(&mut self.next, self.studies.len());
        let (study, reference) = &self.studies[k];
        let mut it = Iteration::new(k);
        let (web, setup) = time(|| generate(&study.web));
        it.setup_s = Some(setup);
        it.readings.insert("web.generate_ms", setup * 1e3);

        let progress = ProgressCounters::new(self.threads);
        let t0 = Instant::now();
        let (dataset, s) = time(|| StudyRun::new(&web, study).progress(&progress).run());
        let dataset = dataset.map_err(|e| e.to_string())?;
        let crawl = Kind::Crawl {
            threads: self.threads,
        };
        it.phase("StudyRun::run", crawl, s, 0);
        it.walk_phase_s = s;
        let (output, s) = time(|| cc_core::run_pipeline(&dataset));
        it.phase("run_pipeline", Kind::Plain("cc-core"), s, 0);
        let (report, s) = time(|| full_report(&web, &dataset, &output));
        it.phase("full_report", Kind::Plain("cc-analysis"), s, 0);
        let (text, s) = time(|| report.render());
        it.phase("render", Kind::Plain("cc-analysis"), s, text.len() as u64);
        it.wall_s = t0.elapsed().as_secs_f64();

        it.walks = dataset.walks.len();
        crawl_readings(&mut it, &dataset, &[progress.snapshot()]);
        it.readings
            .insert("core.uid_findings", output.findings.len() as f64);
        it.check(&text == reference, || {
            "rendered report differs from the serial Walker reference".into()
        });
        it.attempted = 1;
        it.failed = u64::from(!it.problems.is_empty());
        Ok(it)
    }
}

// ------------------------------------------------------------ checkpoint_crawl

/// `cc crawl --checkpoint` killed partway, then `--resume` to the end and
/// `--out`: checkpoint writes, a checkpoint load, and the dataset encoding.
struct CheckpointCrawl {
    threads: usize,
    studies: Vec<CheckpointStudy>,
    checkpoint: PathBuf,
    out: PathBuf,
    next: usize,
    /// The study the last iteration ran.
    last: usize,
}

struct CheckpointStudy {
    study: StudyConfig,
    /// The same study without a checkpoint policy.
    plain: StudyConfig,
    /// Digest of the dataset of one uninterrupted crawl without checkpoints.
    reference: u64,
}

impl CheckpointCrawl {
    fn prepare(seeds: &[u64], threads: usize, dir: &Path) -> Result<CheckpointCrawl, String> {
        let checkpoint = dir.join("crawl.checkpoint.json");
        let mut studies = Vec::new();
        for &seed in seeds {
            let plain = study(seed, Some(CHECKPOINT_WALKS), threads)?;
            let mut study = plain.clone();
            study.checkpoint = Some(cc_crawler::CheckpointPolicy {
                path: checkpoint.display().to_string(),
                every: CHECKPOINT_EVERY,
            });
            let web = generate(&plain.web);
            let dataset = crawl_study(&web, &plain).map_err(|e| e.to_string())?;
            let json = dataset.to_json().map_err(|e| e.to_string())?;
            studies.push(CheckpointStudy {
                study,
                plain,
                reference: digest(&json),
            });
        }
        Ok(CheckpointCrawl {
            threads,
            studies,
            out: dir.join("dataset.json"),
            checkpoint,
            next: 0,
            last: 0,
        })
    }
}

impl Workload for CheckpointCrawl {
    fn studies(&self) -> usize {
        self.studies.len()
    }

    fn iteration(&mut self, _traced: bool) -> Result<Iteration, String> {
        self.last = rotate(&mut self.next, self.studies.len());
        let case = &self.studies[self.last];
        let study = &case.study;
        let mut it = Iteration::new(self.last);
        let _ = std::fs::remove_file(&self.checkpoint);
        let _ = std::fs::remove_file(&self.out);
        let (web, setup) = time(|| generate(&study.web));
        it.setup_s = Some(setup);
        it.readings.insert("web.generate_ms", setup * 1e3);
        let crawl = Kind::Crawl {
            threads: self.threads,
        };

        let first = ProgressCounters::new(self.threads);
        let second = ProgressCounters::new(self.threads);
        let t0 = Instant::now();
        let (partial, leg1) = time(|| {
            StudyRun::new(&web, study)
                .stop_after(CHECKPOINT_STOP_AFTER)
                .progress(&first)
                .run()
        });
        partial.map_err(|e| e.to_string())?;
        it.phase("StudyRun::run (stop_after)", crawl, leg1, 0);
        let (ck, resume) = time(|| {
            CrawlCheckpoint::load(&self.checkpoint).and_then(|ck| {
                ck.validate_against(study)?;
                Ok(ck)
            })
        });
        let ck = ck.map_err(|e| e.to_string())?;
        let read = Kind::Plain("cc-crawler/checkpoint-read");
        it.phase("CrawlCheckpoint::load", read, resume, 0);
        it.readings.insert("resume_s", resume);
        it.readings
            .insert("crawler.checkpoint_load_ms", resume * 1e3);
        let (dataset, leg2) = time(|| {
            StudyRun::new(&web, study)
                .resume(ck)
                .progress(&second)
                .run()
        });
        let dataset = dataset.map_err(|e| e.to_string())?;
        it.phase("StudyRun::run (resume)", crawl, leg2, 0);
        let (json, s) = time(|| dataset.to_json());
        let json = json.map_err(|e| e.to_string())?;
        let encoding = Kind::Plain("cc-crawler/dataset");
        it.phase("CrawlDataset::to_json", encoding, s, json.len() as u64);
        let (written, s) = time(|| std::fs::write(&self.out, &json));
        written.map_err(|e| format!("{}: {e}", self.out.display()))?;
        it.phase("write dataset", encoding, s, 0);
        it.wall_s = t0.elapsed().as_secs_f64();

        it.walks = dataset.walks.len();
        it.walk_phase_s = leg1 + leg2;
        crawl_readings(&mut it, &dataset, &[first.snapshot(), second.snapshot()]);
        let checkpoint_bytes = std::fs::metadata(&self.checkpoint).map_or(0, |m| m.len());
        let json_bytes = json.len() as f64;
        it.readings
            .insert("crawler.checkpoint_bytes", checkpoint_bytes as f64);
        it.readings.insert("crawler.dataset_bytes", json_bytes);
        it.readings.insert(
            "dataset_bytes_per_walk",
            json_bytes / it.walks.max(1) as f64,
        );
        it.check(digest(&json) == case.reference, || {
            "stopped-and-resumed dataset differs from an uninterrupted crawl".into()
        });
        it.attempted = 1;
        it.failed = u64::from(!it.problems.is_empty());
        Ok(it)
    }

    fn after_trace(&mut self, it: &mut Iteration) -> Result<(), String> {
        // One write of the final checkpoint, re-saved from the file the
        // crawl left behind.
        let ck = CrawlCheckpoint::load(&self.checkpoint).map_err(|e| e.to_string())?;
        let replay = self.checkpoint.with_extension("replay.json");
        let (saved, s) = time(|| ck.save(&replay));
        saved.map_err(|e| e.to_string())?;
        let _ = std::fs::remove_file(&replay);
        it.readings.insert("crawler.checkpoint_save_ms", s * 1e3);

        // The checkpoint overhead: the traced iteration's two crawl legs
        // minus the same two legs without the checkpoint policy, each time
        // on a fresh world under a telemetry session as the traced
        // iteration ran, resuming from a checkpoint built in memory. Both
        // sides so carry the same instrumentation and legs, and only the
        // policy's writes differ (each leg ends with one, so the drained
        // leg adds a write). The plain side is the small one (about a twentieth
        // of the other), so its noise barely moves the difference.
        let plain = &self.studies[self.last].plain;
        let mut plain_ms = Vec::new();
        for _ in 0..CARVE_REPEATS {
            let web = generate(&plain.web);
            let session = Session::start();
            let (partial, leg1) = time(|| {
                StudyRun::new(&web, plain)
                    .stop_after(CHECKPOINT_STOP_AFTER)
                    .run()
            });
            let partial = partial.map_err(|e| e.to_string())?;
            let ck = CrawlCheckpoint::new(plain, partial, web.truth_snapshot());
            let (dataset, leg2) = time(|| StudyRun::new(&web, plain).resume(ck).run());
            drop(session);
            dataset.map_err(|e| e.to_string())?;
            plain_ms.push((leg1 + leg2) * 1e3);
        }
        let checkpointed: f64 = it
            .phases
            .iter()
            .filter(|p| matches!(p.kind, Kind::Crawl { .. }))
            .map(|p| p.ms)
            .sum();
        it.carve.checkpoint_overhead_ms = checkpointed - median(&plain_ms);
        it.readings.insert(
            "crawler.checkpoint_overhead_ms",
            it.carve.checkpoint_overhead_ms,
        );
        Ok(())
    }
}

// ------------------------------------------------------------------ serve_load

/// `serve --load` of a finished checkpoint, then an open-loop request
/// phase with cc-loadgen's `mixed` weights.
struct ServeLoad {
    threads: usize,
    studies: Vec<ServeStudy>,
    setups: Vec<f64>,
    next: usize,
    /// The study the last iteration ran.
    last: usize,
}

struct ServeStudy {
    checkpoint: PathBuf,
    plan: Vec<client::Planned>,
    /// `/report/{section}` → the offline `section_json`.
    sections: BTreeMap<String, String>,
}

impl ServeLoad {
    fn prepare(seeds: &[u64], threads: usize, dir: &Path) -> Result<ServeLoad, String> {
        let mut studies = Vec::new();
        let mut setups = Vec::new();
        for (k, &seed) in seeds.iter().enumerate() {
            let study = study(seed, Some(SERVE_WALKS), threads)?;
            let checkpoint = dir.join(format!("serve-{k}.checkpoint.json"));
            let t = Instant::now();
            let web = generate(&study.web);
            let dataset = crawl_study(&web, &study).map_err(|e| e.to_string())?;
            let ck = CrawlCheckpoint::new(&study, dataset, web.truth_snapshot());
            ck.save(&checkpoint).map_err(|e| e.to_string())?;
            setups.push(t.elapsed().as_secs_f64());

            // The offline report of the same crawl is the reference.
            let output = cc_core::run_pipeline(&ck.partial);
            let report = full_report(&web, &ck.partial, &output);
            let mut sections = BTreeMap::new();
            for s in ReportSection::ALL {
                let body = report.section_json(s).map_err(|e| e.to_string())?;
                sections.insert(format!("/report/{}", s.slug()), body);
            }
            let mut domains = std::collections::BTreeSet::new();
            for f in &output.findings {
                domains.insert(f.origin.clone());
                domains.extend(f.destination.clone());
                domains.extend(f.redirectors.iter().cloned());
            }
            let catalog = Catalog {
                sections: ReportSection::ALL
                    .iter()
                    .map(|s| s.slug().to_string())
                    .collect(),
                walks: ck.partial.walks.iter().map(|w| w.walk_id).collect(),
                domains: domains.into_iter().collect(),
            };
            studies.push(ServeStudy {
                checkpoint,
                plan: client::plan(seed, SERVE_REQUESTS, &catalog),
                sections,
            });
        }
        Ok(ServeLoad {
            threads,
            studies,
            setups,
            next: 0,
            last: 0,
        })
    }
}

impl Workload for ServeLoad {
    fn studies(&self) -> usize {
        self.studies.len()
    }

    fn iteration(&mut self, traced: bool) -> Result<Iteration, String> {
        self.last = rotate(&mut self.next, self.studies.len());
        let case = &self.studies[self.last];
        let mut it = Iteration::new(self.last);
        let t0 = Instant::now();
        let (index, s) = time(|| ServingIndex::from_checkpoint_path(&case.checkpoint));
        let index = index.map_err(|e| e.to_string())?;
        it.phase("ServingIndex::from_checkpoint_path", Kind::IndexBuild, s, 0);
        it.walks = index.walks();
        if traced {
            it.readings
                .insert("core.uid_findings", index.findings() as f64);
            let (routes, bytes) = index.routes().fold((0u64, 0u64), |(n, b), (_, body)| {
                (n + 1, b + body.body.len() as u64)
            });
            it.readings.insert("serve.routes", routes as f64);
            it.readings.insert("serve.body_bytes", bytes as f64);
        }
        let t_start = Instant::now();
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: self.threads,
            ..ServeConfig::default()
        };
        let server = Server::start(index, cfg).map_err(|e| e.to_string())?;
        let addr = server.addr();
        let served = (|| -> Result<(f64, client::Outcome), String> {
            let mut conns = (0..self.threads)
                .map(|_| Conn::connect(addr))
                .collect::<Result<Vec<_>, _>>()?;
            let healthz = conns[0].call(&client::request(addr, "/healthz")?)?;
            if !healthz.status.is_success() {
                return Err(format!("/healthz answered {}", healthz.status.0));
            }
            let ready = t0.elapsed().as_secs_f64();
            let outcome = client::run(addr, conns, &case.plan, SERVE_RATE_PER_S, &case.sections)?;
            Ok((ready, outcome))
        })();
        let wall = t0.elapsed().as_secs_f64();
        let metrics = server.shutdown();
        let (ready, outcome) = served?;

        let started = ready - t_start.duration_since(t0).as_secs_f64();
        let serve = Kind::Plain("cc-serve");
        it.phase("Server::start + first answer", serve, started, 0);
        let bytes = outcome.response_bytes;
        it.phase("open-loop requests", Kind::Requests, wall - ready, bytes);
        it.readings.insert("ready_s", ready);
        it.wall_s = wall;
        it.walk_phase_s = ready;
        it.latencies_ms = outcome.latencies_ms;
        it.send_lag_ms = outcome.send_lag_ms;
        let count = |name: &str| layers::counter(&metrics, name) as f64;
        let requests = count("serve.requests");
        it.readings.insert("serve.requests", requests);
        it.readings.insert("serve.shed", count("serve.shed"));
        it.readings.insert("serve.5xx", count("serve.5xx"));
        it.readings.insert(
            "serve.revalidated_304_ratio",
            count("serve.revalidated_304") / requests.max(1.0),
        );
        it.readings
            .insert("client.response_bytes", outcome.response_bytes as f64);
        it.carve.server_busy_ms = metrics
            .timing
            .histograms
            .get("serve.latency")
            .map_or(0.0, |h| h.count as f64 * h.mean_ms);
        it.problems.extend(outcome.mismatches);
        it.check(outcome.errors == 0, || {
            format!("{} requests failed or went unanswered", outcome.errors)
        });
        it.attempted = outcome.sent + 1;
        it.failed = outcome.errors + u64::from(!it.problems.is_empty());
        Ok(it)
    }

    fn after_trace(&mut self, it: &mut Iteration) -> Result<(), String> {
        // The first two steps of `from_checkpoint_path`, timed one at a
        // time on the same file to carve the traced call by layer.
        let path = &self.studies[self.last].checkpoint;
        let (mut loads, mut generates) = (Vec::new(), Vec::new());
        for _ in 0..CARVE_REPEATS {
            let (ck, s) = time(|| CrawlCheckpoint::load(path));
            let ck = ck.map_err(|e| e.to_string())?;
            loads.push(s * 1e3);
            let (web, s) = time(|| generate(&ck.study.web));
            drop(web);
            generates.push(s * 1e3);
        }
        it.carve.checkpoint_load_ms = median(&loads);
        it.carve.generate_ms = median(&generates);
        it.readings
            .insert("crawler.checkpoint_load_ms", it.carve.checkpoint_load_ms);
        it.readings.insert("web.generate_ms", it.carve.generate_ms);
        Ok(())
    }

    fn setup_samples(&self) -> Vec<f64> {
        self.setups.clone()
    }
}

// ---------------------------------------------------------------- gaggle_crawl

/// `crawl --gaggle 2`: a manager and in-process workers over loopback.
struct GaggleCrawl {
    workers: usize,
    /// Each study with the digest of its in-process crawl's dataset.
    studies: Vec<(StudyConfig, u64)>,
    next: usize,
    last: usize,
    last_web: Option<Arc<SimWeb>>,
}

impl GaggleCrawl {
    fn prepare(seeds: &[u64], threads: usize) -> Result<GaggleCrawl, String> {
        let mut studies = Vec::new();
        for &seed in seeds {
            // One crawl thread per worker.
            let study = study(seed, Some(GAGGLE_WALKS), 1)?;
            // The reference is the same study crawled in one process.
            let mut solo = study.clone();
            solo.workers = threads;
            let web = generate(&solo.web);
            let dataset = crawl_study(&web, &solo).map_err(|e| e.to_string())?;
            let json = dataset.to_json().map_err(|e| e.to_string())?;
            studies.push((study, digest(&json)));
        }
        Ok(GaggleCrawl {
            workers: GAGGLE_WORKERS.min(threads),
            studies,
            next: 0,
            last: 0,
            last_web: None,
        })
    }
}

impl Workload for GaggleCrawl {
    fn studies(&self) -> usize {
        self.studies.len()
    }

    fn iteration(&mut self, traced: bool) -> Result<Iteration, String> {
        self.last = rotate(&mut self.next, self.studies.len());
        let (study, reference) = &self.studies[self.last];
        let mut it = Iteration::new(self.last);
        let progress = Arc::new(ProgressCounters::new(self.workers));
        let cfg = GaggleConfig {
            bind: "127.0.0.1:0".into(),
            workers_expected: self.workers,
            lease_walks: LEASE_WALKS,
            lease_timeout_ms: 3_000,
        };
        let opts = ManagerOptions {
            resume: None,
            progress: Some(Arc::clone(&progress)),
        };
        // Manager::start generates the world and binds: set-up, untimed.
        let (manager, setup) = time(|| Manager::start(study, cfg, opts));
        let manager = manager.map_err(|e| e.to_string())?;
        it.setup_s = Some(setup);
        let t0 = Instant::now();
        let addr = manager.addr().to_string();
        let outcome = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.workers)
                .map(|i| {
                    let cfg = WorkerConfig {
                        connect: addr.clone(),
                        label: format!("perfbench-{i}"),
                    };
                    scope.spawn(move || cc_gaggle::run_worker(&cfg))
                })
                .collect();
            let outcome = manager.join();
            for w in workers {
                w.join()
                    .expect("gaggle worker thread panicked")
                    .map_err(|e| e.to_string())?;
            }
            outcome.map_err(|e| e.to_string())
        })?;
        let crawl = t0.elapsed().as_secs_f64();
        it.wall_s = crawl;
        let stats = &outcome.stats;
        let wire = stats.bytes_sent + stats.bytes_received;
        let gaggle = Kind::Gaggle {
            threads: self.workers,
        };
        it.phase("run_worker x2 + Manager::join", gaggle, crawl, wire);

        it.walks = outcome.dataset.walks.len();
        it.walk_phase_s = crawl;
        crawl_readings(&mut it, &outcome.dataset, &[progress.snapshot()]);
        for (name, value) in [
            ("gaggle.leases_issued", stats.leases_issued),
            ("gaggle.leases_reissued", stats.leases_reissued),
            ("gaggle.frames", stats.frames_sent + stats.frames_received),
            ("gaggle.bytes_received", stats.bytes_received),
        ] {
            it.readings.insert(name, value as f64);
        }
        it.readings
            .insert("wire_bytes_per_walk", wire as f64 / it.walks.max(1) as f64);
        let json = outcome.dataset.to_json().map_err(|e| e.to_string())?;
        it.check(digest(&json) == *reference, || {
            "gaggle dataset differs from the in-process crawl".into()
        });
        if traced {
            self.last_web = Some(Arc::clone(&outcome.web));
        }
        it.attempted = 1 + stats.leases_issued;
        it.failed =
            stats.leases_reissued + stats.leases_expired + u64::from(!it.problems.is_empty());
        Ok(it)
    }

    fn after_trace(&mut self, it: &mut Iteration) -> Result<(), String> {
        let study = &self.studies[self.last].0;
        // Every gaggle member generates the world; time one generation.
        let (web, s) = time(|| generate(&study.web));
        it.readings.insert("web.generate_ms", s * 1e3);
        // The last lease's ShardResult, carrying the run's final ledger
        // (what a lone worker ships with its last lease).
        let first = (GAGGLE_WALKS - 1) / LEASE_WALKS * LEASE_WALKS;
        let ids: Vec<u32> = (first as u32..GAGGLE_WALKS as u32).collect();
        let shard = crawl_walk_ids(&web, study, &ids);
        let truth = match &self.last_web {
            Some(w) => w.truth_snapshot(),
            None => web.truth_snapshot(),
        };
        let frame = Frame::ShardResult {
            lease_id: 1,
            shard,
            truth,
        };
        let mut buf = Vec::new();
        let (written, s) = time(|| cc_gaggle::write_frame(&mut buf, &frame));
        written.map_err(|e| e.to_string())?;
        it.readings.insert("gaggle.shard_frame_encode_ms", s * 1e3);
        let (read, s) = time(|| cc_gaggle::read_frame(&mut buf.as_slice()));
        let (decoded, _) = read.map_err(|e| e.to_string())?;
        it.readings.insert("gaggle.shard_frame_decode_ms", s * 1e3);
        it.check(decoded == frame, || {
            "ShardResult frame did not round-trip".into()
        });
        Ok(())
    }
}

// ---------------------------------------------------------------------- metrics

/// The end-to-end metrics of a run, from its untraced iterations.
pub fn end_to_end(w: &dyn Workload, samples: &[Iteration]) -> Vec<Metric> {
    let mut setup: Vec<f64> = w.setup_samples();
    setup.extend(samples.iter().filter_map(|it| it.setup_s));
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m("setup_s", median(&setup), "s"),
        m("wall_s", study_mean(samples, |it| it.wall_s), "s"),
        m(
            "walks_per_s",
            study_mean(samples, |it| it.walks as f64 / it.walk_phase_s),
            "1/s",
        ),
        m(
            "peak_rss_mb",
            study_mean(samples, |it| it.peak_rss_mb),
            "MB",
        ),
    ]
}

/// The mean over the run's studies of each study's median reading.
fn study_mean(samples: &[Iteration], reading: impl Fn(&Iteration) -> f64) -> f64 {
    let mut by_study: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for it in samples {
        by_study.entry(it.study).or_default().push(reading(it));
    }
    by_study.values().map(|v| median(v)).sum::<f64>() / by_study.len() as f64
}

/// The traced iteration with its telemetry and layer table.
pub struct Traced {
    pub iteration: Iteration,
    pub report: RunReport,
    pub table: Vec<LayerRow>,
}

pub fn traced(w: &mut dyn Workload) -> Result<Traced, String> {
    let session = Session::start();
    let iteration = w.iteration(true);
    let report = session.report();
    drop(session);
    let mut iteration = iteration?;
    w.after_trace(&mut iteration)?;
    let table = layers::table(
        &iteration.phases,
        &report,
        iteration.carve,
        iteration.wall_s * 1e3,
    );
    Ok(Traced {
        iteration,
        report,
        table,
    })
}

/// The per-layer metrics, in `BENCHMARK.json` order. A layer a workload
/// does not run reads 0.
pub fn per_layer(
    samples: &[Iteration],
    traced: &Traced,
    attempted: u64,
    failed: u64,
    cores: usize,
) -> Vec<Metric> {
    let it = &traced.iteration;
    let r = &traced.report;
    let reading = |name: &str| it.readings.get(name).copied().unwrap_or(0.0);
    let phase_ms = |pred: &dyn Fn(&Phase) -> bool| -> f64 {
        it.phases
            .iter()
            .filter(|p| pred(p))
            .fold(0.0, |acc, p| acc + p.ms)
    };
    let sum = |name: &str| layers::span(r, name);
    let walk = sum("crawl.walk");
    let crawl_ms = match it
        .phases
        .iter()
        .find(|p| matches!(p.kind, Kind::Gaggle { .. }))
    {
        Some(Phase {
            kind: Kind::Gaggle { threads },
            ..
        }) => sum("crawl.worker").total_ms / (*threads).max(1) as f64,
        _ => phase_ms(&|p| matches!(p.kind, Kind::Crawl { .. })),
    };
    // Median over the untraced iterations of a reading they took.
    let sampled = |name: &str| {
        let v: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.readings.get(name).copied())
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let latencies: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.latencies_ms.iter().copied())
        .collect();
    let lags: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.send_lag_ms.iter().copied())
        .collect();
    let pct = |v: &[f64], q: f64| if v.is_empty() { 0.0 } else { quantile(v, q) };
    let untraced_wall = median(&samples.iter().map(|s| s.wall_s).collect::<Vec<_>>());
    let unattributed = traced
        .table
        .iter()
        .find(|row| row.layer == "unattributed")
        .map_or(0.0, |row| row.share_of_wall);

    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m("web.generate_ms", reading("web.generate_ms"), "ms"),
        m(
            "browser.navigate_self_ms",
            sum("browser.navigate").self_ms,
            "ms",
        ),
        m("browser.render_ms", sum("browser.render").total_ms, "ms"),
        m(
            "browser.navigations",
            layers::counter(r, "browser.navigations.completed") as f64,
            "count",
        ),
        m(
            "net.connect_ok",
            layers::counter(r, "net.connect.ok") as f64,
            "count",
        ),
        m(
            "net.faults_injected",
            layers::counter_prefix(r, "net.fault.injected.") as f64,
            "count",
        ),
        m(
            "net.retries",
            layers::counter(r, "net.retry.attempt") as f64,
            "count",
        ),
        m("crawler.crawl_ms", crawl_ms, "ms"),
        m(
            "crawler.walk_mean_ms",
            if walk.count > 0 {
                walk.total_ms / walk.count as f64
            } else {
                0.0
            },
            "ms",
        ),
        m("crawler.step_self_ms", sum("crawl.step").self_ms, "ms"),
        m("crawler.steps", reading("crawler.steps"), "count"),
        m(
            "crawler.walks_completed_ratio",
            reading("crawler.walks_completed_ratio"),
            "ratio",
        ),
        m(
            "crawler.starvation_max",
            reading("crawler.starvation_max"),
            "ratio",
        ),
        m(
            "crawler.checkpoint_writes",
            layers::counter(r, "crawl.checkpoint.writes") as f64,
            "count",
        ),
        m(
            "crawler.checkpoint_save_ms",
            reading("crawler.checkpoint_save_ms"),
            "ms",
        ),
        m(
            "crawler.checkpoint_overhead_ms",
            reading("crawler.checkpoint_overhead_ms"),
            "ms",
        ),
        m(
            "crawler.checkpoint_bytes",
            reading("crawler.checkpoint_bytes"),
            "bytes",
        ),
        m(
            "crawler.checkpoint_load_ms",
            reading("crawler.checkpoint_load_ms"),
            "ms",
        ),
        m(
            "crawler.dataset_encode_ms",
            phase_ms(&|p| p.call == "CrawlDataset::to_json"),
            "ms",
        ),
        m(
            "crawler.dataset_bytes",
            reading("crawler.dataset_bytes"),
            "bytes",
        ),
        m("core.pipeline_ms", sum("pipeline").total_ms, "ms"),
        m("core.extract_ms", sum("pipeline.extract").total_ms, "ms"),
        m("core.classify_ms", sum("pipeline.classify").total_ms, "ms"),
        m("core.uid_findings", reading("core.uid_findings"), "count"),
        m("analysis.report_ms", sum("report").total_ms, "ms"),
        m(
            "analysis.third_parties_ms",
            sum("report.third_parties").total_ms,
            "ms",
        ),
        m(
            "analysis.cookie_sync_ms",
            sum("report.cookie_sync").total_ms,
            "ms",
        ),
        m(
            "serve.index_build_ms",
            layers::index_split(phase_ms(&|p| p.kind == Kind::IndexBuild), r, it.carve).serve,
            "ms",
        ),
        m("serve.routes", reading("serve.routes"), "count"),
        m("serve.body_bytes", reading("serve.body_bytes"), "bytes"),
        m("serve.requests", reading("serve.requests"), "count"),
        m("serve.shed", reading("serve.shed"), "count"),
        m("serve.5xx", reading("serve.5xx"), "count"),
        m(
            "serve.revalidated_304_ratio",
            reading("serve.revalidated_304_ratio"),
            "ratio",
        ),
        m("client.send_lag_p99_ms", pct(&lags, 0.99), "ms"),
        m(
            "client.response_bytes",
            reading("client.response_bytes"),
            "bytes",
        ),
        m(
            "gaggle.leases_issued",
            reading("gaggle.leases_issued"),
            "count",
        ),
        m(
            "gaggle.leases_reissued",
            reading("gaggle.leases_reissued"),
            "count",
        ),
        m("gaggle.frames", reading("gaggle.frames"), "count"),
        m(
            "gaggle.bytes_received",
            reading("gaggle.bytes_received"),
            "bytes",
        ),
        m(
            "gaggle.shard_frame_encode_ms",
            reading("gaggle.shard_frame_encode_ms"),
            "ms",
        ),
        m(
            "gaggle.shard_frame_decode_ms",
            reading("gaggle.shard_frame_decode_ms"),
            "ms",
        ),
        m("trace.overhead_share", it.wall_s / untraced_wall, "ratio"),
        m("trace.unattributed_share", unattributed, "ratio"),
        m("resume_s", sampled("resume_s"), "s"),
        m("ready_s", sampled("ready_s"), "s"),
        m("request_p50_ms", pct(&latencies, 0.50), "ms"),
        m("request_p99_ms", pct(&latencies, 0.99), "ms"),
        m(
            "error_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        m(
            "dataset_bytes_per_walk",
            sampled("dataset_bytes_per_walk"),
            "bytes/walk",
        ),
        m(
            "wire_bytes_per_walk",
            sampled("wire_bytes_per_walk"),
            "bytes/walk",
        ),
        m("cpu_cores", cores as f64, "count"),
    ]
}
