//! Hot-path microbenches: token extraction, render caching, per-walk cost.
//!
//! Three hot paths dominate crawl wall-clock: recursive token extraction
//! (`cc_core::extract`), page rendering (`SimWeb::load_page`), and the
//! per-walk setup the executor pays before a walk's first navigation. Each
//! gets a Criterion target plus a wall-clock measurement that lands in the
//! machine-readable `BENCH_hotpath.json` artifact, so regressions show up
//! as diffs.
//!
//! The extraction bench races the shipped extractor against a faithful
//! reimplementation of the pre-optimization algorithm (O(n²) `Vec::contains`
//! dedup, eager percent-decode allocations) on a duplicate-heavy nested
//! fixture, and the harness asserts the shipped one is ≥2× faster — the
//! acceptance bar for the hash-indexed sink rewrite.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use cc_bench::{contention, detected_cores, medium_study, medium_web};
use cc_core::extract::{extract_tokens, Extracted};
use cc_crawler::{crawl_study, CrawlConfig, StudyConfig, Walker};
use cc_net::SimTime;
use cc_url::percent::{decode_component, looks_encoded};
use cc_url::Url;
use cc_util::DetRng;
use cc_web::{ScriptHost, SimWeb, StorageKind};
use criterion::{criterion_group, Criterion};
use serde::Serialize;

// ----------------------------------------------------------------------
// Extraction: shipped extractor vs the pre-optimization baseline
// ----------------------------------------------------------------------

/// Faithful reimplementation of the pre-optimization extractor: dedup via a
/// linear `Vec::contains` scan (quadratic in the leaf count) and eager
/// `decode_component` allocation for every query segment. Semantics are
/// identical to `extract_tokens`; only the costs differ.
mod naive {
    use super::*;

    const MAX_DEPTH: usize = 8;

    pub fn extract_tokens(name: &str, value: &str) -> Vec<Extracted> {
        let mut out = Vec::new();
        walk(name, value, 0, &mut out);
        out
    }

    fn push(out: &mut Vec<Extracted>, name: &str, value: &str) {
        if value.is_empty() {
            return;
        }
        let e = Extracted {
            name: name.to_string(),
            value: value.to_string(),
        };
        if !out.contains(&e) {
            out.push(e);
        }
    }

    fn walk(name: &str, value: &str, depth: usize, out: &mut Vec<Extracted>) {
        if depth >= MAX_DEPTH || value.is_empty() {
            push(out, name, value);
            return;
        }
        if value.starts_with("http://") || value.starts_with("https://") {
            push(out, name, value);
            if let Ok(u) = cc_url::Url::parse(value) {
                for (k, v) in u.query() {
                    walk(k, v, depth + 1, out);
                }
            }
            return;
        }
        let trimmed = value.trim();
        if trimmed.starts_with('{') || trimmed.starts_with('[') {
            if let Ok(json) = serde_json::from_str::<serde_json::Value>(trimmed) {
                walk_json(name, &json, depth + 1, out);
                return;
            }
        }
        if value.contains('=') && is_query_ish(value) {
            for piece in value.split('&').filter(|p| !p.is_empty()) {
                let (k, v) = match piece.split_once('=') {
                    Some((k, v)) => (decode_component(k), decode_component(v)),
                    None => (decode_component(piece), String::new()),
                };
                if v.is_empty() {
                    walk(name, &k, depth + 1, out);
                } else {
                    walk(&k, &v, depth + 1, out);
                }
            }
            return;
        }
        if looks_encoded(value) {
            let decoded = decode_component(value);
            if decoded != value {
                walk(name, &decoded, depth + 1, out);
                return;
            }
        }
        push(out, name, value);
    }

    fn is_query_ish(value: &str) -> bool {
        value.split('&').all(|seg| {
            seg.is_empty()
                || seg
                    .split_once('=')
                    .map(|(k, _)| !k.is_empty() && !k.contains(' '))
                    .unwrap_or(false)
                || !seg.contains('=') && !seg.contains(' ')
        })
    }

    fn walk_json(name: &str, json: &serde_json::Value, depth: usize, out: &mut Vec<Extracted>) {
        match json {
            serde_json::Value::String(s) => walk(name, s, depth, out),
            serde_json::Value::Number(n) => push(out, name, &n.to_string()),
            serde_json::Value::Bool(_) | serde_json::Value::Null => {}
            serde_json::Value::Array(items) => {
                for item in items {
                    walk_json(name, item, depth, out);
                }
            }
            serde_json::Value::Object(map) => {
                for (k, v) in map {
                    walk_json(k, v, depth, out);
                }
            }
        }
    }
}

/// A duplicate-heavy nested payload: a JSON envelope whose dominant leaf
/// volume is a giant URL-encoded blob cycling through a bounded
/// distinct-token vocabulary under one repeated parameter name — so nearly
/// every push is a dedup hit that the quadratic baseline pays a full value
/// scan for. This is the shape tracker beacon values actually take
/// (repeated `u=`/`uid=` parameters accumulated across hops).
fn duplicate_heavy_fixture() -> String {
    let mut rng = DetRng::new(0x4071);
    let distinct: Vec<String> = (0..2_000)
        .map(|i| format!("tok{i:04}{:08x}", rng.next() as u32))
        .collect();
    let ids: Vec<String> = (0..1_000)
        .map(|_| format!("\"{}\"", rng.pick(&distinct)))
        .collect();
    let blob: Vec<String> = (0..20_000)
        .map(|_| format!("u={}", rng.pick(&distinct)))
        .collect();
    let encoded = cc_url::percent::encode_component(&blob[..500].join("&"));
    format!(
        "{{\"ids\":[{}],\"blob\":\"{}\",\"wrapped\":\"{}\"}}",
        ids.join(","),
        blob.join("&"),
        encoded
    )
}

fn bench_extraction(c: &mut Criterion) {
    let fixture = duplicate_heavy_fixture();
    assert_eq!(
        extract_tokens("d", &fixture),
        naive::extract_tokens("d", &fixture),
        "baseline and shipped extractor must agree before racing them"
    );
    let mut group = c.benchmark_group("hotpath/extract");
    group.bench_function("optimized", |b| {
        b.iter(|| black_box(extract_tokens(black_box("d"), black_box(&fixture))).len())
    });
    group.bench_function("naive_quadratic", |b| {
        b.iter(|| black_box(naive::extract_tokens(black_box("d"), black_box(&fixture))).len())
    });
    group.finish();
}

// ----------------------------------------------------------------------
// Page loads: warm render cache vs skeleton rebuilt per load
// ----------------------------------------------------------------------

/// Minimal deterministic ScriptHost for driving `load_page` directly.
struct BenchHost {
    url: Url,
    storage: HashMap<String, String>,
    rng: DetRng,
    beacons: u64,
}

impl BenchHost {
    fn new(url: Url, seed: u64) -> Self {
        BenchHost {
            url,
            storage: HashMap::new(),
            rng: DetRng::new(seed),
            beacons: 0,
        }
    }
}

impl ScriptHost for BenchHost {
    fn page_url(&self) -> &Url {
        &self.url
    }
    fn storage_get(&self, key: &str) -> Option<String> {
        self.storage.get(key).cloned()
    }
    fn storage_set(&mut self, key: &str, value: &str, _kind: StorageKind) {
        self.storage.insert(key.to_string(), value.to_string());
    }
    fn fingerprint(&self) -> u64 {
        0xFACE
    }
    fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }
    fn send_beacon(&mut self, _url: Url) {
        self.beacons += 1;
    }
    fn now(&self) -> SimTime {
        SimTime(1_700_000)
    }
}

/// Drive one `load_page` pass over every seeder; returns total elements to
/// keep the work observable.
fn load_all_seeders(web: &SimWeb, seed: u64) -> usize {
    let mut total = 0;
    for (i, url) in web.seeder_urls().iter().enumerate() {
        let mut host = BenchHost::new(url.clone(), seed ^ i as u64);
        let page = web.load_page(url, &mut host).expect("seeder page loads");
        total += page.elements.len() + host.beacons as usize;
    }
    total
}

fn bench_page_load(c: &mut Criterion) {
    let web = medium_web();
    let mut group = c.benchmark_group("hotpath/page_load");
    group.bench_function("cached", |b| {
        web.set_render_cache(true);
        b.iter(|| black_box(load_all_seeders(web, 11)))
    });
    group.bench_function("uncached", |b| {
        web.set_render_cache(false);
        b.iter(|| black_box(load_all_seeders(web, 11)));
    });
    group.finish();
    web.set_render_cache(true);
}

// ----------------------------------------------------------------------
// Artifact
// ----------------------------------------------------------------------

#[derive(Serialize)]
struct ExtractionSection {
    fixture_bytes: usize,
    distinct_leaves: usize,
    iterations: usize,
    naive_secs: f64,
    optimized_secs: f64,
    /// naive_secs / optimized_secs — must be ≥ 2.0 (asserted).
    throughput_ratio: f64,
}

#[derive(Serialize)]
struct PageLoadSection {
    loads_per_pass: usize,
    passes: usize,
    cached_ms_per_load: f64,
    uncached_ms_per_load: f64,
    /// uncached / cached — the rebuild cost the skeleton cache amortizes.
    cache_speedup: f64,
}

#[derive(Serialize)]
struct PerWalkSection {
    walks: usize,
    serial_ms_per_walk: f64,
    executor_1w_ms_per_walk: f64,
    /// executor / serial — the executor's per-walk overhead factor.
    overhead_ratio: f64,
}

/// Schema `cc-bench/hotpath/v2` is a strict superset of v1 (adds the
/// `contention` section; everything else is unchanged).
#[derive(Serialize)]
struct HotpathArtifact {
    schema: &'static str,
    cpu_cores: usize,
    extraction: ExtractionSection,
    page_load: PageLoadSection,
    per_walk: PerWalkSection,
    /// Telemetry counter hot path: pre-sharding global string-keyed map
    /// vs the per-worker sharded registry path, raced across 4 threads.
    contention: contention::ContentionResult,
}

fn hotpath_report() {
    let cores = detected_cores();

    // Extraction throughput: the ≥2× acceptance bar for the sink rewrite.
    let fixture = duplicate_heavy_fixture();
    let distinct = extract_tokens("d", &fixture).len();
    let iterations = 30;
    let start = Instant::now();
    for _ in 0..iterations {
        black_box(naive::extract_tokens(black_box("d"), &fixture));
    }
    let naive_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for _ in 0..iterations {
        black_box(extract_tokens(black_box("d"), &fixture));
    }
    let optimized_secs = start.elapsed().as_secs_f64();
    let throughput_ratio = naive_secs / optimized_secs;
    println!(
        "extract: naive {naive_secs:.3}s optimized {optimized_secs:.3}s over {iterations} iters"
    );
    assert!(
        throughput_ratio >= 2.0,
        "extraction rewrite must be ≥2x the quadratic baseline on the \
         duplicate-heavy fixture, got {throughput_ratio:.2}x"
    );

    // Page loads: warm cache vs rebuild-per-load over every seeder.
    let web = medium_web();
    let loads = web.seeder_urls().len();
    let passes = 20;
    web.set_render_cache(true);
    load_all_seeders(web, 0); // warm the skeletons before timing
    let start = Instant::now();
    for p in 0..passes {
        black_box(load_all_seeders(web, p as u64));
    }
    let cached_ms = start.elapsed().as_secs_f64() * 1e3 / (passes * loads) as f64;
    web.set_render_cache(false);
    let start = Instant::now();
    for p in 0..passes {
        black_box(load_all_seeders(web, p as u64));
    }
    let uncached_ms = start.elapsed().as_secs_f64() * 1e3 / (passes * loads) as f64;
    web.set_render_cache(true);

    // Per-walk cost: serial Walker vs the 1-worker executor on the same
    // 50-walk prefix — the executor's per-walk overhead, isolated from
    // any parallel speedup.
    let cfg = CrawlConfig {
        seed: 0x9A7A11E1,
        steps_per_walk: 5,
        max_walks: Some(50),
        ..CrawlConfig::default()
    };
    let study = StudyConfig {
        walks: Some(50),
        ..medium_study(1)
    };
    // Best-of-N: a 50-walk crawl is ~tens of ms, so one scheduler hiccup
    // would dominate a single reading.
    let runs = 5;
    let mut serial_ms = f64::INFINITY;
    let mut serial_ds = None;
    for _ in 0..runs {
        let start = Instant::now();
        let ds = Walker::new(web, cfg.clone()).crawl();
        serial_ms = serial_ms.min(start.elapsed().as_secs_f64() * 1e3 / ds.walks.len() as f64);
        serial_ds = Some(ds);
    }
    let serial_ds = serial_ds.expect("at least one serial run");
    let mut par_ms = f64::INFINITY;
    let mut par_ds = None;
    for _ in 0..runs {
        let start = Instant::now();
        let ds = crawl_study(web, &study).expect("crawl runs");
        par_ms = par_ms.min(start.elapsed().as_secs_f64() * 1e3 / ds.walks.len() as f64);
        par_ds = Some(ds);
    }
    let par_ds = par_ds.expect("at least one executor run");
    assert_eq!(serial_ds, par_ds, "1-worker executor diverged from serial");

    // Telemetry counter hot path: 4 threads hammering one counter through
    // the legacy global string-keyed path vs the sharded registry path.
    // Even on one core the sharded path must win (no mutex, no map probe,
    // no key rendering per increment); contention on a multi-core host
    // only widens the gap.
    let contention = contention::race(4, 200_000);
    println!(
        "contention: string path {:.3}s, sharded path {:.3}s over {} threads x {} ops -> {:.1}x",
        contention.string_path_secs,
        contention.sharded_path_secs,
        contention.threads,
        contention.ops_per_thread,
        contention.speedup
    );
    assert!(
        contention.speedup >= 1.5,
        "sharded telemetry hot path must be ≥1.5x the string-keyed map \
         path under threaded load, got {:.2}x",
        contention.speedup
    );

    let artifact = HotpathArtifact {
        schema: "cc-bench/hotpath/v2",
        cpu_cores: cores,
        extraction: ExtractionSection {
            fixture_bytes: fixture.len(),
            distinct_leaves: distinct,
            iterations,
            naive_secs,
            optimized_secs,
            throughput_ratio,
        },
        page_load: PageLoadSection {
            loads_per_pass: loads,
            passes,
            cached_ms_per_load: cached_ms,
            uncached_ms_per_load: uncached_ms,
            cache_speedup: uncached_ms / cached_ms,
        },
        per_walk: PerWalkSection {
            walks: serial_ds.walks.len(),
            serial_ms_per_walk: serial_ms,
            executor_1w_ms_per_walk: par_ms,
            overhead_ratio: par_ms / serial_ms,
        },
        contention,
    };
    let json = serde_json::to_string_pretty(&artifact).expect("artifact serializes");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    std::fs::write(path, &json).expect("BENCH_hotpath.json writes");
    println!(
        "\nhotpath: extraction {throughput_ratio:.2}x vs quadratic baseline, \
         page load {cached_ms:.3}ms cached / {uncached_ms:.3}ms uncached, \
         per-walk overhead {:.2}x",
        par_ms / serial_ms
    );
    println!("  wrote BENCH_hotpath.json");
}

criterion_group! {
    name = hotpath;
    config = Criterion::default().sample_size(10);
    targets = bench_extraction, bench_page_load
}

fn main() {
    hotpath();
    hotpath_report();
}
