//! Metrics, the per-layer table of a traced iteration, and output.
//!
//! The table combines two sources. The benchmark times every public call
//! it makes (a [`Phase`]); the cc-telemetry session of the traced
//! iteration supplies the spans and counters the program already records.
//! Spans recorded on crawl worker threads are summed across threads, so
//! they are divided by the crawl thread count before they are carved out
//! of the phase that ran the crawl.

use std::collections::BTreeMap;

use cc_telemetry::RunReport;

/// One named reading with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// How a timed call's time is split among layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// The whole call belongs to one layer.
    Plain(&'static str),
    /// An in-process crawl on `threads` threads: cc-browser's span time
    /// and the checkpoint overhead are carved out, cc-crawler keeps the
    /// rest.
    Crawl { threads: usize },
    /// A gaggle run (manager join) whose workers crawl on `threads`
    /// threads in all: the crawl is carved out, cc-gaggle keeps the rest.
    Gaggle { threads: usize },
    /// `ServingIndex::from_checkpoint_path`: split by [`index_split`].
    IndexBuild,
    /// The open-loop request phase: cc-serve keeps the server's busy
    /// time, the client keeps the rest (mostly waiting for the schedule).
    Requests,
}

/// One public call the benchmark timed.
#[derive(Debug, Clone)]
pub struct Phase {
    pub call: &'static str,
    pub kind: Kind,
    pub ms: f64,
    pub bytes: u64,
}

/// One row of the layer table.
#[derive(Debug, Clone, Default)]
pub struct LayerRow {
    pub layer: &'static str,
    pub total_ms: f64,
    pub self_ms: f64,
    pub share_of_wall: f64,
    pub count: u64,
    pub bytes: u64,
}

/// Sums over span rollups whose last path segment is `name`.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanSum {
    pub total_ms: f64,
    pub self_ms: f64,
    pub count: u64,
}

pub fn span(report: &RunReport, name: &str) -> SpanSum {
    let mut sum = SpanSum::default();
    for s in &report.timing.spans {
        if s.path.rsplit('/').next() == Some(name) {
            sum.total_ms += s.total_ms;
            sum.self_ms += s.self_ms;
            sum.count += s.count;
        }
    }
    sum
}

pub fn counter(report: &RunReport, name: &str) -> u64 {
    report
        .deterministic
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

pub fn counter_prefix(report: &RunReport, prefix: &str) -> u64 {
    report
        .deterministic
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| v)
        .sum()
}

/// cc-browser's time summed over crawl threads: self time of every
/// `browser.*` span, and total time of the outermost ones.
fn browser_thread_ms(report: &RunReport) -> (f64, f64) {
    let (mut self_ms, mut total_ms) = (0.0, 0.0);
    for s in &report.timing.spans {
        let mut segments = s.path.rsplit('/');
        let last = segments.next().unwrap_or_default();
        if last.starts_with("browser.") {
            self_ms += s.self_ms;
            if !segments.next().unwrap_or_default().starts_with("browser.") {
                total_ms += s.total_ms;
            }
        }
    }
    (self_ms, total_ms)
}

/// Readings the workload took around the traced iteration that the table
/// needs: the checkpoint overhead, the server's busy time, and the
/// checkpoint load and world generation inside the index build.
#[derive(Debug, Default, Clone, Copy)]
pub struct Carve {
    pub checkpoint_overhead_ms: f64,
    pub server_busy_ms: f64,
    pub checkpoint_load_ms: f64,
    pub generate_ms: f64,
}

/// The index build's time by layer.
#[derive(Debug, Clone, Copy)]
pub struct IndexSplit {
    pub read: f64,
    pub web: f64,
    pub core: f64,
    pub analysis: f64,
    /// What is left: cc-serve absorbing the ledger and building routes.
    pub serve: f64,
}

/// Split `ms` of `ServingIndex::from_checkpoint_path` in the order it
/// runs: the checkpoint load and the world generation (both timed again
/// after the traced iteration), the `pipeline` and `report` spans, and
/// cc-serve's own rest.
pub fn index_split(ms: f64, report: &RunReport, carve: Carve) -> IndexSplit {
    let mut rest = ms;
    let mut take = |x: f64| {
        let t = x.clamp(0.0, rest);
        rest -= t;
        t
    };
    let read = take(carve.checkpoint_load_ms);
    let web = take(carve.generate_ms);
    let core = take(span(report, "pipeline").total_ms);
    let analysis = take(span(report, "report").total_ms);
    IndexSplit {
        read,
        web,
        core,
        analysis,
        serve: rest,
    }
}

/// Build the layer table of one traced iteration whose wall time is
/// `wall_ms`.
pub fn table(phases: &[Phase], report: &RunReport, carve: Carve, wall_ms: f64) -> Vec<LayerRow> {
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    let mut add = |layer: &'static str, total: f64, own: f64, count: u64, bytes: u64| {
        let row = rows.entry(layer).or_insert_with(|| LayerRow {
            layer,
            ..LayerRow::default()
        });
        row.total_ms += total;
        row.self_ms += own;
        row.count += count;
        row.bytes += bytes;
    };
    let (browser_self, browser_total) = browser_thread_ms(report);
    let navigations = span(report, "browser.navigate").count;
    let walk_thread_ms = span(report, "crawl.worker").total_ms;
    // The spans cover every crawl of the iteration at once, so the crawl
    // phases (a stopped and a resumed leg) are carved as one.
    let crawls: Vec<&Phase> = phases
        .iter()
        .filter(|p| matches!(p.kind, Kind::Crawl { .. }))
        .collect();
    if let Some(Kind::Crawl { threads }) = crawls.first().map(|p| p.kind) {
        let ms: f64 = crawls.iter().map(|p| p.ms).sum();
        let n = threads.max(1) as f64;
        let durability = carve.checkpoint_overhead_ms.clamp(0.0, ms);
        let browser = (browser_self / n).min(ms - durability);
        add("cc-browser", browser_total / n, browser, navigations, 0);
        add("cc-crawler/checkpoint-write", durability, durability, 0, 0);
        add(
            "cc-crawler/walk",
            ms - durability,
            ms - durability - browser,
            crawls.len() as u64,
            0,
        );
    }
    for p in phases {
        match p.kind {
            Kind::Plain(layer) => add(layer, p.ms, p.ms, 1, p.bytes),
            Kind::Crawl { .. } => {}
            Kind::Gaggle { threads } => {
                let n = threads.max(1) as f64;
                let crawl = (walk_thread_ms / n).min(p.ms);
                let browser = (browser_self / n).min(crawl);
                add("cc-browser", browser_total / n, browser, navigations, 0);
                add("cc-crawler/walk", crawl, crawl - browser, 0, 0);
                add("cc-gaggle", p.ms, p.ms - crawl, 1, p.bytes);
            }
            Kind::IndexBuild => {
                let s = index_split(p.ms, report, carve);
                add("cc-crawler/checkpoint-read", s.read, s.read, 1, 0);
                add("cc-web", s.web, s.web, 1, 0);
                add("cc-core", s.core, s.core, 1, 0);
                add("cc-analysis", s.analysis, s.analysis, 1, 0);
                add("cc-serve", p.ms, s.serve, 1, p.bytes);
            }
            Kind::Requests => {
                let busy = carve.server_busy_ms.clamp(0.0, p.ms);
                add("cc-serve", busy, busy, 0, 0);
                add("client", p.ms, p.ms - busy, 1, p.bytes);
            }
        }
    }
    let mut rows: Vec<LayerRow> = rows.into_values().collect();
    let attributed: f64 = rows.iter().map(|r| r.self_ms).sum();
    for r in &mut rows {
        r.share_of_wall = r.self_ms / wall_ms;
    }
    rows.push(LayerRow {
        layer: "unattributed",
        total_ms: (wall_ms - attributed).max(0.0),
        self_ms: (wall_ms - attributed).max(0.0),
        share_of_wall: ((wall_ms - attributed) / wall_ms).max(0.0),
        count: 0,
        bytes: 0,
    });
    rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
    rows
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The full report line printed before the result line.
pub fn full_report_json(
    workload: &str,
    seed: u64,
    cores: usize,
    walls: &[f64],
    e2e: &[Metric],
    per_layer: &[Metric],
    table: &[LayerRow],
) -> String {
    let walls: Vec<String> = walls.iter().map(|&w| json_number(w)).collect();
    let rows: Vec<String> = table
        .iter()
        .map(|r| {
            format!(
                "\"{}\":{{\"total_ms\":{},\"self_ms\":{},\"share_of_wall\":{},\"count\":{},\"bytes\":{}}}",
                r.layer,
                json_number(r.total_ms),
                json_number(r.self_ms),
                json_number(r.share_of_wall),
                r.count,
                r.bytes
            )
        })
        .collect();
    format!(
        "{{\"schema\":\"perfbench/v1\",\"workload\":\"{workload}\",\"seed\":{seed},\
         \"cpu_cores\":{cores},\"iterations\":{},\
         \"wall_s_per_iteration\":[{}],\"end_to_end\":{},\"per_layer\":{},\"layers\":{{{}}}}}",
        walls.len(),
        walls.join(","),
        metrics_json(e2e),
        metrics_json(per_layer),
        rows.join(",")
    )
}

/// The readable summary written to standard error.
pub fn render_summary(
    workload: &str,
    seed: u64,
    cores: usize,
    iterations: usize,
    e2e: &[Metric],
    per_layer: &[Metric],
    table: &[LayerRow],
) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "perfbench {workload} seed {seed}: {iterations} untraced iterations on {cores} cores"
    );
    for m in e2e.iter().chain(per_layer) {
        let _ = writeln!(s, "  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if !table.is_empty() {
        let _ = writeln!(
            s,
            "  {:<28} {:>11} {:>11} {:>7} {:>9} {:>12}",
            "layer", "total_ms", "self_ms", "share", "count", "bytes"
        );
        for r in table {
            let _ = writeln!(
                s,
                "  {:<28} {:>11.1} {:>11.1} {:>6.1}% {:>9} {:>12}",
                r.layer,
                r.total_ms,
                r.self_ms,
                100.0 * r.share_of_wall,
                r.count,
                r.bytes
            );
        }
    }
    s
}
