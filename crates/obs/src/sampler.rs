//! Periodic observability sampling into a bounded ring.
//!
//! The sampler is the bridge between the *instantaneous* readings the
//! live server answers (`/progress`, `/metrics`) and the *time-series*
//! the dashboard draws: every `interval` it folds one [`ObsSample`] —
//! progress totals plus rates, the serve inflight gauge, the worst
//! queue-starvation gauge, and latency quantiles — into a
//! [`SnapshotRing`], dropping the oldest sample once the retention
//! window fills.
//!
//! Like everything in this crate it is observation-only: relaxed atomic
//! loads and short collector locks, never a write into crawl state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cc_telemetry::{Collector, ObsSample, SnapshotRing};
use cc_util::ProgressCounters;

/// Gauge read as the inflight-requests series (populated by cc-serve).
const INFLIGHT_GAUGE: &str = "serve.inflight";
/// Gauge prefix whose per-worker max becomes the starvation series
/// (populated by the parallel crawl executor).
const STARVATION_PREFIX: &str = "crawl.worker.queue_starvation";
/// Histograms tried in order for the latency quantile series: a serve
/// session records the first, a crawl the second.
const LATENCY_HISTOGRAMS: [&str; 2] = ["serve.latency", "net.sim_latency"];

/// Samples a run's ring retains (oldest dropped beyond this). At the
/// default 250 ms interval that is a 10-minute window, plenty for any
/// test crawl and bounded (~55KB of samples) for a long one.
pub const RING_CAPACITY: usize = 2_400;

/// How a [`Sampler`] paces itself.
#[derive(Debug, Clone, Copy)]
pub struct SamplerConfig {
    /// Time between samples.
    pub interval: Duration,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            interval: Duration::from_millis(250),
        }
    }
}

/// A background thread snapshotting observability signals on a fixed
/// cadence. Create with [`Sampler::start`]; the ring it fills is shared
/// up front so a live server can answer `/timeseries` concurrently.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Spawn the sampling thread. `collector` and `progress` may each be
    /// absent; the corresponding fields stay zero. One sample is taken
    /// immediately so even a sub-interval run has a data point.
    pub fn start(
        config: SamplerConfig,
        ring: Arc<SnapshotRing>,
        collector: Option<Arc<Collector>>,
        progress: Option<Arc<ProgressCounters>>,
    ) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("cc-obs-sampler".into())
                .spawn(move || {
                    let started = Instant::now();
                    loop {
                        // Read the flag before sampling, so the sample
                        // that ends the loop is taken after shutdown was
                        // asked for and reflects the finished run.
                        let stopping = stop.load(Ordering::SeqCst);
                        ring.push(take_sample(
                            started.elapsed().as_secs_f64(),
                            collector.as_deref(),
                            progress.as_deref(),
                        ));
                        if stopping {
                            break;
                        }
                        // Sleep in small slices so shutdown never waits a
                        // full interval.
                        let deadline = Instant::now() + config.interval;
                        while Instant::now() < deadline {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                })
                .ok()
        };
        Sampler { stop, thread }
    }

    /// Stop the thread, take one final sample (so the dashboard's last
    /// point reflects the finished run), and join.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for Sampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sampler")
            .field("running", &self.thread.is_some())
            .finish()
    }
}

/// Fold the current readings into one sample. Public so tests can take
/// a sample without a thread.
pub fn take_sample(
    t_s: f64,
    collector: Option<&Collector>,
    progress: Option<&ProgressCounters>,
) -> ObsSample {
    let mut sample = ObsSample {
        t_s,
        ..ObsSample::default()
    };
    if let Some(p) = progress {
        let snap = p.snapshot();
        sample.walks = snap.walks;
        sample.steps = snap.steps;
        sample.walks_per_sec = snap.walks_per_sec;
        sample.steps_per_sec = snap.steps_per_sec;
    }
    if let Some(c) = collector {
        sample.inflight = c.gauge_value(INFLIGHT_GAUGE).unwrap_or(0.0);
        sample.starvation = c.gauge_prefix_max(STARVATION_PREFIX).unwrap_or(0.0);
        for name in LATENCY_HISTOGRAMS {
            if let Some(summary) = c.histogram_summary(name) {
                if summary.count > 0 {
                    sample.latency_p50_ms = summary.p50_ms;
                    sample.latency_p99_ms = summary.p99_ms;
                    break;
                }
            }
        }
    }
    sample
}
