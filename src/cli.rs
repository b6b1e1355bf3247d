//! The `crumbcruncher` command-line interface.
//!
//! The paper's pipeline "can be run as an almost entirely automated
//! pipeline to continuously update blocklists" (§7.2); this CLI is that
//! automation surface:
//!
//! ```text
//! crumbcruncher report     [opts]            print every table and figure
//! crumbcruncher crawl      [opts] --out F    run the crawl, dump the dataset JSON
//! crumbcruncher blocklist  [opts] --out F    run + emit the released blocklist bundle
//! crumbcruncher defense    [opts]            score the §7 defenses on a fresh crawl
//! crumbcruncher truth      [opts]            precision/recall against ground truth
//! crumbcruncher serve      [opts]            serve the results over HTTP (cc-serve)
//! crumbcruncher loadgen    [opts] --target A generate load against a serve instance
//! crumbcruncher gaggle     manager|worker    distributed crawl over TCP (cc-gaggle)
//! ```
//!
//! Parsing is a thin layer over [`StudyConfig`]: every flag sets one field
//! of the unified study configuration, and the parsed config is validated
//! by [`StudyConfig::validate`] — the CLI adds no policy of its own.
//! Argument parsing is hand-rolled (the workspace's dependency budget is
//! deliberately small) and lives in the library so it can be unit-tested.

use std::sync::Arc;

use cc_crawler::{CheckpointPolicy, CrawlCheckpoint, StudyConfig};
use cc_net::{BreakerPolicy, RetryPolicy};
use cc_util::CcError;
use cc_web::WebConfig;

/// Which subcommand to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Print the full analysis report.
    Report,
    /// Run the crawl and write the dataset JSON.
    Crawl,
    /// Run everything and write the blocklist artifacts.
    Blocklist,
    /// Score the defenses.
    Defense,
    /// Score the pipeline against ground truth.
    Truth,
    /// Serve a finished study (or a checkpoint) over HTTP.
    Serve,
    /// Generate load against a running serve instance.
    Loadgen,
    /// Distributed crawling: lease walks to workers over TCP (cc-gaggle).
    Gaggle,
    /// Print usage.
    Help,
}

/// Which side of the gaggle wire a `gaggle` invocation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaggleRole {
    /// Bind, partition the walk-id space into leases, assemble shards.
    Manager,
    /// Dial a manager and crawl the leases it streams.
    Worker,
}

/// Parsed CLI invocation: a subcommand plus the [`StudyConfig`] it runs
/// against, with the few flags that are about *this invocation* rather
/// than the study itself (output paths, resume source, telemetry).
#[derive(Debug, Clone)]
pub struct Cli {
    /// Subcommand.
    pub command: Command,
    /// The unified study configuration every flag parses into.
    pub study: StudyConfig,
    /// Worker count as given on the command line (`None` = flag absent;
    /// controls whether the telemetry report carries a worker section).
    pub workers: Option<usize>,
    /// Resume the crawl from this checkpoint file.
    pub resume: Option<String>,
    /// Stop after this many new walks (graceful drain, for exercising
    /// checkpoint/resume).
    pub kill_after: Option<usize>,
    /// Output path for subcommands that write a file.
    pub out: Option<String>,
    /// Write the telemetry run report (JSON) to this path.
    pub metrics_out: Option<String>,
    /// Print the human-readable span tree to stderr after the run.
    pub trace: bool,
    /// Write the run's spans as chrome-trace (`trace_event`) JSON here.
    pub trace_out: Option<String>,
    /// Print the telemetry run report in Prometheus text exposition
    /// format instead of the command's normal output.
    pub prom: bool,
    /// Serve `/progress`, `/metrics`, `/metrics.prom`, and `/timeseries`
    /// from a cc-serve server while the study runs (shut down with it).
    pub obs_addr: Option<String>,
    /// Write the observer's bound address (with the real port) here.
    pub obs_addr_file: Option<String>,
    /// Render the run's snapshot ring into a self-contained HTML
    /// dashboard at this path when the study finishes.
    pub dashboard_out: Option<String>,
    /// `report`: print the analysis report as canonical JSON (the same
    /// bytes a serve instance answers on `/report`).
    pub json: bool,
    /// `serve`: build the index from this crawl checkpoint instead of
    /// running a fresh study.
    pub load: Option<String>,
    /// `serve`: follow a (possibly still growing) checkpoint file — every
    /// growth becomes a fresh served epoch until the crawl completes.
    pub follow: Option<String>,
    /// `serve`: write the bound address (with the real port) here.
    pub addr_file: Option<String>,
    /// `crawl`: serve the crawl live over HTTP at this address while it
    /// runs (in-process epoch publishing).
    pub serve_addr: Option<String>,
    /// `crawl`: write the live server's bound address here.
    pub serve_addr_file: Option<String>,
    /// `crawl`: publish a fresh serving epoch every K completed walks
    /// (default 25; requires `--serve-addr`).
    pub publish_every: Option<usize>,
    /// `loadgen`: the serve instance to aim at.
    pub target: Option<String>,
    /// `loadgen`: concurrent users.
    pub users: Option<usize>,
    /// `loadgen`: requests per user.
    pub duration_requests: Option<usize>,
    /// `loadgen`: task-mix name.
    pub mix: Option<String>,
    /// `loadgen`: write the load report (`BENCH_serve.json`) here.
    pub bench_out: Option<String>,
    /// `gaggle`: which side of the wire this invocation is.
    pub gaggle_role: Option<GaggleRole>,
    /// `gaggle manager`: bind address (default `127.0.0.1:0`, ephemeral).
    pub bind: Option<String>,
    /// `gaggle worker`: the manager address to dial.
    pub connect: Option<String>,
    /// `gaggle manager`: planned worker count (sizes progress slots).
    pub workers_expected: Option<usize>,
    /// Walk ids per lease (`gaggle manager` / `crawl --gaggle`).
    pub lease_walks: Option<usize>,
    /// Lease deadline in milliseconds, renewed by worker heartbeats
    /// (`gaggle manager` / `crawl --gaggle`).
    pub lease_timeout_ms: Option<u64>,
    /// `crawl`: run the crawl as a gaggle, spawning N local worker
    /// processes against an in-process manager.
    pub gaggle: Option<usize>,
}

/// Usage text.
pub const USAGE: &str = "\
crumbcruncher — reproduce 'Measuring UID Smuggling in the Wild' (IMC 2022)

USAGE:
  crumbcruncher <COMMAND> [OPTIONS]

COMMANDS:
  report      crawl the simulated web and print every table and figure
  crawl       run the crawl and write the dataset JSON (requires --out)
  blocklist   run the pipeline and write the released blocklist bundle (requires --out)
  defense     score the §7 countermeasures against a fresh crawl
  truth       score the pipeline against the simulator's ground truth
  serve       serve the analysis over HTTP: /report, /smugglers, /uids/{domain},
              /walks/{id}, /metrics (runs a study, or loads one with --load)
  loadgen     drive a running serve instance with weighted load (requires --target)
  gaggle      distributed crawling: 'gaggle manager' leases the walk-id space to
              workers over TCP; 'gaggle worker' dials in and crawls the leases
  help        print this message

OPTIONS:
  --seed N         master seed (default 0xC0FFEE)
  --sites N        number of sites in the world (default 2000)
  --seeders N      number of seeder domains / walks (default 1000)
  --steps N        steps per walk (default 10)
  --walks N        cap the number of walks
  --species LIST   plant evasion-aware tracker species in the world:
                   'all' or a comma list of remint,etag,consent,spa,cname
                   (two trackers per named species; see DESIGN.md §5f)
  --workers N      crawl with N work-stealing worker threads (0 = one per CPU);
                   results are bit-identical to the serial crawl
  --paper-scale    10,000 sites and seeders, as in the paper's §3.1

FAULT TOLERANCE:
  --failure-rate F     per-connection failure probability in [0, 1]
                       (default 0.033, the paper's observed rate)
  --retries N          retry failed connections up to N attempts with
                       deterministic exponential backoff (0/1 = off)
  --breaker N          trip a per-host circuit breaker after N consecutive
                       failures (0 = off; default off)
  --checkpoint PATH    write a resumable crawl checkpoint to PATH
  --checkpoint-every K checkpoint whenever the walks done, resumed ones
                       included, reach a multiple of K (default 100;
                       requires --checkpoint); a failed write stops the
                       crawl with an error
  --resume PATH        resume a killed crawl from its checkpoint; the final
                       dataset is identical to an uninterrupted run
  --kill-after N       stop the crawl gracefully after N new walks (leaves
                       a checkpoint of them when --checkpoint is set)

SERVING:
  --load PATH          serve from a finished crawl checkpoint instead of crawling
  --follow PATH        serve a crawl *as it runs*: poll its checkpoint file and
                       swap in a fresh epoch whenever it grows (X-Cc-Epoch /
                       Last-Modified advance monotonically; /progress reports
                       walks indexed vs total). The final epoch is byte-identical
                       to --load of the finished checkpoint
  --addr HOST:PORT     bind address (default 127.0.0.1:8040; port 0 = ephemeral)
  --serve-workers N    server worker threads (default 8)
  --max-inflight N     admission bound; connections beyond it are shed with 503
  --addr-file PATH     write the bound address (with the real port) to PATH
  --json               report: print the analysis as canonical JSON — byte-identical
                       to what a serve instance answers on /report

LIVE SERVING (crawl):
  --serve-addr HOST:PORT  serve the crawl over HTTP *while it runs*, in-process:
                          starts at a warming epoch 0, then swaps in a fresh
                          immutable index epoch as walk batches land; keeps
                          serving the final epoch after the crawl until
                          POST /shutdown. Also answers the live routes of
                          --obs-addr (/progress, /timeseries, /metrics)
  --serve-addr-file PATH  write the live server's bound address to PATH
  --publish-every K       publish an epoch every K completed walks (default 25)

DISTRIBUTED CRAWLING (gaggle):
  gaggle manager [study opts]  own the study: lease walks out, assemble shards;
                               the final dataset, report, and checkpoint are
                               byte-identical to a single-process run at any
                               worker count, even after a worker is killed
  gaggle worker --connect A    dial the manager at A and crawl leases; workers
                               take no study flags — the whole study config
                               arrives in the Welcome frame
  --bind HOST:PORT         manager bind address (default 127.0.0.1:0, ephemeral)
  --connect HOST:PORT      manager address a worker dials (required for workers)
  --workers-expected N     how many workers the operator plans to run — sizes
                           the /progress slots; late or extra workers still work
  --lease-walks K          walk ids per lease (default 25; smaller = faster
                           rebalance and recovery, larger = less frame overhead)
  --lease-timeout-ms T     lease deadline, renewed by heartbeats (default 3000);
                           a lease whose holder goes silent past T is re-issued
  --gaggle N               crawl only: run the crawl as a gaggle by spawning N
                           local worker processes — output bytes identical to
                           the in-process crawl
  --addr-file PATH         manager: write the bound address (real port) to PATH

LOAD GENERATION:
  --target HOST:PORT      the serve instance to aim at (required for loadgen)
  --users N               concurrent users, one keep-alive connection each
                          (default 4; keep at or below the server's workers)
  --duration-requests N   requests per user (default 250)
  --mix NAME              task mix: mixed | reports | lookups (default mixed)
  --bench-out PATH        write the load report JSON (BENCH_serve.json shape)

TELEMETRY:
  --out PATH       output file for crawl/blocklist
  --metrics-out P  write the telemetry run report (JSON) to P: counters,
                   latency histograms (p50/p90/p99), span-tree rollups,
                   and per-worker crawl progress
  --trace          print the span tree (wall-clock timings per pipeline
                   stage) to stderr after the run
  --trace-out P    write the run's spans as chrome-trace JSON to P, one
                   track per crawl worker — load it in Perfetto or
                   chrome://tracing
  --prom           print the telemetry run report in Prometheus text
                   exposition format instead of the command's output
                   (e.g. 'report --prom' for a scrape-able run summary)

OBSERVABILITY (watch the crawl while it runs):
  --obs-addr HOST:PORT  serve live observability over HTTP while the
                        study runs: /progress (per-worker walk counts),
                        /metrics (run report JSON), /metrics.prom
                        (Prometheus exposition), /timeseries (snapshot
                        ring). Observation-only: results are
                        byte-identical with it on or off. crawl
                        --serve-addr already answers these routes, so
                        the two flags do not combine
  --obs-addr-file PATH  write the observer's bound address (with the
                        real port) to PATH (requires --obs-addr)
  --dashboard-out PATH  write a self-contained single-file HTML
                        dashboard (throughput, latency quantiles,
                        inflight, starvation over time) when the run ends
";

/// Parse argv (without the program name).
pub fn parse(args: &[String]) -> Result<Cli, CcError> {
    let mut command = None;
    let mut study = StudyConfig {
        web: WebConfig {
            n_sites: 2_000,
            n_seeders: 1_000,
            ..WebConfig::default()
        },
        ..StudyConfig::default()
    };
    let mut workers = None;
    let mut resume = None;
    let mut kill_after = None;
    let mut checkpoint_path: Option<String> = None;
    let mut checkpoint_every: Option<usize> = None;
    let mut out = None;
    let mut metrics_out = None;
    let mut trace = false;
    let mut trace_out = None;
    let mut prom = false;
    let mut obs_addr = None;
    let mut obs_addr_file = None;
    let mut dashboard_out = None;
    let mut json = false;
    let mut load = None;
    let mut follow = None;
    let mut addr_file = None;
    let mut serve_addr = None;
    let mut serve_addr_file = None;
    let mut publish_every = None;
    let mut target = None;
    let mut users = None;
    let mut duration_requests = None;
    let mut mix = None;
    let mut bench_out = None;
    let mut gaggle_role: Option<GaggleRole> = None;
    let mut bind = None;
    let mut connect = None;
    let mut workers_expected = None;
    let mut lease_walks = None;
    let mut lease_timeout_ms = None;
    let mut gaggle = None;

    // Every flag sets exactly one thing; a repeated flag is always a
    // mistake (usually an edited command line), so reject it by name
    // instead of silently letting the last occurrence win.
    let mut seen_flags: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();

    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if arg.starts_with("--") && !seen_flags.insert(arg.as_str()) {
            return Err(CcError::cli(format!(
                "duplicate flag {arg}: each flag may be given at most once"
            )));
        }
        match arg.as_str() {
            "report" | "crawl" | "blocklist" | "defense" | "truth" | "serve" | "loadgen"
            | "gaggle" | "help" => {
                if command.is_some() {
                    return Err(CcError::cli(format!("unexpected second command {arg:?}")));
                }
                command = Some(match arg.as_str() {
                    "report" => Command::Report,
                    "crawl" => Command::Crawl,
                    "blocklist" => Command::Blocklist,
                    "defense" => Command::Defense,
                    "truth" => Command::Truth,
                    "serve" => Command::Serve,
                    "loadgen" => Command::Loadgen,
                    "gaggle" => Command::Gaggle,
                    _ => Command::Help,
                });
            }
            // Gaggle roles are positional, right after the command:
            // `gaggle manager [opts]` / `gaggle worker --connect A`.
            "manager" | "worker" => {
                if command != Some(Command::Gaggle) {
                    return Err(CcError::cli(format!(
                        "{arg:?} is a gaggle role (usage: gaggle {arg} [opts])"
                    )));
                }
                if gaggle_role.is_some() {
                    return Err(CcError::cli(format!("unexpected second gaggle role {arg:?}")));
                }
                gaggle_role = Some(if arg == "manager" {
                    GaggleRole::Manager
                } else {
                    GaggleRole::Worker
                });
            }
            "--seed" => {
                let v = numeric(&mut it, "--seed")?;
                study.web.seed = v;
                study.seed = v;
            }
            "--sites" => study.web.n_sites = numeric(&mut it, "--sites")? as usize,
            "--seeders" => study.web.n_seeders = numeric(&mut it, "--seeders")? as usize,
            "--steps" => study.steps = numeric(&mut it, "--steps")? as usize,
            "--walks" => study.walks = Some(numeric(&mut it, "--walks")? as usize),
            "--workers" => {
                let n = numeric(&mut it, "--workers")? as usize;
                // 0 means "use every CPU", like `make -j` without a count.
                workers = Some(if n == 0 {
                    std::thread::available_parallelism().map_or(1, |n| n.get())
                } else {
                    n
                });
            }
            "--species" => {
                let spec = path_arg(&mut it, "--species")?;
                apply_species(&mut study.web, &spec)?;
            }
            "--paper-scale" => {
                let seed = study.web.seed;
                study.web = WebConfig::paper_scale();
                study.web.seed = seed;
            }
            "--failure-rate" => study.failure_rate = float(&mut it, "--failure-rate")?,
            "--retries" => {
                let n = numeric(&mut it, "--retries")? as u32;
                study.retry = if n <= 1 {
                    RetryPolicy::disabled()
                } else {
                    RetryPolicy {
                        attempts: n,
                        ..RetryPolicy::standard()
                    }
                };
            }
            "--breaker" => {
                let n = numeric(&mut it, "--breaker")? as u32;
                study.breaker = if n == 0 {
                    BreakerPolicy::disabled()
                } else {
                    BreakerPolicy {
                        failure_threshold: n,
                        ..BreakerPolicy::standard()
                    }
                };
            }
            "--checkpoint" => checkpoint_path = Some(path_arg(&mut it, "--checkpoint")?),
            "--checkpoint-every" => {
                checkpoint_every = Some(numeric(&mut it, "--checkpoint-every")? as usize)
            }
            "--resume" => resume = Some(path_arg(&mut it, "--resume")?),
            "--kill-after" => kill_after = Some(numeric(&mut it, "--kill-after")? as usize),
            "--out" => out = Some(path_arg(&mut it, "--out")?),
            "--metrics-out" => metrics_out = Some(path_arg(&mut it, "--metrics-out")?),
            "--trace" => trace = true,
            "--trace-out" => trace_out = Some(path_arg(&mut it, "--trace-out")?),
            "--prom" => prom = true,
            "--obs-addr" => obs_addr = Some(path_arg(&mut it, "--obs-addr")?),
            "--obs-addr-file" => obs_addr_file = Some(path_arg(&mut it, "--obs-addr-file")?),
            "--dashboard-out" => dashboard_out = Some(path_arg(&mut it, "--dashboard-out")?),
            "--json" => json = true,
            "--load" => load = Some(path_arg(&mut it, "--load")?),
            "--follow" => follow = Some(path_arg(&mut it, "--follow")?),
            "--addr" => study.serve.addr = path_arg(&mut it, "--addr")?,
            "--serve-addr" => serve_addr = Some(path_arg(&mut it, "--serve-addr")?),
            "--serve-addr-file" => {
                serve_addr_file = Some(path_arg(&mut it, "--serve-addr-file")?)
            }
            "--publish-every" => {
                publish_every = Some(numeric(&mut it, "--publish-every")? as usize)
            }
            "--serve-workers" => {
                study.serve.workers = numeric(&mut it, "--serve-workers")? as usize
            }
            "--max-inflight" => {
                study.serve.max_inflight = numeric(&mut it, "--max-inflight")? as usize
            }
            "--addr-file" => addr_file = Some(path_arg(&mut it, "--addr-file")?),
            "--target" => target = Some(path_arg(&mut it, "--target")?),
            "--users" => users = Some(numeric(&mut it, "--users")? as usize),
            "--duration-requests" => {
                duration_requests = Some(numeric(&mut it, "--duration-requests")? as usize)
            }
            "--mix" => mix = Some(path_arg(&mut it, "--mix")?),
            "--bench-out" => bench_out = Some(path_arg(&mut it, "--bench-out")?),
            "--bind" => bind = Some(path_arg(&mut it, "--bind")?),
            "--connect" => connect = Some(path_arg(&mut it, "--connect")?),
            "--workers-expected" => {
                workers_expected = Some(numeric(&mut it, "--workers-expected")? as usize)
            }
            "--lease-walks" => lease_walks = Some(numeric(&mut it, "--lease-walks")? as usize),
            "--lease-timeout-ms" => {
                lease_timeout_ms = Some(numeric(&mut it, "--lease-timeout-ms")?)
            }
            "--gaggle" => gaggle = Some(numeric(&mut it, "--gaggle")? as usize),
            other => return Err(CcError::cli(format!("unknown argument {other:?}"))),
        }
    }

    study.workers = workers.unwrap_or(1);
    match (checkpoint_path, checkpoint_every) {
        (Some(path), every) => {
            study.checkpoint = Some(CheckpointPolicy {
                path,
                every: every.unwrap_or(100),
            })
        }
        (None, Some(_)) => {
            return Err(CcError::cli("--checkpoint-every requires --checkpoint PATH"))
        }
        (None, None) => {}
    }
    study.validate()?;

    let command = command.ok_or_else(|| CcError::cli("no command given"))?;
    if matches!(command, Command::Crawl | Command::Blocklist) && out.is_none() {
        return Err(CcError::cli(
            format!("{command:?} requires --out PATH").to_lowercase(),
        ));
    }
    if command == Command::Loadgen && target.is_none() {
        return Err(CcError::cli("loadgen requires --target HOST:PORT"));
    }
    if obs_addr_file.is_some() && obs_addr.is_none() {
        return Err(CcError::cli("--obs-addr-file requires --obs-addr HOST:PORT"));
    }
    if follow.is_some() {
        if command != Command::Serve {
            return Err(CcError::cli("--follow applies to the serve command"));
        }
        if load.is_some() {
            return Err(CcError::cli(
                "--load and --follow are mutually exclusive: --load serves a finished \
                 checkpoint, --follow tracks a growing one",
            ));
        }
    }
    if serve_addr.is_some() && command != Command::Crawl {
        return Err(CcError::cli(
            "--serve-addr applies to the crawl command (serve the crawl as it runs)",
        ));
    }
    if serve_addr.is_some() && obs_addr.is_some() {
        return Err(CcError::cli(
            "--serve-addr and --obs-addr are mutually exclusive: the --serve-addr port \
             already answers /progress, /timeseries, /metrics and /metrics.prom",
        ));
    }
    if serve_addr.is_none() {
        for (flag, set) in [
            ("--serve-addr-file", serve_addr_file.is_some()),
            ("--publish-every", publish_every.is_some()),
        ] {
            if set {
                return Err(CcError::cli(format!("{flag} requires --serve-addr HOST:PORT")));
            }
        }
    }
    if publish_every == Some(0) {
        return Err(CcError::cli("--publish-every must be at least 1"));
    }
    // The observability plane watches a study run; serve and loadgen have
    // their own metrics surfaces (cc-serve's /metrics, BENCH_serve.json).
    if matches!(command, Command::Serve | Command::Loadgen | Command::Help) {
        for (flag, set) in [
            ("--obs-addr", obs_addr.is_some()),
            ("--trace-out", trace_out.is_some()),
            ("--dashboard-out", dashboard_out.is_some()),
            ("--prom", prom),
        ] {
            if set {
                return Err(CcError::cli(format!(
                    "{flag} applies to study commands (report/crawl/blocklist/defense/truth), \
                     not {command:?}"
                )
                .to_lowercase()));
            }
        }
    }
    if let Some(name) = mix.as_deref() {
        if cc_loadgen::TaskMix::named(name).is_none() {
            return Err(CcError::cli(format!(
                "unknown mix {name:?} (expected one of {:?})",
                cc_loadgen::TaskMix::NAMES
            )));
        }
    }
    if command == Command::Gaggle && gaggle_role.is_none() {
        return Err(CcError::cli(
            "gaggle requires a role: 'gaggle manager [opts]' or 'gaggle worker --connect A'",
        ));
    }
    match gaggle_role {
        Some(GaggleRole::Worker) => {
            if connect.is_none() {
                return Err(CcError::cli("gaggle worker requires --connect HOST:PORT"));
            }
            // A worker carries no study or artifact flags: the entire
            // study arrives in the Welcome frame, and its telemetry ships
            // to the manager over the wire.
            for (flag, set) in [
                ("--bind", bind.is_some()),
                ("--workers-expected", workers_expected.is_some()),
                ("--lease-walks", lease_walks.is_some()),
                ("--lease-timeout-ms", lease_timeout_ms.is_some()),
                ("--addr-file", addr_file.is_some()),
                ("--out", out.is_some()),
                ("--resume", resume.is_some()),
                ("--checkpoint", study.checkpoint.is_some()),
                ("--metrics-out", metrics_out.is_some()),
                ("--trace", trace),
                ("--trace-out", trace_out.is_some()),
                ("--prom", prom),
                ("--obs-addr", obs_addr.is_some()),
                ("--dashboard-out", dashboard_out.is_some()),
            ] {
                if set {
                    return Err(CcError::cli(format!(
                        "{flag} applies to the gaggle manager, not a worker \
                         (workers get everything from the manager's Welcome)"
                    )));
                }
            }
        }
        Some(GaggleRole::Manager) => {
            if connect.is_some() {
                return Err(CcError::cli(
                    "--connect applies to the gaggle worker; the manager binds (--bind)",
                ));
            }
        }
        None => {
            for (flag, set) in [
                ("--bind", bind.is_some()),
                ("--connect", connect.is_some()),
                ("--workers-expected", workers_expected.is_some()),
            ] {
                if set {
                    return Err(CcError::cli(format!("{flag} applies to the gaggle command")));
                }
            }
            if (lease_walks.is_some() || lease_timeout_ms.is_some()) && gaggle.is_none() {
                return Err(CcError::cli(
                    "--lease-walks/--lease-timeout-ms apply to a gaggle \
                     (gaggle manager, or crawl --gaggle N)",
                ));
            }
        }
    }
    if let Some(n) = gaggle {
        if command != Command::Crawl {
            return Err(CcError::cli(
                "--gaggle N applies to the crawl command (spawn N local gaggle workers)",
            ));
        }
        if n == 0 {
            return Err(CcError::cli("--gaggle must spawn at least 1 worker"));
        }
        if serve_addr.is_some() {
            return Err(CcError::cli(
                "--serve-addr and --gaggle are incompatible: live serving follows \
                 the in-process executor",
            ));
        }
        if kill_after.is_some() {
            return Err(CcError::cli(
                "--kill-after drains the in-process crawl; to exercise gaggle \
                 recovery, kill a worker process instead",
            ));
        }
    }
    Ok(Cli {
        command,
        study,
        workers,
        resume,
        kill_after,
        out,
        metrics_out,
        trace,
        trace_out,
        prom,
        obs_addr,
        obs_addr_file,
        dashboard_out,
        json,
        load,
        follow,
        addr_file,
        serve_addr,
        serve_addr_file,
        publish_every,
        target,
        users,
        duration_requests,
        mix,
        bench_out,
        gaggle_role,
        bind,
        connect,
        workers_expected,
        lease_walks,
        lease_timeout_ms,
        gaggle,
    })
}

/// Apply a `--species` spec to the web config: `all` plants every species,
/// a comma list plants the named ones. Each named species gets the same
/// two-tracker population `WebConfig::all_species` uses, so `--species all`
/// and `--species remint,etag,consent,spa,cname` are the same world.
fn apply_species(web: &mut WebConfig, spec: &str) -> Result<(), CcError> {
    if spec.trim() == "all" {
        *web = std::mem::take(web).all_species();
        return Ok(());
    }
    for name in spec.split(',') {
        match name.trim() {
            "remint" => web.n_remint = 2,
            "etag" => web.n_etag = 2,
            "consent" => web.n_consent = 2,
            "spa" => web.n_spa = 2,
            "cname" => web.n_cname = 2,
            other => {
                return Err(CcError::cli(format!(
                    "--species: unknown species {other:?} \
                     (expected 'all' or a comma list of remint,etag,consent,spa,cname)"
                )))
            }
        }
    }
    Ok(())
}

fn numeric(
    it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
    flag: &str,
) -> Result<u64, CcError> {
    let raw = it
        .next()
        .ok_or_else(|| CcError::cli(format!("{flag} needs a number")))?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    parsed.map_err(|_| CcError::cli(format!("{flag}: {raw:?} is not a number")))
}

fn float(
    it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
    flag: &str,
) -> Result<f64, CcError> {
    let raw = it
        .next()
        .ok_or_else(|| CcError::cli(format!("{flag} needs a number")))?;
    raw.trim()
        .parse()
        .map_err(|_| CcError::cli(format!("{flag}: {raw:?} is not a number")))
}

fn path_arg(
    it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
    flag: &str,
) -> Result<String, CcError> {
    Ok(it
        .next()
        .ok_or_else(|| CcError::cli(format!("{flag} needs a path")))?
        .clone())
}

/// Execute a parsed invocation; returns the text to print.
pub fn run(cli: &Cli) -> Result<String, CcError> {
    use crate::Study;

    if cli.command == Command::Help {
        return Ok(USAGE.to_string());
    }
    // Serving and load generation manage their own lifecycles (a server
    // blocks until shutdown; loadgen talks to a remote process), so they
    // bypass the study-then-report flow below.
    if cli.command == Command::Serve {
        return run_serve(cli);
    }
    if cli.command == Command::Loadgen {
        return run_loadgen(cli);
    }
    // A gaggle run (distributed manager/worker) replaces the in-process
    // executor below with cc-gaggle's lease loop; `crawl --gaggle N` is
    // the single-machine convenience spelling of the same thing.
    if cli.command == Command::Gaggle || cli.gaggle.is_some() {
        return run_gaggle(cli);
    }

    let plane = Plane::start(cli, cli.study.workers)?;
    let mut study_builder = Study::builder(&cli.study).progress(&plane.progress);
    if let Some(n) = cli.kill_after {
        study_builder = study_builder.stop_after(n);
    }
    if let Some(path) = cli.resume.as_deref() {
        study_builder = study_builder.resume(CrawlCheckpoint::load(path)?);
    }

    // Live serving (`crawl --serve-addr`): start the server on a warming
    // epoch-0 index *before* the crawl, wire an in-process publisher into
    // the executor, and keep serving the final epoch after the crawl
    // completes until POST /shutdown. The same server answers the plane's
    // live routes (`/progress`, `/timeseries`, `/metrics`).
    let live = match cli.serve_addr.as_deref() {
        Some(addr) => {
            let builder = cc_serve::IncrementalIndexBuilder::new(&cli.study);
            let index_handle = cc_serve::IndexHandle::new(builder.warming()?);
            let publisher = Arc::new(cc_serve::IndexPublisher::start(
                builder,
                index_handle.clone(),
            ));
            let server = cc_serve::Server::start(
                index_handle.clone(),
                serve_config(&cli.study.serve, addr, plane.live_sources()),
            )?;
            if let Some(path) = cli.serve_addr_file.as_deref() {
                std::fs::write(path, server.addr().to_string())
                    .map_err(|e| CcError::io(path, e))?;
            }
            eprintln!(
                "cc-serve following the crawl on http://{} — epoch 0 (warming); \
                 POST /shutdown to stop",
                server.addr()
            );
            Some((server, publisher, index_handle))
        }
        None => None,
    };

    if let Some((_, publisher, _)) = &live {
        study_builder = study_builder.index_publisher(
            cli.publish_every.unwrap_or(25),
            Arc::clone(publisher) as Arc<dyn cc_crawler::SnapshotSink>,
        );
    }
    let study = match study_builder.run() {
        Ok(study) => study,
        Err(e) => {
            // A failed crawl must not leave a half-warm server running.
            if let Some((server, publisher, _)) = live {
                let _ = publisher.finish();
                server.shutdown();
            }
            return Err(e);
        }
    };
    // Crawl complete: close the publishing queue so the indexer folds the
    // executor's final (complete) snapshot into the last epoch. The
    // server keeps answering on it until POST /shutdown, below.
    if let Some((_, publisher, handle)) = &live {
        publisher.finish()?;
        eprintln!(
            "crawl complete — serving final epoch {} ({} walks); POST /shutdown to stop",
            handle.epoch(),
            handle.current().walks()
        );
    }

    let result = execute(cli, &study);
    // Per-worker progress is reported only when parallelism was asked
    // for — a plain serial run keeps its historical report shape.
    let workers = match &study.progress {
        Some(snapshot) if cli.workers.is_some() => {
            Some(cc_telemetry::WorkerSection::from_progress(snapshot))
        }
        _ => None,
    };
    let result = plane.finish(cli, "crumbcruncher", workers, result);
    // A live-served crawl stays up after its artifacts are written, so
    // consumers can read the final epoch at their leisure; block until a
    // client posts /shutdown. On a failed command, fold the server
    // instead of hanging.
    if let Some((server, _, _)) = live {
        if result.is_ok() {
            server.wait();
        } else {
            server.shutdown();
        }
    }
    result
}

/// Server knobs for `addr` from the study's serve policy, answering
/// `live` next to the index.
fn serve_config(
    policy: &cc_crawler::ServePolicy,
    addr: &str,
    live: cc_serve::LiveSources,
) -> cc_serve::ServeConfig {
    cc_serve::ServeConfig {
        addr: addr.to_string(),
        workers: policy.workers,
        max_inflight: policy.max_inflight,
        keep_alive_ms: policy.keep_alive_ms,
        debug_delay_ms: 0,
        live,
    }
}

/// The telemetry session and live observability plane around one study
/// run, in-process or gaggle alike: the opt-in session, the progress
/// counters the crawl reports into, the sampler's ring, and the
/// `--obs-addr` server. All strictly observation-only — the crawl result
/// is byte-identical with every piece on or off.
struct Plane {
    session: Option<cc_telemetry::Session>,
    progress: Arc<cc_util::ProgressCounters>,
    /// Filled by the sampler; present when a live front end or a
    /// dashboard will read it.
    ring: Option<Arc<cc_telemetry::SnapshotRing>>,
    /// What the live server records into and the sampler reads.
    collector: Option<Arc<cc_telemetry::Collector>>,
    sampler: Option<cc_obs::Sampler>,
    observer: Option<cc_serve::ServerHandle>,
}

impl Plane {
    /// Check the artifact paths, start the session and sampler the flags
    /// ask for, and bind `--obs-addr`. `workers` sizes the progress rows.
    fn start(cli: &Cli, workers: usize) -> Result<Plane, CcError> {
        // Fail fast on unwritable artifact paths — before the crawl, not
        // after an hour of it. A file the probe had to create is removed
        // again, so a run that fails later leaves no empty artifact.
        for (flag, path) in [
            ("--metrics-out", cli.metrics_out.as_deref()),
            ("--trace-out", cli.trace_out.as_deref()),
            ("--dashboard-out", cli.dashboard_out.as_deref()),
            ("--out", cli.out.as_deref()),
        ] {
            if let Some(path) = path {
                let existed = std::path::Path::new(path).exists();
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| CcError::cli(format!("{flag} {path}: not writable: {e}")))?;
                if !existed {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
        // The observer's warming index is built before the session
        // starts, so its world generation stays out of the run's spans.
        let warming = match cli.obs_addr {
            Some(_) => Some(cc_serve::IncrementalIndexBuilder::new(&cli.study).warming()?),
            None => None,
        };
        // Telemetry is opt-in: a session only exists when a telemetry or
        // observability flag asked for one, so plain runs pay nothing.
        // The chrome-trace export additionally needs span capture.
        let wants_session = cli.metrics_out.is_some()
            || cli.trace
            || cli.prom
            || cli.obs_addr.is_some()
            || cli.dashboard_out.is_some();
        let session = if cli.trace_out.is_some() {
            Some(cc_telemetry::Session::start_with_trace())
        } else if wants_session {
            Some(cc_telemetry::Session::start())
        } else {
            None
        };
        let front_end = cli.obs_addr.is_some() || cli.serve_addr.is_some();
        // A served crawl without a session still records its requests
        // somewhere the sampler can read them.
        let collector = match &session {
            Some(session) => Some(session.shared_collector()),
            None => front_end.then(Arc::default),
        };
        let progress = Arc::new(cc_util::ProgressCounters::new(workers));
        let ring = (front_end || cli.dashboard_out.is_some())
            .then(|| Arc::new(cc_telemetry::SnapshotRing::new(cc_obs::RING_CAPACITY)));
        let sampler = ring.as_ref().map(|ring| {
            cc_obs::Sampler::start(
                cc_obs::SamplerConfig::default(),
                Arc::clone(ring),
                collector.clone(),
                Some(Arc::clone(&progress)),
            )
        });
        let mut plane = Plane {
            session,
            progress,
            ring,
            collector,
            sampler,
            observer: None,
        };
        if let (Some(addr), Some(index)) = (cli.obs_addr.as_deref(), warming) {
            let server = cc_serve::Server::start(
                index,
                serve_config(&cli.study.serve, addr, plane.live_sources()),
            )?;
            if let Some(path) = cli.obs_addr_file.as_deref() {
                std::fs::write(path, server.addr().to_string())
                    .map_err(|e| CcError::io(path, e))?;
            }
            plane.observer = Some(server);
        }
        Ok(plane)
    }

    /// The live readings a server attached to this run answers.
    fn live_sources(&self) -> cc_serve::LiveSources {
        cc_serve::LiveSources {
            progress: Some(Arc::clone(&self.progress)),
            ring: self.ring.clone(),
            collector: self.collector.clone(),
        }
    }

    /// Wind the plane down once the run is over: the sampler's final
    /// sample, the observer, the dashboard, then the trace and run-report
    /// artifacts. `--prom` replaces a successful `result` with the
    /// exposition.
    fn finish(
        mut self,
        cli: &Cli,
        title: &str,
        workers: Option<cc_telemetry::WorkerSection>,
        result: Result<String, CcError>,
    ) -> Result<String, CcError> {
        if let Some(sampler) = self.sampler.take() {
            sampler.shutdown();
        }
        if let Some(observer) = self.observer.take() {
            observer.shutdown();
        }
        if let (Some(path), Some(ring)) = (cli.dashboard_out.as_deref(), &self.ring) {
            let title = format!("{title} — seed {:#x}", cli.study.seed);
            let html = cc_obs::render_dashboard(&title, &ring.snapshot());
            std::fs::write(path, &html).map_err(|e| CcError::io(path, e))?;
        }
        // Reporting happens after the command executed, so command-phase
        // spans (the analysis report sections, dataset serialization) are
        // captured.
        let Some(session) = &self.session else {
            return result;
        };
        if cli.trace {
            eprint!("{}", session.render_trace());
        }
        if let Some(path) = cli.trace_out.as_deref() {
            std::fs::write(path, session.chrome_trace()).map_err(|e| CcError::io(path, e))?;
        }
        if cli.metrics_out.is_none() && !cli.prom {
            return result;
        }
        let report = session.collector().report(workers);
        if let Some(path) = cli.metrics_out.as_deref() {
            let json = report
                .to_json()
                .map_err(|e| CcError::Serde(format!("serialize run report: {e}")))?;
            std::fs::write(path, &json).map_err(|e| CcError::io(path, e))?;
        }
        match result {
            // `--prom`: the scrape-able exposition *is* the command
            // output, so nothing else pollutes stdout.
            Ok(_) if cli.prom => Ok(cc_telemetry::render_prometheus(&report)),
            other => other,
        }
    }
}

impl Drop for Plane {
    /// A run that fails part-way must not leave the observer bound.
    fn drop(&mut self) {
        if let Some(observer) = self.observer.take() {
            observer.shutdown();
        }
    }
}

/// Run the `gaggle` subcommand — and `crawl --gaggle N`, which is the
/// same manager plus N spawned local worker processes.
///
/// The worker role is deliberately bare: no telemetry session, no study
/// flags — it dials, crawls what it is leased, ships shards back, and
/// hands its counters to the manager over the wire. The manager side
/// owns the study and the whole observability surface: `--obs-addr`'s
/// `/progress` shows per-worker walk counts, and `--metrics-out` folds
/// the `gaggle.*` counters plus every worker's shipped telemetry into
/// one run report.
fn run_gaggle(cli: &Cli) -> Result<String, CcError> {
    if cli.gaggle_role == Some(GaggleRole::Worker) {
        let cfg = cc_gaggle::WorkerConfig {
            connect: cli.connect.clone().expect("validated in parse"),
            label: format!("pid-{}", std::process::id()),
        };
        let summary = cc_gaggle::run_worker(&cfg)?;
        return Ok(format!(
            "worker {} crawled {} walks across {} leases\n",
            summary.worker_id, summary.walks, summary.leases
        ));
    }

    let spawn_workers = cli.gaggle.unwrap_or(0);
    let cfg = cc_gaggle::GaggleConfig {
        bind: cli.bind.clone().unwrap_or_else(|| "127.0.0.1:0".into()),
        workers_expected: cli.workers_expected.unwrap_or_else(|| spawn_workers.max(1)),
        lease_walks: cli.lease_walks.unwrap_or(25),
        lease_timeout_ms: cli.lease_timeout_ms.unwrap_or(3_000),
    };
    // Manager (or `crawl --gaggle N`): the same plane as an in-process
    // study run, with progress rows per remote worker (modulo
    // workers_expected), not per thread.
    let plane = Plane::start(cli, cfg.workers_expected.max(1))?;

    let mut opts = cc_gaggle::ManagerOptions {
        resume: None,
        progress: Some(Arc::clone(&plane.progress)),
    };
    if let Some(path) = cli.resume.as_deref() {
        opts.resume = Some(CrawlCheckpoint::load(path)?);
    }
    let manager = cc_gaggle::Manager::start(&cli.study, cfg, opts)?;
    let addr = manager.addr();
    if let Some(path) = cli.addr_file.as_deref() {
        std::fs::write(path, addr.to_string()).map_err(|e| CcError::io(path, e))?;
    }
    eprintln!(
        "cc-gaggle manager listening on {addr} — workers join with: \
         crumbcruncher gaggle worker --connect {addr}"
    );

    // `crawl --gaggle N`: the workers are child processes of this very
    // binary, so the single-machine spelling exercises exactly the code
    // path a multi-machine gaggle does.
    let mut children = Vec::new();
    if spawn_workers > 0 {
        let exe = std::env::current_exe().map_err(|e| CcError::io("current_exe", e))?;
        for _ in 0..spawn_workers {
            let child = std::process::Command::new(&exe)
                .args(["gaggle", "worker", "--connect", &addr.to_string()])
                .stdout(std::process::Stdio::null())
                .spawn()
                .map_err(|e| CcError::io("spawn gaggle worker", e))?;
            children.push(child);
        }
    }

    let outcome = manager.join();
    // Workers exit on their own once the manager is gone (clean Goodbye,
    // or a Closed read if the manager errored out) — reap, don't kill.
    for mut child in children {
        let _ = child.wait();
    }
    let outcome = outcome?;

    let mut artifact_note = String::new();
    if let Some(path) = cli.out.as_deref() {
        let json = outcome
            .dataset
            .to_json()
            .map_err(|e| CcError::Serde(format!("serialize dataset: {e}")))?;
        std::fs::write(path, &json).map_err(|e| CcError::io(path, e))?;
        artifact_note = format!(" — wrote {} bytes to {path}", json.len());
    }

    let s = &outcome.stats;
    let summary = format!(
        "assembled {} walks from {} workers{artifact_note}\n\
         leases: {} issued, {} completed, {} expired, {} reissued, {} stale results dropped\n\
         frames: {} sent / {} received ({} / {} bytes)\n",
        outcome.dataset.walks.len(),
        s.workers_connected,
        s.leases_issued,
        s.leases_completed,
        s.leases_expired,
        s.leases_reissued,
        s.results_dropped_stale,
        s.frames_sent,
        s.frames_received,
        s.bytes_sent,
        s.bytes_received,
    );
    // A gaggle is parallel by construction: the report always carries
    // the per-(remote-)worker progress section.
    let workers = cc_telemetry::WorkerSection::from_progress(&plane.progress.snapshot());
    plane.finish(cli, "crumbcruncher gaggle", Some(workers), Ok(summary))
}

/// Run the `serve` subcommand: resolve the [`cc_serve::IndexSource`]
/// (a finished checkpoint, a followed growing checkpoint, or a fresh
/// study), start the server, and block until it is shut down via
/// `POST /shutdown`.
fn run_serve(cli: &Cli) -> Result<String, CcError> {
    let source: cc_serve::IndexSource = match (cli.load.as_deref(), cli.follow.as_deref()) {
        (Some(path), None) => cc_serve::ServingIndex::from_checkpoint_path(path)?.into(),
        (None, Some(path)) => cc_serve::IndexSource::follow(path),
        (None, None) => {
            let study = crate::Study::from_config(&cli.study)?;
            cc_serve::ServingIndex::build(&study.web, &study.dataset, &study.output)?.into()
        }
        (Some(_), Some(_)) => unreachable!("--load/--follow exclusivity validated in parse"),
    };
    let following = matches!(source, cc_serve::IndexSource::Follow(_));
    let policy = &cli.study.serve;
    let handle = cc_serve::Server::start(
        source,
        serve_config(policy, &policy.addr, cc_serve::LiveSources::default()),
    )?;
    let addr = handle.addr();
    if let Some(path) = cli.addr_file.as_deref() {
        std::fs::write(path, addr.to_string()).map_err(|e| CcError::io(path, e))?;
    }
    let index = handle.index_handle().current();
    if following {
        eprintln!(
            "cc-serve listening on http://{addr} — following {}, epoch {} ({} of {} walks); \
             POST /shutdown to stop",
            cli.follow.as_deref().unwrap_or_default(),
            index.epoch(),
            index.walks(),
            index.total_walks(),
        );
    } else {
        eprintln!(
            "cc-serve listening on http://{addr} — {} walks, {} findings; \
             POST /shutdown to stop",
            index.walks(),
            index.findings(),
        );
    }

    let metrics = handle.wait();
    if let Some(path) = cli.metrics_out.as_deref() {
        let json = metrics
            .to_json()
            .map_err(|e| CcError::Serde(format!("serialize serve metrics: {e}")))?;
        std::fs::write(path, &json).map_err(|e| CcError::io(path, e))?;
    }
    let requests = metrics
        .deterministic
        .counters
        .get("serve.requests")
        .copied()
        .unwrap_or(0);
    Ok(format!("shut down cleanly after {requests} requests\n"))
}

/// Run the `loadgen` subcommand against an already-running serve
/// instance.
fn run_loadgen(cli: &Cli) -> Result<String, CcError> {
    let target = cli.target.clone().expect("validated in parse");
    let mut cfg = cc_loadgen::LoadConfig::new(target);
    cfg.mix = cc_loadgen::TaskMix::named(cli.mix.as_deref().unwrap_or("mixed"))
        .expect("validated in parse");
    cfg.seed = cli.study.seed;
    if let Some(u) = cli.users {
        cfg.users = u;
    }
    if let Some(r) = cli.duration_requests {
        cfg.requests_per_user = r;
    }

    let report = cc_loadgen::run_load(&cfg)?;
    if let Some(path) = cli.bench_out.as_deref() {
        std::fs::write(path, report.to_json()?).map_err(|e| CcError::io(path, e))?;
    }
    let a = &report.aggregate;
    let e = &report.epochs;
    Ok(format!(
        "{} requests ({} users x {}) in {:.0} ms — {:.0} req/s\n\
         ok {}  304 {}  4xx {}  5xx {} (shed {})  transport {}\n\
         latency p50 {:.2} ms  p90 {:.2} ms  p99 {:.2} ms\n\
         epochs {}..{} ({} observed, {} regressions)\n",
        report.total_requests,
        report.users,
        report.requests_per_user,
        report.elapsed_ms,
        report.throughput_rps,
        a.ok,
        a.not_modified,
        a.client_errors,
        a.server_errors,
        a.shed,
        a.transport_errors,
        a.latency.p50_ms,
        a.latency.p90_ms,
        a.latency.p99_ms,
        e.min,
        e.max,
        e.observed,
        e.regressions,
    ))
}

/// Run the subcommand against a finished study; returns the text to print.
fn execute(cli: &Cli, study: &crate::Study) -> Result<String, CcError> {
    match cli.command {
        Command::Help | Command::Serve | Command::Loadgen | Command::Gaggle => {
            unreachable!("handled above")
        }
        Command::Report if cli.json => serde_json::to_string(&study.report())
            .map_err(|e| CcError::Serde(format!("serialize report: {e}"))),
        Command::Report => Ok(study.report().render()),
        Command::Crawl => {
            let json = study
                .dataset
                .to_json()
                .map_err(|e| CcError::Serde(format!("serialize dataset: {e}")))?;
            let path = cli.out.as_deref().expect("validated in parse");
            std::fs::write(path, &json).map_err(|e| CcError::io(path, e))?;
            Ok(format!(
                "wrote {} walks ({} bytes) to {path}\n",
                study.dataset.walks.len(),
                json.len()
            ))
        }
        Command::Blocklist => {
            let artifacts = cc_defense::artifacts::BlocklistArtifacts::from_output(&study.output);
            let json = artifacts
                .to_json()
                .map_err(|e| CcError::Serde(format!("serialize blocklist: {e}")))?;
            let path = cli.out.as_deref().expect("validated in parse");
            std::fs::write(path, &json).map_err(|e| CcError::io(path, e))?;
            Ok(format!(
                "released {} token names and {} tracker domains to {path}\n",
                artifacts.token_names.len(),
                artifacts.tracker_domains.len()
            ))
        }
        Command::Defense => {
            let eval = cc_defense::evaluate_defenses(&study.web, &study.output);
            Ok(format!(
                "Disconnect coverage of dedicated smugglers: {}\n\
                 EasyList coverage of smuggling paths:       {}\n\
                 Stripping (well-known params):              {}\n\
                 Stripping (with measurement feedback):      {}\n\
                 Debouncing prevents:                        {}\n",
                eval.disconnect_coverage,
                eval.easylist_coverage,
                eval.strip_well_known,
                eval.strip_with_feedback,
                eval.debounce_prevented
            ))
        }
        Command::Truth => {
            let score = study.truth_score();
            Ok(format!(
                "groups: tp {} fp {} fn {} fingerprint-misses {} unlabeled {}\n\
                 precision {:.3}  recall {:.3}\n",
                score.true_positives,
                score.false_positives,
                score.false_negatives,
                score.fingerprint_misses,
                score.unlabeled,
                score.precision(),
                score.recall()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_report_defaults() {
        let cli = parse(&argv("report")).unwrap();
        assert_eq!(cli.command, Command::Report);
        assert_eq!(cli.study.web.n_sites, 2_000);
        assert_eq!(cli.study.steps, 10);
        assert!(cli.out.is_none());
        assert!(!cli.study.retry.enabled(), "fault tolerance is opt-in");
        assert!(!cli.study.breaker.enabled());
        assert!(cli.study.checkpoint.is_none());
        assert!(cli.resume.is_none());
    }

    #[test]
    fn parse_options() {
        let cli = parse(&argv(
            "crawl --seed 0xAB --sites 500 --seeders 100 --steps 4 --walks 20 --out d.json",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Crawl);
        assert_eq!(cli.study.web.seed, 0xAB);
        assert_eq!(cli.study.seed, 0xAB);
        assert_eq!(cli.study.web.n_sites, 500);
        assert_eq!(cli.study.web.n_seeders, 100);
        assert_eq!(cli.study.steps, 4);
        assert_eq!(cli.study.walks, Some(20));
        assert_eq!(cli.out.as_deref(), Some("d.json"));
    }

    #[test]
    fn parse_workers() {
        let cli = parse(&argv("report --workers 4")).unwrap();
        assert_eq!(cli.workers, Some(4));
        assert_eq!(cli.study.workers, 4);
        let cli = parse(&argv("report")).unwrap();
        assert_eq!(cli.workers, None, "serial crawl by default");
        assert_eq!(cli.study.workers, 1);
        let cli = parse(&argv("report --workers 0")).unwrap();
        assert!(cli.workers.unwrap() >= 1, "0 resolves to available CPUs");
        assert!(parse(&argv("report --workers")).is_err());
        assert!(parse(&argv("report --workers many")).is_err());
    }

    #[test]
    fn parse_fault_tolerance_flags() {
        let cli = parse(&argv(
            "report --failure-rate 0.2 --retries 4 --breaker 3 \
             --checkpoint ck.json --checkpoint-every 100 --kill-after 50",
        ))
        .unwrap();
        assert_eq!(cli.study.failure_rate, 0.2);
        assert!(cli.study.retry.enabled());
        assert_eq!(cli.study.retry.attempts, 4);
        assert!(cli.study.breaker.enabled());
        assert_eq!(cli.study.breaker.failure_threshold, 3);
        let ck = cli.study.checkpoint.as_ref().unwrap();
        assert_eq!(ck.path, "ck.json");
        assert_eq!(ck.every, 100);
        assert_eq!(cli.kill_after, Some(50));

        let cli = parse(&argv("report --retries 0")).unwrap();
        assert!(!cli.study.retry.enabled(), "--retries 0 disables retries");
        let cli = parse(&argv("report --checkpoint ck.json")).unwrap();
        assert_eq!(
            cli.study.checkpoint.unwrap().every,
            100,
            "default interval"
        );
        let cli = parse(&argv("report --resume ck.json")).unwrap();
        assert_eq!(cli.resume.as_deref(), Some("ck.json"));
    }

    #[test]
    fn parse_rejects_invalid_fault_tolerance() {
        assert!(parse(&argv("report --failure-rate 1.5")).is_err());
        assert!(parse(&argv("report --failure-rate banana")).is_err());
        assert!(
            parse(&argv("report --checkpoint-every 10")).is_err(),
            "--checkpoint-every without --checkpoint"
        );
        assert!(parse(&argv("report --checkpoint")).is_err());
        assert!(parse(&argv("report --resume")).is_err());
    }

    #[test]
    fn workers_report_matches_serial_report() {
        let web = cc_web::WebConfig::small();
        let base = "truth --steps 3 --walks 8";
        let mut serial = parse(&argv(base)).unwrap();
        serial.study.web = web.clone();
        let mut parallel = parse(&argv(&format!("{base} --workers 3"))).unwrap();
        parallel.study.web = web;
        assert_eq!(run(&serial).unwrap(), run(&parallel).unwrap());
    }

    #[test]
    fn duplicate_flags_are_rejected_by_name() {
        let err = parse(&argv("report --seed 1 --seed 2")).unwrap_err().to_string();
        assert!(err.contains("duplicate flag --seed"), "unhelpful error: {err}");
        let err = parse(&argv("crawl --out a.json --out b.json"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("duplicate flag --out"), "unhelpful error: {err}");
        let err = parse(&argv("report --trace --trace")).unwrap_err().to_string();
        assert!(err.contains("duplicate flag --trace"), "unhelpful error: {err}");
        // A value that happens to equal a flag's spelling is a value,
        // not a second occurrence.
        let cli = parse(&argv("crawl --out --seed --seed 3")).unwrap();
        assert_eq!(cli.out.as_deref(), Some("--seed"));
        assert_eq!(cli.study.seed, 3);
    }

    #[test]
    fn parse_serve_flags() {
        let cli = parse(&argv(
            "serve --addr 127.0.0.1:0 --serve-workers 2 --max-inflight 8 \
             --load ck.json --addr-file addr.txt",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Serve);
        assert_eq!(cli.study.serve.addr, "127.0.0.1:0");
        assert_eq!(cli.study.serve.workers, 2);
        assert_eq!(cli.study.serve.max_inflight, 8);
        assert_eq!(cli.load.as_deref(), Some("ck.json"));
        assert_eq!(cli.addr_file.as_deref(), Some("addr.txt"));

        let cli = parse(&argv("serve")).unwrap();
        assert_eq!(cli.study.serve.addr, "127.0.0.1:8040");
        assert_eq!(cli.study.serve.workers, 8);
        assert!(cli.load.is_none());

        assert!(
            parse(&argv("serve --serve-workers 8 --max-inflight 2")).is_err(),
            "admission bound below the worker count is nonsense"
        );
    }

    #[test]
    fn parse_live_serving_flags() {
        let cli = parse(&argv(
            "crawl --out ds.json --serve-addr 127.0.0.1:0 --serve-addr-file addr.txt \
             --publish-every 10",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Crawl);
        assert_eq!(cli.serve_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cli.serve_addr_file.as_deref(), Some("addr.txt"));
        assert_eq!(cli.publish_every, Some(10));

        let cli = parse(&argv("serve --follow ck.ccp")).unwrap();
        assert_eq!(cli.follow.as_deref(), Some("ck.ccp"));
        assert!(cli.load.is_none());

        let err = parse(&argv("serve --follow a.ccp --load b.ccp"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("mutually exclusive"), "unhelpful error: {err}");
        assert!(
            parse(&argv("report --follow ck.ccp")).is_err(),
            "--follow only makes sense for serve"
        );
        assert!(
            parse(&argv("serve --serve-addr 127.0.0.1:0")).is_err(),
            "--serve-addr is the crawl command's live-serving flag"
        );
        assert!(
            parse(&argv("crawl --out ds.json --serve-addr-file addr.txt")).is_err(),
            "--serve-addr-file without --serve-addr has nothing to write"
        );
        assert!(
            parse(&argv("crawl --out ds.json --publish-every 5")).is_err(),
            "--publish-every without --serve-addr publishes to nobody"
        );
        let err = parse(&argv("crawl --out ds.json --serve-addr 127.0.0.1:0 --publish-every 0"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("at least 1"), "unhelpful error: {err}");
    }

    #[test]
    fn parse_loadgen_flags() {
        let cli = parse(&argv(
            "loadgen --target 127.0.0.1:9 --users 2 --duration-requests 50 \
             --mix lookups --bench-out BENCH_serve.json",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Loadgen);
        assert_eq!(cli.target.as_deref(), Some("127.0.0.1:9"));
        assert_eq!(cli.users, Some(2));
        assert_eq!(cli.duration_requests, Some(50));
        assert_eq!(cli.mix.as_deref(), Some("lookups"));
        assert_eq!(cli.bench_out.as_deref(), Some("BENCH_serve.json"));

        assert!(parse(&argv("loadgen")).is_err(), "loadgen requires --target");
        let err = parse(&argv("loadgen --target 127.0.0.1:9 --mix chaos"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("chaos"), "unhelpful mix error: {err}");
    }

    #[test]
    fn parse_gaggle_flags() {
        let cli = parse(&argv(
            "gaggle manager --workers-expected 2 --bind 127.0.0.1:0 --lease-walks 5 \
             --lease-timeout-ms 500 --out ds.json --addr-file a.txt",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Gaggle);
        assert_eq!(cli.gaggle_role, Some(GaggleRole::Manager));
        assert_eq!(cli.workers_expected, Some(2));
        assert_eq!(cli.bind.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cli.lease_walks, Some(5));
        assert_eq!(cli.lease_timeout_ms, Some(500));
        assert_eq!(cli.out.as_deref(), Some("ds.json"));
        assert_eq!(cli.addr_file.as_deref(), Some("a.txt"));

        let cli = parse(&argv("gaggle worker --connect 127.0.0.1:9")).unwrap();
        assert_eq!(cli.gaggle_role, Some(GaggleRole::Worker));
        assert_eq!(cli.connect.as_deref(), Some("127.0.0.1:9"));

        let cli = parse(&argv("crawl --out d.json --gaggle 2 --lease-walks 4")).unwrap();
        assert_eq!(cli.gaggle, Some(2));
        assert_eq!(cli.lease_walks, Some(4));

        assert!(parse(&argv("gaggle")).is_err(), "gaggle requires a role");
        assert!(parse(&argv("gaggle worker")).is_err(), "worker requires --connect");
        assert!(parse(&argv("gaggle manager worker")).is_err(), "one role only");
        assert!(parse(&argv("manager")).is_err(), "role without the gaggle command");
        assert!(
            parse(&argv("gaggle manager --connect 127.0.0.1:9")).is_err(),
            "--connect is the worker's flag"
        );
        for bad in [
            "gaggle worker --connect a --bind 127.0.0.1:0",
            "gaggle worker --connect a --out d.json",
            "gaggle worker --connect a --metrics-out m.json",
            "gaggle worker --connect a --obs-addr 127.0.0.1:0",
        ] {
            assert!(parse(&argv(bad)).is_err(), "worker flags leak: {bad}");
        }
        assert!(parse(&argv("report --gaggle 2")).is_err(), "--gaggle is crawl-only");
        assert!(parse(&argv("crawl --out d.json --gaggle 0")).is_err());
        assert!(parse(&argv("report --lease-walks 4")).is_err());
        assert!(parse(&argv("report --bind 127.0.0.1:0")).is_err());
        assert!(
            parse(&argv("crawl --out d.json --gaggle 2 --serve-addr 127.0.0.1:0")).is_err(),
            "live serving follows the in-process executor"
        );
        assert!(
            parse(&argv("crawl --out d.json --gaggle 2 --kill-after 4")).is_err(),
            "--kill-after drains the in-process crawl"
        );
    }

    #[test]
    fn gaggle_through_the_cli_matches_a_single_process_crawl() {
        let dir = std::env::temp_dir().join("ccrs-cli-gaggle-test");
        std::fs::create_dir_all(&dir).unwrap();
        let solo_out = dir.join("solo.json");
        let gaggle_out = dir.join("gaggle.json");
        let addr_file = dir.join("addr.txt");
        std::fs::remove_file(&addr_file).ok();

        let study = "--seed 5 --steps 3 --walks 12 --workers 2";
        let mut solo =
            parse(&argv(&format!("crawl {study} --out {}", solo_out.display()))).unwrap();
        solo.study.web = cc_web::WebConfig::small();
        run(&solo).unwrap();

        // Manager in one thread, two CLI workers in others (threads, not
        // child processes: under `cargo test` current_exe is the test
        // harness, so the spawning path is covered by the integration
        // tests that have CARGO_BIN_EXE instead).
        let mut manager = parse(&argv(&format!(
            "gaggle manager {study} --workers-expected 2 --lease-walks 4 \
             --addr-file {} --out {}",
            addr_file.display(),
            gaggle_out.display()
        )))
        .unwrap();
        manager.study.web = cc_web::WebConfig::small();
        let manager = std::thread::spawn(move || run(&manager));
        let addr = {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            loop {
                if let Ok(s) = std::fs::read_to_string(&addr_file) {
                    if !s.is_empty() {
                        break s;
                    }
                }
                assert!(std::time::Instant::now() < deadline, "manager never bound");
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        };
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let cli = parse(&argv(&format!("gaggle worker --connect {addr}"))).unwrap();
                std::thread::spawn(move || run(&cli))
            })
            .collect();
        let summary = manager.join().unwrap().unwrap();
        for w in workers {
            w.join().unwrap().unwrap();
        }

        assert!(summary.contains("assembled 12 walks"), "{summary}");
        let solo_json = std::fs::read_to_string(&solo_out).unwrap();
        let gaggle_json = std::fs::read_to_string(&gaggle_out).unwrap();
        assert_eq!(solo_json, gaggle_json, "gaggle dataset bytes diverged");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_and_loadgen_end_to_end_through_the_cli() {
        let dir = std::env::temp_dir().join("ccrs-cli-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let addr_file = dir.join("addr.txt");
        let bench = dir.join("BENCH_serve.json");
        std::fs::remove_file(&addr_file).ok();

        // The server: a small fresh study on an ephemeral port.
        let mut serve_cli = parse(&argv(&format!(
            "serve --seed 5 --steps 5 --walks 15 --addr 127.0.0.1:0 \
             --serve-workers 4 --addr-file {}",
            addr_file.display()
        )))
        .unwrap();
        serve_cli.study.web = cc_web::WebConfig::small();
        let server = std::thread::spawn(move || run(&serve_cli));

        // Wait for the addr file to appear (the crawl takes a moment).
        let addr = {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            loop {
                if let Ok(s) = std::fs::read_to_string(&addr_file) {
                    if !s.is_empty() {
                        break s;
                    }
                }
                assert!(std::time::Instant::now() < deadline, "server never came up");
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        };

        // Drive it through the loadgen subcommand.
        let loadgen_cli = parse(&argv(&format!(
            "loadgen --target {addr} --users 2 --duration-requests 30 --bench-out {}",
            bench.display()
        )))
        .unwrap();
        let summary = run(&loadgen_cli).unwrap();
        assert!(summary.contains("60 requests"), "unexpected summary: {summary}");
        let bench_report = crate::loadgen::LoadReport::from_json(
            &std::fs::read_to_string(&bench).unwrap(),
        )
        .unwrap();
        assert_eq!(bench_report.total_requests, 60);
        assert_eq!(bench_report.aggregate.server_errors, 0);
        assert_eq!(bench_report.aggregate.transport_errors, 0);

        // The served /report is byte-identical to `report --json` of the
        // same study.
        let mut report_cli =
            parse(&argv("report --json --seed 5 --steps 5 --walks 15")).unwrap();
        report_cli.study.web = cc_web::WebConfig::small();
        let offline = run(&report_cli).unwrap();
        let served = {
            use std::io::{BufReader, Write};
            let mut stream = std::net::TcpStream::connect(&addr).unwrap();
            stream
                .set_read_timeout(Some(std::time::Duration::from_secs(10)))
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            write!(stream, "GET /report HTTP/1.1\r\nhost: {addr}\r\n\r\n").unwrap();
            let resp = crate::http::Response::read_from(&mut reader).unwrap();
            assert_eq!(resp.status.0, 200);
            String::from_utf8(resp.body.wire_bytes().to_vec()).unwrap()
        };
        assert_eq!(served, offline, "served report diverged from the offline one");

        // Shut the server down over the wire and join the serve command.
        {
            use std::io::Write;
            let mut stream = std::net::TcpStream::connect(&addr).unwrap();
            write!(
                stream,
                "POST /shutdown HTTP/1.1\r\nhost: {addr}\r\ncontent-length: 0\r\n\r\n"
            )
            .unwrap();
        }
        let farewell = server.join().unwrap().unwrap();
        assert!(
            farewell.contains("shut down cleanly"),
            "unexpected serve output: {farewell}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_species_flag() {
        let cli = parse(&argv("report --species all")).unwrap();
        assert!(cli.study.web.species_enabled());
        assert_eq!(cli.study.web.n_remint, 2);
        assert_eq!(cli.study.web.n_etag, 2);
        assert_eq!(cli.study.web.n_consent, 2);
        assert_eq!(cli.study.web.n_spa, 2);
        assert_eq!(cli.study.web.n_cname, 2);
        assert_eq!(cli.study.web.n_sites, 2_000, "world scale is untouched");

        let cli = parse(&argv("report --species remint,spa")).unwrap();
        assert_eq!(cli.study.web.n_remint, 2);
        assert_eq!(cli.study.web.n_spa, 2);
        assert_eq!(cli.study.web.n_etag, 0);
        assert_eq!(cli.study.web.n_consent, 0);
        assert_eq!(cli.study.web.n_cname, 0);

        // The comma list and 'all' describe the same world.
        let listed = parse(&argv("report --species remint,etag,consent,spa,cname")).unwrap();
        let all = parse(&argv("report --species all")).unwrap();
        assert_eq!(listed.study.web, all.study.web);

        let cli = parse(&argv("report")).unwrap();
        assert!(!cli.study.web.species_enabled(), "species are opt-in");

        let err = parse(&argv("report --species werewolf")).unwrap_err().to_string();
        assert!(err.contains("werewolf"), "unhelpful error: {err}");
        assert!(parse(&argv("report --species")).is_err());
        assert!(parse(&argv("report --species all --species all")).is_err());
    }

    #[test]
    fn parse_paper_scale_preserves_seed() {
        let cli = parse(&argv("report --seed 42 --paper-scale")).unwrap();
        assert_eq!(cli.study.web.seed, 42);
        assert_eq!(cli.study.web.n_seeders, 10_000);
    }

    #[test]
    fn parse_errors() {
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("report report")).is_err());
        assert!(parse(&argv("report --seed")).is_err());
        assert!(parse(&argv("report --seed banana")).is_err());
        assert!(parse(&argv("report --frobnicate")).is_err());
        assert!(parse(&argv("crawl")).is_err(), "crawl requires --out");
        assert!(parse(&argv("blocklist")).is_err());
        assert!(
            parse(&argv("crawl --parallel --out d.json")).is_err(),
            "--parallel was removed; the walk driver is not selectable"
        );
        // The serve port already answers every observer route.
        let err = parse(&argv(
            "crawl --out d.json --serve-addr 127.0.0.1:0 --obs-addr 127.0.0.1:0",
        ))
        .unwrap_err()
        .to_string();
        assert!(
            err.contains("--serve-addr") && err.contains("--obs-addr"),
            "unhelpful error: {err}"
        );
    }

    #[test]
    fn help_runs_without_crawling() {
        let cli = parse(&argv("help")).unwrap();
        let out = run(&cli).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("--metrics-out"), "help must document telemetry flags");
        assert!(out.contains("--trace"), "help must document telemetry flags");
        assert!(out.contains("--retries"), "help must document fault tolerance");
        assert!(out.contains("--resume"), "help must document fault tolerance");
    }

    #[test]
    fn parse_metrics_flags() {
        let cli = parse(&argv("report --metrics-out m.json --trace")).unwrap();
        assert_eq!(cli.metrics_out.as_deref(), Some("m.json"));
        assert!(cli.trace);
        let cli = parse(&argv("report")).unwrap();
        assert!(cli.metrics_out.is_none(), "telemetry is opt-in");
        assert!(!cli.trace);
        assert!(parse(&argv("report --metrics-out")).is_err());
    }

    #[test]
    fn parse_observability_flags() {
        let cli = parse(&argv(
            "crawl --out d.json --obs-addr 127.0.0.1:0 --obs-addr-file oa.txt \
             --trace-out trace.json --dashboard-out run.html",
        ))
        .unwrap();
        assert_eq!(cli.obs_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cli.obs_addr_file.as_deref(), Some("oa.txt"));
        assert_eq!(cli.trace_out.as_deref(), Some("trace.json"));
        assert_eq!(cli.dashboard_out.as_deref(), Some("run.html"));
        assert!(!cli.prom);

        let cli = parse(&argv("report --prom")).unwrap();
        assert!(cli.prom);

        let cli = parse(&argv("report")).unwrap();
        assert!(cli.obs_addr.is_none(), "observability is opt-in");
        assert!(cli.trace_out.is_none());
        assert!(cli.dashboard_out.is_none());

        // An addr file without an observer to bind is a mistake.
        let err = parse(&argv("report --obs-addr-file oa.txt")).unwrap_err().to_string();
        assert!(err.contains("--obs-addr"), "unhelpful error: {err}");
        // The plane watches study runs, not serve/loadgen sessions.
        for bad in [
            "serve --obs-addr 127.0.0.1:0",
            "loadgen --target 127.0.0.1:9 --dashboard-out run.html",
            "serve --prom",
            "help --trace-out t.json",
        ] {
            let err = parse(&argv(bad)).unwrap_err().to_string();
            assert!(err.contains("study commands"), "{bad}: {err}");
        }
        assert!(parse(&argv("report --obs-addr")).is_err());
        assert!(parse(&argv("report --trace-out")).is_err());
        assert!(parse(&argv("report --dashboard-out")).is_err());
    }

    #[test]
    fn failed_crawl_leaves_no_empty_artifact() {
        let dir = std::env::temp_dir().join(format!("ccrs-failed-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (out, kept) = (dir.join("x.json"), dir.join("kept.json"));
        std::fs::write(&kept, "earlier run").unwrap();
        for path in [&out, &kept] {
            // The checkpoint directory is missing: the crawl fails after
            // the artifact paths were probed.
            let cli = parse(&argv(&format!(
                "crawl --sites 60 --seeders 10 --steps 2 --checkpoint {}/nodir/ck.json \
                 --checkpoint-every 1 --out {}",
                dir.display(),
                path.display()
            )))
            .unwrap();
            assert!(matches!(run(&cli), Err(CcError::Io { .. })));
        }
        assert!(!out.exists(), "a failed crawl left an empty --out file");
        assert_eq!(std::fs::read_to_string(&kept).unwrap(), "earlier run");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unwritable_metrics_out_is_rejected_before_the_crawl() {
        let mut cli =
            parse(&argv("report --metrics-out /nonexistent-ccrs-dir/m.json")).unwrap();
        // A paper-scale world would take minutes — the unwritable path must
        // error out long before the crawl would start.
        cli.study.web = cc_web::WebConfig::paper_scale();
        let start = std::time::Instant::now();
        let err = run(&cli).unwrap_err().to_string();
        assert!(
            err.contains("--metrics-out") && err.contains("not writable"),
            "unclear error: {err}"
        );
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "rejection should be fail-fast, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn metrics_out_writes_a_parsable_run_report() {
        let dir = std::env::temp_dir().join("ccrs-cli-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let mut cli = parse(&argv(&format!(
            "truth --seed 5 --steps 3 --walks 6 --workers 2 --trace --metrics-out {}",
            path.display()
        )))
        .unwrap();
        cli.study.web = cc_web::WebConfig::small();
        run(&cli).unwrap();
        let report =
            cc_telemetry::RunReport::from_json(&std::fs::read_to_string(&path).unwrap())
                .expect("run report parses back");
        assert_eq!(report.schema, cc_telemetry::RunReport::SCHEMA);
        assert!(
            !report.deterministic.counters.is_empty(),
            "no counters recorded"
        );
        assert!(!report.timing.spans.is_empty(), "no spans recorded");
        let workers = report.workers.expect("parallel run carries worker section");
        assert_eq!(workers.n_workers, 2);
        assert_eq!(workers.per_worker.len(), 2);
    }

    #[test]
    fn truth_command_end_to_end() {
        let mut cli = parse(&argv("truth --seed 9 --sites 60 --seeders 10 --steps 3")).unwrap();
        cli.study.web = cc_web::WebConfig {
            seed: 9,
            n_sites: 60,
            n_seeders: 10,
            ..cc_web::WebConfig::small()
        };
        let out = run(&cli).unwrap();
        assert!(out.contains("precision"), "{out}");
    }

    #[test]
    fn blocklist_command_writes_file() {
        let dir = std::env::temp_dir().join("ccrs-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blocklist.json");
        let cli = parse(&argv(&format!(
            "blocklist --seed 4 --sites 80 --seeders 12 --steps 3 --out {}",
            path.display()
        )))
        .unwrap();
        let msg = run(&cli).unwrap();
        assert!(msg.contains("released"));
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(
            cc_defense::artifacts::BlocklistArtifacts::from_json(&content).is_ok(),
            "released bundle should parse back"
        );
    }

    #[test]
    fn kill_and_resume_through_the_cli_match_an_uninterrupted_run() {
        let dir = std::env::temp_dir().join("ccrs-cli-resume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("ck.json");
        let full_out = dir.join("full.json");
        let resumed_out = dir.join("resumed.json");
        let base = format!(
            "crawl --seed 11 --steps 3 --walks 10 --failure-rate 0.2 --retries 3 \
             --workers 2 --checkpoint {} --checkpoint-every 2",
            ck.display()
        );

        let mut full = parse(&argv(&format!("{base} --out {}", full_out.display()))).unwrap();
        full.study.web = cc_web::WebConfig::small();
        run(&full).unwrap();

        let mut killed =
            parse(&argv(&format!("{base} --kill-after 4 --out {}", dir.join("k.json").display())))
                .unwrap();
        killed.study.web = cc_web::WebConfig::small();
        run(&killed).unwrap();

        let mut resumed = parse(&argv(&format!(
            "{base} --resume {} --out {}",
            ck.display(),
            resumed_out.display()
        )))
        .unwrap();
        resumed.study.web = cc_web::WebConfig::small();
        run(&resumed).unwrap();

        let full_json = std::fs::read_to_string(&full_out).unwrap();
        let resumed_json = std::fs::read_to_string(&resumed_out).unwrap();
        assert_eq!(full_json, resumed_json, "resumed dataset bytes diverged");
        std::fs::remove_dir_all(&dir).ok();
    }
}
