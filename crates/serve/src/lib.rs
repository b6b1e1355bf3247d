//! # cc-serve
//!
//! A std-only HTTP/1.1 query server over crawl datasets — finished *or
//! still running*: the layer that turns the study's analysis outputs
//! (smuggler rankings, UID classifications, path shapes, walk records)
//! from files on disk into a service real consumers can hit, and keeps
//! that service fresh while a crawl is still walking.
//!
//! Five pieces:
//!
//! * [`index`] — [`ServingIndex`](index::ServingIndex): one immutable
//!   **epoch** of a crawl. Loads a
//!   [`CrawlCheckpoint`](cc_crawler::CrawlCheckpoint), reruns the
//!   deterministic pipeline + report, and precomputes every response body
//!   with a strong ETag plus the epoch's deterministic `Last-Modified`.
//!   Immutable after construction, so the hot path is a map lookup +
//!   socket write with no locking.
//! * [`handle`] — [`IndexHandle`](handle::IndexHandle): the
//!   epoch-swappable cell the router reads through. Publishers fill an
//!   inactive slot and atomically flip it live; readers never wait on a
//!   build. [`IndexSource`](handle::IndexSource) is the redesigned
//!   server input: a static snapshot, a followed checkpoint file, or an
//!   externally-driven handle — offline serving is just the one-epoch
//!   special case.
//! * [`publish`] — [`IncrementalIndexBuilder`](publish::IncrementalIndexBuilder)
//!   folds successive crawl snapshots into numbered epochs over one
//!   cached simulated web, and
//!   [`IndexPublisher`](publish::IndexPublisher) runs that fold on a
//!   dedicated coalescing thread behind the executor's
//!   [`SnapshotSink`](cc_crawler::SnapshotSink) hook.
//! * [`server`] — [`Server`](server::Server): a `TcpListener` accept
//!   loop feeding a fixed worker thread pool through a bounded queue.
//!   Load above `max_inflight` is shed with `503`; shutdown (via
//!   `POST /shutdown` or [`ServerHandle::shutdown`](server::ServerHandle))
//!   stops accepting, drains in-flight connections, and joins cleanly.
//! * [`router`] — maps decoded [`Request`](cc_http::Request)s to cached
//!   bodies from one consistent epoch snapshot per request, handles
//!   `If-None-Match` → `304`, stamps `X-Cc-Epoch` on every response, and
//!   records per-endpoint telemetry into the server's
//!   [`Collector`](cc_telemetry::Collector) (served live at `/metrics`).
//!
//! The server is also the study's one live front end: a
//! [`LiveSources`](server::LiveSources) in its config attaches a running
//! crawl's progress counters, the cc-obs sampler's ring and the session
//! collector, so `crawl --serve-addr` and `--obs-addr` answer the same
//! routes from the same code.
//!
//! Endpoints:
//!
//! * `GET /healthz`, `/report`, `/report/{section}`,
//!   `/smugglers?role=dedicated|multi&limit=N`, `/uids/{domain}`,
//!   `/walks/{id}`, `/catalog` — precomputed, ETagged bodies;
//! * `GET /progress` — walks indexed vs total for the current epoch,
//!   plus the crawl's live walk/step counts and per-worker rows when
//!   progress counters are attached;
//! * `GET /timeseries` — the sampler ring's retained window
//!   (`{"schema":"cc-obs/v1","samples":[…]}`; 404 without a ring);
//! * `GET /metrics`, `/metrics.prom` — the collector as run-report JSON
//!   and as Prometheus text exposition;
//! * `GET /logs` — the deterministic head-sampled request log;
//! * `POST /shutdown`.
//!
//! Every live route (`/progress`, `/timeseries`, `/metrics`,
//! `/metrics.prom`, `/logs`) carries an explicit `Content-Type` and
//! `Cache-Control: no-store`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod handle;
pub mod index;
pub mod publish;
pub mod router;
pub mod server;

pub use handle::{FollowConfig, IndexHandle, IndexSource};
pub use index::{
    etag_for, http_date, last_modified_for_epoch, CachedBody, ServingIndex, SmugglerRole,
};
pub use publish::{IncrementalIndexBuilder, IndexPublisher};
pub use server::{LiveSources, RequestLogEntry, ServeConfig, Server, ServerHandle};
