//! Request routing: path dispatch, conditional revalidation, and error
//! shaping.
//!
//! Every data endpoint resolves to a precomputed [`CachedBody`] (or an
//! assembled one, for `/smugglers`); the router's only work is matching
//! the path, comparing `If-None-Match` against the strong ETag, and
//! choosing between the full `200` and an empty `304`.

use cc_http::{Request, Response, StatusCode};

use crate::index::{CachedBody, ServingIndex, SmugglerRole, SERVE_SCHEMA};
use crate::server::{json_string, Shared};

/// Default `/smugglers` row cap when `limit` is absent.
const DEFAULT_SMUGGLER_LIMIT: usize = 20;

/// A routed request: the metrics label, the response, and whether this
/// request triggers shutdown.
pub(crate) struct Routed {
    pub(crate) label: &'static str,
    pub(crate) response: Response,
    pub(crate) shutdown: bool,
}

impl Routed {
    fn new(label: &'static str, response: Response) -> Routed {
        Routed {
            label,
            response,
            shutdown: false,
        }
    }
}

/// Dispatch one decoded request.
///
/// The index snapshot is taken **once**, up front: every body, ETag, and
/// header in this response comes from the same epoch, even if a
/// publisher swaps in a new one mid-request. The epoch rides on every
/// response as `X-Cc-Epoch`, so clients (cc-loadgen's freshness
/// assertions) can watch a followed crawl advance without parsing
/// bodies.
pub(crate) fn route(req: &Request, shared: &Shared) -> Routed {
    let index = shared.handle.current();
    let mut routed = route_inner(req, shared, &index);
    routed
        .response
        .headers
        .set("x-cc-epoch", index.epoch().to_string());
    routed
}

fn route_inner(req: &Request, shared: &Shared, index: &ServingIndex) -> Routed {
    let path = req.url.path.as_str();
    let is_get = req.method == cc_http::Method::Get;
    let is_post = req.method == cc_http::Method::Post;

    if path == "/shutdown" {
        if !is_post {
            return Routed::new("shutdown", method_not_allowed("POST"));
        }
        let mut resp = Response::raw(StatusCode::OK, "{\"status\":\"shutting down\"}");
        resp.headers.set("content-type", "application/json");
        return Routed {
            label: "shutdown",
            response: resp,
            shutdown: true,
        };
    }
    if !is_get {
        return Routed::new("other", method_not_allowed("GET"));
    }

    if path == "/metrics" {
        // Live, never cached: the snapshot changes with every request.
        // A serialization failure is a real 500, not a 200 with an error
        // body — scrapers alert on status codes, not on body contents.
        let resp = match shared.collector.report(None).to_json() {
            Ok(body) => live(StatusCode::OK, body, "application/json"),
            Err(e) => serialization_failure("metrics", &e),
        };
        return Routed::new("metrics", resp);
    }

    if path == "/metrics.prom" {
        let text = cc_telemetry::render_prometheus(&shared.collector.report(None));
        return Routed::new(
            "metrics",
            live(StatusCode::OK, text, "text/plain; version=0.0.4; charset=utf-8"),
        );
    }

    if path == "/logs" {
        return Routed::new(
            "logs",
            live(StatusCode::OK, shared.request_log_json(), "application/json"),
        );
    }

    if path == "/progress" {
        // Live, never cached: how much of the crawl this epoch has
        // indexed (a static index reports 1 epoch, complete), plus the
        // crawl's own progress counters when a running study is attached.
        let mut body = format!(
            "{{\"schema\":\"{SERVE_SCHEMA}\",\"epoch\":{},\"swaps\":{},\
             \"walks_indexed\":{},\"walks_total\":{},\"complete\":{}}}",
            index.epoch(),
            shared.handle.swaps(),
            index.walks(),
            index.total_walks(),
            index.complete()
        );
        if let Some(progress) = &shared.cfg.live.progress {
            match serde_json::to_string(&progress.snapshot()) {
                // Both are JSON objects: drop the closing brace and the
                // opening one to merge the snapshot's fields in.
                Ok(snapshot) => {
                    body.pop();
                    body.push(',');
                    body.push_str(&snapshot[1..]);
                }
                Err(e) => return Routed::new("progress", serialization_failure("progress", &e)),
            }
        }
        return Routed::new("progress", live(StatusCode::OK, body, "application/json"));
    }

    if path == "/timeseries" {
        let resp = match &shared.cfg.live.ring {
            Some(ring) => match serde_json::to_string(&ring.snapshot()) {
                Ok(samples) => live(
                    StatusCode::OK,
                    format!("{{\"schema\":\"cc-obs/v1\",\"samples\":{samples}}}"),
                    "application/json",
                ),
                Err(e) => serialization_failure("timeseries", &e),
            },
            None => live(
                StatusCode::NOT_FOUND,
                "{\"error\":\"no snapshot ring attached\"}".into(),
                "application/json",
            ),
        };
        return Routed::new("timeseries", resp);
    }

    if path == "/smugglers" {
        return smugglers(req, index);
    }

    // Everything else is a precomputed body (or a 404).
    let label = match path {
        "/healthz" => "healthz",
        "/report" => "report",
        "/catalog" => "catalog",
        p if p.starts_with("/report/") => "report-section",
        p if p.starts_with("/walks/") => "walks",
        p if p.starts_with("/uids/") => "uids",
        _ => "other",
    };
    match index.lookup(path) {
        Some(cached) => Routed::new(label, conditional(req, cached, index)),
        None => Routed::new(label, not_found(path)),
    }
}

/// `/smugglers?role=dedicated|multi&limit=N`: assembled per request from
/// presliced rows, still ETagged so clients can revalidate.
fn smugglers(req: &Request, index: &ServingIndex) -> Routed {
    let mut role = None;
    let mut limit = DEFAULT_SMUGGLER_LIMIT;
    for (key, value) in req.url.query() {
        match key.as_str() {
            "role" => match SmugglerRole::parse(value) {
                Some(r) => role = Some(r),
                None => {
                    return Routed::new(
                        "smugglers",
                        bad_request(&format!(
                            "unknown role {value:?} (expected dedicated or multi)"
                        )),
                    )
                }
            },
            "limit" => match value.parse::<usize>() {
                Ok(n) => limit = n,
                Err(_) => {
                    return Routed::new(
                        "smugglers",
                        bad_request(&format!("limit {value:?} is not a number")),
                    )
                }
            },
            _ => {
                return Routed::new(
                    "smugglers",
                    bad_request(&format!("unknown query parameter {key:?}")),
                )
            }
        }
    }
    let assembled = index.smugglers(role, limit);
    Routed::new("smugglers", conditional(req, &assembled, index))
}

/// A live (never-cacheable) response: explicit content type plus
/// `Cache-Control: no-store`, so no intermediary replays a stale
/// snapshot of a moving value.
fn live(status: StatusCode, body: String, content_type: &str) -> Response {
    let mut resp = Response::raw(status, body);
    resp.headers.set("content-type", content_type);
    resp.headers.set("cache-control", "no-store");
    resp
}

/// Serve a cached body, honoring `If-None-Match`. Cached responses carry
/// the epoch's deterministic `Last-Modified` (on the `304` too, per RFC
/// 9110 §15.4.5 a revalidation must repeat the validator headers).
fn conditional(req: &Request, cached: &CachedBody, index: &ServingIndex) -> Response {
    if if_none_match_hits(req, &cached.etag) {
        let mut resp = Response::status_only(StatusCode::NOT_MODIFIED);
        resp.headers.set("etag", cached.etag.clone());
        resp.headers.set("last-modified", index.last_modified());
        return resp;
    }
    let mut resp = Response::raw(StatusCode::OK, cached.body.clone());
    resp.headers.set("content-type", "application/json");
    resp.headers.set("etag", cached.etag.clone());
    resp.headers.set("last-modified", index.last_modified());
    resp
}

/// Strong comparison against a (possibly list-valued) `If-None-Match`.
fn if_none_match_hits(req: &Request, etag: &str) -> bool {
    req.headers
        .get("if-none-match")
        .map(|header| {
            header
                .split(',')
                .map(str::trim)
                .any(|candidate| candidate == "*" || candidate == etag)
        })
        .unwrap_or(false)
}

fn serialization_failure(which: &str, err: &dyn std::fmt::Display) -> Response {
    live(
        StatusCode::INTERNAL_SERVER_ERROR,
        format!(
            "{{\"error\":\"{which} serialization failed\",\"detail\":{}}}",
            json_string(&err.to_string())
        ),
        "application/json",
    )
}

fn not_found(path: &str) -> Response {
    let mut resp = Response::raw(
        StatusCode::NOT_FOUND,
        format!("{{\"error\":\"not found\",\"path\":{}}}", json_string(path)),
    );
    resp.headers.set("content-type", "application/json");
    resp
}

fn bad_request(msg: &str) -> Response {
    let mut resp = Response::raw(
        StatusCode::BAD_REQUEST,
        format!("{{\"error\":{}}}", json_string(msg)),
    );
    resp.headers.set("content-type", "application/json");
    resp
}

fn method_not_allowed(allow: &str) -> Response {
    let mut resp = Response::raw(
        StatusCode::METHOD_NOT_ALLOWED,
        format!("{{\"error\":\"method not allowed\",\"allow\":{}}}", json_string(allow)),
    );
    resp.headers.set("content-type", "application/json");
    resp.headers.set("allow", allow);
    resp
}
