//! Open-loop HTTP client for the serve_load workload.
//!
//! Requests leave on a fixed schedule whatever the server does, spread
//! round-robin over a few keep-alive connections, one thread each. Every
//! request is timed from the moment it was due, so a stall shows up in
//! the latency of the requests queued behind it, and the raw samples are
//! kept so percentiles are exact. cc-loadgen's closed-loop runner and its
//! bucketed latency summary are deliberately not used here.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use cc_http::{Request, Response};
use cc_loadgen::{TaskKind, TaskMix};
use cc_url::Url;
use cc_util::DetRng;

/// The parameter pools of the served study (what `/catalog` lists).
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    pub sections: Vec<String>,
    pub walks: Vec<u32>,
    pub domains: Vec<String>,
}

/// One request of the schedule.
#[derive(Debug, Clone)]
pub struct Planned {
    pub path: String,
    /// `/report` requests sent with the last ETag this connection saw,
    /// the way a polling client revalidates.
    pub revalidate: bool,
}

/// Draw `n` requests from cc-loadgen's `mixed` task weights, with the
/// same parameter choices its users make.
pub fn plan(seed: u64, n: usize, catalog: &Catalog) -> Vec<Planned> {
    let mix = TaskMix::named("mixed").expect("cc-loadgen defines the mixed task set");
    let mut rng = DetRng::new(seed).fork("perfbench.serve_load");
    (0..n)
        .map(|_| {
            let kind = mix.pick(&mut rng).kind;
            let path = match kind {
                TaskKind::Healthz => "/healthz".to_string(),
                TaskKind::Report => "/report".to_string(),
                TaskKind::Catalog => "/catalog".to_string(),
                TaskKind::Metrics => "/metrics".to_string(),
                TaskKind::ReportSection => format!("/report/{}", rng.pick(&catalog.sections)),
                TaskKind::Uids => format!("/uids/{}", rng.pick(&catalog.domains)),
                TaskKind::Walks => format!("/walks/{}", rng.pick(&catalog.walks)),
                TaskKind::Smugglers => {
                    let limit = rng.range(1, 25);
                    match rng.below(3) {
                        0 => format!("/smugglers?limit={limit}"),
                        1 => format!("/smugglers?role=dedicated&limit={limit}"),
                        _ => format!("/smugglers?role=multi&limit={limit}"),
                    }
                }
            };
            let revalidate = kind == TaskKind::Report && rng.chance(0.33);
            Planned { path, revalidate }
        })
        .collect()
}

/// One keep-alive connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        req.write_to(&mut self.writer).map_err(|e| e.to_string())?;
        Response::read_from(&mut self.reader).map_err(|e| e.to_string())
    }
}

/// A request for `path` on the server at `addr`.
pub fn request(addr: SocketAddr, path: &str) -> Result<Request, String> {
    let url = Url::parse(&format!("http://{addr}{path}")).map_err(|e| format!("{path}: {e:?}"))?;
    Ok(Request::navigation(url).with_user_agent("perfbench"))
}

/// What one request phase saw.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Due time to response, per answered request, in ms.
    pub latencies_ms: Vec<f64>,
    /// Due time to send time, per request, in ms.
    pub send_lag_ms: Vec<f64>,
    pub sent: u64,
    /// 5xx (shed included), 4xx, transport errors and unanswered requests.
    pub errors: u64,
    pub response_bytes: u64,
    /// `/report/{section}` bodies that differ from the offline report.
    pub mismatches: Vec<String>,
}

/// Send `plan` at `rate` requests per second over `conns`, request `i` on
/// connection `i % conns.len()`. `expected` maps paths to the body they
/// must be answered with. The connections are closed on return.
pub fn run(
    addr: SocketAddr,
    conns: Vec<Conn>,
    plan: &[Planned],
    rate: f64,
    expected: &BTreeMap<String, String>,
) -> Result<Outcome, String> {
    let requests: Vec<Request> = plan
        .iter()
        .map(|p| request(addr, &p.path))
        .collect::<Result<_, _>>()?;
    let n_conns = conns.len();
    let start = Instant::now() + Duration::from_millis(2);
    let parts: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let requests = &requests;
                scope.spawn(move || {
                    let mut out = Outcome::default();
                    let mut etag: Option<String> = None;
                    for i in (c..plan.len()).step_by(n_conns) {
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let mut req = requests[i].clone();
                        if plan[i].revalidate {
                            if let Some(tag) = &etag {
                                req.headers.set("if-none-match", tag.clone());
                            }
                        }
                        let sent = Instant::now();
                        out.sent += 1;
                        out.send_lag_ms
                            .push(ms(sent.saturating_duration_since(due)));
                        let resp = match conn.call(&req) {
                            Ok(resp) => resp,
                            Err(_) => {
                                // Unanswered: count it, and reopen the
                                // connection for the requests behind it.
                                out.errors += 1;
                                if let Ok(fresh) = Conn::connect(addr) {
                                    conn = fresh;
                                }
                                continue;
                            }
                        };
                        out.latencies_ms
                            .push(ms(Instant::now().saturating_duration_since(due)));
                        let body = resp.body.wire_bytes();
                        out.response_bytes += body.len() as u64;
                        let code = resp.status.0;
                        if !(resp.status.is_success() || code == 304) {
                            out.errors += 1;
                        }
                        if let Some(want) = expected.get(&plan[i].path) {
                            if code != 200 || body != want.as_bytes() {
                                out.mismatches.push(format!(
                                    "{} answered {code}, body differs",
                                    plan[i].path
                                ));
                            }
                        }
                        if plan[i].path == "/report" {
                            if let Some(tag) = resp.headers.get("etag") {
                                etag = Some(tag.to_string());
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = Outcome::default();
    for p in parts {
        total.latencies_ms.extend(p.latencies_ms);
        total.send_lag_ms.extend(p.send_lag_ms);
        total.sent += p.sent;
        total.errors += p.errors;
        total.response_bytes += p.response_bytes;
        total.mismatches.extend(p.mismatches);
    }
    Ok(total)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
