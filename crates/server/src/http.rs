//! Dependency-free SPARQL-over-HTTP front end.
//!
//! HTTP/1.1 over `std::net::TcpListener` with **one thread per
//! connection**, the way the engine's request handler talks to an
//! endpoint: an accept loop waits on the listener alone (raw `poll(2)`
//! on its fd, so it sees shutdown; no external crates) and hands each
//! connection to a scoped thread that reads it, answers its requests in
//! order with blocking writes, and blocks in admission, batching windows
//! and the engine while a query runs. Connections are keep-alive by
//! default. A connection thread reads with a 50 ms timeout, the cadence
//! at which it sees shutdown, and drops a client that takes no response
//! bytes for 30 s, so a client that stops reading stalls only itself.
//! A request still incomplete 30 s (on the federation's clock) after its
//! first byte is answered `408` (code `timeout`) and closed, so a client
//! that stops writing holds its connection place no longer.
//! At most `MAX_CONNECTIONS` (256) are served at once; one more is
//! answered `503` (code `shed`) and closed. An idle connection holds a
//! parked thread, not a query slot: `max_in_flight` counts queries.
//!
//! Routes:
//!
//! * `GET /sparql?query=<pct-encoded>` or `POST /sparql` (query text in
//!   the body) — execute a query. Headers: `X-Tenant` names the tenant
//!   (default `default`), `X-Deadline-Ms` requests a per-query deadline
//!   in milliseconds (clamped to the tenant's budget; a non-number: 400).
//! * `GET /healthz` — `200 ok` while serving, `503 draining` during
//!   drain.
//! * `GET /stats` — the serving counters, wire totals, and `batch.*`
//!   scheduler counters as text.
//!
//! A successful query returns `200` with the same tab-separated table
//! the CLI prints ([`render_solutions`] is shared with `lusail-cli
//! query`, so the bodies diff byte-for-byte). A refused query returns
//! `503` (shed / draining) or `504` (impossible deadline) with a
//! machine-greppable body:
//!
//! ```text
//! error: query rejected
//! code: shed
//! reason: server at capacity (8 queries in flight)
//! ```

use crate::{QueryServer, Rejection, ServeError};
use lusail_rdf::Dictionary;
use lusail_sparql::{parse_query, SolutionSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Renders a solution set exactly like the CLI's result table: header
/// row, up to 100 tab-separated rows (`UNDEF` for unbound), and a
/// truncation marker — one line each, `\n`-terminated.
pub fn render_solutions(sols: &SolutionSet, dict: &Dictionary) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if sols.vars.is_empty() {
        out.push_str("(no variables)\n");
        return out;
    }
    out.push_str(&sols.vars.join("\t"));
    out.push('\n');
    for row in sols.rows.iter().take(100) {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push('\t');
            }
            match cell {
                Some(id) => write!(out, "{}", dict.decode(*id)).expect("writing to a String"),
                None => out.push_str("UNDEF"),
            }
        }
        out.push('\n');
    }
    if sols.rows.len() > 100 {
        out.push_str(&format!("… ({} more rows)\n", sols.rows.len() - 100));
    }
    out
}

/// Decodes `%XX` escapes and `+` (space) in a URL query component.
/// `None` when the decoded bytes are not valid UTF-8.
pub(crate) fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| -> Option<u8> {
                    match b {
                        b'0'..=b'9' => Some(b - b'0'),
                        b'a'..=b'f' => Some(b - b'a' + 10),
                        b'A'..=b'F' => Some(b - b'A' + 10),
                        _ => None,
                    }
                };
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(hi), Some(lo)) => {
                        out.push(hi * 16 + lo);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// One parsed HTTP request.
pub(crate) struct Request {
    method: String,
    /// Path without the query string.
    path: String,
    /// The raw query string (no leading `?`), possibly empty.
    query_string: String,
    /// Header names lowercased.
    headers: Vec<(String, String)>,
    body: String,
    /// False only for an explicit `HTTP/1.0` request line.
    http11: bool,
}

impl Request {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of one `key=` parameter in the query string, decoded:
    /// `None` when absent, `Some(None)` when it does not decode to UTF-8.
    fn query_param(&self, key: &str) -> Option<Option<String>> {
        self.query_string.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then(|| percent_decode(v))
        })
    }

    /// HTTP/1.1 defaults to keep-alive; `Connection: close` (or an
    /// HTTP/1.0 request line) opts out.
    fn keep_alive(&self) -> bool {
        self.http11
            && self
                .header("connection")
                .is_none_or(|v| !v.eq_ignore_ascii_case("close"))
    }
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Tries to parse one complete request from the front of `buf`.
/// `Ok(None)` means more bytes are needed; `Err` is a protocol violation
/// the connection cannot recover from.
pub(crate) fn try_parse(buf: &[u8]) -> Result<Option<(Request, usize)>, String> {
    let Some(header_end) = find_header_end(buf) else {
        if buf.len() > 1 << 20 {
            return Err("request headers too large".into());
        }
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| "request head is not valid UTF-8".to_string())?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default().to_string();
    let target = parts.next().unwrap_or_default();
    let http11 = parts.next().unwrap_or("HTTP/1.1") != "HTTP/1.0";
    let (path, query_string) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    // The body's length decides where the next pipelined request starts,
    // so a length that cannot be read, or two that disagree, is fatal.
    let mut content_length: Option<usize> = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        let n = v
            .parse()
            .map_err(|_| format!("unparsable Content-Length {v:?}"))?;
        if content_length.is_some_and(|first| first != n) {
            return Err("conflicting Content-Length headers".into());
        }
        content_length = Some(n);
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > 8 << 20 {
        return Err("request body too large".into());
    }
    let total = header_end + 4 + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    let body = String::from_utf8(buf[header_end + 4..total].to_vec())
        .map_err(|_| "request body is not valid UTF-8".to_string())?;
    Ok(Some((
        Request {
            method,
            path,
            query_string,
            headers,
            body,
            http11,
        },
        total,
    )))
}

/// Serializes a full response. `keep_alive` picks the `Connection`
/// header; bodies are always `Content-Length`-delimited (no chunking).
fn render_response(status: u16, reason: &str, body: &str, keep_alive: bool) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: {connection}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

fn rejection_response(r: &Rejection) -> (u16, &'static str, String) {
    let (status, reason_phrase) = match r {
        Rejection::Shed { .. } | Rejection::Draining => (503, "Service Unavailable"),
        Rejection::DeadlineExceeded => (504, "Gateway Timeout"),
    };
    let detail = match r {
        Rejection::Shed { reason } => reason.clone(),
        Rejection::DeadlineExceeded => "effective deadline is zero".to_string(),
        Rejection::Draining => "server is shutting down".to_string(),
    };
    let body = format!(
        "error: query rejected\ncode: {}\nreason: {detail}\n",
        r.code()
    );
    (status, reason_phrase, body)
}

/// The `/stats` body: serving counters, wire totals, probe-cache
/// counters, and the batching scheduler's `batch.*` lines.
fn stats_body(server: &QueryServer) -> String {
    let c = server.counters();
    let wire = server.federation().stats_snapshot();
    let cache = server.engine().probe_cache_stats();
    let batch = server.batch_stats();
    format!(
        "admitted: {}\ncomplete_results: {}\nincomplete_results: {}\n\
         shed: {}\ndeadline_rejected: {}\ndraining_rejected: {}\n\
         health_invalidations: {}\nqueries_shed: {}\n\
         wire_requests: {}\ncache_hits: {}\ncache_misses: {}\n\
         cache_evictions: {}\nbatch.windows: {}\nbatch.batched_queries: {}\n\
         batch.max_window: {}\nbatch.shared_hits: {}\n\
         batch.wire_requests_saved: {}\n",
        c.admitted,
        c.complete_results,
        c.incomplete_results,
        c.shed,
        c.deadline_rejected,
        c.draining_rejected,
        c.health_invalidations,
        c.total_rejected(),
        wire.total_requests(),
        cache.hits,
        cache.misses,
        cache.evictions,
        batch.windows,
        batch.batched_queries,
        batch.max_window,
        batch.shared_hits,
        batch.wire_requests_saved,
    )
}

/// Executes a `/sparql` request to a response triple. Runs on the
/// connection's thread — admission, batching windows, and the engine may
/// all block.
pub(crate) fn handle_sparql(server: &QueryServer, req: &Request) -> (u16, &'static str, String) {
    let bad_request = |reason: &str| {
        let body = format!("error: bad request\ncode: parse\nreason: {reason}\n");
        (400, "Bad Request", body)
    };
    let text = if req.method == "GET" {
        match req.query_param("query") {
            Some(None) => return bad_request("query is not valid UTF-8"),
            text => text.flatten(),
        }
    } else {
        (!req.body.is_empty()).then(|| req.body.clone())
    };
    let Some(text) = text else {
        return bad_request("missing query");
    };
    let tenant = req.header("x-tenant").unwrap_or("default").to_string();
    let deadline = match req.header("x-deadline-ms").map(str::parse) {
        Some(Ok(ms)) => Some(Duration::from_millis(ms)),
        Some(Err(_)) => return bad_request("X-Deadline-Ms is not a whole number of milliseconds"),
        None => None,
    };
    let dict = Arc::clone(server.federation().dict());
    let query = match parse_query(&text, &dict) {
        Ok(q) => q,
        Err(e) => return bad_request(&format!("{e:?}")),
    };
    match server.execute_with_deadline(&tenant, &query, deadline) {
        Ok(result) => {
            let body = render_solutions(&result.solutions, &dict);
            if result.complete {
                (200, "OK", body)
            } else {
                // Partial results are still results, but the degradation
                // must be visible to the client.
                (206, "Partial Content", body)
            }
        }
        Err(ServeError::Rejected(r)) => rejection_response(&r),
        Err(ServeError::Engine(e)) => (
            500,
            "Internal Server Error",
            format!("error: engine\ncode: engine\nreason: {e:?}\n"),
        ),
    }
}

/// Answers one request: `/healthz` and `/stats` from the server's
/// state, `/sparql` through [`handle_sparql`], anything else `404`.
fn route(server: &QueryServer, request: &Request) -> (u16, &'static str, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") if server.is_draining() => {
            (503, "Service Unavailable", "draining\n".to_string())
        }
        ("GET", "/healthz") => (200, "OK", "ok\n".to_string()),
        ("GET", "/stats") => (200, "OK", stats_body(server)),
        ("GET" | "POST", "/sparql") => handle_sparql(server, request),
        _ => (
            404,
            "Not Found",
            "error: not found\ncode: route\nreason: unknown path\n".to_string(),
        ),
    }
}

/// The most connections served at once. One accepted beyond it is
/// answered `503` (code `shed`) and closed; admission never sees it.
pub(crate) const MAX_CONNECTIONS: usize = 256;

/// How long the accept loop waits on the listener, and a connection
/// thread on a read, before it looks at its shutdown flag again.
const CADENCE: Duration = Duration::from_millis(50);

/// A client that takes no response bytes for this long loses its
/// connection.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// A request still incomplete this long (on the federation's clock) after
/// its first bytes arrived is answered `408` and its connection closed.
const REQUEST_TIMEOUT: Duration = WRITE_TIMEOUT;

/// C's `struct pollfd` (fd, events, revents) and `nfds_t` (`unsigned
/// long` on Linux, `unsigned int` on macOS and the BSDs).
#[repr(C)]
struct PollFd(RawFd, i16, i16);
const POLLIN: i16 = 0x001;
#[cfg(any(target_os = "linux", target_os = "android"))]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NfdsT = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: std::ffi::c_int) -> std::ffi::c_int;
}

/// Serves `listener` until `shutdown` becomes true, then drains the
/// server (in-flight queries finish or hit their deadlines) and joins
/// the connection threads. Returns the drain report.
///
/// A failed accept (a connection reset before it was taken, no
/// descriptor left) is logged to stderr and skipped. A failed wait on
/// the listener ends serving as `shutdown` does, and is returned after
/// the drain.
pub fn run_http_loop(
    server: &Arc<QueryServer>,
    listener: TcpListener,
    shutdown: &AtomicBool,
) -> std::io::Result<crate::DrainReport> {
    listener.set_nonblocking(true)?;
    let stop = AtomicBool::new(false);
    // Every connection thread holds a clone: the count beyond this one
    // is the number of connections served.
    let places = Arc::new(());
    std::thread::scope(|scope| {
        let listening = loop {
            if shutdown.load(Ordering::SeqCst) {
                break Ok(());
            }
            match listener.accept() {
                // An error only loses a connection that was already
                // failing, or the refusal of one.
                Ok((stream, _peer)) => {
                    let _ = open(scope, server, stream, &places, &stop);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    // poll(2) on the listener alone, so shutdown is seen.
                    let mut fd = PollFd(listener.as_raw_fd(), POLLIN, 0);
                    let timeout_ms = CADENCE.as_millis() as std::ffi::c_int;
                    // SAFETY: `fd` is one exclusively borrowed `repr(C)`
                    // struct laid out as C's `struct pollfd`; the count is 1.
                    if unsafe { poll(&mut fd, 1, timeout_ms) } < 0 {
                        let e = std::io::Error::last_os_error();
                        if e.kind() != ErrorKind::Interrupted {
                            break Err(e);
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    eprintln!("http: accept failed: {e}");
                    // Out of descriptors, the listener stays readable:
                    // back off instead of spinning.
                    std::thread::sleep(CADENCE);
                }
            }
        };
        stop.store(true, Ordering::SeqCst);
        let report = server.drain();
        // The scope's end joins the connection threads.
        listening.map(|()| report)
    })
}

/// Hands an accepted connection to a scoped thread of its own, or
/// answers it `503` and closes it when [`MAX_CONNECTIONS`] are served or
/// no thread can be spawned.
fn open<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    server: &'scope QueryServer,
    stream: TcpStream,
    places: &Arc<()>,
    stop: &'scope AtomicBool,
) -> std::io::Result<()> {
    // BSD and macOS hand out accepted sockets with the listener's O_NONBLOCK.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(CADENCE))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    // Shared with the thread, so a failed spawn can still answer it.
    let stream = Arc::new(stream);
    // Only this thread adds places, so the count cannot pass the cap
    // between this check and the clone.
    if Arc::strong_count(places) <= MAX_CONNECTIONS {
        let (place, conn) = (Arc::clone(places), Arc::clone(&stream));
        let spawned = std::thread::Builder::new().spawn_scoped(scope, move || {
            let _place = place;
            serve_connection(server, &conn, stop);
        });
        if spawned.is_ok() {
            return Ok(());
        }
    }
    let (status, phrase, body) = rejection_response(&Rejection::Shed {
        reason: format!("too many connections ({MAX_CONNECTIONS} open)"),
    });
    (&*stream).write_all(&render_response(status, phrase, &body, false))
}

/// Answers one connection's requests in order, each response written
/// whole before the next request is parsed, until the client closes or
/// asks to, breaks the protocol, takes no response for
/// [`WRITE_TIMEOUT`], or leaves a request incomplete for
/// [`REQUEST_TIMEOUT`] (answered `408`). `stop` is looked at before each
/// request and after each read timeout: an idle thread ends within one
/// read timeout, a busy one after its in-flight response.
fn serve_connection(server: &QueryServer, mut stream: &TcpStream, stop: &AtomicBool) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    // When the buffer first held bytes of the request not yet complete.
    let mut started: Option<Duration> = None;
    while !stop.load(Ordering::SeqCst) {
        match try_parse(&buf) {
            Ok(Some((request, consumed))) => {
                buf.drain(..consumed);
                started = None;
                let keep = request.keep_alive();
                let (status, phrase, body) = route(server, &request);
                let response = render_response(status, phrase, &body, keep);
                if stream.write_all(&response).is_err() || !keep {
                    return;
                }
            }
            Ok(None) => {
                if !buf.is_empty() {
                    // An idle keep-alive connection has an empty buffer and
                    // is never timed out here.
                    let now = server.federation().clock().now();
                    if now.saturating_sub(*started.get_or_insert(now)) >= REQUEST_TIMEOUT {
                        let body = format!(
                            "error: request timeout\ncode: timeout\nreason: request \
                             incomplete after {} s\n",
                            REQUEST_TIMEOUT.as_secs()
                        );
                        let response = render_response(408, "Request Timeout", &body, false);
                        let _ = stream.write_all(&response);
                        return;
                    }
                }
                match stream.read(&mut chunk) {
                    Ok(0) => return,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    // A read timeout: look at `stop` and the clock again.
                    Err(e)
                        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                    Err(_) => return,
                }
            }
            Err(reason) => {
                let body = format!("error: bad request\ncode: parse\nreason: {reason}\n");
                let _ = stream.write_all(&render_response(400, "Bad Request", &body, false));
                return;
            }
        }
    }
}

/// Installs a process-wide SIGTERM/SIGINT handler that flips the
/// returned flag (idempotent; the same flag is returned every time).
/// Raw `signal(2)` via the C runtime — no external crates.
pub fn install_shutdown_flag() -> &'static AtomicBool {
    static FLAG: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_signal(_signum: i32) {
        FLAG.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
    &FLAG
}
