//! Dependency-free SPARQL-over-HTTP front end.
//!
//! An **evented** HTTP/1.1 loop over `std::net::TcpListener`: one thread
//! — the readiness loop — owns every socket and multiplexes them through
//! raw `poll(2)` (no external crates, the same libc-FFI pattern as
//! [`install_shutdown_flag`]). Connections are keep-alive by default, and
//! an *idle* connection costs a poll slot, not a worker thread, so
//! capacity applies to in-flight queries rather than open sockets: a
//! thread is spawned per **active** `/sparql` request (queries block in
//! admission, batching windows, and the engine) and dies when its
//! response is written. `/healthz`, `/stats`, parse errors, and unknown
//! routes are answered inline on the loop. Workers hand their connection
//! back through a completion channel plus a self-pipe wakeup.
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
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

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
pub fn percent_decode(s: &str) -> Option<String> {
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

/// Writes the whole buffer on a socket that may be in nonblocking mode
/// (`O_NONBLOCK` is a property of the file description, shared with the
/// readiness loop's duped fd), spinning briefly on `WouldBlock`. The
/// peer may already be gone; a failed write only loses the response to
/// a client that stopped listening.
fn write_all_spinning(stream: &mut TcpStream, mut data: &[u8]) {
    let give_up = Instant::now() + Duration::from_secs(30);
    while !data.is_empty() {
        match stream.write(data) {
            Ok(0) => return,
            Ok(n) => data = &data[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= give_up {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
    let _ = stream.flush();
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

/// Executes a `/sparql` request to a response triple. Runs on a worker
/// thread — admission, batching windows, and the engine may all block.
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

// ---- the readiness loop ---------------------------------------------

/// `poll(2)` via the C runtime — the readiness primitive of the evented
/// loop, with no external crates (same pattern as the raw `signal(2)`
/// in [`install_shutdown_flag`]).
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;

/// C's `nfds_t`: `unsigned long` on Linux, `unsigned int` on macOS and
/// the BSDs.
#[cfg(any(target_os = "linux", target_os = "android"))]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NfdsT = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: std::ffi::c_int) -> std::ffi::c_int;
}

/// Polls with a timeout in milliseconds. A signal interruption reports
/// as an empty readiness set so the caller re-checks its shutdown flag.
fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<()> {
    let nfds = NfdsT::try_from(fds.len()).expect("pollfd count fits nfds_t");
    // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)` structs
    // laid out as C's `struct pollfd`, and `nfds` is exactly its length.
    let n = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
    if n < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() != ErrorKind::Interrupted {
            return Err(e);
        }
        for fd in fds.iter_mut() {
            fd.revents = 0;
        }
    }
    Ok(())
}

/// One client connection owned by the readiness loop.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed by a parsed request.
    buf: Vec<u8>,
    /// True while a worker thread owns this connection's current
    /// request; the loop stops polling it until the worker hands it
    /// back.
    busy: bool,
}

/// Drains readable bytes into the connection buffer. Returns false when
/// the peer closed or the socket failed (the connection is done).
fn read_into(conn: &mut Conn) -> bool {
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Runs the evented readiness loop until `shutdown` becomes true, then
/// drains the server (in-flight queries finish or hit their deadlines)
/// and joins the remaining request workers. Returns the drain report.
///
/// Keep-alive connections are parked in the poll set between requests —
/// 64 idle clients hold 64 fds and zero threads, and admission capacity
/// is only consumed by queries actually submitted. Worker threads exist
/// per in-flight `/sparql` request and hand the connection back through
/// the completion channel + self-pipe when the response is written.
pub fn run_http_loop(
    server: &Arc<QueryServer>,
    listener: TcpListener,
    shutdown: &AtomicBool,
) -> std::io::Result<crate::DrainReport> {
    listener.set_nonblocking(true)?;
    // Self-pipe: workers nudge the poll loop when a connection is handed
    // back, so an idle server still reacts to completions immediately.
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let (done_tx, done_rx) = mpsc::channel::<(u64, bool)>();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut fds = vec![
            PollFd {
                fd: listener.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            },
            PollFd {
                fd: wake_rx.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            },
        ];
        let mut polled: Vec<u64> = Vec::new();
        for (token, conn) in conns.iter() {
            if !conn.busy {
                fds.push(PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events: POLLIN,
                    revents: 0,
                });
                polled.push(*token);
            }
        }
        // The 50ms timeout doubles as the shutdown-flag check cadence
        // and a fallback sweep for lost wakeup bytes.
        poll_fds(&mut fds, 50)?;
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        if fds[0].revents != 0 {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        stream.set_nonblocking(true)?;
                        conns.insert(
                            next_token,
                            Conn {
                                stream,
                                buf: Vec::new(),
                                busy: false,
                            },
                        );
                        next_token += 1;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }
        if fds[1].revents != 0 {
            let mut sink = [0u8; 64];
            while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        }
        // Connections to (re)examine: workers done with their request,
        // plus idle connections that became readable.
        let mut ready: Vec<u64> = Vec::new();
        while let Ok((token, keep)) = done_rx.try_recv() {
            if !keep {
                conns.remove(&token);
            } else if let Some(conn) = conns.get_mut(&token) {
                conn.busy = false;
                // A pipelined request may already sit in the buffer.
                ready.push(token);
            }
        }
        for (i, token) in polled.iter().enumerate() {
            if fds[2 + i].revents == 0 {
                continue;
            }
            if let Some(conn) = conns.get_mut(token) {
                if read_into(conn) {
                    ready.push(*token);
                } else {
                    conns.remove(token);
                }
            }
        }
        for token in ready {
            dispatch_buffered(server, &mut conns, token, &done_tx, &wake_tx, &mut workers);
        }
        workers.retain(|h| !h.is_finished());
    }
    let report = server.drain();
    for handle in workers {
        let _ = handle.join();
    }
    Ok(report)
}

/// Parses and routes every complete request buffered on one connection.
/// `/healthz`, `/stats`, parse errors, and unknown routes are answered
/// inline; a `/sparql` request marks the connection busy and moves to a
/// worker thread (no pipelining past an in-flight query).
fn dispatch_buffered(
    server: &Arc<QueryServer>,
    conns: &mut HashMap<u64, Conn>,
    token: u64,
    done_tx: &mpsc::Sender<(u64, bool)>,
    wake_tx: &UnixStream,
    workers: &mut Vec<std::thread::JoinHandle<()>>,
) {
    loop {
        let Some(conn) = conns.get_mut(&token) else {
            return;
        };
        if conn.busy {
            return;
        }
        let (request, consumed) = match try_parse(&conn.buf) {
            Ok(Some(parsed)) => parsed,
            Ok(None) => return,
            Err(reason) => {
                let body = format!("error: bad request\ncode: parse\nreason: {reason}\n");
                let response = render_response(400, "Bad Request", &body, false);
                write_all_spinning(&mut conn.stream, &response);
                conns.remove(&token);
                return;
            }
        };
        conn.buf.drain(..consumed);
        let keep = request.keep_alive();
        let inline: Option<(u16, &'static str, String)> =
            match (request.method.as_str(), request.path.as_str()) {
                ("GET", "/healthz") => Some(if server.is_draining() {
                    (503, "Service Unavailable", "draining\n".to_string())
                } else {
                    (200, "OK", "ok\n".to_string())
                }),
                ("GET", "/stats") => Some((200, "OK", stats_body(server))),
                (m, "/sparql") if m == "GET" || m == "POST" => None,
                _ => Some((
                    404,
                    "Not Found",
                    "error: not found\ncode: route\nreason: unknown path\n".to_string(),
                )),
            };
        match inline {
            Some((status, phrase, body)) => {
                let response = render_response(status, phrase, &body, keep);
                write_all_spinning(&mut conn.stream, &response);
                if !keep {
                    conns.remove(&token);
                    return;
                }
                // Loop: another pipelined request may be buffered.
            }
            None => {
                let Ok(stream) = conn.stream.try_clone() else {
                    conns.remove(&token);
                    return;
                };
                conn.busy = true;
                let server = Arc::clone(server);
                let done = done_tx.clone();
                let wake = wake_tx.try_clone().ok();
                workers.push(std::thread::spawn(move || {
                    let mut stream = stream;
                    let (status, phrase, body) = handle_sparql(&server, &request);
                    let response = render_response(status, phrase, &body, keep);
                    write_all_spinning(&mut stream, &response);
                    // Hand the connection back; the wake byte is
                    // best-effort (the poll timeout sweeps up losses).
                    let _ = done.send((token, keep));
                    if let Some(mut w) = wake {
                        let _ = w.write(&[1u8]);
                    }
                }));
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
