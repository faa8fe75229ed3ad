use super::*;
use crate::http::{percent_decode, render_solutions, run_http_loop};
use lusail_core::LusailConfig;
use lusail_endpoint::{
    ExecOptions, FaultProfile, FlakyEndpoint, LocalEndpoint, ManualClock, RequestPolicy,
};
use lusail_rdf::{Dictionary, Term};
use lusail_sparql::parse_query;
use lusail_store::TripleStore;
use std::sync::Arc;
use std::thread;

impl QueryServer {
    /// Queries currently executing.
    fn in_flight(&self) -> usize {
        self.state.lock().unwrap().in_flight
    }
}

fn tiny_federation() -> (Federation, Arc<Dictionary>) {
    let dict = Dictionary::shared();
    let mut store = TripleStore::new(Arc::clone(&dict));
    for i in 0..5 {
        store.insert_terms(
            &Term::iri(format!("http://x/s{i}")),
            &Term::iri("http://x/p"),
            &Term::iri(format!("http://x/o{i}")),
        );
    }
    let mut fed = Federation::new(Arc::clone(&dict));
    fed.add(Arc::new(lusail_endpoint::LocalEndpoint::new("ep0", store)));
    (fed, dict)
}

fn tiny_query(dict: &Dictionary) -> Query {
    parse_query("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }", dict).unwrap()
}

fn tiny_server(config: ServerConfig) -> (Arc<QueryServer>, Query) {
    let (fed, dict) = tiny_federation();
    let query = tiny_query(&dict);
    let server = QueryServer::new(fed, Lusail::default(), config);
    (server, query)
}

#[test]
fn admitted_query_returns_rows_and_counts() {
    let (server, query) = tiny_server(ServerConfig::default());
    let result = server.execute("alice", &query).unwrap();
    assert_eq!(result.solutions.len(), 5);
    assert!(result.complete);
    let c = server.counters();
    assert_eq!(c.admitted, 1);
    assert_eq!(c.complete_results, 1);
    assert_eq!(c.total_rejected(), 0);
    assert_eq!(server.in_flight(), 0);
}

#[test]
fn zero_deadline_is_a_typed_deadline_rejection() {
    let (server, query) = tiny_server(ServerConfig::default());
    let err = server
        .execute_with_deadline("alice", &query, Some(Duration::ZERO))
        .unwrap_err();
    match err {
        ServeError::Rejected(r) => assert_eq!(r.code(), "deadline"),
        other => panic!("expected rejection, got {other}"),
    }
    assert_eq!(server.counters().deadline_rejected, 1);
    // The rejection never reached the engine or the wire.
    assert_eq!(server.counters().admitted, 0);
}

#[test]
fn draining_server_refuses_new_queries_with_typed_rejection() {
    let (server, query) = tiny_server(ServerConfig::default());
    let report = server.drain();
    assert_eq!(report.abandoned, 0);
    assert!(server.is_draining());
    let err = server.execute("alice", &query).unwrap_err();
    match err {
        ServeError::Rejected(Rejection::Draining) => {}
        other => panic!("expected draining, got {other}"),
    }
    assert_eq!(server.counters().draining_rejected, 1);
}

#[test]
fn capacity_zero_sheds_everything_with_reason() {
    let (server, query) = tiny_server(ServerConfig {
        max_in_flight: 0,
        ..ServerConfig::default()
    });
    let err = server.execute("alice", &query).unwrap_err();
    match err {
        ServeError::Rejected(Rejection::Shed { reason }) => {
            assert!(reason.contains("capacity"), "reason was {reason:?}");
        }
        other => panic!("expected shed, got {other}"),
    }
    assert_eq!(server.counters().shed, 1);
    assert_eq!(server.counters().total_rejected(), 1);
}

#[test]
fn tenant_quota_is_independent_of_global_capacity() {
    // Global capacity is ample, but each tenant may only run one query
    // at a time. Holding tenant A's slot from another thread, A is shed
    // while B still gets in.
    let config = ServerConfig {
        max_in_flight: 8,
        tenant: TenantPolicy {
            max_in_flight: 1,
            deadline_budget: Duration::from_secs(30),
        },
        ..ServerConfig::default()
    };
    let (server, query) = tiny_server(config);
    // Occupy tenant A's slot manually via the admission path.
    let session = server
        .admit("a", Duration::from_secs(5))
        .expect("first admission fits");
    let err = server.execute("a", &query).unwrap_err();
    match err {
        ServeError::Rejected(Rejection::Shed { reason }) => {
            assert!(reason.contains("quota"), "reason was {reason:?}");
        }
        other => panic!("expected tenant shed, got {other}"),
    }
    server.execute("b", &query).expect("tenant b unaffected");
    // Release A's slot the way SessionGuard would.
    drop(SessionGuard {
        server: &server,
        tenant: "a".into(),
        session,
    });
    server.execute("a", &query).expect("slot released");
}

#[test]
fn requested_deadline_is_clamped_to_tenant_budget() {
    let config = ServerConfig {
        tenant: TenantPolicy {
            max_in_flight: 4,
            deadline_budget: Duration::from_millis(250),
        },
        ..ServerConfig::default()
    };
    let (server, query) = tiny_server(config);
    // An hour-long request is clamped to 250 ms, which is still plenty
    // for a five-triple federation — the query succeeds.
    let result = server
        .execute_with_deadline("a", &query, Some(Duration::from_secs(3600)))
        .unwrap();
    assert!(result.complete);
}

#[test]
fn finished_tenants_leave_the_admission_map() {
    // `X-Tenant` is client-supplied: a long-lived server must not keep one
    // entry per name it has ever admitted.
    let (server, query) = tiny_server(ServerConfig::default());
    for t in 0..200 {
        server.execute(&format!("tenant-{t}"), &query).unwrap();
    }
    let state = server.state.lock().unwrap();
    assert!(
        state.per_tenant.is_empty(),
        "{} idle tenants still mapped",
        state.per_tenant.len()
    );
    assert!(state.deadlines.is_empty());
}

#[test]
fn drain_waits_for_in_flight_queries() {
    let (server, query) = tiny_server(ServerConfig::default());
    let server2 = Arc::clone(&server);
    let query2 = query.clone();
    let worker = thread::spawn(move || {
        // Hold an admission slot across the drain call.
        for _ in 0..50 {
            let _ = server2.execute("a", &query2);
        }
    });
    let report = server.drain();
    assert_eq!(report.abandoned, 0);
    assert_eq!(server.in_flight(), 0);
    worker.join().unwrap();
}

#[test]
fn concurrent_tenants_never_overshoot_global_capacity() {
    let config = ServerConfig {
        max_in_flight: 2,
        tenant: TenantPolicy {
            max_in_flight: 2,
            deadline_budget: Duration::from_secs(30),
        },
        ..ServerConfig::default()
    };
    let (server, query) = tiny_server(config);
    // Runs `clients` closed-loop tenants, 20 queries each; returns the
    // (answered, shed) totals.
    let run_clients = |clients: usize| -> (u64, u64) {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let server = Arc::clone(&server);
                let query = query.clone();
                thread::spawn(move || {
                    let tenant = format!("t{t}");
                    let mut ok = 0u64;
                    let mut shed = 0u64;
                    for _ in 0..20 {
                        match server.execute(&tenant, &query) {
                            Ok(r) => {
                                assert_eq!(r.solutions.len(), 5);
                                ok += 1;
                            }
                            Err(ServeError::Rejected(r)) => {
                                assert_eq!(r.code(), "shed");
                                shed += 1;
                            }
                            Err(other) => panic!("unexpected error {other}"),
                        }
                    }
                    (ok, shed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0), |(ok, shed), (o, s)| (ok + o, shed + s))
    };
    // Below capacity nothing is shed: two clients can never hold more
    // than the two slots.
    assert_eq!(run_clients(2), (40, 0));
    assert_eq!(server.counters().total_rejected(), 0);
    // Over capacity every query is either answered or shed with a reason.
    let (total_ok, total_shed) = run_clients(8);
    let c = server.counters();
    assert_eq!(c.admitted, 40 + total_ok);
    assert_eq!(c.shed, total_shed);
    assert_eq!(total_ok + total_shed, 160);
    assert_eq!(server.in_flight(), 0);
}

#[test]
fn render_solutions_matches_cli_table_shape() {
    let (fed, dict) = tiny_federation();
    let query = tiny_query(&dict);
    let server = QueryServer::new(fed, Lusail::default(), ServerConfig::default());
    let result = server.execute("a", &query).unwrap();
    let rendered = render_solutions(&result.solutions, &dict);
    let mut lines = rendered.lines();
    assert_eq!(lines.next(), Some("s\to"));
    assert_eq!(rendered.lines().count(), 6); // header + 5 rows
    assert!(rendered.ends_with('\n'));
}

#[test]
fn percent_decode_handles_escapes_plus_and_garbage() {
    let decoded = |s| percent_decode(s).expect("valid UTF-8");
    assert_eq!(decoded("a+b"), "a b");
    assert_eq!(decoded("%3Fs"), "?s");
    assert_eq!(decoded("SELECT%20%2A"), "SELECT *");
    assert_eq!(decoded("100%"), "100%");
    assert_eq!(decoded("%zz"), "%zz");
    assert_eq!(decoded("%C3%A9"), "é");
    // Not UTF-8 once decoded: refused, never U+FFFD-substituted.
    assert_eq!(percent_decode("%FF"), None);
    assert_eq!(percent_decode("%C3%28"), None);
}

// ---------- cross-tenant batching -------------------------------------------

/// Two endpoints joined by a shared variable: A holds the p-edges, B the
/// q-edges, so the canonical two-pattern query decomposes into two
/// subqueries — the unit the batch memo shares across tenants. (A
/// single-endpoint federation would take the disjoint fast path and never
/// exercise sharing.)
fn shared_federation() -> (Federation, Arc<Dictionary>) {
    let dict = Dictionary::shared();
    let mut a = TripleStore::new(Arc::clone(&dict));
    let mut b = TripleStore::new(Arc::clone(&dict));
    for i in 0..20 {
        let s = Term::iri(format!("http://a/s{i}"));
        let v = Term::iri(format!("http://shared/v{}", i % 5));
        let o = Term::iri(format!("http://b/o{i}"));
        a.insert_terms(&s, &Term::iri("http://x/p"), &v);
        b.insert_terms(&v, &Term::iri("http://x/q"), &o);
    }
    let mut fed = Federation::new(Arc::clone(&dict));
    fed.add(Arc::new(LocalEndpoint::new("A", a)));
    fed.add(Arc::new(LocalEndpoint::new("B", b)));
    (fed, dict)
}

fn join_query(dict: &Dictionary) -> Query {
    parse_query(
        "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
        dict,
    )
    .unwrap()
}

#[test]
fn one_window_batches_tenants_and_shares_identical_subqueries() {
    let (fed, dict) = shared_federation();
    let query = join_query(&dict);
    let config = ServerConfig {
        batch: BatchConfig {
            enabled: true,
            // Generous window: the count trigger (three pending) is what
            // closes it, so the test never races the clock.
            window: Duration::from_secs(5),
            max_batch: 3,
        },
        ..ServerConfig::default()
    };
    let server = QueryServer::new(fed, Lusail::default(), config);
    let mut handles = Vec::new();
    for t in 0..3 {
        let server = Arc::clone(&server);
        let query = query.clone();
        handles.push(thread::spawn(move || {
            server
                .execute(&format!("tenant{t}"), &query)
                .expect("batched query succeeds")
        }));
    }
    let rows: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().unwrap().solutions.canonicalize())
        .collect();
    assert!(
        rows.windows(2).all(|w| w[0] == w[1]),
        "tenants in one window saw different answers"
    );
    let stats = server.batch_stats();
    assert_eq!(stats.windows, 1, "{stats:?}");
    assert_eq!(stats.batched_queries, 3, "{stats:?}");
    assert_eq!(stats.max_window, 3, "{stats:?}");
    assert!(
        stats.shared_hits >= 1 && stats.wire_requests_saved >= 1,
        "identical queries in one window must share subqueries: {stats:?}"
    );
    let c = server.counters();
    assert_eq!(c.admitted, 3);
    assert_eq!(c.complete_results, 3);
    assert_eq!(server.in_flight(), 0);
}

#[test]
fn tight_deadline_tenant_is_isolated_from_a_slow_neighbour() {
    // Endpoint B interrupts every request, so the slow tenant's retries
    // burn virtual time on the shared ManualClock. The fast tenant's
    // deadline is fixed at its own admission; the neighbour's backoffs
    // consume it, and the server must answer with the *typed* deadline
    // rejection (HTTP 504) — never a late result, never an extension
    // funded by another tenant's work.
    let clock = ManualClock::new();
    let dict = Dictionary::shared();
    let mut a = TripleStore::new(Arc::clone(&dict));
    let mut b = TripleStore::new(Arc::clone(&dict));
    for i in 0..20 {
        let s = Term::iri(format!("http://a/s{i}"));
        let v = Term::iri(format!("http://shared/v{}", i % 5));
        let o = Term::iri(format!("http://b/o{i}"));
        a.insert_terms(&s, &Term::iri("http://x/p"), &v);
        b.insert_terms(&v, &Term::iri("http://x/q"), &o);
    }
    let mut fed = Federation::new(Arc::clone(&dict));
    fed.add(Arc::new(LocalEndpoint::new("A", a)));
    fed.add(Arc::new(FlakyEndpoint::new(
        Arc::new(LocalEndpoint::new("B", b)),
        FaultProfile::transient(7, 1.0),
    )));
    let query = join_query(&dict);
    let engine = Lusail::default()
        .with_policy(RequestPolicy {
            max_retries: 2,
            base_backoff: Duration::from_millis(100),
            ..RequestPolicy::default()
        })
        .with_clock(clock.clone());
    let config = ServerConfig {
        batch: BatchConfig {
            enabled: true,
            window: Duration::from_secs(5),
            max_batch: 2,
        },
        ..ServerConfig::default()
    };
    let server = QueryServer::with_clock(fed, engine, config, clock.clone());

    // The slow tenant opens the window and leads it.
    let slow = {
        let server = Arc::clone(&server);
        let query = query.clone();
        thread::spawn(move || server.execute("slow", &query))
    };
    // Real-time grace so the slow tenant is parked first; the fast
    // submission then trips the count trigger and the window runs.
    thread::sleep(Duration::from_millis(100));
    let err = server
        .execute_with_deadline("fast", &query, Some(Duration::from_millis(50)))
        .expect_err("a deadline burned by a neighbour must be refused");
    match err {
        ServeError::Rejected(r) => assert_eq!(r.code(), "deadline"),
        other => panic!("expected typed deadline rejection, got {other}"),
    }
    let slow_result = slow
        .join()
        .unwrap()
        .expect("the slow tenant still gets its (degraded) answer");
    assert!(
        !slow_result.complete,
        "B interrupts everything; the slow result must be degraded"
    );
    assert!(
        clock.elapsed() >= Duration::from_millis(100),
        "retry backoffs should have advanced the virtual clock"
    );
    let c = server.counters();
    assert_eq!(c.deadline_rejected, 1);
    assert_eq!(c.admitted, 1);
    assert_eq!(c.incomplete_results, 1);
}

// ---------- HTTP front end ---------------------------------------------------

/// Reads one full HTTP response (headers + Content-Length body) off a
/// blocking client socket and returns (status, body).
fn read_response(stream: &mut std::net::TcpStream) -> (u16, String) {
    use std::io::Read as _;
    let mut buf = Vec::new();
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read response headers");
        assert!(n > 0, "connection closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .expect("content-length header");
    while buf.len() < header_end + content_length {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&buf[header_end..header_end + content_length]).to_string();
    (status, body)
}

fn post_sparql(stream: &mut std::net::TcpStream, query: &str) -> (u16, String) {
    use std::io::Write as _;
    let request = format!(
        "POST /sparql HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{query}",
        query.len()
    );
    stream.write_all(request.as_bytes()).unwrap();
    read_response(stream)
}

/// Runs the HTTP loop over the tiny federation on an ephemeral port for
/// the duration of `body`, then flips the shutdown flag and returns the
/// drain report. What `body` returns (client sockets, say) stays alive
/// until the loop has returned, which it must do within 1 s of the flag.
fn with_http_loop<Held>(
    config: ServerConfig,
    body: impl FnOnce(std::net::SocketAddr, &Arc<QueryServer>) -> Held,
) -> crate::DrainReport {
    let (fed, _dict) = tiny_federation();
    with_server_loop(QueryServer::new(fed, Lusail::default(), config), body)
}

/// [`with_http_loop`] over a server the caller built.
fn with_server_loop<Held>(
    server: Arc<QueryServer>,
    body: impl FnOnce(std::net::SocketAddr, &Arc<QueryServer>) -> Held,
) -> crate::DrainReport {
    use std::sync::atomic::AtomicBool;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    {
        let server = Arc::clone(&server);
        thread::spawn(move || {
            let report = run_http_loop(&server, listener, shutdown).unwrap();
            done_tx.send(report).unwrap();
        });
    }
    let held = body(addr, &server);
    shutdown.store(true, Ordering::SeqCst);
    let report = done_rx
        .recv_timeout(Duration::from_secs(1))
        .expect("shutdown must drain and exit within 1 s");
    drop(held);
    assert_eq!(server.in_flight(), 0);
    report
}

#[test]
fn idle_keepalive_connections_cost_no_query_slots() {
    use std::io::Write as _;
    use std::net::TcpStream;
    let config = ServerConfig {
        max_in_flight: 2,
        ..ServerConfig::default()
    };
    // SIGTERM-style shutdown at the end, as the benchmark's server stops:
    // the loop drains and exits within 1 s with all 64 sockets still open.
    let report = with_http_loop(config, |addr, _server| {
        let query = "SELECT ?s ?o WHERE { ?s <http://x/p> ?o }";

        // 64 keep-alive connections that never send a byte. Each parks a
        // connection thread, but admission slots are per query, not per
        // connection, so none of them takes one.
        let mut idle: Vec<TcpStream> = (0..64).map(|_| TcpStream::connect(addr).unwrap()).collect();

        // Both query slots stay usable beneath the idle crowd.
        let mut busy: Vec<_> = (0..2)
            .map(|_| {
                thread::spawn(move || {
                    let mut conn = TcpStream::connect(addr).unwrap();
                    post_sparql(&mut conn, query)
                })
            })
            .collect();
        for h in busy.drain(..) {
            let (status, body) = h.join().unwrap();
            assert_eq!(status, 200, "{body}");
            assert_eq!(body.lines().count(), 6, "header + 5 rows: {body}");
        }

        // The idle connections are live, not leaked: /healthz answers on one…
        idle[0]
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            .unwrap();
        let (status, body) = read_response(&mut idle[0]);
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        // …and a second request on the *same* socket proves keep-alive reuse.
        let (status, _) = post_sparql(&mut idle[0], query);
        assert_eq!(status, 200);
        idle
    });
    assert_eq!(report.abandoned, 0);
}

#[test]
fn a_request_left_incomplete_is_answered_408_and_closed() {
    use std::io::{ErrorKind, Read as _, Write as _};
    let clock = ManualClock::new();
    let (fed, _dict) = tiny_federation();
    let server = QueryServer::with_clock(
        fed,
        Lusail::default(),
        ServerConfig::default(),
        clock.clone(),
    );
    with_server_loop(server, |addr, _| {
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /heal").unwrap();
        // Nothing is answered while the server clock stands still.
        conn.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        let err = conn.read(&mut [0u8; 64]).unwrap_err();
        assert!(matches!(
            err.kind(),
            ErrorKind::WouldBlock | ErrorKind::TimedOut
        ));

        clock.advance(Duration::from_secs(30));
        conn.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        let (status, body) = read_response(&mut conn);
        assert_eq!(status, 408, "{body}");
        assert_eq!(
            body,
            "error: request timeout\ncode: timeout\nreason: request incomplete after 30 s\n"
        );
        assert!(matches!(conn.read(&mut [0u8; 64]), Ok(0)), "then EOF");
    });
}

#[test]
fn a_client_that_stops_reading_does_not_stall_other_connections() {
    use std::io::Write as _;
    use std::net::{Shutdown, TcpStream};
    with_http_loop(ServerConfig::default(), |addr, _| {
        // A pipelines far more /stats requests than the socket buffers
        // hold responses for, and never reads one.
        let a = TcpStream::connect(addr).unwrap();
        let mut writer = a.try_clone().unwrap();
        let flood = thread::spawn(move || {
            let requests = "GET /stats HTTP/1.1\r\nHost: test\r\n\r\n".repeat(200_000);
            // Fails once A is shut down below.
            let _ = writer.write_all(requests.as_bytes());
        });
        thread::sleep(Duration::from_millis(500));

        let mut b = TcpStream::connect(addr).unwrap();
        b.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
        b.write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            .unwrap();
        let (status, body) = read_response(&mut b);
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        a.shutdown(Shutdown::Both).unwrap();
        drop(a);
        flood.join().unwrap();
    });
}

#[test]
fn connections_beyond_the_cap_are_refused_with_a_typed_503() {
    use crate::http::MAX_CONNECTIONS;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;
    let report = with_http_loop(ServerConfig::default(), |addr, server| {
        let mut idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        // Connections are accepted in arrival order, so every idle one
        // holds a place by the time this one is accepted.
        let mut refused = TcpStream::connect(addr).unwrap();
        refused
            .set_read_timeout(Some(Duration::from_secs(3)))
            .unwrap();
        let (status, body) = read_response(&mut refused);
        assert_eq!(status, 503, "{body}");
        assert_eq!(
            body,
            "error: query rejected\ncode: shed\nreason: too many connections (256 open)\n"
        );
        assert!(matches!(refused.read(&mut [0u8; 64]), Ok(0)), "then EOF");
        // A refused connection never reaches admission.
        assert_eq!(server.counters(), ServerCounters::default());

        // A dropped connection's thread sees EOF and gives its place back;
        // until it has, a newcomer may still be refused.
        drop(idle.pop());
        let healthz = || -> Option<String> {
            let mut conn = TcpStream::connect(addr).ok()?;
            conn.set_read_timeout(Some(Duration::from_secs(3))).ok()?;
            conn.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                .ok()?;
            let mut response = String::new();
            conn.read_to_string(&mut response).ok()?;
            Some(response)
        };
        let served = (0..100).any(|_| {
            let ok = healthz().is_some_and(|r| r.starts_with("HTTP/1.1 200 OK"));
            if !ok {
                thread::sleep(Duration::from_millis(20));
            }
            ok
        });
        assert!(served, "a freed place must serve a new connection");
        idle
    });
    assert_eq!(report.abandoned, 0);
}

/// Sends raw request bytes on a fresh connection and returns the first
/// response plus whether the server then closed the connection without
/// sending anything more.
fn raw_exchange(addr: std::net::SocketAddr, request: &[u8]) -> (u16, String, bool) {
    use std::io::{Read as _, Write as _};
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.write_all(request).unwrap();
    let (status, body) = read_response(&mut conn);
    conn.set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    let closed = matches!(conn.read(&mut [0u8; 64]), Ok(0));
    (status, body, closed)
}

#[test]
fn unparsable_content_length_is_a_protocol_error_not_a_zero_length_body() {
    with_http_loop(ServerConfig::default(), |addr, _| {
        // Read as 0, the length would turn the body into a second,
        // pipelined request that /healthz then answers.
        let (status, body, closed) = raw_exchange(
            addr,
            b"POST /sparql HTTP/1.1\r\nContent-Length: 4x\r\n\r\n\
              GET /healthz HTTP/1.1\r\n\r\n",
        );
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("unparsable Content-Length"), "{body}");
        assert!(closed, "the body bytes must not be served as a request");
    });
}

#[test]
fn conflicting_content_lengths_are_a_protocol_error() {
    with_http_loop(ServerConfig::default(), |addr, _| {
        let query = "SELECT ?s ?o WHERE { ?s <http://x/p> ?o }";
        let request = |second: usize| {
            let first = query.len();
            format!(
                "POST /sparql HTTP/1.1\r\nContent-Length: {first}\r\n\
                 Content-Length: {second}\r\n\r\n{query}"
            )
        };
        let (status, body, closed) = raw_exchange(addr, request(0).as_bytes());
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("conflicting Content-Length"), "{body}");
        assert!(closed);
        // A repeated header that agrees with itself is not a conflict.
        let (status, body, _) = raw_exchange(addr, request(query.len()).as_bytes());
        assert_eq!(status, 200, "{body}");
    });
}

#[test]
fn invalid_utf8_in_head_or_body_is_a_protocol_error() {
    with_http_loop(ServerConfig::default(), |addr, _| {
        // Decoded lossily, both would be evaluated with U+FFFD substituted.
        let query = b"SELECT ?s WHERE { ?s <http://x/p> \"\xff\" }";
        let mut request = format!(
            "POST /sparql HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            query.len()
        )
        .into_bytes();
        request.extend_from_slice(query);
        let (status, body, closed) = raw_exchange(addr, &request);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("body is not valid UTF-8"), "{body}");
        assert!(closed);

        let (status, body, closed) =
            raw_exchange(addr, b"GET /healthz HTTP/1.1\r\nX-Tenant: \xc3\x28\r\n\r\n");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("head is not valid UTF-8"), "{body}");
        assert!(closed);

        // The same bytes percent-encoded in a GET are a well-framed
        // request carrying an undecodable query: a typed parse error on
        // a connection that stays open.
        let (status, body, closed) =
            raw_exchange(addr, b"GET /sparql?query=SELECT%20%FF HTTP/1.1\r\n\r\n");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("code: parse"), "{body}");
        assert!(body.contains("query is not valid UTF-8"), "{body}");
        assert!(!closed);
    });
}

#[test]
fn malformed_deadline_header_is_a_parse_error_not_the_full_budget() {
    let query = "SELECT ?s WHERE { ?s <http://x/p> ?o }";
    let request = |deadline: &str| {
        format!(
            "POST /sparql HTTP/1.1\r\nX-Deadline-Ms: {deadline}\r\nContent-Length: {}\r\n\r\n{query}",
            query.len()
        )
    };
    // The handler refuses before admission: nothing runs.
    let (server, _) = tiny_server(ServerConfig::default());
    for deadline in ["5s", "-1", "1.5", ""] {
        let (parsed, _) = crate::http::try_parse(request(deadline).as_bytes())
            .unwrap()
            .expect("a complete request");
        let (status, _, body) = crate::http::handle_sparql(&server, &parsed);
        assert_eq!(status, 400, "{deadline:?}: {body}");
        assert!(body.contains("code: parse"), "{deadline:?}: {body}");
    }
    assert_eq!(server.counters().admitted, 0);
    // Over the socket the connection stays usable, and a well-formed
    // deadline still runs the query.
    with_http_loop(ServerConfig::default(), |addr, server| {
        let (status, body, closed) = raw_exchange(addr, request("5s").as_bytes());
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("X-Deadline-Ms"), "{body}");
        assert!(!closed);
        let (status, body, _) = raw_exchange(addr, request("5000").as_bytes());
        assert_eq!(status, 200, "{body}");
        assert_eq!(server.counters().admitted, 1);
    });
}

#[test]
fn multi_byte_utf8_body_is_measured_in_bytes_and_answers_200() {
    with_http_loop(ServerConfig::default(), |addr, _| {
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        // `post_sparql` sends the length in bytes; a character-counted
        // read would cut this query short.
        let (status, body) = post_sparql(
            &mut conn,
            "SELECT ?s WHERE { ?s <http://x/p> \"日本語のリテラル — é\" }",
        );
        assert_eq!((status, body.as_str()), (200, "s\n"));
        // The connection is still in sync for the next request.
        let (status, body) = post_sparql(&mut conn, "SELECT ?s WHERE { ?s <http://x/p> ?o }");
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.lines().count(), 6, "header + 5 rows: {body}");
    });
}

#[test]
fn bounded_probe_cache_reports_saturation_through_the_server() {
    let (fed, dict) = tiny_federation();
    let query = tiny_query(&dict);
    let engine = Lusail::new(LusailConfig {
        probe_cache_capacity: Some(1),
        ..LusailConfig::default()
    });
    let server = QueryServer::new(fed, engine, ServerConfig::default());
    for _ in 0..3 {
        server.execute("a", &query).unwrap();
    }
    let stats = server.engine().probe_cache_stats();
    // One entry fits; everything else must have been evicted or missed.
    assert!(stats.entries <= 2, "ask+count caches hold ≤1 entry each");
}

/// One well-formed request for the parser property test: `GET /healthz`,
/// a percent-encoded `GET /sparql?query=…` or a `POST /sparql` with a
/// body, over HTTP/1.0 or 1.1, with a random subset of the headers the
/// server reads (in random order and letter case).
fn random_request(rng: &mut lusail_rdf::SplitMix64) -> Vec<u8> {
    const QUERIES: [&str; 3] = [
        "SELECT ?s WHERE { ?s <http://x/p> ?o }",
        "ASK { ?s ?p \"日本語 — é\" }",
        "SELECT * { ?a <http://x/q?x=1&y=%> ?b } LIMIT 5",
    ];
    let query = QUERIES[rng.below(QUERIES.len())];
    let encoded: String = (query.bytes())
        .map(|b| match b.is_ascii_alphanumeric() {
            true => char::from(b).to_string(),
            false => format!("%{b:02X}"),
        })
        .collect();
    let (line, body) = match rng.below(3) {
        0 => ("GET /healthz".to_string(), ""),
        1 => (format!("GET /sparql?query={encoded}"), ""),
        _ => ("POST /sparql".to_string(), query),
    };
    let version = ["HTTP/1.1", "HTTP/1.0"][rng.below(2)];
    let mut headers = vec!["Host: localhost".to_string()];
    if rng.chance(0.3) {
        headers.push("Connection: close".into());
    }
    if rng.chance(0.5) {
        headers.push(format!("X-Tenant: tenant-{}", rng.below(4)));
    }
    if rng.chance(0.5) {
        headers.push(format!("x-deadline-ms: {}", rng.below(10_000)));
    }
    if !body.is_empty() {
        let name = ["Content-Length", "content-length"][rng.below(2)];
        headers.push(format!("{name}: {}", body.len()));
    }
    for i in (1..headers.len()).rev() {
        headers.swap(i, rng.below(i + 1));
    }
    let mut text = format!("{line} {version}\r\n");
    for header in headers {
        text.push_str(&header);
        text.push_str("\r\n");
    }
    text.push_str("\r\n");
    text.push_str(body);
    text.into_bytes()
}

/// `http::try_parse` frames every generated request exactly, needs every
/// byte of it, and meets random corruption with an answer, never a panic.
#[test]
fn request_parser_frames_requests_and_survives_corruption() {
    use crate::http::try_parse;
    let mut rng = lusail_rdf::SplitMix64::new(0x4854_5450);
    let (mut pipelined, mut outcomes) = (0, [0u32; 3]);
    for case in 0..300 {
        let requests: Vec<Vec<u8>> = (0..1 + rng.below(3))
            .map(|_| random_request(&mut rng))
            .collect();
        let buf = requests.concat();
        // Each request in turn parses from where the last one ended and
        // consumes exactly its own bytes.
        let mut at = 0;
        for request in &requests {
            let parsed = try_parse(&buf[at..]).unwrap_or_else(|e| panic!("case {case}: {e}"));
            let (_, used) = parsed.unwrap_or_else(|| panic!("case {case}: incomplete"));
            assert_eq!(used, request.len(), "case {case}");
            at += used;
        }
        pipelined += usize::from(requests.len() > 1);
        // A proper prefix of the first request is never enough.
        for end in 0..requests[0].len() {
            assert!(
                matches!(try_parse(&buf[..end]), Ok(None)),
                "case {case}: prefix of {end} bytes"
            );
        }
        // Flips, truncations and insertions: any answer but a panic, and
        // a parsed request lies within the buffer.
        for _ in 0..20 {
            let mut bad = buf.clone();
            for _ in 0..1 + rng.below(3) {
                let i = rng.below(bad.len() + 1);
                match rng.below(3) {
                    0 if i < bad.len() => bad[i] ^= 1 << rng.below(8),
                    1 => bad.truncate(i),
                    _ => bad.insert(i, b"\r\n:0 \xFF%a"[rng.below(8)]),
                }
            }
            let outcome = match try_parse(&bad) {
                Ok(None) => 0,
                Ok(Some((_, used))) => {
                    assert!(used <= bad.len(), "case {case}: consumed {used}");
                    1
                }
                Err(_) => 2,
            };
            outcomes[outcome] += 1;
        }
    }
    assert!(pipelined > 100, "pipelined buffers: {pipelined}");
    for (what, n) in ["incomplete", "parsed", "rejected"].iter().zip(outcomes) {
        assert!(n > 200, "{what} corruptions: {n}");
    }
    // Unbounded input is refused, not buffered: a head over 1 MiB with no
    // end, or a declared body over 8 MiB.
    let mut head = b"GET /sparql?query=".to_vec();
    head.resize(1 << 20, b'a');
    assert!(matches!(try_parse(&head), Ok(None)));
    head.push(b'a');
    assert!(try_parse(&head).is_err());
    let post = |length: usize| format!("POST /sparql HTTP/1.1\r\nContent-Length: {length}\r\n\r\n");
    assert!(matches!(try_parse(post(8 << 20).as_bytes()), Ok(None)));
    assert!(try_parse(post((8 << 20) + 1).as_bytes()).is_err());
}

#[test]
fn a_query_nested_past_the_parser_bound_is_a_400_not_an_abort() {
    // 5 000 levels used to overflow a connection thread's stack and abort
    // the whole process; the parser now refuses anything past its bound.
    let depth = 5_000;
    let groups = format!(
        "SELECT * WHERE {}?s <http://x/p> ?o{} LIMIT 1",
        "{ ".repeat(depth),
        " }".repeat(depth)
    );
    let parens = format!(
        "SELECT * WHERE {{ ?s <http://x/p> ?o FILTER {}?o{} }}",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    with_http_loop(ServerConfig::default(), |addr, server| {
        for query in [&groups, &parens] {
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            let (status, body) = post_sparql(&mut conn, query);
            assert_eq!(status, 400, "{body}");
            assert!(body.contains("code: parse"), "{body}");
            assert!(body.contains("nests deeper than"), "{body}");
        }
        assert_eq!(server.counters().admitted, 0);
        let (status, body, _) = raw_exchange(addr, b"GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        // At the bound itself the query is planned, run and answered on
        // the connection's thread: OPTIONAL groups nested to the limit.
        let depth = lusail_sparql::MAX_NESTING - 1;
        let at_limit = format!(
            "SELECT * WHERE {{ {}?s <http://x/p> ?o{} }}",
            "?s <http://x/p> ?o OPTIONAL { ".repeat(depth),
            " }".repeat(depth)
        );
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        let (status, body) = post_sparql(&mut conn, &at_limit);
        assert_eq!(status, 200, "{body}");
    });
}

/// The multi-tenant sharpening of the rule that a dead endpoint's
/// statistics are dropped when its query ends: in a long-lived server the engine and federation are shared, so dropping a
/// dead endpoint's statistics only when tenant A's query ends leaves a
/// window in which tenant B plans from them. The serving layer closes the
/// window with a circuit-transition hook ([`ExecOptions::with_health_hook`]
/// → [`make_invalidation_hook`]) that invalidates the shared
/// probe caches and statistics **at transition time**, mid-query.
///
/// Proven from inside the window itself: tenant B's whole query runs
/// *within the transition hook* — strictly before A's query completes —
/// and must already see the statistics gone, reaching the diverged
/// replica's three `<q>` rows instead of a stale conclusive "no such
/// predicate". Virtual time (`ManualClock`) keeps the retry backoffs of
/// both tenants instant and deterministic.
#[test]
fn transition_hook_invalidates_shared_state_before_concurrent_tenant_plans() {
    use lusail_sparql::ast::{PatternTerm, TriplePattern};
    use lusail_store::EndpointStats;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    let dict = Dictionary::shared();
    let mut primary_st = TripleStore::new(Arc::clone(&dict));
    let mut replica_st = TripleStore::new(Arc::clone(&dict));
    for i in 0..4 {
        let s = Term::iri(format!("http://x/s{i}"));
        primary_st.insert_terms(&s, &Term::iri("http://x/p"), &Term::int(i));
        replica_st.insert_terms(&s, &Term::iri("http://x/p"), &Term::int(i));
    }
    for i in 0..3 {
        replica_st.insert_terms(
            &Term::iri(format!("http://x/s{i}")),
            &Term::iri("http://x/q"),
            &Term::int(100 + i),
        );
    }
    let stats = Arc::new(EndpointStats::build(&primary_st));
    let q_probe = TriplePattern::new(
        PatternTerm::Var("s".into()),
        PatternTerm::Const(dict.encode(&Term::iri("http://x/q"))),
        PatternTerm::Var("o".into()),
    );
    assert_eq!(stats.ask_pattern(&q_probe), Some(false));

    let mut fed = Federation::new(Arc::clone(&dict));
    let primary = fed.add(Arc::new(FlakyEndpoint::new(
        Arc::new(LocalEndpoint::new("P", primary_st)),
        FaultProfile::dead(),
    )));
    fed.add_replica(primary, Arc::new(LocalEndpoint::new("R", replica_st)));
    fed.attach_stats(primary, stats);

    let engine = Arc::new(
        Lusail::default()
            .with_policy(RequestPolicy {
                trip_threshold: 1,
                ..RequestPolicy::default()
            })
            .with_clock(ManualClock::new()),
    );

    // The server's standard invalidation hook, wrapped so that the first
    // primary-circuit-open transition immediately runs tenant B's query —
    // the tightest possible interleaving against tenant A.
    let invalidations = Arc::new(AtomicU64::new(0));
    let inner = make_invalidation_hook(
        Arc::clone(&engine),
        fed.clone(),
        Arc::default(),
        Arc::clone(&invalidations),
    );
    let tenant_b: Arc<Mutex<Option<lusail_core::QueryResult>>> = Arc::default();
    let hook: lusail_endpoint::HealthHook = Arc::new({
        let fed = fed.clone();
        let engine = Arc::clone(&engine);
        let dict = Arc::clone(&dict);
        let tenant_b = Arc::clone(&tenant_b);
        move |ep, _from, to| {
            inner(ep, _from, to);
            if ep != primary || to != HealthState::Open {
                return;
            }
            let mut slot = tenant_b.lock().unwrap();
            if slot.is_some() {
                return;
            }
            assert!(
                fed.stats_for(primary).is_none(),
                "statistics still attached at transition time — tenant B \
                 would plan from them"
            );
            let q2 = parse_query("SELECT * WHERE { ?s <http://x/q> ?o }", &dict).unwrap();
            *slot = Some(engine.execute(&fed, &q2).unwrap());
        }
    });

    // Tenant A's query (over <p>): its SELECT hits the dead primary,
    // trips the circuit, and fires the hook mid-flight.
    let q1 = parse_query("SELECT * WHERE { ?s <http://x/p> ?o }", &dict).unwrap();
    let opts = ExecOptions::default().with_health_hook(hook);
    let r1 = engine.execute_with(&fed, &q1, &opts).unwrap();
    assert!(r1.complete, "replica failed to absorb the dead primary");
    assert_eq!(r1.solutions.len(), 4);

    // Tenant B ran inside the window and saw fresh state.
    let r2 = tenant_b
        .lock()
        .unwrap()
        .take()
        .expect("the primary's circuit never opened during tenant A's query");
    assert!(r2.complete, "tenant B failed to absorb the dead primary");
    assert_eq!(
        r2.solutions.len(),
        3,
        "tenant B was elided to a stale empty answer"
    );
    assert!(invalidations.load(Ordering::Relaxed) > 0);
}
