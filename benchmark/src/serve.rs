//! `serve_open`: the product's top layer under independent tenants.
//!
//! A `QueryServer` behind the real HTTP readiness loop, in this process, is
//! driven by an **open loop**: requests are due on a seeded Poisson
//! schedule whether or not earlier ones have been answered, two keep-alive
//! connections carry them, and latency is measured from the *due* time, so
//! the wait a stall imposes on later requests counts.

use crate::awake::NoIdle;
use crate::check::ExpectedBody;
use crate::names::RATES;
use crate::report::{end_to_end, endpoint_metrics, harness_metrics, median_setup, span_metrics};
use crate::span::Recorder;
use crate::stats::{geomean, p10, percentile, poisson_schedule, shuffle, sorted, Arrival};
use crate::timed::timed_federation;
use crate::{alloc, Metrics, Outcome, RunArgs};
use lusail_benchdata::common::Rng;
use lusail_benchdata::{lubm, Workload};
use lusail_core::{Lusail, LusailConfig};
use lusail_endpoint::Federation;
use lusail_server::http::run_http_loop;
use lusail_server::{QueryServer, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Query classes of one pass: Q3:Q1:Q4:Q2 drawn 12:6:4:3 — mostly the
/// light lookup, now and then a triangle.
const MIX: [(&str, usize); 4] = [("Q3", 12), ("Q1", 6), ("Q4", 4), ("Q2", 3)];
/// Requests in one pass of the mix.
pub const PASS_REQUESTS: usize = 25;
const CONNECTIONS: usize = 2;
const TENANTS: usize = 4;
/// Warm-up passes over HTTP (fills the probe caches).
const WARMUP_PASSES: usize = 8;
/// The open loop's latency and lag limit.
const LIMIT_MS: f64 = 50.0;

/// The class index of each request of one pass, unshuffled.
fn mix() -> Vec<usize> {
    MIX.iter()
        .enumerate()
        .flat_map(|(class, &(_, repeats))| std::iter::repeat_n(class, repeats))
        .collect()
}

/// The small LUBM federation every server-side measurement runs on.
pub fn gen_lubm(seed: u64) -> Workload {
    let mut cfg = lubm::LubmConfig::new(2);
    cfg.departments = 5;
    cfg.professors = 5;
    cfg.students = 50;
    cfg.seed ^= seed;
    lubm::generate(&cfg)
}

/// A `QueryServer` behind `run_http_loop` on an ephemeral local port.
pub struct HttpServer {
    /// The server (its counters and engine are public API).
    pub server: Arc<QueryServer>,
    /// Where the loop listens.
    pub addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Starts the readiness loop over `fed` on its own thread.
    pub fn start(fed: Federation, config: ServerConfig) -> HttpServer {
        let server = QueryServer::new(fed, Lusail::new(LusailConfig::default()), config);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener.local_addr().expect("listener address");
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = {
            let (server, shutdown) = (Arc::clone(&server), Arc::clone(&shutdown));
            std::thread::spawn(move || {
                run_http_loop(&server, listener, &shutdown).expect("http loop");
            })
        };
        HttpServer {
            server,
            addr,
            shutdown,
            thread: Some(thread),
        }
    }
}

impl Drop for HttpServer {
    /// Stops the loop (it drains in-flight queries) and joins its thread.
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            // A panic in the loop already surfaced as failed requests.
            let _ = thread.join();
        }
    }
}

/// One keep-alive client connection.
pub struct Client {
    stream: TcpStream,
    /// Bytes read past the end of the previous response.
    buf: Vec<u8>,
}

impl Client {
    /// Connects with `TCP_NODELAY` (a request is one small write).
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// `POST /sparql` for `tenant`; returns status and body.
    pub fn query(&mut self, tenant: &str, text: &str) -> std::io::Result<(u16, String)> {
        let request = format!(
            "POST /sparql HTTP/1.1\r\nHost: bench\r\nX-Tenant: {tenant}\r\n\
             Content-Length: {}\r\n\r\n{text}",
            text.len()
        );
        self.stream.write_all(request.as_bytes())?;
        read_response(&mut self.stream, &mut self.buf)
    }
}

/// Reads one `Content-Length`-delimited response from a keep-alive stream.
/// `buf` carries bytes over between responses: a read may end mid-header,
/// mid-body, or run into the next response.
pub fn read_response(stream: &mut impl Read, buf: &mut Vec<u8>) -> std::io::Result<(u16, String)> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut chunk = [0u8; 16 * 1024];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > 64 * 1024 {
            return Err(bad("response headers too large"));
        }
        match stream.read(&mut chunk)? {
            0 => return Err(bad("connection closed mid-response")),
            n => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let head = std::str::from_utf8(&buf[..header_end]).map_err(|_| bad("non-UTF-8 headers"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let length = lines
        .filter_map(|line| line.split_once(':'))
        .find(|(key, _)| key.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, value)| value.trim().parse::<usize>().ok())
        .ok_or_else(|| bad("missing Content-Length"))?;
    if length > 64 << 20 {
        return Err(bad("response body too large"));
    }
    let total = header_end + 4 + length;
    while buf.len() < total {
        match stream.read(&mut chunk)? {
            0 => return Err(bad("connection closed mid-body")),
            n => buf.extend_from_slice(&chunk[..n]),
        }
    }
    let body = String::from_utf8(buf[header_end + 4..total].to_vec())
        .map_err(|_| bad("non-UTF-8 body"))?;
    buf.drain(..total);
    Ok((status, body))
}

/// One query class: its text and the oracle's rendered answer.
struct Class {
    name: &'static str,
    text: String,
    expected: ExpectedBody,
}

/// What happened to one request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    class: usize,
    rate: usize,
    /// Completion minus due time.
    latency_ms: f64,
    /// Send minus due time: how late the generator ran.
    lag_ms: f64,
    ok: bool,
}

/// A served federation with open client connections.
pub struct ServeBench {
    http: HttpServer,
    workload: Workload,
    clients: Vec<Client>,
    classes: Vec<Class>,
    rng: Rng,
    generate_s: f64,
}

impl ServeBench {
    /// Everything `setup_s` covers: data generation, server and HTTP loop
    /// start, connections, warm-up passes over HTTP.
    pub fn setup(seed: u64, rec: Option<&Arc<Recorder>>) -> ServeBench {
        let t0 = Instant::now();
        let workload = gen_lubm(seed);
        let generate_s = t0.elapsed().as_secs_f64();
        let fed = match rec {
            Some(rec) => timed_federation(&workload.federation, rec),
            None => workload.federation.clone(),
        };
        let http = HttpServer::start(fed, ServerConfig::default());
        let clients = (0..CONNECTIONS)
            .map(|_| Client::connect(http.addr).expect("connect to the local server"))
            .collect();
        let mut bench = ServeBench {
            http,
            workload,
            clients,
            classes: Vec::new(),
            rng: Rng::new(seed ^ 0x0FE2_100F),
            generate_s,
        };
        let client = &mut bench.clients[0];
        for _ in 0..WARMUP_PASSES {
            for (name, repeats) in MIX {
                let text = &bench.workload.query(name).text;
                for _ in 0..repeats {
                    client.query("warmup", text).expect("warm-up request");
                }
            }
        }
        bench
    }

    /// Evaluates the four classes on the oracle store.
    fn load_expected(&mut self) {
        self.classes = MIX
            .iter()
            .map(|&(name, _)| {
                let nq = self.workload.query(name);
                Class {
                    name,
                    text: nq.text.clone(),
                    expected: ExpectedBody::from_oracle(
                        &self.workload.oracle,
                        &nq.query,
                        &self.workload.dict,
                    ),
                }
            })
            .collect();
    }

    /// The class of every request: the 25-request mix, freshly shuffled for
    /// each pass, so any 25 consecutive requests of a pass are the mix.
    fn class_sequence(&mut self, requests: usize) -> Vec<usize> {
        let mix = mix();
        let mut out = Vec::with_capacity(requests);
        while out.len() < requests {
            let mut pass = mix.clone();
            shuffle(&mut pass, &mut self.rng);
            out.extend(pass);
        }
        out.truncate(requests);
        out
    }

    /// Runs the open loop over `schedule` (a whole number of passes).
    fn open_loop(&mut self, schedule: &[Arrival], rec: Option<&Arc<Recorder>>) -> Vec<Sample> {
        let classes = self.class_sequence(schedule.len());
        let next = AtomicUsize::new(0);
        let all = &self.classes;
        let t0 = Instant::now();
        let mut samples: Vec<(usize, Sample)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    let (next, classes) = (&next, &classes);
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(arrival) = schedule.get(i) else {
                                return out;
                            };
                            let due = Duration::from_nanos(arrival.due_ns);
                            if let Some(wait) = due.checked_sub(t0.elapsed()) {
                                std::thread::sleep(wait);
                            }
                            let class = &all[classes[i]];
                            let span = rec.map(|rec| {
                                let trace = rec.trace_id(format!(
                                    "serve_open/{}/{}",
                                    i / PASS_REQUESTS,
                                    class.name
                                ));
                                rec.open("server.http.round_trip", 0, trace)
                            });
                            let sent = t0.elapsed();
                            let reply = client.query(&format!("t{}", i % TENANTS), &class.text);
                            let done = t0.elapsed();
                            if let (Some(rec), Some(span)) = (rec, span) {
                                rec.close(span, 0);
                            }
                            let ok = match &reply {
                                Ok((status, body)) => class.expected.matches(*status, body),
                                Err(_) => false,
                            };
                            if !ok {
                                eprintln!(
                                    "FAILED workload=serve_open query={} request={i} ({})",
                                    class.name,
                                    match &reply {
                                        Ok((status, _)) => format!("status {status} or wrong body"),
                                        Err(e) => format!("i/o: {e}"),
                                    }
                                );
                            }
                            out.push((
                                i,
                                Sample {
                                    class: classes[i],
                                    rate: arrival.rate,
                                    latency_ms: (done.saturating_sub(due)).as_secs_f64() * 1e3,
                                    lag_ms: (sent.saturating_sub(due)).as_secs_f64() * 1e3,
                                    ok,
                                },
                            ));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        samples.sort_by_key(|(i, _)| *i);
        samples.into_iter().map(|(_, s)| s).collect()
    }
}

/// The arrival schedule for `seconds`, cut to a whole number of passes.
fn schedule_for(seed: u64, seconds: f64, passes: Option<usize>) -> Vec<Arrival> {
    let rates: Vec<f64> = RATES.iter().map(|&r| f64::from(r)).collect();
    let slices = match passes {
        // Enough slices for the asked number of passes at the lowest rate.
        Some(n) => (n * PASS_REQUESTS).div_ceil(RATES[0] as usize / 2).max(1),
        None => (seconds as usize).max(RATES.len()),
    };
    let mut schedule = poisson_schedule(seed ^ 0xA221_7A15, &rates, slices);
    let whole = match passes {
        Some(n) => n.min(schedule.len() / PASS_REQUESTS),
        None => schedule.len() / PASS_REQUESTS,
    };
    schedule.truncate(whole * PASS_REQUESTS);
    schedule
}

/// `(the mix at fast-decile latency, geomean over classes of p10)`: each
/// class's p10 latency with the rates pooled, summed over the 25 requests
/// of a pass — heavy queries dominate, as in a solo pass — and as a
/// geometric mean, which weights the light lookup like the triangle.
///
/// (A p10 over per-pass latency sums would sit on the edge between the few
/// passes that fall in 200 req/s slices and the rest, the steepest part of
/// that distribution; the per-class deciles sit where samples are dense.)
fn fast_deciles(samples: &[Sample]) -> (f64, f64) {
    let per_class: Vec<f64> = (0..MIX.len())
        .map(|class| {
            p10(&samples
                .iter()
                .filter(|s| s.class == class)
                .map(|s| s.latency_ms)
                .collect::<Vec<_>>())
        })
        .collect();
    let mix_ms = MIX
        .iter()
        .zip(&per_class)
        .map(|(&(_, repeats), p10)| repeats as f64 * p10)
        .sum();
    (mix_ms, geomean(&per_class))
}

/// The untraced run: end-to-end metrics only.
pub fn run(args: &RunArgs) -> Outcome {
    let _awake = NoIdle::start();
    // A set-up here is a quarter of a second, mostly thread wake-ups, and the
    // first few run on cold code: it takes more of them than the solo
    // workloads for a steady median.
    let (mut bench, setup_s) = median_setup(9, || ServeBench::setup(args.seed, None));
    bench.load_expected();

    let schedule = schedule_for(args.seed, args.seconds, args.passes);
    let before = bench.workload.federation.stats_snapshot();
    let samples = bench.open_loop(&schedule, None);
    let wire = bench.workload.federation.stats_snapshot().since(&before);
    let rejected = bench.http.server.counters().total_rejected();
    if rejected > 0 {
        eprintln!("serve_open: {rejected} requests were shed by admission control");
    }

    let n = (samples.len() / PASS_REQUESTS) as f64;
    let (pass_p10, class_geomean) = fast_deciles(&samples);
    let metrics = end_to_end(pass_p10, class_geomean, &wire, n, setup_s);
    Outcome {
        attempted: samples.len() as u64,
        failed: samples.iter().filter(|s| !s.ok).count() as u64,
        metrics,
    }
}

/// The traced run: an untraced open loop for the `server.open.*` figures,
/// then one over `TimedEndpoint`s with a span per HTTP round trip.
pub fn trace(args: &RunArgs) -> (Outcome, Arc<Recorder>) {
    let _awake = NoIdle::start();
    let mut bench = ServeBench::setup(args.seed, None);
    let t0 = Instant::now();
    bench.load_expected();
    let oracle_s = t0.elapsed().as_secs_f64();

    let alloc_before = alloc::snapshot();
    let plain = bench.open_loop(
        &schedule_for(args.seed, args.seconds * 0.3, args.passes),
        None,
    );
    let alloc_after = alloc::snapshot();
    let counters = bench.http.server.counters();
    let generate_s = bench.generate_s;
    drop(bench);

    let rec = Arc::new(Recorder::new("serve_open/-/-"));
    let mut bench = ServeBench::setup(args.seed, Some(&rec));
    bench.load_expected();
    let cache_before = bench.http.server.engine().probe_cache_stats();
    let before = bench.workload.federation.stats_snapshot();
    let first_span = rec.spans().len();
    let traced = bench.open_loop(
        &schedule_for(args.seed, args.seconds * 0.4, args.passes),
        Some(&rec),
    );
    let wire = bench.workload.federation.stats_snapshot().since(&before);
    let cache = bench.http.server.engine().probe_cache_stats();
    // Every answer was checked against the oracle, so the rows served are
    // the oracle's row counts.
    let result_rows: usize = traced
        .iter()
        .map(|s| bench.classes[s.class].expected.total_rows())
        .sum();
    drop(bench);

    let mut metrics = Metrics::default();
    let n = (traced.len() / PASS_REQUESTS) as f64;
    endpoint_metrics(&mut metrics, &wire, result_rows as u64, n);
    span_metrics(&mut metrics, &rec.spans()[first_span..], n);
    let lookups = (cache.hits + cache.misses) - (cache_before.hits + cache_before.misses);
    metrics.put(
        "core.cache.probe_hit_share",
        (cache.hits - cache_before.hits) as f64 / (lookups as f64).max(1.0),
    );

    let mut within_limit = 0;
    for (rate, qps) in RATES.into_iter().enumerate() {
        let at_rate: Vec<&Sample> = plain.iter().filter(|s| s.rate == rate).collect();
        let lat = sorted(&at_rate.iter().map(|s| s.latency_ms).collect::<Vec<_>>());
        let lag = sorted(&at_rate.iter().map(|s| s.lag_ms).collect::<Vec<_>>());
        let lat_p99 = percentile(&lat, 99.0);
        metrics.put(
            &format!("server.open.lat_ms_p50_r{qps}"),
            percentile(&lat, 50.0),
        );
        metrics.put(&format!("server.open.lat_ms_p99_r{qps}"), lat_p99);
        if !at_rate.is_empty()
            && at_rate.iter().all(|s| s.ok)
            && lat_p99 <= LIMIT_MS
            && percentile(&lag, 99.0) <= LIMIT_MS
        {
            within_limit = within_limit.max(qps);
        }
    }
    metrics.put("server.open.rate_within_limit_qps", f64::from(within_limit));
    let lags = sorted(&plain.iter().map(|s| s.lag_ms).collect::<Vec<_>>());
    metrics.put("server.open.lag_ms_p99", percentile(&lags, 99.0));
    metrics.put(
        "server.admission.shed_share",
        counters.total_rejected() as f64 / (plain.len() as f64).max(1.0),
    );

    let pass_ms: Vec<f64> = plain
        .chunks(PASS_REQUESTS)
        .map(|pass| pass.iter().map(|s| s.latency_ms).sum())
        .collect();
    harness_metrics(&mut metrics, &pass_ms, alloc_before, alloc_after);
    metrics.put(
        "bench.trace_overhead_share",
        fast_deciles(&traced).1 / fast_deciles(&plain).1 - 1.0,
    );
    metrics.put("bench.oracle_s", oracle_s);
    metrics.put("benchdata.generate_s", generate_s);
    (
        Outcome {
            attempted: (plain.len() + traced.len()) as u64,
            failed: plain.iter().chain(&traced).filter(|s| !s.ok).count() as u64,
            metrics,
        },
        rec,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out its bytes in the given chunk sizes, then reports EOF.
    struct Dribble {
        data: Vec<u8>,
        pos: usize,
        chunks: Vec<usize>,
    }

    impl Read for Dribble {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let want = if self.chunks.is_empty() {
                usize::MAX
            } else {
                self.chunks.remove(0)
            };
            let n = want.min(out.len()).min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn response(status: u16, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status} X\r\nContent-Type: text/plain\r\ncontent-length: {}\r\n\
             Connection: keep-alive\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn reads_back_to_back_responses_across_split_reads() {
        let mut data = response(200, "x\ty\nrow … one\n");
        data.extend(response(503, "error: query rejected\n"));
        data.extend(response(200, ""));
        // Splits inside the status line, inside the header terminator, in
        // the middle of a multi-byte character, and across two responses.
        let mut stream = Dribble {
            data,
            pos: 0,
            chunks: vec![5, 80, 2, 1, 9, 3, 120, 7],
        };
        let mut buf = Vec::new();
        assert_eq!(
            read_response(&mut stream, &mut buf).unwrap(),
            (200, "x\ty\nrow … one\n".to_string())
        );
        assert_eq!(
            read_response(&mut stream, &mut buf).unwrap(),
            (503, "error: query rejected\n".to_string())
        );
        assert_eq!(
            read_response(&mut stream, &mut buf).unwrap(),
            (200, String::new())
        );
        assert!(buf.is_empty());
        assert!(
            read_response(&mut stream, &mut buf).is_err(),
            "EOF is an error"
        );
    }

    #[test]
    fn truncated_or_unframed_responses_are_errors() {
        let mut cut = response(200, "0123456789");
        cut.truncate(cut.len() - 4);
        let mut stream = Dribble {
            data: cut,
            pos: 0,
            chunks: vec![],
        };
        assert!(read_response(&mut stream, &mut Vec::new()).is_err());
        let mut stream = Dribble {
            data: b"HTTP/1.1 200 OK\r\n\r\nbody".to_vec(),
            pos: 0,
            chunks: vec![],
        };
        assert!(read_response(&mut stream, &mut Vec::new()).is_err());
    }

    #[test]
    fn schedules_are_whole_passes_and_repeat_per_seed() {
        let a = schedule_for(1, 6.0, None);
        assert_eq!(a.len() % PASS_REQUESTS, 0);
        assert_eq!(a, schedule_for(1, 6.0, None));
        assert_ne!(a, schedule_for(2, 6.0, None));
        assert_eq!(schedule_for(1, 6.0, Some(2)).len(), 2 * PASS_REQUESTS);
    }

    #[test]
    fn a_pass_is_exactly_the_class_mix() {
        let mut bench_rng = Rng::new(9);
        let mix = mix();
        assert_eq!(mix.len(), PASS_REQUESTS);
        let mut pass = mix.clone();
        shuffle(&mut pass, &mut bench_rng);
        for (class, &(_, repeats)) in MIX.iter().enumerate() {
            assert_eq!(pass.iter().filter(|&&c| c == class).count(), repeats);
        }
    }
}
