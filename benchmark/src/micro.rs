//! Isolated layer probes: each calls one layer's public functions directly
//! on generated data, so a layer can be measured without a federation
//! around it. Every timing is a fast decile over repeated calls.

use crate::awake::NoIdle;
use crate::names::SCAN_SHAPES;
use crate::serve::{gen_lubm, Client, HttpServer};
use crate::stats::{geomean, p10};
use crate::Metrics;
use lusail_benchdata::common::Rng;
use lusail_benchdata::{lrb, lubm};
use lusail_core::{join::par_hash_join, Lusail, LusailConfig};
use lusail_endpoint::ExecOptions;
use lusail_rdf::{ntriples, Dictionary, Term, TermId, Triple};
use lusail_server::http::render_solutions;
use lusail_server::{BatchConfig, QueryServer, ServerConfig};
use lusail_sparql::{parse_query, write_query, SolutionSet};
use lusail_store::{ColumnStore, EndpointStats, StorageBackend, TripleStore};
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Fast-decile seconds of one call of `f`, over `reps` calls.
fn p10_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    p10(&samples)
}

/// Runs every probe and records its metrics.
pub fn run(seed: u64, metrics: &mut Metrics) {
    store(seed, metrics);
    sparql(metrics);
    rdf(seed, metrics);
    joins(seed, metrics);
    // The server probes hand work between threads; see `awake`.
    let _awake = NoIdle::start();
    server_ladder(seed, metrics);
    batch_probe(seed, metrics);
}

/// One LUBM university (8 departments × 10 professors × 100 students), the
/// per-endpoint store of `warm_exec`, on both backends.
fn store(seed: u64, metrics: &mut Metrics) {
    let mut cfg = lubm::LubmConfig::new(1);
    cfg.departments = 8;
    cfg.professors = 10;
    cfg.students = 100;
    cfg.seed ^= seed;
    let w = lubm::generate(&cfg);
    let btree = &w.oracle;
    let triples: Vec<Triple> = btree
        .triples_spo()
        .map(|(s, p, o)| Triple::new(s, p, o))
        .collect();
    let mtriples = triples.len() as f64 / 1e6;

    let insert_s = p10_secs(20, || {
        let mut fresh = TripleStore::new(Arc::clone(&w.dict));
        for &t in &triples {
            fresh.insert(t);
        }
        black_box(fresh.len());
    });
    metrics.put("store.btree.insert_mtriples_s", mtriples / insert_s);
    metrics.put(
        "store.columns.build_s",
        p10_secs(20, || {
            black_box(ColumnStore::from_store(btree).len());
        }),
    );
    metrics.put(
        "store.stats.build_s",
        p10_secs(20, || {
            black_box(EndpointStats::build(btree));
        }),
    );

    let columns = ColumnStore::from_store(btree);
    let bgp = &w.query("Q2").query;
    // The usual LADE outcome: no advisor lacks a course, so NOT EXISTS
    // never fires and the check has to visit every candidate.
    let check = parse_query(
        &format!(
            "PREFIX ub: <{}> SELECT ?y WHERE {{ ?x ub:advisor ?y . \
             FILTER NOT EXISTS {{ ?y ub:teacherOf ?c }} }} LIMIT 1",
            lubm::UB
        ),
        &w.dict,
    )
    .expect("check query parses");
    let mut rng = Rng::new(seed ^ 0x5CA2);
    let samples: Vec<Triple> = (0..64).map(|_| triples[rng.below(triples.len())]).collect();
    let backends: [(&str, &dyn StorageBackend); 2] = [("btree", btree), ("columns", &columns)];
    for (name, backend) in backends {
        for shape in SCAN_SHAPES {
            let bound = |pos: usize, id: TermId| (shape.as_bytes()[pos] != b'_').then_some(id);
            let probes: &[Triple] = if shape == "___" {
                &samples[..1]
            } else {
                &samples
            };
            let mut rows = 0u64;
            let secs = p10_secs(15, || {
                rows = 0;
                for t in probes {
                    backend.scan_with(bound(0, t.s), bound(1, t.p), bound(2, t.o), &mut |hit| {
                        black_box(hit);
                        rows += 1;
                        true
                    });
                }
            });
            metrics.put(
                &format!("store.{name}.scan_ns_per_row.{shape}"),
                secs * 1e9 / rows.max(1) as f64,
            );
        }
        metrics.put(
            &format!("store.{name}.eval_bgp_ms"),
            p10_secs(15, || {
                black_box(lusail_store::eval::evaluate(backend, bgp).len());
            }) * 1e3,
        );
        metrics.put(
            &format!("store.{name}.eval_check_us"),
            p10_secs(100, || {
                black_box(lusail_store::eval::evaluate(backend, &check).len());
            }) * 1e6,
        );
        metrics.put(
            &format!("store.{name}.bytes_per_triple"),
            backend.resident_bytes() as f64 / backend.len() as f64,
        );
    }
}

/// Parser and writer over the 29 LargeRDFBench query texts (the writer is
/// paid once per wire request in `LocalEndpoint`), and the sequential join.
fn sparql(metrics: &mut Metrics) {
    let dict = Dictionary::shared();
    let texts = lrb::queries();
    let parsed: Vec<_> = texts
        .iter()
        .map(|(name, text)| parse_query(text, &dict).unwrap_or_else(|e| panic!("{name}: {e:?}")))
        .collect();
    let per_query = texts.len() as f64;
    metrics.put(
        "sparql.parser.parse_us",
        p10_secs(50, || {
            for (_, text) in &texts {
                black_box(parse_query(text, &dict).is_ok());
            }
        }) * 1e6
            / per_query,
    );
    metrics.put(
        "sparql.writer.write_us",
        p10_secs(50, || {
            for query in &parsed {
                black_box(write_query(query, &dict).len());
            }
        }) * 1e6
            / per_query,
    );
}

/// Two 50 k-row relations sharing one variable, each key matching once.
fn join_inputs(seed: u64) -> (SolutionSet, SolutionSet) {
    const ROWS: u32 = 50_000;
    let mut rng = Rng::new(seed ^ 0x101E);
    let mut keys: Vec<u32> = (0..ROWS).collect();
    crate::stats::shuffle(&mut keys, &mut rng);
    let a = SolutionSet {
        vars: vec!["x".into(), "y".into()],
        rows: (0..ROWS)
            .map(|i| vec![Some(TermId(i)), Some(TermId(i + ROWS))])
            .collect(),
    };
    let b = SolutionSet {
        vars: vec!["x".into(), "z".into()],
        rows: keys
            .iter()
            .map(|&k| vec![Some(TermId(k)), Some(TermId(k + 2 * ROWS))])
            .collect(),
    };
    (a, b)
}

fn joins(seed: u64, metrics: &mut Metrics) {
    let (a, b) = join_inputs(seed);
    let mrows = (a.len() + b.len()) as f64 / 1e6;
    metrics.put(
        "sparql.solution.hash_join_mrows_s",
        mrows
            / p10_secs(10, || {
                black_box(a.hash_join(&b).len());
            }),
    );
    for threads in [1, 2] {
        metrics.put(
            &format!("core.join.par_hash_join_mrows_s_t{threads}"),
            mrows
                / p10_secs(10, || {
                    black_box(par_hash_join(&a, &b, 2, threads, 0).len());
                }),
        );
    }
}

fn rdf(seed: u64, metrics: &mut Metrics) {
    const TERMS: usize = 100_000;
    let terms: Vec<Term> = (0..TERMS)
        .map(|i| Term::iri(format!("http://bench.example/{seed}/entity/{i}")))
        .collect();
    let per_term = TERMS as f64;
    let mut dict = Dictionary::new();
    metrics.put(
        "rdf.dictionary.encode_ns",
        p10_secs(5, || {
            dict = Dictionary::new();
            for term in &terms {
                black_box(dict.encode(term));
            }
        }) * 1e9
            / per_term,
    );
    metrics.put(
        "rdf.dictionary.lookup_ns",
        p10_secs(10, || {
            for term in &terms {
                black_box(dict.lookup(term));
            }
        }) * 1e9
            / per_term,
    );
    let mut ids: Vec<TermId> = (0..TERMS as u32).map(TermId).collect();
    crate::stats::shuffle(&mut ids, &mut Rng::new(seed ^ 0xDEC0));
    let decode_all = |dict: &Dictionary| {
        for &id in &ids {
            black_box(dict.decode(id));
        }
    };
    metrics.put(
        "rdf.dictionary.decode_ns",
        p10_secs(10, || decode_all(&dict)) * 1e9 / per_term,
    );
    // Two threads decoding at once: what the shared `RwLock` costs a reader
    // when another reader is active (per decode, per thread).
    metrics.put(
        "rdf.dictionary.decode_ns_t2",
        p10_secs(10, || {
            std::thread::scope(|scope| {
                let other = scope.spawn(|| decode_all(&dict));
                decode_all(&dict);
                other.join().expect("decode thread panicked");
            });
        }) * 1e9
            / per_term,
    );

    let w = gen_lubm(seed);
    let triples: Vec<Triple> = w
        .oracle
        .triples_spo()
        .map(|(s, p, o)| Triple::new(s, p, o))
        .collect();
    let text = ntriples::serialize(&triples, &w.dict);
    metrics.put(
        "rdf.ntriples.parse_mtriples_s",
        triples.len() as f64
            / 1e6
            / p10_secs(10, || {
                let fresh = Dictionary::new();
                black_box(
                    ntriples::parse_document(&text, &fresh)
                        .map(|t| t.len())
                        .ok(),
                );
            }),
    );
}

/// The same four queries through three public entry points, one closed-loop
/// client: engine, `QueryServer::execute` (batching off and on), HTTP. Each
/// rung is the geometric mean over the classes of the class's fast decile;
/// an overhead is the difference between two rungs.
fn server_ladder(seed: u64, metrics: &mut Metrics) {
    const REPS: usize = 100;
    let w = gen_lubm(seed);
    let rung = |mut call: Box<dyn FnMut(usize) + '_>| -> f64 {
        let per_class: Vec<f64> = (0..w.queries.len())
            .map(|class| {
                call(class); // warm the probe caches
                p10_secs(REPS, || call(class)) * 1e6
            })
            .collect();
        geomean(&per_class)
    };

    let engine = Lusail::new(LusailConfig::default());
    let opts = ExecOptions::default();
    let engine_us = rung(Box::new(|class| {
        let result = engine.execute_with(&w.federation, &w.queries[class].query, &opts);
        black_box(result.expect("engine").solutions.len());
    }));

    let server_with = |batch: BatchConfig| {
        QueryServer::new(
            w.federation.clone(),
            Lusail::new(LusailConfig::default()),
            ServerConfig {
                batch,
                ..ServerConfig::default()
            },
        )
    };
    let plain = server_with(BatchConfig::default());
    let admitted_us = rung(Box::new(|class| {
        let result = plain.execute("t0", &w.queries[class].query);
        black_box(result.expect("server").solutions.len());
    }));
    let batching = server_with(BatchConfig {
        enabled: true,
        ..BatchConfig::default()
    });
    let batched_us = rung(Box::new(|class| {
        let result = batching.execute("t0", &w.queries[class].query);
        black_box(result.expect("batching server").solutions.len());
    }));

    let http = HttpServer::start(w.federation.clone(), ServerConfig::default());
    let mut client = Client::connect(http.addr).expect("connect to the local server");
    let http_us = rung(Box::new(|class| {
        let (status, body) = client.query("t0", &w.queries[class].text).expect("http");
        assert_eq!(status, 200, "{body}");
        black_box(body.len());
    }));
    drop(http);

    metrics.put("core.engine.execute_us", engine_us);
    metrics.put("server.admission.overhead_us", admitted_us - engine_us);
    metrics.put("server.batch.overhead_us", batched_us - admitted_us);
    metrics.put("server.http.overhead_us", http_us - admitted_us);

    let big = engine
        .execute(&w.federation, &w.query("Q1").query)
        .expect("engine")
        .solutions;
    let shown = big.len().clamp(1, 100) as f64;
    metrics.put(
        "server.http.render_us_per_100_rows",
        p10_secs(REPS, || {
            black_box(render_solutions(&big, &w.dict).len());
        }) * 1e6
            * 100.0
            / shown,
    );
}

/// Two tenants send the same query at the same instant, twelve rounds: the
/// batching window must pair them and share their subqueries. (With at most
/// two connections an open loop never fills a window, so batching is probed
/// here rather than in `serve_open`.)
fn batch_probe(seed: u64, metrics: &mut Metrics) {
    const ROUNDS: usize = 12;
    let w = gen_lubm(seed);
    let server = QueryServer::new(
        w.federation.clone(),
        Lusail::new(LusailConfig::default()),
        ServerConfig {
            batch: BatchConfig {
                enabled: true,
                window: Duration::from_millis(50),
                max_batch: 2,
            },
            ..ServerConfig::default()
        },
    );
    let barrier = Barrier::new(2);
    let subqueries: usize = std::thread::scope(|scope| {
        let tenants: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|tenant| {
                let (server, barrier, w) = (&server, &barrier, &w);
                scope.spawn(move || {
                    let mut subqueries = 0;
                    for round in 0..ROUNDS {
                        barrier.wait();
                        let query = &w.queries[round % w.queries.len()].query;
                        let result = server.execute(tenant, query).expect("batched query");
                        subqueries += result.metrics.subqueries;
                    }
                    subqueries
                })
            })
            .collect();
        tenants
            .into_iter()
            .map(|t| t.join().expect("tenant thread panicked"))
            .sum()
    });
    let stats = server.batch_stats();
    metrics.put(
        "server.batch.mean_window",
        stats.batched_queries as f64 / (stats.windows as f64).max(1.0),
    );
    metrics.put(
        "server.batch.shared_hit_share",
        stats.shared_hits as f64 / (subqueries as f64).max(1.0),
    );
    metrics.put(
        "server.batch.wire_requests_saved_per_round",
        stats.wire_requests_saved as f64 / ROUNDS as f64,
    );
}
