//! `lusail-cli` — query decentralized RDF graphs from the command line.
//!
//! Subcommands:
//!
//! * `generate --workload lubm|qfed|lrb|bio2rdf --out DIR [--size N]` —
//!   write a benchmark federation to disk, one N-Triples file per
//!   endpoint, plus a `queries/` directory with the benchmark queries.
//! * `query --endpoint FILE.nt ... (--query 'SPARQL' | --query-file F)
//!   [--replica NAME=FILE.nt ...] [--kill NAME[:N] ...]
//!   [--engine lusail|fedx] [--threads N] [--backend btree|columns]
//!   [--explain-analyze [--fixed-clock]]` — run a
//!   federated query over the given endpoint files and print the results
//!   as a table. `--threads N` sets the worker budget for dispatching
//!   per-endpoint subqueries (default 1 —
//!   sequential; any budget returns byte-identical results). `--replica NAME=FILE.nt` registers FILE.nt as a replica
//!   of the endpoint named NAME (same partition, failover target);
//!   `--kill NAME` makes the named endpoint permanently unavailable and
//!   `--kill NAME:N` kills it after serving N requests — a primary dying
//!   mid-query. With `--explain-analyze` the query still runs in full,
//!   but a report is printed instead of the rows: per-kind
//!   request/attempt counts, the plan that ran as `explain` prints it
//!   (delay decisions with their Chauvenet reasons) with each subquery's
//!   actual rows, VALUES traffic, join steps, circuit / failover
//!   activity, and phase timings. `--fixed-clock` runs
//!   against a manual test clock so the report is byte-stable (all
//!   durations render as 0ns).
//! * `explain --endpoint FILE.nt ... (--query 'SPARQL' | --query-file F)`
//!   — print Lusail's compile-time plan: sources, global join variables,
//!   subqueries and delay decisions.
//! * `stats --endpoint FILE.nt ... --out DIR` — the offline statistics
//!   build: summarize each endpoint file into characteristic sets and
//!   per-predicate cardinalities, written as `DIR/<name>.stats` in the
//!   `lusail-stats/v1` text format.
//! * `demo` — the paper's two-university running example, end to end.
//!
//! `query` and `explain` also accept `--backend btree|columns` to pick
//! the storage backend the loaded endpoint files are materialized on:
//! `btree` (the default) keeps the three mutable BTree indexes, while
//! `columns` freezes each endpoint into the compressed sorted-column
//! store. Results are byte-identical either way; the load report prints
//! one `storage:` line with the backend and total resident bytes so the
//! footprint difference is visible.
//!
//! `query` and `explain` also accept `--stats build|DIR`: `build`
//! summarizes every endpoint in-process at load time, `DIR` loads the
//! files a prior `stats` run wrote. With statistics attached, Lusail
//! answers conclusive ASK/COUNT/check probes locally instead of crossing
//! the wire — results are identical, request counts drop.
//!
//! Each `--endpoint` file becomes one SPARQL endpoint named after the
//! file stem.

use lusail_baselines::FedX;
use lusail_benchdata::{bio2rdf, lrb, lubm, qfed, Workload};
use lusail_endpoint::{
    EndpointRef, ExecOptions, FaultProfile, FederatedEngine, Federation, FlakyEndpoint,
    LocalEndpoint, ManualClock, NetworkProfile, SparqlEndpoint,
};
use lusail_rdf::{ntriples, Dictionary};
use lusail_repro::lusail::{Lusail, LusailConfig};
use lusail_sparql::{parse_query, SolutionSet};
use lusail_store::{BackendKind, EndpointStats, TripleStore};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("query") => cmd_query(&args[1..], false),
        Some("explain") => cmd_query(&args[1..], true),
        Some("stats") => cmd_stats(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("demo") => cmd_demo(),
        _ => {
            eprintln!(
                "usage: lusail-cli <generate|query|explain|stats|serve|demo> [options]\n\
                 \n\
                 generate --workload lubm|qfed|lrb|bio2rdf --out DIR [--size N]\n\
                 query    --endpoint F.nt ... (--query SPARQL | --query-file F) [--engine lusail|fedx]\n\
                 \x20        [--replica NAME=F.nt ...] [--kill NAME[:N] ...] [--threads N]\n\
                 \x20        [--backend btree|columns] [--stats build|DIR]\n\
                 \x20        [--explain-analyze [--fixed-clock]]\n\
                 explain  --endpoint F.nt ... (--query SPARQL | --query-file F)\n\
                 \x20        [--backend btree|columns] [--stats build|DIR]\n\
                 stats    --endpoint F.nt ... --out DIR\n\
                 serve    --endpoint F.nt ... [--port N] [--max-in-flight N] [--threads N]\n\
                 \x20        [--tenant-quota N] [--deadline-ms N] [--cache-capacity N]\n\
                 \x20        [--batch-window-ms N [--batch-max N]]\n\
                 \x20        [--replica NAME=F.nt ...] [--kill NAME[:N] ...]\n\
                 \x20        [--backend btree|columns] [--stats build|DIR]\n\
                 demo"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// A count flag's value, `default` when the flag is absent. Zero is
/// refused like any non-number: every count these flags set (worker
/// threads, admission slots, deadline milliseconds, a batch's size) would
/// turn each query away, or silently become one, at zero.
fn positive_flag(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(s) => s
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("bad {name} (want a positive integer)")),
    }
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn flag_values<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < args.len() {
        if args[i] == name {
            out.push(args[i + 1].as_str());
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let workload = flag_value(args, "--workload").ok_or("missing --workload")?;
    let out = PathBuf::from(flag_value(args, "--out").ok_or("missing --out")?);
    let size: usize = flag_value(args, "--size")
        .map(|s| s.parse().map_err(|_| "bad --size"))
        .transpose()?
        .unwrap_or(4);

    let w: Workload = match workload {
        "lubm" => lubm::generate(&lubm::LubmConfig::new(size)),
        "qfed" => qfed::generate(&qfed::QfedConfig::default()),
        "lrb" => lrb::generate(&lrb::LrbConfig {
            scale: size as f64 / 4.0,
            ..Default::default()
        }),
        "bio2rdf" => bio2rdf::generate(&bio2rdf::Bio2RdfConfig::default()),
        other => return Err(format!("unknown workload {other}")),
    };
    std::fs::create_dir_all(out.join("queries")).map_err(|e| e.to_string())?;
    for ep in &w.endpoints {
        let mut triples = Vec::with_capacity(ep.triple_count());
        ep.store().scan(None, None, None, |t| {
            triples.push(t);
            true
        });
        let text = ntriples::serialize(&triples, &w.dict);
        let fname = format!("{}.nt", ep.name().replace([' ', '/'], "_"));
        std::fs::write(out.join(&fname), text).map_err(|e| e.to_string())?;
        println!(
            "wrote {} ({} triples)",
            out.join(&fname).display(),
            ep.triple_count()
        );
    }
    for nq in &w.queries {
        let path = out.join("queries").join(format!("{}.rq", nq.name));
        std::fs::write(&path, &nq.text).map_err(|e| e.to_string())?;
    }
    println!(
        "wrote {} queries under {}",
        w.queries.len(),
        out.join("queries").display()
    );
    Ok(())
}

/// Parses one `--kill` spec: `NAME` (permanently unavailable) or
/// `NAME:N` (dies after serving N requests).
fn parse_kill(spec: &str) -> Result<(String, FaultProfile), String> {
    match spec.rsplit_once(':') {
        Some((name, n)) => {
            let n: u64 = n
                .parse()
                .map_err(|_| format!("bad --kill spec {spec:?} (want NAME or NAME:N)"))?;
            Ok((name.to_string(), FaultProfile::dies_after(n)))
        }
        None => Ok((spec.to_string(), FaultProfile::dead())),
    }
}

/// Builds the endpoint over `store` on the chosen backend, wrapped once
/// for each `--kill` spec naming it, and marks those specs as used.
fn build_endpoint(
    name: &str,
    store: TripleStore,
    backend: BackendKind,
    kill_specs: &mut [(String, FaultProfile, bool)],
) -> EndpointRef {
    let mut ep: EndpointRef = Arc::new(LocalEndpoint::on_backend(
        name,
        store,
        backend,
        NetworkProfile::default(),
    ));
    for (kill_name, profile, used) in kill_specs.iter_mut() {
        if kill_name == name {
            *used = true;
            ep = Arc::new(FlakyEndpoint::new(ep, *profile));
            println!("killing endpoint {name}");
        }
    }
    ep
}

/// Reads one N-Triples file into a store, named after the file stem.
fn load_endpoint(p: &str, dict: &Arc<Dictionary>) -> Result<(String, TripleStore), String> {
    let path = Path::new(p);
    let text = std::fs::read_to_string(path).map_err(|e| format!("{p}: {e}"))?;
    let triples = ntriples::parse_document(&text, dict).map_err(|e| format!("{p}: {e}"))?;
    let mut store = TripleStore::new(Arc::clone(dict));
    store.extend(triples);
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| p.to_string());
    Ok((name, store))
}

/// The flags `query`, `explain` and `serve` share: the endpoint files,
/// their replicas and kills, the statistics mode and the storage backend.
struct FederationArgs<'a> {
    endpoints: Vec<&'a str>,
    replicas: Vec<&'a str>,
    kills: Vec<&'a str>,
    stats_mode: Option<&'a str>,
    backend: BackendKind,
}

impl<'a> FederationArgs<'a> {
    fn parse(args: &'a [String]) -> Result<Self, String> {
        let backend = match flag_value(args, "--backend") {
            None => BackendKind::Btree,
            Some(name) => BackendKind::parse(name)
                .ok_or_else(|| format!("unknown backend {name} (use btree|columns)"))?,
        };
        Ok(FederationArgs {
            endpoints: flag_values(args, "--endpoint"),
            replicas: flag_values(args, "--replica"),
            kills: flag_values(args, "--kill"),
            stats_mode: flag_value(args, "--stats"),
            backend,
        })
    }
}

fn load_federation(args: &FederationArgs) -> Result<(Federation, Arc<Dictionary>), String> {
    if args.endpoints.is_empty() {
        return Err("at least one --endpoint file is required".into());
    }
    let mut kill_specs: Vec<(String, FaultProfile, bool)> = args
        .kills
        .iter()
        .map(|spec| parse_kill(spec).map(|(name, profile)| (name, profile, false)))
        .collect::<Result<_, _>>()?;

    let dict = Dictionary::shared();
    let backend = args.backend;
    let mut fed = Federation::new(Arc::clone(&dict));
    let mut primary_names = Vec::new();
    // In `--stats build` mode the summaries come straight from the loaded
    // stores (before they move into the endpoints); in `--stats DIR` mode
    // they are read back from a prior `lusail-cli stats` run below.
    let mut built_stats: Vec<(String, EndpointStats)> = Vec::new();
    for p in &args.endpoints {
        let (name, store) = load_endpoint(p, &dict)?;
        println!("loaded endpoint {name}: {} triples", store.len());
        if args.stats_mode == Some("build") {
            built_stats.push((name.clone(), EndpointStats::build(&store)));
        }
        fed.add(build_endpoint(&name, store, backend, &mut kill_specs));
        primary_names.push(name);
    }
    for spec in &args.replicas {
        let (primary, file) = spec
            .split_once('=')
            .ok_or_else(|| format!("bad --replica spec {spec:?} (want NAME=FILE.nt)"))?;
        let Some(primary_id) = primary_names.iter().position(|n| n == primary) else {
            return Err(format!("--replica {spec:?}: no endpoint named {primary:?}"));
        };
        let (name, store) = load_endpoint(file, &dict)?;
        println!(
            "loaded replica {name} of {primary}: {} triples",
            store.len()
        );
        fed.add_replica(
            primary_id,
            build_endpoint(&name, store, backend, &mut kill_specs),
        );
    }
    if let Some((name, _, _)) = kill_specs.iter().find(|(_, _, used)| !used) {
        return Err(format!("--kill {name:?}: no endpoint with that name"));
    }
    let resident: u64 = fed.iter().filter_map(|(_, ep)| ep.resident_bytes()).sum();
    let n_endpoints = fed.iter().count();
    println!(
        "storage: backend {backend}, {resident} B resident across \
         {n_endpoints} endpoint(s)"
    );
    match args.stats_mode {
        None => {}
        Some("build") => {
            for (name, stats) in built_stats {
                let sets = stats.sets.len();
                let (id, _) = fed.endpoint_by_name(&name).expect("endpoint just added");
                fed.attach_stats(id, Arc::new(stats));
                println!("built statistics for {name}: {sets} characteristic set(s)");
            }
        }
        Some(dir) => {
            let mut attached = 0usize;
            for name in &primary_names {
                let path = Path::new(dir).join(format!("{name}.stats"));
                let Ok(text) = std::fs::read_to_string(&path) else {
                    println!("no statistics for {name} ({} not found)", path.display());
                    continue;
                };
                let stats = EndpointStats::from_text(&text, &dict)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                let sets = stats.sets.len();
                let (id, ep) = fed.endpoint_by_name(name).expect("endpoint just added");
                // A file built from other data would answer probes
                // conclusively and wrongly; an edit that keeps the triple
                // count is not caught here.
                let triples = ep.triple_count() as u64;
                if stats.total_triples != triples {
                    return Err(format!(
                        "{}: stale statistics: the file describes {} triples, endpoint {name} \
                         holds {triples} (rerun `lusail-cli stats`)",
                        path.display(),
                        stats.total_triples
                    ));
                }
                fed.attach_stats(id, Arc::new(stats));
                println!("loaded statistics for {name}: {sets} characteristic set(s)");
                attached += 1;
            }
            if attached == 0 {
                return Err(format!(
                    "--stats {dir}: no .stats file matched any endpoint"
                ));
            }
        }
    }
    Ok((fed, dict))
}

/// The offline statistics build: one `.stats` file per endpoint file,
/// in the `lusail-stats/v1` text format `--stats DIR` loads back.
fn cmd_stats(args: &[String]) -> Result<(), String> {
    let endpoints = flag_values(args, "--endpoint");
    if endpoints.is_empty() {
        return Err("at least one --endpoint file is required".into());
    }
    let out = PathBuf::from(flag_value(args, "--out").ok_or("missing --out")?);
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let dict = Dictionary::shared();
    for p in endpoints {
        let (name, store) = load_endpoint(p, &dict)?;
        let stats = EndpointStats::build(&store);
        let rendered = stats.to_text(&dict)?;
        let target = out.join(format!("{name}.stats"));
        std::fs::write(&target, rendered).map_err(|e| e.to_string())?;
        println!(
            "wrote {} ({} characteristic set(s), {} predicate(s))",
            target.display(),
            stats.sets.len(),
            stats.predicates.len()
        );
    }
    Ok(())
}

fn read_query(args: &[String], dict: &Dictionary) -> Result<lusail_sparql::Query, String> {
    let text = match (
        flag_value(args, "--query"),
        flag_value(args, "--query-file"),
    ) {
        (Some(q), _) => q.to_string(),
        (None, Some(f)) => std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?,
        (None, None) => return Err("missing --query or --query-file".into()),
    };
    parse_query(&text, dict).map_err(|e| e.to_string())
}

fn cmd_query(args: &[String], explain_only: bool) -> Result<(), String> {
    let (fed, dict) = load_federation(&FederationArgs::parse(args)?)?;
    let query = read_query(args, &dict)?;

    if explain_only {
        let engine = Lusail::new(LusailConfig::default());
        let plan = engine.explain(&fed, &query);
        println!("\n{}", plan.render(&fed));
        return Ok(());
    }

    let engine_name = flag_value(args, "--engine").unwrap_or("lusail");
    let threads = positive_flag(args, "--threads", 1)?;
    let exec = ExecOptions::default().with_threads(threads);
    if has_flag(args, "--explain-analyze") {
        if engine_name != "lusail" {
            return Err("--explain-analyze is only available for the lusail engine".into());
        }
        let mut engine = Lusail::new(LusailConfig::default());
        if has_flag(args, "--fixed-clock") {
            engine = engine.with_clock(ManualClock::new());
        }
        let report = engine
            .explain_analyze_with(&fed, &query, &exec)
            .map_err(|e| e.to_string())?;
        println!("\n{report}");
        return Ok(());
    }
    let engine: Box<dyn FederatedEngine> = match engine_name {
        "lusail" => Box::new(Lusail::default()),
        "fedx" => Box::new(FedX::default()),
        other => return Err(format!("unknown engine {other} (use lusail|fedx)")),
    };
    let before = fed.stats_snapshot();
    let start = std::time::Instant::now();
    let outcome = engine
        .run_with(&fed, &query, &exec)
        .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed();
    let window = fed.stats_snapshot().since(&before);
    print_solutions(&outcome.solutions, &dict);
    println!(
        "\n{} rows in {:.1} ms — {} remote requests, {} result rows \
         fetched from endpoints, {} store rows scanned",
        outcome.solutions.len(),
        elapsed.as_secs_f64() * 1e3,
        window.total_requests(),
        window.rows_returned,
        window.rows_scanned
    );
    report_failures(&outcome);
    Ok(())
}

/// `lusail-cli serve`: a long-lived multi-tenant SPARQL-over-HTTP
/// service over the loaded federation. Runs until SIGTERM/SIGINT, then
/// drains gracefully (in-flight queries finish or hit their deadlines;
/// new admissions are refused with typed 503/504 responses).
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let federation = FederationArgs::parse(args)?;
    let port: u16 = flag_value(args, "--port")
        .map(|s| s.parse().map_err(|_| "bad --port (want 0-65535)"))
        .transpose()?
        .unwrap_or(3030);
    let max_in_flight = positive_flag(args, "--max-in-flight", 8)?;
    let threads = positive_flag(args, "--threads", 1)?;
    let tenant_quota = positive_flag(args, "--tenant-quota", 4)?;
    let deadline_ms = positive_flag(args, "--deadline-ms", 30_000)? as u64;
    let cache_capacity = flag_value(args, "--cache-capacity")
        .map(|s| s.parse::<usize>().map_err(|_| "bad --cache-capacity"))
        .transpose()?;
    // Cross-tenant MQO batching: `--batch-window-ms` turns it on and sets
    // the accumulation window; `--batch-max` sets the count trigger.
    let batch_window_ms = flag_value(args, "--batch-window-ms")
        .map(|s| s.parse::<u64>().map_err(|_| "bad --batch-window-ms"))
        .transpose()?;
    let batch_max = positive_flag(
        args,
        "--batch-max",
        lusail_server::BatchConfig::default().max_batch,
    )?;

    let (fed, _dict) = load_federation(&federation)?;
    let engine = Lusail::new(LusailConfig {
        probe_cache_capacity: cache_capacity,
        ..LusailConfig::default()
    });
    let config = lusail_server::ServerConfig {
        max_in_flight,
        threads_per_query: threads,
        tenant: lusail_server::TenantPolicy {
            max_in_flight: tenant_quota,
            deadline_budget: std::time::Duration::from_millis(deadline_ms),
        },
        batch: lusail_server::BatchConfig {
            enabled: batch_window_ms.is_some(),
            window: std::time::Duration::from_millis(batch_window_ms.unwrap_or(2)),
            max_batch: batch_max,
        },
    };
    let server = lusail_server::QueryServer::new(fed, engine, config);
    let listener = std::net::TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let shutdown = lusail_server::http::install_shutdown_flag();
    println!("serving on http://{addr}/sparql (SIGTERM to drain)");
    let report = lusail_server::http::run_http_loop(&server, listener, shutdown)
        .map_err(|e| e.to_string())?;
    let counters = server.counters();
    println!(
        "drained in {:.1} ms ({} abandoned) — {} admitted, {} rejected \
         ({} shed, {} deadline, {} draining), {} cache invalidations",
        report.waited.as_secs_f64() * 1e3,
        report.abandoned,
        counters.admitted,
        counters.total_rejected(),
        counters.shed,
        counters.deadline_rejected,
        counters.draining_rejected,
        counters.health_invalidations,
    );
    let batch = server.batch_stats();
    if batch.windows > 0 {
        println!(
            "batching: {} windows ({} queries, widest {}), {} shared subquery \
             hits saved {} wire requests",
            batch.windows,
            batch.batched_queries,
            batch.max_window,
            batch.shared_hits,
            batch.wire_requests_saved,
        );
    }
    if report.abandoned > 0 {
        return Err(format!(
            "{} queries still in flight past the drain bound",
            report.abandoned
        ));
    }
    Ok(())
}

/// Prints the per-endpoint failure report and the completeness warning.
fn report_failures(outcome: &lusail_endpoint::QueryOutcome) {
    for f in &outcome.failures {
        println!(
            "endpoint {}: {} failed request(s), {} retr{}{}",
            f.name,
            f.failed_requests,
            f.retries,
            if f.retries == 1 { "y" } else { "ies" },
            if f.dead {
                " — circuit opened; replicas served its subqueries where available"
            } else {
                ""
            }
        );
    }
    if !outcome.complete {
        println!(
            "WARNING: the result is INCOMPLETE — data-bearing requests \
             failed after retries; rows from those endpoints are missing"
        );
    }
}

/// The result table, rendered by the same function the HTTP server
/// uses for `200` bodies — `lusail-cli serve` responses and single-shot
/// `lusail-cli query` tables diff byte-for-byte.
fn print_solutions(sols: &SolutionSet, dict: &Dictionary) {
    print!("{}", lusail_server::http::render_solutions(sols, dict));
}

fn cmd_demo() -> Result<(), String> {
    // A condensed version of examples/quickstart.rs.
    use lusail_rdf::Term;
    let dict = Dictionary::shared();
    let ub = |l: &str| Term::iri(format!("http://ub/{l}"));
    let e1 = |l: &str| Term::iri(format!("http://ep1/{l}"));
    let e2 = |l: &str| Term::iri(format!("http://ep2/{l}"));
    let mut ep1 = TripleStore::new(Arc::clone(&dict));
    for (s, p, o) in [
        (e1("Kim"), ub("advisor"), e1("Joy")),
        (e1("Kim"), ub("takesCourse"), e1("c1")),
        (e1("Joy"), ub("PhDDegreeFrom"), e1("CMU")),
        (e1("CMU"), ub("address"), Term::lit("CCCC")),
        (e1("MIT"), ub("address"), Term::lit("XXX")),
    ] {
        ep1.insert_terms(&s, &p, &o);
    }
    let mut ep2 = TripleStore::new(Arc::clone(&dict));
    for (s, p, o) in [
        (e2("Lee"), ub("advisor"), e2("Tim")),
        (e2("Lee"), ub("takesCourse"), e2("c3")),
        (e2("Tim"), ub("PhDDegreeFrom"), e1("MIT")),
    ] {
        ep2.insert_terms(&s, &p, &o);
    }
    let mut fed = Federation::new(Arc::clone(&dict));
    fed.add(Arc::new(LocalEndpoint::new("EP1", ep1)));
    fed.add(Arc::new(LocalEndpoint::new("EP2", ep2)));
    let q = parse_query(
        "PREFIX ub: <http://ub/> SELECT ?S ?P ?U ?A WHERE { \
         ?S ub:advisor ?P . ?S ub:takesCourse ?C . \
         ?P ub:PhDDegreeFrom ?U . ?U ub:address ?A }",
        &dict,
    )
    .map_err(|e| e.to_string())?;
    let engine = Lusail::default();
    println!("plan:\n{}", engine.explain(&fed, &q).render(&fed));
    let result = engine.execute(&fed, &q).map_err(|e| e.to_string())?;
    print_solutions(&result.solutions, &dict);
    println!(
        "\n{} rows; GJVs {:?}; {} subqueries; {} remote requests; complete: {}",
        result.solutions.len(),
        result.metrics.gjvs,
        result.metrics.subqueries,
        result.metrics.total_requests(),
        result.complete
    );
    Ok(())
}
