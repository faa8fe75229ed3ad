//! The paper's tables and figures behind `lusail-bench figures`.
//!
//! [`FIGURES`] is keyed by the names in EXPERIMENTS.md's headings. The
//! six figures that are "all engines over a federation's queries" are
//! rows of `Comparison` data fed to `compare_engines`; the others keep
//! one function each. Every table is printed and saved as
//! `results/<table>.csv`.

use crate::{compare_engines, fmt_count, run_averaged, RunResult, Table};
use lusail_baselines::{EngineKind, FedX, HibiscusIndex, VoidIndex};
use lusail_benchdata::{bio2rdf, lrb, lubm, qfed, Workload};
use lusail_core::{DelayPolicy, Lusail, LusailConfig};
use lusail_endpoint::{FederatedEngine, Federation, NetworkProfile, RequestPolicy, SparqlEndpoint};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One table or figure of the paper.
pub struct Figure {
    /// Its name in EXPERIMENTS.md's headings and on the command line.
    pub name: &'static str,
    title: &'static str,
    body: Body,
}

enum Body {
    /// One [`compare_engines`] table per row, all over one roster with
    /// one soft timeout per engine and query.
    Compare {
        engines: &'static [EngineKind],
        timeout_secs: u64,
        tables: fn() -> Vec<Comparison>,
    },
    Custom(fn()),
}

/// One engine-comparison table: its CSV stem under `results/`, the
/// federation, and the query subset.
type Comparison = (String, Setting, Queries);

/// The federations the comparison figures run over.
#[derive(Clone, Copy, PartialEq)]
enum Setting {
    Qfed,
    /// LUBM with this many university endpoints.
    Lubm(usize),
    Lrb,
    /// LargeRDFBench behind the "7-region" WAN of [`region_profiles`].
    LrbGeo,
    /// LUBM behind the same WAN.
    LubmGeo(usize),
    /// Bio2RDF behind a modest WAN, like the public endpoints it models.
    Bio2rdfWan,
}

enum Queries {
    All,
    /// One LargeRDFBench category (`simple` / `complex` / `large`).
    Category(&'static str),
    /// One query, its row labelled with the endpoint count.
    One(&'static str),
}

/// A "7-region" latency assignment: endpoints rotate through region RTTs,
/// scaled down (2–10 ms instead of tens-to-hundreds) so the sweep is
/// quick; the request-count × latency product the paper's crossovers come
/// from is preserved.
fn region_profiles(n: usize) -> Option<Vec<NetworkProfile>> {
    let region_latency_ms = [2u64, 3, 4, 5, 6, 8, 10];
    Some(
        (0..n)
            .map(|i| NetworkProfile::wan(region_latency_ms[i % region_latency_ms.len()], 200))
            .collect(),
    )
}

impl Setting {
    fn generate(self) -> Workload {
        match self {
            Setting::Qfed => qfed::generate(&qfed::QfedConfig::default()),
            Setting::Lubm(n) => lubm::generate(&lubm::LubmConfig::new(n)),
            Setting::Lrb => lrb::generate(&lrb::LrbConfig::default()),
            Setting::LrbGeo => lrb::generate(&lrb::LrbConfig {
                profiles: region_profiles(13),
                ..Default::default()
            }),
            Setting::LubmGeo(n) => lubm::generate(&lubm::LubmConfig {
                profiles: region_profiles(n),
                ..lubm::LubmConfig::new(n)
            }),
            Setting::Bio2rdfWan => bio2rdf::generate(&bio2rdf::Bio2RdfConfig {
                profiles: Some(vec![NetworkProfile::wan(5, 100); 5]),
                ..Default::default()
            }),
        }
    }
}

/// Runs the tables in order. Consecutive tables over one setting share
/// the federation and the engines (and so their warm probe caches).
fn compare(engines: &[EngineKind], timeout_secs: u64, tables: Vec<Comparison>) {
    type Roster = Vec<(EngineKind, Arc<dyn FederatedEngine>)>;
    let mut built: Option<(Setting, Workload, Roster)> = None;
    for (table, setting, subset) in tables {
        if built.as_ref().map(|b| b.0) != Some(setting) {
            let w = setting.generate();
            let refs = w.endpoint_refs();
            let roster = engines
                .iter()
                .map(|&kind| {
                    let engine =
                        kind.build(&refs, LusailConfig::default(), RequestPolicy::default());
                    (kind, Arc::from(engine))
                })
                .collect();
            built = Some((setting, w, roster));
        }
        let (_, w, roster) = built.as_ref().expect("built above");
        let label = format!("{} endpoints", w.federation.len());
        let queries: Vec<(&str, &lusail_sparql::Query)> = w
            .queries
            .iter()
            .filter_map(|nq| match subset {
                Queries::All => Some((nq.name.as_str(), &nq.query)),
                Queries::Category(c) if lrb::category(&nq.name) == c => {
                    Some((nq.name.as_str(), &nq.query))
                }
                Queries::One(q) if nq.name == q => Some((label.as_str(), &nq.query)),
                _ => None,
            })
            .collect();
        println!("{table}\n");
        let timeout = Duration::from_secs(timeout_secs);
        compare_engines(&table, &w.federation, roster, &queries, timeout).finish();
        println!();
    }
}

/// Every figure, in EXPERIMENTS.md's order.
pub const FIGURES: [Figure; 13] = [
    Figure {
        name: "table1_datasets",
        title: "Table I — datasets used in experiments (scaled down)",
        body: Body::Custom(table1_datasets),
    },
    Figure {
        name: "fig3_fedx_sensitivity",
        title: "Figure 3 — FedX sensitivity to the number of endpoints (source selection cached)",
        body: Body::Custom(fig3_fedx_sensitivity),
    },
    Figure {
        name: "fig9_delay_thresholds",
        title: "Figure 9 — delay-threshold sweep on LargeRDFBench-style data \
                (WAN latency 2 ms, 20 Mbit/s, scale 2; really sleeps)",
        body: Body::Custom(fig9_delay_thresholds),
    },
    Figure {
        name: "fig10_profiling",
        title: "Figure 10 — Lusail's three phases by query complexity and by endpoint count",
        body: Body::Custom(fig10_profiling),
    },
    Figure {
        name: "fig11_qfed",
        title: "Figure 11 — QFed query runtimes, all systems",
        body: Body::Compare {
            engines: &EngineKind::ALL,
            timeout_secs: 60,
            tables: || vec![("fig11_qfed".into(), Setting::Qfed, Queries::All)],
        },
    },
    Figure {
        name: "fig12_lubm",
        title: "Figure 12 — LUBM Q1–Q4 on (a) two and (b) four university endpoints",
        body: Body::Compare {
            engines: &EngineKind::ALL,
            timeout_secs: 60,
            tables: || {
                [2, 4]
                    .map(|n| (format!("fig12_lubm_{n}ep"), Setting::Lubm(n), Queries::All))
                    .into()
            },
        },
    },
    Figure {
        name: "fig13_largerdfbench",
        title: "Figure 13 — LargeRDFBench-style runtimes, local setting",
        body: Body::Compare {
            engines: &EngineKind::ALL,
            timeout_secs: 120,
            tables: || {
                ["simple", "complex", "large"]
                    .map(|c| (format!("fig13_lrb_{c}"), Setting::Lrb, Queries::Category(c)))
                    .into()
            },
        },
    },
    Figure {
        name: "fig14_geo",
        title: "Figure 14 — geo-distributed federation (7-region WAN, really sleeps): \
                (a) LargeRDFBench complex, (b) large, (c) LUBM on two endpoints",
        body: Body::Compare {
            engines: &EngineKind::ALL,
            timeout_secs: 300,
            tables: || {
                let lrb = |stem: &str, c| (stem.into(), Setting::LrbGeo, Queries::Category(c));
                vec![
                    lrb("fig14a_geo_complex", "complex"),
                    lrb("fig14b_geo_large", "large"),
                    ("fig14c_geo_lubm".into(), Setting::LubmGeo(2), Queries::All),
                ]
            },
        },
    },
    Figure {
        name: "real_endpoints",
        title: "§VI-D — Bio2RDF-style real-endpoint federation (R1–R3), Lusail vs FedX",
        body: Body::Compare {
            engines: &[EngineKind::Lusail, EngineKind::FedX],
            timeout_secs: 120,
            tables: || vec![("real_endpoints".into(), Setting::Bio2rdfWan, Queries::All)],
        },
    },
    Figure {
        name: "preprocessing_cost",
        title: "§VI-A — data preprocessing cost (index-based systems only)",
        body: Body::Custom(preprocessing_cost),
    },
    Figure {
        name: "scalability",
        title: "Footnote 8 — LUBM Q2 (disjoint triangle) and Q4 (cross-endpoint join) on a \
                doubling number of endpoints, 30 s timeout per engine",
        body: Body::Compare {
            engines: &EngineKind::ALL,
            timeout_secs: 30,
            tables: || {
                let mut tables = Vec::new();
                for q in ["Q2", "Q4"] {
                    for n in [2, 4, 8, 16, 32] {
                        let stem = format!("scalability_{q}_{n}");
                        tables.push((stem, Setting::Lubm(n), Queries::One(q)));
                    }
                }
                tables
            },
        },
    },
    Figure {
        name: "extras_mqo_cluster",
        title: "§V extras — multi-query optimization and multi-machine execution",
        body: Body::Custom(extras_mqo_cluster),
    },
    Figure {
        name: "ablations",
        title: "Ablations — LADE, delay policy, VALUES block size, probe cache, probe coalescing (LUBM, 4 endpoints)",
        body: Body::Custom(ablations),
    },
];

/// The figure names, in order.
pub fn names() -> Vec<&'static str> {
    FIGURES.iter().map(|f| f.name).collect()
}

/// Regenerates the named figures (all of them when `wanted` is empty).
/// `Err` carries the first name that is not a figure; nothing runs then.
pub fn run(wanted: &[String]) -> Result<(), String> {
    if let Some(unknown) = wanted.iter().find(|w| !names().contains(&w.as_str())) {
        return Err(unknown.clone());
    }
    for figure in &FIGURES {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == figure.name) {
            continue;
        }
        println!("{}\n", figure.title);
        match figure.body {
            Body::Compare {
                engines,
                timeout_secs,
                tables,
            } => compare(engines, timeout_secs, tables()),
            Body::Custom(body) => body(),
        }
        println!(
            "\nWhat the paper reports: EXPERIMENTS.md, `{}`.\n",
            figure.name
        );
    }
    Ok(())
}

/// The `ms` and `requests` cells of one run.
fn ms_reqs(r: &RunResult) -> [String; 2] {
    [r.cell(), fmt_count(r.requests.total_requests())]
}

fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

const DELAY_POLICIES: [(&str, DelayPolicy); 4] = [
    ("mu", DelayPolicy::Mu),
    ("mu+sigma", DelayPolicy::MuSigma),
    ("mu+2sigma", DelayPolicy::Mu2Sigma),
    ("outliers", DelayPolicy::OutliersOnly),
];

/// Endpoint names and triple counts of every benchmark federation beside
/// the sizes the paper reports, so the scale factor is explicit.
fn table1_datasets() {
    const QFED_PAPER: [(&str, &str); 4] = [
        ("DrugBank", "766,920"),
        ("Diseasome", "91,182"),
        ("Sider", "193,249"),
        ("DailyMed", "164,276"),
    ];
    const LRB_PAPER: [(&str, &str); 13] = [
        ("LinkedTCGA-M", "415,030,327"),
        ("LinkedTCGA-E", "344,576,146"),
        ("LinkedTCGA-A", "35,329,868"),
        ("ChEBI", "4,772,706"),
        ("DBPedia-Subset", "42,849,609"),
        ("DrugBank", "517,023"),
        ("GeoNames", "107,950,085"),
        ("Jamendo", "1,049,647"),
        ("KEGG", "1,090,830"),
        ("LinkedMDB", "6,147,996"),
        ("New York Times", "335,198"),
        ("Semantic Web Dog Food", "103,595"),
        ("Affymetrix", "44,207,146"),
    ];
    /// One row per endpoint, then the total when the paper gives one.
    fn federation(
        table: &mut Table,
        benchmark: &str,
        w: &Workload,
        paper: &[(&str, &str)],
        paper_total: Option<&str>,
    ) {
        for ep in &w.endpoints {
            let paper = paper.iter().find(|(n, _)| *n == ep.name());
            table.row(vec![
                benchmark.into(),
                ep.name().into(),
                fmt_count(ep.triple_count() as u64),
                paper.map_or("-", |(_, t)| t).into(),
            ]);
        }
        if let Some(total) = paper_total {
            table.row(vec![
                benchmark.into(),
                "Total".into(),
                fmt_count(w.federation.total_triples() as u64),
                total.into(),
            ]);
        }
    }
    let header = [
        "benchmark",
        "endpoint",
        "triples (this repo)",
        "triples (paper)",
    ];
    let mut table = Table::new("table1_datasets", &header);
    let qfed = Setting::Qfed.generate();
    federation(&mut table, "QFed", &qfed, &QFED_PAPER, Some("1,215,627"));
    let lrb = Setting::Lrb.generate();
    let lrb_total = Some("1,003,960,176");
    federation(&mut table, "LargeRDFBench", &lrb, &LRB_PAPER, lrb_total);
    table.row(vec![
        "LUBM".into(),
        "4 universities".into(),
        fmt_count(Setting::Lubm(4).generate().federation.total_triples() as u64),
        "~552,000 (4 × ~138K)".into(),
    ]);
    let bio2rdf = bio2rdf::generate(&bio2rdf::Bio2RdfConfig::default());
    federation(&mut table, "Bio2RDF", &bio2rdf, &[], None);
    table.finish();
}

/// The paper's motivation experiment (§II): FedX on LUBM Q2 with 1–4
/// university endpoints and on the QFed Drug query with 2–4 sources, with
/// Lusail alongside. `run_averaged`'s warm-up primes the probe caches, so the
/// counted window excludes source selection, as the figure specifies.
fn fig3_fedx_sensitivity() {
    let header = [
        "endpoints",
        "fedx ms",
        "fedx requests",
        "lusail ms",
        "lusail requests",
        "rows",
    ];
    let measure = |table: &mut Table, fed: &Federation, query: &lusail_sparql::Query| {
        let fx = run_averaged(&FedX::default(), fed, query, 3);
        let lu = run_averaged(&Lusail::default(), fed, query, 3);
        let mut cells = vec![fed.len().to_string()];
        cells.extend(ms_reqs(&fx));
        cells.extend(ms_reqs(&lu));
        cells.push(fx.rows().unwrap_or(0).to_string());
        table.row(cells);
    };
    println!("(a) LUBM Q2 (the paper's Q2 = LUBM Q9 triangle)\n");
    let mut table = Table::new("fig3_lubm_q2", &header);
    for n in 1..=4 {
        let w = Setting::Lubm(n).generate();
        measure(&mut table, &w.federation, &w.query("Q2").query);
    }
    table.finish();

    println!("\n(b) QFed Drug query\n");
    let mut table = Table::new("fig3_qfed_drug", &header);
    let w = Setting::Qfed.generate();
    for n in 2..=4 {
        // Restrict the federation to the first n sources; Diseasome and
        // DrugBank (the Drug query's required sources) come first.
        let mut fed = Federation::new(Arc::clone(w.federation.dict()));
        for name in ["Diseasome", "DrugBank", "DailyMed", "Sider"]
            .iter()
            .take(n)
        {
            let (_, ep) = w.federation.endpoint_by_name(name).expect("endpoint");
            fed.add(Arc::clone(ep));
        }
        measure(&mut table, &fed, &w.query("Drug").query);
    }
    table.finish();
}

/// The paper runs LargeRDFBench on geo-distributed endpoints and reports
/// the *total* time per query category under each delay policy. The WAN
/// here really sleeps (small latencies), so delaying — or failing to
/// delay — a heavy subquery has a visible network cost.
fn fig9_delay_thresholds() {
    let w = lrb::generate(&lrb::LrbConfig {
        scale: 2.0,
        profiles: Some(vec![NetworkProfile::wan(2, 20); 13]),
        ..Default::default()
    });
    let mut header = vec!["category".to_string()];
    header.extend(DELAY_POLICIES.map(|(name, _)| format!("{name} (s)")));
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new("fig9_delay_thresholds", &header);
    for cat in ["simple", "complex", "large"] {
        let mut cells = vec![cat.to_string()];
        for (_, delay_policy) in DELAY_POLICIES {
            let engine = Lusail::new(LusailConfig {
                delay_policy,
                ..Default::default()
            });
            let total: f64 = w
                .queries
                .iter()
                .filter(|nq| lrb::category(&nq.name) == cat)
                .map(|nq| run_averaged(&engine, &w.federation, &nq.query, 1).elapsed)
                .sum::<Duration>()
                .as_secs_f64();
            cells.push(format!("{total:.2}"));
        }
        table.row(cells);
    }
    table.finish();
}

/// (a) Phase breakdown (source selection / query analysis / execution) on
/// LargeRDFBench-style queries of increasing complexity; (b, c) the same
/// for LUBM Q3 and Q4 while the number of endpoints doubles up to 64,
/// with and without the COUNT/check-query cache.
fn fig10_profiling() {
    let phases = |m: &lusail_core::QueryMetrics| {
        [m.source_selection, m.analysis, m.execution, m.total].map(ms)
    };
    let w = Setting::Lrb.generate();
    let engine = Lusail::default();
    let header = [
        "query",
        "source sel (ms)",
        "analysis (ms)",
        "execution (ms)",
        "total (ms)",
    ];
    let mut table = Table::new("fig10a_phases", &header);
    for name in ["S10", "C4", "B1"] {
        engine.clear_caches(); // cold, like the paper's profile runs
        let r = engine.execute(&w.federation, &w.query(name).query).unwrap();
        let mut cells = vec![name.to_string()];
        cells.extend(phases(&r.metrics));
        table.row(cells);
    }
    table.finish();

    for (fig, qname) in [("fig10b", "Q3"), ("fig10c", "Q4")] {
        println!("\n{qname} phases vs endpoints (cache on / off)\n");
        let header = [
            "endpoints",
            "source sel (ms)",
            "analysis (ms)",
            "execution (ms)",
            "total cached (ms)",
            "total uncached (ms)",
        ];
        let mut table = Table::new(&format!("{fig}_{qname}_scale"), &header);
        for n in [4, 8, 16, 32, 64] {
            let w = Setting::Lubm(n).generate();
            let query = &w.query(qname).query;
            // Cached: a warm-up run primes the COUNT/check caches.
            let cached = Lusail::default();
            let _ = cached.execute(&w.federation, query);
            let r = cached.execute(&w.federation, query).unwrap();
            // Uncached: a fresh engine's one run.
            let ru = Lusail::default().execute(&w.federation, query).unwrap();
            let mut cells = vec![n.to_string()];
            cells.extend(phases(&r.metrics));
            cells.push(ms(ru.metrics.total));
            table.row(cells);
        }
        table.finish();
    }
}

/// What index-based systems pay before the first query: SPLENDID (VOID
/// statistics) and HiBISCuS (authority summaries) must scan every
/// endpoint's data; Lusail and FedX start cold. Both index builds are
/// timed on QFed and at two LRB scales to show the growth with data size.
fn preprocessing_cost() {
    let header = [
        "benchmark",
        "triples",
        "SPLENDID VOID (ms)",
        "HiBISCuS authorities (ms)",
        "Lusail/FedX",
    ];
    let mut table = Table::new("preprocessing_cost", &header);
    let mut measure = |benchmark: String, w: &Workload| {
        let t0 = Instant::now();
        let _void = VoidIndex::build(&w.endpoint_refs());
        let void_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let _hib = HibiscusIndex::build(&w.endpoint_refs());
        let hib_ms = t0.elapsed().as_secs_f64() * 1e3;
        table.row(vec![
            benchmark,
            w.federation.total_triples().to_string(),
            format!("{void_ms:.1}"),
            format!("{hib_ms:.1}"),
            "0 (index-free)".into(),
        ]);
    };
    measure("QFed-style".into(), &Setting::Qfed.generate());
    for scale in [1.0f64, 4.0] {
        let w = lrb::generate(&lrb::LrbConfig {
            scale,
            ..Default::default()
        });
        measure(format!("LRB-style (scale {scale})"), &w);
    }
    table.finish();
}

/// The extended version's features (§V, the companion report \[11\]):
/// the C2P2 family executed as one batch with shared subquery relations
/// vs. one at a time, and a LUBM workload over WAN-latency endpoints
/// executed by 1 / 2 / 4 mediator machines.
fn extras_mqo_cluster() {
    let w = Setting::Qfed.generate();
    let family: Vec<lusail_sparql::Query> = w
        .queries
        .iter()
        .filter(|nq| nq.name.starts_with("C2P2"))
        .map(|nq| nq.query.clone())
        .collect();
    let mut table = Table::new("extras_mqo", &["mode", "ms", "select requests"]);
    let mut shared = String::new();
    for mode in ["sequential", "MQO batch"] {
        let before = w.federation.stats_snapshot();
        let t0 = Instant::now();
        let engine = Lusail::default();
        if mode == "sequential" {
            for q in &family {
                let _ = engine.execute(&w.federation, q);
            }
        } else {
            let (_, report) = engine.execute_batch(&w.federation, &family).unwrap();
            shared = format!(
                "shared: {} of {} subqueries evaluated once",
                report.total_subqueries - report.distinct_subqueries,
                report.total_subqueries
            );
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let window = w.federation.stats_snapshot().since(&before);
        table.row(vec![
            mode.into(),
            format!("{ms:.1}"),
            fmt_count(window.select_requests),
        ]);
    }
    table.finish();
    println!("{shared}\n\nMulti-machine execution: LUBM workload, WAN endpoints\n");

    let w = lubm::generate(&lubm::LubmConfig {
        profiles: Some(vec![NetworkProfile::wan(3, 200); 4]),
        ..lubm::LubmConfig::new(4)
    });
    // Workload: every benchmark query, four times over.
    let workload: Vec<lusail_sparql::Query> = (0..4)
        .flat_map(|_| w.queries.iter().map(|nq| nq.query.clone()))
        .collect();
    let header = ["mediator machines", "workload ms", "queries/sec"];
    let mut table = Table::new("extras_cluster", &header);
    for machines in [1usize, 2, 4] {
        // One mediator per machine, sharing nothing but the endpoints:
        // query `i` runs on machine `i % machines`, all machines at once.
        let fleet: Vec<Lusail> = (0..machines).map(|_| Lusail::default()).collect();
        let run = || {
            std::thread::scope(|scope| {
                for (mi, machine) in fleet.iter().enumerate() {
                    let (fed, mine) = (&w.federation, workload.iter().skip(mi).step_by(machines));
                    scope.spawn(move || {
                        for q in mine {
                            machine.execute(fed, q).expect("non-empty federation");
                        }
                    });
                }
            })
        };
        // Warm-up primes each machine's caches.
        run();
        let t0 = Instant::now();
        run();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        table.row(vec![
            machines.to_string(),
            format!("{ms:.1}"),
            format!("{:.1}", workload.len() as f64 / (ms / 1e3)),
        ]);
    }
    table.finish();
}

/// Lusail's design choices, one switched at a time: LADE off makes every
/// triple pattern its own subquery (the §II strawman); the delay policies
/// on one query (the full sweep is `fig9_delay_thresholds`); requests vs
/// `VALUES` block size for a delayed subquery; the probe cache on a
/// repeated query.
fn ablations() {
    let w = Setting::Lubm(4).generate();

    println!("1 — locality-aware decomposition on/off\n");
    let header = [
        "query",
        "LADE ms",
        "LADE reqs",
        "noLADE ms",
        "noLADE reqs",
        "rows",
    ];
    let mut table = Table::new("ablation_lade", &header);
    let with_lade = Lusail::default();
    let without = Lusail::new(LusailConfig {
        disable_lade: true,
        ..Default::default()
    });
    for nq in &w.queries {
        let a = run_averaged(&with_lade, &w.federation, &nq.query, 3);
        let b = run_averaged(&without, &w.federation, &nq.query, 3);
        assert_eq!(
            a.solutions.as_ref().unwrap().canonicalize(),
            b.solutions.as_ref().unwrap().canonicalize(),
            "LADE ablation changed results on {}",
            nq.name
        );
        let mut cells = vec![nq.name.clone()];
        cells.extend(ms_reqs(&a));
        cells.extend(ms_reqs(&b));
        cells.push(a.rows().unwrap().to_string());
        table.row(cells);
    }
    table.finish();

    println!("\n2 — delay policy on Q4\n");
    let mut table = Table::new("ablation_delay_policy", &["policy", "ms", "requests"]);
    for (name, delay_policy) in DELAY_POLICIES {
        let engine = Lusail::new(LusailConfig {
            delay_policy,
            ..Default::default()
        });
        let r = run_averaged(&engine, &w.federation, &w.query("Q4").query, 3);
        let mut cells = vec![name.to_string()];
        cells.extend(ms_reqs(&r));
        table.row(cells);
    }
    table.finish();

    println!("\n3 — VALUES block size on Q3 (delayed subquery)\n");
    let mut table = Table::new("ablation_block_size", &["block size", "ms", "requests"]);
    for block_size in [10usize, 50, 100, 500] {
        let engine = Lusail::new(LusailConfig {
            block_size,
            ..Default::default()
        });
        let r = run_averaged(&engine, &w.federation, &w.query("Q3").query, 3);
        let mut cells = vec![block_size.to_string()];
        cells.extend(ms_reqs(&r));
        table.row(cells);
    }
    table.finish();

    println!("\n4 — probe cache on/off, Q4 run twice\n");
    let header = ["config", "run1 reqs", "run2 reqs", "run2 ms"];
    let mut table = Table::new("ablation_cache", &header);
    for (name, cached) in [("cache on", true), ("cache off", false)] {
        let engine = Lusail::default();
        let r1 = crate::run(&engine, &w.federation, &w.query("Q4").query);
        if !cached {
            engine.clear_caches();
        }
        let r2 = crate::run(&engine, &w.federation, &w.query("Q4").query);
        table.row(vec![
            name.to_string(),
            fmt_count(r1.requests.total_requests()),
            fmt_count(r2.requests.total_requests()),
            r2.cell(),
        ]);
    }
    table.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// EXPERIMENTS.md names each figure's regenerating command in its
    /// heading, as `## Title (`name`) ✅`.
    #[test]
    fn figure_names_are_experiments_md_headings() {
        let headings: Vec<&str> = include_str!("../../../EXPERIMENTS.md")
            .lines()
            .filter(|l| l.starts_with("## "))
            .filter_map(|l| Some(l.split_once("(`")?.1.split_once("`)")?.0))
            .collect();
        assert_eq!(headings, names());
    }
}
