//! Life-science federation: the QFed-style setting (DrugBank, Diseasome,
//! Sider, DailyMed) queried by all four engines — Lusail plus the three
//! baselines, including the index-based ones with their preprocessing
//! pass.
//!
//! ```sh
//! cargo run --release --example life_science_federation
//! ```

use lusail_baselines::EngineKind;
use lusail_benchdata::qfed::{generate, QfedConfig};
use lusail_endpoint::{ExecOptions, FederatedEngine};
use lusail_repro::lusail::LusailConfig;
use std::time::Instant;

fn main() {
    let w = generate(&QfedConfig::default());
    println!(
        "QFed-style federation: {} endpoints, {} triples total",
        w.federation.len(),
        w.federation.total_triples()
    );

    // Index-based baselines preprocess the endpoints while they are
    // built; the paper times this pass (25 s for the real QFed) to argue
    // for index-free designs.
    let refs = w.endpoint_refs();
    let engines: Vec<(EngineKind, Box<dyn FederatedEngine>)> = EngineKind::ALL
        .map(|kind| {
            let t0 = Instant::now();
            let engine = kind.build(&refs, LusailConfig::default());
            println!(
                "{} preprocessing: {:.1} ms",
                kind.name(),
                t0.elapsed().as_secs_f64() * 1e3
            );
            (kind, engine)
        })
        .into();
    println!();

    println!(
        "{:<8} {:>12} {:>14} {:>12} {:>8}",
        "query", "engine", "time(ms)", "requests", "rows"
    );
    for nq in &w.queries {
        let mut reference: Option<lusail_sparql::SolutionSet> = None;
        for (kind, engine) in &engines {
            let before = w.federation.stats_snapshot();
            let t0 = Instant::now();
            let sols = engine
                .run_with(&w.federation, &nq.query, &ExecOptions::default())
                .unwrap()
                .solutions;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let reqs = w
                .federation
                .stats_snapshot()
                .since(&before)
                .total_requests();
            match &reference {
                None => reference = Some(sols.canonicalize()),
                Some(r) => assert_eq!(
                    *r,
                    sols.canonicalize(),
                    "{} disagrees on {}",
                    kind.name(),
                    nq.name
                ),
            }
            println!(
                "{:<8} {:>12} {:>14.1} {:>12} {:>8}",
                nq.name,
                kind.name(),
                ms,
                reqs,
                sols.len()
            );
        }
        println!();
    }
}
