//! Life-science federation: the QFed-style setting (DrugBank, Diseasome,
//! Sider, DailyMed) queried by all four engines — Lusail plus the three
//! baselines, including the index-based ones with their preprocessing
//! pass.
//!
//! ```sh
//! cargo run --release --example life_science_federation
//! ```

use lusail_baselines::{FedX, HibiscusIndex, Splendid, VoidIndex};
use lusail_benchdata::qfed::{generate, QfedConfig};
use lusail_endpoint::ExecOptions;
use lusail_endpoint::FederatedEngine;
use lusail_repro::lusail::Lusail;
use std::time::Instant;

fn main() {
    let w = generate(&QfedConfig::default());
    println!(
        "QFed-style federation: {} endpoints, {} triples total",
        w.federation.len(),
        w.federation.total_triples()
    );

    // Index-based baselines preprocess the endpoints first; the paper
    // times this pass (25 s for the real QFed) to argue for index-free
    // designs.
    let t0 = Instant::now();
    let void = VoidIndex::build(&w.endpoint_refs());
    println!(
        "SPLENDID VOID preprocessing: {:.1} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );
    let t0 = Instant::now();
    let hib_index = HibiscusIndex::build(&w.endpoint_refs());
    println!(
        "HiBISCuS authority preprocessing: {:.1} ms\n",
        t0.elapsed().as_secs_f64() * 1e3
    );

    let engines: Vec<Box<dyn FederatedEngine>> = vec![
        Box::new(Lusail::default()),
        Box::new(FedX::default()),
        Box::new(FedX::hibiscus(hib_index)),
        Box::new(Splendid::new(void)),
    ];

    println!(
        "{:<8} {:>12} {:>14} {:>12} {:>8}",
        "query", "engine", "time(ms)", "requests", "rows"
    );
    for nq in &w.queries {
        let mut reference: Option<lusail_sparql::SolutionSet> = None;
        for engine in &engines {
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
                    engine.engine_name(),
                    nq.name
                ),
            }
            println!(
                "{:<8} {:>12} {:>14.1} {:>12} {:>8}",
                nq.name,
                engine.engine_name(),
                ms,
                reqs,
                sols.len()
            );
        }
        println!();
    }
}
