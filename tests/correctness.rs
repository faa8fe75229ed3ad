//! Cross-engine correctness: every federated engine must return exactly
//! the solutions of evaluating the query centrally over the union of all
//! endpoint graphs (the oracle), for every benchmark workload.
//!
//! This is the load-bearing guarantee behind the paper's §IV-C "Result
//! Completeness" argument: locality-aware decomposition must never miss
//! rows that require traversing an interlink.

use lusail_baselines::EngineKind;
use lusail_benchdata::{bio2rdf, lrb, lubm, qfed, Workload};
use lusail_core::{Lusail, LusailConfig};
use lusail_endpoint::{ExecOptions, FederatedEngine};

fn engines_for(w: &Workload) -> Vec<(EngineKind, Box<dyn FederatedEngine>)> {
    let refs = w.endpoint_refs();
    let build = |k: EngineKind| k.build(&refs, LusailConfig::default());
    EngineKind::ALL.map(|k| (k, build(k))).into()
}

fn check_workload(w: &Workload) {
    let engines = engines_for(w);
    for nq in &w.queries {
        let expected = lusail_store::eval::evaluate(&w.oracle, &nq.query).canonicalize();
        for (kind, engine) in &engines {
            let got = engine
                .run_with(&w.federation, &nq.query, &ExecOptions::default())
                .unwrap()
                .solutions
                .canonicalize();
            // LIMIT makes the result set nondeterministic (any k rows are
            // valid); check size, and containment in the *unlimited*
            // oracle result.
            if let Some(limit) = nq.query.limit {
                let mut unlimited_q = nq.query.clone();
                unlimited_q.limit = None;
                let unlimited =
                    lusail_store::eval::evaluate(&w.oracle, &unlimited_q).canonicalize();
                assert_eq!(
                    got.len(),
                    unlimited.len().min(limit),
                    "{} row count wrong on {}",
                    kind.name(),
                    nq.name
                );
                for row in got.rows.iter() {
                    assert!(
                        unlimited.rows.iter().any(|r| r == row),
                        "{} produced a row not in the oracle for {}",
                        kind.name(),
                        nq.name
                    );
                }
            } else {
                assert_eq!(
                    got,
                    expected,
                    "{} differs from oracle on {}",
                    kind.name(),
                    nq.name
                );
            }
        }
    }
}

#[test]
fn lubm_all_engines_match_oracle() {
    check_workload(&lubm::generate(&lubm::LubmConfig::new(3)));
}

#[test]
fn lubm_two_endpoints_all_engines_match_oracle() {
    check_workload(&lubm::generate(&lubm::LubmConfig::new(2)));
}

#[test]
fn qfed_all_engines_match_oracle() {
    check_workload(&qfed::generate(&qfed::QfedConfig {
        drugs: 120,
        diseases: 40,
        ..Default::default()
    }));
}

#[test]
fn lrb_all_engines_match_oracle() {
    check_workload(&lrb::generate(&lrb::LrbConfig {
        scale: 0.4,
        ..Default::default()
    }));
}

#[test]
fn bio2rdf_all_engines_match_oracle() {
    check_workload(&bio2rdf::generate(&bio2rdf::Bio2RdfConfig {
        genes: 80,
        drugs: 60,
        ..Default::default()
    }));
}

#[test]
fn lusail_matches_oracle_with_every_delay_policy() {
    use lusail_core::DelayPolicy;
    let w = lubm::generate(&lubm::LubmConfig::new(3));
    for policy in [
        DelayPolicy::Mu,
        DelayPolicy::MuSigma,
        DelayPolicy::Mu2Sigma,
        DelayPolicy::OutliersOnly,
    ] {
        let engine = Lusail::new(LusailConfig {
            delay_policy: policy,
            ..Default::default()
        });
        for nq in &w.queries {
            let expected = lusail_store::eval::evaluate(&w.oracle, &nq.query).canonicalize();
            let got = engine
                .run_with(&w.federation, &nq.query, &ExecOptions::default())
                .unwrap()
                .solutions
                .canonicalize();
            assert_eq!(got, expected, "policy {policy:?} differs on {}", nq.name);
        }
    }
}

#[test]
fn lusail_matches_oracle_without_lade_and_without_cache() {
    let w = qfed::generate(&qfed::QfedConfig {
        drugs: 100,
        diseases: 30,
        ..Default::default()
    });
    for (disable_lade, cached) in [(true, true), (false, false), (true, false)] {
        let engine = Lusail::new(LusailConfig {
            disable_lade,
            ..Default::default()
        });
        for nq in &w.queries {
            if !cached {
                engine.clear_caches();
            }
            let expected = lusail_store::eval::evaluate(&w.oracle, &nq.query).canonicalize();
            let got = engine
                .run_with(&w.federation, &nq.query, &ExecOptions::default())
                .unwrap()
                .solutions
                .canonicalize();
            assert_eq!(
                got, expected,
                "disable_lade={disable_lade} cached={cached} differs on {}",
                nq.name
            );
        }
    }
}

#[test]
fn lusail_matches_oracle_with_tiny_blocks() {
    let w = lubm::generate(&lubm::LubmConfig::new(4));
    let engine = Lusail::new(LusailConfig {
        block_size: 3,
        ..Default::default()
    });
    for nq in &w.queries {
        let expected = lusail_store::eval::evaluate(&w.oracle, &nq.query).canonicalize();
        let got = engine
            .run_with(&w.federation, &nq.query, &ExecOptions::default())
            .unwrap()
            .solutions
            .canonicalize();
        assert_eq!(got, expected, "block_size=3 differs on {}", nq.name);
    }
}
