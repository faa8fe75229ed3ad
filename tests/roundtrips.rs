//! Randomized-but-deterministic tests for the serialization boundaries:
//! N-Triples documents (the CLI's on-disk format) and federated ORDER BY
//! semantics. Each test drives a seeded SplitMix64 generator through a
//! fixed number of cases, so failures are reproducible from the case
//! index alone. The default per-test seeds can be overridden through
//! `LUSAIL_TEST_SEED` (decimal or `0x`-hex).

use lusail_benchdata::common::Rng;
use lusail_core::Lusail;
use lusail_endpoint::ExecOptions;
use lusail_endpoint::{FederatedEngine, Federation, LocalEndpoint};
use lusail_rdf::{ntriples, Dictionary, Term, Triple};
use lusail_sparql::parse_query;
use lusail_store::TripleStore;
use lusail_testkit::seed_from_env;
use std::sync::Arc;

fn rand_ascii(rng: &mut Rng, max_len: usize) -> String {
    let len = rng.below(max_len + 1);
    (0..len)
        .map(|_| (b' ' + rng.below((b'~' - b' ' + 1) as usize) as u8) as char)
        .collect()
}

fn rand_word(rng: &mut Rng, min_len: usize, max_len: usize) -> String {
    let len = min_len + rng.below(max_len - min_len + 1);
    (0..len)
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .collect()
}

/// Random RDF term spanning all kinds, including characters that need
/// escaping.
fn rand_object(rng: &mut Rng) -> Term {
    match rng.below(7) {
        0 => Term::iri(format!("http://x.org/{}", rand_word(rng, 1, 8))),
        // Literals with escapes, unicode, and tabs.
        1 => Term::lit(rand_ascii(rng, 12)),
        2 => Term::lit("quote\" back\\slash \n tab\t"),
        3 => Term::lit("ünïcødé ← →"),
        4 => Term::lang_lit(rand_word(rng, 1, 6), rand_word(rng, 2, 2)),
        5 => Term::int(rng.below(2000) as i64 - 1000),
        _ => Term::Blank(rand_word(rng, 1, 6)),
    }
}

fn rand_subject(rng: &mut Rng) -> Term {
    if rng.chance(0.5) {
        Term::iri(format!("http://x.org/{}", rand_word(rng, 1, 8)))
    } else {
        Term::Blank(rand_word(rng, 1, 6))
    }
}

fn rand_predicate(rng: &mut Rng) -> Term {
    Term::iri(format!("http://p.org/{}", rand_word(rng, 1, 8)))
}

/// serialize → parse is the identity on triple sets, for every term kind
/// including escaped literals.
#[test]
fn ntriples_document_roundtrip() {
    let mut rng = Rng::new(seed_from_env(0xD0C5));
    for case in 0..200 {
        let dict = Dictionary::shared();
        let n = rng.below(40);
        let encoded: Vec<Triple> = (0..n)
            .map(|_| {
                let (s, p, o) = (rand_subject(&mut rng), rand_predicate(&mut rng), {
                    rand_object(&mut rng)
                });
                Triple::new(dict.encode(&s), dict.encode(&p), dict.encode(&o))
            })
            .collect();
        let text = ntriples::serialize(&encoded, &dict);
        let reparsed = ntriples::parse_document(&text, &dict)
            .unwrap_or_else(|e| panic!("case {case}: reparse failed: {e}\n{text}"));
        let a: std::collections::BTreeSet<_> = encoded.into_iter().collect();
        let b: std::collections::BTreeSet<_> = reparsed.into_iter().collect();
        assert_eq!(a, b, "case {case}");
    }
}

/// Federated ORDER BY returns exactly the centralized ordering (by value,
/// for integer keys) however the data is spread.
#[test]
fn federated_order_by_matches_centralized() {
    let mut rng = Rng::new(seed_from_env(0x02DE2));
    for case in 0..60 {
        let values: Vec<i64> = (0..1 + rng.below(24))
            .map(|_| rng.below(100) as i64 - 50)
            .collect();
        let endpoints = 1 + rng.below(3);
        let dict = Dictionary::shared();
        let mut oracle = TripleStore::new(Arc::clone(&dict));
        let mut stores: Vec<TripleStore> = (0..endpoints)
            .map(|_| TripleStore::new(Arc::clone(&dict)))
            .collect();
        let p = Term::iri("http://x/value");
        for (i, v) in values.iter().enumerate() {
            let s = Term::iri(format!("http://x/e{i}"));
            oracle.insert_terms(&s, &p, &Term::int(*v));
            stores[i % endpoints].insert_terms(&s, &p, &Term::int(*v));
        }
        let mut fed = Federation::new(Arc::clone(&dict));
        for (i, st) in stores.into_iter().enumerate() {
            fed.add(Arc::new(LocalEndpoint::new(format!("ep{i}"), st)));
        }
        let q = parse_query(
            "SELECT ?v WHERE { ?s <http://x/value> ?v } ORDER BY ?v",
            &dict,
        )
        .unwrap();
        let sols = Lusail::default()
            .run_with(&fed, &q, &ExecOptions::default())
            .unwrap()
            .solutions;
        let got: Vec<i64> = (0..sols.len())
            .map(|i| {
                dict.decode(sols.get(i, "v").unwrap())
                    .lexical()
                    .parse()
                    .unwrap()
            })
            .collect();
        let mut want = values.clone();
        want.sort_unstable();
        assert_eq!(got, want, "case {case}");
    }
}

/// SolutionSet::append over random shards then canonicalize equals the
/// canonicalized whole (the concatenation path of the disjoint fast
/// path).
#[test]
fn append_of_shards_equals_whole() {
    use lusail_rdf::TermId;
    use lusail_sparql::SolutionSet;
    let mut rng = Rng::new(seed_from_env(0x5A2D5));
    for case in 0..200 {
        let n = rng.below(30);
        let rows: Vec<Vec<Option<TermId>>> = (0..n)
            .map(|_| {
                (0..2)
                    .map(|_| {
                        if rng.chance(0.2) {
                            None
                        } else {
                            Some(TermId(rng.below(10) as u32))
                        }
                    })
                    .collect()
            })
            .collect();
        let all = SolutionSet {
            vars: vec!["a".into(), "b".into()],
            rows: rows.iter().cloned().collect(),
        };
        let cut = rng.below(30).min(rows.len());
        let mut left = SolutionSet {
            vars: all.vars.clone(),
            rows: rows[..cut].iter().cloned().collect(),
        };
        let right = SolutionSet {
            vars: all.vars.clone(),
            rows: rows[cut..].iter().cloned().collect(),
        };
        left.append(right);
        assert_eq!(left.canonicalize(), all.canonicalize(), "case {case}");
    }
}
