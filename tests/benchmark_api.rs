//! What the frozen benchmark (`benchmark/`, its own workspace, never built
//! by `cargo test`) does with `SolutionSet` and its `rows` field, and with
//! the storage backends, mirrored expression for expression: a change that
//! breaks one of these breaks the benchmark's build, and should fail here
//! first.

use lusail_benchdata::common::Rng;
use lusail_core::join::par_hash_join;
use lusail_rdf::{Dictionary, Term, TermId, Triple};
use lusail_server::http::render_solutions;
use lusail_sparql::{parse_query, Query, SolutionSet};
use lusail_store::{ColumnStore, EndpointStats, StorageBackend, TripleStore};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;

/// `micro.rs::join_inputs`: `rows` collected from `vec![…]` rows inside a
/// `SolutionSet { vars, rows }` literal.
fn join_inputs() -> (SolutionSet, SolutionSet) {
    const ROWS: u32 = 500;
    let keys: Vec<u32> = (0..ROWS).rev().collect();
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

#[test]
fn micro_join_probes() {
    let (a, b) = join_inputs();
    assert_eq!(a.hash_join(&b).len(), 500);
    for threads in [1, 2] {
        assert_eq!(par_hash_join(&a, &b, 2, threads, 0).len(), 500);
    }
}

fn oracle() -> TripleStore {
    let mut store = TripleStore::new(Dictionary::shared());
    for i in 0..150 {
        store.insert_terms(
            &Term::iri(format!("http://x/s{i}")),
            &Term::iri("http://x/p"),
            &Term::lit(format!("v{}", i % 10)),
        );
    }
    store
}

/// `micro.rs::store`: the store probes on both backends — a fresh insert
/// pass, the columnar build, the statistics build, every scan shape driven
/// through `scan_with`, and BGP evaluation through `&dyn StorageBackend`.
#[test]
fn micro_store_probes() {
    let oracle = oracle();
    let btree = &oracle;
    let triples: Vec<Triple> = btree
        .triples_spo()
        .map(|(s, p, o)| Triple::new(s, p, o))
        .collect();
    let mut fresh = TripleStore::new(Arc::clone(btree.dict()));
    for &t in &triples {
        fresh.insert(t);
    }
    assert_eq!(black_box(fresh.len()), 150);
    assert_eq!(black_box(ColumnStore::from_store(btree).len()), 150);
    let stats = black_box(EndpointStats::build(btree));
    assert_eq!(stats.total_triples, 150);

    let columns = ColumnStore::from_store(btree);
    let bgp = parse_query("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }", btree.dict()).unwrap();
    let seed = 1u64;
    let mut rng = Rng::new(seed ^ 0x5CA2);
    let samples: Vec<Triple> = (0..64).map(|_| triples[rng.below(triples.len())]).collect();
    let backends: [(&str, &dyn StorageBackend); 2] = [("btree", btree), ("columns", &columns)];
    for (name, backend) in backends {
        for shape in ["s__", "_p_", "__o", "sp_", "s_o", "_po", "spo", "___"] {
            let bound = |pos: usize, id: TermId| (shape.as_bytes()[pos] != b'_').then_some(id);
            let probes: &[Triple] = if shape == "___" {
                &samples[..1]
            } else {
                &samples
            };
            let mut rows = 0u64;
            for t in probes {
                backend.scan_with(bound(0, t.s), bound(1, t.p), bound(2, t.o), &mut |hit| {
                    black_box(hit);
                    rows += 1;
                    true
                });
            }
            // Every probe is a stored triple, so it matches at least itself.
            assert!(rows >= probes.len() as u64, "{name} {shape}");
        }
        assert_eq!(lusail_store::eval::evaluate(backend, &bgp).len(), 150);
        assert!(backend.resident_bytes() as f64 / backend.len() as f64 > 0.0);
    }
}

/// `check.rs::Expected`.
struct Expected {
    canon: SolutionSet,
    rows: usize,
    limited: bool,
}

impl Expected {
    fn from_oracle(oracle: &TripleStore, query: &Query) -> Expected {
        let mut unlimited = query.clone();
        unlimited.limit = None;
        let canon = lusail_store::eval::evaluate(oracle, &unlimited).canonicalize();
        let rows = query.limit.map_or(canon.len(), |l| l.min(canon.len()));
        Expected {
            canon,
            rows,
            limited: query.limit.is_some(),
        }
    }

    fn full(&self, got: &SolutionSet, complete: bool) -> bool {
        if !(complete && got.len() == self.rows) {
            return false;
        }
        let got = got.canonicalize();
        if got.vars != self.canon.vars {
            return false;
        }
        if self.limited {
            got.rows
                .iter()
                .all(|row| self.canon.rows.binary_search(row).is_ok())
        } else {
            got == self.canon
        }
    }

    fn corrupt(&mut self) {
        let row = self.canon.rows.first_mut().expect("a non-empty answer");
        row[0] = None;
    }
}

#[test]
fn check_full_and_corrupt() {
    let oracle = oracle();
    for text in [
        "SELECT ?s ?o WHERE { ?s <http://x/p> ?o }",
        "SELECT ?s ?o WHERE { ?s <http://x/p> ?o } LIMIT 7",
    ] {
        let query = parse_query(text, oracle.dict()).unwrap();
        let answer = lusail_store::eval::evaluate(&oracle, &query);
        let mut expected = Expected::from_oracle(&oracle, &query);
        assert!(expected.full(&answer, true), "{text}");
        assert!(!expected.full(&answer, false), "{text}");
        let mut clone = answer.clone();
        clone.truncate(3);
        assert!(!expected.full(&clone, true), "{text}");
        // A wrong oracle must show: corrupt the one row a LIMIT 7 answer
        // over sorted subjects is sure to contain.
        expected.corrupt();
        let mut first = answer.canonicalize();
        first.truncate(expected.rows);
        assert!(!expected.full(&first, true), "{text}");
    }
}

/// `check.rs::ExpectedBody::from_oracle`: rows of cells rendered the way
/// `render_solutions` renders the first hundred.
#[test]
fn check_expected_body_lines() {
    let oracle = oracle();
    let dict = oracle.dict();
    let query = parse_query("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }", dict).unwrap();
    let answer = lusail_store::eval::evaluate(&oracle, &query);
    let lines: HashSet<String> = answer
        .rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|cell| match cell {
                    Some(id) => dict.decode(*id).to_string(),
                    None => "UNDEF".to_string(),
                })
                .collect::<Vec<_>>()
                .join("\t")
        })
        .collect();
    let body = render_solutions(&answer, dict);
    let mut shown = body.lines();
    assert_eq!(shown.next(), Some(answer.vars.join("\t").as_str()));
    let mut total = 0;
    for line in shown {
        match line
            .strip_prefix("… (")
            .and_then(|rest| rest.strip_suffix(" more rows)"))
        {
            Some(more) => total += more.parse::<usize>().unwrap(),
            None => {
                assert!(lines.contains(line), "{line}");
                total += 1;
            }
        }
    }
    assert_eq!(total, answer.len());
    assert_eq!(total, 150);
}
