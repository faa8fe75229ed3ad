//! EXPLAIN ANALYZE golden under a manual clock at `--threads 4`: the
//! committed snapshot `tests/golden/explain_analyze_lubm_q4.txt` was
//! produced by the sequential CLI path (`scripts/verify.sh` re-checks it
//! at every verify run), and the parallel executor must reproduce it
//! byte for byte — worker dispatch may not change a single counter,
//! decomposition line, join step, or phase timing in the report.
//!
//! The test replays the CLI's exact construction path: generate the LUBM
//! size-2 workload, round-trip every endpoint through its N-Triples
//! serialization into a fresh shared dictionary (what `lusail-cli query
//! --endpoint F.nt` does when loading files), rebuild the federation
//! under the endpoint names, and run Q4 with `ManualClock` so all phase
//! durations render as 0ns.

use lusail_benchdata::lubm::{self, LubmConfig};
use lusail_endpoint::{
    ExecOptions, Federation, LocalEndpoint, ManualClock, SparqlEndpoint, TraceEvent, TraceSink,
};
use lusail_rdf::{ntriples, Dictionary};
use lusail_repro::lusail::{Lusail, LusailConfig};
use lusail_sparql::parse_query;
use lusail_store::TripleStore;
use std::sync::Arc;

#[test]
fn explain_analyze_at_four_threads_matches_the_committed_golden() {
    let w = lubm::generate(&LubmConfig::new(2));

    // Round-trip every endpoint through N-Triples into a fresh shared
    // dictionary, exactly as the CLI does when loading `.nt` files.
    let dict = Dictionary::shared();
    let mut fed = Federation::new(Arc::clone(&dict));
    let mut loaded_lines = String::new();
    for ep in &w.endpoints {
        let mut triples = Vec::with_capacity(ep.triple_count());
        ep.store().scan(None, None, None, |t| {
            triples.push(t);
            true
        });
        let text = ntriples::serialize(&triples, &w.dict);
        let parsed = ntriples::parse_document(&text, &dict).expect("round-trip parses");
        let mut store = TripleStore::new(Arc::clone(&dict));
        store.extend(parsed);
        let name = ep.name().replace([' ', '/'], "_");
        loaded_lines.push_str(&format!(
            "loaded endpoint {name}: {} triples\n",
            store.len()
        ));
        fed.add(Arc::new(LocalEndpoint::new(name, store)));
    }
    // The CLI follows the loader lines with one `storage:` line summing
    // the backends' self-reported resident bytes.
    let resident: u64 = fed.iter().filter_map(|(_, ep)| ep.resident_bytes()).sum();
    let n_endpoints = fed.iter().count();
    loaded_lines.push_str(&format!(
        "storage: backend btree, {resident} B resident across \
         {n_endpoints} endpoint(s)\n"
    ));

    let q4 = w
        .queries
        .iter()
        .find(|nq| nq.name == "Q4")
        .expect("LUBM workload has Q4");
    let query = parse_query(&q4.text, &dict).expect("Q4 parses");

    let engine = Lusail::new(LusailConfig::default()).with_clock(ManualClock::new());
    let opts = ExecOptions::default().with_threads(4);
    let report = engine
        .explain_analyze_with(&fed, &query, &opts)
        .expect("LUBM federation is non-empty");

    // The CLI prints the loader lines, then `println!("\n{report}")`.
    let got = format!("{loaded_lines}\n{report}\n");
    let golden = include_str!("golden/explain_analyze_lubm_q4.txt");
    assert_eq!(
        got, golden,
        "EXPLAIN ANALYZE at threads=4 diverged from the sequential golden"
    );
}

/// Planning waits for two waves on LUBM Q4: source selection's coalesced
/// COUNTs, then one wave of check queries for all of its join variables.
/// `plan()` emits its first `SubqueryPlanned` after its last probe, so
/// every `Dispatch` before that event is a planning wave.
#[test]
fn lubm_q4_plans_in_two_waves() {
    let w = lubm::generate(&LubmConfig::new(2));
    let sink = TraceSink::enabled();
    let opts = ExecOptions::default().with_trace(sink.clone());
    Lusail::default()
        .execute_with(&w.federation, &w.query("Q4").query, &opts)
        .unwrap();
    let waves = (sink.events().iter())
        .take_while(|ev| !matches!(ev, TraceEvent::SubqueryPlanned { .. }))
        .filter(|ev| matches!(ev, TraceEvent::Dispatch { .. }))
        .count();
    assert_eq!(waves, 2);
}
