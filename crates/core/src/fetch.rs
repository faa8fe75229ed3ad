//! The one fetch path: dispatch → failover → lose → concatenate.
//!
//! Everything that carries result data — SAPE's three phases (the disjoint
//! fast path, the concurrent phase, bound and unbound delayed subqueries)
//! and the three baselines' unbound and `VALUES`-bound retrievals — is a
//! list of `(endpoint, SELECT)` requests answered by [`fetch`] under one
//! rule, the data-path twin of the probe path's:
//!
//! 1. the list is **dispatched** as one batch of the request handler (one
//!    [`TraceEvent::Dispatch`]): requests to one endpoint run serially in
//!    list order, distinct endpoints in parallel up to the thread budget;
//! 2. a request that exhausts its retries **fails over** to the next
//!    healthy member of its endpoint's replica group;
//! 3. when every member has failed the partition is **lost**: the answer
//!    is `None`, recorded in [`Degradation`] — the only thing that makes a
//!    query's outcome incomplete, for all four engines;
//! 4. answers come back grouped by endpoint in first-submission order, the
//!    order [`concat()`] **concatenates** them in, so output bytes never
//!    depend on thread scheduling.
//!
//! Callers only build request lists and map answers back.
//!
//! [`TraceEvent::Dispatch`]: lusail_endpoint::TraceEvent::Dispatch
//! [`Degradation`]: crate::exec::Degradation

use crate::exec::Net;
use lusail_endpoint::{EndpointId, Federation};
use lusail_sparql::ast::Query;
use lusail_sparql::SolutionSet;

/// Answers every request by the module's rule. Each answer carries the
/// index of its request in `requests`; a request borrows its query, so one
/// query serves every endpoint it is sent to.
pub fn fetch(
    fed: &Federation,
    net: &Net,
    requests: &[(EndpointId, &Query)],
) -> Vec<(usize, Option<SolutionSet>)> {
    let tasks = requests.iter().enumerate().map(|(r, &(ep, _))| (ep, r));
    let answers = net.handler.run(fed, tasks.collect(), |ep, _, &r| {
        match net.client.select_failover(fed, ep, requests[r].1) {
            Ok((_, rows)) => Some(rows),
            Err(_) => {
                net.degradation.record_data_loss();
                None
            }
        }
    });
    answers.into_iter().map(|(_, r, part)| (r, part)).collect()
}

/// The concatenation of the partitions that arrived, over `vars`.
pub fn concat(
    vars: Vec<String>,
    parts: impl IntoIterator<Item = Option<SolutionSet>>,
) -> SolutionSet {
    let mut out = SolutionSet::empty(vars);
    for part in parts.into_iter().flatten() {
        out.append(part);
    }
    out
}

/// One query sent to each of `sources`, concatenated.
pub fn fetch_from(
    fed: &Federation,
    net: &Net,
    query: &Query,
    sources: &[EndpointId],
) -> SolutionSet {
    let requests: Vec<(EndpointId, &Query)> = sources.iter().map(|&ep| (ep, query)).collect();
    let parts = fetch(fed, net, &requests).into_iter().map(|(_, part)| part);
    concat(query.output_vars(), parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_endpoint::{
        ExecOptions, FaultProfile, FlakyEndpoint, LocalEndpoint, RequestPolicy, SystemClock,
    };
    use lusail_rdf::{Dictionary, Term};
    use lusail_sparql::parse_query;
    use lusail_store::TripleStore;
    use std::sync::Arc;

    /// An endpoint holding `(subject p subject)`, dead when `dead`.
    fn endpoint(dict: &Arc<Dictionary>, subject: &str, dead: bool) -> lusail_endpoint::EndpointRef {
        let x = |l: &str| Term::iri(format!("http://x/{l}"));
        let mut store = TripleStore::new(Arc::clone(dict));
        store.insert_terms(&x(subject), &x("p"), &x(subject));
        let name = format!("{subject}{}", if dead { "-dead" } else { "" });
        let local = Arc::new(LocalEndpoint::new(name, store));
        if dead {
            Arc::new(FlakyEndpoint::new(local, FaultProfile::dead()))
        } else {
            local
        }
    }

    fn net(threads: usize) -> Net {
        let opts = ExecOptions::default().with_threads(threads);
        Net::for_query(
            RequestPolicy::default(),
            Arc::new(SystemClock::default()),
            &opts,
        )
    }

    #[test]
    fn every_site_answers_fails_over_and_loses_the_same_way() {
        let dict = Dictionary::shared();
        let so = parse_query("SELECT ?s ?o WHERE { ?s <http://x/p> ?o }", &dict).unwrap();
        let s = parse_query("SELECT ?s WHERE { ?s <http://x/p> ?o }", &dict).unwrap();
        let subject = |l: &str| dict.lookup(&Term::iri(format!("http://x/{l}")));

        // Endpoint 0 is healthy, 1 is dead with the healthy replica 3, 2 is
        // dead with nobody to fail over to.
        let mut fed = Federation::new(Arc::clone(&dict));
        fed.add(endpoint(&dict, "a", false));
        let dead_primary = fed.add(endpoint(&dict, "b", true));
        fed.add(endpoint(&dict, "c", true));
        fed.add_replica(dead_primary, endpoint(&dict, "b", false));

        for threads in [1, 4] {
            // `Ok` is `Some`, and failover to a healthy replica loses nothing.
            let net = net(threads);
            let requests = [(0, &so), (1, &so), (0, &s), (1, &s)];
            let answers = fetch(&fed, &net, &requests);
            // Grouped by endpoint in first-submission order, each
            // endpoint's requests in list order.
            let order: Vec<usize> = answers.iter().map(|(r, _)| *r).collect();
            assert_eq!(order, [0, 2, 1, 3], "threads {threads}");
            for (r, part) in &answers {
                let part = part.as_ref().expect("answered");
                assert_eq!(part.vars, requests[*r].1.projection);
                let want = if requests[*r].0 == 0 { "a" } else { "b" };
                assert_eq!(part.rows[0][0], subject(want));
            }
            assert!(!net.degradation.data_loss(), "threads {threads}");

            // Dead with no replica: `None`, recorded as data loss, and the
            // partitions that did arrive still concatenate.
            let both = fetch_from(&fed, &net, &so, &[2, 0]);
            assert!(net.degradation.data_loss(), "threads {threads}");
            assert_eq!((both.vars.as_slice(), both.len()), (&so.projection[..], 1));
            let lost: Vec<_> = fetch(&fed, &net, &[(2, &s)]);
            assert_eq!(lost, [(0, None)]);
        }
    }
}
