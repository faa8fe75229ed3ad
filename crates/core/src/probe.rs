//! The one probe path: memo → statistics → wire → degrade.
//!
//! Planning lives on lightweight probes — source selection's per-pattern
//! `ASK`s (§III, the baselines) or `COUNT`s (Lusail, whose answer is
//! relevance and SAPE's cardinality at once, §V-A) and LADE's check
//! queries (Algorithm 1) — and every kind is answered by [`resolve`] under
//! one rule:
//!
//! 1. the **memo** answers first (a hit never reaches the wire);
//! 2. on a miss, the endpoint's offline **statistics** answer when they
//!    are attached *and* conclusive — exact by construction, so nothing
//!    downstream changes. The answer is traced as
//!    [`TraceEvent::StatsAnswered`] and *not* written into the memo: the
//!    memo is invalidated per endpoint on death and statistics
//!    independently so, and mixing the two would blur that audit trail;
//! 3. what is left goes to the **wire**, each endpoint's probes in list
//!    order and a probe listed twice only once, through the request handler
//!    and the resilient client; an `Ok` answer is memoized. The transport
//!    is the kind's: Lusail's `COUNT`s and check queries travel as **one
//!    request** per endpoint (below); the baselines' `ASK`s one request
//!    each, as systems that send one `ASK` per (pattern, endpoint) do;
//! 4. a probe whose endpoint fails (after retries) **degrades** to the
//!    kind's conservative answer, counted in [`Degradation`] and never
//!    memoized — a wrong guess may cost extra requests, never answers. A
//!    failed coalesced request degrades each of its members that way.
//!
//! What differs per kind is the three-row table of [`Kind`] impls below. A
//! probe is described once, by its [`Member`], which its kind's transport
//! encodes.
//!
//! # The coalesced request
//!
//! Every probe is a number at heart — does a group match (1 or 0), how many
//! triples match a pattern — so an endpoint's probes fit one `SELECT` that
//! returns one row, built by [`coalesced`]: an existence [`Member`] is a
//! projected `(EXISTS { … } AS ?aN)`, a counting one a `UNION` branch of its
//! own variables under `(COUNT(?sN) AS ?cN)`:
//!
//! ```text
//! SELECT (EXISTS { ?x <p> ?y } AS ?a0) (EXISTS { ?x <q> ?z FILTER NOT EXISTS { … } } AS ?a1) WHERE { }
//! SELECT (COUNT(?s0) AS ?c0) (COUNT(?s1) AS ?c1) WHERE { { ?s0 <p> ?o0 } UNION { ?s1 <q> ?o1 } }
//! ```
//!
//! Both are SPARQL 1.1 that `lusail-sparql` writes, parses and charges by
//! length, and the store evaluates member by member on the sinks the
//! stand-alone probes use (`lusail_store::eval`), so the endpoint scans the
//! same rows either way. The request is traced and retried as one, under
//! the kind's own label.
//!
//! [`Degradation`]: crate::exec::Degradation

use crate::cache::{pattern_key, PatternKey, ProbeCache};
use crate::exec::Net;
use crate::gjv::{stats_check_answer, CheckKey, CheckQuery};
use lusail_endpoint::{
    EndpointError, EndpointId, EndpointRef, Federation, RequestKind, TraceEvent,
};
use lusail_rdf::Dictionary;
use lusail_sparql::ast::{
    AggFunc, Aggregate, ExistsTest, GroupPattern, PatternTerm, Query, TriplePattern,
};
use lusail_store::EndpointStats;
use std::hash::Hash;
use std::sync::atomic::Ordering;

/// One row of the probe table: how a probe kind is keyed, answered from
/// statistics, asked on the wire, and degraded when its endpoint fails.
pub(crate) trait Kind {
    /// What the caller asks about.
    type Probe: Sync;
    /// The memo key of a probe.
    type Key: Clone + Eq + Hash + Send;
    /// The probe's answer.
    type Answer: Copy + Send;
    /// The label wire requests and `StatsAnswered` events carry.
    const REQUEST: RequestKind;
    /// The transport: an endpoint's probes as one [`coalesced`] `SELECT`,
    /// or (an existence kind only) each as an `ASK` of its own.
    const COALESCED: bool;

    fn key(probe: &Self::Probe) -> Self::Key;
    /// `Some` only when the statistics are conclusive for this probe.
    fn from_stats(stats: &EndpointStats, probe: &Self::Probe) -> Option<Self::Answer>;
    /// What the probe asks an endpoint.
    fn member(probe: &Self::Probe) -> Member<'_>;
    /// The answer the member's number stands for.
    fn from_member(n: u64) -> Self::Answer;
    /// Counts the degradation and returns the conservative answer.
    fn degrade(fed: &Federation, net: &Net, ep: EndpointId) -> Self::Answer;
}

/// What a probe asks; either way the answer is one number. Alone on the
/// wire ([`send_ask`]) an existence member is an `ASK`; inside a coalesced
/// request see [`coalesced`].
pub(crate) enum Member<'p> {
    /// Does the group have a solution? `1` or `0`.
    Exists(GroupPattern),
    /// How many triples match the pattern (which has a variable to count)?
    Count(&'p TriplePattern),
}

/// Source-selection `ASK`: a failed probe assumes the endpoint relevant.
pub(crate) struct Ask;

impl Kind for Ask {
    type Probe = TriplePattern;
    type Key = PatternKey;
    type Answer = bool;
    const REQUEST: RequestKind = RequestKind::Ask;
    const COALESCED: bool = false;

    fn key(tp: &TriplePattern) -> PatternKey {
        pattern_key(tp)
    }
    fn from_stats(stats: &EndpointStats, tp: &TriplePattern) -> Option<bool> {
        stats.ask_pattern(tp)
    }
    fn member(tp: &TriplePattern) -> Member<'_> {
        Member::Exists(GroupPattern::bgp(vec![tp.clone()]))
    }
    fn from_member(n: u64) -> bool {
        n > 0
    }
    fn degrade(_: &Federation, net: &Net, _: EndpointId) -> bool {
        net.degradation.assume_relevant()
    }
}

/// Source-selection `COUNT`: relevance is `count > 0`, and the count is the
/// cost model's cardinality. A failed probe is counted like a failed `ASK`:
/// the endpoint is assumed relevant, with its total triple count as the
/// cardinality — an upper bound that errs toward delaying the subquery.
pub(crate) struct Count;

impl Kind for Count {
    type Probe = TriplePattern;
    type Key = PatternKey;
    type Answer = u64;
    const REQUEST: RequestKind = RequestKind::Count;
    const COALESCED: bool = true;

    fn key(tp: &TriplePattern) -> PatternKey {
        pattern_key(tp)
    }
    fn from_stats(stats: &EndpointStats, tp: &TriplePattern) -> Option<u64> {
        stats.count_pattern(tp)
    }
    fn member(tp: &TriplePattern) -> Member<'_> {
        match tp.vars().next() {
            Some(_) => Member::Count(tp),
            // Nothing to count: a fully bound pattern matches once or not.
            None => Member::Exists(GroupPattern::bgp(vec![tp.clone()])),
        }
    }
    fn from_member(n: u64) -> u64 {
        n
    }
    fn degrade(fed: &Federation, net: &Net, ep: EndpointId) -> u64 {
        net.degradation.assume_relevant();
        // At least one, so that an empty endpoint still reads as relevant.
        (fed.endpoint(ep).triple_count() as u64).max(1)
    }
}

/// LADE check query (`true` = the difference is non-empty): a failed probe
/// assumes the pair conflicting — more GJVs never lose answers.
pub(crate) struct Check;

impl Kind for Check {
    type Probe = CheckQuery;
    type Key = CheckKey;
    type Answer = bool;
    const REQUEST: RequestKind = RequestKind::Check;
    const COALESCED: bool = true;

    fn key(check: &CheckQuery) -> CheckKey {
        check.key.clone()
    }
    fn from_stats(stats: &EndpointStats, check: &CheckQuery) -> Option<bool> {
        stats_check_answer(stats, check)
    }
    fn member(check: &CheckQuery) -> Member<'_> {
        Member::Exists(check.group())
    }
    fn from_member(n: u64) -> bool {
        n > 0
    }
    fn degrade(_: &Federation, net: &Net, _: EndpointId) -> bool {
        net.degradation
            .checks_assumed_conflict
            .fetch_add(1, Ordering::Relaxed);
        true
    }
}

/// The members of one wire request: `(index into the item list, memo key)`.
type Members<K> = Vec<(usize, <K as Kind>::Key)>;

/// Answers every `(endpoint, probe)` item, in order, by the module's rule.
/// Items are never reordered: each endpoint sees the probes the caller
/// listed for it in list order, so seeded fault fates (drawn per request
/// index) depend on the caller's list alone.
pub(crate) fn resolve<K: Kind>(
    fed: &Federation,
    net: &Net,
    memo: &ProbeCache<K::Key, K::Answer>,
    items: &[(EndpointId, &K::Probe)],
) -> Vec<K::Answer> {
    let mut answers: Vec<Option<K::Answer>> = Vec::with_capacity(items.len());
    // One task per wire request, holding the members it answers.
    let mut tasks: Vec<(EndpointId, Members<K>)> = Vec::new();
    // Items whose key an earlier item already sends to the same endpoint
    // (`?a p ?b` and `?c p ?d` share a memo key): `(item, that earlier one)`.
    let mut repeats: Vec<(usize, usize)> = Vec::new();
    for (i, &(ep, probe)) in items.iter().enumerate() {
        let key = K::key(probe);
        let answer = memo.get(&key, ep).or_else(|| {
            let answer = fed.stats_for(ep).and_then(|s| K::from_stats(&s, probe))?;
            net.trace.emit(|| TraceEvent::StatsAnswered {
                endpoint: ep,
                kind: K::REQUEST,
            });
            Some(answer)
        });
        answers.push(answer);
        if answer.is_some() {
            continue;
        }
        let mut sent = (tasks.iter().filter(|(e, _)| *e == ep)).flat_map(|(_, members)| members);
        if let Some(&(first, _)) = sent.find(|(_, k)| *k == key) {
            repeats.push((i, first));
            continue;
        }
        let group = (tasks.iter_mut().find(|(e, _)| *e == ep)).filter(|_| K::COALESCED);
        match group {
            Some((_, members)) => members.push((i, key)),
            None => tasks.push((ep, vec![(i, key)])),
        }
    }
    let sent = net.handler.run(fed, tasks, |ep_id, ep, members| {
        let probes = members.iter().map(|(i, _)| items[*i].1);
        if K::COALESCED {
            // Built once per task: a retry attempt only sends it again.
            let (query, cells) = coalesced::<K>(probes);
            net.client.request_kind(ep_id, K::REQUEST, || {
                send_coalesced::<K>(ep, fed.dict(), &query, &cells)
            })
        } else {
            net.client.request_kind(ep_id, K::REQUEST, || {
                probes
                    .clone()
                    .map(|probe| send_ask::<K>(ep, probe))
                    .collect()
            })
        }
    });
    for (ep, members, result) in sent {
        match result {
            Ok(group) => {
                for ((i, key), answer) in members.into_iter().zip(group) {
                    memo.put(key, ep, answer);
                    answers[i] = Some(answer);
                }
            }
            Err(_) => {
                for (i, _) in members {
                    answers[i] = Some(K::degrade(fed, net, ep));
                }
            }
        }
    }
    for (i, first) in repeats {
        answers[i] = answers[first];
    }
    answers
        .into_iter()
        .map(|a| a.expect("every memo and statistics miss was sent to the wire"))
        .collect()
}

impl Net {
    /// Narrows `candidates` to the endpoints answering `ask` with `true` —
    /// the one probe that bypasses `resolve`: it carries the bindings or
    /// constants of a running query, which no memo or statistics speak
    /// for, and it is the only probe its endpoint gets at that point. A
    /// failed one keeps its endpoint, like a failed source-selection `ASK`.
    pub fn ask_relevant(
        &self,
        fed: &Federation,
        candidates: &[EndpointId],
        ask: &Query,
    ) -> Vec<EndpointId> {
        let tasks: Vec<(EndpointId, ())> = candidates.iter().map(|&ep| (ep, ())).collect();
        let answers = self.handler.run(fed, tasks, |ep_id, ep, _| {
            self.client
                .request_kind(ep_id, RequestKind::Ask, || ep.ask(ask))
                .unwrap_or_else(|_| self.degradation.assume_relevant())
        });
        answers
            .into_iter()
            .filter(|(_, _, relevant)| *relevant)
            .map(|(ep, _, _)| ep)
            .collect()
    }
}

/// Sends one probe's existence [`Member`] to `ep` as an `ASK` of its own.
fn send_ask<K: Kind>(ep: &EndpointRef, probe: &K::Probe) -> Result<K::Answer, EndpointError> {
    let Member::Exists(group) = K::member(probe) else {
        unreachable!("a counting probe travels coalesced");
    };
    Ok(K::from_member(u64::from(ep.ask(&Query::ask(group))?)))
}

/// `probes` as one `SELECT` (see the module docs), and where on its single
/// row each member's answer will be: whether among the counts, and its rank
/// there. A row lists the counts before the existence tests.
fn coalesced<'p, K: Kind>(probes: impl Iterator<Item = &'p K::Probe>) -> (Query, Vec<(bool, usize)>)
where
    K::Probe: 'p,
{
    let mut query = Query::select_all(GroupPattern::default());
    let mut branches = Vec::new();
    let mut cells = Vec::new();
    for (n, probe) in probes.enumerate() {
        match K::member(probe) {
            Member::Exists(group) => {
                cells.push((false, query.exists.len()));
                let alias = format!("a{n}");
                query.exists.push(ExistsTest { group, alias });
            }
            Member::Count(tp) => {
                cells.push((true, query.aggregates.len()));
                // The branch gets variables of its own, named after the
                // position of their first occurrence (`?x p ?x` stays a
                // repeated variable), and counts the first of them: bound
                // in each of its solutions and in no other branch's.
                let positions = [(&tp.s, 's'), (&tp.p, 'p'), (&tp.o, 'o')];
                let [s, p, o] = positions.map(|(term, _)| match term {
                    PatternTerm::Var(_) => {
                        let first = positions.iter().find(|(t, _)| *t == term);
                        let (_, position) = first.expect("the term is at a position");
                        PatternTerm::Var(format!("{position}{n}"))
                    }
                    constant => constant.clone(),
                });
                let own = TriplePattern::new(s, p, o);
                query.aggregates.push(Aggregate {
                    func: AggFunc::Count,
                    var: own.vars().next().map(str::to_string),
                    distinct: false,
                    alias: format!("c{n}"),
                });
                branches.push(GroupPattern::bgp(vec![own]));
            }
        }
    }
    match branches.len() {
        0 => {}
        // A one-branch `UNION` is the branch.
        1 => query.pattern = branches.remove(0),
        _ => query.pattern.unions.push(branches),
    }
    (query, cells)
}

/// Sends a [`coalesced`] request to `ep` and reads the members' answers off
/// its single row. A response that lacks a cell, or holds something other
/// than a boolean or a count in one, was cut short on the way:
/// [`EndpointError::Interrupted`], which the client retries.
fn send_coalesced<K: Kind>(
    ep: &EndpointRef,
    dict: &Dictionary,
    query: &Query,
    cells: &[(bool, usize)],
) -> Result<Vec<K::Answer>, EndpointError> {
    let answer = ep.select(query)?;
    let row = answer.rows.iter().next().unwrap_or_default();
    let tests_from = query.aggregates.len();
    (cells.iter())
        .map(|&(counted, rank)| {
            let cell = if counted { rank } else { tests_from + rank };
            let term = dict.decode((*row.get(cell)?)?);
            match term.lexical() {
                "true" => Some(1),
                "false" => Some(0),
                count => count.parse().ok(),
            }
        })
        .map(|n| n.map(K::from_member).ok_or(EndpointError::Interrupted))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Degradation;
    use crate::trace::QueryTrace;
    use lusail_endpoint::{
        ExecOptions, FaultProfile, FlakyEndpoint, LocalEndpoint, RequestPolicy, SparqlEndpoint,
        StatsSnapshot, SystemClock, TraceSink,
    };
    use lusail_rdf::{Dictionary, Term};
    use lusail_sparql::{parse_query, write_query, SolutionSet};
    use lusail_store::TripleStore;
    use std::fmt::Debug;
    use std::sync::atomic::AtomicU64;
    use std::sync::{Arc, Mutex};

    /// One endpoint holding `(s1 p o1) (s1 q o2) (s2 p o3)`: permanently
    /// unavailable when `dead`, its statistics attached when `with_stats`.
    fn federation(dict: &Arc<Dictionary>, dead: bool, with_stats: bool) -> Federation {
        let x = |l: &str| Term::iri(format!("http://x/{l}"));
        let mut store = TripleStore::new(Arc::clone(dict));
        store.insert_terms(&x("s1"), &x("p"), &x("o1"));
        store.insert_terms(&x("s1"), &x("q"), &x("o2"));
        store.insert_terms(&x("s2"), &x("p"), &x("o3"));
        let local = Arc::new(LocalEndpoint::new("E", store));
        let stats = Arc::new(EndpointStats::build(local.store()));
        let mut fed = Federation::new(Arc::clone(dict));
        if dead {
            fed.add(Arc::new(FlakyEndpoint::new(local, FaultProfile::dead())));
        } else {
            fed.add(local);
        }
        if with_stats {
            fed.attach_stats(0, stats);
        }
        fed
    }

    fn net(sink: &TraceSink) -> Net {
        let opts = ExecOptions::default().with_trace(sink.clone());
        Net::for_query(
            RequestPolicy::default(),
            Arc::new(SystemClock::default()),
            &opts,
        )
    }

    /// `(answer, wire requests, StatsAnswered events, degradations)` of
    /// resolving one probe at endpoint 0.
    fn run<K: Kind>(
        fed: &Federation,
        memo: &ProbeCache<K::Key, K::Answer>,
        probe: &K::Probe,
        counter: fn(&Degradation) -> &AtomicU64,
    ) -> (K::Answer, u64, u64, u64) {
        let sink = TraceSink::enabled();
        let net = net(&sink);
        let answer = resolve::<K>(fed, &net, memo, &[(0, probe)])[0];
        (
            answer,
            fed.stats_snapshot().total_requests(),
            QueryTrace::from_sink(&sink).stats_answered(K::REQUEST),
            counter(&net.degradation).load(Ordering::Relaxed),
        )
    }

    /// The module's rule, for one kind. `truth` is the endpoint's real
    /// answer, `cached` a memoized one and `fallback` the degraded one —
    /// all distinct from `truth`, so each step shows who answered.
    fn follows_the_rule<K: Kind>(
        dict: &Arc<Dictionary>,
        probe: &K::Probe,
        [truth, cached, fallback]: [K::Answer; 3],
        counter: fn(&Degradation) -> &AtomicU64,
    ) where
        K::Answer: PartialEq + Debug,
    {
        let kind = K::REQUEST.name();
        // A memo hit never reaches statistics or the wire.
        let memo = ProbeCache::new();
        memo.put(K::key(probe), 0, cached);
        let got = run::<K>(&federation(dict, false, true), &memo, probe, counter);
        assert_eq!(got, (cached, 0, 0, 0), "{kind}: memo hit");
        // Conclusive statistics answer without the wire, traced once, and
        // are not memoized.
        let memo = ProbeCache::new();
        let got = run::<K>(&federation(dict, false, true), &memo, probe, counter);
        assert_eq!(got, (truth, 0, 1, 0), "{kind}: statistics");
        assert_eq!(memo.len(), 0, "{kind}: statistics answer memoized");
        // A wire answer is memoized.
        let got = run::<K>(&federation(dict, false, false), &memo, probe, counter);
        assert_eq!(got, (truth, 1, 0, 0), "{kind}: wire");
        assert_eq!(memo.get(&K::key(probe), 0), Some(truth), "{kind}: wire");
        // A failed probe degrades, is counted, and is not memoized.
        let memo = ProbeCache::new();
        let (got, _, _, degraded) = run::<K>(&federation(dict, true, false), &memo, probe, counter);
        assert_eq!((got, degraded), (fallback, 1), "{kind}: dead endpoint");
        assert_eq!(memo.len(), 0, "{kind}: degraded answer memoized");
    }

    /// The rule for a coalesced kind's probes at one endpoint. `group` is a
    /// probe the memo holds (as `cached`), one the statistics decide, and
    /// two that need the wire — the last three really answering `truths`.
    fn a_group_is_one_request<K: Kind>(
        dict: &Arc<Dictionary>,
        group: [&K::Probe; 4],
        cached: K::Answer,
        truths: [K::Answer; 3],
        fallback: K::Answer,
        counter: fn(&Degradation) -> &AtomicU64,
    ) where
        K::Answer: PartialEq + Debug,
        K::Key: Debug,
    {
        let kind = K::REQUEST.name();
        let items = group.map(|probe| (0, probe));
        let [hit, decided, wire_a, wire_b] = group.map(K::key);
        let traced = |sink: &TraceSink| QueryTrace::from_sink(sink).requests(K::REQUEST);
        // Only the two wire members travel, as one request, and only they
        // are memoized.
        let memo = ProbeCache::new();
        memo.put(hit, 0, cached);
        let fed = federation(dict, false, true);
        let sink = TraceSink::enabled();
        let got = resolve::<K>(&fed, &net(&sink), &memo, &items);
        assert_eq!(got, [cached, truths[0], truths[1], truths[2]], "{kind}");
        assert_eq!(
            fed.stats_snapshot().total_requests(),
            1,
            "{kind}: on the wire"
        );
        let requests = traced(&sink);
        assert_eq!((requests.requests, requests.failures), (1, 0), "{kind}");
        let answered = QueryTrace::from_sink(&sink).stats_answered(K::REQUEST);
        assert_eq!(answered, 1, "{kind}: statistics");
        assert_eq!(memo.get(&decided, 0), None, "{kind}: statistics memoized");
        assert_eq!(memo.get(&wire_a, 0), Some(truths[1]), "{kind}: wire");
        assert_eq!(memo.get(&wire_b, 0), Some(truths[2]), "{kind}: wire");
        // A dead endpoint fails the one request; every member degrades by
        // its kind's row and is counted, and none is memoized.
        let memo = ProbeCache::new();
        let fed = federation(dict, true, false);
        let sink = TraceSink::enabled();
        let net = net(&sink);
        let got = resolve::<K>(&fed, &net, &memo, &items);
        assert_eq!(got, [fallback; 4], "{kind}: dead endpoint");
        let requests = traced(&sink);
        assert_eq!((requests.requests, requests.failures), (1, 1), "{kind}");
        let degraded = counter(&net.degradation).load(Ordering::Relaxed);
        assert_eq!(degraded, 4, "{kind}: degradations counted");
        assert_eq!(memo.len(), 0, "{kind}: degraded answer memoized");
    }

    #[test]
    fn every_kind_answers_memo_then_statistics_then_wire_then_degrades() {
        let dict = Dictionary::shared();
        let parse = |text: &str| parse_query(text, &dict).unwrap();
        let pattern = |tp: &str| {
            parse(&format!("SELECT * {{ {tp} }}"))
                .pattern
                .triples
                .remove(0)
        };
        // Statistics decide `?s <p> ?o` and an absent predicate; a constant
        // subject or object needs the wire.
        let absent = pattern("?s <http://x/absent> ?o");
        let p = pattern("?s <http://x/p> ?o");
        let of_s1 = pattern("<http://x/s1> ?p ?o");
        let s1_p_o1 = pattern("<http://x/s1> <http://x/p> <http://x/o1>");
        let asks_assumed: fn(&Degradation) -> &AtomicU64 = |d| &d.asks_assumed_relevant;
        follows_the_rule::<Ask>(&dict, &absent, [false, true, true], asks_assumed);
        follows_the_rule::<Count>(&dict, &p, [2, 99, 3], asks_assumed);
        // The fully bound pattern has nothing to count: an existence member.
        a_group_is_one_request::<Count>(
            &dict,
            [&absent, &p, &of_s1, &s1_p_o1],
            99,
            [2, 2, 1],
            3,
            asks_assumed,
        );
        // `keep FILTER NOT EXISTS { ?v <probe> ?__chk_o }`: statistics decide
        // it when `keep` is `?v <q> ?b`, not when it has a constant object.
        let check = |keep: &str, probe: &str| CheckQuery {
            var: "v".into(),
            key: CheckKey {
                outer: vec![pattern(keep)],
                inner: pattern(&format!("?v <http://x/{probe}> ?__chk_o")),
            },
        };
        // Every subject with a `q` triple (s1) also has a `p` triple; s1
        // (holding o1) has a `q` triple, s2 (holding o3) has none.
        let q_minus_p = check("?v <http://x/q> ?b", "p");
        let o1_minus_q = check("?v <http://x/p> <http://x/o1>", "q");
        let o3_minus_q = check("?v <http://x/p> <http://x/o3>", "q");
        let checks_assumed: fn(&Degradation) -> &AtomicU64 = |d| &d.checks_assumed_conflict;
        follows_the_rule::<Check>(&dict, &q_minus_p, [false, true, true], checks_assumed);
        let memoized = check("?v <http://x/p> ?b", "q");
        a_group_is_one_request::<Check>(
            &dict,
            [&memoized, &q_minus_p, &o1_minus_q, &o3_minus_q],
            false,
            [false, false, true],
            true,
            checks_assumed,
        );
    }

    /// Records the text of every query it is sent, then answers it.
    struct Recording {
        inner: LocalEndpoint,
        dict: Arc<Dictionary>,
        sent: Mutex<Vec<String>>,
    }

    impl Recording {
        fn record(&self, q: &Query) {
            self.sent.lock().unwrap().push(write_query(q, &self.dict));
        }
    }

    impl SparqlEndpoint for Recording {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn ask(&self, q: &Query) -> Result<bool, EndpointError> {
            self.record(q);
            self.inner.ask(q)
        }
        fn select(&self, q: &Query) -> Result<SolutionSet, EndpointError> {
            self.record(q);
            self.inner.select(q)
        }
        fn count(&self, q: &Query) -> Result<u64, EndpointError> {
            self.record(q);
            self.inner.count(q)
        }
        fn stats_snapshot(&self) -> StatsSnapshot {
            self.inner.stats_snapshot()
        }
        fn triple_count(&self) -> usize {
            self.inner.triple_count()
        }
    }

    /// An `ASK` probe travels alone, as the `ASK` of its one pattern written
    /// exactly as a stand-alone query: two probes at one endpoint are two
    /// requests.
    #[test]
    fn a_lone_ask_member_is_the_ask_of_its_pattern() {
        let dict = Dictionary::shared();
        let x = |l: &str| Term::iri(format!("http://x/{l}"));
        let mut store = TripleStore::new(Arc::clone(&dict));
        store.insert_terms(&x("s"), &x("p"), &x("o"));
        let ep = Arc::new(Recording {
            inner: LocalEndpoint::new("E", store),
            dict: Arc::clone(&dict),
            sent: Mutex::default(),
        });
        let mut fed = Federation::new(Arc::clone(&dict));
        fed.add(Arc::clone(&ep) as EndpointRef);
        let query = parse_query(
            "SELECT * { ?s <http://x/p> ?o . ?s <http://x/q> ?v }",
            &dict,
        );
        let [p, q] = [0, 1].map(|i| query.as_ref().unwrap().pattern.triples[i].clone());
        let net = net(&TraceSink::disabled());
        let items = [(0, &p), (0, &q)];
        let got = resolve::<Ask>(&fed, &net, &ProbeCache::new(), &items);
        assert_eq!(got, [true, false]);
        let ask = |tp: &TriplePattern| {
            write_query(&Query::ask(GroupPattern::bgp(vec![tp.clone()])), &dict)
        };
        assert_eq!(*ep.sent.lock().unwrap(), [ask(&p), ask(&q)]);
    }
}
