//! The one probe path: memo → statistics → wire → degrade.
//!
//! Planning lives on three kinds of lightweight probe — source-selection
//! `ASK`s (§III), LADE check queries (Algorithm 1) and per-pattern `COUNT`s
//! (§V) — and all three are answered by [`resolve`] under one rule:
//!
//! 1. the **memo** answers first (a hit never reaches the wire);
//! 2. on a miss, the endpoint's offline **statistics** answer when they
//!    are attached *and* conclusive — exact by construction, so nothing
//!    downstream changes. The answer is traced as
//!    [`TraceEvent::StatsAnswered`] and *not* written into the memo: the
//!    memo is invalidated per endpoint on death and statistics
//!    independently so, and mixing the two would blur that audit trail;
//! 3. what is left goes to the **wire**, in list order, through the
//!    request handler and the resilient client; an `Ok` answer is memoized;
//! 4. a probe whose endpoint fails (after retries) **degrades** to the
//!    kind's conservative answer, counted in [`Degradation`] and never
//!    memoized — a wrong guess may cost extra requests, never answers.
//!
//! What differs per kind is the three-row table of [`Kind`] impls below.
//!
//! [`Degradation`]: crate::exec::Degradation

use crate::cache::{pattern_key, PatternKey, ProbeCache};
use crate::exec::Net;
use crate::gjv::{stats_check_answer, CheckQuery};
use lusail_endpoint::{
    EndpointError, EndpointId, EndpointRef, Federation, RequestKind, TraceEvent,
};
use lusail_sparql::ast::{GroupPattern, Query, TriplePattern};
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

    fn key(probe: &Self::Probe) -> Self::Key;
    /// `Some` only when the statistics are conclusive for this probe.
    fn from_stats(stats: &EndpointStats, probe: &Self::Probe) -> Option<Self::Answer>;
    fn on_wire(ep: &EndpointRef, probe: &Self::Probe) -> Result<Self::Answer, EndpointError>;
    /// Counts the degradation and returns the conservative answer.
    fn degrade(fed: &Federation, net: &Net, ep: EndpointId) -> Self::Answer;
}

/// Source-selection `ASK`: a failed probe assumes the endpoint relevant.
pub(crate) struct Ask;

impl Kind for Ask {
    type Probe = TriplePattern;
    type Key = PatternKey;
    type Answer = bool;
    const REQUEST: RequestKind = RequestKind::Ask;

    fn key(tp: &TriplePattern) -> PatternKey {
        pattern_key(tp)
    }
    fn from_stats(stats: &EndpointStats, tp: &TriplePattern) -> Option<bool> {
        stats.ask_pattern(tp)
    }
    fn on_wire(ep: &EndpointRef, tp: &TriplePattern) -> Result<bool, EndpointError> {
        ep.ask(&Query::ask(GroupPattern::bgp(vec![tp.clone()])))
    }
    fn degrade(_: &Federation, net: &Net, _: EndpointId) -> bool {
        net.degradation.assume_relevant()
    }
}

/// Cost-model `COUNT`: a failed probe falls back to the endpoint's total
/// triple count, an upper bound that errs toward delaying the subquery.
pub(crate) struct Count;

impl Kind for Count {
    type Probe = TriplePattern;
    type Key = PatternKey;
    type Answer = u64;
    const REQUEST: RequestKind = RequestKind::Count;

    fn key(tp: &TriplePattern) -> PatternKey {
        pattern_key(tp)
    }
    fn from_stats(stats: &EndpointStats, tp: &TriplePattern) -> Option<u64> {
        stats.count_pattern(tp)
    }
    fn on_wire(ep: &EndpointRef, tp: &TriplePattern) -> Result<u64, EndpointError> {
        ep.count(&Query::count(GroupPattern::bgp(vec![tp.clone()])))
    }
    fn degrade(fed: &Federation, net: &Net, ep: EndpointId) -> u64 {
        net.degradation
            .counts_defaulted
            .fetch_add(1, Ordering::Relaxed);
        fed.endpoint(ep).triple_count() as u64
    }
}

/// LADE check query (`true` = the difference is non-empty): a failed probe
/// assumes the pair conflicting — more GJVs never lose answers.
pub(crate) struct Check;

impl Kind for Check {
    type Probe = CheckQuery;
    type Key = String;
    type Answer = bool;
    const REQUEST: RequestKind = RequestKind::Check;

    fn key(check: &CheckQuery) -> String {
        check.sig.clone()
    }
    fn from_stats(stats: &EndpointStats, check: &CheckQuery) -> Option<bool> {
        stats_check_answer(stats, &check.query)
    }
    fn on_wire(ep: &EndpointRef, check: &CheckQuery) -> Result<bool, EndpointError> {
        ep.select(&check.query).map(|sols| !sols.is_empty())
    }
    fn degrade(_: &Federation, net: &Net, _: EndpointId) -> bool {
        net.degradation
            .checks_assumed_conflict
            .fetch_add(1, Ordering::Relaxed);
        true
    }
}

/// Answers every `(endpoint, probe)` item, in order, by the module's rule.
/// Items are never de-duplicated or reordered: each endpoint sees exactly
/// the request subsequence the caller listed, so seeded fault fates (drawn
/// per request index) depend on the caller's list alone.
pub(crate) fn resolve<K: Kind>(
    fed: &Federation,
    net: &Net,
    memo: &ProbeCache<K::Key, K::Answer>,
    items: &[(EndpointId, &K::Probe)],
) -> Vec<K::Answer> {
    let mut answers: Vec<Option<K::Answer>> = Vec::with_capacity(items.len());
    let mut misses: Vec<(EndpointId, (usize, K::Key))> = Vec::new();
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
        if answer.is_none() {
            misses.push((ep, (i, key)));
        }
        answers.push(answer);
    }
    let sent = net.handler.run(fed, misses, |ep_id, ep, (i, _)| {
        net.client
            .request_kind(ep_id, K::REQUEST, || K::on_wire(ep, items[*i].1))
    });
    for (ep, (i, key), result) in sent {
        answers[i] = Some(match result {
            Ok(answer) => {
                memo.put(key, ep, answer);
                answer
            }
            Err(_) => K::degrade(fed, net, ep),
        });
    }
    answers
        .into_iter()
        .map(|a| a.expect("every memo and statistics miss was sent to the wire"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Degradation;
    use crate::trace::QueryTrace;
    use lusail_endpoint::{
        FaultProfile, FlakyEndpoint, LocalEndpoint, RequestPolicy, SystemClock, TraceSink,
    };
    use lusail_rdf::{Dictionary, Term};
    use lusail_sparql::parse_query;
    use lusail_store::TripleStore;
    use std::fmt::Debug;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

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

    /// `(answer, wire requests, StatsAnswered events, degradations)` of
    /// resolving one probe at endpoint 0.
    fn run<K: Kind>(
        fed: &Federation,
        memo: &ProbeCache<K::Key, K::Answer>,
        probe: &K::Probe,
        counter: fn(&Degradation) -> &AtomicU64,
    ) -> (K::Answer, u64, u64, u64) {
        let sink = TraceSink::enabled();
        let net = Net::build(
            RequestPolicy::default(),
            Arc::new(SystemClock::default()),
            sink.clone(),
            1,
            None,
        );
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
        let memo = ProbeCache::new(true);
        memo.put(K::key(probe), 0, cached);
        let got = run::<K>(&federation(dict, false, true), &memo, probe, counter);
        assert_eq!(got, (cached, 0, 0, 0), "{kind}: memo hit");
        // Conclusive statistics answer without the wire, traced once, and
        // are not memoized.
        let memo = ProbeCache::new(true);
        let got = run::<K>(&federation(dict, false, true), &memo, probe, counter);
        assert_eq!(got, (truth, 0, 1, 0), "{kind}: statistics");
        assert!(memo.is_empty(), "{kind}: statistics answer memoized");
        // A wire answer is memoized.
        let got = run::<K>(&federation(dict, false, false), &memo, probe, counter);
        assert_eq!(got, (truth, 1, 0, 0), "{kind}: wire");
        assert_eq!(memo.get(&K::key(probe), 0), Some(truth), "{kind}: wire");
        // A failed probe degrades, is counted, and is not memoized.
        let memo = ProbeCache::new(true);
        let (got, _, _, degraded) = run::<K>(&federation(dict, true, false), &memo, probe, counter);
        assert_eq!((got, degraded), (fallback, 1), "{kind}: dead endpoint");
        assert!(memo.is_empty(), "{kind}: degraded answer memoized");
    }

    #[test]
    fn every_kind_answers_memo_then_statistics_then_wire_then_degrades() {
        let dict = Dictionary::shared();
        let parse = |text: &str| parse_query(text, &dict).unwrap();
        let absent = parse("SELECT * WHERE { ?s <http://x/absent> ?o }");
        follows_the_rule::<Ask>(
            &dict,
            &absent.pattern.triples[0],
            [false, true, true],
            |d| &d.asks_assumed_relevant,
        );
        let p = parse("SELECT * WHERE { ?s <http://x/p> ?o }");
        follows_the_rule::<Count>(&dict, &p.pattern.triples[0], [2, 99, 3], |d| {
            &d.counts_defaulted
        });
        // Every subject with a `q` triple (s1) also has a `p` triple.
        let check = CheckQuery {
            query: parse(
                "SELECT ?v WHERE { ?v <http://x/q> ?b \
                 FILTER NOT EXISTS { ?v <http://x/p> ?__chk_o } } LIMIT 1",
            ),
            sig: "q-minus-p".into(),
        };
        follows_the_rule::<Check>(&dict, &check, [false, true, true], |d| {
            &d.checks_assumed_conflict
        });
    }
}
