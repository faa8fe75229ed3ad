//! Seeded generation of differential-test cases: a random-but-valid
//! SPARQL query plus a random triple set partitioned across endpoints.
//!
//! Everything is derived from a single `u64` seed through SplitMix64
//! ([`Rng`]), so a case reproduces bit-for-bit from its seed alone on any
//! platform. The partitioner assigns every *entity* a home endpoint and
//! stores all of an entity's triples there — the decentralized-RDF
//! assumption Lusail's locality checks rely on (see DESIGN.md, "Soundness
//! assumptions"). The `straddle` knob controls how often an object
//! reference points at an entity homed on a *different* endpoint; those
//! interlinks are exactly what makes global join variables arise.

use lusail_benchdata::common::Rng;
use lusail_endpoint::{EndpointRef, FaultProfile, Federation, FlakyEndpoint, LocalEndpoint};
use lusail_rdf::{Dictionary, Term, Triple};
use lusail_sparql::ast::{
    CmpOp, Expression, GroupPattern, PatternTerm, Query, QueryForm, TriplePattern,
};
use lusail_store::TripleStore;
use std::sync::Arc;

/// Shape parameters for case generation.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Endpoints per federation are drawn from `2..=max_endpoints`.
    pub max_endpoints: usize,
    /// Entity pool size (`http://fuzz/e0` … `e{n-1}`).
    pub entities: usize,
    /// Link predicate pool size (`http://fuzz/p0` … ).
    pub link_preds: usize,
    /// Triples per case are drawn from `1..=max_triples`.
    pub max_triples: usize,
    /// Probability an object reference targets an entity homed at a
    /// *different* endpoint (an interlink). `0.0` keeps every join
    /// instance co-located; higher values force cross-endpoint joins.
    pub straddle: f64,
    /// Triple patterns per query are drawn from `1..=max_patterns`.
    pub max_patterns: usize,
    /// Probability the query carries a FILTER.
    pub p_filter: f64,
    /// Probability the query carries an OPTIONAL group.
    pub p_optional: f64,
    /// Probability the query carries a LIMIT.
    pub p_limit: f64,
    /// Probability of `SELECT DISTINCT`.
    pub p_distinct: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_endpoints: 6,
            entities: 14,
            link_preds: 3,
            max_triples: 48,
            straddle: 0.5,
            max_patterns: 4,
            p_filter: 0.35,
            p_optional: 0.3,
            p_limit: 0.2,
            p_distinct: 0.3,
        }
    }
}

/// Which faults (if any) a case's federation injects.
#[derive(Debug, Clone, Default)]
pub struct FaultSpec {
    /// One entry per endpoint; `None` leaves the endpoint healthy.
    pub profiles: Vec<Option<FaultProfile>>,
}

impl FaultSpec {
    /// True when no endpoint misbehaves.
    pub fn is_clean(&self) -> bool {
        self.profiles.iter().all(|p| p.is_none())
    }

    /// True when endpoint `id` has no fault profile.
    pub fn healthy(&self, id: usize) -> bool {
        self.profiles.get(id).copied().flatten().is_none()
    }

    /// True when every replica group of `n_endpoints` logical endpoints
    /// replicated `replication` times (ids as in `Case::federation_on`)
    /// keeps a healthy member — failover can then absorb every injected
    /// fault.
    pub fn spares_every_group(&self, n_endpoints: usize, replication: usize) -> bool {
        (0..n_endpoints).all(|i| (0..replication).any(|k| self.healthy(k * n_endpoints + i)))
    }

    /// Draws a fault plan for `n_endpoints` endpoints: each endpoint is
    /// flaky with probability ½ (at least one always is), and with small
    /// probability one endpoint is permanently dead.
    pub fn random(rng: &mut Rng, n_endpoints: usize) -> FaultSpec {
        let mut profiles: Vec<Option<FaultProfile>> = (0..n_endpoints)
            .map(|_| {
                rng.chance(0.5).then(|| {
                    let rate = 0.05 + (rng.below(100) as f64) / 400.0; // 5%–30%
                    FaultProfile::transient(rng.next_u64(), rate)
                })
            })
            .collect();
        if profiles.iter().all(|p| p.is_none()) {
            profiles[0] = Some(FaultProfile::transient(rng.next_u64(), 0.2));
        }
        if rng.chance(0.15) {
            let victim = rng.below(n_endpoints);
            profiles[victim] = Some(FaultProfile::dead());
        }
        FaultSpec { profiles }
    }

    /// Draws a *dead-only* fault plan: each endpoint is either healthy or
    /// permanently dead (at least one of each when `n_endpoints > 1`).
    /// Unlike [`FaultSpec::random`], no endpoint is transiently flaky —
    /// transient fates are drawn per request *index*, so a plan
    /// containing them is not invariant under probe elision. Dead-only
    /// plans are: a dead endpoint fails every request whether or not
    /// earlier probes were skipped, which is what lets the stats-vs-wire
    /// differential (the `stats` axis) demand byte-identical solutions
    /// under faults.
    pub fn random_dead_only(rng: &mut Rng, n_endpoints: usize) -> FaultSpec {
        let mut profiles: Vec<Option<FaultProfile>> = (0..n_endpoints)
            .map(|_| rng.chance(0.35).then(FaultProfile::dead))
            .collect();
        if profiles.iter().all(|p| p.is_none()) {
            profiles[rng.below(n_endpoints)] = Some(FaultProfile::dead());
        }
        if n_endpoints > 1 && profiles.iter().all(|p| p.is_some()) {
            profiles[rng.below(n_endpoints)] = None;
        }
        FaultSpec { profiles }
    }

    /// Draws a *primary-kill* plan for a federation of `n_endpoints`
    /// logical endpoints replicated `replication` times. Profiles are
    /// indexed by final endpoint id (see
    /// `Case::federation_on`): only primaries (ids
    /// `0..n_endpoints`) are ever killed — dead outright or dying after
    /// serving a few requests — and at least one is. Replicas stay
    /// healthy, so every group keeps a live member and failover must be
    /// able to absorb every kill.
    pub fn random_primary_kill(rng: &mut Rng, n_endpoints: usize, replication: usize) -> FaultSpec {
        let mut profiles: Vec<Option<FaultProfile>> = vec![None; n_endpoints * replication];
        for slot in profiles.iter_mut().take(n_endpoints) {
            if rng.chance(0.5) {
                *slot = Some(if rng.chance(0.5) {
                    FaultProfile::dead()
                } else {
                    FaultProfile::dies_after(1 + rng.below(6) as u64)
                });
            }
        }
        if profiles[..n_endpoints].iter().all(|p| p.is_none()) {
            let victim = rng.below(n_endpoints);
            profiles[victim] = Some(FaultProfile::dies_after(1 + rng.below(6) as u64));
        }
        FaultSpec { profiles }
    }
}

/// A fully materialized test case: the data, its partition, and the query.
///
/// Invariant (preserved by generation *and* shrinking): all triples of one
/// subject live at one endpoint, i.e. `homes[i]` is a function of
/// `triples[i].s`.
#[derive(Clone)]
pub struct Case {
    /// The seed this case was generated from (kept for repro printing).
    pub seed: u64,
    /// The shared term dictionary.
    pub dict: Arc<Dictionary>,
    /// The generated triples (deduplicated).
    pub triples: Vec<Triple>,
    /// Home endpoint of each triple, parallel to `triples`.
    pub homes: Vec<usize>,
    /// Number of endpoints in the federation.
    pub n_endpoints: usize,
    /// The query under test.
    pub query: Query,
}

impl Case {
    /// Generates the case for `seed` under `config`.
    pub fn generate(seed: u64, config: &GenConfig) -> Case {
        let mut rng = Rng::new(seed);
        let dict = Dictionary::shared();
        let n_endpoints = 2 + rng.below(config.max_endpoints.max(2) - 1);

        let entity =
            |i: usize, dict: &Dictionary| dict.encode(&Term::iri(format!("http://fuzz/e{i}")));
        let link =
            |i: usize, dict: &Dictionary| dict.encode(&Term::iri(format!("http://fuzz/p{i}")));
        let value_pred = dict.encode(&Term::iri("http://fuzz/value"));

        // Every entity gets a home endpoint; all its triples live there.
        let homes_of_entities: Vec<usize> = (0..config.entities)
            .map(|_| rng.below(n_endpoints))
            .collect();

        let mut seen = lusail_rdf::FxHashSet::default();
        let mut triples = Vec::new();
        let mut homes = Vec::new();
        for _ in 0..1 + rng.below(config.max_triples) {
            let s = rng.below(config.entities);
            let (p, o) = if rng.chance(0.25) {
                (value_pred, dict.encode(&Term::int(rng.below(50) as i64)))
            } else {
                let want_straddle = rng.chance(config.straddle);
                let candidates: Vec<usize> = (0..config.entities)
                    .filter(|&e| (homes_of_entities[e] != homes_of_entities[s]) == want_straddle)
                    .collect();
                let target = if candidates.is_empty() {
                    rng.below(config.entities)
                } else {
                    candidates[rng.below(candidates.len())]
                };
                (
                    link(rng.below(config.link_preds), &dict),
                    entity(target, &dict),
                )
            };
            let t = Triple::new(entity(s, &dict), p, o);
            if seen.insert(t) {
                triples.push(t);
                homes.push(homes_of_entities[s]);
            }
        }

        let query = gen_query(&mut rng, config, &dict);
        Case {
            seed,
            dict,
            triples,
            homes,
            n_endpoints,
            query,
        }
    }

    /// Grafts one UNION (two single-pattern branches), one OPTIONAL, and
    /// one FILTER NOT EXISTS group onto the query, each joining the BGP on
    /// its seed variable — the shapes whose groups the engine plans and
    /// executes recursively. Drawn from the case's own seed (on a separate
    /// stream, so the generated case itself is untouched).
    pub(crate) fn with_nested_groups(mut self, config: &GenConfig) -> Case {
        let mut rng = Rng::new(self.seed ^ 0x9E57_ED00_0000_0005);
        let seed_var = self.query.pattern.triples[0].s.clone();
        let group = |rng: &mut Rng, object: &str| {
            let p = Term::iri(format!("http://fuzz/p{}", rng.below(config.link_preds)));
            GroupPattern::bgp(vec![TriplePattern::new(
                seed_var.clone(),
                PatternTerm::Const(self.dict.encode(&p)),
                PatternTerm::Var(object.to_string()),
            )])
        };
        let branches = vec![group(&mut rng, "u"), group(&mut rng, "u")];
        let optional = group(&mut rng, "n1");
        let not_exists = group(&mut rng, "n2");
        self.query.pattern.unions.push(branches);
        self.query.pattern.optionals.push(optional);
        self.query.pattern.not_exists.push(not_exists);
        self
    }

    /// Builds the per-endpoint stores. Endpoint `i` holds every triple
    /// with `homes == i` (possibly none — empty endpoints are legal).
    pub fn stores(&self) -> Vec<TripleStore> {
        let mut stores: Vec<TripleStore> = (0..self.n_endpoints)
            .map(|_| TripleStore::new(Arc::clone(&self.dict)))
            .collect();
        for (t, &h) in self.triples.iter().zip(&self.homes) {
            stores[h].insert(*t);
        }
        stores
    }

    /// The merged single-store oracle: the union of all endpoint data.
    pub fn oracle(&self) -> TripleStore {
        let mut all = TripleStore::new(Arc::clone(&self.dict));
        for t in &self.triples {
            all.insert(*t);
        }
        all
    }

    /// Builds the federation on the BTree backend, unreplicated,
    /// optionally wrapping endpoints in
    /// [`FlakyEndpoint`]s per `faults` (see `Case::federation_on`).
    pub fn federation(&self, faults: &FaultSpec) -> (Federation, Vec<Arc<LocalEndpoint>>) {
        self.federation_on(faults, lusail_store::BackendKind::Btree, 1)
    }

    /// Builds the federation with the endpoints' stores materialized into
    /// `backend` and every endpoint replicated `replication` times, on the
    /// request policy of `faults` (`diff::policy`).
    /// Primaries keep ids `0..n_endpoints` (so an unreplicated federation
    /// is id-identical); copy `k ≥ 1` of endpoint `i` gets id
    /// `k * n_endpoints + i` and serves the same partition.
    /// `faults.profiles` is indexed by *final* endpoint id, so a plan can
    /// kill primaries, replicas, or whole groups. Also returns the
    /// primaries' plain [`LocalEndpoint`] handles: the index-building
    /// baselines preprocess endpoint data directly, bypassing faults (an
    /// index is built offline, before the network gets a say), and cover
    /// logical sources only (replicas hold no data of their own).
    pub(crate) fn federation_on(
        &self,
        faults: &FaultSpec,
        backend: lusail_store::BackendKind,
        replication: usize,
    ) -> (Federation, Vec<Arc<LocalEndpoint>>) {
        assert!(replication >= 1, "replication must be at least 1");
        let policy = crate::diff::policy(faults.is_clean());
        let mut fed = Federation::new(Arc::clone(&self.dict)).with_policy(policy);
        let mut locals = Vec::with_capacity(self.n_endpoints);
        for k in 0..replication {
            for (i, store) in self.stores().into_iter().enumerate() {
                let name = match k {
                    0 => format!("ep{i}"),
                    _ => format!("ep{i}r{k}"),
                };
                let local = Arc::new(LocalEndpoint::on_backend(
                    name,
                    store,
                    backend,
                    Default::default(),
                ));
                let mut ep = Arc::clone(&local) as EndpointRef;
                let id = k * self.n_endpoints + i;
                if let Some(profile) = faults.profiles.get(id).copied().flatten() {
                    ep = Arc::new(FlakyEndpoint::new(ep, profile));
                }
                if k == 0 {
                    locals.push(local);
                    fed.add(ep);
                } else {
                    fed.add_replica(i, ep);
                }
            }
        }
        (fed, locals)
    }
}

/// Variable roles, tracked so filters compare values and joins reuse
/// entity variables.
struct QueryVars {
    entity: Vec<String>,
    value: Vec<String>,
    next: usize,
}

impl QueryVars {
    fn fresh(&mut self) -> String {
        let v = format!("v{}", self.next);
        self.next += 1;
        v
    }

    fn fresh_entity(&mut self) -> String {
        let v = self.fresh();
        self.entity.push(v.clone());
        v
    }

    fn fresh_value(&mut self) -> String {
        let v = self.fresh();
        self.value.push(v.clone());
        v
    }

    fn pick_entity(&self, rng: &mut Rng) -> String {
        self.entity[rng.below(self.entity.len())].clone()
    }
}

/// Generates a random-but-valid SELECT query over the case vocabulary:
/// a connected BGP (every pattern shares a variable with an earlier one),
/// optionally a FILTER, an OPTIONAL group, DISTINCT, a projection, and a
/// LIMIT.
fn gen_query(rng: &mut Rng, config: &GenConfig, dict: &Dictionary) -> Query {
    let entity = |i: usize| dict.encode(&Term::iri(format!("http://fuzz/e{i}")));
    let link = |i: usize| dict.encode(&Term::iri(format!("http://fuzz/p{i}")));
    let value_pred = dict.encode(&Term::iri("http://fuzz/value"));

    let mut vars = QueryVars {
        entity: Vec::new(),
        value: Vec::new(),
        next: 0,
    };
    let mut patterns: Vec<TriplePattern> = Vec::new();
    let n_patterns = 1 + rng.below(config.max_patterns);
    for i in 0..n_patterns {
        // First pattern introduces the seed variable; later patterns join
        // on an existing entity variable so the BGP stays connected.
        let (s, reuse_at_object) = if i == 0 {
            (PatternTerm::Var(vars.fresh_entity()), false)
        } else if rng.chance(0.35) {
            (PatternTerm::Var(vars.fresh_entity()), true)
        } else {
            (PatternTerm::Var(vars.pick_entity(rng)), false)
        };
        let (p, o) = if reuse_at_object || !rng.chance(0.25) {
            // Link pattern. Object: the join variable when reusing at the
            // object position, else a fresh variable, a known entity
            // constant, or (rarely) an existing variable to close a cycle.
            let obj = if reuse_at_object {
                PatternTerm::Var(vars.pick_entity(rng))
            } else if rng.chance(0.2) {
                PatternTerm::Const(entity(rng.below(config.entities)))
            } else if rng.chance(0.15) && vars.entity.len() > 1 {
                PatternTerm::Var(vars.pick_entity(rng))
            } else {
                PatternTerm::Var(vars.fresh_entity())
            };
            (PatternTerm::Const(link(rng.below(config.link_preds))), obj)
        } else {
            // Value pattern: `?s <value> ?v` with a numeric object.
            (
                PatternTerm::Const(value_pred),
                PatternTerm::Var(vars.fresh_value()),
            )
        };
        patterns.push(TriplePattern::new(s, p, o));
    }

    let mut pattern = GroupPattern::bgp(patterns);

    if rng.chance(config.p_filter) {
        if !vars.value.is_empty() {
            let v = vars.value[rng.below(vars.value.len())].clone();
            let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Ne][rng.below(5)];
            pattern.filters.push(Expression::Cmp(
                op,
                Box::new(Expression::Var(v)),
                Box::new(Expression::Const(
                    dict.encode(&Term::int(rng.below(50) as i64)),
                )),
            ));
        } else if vars.entity.len() >= 2 {
            let a = vars.entity[0].clone();
            let b = vars.entity[vars.entity.len() - 1].clone();
            pattern.filters.push(Expression::Cmp(
                CmpOp::Ne,
                Box::new(Expression::Var(a)),
                Box::new(Expression::Var(b)),
            ));
        }
    }

    if rng.chance(config.p_optional) {
        let join = vars.pick_entity(rng);
        let obj = if rng.chance(0.3) {
            PatternTerm::Var(vars.fresh_value())
        } else {
            PatternTerm::Var(vars.fresh_entity())
        };
        let p = if matches!(obj, PatternTerm::Var(ref v) if vars.value.contains(v)) {
            value_pred
        } else {
            link(rng.below(config.link_preds))
        };
        pattern
            .optionals
            .push(GroupPattern::bgp(vec![TriplePattern::new(
                PatternTerm::Var(join),
                PatternTerm::Const(p),
                obj,
            )]));
    }

    let mut query = Query::select_all(pattern);
    query.form = QueryForm::Select;
    query.distinct = rng.chance(config.p_distinct);
    if rng.chance(0.3) {
        // Project a nonempty random subset of the pattern variables.
        let all = query.pattern.all_vars();
        let projection: Vec<String> = all.iter().filter(|_| rng.chance(0.5)).cloned().collect();
        if !projection.is_empty() {
            query.projection = projection;
        }
    }
    if rng.chance(config.p_limit) {
        query.limit = Some(1 + rng.below(6));
    }
    query
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_sparql::{parse_query, write_query};

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        for seed in 0..32 {
            let a = Case::generate(seed, &cfg);
            let b = Case::generate(seed, &cfg);
            assert_eq!(a.triples, b.triples, "seed {seed}");
            assert_eq!(a.homes, b.homes, "seed {seed}");
            assert_eq!(a.n_endpoints, b.n_endpoints, "seed {seed}");
            assert_eq!(
                write_query(&a.query, &a.dict),
                write_query(&b.query, &b.dict),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn generated_queries_roundtrip_through_the_parser() {
        let cfg = GenConfig::default();
        for seed in 0..200 {
            let case = Case::generate(seed, &cfg);
            let text = write_query(&case.query, &case.dict);
            let reparsed = parse_query(&text, &case.dict).unwrap_or_else(|e| {
                panic!("seed {seed}: generated query does not parse: {e}\n{text}")
            });
            assert_eq!(case.query, reparsed, "seed {seed}: {text}");
        }
    }

    #[test]
    fn partition_is_by_subject() {
        let cfg = GenConfig::default();
        for seed in 0..64 {
            let case = Case::generate(seed, &cfg);
            let mut home_of: lusail_rdf::FxHashMap<lusail_rdf::TermId, usize> =
                lusail_rdf::FxHashMap::default();
            for (t, &h) in case.triples.iter().zip(&case.homes) {
                let prev = home_of.insert(t.s, h);
                assert!(
                    prev.is_none() || prev == Some(h),
                    "seed {seed}: subject split across endpoints"
                );
            }
        }
    }

    #[test]
    fn straddle_zero_keeps_links_local() {
        let cfg = GenConfig {
            straddle: 0.0,
            ..GenConfig::default()
        };
        // With straddle 0 every *link* object should be homed with its
        // subject whenever a co-located candidate exists; we only assert
        // the aggregate effect: far fewer interlinks than straddle 1.
        let interlinks = |straddle: f64| -> usize {
            let cfg = GenConfig {
                straddle,
                ..cfg.clone()
            };
            (0..40)
                .map(|seed| {
                    let case = Case::generate(seed, &cfg);
                    let mut home_of: lusail_rdf::FxHashMap<lusail_rdf::TermId, usize> =
                        lusail_rdf::FxHashMap::default();
                    for (t, &h) in case.triples.iter().zip(&case.homes) {
                        home_of.insert(t.s, h);
                    }
                    case.triples
                        .iter()
                        .zip(&case.homes)
                        .filter(|(t, &h)| home_of.get(&t.o).is_some_and(|&oh| oh != h))
                        .count()
                })
                .sum()
        };
        assert!(interlinks(0.0) < interlinks(1.0));
    }

    #[test]
    fn replicated_federation_keeps_primary_ids_and_appends_replicas() {
        let case = Case::generate(3, &GenConfig::default());
        let (plain, _) = case.federation(&FaultSpec::default());
        let (fed, locals) =
            case.federation_on(&FaultSpec::default(), lusail_store::BackendKind::Btree, 2);
        assert_eq!(locals.len(), case.n_endpoints);
        assert_eq!(fed.len(), case.n_endpoints * 2);
        assert_eq!(fed.logical_ids(), plain.all_ids());
        for i in 0..case.n_endpoints {
            assert_eq!(fed.endpoint(i).name(), format!("ep{i}"));
            let replica = case.n_endpoints + i;
            assert_eq!(fed.endpoint(replica).name(), format!("ep{i}r1"));
            assert_eq!(fed.primary_of(replica), i);
            assert_eq!(
                fed.endpoint(replica).triple_count(),
                fed.endpoint(i).triple_count()
            );
        }
    }

    #[test]
    fn primary_kill_plans_never_touch_replicas() {
        let mut rng = Rng::new(11);
        for _ in 0..50 {
            let spec = FaultSpec::random_primary_kill(&mut rng, 4, 2);
            assert_eq!(spec.profiles.len(), 8);
            assert!(spec.profiles[..4].iter().any(|p| p.is_some()));
            assert!(spec.profiles[4..].iter().all(|p| p.is_none()));
            assert!(!spec.is_clean());
        }
    }

    #[test]
    fn fault_spec_always_injects_something() {
        let mut rng = Rng::new(7);
        for _ in 0..50 {
            let spec = FaultSpec::random(&mut rng, 4);
            assert!(!spec.is_clean());
            assert_eq!(spec.profiles.len(), 4);
        }
    }
}
