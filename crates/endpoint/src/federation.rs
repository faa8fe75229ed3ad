//! A federation: the named set of endpoints a query runs against.

use crate::network::StatsSnapshot;
use crate::EndpointRef;
use lusail_rdf::Dictionary;
use lusail_store::EndpointStats;
use std::sync::{Arc, Mutex};

/// Index of an endpoint within a [`Federation`]. Engines carry endpoint
/// sets as sorted `Vec<EndpointId>`.
pub type EndpointId = usize;

/// An ordered collection of SPARQL endpoints sharing one term dictionary.
///
/// Endpoints are organized into *replica groups*: a group is one logical
/// partition served by a primary plus zero or more replicas holding the
/// same data. [`Federation::add`] creates a singleton group (the endpoint
/// is its own primary); [`Federation::add_replica`] joins an existing
/// group. `add` refuses a primary once any replica is in, so primaries
/// hold ids `0..n` and a federation with replication factor 1 is
/// id-for-id identical to an unreplicated one.
#[derive(Clone)]
pub struct Federation {
    dict: Arc<Dictionary>,
    endpoints: Vec<EndpointRef>,
    /// `group_of[id]` is the id of the group's primary; an endpoint is a
    /// primary iff `group_of[id] == id`.
    group_of: Vec<EndpointId>,
    /// Optional offline statistics per endpoint, indexed by endpoint id
    /// and shared across clones (so an engine invalidating an entry after
    /// an endpoint death is seen by every holder of the federation).
    stats: Arc<Mutex<Vec<Option<Arc<EndpointStats>>>>>,
}

impl Federation {
    /// Creates an empty federation over the given dictionary.
    pub fn new(dict: Arc<Dictionary>) -> Self {
        Federation {
            dict,
            endpoints: Vec::new(),
            group_of: Vec::new(),
            stats: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The shared dictionary.
    pub fn dict(&self) -> &Arc<Dictionary> {
        &self.dict
    }

    /// Adds an endpoint as the primary of a new singleton replica group,
    /// returning its id.
    ///
    /// # Panics
    ///
    /// Panics once any replica has been added: primaries come first, so
    /// their ids do not depend on replication.
    pub fn add(&mut self, ep: EndpointRef) -> EndpointId {
        if let Some(last) = self.endpoints.len().checked_sub(1) {
            // Replicas only follow primaries, so the last endpoint is a
            // replica iff any is.
            assert_eq!(
                self.group_of[last], last,
                "primaries are added before any replica"
            );
        }
        self.endpoints.push(ep);
        let id = self.endpoints.len() - 1;
        self.group_of.push(id);
        id
    }

    /// Adds an endpoint as a replica of the given primary's group,
    /// returning the replica's id. The replica must serve the same logical
    /// partition as the primary (the caller's responsibility).
    ///
    /// # Panics
    ///
    /// Panics if `primary` is out of range or is itself a replica
    /// (replica groups are one level deep).
    pub fn add_replica(&mut self, primary: EndpointId, ep: EndpointRef) -> EndpointId {
        assert!(primary < self.endpoints.len(), "unknown primary {primary}");
        assert_eq!(
            self.group_of[primary], primary,
            "primary {primary} is itself a replica"
        );
        self.endpoints.push(ep);
        let id = self.endpoints.len() - 1;
        self.group_of.push(primary);
        id
    }

    /// The id of the primary of the endpoint's replica group (the
    /// endpoint itself when it is a primary).
    pub fn primary_of(&self, id: EndpointId) -> EndpointId {
        self.group_of[id]
    }

    /// All members of the endpoint's replica group, in id order (the
    /// primary first, since replicas are always added after it).
    pub(crate) fn replica_group(&self, id: EndpointId) -> Vec<EndpointId> {
        let primary = self.group_of[id];
        (0..self.endpoints.len())
            .filter(|&i| self.group_of[i] == primary)
            .collect()
    }

    /// Ids of all primaries — one per logical partition. Source selection
    /// probes these and only these: probing replicas as independent
    /// sources would duplicate every result row.
    pub fn logical_ids(&self) -> Vec<EndpointId> {
        (0..self.endpoints.len())
            .filter(|&i| self.group_of[i] == i)
            .collect()
    }

    /// Number of endpoints.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// True if the federation has no endpoints.
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// The endpoint with the given id. Panics on out-of-range ids (ids are
    /// only produced by [`Federation::add`]).
    pub fn endpoint(&self, id: EndpointId) -> &EndpointRef {
        &self.endpoints[id]
    }

    /// Looks an endpoint up by name.
    pub fn endpoint_by_name(&self, name: &str) -> Option<(EndpointId, &EndpointRef)> {
        self.endpoints
            .iter()
            .enumerate()
            .find(|(_, ep)| ep.name() == name)
    }

    /// Iterates over `(id, endpoint)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (EndpointId, &EndpointRef)> {
        self.endpoints.iter().enumerate()
    }

    /// All endpoint ids.
    pub fn all_ids(&self) -> Vec<EndpointId> {
        (0..self.endpoints.len()).collect()
    }

    /// Sum of all endpoints' counters (snapshot).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.endpoints
            .iter()
            .map(|ep| ep.stats_snapshot())
            .fold(StatsSnapshot::default(), |acc, s| acc.plus(&s))
    }

    /// Total triples across the federation.
    pub fn total_triples(&self) -> usize {
        self.endpoints.iter().map(|ep| ep.triple_count()).sum()
    }

    /// Attaches offline statistics for the endpoint. Statistics are an
    /// optional planning layer: engines that consult them may answer
    /// relevance/cardinality probes locally, but a conclusive local
    /// answer must equal the wire answer (see `lusail_store::stats`).
    /// Takes `&self` — the layer is interior-mutable and shared across
    /// clones, like the endpoints' own counters.
    pub fn attach_stats(&self, id: EndpointId, stats: Arc<EndpointStats>) {
        assert!(id < self.endpoints.len(), "unknown endpoint {id}");
        let mut slots = self.stats.lock().expect("stats lock poisoned");
        if slots.len() < self.endpoints.len() {
            slots.resize(self.endpoints.len(), None);
        }
        slots[id] = Some(stats);
    }

    /// The statistics attached for the endpoint, if any.
    pub fn stats_for(&self, id: EndpointId) -> Option<Arc<EndpointStats>> {
        self.stats
            .lock()
            .expect("stats lock poisoned")
            .get(id)
            .cloned()
            .flatten()
    }

    /// Drops the endpoint's statistics (mirroring probe-cache
    /// invalidation: once an endpoint is observed dead, requests fail
    /// over to replicas whose data may have diverged, so summaries of the
    /// dead member's store must stop answering conclusively).
    pub fn invalidate_stats(&self, id: EndpointId) {
        let mut slots = self.stats.lock().expect("stats lock poisoned");
        if let Some(slot) = slots.get_mut(id) {
            *slot = None;
        }
    }

    /// `(endpoints with stats, total characteristic sets)` — `None` when
    /// no endpoint carries statistics (the default).
    pub fn stats_overview(&self) -> Option<(usize, usize)> {
        let slots = self.stats.lock().expect("stats lock poisoned");
        let endpoints = slots.iter().filter(|s| s.is_some()).count();
        if endpoints == 0 {
            return None;
        }
        let sets = slots.iter().flatten().map(|s| s.sets.len()).sum();
        Some((endpoints, sets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalEndpoint;
    use lusail_rdf::Term;
    use lusail_sparql::parse_query;
    use lusail_store::TripleStore;

    fn fed() -> Federation {
        let dict = Dictionary::shared();
        let mut st1 = TripleStore::new(Arc::clone(&dict));
        st1.insert_terms(
            &Term::iri("http://a/s"),
            &Term::iri("http://a/p"),
            &Term::iri("http://a/o"),
        );
        let mut st2 = TripleStore::new(Arc::clone(&dict));
        st2.insert_terms(
            &Term::iri("http://b/s"),
            &Term::iri("http://b/p"),
            &Term::iri("http://b/o"),
        );
        let mut f = Federation::new(Arc::clone(&dict));
        f.add(Arc::new(LocalEndpoint::new("A", st1)));
        f.add(Arc::new(LocalEndpoint::new("B", st2)));
        f
    }

    #[test]
    fn lookup_by_name_and_id() {
        let f = fed();
        assert_eq!(f.len(), 2);
        let (id, ep) = f.endpoint_by_name("B").unwrap();
        assert_eq!(id, 1);
        assert_eq!(ep.name(), "B");
        assert_eq!(f.endpoint(0).name(), "A");
        assert!(f.endpoint_by_name("C").is_none());
    }

    #[test]
    fn ask_routes_to_the_right_store() {
        let f = fed();
        let q = parse_query("ASK { ?s <http://a/p> ?o }", f.dict()).unwrap();
        assert!(f.endpoint(0).ask(&q).unwrap());
        assert!(!f.endpoint(1).ask(&q).unwrap());
    }

    #[test]
    fn stats_aggregate_across_endpoints() {
        let f = fed();
        let before = f.stats_snapshot();
        let q = parse_query("SELECT * WHERE { ?s ?p ?o }", f.dict()).unwrap();
        let r0 = f.endpoint(0).select(&q).unwrap();
        let r1 = f.endpoint(1).select(&q).unwrap();
        assert_eq!(r0.len(), 1);
        assert_eq!(r1.len(), 1);
        let window = f.stats_snapshot().since(&before);
        assert_eq!(window.select_requests, 2);
        assert_eq!(window.rows_returned, 2);
        assert!(window.bytes_sent > 0);
    }

    #[test]
    fn total_triples_sums_endpoints() {
        assert_eq!(fed().total_triples(), 2);
    }

    #[test]
    fn replica_groups_track_primaries() {
        let dict = Dictionary::shared();
        let mut f = Federation::new(Arc::clone(&dict));
        let store = || TripleStore::new(Arc::clone(&dict));
        let a = f.add(Arc::new(LocalEndpoint::new("A", store())));
        let b = f.add(Arc::new(LocalEndpoint::new("B", store())));
        let a2 = f.add_replica(a, Arc::new(LocalEndpoint::new("A-replica", store())));
        assert_eq!(f.primary_of(a2), a);
        assert_eq!(f.primary_of(a), a);
        assert_eq!(f.replica_group(a), vec![a, a2]);
        assert_eq!(f.replica_group(a2), vec![a, a2]);
        assert_eq!(f.replica_group(b), vec![b]);
        assert_eq!(f.logical_ids(), vec![a, b]);
        assert_eq!(f.all_ids(), vec![a, b, a2]);
    }

    #[test]
    #[should_panic(expected = "is itself a replica")]
    fn replica_of_a_replica_is_rejected() {
        let dict = Dictionary::shared();
        let mut f = Federation::new(Arc::clone(&dict));
        let store = || TripleStore::new(Arc::clone(&dict));
        let a = f.add(Arc::new(LocalEndpoint::new("A", store())));
        let r = f.add_replica(a, Arc::new(LocalEndpoint::new("R", store())));
        f.add_replica(r, Arc::new(LocalEndpoint::new("R2", store())));
    }

    #[test]
    #[should_panic(expected = "primaries are added before any replica")]
    fn primary_after_a_replica_is_rejected() {
        let dict = Dictionary::shared();
        let mut f = Federation::new(Arc::clone(&dict));
        let store = || TripleStore::new(Arc::clone(&dict));
        let a = f.add(Arc::new(LocalEndpoint::new("A", store())));
        f.add_replica(a, Arc::new(LocalEndpoint::new("A-replica", store())));
        f.add(Arc::new(LocalEndpoint::new("B", store())));
    }

    #[test]
    fn stats_attach_lookup_invalidate_shared_across_clones() {
        let f = fed();
        assert!(f.stats_for(0).is_none());
        assert!(f.stats_overview().is_none());

        let mut st = TripleStore::new(Arc::clone(f.dict()));
        st.insert_terms(
            &Term::iri("http://a/s"),
            &Term::iri("http://a/p"),
            &Term::iri("http://a/o"),
        );
        let stats = Arc::new(EndpointStats::build(&st));
        f.attach_stats(0, Arc::clone(&stats));
        assert!(f.stats_for(0).is_some());
        assert!(f.stats_for(1).is_none());
        assert_eq!(f.stats_overview(), Some((1, 1)));

        // Clones see attachments and invalidations made through any holder.
        let clone = f.clone();
        assert!(clone.stats_for(0).is_some());
        clone.invalidate_stats(0);
        assert!(f.stats_for(0).is_none());
        assert!(f.stats_overview().is_none());
        // Invalidating an id without stats (or out of range) is a no-op.
        f.invalidate_stats(1);
        f.invalidate_stats(99);
    }
}
