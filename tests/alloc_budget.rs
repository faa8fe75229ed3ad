//! Allocation budgets: a relation lives in one buffer, so building, joining
//! and reshaping it costs a handful of allocations plus buffer doublings —
//! never one per row. Counted, not timed: a counting `#[global_allocator]`
//! (this file is its own test binary), one counter per thread so the tests
//! can run side by side.

use lusail_rdf::{Dictionary, TermId, Triple};
use lusail_sparql::ast::{AggFunc, Aggregate, GroupPattern, PatternTerm, Query, TriplePattern};
use lusail_sparql::SolutionSet;
use lusail_store::eval::{eval_group, evaluate};
use lusail_store::{ColumnStore, StorageBackend, TripleStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter with a const initializer and no destructor, so
// touching it neither allocates nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// A constant for schemas, tables and chains, plus the doublings of a few
/// growing buffers: 77 for 20 000 rows.
fn budget(rows: usize) -> usize {
    32 + 3 * (usize::BITS - rows.leading_zeros()) as usize
}

const ROWS: u32 = 20_000;

/// `ROWS` rows over `vars`: column `c` of row `i` holds `i / (c + 1)`, so
/// later columns repeat and every column joins with its namesake.
fn relation(vars: &[&str]) -> SolutionSet {
    SolutionSet {
        vars: vars.iter().map(|v| v.to_string()).collect(),
        rows: (0..ROWS)
            .map(|i| {
                (0..vars.len() as u32)
                    .map(|c| Some(TermId(i / (c + 1))))
                    .collect()
            })
            .collect(),
    }
}

#[test]
fn hash_join_allocates_per_relation_not_per_row() {
    let a = relation(&["k", "j", "l"]);
    // One shared variable: every key pairs once.
    let b = relation(&["k", "r"]);
    let (n, joined) = allocations(|| a.hash_join(&b));
    assert_eq!(joined.len(), ROWS as usize);
    assert!(n <= budget(joined.len()), "one key: {n} allocations");
    // Two shared variables: a composite key, still never built.
    let b = relation(&["k", "j", "r"]);
    let (n, joined) = allocations(|| a.hash_join(&b));
    assert_eq!(joined.len(), ROWS as usize);
    assert!(n <= budget(joined.len()), "two keys: {n} allocations");
    let (n, joined) = allocations(|| a.left_join(&b));
    assert_eq!(joined.len(), ROWS as usize);
    assert!(n <= budget(joined.len()), "left join: {n} allocations");
}

#[test]
fn reshaping_allocates_per_relation_not_per_row() {
    let s = relation(&["x", "y", "z"]);
    let rows = ROWS as usize;

    let vars = ["z".to_string(), "x".to_string()];
    let (n, projected) = allocations(|| s.clone().into_projected(&vars));
    assert_eq!(projected.len(), rows);
    assert!(n <= budget(rows), "into_projected: {n} allocations");

    let mut duplicated = s.project(&["z".to_string()]);
    let (n, ()) = allocations(|| duplicated.dedup());
    assert_eq!(duplicated.len(), rows.div_ceil(3));
    assert!(n <= budget(rows), "dedup: {n} allocations");

    let vars = ["y".to_string(), "z".to_string()];
    let (n, tuples) = allocations(|| s.distinct_tuples(&vars));
    // A new (i / 2, i / 3) pair starts wherever either quotient steps.
    let pairs = (0..ROWS).filter(|i| i % 2 == 0 || i % 3 == 0).count();
    assert_eq!(tuples.len(), pairs);
    assert!(n <= budget(rows), "distinct_tuples: {n} allocations");
}

/// 12 000 subjects with one `p` and one `q` edge each, on both backends.
fn star_stores() -> (TripleStore, ColumnStore, [TermId; 2]) {
    let dict = Dictionary::shared();
    let mut btree = TripleStore::new(dict);
    let (p, q) = (TermId(1), TermId(2));
    for i in 0..12_000 {
        btree.insert(Triple::new(TermId(10 + i), p, TermId(20_000 + i)));
        btree.insert(Triple::new(TermId(10 + i), q, TermId(40_000 + i % 7)));
    }
    let columns = ColumnStore::from_store(&btree);
    (btree, columns, [p, q])
}

/// `{ ?s<n> p ?o<n> . ?s<n> q ?z<n> }`: 12 000 solutions on a star store.
fn star(n: usize, [p, q]: [TermId; 2]) -> GroupPattern {
    let var = |v: &str| PatternTerm::Var(format!("{v}{n}"));
    GroupPattern::bgp(vec![
        TriplePattern::new(var("s"), PatternTerm::Const(p), var("o")),
        TriplePattern::new(var("s"), PatternTerm::Const(q), var("z")),
    ])
}

#[test]
fn the_collect_sink_allocates_per_relation_not_per_row() {
    let (btree, columns, edges) = star_stores();
    let group = star(0, edges);
    let backends: [(&str, &dyn StorageBackend); 2] = [("btree", &btree), ("columns", &columns)];
    for (kind, store) in backends {
        let (n, sols) = allocations(|| eval_group(store, &group, None));
        assert_eq!((sols.len(), sols.vars.len()), (12_000, 3));
        assert!(n <= budget(sols.len()), "{kind}: {n} allocations");
    }
}

/// A coalesced COUNT probe — plain counts over a `UNION` of branches with
/// variables of their own — counts each branch on the count sink: what it
/// allocates does not depend on how many solutions it counts.
#[test]
fn counts_over_union_branches_allocate_no_row() {
    let (btree, columns, edges) = star_stores();
    let mut query = Query::select_all(GroupPattern::default());
    query
        .pattern
        .unions
        .push(vec![star(0, edges), star(1, edges)]);
    query.aggregates = (0..2)
        .map(|n| Aggregate {
            func: AggFunc::Count,
            var: Some(format!("s{n}")),
            distinct: false,
            alias: format!("c{n}"),
        })
        .collect();
    let backends: [(&str, &dyn StorageBackend); 2] = [("btree", &btree), ("columns", &columns)];
    for (kind, store) in backends {
        let (n, sols) = allocations(|| evaluate(store, &query));
        assert_eq!((sols.len(), sols.vars.len()), (1, 2));
        let counted = store.dict().decode(sols.rows[0][1].expect("a count"));
        assert_eq!(counted.lexical(), "12000");
        assert!(n <= budget(1), "{kind}: {n} allocations");
    }
}
