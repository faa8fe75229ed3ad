//! `lusail-bench` — the counter gate and the paper's figures.
//!
//! ```text
//! lusail-bench counters [--write] [--workload NAME]... [--query NAME]...
//! lusail-bench figures  [NAME]...
//! ```
//!
//! `counters` runs the in-scope lines of `crates/bench/counters.tsv` (see
//! `lusail_bench::counters`) at every thread budget on both storage
//! backends, holds the fresh run to the optimization inequalities and the
//! measured storage-footprint floor, and compares it with the committed
//! file column by column; `--write` regenerates the file instead of
//! comparing. `figures` regenerates the named tables of EXPERIMENTS.md
//! (all of them when none is named) into `results/*.csv`.

use lusail_bench::counters::{self, Scope};
use lusail_bench::figures;
use lusail_benchdata::lubm;
use lusail_rdf::Triple;
use lusail_store::{ColumnStore, TripleStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

/// The committed counter file, next to this crate's manifest.
const COUNTERS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/counters.tsv");

/// The minimum btree/columns resident-byte ratio: the columnar backend
/// must pack at least this many times more triples per resident byte.
const FOOTPRINT_RATIO_FLOOR: f64 = 5.0;

/// A counting wrapper around the system allocator: `LIVE_BYTES` tracks
/// net live heap bytes, so the footprint measurement below can report the
/// *real* allocator delta of building each storage backend instead of
/// trusting the backends' own `resident_bytes` models.
struct CountingAlloc;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live_bytes() -> isize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Measures the real resident heap cost of the two storage backends on a
/// generated ~1M-triple LUBM store (one university, scaled-up
/// departments): the same pre-collected triples are materialized into
/// each backend inside an allocator-delta window. The temporary BTree
/// store the columnar build sorts from is dropped *inside* the columnar
/// window, so that window nets out to the packed columns alone. Fails
/// below [`FOOTPRINT_RATIO_FLOOR`]; returns the printable gate line.
fn check_footprint() -> Result<String, String> {
    let cfg = lubm::LubmConfig {
        departments: 3840,
        ..lubm::LubmConfig::new(1)
    };
    let workload = lubm::generate(&cfg);
    let dict = Arc::clone(workload.oracle.dict());
    let mut triples: Vec<Triple> = Vec::with_capacity(workload.oracle.len());
    workload.oracle.scan(None, None, None, |t| {
        triples.push(t);
        true
    });
    drop(workload);
    let build_btree = || {
        let mut store = TripleStore::new(Arc::clone(&dict));
        for &t in &triples {
            store.insert(t);
        }
        store
    };

    let before = live_bytes();
    let btree = build_btree();
    let btree_bytes = (live_bytes() - before).max(0) as u64;
    drop(btree);

    let before = live_bytes();
    let columns = ColumnStore::from_store(&build_btree());
    let columns_bytes = (live_bytes() - before).max(0) as u64;
    drop(columns);

    let n = triples.len();
    if n == 0 || columns_bytes == 0 {
        return Err("footprint: measured an empty store".into());
    }
    let ratio = btree_bytes as f64 / columns_bytes as f64;
    if ratio < FOOTPRINT_RATIO_FLOOR {
        return Err(format!(
            "footprint: columns holds only {ratio:.2}x more triples per resident byte \
             than btree (floor {FOOTPRINT_RATIO_FLOOR}x) — {btree_bytes} vs {columns_bytes} \
             bytes for {n} triples"
        ));
    }
    Ok(format!(
        "footprint: {n} triples, btree {btree_bytes} B ({:.1} B/triple), columns \
         {columns_bytes} B ({:.1} B/triple), ratio {ratio:.1}x >= {FOOTPRINT_RATIO_FLOOR}x",
        btree_bytes as f64 / n as f64,
        columns_bytes as f64 / n as f64,
    ))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: lusail-bench counters [--write] [--workload NAME]... [--query NAME]...\n\
         \x20      lusail-bench figures [NAME]...   (names: {})",
        figures::names().join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("counters") => {
            let mut write = false;
            let mut scope = Scope::default();
            while let Some(arg) = args.next() {
                let filter = match arg.as_str() {
                    "--write" => {
                        write = true;
                        continue;
                    }
                    "--workload" => &mut scope.workloads,
                    "--query" => &mut scope.queries,
                    _ => return usage(),
                };
                match args.next() {
                    Some(name) => filter.push(name),
                    None => return usage(),
                }
            }
            cmd_counters(&scope, write)
        }
        Some("figures") => {
            let wanted: Vec<String> = args.collect();
            match figures::run(&wanted) {
                Ok(()) => ExitCode::SUCCESS,
                Err(unknown) => {
                    eprintln!("unknown figure {unknown}");
                    usage()
                }
            }
        }
        _ => usage(),
    }
}

fn cmd_counters(scope: &Scope, write: bool) -> ExitCode {
    let full = scope.workloads.is_empty() && scope.queries.is_empty();
    if write && !full {
        eprintln!("--write regenerates the whole file: drop --workload/--query");
        return ExitCode::from(2);
    }
    let (fresh, twins) = counters::run(scope);
    if fresh.is_empty() {
        eprintln!("no line in scope: nothing to compare");
        return ExitCode::from(2);
    }
    println!(
        "{} line(s) run at threads {{1, 4}} x backends {{btree, columns}}",
        fresh.len()
    );
    let mut failures: Vec<String> = twins
        .iter()
        .map(|m| format!("thread/backend invariance: {m}"))
        .collect();
    let gates = counters::check_inequalities(&fresh, scope).and_then(|mut lines| {
        lines.push(check_footprint()?);
        Ok(lines)
    });
    match gates {
        Ok(lines) => lines.iter().for_each(|l| println!("gate ok: {l}")),
        Err(e) => failures.push(format!("regression gate: {e}")),
    }
    if !write {
        let committed = std::fs::read_to_string(COUNTERS_PATH)
            .map_err(|e| e.to_string())
            .and_then(|text| counters::parse(&text).map_err(|e| e.to_string()));
        match committed {
            Ok(mut committed) => {
                committed.retain(|l| scope.contains(l));
                let drift = counters::diff(&committed, &fresh);
                failures.extend(drift.iter().map(|m| format!("counters check: {m}")));
            }
            Err(e) => failures.push(format!("{COUNTERS_PATH}: {e}")),
        }
    } else if failures.is_empty() {
        match std::fs::write(COUNTERS_PATH, counters::render(&fresh)) {
            Ok(()) => println!("wrote {COUNTERS_PATH}"),
            Err(e) => failures.push(format!("cannot write {COUNTERS_PATH}: {e}")),
        }
    }
    for failure in &failures {
        eprintln!("FAILED {failure}");
    }
    if !failures.is_empty() {
        return ExitCode::FAILURE;
    }
    if !write {
        println!(
            "counters check ok: {} line(s) reproduced exactly",
            fresh.len()
        );
    }
    ExitCode::SUCCESS
}
