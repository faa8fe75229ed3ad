#!/usr/bin/env bash
# Full local verification: everything CI would ask, in dependency order.
# A 30-second-capped fuzz smoke run rides along; hitting the cap counts
# as success (the cap exists to bound verify time, not coverage).
set -euo pipefail
cd "$(dirname "$0")/.."

# The root manifest's `default-members` makes the bare commands cover the
# whole workspace (root package and every crate under crates/).
echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

# A doc link to a private, missing or ambiguous item fails here.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> one probe path (memo -> statistics -> wire -> degrade, and the coalesced wire form, are written in crates/core/src/probe.rs only; two planning waves)"
# Non-test code is everything above a file's `#[cfg(test)]` module.
scattered=0
for f in crates/core/src/*.rs crates/baselines/src/*.rs; do
    if grep -q 'KeyedCache' "$f"; then
        echo "$f: KeyedCache is back (the check memo is a ProbeCache)" >&2
        scattered=1
    fi
    [ "$f" = crates/core/src/probe.rs ] && continue
    code=$(sed '/#\[cfg(test)\]/,$d' "$f" | tr '\n' ' ')
    if grep -q 'stats_for(' <<<"$code"; then
        echo "$f: consults statistics outside probe::resolve" >&2
        scattered=1
    fi
    if grep -Eq 'request_kind\([^|]*RequestKind::(Ask|Count|Check)' <<<"$code"; then
        echo "$f: sends a probe outside crates/core/src/probe.rs" >&2
        scattered=1
    fi
    # `.count()` with no argument is the iterator's.
    if grep -Eq '\.ask\(|\.count\([^)]' <<<"$code"; then
        echo "$f: calls ask/count on an endpoint outside crates/core/src/probe.rs" >&2
        scattered=1
    fi
    if grep -Eq 'ExistsTest|\.exists\.push' <<<"$code"; then
        echo "$f: builds a coalesced probe query outside probe::coalesced" >&2
        scattered=1
    fi
done
# Coalesced probes travel through `SparqlEndpoint::select` so that the trait
# stays what the frozen benchmark's `TimedEndpoint` implements: a method it
# lacks (a defaulted one would still compile) would run unmeasured.
for method in $(sed -n '/^pub trait SparqlEndpoint/,/^}/p' crates/endpoint/src/lib.rs | grep -o 'fn [a-z_]*' | cut -d' ' -f2); do
    if ! grep -q "fn $method(" benchmark/src/timed.rs; then
        echo "crates/endpoint/src/lib.rs: SparqlEndpoint::$method is not implemented by benchmark/src/timed.rs" >&2
        scattered=1
    fi
done
# Fewer planning waves: Lusail's source-selection COUNTs are also the cost
# model's cardinalities (cost.rs sends nothing and keeps no memo; there is
# no ASK memo or COUNT fallback counter beside them), and a block's check
# queries are resolved in one call, after every variable's checks are built.
gjv_code=$(sed '/#\[cfg(test)\]/,$d' crates/core/src/gjv.rs | grep -v '^ *//')
resolves=$(grep -c 'probe::resolve' <<<"$gjv_code" || true)
if [ "$resolves" -ne 1 ] || grep -q '^     .*probe::resolve' <<<"$gjv_code"; then
    echo "crates/core/src/gjv.rs: probe::resolve is called $resolves time(s) or inside a loop (a block's checks travel in one wave)" >&2
    scattered=1
fi
if sed '/#\[cfg(test)\]/,$d' crates/core/src/cost.rs | grep -v '^ *//' | grep -Eq 'probe::resolve|ProbeCache'; then
    echo "crates/core/src/cost.rs: the cost model probes again (it reads source selection's counts off the SourceMap)" >&2
    scattered=1
fi
if sed -n '/^pub struct ProbeCaches/,/^}/p' crates/core/src/cache.rs | grep -q 'pub ask:'; then
    echo "crates/core/src/cache.rs: ProbeCaches has an ask memo again (Lusail's source selection counts)" >&2
    scattered=1
fi
if grep -rqE 'counts_defaulted|degraded_count_probes' crates; then
    echo "crates/: a COUNT-fallback counter is back (a failed source-selection COUNT counts in degraded_ask_probes)" >&2
    scattered=1
fi
[ "$scattered" -eq 0 ]

echo "==> one fetch path (dispatch -> failover -> lose -> concatenate is written in crates/core/src/fetch.rs only)"
scattered=0
for f in crates/core/src/*.rs crates/baselines/src/*.rs; do
    if grep -Eq 'FilterTarget|struct Unit|ExecConfig' "$f"; then
        echo "$f: a second work-unit type or executor config is back (Subquery and LusailConfig are the only ones)" >&2
        scattered=1
    fi
    [ "$f" = crates/core/src/fetch.rs ] && continue
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -q 'select_failover('; then
        echo "$f: runs a data-bearing SELECT outside fetch::fetch" >&2
        scattered=1
    fi
done
if grep -q 'AtomicBool' crates/baselines/src/*.rs; then
    echo "crates/baselines/src: a loss flag beside net.degradation is back" >&2
    scattered=1
fi
[ "$scattered" -eq 0 ]

echo "==> one differential relation (an oracle axis is a row of AXES in crates/testkit/src/diff.rs, not a function)"
scattered=0
if grep -Eq 'pub fn check_(stats|backends|tuned|replicated)' crates/testkit/src/diff.rs; then
    echo "crates/testkit/src/diff.rs: a per-axis checker is back (add an Axis row; observe takes a Setup)" >&2
    scattered=1
fi
if grep -E '^    [A-Za-z]*(Divergence|Regression)\b' crates/testkit/src/diff.rs | grep -qv '^    Divergence {'; then
    echo "crates/testkit/src/diff.rs: Violation has a second divergence variant beside Divergence" >&2
    scattered=1
fi
if grep -q 'assert_eq!' tests/thread_invariance.rs || ! grep -q 'Axis::named("threads")' tests/thread_invariance.rs; then
    echo "tests/thread_invariance.rs: compares observations itself instead of running the threads row" >&2
    scattered=1
fi
if grep -Eq 'struct Relation|\bpartitions:' crates/core/src/*.rs; then
    echo "crates/core/src: the per-relation partition count is back (mediator joins are sequential: threads = 1)" >&2
    scattered=1
fi
[ "$scattered" -eq 0 ]

echo "==> one request ledger per query (QueryMetrics windows the query's own client, not federation-wide counters)"
scattered=0
for f in crates/core/src/*.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -q 'stats_snapshot('; then
        echo "$f: reads federation-wide counters (a query's requests are windows of net.client.requests())" >&2
        scattered=1
    fi
done
if grep -rq 'wire_attempts(' crates; then
    echo "crates/: wire_attempts( is back (ResilientClient::requests is the one per-kind counter)" >&2
    scattered=1
fi
if grep -q 'check_queries +=' crates/core/src/gjv.rs; then
    echo "crates/core/src/gjv.rs: counts check queries itself (check_queries is requests_analysis.get(Check))" >&2
    scattered=1
fi
[ "$scattered" -eq 0 ]

echo "==> no superseded path is back (one BGP order, one VALUES sizing, two gated configurations, one COUNT form, one FedX, one subject lookup, one term count, one statistics builder, every setting has a caller, one probe description)"
scattered=0
total=0
non_test=0
while IFS= read -r f; do
    # Non-test code is everything above a file's `#[cfg(test)]` module; the
    # two files that are a test module by themselves have none.
    case "$f" in
    crates/server/src/tests.rs | crates/sparql/src/solution/reference_tests.rs) code="" ;;
    *) code=$(sed '/#\[cfg(test)\]/,$d' "$f") ;;
    esac
    # Settings nothing outside their own tests set, and the report fields
    # nothing read, are deleted too: hedging, the slowdown / timeout fault
    # modes, the 429 error kind, the last-error field, the baselines'
    # config structs, per-tenant overrides and the builder's network profile.
    # SAPE's schedule is planned: no run-time promotion event, no cost
    # arrays beside the subqueries, no delay flag a reason already implies.
    # An engine has no clock of its own: queries run on the federation's.
    hit=$(grep -Eo 'set_reorder|reorder_enabled|adaptive_values|CountStar|count_star_as_aggregate|struct HiBisCus|fn predicate_stats|fn distinct_subjects|fn distinct_objects|struct PredicateStats|struct VoidDescription|fn preprocessing_time|hedge_threshold|last_latency|Hedged|timeout_rate|slowdown_rate|slowdowns_injected|TooManyRequests|last_error|struct FedXConfig|struct SplendidConfig|fn with_config|fn is_replicated|fn policy_for|fn profile\(|SubqueryPromoted|struct SubqueryCosts|fn delayed_without_reason|MissingDelayReason|fn row_bounds|fn timing_clock' <<<"$code" | sort -u | tr '\n' ' ' || true)
    if [ -n "$hit" ]; then
        echo "$f: a deleted path or its switch is back: $hit" >&2
        scattered=1
    fi
    total=$((total + $(wc -l <"$f")))
    if [ -n "$code" ]; then non_test=$((non_test + $(wc -l <<<"$code"))); fi
done < <(find crates -name '*.rs' | sort)
if grep -q $'\tbaseline\t' crates/bench/counters.tsv; then
    echo "crates/bench/counters.tsv: a baseline line is back (the gate has two configurations: optimized, stats)" >&2
    scattered=1
fi
# A subject's run is a rank in the subject directory, not a search.
if sed -n '/    fn subject_run(/,/^    }$/p' crates/store/src/columns.rs | grep -q 'partition_point'; then
    echo "crates/store/src/columns.rs: subject_run searches the subjects column again (it ranks in the directory)" >&2
    scattered=1
fi
# The storage contract is scans, estimates and accounting: eight methods.
# Per-predicate statistics come from EndpointStats::build, not the backends.
methods=$(sed -n '/^pub trait StorageBackend/,/^}/p' crates/store/src/backend.rs | grep -c '^    fn ' || true)
if [ "$methods" -ne 8 ]; then
    echo "crates/store/src/backend.rs: trait StorageBackend declares $methods methods, not 8" >&2
    scattered=1
fi
# The baselines' offline indexes are one uncharged for_each_spo pass each.
for f in crates/baselines/src/hibiscus.rs crates/baselines/src/splendid.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -q '\.scan('; then
        echo "$f: builds its index with charged scans (use the store's for_each_spo)" >&2
        scattered=1
    fi
done
# Request bytes count a term by Term::wire_len; only the String sink formats it.
counting_sink=$(sed -n '/^impl Sink for ByteCount/,/^}$/p' crates/sparql/src/writer.rs)
if [ -z "$counting_sink" ] || grep -Eq 'write!|Display|to_string|format!' <<<"$counting_sink"; then
    echo "crates/sparql/src/writer.rs: the counting sink formats terms (or is gone) instead of adding Term::wire_len" >&2
    scattered=1
fi
# A probe is described once, by its Member (its kind's transport is checked
# by the "one query driver" stanza below).
if grep -q 'fn on_wire' crates/core/src/probe.rs; then
    echo "crates/core/src/probe.rs: fn on_wire is back (both transports encode a probe's Member)" >&2
    scattered=1
fi
if sed -n '/^pub const AXES/,/^];/p' crates/testkit/src/diff.rs | grep -q 'name: "coalesce"'; then
    echo "crates/testkit/src/diff.rs: AXES has a coalesce row again (there is no switch to compare)" >&2
    scattered=1
fi
if grep -Eq 'pub fn request<|pub fn select\(' crates/endpoint/src/resilience.rs; then
    echo "crates/endpoint/src/resilience.rs: a request / select shorthand is back (use request_kind or select_failover)" >&2
    scattered=1
fi
[ "$scattered" -eq 0 ]
# Informative, no ceiling: ROADMAP item 12 (line budget) tracks this figure.
echo "crates/: $total lines of .rs, $non_test of them non-test"

echo "==> one access path per pattern (a backend decides a pattern's index run in range / run only; one SplitMix64; no wire-side shed counter)"
scattered=0
for f in crates/store/src/store.rs crates/store/src/columns.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -qF '(Some(s), Some(p), Some(o))'; then
        echo "$f: a per-shape match is back (scan and estimate read the one access path)" >&2
        scattered=1
    fi
done
if grep -q 'fn contains' crates/store/src/columns.rs; then
    echo "crates/store/src/columns.rs: fn contains is back (membership is a fully-bound run's length)" >&2
    scattered=1
fi
# The /stats body keeps its `queries_shed:` line, read from the server's
# own rejection counters; nothing else under crates/ names it.
stray=$(grep -rnF 'queries_shed' crates | grep -vF 'queries_shed: {}\n' || true)
if [ -n "$stray" ]; then
    echo "crates/: queries_shed is back outside the /stats body (rejections are QueryServer::counters):" >&2
    echo "$stray" >&2
    scattered=1
fi
copies=$(grep -rlF '0x9E37_79B9_7F4A_7C15' crates | wc -l)
if [ "$copies" -gt 1 ]; then
    echo "crates/: the SplitMix64 increment is in $copies files (lusail_rdf::SplitMix64 is the one generator)" >&2
    scattered=1
fi
[ "$scattered" -eq 0 ]

echo "==> one thread per connection (the HTTP front end has no readiness loop: no self-pipe, completion channel, spinning writer or per-request dispatch)"
scattered=0
http_code=$(sed '/#\[cfg(test)\]/,$d' crates/server/src/http.rs)
for name in UnixStream mpsc write_all_spinning 'fn dispatch_buffered'; do
    if grep -qF "$name" <<<"$http_code"; then
        echo "crates/server/src/http.rs: $name is back (a scoped thread serves each connection with blocking I/O)" >&2
        scattered=1
    fi
done
[ "$scattered" -eq 0 ]

echo "==> one description of a check probe (a CheckQuery is its variable and a typed CheckKey: no SELECT, string signature or shape re-recognizer)"
scattered=0
gjv_code=$(sed '/#\[cfg(test)\]/,$d' crates/core/src/gjv.rs | grep -v '^ *//')
if grep -q 'fn write_query_for_sig' <<<"$gjv_code"; then
    echo "crates/core/src/gjv.rs: fn write_query_for_sig is back (a check's memo key is its CheckKey)" >&2
    scattered=1
fi
if grep -Eq '^ *(pub(\(crate\))? )?sig:' <<<"$gjv_code"; then
    echo "crates/core/src/gjv.rs: a sig field is back (a check's memo key is its CheckKey)" >&2
    scattered=1
fi
if grep -Eq 'Query::select|limit: Some\(1\)' <<<"$gjv_code"; then
    echo "crates/core/src/gjv.rs: builds a Query for a check (the wire sends CheckQuery::group)" >&2
    scattered=1
fi
if grep -Eq 'fn stats_check_answer\([^)]*&Query\b' <<<"$(tr '\n' ' ' <<<"$gjv_code")"; then
    echo "crates/core/src/gjv.rs: stats_check_answer takes a &Query again (it reads the typed CheckQuery)" >&2
    scattered=1
fi
# Here-strings, not pipes: `grep -q` exiting early would fail the writer
# under pipefail and hide the match.
for f in crates/core/src/*.rs; do
    if grep -q 'ProbeCache<String' <<<"$(sed '/#\[cfg(test)\]/,$d' "$f")"; then
        echo "$f: a ProbeCache keyed by String is back (the check memo is keyed by CheckKey)" >&2
        scattered=1
    fi
done
[ "$scattered" -eq 0 ]

echo "==> one way to assemble a federation (Federation::new + add / add_replica; LocalEndpoint::new / on_backend; one entry point per baseline engine)"
scattered=0
# Here-strings, not pipes (see the stanza above).
while IFS= read -r f; do
    if grep -Eq 'FederationBuilder|Federation::builder' <<<"$(sed '/#\[cfg(test)\]/,$d' "$f")"; then
        echo "$f: the federation builder is back (assemble with Federation::new + add / add_replica)" >&2
        scattered=1
    fi
done < <(find crates src -name '*.rs' -not -path crates/server/src/tests.rs | sort)
if grep -Eq 'fn with_profile|fn with_backend' <<<"$(sed '/#\[cfg(test)\]/,$d' crates/endpoint/src/lib.rs)"; then
    echo "crates/endpoint/src/lib.rs: a third LocalEndpoint constructor is back (new and on_backend are the two)" >&2
    scattered=1
fi
for f in crates/baselines/src/fedx.rs crates/baselines/src/splendid.rs; do
    if grep -Eq 'pub fn execute(_with)?\(' <<<"$(sed '/#\[cfg(test)\]/,$d' "$f")"; then
        echo "$f: an execute / execute_with method is back (FederatedEngine::run_with is the entry point)" >&2
        scattered=1
    fi
done
[ "$scattered" -eq 0 ]

echo "==> one source, no check (a joined pair whose patterns share their one relevant source is local: Lusail's qfed and bio2rdf lines of crates/bench/counters.tsv send no check query)"
# Every qfed and bio2rdf source is the single authority for its predicates,
# so each pair LADE could check there has one common source. Here-strings,
# not pipes (see the stanzas above).
tsv=$(cat crates/bench/counters.tsv)
col=$(awk -F'\t' '$1 == "workload" { for (i = 1; i <= NF; i++) if ($i == "check_queries") print i }' <<<"$tsv")
single=$(awk -F'\t' '$3 == "Lusail" && ($1 == "qfed" || $1 == "bio2rdf")' <<<"$tsv")
checked=$(awk -F'\t' -v c="$col" '$c != 0 { print $1 "/" $2 "/" $3 "/" $4 ": " $c " check queries" }' <<<"$single")
if [ -z "$col" ] || [ -z "$single" ] || [ -n "$checked" ]; then
    echo "crates/bench/counters.tsv: Lusail checks a single-source pair (or the check_queries column or the Lusail qfed/bio2rdf lines are missing):" >&2
    echo "$checked" >&2
    exit 1
fi

echo "==> one query driver (every engine builds, bounds and finishes a query in lusail_core::exec::run_query; the deadline lives in ExecOptions; a probe's transport is its kind's)"
scattered=0
# Here-strings, not pipes (see the stanzas above).
for f in crates/baselines/src/*.rs; do
    if grep -q 'fn run_query' <<<"$(sed '/#\[cfg(test)\]/,$d' "$f")"; then
        echo "$f: a baseline query driver is back (the baselines run through exec::run_query)" >&2
        scattered=1
    fi
done
stray=$(grep -rlF 'query_budget' crates src tests || true)
if [ -n "$stray" ]; then
    echo "query_budget is back (the query deadline is ExecOptions::deadline, handed to the client):" $stray >&2
    scattered=1
fi
stray=$(grep -rlE 'coalesce_probes|fn coalescing' crates src tests examples || true)
if [ -n "$stray" ]; then
    echo "a probe-transport switch is back (Ask travels alone, Count and Check coalesced):" $stray >&2
    scattered=1
fi
if grep -q 'fn fresh_net' crates/core/src/engine.rs; then
    echo "crates/core/src/engine.rs: fn fresh_net is back (Net::for_query is the one constructor)" >&2
    scattered=1
fi
stray=$(grep -rlF 'enum Delivery' crates/server || true)
if [ -n "$stray" ]; then
    echo "a second batch outcome enum is back (the scheduler delivers BatchOutcome):" $stray >&2
    scattered=1
fi
[ "$scattered" -eq 0 ]

echo "==> one engine roster (lusail_baselines::EngineKind names and builds the four engines; FederatedEngine is run_with only; no per-request deadline or cache switch)"
scattered=0
# Here-strings, not pipes (see the stanzas above).
stray=$(grep -rlF --include='*.rs' 'enum EngineKind' crates src tests examples | grep -v '^crates/baselines/' || true)
if [ -n "$stray" ]; then
    echo "a second engine roster is declared (lusail_baselines::EngineKind is the one):" $stray >&2
    scattered=1
fi
stray=$(grep -rlE 'const ENGINES|fn build_engine' crates/bench || true)
if [ -n "$stray" ]; then
    echo "the bench keeps its own roster again (iterate EngineKind::ALL, build with EngineKind::build):" $stray >&2
    scattered=1
fi
if grep -Eq 'fn engine_name|fn reset' <<<"$(cat crates/endpoint/src/lib.rs)"; then
    echo "crates/endpoint/src/lib.rs: FederatedEngine names or resets itself again (EngineKind::name names; a fresh engine or clear_caches resets)" >&2
    scattered=1
fi
stray=$(grep -rlF 'use_cache' crates src tests examples || true)
if [ -n "$stray" ]; then
    echo "a probe-cache switch is back (a cold run uses a fresh engine or clear_caches):" $stray >&2
    scattered=1
fi
if grep -Eq '^ *(pub )?deadline:' <<<"$(sed -n '/^pub struct RequestPolicy/,/^}/p' crates/endpoint/src/resilience.rs)"; then
    echo "crates/endpoint/src/resilience.rs: RequestPolicy has a per-request deadline again (the query deadline is ExecOptions::deadline)" >&2
    scattered=1
fi
[ "$scattered" -eq 0 ]

# The benchmark crate is a workspace of its own with its own lock file; it
# calls the engine only through public items (par_hash_join, hash_join,
# SolutionSet { vars, rows } literals, ...), so an engine API change that
# breaks it shows here instead of in the pipeline.
echo "==> benchmark crate builds and passes its tests against this engine"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml
# Every exact count of every workload repeats from run to run (~1 min).
cargo run --release -q --offline --manifest-path benchmark/Cargo.toml -- selfcheck

echo "==> EXPLAIN ANALYZE trace smoke (LUBM Q4, fixed clock)"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
cargo run --release -q --bin lusail-cli -- \
    generate --workload lubm --out "$tmpdir" --size 2 >/dev/null
cargo run --release -q --bin lusail-cli -- query \
    --endpoint "$tmpdir/univ-0.nt" --endpoint "$tmpdir/univ-1.nt" \
    --query-file "$tmpdir/queries/Q4.rq" \
    --explain-analyze --fixed-clock > "$tmpdir/explain_analyze.txt"
diff -u tests/golden/explain_analyze_lubm_q4.txt "$tmpdir/explain_analyze.txt"
echo "trace smoke: report matches the committed golden"

echo "==> chaos smoke (LUBM, replica group, primary killed mid-query)"
cp "$tmpdir/univ-0.nt" "$tmpdir/univ-0-replica.nt"
cargo run --release -q --bin lusail-cli -- query \
    --endpoint "$tmpdir/univ-0.nt" --endpoint "$tmpdir/univ-1.nt" \
    --replica univ-0="$tmpdir/univ-0-replica.nt" \
    --kill univ-0:2 \
    --query-file "$tmpdir/queries/Q2.rq" \
    --explain-analyze > "$tmpdir/chaos.txt"
grep -q 'complete: true' "$tmpdir/chaos.txt" || {
    echo "chaos smoke: result not complete despite a healthy replica" >&2
    cat "$tmpdir/chaos.txt" >&2
    exit 1
}
grep -q '^  failover: endpoint 0 -> 2 on ' "$tmpdir/chaos.txt" || {
    echo "chaos smoke: no failover from the killed primary to its replica" >&2
    cat "$tmpdir/chaos.txt" >&2
    exit 1
}
echo "chaos smoke: killed primary absorbed by its replica, result complete"

echo "==> parallel smoke (LUBM Q2, --threads 1 vs --threads 4)"
cargo run --release -q --bin lusail-cli -- query \
    --endpoint "$tmpdir/univ-0.nt" --endpoint "$tmpdir/univ-1.nt" \
    --query-file "$tmpdir/queries/Q2.rq" \
    --threads 1 > "$tmpdir/q2_t1.txt"
cargo run --release -q --bin lusail-cli -- query \
    --endpoint "$tmpdir/univ-0.nt" --endpoint "$tmpdir/univ-1.nt" \
    --query-file "$tmpdir/queries/Q2.rq" \
    --threads 4 > "$tmpdir/q2_t4.txt"
# The wall time in the summary line is nondeterministic; everything else
# (rows, request counters, scan counters) must be byte-identical.
sed 's/ in [0-9.]* ms//' "$tmpdir/q2_t1.txt" > "$tmpdir/q2_t1.stable"
sed 's/ in [0-9.]* ms//' "$tmpdir/q2_t4.txt" > "$tmpdir/q2_t4.stable"
diff -u "$tmpdir/q2_t1.stable" "$tmpdir/q2_t4.stable"
echo "parallel smoke: --threads 4 output matches --threads 1"

echo "==> backend smoke (LUBM Q2 and Q4, btree vs columns byte-identical, footprint drops)"
# Q2 ships its BGP whole; Q4 binds subjects through VALUES blocks, so the
# columnar subject directory answers its probes.
for q in q2 q4; do
    for backend in btree columns; do
        cargo run --release -q --bin lusail-cli -- query \
            --endpoint "$tmpdir/univ-0.nt" --endpoint "$tmpdir/univ-1.nt" \
            --query-file "$tmpdir/queries/${q^^}.rq" \
            --backend "$backend" > "$tmpdir/${q}_$backend.txt"
        # The storage line names the backend and its resident bytes;
        # everything else (rows, request counters, scan counters) must be
        # byte-identical once the nondeterministic wall time is stripped.
        grep -q "^storage: backend $backend, [0-9]* B resident" "$tmpdir/${q}_$backend.txt"
        sed 's/ in [0-9.]* ms//; /^storage: /d' "$tmpdir/${q}_$backend.txt" > "$tmpdir/${q}_$backend.stable"
    done
    diff -u "$tmpdir/${q}_btree.stable" "$tmpdir/${q}_columns.stable"
done
resident() { grep -o '[0-9]* B resident' "$1" | cut -d' ' -f1; }
btree_bytes=$(resident "$tmpdir/q2_btree.txt")
columns_bytes=$(resident "$tmpdir/q2_columns.txt")
if [ "$columns_bytes" -ge "$btree_bytes" ]; then
    echo "backend smoke: columns not smaller ($columns_bytes vs $btree_bytes B)" >&2
    exit 1
fi
echo "backend smoke: identical Q2 and Q4 output, resident $btree_bytes -> $columns_bytes B"

echo "==> plan smoke (LUBM Q2 on columns: the endpoints join without a cross product)"
# Q2 is shipped whole to each endpoint. Connected-first ordering answers it
# in 10715 scanned rows here, source selection's COUNTs included;
# `Professor x Course` first costs 15617.
scanned=$(grep -o '[0-9]* store rows scanned' "$tmpdir/q2_columns.txt" | cut -d' ' -f1)
if [ -z "$scanned" ] || [ "$scanned" -gt 11000 ]; then
    echo "plan smoke: Q2 scanned ${scanned:-?} store rows (ceiling 11000)" >&2
    exit 1
fi
echo "plan smoke: Q2 scanned $scanned store rows (ceiling 11000)"

echo "==> stats smoke (LUBM Q1, offline statistics elide probes, results unchanged)"
cargo run --release -q --bin lusail-cli -- stats \
    --endpoint "$tmpdir/univ-0.nt" --endpoint "$tmpdir/univ-1.nt" \
    --out "$tmpdir/stats" >/dev/null
cargo run --release -q --bin lusail-cli -- query \
    --endpoint "$tmpdir/univ-0.nt" --endpoint "$tmpdir/univ-1.nt" \
    --query-file "$tmpdir/queries/Q1.rq" > "$tmpdir/q1_wire.txt"
cargo run --release -q --bin lusail-cli -- query \
    --endpoint "$tmpdir/univ-0.nt" --endpoint "$tmpdir/univ-1.nt" \
    --query-file "$tmpdir/queries/Q1.rq" \
    --stats "$tmpdir/stats" > "$tmpdir/q1_stats.txt"
# Solutions must be byte-identical; only the load banner and the summary
# line (wall time, request counters) may differ.
sed '/^loaded /d; / rows in /d' "$tmpdir/q1_wire.txt"  > "$tmpdir/q1_wire.rows"
sed '/^loaded /d; / rows in /d' "$tmpdir/q1_stats.txt" > "$tmpdir/q1_stats.rows"
diff -u "$tmpdir/q1_wire.rows" "$tmpdir/q1_stats.rows"
reqs() { grep -o '[0-9]* remote requests' "$1" | cut -d' ' -f1; }
scans() { grep -o '[0-9]* store rows scanned' "$1" | cut -d' ' -f1; }
wire_reqs=$(reqs "$tmpdir/q1_wire.txt")
stats_reqs=$(reqs "$tmpdir/q1_stats.txt")
wire_scans=$(scans "$tmpdir/q1_wire.txt")
stats_scans=$(scans "$tmpdir/q1_stats.txt")
# A conclusive answer takes a probe out of its endpoint's coalesced request
# (the request goes only when all of them do) and spares the endpoint its scan.
if [ "$stats_reqs" -gt "$wire_reqs" ] || [ "$stats_scans" -ge "$wire_scans" ]; then
    echo "stats smoke: no probe was elided ($stats_reqs vs $wire_reqs requests, $stats_scans vs $wire_scans store rows scanned)" >&2
    exit 1
fi
echo "stats smoke: identical rows, requests $wire_reqs -> $stats_reqs, store rows scanned $wire_scans -> $stats_scans"

echo "==> server smoke (serve, 8 concurrent clients, typed rejection, clean drain)"
./target/release/lusail-cli serve \
    --endpoint "$tmpdir/univ-0.nt" --endpoint "$tmpdir/univ-1.nt" \
    --port 0 > "$tmpdir/serve.log" 2>&1 &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
    port=$(sed -n 's|^serving on http://127\.0\.0\.1:\([0-9]*\)/sparql.*|\1|p' "$tmpdir/serve.log")
    [ -n "$port" ] && break
    sleep 0.1
done
if [ -z "$port" ]; then
    echo "server smoke: server never announced its port" >&2
    cat "$tmpdir/serve.log" >&2
    exit 1
fi
# 8 concurrent clients: seven well-behaved tenants, one with an
# impossible deadline that must come back as a typed 504.
client_pids=()
for i in $(seq 1 7); do
    curl -s -X POST --data-binary @"$tmpdir/queries/Q4.rq" \
        -H "X-Tenant: tenant-$i" "http://127.0.0.1:$port/sparql" \
        > "$tmpdir/serve_q4_$i.txt" &
    client_pids+=($!)
done
curl -s -X POST --data-binary @"$tmpdir/queries/Q4.rq" \
    -H 'X-Deadline-Ms: 0' "http://127.0.0.1:$port/sparql" \
    > "$tmpdir/serve_deadline.txt" &
client_pids+=($!)
wait "${client_pids[@]}"
grep -q '^code: deadline$' "$tmpdir/serve_deadline.txt" || {
    echo "server smoke: impossible deadline was not a typed 504 rejection" >&2
    cat "$tmpdir/serve_deadline.txt" >&2
    exit 1
}
# Every admitted client's body must be byte-for-byte the table the
# single-shot CLI prints (the result block after the storage banner).
cargo run --release -q --bin lusail-cli -- query \
    --endpoint "$tmpdir/univ-0.nt" --endpoint "$tmpdir/univ-1.nt" \
    --query-file "$tmpdir/queries/Q4.rq" > "$tmpdir/q4_cli.txt"
sed -n '/^storage:/,$p' "$tmpdir/q4_cli.txt" | sed '1d' | sed -n '/^$/q;p' \
    > "$tmpdir/q4_cli.table"
for i in $(seq 1 7); do
    diff -u "$tmpdir/q4_cli.table" "$tmpdir/serve_q4_$i.txt"
done
# An idle keep-alive connection stays open across SIGTERM: its thread
# must notice the shutdown by itself, and the server exit within 2 s.
exec 3<>"/dev/tcp/127.0.0.1/$port"
printf 'GET /healthz HTTP/1.1\r\nHost: smoke\r\n\r\n' >&3
status_line=""
read -r -t 5 status_line <&3 || true
case "$status_line" in
"HTTP/1.1 200 OK"*) ;;
*)
    echo "server smoke: /healthz on the keep-alive connection answered '${status_line:-nothing}'" >&2
    exit 1
    ;;
esac
kill -TERM "$serve_pid"
if ! timeout 2 tail -s 0.05 --pid="$serve_pid" -f /dev/null; then
    echo "server smoke: still running 2 s after SIGTERM with an idle connection open" >&2
    kill -KILL "$serve_pid"
    exit 1
fi
wait "$serve_pid"
exec 3<&-
grep -q '(0 abandoned)' "$tmpdir/serve.log" || {
    echo "server smoke: SIGTERM drain was not clean" >&2
    cat "$tmpdir/serve.log" >&2
    exit 1
}
echo "server smoke: 7 identical tables, typed deadline rejection, clean drain within 2 s with an idle connection open"

echo "==> batching smoke (two overlapping clients share a window, identical bodies)"
# A generous window with a count trigger of 2: the first client opens the
# window, the second closes it, and the shared subqueries are evaluated
# once. Bodies must still be byte-identical to the single-shot CLI table.
./target/release/lusail-cli serve \
    --endpoint "$tmpdir/univ-0.nt" --endpoint "$tmpdir/univ-1.nt" \
    --port 0 --batch-window-ms 2000 --batch-max 2 > "$tmpdir/serve_batch.log" 2>&1 &
serve_pid=$!
port=""
for _ in $(seq 1 100); do
    port=$(sed -n 's|^serving on http://127\.0\.0\.1:\([0-9]*\)/sparql.*|\1|p' "$tmpdir/serve_batch.log")
    [ -n "$port" ] && break
    sleep 0.1
done
if [ -z "$port" ]; then
    echo "batching smoke: server never announced its port" >&2
    cat "$tmpdir/serve_batch.log" >&2
    exit 1
fi
curl -s -X POST --data-binary @"$tmpdir/queries/Q4.rq" \
    -H 'X-Tenant: alice' "http://127.0.0.1:$port/sparql" \
    > "$tmpdir/batch_q4_a.txt" &
batch_a=$!
curl -s -X POST --data-binary @"$tmpdir/queries/Q4.rq" \
    -H 'X-Tenant: bob' "http://127.0.0.1:$port/sparql" \
    > "$tmpdir/batch_q4_b.txt" &
batch_b=$!
wait "$batch_a" "$batch_b"
diff -u "$tmpdir/q4_cli.table" "$tmpdir/batch_q4_a.txt"
diff -u "$tmpdir/q4_cli.table" "$tmpdir/batch_q4_b.txt"
curl -s "http://127.0.0.1:$port/stats" > "$tmpdir/batch_stats.txt"
shared_hits=$(sed -n 's/^batch\.shared_hits: //p' "$tmpdir/batch_stats.txt")
if [ -z "$shared_hits" ] || [ "$shared_hits" -lt 1 ]; then
    echo "batching smoke: overlapping clients shared no subquery" >&2
    cat "$tmpdir/batch_stats.txt" >&2
    exit 1
fi
kill -TERM "$serve_pid"
wait "$serve_pid"
grep -q '(0 abandoned)' "$tmpdir/serve_batch.log" || {
    echo "batching smoke: SIGTERM drain was not clean" >&2
    cat "$tmpdir/serve_batch.log" >&2
    exit 1
}
echo "batching smoke: 2 identical tables, $shared_hits shared subquery hit(s)"

echo "==> counter gate (all 360 lines of crates/bench/counters.tsv at threads {1,4} x both backends, inequalities, footprint floor; ~13 s)"
cargo run --release -q -p lusail-bench -- counters

echo "==> figure smoke (fig3: FedX requests grow with endpoints, Lusail stays at one per endpoint)"
# `figures` writes results/ under the working directory: keep it out of the repo.
(root=$PWD && cd "$tmpdir" && "$root/target/release/lusail-bench" figures fig3_fedx_sensitivity > fig3.txt)
# endpoints, fedx ms, fedx requests, lusail ms, lusail requests, rows
grep -q '^4,[0-9.]*,"6,892",[0-9.]*,4,328$' "$tmpdir/results/fig3_lubm_q2.csv" || {
    echo "figure smoke: LUBM Q2 on 4 endpoints is not FedX 6,892 vs Lusail 4 requests" >&2
    cat "$tmpdir/results/fig3_lubm_q2.csv" >&2
    exit 1
}
echo "figure smoke: LUBM Q2 on 4 endpoints, FedX 6,892 requests vs Lusail 4"

echo "==> fuzz smoke (200 iterations, 30 s cap)"
set +e
timeout 30 cargo run --release -q -p lusail-testkit --bin fuzz -- --iters 200
status=$?
set -e
if [ "$status" -ne 0 ] && [ "$status" -ne 124 ]; then
    echo "fuzz smoke failed (exit $status)" >&2
    exit "$status"
fi
[ "$status" -eq 124 ] && echo "fuzz smoke: 30 s cap reached (ok)"

echo "verify: all checks passed"
