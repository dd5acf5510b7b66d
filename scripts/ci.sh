#!/usr/bin/env bash
# The tier-1 gate plus lints, exactly what a PR must keep green:
#   1. cargo fmt --check
#   2. cargo build --release
#   3. cargo test -q
#   4. cargo clippy --workspace -- -D warnings
# Usage: scripts/ci.sh
#
# The build environment has no network; when crates.io is unreachable the
# script falls back to --offline (all dependencies are vendored under
# shims/, so offline builds are fully supported).
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=""
if ! cargo metadata --format-version 1 >/dev/null 2>&1; then
  echo "ci: no network, using --offline"
  OFFLINE="--offline"
fi

echo "ci: fmt (--check)"
cargo fmt --all -- --check

echo "ci: build (release)"
cargo build --release $OFFLINE

echo "ci: test"
cargo test -q $OFFLINE

# The parallel leaf-task pool must produce bit-identical simulated
# results at any thread count. Re-run the e2e suites at a pinned pool
# width (tests/src/lib.rs honors FEISU_EXECUTION_THREADS for specs that
# don't pin their own) to prove results don't depend on the executor.
echo "ci: e2e at execution_threads=8"
FEISU_EXECUTION_THREADS=8 cargo test -q $OFFLINE -p feisu-tests

# Aggregate transport must be thread-count-independent too: the split /
# transport / merge property suite (exact i64 sums, zone-skip result
# transparency) re-runs explicitly at the pinned pool width.
echo "ci: agg round-trip properties at execution_threads=8"
FEISU_EXECUTION_THREADS=8 cargo test -q $OFFLINE -p feisu-tests --test agg_roundtrip

# The multi-level merge tree and repartition exchange must be
# thread-count-independent as well: the depth/partition property suite
# re-runs explicitly at the pinned pool width.
echo "ci: merge-exchange properties at execution_threads=8"
FEISU_EXECUTION_THREADS=8 cargo test -q $OFFLINE -p feisu-tests --test merge_exchange

# The shared (&self) engine must yield bit-identical results with many
# client threads driving it at once. Re-run the e2e suites at a pinned
# client width (tests/tests/concurrency.rs honors FEISU_CLIENT_THREADS).
echo "ci: e2e at client_threads=4"
FEISU_CLIENT_THREADS=4 cargo test -q $OFFLINE -p feisu-tests

echo "ci: clippy (-D warnings)"
cargo clippy --workspace $OFFLINE -- -D warnings

# Late-materialization bench must run end to end and leave a well-formed
# results file (tiny config; the committed numbers come from a full run).
echo "ci: leaf-scan bench (smoke)"
cargo run --release $OFFLINE -p feisu-bench --bin bench_leaf_scan -- --smoke
if [ ! -s results/BENCH_leaf_scan.json ]; then
  echo "ci: results/BENCH_leaf_scan.json missing or empty" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("results/BENCH_leaf_scan.json") as f:
    data = json.load(f)
configs = data["configs"]
assert configs, "no bench configs recorded"
for c in configs:
    for k in ("name", "selectivity_pct", "touched", "baseline_ms", "optimized_ms", "speedup",
              "baseline_p50_ms", "baseline_p95_ms", "baseline_p99_ms",
              "optimized_p50_ms", "optimized_p95_ms", "optimized_p99_ms"):
        assert k in c, f"config missing {k}: {c}"
print(f"ci: bench json ok ({len(configs)} configs)")
EOF
else
  grep -q '"bench": "leaf_scan"' results/BENCH_leaf_scan.json
  grep -q '"speedup"' results/BENCH_leaf_scan.json
  echo "ci: bench json ok (grep check)"
fi

# Concurrency bench must also run end to end and leave a well-formed
# results file (smoke config; committed numbers come from a full run).
echo "ci: concurrency bench (smoke)"
cargo run --release $OFFLINE -p feisu-bench --bin bench_concurrency -- --smoke
if [ ! -s results/BENCH_concurrency.json ]; then
  echo "ci: results/BENCH_concurrency.json missing or empty" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("results/BENCH_concurrency.json") as f:
    data = json.load(f)
assert data["bench"] == "concurrency", data
clients = data["clients"]
assert clients, "no client configs recorded"
for c in clients:
    for k in ("clients", "queries", "wall_ms", "qps", "speedup",
              "p50_ms", "p95_ms", "p99_ms"):
        assert k in c, f"client entry missing {k}: {c}"
print(f"ci: concurrency json ok ({len(clients)} client counts)")
EOF
else
  grep -q '"bench": "concurrency"' results/BENCH_concurrency.json
  grep -q '"qps"' results/BENCH_concurrency.json
  echo "ci: concurrency json ok (grep check)"
fi

# Zone-map skipping bench must run end to end, leave a well-formed
# results file, and show cold selective scans actually got cheaper
# (deterministic simulated ratio; committed numbers come from a full
# run). The guard config must stay free when nothing can be skipped.
echo "ci: zone-skip bench (smoke)"
cargo run --release $OFFLINE -p feisu-bench --bin bench_zone_skip -- --smoke
if [ ! -s results/BENCH_zone_skip.json ]; then
  echo "ci: results/BENCH_zone_skip.json missing or empty" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("results/BENCH_zone_skip.json") as f:
    data = json.load(f)
assert data["bench"] == "zone_skip", data
configs = data["configs"]
assert configs, "no bench configs recorded"
for c in configs:
    for k in ("name", "rows_out", "blocks_skipped", "blocks_scanned",
              "zone_on_sim_ms", "zone_off_sim_ms", "sim_speedup",
              "zone_on_wall_ms", "zone_off_wall_ms", "wall_speedup"):
        assert k in c, f"config missing {k}: {c}"
by_name = {c["name"]: c for c in configs}
sel = by_name["point_1_block"]
assert sel["blocks_skipped"] > 0, f"selective scan skipped nothing: {sel}"
assert sel["sim_speedup"] > 1.0, f"selective scan not cheaper: {sel}"
guard = by_name["unselective_guard"]
assert guard["blocks_skipped"] == 0, f"guard skipped blocks: {guard}"
assert abs(guard["sim_speedup"] - 1.0) < 1e-9, f"zone check not free: {guard}"
print(f"ci: zone-skip json ok (selective sim speedup {sel['sim_speedup']}x)")
EOF
else
  grep -q '"bench": "zone_skip"' results/BENCH_zone_skip.json
  grep -q '"selective_speedup"' results/BENCH_zone_skip.json
  echo "ci: zone-skip json ok (grep check)"
fi

# Cache-mix bench: ghost admission must actually pay off on the Zipfian
# multi-user trace — strictly higher hit rate than admit-everything, no
# worse tail latency, and bit-identical answers across all three cache
# configs (smoke config; committed numbers come from a full run).
echo "ci: cache-mix bench (smoke)"
cargo run --release $OFFLINE -p feisu-bench --bin bench_cache_mix -- --smoke
if [ ! -s results/BENCH_cache_mix.json ]; then
  echo "ci: results/BENCH_cache_mix.json missing or empty" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("results/BENCH_cache_mix.json") as f:
    data = json.load(f)
assert data["bench"] == "cache_mix", data
assert data["parity"] is True, "cache configs returned different answers"
configs = data["configs"]
assert configs, "no bench configs recorded"
for c in configs:
    for k in ("name", "hit_rate", "mem_hit_rate", "ssd_hit_rate",
              "mem_hits", "ssd_hits", "misses", "ghost_admissions",
              "rejected", "evictions", "p50_ms", "p95_ms", "p99_ms"):
        assert k in c, f"config missing {k}: {c}"
by_name = {c["name"]: c for c in configs}
on, off = by_name["admission_on"], by_name["admission_off"]
assert on["hit_rate"] > off["hit_rate"], \
    f"ghost admission must beat admit-everything: {on['hit_rate']} vs {off['hit_rate']}"
assert on["p95_ms"] <= off["p95_ms"], \
    f"ghost admission must not worsen p95: {on['p95_ms']} vs {off['p95_ms']}"
assert by_name["cache_off"]["hit_rate"] == 0.0, "cache_off must not hit"
print(f"ci: cache-mix json ok (hit {on['hit_rate']} vs {off['hit_rate']})")
EOF
else
  grep -q '"bench": "cache_mix"' results/BENCH_cache_mix.json
  grep -q '"parity": true' results/BENCH_cache_mix.json
  echo "ci: cache-mix json ok (grep check)"
fi

# Distributed-aggregation bench: the topology-derived multi-level merge
# tree with the repartition exchange must ship strictly fewer
# stem→master bytes than the two-level baseline and return bit-identical
# answers (smoke config; the committed numbers come from a full
# 256–1024-node run, where the bench additionally asserts the
# critical-path win).
echo "ci: distributed-agg bench (smoke)"
cargo run --release $OFFLINE -p feisu-bench --bin bench_distributed_agg -- --smoke
if [ ! -s results/BENCH_distributed_agg.json ]; then
  echo "ci: results/BENCH_distributed_agg.json missing or empty" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("results/BENCH_distributed_agg.json") as f:
    data = json.load(f)
assert data["bench"] == "distributed_agg", data
configs = data["configs"]
assert configs, "no bench configs recorded"
for c in configs:
    for k in ("nodes", "rows", "groups_out", "parity",
              "two_level_sim_ms", "multi_level_sim_ms", "sim_speedup",
              "two_level_wire_leaf_stem", "multi_level_wire_leaf_stem",
              "two_level_wire_rack_dc", "multi_level_wire_rack_dc",
              "two_level_wire_stem_master", "multi_level_wire_stem_master",
              "stem_master_wire_reduction"):
        assert k in c, f"config missing {k}: {c}"
    assert c["parity"] is True, f"merge-tree shapes disagreed: {c}"
    assert c["multi_level_wire_stem_master"] < c["two_level_wire_stem_master"], \
        f"multi-level must ship fewer stem→master bytes: {c}"
    assert c["multi_level_wire_rack_dc"] > 0, \
        f"topology shape must record the rack→dc leg: {c}"
print(f"ci: distributed-agg json ok ({len(configs)} node counts)")
EOF
else
  grep -q '"bench": "distributed_agg"' results/BENCH_distributed_agg.json
  grep -q '"parity": true' results/BENCH_distributed_agg.json
  echo "ci: distributed-agg json ok (grep check)"
fi

# Join-order bench: the cost-based search must actually reorder the
# Zipfian star join, answer exactly the same as the syntactic order, and
# never be slower (smoke config; the committed numbers come from a full
# run, which shows the >1.5x simulated win). The smoke run writes under
# target/ so the committed full-run results/BENCH_join_order.json stays.
echo "ci: join-order bench (smoke)"
cargo run --release $OFFLINE -p feisu-bench --bin bench_join_order -- --smoke
if [ ! -s target/bench-smoke/BENCH_join_order.json ]; then
  echo "ci: target/bench-smoke/BENCH_join_order.json missing or empty" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("target/bench-smoke/BENCH_join_order.json") as f:
    data = json.load(f)
assert data["bench"] == "join_order", data
configs = data["configs"]
assert configs, "no bench configs recorded"
for c in configs:
    for k in ("name", "rows_out", "results_match", "joins_reordered", "join_order",
              "syntactic_sim_ms", "reordered_sim_ms", "sim_speedup",
              "syntactic_wall_ms", "reordered_wall_ms", "wall_speedup"):
        assert k in c, f"config missing {k}: {c}"
    assert c["results_match"] is True, f"reordering changed the answer: {c}"
    assert c["joins_reordered"] > 0, f"cost-based search never reordered: {c}"
    assert c["sim_speedup"] >= 1.0, f"reordered plan must not be slower: {c}"
star = configs[0]
print(f"ci: join-order json ok (sim speedup {star['sim_speedup']}x, {star['join_order']})")
EOF
else
  grep -q '"bench": "join_order"' target/bench-smoke/BENCH_join_order.json
  grep -q '"results_match": true' target/bench-smoke/BENCH_join_order.json
  echo "ci: join-order json ok (grep check)"
fi

# Observability plane: system tables must answer plain SQL and a real
# query's Chrome trace must export as parseable, non-empty JSON.
echo "ci: observability smoke (system tables + trace export)"
cargo run --release $OFFLINE -p feisu-bench --bin obs_smoke
if [ ! -s results/TRACE_smoke.json ]; then
  echo "ci: results/TRACE_smoke.json missing or empty" >&2
  exit 1
fi
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("results/TRACE_smoke.json") as f:
    events = json.load(f)
assert isinstance(events, list) and events, "trace must be a non-empty JSON array"
for e in events:
    for k in ("name", "ph", "ts", "dur", "pid", "tid"):
        assert k in e, f"trace event missing {k}: {e}"
assert any(e["name"] == "master" for e in events), "no master span in trace"
print(f"ci: trace json ok ({len(events)} events)")
EOF
else
  grep -q '"ph": "X"' results/TRACE_smoke.json
  grep -q '"name": "master"' results/TRACE_smoke.json
  echo "ci: trace json ok (grep check)"
fi

echo "ci: all green"
