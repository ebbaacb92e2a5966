#!/usr/bin/env bash
# Tier-1 verify flow: release build, full test suite, and lint-clean clippy.
# This is the gate a change must pass before it lands (see ROADMAP.md).
set -euo pipefail
cd "$(dirname "$0")/.."

# Everything below writes under target/; the last step checks that.
tree_before=$(git status --porcelain)

echo "==> cargo build --release"
cargo build --release

# default-members in the root manifest makes this the whole workspace.
echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> fault-injection smoke (loss sweep + mid-transfer link failure)"
cargo run --release -q -p tva-experiments --bin robustness -- --smoke

echo "==> robustness quick sweep (the tracked artifacts are what this commit writes)"
TVA_RESULTS_DIR=target/verify-robustness \
  cargo run --release -q -p tva-experiments --bin robustness >/dev/null
for f in robustness.tsv robustness.json robustness_metrics.json; do
  cmp target/verify-robustness/$f results/$f
done

echo "==> invariant-checker smoke (fuzz batch + replay round-trip, auditors on)"
rm -rf target/verify-invcheck
cargo run --release -q -p tva-experiments --bin invcheck -- \
  fuzz --seeds 16 --start 1 --dir target/verify-invcheck
cargo run --release -q -p tva-experiments --bin invcheck -- \
  dump --seed 20 --out target/verify-invcheck/fixture.json
cargo run --release -q -p tva-experiments --bin invcheck -- \
  replay target/verify-invcheck/fixture.json
TVA_CHECK=1 cargo run --release -q -p tva-experiments --bin robustness -- --smoke

echo "==> attack-suite smoke (damage search, auditors on, shard-determinism)"
rm -rf target/verify-attacks
TVA_CHECK=1 TVA_RESULTS_DIR=target/verify-attacks/s1 \
  cargo run --release -q -p tva-experiments --bin attacks -- --smoke
TVA_CHECK=1 TVA_SHARDS=2 TVA_RESULTS_DIR=target/verify-attacks/s2 \
  cargo run --release -q -p tva-experiments --bin attacks -- --smoke >/dev/null
cmp target/verify-attacks/s1/attacks.tsv target/verify-attacks/s2/attacks.tsv
cmp target/verify-attacks/s1/attacks.json target/verify-attacks/s2/attacks.json
cmp target/verify-attacks/s1/attacks_metrics.json target/verify-attacks/s2/attacks_metrics.json
cmp target/verify-attacks/s1/attacks_attribution.tsv target/verify-attacks/s2/attacks_attribution.tsv
cmp target/verify-attacks/s1/attacks_attribution.json target/verify-attacks/s2/attacks_attribution.json

echo "==> bounded-state experiment (statebound quick, self-gated, auditors on, shard-determinism)"
rm -rf target/verify-statebound
TVA_CHECK=1 TVA_RESULTS_DIR=target/verify-statebound/s1 \
  cargo run --release -q -p tva-experiments --bin statebound -- --gate >/dev/null
TVA_CHECK=1 TVA_SHARDS=2 TVA_RESULTS_DIR=target/verify-statebound/s2 \
  cargo run --release -q -p tva-experiments --bin statebound -- --gate >/dev/null
cmp target/verify-statebound/s1/statebound.tsv target/verify-statebound/s2/statebound.tsv
cmp target/verify-statebound/s1/statebound.json target/verify-statebound/s2/statebound.json

# The benchmark's traced runs rebuild NodeEngine::poll from public calls and
# reject a run whose staged sum drifts from poll (node.stage_cover outside
# 0.85-1.15); its own tests run every workload traced and untraced at the
# --quick sizing, so a divergence fails here, not at the benchmark driver.
# One retry: at the quick sizing a rep is ~25 ms, so a busy host can push
# stage_cover out of band on its own; a real divergence fails both times.
echo "==> repo benchmark self-test (5 workloads, traced + untraced, quick sizing)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml ||
  cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> allocation discipline (counting allocator, steady-state dumbbell)"
cargo test -q --release -p tva-bench --features alloc-count --test alloc_steady

echo "==> tva-node loopback (forwards, zero malformed, one counting window, zero allocs on three legs, UDP e2e)"
cargo test -q --release -p tva-node --features alloc-count --test loopback

echo "==> telemetry plane smoke (serve + stats socket, obscheck, tva-top)"
rm -rf target/verify-stats
mkdir -p target/verify-stats
TVA_OBS_SAMPLE_N=16 TVA_NODE_STATS_ADDR=127.0.0.1:47133 \
  cargo run --release -q -p tva-node --bin tva-node -- serve \
  --bind 127.0.0.1:47131 --peer 127.0.0.1:47132 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
sleep 1
cargo run --release -q -p tva-obs --bin tva-top -- \
  --addr 127.0.0.1:47133 --raw > target/verify-stats/poll1.json
cargo run --release -q -p tva-obs --bin tva-top -- \
  --addr 127.0.0.1:47133 --raw > target/verify-stats/poll2.json
cargo run --release -q -p tva-obs --bin obscheck -- \
  target/verify-stats/poll1.json target/verify-stats/poll2.json
cargo run --release -q -p tva-obs --bin obscheck -- \
  --monotone target/verify-stats/poll1.json target/verify-stats/poll2.json
top_out=$(cargo run --release -q -p tva-obs --bin tva-top -- --addr 127.0.0.1:47133 --once)
case "$top_out" in *"tva-top"*) ;; *)
  echo "verify: FAIL — tva-top --once rendered no dashboard frame"; exit 1;;
esac
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
trap - EXIT

echo "==> internet-scale tree, quick variant (~10k hosts)"
TVA_RESULTS_DIR=target/verify-scale \
  cargo run --release -q -p tva-bench --bin scale -- --quick
test -s target/verify-scale/scale_metrics.json

echo "==> sharded engine smoke (quick scale on 2 shards, threaded rounds, invariant checker on)"
TVA_SHARDS=2 TVA_SHARD_THREADS=1 TVA_CHECK=1 TVA_RESULTS_DIR=target/verify-scale-sharded \
  cargo run --release -q -p tva-bench --bin scale -- --quick
grep -q '"shards": 2' target/verify-scale-sharded/scale.json
grep -q '"check_violations": 0' target/verify-scale-sharded/scale.json
# Sharding is exactly invisible: the two runs dispatched the same events and
# carried the same packets over the bottleneck.
scale_counts() { grep -E '"(events|bottleneck_tx_pkts)":' "$1/scale.json"; }
test "$(scale_counts target/verify-scale | wc -l)" -eq 2
diff <(scale_counts target/verify-scale) <(scale_counts target/verify-scale-sharded)

echo "==> observability smoke (fig8 quick: obs-off vs obs-on, TSVs byte-identical)"
rm -rf target/verify-obs
TVA_RESULTS_DIR=target/verify-obs/off \
  cargo run --release -q -p tva-experiments --bin fig8 >/dev/null
TVA_RESULTS_DIR=target/verify-obs/on \
  TVA_OBS=1 TVA_OBS_PERFETTO=1 TVA_OBS_DIR=target/verify-obs/obs \
  cargo run --release -q -p tva-experiments --bin fig8 >/dev/null
cmp target/verify-obs/off/fig8.tsv target/verify-obs/on/fig8.tsv
cmp target/verify-obs/off/fig8.json target/verify-obs/on/fig8.json
# The tracked artifact is what this commit's fig8 binary writes.
cmp target/verify-obs/off/fig8.tsv results/fig8.tsv
cmp target/verify-obs/off/fig8.json results/fig8.json
test -s target/verify-obs/obs/fig8_TVA_series.json
test -s target/verify-obs/obs/fig8_TVA_trace.perfetto.json
cargo run --release -q -p tva-obs --bin obscheck -- \
  target/verify-obs/obs/*.json target/verify-obs/obs/*.jsonl

echo "==> README's knob tables name exactly the TVA_* variables the code reads"
diff <(git grep -ohE '(env_u64|env_flag|env::var|env::var_os)\("TVA_[A-Z0-9_]+' -- 'crates/*/src/*' |
         grep -oE 'TVA_[A-Z0-9_]+' | grep -v '^TVA_NODE_TEST_' | sort -u) \
     <(git grep -ohE 'TVA_[A-Z0-9_]+' -- README.md | sort -u)

echo "==> unsafe inventory (a speed-up must not quietly add intrinsics)"
diff <(git grep -lw unsafe -- 'crates/*/src/*') - <<'EOF'
crates/bench/src/alloc.rs
crates/bench/src/lib.rs
crates/node/src/ring.rs
EOF
diff <(git grep -L 'forbid(unsafe_code)' -- 'crates/*/src/lib.rs') - <<'EOF'
crates/node/src/lib.rs
EOF

sh scripts/loc.sh | tail -2

if [ "$(git status --porcelain)" != "$tree_before" ]; then
  git status --porcelain
  echo "verify: FAIL — the run changed the working tree (status above; it must write under target/ only)"
  exit 1
fi

echo "verify: OK"
