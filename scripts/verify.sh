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
TVA_CHECK=1 TVA_RESULTS_DIR=target/verify-invcheck \
  cargo run --release -q -p tva-experiments --bin robustness -- --smoke

echo "==> attack-suite smoke (damage search, auditors on)"
rm -rf target/verify-attacks
TVA_CHECK=1 TVA_RESULTS_DIR=target/verify-attacks \
  cargo run --release -q -p tva-experiments --bin attacks -- --smoke
# The tracked artifacts are what this commit writes: the `params` column
# renders each attack through the scenario's attack table.
for f in attacks.tsv attacks.json attacks_metrics.json attacks_attribution.tsv attacks_attribution.json; do
  cmp "target/verify-attacks/$f" "results/$f"
done

echo "==> bounded-state experiment (statebound quick, self-gated)"
rm -rf target/verify-statebound
TVA_RESULTS_DIR=target/verify-statebound \
  cargo run --release -q -p tva-experiments --bin statebound -- --gate >/dev/null
# The tracked artifact is what this commit writes: its hitrate rows depend on
# which expired entry each reclaim picks, so a reclaim-index change that
# moves a victim fails here.
cmp target/verify-statebound/statebound.tsv results/statebound.tsv
cmp target/verify-statebound/statebound.json results/statebound.json

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

echo "==> tva-node loopback (forwards, zero malformed, one counting window, zero allocs on two legs, UDP e2e)"
cargo test -q --release -p tva-node --features alloc-count --test loopback

echo "==> telemetry plane smoke (serve + pktgen burst + stats socket, obscheck, tva-top)"
rm -rf target/verify-stats
mkdir -p target/verify-stats
TVA_OBS_SAMPLE_N=16 cargo run --release -q -p tva-node --bin tva-node -- serve \
  --bind 127.0.0.1:47131 --peer 127.0.0.1:47132 --stats 127.0.0.1:47133 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
sleep 1
cargo run --release -q -p tva-obs --bin tva-top -- \
  --addr 127.0.0.1:47133 --raw > target/verify-stats/poll1.json
# A short burst between the polls (pktgen's --bind/--peer are serve's pair
# reversed), so --monotone below compares counters that moved.
TVA_NODE_DUR_MS=200 TVA_NODE_MIX=contested \
  cargo run --release -q -p tva-node --bin pktgen -- \
  --bind 127.0.0.1:47132 --peer 127.0.0.1:47131 >/dev/null
cargo run --release -q -p tva-obs --bin tva-top -- \
  --addr 127.0.0.1:47133 --raw > target/verify-stats/poll2.json
if ! grep -qE '"node\.rx_frames": ?[1-9]' target/verify-stats/poll2.json; then
  echo "verify: FAIL — the daemon received no frames between the two polls"; exit 1
fi
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

echo "==> internet-scale tree, quick variant (~10k hosts, invariant checker on)"
TVA_CHECK=1 TVA_RESULTS_DIR=target/verify-scale \
  cargo run --release -q -p tva-bench --bin scale -- --quick
test -s target/verify-scale/scale_metrics.json
grep -q '"check_violations": 0' target/verify-scale/scale.json

echo "==> observability smoke (fig8 quick: obs-off vs obs-on, TSVs byte-identical)"
rm -rf target/verify-obs
TVA_RESULTS_DIR=target/verify-obs/off \
  cargo run --release -q -p tva-experiments --bin fig8 >/dev/null
TVA_RESULTS_DIR=target/verify-obs/on TVA_OBS=1 \
  cargo run --release -q -p tva-experiments --bin fig8 >/dev/null
cmp target/verify-obs/off/fig8.tsv target/verify-obs/on/fig8.tsv
cmp target/verify-obs/off/fig8.json target/verify-obs/on/fig8.json
# The tracked artifact is what this commit's fig8 binary writes.
cmp target/verify-obs/off/fig8.tsv results/fig8.tsv
cmp target/verify-obs/off/fig8.json results/fig8.json
test -s target/verify-obs/on/obs/fig8_TVA_series.json
test -s target/verify-obs/on/obs/fig8_TVA_trace.perfetto.json
cargo run --release -q -p tva-obs --bin obscheck -- \
  target/verify-obs/on/obs/*.json target/verify-obs/on/obs/*.jsonl

echo "==> fig9-fig11 quick (the tracked artifacts are what this commit writes)"
rm -rf target/verify-figs
for fig in fig9 fig10 fig11; do
  TVA_RESULTS_DIR=target/verify-figs \
    cargo run --release -q -p tva-experiments --bin "$fig" >/dev/null
  cmp "target/verify-figs/$fig.tsv" "results/$fig.tsv"
  cmp "target/verify-figs/$fig.json" "results/$fig.json"
done

sh scripts/loc.sh | tail -2

if [ "$(git status --porcelain)" != "$tree_before" ]; then
  git status --porcelain
  echo "verify: FAIL — the run changed the working tree (status above; it must write under target/ only)"
  exit 1
fi

echo "verify: OK"
