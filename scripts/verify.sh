#!/usr/bin/env bash
# Tier-1 verify flow: release build, full test suite, and lint-clean clippy.
# This is the gate a change must pass before it lands (see ROADMAP.md).
set -euo pipefail
cd "$(dirname "$0")/.."

# Everything below writes under target/; the last step checks that.
tree_before=$(git status --porcelain)

repro() { cargo run --release -q --bin repro -- "$@"; }

echo "==> cargo build --release"
cargo build --release

# default-members in the root manifest makes this the whole workspace,
# the zero-allocation checks (tests/zero_alloc.rs) included.
echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Every byte-held row of tva::artifacts::ARTIFACTS (fig8-fig11, robustness,
# the attack search's smoke, statebound with its gate, strawmen,
# ablation_grant), regenerated at its tracked size under the auditors and
# compared with results/: a mismatch names the file and its first differing
# line. The attack report's `params` column renders `scenario::ATTACKS`;
# statebound's hitrate rows pin which expired entry each reclaim picks.
echo "==> every byte-held artifact, audited, against results/ (repro --check)"
rm -rf target/verify-repro
TVA_CHECK=1 TVA_RESULTS_DIR=target/verify-repro repro --check target/verify-repro | tail -n 1

echo "==> fault-injection smoke (loss sweep + mid-transfer link failure), plain and audited"
repro robustness --smoke
TVA_CHECK=1 TVA_RESULTS_DIR=target/verify-repro repro robustness --smoke

echo "==> invariant-checker smoke (fuzz batch + replay round-trip, auditors on)"
rm -rf target/verify-invcheck
repro invcheck fuzz --seeds 16 --start 1 --dir target/verify-invcheck
repro invcheck dump --seed 20 --out target/verify-invcheck/fixture.json
repro invcheck replay target/verify-invcheck/fixture.json

# The benchmark's traced runs rebuild NodeEngine::poll from public calls and
# reject a run whose staged sum drifts from poll (node.stage_cover outside
# 0.85-1.15); its own tests run every workload traced and untraced at the
# --quick sizing, so a divergence fails here, not at the benchmark driver.
# One retry: at the quick sizing a rep is ~25 ms, so a busy host can push
# stage_cover out of band on its own; a real divergence fails both times.
# --locked: a change that would rewrite benchmark/Cargo.lock fails here.
echo "==> repo benchmark self-test (5 workloads, traced + untraced, quick sizing)"
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml ||
  cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

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
TVA_CHECK=1 TVA_RESULTS_DIR=target/verify-scale repro scale --quick
test -s target/verify-scale/scale_metrics.json
grep -q '"check_violations": 0' target/verify-scale/scale.json
# The quick tree's outcome is pinned: a change that moves these moved the
# engine's event order or the TVA stack's behaviour.
for pin in '"events": 440596,' '"bottleneck_tx_pkts": 16221,' '"attack_pkts_emitted": 25906,'; do
  grep -q "$pin" target/verify-scale/scale.json \
    || { echo "verify: FAIL — quick scale tree lost $pin"; exit 1; }
done

# fig8 with TVA_OBS=1 must write the bytes the obs-off check run wrote
# (which equal results/), plus parseable obs artifacts.
echo "==> observability smoke (fig8 quick: obs-on TSVs byte-identical to obs-off)"
rm -rf target/verify-obs
TVA_RESULTS_DIR=target/verify-obs TVA_OBS=1 repro fig8 >/dev/null
cmp target/verify-obs/fig8.tsv target/verify-repro/fig8.tsv
cmp target/verify-obs/fig8.json target/verify-repro/fig8.json
test -s target/verify-obs/obs/fig8_TVA_series.json
test -s target/verify-obs/obs/fig8_TVA_trace.perfetto.json
cargo run --release -q -p tva-obs --bin obscheck -- \
  target/verify-obs/obs/*.json target/verify-obs/obs/*.jsonl

sh scripts/loc.sh | tail -2

if [ "$(git status --porcelain)" != "$tree_before" ]; then
  git status --porcelain
  echo "verify: FAIL — the run changed the working tree (status above; it must write under target/ only)"
  exit 1
fi

echo "verify: OK"
