#!/bin/sh
# Production lines of Rust, per crate and in total: non-blank lines that are
# not `//` comments, in crates/*/src/**/*.rs and src/, up to each file's
# first `#[cfg(test)]`; then the options: TVA_* environment variables the
# code reads and the settable fields of the three config structs.
# ROADMAP item 3's "less code, fewer options" as numbers; verify.sh prints
# the last two lines.
set -eu
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/src src; do
  n=$(find "$dir" -name '*.rs' | sort | xargs awk '
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
    END { print n + 0 }
  ')
  printf '%-24s %7d\n' "$dir" "$n"
  total=$((total + n))
done
printf 'code_lines total: %d\n' "$total"

# The same set verify.sh diffs against README.md's knob tables.
knobs=$(git grep -ohE '(env_u64|env_flag|env::var|env::var_os)\("TVA_[A-Z0-9_]+' -- 'crates/*/src/*' |
  grep -oE 'TVA_[A-Z0-9_]+' | grep -v '^TVA_NODE_TEST_' | sort -u | wc -l)
# `pub` fields of `pub struct $2` in file $1.
fields() {
  awk -v open="pub struct $2 {" '
    $0 == open { on = 1; next }
    on && /^}/ { exit }
    on && /^    pub [a-z_0-9]+:/ { n++ }
    END { print n + 0 }
  ' "$1"
}
scenario=crates/experiments/src/scenario.rs
# `faults` is a LinkFaults: count its fields in place of the one that holds it.
printf 'options: env knobs %d, ScenarioConfig %d, RouterConfig %d, NodeConfig %d\n' "$knobs" \
  $(($(fields $scenario ScenarioConfig) - 1 + $(fields $scenario LinkFaults))) \
  "$(fields crates/core/src/config.rs RouterConfig)" \
  "$(fields crates/node/src/lib.rs NodeConfig)"
