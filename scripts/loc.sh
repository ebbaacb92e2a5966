#!/bin/sh
# Production lines of Rust, per crate and in total: non-blank lines that are
# not `//` comments, in crates/*/src/**/*.rs and src/, up to each file's
# first `#[cfg(test)]`; then the options: the rows of the TVA_* knob table
# (crates/sim/src/knobs.rs) and the settable fields of the three config
# structs.
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

# One `const NAME: Knob = knob(` per row; tests/options.rs holds README's
# table equal to them.
knobs=$(grep -c '^const [A-Z0-9_]*: Knob = knob(' crates/sim/src/knobs.rs)
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
