#!/bin/sh
# Production lines of Rust, per crate and in total: non-blank lines that are
# not `//` comments, in crates/*/src/**/*.rs and src/, up to each file's
# first `#[cfg(test)]`; then the options: the rows of the TVA_* knob table
# (crates/sim/src/knobs.rs), the settable fields of every config struct and
# the cargo features the manifests declare.
# "Less code, fewer options" as numbers; verify.sh prints the last two
# lines.
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
# The `pub` fields of every `pub struct *Config` under crates/*/src, one
# "Name count" line each. ScenarioConfig's `faults` is a LinkFaults: its
# fields are counted in place of the one that holds them.
configs=$(find crates/*/src -name '*.rs' | sort | xargs awk '
  /^pub struct [A-Za-z0-9_]*Config \{$/ { name = $3; n[name] = 0; on = 1; next }
  /^pub struct LinkFaults \{$/ { name = ""; on = 1; next }
  on && /^}/ { on = 0; next }
  on && /^    pub [a-z_0-9]+:/ { if (name == "") faults++; else n[name]++ }
  END {
    for (s in n) print s, (s == "ScenarioConfig" ? n[s] - 1 + faults : n[s])
  }
' | sort -k2,2nr -k1,1)
total_fields=$(printf '%s\n' "$configs" | awk '{ t += $2 } END { print t + 0 }')
per_struct=$(printf '%s\n' "$configs" | awk '{ printf "%s%s %d", sep, $1, $2; sep = ", " }')
# The `name = [...]` lines of every `[features]` table in the root and
# crate manifests; tests/options.rs holds it at zero.
features=$(awk '
  /^\[/ { on = ($0 == "[features]"); next }
  on && /^[A-Za-z0-9_-]+[[:space:]]*=/ { n++ }
  END { print n + 0 }
' Cargo.toml crates/*/Cargo.toml)
printf 'options: env knobs %d, config fields %d (%s), cargo features %d\n' \
  "$knobs" "$total_fields" "$per_struct" "$features"
