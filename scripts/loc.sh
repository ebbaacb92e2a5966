#!/bin/sh
# Production lines of Rust, per crate and in total: non-blank lines that are
# not `//` comments, in crates/*/src/**/*.rs and src/, up to each file's
# first `#[cfg(test)]`. ROADMAP item 3's "less code" as a number; verify.sh
# prints the total.
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
