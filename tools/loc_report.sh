#!/bin/sh
# Report the size of the libraries and their environment surface.
#
# Prints the .ml and .mli line counts of every library under lib/,
# their totals, the number of distinct OMPSIMD_* knobs the libraries
# read (a knob counts when its name appears as a string literal in a
# lib/ .ml file, which is how the settings parser spells it), and the
# number of environment-access sites below the edge: lines of lib/
# mentioning Sys.getenv, Env. or Unix.putenv outside lib/util/env.ml*
# and the settings parser (lib/settings/), which must stay 0.  Last
# comes the number of full matches over Ir.stmt in each lib/ompir
# module: lines of its .ml naming Simd_sum, the constructor every
# exhaustive statement match spells out, so the count tracks how many
# hand-written traversals remain beside Visit.
# Pass --names to list the knobs as well; --check lists the access
# sites and fails when there are any (a runtest rule runs it).
#
# Usage: tools/loc_report.sh [--names | --check]   (from anywhere in the repo)
set -eu

cd "$(dirname "$0")/.."

lines() {
  # total line count of the given files; 0 when there are none
  if [ "$#" -eq 0 ]; then echo 0; else cat "$@" | wc -l | tr -d ' '; fi
}

env_sites() {
  grep -rnE 'Sys\.getenv|Env\.|Unix\.putenv' lib \
    --include='*.ml' --include='*.mli' \
    | grep -vE '^lib/util/env\.mli?:|^lib/settings/' || true
}

if [ "${1:-}" = "--check" ]; then
  sites=$(env_sites)
  if [ -n "$sites" ]; then
    echo "environment reads below the edge (use the Settings value instead):"
    printf '%s\n' "$sites"
    exit 1
  fi
  exit 0
fi

printf '%-18s %7s %7s %7s\n' library ml mli total
ml_all=0
mli_all=0
for dir in lib/*/; do
  dir=${dir%/}
  # shellcheck disable=SC2046
  ml=$(lines $(find "$dir" -name '*.ml' | sort))
  # shellcheck disable=SC2046
  mli=$(lines $(find "$dir" -name '*.mli' | sort))
  printf '%-18s %7d %7d %7d\n' "$dir" "$ml" "$mli" $((ml + mli))
  ml_all=$((ml_all + ml))
  mli_all=$((mli_all + mli))
done
printf '%-18s %7d %7d %7d\n' "lib (all)" "$ml_all" "$mli_all" \
  $((ml_all + mli_all))

knobs=$(grep -rhoE '"OMPSIMD_[A-Z0-9_]+"' lib --include='*.ml' \
  | tr -d '"' | sort -u)
printf 'OMPSIMD_* knobs read under lib/: %d\n' \
  "$(printf '%s\n' "$knobs" | grep -c .)"
printf 'environment-access sites in lib/ outside env and settings: %d\n' \
  "$(env_sites | grep -c . || true)"
if [ "${1:-}" = "--names" ]; then
  printf '%s\n' "$knobs" | sed 's/^/  /'
fi

printf 'Ir.stmt match sites (lines naming Simd_sum) per lib/ompir module:\n'
sites_all=0
for f in lib/ompir/*.ml; do
  n=$(grep -c 'Simd_sum' "$f" || true)
  if [ "$n" -gt 0 ]; then
    printf '  %-16s %3d\n' "$(basename "$f" .ml)" "$n"
    sites_all=$((sites_all + n))
  fi
done
printf '  %-16s %3d\n' "(all)" "$sites_all"
