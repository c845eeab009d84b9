#!/usr/bin/env bash
# Who calls what the production libraries export.
#
# Reads every .cmt of a finished build with ocamlcmt, which resolves
# each use of another module's value to the [val] it names: a line
# `int_ref Mod.v "lib/d/m.mli" LINE ...`.  Every [val] of a production
# library (each lib/* but oracle, testkit and certificate) is then put
# in one class, the best its callers reach:
#
#   production       named outside its own module by lib/ (testkit and
#                    oracle aside), bin/ or perfbench/
#   bench/examples   named by bench/ or examples/, and no production file
#   tests only       named by test/, lib/testkit or lib/oracle only
#   none             named by no other module
#
# Prints one line per value outside the production class, then the four
# counts.  Fails if a source module has no .cmt or ocamlcmt cannot read
# one, so a broken scan cannot print a low count.  A plain `dune build`
# leaves out the executables' .cmt; `dune build @check` writes them all,
# and the scan rebuilds any that went stale since:
#
#   dune build @check && bash scripts/exports.sh
set -euo pipefail
cd "$(dirname "$0")/.."

build=_build/default
cmts=$(find "$build" -name '*.cmt' -path '*/byte/*' | sort)
incs=$(find "$build" -type d -name byte | sort | sed 's/^/-I /')
# shellcheck disable=SC2086
[ -z "$cmts" ] || dune build $cmts

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Every module of the source tree needs its .cmt, or its callers go
# uncounted: d/m.ml is compiled to _build/default/d/.<stanza>.objs/byte/
# as m.cmt, or <prefix>__M.cmt inside a library or an executable.
for cmt in $cmts; do
  d=${cmt#"$build"/}
  d=${d%%/.*}
  m=$(basename "$cmt" .cmt)
  echo "$d/${m##*__}" | tr '[:upper:]' '[:lower:]'
done | sort -u >"$tmp/compiled"
find lib bin bench examples test perfbench -name '*.ml' | sed 's/\.ml$//' \
  | tr '[:upper:]' '[:lower:]' | sort -u >"$tmp/sources"
missing=$(comm -23 "$tmp/sources" "$tmp/compiled")
if [ -n "$missing" ]; then
  echo "exports.sh: no .cmt for these modules; run dune build @check first:" >&2
  echo "$missing" | sed 's/^/  /' >&2
  exit 2
fi

# One line per cross-module reference: caller file, declaring .mli, line.
# The .cmt's own directory goes first: each executable directory has its
# own dune__exe alias module.
ncmt=0
for cmt in $cmts; do
  # shellcheck disable=SC2086
  if ! ocamlcmt -I "$(dirname "$cmt")" $incs -annot -o "$tmp/annot" "$cmt"; then
    echo "exports.sh: ocamlcmt failed on $cmt" >&2
    exit 1
  fi
  awk '/^"/ { caller = $1; gsub(/"/, "", caller); next }
       $1 == "int_ref" && $3 ~ /^"lib\/.*\.mli"$/ {
         decl = $3; gsub(/"/, "", decl); print caller, decl, $4 }' \
    "$tmp/annot" >>"$tmp/refs"
  ncmt=$((ncmt + 1))
done
touch "$tmp/refs"

# Every exported val of a production library: file, line, name.
for mli in $(find lib -name '*.mli' | sort); do
  case "$mli" in lib/oracle/* | lib/testkit/* | lib/certificate/*) continue ;; esac
  awk -v f="$mli" 'match($0, /^[ \t]*(val|external)[ \t]+/) {
      rest = substr($0, RLENGTH + 1)
      if (match(rest, /^\([^)]*\)/) || match(rest, /^[a-z_][A-Za-z0-9_'\'']*/))
        print f, FNR, substr(rest, 1, RLENGTH) }' "$mli"
done >"$tmp/vals"

awk -v ncmt="$ncmt" '
  function stem(p) { sub(/\.mli?$/, "", p); return p }
  function rank(caller) {
    if (caller ~ /^(test|lib\/testkit|lib\/oracle)\//) return 1
    if (caller ~ /^(bench|examples)\//) return 2
    return 3
  }
  FILENAME == ARGV[1] {
    nrefs++
    if (stem($1) == stem($2)) next
    k = $2 ":" $3; r = rank($1)
    if (r > best[k]) best[k] = r
    next
  }
  {
    k = $1 ":" $2; c = best[k] + 0; count[c]++
    if (c < 3) printf "%-15s %s:%s %s\n", name[c], $1, $2, $3
  }
  BEGIN {
    name[0] = "none"; name[1] = "tests-only"
    name[2] = "bench/examples"; name[3] = "production"
  }
  END {
    printf "exports: %d .cmt read, %d references into lib/\n", ncmt, nrefs
    printf "exports: production %d, bench/examples %d, tests only %d, none %d\n",
      count[3] + 0, count[2] + 0, count[1] + 0, count[0] + 0
  }' "$tmp/refs" "$tmp/vals"
