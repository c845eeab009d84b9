#!/usr/bin/env bash
# CI smoke test for crash triage (DESIGN.md section 14):
#
#   1. seed a synthetic crasher — a solve whose source structure carries
#      one BOOM tuple (arming CQCSP_TEST_ABORT=segv:BOOM) buried under
#      two dozen noise tuples — through a sandboxed stdio daemon, which
#      must answer a typed code-6 worker_crash response and spool a dump;
#   2. `cqc triage` must replay the dump, reproduce the signal
#      signature, and minimize the reproducer by at least 80% (tuples);
#   3. the minimized dump must itself replay with the same signature;
#   4. the same loop on a contain-op crasher exercises the query
#      minimizer end to end;
#   5. a batch frame with one BOOM member among clean ones sharing its
#      template crashes the whole group; triage must replay the members
#      one at a time and minimize the BOOM one into a single-request
#      dump.
#
# Usage: test/triage_smoke.sh [path/to/cqc.exe]   (run from the repo
# root; needs jq)
set -euo pipefail

BIN=${1:-_build/default/bin/cqc.exe}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# On failure, preserve any spooled crash dumps where CI can upload them.
fail() {
  echo "triage_smoke: FAIL: $*" >&2
  if [ -n "${ARTIFACT_DIR:-}" ] && [ -d "${SPOOL:-/nonexistent}" ]; then
    mkdir -p "$ARTIFACT_DIR"
    cp "$SPOOL"/crash-*.json "$ARTIFACT_DIR"/ 2>/dev/null || true
  fi
  exit 1
}

command -v jq >/dev/null || fail "jq not found"
[ -x "$BIN" ] || fail "$BIN not built"

SPOOL="$TMP/spool"

# --- Seed: padded solve crasher ---------------------------------------
# One BOOM tuple is the trigger; the 24 ring/chord edges and the other
# 11 universe elements are noise the minimizer must strip.
SOURCE='size 12\nrel E 2\nrel BOOM 1\nBOOM 0\n'
for i in $(seq 0 11); do
  SOURCE+="E $i $(( (i + 1) % 12 ))\n"
done
for i in $(seq 0 11); do
  SOURCE+="E $i $(( (i + 5) % 12 ))\n"
done
TARGET='size 2\nrel E 2\nrel BOOM 1\nE 0 1\nE 1 0\n'

FRAME="{\"id\":1,\"op\":\"solve\",\"source\":\"$SOURCE\",\"target\":\"$TARGET\"}"
printf '%s\n' "$FRAME" \
  | env CQCSP_TEST_ABORT=segv:BOOM \
      "$BIN" serve --stdio --sandbox --spool "$SPOOL" \
      >"$TMP/responses.jsonl" 2>"$TMP/serve.stderr" \
  || fail "stdio daemon exited nonzero seeding the crasher"

jq -e '.code == 6 and .crash == "signal" and (.dump | type == "string")' \
  "$TMP/responses.jsonl" >/dev/null \
  || fail "seeded crasher did not produce a code-6 worker_crash response: $(cat "$TMP/responses.jsonl")"
DUMP=$(jq -r '.dump' "$TMP/responses.jsonl")
[ -f "$DUMP" ] || fail "response names a dump that does not exist: $DUMP"

# --- Minimize ---------------------------------------------------------
"$BIN" triage "$DUMP" --out "$TMP/min.json" \
  >"$TMP/triage.out" 2>"$TMP/triage.err" \
  || fail "triage exited nonzero: $(cat "$TMP/triage.err")"
grep -q '^signature: signal (reproduced)$' "$TMP/triage.out" \
  || fail "triage did not reproduce the signal signature: $(cat "$TMP/triage.out")"
RED=$(sed -n 's/^reduction: \([0-9][0-9]*\)%$/\1/p' "$TMP/triage.out")
[ -n "$RED" ] || fail "triage printed no reduction line"
[ "$RED" -ge 80 ] || fail "reduction $RED% is below the 80% floor"
[ -f "$TMP/min.json" ] || fail "triage wrote no minimized dump"

# --- The minimized reproducer must still reproduce --------------------
"$BIN" triage "$TMP/min.json" --out "$TMP/min2.json" \
  >"$TMP/triage2.out" 2>/dev/null \
  || fail "minimized dump does not replay"
grep -q '(reproduced)' "$TMP/triage2.out" \
  || fail "minimized dump lost the crash signature"

# --- Contain-op crasher: the query minimizer --------------------------
# The canonical instance of q1 freezes its body atoms into tuples, so a
# P atom in q1 arms kill:P; the E chain and spare variables are noise.
CONTAIN='{"id":2,"op":"contain","q1":"Q(X) :- E(X,Y), E(Y,Z), E(Z,W), P(W), E(W,V).","q2":"Q(X) :- E(X,Y), P(Y)."}'
printf '%s\n' "$CONTAIN" \
  | env CQCSP_TEST_ABORT=kill:P \
      "$BIN" serve --stdio --sandbox --spool "$SPOOL" \
      >"$TMP/contain.jsonl" 2>/dev/null \
  || fail "stdio daemon exited nonzero seeding the contain crasher"
jq -e '.code == 6 and (.dump | type == "string")' "$TMP/contain.jsonl" >/dev/null \
  || fail "contain crasher did not produce a code-6 response: $(cat "$TMP/contain.jsonl")"
CDUMP=$(jq -r '.dump' "$TMP/contain.jsonl")
"$BIN" triage "$CDUMP" --out "$TMP/cmin.json" \
  >"$TMP/ctriage.out" 2>"$TMP/ctriage.err" \
  || fail "contain triage exited nonzero: $(cat "$TMP/ctriage.err")"
grep -q '(reproduced)' "$TMP/ctriage.out" \
  || fail "contain triage did not reproduce: $(cat "$TMP/ctriage.out")"
grep -q '^atoms: ' "$TMP/ctriage.out" \
  || fail "contain triage printed no atoms line"

# --- Batch crasher: one BOOM member among clean ones -----------------
# The members share one target, so they form one group and one worker:
# the BOOM member takes the whole group down.  The clean members carry
# an empty BOOM relation, which leaves the hook inert.
CLEAN='size 3\nrel E 2\nrel BOOM 1\nE 0 1\nE 1 2\n'
BATCH="[{\"id\":10,\"op\":\"solve\",\"source\":\"$CLEAN\",\"target\":\"$TARGET\"},\
{\"id\":11,\"op\":\"solve\",\"source\":\"$SOURCE\",\"target\":\"$TARGET\"},\
{\"id\":12,\"op\":\"solve\",\"source\":\"$CLEAN\",\"target\":\"$TARGET\"}]"
printf '%s\n' "$BATCH" \
  | env CQCSP_TEST_ABORT=segv:BOOM \
      "$BIN" serve --stdio --sandbox --spool "$SPOOL" \
      >"$TMP/batch.jsonl" 2>/dev/null \
  || fail "stdio daemon exited nonzero seeding the batch crasher"
jq -e 'length == 3 and all(.[]; .code == 6) and (.[1].dump | type == "string")' \
  "$TMP/batch.jsonl" >/dev/null \
  || fail "batch crasher did not crash its group: $(cat "$TMP/batch.jsonl")"
BDUMP=$(jq -r '.[1].dump' "$TMP/batch.jsonl")
"$BIN" triage "$BDUMP" --out "$TMP/bmin.json" \
  >"$TMP/btriage.out" 2>"$TMP/btriage.err" \
  || fail "batch triage exited nonzero: $(cat "$TMP/btriage.err")"
grep -q '^signature: signal (reproduced)$' "$TMP/btriage.out" \
  || fail "batch triage did not reproduce: $(cat "$TMP/btriage.out")"
jq -e '.line | fromjson | type == "object" and .id == 11' "$TMP/bmin.json" >/dev/null \
  || fail "batch triage did not write a single-request dump of the BOOM member"
"$BIN" triage "$TMP/bmin.json" --out "$TMP/bmin2.json" \
  >"$TMP/btriage2.out" 2>/dev/null \
  || fail "minimized batch dump does not replay"
BRED=$(sed -n 's/^reduction: \([0-9][0-9]*\)%$/\1/p' "$TMP/btriage.out")

echo "triage_smoke: OK (solve reduction ${RED}%, minimized dump replays; contain minimizer reproduced; batch member isolated, reduction ${BRED}%)"
