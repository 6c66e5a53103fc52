#!/usr/bin/env sh
# Daemon smoke test: boot katarad against a generated KB, hammer it with a
# kload burst, and verify the service invariants end to end.
#
#   1. generate a small benchmark environment (kbgen)
#   2. build katarad, kload and promlint
#   3. boot katarad, poll /healthz until the listener answers
#   4. run a kload burst (120 jobs, 100 concurrent) — kload itself asserts
#      every job completes, report documents are byte-identical, and every
#      /metrics scrape is lint-clean and monotone
#   5. re-check /metrics through promlint after the burst; require the
#      katarad_build_info gauge, a non-empty label memo on the shared KB
#      (katarad_label_memo_entries, 0 before the first job) and a sane
#      /version document
#   6. ask /jobs/{id}/explain for a finished job's cell evidence chain
#   7. tear down with SIGTERM and require a clean exit
#
# Any kload violation, unparseable exposition, dead daemon, or unclean
# shutdown fails the script. CI runs this as the daemon-smoke job; it needs
# only the go toolchain.

set -eu

ADDR="127.0.0.1:18443"
JOBS="${JOBS:-120}"
CONCURRENCY="${CONCURRENCY:-100}"
WORK="$(mktemp -d)"
KATARAD_PID=""
trap '[ -n "$KATARAD_PID" ] && kill "$KATARAD_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

echo "daemon-smoke: generating small environment in $WORK"
go run ./cmd/kbgen -size small -out "$WORK"

echo "daemon-smoke: building binaries"
go build -o "$WORK/katarad" ./cmd/katarad
go build -o "$WORK/kload" ./cmd/kload
go build -o "$WORK/promlint" ./cmd/promlint

echo "daemon-smoke: starting katarad on $ADDR"
"$WORK/katarad" \
    -kb "$WORK/yago.nt" \
    -listen "$ADDR" \
    -max-concurrent 4 -max-queue 256 >"$WORK/daemon.log" 2>&1 &
KATARAD_PID=$!

i=0
until curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 150 ]; then
        echo "daemon-smoke: FAIL: /healthz never came up" >&2
        cat "$WORK/daemon.log" >&2 || true
        exit 1
    fi
    if ! kill -0 "$KATARAD_PID" 2>/dev/null; then
        echo "daemon-smoke: FAIL: katarad exited before serving" >&2
        cat "$WORK/daemon.log" >&2 || true
        exit 1
    fi
    sleep 0.1
done
echo "daemon-smoke: /healthz ok"

# The shared KB is built by the first job, so its label memo reads empty
# until then.
curl -fsS "http://$ADDR/metrics" | grep -q '^katarad_label_memo_entries 0$' || {
    echo "daemon-smoke: FAIL: katarad_label_memo_entries is not 0 before the first job" >&2
    exit 1
}

echo "daemon-smoke: kload burst ($JOBS jobs, $CONCURRENCY concurrent)"
"$WORK/kload" \
    -addr "$ADDR" \
    -in "$WORK/RelationalTables/Soccer.dirty.csv" \
    -jobs "$JOBS" -concurrency "$CONCURRENCY" -workers 4

# Post-burst exposition must still be promlint-clean and carry both the
# pipeline and the daemon job-accounting families.
curl -fsS "http://$ADDR/metrics" >"$WORK/metrics.txt"
"$WORK/promlint" "$WORK/metrics.txt"
grep -q '^katara_tuples_annotated_total ' "$WORK/metrics.txt" || {
    echo "daemon-smoke: FAIL: /metrics missing katara_tuples_annotated_total" >&2
    exit 1
}
grep -q "^katarad_jobs_completed_total $JOBS\$" "$WORK/metrics.txt" || {
    echo "daemon-smoke: FAIL: katarad_jobs_completed_total != $JOBS" >&2
    grep '^katarad_' "$WORK/metrics.txt" >&2 || true
    exit 1
}
# Every job resolves its labels through the memo of the shared KB's
# frozen layer, so after the burst it holds lookups.
MEMO="$(sed -n 's/^katarad_label_memo_entries \([0-9]*\)$/\1/p' "$WORK/metrics.txt")"
[ "${MEMO:-0}" -gt 0 ] || {
    echo "daemon-smoke: FAIL: katarad_label_memo_entries is not > 0 after the burst" >&2
    grep '^katarad_label_memo' "$WORK/metrics.txt" >&2 || true
    exit 1
}
echo "daemon-smoke: /metrics ok ($(wc -l <"$WORK/metrics.txt") lines, $MEMO memoised label lookups)"

# Build identity: the exposition carries katarad_build_info and /version
# answers a JSON document naming the Go toolchain that built the binary.
grep -q '^katarad_build_info{' "$WORK/metrics.txt" || {
    echo "daemon-smoke: FAIL: /metrics missing katarad_build_info" >&2
    exit 1
}
curl -fsS "http://$ADDR/version" >"$WORK/version.json"
grep -q '"go_version"' "$WORK/version.json" || {
    echo "daemon-smoke: FAIL: /version missing go_version" >&2
    cat "$WORK/version.json" >&2 || true
    exit 1
}
echo "daemon-smoke: /version ok ($(cat "$WORK/version.json"))"

# Decision provenance over HTTP: every daemon job records lineage, so any
# of the finished burst jobs must answer /explain with an evidence chain.
JOB_ID="$(curl -fsS "http://$ADDR/jobs" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -1)"
[ -n "$JOB_ID" ] || {
    echo "daemon-smoke: FAIL: /jobs listed no job to explain" >&2
    exit 1
}
curl -fsS "http://$ADDR/jobs/$JOB_ID/explain?row=0&col=1" >"$WORK/explain.json"
grep -q '"verdict"' "$WORK/explain.json" || {
    echo "daemon-smoke: FAIL: /jobs/$JOB_ID/explain returned no verdict" >&2
    cat "$WORK/explain.json" >&2 || true
    exit 1
}
echo "daemon-smoke: /explain ok (job $JOB_ID)"

echo "daemon-smoke: shutting down with SIGTERM"
kill -TERM "$KATARAD_PID"
i=0
while kill -0 "$KATARAD_PID" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
        echo "daemon-smoke: FAIL: katarad did not exit after SIGTERM" >&2
        exit 1
    fi
    sleep 0.1
done
wait "$KATARAD_PID" 2>/dev/null || {
    echo "daemon-smoke: FAIL: katarad exited non-zero" >&2
    cat "$WORK/daemon.log" >&2 || true
    exit 1
}
KATARAD_PID=""
grep -q 'msg=bye' "$WORK/daemon.log" || {
    echo "daemon-smoke: FAIL: shutdown was not clean" >&2
    cat "$WORK/daemon.log" >&2 || true
    exit 1
}
echo "daemon-smoke: clean shutdown"

echo "daemon-smoke: PASS"
