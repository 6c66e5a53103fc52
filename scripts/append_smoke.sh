#!/usr/bin/env sh
# Append smoke test: drive the incremental row-append API end to end against
# a live katarad and verify the service contract around it.
#
#   1. generate a small benchmark environment (kbgen)
#   2. build katarad and promlint
#   3. boot katarad on a journal directory, submit a root job, await `done`
#   4. POST /jobs/{id}/append — expect 202, await the appended job's `done`,
#      require its cumulative report to differ from the root's (it covers
#      more rows)
#   5. probe the admission contract: a second append on the same root is 409
#      (parent already extended), an append on an unknown job is 404, a
#      wrong-arity delta is 400
#   6. /metrics must stay promlint-clean and report
#      katarad_jobs_appended_total 1
#   7. SIGTERM, restart on the same journal, and require the appended job's
#      result document to be byte-identical after replay — the append record
#      must survive the crash boundary
#
# Any wrong status code, diverging replay, or dirty exposition fails the
# script. CI runs this as the append-smoke job; it needs only the go
# toolchain and curl.

set -eu

ADDR="127.0.0.1:18591"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
KATARAD_PID=""
trap '[ -n "$KATARAD_PID" ] && kill "$KATARAD_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

echo "append-smoke: generating small environment in $WORK"
go run ./cmd/kbgen -size small -out "$WORK"

echo "append-smoke: building binaries"
go build -o "$WORK/katarad" ./cmd/katarad
go build -o "$WORK/promlint" ./cmd/promlint

# Payload builder: stdlib-only helper emitting the submit document, a 5-row
# append delta, and a deliberately wrong-arity delta from the same CSV.
cat >"$WORK/mkpayload.go" <<'EOF'
package main

import (
	"encoding/csv"
	"encoding/json"
	"os"
)

func main() {
	f, err := os.Open(os.Args[1])
	if err != nil {
		panic(err)
	}
	recs, err := csv.NewReader(f).ReadAll()
	f.Close()
	if err != nil || len(recs) < 7 {
		panic("short csv")
	}
	write := func(name string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(name, b, 0o644); err != nil {
			panic(err)
		}
	}
	type tableDoc struct {
		Name    string     `json:"name"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	write(os.Args[2], map[string]any{
		"table":  tableDoc{Name: "smoke", Columns: recs[0], Rows: recs[1:]},
		"params": map[string]any{"workers": 2},
	})
	write(os.Args[3], map[string]any{"rows": recs[1:6]})
	bad := make([]string, len(recs[1])+1)
	copy(bad, recs[1])
	write(os.Args[4], map[string]any{"rows": [][]string{bad}})
}
EOF
go run "$WORK/mkpayload.go" "$WORK/RelationalTables/Soccer.dirty.csv" \
    "$WORK/submit.json" "$WORK/delta.json" "$WORK/delta-bad.json"

echo "append-smoke: starting katarad on $ADDR"
"$WORK/katarad" \
    -kb "$WORK/yago.nt" \
    -listen "$ADDR" \
    -journal-dir "$WORK/journal" >"$WORK/daemon.log" 2>&1 &
KATARAD_PID=$!

wait_healthy() {
    i=0
    until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -ge 150 ]; then
            echo "append-smoke: FAIL: /healthz never came up" >&2
            cat "$WORK/daemon.log" >&2 || true
            exit 1
        fi
        sleep 0.1
    done
}
wait_healthy

# expect_code METHOD URL BODY_FILE WANT OUT — request, assert status code.
expect_code() {
    code=$(curl -s -o "$5" -w '%{http_code}' -X "$1" \
        -H 'Content-Type: application/json' \
        ${3:+--data-binary "@$3"} "$2")
    if [ "$code" != "$4" ]; then
        echo "append-smoke: FAIL: $1 $2 returned $code, want $4" >&2
        cat "$5" >&2 || true
        exit 1
    fi
}

# await_done ID OUT — poll the result endpoint until the job is done.
await_done() {
    i=0
    while :; do
        code=$(curl -s -o "$2" -w '%{http_code}' "$BASE/jobs/$1/result")
        if [ "$code" = "200" ]; then
            grep -q '"state": *"done"' "$2" && return 0
            echo "append-smoke: FAIL: job $1 terminal but not done" >&2
            cat "$2" >&2
            exit 1
        fi
        i=$((i + 1))
        if [ "$i" -ge 600 ]; then
            echo "append-smoke: FAIL: job $1 never finished (last code $code)" >&2
            exit 1
        fi
        sleep 0.1
    done
}

echo "append-smoke: submitting root job"
expect_code POST "$BASE/jobs" "$WORK/submit.json" 202 "$WORK/root-accept.json"
ROOT="$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$WORK/root-accept.json")"
[ -n "$ROOT" ] || { echo "append-smoke: FAIL: no root id" >&2; exit 1; }
await_done "$ROOT" "$WORK/root-result.json"
echo "append-smoke: root $ROOT done"

echo "append-smoke: appending 5 rows"
expect_code POST "$BASE/jobs/$ROOT/append" "$WORK/delta.json" 202 "$WORK/append-accept.json"
CHILD="$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$WORK/append-accept.json")"
[ -n "$CHILD" ] || { echo "append-smoke: FAIL: no appended job id" >&2; exit 1; }
await_done "$CHILD" "$WORK/append-result.json"
if cmp -s "$WORK/root-result.json" "$WORK/append-result.json"; then
    echo "append-smoke: FAIL: appended result identical to root (delta ignored)" >&2
    exit 1
fi
echo "append-smoke: appended job $CHILD done, cumulative report grew"

echo "append-smoke: probing admission conflicts"
expect_code POST "$BASE/jobs/$ROOT/append" "$WORK/delta.json" 409 "$WORK/conflict.json"
expect_code POST "$BASE/jobs/no-such-job/append" "$WORK/delta.json" 404 "$WORK/notfound.json"
expect_code POST "$BASE/jobs/$CHILD/append" "$WORK/delta-bad.json" 400 "$WORK/badreq.json"
echo "append-smoke: 409/404/400 contract ok"

curl -fsS "$BASE/metrics" >"$WORK/metrics.txt"
"$WORK/promlint" "$WORK/metrics.txt"
grep -q '^katarad_jobs_appended_total 1$' "$WORK/metrics.txt" || {
    echo "append-smoke: FAIL: katarad_jobs_appended_total != 1" >&2
    grep '^katarad_' "$WORK/metrics.txt" >&2 || true
    exit 1
}
echo "append-smoke: /metrics ok"

echo "append-smoke: restarting on the same journal"
kill -TERM "$KATARAD_PID"
wait "$KATARAD_PID" 2>/dev/null || {
    echo "append-smoke: FAIL: katarad exited non-zero" >&2
    cat "$WORK/daemon.log" >&2 || true
    exit 1
}
"$WORK/katarad" \
    -kb "$WORK/yago.nt" \
    -listen "$ADDR" \
    -journal-dir "$WORK/journal" >"$WORK/daemon2.log" 2>&1 &
KATARAD_PID=$!
wait_healthy
await_done "$CHILD" "$WORK/append-replayed.json"
if ! cmp -s "$WORK/append-result.json" "$WORK/append-replayed.json"; then
    echo "append-smoke: FAIL: appended result changed across restart" >&2
    exit 1
fi
echo "append-smoke: appended result byte-identical after replay"

kill -TERM "$KATARAD_PID"
wait "$KATARAD_PID" 2>/dev/null || {
    echo "append-smoke: FAIL: final shutdown exited non-zero" >&2
    cat "$WORK/daemon2.log" >&2 || true
    exit 1
}
KATARAD_PID=""

echo "append-smoke: PASS"
