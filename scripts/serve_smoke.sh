#!/bin/sh
# serve_smoke: black-box the serving daemon the way an operator would.
#
#  1. Self-bench: boot chirond with SocialNetwork preloaded and planned
#     and 8 admission slots, fire 200 closed-loop invocations at it (8
#     workers, so none ever queues), exit 0, and require every one to
#     succeed: ok=200 rejected=0 failed=0.
#  2. Daemon: boot chirond on an ephemeral port with hedging armed
#     (-hedge-quantile 1.5), register and plan SocialNetwork over HTTP,
#     fire 50 invocations requiring every one to return 2xx, and check
#     /metrics: requests_total is exactly 50 and the warm pool absorbs
#     the load (few cold starts, many warm hits).
#  3. Hedging: drive 100 TailHeavy invocations (a 4%/200ms straggler
#     workload); require at least one hedge win, wins + wasted = hedges,
#     and requests_total exactly 150 (a duplicate completion from a lost
#     hedge race would overcount it).
#  4. Unknown name: two invocations of an unregistered workflow both
#     return 404 with a body naming the workflow.
#  5. SIGTERM, and require a clean drain (exit 0).
#
# Expects bin/chirond (make chirond) and curl.
set -eu

DIR=$(mktemp -d "${TMPDIR:-/tmp}/chirond-serve-smoke.XXXXXX")
LOG="$DIR/chirond.log"
PID=
trap '[ -n "$PID" ] && kill "$PID" 2>/dev/null; rm -rf "$DIR"' EXIT

fail() {
	echo "serve-smoke: $*" >&2
	[ -f "$LOG" ] && cat "$LOG" >&2
	exit 1
}

# invoke NAME N: POST N invocations of NAME, each must return 2xx.
invoke() {
	i=0
	while [ $i -lt "$2" ]; do
		code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
			"http://$ADDR/workflows/$1/invoke")
		case "$code" in
		2*) ;;
		*) fail "$1 invoke $i returned HTTP $code" ;;
		esac
		i=$((i + 1))
	done
}

# 1. Self-bench leg.
./bin/chirond -addr 127.0.0.1:0 -scale 0.01 -preload SocialNetwork -plan \
	-max-concurrency 8 -selfbench 200 -selfbench-conc 8 >"$LOG" 2>&1 ||
	fail "selfbench leg failed"
cat "$LOG"
grep -q 'chirond selfbench: sent=200 ok=200 rejected=0 failed=0 ' "$LOG" ||
	fail "selfbench leg did not serve all 200 invocations"

# 2. Daemon leg.
./bin/chirond -addr 127.0.0.1:0 -scale 0.01 -hedge-quantile 1.5 >"$LOG" 2>&1 &
PID=$!

ADDR=
i=0
while [ $i -lt 100 ]; do
	ADDR=$(sed -n 's#^chirond listening on http://##p' "$LOG")
	[ -n "$ADDR" ] && break
	i=$((i + 1))
	sleep 0.1
done
[ -n "$ADDR" ] || fail "chirond never came up"

# Readiness, not sleep: /readyz returns 200 once the gateway serves (and
# 503 the moment a drain starts).
i=0
while [ $i -lt 100 ]; do
	curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1 && break
	i=$((i + 1))
	sleep 0.1
done
curl -fsS "http://$ADDR/readyz" >/dev/null || fail "chirond never became ready"

curl -fsS -X POST "http://$ADDR/workflows" -d '{"builtin":"SocialNetwork"}' >/dev/null
curl -fsS -X POST "http://$ADDR/workflows/SocialNetwork/plan" -d '{"slo":"500ms"}' >/dev/null
invoke SocialNetwork 50
curl -fsS "http://$ADDR/metrics" >"$DIR/metrics.txt"
grep -q '^chiron_serve_requests_total 50$' "$DIR/metrics.txt" ||
	fail "requests_total is not 50 after 50 invocations"
# Warm-pool reuse: under steady sequential load the cold-start counter
# stops rising. An adaptive re-plan retires the pool and costs one extra
# cold boot, so allow a handful rather than asserting exactly one.
awk '$1=="chiron_serve_coldstarts_total"{c=$2}
     $1=="chiron_serve_warmhits_total"{w=$2}
     END{ printf "serve-smoke: cold=%d warm=%d\n", c, w;
          exit (c=="" || w=="" || c+0 > 5 || w+0 < 45) }' "$DIR/metrics.txt" ||
	fail "warm pool did not absorb the load"

# 3. Hedging leg.
curl -fsS -X POST "http://$ADDR/workflows" -d '{"builtin":"TailHeavy"}' >/dev/null
curl -fsS -X POST "http://$ADDR/workflows/TailHeavy/plan" -d '{"slo":"500ms"}' >/dev/null
invoke TailHeavy 100
curl -fsS "http://$ADDR/metrics" >"$DIR/metrics2.txt"
grep -q '^chiron_serve_requests_total 150$' "$DIR/metrics2.txt" ||
	fail "requests_total is not 150 after 150 invocations"
awk '$1=="chiron_serve_hedges_total"{h=$2}
     $1=="chiron_serve_hedge_wins_total"{w=$2}
     $1=="chiron_serve_hedge_wasted_total"{l=$2}
     END{ printf "serve-smoke: hedges=%d wins=%d wasted=%d\n", h, w, l;
          exit (h=="" || w=="" || l=="" || w+0 < 1 || w+l != h) }' "$DIR/metrics2.txt" ||
	fail "hedge accounting failed"

# 4. Unknown-name leg: every 404 names the workflow, repeats included.
for i in 1 2; do
	code=$(curl -s -o "$DIR/404.json" -w '%{http_code}' -X POST \
		"http://$ADDR/workflows/NoSuchWorkflow/invoke")
	[ "$code" = 404 ] || fail "unknown workflow probe $i returned HTTP $code, want 404"
	grep -q 'NoSuchWorkflow' "$DIR/404.json" ||
		fail "unknown workflow probe $i: 404 body does not name the workflow: $(cat "$DIR/404.json")"
done

# 5. Clean drain.
kill -TERM "$PID"
wait "$PID" || fail "chirond exited non-zero on SIGTERM"
PID=
grep -q 'drained cleanly' "$LOG" || fail "no clean drain"
cat "$LOG"
echo "serve-smoke: OK — selfbench 200, SocialNetwork 50, TailHeavy 100 with hedge wins, 404s name the workflow, clean drain"
