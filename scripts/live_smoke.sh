#!/usr/bin/env sh
# Live-plane smoke test: start paldia-sim -serve on a short paced replay,
# scrape /metrics mid-run, read at least one SSE event from /events, and
# assert the process exits cleanly on its own. Needs only curl + a Go
# toolchain; used by the CI live-smoke job and `make live-smoke`.
set -eu

PORT="${LIVE_SMOKE_PORT:-18080}"
ADDR="127.0.0.1:$PORT"
BIN="$(mktemp -d)/paldia-sim"
OUT="$(mktemp)"
trap 'kill "$SIM_PID" 2>/dev/null || true; rm -f "$OUT"' EXIT

go build -o "$BIN" ./cmd/paldia-sim

# 2m of trace (+30s drain) at speedup 30 is ~5s of wall time: long enough to
# scrape mid-run, short enough for CI. -linger holds the server up briefly
# after the replay so late scrapes still land.
"$BIN" -serve "$ADDR" -speedup 30 -duration 2m -peak 100 -progress 1s -linger 5s >"$OUT" 2>&1 &
SIM_PID=$!

# Wait for the server to come up.
i=0
until curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -gt 50 ]; then
    echo "live-smoke: server never came up" >&2
    cat "$OUT" >&2
    exit 1
  fi
  sleep 0.2
done
echo "live-smoke: server up on $ADDR"

# Scrape /metrics and check for the families the operator story leans on.
SCRAPE="$(curl -sf "http://$ADDR/metrics")"
for family in paldia_virtual_time_seconds paldia_replay_speedup \
  paldia_requests_arrived_total paldia_slo_burn_rate paldia_slo_compliance; do
  if ! printf '%s\n' "$SCRAPE" | grep -q "^$family"; then
    echo "live-smoke: /metrics is missing $family" >&2
    printf '%s\n' "$SCRAPE" | head -40 >&2
    exit 1
  fi
done
echo "live-smoke: /metrics exposes the expected families"

# /state must be JSON with the virtual clock running.
curl -sf "http://$ADDR/state" | grep -q '"virtual_time_ns"' ||
  { echo "live-smoke: /state has no virtual clock" >&2; exit 1; }

# The dashboard must serve.
curl -sf "http://$ADDR/" | grep -q "paldia live replay" ||
  { echo "live-smoke: dashboard did not render" >&2; exit 1; }

# Read the SSE feed: at least the hello event must arrive within 5s (during
# a live replay we'll also see span/gauge events).
SSE="$(curl -sN --max-time 5 "http://$ADDR/events" | head -c 4096 || true)"
printf '%s\n' "$SSE" | grep -q "^event: hello" ||
  { echo "live-smoke: no hello event on /events" >&2; printf '%s\n' "$SSE" >&2; exit 1; }
EVENTS="$(printf '%s\n' "$SSE" | grep -c '^event: ')"
echo "live-smoke: read $EVENTS SSE events"

# The process must finish on its own (replay + linger ≈ 10s; allow 60).
i=0
while kill -0 "$SIM_PID" 2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 120 ]; then
    echo "live-smoke: simulator did not exit" >&2
    cat "$OUT" >&2
    exit 1
  fi
  sleep 0.5
done
wait "$SIM_PID" 2>/dev/null || { echo "live-smoke: simulator exited non-zero" >&2; cat "$OUT" >&2; exit 1; }
trap 'rm -f "$OUT"' EXIT

grep -q "SLO compliance" "$OUT" ||
  { echo "live-smoke: no result panel in output" >&2; cat "$OUT" >&2; exit 1; }
grep -q "progress: " "$OUT" ||
  { echo "live-smoke: no progress lines in output" >&2; cat "$OUT" >&2; exit 1; }
echo "live-smoke: clean shutdown with result panel and progress lines"

# Sharded dimension: the same live replay over a 2-tenant grid on 2 workers.
# The plane must serve, progress must carry the per-shard virtual-time lag,
# and — the non-perturbation contract — stdout must be byte-identical to the
# same grid run offline (no -serve, no -progress).
OUT2="$(mktemp)"
ERR2="$(mktemp)"
OFF="$(mktemp)"
trap 'kill "$SIM_PID" 2>/dev/null || true; rm -f "$OUT" "$OUT2" "$ERR2" "$OFF"' EXIT
"$BIN" -serve "$ADDR" -speedup 30 -duration 2m -peak 100 -tenants 2 -j 2 \
  -progress 1s -linger 2s >"$OUT2" 2>"$ERR2" &
SIM_PID=$!
i=0
until curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -gt 50 ]; then
    echo "live-smoke: sharded server never came up" >&2
    cat "$OUT2" "$ERR2" >&2
    exit 1
  fi
  sleep 0.2
done
curl -sf "http://$ADDR/metrics" | grep -q "^paldia_virtual_time_seconds" ||
  { echo "live-smoke: sharded /metrics missing virtual time" >&2; exit 1; }
i=0
while kill -0 "$SIM_PID" 2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 120 ]; then
    echo "live-smoke: sharded simulator did not exit" >&2
    cat "$OUT2" "$ERR2" >&2
    exit 1
  fi
  sleep 0.5
done
wait "$SIM_PID" 2>/dev/null || { echo "live-smoke: sharded simulator exited non-zero" >&2; cat "$OUT2" "$ERR2" >&2; exit 1; }
trap 'rm -f "$OUT" "$OUT2" "$ERR2" "$OFF"' EXIT
grep -q "shard-lag=" "$ERR2" ||
  { echo "live-smoke: sharded progress has no shard-lag field" >&2; cat "$ERR2" >&2; exit 1; }
"$BIN" -stream -duration 2m -peak 100 -tenants 2 -j 2 >"$OFF" 2>/dev/null
if ! cmp -s "$OUT2" "$OFF"; then
  echo "live-smoke: sharded -serve perturbed the simulation output" >&2
  diff "$OFF" "$OUT2" >&2 || true
  exit 1
fi
echo "live-smoke: sharded replay clean, shard-lag reported, output unperturbed"
