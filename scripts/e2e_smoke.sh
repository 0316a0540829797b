#!/usr/bin/env bash
# e2e_smoke: the loopback service check. Builds telecast-node with the race
# detector, starts `serve` on loopback, replays a catalog scenario against
# it entirely over HTTP with -verify (the replay exits non-zero unless its
# client-side counters equal the server's /metricz totals), requires the
# /metricz latency_fill block to read complete, then stops the server with
# SIGTERM and requires a clean graceful drain.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${E2E_PORT:-17465}"
ADDR="127.0.0.1:${PORT}"
SCENARIO="${E2E_SCENARIO:-regional-hotspot}"
BIN="$(mktemp -d)/telecast-node"

cleanup() {
  [[ -n "${SERVER_PID:-}" ]] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$(dirname "$BIN")"
}
trap cleanup EXIT

go build -race -o "$BIN" ./cmd/telecast-node

"$BIN" serve -addr "$ADDR" -max-viewers 1500 &
SERVER_PID=$!

# replay polls /healthz itself (-wait-ready) before driving load.
"$BIN" replay -addr "$ADDR" -scenario "$SCENARIO" -audience 400 -duration 20s -verify

# serve answers while its dense latency table still fills; region hints
# place viewers out of ascending node order, so this replay is the traffic
# that asks for rows before they are written and waits. Long after the
# replay every row must be published, with a fill duration recorded.
FILL="$(curl -sf "http://${ADDR}/metricz" | grep -o '"latency_fill":{[^}]*}')" \
  || { echo "e2e-smoke: FAIL (/metricz carries no latency_fill block)"; exit 1; }
field() { sed -E "s/.*\"$1\":([0-9.e+-]+).*/\1/" <<<"$FILL"; }
ROWS="$(field rows)"; FILLED="$(field rows_filled)"; FILL_S="$(field fill_s)"; WAITS="$(field waits)"
if [[ "$ROWS" -le 0 || "$FILLED" != "$ROWS" || "$FILL_S" == "0" ]]; then
  echo "e2e-smoke: FAIL (latency fill incomplete after the replay: ${FILL})"
  exit 1
fi
echo "e2e-smoke: latency fill complete: ${FILLED}/${ROWS} rows in ${FILL_S} s, ${WAITS} delay reads waited"

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""
echo "e2e-smoke: ok (${SCENARIO} over ${ADDR}, graceful drain clean)"
