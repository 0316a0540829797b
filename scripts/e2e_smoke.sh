#!/usr/bin/env bash
# e2e_smoke: the loopback service check. Builds telecast-node with the race
# detector, starts `serve` on loopback, replays a catalog scenario against
# it entirely over HTTP with -verify (the replay exits non-zero unless its
# client-side counters equal the server's /metricz totals), then stops the
# server with SIGTERM and requires a clean graceful drain.
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

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
SERVER_PID=""
echo "e2e-smoke: ok (${SCENARIO} over ${ADDR}, graceful drain clean)"
