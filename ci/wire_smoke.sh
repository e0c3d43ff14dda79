#!/usr/bin/env bash
# Wire-protocol smoke: the full out-of-process serving loop through the
# real binaries — start `wmpctl serve` on a loopback Unix socket, stream a
# log through `wmpctl score --connect` in chunks, roll out a retrained
# model with `wmpctl train --publish --connect` (which asserts zero failed
# requests and bitwise post-swap scores), roll it back, and shut the
# server down cleanly. The loop runs TWICE against the epoll reactor: once
# with the plain request/response client, once with the pipelined client
# (`score --pipeline`) — same server, same scores, both client dialects.
# The clean shutdown must print the reactor's counter line (the
# `backpressure pauses` field is what benchmark harnesses parse). Any
# nonzero step fails the script.
set -euo pipefail

BUILD=${1:-build}
WORK=$(mktemp -d /tmp/wmp-wire-smoke.XXXXXX)
LOG="$WORK/log.txt"
MODEL="$WORK/model.wmp"
SERVER_PID=""

cleanup() {
  if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== generate + train the first artifact"
"$BUILD/wmpctl" generate --benchmark=tpcc --queries=600 --out="$LOG"
"$BUILD/wmpctl" train --log="$LOG" --model="$MODEL" --templates=12 --batch=10

# run_loop <tag> <score extra flags>
run_loop() {
  local tag="$1" score_flags="$2"
  local sock="$WORK/wire-$tag.sock"
  local server_log="$WORK/server-$tag.log"

  echo "== [$tag] start wmpctl serve on unix:$sock"
  "$BUILD/wmpctl" serve --listen="unix:$sock" --model="$MODEL" \
    --name=smoke --warm-log="$LOG" >"$server_log" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 100); do
    [[ -S "$sock" ]] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { cat "$server_log"; exit 1; }
    sleep 0.1
  done
  [[ -S "$sock" ]] || { echo "server socket never appeared"; cat "$server_log"; exit 1; }

  echo "== [$tag] score the log over the wire in chunks"
  # shellcheck disable=SC2086
  "$BUILD/wmpctl" score --log="$LOG" --connect="unix:$sock" --chunk=150 \
    --batch=10 $score_flags

  echo "== [$tag] retrain (different seed) and publish over the wire"
  "$BUILD/wmpctl" train --log="$LOG" --model="$MODEL" --templates=12 \
    --batch=10 --seed=7 --publish --connect="unix:$sock" --name=smoke

  echo "== [$tag] roll the publish back"
  "$BUILD/wmpctl" rollback --connect="unix:$sock" --name=smoke

  echo "== [$tag] score again after rollback"
  # shellcheck disable=SC2086
  "$BUILD/wmpctl" score --log="$LOG" --connect="unix:$sock" --chunk=150 \
    --batch=10 $score_flags

  echo "== [$tag] clean shutdown"
  kill -INT "$SERVER_PID"
  wait "$SERVER_PID"
  SERVER_PID=""
  cat "$server_log"
  grep -q "backpressure pauses" "$server_log" || {
    echo "server log lacks the reactor shutdown summary"; exit 1;
  }
}

run_loop plain ""
run_loop pipelined "--pipeline=16"
echo "wire smoke OK"
