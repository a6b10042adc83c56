#!/usr/bin/env bash
# End-to-end smoke test of the solve service (docs/service.md). Run from
# anywhere:
#
#   scripts/check_service.sh [repo-root] [soctest-serve-binary] \
#       [soctest-binary] [soctest-frontdoor-binary]
#
# Pass 1 (stdio, serial): fires the 56-request duplicate-heavy fixture
#   data/service_batch.jsonl through `soctest-serve --stdio --serial` twice
#   and asserts every line gets a valid soctest-resp-v1 response, the cache
#   hit share clears 40%, and the two response streams are byte-identical
#   (the serial determinism contract).
# Pass 1c (stdio, serial): replays the request line of the worked transcript
#   in docs/service.md and diffs the streamed partials and final response
#   against the documented lines, so the example cannot go stale.
# Pass 2 (socket): starts a concurrent socket server, runs the same batch
#   through `soctest --client --batch`, then SIGTERMs the server and asserts
#   a clean drain (exit 0, every request answered).
# Pass 3 (TCP front door): starts `soctest-frontdoor` with 2 serial workers,
#   runs the batch fixture plus the streaming fixture data/service_stream.jsonl
#   over TCP, asserts at least one soctest-partial-v1 record reaches the
#   client, that two warm reruns produce identical sorted response sets
#   (workers interleave, so order is compared after sort), and a clean
#   SIGTERM drain of the whole fleet.
#
# Wired into ctest as the `service` label: ctest -L service

set -u
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
serve_bin="${2:-$root/build/tools/soctest-serve}"
cli_bin="${3:-$root/build/tools/soctest}"
frontdoor_bin="${4:-$root/build/tools/soctest-frontdoor}"
fixture="$root/data/service_batch.jsonl"
stream_fixture="$root/data/service_stream.jsonl"

for bin in "$serve_bin" "$cli_bin" "$frontdoor_bin"; do
  if [ ! -x "$bin" ]; then
    echo "check_service: FAILED ($bin not built)"
    exit 1
  fi
done

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

requests=$(wc -l < "$fixture")

echo "== pass 1: stdio serial batch ($requests requests) =="
"$serve_bin" --stdio --serial < "$fixture" > "$workdir/resp1.jsonl" \
  2> "$workdir/stats1.txt"
code=$?
if [ "$code" -ne 0 ]; then
  echo "check_service: FAILED (serial server exited $code)"
  exit 1
fi
responses=$(grep -c '"schema":"soctest-resp-v1"' "$workdir/resp1.jsonl")
if [ "$responses" -ne "$requests" ]; then
  echo "check_service: FAILED ($responses of $requests requests got a" \
       "valid soctest-resp-v1 response)"
  exit 1
fi
hits=$(grep -c '"cached":true' "$workdir/resp1.jsonl")
# >= 40% of the whole batch must be cache hits (the fixture is
# duplicate-heavy by construction; threshold = requests * 2 / 5).
want=$((requests * 2 / 5))
if [ "$hits" -lt "$want" ]; then
  echo "check_service: FAILED (cache hits $hits < $want of $requests)"
  exit 1
fi
echo "   $responses/$requests responses valid, $hits cache hits"

echo "== pass 1b: serial responses are byte-identical across runs =="
"$serve_bin" --stdio --serial < "$fixture" > "$workdir/resp2.jsonl" \
  2> /dev/null
if ! cmp -s "$workdir/resp1.jsonl" "$workdir/resp2.jsonl"; then
  echo "check_service: FAILED (serial mode response streams differ)"
  diff "$workdir/resp1.jsonl" "$workdir/resp2.jsonl" | head -5
  exit 1
fi
echo "   identical"

echo "== pass 1c: the documented streaming transcript still holds =="
# docs/service.md: the first fenced block after "A worked transcript" is the
# request line, the second is the expected output.
awk -v req="$workdir/doc_req.jsonl" -v want="$workdir/doc_want.jsonl" '
  /^A worked transcript/ { found = 1 }
  found && /^```/ { if (++block == 4) exit; next }
  found && block == 1 { print > req }
  found && block == 3 { print > want }
' "$root/docs/service.md"
if [ ! -s "$workdir/doc_req.jsonl" ] || [ ! -s "$workdir/doc_want.jsonl" ]; then
  echo "check_service: FAILED (no worked transcript found in docs/service.md)"
  exit 1
fi
"$serve_bin" --stdio --serial < "$workdir/doc_req.jsonl" \
  > "$workdir/doc_got.jsonl" 2> /dev/null
if ! cmp -s "$workdir/doc_want.jsonl" "$workdir/doc_got.jsonl"; then
  echo "check_service: FAILED (docs/service.md transcript is stale)"
  diff "$workdir/doc_want.jsonl" "$workdir/doc_got.jsonl" | head -10
  exit 1
fi
echo "   $(wc -l < "$workdir/doc_got.jsonl") lines match the documentation"

echo "== pass 2: socket server, client batch, SIGTERM drain =="
sock="$workdir/soctest.sock"
"$serve_bin" --socket "$sock" --workers 2 --ledger "$workdir/runs.jsonl" \
  2> "$workdir/stats2.txt" &
server_pid=$!
for _ in $(seq 50); do
  [ -S "$sock" ] && break
  sleep 0.1
done
if [ ! -S "$sock" ]; then
  echo "check_service: FAILED (socket never appeared)"
  kill "$server_pid" 2>/dev/null
  exit 1
fi
"$cli_bin" --client "$sock" --batch "$fixture" > "$workdir/resp3.jsonl"
client_code=$?
responses=$(grep -c '"schema":"soctest-resp-v1"' "$workdir/resp3.jsonl")
kill -TERM "$server_pid"
wait "$server_pid"
server_code=$?
if [ "$client_code" -ne 0 ]; then
  echo "check_service: FAILED (client exited $client_code)"
  exit 1
fi
if [ "$responses" -ne "$requests" ]; then
  echo "check_service: FAILED (socket pass: $responses of $requests" \
       "requests answered)"
  exit 1
fi
if [ "$server_code" -ne 0 ]; then
  echo "check_service: FAILED (server exited $server_code after SIGTERM;" \
       "expected a clean drain)"
  exit 1
fi
if [ ! -s "$workdir/runs.jsonl" ]; then
  echo "check_service: FAILED (drained server flushed no ledger records)"
  exit 1
fi
echo "   $responses/$requests answered over the socket, clean drain," \
     "$(wc -l < "$workdir/runs.jsonl") ledger records"

echo "== pass 3: TCP front door, 2 workers, streamed partials =="
"$frontdoor_bin" --listen 127.0.0.1:0 --workers 2 --serial-workers \
  --serve-bin "$serve_bin" --dir "$workdir/fleet" \
  > "$workdir/fd.out" 2> "$workdir/fd.err" &
fd_pid=$!
port=""
for _ in $(seq 100); do
  port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
         "$workdir/fd.out")
  [ -n "$port" ] && break
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "check_service: FAILED (front door never announced its port)"
  cat "$workdir/fd.err"
  kill "$fd_pid" 2>/dev/null
  exit 1
fi

"$cli_bin" --client "127.0.0.1:$port" --batch "$fixture" \
  > "$workdir/tcp1.jsonl"
client_code=$?
if [ "$client_code" -ne 0 ]; then
  echo "check_service: FAILED (TCP client exited $client_code)"
  kill "$fd_pid" 2>/dev/null
  exit 1
fi
responses=$(grep -c '"schema":"soctest-resp-v1"' "$workdir/tcp1.jsonl")
if [ "$responses" -ne "$requests" ]; then
  echo "check_service: FAILED (TCP pass: $responses of $requests answered)"
  kill "$fd_pid" 2>/dev/null
  exit 1
fi

stream_requests=$(wc -l < "$stream_fixture")
"$cli_bin" --client "127.0.0.1:$port" --batch "$stream_fixture" \
  > "$workdir/stream.jsonl"
client_code=$?
partials=$(grep -c '"schema":"soctest-partial-v1"' "$workdir/stream.jsonl")
stream_finals=$(grep -c '"schema":"soctest-resp-v1"' "$workdir/stream.jsonl")
if [ "$client_code" -ne 0 ] || [ "$stream_finals" -ne "$stream_requests" ]; then
  echo "check_service: FAILED (streaming batch: exit $client_code," \
       "$stream_finals of $stream_requests finals)"
  kill "$fd_pid" 2>/dev/null
  exit 1
fi
if [ "$partials" -lt 1 ]; then
  echo "check_service: FAILED (no soctest-partial-v1 record reached the" \
       "client through the front door)"
  kill "$fd_pid" 2>/dev/null
  exit 1
fi

# Warm reruns: every outcome is now cached, so two more passes must produce
# the same response *set*. Workers interleave finals across shards, so sort
# before comparing.
"$cli_bin" --client "127.0.0.1:$port" --batch "$fixture" \
  | sort > "$workdir/warm1.jsonl"
"$cli_bin" --client "127.0.0.1:$port" --batch "$fixture" \
  | sort > "$workdir/warm2.jsonl"
if ! cmp -s "$workdir/warm1.jsonl" "$workdir/warm2.jsonl"; then
  echo "check_service: FAILED (warm TCP reruns differ as sorted sets)"
  diff "$workdir/warm1.jsonl" "$workdir/warm2.jsonl" | head -5
  exit 1
fi

kill -TERM "$fd_pid"
wait "$fd_pid"
fd_code=$?
if [ "$fd_code" -ne 0 ]; then
  echo "check_service: FAILED (front door exited $fd_code after SIGTERM;" \
       "expected a clean fleet drain)"
  cat "$workdir/fd.err"
  exit 1
fi
echo "   $responses/$requests over TCP, $partials partials streamed," \
     "warm reruns identical, clean fleet drain"

echo "check_service: OK"
