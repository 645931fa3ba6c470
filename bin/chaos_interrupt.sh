#!/bin/sh
# Interrupting a sweep: SIGTERM exits 143 and SIGINT exits 130, and
# either prints the partial report with the resume note.
#
# Usage: chaos_interrupt.sh RR_SIM_EXE
#
# The sweep's second job hangs on its one worker, so the sweep is
# waiting on a live worker when the signal lands, once the first job
# has settled ("1/2" on stderr). A three-job sweep is signalled in the
# same state with its third job still waiting for that busy worker, so
# the supervisor is asleep and only the signal's EINTR wakes it at
# once. The signal goes to rr-sim itself, not to its workers, which
# the stop request must kill. Each run is under `timeout`, so a sweep
# that ignores the signal fails the check.

exe=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failed=0

# interrupt SIGNAL WANT VARIANTS: sweep VARIANTS (one job each) with
# the second job hung, send SIGNAL once the first has settled, and
# require exit WANT and every other job reported not run.
interrupt() {
  signal=$1 want=$2 variants=$3
  total=$(($(echo "$variants" | tr ',' '\n' | wc -l)))
  rm -f "$tmp/pid" "$tmp/out" "$tmp/err"
  RR_SIM_POOL_CHAOS='hang:1' timeout -k 1 30 sh -c 'echo $$ >"$0"; exec "$@"' \
    "$tmp/pid" "$exe" sweep --variants "$variants" --seeds 1 --duration 2 \
    --jobs 1 --no-cache >"$tmp/out" 2>"$tmp/err" &
  wrapper=$!
  tries=0
  until grep -q "1/$total" "$tmp/err" 2>/dev/null || [ $tries -ge 300 ]; do
    tries=$((tries + 1))
    sleep 0.1
  done
  kill -s "$signal" "$(cat "$tmp/pid")"
  wait $wrapper
  status=$?
  if [ $status -ne "$want" ] || ! grep -qx \
    "interrupted: $((total - 1)) job(s) not run; re-run with --resume to finish" \
    "$tmp/out"
  then
    echo "chaos-interrupt: SIG$signal, $variants: exit $status, expected $want"
    cat "$tmp/out"
    failed=1
  fi
}

interrupt TERM 143 newreno,rr
interrupt INT 130 newreno,rr
interrupt TERM 143 newreno,rr,sack
interrupt INT 130 newreno,rr,sack
exit $failed
