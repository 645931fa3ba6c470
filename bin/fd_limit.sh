#!/bin/sh
# A sweep wider than its descriptor limit allows still settles. Under
# `ulimit -n 20` a 16-worker sweep must narrow and print the 2-worker
# report (worker count and wall clock aside), with the cache off and
# with a fresh cache. Under `ulimit -n 5`, where not even the first
# worker's pipes fit beside stdio, every job must be quarantined as a
# worker that could not start, the summary must count 0 workers, and
# the sweep must exit 3.
#
# Usage: fd_limit.sh RR_SIM_EXE

exe=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failed=0

# limited N NAME WANT ARGS...: a 16-job sweep with only stdio open,
# under `ulimit -n N` and `timeout` (so a hang fails the check), that
# must exit WANT; its normalised report goes to $tmp/NAME, and its raw
# report stays in $tmp/raw until the next call.
limited() {
  limit=$1 name=$2 want=$3
  shift 3
  (
    # Redirect before the limit: the shell saves a redirected
    # descriptor above 9, which a limit of 5 refuses.
    exec 2>/dev/null 3>&- 4>&- 5>&- 6>&- 7>&- 8>&- 9>&-
    ulimit -n "$limit"
    timeout -k 1 60 "$exe" sweep --variants newreno,rr --seeds 8 --loss 0.01 \
      --duration 1 "$@"
  ) >"$tmp/raw"
  status=$?
  sed -E 's/on [0-9]+ worker\(s\) in [0-9.]+ s;/on N worker(s) in X s;/' \
    "$tmp/raw" >"$tmp/$name"
  if [ $status -ne "$want" ]; then
    echo "fd-limit: ulimit -n $limit, sweep $*: exit $status, expected $want"
    cat "$tmp/raw"
    failed=1
  fi
}

limited 20 want 0 --jobs 2 --no-cache
limited 20 uncached 0 --jobs 16 --no-cache
limited 20 cached 0 --jobs 16 --cache-dir "$tmp/cache"
for got in uncached cached; do
  if ! cmp -s "$tmp/want" "$tmp/$got"; then
    echo "fd-limit: the $got 16-worker report differs from the 2-worker one"
    diff "$tmp/want" "$tmp/$got"
    failed=1
  fi
done

limited 5 starved 3 --jobs 2 --no-cache
if [ "$(grep -c 'cannot start a worker: pipe: ' "$tmp/starved")" -ne 16 ]; then
  echo "fd-limit: not all 16 jobs were quarantined as unable to start a worker"
  cat "$tmp/starved"
  failed=1
fi
if ! grep -q '16 executed on 0 worker(s)' "$tmp/raw"; then
  echo "fd-limit: the starved sweep does not report 0 workers"
  cat "$tmp/raw"
  failed=1
fi
exit $failed
