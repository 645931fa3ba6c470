#!/bin/sh
# Usage errors exit 2 with one message on stderr, nothing on stdout and
# no file written, before any simulation runs.
#
# Usage: cli_errors.sh RR_SIM_EXE
#
# Each case runs in an empty directory under `timeout`, so a case that
# hangs fails the check instead of hanging the test run. Every `run`
# case also asks for a JSONL trace, a tracefile and a CSV directory:
# none of them may appear. Prints one line per failing case and exits
# 1 if there is any.

exe=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
failed=0

# expect MESSAGE COMMAND...: exit 2, stderr exactly "rr-sim: MESSAGE".
expect() {
  want="rr-sim: $1"
  shift
  rm -rf "$tmp/cwd"
  mkdir "$tmp/cwd"
  out=$(cd "$tmp/cwd" && timeout -k 1 5 "$exe" "$@" 2>"$tmp/err")
  status=$?
  err=$(cat "$tmp/err")
  files=$(ls -A "$tmp/cwd")
  if [ $status -ne 2 ] || [ "$err" != "$want" ] || [ -n "$out" ] ||
    [ -n "$files" ]; then
    echo "cli-errors: $*: exit $status, stderr '$err', stdout '$out', files '$files'; expected exit 2, stderr '$want', no stdout, no files"
    failed=1
  fi
}

run() {
  want=$1
  shift
  expect "$want" run "$@" --trace t.jsonl --tracefile t.tr --csv out
}

cannot_write() {
  path=$1
  shift
  expect "cannot write $path: No such file or directory" "$@"
}

# Unwritable output paths.
cannot_write /nonexistent/t.jsonl run --trace /nonexistent/t.jsonl
cannot_write /nonexistent/t.tr run --tracefile /nonexistent/t.tr
cannot_write /nonexistent/a/b run --csv /nonexistent/a/b
"$exe" run --duration 1 --trace "$tmp/t.bin" --trace-format binary >/dev/null ||
  failed=1
cannot_write /nonexistent/x.jsonl trace export "$tmp/t.bin" -o /nonexistent/x.jsonl

# trace export: a trace cut inside a record is refused, and the JSONL
# decoded before the cut does not stay behind in the -o file.
"$exe" run --duration 5 --loss 0.02 --trace "$tmp/long.bin" --trace-format binary >/dev/null ||
  failed=1
head -c 20000 "$tmp/long.bin" >"$tmp/cut.bin"
expect "$tmp/cut.bin: truncated record" trace export "$tmp/cut.bin" -o out.jsonl

# run: the job fields, named by run's own flags.
run '--duration nan: must be finite and >= 0' --duration nan
run '--loss 2: must be within [0, 1]' --loss 2
run '--loss nan: must be within [0, 1]' --loss nan
run '--loss -0.5: must be within [0, 1]' --loss=-0.5
run '--ack-loss nan: must be within [0, 1]' --ack-loss nan
run '--ack-loss -1: must be within [0, 1]' --ack-loss=-1
run '--rwnd 0: must be >= 1' --rwnd 0
run '--rwnd -3: must be >= 1' --rwnd=-3
run '--flows 0: must be >= 1' --flows 0
run '--buffer 0: must be >= 1' --buffer 0
run '--flows 0: must be >= 1' --topology fat-tree --flows 0
run '--rrr-level nan: must be inside (0, 1)' --variant rrr --rrr-level nan --loss 0.02
run '--flows 0: must be >= 1' --topology many-flow --flows 0
run '--buffer 0: must be >= 1' --topology many-flow --buffer 0
run '--duration 0: must be > 0 for --topology many-flow' --topology many-flow --duration 0
run '--audit-sample -1: must be >= 0' --audit-sample=-1

# run: malformed tokens.
run '--variant foo: unknown TCP variant "foo"' --variant foo
run '--rto foo: unknown RTO estimator "foo" (expected jacobson, fixed, rfc793, agile)' --rto foo
run '--topology ring: invalid topology "ring" (expected dumbbell, parking-lot[:HOPS] or fat-tree[:PODS])' --topology ring
run '--topology parking-lot:65: topology "parking-lot:65" has 65 hops (at most 64)' --topology parking-lot:65
run '--topology fat-tree:1000000: topology "fat-tree:1000000" has 1000000 pods (at most 64)' --topology fat-tree:1000000
run '--faults bogus: faults: unknown clause "bogus"' --faults bogus
run "--link-schedule xyz: invalid timeline \"xyz\" (expected @T+RATE[+DELAY] steps, '-' = keep)" --link-schedule xyz
run '--cross-traffic abc: invalid cross-traffic "abc" (expected BPS[:BYTES][:reverse])' --cross-traffic abc

# run: non-finite numbers in the two DSLs.
run '--link-schedule @nan+1: invalid timeline time "nan"' --link-schedule @nan+1
run '--link-schedule @1+nan: invalid timeline rate "nan"' --link-schedule @1+nan --duration 5
run '--link-schedule @1+-+nan: invalid timeline delay "nan"' --link-schedule @1+-+nan
run '--link-schedule @inf+1: invalid timeline time "inf"' --link-schedule @inf+1
run '--faults asym:inf: faults: bad asym ratio "inf" (expected a finite number)' --faults asym:inf
run '--faults jitter:inf: faults: bad jitter bound "inf" (expected a finite number)' --faults jitter:inf
run '--faults fade:1+inf: faults: bad fade "inf" (expected a finite number)' --faults fade:1+inf
run '--faults flap:inf+0.3: faults: bad flap period "inf" (expected a finite number)' --faults flap:inf+0.3
run '--faults handover:inf+0.3: faults: bad handover "inf" (expected a finite number)' --faults handover:inf+0.3

# run: a finite level whose product with the link rate is not.
run '--faults fade:1+1e308: faults: fade level 1e+308 takes a 800000 bps link to an infinite rate' --faults fade:1+1e308 --duration 5
run '--faults handover:2+0.3+1+1e308: faults: handover level 1e+308 takes a 800000 bps link to an infinite rate' --topology parking-lot --faults handover:2+0.3+1+1e308 --duration 5

# run: combinations a topology cannot realise, and CBR rates whose
# packet interval cannot advance the clock.
run '--faults asym:20: asym needs --topology dumbbell' --topology parking-lot --faults asym:20
run '--faults asym:20: asym needs --topology dumbbell' --topology fat-tree --faults asym:20
run '--cross-traffic 200000: requires --topology dumbbell' --topology parking-lot --cross-traffic 200000
run '--cross-traffic inf: rate inf bps is too high: the interval between 1000-byte packets does not advance the clock at 1 s' --duration 1 --cross-traffic inf
run '--cross-traffic 1e300: rate 1e300 bps is too high: the interval between 1000-byte packets does not advance the clock at 1 s' --duration 1 --cross-traffic 1e300

# sweep: axis values, tokens, duplicate points and the CBR rules.
expect '--loss 1.5: must be within [0, 1]' sweep --loss 1.5 --no-cache
expect '--gateways foo: invalid gateway "foo" (expected droptail[:BUFFER] or red[:BUFFER])' sweep --gateways foo --no-cache
expect 'grid point rr/droptail:8/loss 1%/ack 0%, seed 7, appears twice: an axis lists values that label alike' sweep --variants rr --loss 0.01,0.01 --no-cache
expect 'grid point rr/droptail:8/loss 1%/ack 0%, seed 7, appears twice: an axis lists values that label alike' sweep --variants rr --loss 0.01,0.0100000001 --no-cache
expect '--duration nan: must be finite and >= 0' sweep --duration nan --no-cache
expect '--cbr-share 1e+300: too high: the CBR packet interval does not advance the clock' sweep --cbr-share 1e300 --variants rr --seeds 1 --duration 1 --jobs 1 --no-cache
expect '--cbr-share 0.1: needs a spare topology slot, which a fat tree lacks' sweep --topologies fat-tree --cbr-share 0.1 --no-cache
expect '--topologies dumbbell,parking-lot:65: topology "parking-lot:65" has 65 hops (at most 64)' sweep --topologies dumbbell,parking-lot:65 --no-cache
expect '--topologies fat-tree:65: topology "fat-tree:65" has 65 pods (at most 64)' sweep --topologies fat-tree:65 --no-cache

# sweep: the supervision flags and the chaos spec.
sweep() {
  want=$1
  shift
  expect "$want" sweep --variants rr --seeds 1 --duration 1 --no-cache "$@"
}
sweep '--timeout nan: must be finite and >= 0' --timeout nan
sweep '--timeout -5: must be finite and >= 0' --timeout=-5
sweep '--timeout inf: must be finite and >= 0' --timeout inf
sweep '--retries -3: must be >= 0' --retries=-3
sweep '--backoff nan: must be finite and >= 0' --backoff nan
sweep '--jobs -2: must be >= 0' --jobs=-2
export RR_SIM_POOL_CHAOS=bogus
sweep 'RR_SIM_POOL_CHAOS: invalid chaos clause "bogus" (expected ACTION:JOB[,JOB...])'
unset RR_SIM_POOL_CHAOS

# sweep --resume: a journal that cannot be read is refused, not raised.
mkdir -p "$tmp/cache/journal.jsonl"
expect "cannot resume: cannot read journal $tmp/cache/journal.jsonl: Is a directory" sweep --variants rr --seeds 1 --duration 1 --jobs 1 --resume --cache-dir "$tmp/cache"

# all: a name the registry does not hold.
expect '--only bogus: unknown experiment; try rr-sim list' all --only bogus

# The figure kernels: the burst size and measuring window, the seed
# count and the horizon.
expect '--drops 0: must be >= 1' fig5 --drops 0
expect '--drops 0: must be >= 1' ablation --drops 0
expect '--window 0: must be finite and > 0' fig5 --window 0
expect '--window -1: must be finite and > 0' fig5 --window=-1
expect '--window nan: must be finite and > 0' fig5 --window nan
expect '--runs 0: needs at least one seed' fig7 --runs 0
expect '--runs -1: needs at least one seed' fig7 --runs=-1
expect '--duration nan: must be finite and >= 0' fig7 --duration nan
expect '--duration -5: must be finite and >= 0' fig7 --duration=-5
expect '--duration 3: must exceed the 5 s warm-up' fig7 --duration 3
expect '--duration nan: must be finite and > 0' fig6 --duration nan
expect '--duration -1: must be finite and > 0' fig6 --duration=-1
expect '--duration 0: must be finite and > 0' fig6 --duration 0
expect '--duration 0: must be finite and > 0' fig6 --duration 0 --csv out
expect '--duration 2: must exceed 2.5 s, when the last flow starts' fig6 --duration 2
expect '--duration 2.5: must exceed 2.5 s, when the last flow starts' fig6 --duration 2.5
expect '--duration 2: must exceed 2.5 s, when the last flow starts' fig6 --duration 2 --csv out

# modelcheck: the models' domain, the horizon and the RRR level.
expect '--rrr-level nan: must be inside (0, 1)' modelcheck --rrr-level nan --variants rrr --loss 0.01 --seeds 1 --duration 10 --check 0.2
expect '--loss 2: must be within (0, 1]' modelcheck --loss 2
expect '--loss 0: must be within (0, 1]' modelcheck --loss 0
expect '--duration nan: must be finite and >= 0' modelcheck --duration nan
expect '--duration -1: must be finite and >= 0' modelcheck --duration=-1
expect '--duration 3: must exceed the 5 s warm-up' modelcheck --duration 3 --seeds 1 --variants rr --loss 0.01 --check 0.2
expect '--duration 5: must exceed the 5 s warm-up' modelcheck --duration 5

exit $failed
