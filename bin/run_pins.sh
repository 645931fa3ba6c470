#!/bin/sh
# Byte pins for `rr-sim run`, `rr-sim --audit`, two of the commands
# generated from the experiment registry, `list` and `sync`, and the
# figure commands' flags that the registry leaves at their defaults.
#
# Usage: run_pins.sh RR_SIM_EXE
#
# Runs a fixed list of invocations, each in a fresh empty directory
# with relative output paths, and prints a transcript: the command
# line, its stdout, its stderr (when not empty), its exit status and
# the MD5 of every file it wrote. The `run-pins` rule in bin/dune
# diffs the transcript against run_pins.expected; after an intended
# output change, `dune promote` re-records it.

exe=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

pin() {
  dir="$tmp/case"
  rm -rf "$dir"
  mkdir "$dir"
  echo "\$ rr-sim $*"
  (cd "$dir" && "$exe" "$@" 2>"$tmp/err")
  status=$?
  if [ -s "$tmp/err" ]; then
    echo "stderr:"
    cat "$tmp/err"
  fi
  echo "exit $status"
  (cd "$dir" && find . -type f | LC_ALL=C sort | while read -r f; do
    md5sum "$f"
  done)
  echo
}

# Gateways, buffers, loss and the variants.
pin run --variant rr --duration 10 --loss 0.02
pin run --variant newreno --red --buffer 25 --flows 3 --duration 10 --loss 0.01
pin run --variant sack --buffer 12 --flows 2 --duration 10 --loss 0.01 --ack-loss 0.05
pin run --variant tahoe --seed 11 --duration 5 --loss 0.03
pin run --variant fack --flows 2 --duration 5 --loss 0.02 --rwnd 12
pin run --variant vegas --duration 5 --loss 0.01
pin run --variant relentless --duration 5 --loss 0.02
pin run --variant rrr --rrr-level 0.3 --duration 10 --loss 0.02
pin run --variant newreno --delack --limited-transmit --duration 5 --loss 0.02
pin run --variant reno --rto fixed --duration 5 --loss 0.02
pin run --variant reno --rto rfc793 --duration 5 --loss 0.02

# Every --faults clause, --link-schedule and cross traffic.
pin run --variant rr --duration 5 --faults flap:2+0.3,drop --audit
pin run --variant newreno --duration 5 --faults reorder:0.05 --audit
pin run --variant rr --duration 5 --faults fade:1.5+1+0.5+0.25 --audit
pin run --variant rr --duration 5 --faults asym:20,handover:2+0.3 --audit
pin run --variant newreno --duration 5 --link-schedule @1+400000@3+-+0.25 --audit
pin run --variant rr --rto agile --duration 5 --faults flap:2+0.3,drop --audit
pin run --variant rr --flows 2 --duration 5 --faults flap:rand:2+0.3,hold,reorder:0.05:0.02,jitter:0.01,reverse
pin run --variant sack --duration 5 --faults flap:@1+1.5@3+3.2
pin run --variant rr --duration 5 --faults handover:2+0.4+1+0.25 --link-schedule @0.5+-+0.15
pin run --variant rr --duration 5 --cross-traffic 200000:1000 --cross-traffic 100000:reverse

# Audit sampling and the trace, tracefile and CSV outputs.
pin run --variant rr --duration 5 --loss 0.02 --audit-sample 0 --audit
pin run --variant rr --duration 5 --loss 0.02 --audit-sample 8 --audit
pin run --variant rr --flows 2 --loss 0.02 --audit --trace t.jsonl
pin run --variant rr --duration 5 --loss 0.02 --trace t.bin --trace-format binary
pin run --variant rr --red --loss 0.02 --tracefile t.tr --csv out

# Every variant's binary event stream: the order of its send, ACK,
# recovery and timeout records under loss, ACK loss and a link flap.
# RRR runs off its default level, where its stream equals New-Reno's.
for v in tahoe reno newreno sack fack vegas relentless; do
  pin run --variant $v --flows 3 --duration 20 --loss 0.02 --ack-loss 0.02 --faults flap:4+0.5,drop --trace t.bin --trace-format binary
done
pin run --variant rrr --rrr-level 0.3 --flows 2 --red --buffer 20 --duration 20 --loss 0.01 --trace t.bin --trace-format binary

# Graph topologies and the flock scale path.
pin run --topology parking-lot:3 --flows 2 --duration 5 --loss 0.01 --audit
pin run --topology parking-lot --flows 1 --red --duration 5 --faults flap:2+0.3
pin run --topology fat-tree --flows 2 --duration 5 --audit
pin run --topology fat-tree:3 --red --flows 1 --duration 5 --loss 0.01 --ack-loss 0.01
pin run --topology many-flow --flows 2000 --duration 5
pin run --topology many-flow --flows 500 --rwnd 16 --buffer 64 --seed 3 --duration 3

# The invariant sweep.
pin --audit

# The registry's listing, and one option-less artifact command, which
# prints its registry report at the default seed.
pin list
pin sync

# The figure kernels' flags that the registry's own calls leave at
# their defaults.
pin fig5 --drops 4 --window 2 --seed 11
pin ablation --drops 3
pin fig6 --duration 2.7 --variant rr --csv out
pin fig7 --runs 2 --duration 30 --delack
pin modelcheck --variants rr,rrr --loss 0.01,0.03 --seeds 2 --duration 30 --rrr-level 0.3
