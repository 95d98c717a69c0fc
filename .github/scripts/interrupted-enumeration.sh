#!/usr/bin/env bash
# An interrupted or cut-short enumeration leaves no process behind, and a
# long one runs in bounded memory.  Run from the root of a checkout:
#
#     bash .github/scripts/interrupted-enumeration.sh
#
# It runs from a file because under `bash -c` the pgrep below would match
# the shell's own command line.
set -u
export PYTHONPATH=src
fail() { echo "$*" >&2; exit 1; }

# size 12 runs well past 5 s, so SIGINT must cut it short, and the caller
# must kill and reap the children running the other blocks
timeout -s INT 5 python -m quasiplanar enumerate --size 12 > /dev/null \
  && fail "enumerate --size 12 ran to its end within 5 s"
sleep 1
pgrep -f "quasiplanar enumerate" && fail "an interrupted enumeration left a process"

# a closed stdout ends the caller the same way
python -m quasiplanar enumerate --size 12 2> /dev/null | head -n 1 > /dev/null
sleep 1
pgrep -f "quasiplanar enumerate" && fail "a closed stdout left a process"

# each process holds at most one block of documents
(ulimit -v 1000000 && timeout 120 python -m quasiplanar enumerate --size 11 > /dev/null) \
  || fail "enumerate --size 11 failed under ulimit -v 1000000 and timeout 120"
exit 0
