#!/bin/sh
# Usage: sh cli_fuzz.sh FASST_EXE [RUNS] [SEED]
# Generative check of `fasst run`: RUNS (default 150) argument
# combinations drawn by a seeded linear congruential generator over
# every transformer, algorithm, mode, bound, layout, daemon and
# corruption probability, on topologies of at most 16 nodes, each
# capped by a 5-second deadline.  Every run must end in exit status
# 0, 1 or 124 (a usage error); 125, an uncaught exception, fails the
# check.  The same seed draws the same combinations.
set -u
fasst=$1
runs=${2:-150}
seed=${3:-20240617}
status=0

# choose ARGS...: set $choice to one of ARGS, advancing the generator.
# The low bits of a power-of-two LCG are weak, so only bits 16.. are
# used.
choose() {
  seed=$(( (seed * 1103515245 + 12345) % 2147483648 ))
  shift $(( (seed / 65536) % $# ))
  choice=$1
}

i=0
while [ "$i" -lt "$runs" ]; do
  i=$(( i + 1 ))
  choose trans rollback adaptive; tr=$choice
  choose leader minflood bfs sp leaderbfs cv mis matching coloring ringmis
  algo=$choice
  choose ring:3 ring:8 ring:16 cycle:7 path:1 path:6 path:16 star:2 star:9 \
    tree:1 tree:15 complete:1 complete:5 complete:16 hypercube:0 \
    hypercube:4 grid:1x1 grid:2x3 grid:4x4 torus:3x3 torus:4x4 random:1 \
    random:9 random:16 random4:8 random4:16 lollipop:1x0 lollipop:4x3 \
    wheel:4 wheel:12 bipartite:1x1 bipartite:3x4 caterpillar:1x0 \
    caterpillar:3x2 gk:1 gk:2 gk:3
  topo=$choice
  choose lazy greedy; mode=$choice
  choose inf 1 2 3 4 6 8 12; bound=$choice
  choose auto packed boxed; layout=$choice
  choose sync async async:0.3 central central-min central-max round-robin
  daemon=$choice
  choose 0 0.25 1; p=$choice
  choose 1 2; jobs=$choice
  s=$(( (seed / 65536) % 1000 + 1 ))
  set -- run -T "$tr" -a "$algo" -t "$topo" -m "$mode" -b "$bound" \
    --layout "$layout" -d "$daemon" -p "$p" -s "$s" -j "$jobs" \
    --deadline 5
  err=$("$fasst" "$@" 2>&1 >/dev/null)
  code=$?
  case $code in
    0 | 1 | 124) ;;
    *)
      echo "FAIL: fasst $*: exit $code: $err"
      status=1
      ;;
  esac
done
exit $status
