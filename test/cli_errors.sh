#!/bin/sh
# Usage: sh cli_errors.sh FASST_EXE
# Each malformed option value, and each combination of option values
# that cannot run together, must be a cmdliner usage error: exit
# status 124 and a message that names the option (or the positional
# argument), never an uncaught exception or a silent exit 0.
set -u
fasst=$1
status=0

# expect_error NEEDLE ARGS...: the message must contain NEEDLE.
expect_error() {
  needle=$1
  shift
  err=$("$fasst" "$@" 2>&1 >/dev/null)
  code=$?
  if [ "$code" -ne 124 ]; then
    echo "FAIL: fasst $*: exit $code, expected 124: $err"
    status=1
  elif ! printf '%s\n' "$err" | grep -q "$needle"; then
    echo "FAIL: fasst $*: the message does not name $needle: $err"
    status=1
  fi
}

expect_usage_error() {
  opt=$1
  shift
  expect_error "option '$opt'" "$@"
}

expect_usage_error -b run -b abc
expect_usage_error -b run -b 0
expect_usage_error -d run -d async:x
expect_usage_error -d run -d async:2
expect_usage_error -d run -d bogus
expect_usage_error -t run -t ring:abc
expect_usage_error -t run -t nope:3
expect_usage_error -t run -t torus:3
expect_usage_error -t trace -t grid:2
expect_usage_error -t dot -t ring:
expect_usage_error -t run -t ring:2
expect_usage_error -t run -t path:0
expect_usage_error -t run -t grid:0x3
expect_usage_error -t run -t torus:1x1
expect_usage_error -t run -t random4:1
expect_usage_error -t run -t gk:0
expect_usage_error -t trace -t ring:2
expect_usage_error -t trace -t torus:1x1
expect_usage_error -t dot -t random4:1
expect_usage_error -t dot -t gk:0
expect_usage_error -p run -p 1.5
expect_usage_error -p run -p nan
expect_usage_error -p run -p=-0.1
expect_usage_error -a run -a nosuch
expect_usage_error --deadline run --deadline nan
expect_usage_error --deadline run --deadline inf
expect_usage_error --deadline run --deadline=-3
expect_usage_error -T run -T nosuch
expect_usage_error -b run -T rollback
expect_usage_error -b run -T adaptive
expect_usage_error -b run --layout packed
expect_usage_error --layout run -a sp --layout packed -b 4
expect_usage_error -b run -m greedy -t ring:8
expect_usage_error -b run -T rollback -m greedy
expect_usage_error --layout run -T rollback --layout packed -b 4
expect_usage_error -t run -t gk:1 -a cv
expect_usage_error --scenario sim --scenario bogus
expect_usage_error -a sim -a bogus
expect_usage_error -t sim -t ring:2
expect_usage_error -t sim -a cv -t torus:3x3
expect_usage_error --seeds table1 lazy --seeds 0
expect_usage_error --seeds ablation --seeds 0
expect_usage_error --seeds sim --seeds=-1
expect_usage_error -j run -j 0
expect_usage_error --max-k rollback --max-k 0
expect_usage_error -o trace -o /nonexistent-dir/trace.csv
expect_usage_error -o dot -o /nonexistent-dir/graph.dot
expect_usage_error -o sim -o /nonexistent-dir/grid.json
expect_error "WHICH argument" table1 bogus
expect_error "WHICH argument" instances bogus
exit $status
