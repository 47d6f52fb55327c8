#!/bin/sh
# Usage: sh cli_errors.sh FASST_EXE
# Each malformed option value must be a cmdliner usage error: exit
# status 124 and a message that names the option, never an uncaught
# exception.
set -u
fasst=$1
status=0

expect_usage_error() {
  opt=$1
  shift
  err=$("$fasst" "$@" 2>&1 >/dev/null)
  code=$?
  if [ "$code" -ne 124 ]; then
    echo "FAIL: fasst $*: exit $code, expected 124: $err"
    status=1
  elif ! printf '%s\n' "$err" | grep -q "option '$opt'"; then
    echo "FAIL: fasst $*: the message does not name $opt: $err"
    status=1
  fi
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
exit $status
