#!/usr/bin/env bash
# Rerun one test binary in fresh processes and keep the full output of
# every failing run, so a rare failure can be named and read, not just
# counted:
#
#     scripts/repeat_test.sh <binary> <runs> [gtest args...]
#     scripts/repeat_test.sh build/tests/test_srbd 1000
#     scripts/repeat_test.sh build/tests/test_router 300 --gtest_brief=1
#
# Each repetition is a new process, so whatever a suite draws once per
# process (the plan cache's hash key, thread timing, ports) is drawn
# again; --gtest_repeat would reuse it. A failing run's stdout and
# stderr, followed by its exit status, go to run-<i>.log in a fresh
# directory, repeat-logs/<binary>.<time>.<pid>/ under the current
# one, made at the first failure. A run that takes longer than ten
# minutes is killed and counted as failed. The script ends by printing
# the failure count and the name of every failing test with how many
# runs it failed in, and exits nonzero iff any run failed.
set -uo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 <binary> <runs> [gtest args...]" >&2
    exit 2
fi
bin=$1
runs=$2
shift 2
case "$runs" in
    '' | *[!0-9]*)
        echo "$0: runs must be a whole number, got '$runs'" >&2
        exit 2
        ;;
esac
if [ ! -x "$bin" ]; then
    echo "$0: $bin is not an executable" >&2
    exit 2
fi

name=$(basename "$bin")
logs=repeat-logs/$name.$(date +%Y%m%d-%H%M%S).$$
out=$(mktemp)
trap 'rm -f "$out"' EXIT

failed=0
for ((i = 1; i <= runs; i++)); do
    timeout -k 10 600 "$bin" "$@" > "$out" 2>&1
    rc=$?
    if [ "$rc" -ne 0 ]; then
        failed=$((failed + 1))
        mkdir -p "$logs"
        cp "$out" "$logs/run-$i.log"
        echo "exit status: $rc" >> "$logs/run-$i.log"
    fi
done

echo "$name: $failed of $runs runs failed"
if [ "$failed" -eq 0 ]; then
    exit 0
fi
echo "logs: $logs/run-*.log"
echo "failing tests (runs failed in, name):"
# gtest reports each failing test as "[  FAILED  ] Suite.Name (N ms)";
# a run that crashed or timed out before that line names none.
for log in "$logs"/run-*.log; do
    names=$(sed -n 's/^\[  FAILED  \] \([^ ]*\) (.*/\1/p' "$log" | sort -u)
    if [ -n "$names" ]; then
        echo "$names"
    else
        echo "(no test named: $(tail -n 1 "$log"))"
    fi
done | sort | uniq -c | sort -rn
exit 1
