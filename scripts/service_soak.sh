#!/usr/bin/env bash
# CI service soak: boot the real srbd daemon on an ephemeral
# loopback port, drive it with the open-loop load generator in its
# reduced SRBENES_BENCH_SMOKE configuration, then SIGTERM the daemon
# and hold it to its drain contract. Three short phases, each against
# a fresh daemon, then an idle-memory check:
#
#   1. hot:  n=8, loadgen's default 16 patterns — plans are reused;
#   2. cold: n=10, 1024 uniformly random patterns, above the 512
#            plan-cache slots — srbd plans TwoPass cold plans and
#            evicts them as it goes;
#   3. hits: n=10, loadgen's default 16 patterns — once planned,
#            every request is a plan hit that srbd's event loop
#            serves itself, without a worker;
#   4. payload-less hits: the same at n=10 with --no-payload — the
#            Submits carry tags alone, and a hit gathers nothing;
#   5. idle: an srbd at n=8 and one at n=12, each booted and drained
#            with no traffic.
#
#     scripts/service_soak.sh [build-dir]     # default: build
#
# Pass criteria, all hard, in each phase:
#   - loadgen exits 0 under --require-clean: nonzero completed
#     serves, zero lost requests, zero payload mismatches, zero
#     protocol errors;
#   - the daemon's Prometheus exposition (fetched over the Stats
#     verb) carries srbd_ series with a nonzero submit count — and,
#     in the cold phase, a nonzero two-pass plan count; in both hits
#     phases, a nonzero srbenes_stream_inline_served_total (hits
#     served on the loop);
#   - after SIGTERM the daemon exits 0 (graceful drain) within the
#     timeout, reporting a clean drain on stdout;
#   - idle, the n=12 daemon's peak resident set (VmHWM) exceeds the
#     n=8 daemon's by at most 512 KiB. B(n)'s wiring is computed, so
#     an idle daemon holds no per-line table; one such table at n=12
#     (22 boundaries x 4096 lines x 8 bytes = 704 KiB) fails this.
set -uo pipefail

build_dir="${1:-build}"
cd "$(dirname "$0")/.."

srbd="${build_dir}/tools/srbd/srbd"
loadgen="${build_dir}/tools/srb_loadgen/srb_loadgen"
for bin in "${srbd}" "${loadgen}"; do
    if [ ! -x "${bin}" ]; then
        echo "MISSING: ${bin} (build the release preset first)"
        exit 1
    fi
done

workdir="$(mktemp -d)"
srbd_pid=""
failed=0

cleanup() {
    [ -n "${srbd_pid}" ] && kill -KILL "${srbd_pid}" 2>/dev/null
    rm -rf "${workdir}"
}
trap cleanup EXIT

# start_srbd N LOG: boot srbd at width N, logging to LOG; sets
# srbd_pid and port, or exits the script if the daemon never binds.
start_srbd() {
    local n="$1" log="$2"
    "${srbd}" --port=0 --n="${n}" > "${log}" 2>&1 &
    srbd_pid=$!

    # The daemon prints its bound address as its first line.
    port=""
    for _ in $(seq 1 50); do
        port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "${log}")"
        [ -n "${port}" ] && break
        if ! kill -0 "${srbd_pid}" 2>/dev/null; then
            echo "srbd died before binding:"
            cat "${log}"
            exit 1
        fi
        sleep 0.1
    done
    if [ -z "${port}" ]; then
        echo "srbd never reported its port:"
        cat "${log}"
        exit 1
    fi
    echo "== srbd n=${n} up on 127.0.0.1:${port} (pid ${srbd_pid}) =="
}

# drain_srbd LOG: SIGTERM the daemon and hold it to the drain
# contract.
drain_srbd() {
    local log="$1"
    echo "== SIGTERM drain =="
    kill -TERM "${srbd_pid}"
    # Watchdog: a drain that hangs past 30s gets SIGKILLed, which
    # surfaces as a nonzero exit below. It runs in the foreground: a
    # background subshell killed before it has reset the inherited
    # EXIT trap runs cleanup and deletes the logs under the drain.
    if ! timeout 30 tail --pid="${srbd_pid}" -s 0.1 -f /dev/null; then
        kill -KILL "${srbd_pid}" 2>/dev/null
    fi
    wait "${srbd_pid}"
    local rc=$?
    srbd_pid=""
    if [ "${rc}" -ne 0 ]; then
        echo "FAILED: srbd exited ${rc} (dirty or hung drain)"
        failed=1
    fi
    cat "${log}"
    if ! grep -q 'drained clean' "${log}"; then
        echo "FAILED: srbd did not report a clean drain"
        failed=1
    fi
}

# soak_phase NAME N METRICS [loadgen flags...]: one clean loadgen
# run against the daemon on ${port}, dumping the exposition to
# METRICS and checking its submit count.
soak_phase() {
    local name="$1" metrics="$2"
    shift 2
    echo "== loadgen soak: ${name} (smoke configuration) =="
    if ! SRBENES_BENCH_SMOKE=1 "${loadgen}" \
            --port="${port}" --require-clean \
            --dump-metrics="${metrics}" "$@"; then
        echo "FAILED: loadgen was not clean (${name})"
        failed=1
    fi

    echo "== srbd metrics exposition (${name}) =="
    if grep -q '^srbd_submits_total [1-9]' "${metrics}"; then
        grep '^srbd_' "${metrics}" | grep -v '_bucket{' | head -20
    else
        echo "FAILED: no nonzero srbd_submits_total in the exposition"
        sed -n '1,40p' "${metrics}"
        failed=1
    fi
}

# Phase 1: the hot set.
log="${workdir}/srbd-hot.log"
metrics="${workdir}/metrics-hot.txt"
start_srbd 8 "${log}"
soak_phase "hot, n=8" "${metrics}"
drain_srbd "${log}"

# Phase 2: the cold path. 1024 patterns cycled round robin overflow
# the shared plan cache, so every serve is a cold plan and nearly
# all random permutations of 1024 lines plan TwoPass.
log="${workdir}/srbd-cold.log"
metrics="${workdir}/metrics-cold.txt"
start_srbd 10 "${log}"
soak_phase "cold, n=10" "${metrics}" --patterns=1024
two_pass_re='^srbenes_router_plans_total{[^}]*strategy="two-pass"[^}]*} [1-9]'
if grep -q "${two_pass_re}" "${metrics}"; then
    grep '^srbenes_router_plans_total{' "${metrics}"
    grep '^srbenes_router_plan_cache_evictions_total{' "${metrics}" \
        | head -4
else
    echo "FAILED: no two-pass plans in the cold phase's exposition"
    grep '^srbenes_router_' "${metrics}" | grep -v '_bucket{' | head -20
    failed=1
fi
drain_srbd "${log}"

# expect_inline_hits NAME METRICS: the phase's exposition shows hits
# served on the event loop.
expect_inline_hits() {
    local name="$1" metrics="$2"
    local inline_re='^srbenes_stream_inline_served_total{[^}]*} [1-9]'
    if grep -q "${inline_re}" "${metrics}"; then
        grep '^srbenes_stream_inline_served_total{' "${metrics}"
    else
        echo "FAILED: no hits served on the loop in the ${name} phase"
        grep '^srbenes_stream_' "${metrics}" | grep -v '_bucket{' | head -20
        failed=1
    fi
}

# Phase 3: plan hits at n=10 are served on the event loop, not
# handed to a worker.
log="${workdir}/srbd-hits.log"
metrics="${workdir}/metrics-hits.txt"
start_srbd 10 "${log}"
soak_phase "hits, n=10" "${metrics}"
expect_inline_hits "n=10 hits" "${metrics}"
drain_srbd "${log}"

# Phase 4: payload-less hits. A Submit without a payload is a hit on
# its tags alone: the loop checks them in place and answers with no
# payload, gathering nothing.
log="${workdir}/srbd-bare.log"
metrics="${workdir}/metrics-bare.txt"
start_srbd 10 "${log}"
soak_phase "payload-less hits, n=10" "${metrics}" --no-payload
expect_inline_hits "n=10 payload-less hits" "${metrics}"
drain_srbd "${log}"

# Phase 5: idle memory. VmHWM is read once the daemon listens and its
# workers have had a moment to start.
declare -A idle_kib
for n in 8 12; do
    log="${workdir}/srbd-idle${n}.log"
    start_srbd "${n}" "${log}"
    sleep 0.5
    idle_kib[${n}]="$(sed -n 's/^VmHWM:[[:space:]]*\([0-9]*\) kB$/\1/p' \
        "/proc/${srbd_pid}/status")"
    echo "== idle srbd n=${n}: VmHWM ${idle_kib[${n}]:-?} KiB =="
    drain_srbd "${log}"
done
if [ -z "${idle_kib[8]}" ] || [ -z "${idle_kib[12]}" ]; then
    echo "FAILED: could not read an idle daemon's VmHWM"
    failed=1
else
    growth=$(( idle_kib[12] - idle_kib[8] ))
    echo "== idle VmHWM, n=12 over n=8: ${growth} KiB (limit 512) =="
    if [ "${growth}" -gt 512 ]; then
        echo "FAILED: an idle srbd grows more than 512 KiB from n=8 to n=12"
        failed=1
    fi
fi

exit "${failed}"
