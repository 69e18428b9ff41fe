#!/usr/bin/env bash
# CI bench smoke: run the perf-tracking benchmarks in their reduced
# SRBENES_BENCH_SMOKE configuration and validate every BENCH_*.json
# they emit. The point is not numbers (a shared runner can't produce
# meaningful ones) but proof that the binaries run to completion and
# their JSON stays machine-readable from PR to PR.
#
#     scripts/bench_smoke.sh [build-dir]     # default: build
#
# The benches run inside a freshly cleared <build-dir>/bench-json/,
# so the checks below read only the JSON this run wrote: a bench that
# stops writing its file fails the run instead of passing on the
# committed copy, and the committed BENCH_*.json in the repo root are
# never overwritten with smoke numbers. Exits nonzero if a bench
# fails, an expected file is missing, or a file is malformed.
set -uo pipefail

build_dir="${1:-build}"
cd "$(dirname "$0")/.."

benches=(bench_fast_engine bench_setup_time bench_throughput bench_resilience bench_obs_overhead bench_service bench_packet)
jsons=(BENCH_fast_engine.json BENCH_setup.json BENCH_throughput.json BENCH_resilience.json BENCH_obs_overhead.json BENCH_service.json BENCH_packet.json)
failed=0

if [ ! -d "${build_dir}" ]; then
    echo "MISSING: ${build_dir} (build the '${build_dir%%-*}' preset first)"
    exit 1
fi
bench_bin="$(cd "${build_dir}" && pwd)/bench"
out_dir="${build_dir}/bench-json"
rm -rf "${out_dir}"
mkdir -p "${out_dir}"

for bench in "${benches[@]}"; do
    bin="${bench_bin}/${bench}"
    if [ ! -x "${bin}" ]; then
        echo "MISSING: ${bin} (build the '${build_dir%%-*}' preset first)"
        failed=1
        continue
    fi
    echo "== ${bench} (smoke) =="
    if ! (cd "${out_dir}" && SRBENES_BENCH_SMOKE=1 "${bin}"); then
        echo "FAILED: ${bench}"
        failed=1
    fi
done

# Every check from here on reads the files this run wrote.
cd "${out_dir}"

echo
echo "== validating BENCH_*.json in ${out_dir} =="
for f in "${jsons[@]}"; do
    if [ ! -f "${f}" ]; then
        echo "  ${f}: MISSING (its bench did not write it)"
        failed=1
    elif python3 -m json.tool "${f}" > /dev/null; then
        echo "  ${f}: ok"
    else
        echo "  ${f}: MALFORMED"
        failed=1
    fi
done

# Arbitrary-permutation rows: the cold TwoPass plan for uniformly
# random permutations, and each phase of it (the F gate, the factor,
# the two verification passes, and planCached's own share of a first
# sighting the admission gate drops and of a miss it admits with an
# eviction), must be reported at n = 8, 10 and 12 with their median,
# p10, p90 and round-median range, and so must the cold OmegaBit
# plan of Omega members, the cold Waksman plan of the arbitrary
# rows' pool, and a plan hit's three steps on a Submit's words (the
# hash, the raw-tag lookup, and the validation only a miss pays).
# Presence and shape only, no timing gate
# (the bench itself fails if a plan takes the wrong strategy or
# misdelivers). The one size gate: each arbitrary row records the
# resident bytes of one plan, and at n = 12 that is at most the 8 KiB
# of its one 16-bit table plus a 128-byte header allowance.
if [ -f BENCH_setup.json ]; then
    echo
    echo "== cold-plan and hit rows (TwoPass phases, OmegaBit, Waksman, hits) =="
    if ! python3 - <<'EOF'
import json, sys
doc = json.load(open("BENCH_setup.json"))
def spread(what):
    return tuple(f"{what}_{q}" for q in
                 ("median", "p10", "p90", "round_min", "round_max"))
sections = {
    "arbitrary": ("two-pass", ("router_plan_cold_us", "f_gate_us",
                               "factor_us", "verify_us",
                               "first_sighting_us",
                               "insert_evict_us")),
    "omega": ("omega-bit", ("router_plan_cold_us",)),
    "waksman": ("waksman", ("router_plan_cold_us",)),
    # A plan hit's steps on a Submit's words; no strategy.
    "hit": (None, ("hash_us", "lookup_us", "validate_us")),
}
for section, (strategy, quantities) in sections.items():
    by_n = {r.get("n"): r for r in doc.get(section, [])}
    for n in (8, 10, 12):
        r = by_n.get(n)
        if r is None:
            sys.exit(f"missing n={n} {section} row in BENCH_setup.json")
        if strategy is not None and r.get("strategy") != strategy:
            sys.exit(f"n={n} {section} row is not {strategy}")
        keys = [k for q in quantities for k in spread(q)]
        missing = [k for k in keys
                   if not isinstance(r.get(k), (int, float))]
        if missing:
            sys.exit(f"n={n} {section} row lacks {', '.join(missing)}")
        digits = 3 if section == "hit" else 1
        print(f"  {section} n={n}: " + "  ".join(
            f"{q} {r[q + '_median']:.{digits}f}" for q in quantities))
for r in doc.get("arbitrary", []):
    if not isinstance(r.get("plan_bytes"), int):
        sys.exit(f"n={r.get('n')} arbitrary row lacks plan_bytes")
    print(f"  plan_bytes n={r['n']}: {r['plan_bytes']}")
    if r["n"] == 12 and r["plan_bytes"] > 8 * 1024 + 128:
        sys.exit(f"n=12 plan_bytes {r['plan_bytes']} exceeds 8320")
EOF
    then
        failed=1
    fi
fi

# Packet-loss guard: the packet fabric must not shed uniform
# traffic below saturation. bench_packet already exits nonzero on
# the same condition; re-checking its JSON here keeps the gate alive
# even if the bench's own exit path regresses.
if [ -f BENCH_packet.json ]; then
    echo
    echo "== packet lossless-load guard (uniform + drop) =="
    if ! python3 - <<'EOF'
import json, sys
doc = json.load(open("BENCH_packet.json"))
limit = doc["lossless_gate_load"]
rows = [r for r in doc["results"]
        if r["matrix"] == "uniform" and r["policy"] == "drop"
        and r["offered_load"] <= limit + 1e-9]
if not rows:
    sys.exit("no uniform+drop rows at or below load "
             f"{limit} in BENCH_packet.json")
bad = [r for r in doc["results"] if not r["conserved"]]
if bad:
    sys.exit(f"{len(bad)} rows broke conservation")
for r in rows:
    lost = r["dropped"] + r["rejected"]
    print(f"  load {r['offered_load']:.2f}: dropped {r['dropped']} "
          f"rejected {r['rejected']}")
    if lost:
        sys.exit(f"uniform load {r['offered_load']} lost {lost} "
                 "packets below saturation")
EOF
    then
        failed=1
    fi
fi

# Resilience guard: no serve is ever silently misrouted, and on a
# healthy fabric every serve stays Primary (no fallback tier, no
# failure). bench_resilience already exits nonzero on a silent
# misroute; re-checking its JSON here keeps both gates alive even if
# the bench's own exit path regresses.
if [ -f BENCH_resilience.json ]; then
    echo
    echo "== resilience guard (no silent misroute, healthy stays Primary) =="
    if ! python3 - <<'EOF'
import json, sys
rows = json.load(open("BENCH_resilience.json"))["results"]
for r in rows:
    print(f"  faults {r['faults']}: primary {r['primary']} "
          f"reroute {r['reroute']} two_pass {r['two_pass']} "
          f"failed {r['failed_fault'] + r['failed_deadline']} "
          f"silent_misroutes {r['silent_misroutes']}")
misrouted = [r["faults"] for r in rows if r["silent_misroutes"] != 0]
if misrouted:
    sys.exit(f"silent misroutes in the faults={misrouted} rows")
healthy = [r for r in rows if r["faults"] == 0]
if not healthy:
    sys.exit("no faults: 0 row in BENCH_resilience.json")
for r in healthy:
    left = {k: r[k] for k in ("reroute", "two_pass", "failed_fault",
                              "failed_deadline") if r[k] != 0}
    if left:
        sys.exit(f"a healthy fabric left the Primary tier: {left}")
EOF
    then
        failed=1
    fi
fi

exit "${failed}"
