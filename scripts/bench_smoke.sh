#!/usr/bin/env bash
# CI bench smoke: run the perf-tracking benchmarks in their reduced
# SRBENES_BENCH_SMOKE configuration and validate every BENCH_*.json
# they emit. The point is not numbers (a shared runner can't produce
# meaningful ones) but proof that the binaries run to completion and
# their JSON stays machine-readable from PR to PR.
#
#     scripts/bench_smoke.sh [build-dir]     # default: build
#
# JSON files land in the current directory; exits nonzero if a bench
# fails or emits malformed JSON.
set -uo pipefail

build_dir="${1:-build}"
cd "$(dirname "$0")/.."

benches=(bench_fast_engine bench_setup_time bench_throughput bench_resilience bench_obs_overhead bench_service bench_packet)
failed=0

for bench in "${benches[@]}"; do
    bin="${build_dir}/bench/${bench}"
    if [ ! -x "${bin}" ]; then
        echo "MISSING: ${bin} (build the '${build_dir%%-*}' preset first)"
        failed=1
        continue
    fi
    echo "== ${bench} (smoke) =="
    if ! SRBENES_BENCH_SMOKE=1 "${bin}"; then
        echo "FAILED: ${bench}"
        failed=1
    fi
done

echo
echo "== validating BENCH_*.json =="
shopt -s nullglob
jsons=(BENCH_*.json)
if [ ${#jsons[@]} -eq 0 ]; then
    echo "no BENCH_*.json produced"
    failed=1
fi
for f in "${jsons[@]}"; do
    if python3 -m json.tool "${f}" > /dev/null; then
        echo "  ${f}: ok"
    else
        echo "  ${f}: MALFORMED"
        failed=1
    fi
done

# Batch-scaling guard: the tiled arena pipeline exists so large
# batches stop falling out of L2. Assert the committed acceptance
# ratio — n=12 batch-64 us/perm within 1.25x of batch-8 — on every
# run, so a regression back to the per-plan-FastPlan cliff (2.3x)
# cannot land silently.
if [ -f BENCH_setup.json ]; then
    echo
    echo "== batch-scaling guard (n=12, batch-64 : batch-8) =="
    if ! python3 - <<'EOF'
import json, sys
rows = json.load(open("BENCH_setup.json")).get("batch", [])
us = {r["batch"]: r["us_per_perm"] for r in rows if r["n"] == 12}
if 8 not in us or 64 not in us:
    sys.exit("missing n=12 batch-8/batch-64 rows in BENCH_setup.json")
ratio = us[64] / us[8]
print(f"  batch-8: {us[8]:.1f} us/perm  batch-64: {us[64]:.1f} "
      f"us/perm  ratio: {ratio:.2f} (limit 1.25)")
sys.exit(0 if ratio <= 1.25 else f"batch-64:batch-8 ratio {ratio:.2f} "
         "exceeds 1.25 -- the tiled pipeline regressed")
EOF
    then
        failed=1
    fi
fi

# Arbitrary-permutation rows: the cold TwoPass plan for uniformly
# random permutations must stay in the committed trajectory at
# n = 8, 10 and 12. Presence and shape only, no timing gate (the
# bench itself fails if a plan is not TwoPass or misdelivers).
if [ -f BENCH_setup.json ]; then
    echo
    echo "== arbitrary-permutation rows (TwoPass cold plans) =="
    if ! python3 - <<'EOF'
import json, sys
rows = json.load(open("BENCH_setup.json")).get("arbitrary", [])
by_n = {r.get("n"): r for r in rows}
keys = ("router_plan_cold_us_median", "router_plan_cold_us_p10",
        "router_plan_cold_us_p90")
for n in (8, 10, 12):
    r = by_n.get(n)
    if r is None:
        sys.exit(f"missing n={n} arbitrary row in BENCH_setup.json")
    if r.get("strategy") != "two-pass":
        sys.exit(f"n={n} arbitrary row is not two-pass")
    missing = [k for k in keys if not isinstance(r.get(k), (int, float))]
    if missing:
        sys.exit(f"n={n} arbitrary row lacks {', '.join(missing)}")
    print(f"  n={n}: median {r[keys[0]]:.1f} us  p10 {r[keys[1]]:.1f} "
          f"us  p90 {r[keys[2]]:.1f} us")
EOF
    then
        failed=1
    fi
fi

# Packet-loss guard: the packet fabric must not shed uniform
# traffic below saturation. bench_packet already exits nonzero on
# the same condition; re-checking the committed JSON here keeps the
# gate alive even if the bench's own exit path regresses.
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

exit "${failed}"
