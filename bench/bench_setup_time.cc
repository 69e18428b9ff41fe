/**
 * @file
 * Experiment E2 -- the setup-time claim of Section I: self-routing
 * determines all switch states in O(log N) (during transmission,
 * with no preprocessing), while the best serial setup for an
 * arbitrary permutation (Waksman's looping algorithm) costs
 * O(N log N) before the first bit moves.
 *
 * The wall-clock table measures a software simulation, so both
 * columns scale with the N log N switch count the simulator must
 * touch; the claim that survives simulation is the RATIO: the
 * Waksman path pays a full extra setup pass on top of transmission,
 * and its advantage disappears entirely in the fabric's O(log N)
 * hardware depth (the "delay stages" column).
 *
 * Timed sections: BM_SelfRoute vs BM_WaksmanSetupAndRoute vs
 * BM_WaksmanSetupOnly across n.
 *
 * Section E2b extends the experiment to the library's own cold-plan
 * path: the per-switch reference simulator against the bit-sliced
 * SetupEngine::plan (scalar and SIMD kernel dispatch, plus
 * Router::plan end to end). Its arbitrary rows time cold
 * Router::plan on uniformly random permutations (TwoPass) at n = 8,
 * 10 and 12 as median, p10 and p90 over a cold pool, each plan
 * checked for strategy and payload, and the same spread for each
 * phase of the miss: the F gate, the factor, the two verification
 * passes, and planCached's own share with the cache full, for a
 * first sighting the admission gate drops and for a miss it admits
 * over a resident drawn at random. Its Omega rows time cold OmegaBit
 * plans the same way, and its Waksman rows cold prefer_waksman plans
 * of the arbitrary rows' pool: the same factor, its two passes
 * stitched into one state set and one forced pass. Its hit rows time the
 * steps of a plan hit on a Submit frame read in place at n = 8, 10 and
 * 12, over a pool resident in a tier of srbd's shape: the keyed hash
 * kernel over the frame's u32 tag lanes, findCached on those lanes
 * with its identity check, and the gather of the payload lanes from
 * the frame into a reply frame, both unaligned; beside them,
 * Permutation::tryFrom on the widened tags, which a hit never runs
 * and a miss does. The E2b sections run in interleaved rounds
 * (3, or 1 in smoke), and each row records the least and greatest of
 * its round medians beside the pooled median, p10 and p90. Emits
 * machine-readable BENCH_setup.json; SRBENES_BENCH_SMOKE=1 runs the
 * reduced CI configuration.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/prng.hh"
#include "common/table.hh"
#include "core/fast_engine.hh"
#include "core/fast_kernels.hh"
#include "core/router.hh"
#include "core/self_routing.hh"
#include "core/setup_engine.hh"
#include "core/two_pass.hh"
#include "core/waksman.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "perm/bpc.hh"
#include "perm/f_class.hh"

namespace
{

using namespace srbenes;

double
timeUs(const std::function<void()> &fn, int reps)
{
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
        fn();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(stop - start)
               .count() /
           reps;
}

void
printSetupComparison(unsigned max_n)
{
    std::cout << "=== E2: setup cost, self-routing vs external "
                 "(Section I) ===\n\n";

    TextTable table({"n", "N", "delay stages", "self-route us",
                     "waksman setup us", "setup+route us",
                     "setup overhead"});
    for (unsigned n = 6; n <= max_n; n += 2) {
        const SelfRoutingBenes net(n);
        Prng prng(n);
        const Permutation in_f =
            BpcSpec::random(n, prng).toPermutation();
        const Permutation arbitrary =
            Permutation::random(std::size_t{1} << n, prng);

        const int reps = n <= 12 ? 50 : 5;
        const double self_us = timeUs(
            [&] {
                auto res = net.route(in_f);
                benchmark::DoNotOptimize(res.success);
            },
            reps);
        const double setup_us = timeUs(
            [&] {
                auto states = waksmanSetup(net.topology(), arbitrary);
                benchmark::DoNotOptimize(states.size());
            },
            reps);
        const double both_us = timeUs(
            [&] {
                auto states = waksmanSetup(net.topology(), arbitrary);
                auto res = net.routeWithStates(arbitrary, states);
                benchmark::DoNotOptimize(res.success);
            },
            reps);

        table.newRow();
        table.addCell(n);
        table.addCell(Word{1} << n);
        table.addCell(net.topology().numStages());
        table.addCell(self_us, 1);
        table.addCell(setup_us, 1);
        table.addCell(both_us, 1);
        table.addCell(both_us / self_us, 2);
    }
    table.print(std::cout);
    std::cout << "\n(expected shape: 'setup overhead' stays > 1 -- "
                 "the external path always pays an additional\n"
                 "O(N log N) pass; in hardware the self-routing "
                 "delay is the 2 lg N - 1 stage column only)\n\n";
}

/**
 * One timed quantity over the rounds: every sample of every round,
 * pooled, and each round's median.
 */
struct Rounds
{
    std::vector<double> samples;
    std::vector<double> medians;
};

/**
 * Median, p10 and p90 of one timed quantity over every round's
 * samples, and the least and greatest of its round medians, in
 * microseconds.
 */
struct Spread
{
    double median_us;
    double p10_us;
    double p90_us;
    double round_min_us;
    double round_max_us;
};

/** The @p q quantile of @p v (sorted in place), nearest rank. */
double
quantile(std::vector<double> &v, double q)
{
    std::sort(v.begin(), v.end());
    const std::size_t k = static_cast<std::size_t>(q * (v.size() - 1) + 0.5);
    return v[k];
}

/** Add one round's samples @p us to @p r. */
void
addRound(Rounds &r, std::vector<double> us)
{
    r.medians.push_back(quantile(us, 0.5));
    r.samples.insert(r.samples.end(), us.begin(), us.end());
}

Spread
spreadOf(Rounds r)
{
    const auto [lo, hi] =
        std::minmax_element(r.medians.begin(), r.medians.end());
    return {quantile(r.samples, 0.5), quantile(r.samples, 0.1),
            quantile(r.samples, 0.9), *lo, *hi};
}

/** E2b's F-member columns: one mean over the reps per round. */
struct SetupRow
{
    unsigned n;
    Word N;
    Rounds reference; //!< per-switch reference simulator
    Rounds scalar;    //!< SetupEngine, scalar kernels forced
    Rounds simd;      //!< SetupEngine, dispatched kernels
    Rounds router;    //!< Router::plan end to end (uncached)
};

/** Cold Router::plan on uniformly random permutations (TwoPass). */
struct ArbitraryRow
{
    unsigned n;
    Word N;
    std::size_t pool;
    std::size_t samples;
    Rounds plan;
    /** @{ The phases of one cold TwoPass miss, timed one by one. */
    Rounds f_gate; //!< level-0 test, then the F attempt if it passes
    Rounds factor; //!< twoPassPlan, the looping factor
    Rounds verify; //!< both factor tag passes
    /** planCached outside Router::plan: a first sighting, dropped. */
    Rounds first_sighting;
    /** planCached outside Router::plan: a miss admitted over the
     *  full cache's drawn resident, which it evicts. */
    Rounds insert_evict;
    /** @} */
    /** Resident bytes of one plan: planCacheBytes / planCacheSize
     *  with the cache full. */
    std::size_t plan_bytes;
};

/** Cold Router::plan of one strategy (OmegaBit, Waksman). */
struct ColdPlanRow
{
    unsigned n;
    Word N;
    std::size_t pool;
    std::size_t samples;
    Rounds plan;
};

/** The steps of a plan hit on a Submit's frame, in place. */
struct HitRow
{
    unsigned n;
    Word N;
    std::size_t pool;
    std::size_t samples;
    Rounds hash;     //!< hashTags128 over the frame's u32 tag lanes
    Rounds lookup;   //!< findCached on those lanes, identity check included
    Rounds gather;   //!< the payload, frame to reply frame, unaligned
    Rounds validate; //!< Permutation::tryFrom, which only a miss pays
};

/** Row @p i of @p rows, added with @p fresh on the first round. */
template <typename Row>
Row &
roundRow(std::vector<Row> &rows, std::size_t i, Row fresh)
{
    if (rows.size() <= i)
        rows.push_back(std::move(fresh));
    return rows[i];
}

/**
 * One round of E2b: the library's own cold-plan path. Every sample
 * is cold — a pool of distinct F members is cycled so no plan is
 * ever repeated back-to-back — and the contract is identical on both
 * sides: one routed pass with its switch settings and realized
 * mapping.
 */
void
bitslicedRound(bool smoke, std::vector<SetupRow> &rows)
{
    const int reps = smoke ? 10 : 100;
    std::size_t i = 0;
    for (unsigned n = 8; n <= 12; n += 2, ++i) {
        const Word N = Word{1} << n;
        const SelfRoutingBenes net(n);
        const FastEngine eng(n);
        const SetupEngine setup(eng);
        const Router router(n, false, /*plan_cache_capacity=*/0,
                            /*cache_shards=*/1, /*metrics=*/nullptr);
        Prng prng(100 + n);
        std::vector<Permutation> pool;
        for (int i = 0; i < 32; ++i)
            pool.push_back(randomFMember(n, prng));
        std::size_t k = 0;
        auto next = [&]() -> const Permutation & {
            return pool[k++ % pool.size()];
        };

        const double ref_us = timeUs(
            [&] {
                auto res = net.route(next());
                benchmark::DoNotOptimize(res.success);
            },
            reps);
        setSimdLevel(SimdLevel::Scalar);
        const double scalar_us = timeUs(
            [&] {
                auto res = setup.plan(next());
                benchmark::DoNotOptimize(res.success);
            },
            reps);
        setSimdLevel(detectSimdLevel());
        const double simd_us = timeUs(
            [&] {
                auto res = setup.plan(next());
                benchmark::DoNotOptimize(res.success);
            },
            reps);
        const double router_us = timeUs(
            [&] {
                auto plan = router.plan(next());
                benchmark::DoNotOptimize(plan.src.data());
            },
            reps);

        SetupRow &row = roundRow(rows, i, SetupRow{n, N, {}, {}, {}, {}});
        addRound(row.reference, {ref_us});
        addRound(row.scalar, {scalar_us});
        addRound(row.simd, {simd_us});
        addRound(row.router, {router_us});
    }
}

void
printBitsliced(const std::vector<SetupRow> &rows)
{
    std::cout << "=== E2b: cold-plan production, per-switch "
                 "reference vs bit-sliced SetupEngine ===\n\n";

    TextTable table({"n", "N", "reference us", "sliced scalar us",
                     "sliced simd us", "router.plan us", "speedup"});
    for (const SetupRow &r : rows) {
        const double ref_us = spreadOf(r.reference).median_us;
        const double simd_us = spreadOf(r.simd).median_us;
        table.newRow();
        table.addCell(r.n);
        table.addCell(r.N);
        table.addCell(ref_us, 1);
        table.addCell(spreadOf(r.scalar).median_us, 1);
        table.addCell(simd_us, 1);
        table.addCell(spreadOf(r.router).median_us, 1);
        table.addCell(ref_us / simd_us, 2);
    }
    table.print(std::cout);
    std::cout << "\n(every sample is a cold plan; each cell is the "
                 "median over the rounds' means;\n'speedup' is the "
                 "reference simulator over the bit-sliced "
                 "SetupEngine::plan — the\nacceptance floor at n = 12 "
                 "is 3x)\n\n";
}

double
elapsedUs(std::chrono::steady_clock::time_point t0,
          std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/**
 * The arbitrary rows' pool at n: uniformly random permutations,
 * almost never in F(n) or Omega(n).
 */
std::vector<Permutation>
arbitraryPool(unsigned n, std::size_t size)
{
    Prng prng(300 + n);
    std::vector<Permutation> pool;
    for (std::size_t i = 0; i < size; ++i)
        pool.push_back(Permutation::random(std::size_t{1} << n, prng));
    return pool;
}

/**
 * @p samples separately timed cold Router::plan calls over @p pool,
 * cycled so no plan repeats back to back.
 */
std::vector<double>
timeColdPlans(const Router &router, const std::vector<Permutation> &pool,
              std::size_t samples)
{
    std::vector<double> us;
    us.reserve(samples);
    for (std::size_t k = 0; k < samples; ++k) {
        const Permutation &d = pool[k % pool.size()];
        const auto t0 = std::chrono::steady_clock::now();
        auto plan = router.plan(d);
        const auto t1 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(plan.src.data());
        us.push_back(elapsedUs(t0, t1));
    }
    return us;
}

/**
 * True iff every member of @p pool plans @p strategy on @p router and
 * the plan delivers Permutation::applyTo's payload; says which one
 * failed on stderr otherwise.
 */
bool
poolPlansAs(const Router &router, const std::vector<Permutation> &pool,
            RouteStrategy strategy)
{
    const Word N = router.fabric().numLines();
    std::vector<Word> data(N);
    for (Word i = 0; i < N; ++i)
        data[i] = 7 * i + 1;
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const RoutePlan plan = router.plan(pool[i]);
        if (plan.strategy != strategy) {
            std::fprintf(stderr, "N=%llu pool[%zu] planned %s, not %s\n",
                         static_cast<unsigned long long>(N), i,
                         routeStrategyName(plan.strategy),
                         routeStrategyName(strategy));
            return false;
        }
        if (router.execute(plan, data) != pool[i].applyTo(data)) {
            std::fprintf(stderr,
                         "N=%llu pool[%zu]: %s payload differs from "
                         "applyTo\n",
                         static_cast<unsigned long long>(N), i,
                         routeStrategyName(strategy));
            return false;
        }
    }
    return true;
}

/**
 * One round of the phases of a cold TwoPass miss at n, each timed on
 * its own over @p pool: the F gate Router::plan runs first (Theorem
 * 1's level-0 test, and the tag attempt only if it passes), the
 * looping factor, and the two verification passes. Then
 * planCached's own share of a miss, the time outside its
 * router.plan trace span, with the cache full at srbd's shape (512
 * slots, 8 shards, every plan sighted twice): a fresh pattern's
 * first sighting, which the gate drops, and a pattern's third
 * sighting, whose estimate beats the two of the resident drawn
 * against it, so it is inserted and evicts that plan. Returns false
 * if an admitted sample cannot be found.
 */
bool
timeTwoPassPhases(unsigned n, const std::vector<Permutation> &pool,
                  std::size_t samples, ArbitraryRow &row)
{
    using clock = std::chrono::steady_clock;
    const Word N = Word{1} << n;
    obs::MetricsRegistry reg;
    const Router router(n, false, /*plan_cache_capacity=*/512,
                        /*cache_shards=*/8, &reg);
    const SetupEngine &setup = router.setupEngine();
    std::vector<double> gate, factor, verify, first, insert;
    for (std::size_t k = 0; k < samples; ++k) {
        const Permutation &d = pool[k % pool.size()];
        const auto t0 = clock::now();
        const bool in_f = levelZero(d) && setup.routes(d);
        const auto t1 = clock::now();
        const TwoPassPlan tp = twoPassPlan(router.fabric(), d);
        const auto t2 = clock::now();
        const bool home = setup.routes(tp.first) &&
                          setup.routes(tp.second, RoutingMode::OmegaBit);
        const auto t3 = clock::now();
        benchmark::DoNotOptimize(in_f);
        benchmark::DoNotOptimize(home);
        gate.push_back(elapsedUs(t0, t1));
        factor.push_back(elapsedUs(t1, t2));
        verify.push_back(elapsedUs(t2, t3));
    }

    Prng prng(500 + n);
    for (std::size_t i = 0; i < router.planCacheCapacity(); ++i) {
        const Permutation d = Permutation::random(N, prng);
        (void)router.planCached(d);
        (void)router.planCached(d);
    }
    row.plan_bytes = router.planCacheBytes() / router.planCacheSize();
    const auto missUs = [&](const Permutation &d, std::uint64_t key) {
        const auto t0 = clock::now();
        const auto plan = router.planCached(d, key);
        const auto t1 = clock::now();
        benchmark::DoNotOptimize(plan.get());
        const obs::SpanRecord inner =
            obs::Tracer::global().snapshot().back();
        return elapsedUs(t0, t1) - static_cast<double>(inner.dur_ns) / 1e3;
    };
    for (std::size_t k = 0; k < samples; ++k) {
        const Permutation d = Permutation::random(N, prng);
        first.push_back(missUs(d, Router::hashPermutation(d)));
    }
    // A sketch collision can admit a pattern a sighting early or
    // keep it out a sighting late, and a drawn resident admitted
    // here before is as frequent as the newcomer; only timed
    // admissions count.
    for (std::size_t tries = 0; insert.size() < samples; ++tries) {
        if (tries == 4 * samples) {
            std::fprintf(stderr, "n=%u: too few admitted misses\n", n);
            return false;
        }
        const Permutation d = Permutation::random(N, prng);
        const std::uint64_t key = Router::hashPermutation(d);
        (void)router.planCached(d, key);
        (void)router.planCached(d, key);
        if (router.findCached(d, key))
            continue;
        const std::size_t admitted = router.cacheStats().admitted;
        const double us = missUs(d, key);
        if (router.cacheStats().admitted == admitted + 1)
            insert.push_back(us);
    }
    addRound(row.f_gate, std::move(gate));
    addRound(row.factor, std::move(factor));
    addRound(row.verify, std::move(verify));
    addRound(row.first_sighting, std::move(first));
    addRound(row.insert_evict, std::move(insert));
    return true;
}

/**
 * One round of the library's cold plan for arbitrary permutations: a
 * uniformly random permutation is almost never in F(n) or Omega(n),
 * so Router plans it TwoPass — the tag attempt, the looping factor
 * and both verified factor passes. Every sample is a separately
 * timed cold Router::plan (no plan cache) over a pool cycled so no
 * plan repeats back to back. Returns false if a plan is not TwoPass
 * or does not deliver Permutation::applyTo's payload.
 */
bool
arbitraryRound(bool smoke, std::vector<ArbitraryRow> &rows)
{
    const std::size_t pool_size = 32;
    const std::size_t samples = smoke ? 64 : 256;
    std::size_t i = 0;
    for (unsigned n = 8; n <= 12; n += 2, ++i) {
        const Word N = Word{1} << n;
        const Router router(n, false, /*plan_cache_capacity=*/0,
                            /*cache_shards=*/1, /*metrics=*/nullptr);
        const std::vector<Permutation> pool = arbitraryPool(n, pool_size);
        if (!poolPlansAs(router, pool, RouteStrategy::TwoPass))
            return false;
        ArbitraryRow &row = roundRow(
            rows, i,
            ArbitraryRow{n, N, pool_size, samples, {}, {}, {}, {}, {}, {}, 0});
        addRound(row.plan, timeColdPlans(router, pool, samples));
        if (!timeTwoPassPhases(n, pool, samples, row))
            return false;
    }
    return true;
}

void
printArbitrary(const std::vector<ArbitraryRow> &rows)
{
    std::cout << "=== E2b: cold Router::plan, uniformly random "
                 "permutations (TwoPass) ===\n\n";

    TextTable table({"n", "N", "samples", "median us", "p10 us",
                     "p90 us", "round min us", "round max us"});
    TextTable phases({"n", "F gate us", "factor us", "verify us",
                      "first sighting us", "insert+evict us",
                      "plan bytes"});
    for (const ArbitraryRow &r : rows) {
        const Spread plan = spreadOf(r.plan);
        table.newRow();
        table.addCell(r.n);
        table.addCell(r.N);
        table.addCell(r.samples);
        table.addCell(plan.median_us, 1);
        table.addCell(plan.p10_us, 1);
        table.addCell(plan.p90_us, 1);
        table.addCell(plan.round_min_us, 1);
        table.addCell(plan.round_max_us, 1);
        phases.newRow();
        phases.addCell(r.n);
        for (const Rounds *p : {&r.f_gate, &r.factor, &r.verify,
                                &r.first_sighting, &r.insert_evict})
            phases.addCell(spreadOf(*p).median_us, 1);
        phases.addCell(r.plan_bytes);
    }
    table.print(std::cout);
    std::cout << "\n(every sample is a cold TwoPass plan, verified "
                 "through both tag passes; compare the\n"
                 "router.plan column above for an F member at the "
                 "same n)\n\nits phases, medians:\n\n";
    phases.print(std::cout);
    std::cout << "\n(F gate: the level-0 test, and the tag attempt "
                 "only when it passes; first sighting\nand "
                 "insert+evict: planCached outside Router::plan with "
                 "512 plans resident, for a\nfirst sighting the gate "
                 "drops and for a miss admitted over a drawn "
                 "resident;\n"
                 "plan bytes: one resident plan, planCacheBytes / "
                 "planCacheSize)\n\n";
}

/**
 * One round of cold Router::plan on Omega members: the second TwoPass
 * factor of a uniformly random permutation, kept when the Router
 * plans it OmegaBit (Omega members in F plan SelfRouting). Returns
 * false if a plan does not deliver Permutation::applyTo's payload.
 */
bool
omegaRound(bool smoke, std::vector<ColdPlanRow> &rows)
{
    const std::size_t pool_size = 32;
    const std::size_t samples = smoke ? 64 : 256;
    std::size_t i = 0;
    for (unsigned n = 8; n <= 12; n += 2, ++i) {
        const Word N = Word{1} << n;
        const Router router(n, false, /*plan_cache_capacity=*/0,
                            /*cache_shards=*/1, /*metrics=*/nullptr);
        Prng prng(400 + n);
        std::vector<Permutation> pool;
        while (pool.size() < pool_size) {
            Permutation d =
                twoPassPlan(router.fabric(), Permutation::random(N, prng))
                    .second;
            if (router.plan(d).strategy == RouteStrategy::OmegaBit)
                pool.push_back(std::move(d));
        }
        if (!poolPlansAs(router, pool, RouteStrategy::OmegaBit))
            return false;
        addRound(roundRow(rows, i,
                          ColdPlanRow{n, N, pool_size, samples, {}})
                     .plan,
                 timeColdPlans(router, pool, samples));
    }
    return true;
}

/**
 * One round of cold Router::plan with prefer_waksman on the arbitrary
 * rows' pool: the factor, its two passes stitched into Waksman's one
 * state set, and one forced pass over it. Returns false if a plan is
 * not Waksman or does not deliver Permutation::applyTo's payload.
 */
bool
waksmanRound(bool smoke, std::vector<ColdPlanRow> &rows)
{
    const std::size_t pool_size = 32;
    const std::size_t samples = smoke ? 64 : 256;
    std::size_t i = 0;
    for (unsigned n = 8; n <= 12; n += 2, ++i) {
        const Word N = Word{1} << n;
        const Router router(n, /*prefer_waksman=*/true,
                            /*plan_cache_capacity=*/0,
                            /*cache_shards=*/1, /*metrics=*/nullptr);
        const std::vector<Permutation> pool = arbitraryPool(n, pool_size);
        if (!poolPlansAs(router, pool, RouteStrategy::Waksman))
            return false;
        addRound(roundRow(rows, i,
                          ColdPlanRow{n, N, pool_size, samples, {}})
                     .plan,
                 timeColdPlans(router, pool, samples));
    }
    return true;
}

/**
 * One round of a plan hit's steps at n = 8, 10 and 12, over a pool of
 * random permutations resident in a tier of srbd's shape (512 slots,
 * 8 shards, each pattern sighted twice), on each pattern's Submit
 * frame as srbd reads it in place: the u32 tag lanes at frame offset
 * 34, the payload lanes after them, both at odd byte offsets, and the
 * payload gathered into a SubmitResult frame at offset 27. Each
 * sample is the mean of kBatch consecutive calls over the pool, so
 * the clock's own cost stays out of sub-microsecond steps. Returns
 * false if a lookup misses or a gather misroutes.
 */
bool
hitRound(bool smoke, std::vector<HitRow> &rows)
{
    constexpr std::size_t kBatch = 16;
    // The frame's tags start at offset 34 and its payload at
    // 34 + 4N; a reply's payload at offset 27. The buffers start
    // 8-byte aligned, so every lane sits as it does on srbd's path.
    constexpr std::size_t kTagsAt = 34;
    constexpr std::size_t kReplyAt = 27;
    const std::size_t pool_size = 64;
    const std::size_t samples = smoke ? 64 : 512;
    std::size_t i = 0;
    for (unsigned n = 8; n <= 12; n += 2, ++i) {
        const Word N = Word{1} << n;
        const Router router(n, false, /*plan_cache_capacity=*/512,
                            /*cache_shards=*/8, /*metrics=*/nullptr);
        const std::vector<Permutation> pool = arbitraryPool(n, pool_size);
        std::vector<std::vector<std::uint8_t>> frames;
        std::vector<std::uint64_t> keys;
        std::vector<Word> payload(N);
        for (Word j = 0; j < N; ++j)
            payload[j] = 0x9e3779b97f4a7c15ull * (j + 1);
        for (const Permutation &d : pool) {
            (void)router.planCached(d);
            (void)router.planCached(d);
            std::vector<std::uint8_t> frame(kTagsAt + 12 * N);
            for (Word j = 0; j < N; ++j) {
                const auto t = static_cast<std::uint32_t>(d[j]);
                std::memcpy(frame.data() + kTagsAt + 4 * j, &t, 4);
            }
            std::memcpy(frame.data() + kTagsAt + 4 * N, payload.data(),
                        8 * N);
            frames.push_back(std::move(frame));
            keys.push_back(Router::hashPermutation(d));
        }
        if (router.planCacheSize() != pool_size)
            return false;
        auto tagsOf = [&](std::size_t j) {
            return frames[j].data() + kTagsAt;
        };
        std::vector<std::uint8_t> reply(kReplyAt + 8 * N);

        std::vector<double> hash, lookup, gather, validate;
        std::vector<std::shared_ptr<const RoutePlan>> plans(kBatch);
        std::vector<std::vector<Word>> copies(kBatch);
        for (std::size_t k = 0; k < samples; ++k) {
            const std::size_t base = k * kBatch;
            auto t0 = std::chrono::steady_clock::now();
            for (std::size_t b = 0; b < kBatch; ++b) {
                const Hash128 h =
                    hashTags128(tagsOf((base + b) % pool_size), N);
                benchmark::DoNotOptimize(h);
            }
            auto t1 = std::chrono::steady_clock::now();
            hash.push_back(elapsedUs(t0, t1) / kBatch);

            bool hit = true;
            t0 = std::chrono::steady_clock::now();
            for (std::size_t b = 0; b < kBatch; ++b) {
                const std::size_t j = (base + b) % pool_size;
                plans[b] = router.findCached(tagsOf(j), N, keys[j]);
                hit = hit && plans[b] != nullptr;
            }
            t1 = std::chrono::steady_clock::now();
            if (!hit)
                return false;
            lookup.push_back(elapsedUs(t0, t1) / kBatch);

            t0 = std::chrono::steady_clock::now();
            for (std::size_t b = 0; b < kBatch; ++b) {
                const std::size_t j = (base + b) % pool_size;
                router.executeInto(*plans[b],
                                   frames[j].data() + kTagsAt + 4 * N,
                                   reply.data() + kReplyAt);
                benchmark::DoNotOptimize(reply.data());
            }
            t1 = std::chrono::steady_clock::now();
            gather.push_back(elapsedUs(t0, t1) / kBatch);
            Word first;
            std::memcpy(&first, reply.data() + kReplyAt, 8);
            if (first != payload[plans[kBatch - 1]->src[0]])
                return false;

            // A miss copies its tags out of the frame, widened, and
            // tryFrom takes that vector: the copies are made untimed.
            for (std::size_t b = 0; b < kBatch; ++b) {
                const std::uint8_t *t = tagsOf((base + b) % pool_size);
                copies[b].resize(N);
                for (Word j = 0; j < N; ++j)
                    copies[b][j] = tagLane(t, j);
            }
            t0 = std::chrono::steady_clock::now();
            for (std::size_t b = 0; b < kBatch; ++b) {
                auto valid = Permutation::tryFrom(std::move(copies[b]));
                benchmark::DoNotOptimize(valid);
            }
            t1 = std::chrono::steady_clock::now();
            validate.push_back(elapsedUs(t0, t1) / kBatch);
        }
        HitRow &row = roundRow(
            rows, i, HitRow{n, N, pool_size, samples, {}, {}, {}, {}});
        addRound(row.hash, std::move(hash));
        addRound(row.lookup, std::move(lookup));
        addRound(row.gather, std::move(gather));
        addRound(row.validate, std::move(validate));
    }
    return true;
}

void
printHit(const std::vector<HitRow> &rows)
{
    std::cout << "=== E2b: a plan hit's steps on a Submit frame in place "
                 "(random permutations, 512-slot tier) ===\n\n";
    TextTable table({"n", "N", "hash us", "lookup us", "gather us",
                     "validate us", "hash p90 us", "lookup p90 us",
                     "gather p90 us"});
    for (const HitRow &r : rows) {
        const Spread hash = spreadOf(r.hash);
        const Spread lookup = spreadOf(r.lookup);
        const Spread gather = spreadOf(r.gather);
        const Spread validate = spreadOf(r.validate);
        table.newRow();
        table.addCell(r.n);
        table.addCell(r.N);
        table.addCell(hash.median_us, 3);
        table.addCell(lookup.median_us, 3);
        table.addCell(gather.median_us, 3);
        table.addCell(validate.median_us, 3);
        table.addCell(hash.p90_us, 3);
        table.addCell(lookup.p90_us, 3);
        table.addCell(gather.p90_us, 3);
    }
    table.print(std::cout);
    std::cout << "\n(hash: hashTags128 over the frame's u32 tag lanes at "
                 "offset 34; lookup: findCached on\nthose lanes, identity "
                 "check included; gather: the payload lanes into a reply "
                 "frame\nat offset 27; validate: Permutation::tryFrom on "
                 "the widened tags, which only a miss\nruns; each sample "
                 "the mean of 16 calls over the pool)\n\n";
}

void
printColdTable(const char *title, const char *note,
               const std::vector<ColdPlanRow> &rows)
{
    std::cout << "=== E2b: cold Router::plan, " << title << " ===\n\n";
    TextTable table({"n", "N", "samples", "median us", "p10 us",
                     "p90 us"});
    for (const ColdPlanRow &r : rows) {
        const Spread plan = spreadOf(r.plan);
        table.newRow();
        table.addCell(r.n);
        table.addCell(r.N);
        table.addCell(r.samples);
        table.addCell(plan.median_us, 1);
        table.addCell(plan.p10_us, 1);
        table.addCell(plan.p90_us, 1);
    }
    table.print(std::cout);
    std::cout << "\n" << note << "\n\n";
}

/** Print @p what's median, p10, p90 and round-median range as JSON
 *  fields, with @p digits decimals. */
void
printSpread(std::FILE *jf, const char *what, const Rounds &r,
            int digits = 1)
{
    const Spread s = spreadOf(r);
    std::fprintf(jf,
                 "\"%s_median\": %.*f, \"%s_p10\": %.*f, "
                 "\"%s_p90\": %.*f, \"%s_round_min\": %.*f, "
                 "\"%s_round_max\": %.*f",
                 what, digits, s.median_us, what, digits, s.p10_us, what,
                 digits, s.p90_us, what, digits, s.round_min_us, what,
                 digits, s.round_max_us);
}

/** One JSON array of cold-plan rows of @p strategy. */
void
printColdRows(std::FILE *jf, const char *strategy,
              const std::vector<ColdPlanRow> &rows)
{
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ColdPlanRow &r = rows[i];
        std::fprintf(jf,
                     "    {\"n\": %u, \"N\": %llu, \"strategy\": "
                     "\"%s\", \"pool\": %zu, \"samples\": %zu, ",
                     r.n, static_cast<unsigned long long>(r.N), strategy,
                     r.pool, r.samples);
        printSpread(jf, "router_plan_cold_us", r.plan);
        std::fprintf(jf, "}%s\n", i + 1 < rows.size() ? "," : "");
    }
}

/**
 * The cold Waksman plan over the cold TwoPass plan of the same pool,
 * per n: the ratio of the pooled medians, and the least and greatest
 * ratio of one round's medians.
 */
void
printWaksmanRatios(std::FILE *jf, const std::vector<ArbitraryRow> &arbitrary,
                   const std::vector<ColdPlanRow> &waksman)
{
    for (std::size_t i = 0; i < waksman.size(); ++i) {
        const Rounds &w = waksman[i].plan;
        const Rounds &a = arbitrary[i].plan;
        std::vector<double> ratios;
        for (std::size_t k = 0; k < w.medians.size(); ++k)
            ratios.push_back(w.medians[k] / a.medians[k]);
        const auto [lo, hi] =
            std::minmax_element(ratios.begin(), ratios.end());
        std::fprintf(jf,
                     "    {\"n\": %u, \"ratio_median\": %.3f, "
                     "\"ratio_round_min\": %.3f, \"ratio_round_max\": "
                     "%.3f}%s\n",
                     waksman[i].n,
                     spreadOf(w).median_us / spreadOf(a).median_us, *lo,
                     *hi, i + 1 < waksman.size() ? "," : "");
    }
}

bool
writeSetupJson(unsigned rounds, const std::vector<SetupRow> &rows,
               const std::vector<ArbitraryRow> &arbitrary,
               const std::vector<ColdPlanRow> &omega,
               const std::vector<ColdPlanRow> &waksman,
               const std::vector<HitRow> &hit)
{
    const char *path = "BENCH_setup.json";
    std::FILE *jf = std::fopen(path, "w");
    if (!jf) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        return false;
    }
    std::fprintf(jf,
                 "{\n  \"benchmark\": \"setup\",\n"
                 "  \"unit\": \"us_per_cold_plan\",\n"
                 "  \"workload\": \"random F(n) members, "
                 "SetupEngine::plan (one tag pass, no state packing), "
                 "32-perm cold pool\",\n"
                 "  \"simd\": \"%s\",\n  \"rounds\": %u,\n"
                 "  \"rounds_note\": \"every section runs once per "
                 "round, the sections interleaved; a results row is "
                 "the median of its rounds' means, and every other "
                 "row pools its rounds' samples for median, p10 and "
                 "p90, and gives the least and greatest round median "
                 "as _round_min and _round_max\",\n"
                 "  \"results\": [\n",
                 activeKernels().name, rounds);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SetupRow &r = rows[i];
        const double ref_us = spreadOf(r.reference).median_us;
        const double simd_us = spreadOf(r.simd).median_us;
        std::fprintf(
            jf,
            "    {\"n\": %u, \"N\": %llu, "
            "\"reference_route_us\": %.1f, "
            "\"bitsliced_scalar_us\": %.1f, "
            "\"bitsliced_simd_us\": %.1f, "
            "\"router_plan_cold_us\": %.1f, "
            "\"speedup_vs_reference\": %.2f}%s\n",
            r.n, static_cast<unsigned long long>(r.N), ref_us,
            spreadOf(r.scalar).median_us, simd_us,
            spreadOf(r.router).median_us, ref_us / simd_us,
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(jf,
                 "  ],\n  \"arbitrary_workload\": \"uniformly random "
                 "permutations, cold Router::plan (TwoPass), 32-perm "
                 "cold pool\",\n  \"arbitrary\": [\n");
    for (std::size_t i = 0; i < arbitrary.size(); ++i) {
        const ArbitraryRow &r = arbitrary[i];
        std::fprintf(jf,
                     "    {\"n\": %u, \"N\": %llu, \"strategy\": "
                     "\"two-pass\", \"pool\": %zu, \"samples\": %zu,\n"
                     "     ",
                     r.n, static_cast<unsigned long long>(r.N), r.pool,
                     r.samples);
        printSpread(jf, "router_plan_cold_us", r.plan);
        std::fprintf(jf, ",\n     ");
        printSpread(jf, "f_gate_us", r.f_gate);
        std::fprintf(jf, ",\n     ");
        printSpread(jf, "factor_us", r.factor);
        std::fprintf(jf, ",\n     ");
        printSpread(jf, "verify_us", r.verify);
        std::fprintf(jf, ",\n     ");
        printSpread(jf, "first_sighting_us", r.first_sighting);
        std::fprintf(jf, ",\n     ");
        printSpread(jf, "insert_evict_us", r.insert_evict);
        std::fprintf(jf, ",\n     \"plan_bytes\": %zu}%s\n", r.plan_bytes,
                     i + 1 < arbitrary.size() ? "," : "");
    }
    std::fprintf(jf,
                 "  ],\n  \"phases_note\": \"f_gate: the level-0 test, "
                 "then the tag attempt only if it passes; factor: "
                 "twoPassPlan; verify: both factor tag passes; "
                 "first_sighting and insert_evict: planCached outside "
                 "its router.plan span with 512 plans resident in 8 "
                 "shards, for a fresh pattern's first sighting (planned "
                 "and dropped) and for a third sighting admitted over "
                 "a resident drawn at random (inserted, that resident "
                 "evicted); "
                 "plan_bytes: one resident plan, planCacheBytes / "
                 "planCacheSize with those 512 resident\",\n"
                 "  \"omega_workload\": \"Omega members (second "
                 "TwoPass factors of random permutations) that plan "
                 "OmegaBit, cold Router::plan, 32-perm cold pool\",\n"
                 "  \"omega\": [\n");
    printColdRows(jf, "omega-bit", omega);
    std::fprintf(jf,
                 "  ],\n  \"waksman_workload\": \"the arbitrary "
                 "rows' pool, cold Router::plan with prefer_waksman "
                 "(the factor, its two passes stitched, one forced "
                 "pass)\",\n  \"waksman\": [\n");
    printColdRows(jf, "waksman", waksman);
    std::fprintf(jf, "  ],\n  \"waksman_over_arbitrary\": [\n");
    printWaksmanRatios(jf, arbitrary, waksman);
    std::fprintf(jf,
                 "  ],\n  \"hit_workload\": \"the steps of a plan hit "
                 "on a Submit frame read in place: random permutations "
                 "resident in a 512-slot, 8-shard tier; hash: "
                 "hashTags128 over the frame's u32 tag lanes at offset "
                 "34; lookup: findCached on those lanes, identity check "
                 "included; gather: the payload lanes from offset "
                 "34 + 4N into a reply frame at offset 27; validate: "
                 "Permutation::tryFrom on the widened tags, which a hit "
                 "never runs and a miss does; each sample the mean of "
                 "16 calls over the pool\",\n"
                 "  \"hit\": [\n");
    for (std::size_t i = 0; i < hit.size(); ++i) {
        const HitRow &r = hit[i];
        std::fprintf(jf,
                     "    {\"n\": %u, \"N\": %llu, \"pool\": %zu, "
                     "\"samples\": %zu,\n     ",
                     r.n, static_cast<unsigned long long>(r.N), r.pool,
                     r.samples);
        printSpread(jf, "hash_us", r.hash, 3);
        std::fprintf(jf, ",\n     ");
        printSpread(jf, "lookup_us", r.lookup, 3);
        std::fprintf(jf, ",\n     ");
        printSpread(jf, "gather_us", r.gather, 3);
        std::fprintf(jf, ",\n     ");
        printSpread(jf, "validate_us", r.validate, 3);
        std::fprintf(jf, "}%s\n", i + 1 < hit.size() ? "," : "");
    }
    std::fprintf(jf, "  ]\n}\n");
    std::fclose(jf);
    std::printf("wrote %s\n\n", path);
    return true;
}

void
BM_SelfRoute(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    const SelfRoutingBenes net(n);
    Prng prng(n);
    const Permutation d = BpcSpec::random(n, prng).toPermutation();
    for (auto _ : state) {
        auto res = net.route(d);
        benchmark::DoNotOptimize(res.success);
    }
    state.SetItemsProcessed(state.iterations() * d.size());
}
BENCHMARK(BM_SelfRoute)->DenseRange(6, 16, 2);

void
BM_WaksmanSetupOnly(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    const BenesTopology topo(n);
    Prng prng(n);
    const Permutation d =
        Permutation::random(std::size_t{1} << n, prng);
    for (auto _ : state) {
        auto states = waksmanSetup(topo, d);
        benchmark::DoNotOptimize(states.size());
    }
    state.SetItemsProcessed(state.iterations() * d.size());
}
BENCHMARK(BM_WaksmanSetupOnly)->DenseRange(6, 16, 2);

void
BM_WaksmanSetupAndRoute(benchmark::State &state)
{
    const unsigned n = static_cast<unsigned>(state.range(0));
    const SelfRoutingBenes net(n);
    Prng prng(n);
    const Permutation d =
        Permutation::random(std::size_t{1} << n, prng);
    for (auto _ : state) {
        auto states = waksmanSetup(net.topology(), d);
        auto res = net.routeWithStates(d, states);
        benchmark::DoNotOptimize(res.success);
    }
    state.SetItemsProcessed(state.iterations() * d.size());
}
BENCHMARK(BM_WaksmanSetupAndRoute)->DenseRange(6, 16, 2);

} // namespace

int
main(int argc, char **argv)
{
    // SRBENES_BENCH_SMOKE=1: the CI smoke configuration — the same
    // sections at reduced reps and range, proving the binary and its
    // JSON stay healthy without tying up a runner.
    const char *smoke_env = std::getenv("SRBENES_BENCH_SMOKE");
    const bool smoke = smoke_env && smoke_env[0] != '\0' &&
                       !(smoke_env[0] == '0' && smoke_env[1] == '\0');

    // The E2b sections run in interleaved rounds, so a slow stretch
    // of a noisy host lands on every section alike, and each row
    // reports the spread of its round medians.
    const unsigned rounds = smoke ? 1 : 3;
    std::vector<SetupRow> rows;
    std::vector<ArbitraryRow> arbitrary;
    std::vector<ColdPlanRow> omega;
    std::vector<ColdPlanRow> waksman;
    std::vector<HitRow> hit;
    for (unsigned r = 0; r < rounds; ++r) {
        bitslicedRound(smoke, rows);
        if (!arbitraryRound(smoke, arbitrary) ||
            !omegaRound(smoke, omega) || !waksmanRound(smoke, waksman) ||
            !hitRound(smoke, hit))
            return 1;
    }
    printBitsliced(rows);
    printArbitrary(arbitrary);
    printColdTable("Omega members (OmegaBit)",
                   "(every sample is a cold OmegaBit plan: the F gate, "
                   "the Omega check and one\nomega-bit tag pass)",
                   omega);
    printColdTable("uniformly random permutations (Waksman)",
                   "(every sample is a cold Waksman plan: the F gate, "
                   "the Omega check, the factor,\nthe two passes' "
                   "stitched masks and one forced pass; compare the "
                   "TwoPass rows)",
                   waksman);
    printHit(hit);
    if (!writeSetupJson(rounds, rows, arbitrary, omega, waksman, hit))
        return 1;

    printSetupComparison(smoke ? 10u : 16u);
    if (!smoke) {
        benchmark::Initialize(&argc, argv);
        benchmark::RunSpecifiedBenchmarks();
    }
    return 0;
}
