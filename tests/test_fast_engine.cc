/**
 * @file
 * Differential tests for the bit-sliced fast engine against the
 * reference SelfRoutingBenes simulator: exhaustive at n = 2, 3,
 * randomized over every permutation class at n = 4..10, in both
 * routing modes and under forced (Waksman) states — states,
 * output_tags, realized_dest, misrouted_outputs and success must
 * match bit for bit. Also covers the state converters at every
 * n <= 16, execution against Permutation::applyTo, and the Router
 * plan cache.
 */

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "rand_iters.hh"
#include "sightings.hh"

#include "common/prng.hh"
#include "core/fast_engine.hh"
#include "core/router.hh"
#include "core/two_pass.hh"
#include "core/waksman.hh"
#include "perm/bpc.hh"
#include "perm/f_class.hh"
#include "perm/named_bpc.hh"
#include "perm/omega_class.hh"

namespace srbenes
{
namespace
{

void
expectSameResult(const RouteResult &ref, const RouteResult &fast,
                 const Permutation &d)
{
    ASSERT_EQ(ref.success, fast.success) << d.toString();
    ASSERT_EQ(ref.output_tags, fast.output_tags) << d.toString();
    ASSERT_EQ(ref.realized_dest, fast.realized_dest) << d.toString();
    ASSERT_EQ(ref.states, fast.states) << d.toString();
    ASSERT_EQ(ref.misrouted_outputs, fast.misrouted_outputs)
        << d.toString();
    ASSERT_EQ(ref.gate_delay, fast.gate_delay) << d.toString();
}

void
compareBothModes(const SelfRoutingBenes &net, const FastEngine &eng,
                 const Permutation &d)
{
    for (RoutingMode mode :
         {RoutingMode::SelfRouting, RoutingMode::OmegaBit}) {
        const RouteResult ref = net.route(d, mode);
        const RouteResult fast = eng.route(d, mode);
        expectSameResult(ref, fast, d);
    }
}

TEST(FastEngine, RefusesFabricsWiderThanSixteenBitLanes)
{
    // Gather tables hold 16-bit lane indices: n = 16 is the widest
    // fabric an engine serves.
    EXPECT_EQ(FastEngine::kMaxN, 16u);
    EXPECT_DEATH(FastEngine(17, nullptr), "16-bit lanes");
}

TEST(FastEngine, ExhaustiveDifferentialSmall)
{
    for (unsigned n : {1u, 2u, 3u}) {
        const SelfRoutingBenes net(n);
        const FastEngine eng(n);
        std::vector<Word> dest(Word{1} << n);
        std::iota(dest.begin(), dest.end(), Word{0});
        do {
            compareBothModes(net, eng, Permutation(dest));
        } while (std::next_permutation(dest.begin(), dest.end()));
    }
}

TEST(FastEngine, RandomizedDifferentialAllClasses)
{
    Prng prng(42);
    for (unsigned n = 4; n <= 10; ++n) {
        const SelfRoutingBenes net(n);
        const FastEngine eng(n);
        const std::size_t size = std::size_t{1} << n;
        const int trials = randIters(n <= 7 ? 20 : 6);
        for (int t = 0; t < trials; ++t) {
            const Permutation any = Permutation::random(size, prng);
            const TwoPassPlan tp = twoPassPlan(net, any);
            // F members, BPC members, the two-pass factors (an
            // inverse-omega and an omega member), and arbitrary
            // permutations — the last mostly FAIL under
            // self-routing, checking the misroute reporting too.
            const Permutation cases[] = {
                randomFMember(n, prng),
                BpcSpec::random(n, prng).toPermutation(),
                tp.first,
                tp.second,
                any,
            };
            for (const auto &d : cases)
                compareBothModes(net, eng, d);
        }
    }
}

TEST(FastEngine, WaksmanForcedStatesDifferential)
{
    Prng prng(7);
    for (unsigned n = 2; n <= FastEngine::kMaxN; ++n) {
        const SelfRoutingBenes net(n);
        const FastEngine eng(n);
        for (int t = 0; t < randIters(n <= 12 ? 8 : 3); ++t) {
            const auto d =
                Permutation::random(std::size_t{1} << n, prng);
            const SwitchStates states =
                waksmanSetup(net.topology(), d);
            const RouteResult ref = net.routeWithStates(d, states);
            const RouteResult fast = eng.routeWithStates(d, states);
            ASSERT_TRUE(fast.success);
            expectSameResult(ref, fast, d);

            // Deliberately mismatched forced states (for a different
            // permutation) must misroute identically as well.
            const auto other =
                Permutation::random(std::size_t{1} << n, prng);
            expectSameResult(net.routeWithStates(other, states),
                             eng.routeWithStates(other, states),
                             other);
        }
    }
}

TEST(FastEngine, ForcedStatesRoundTrip)
{
    // Random dense states go straight into the control masks, and
    // planStates reads the same states back out of them, at every
    // width the engine serves.
    Prng prng(13);
    for (unsigned n = 1; n <= FastEngine::kMaxN; ++n) {
        const FastEngine eng(n);
        for (int t = 0; t < (n <= 12 ? 1 : 3); ++t) {
            SwitchStates states(eng.numStages(),
                                std::vector<std::uint8_t>(
                                    eng.switchesPerStage()));
            for (auto &stage : states)
                for (auto &s : stage)
                    s = static_cast<std::uint8_t>(prng.below(2));
            const Permutation d =
                Permutation::random(std::size_t{1} << n, prng);
            EXPECT_EQ(eng.planStates(eng.planWithStates(d, states)),
                      states)
                << "n=" << n;
        }
    }
}

TEST(FastEngine, PlanStatesMatchReference)
{
    Prng prng(17);
    for (unsigned n = 2; n <= FastEngine::kMaxN; ++n) {
        const SelfRoutingBenes net(n);
        const FastEngine eng(n);
        for (int t = 0; t < (n <= 12 ? 1 : 3); ++t) {
            const Permutation d = randomFMember(n, prng);
            const FastPlan plan = eng.routePlan(d);
            ASSERT_TRUE(plan.success);
            EXPECT_EQ(eng.planStates(plan), net.route(d).states)
                << "n=" << n;
        }
    }
}

TEST(FastEngine, StitchedPassesAreTheSeededWaksmanSetup)
{
    // Stages 0..n-2 of pass 1 and n-1..2n-2 of pass 2 of a seeded
    // TwoPass factorization are the Waksman setup of the same seed:
    // the Router's verified Waksman plan and the states the resilient
    // layer re-derives are one decomposition.
    Prng prng(19);
    for (unsigned n = 1; n <= 12; ++n) {
        const SelfRoutingBenes net(n);
        const FastEngine eng(n);
        for (int t = 0; t < 4; ++t) {
            const auto d =
                Permutation::random(std::size_t{1} << n, prng);
            for (std::uint64_t seed = 0; seed <= 8; ++seed) {
                const TwoPassPlan tp = twoPassPlanSeeded(net, d, seed);
                const FastPlan plan =
                    eng.planStitched(d, tp.first, tp.second);
                ASSERT_TRUE(plan.success) << "n=" << n << " seed=" << seed;
                EXPECT_EQ(plan.dest, d.dest());
                ASSERT_EQ(eng.planStates(plan),
                          waksmanSetupSeeded(net.topology(), d, seed))
                    << "n=" << n << " seed=" << seed;
            }
        }
    }
}

TEST(FastEngine, ExecuteMatchesPermutationApply)
{
    Prng prng(23);
    for (unsigned n : {3u, 6u, 8u}) {
        const FastEngine eng(n);
        const std::size_t size = std::size_t{1} << n;
        const Permutation d = randomFMember(n, prng);
        const FastPlan plan = eng.routePlan(d);
        ASSERT_TRUE(plan.success);

        std::vector<Word> data(size);
        for (std::size_t i = 0; i < size; ++i)
            data[i] = 1000 + i;
        EXPECT_EQ(eng.execute(plan, data), d.applyTo(data));

        // executeInto reuses the output buffer.
        std::vector<Word> out;
        eng.executeInto(plan, data, out);
        EXPECT_EQ(out, d.applyTo(data));
        eng.executeInto(plan, data, out);
        EXPECT_EQ(out, d.applyTo(data));
    }
}

TEST(FastEngine, RouteIntoReusesResultBuffers)
{
    Prng prng(31);
    const unsigned n = 6;
    const SelfRoutingBenes net(n);
    RouteResult reused;
    for (int t = 0; t < randIters(5); ++t) {
        const auto d = Permutation::random(64, prng);
        net.routeInto(d, reused);
        const RouteResult fresh = net.route(d);
        expectSameResult(fresh, reused, d);
    }
}

/** Router::routeOutcome's payload; every healthy route is ok. */
std::vector<Word>
routeValue(const Router &router, const Permutation &d,
           const std::vector<Word> &data)
{
    RouteOutcome out = router.routeOutcome(d, data);
    EXPECT_TRUE(out.ok());
    return out.takeValue();
}

TEST(RouterCache, HitsAndMisses)
{
    Prng prng(37);
    const Router router(5, false, 8);
    const std::size_t size = 32;
    std::vector<Word> data(size);
    std::iota(data.begin(), data.end(), Word{100});

    const auto d1 = Permutation::random(size, prng);
    const auto d2 = Permutation::random(size, prng);

    EXPECT_EQ(router.planCacheSize(), 0u);
    // First sightings: planned and served, but not kept.
    (void)routeValue(router, d1, data);
    (void)routeValue(router, d2, data);
    const std::size_t misses0 = router.planCacheMisses();
    const auto out1 = routeValue(router, d1, data);
    EXPECT_EQ(router.planCacheMisses(), misses0 + 1);
    EXPECT_EQ(router.planCacheHits(), 0u);

    const auto out1b = routeValue(router, d1, data);
    EXPECT_EQ(router.planCacheMisses(), misses0 + 1);
    EXPECT_EQ(router.planCacheHits(), 1u);
    EXPECT_EQ(out1, out1b);
    EXPECT_EQ(out1, d1.applyTo(data));

    const auto out2 = routeValue(router, d2, data);
    EXPECT_EQ(router.planCacheMisses(), misses0 + 2);
    EXPECT_EQ(router.planCacheSize(), 2u);
    EXPECT_EQ(out2, d2.applyTo(data));

    // The cached plan is the same object, not a re-plan.
    const auto p1 = router.planCached(d1);
    const auto p2 = router.planCached(d1);
    EXPECT_EQ(p1.get(), p2.get());

    router.clearPlanCache();
    EXPECT_EQ(router.planCacheSize(), 0u);
    EXPECT_EQ(router.planCacheHits(), 0u);
}

TEST(RouterCache, FullCacheEvictsOneResidentForAMoreFrequentPattern)
{
    Prng prng(41);
    const Router router(4, false, 2);
    const std::size_t size = 16;
    std::vector<Word> data(size);
    std::iota(data.begin(), data.end(), Word{0});

    const auto a = Permutation::random(size, prng);
    const auto b = Permutation::random(size, prng);
    const auto c = Permutation::random(size, prng);

    // First sightings: planned and served, but not kept.
    routeValue(router, a, data);
    routeValue(router, b, data);
    routeValue(router, c, data);
    routeValue(router, a, data); // cache: a
    routeValue(router, b, data); // cache: a b
    routeValue(router, a, data); // hit
    EXPECT_EQ(router.planCacheHits(), 1u);
    // c takes a slot of the full cache once it out-counts the
    // resident drawn against it, which it evicts; the other stays.
    const unsigned c_sightings = sightUntilResident(router, c);
    ASSERT_GT(c_sightings, 0u);
    EXPECT_EQ(router.planCacheSize(), 2u);
    EXPECT_EQ(router.planCacheEvictions(), 1u);
    const bool a_kept =
        router.findCached(a, Router::hashPermutation(a)) != nullptr;
    const bool b_kept =
        router.findCached(b, Router::hashPermutation(b)) != nullptr;
    EXPECT_NE(a_kept, b_kept);
    EXPECT_NE(router.findCached(c, Router::hashPermutation(c)), nullptr);
    // The evicted pattern misses again and still routes.
    routeValue(router, a_kept ? b : a, data);
    EXPECT_EQ(router.planCacheMisses(), 3u + 2u + c_sightings + 1u);
}

TEST(RouterCache, ZeroCapacityDisablesCaching)
{
    Prng prng(43);
    const Router router(4, false, 0);
    const std::size_t size = 16;
    std::vector<Word> data(size);
    std::iota(data.begin(), data.end(), Word{0});
    const auto d = Permutation::random(size, prng);
    routeValue(router, d, data);
    routeValue(router, d, data);
    EXPECT_EQ(router.planCacheSize(), 0u);
    EXPECT_EQ(router.planCacheHits(), 0u);
}

TEST(Router, FastPathDeliversUnderEveryStrategy)
{
    Prng prng(47);
    for (bool prefer_waksman : {false, true}) {
        const Router router(5, prefer_waksman);
        const std::size_t size = 32;
        std::vector<Word> data(size);
        std::iota(data.begin(), data.end(), Word{7});

        const std::vector<Permutation> mix{
            randomFMember(5, prng),                 // self-routing
            named::cyclicShift(5, 9).inverse(),     // omega-bit
            Permutation::random(size, prng),        // two-pass/waksman
            Permutation::random(size, prng),
        };
        for (const auto &d : mix) {
            const auto plan = router.plan(d);
            // Every strategy realizes d: execute gathers through its
            // inverse.
            EXPECT_EQ(std::vector<Word>(plan.src.begin(), plan.src.end()),
                      d.inverse().dest());
            EXPECT_EQ(router.execute(plan, data), d.applyTo(data));

            // executeInto reuses the output buffer.
            std::vector<Word> out;
            for (int rep = 0; rep < 2; ++rep) {
                router.executeInto(plan, data, out);
                EXPECT_EQ(out, d.applyTo(data));
            }
        }
    }
}

} // namespace
} // namespace srbenes
