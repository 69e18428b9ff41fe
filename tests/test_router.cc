/**
 * @file
 * Tests for the routing facade: strategy selection, plan reuse,
 * correct delivery under every strategy, and the Waksman
 * preference knob.
 */

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "core/router.hh"
#include "perm/f_class.hh"
#include "perm/named_bpc.hh"
#include "perm/omega_class.hh"

namespace srbenes
{
namespace
{

std::vector<Word>
iotaData(std::size_t size)
{
    std::vector<Word> v(size);
    for (std::size_t i = 0; i < size; ++i)
        v[i] = 600 + i;
    return v;
}

TEST(Router, PicksSelfRoutingForFMembers)
{
    const Router router(4);
    Prng prng(1);
    for (int trial = 0; trial < 20; ++trial) {
        const auto plan = router.plan(randomFMember(4, prng));
        EXPECT_EQ(plan.strategy, RouteStrategy::SelfRouting);
        EXPECT_EQ(plan.passes, 1u);
    }
}

TEST(Router, PicksOmegaBitForOmegaOnlyMembers)
{
    // (1,3,2,0) is Omega(2) but not F(2).
    const Router router(2);
    const auto plan = router.plan(Permutation({1, 3, 2, 0}));
    EXPECT_EQ(plan.strategy, RouteStrategy::OmegaBit);
}

TEST(Router, PicksTwoPassForTheRest)
{
    const Router router(4);
    Prng prng(3);
    int seen = 0;
    for (int trial = 0; trial < 50; ++trial) {
        const auto d = Permutation::random(16, prng);
        if (inFClass(d) || isOmega(d))
            continue;
        const auto plan = router.plan(d);
        EXPECT_EQ(plan.strategy, RouteStrategy::TwoPass);
        EXPECT_EQ(plan.passes, 2u);
        ++seen;
    }
    EXPECT_GT(seen, 30);
}

TEST(Router, WaksmanPreferenceKnob)
{
    const Router router(4, /*prefer_waksman=*/true);
    Prng prng(5);
    for (int trial = 0; trial < 50; ++trial) {
        const auto d = Permutation::random(16, prng);
        if (inFClass(d) || isOmega(d))
            continue;
        const auto plan = router.plan(d);
        EXPECT_EQ(plan.strategy, RouteStrategy::Waksman);
        EXPECT_EQ(plan.passes, 1u);
        return;
    }
    FAIL() << "no generic permutation sampled";
}

TEST(Router, DeliversUnderEveryStrategy)
{
    for (bool prefer_waksman : {false, true}) {
        const Router router(5, prefer_waksman);
        Prng prng(7);
        const auto data = iotaData(32);
        // A workload mix covering every strategy.
        std::vector<Permutation> mix{
            randomFMember(5, prng),
            named::cyclicShift(5, 9).inverse(), // omega member
            Permutation::random(32, prng),
            Permutation::random(32, prng),
        };
        for (const auto &d : mix) {
            const auto out = router.route(d, data);
            for (Word i = 0; i < 32; ++i)
                ASSERT_EQ(out[d[i]], data[i])
                    << d.toString() << " waksman="
                    << prefer_waksman;
        }
    }
}

TEST(Router, PlansAreReusable)
{
    const Router router(4);
    Prng prng(9);
    const auto d = Permutation::random(16, prng);
    const auto plan = router.plan(d);
    for (int run = 0; run < 3; ++run) {
        std::vector<Word> data(16);
        for (Word i = 0; i < 16; ++i)
            data[i] = 100 * run + i;
        const auto out = router.execute(plan, data);
        for (Word i = 0; i < 16; ++i)
            EXPECT_EQ(out[d[i]], 100 * run + i);
    }
}

TEST(Router, StrategyNames)
{
    EXPECT_STREQ(routeStrategyName(RouteStrategy::SelfRouting),
                 "self-routing");
    EXPECT_STREQ(routeStrategyName(RouteStrategy::TwoPass),
                 "two-pass");
    EXPECT_STREQ(routeStrategyName(RouteStrategy::Waksman),
                 "waksman");
    EXPECT_STREQ(routeStrategyName(RouteStrategy::OmegaBit),
                 "omega-bit");
}

TEST(Router, SizeMismatchDies)
{
    const Router router(3);
    EXPECT_DEATH(router.plan(Permutation::identity(4)),
                 "does not match");
}

TEST(Router, CachedPlansAreCompacted)
{
    Prng prng(11);
    const unsigned n = 6;
    const Word N = Word{1} << n;
    const Router router(n);
    const Permutation f = randomFMember(n, prng);

    // The uncompacted plan carries the flat ctrl masks and dest.
    const RoutePlan fresh = router.plan(f);
    ASSERT_TRUE(fresh.fast);
    EXPECT_FALSE(fresh.fast->ctrl.empty());
    EXPECT_FALSE(fresh.fast->dest.empty());
    EXPECT_EQ(fresh.packed_ctrl.words, nullptr);

    // The cached one is slimmed to packed bits + the src gather
    // table execute() reads.
    const auto cached = router.planCached(f);
    ASSERT_TRUE(cached->fast);
    EXPECT_TRUE(cached->fast->ctrl.empty());
    EXPECT_TRUE(cached->fast->dest.empty());
    EXPECT_FALSE(cached->fast->src.empty());
    ASSERT_NE(cached->packed_ctrl.words, nullptr);

    // The packed bits are the plan's switch settings, bit for bit.
    const PackedStates want =
        router.setupEngine().packedStates(*fresh.fast);
    EXPECT_EQ(cached->packed_ctrl.n, want.n);
    EXPECT_EQ(cached->packed_ctrl.words_per_stage,
              want.words_per_stage);
    for (unsigned s = 0; s < 2 * n - 1; ++s)
        for (Word sw = 0; sw < N / 2; ++sw)
            ASSERT_EQ(cached->packed_ctrl.get(s, sw),
                      want.get(s, sw))
                << "stage " << s << " switch " << sw;

    // And the compacted plan still delivers.
    const auto data = iotaData(N);
    const auto out = router.execute(*cached, data);
    for (Word i = 0; i < N; ++i)
        EXPECT_EQ(out[f[i]], data[i]);

    EXPECT_GT(router.planCacheBytes(), 0u);

    // A resident TwoPass plan has no masks to pack, but it drops the
    // dest table all the same: only the src gather table stays flat,
    // next to the factors the resilient layer replays.
    for (int trial = 0;; ++trial) {
        ASSERT_LT(trial, 50) << "no two-pass permutation sampled";
        const Permutation d = Permutation::random(N, prng);
        const auto tp = router.planCached(d);
        if (tp->strategy != RouteStrategy::TwoPass)
            continue;
        ASSERT_TRUE(tp->fast);
        EXPECT_TRUE(tp->fast->ctrl.empty());
        EXPECT_TRUE(tp->fast->dest.empty());
        EXPECT_EQ(tp->fast->src, d.inverse().dest());
        ASSERT_TRUE(tp->two_pass);
        EXPECT_EQ(tp->two_pass->first.then(tp->two_pass->second), d);
        const auto tp_out = router.execute(*tp, data);
        for (Word i = 0; i < N; ++i)
            EXPECT_EQ(tp_out[d[i]], data[i]);
        break;
    }
}

TEST(Router, TwoPassPlansCacheWithoutPackedBits)
{
    Prng prng(13);
    const unsigned n = 4;
    const Word N = Word{1} << n;
    const Router router(n);
    for (int trial = 0; trial < 50; ++trial) {
        const auto d = Permutation::random(N, prng);
        const auto cached = router.planCached(d);
        if (cached->strategy != RouteStrategy::TwoPass)
            continue;
        // The composed mapping carries no ctrl masks, so there is
        // nothing to compact — and it must still execute.
        EXPECT_EQ(cached->packed_ctrl.words, nullptr);
        const auto data = iotaData(N);
        const auto out = router.execute(*cached, data);
        for (Word i = 0; i < N; ++i)
            EXPECT_EQ(out[d[i]], data[i]);
        return;
    }
    FAIL() << "no two-pass permutation sampled";
}

TEST(Router, CachedWaksmanPlansKeepTheirStates)
{
    // The resilient layer replays cached Waksman plans from
    // plan->states; compaction must leave them intact.
    Prng prng(15);
    const unsigned n = 4;
    const Word N = Word{1} << n;
    const Router router(n, /*prefer_waksman=*/true);
    for (int trial = 0; trial < 50; ++trial) {
        const auto d = Permutation::random(N, prng);
        const auto cached = router.planCached(d);
        if (cached->strategy != RouteStrategy::Waksman)
            continue;
        EXPECT_TRUE(cached->states.has_value());
        return;
    }
    FAIL() << "no waksman permutation sampled";
}

TEST(Router, ByteAccountingTracksInsertsAndClear)
{
    Prng prng(17);
    const unsigned n = 6;
    const Router router(n, false, /*capacity=*/32, /*shards=*/4);
    EXPECT_EQ(router.planCacheBytes(), 0u);

    std::size_t prev = 0;
    for (int i = 0; i < 8; ++i) {
        router.planCached(randomFMember(n, prng));
        EXPECT_GT(router.planCacheBytes(), prev);
        prev = router.planCacheBytes();
    }

    // cacheStats' per-shard bytes sum to the total, and the shard
    // arenas report the packed blocks resident.
    std::size_t sum = 0, arena_resident = 0;
    for (const CacheShardStats &s : router.cacheStats()) {
        sum += s.bytes;
        arena_resident += s.arena_resident_bytes;
    }
    EXPECT_EQ(sum, router.planCacheBytes());
    EXPECT_GT(arena_resident, 0u);

    router.clearPlanCache();
    EXPECT_EQ(router.planCacheBytes(), 0u);
}

TEST(Router, ByteBudgetEvictsLeastRecentlyUsed)
{
    Prng prng(19);
    const unsigned n = 8;
    // Find the per-plan footprint, then budget for about three.
    std::size_t per_plan;
    {
        const Router probe(n);
        probe.planCached(randomFMember(n, prng));
        per_plan = probe.planCacheBytes();
        ASSERT_GT(per_plan, 0u);
    }
    const std::size_t budget = 3 * per_plan + per_plan / 2;
    const Router router(n, false, /*capacity=*/64, /*shards=*/2,
                        obs::defaultRegistry(),
                        /*plan_cache_bytes=*/budget);
    EXPECT_EQ(router.planCacheByteBudget(), budget);

    std::vector<Permutation> perms;
    for (int i = 0; i < 12; ++i)
        perms.push_back(randomFMember(n, prng));
    // Hold the first plan's handle across its eviction.
    const auto held = router.planCached(perms[0]);
    for (const auto &d : perms)
        router.planCached(d);

    // The budget kept the cache to ~3 entries despite capacity 64.
    EXPECT_LE(router.planCacheBytes(), budget);
    EXPECT_LT(router.planCacheSize(), perms.size());
    EXPECT_GT(router.planCacheEvictions(), 0u);

    // The held (evicted) plan's packed block outlives eviction: the
    // deleter keeps the shard arena alive and the plan executes.
    ASSERT_NE(held->packed_ctrl.words, nullptr);
    const Word N = Word{1} << n;
    const auto data = iotaData(N);
    const auto out = router.execute(*held, data);
    for (Word i = 0; i < N; ++i)
        EXPECT_EQ(out[perms[0][i]], data[i]);
}

} // namespace
} // namespace srbenes
