/**
 * @file
 * Tests for the routing facade: strategy selection, plan reuse,
 * correct delivery under every strategy, the Waksman preference
 * knob, the tag passes a cold plan runs, and the plan cache's
 * lookups, budgets, frequency-gated admission and eviction of a
 * drawn resident.
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "core/fast_kernels.hh"
#include "core/router.hh"
#include "core/two_pass.hh"
#include "perm/f_class.hh"
#include "perm/named_bpc.hh"
#include "perm/omega_class.hh"
#include "sightings.hh"

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
            const auto outcome = router.routeOutcome(d, data);
            ASSERT_TRUE(outcome.ok());
            const auto &out = outcome.value();
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

/** A plan's 16-bit table, zero-extended, to compare with 64-bit
 *  references. */
std::vector<Word>
widened(const std::vector<std::uint16_t> &lanes)
{
    return std::vector<Word>(lanes.begin(), lanes.end());
}

/** Resident bytes of one plan at @p N lines: one 16-bit table. */
std::size_t
planBytes(Word N)
{
    return sizeof(RoutePlan) + 2 * N;
}

TEST(Router, SizeMismatchDies)
{
    const Router router(3);
    EXPECT_DEATH(router.plan(Permutation::identity(4)),
                 "does not match");
}

TEST(Router, RefusesFabricsWiderThanSixteenBitLanes)
{
    // A plan's tables hold 16-bit lane indices, so n = 17 is refused
    // by the engine the Router builds, before any plan exists.
    EXPECT_DEATH(Router(17), "16-bit lanes");
}

/**
 * A permutation @p router plans with strategy @p want: a random F
 * member, a TwoPass second factor (an Omega member, rarely in F), or
 * random permutations until one takes the general strategy.
 */
Permutation
planTakes(const Router &router, RouteStrategy want, Prng &prng)
{
    const unsigned n = router.fabric().topology().n();
    const Word N = router.fabric().numLines();
    if (want == RouteStrategy::SelfRouting)
        return randomFMember(n, prng);
    for (int trial = 0; trial < 50; ++trial) {
        Permutation d = Permutation::random(N, prng);
        if (want == RouteStrategy::OmegaBit)
            d = twoPassPlan(router.fabric(), d).second;
        if (router.plan(d).strategy == want)
            return d;
    }
    ADD_FAILURE() << "no " << routeStrategyName(want)
                  << " permutation sampled";
    return Permutation::identity(N);
}

TEST(Router, FreshAndCachedPlansHaveOneShape)
{
    Prng prng(11);
    for (unsigned n = 3; n <= 8; ++n) {
        const Word N = Word{1} << n;
        const auto data = iotaData(N);
        for (RouteStrategy strategy :
             {RouteStrategy::SelfRouting, RouteStrategy::OmegaBit,
              RouteStrategy::TwoPass, RouteStrategy::Waksman}) {
            const Router router(n, strategy == RouteStrategy::Waksman);
            const Permutation d = planTakes(router, strategy, prng);
            const RoutePlan fresh = router.plan(d);
            const auto cached = sightTwice(router, d);
            for (const RoutePlan *p : {&fresh, cached.get()}) {
                SCOPED_TRACE(std::string(routeStrategyName(strategy)) +
                             " n=" + std::to_string(n));
                // A plan is its strategy and its gather table, nothing
                // else: this binding compiles only for two fields.
                const auto &[plan_strategy, plan_src] = *p;
                EXPECT_EQ(plan_strategy, strategy);
                // The tag passes answer only yes or no, so the Router
                // alone builds the gather table: d's inverse for every
                // strategy, once at plan time; the cache keeps the
                // plan as planned.
                EXPECT_EQ(widened(plan_src), d.inverse().dest());
                EXPECT_EQ(router.execute(*p, data), d.applyTo(data));
            }
            // The factors and states are verified, then dropped, so a
            // resident plan is src alone, 2 bytes a line, whatever its
            // strategy.
            EXPECT_EQ(router.planCacheSize(), 1u);
            EXPECT_EQ(router.planCacheBytes(),
                      router.planCacheSize() * planBytes(N));
        }
    }
}

/** The Router's one resident-bytes gauge in @p reg. */
std::int64_t
residentBytesGauge(const obs::MetricsRegistry &reg)
{
    std::int64_t value = 0;
    int series = 0;
    reg.visit([&](const obs::MetricsRegistry::View &v) {
        if (v.name == "srbenes_router_plan_cache_resident_bytes") {
            value = v.gauge->value();
            ++series;
        }
    });
    EXPECT_EQ(series, 1);
    return value;
}

TEST(Router, ByteAccountingTracksInsertsEvictionsAndClear)
{
    // The tier's one gauge moves by one plan on every insert and
    // eviction, so it always reads what cacheStats() counts.
    Prng prng(17);
    const unsigned n = 6;
    obs::MetricsRegistry reg;
    const Router router(n, false, /*capacity=*/8, /*shards=*/4, &reg);
    EXPECT_EQ(router.planCacheBytes(), 0u);

    std::size_t prev = 0;
    for (int i = 0; i < 8; ++i) {
        sightTwice(router, randomFMember(n, prng));
        EXPECT_GT(router.planCacheBytes(), prev);
        prev = router.planCacheBytes();
        EXPECT_EQ(residentBytesGauge(reg),
                  static_cast<std::int64_t>(prev));
    }
    for (int i = 0; i < 8; ++i)
        ASSERT_GT(sightUntilResident(router, randomFMember(n, prng)),
                  0u);
    EXPECT_EQ(router.planCacheEvictions(), 8u);
    EXPECT_EQ(router.planCacheBytes(), prev);
    EXPECT_EQ(router.cacheStats().bytes, prev);
    EXPECT_EQ(residentBytesGauge(reg), static_cast<std::int64_t>(prev));

    router.clearPlanCache();
    EXPECT_EQ(router.planCacheBytes(), 0u);
    EXPECT_EQ(residentBytesGauge(reg), 0);
}

TEST(Router, ByteBudgetIsTheCapacityItImplies)
{
    // Every plan at one n has one size whatever its strategy, so a
    // byte budget is the capacity it implies: 3.5 plans' worth holds
    // exactly 3 plans, F members and general permutations alike, and
    // evicts exactly the keys capacity 3 evicts.
    Prng prng(19);
    const unsigned n = 8;
    const Word N = Word{1} << n;
    const std::size_t per_plan = planBytes(N);
    const std::size_t budget = 3 * per_plan + per_plan / 2;
    const auto data = iotaData(N);
    for (bool prefer_waksman : {false, true}) {
        SCOPED_TRACE(prefer_waksman ? "waksman" : "two-pass");
        const Router router(n, prefer_waksman, /*capacity=*/64,
                            /*shards=*/2, obs::defaultRegistry(),
                            /*plan_cache_bytes=*/budget);
        const Router capped(n, prefer_waksman, /*capacity=*/3,
                            /*shards=*/2);
        EXPECT_EQ(router.planCacheByteBudget(), budget);
        EXPECT_EQ(router.planCacheCapacity(), 3u);

        // F members alternate with general permutations.
        const RouteStrategy general = prefer_waksman
                                          ? RouteStrategy::Waksman
                                          : RouteStrategy::TwoPass;
        std::vector<Permutation> perms;
        for (int i = 0; i < 5; ++i) {
            perms.push_back(randomFMember(n, prng));
            perms.push_back(planTakes(router, general, prng));
        }
        // Hold the first plan's handle across its eviction.
        const auto held = sightTwice(router, perms[0]);
        (void)sightTwice(capped, perms[0]);
        for (std::size_t i = 1; i < perms.size(); ++i) {
            for (const Router *r : {&router, &capped})
                ASSERT_GT(sightUntilResident(*r, perms[i]), 0u);
            EXPECT_EQ(router.planCacheSize(),
                      capped.planCacheSize()) << "insert " << i;
        }

        EXPECT_EQ(router.planCacheSize(), 3u);
        EXPECT_EQ(router.planCacheBytes(), 3 * per_plan);
        EXPECT_LE(router.planCacheBytes(), budget);
        EXPECT_EQ(router.planCacheEvictions(), perms.size() - 3);
        for (std::size_t i = 0; i < perms.size(); ++i) {
            const Permutation &d = perms[i];
            const std::uint64_t key = Router::hashPermutation(d);
            EXPECT_EQ(router.findCached(d, key) != nullptr,
                      capped.findCached(d, key) != nullptr)
                << "pattern " << i;
        }

        // The held plan still executes, evicted or not.
        EXPECT_EQ(router.execute(*held, data), perms[0].applyTo(data));
    }

    // A budget below one plan disables the cache, as capacity 0 does.
    const Router tiny(n, false, /*capacity=*/64, /*shards=*/2,
                      obs::defaultRegistry(),
                      /*plan_cache_bytes=*/per_plan - 1);
    EXPECT_EQ(tiny.planCacheCapacity(), 0u);
    const Permutation f = randomFMember(n, prng);
    EXPECT_EQ(tiny.execute(*tiny.planCached(f), data), f.applyTo(data));
    EXPECT_EQ(tiny.planCacheSize(), 0u);
}

/** Tag passes run so far by every engine in @p reg. */
std::uint64_t
tagPasses(const obs::MetricsRegistry &reg)
{
    std::uint64_t total = 0;
    reg.visit([&](const obs::MetricsRegistry::View &v) {
        if (v.name == "srbenes_engine_routes_planned_total")
            total += v.counter->value();
    });
    return total;
}

TEST(Router, ColdPlansRunOnlyTheTagPassesTheyNeed)
{
    // A cold TwoPass plan verifies its two factors and nothing else:
    // Theorem 1's level-0 condition has already ruled out the F
    // attempt. A cold F member runs its one pass.
    Prng prng(31);
    for (unsigned n = 4; n <= 10; ++n) {
        obs::MetricsRegistry reg;
        const Router router(n, false, /*capacity=*/16, /*shards=*/4,
                            &reg);
        const Word N = Word{1} << n;
        Permutation d = Permutation::random(N, prng);
        while (levelZero(d) || isOmega(d))
            d = Permutation::random(N, prng);

        std::uint64_t before = tagPasses(reg);
        EXPECT_EQ(router.planCached(d)->strategy, RouteStrategy::TwoPass);
        EXPECT_EQ(tagPasses(reg) - before, 2u) << "n=" << n;

        before = tagPasses(reg);
        const Permutation f = randomFMember(n, prng);
        EXPECT_EQ(router.planCached(f)->strategy,
                  RouteStrategy::SelfRouting);
        EXPECT_EQ(tagPasses(reg) - before, 1u) << "n=" << n;

        // The second sightings make both resident.
        (void)router.planCached(d);
        (void)router.planCached(f);
        // Hits run no pass at all.
        before = tagPasses(reg);
        (void)router.planCached(d);
        (void)router.planCached(f);
        EXPECT_EQ(tagPasses(reg), before) << "n=" << n;
    }
}

/** Whether @p d's plan is resident in @p router (a hit sights it). */
bool
resident(const Router &router, const Permutation &d)
{
    return router.findCached(d, Router::hashPermutation(d)) != nullptr;
}

/** @p count distinct random permutations of 2^n lines. */
std::vector<Permutation>
distinctPerms(unsigned n, std::size_t count, Prng &prng)
{
    std::vector<Permutation> perms;
    while (perms.size() < count) {
        Permutation d = Permutation::random(Word{1} << n, prng);
        if (std::find(perms.begin(), perms.end(), d) == perms.end())
            perms.push_back(std::move(d));
    }
    return perms;
}

TEST(Router, FullTierEvictsOnlyALessFrequentResident)
{
    // An admission into a full 32-slot tier over 8 shards compares
    // the newcomer with one resident drawn at random, and evicts
    // exactly that one, only when the sketch estimates the newcomer
    // strictly more frequent. Residents sighted 8 times keep out
    // newcomers sighted twice; a newcomer sighted more often than
    // every resident gets in, over exactly one of them.
    //
    // The sketch is count-min: it overestimates a newcomer whose
    // four counters other keys all share, and which keys share them
    // follows the process's hash key. Here each of a newcomer's
    // counters is shared with a resident's with odds of about 0.12,
    // so about one newcomer in 5000 is estimated above the residents
    // and gets in (2.2e-4 measured over 200000 pattern sets); the
    // test allows one of its sixteen, and fails when two do (odds
    // near 6e-6 a run).
    Prng prng(37);
    const unsigned n = 4;
    const std::size_t capacity = 32;
    const Router router(n, false, capacity, /*shards=*/8);
    ASSERT_EQ(router.planCacheShards(), 8u);
    std::vector<Permutation> perms = distinctPerms(n, capacity + 17, prng);
    const std::vector<Permutation> residents(perms.begin(),
                                             perms.begin() + capacity);
    for (const Permutation &d : residents)
        for (int k = 0; k < 8; ++k)
            (void)router.planCached(d);
    ASSERT_EQ(router.planCacheSize(), capacity);

    std::size_t slipped = 0;
    for (std::size_t i = capacity; i + 1 < perms.size(); ++i) {
        (void)sightTwice(router, perms[i]);
        slipped += resident(router, perms[i]) ? 1 : 0;
    }
    EXPECT_LE(slipped, 1u);
    CacheStats t = router.cacheStats();
    EXPECT_EQ(t.lost_to_victim, 16u - slipped);
    EXPECT_EQ(t.evictions, slipped);
    EXPECT_EQ(t.size, capacity);

    const Permutation &frequent = perms.back();
    for (int k = 0; k < 12; ++k)
        (void)router.planCached(frequent);
    EXPECT_TRUE(resident(router, frequent));
    t = router.cacheStats();
    EXPECT_EQ(t.size, capacity);
    EXPECT_EQ(t.evictions, slipped + 1);
    EXPECT_EQ(t.admitted, capacity + slipped + 1);
    // It displaced exactly one of the patterns before it.
    std::size_t kept = 0;
    for (std::size_t i = 0; i + 1 < perms.size(); ++i)
        kept += resident(router, perms[i]) ? 1 : 0;
    EXPECT_EQ(kept, capacity - 1);
}

TEST(Router, EachRepeatMeetsAFreshlyDrawnResident)
{
    // Half of a full 32-slot tier is sighted 16 times, which holds
    // every one of its counters at the sketch's 15, and half twice. A
    // newcomer sighted 40 times beats only the infrequent half (its
    // estimate can at most tie a saturated one), so each of its
    // repeats after the second wins or loses by the resident it
    // meets. Each decision draws anew, so every newcomer finds an
    // infrequent resident within its 38 repeats, bar odds of about
    // 1e-5 whatever the hash key places where; a draw fixed by the
    // newcomer's key would keep about half of them out for good. No
    // frequent resident is ever evicted.
    Prng prng(47);
    const unsigned n = 4;
    const std::size_t capacity = 32;
    const std::size_t newcomers = 8;
    const Router router(n, false, capacity, /*shards=*/8);
    const std::vector<Permutation> perms =
        distinctPerms(n, capacity + newcomers, prng);
    for (std::size_t i = 0; i < capacity; ++i)
        for (int k = 0; k < (i % 2 == 0 ? 16 : 2); ++k)
            (void)router.planCached(perms[i]);
    ASSERT_EQ(router.planCacheSize(), capacity);

    for (std::size_t i = capacity; i < perms.size(); ++i)
        for (int k = 0; k < 40; ++k)
            (void)router.planCached(perms[i]);
    std::size_t admitted = 0;
    for (std::size_t i = capacity; i < perms.size(); ++i)
        admitted += resident(router, perms[i]) ? 1 : 0;
    EXPECT_GE(admitted, newcomers - 1);
    EXPECT_EQ(router.planCacheSize(), capacity);
    for (std::size_t i = 0; i < capacity; i += 2)
        EXPECT_TRUE(resident(router, perms[i])) << "frequent " << i;
}

TEST(Router, RoutersFedTheSameOperationsHoldTheSameKeys)
{
    // The victim draw is a per-Router sequence, so two routers of one
    // shape fed the same operations compare and evict the same
    // residents: a churn of five times the capacity, each pattern
    // sighted one to five times, leaves both holding the same keys.
    Prng prng(43);
    const unsigned n = 4;
    const std::size_t capacity = 32;
    const Router a(n, false, capacity, /*shards=*/8);
    const Router b(n, false, capacity, /*shards=*/8);
    const std::vector<Permutation> perms =
        distinctPerms(n, 5 * capacity, prng);
    for (const Permutation &d : perms) {
        const std::size_t sightings = 1 + prng.below(5);
        for (std::size_t k = 0; k < sightings; ++k)
            for (const Router *r : {&a, &b})
                (void)r->planCached(d);
    }
    EXPECT_GT(a.planCacheEvictions(), 0u);
    EXPECT_EQ(a.planCacheEvictions(), b.planCacheEvictions());
    EXPECT_EQ(a.planCacheSize(), capacity);
    EXPECT_EQ(b.planCacheSize(), capacity);
    for (std::size_t i = 0; i < perms.size(); ++i)
        EXPECT_EQ(resident(a, perms[i]), resident(b, perms[i]))
            << "pattern " << i;
}

TEST(Router, FindCachedRacesInsertsPastCapacity)
{
    // Readers look up a fixed set while one writer inserts far past
    // capacity, so hits read the shards while inserts and evictions
    // swap-remove their keys. Every hit is the pattern asked for, and
    // the cache ends within capacity with its byte gauge intact.
    Prng prng(41);
    const unsigned n = 4;
    const Word N = Word{1} << n;
    const std::size_t capacity = 16;
    obs::MetricsRegistry reg;
    const Router router(n, false, capacity, /*shards=*/4, &reg);
    std::vector<Permutation> hot;
    for (int i = 0; i < 8; ++i)
        hot.push_back(Permutation::random(N, prng));
    std::vector<Permutation> cold;
    for (int i = 0; i < 256; ++i)
        cold.push_back(Permutation::random(N, prng));
    for (const Permutation &d : hot)
        (void)sightTwice(router, d);

    std::atomic<bool> stop{false};
    std::atomic<int> wrong{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t)
        readers.emplace_back([&] {
            while (!stop.load()) {
                for (const Permutation &d : hot) {
                    const auto p =
                        router.findCached(d, Router::hashPermutation(d));
                    if (p && widened(p->src) != d.inverse().dest())
                        wrong.fetch_add(1);
                }
            }
        });
    for (const Permutation &d : cold)
        (void)sightUntilResident(router, d);
    stop.store(true);
    for (std::thread &r : readers)
        r.join();

    EXPECT_EQ(wrong.load(), 0);
    EXPECT_LE(router.planCacheSize(), capacity);
    EXPECT_GT(router.planCacheEvictions(), 0u);
    EXPECT_EQ(residentBytesGauge(reg),
              static_cast<std::int64_t>(router.planCacheBytes()));
}

TEST(Router, FindCachedNeverPlans)
{
    Prng prng(23);
    const unsigned n = 6;
    const Router router(n, false, /*capacity=*/16, /*shards=*/4);
    const Permutation d = Permutation::random(Word{1} << n, prng);
    const std::uint64_t key = Router::hashPermutation(d);
    EXPECT_EQ(key, hashPermutation128(d).lo);

    // A miss neither plans, inserts, nor counts.
    EXPECT_EQ(router.findCached(d, key), nullptr);
    EXPECT_EQ(router.planCacheSize(), 0u);
    EXPECT_EQ(router.planCacheMisses(), 0u);
    EXPECT_EQ(router.planCacheHits(), 0u);

    // Two sightings, two misses: the second one's plan is resident.
    const auto planned = sightTwice(router, d);
    EXPECT_EQ(router.planCacheMisses(), 2u);
    // A hit returns the resident object itself and counts like
    // planCached's hit.
    const auto found = router.findCached(d, key);
    EXPECT_EQ(found.get(), planned.get());
    EXPECT_EQ(router.planCacheHits(), 1u);
    EXPECT_EQ(router.planCached(d, key).get(), planned.get());
    EXPECT_EQ(router.planCacheHits(), 2u);
    EXPECT_EQ(router.planCacheMisses(), 2u);
    EXPECT_EQ(router.planCacheSize(), 1u);

    // With the cache disabled there is nothing to find.
    const Router uncached(n, false, /*capacity=*/0);
    (void)uncached.planCached(d);
    EXPECT_EQ(uncached.findCached(d, key), nullptr);
}

TEST(Router, KeyCollisionIsNeverIdentity)
{
    Prng prng(29);
    const unsigned n = 6;
    const Word N = Word{1} << n;
    const Router router(n, false, /*capacity=*/16, /*shards=*/4);
    const Permutation d1 = Permutation::random(N, prng);
    const Permutation d2 = Permutation::random(N, prng);
    const std::uint64_t key1 = Router::hashPermutation(d1);
    (void)sightTwice(router, d1);

    // d2 under d1's key finds d1's entry and refuses it.
    EXPECT_EQ(router.findCached(d2, key1), nullptr);
    EXPECT_EQ(router.planCacheHits(), 0u);

    // A forced collision plans d2 and replaces the entry; the plan
    // it returns routes d2, and d1 no longer matches it.
    const auto p2 = router.planCached(d2, key1);
    EXPECT_EQ(widened(p2->src), d2.inverse().dest());
    const auto data = iotaData(N);
    EXPECT_EQ(router.execute(*p2, data), d2.applyTo(data));
    EXPECT_EQ(router.findCached(d1, key1), nullptr);
    EXPECT_EQ(router.findCached(d2, key1).get(), p2.get());
}

TEST(Router, KeyCollisionIsNeverAHit)
{
    // At n = 12 a tag has 12 bits, and d2 differs from the resident
    // d1 only in two entries whose values differ above bit 7 alone:
    // a check that read a narrower slice of each tag would take d1's
    // plan for d2. Under d1's key the lookup refuses d1's plan, and
    // planCached plans d2 afresh.
    Prng prng(31);
    const unsigned n = 12;
    const Word N = Word{1} << n;
    const Router router(n, false, /*capacity=*/16, /*shards=*/4);
    const Permutation d1 = Permutation::random(N, prng);
    const std::uint64_t key1 = Router::hashPermutation(d1);
    (void)router.planCached(d1, key1);
    const auto p1 = router.planCached(d1, key1);
    ASSERT_EQ(router.findCached(d1, key1).get(), p1.get());

    std::vector<Word> dest = d1.dest();
    const auto a = std::find(dest.begin(), dest.end(), Word{0x105});
    const auto b = std::find(dest.begin(), dest.end(), Word{0x005});
    ASSERT_TRUE(a != dest.end() && b != dest.end());
    std::iter_swap(a, b);
    const Permutation d2(dest);
    ASSERT_NE(d2, d1);

    const std::size_t hits = router.planCacheHits();
    EXPECT_EQ(router.findCached(d2, key1), nullptr);
    EXPECT_EQ(router.planCacheHits(), hits);

    const auto p2 = router.planCached(d2, key1);
    EXPECT_NE(p2.get(), p1.get());
    EXPECT_EQ(widened(p2->src), d2.inverse().dest());
    const auto data = iotaData(N);
    EXPECT_EQ(router.execute(*p2, data), d2.applyTo(data));
}

TEST(Router, HashIsTheKernelUnderTheServingKey)
{
    // One key per pattern everywhere: hashPermutation128, hashTags128
    // and Router::hashPermutation are the active kernel over the
    // destination vector, under the one key this process draws.
    Prng prng(37);
    EXPECT_EQ(&servingHashKey(), &servingHashKey());
    for (unsigned n : {1u, 4u, 5u, 8u, 12u}) {
        const Permutation d = Permutation::random(Word{1} << n, prng);
        const Hash128 want = activeKernels().hashTags(
            d.dest().data(), d.size(), servingHashKey());
        EXPECT_EQ(hashPermutation128(d), want) << "n=" << n;
        EXPECT_EQ(hashTags128(d.dest().data(), d.size()), want);
        EXPECT_EQ(Router::hashPermutation(d), want.lo);
    }
}

TEST(Router, RawFindCachedComparesEveryWordWhole)
{
    // The raw-tag lookup under a resident plan's key. The plan's own
    // words hit. The same words with one raised by 2^16 (its low 16
    // bits still the plan's tag) or by 2^32 (which the hash does not
    // read, so the key is the plan's own) are refused, as are one word
    // too few and one word too many; no refusal counts a hit or a
    // miss.
    Prng prng(41);
    const unsigned n = 6;
    const Word N = Word{1} << n;
    const Router router(n, false, /*capacity=*/16, /*shards=*/4);
    const Permutation d = Permutation::random(N, prng);
    const std::uint64_t key = Router::hashPermutation(d);
    const auto plan = sightTwice(router, d);
    std::vector<Word> words = d.dest();
    EXPECT_EQ(router.findCached(words.data(), N, key).get(), plan.get());

    const CacheStats before = router.cacheStats();
    for (std::size_t pos : {std::size_t{0}, std::size_t{N / 2},
                            std::size_t{N - 1}}) {
        for (Word raise : {Word{1} << 16, Word{1} << 32}) {
            words[pos] += raise;
            if (raise == Word{1} << 32) {
                EXPECT_EQ(hashTags128(words.data(), N).lo, key);
            }
            EXPECT_EQ(router.findCached(words.data(), N, key), nullptr)
                << "pos=" << pos << " raise=" << raise;
            words[pos] -= raise;
        }
    }
    EXPECT_EQ(router.findCached(words.data(), N - 1, key), nullptr);
    std::vector<Word> longer = words;
    longer.push_back(N);
    EXPECT_EQ(router.findCached(longer.data(), N + 1, key), nullptr);
    const CacheStats after = router.cacheStats();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(router.findCached(words.data(), N, key).get(), plan.get());
}

TEST(Router, ATranspositionOfAResidentPlanIsServedByItsOwnPlan)
{
    // A valid pattern one transposition away from a resident plan
    // has its own key: it misses, is planned afresh, and routes as
    // itself, while the resident plan stays its own pattern's.
    Prng prng(43);
    const unsigned n = 6;
    const Word N = Word{1} << n;
    const Router router(n, false, /*capacity=*/16, /*shards=*/4);
    const Permutation d = Permutation::random(N, prng);
    const auto resident = sightTwice(router, d);
    std::vector<Word> dest = d.dest();
    std::swap(dest[3], dest[40]);
    const Permutation e(dest);
    const std::uint64_t key = Router::hashPermutation(e);
    EXPECT_NE(key, Router::hashPermutation(d));
    EXPECT_EQ(router.findCached(e.dest().data(), N, key), nullptr);

    const auto plan = router.planCached(e, key);
    EXPECT_NE(plan.get(), resident.get());
    EXPECT_EQ(widened(plan->src), e.inverse().dest());
    EXPECT_EQ(router.execute(*plan, iotaData(N)), e.applyTo(iotaData(N)));
    EXPECT_EQ(router.findCached(d, Router::hashPermutation(d)).get(),
              resident.get());
}

// ------------------------------------------ frequency-gated admission

TEST(RouterAdmission, FirstSightingIsServedButNotResident)
{
    Prng prng(61);
    const unsigned n = 6;
    const Word N = Word{1} << n;
    const Router router(n, false, /*capacity=*/16, /*shards=*/4);
    const Permutation d = Permutation::random(N, prng);
    const std::uint64_t key = Router::hashPermutation(d);
    const auto data = iotaData(N);

    // The first sighting is planned and served, then dropped.
    const auto first = router.planCached(d, key);
    EXPECT_EQ(widened(first->src), d.inverse().dest());
    EXPECT_EQ(router.execute(*first, data), d.applyTo(data));
    EXPECT_EQ(router.findCached(d, key), nullptr);
    EXPECT_EQ(router.planCacheSize(), 0u);
    CacheStats t = router.cacheStats();
    EXPECT_EQ(t.misses, 1u);
    EXPECT_EQ(t.first_sightings, 1u);
    EXPECT_EQ(t.admitted, 0u);

    // The second sighting plans again, and its plan is resident.
    const auto second = router.planCached(d, key);
    EXPECT_NE(second.get(), first.get());
    EXPECT_EQ(router.findCached(d, key).get(), second.get());
    EXPECT_EQ(router.execute(*second, data), d.applyTo(data));
    t = router.cacheStats();
    EXPECT_EQ(t.misses, 2u);
    EXPECT_EQ(t.admitted, 1u);
    EXPECT_EQ(t.hits, 1u);
    EXPECT_EQ(router.planCacheSize(), 1u);
}

TEST(RouterAdmission, ClearForgetsSightings)
{
    // clearPlanCache drops the sightings with the plans: a pattern
    // seen before the clear is a first sighting after it.
    Prng prng(62);
    const unsigned n = 5;
    const Router router(n, false, /*capacity=*/16, /*shards=*/4);
    const Permutation seen = Permutation::random(Word{1} << n, prng);
    const Permutation resident = Permutation::random(Word{1} << n, prng);
    (void)router.planCached(seen);
    (void)sightTwice(router, resident);
    ASSERT_EQ(router.planCacheSize(), 1u);

    router.clearPlanCache();
    for (const Permutation *d : {&seen, &resident}) {
        (void)router.planCached(*d);
        EXPECT_EQ(router.findCached(*d, Router::hashPermutation(*d)),
                  nullptr);
    }
    const CacheStats t = router.cacheStats();
    EXPECT_EQ(t.first_sightings, 2u);
    EXPECT_EQ(t.admitted, 0u);
    EXPECT_EQ(router.planCacheSize(), 0u);
}

TEST(RouterAdmission, ScanLeavesAWarmedHotSetResident)
{
    // A warmed hot set survives a scan of ten times the capacity in
    // one-shot patterns, each planned, served and dropped as a first
    // sighting. Plain LRU would evict every hot entry.
    Prng prng(67);
    const unsigned n = 4;
    const Word N = Word{1} << n;
    const std::size_t capacity = 512;
    const Router router(n, false, capacity, /*shards=*/8);
    std::vector<Permutation> hot;
    for (int i = 0; i < 64; ++i)
        hot.push_back(Permutation::random(N, prng));
    for (int round = 0; round < 4; ++round)
        for (const Permutation &d : hot)
            (void)router.planCached(d);
    ASSERT_EQ(router.planCacheSize(), hot.size());

    for (std::size_t i = 0; i < 10 * capacity; ++i) {
        const Permutation d = Permutation::random(N, prng);
        const auto plan = router.planCached(d);
        ASSERT_EQ(widened(plan->src), d.inverse().dest());
    }
    for (std::size_t i = 0; i < hot.size(); ++i)
        EXPECT_NE(router.findCached(hot[i],
                                    Router::hashPermutation(hot[i])),
                  nullptr)
            << "hot pattern " << i;
    EXPECT_EQ(router.planCacheEvictions(), 0u);
}

TEST(RouterAdmission, OneShotPatternsStayOutOfAFreshCache)
{
    // Only a doorkeeper false positive can admit a one-shot pattern
    // (into a cache with room), so after 100x capacity distinct
    // patterns the cache holds at most a handful of plans.
    Prng prng(68);
    const unsigned n = 4;
    const Word N = Word{1} << n;
    const std::size_t capacity = 512;
    const Router router(n, false, capacity, /*shards=*/8);
    const std::size_t scan = 100 * capacity;
    for (std::size_t i = 0; i < scan; ++i)
        (void)router.planCached(Permutation::random(N, prng));

    EXPECT_LE(router.planCacheSize(), 8u);
    const CacheStats t = router.cacheStats();
    EXPECT_EQ(t.misses, scan);
    EXPECT_EQ(t.admitted + t.first_sightings + t.lost_to_victim,
              t.misses);
    EXPECT_GE(t.first_sightings, scan - 8);
    EXPECT_EQ(t.evictions, 0u);
}

TEST(RouterAdmission, ZipfDrawBeatsLruHitRatio)
{
    // A seeded Zipf(1) draw over 4096 patterns into 512 slots, the
    // shape of srbench's zipf10 at a small n: plain LRU reads about
    // 0.676 here, and keeping what the sketch counts as frequent
    // reaches at least 0.72.
    const unsigned n = 4;
    const Word N = Word{1} << n;
    const std::size_t patterns = 4096;
    const Router router(n, false, /*capacity=*/512, /*shards=*/8);
    Prng prng(73);
    std::vector<Permutation> perms;
    std::vector<std::uint64_t> keys;
    std::vector<double> cdf;
    double total = 0;
    for (std::size_t r = 0; r < patterns; ++r) {
        perms.push_back(Permutation::random(N, prng));
        keys.push_back(Router::hashPermutation(perms.back()));
        total += 1.0 / static_cast<double>(r + 1);
        cdf.push_back(total);
    }
    Prng draw(74);
    const auto sight = [&] {
        const double u = static_cast<double>(draw() >> 11) * 0x1p-53;
        const std::size_t r = static_cast<std::size_t>(
            std::upper_bound(cdf.begin(), cdf.end() - 1, u * total) -
            cdf.begin());
        (void)router.planCached(perms[r], keys[r]);
    };
    for (int i = 0; i < 20000; ++i)
        sight();
    const CacheStats before = router.cacheStats();
    const int draws = 120000;
    for (int i = 0; i < draws; ++i)
        sight();
    const CacheStats after = router.cacheStats();

    const double hits = static_cast<double>(after.hits - before.hits);
    const double misses =
        static_cast<double>(after.misses - before.misses);
    EXPECT_EQ(hits + misses, draws);
    EXPECT_GE(hits / draws, 0.72);
    EXPECT_EQ(after.admitted + after.first_sightings +
                  after.lost_to_victim,
              after.misses);
    EXPECT_EQ(router.planCacheSize(), 512u);
}

TEST(RouterAdmission, FindersRacePlannersUnderAdmission)
{
    // Finders hit a warmed hot set while planners sight a mix of
    // repeated and one-shot patterns, so sightings, halvings,
    // admissions and evictions race the hits. Every plan returned is
    // the pattern asked for, the cache stays within capacity, and
    // every miss has exactly one fate.
    Prng prng(79);
    const unsigned n = 4;
    const Word N = Word{1} << n;
    const std::size_t capacity = 32;
    const Router router(n, false, capacity, /*shards=*/4);
    std::vector<Permutation> hot, pool;
    for (int i = 0; i < 16; ++i)
        hot.push_back(Permutation::random(N, prng));
    for (int i = 0; i < 128; ++i)
        pool.push_back(Permutation::random(N, prng));
    for (const Permutation &d : hot)
        (void)sightTwice(router, d);

    std::atomic<bool> stop{false};
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t)
        threads.emplace_back([&] {
            while (!stop.load()) {
                for (const Permutation &d : hot) {
                    const auto p =
                        router.findCached(d, Router::hashPermutation(d));
                    if (p && widened(p->src) != d.inverse().dest())
                        wrong.fetch_add(1);
                }
            }
        });
    std::vector<std::thread> planners;
    for (int t = 0; t < 2; ++t)
        planners.emplace_back([&, t] {
            Prng mine(90 + t);
            for (int i = 0; i < 3000; ++i) {
                const Permutation d =
                    i % 3 == 0 ? Permutation::random(N, mine)
                               : pool[mine.below(pool.size())];
                if (widened(router.planCached(d)->src) !=
                    d.inverse().dest())
                    wrong.fetch_add(1);
            }
        });
    for (std::thread &p : planners)
        p.join();
    stop.store(true);
    for (std::thread &f : threads)
        f.join();

    EXPECT_EQ(wrong.load(), 0);
    EXPECT_LE(router.planCacheSize(), capacity);
    const CacheStats t = router.cacheStats();
    EXPECT_EQ(t.admitted + t.first_sightings + t.lost_to_victim,
              t.misses);
    EXPECT_GT(t.admitted, hot.size());
    EXPECT_EQ(t.bytes, router.planCacheBytes());
}

} // namespace
} // namespace srbenes
