/**
 * @file
 * Differential proof for the bit-sliced SetupEngine: its
 * word-parallel PackedStates production must be bit-for-bit equal to
 * FastEngine::planPackedStates (the per-switch scalar reference) —
 * exhaustively at n <= 3, randomized at n = 4..12 including non-F
 * permutations rejected identically, across every supported SIMD
 * level and under the SRBENES_DISABLE_SIMD escape hatch. The same
 * sweeps hold the success-only planIfRoutes to plan(). Also covers
 * the batch API (threaded and serial shard paths agree with per-item
 * planning) and construction at larger n.
 */

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "rand_iters.hh"

#include "common/prng.hh"
#include "core/fast_engine.hh"
#include "core/fast_kernels.hh"
#include "core/router.hh"
#include "core/self_routing.hh"
#include "core/setup_engine.hh"
#include "core/two_pass.hh"
#include "perm/f_class.hh"
#include "perm/permutation.hh"

namespace
{

using namespace srbenes;

std::vector<SimdLevel>
supportedLevels()
{
    std::vector<SimdLevel> levels{SimdLevel::Scalar};
    if (simdLevelSupported(SimdLevel::Avx2))
        levels.push_back(SimdLevel::Avx2);
    if (simdLevelSupported(SimdLevel::Avx512))
        levels.push_back(SimdLevel::Avx512);
    return levels;
}

/** Restores the startup dispatch choice when a test ends. */
class KernelLevelGuard
{
  public:
    ~KernelLevelGuard() { setSimdLevel(detectSimdLevel()); }
};

void
expectSamePlan(const FastPlan &a, const FastPlan &b, unsigned n,
               const char *what)
{
    EXPECT_EQ(a.n, b.n) << what;
    EXPECT_EQ(a.success, b.success) << what << " n=" << n;
    EXPECT_EQ(a.ctrl, b.ctrl) << what << " n=" << n;
    EXPECT_EQ(a.dest, b.dest) << what << " n=" << n;
    EXPECT_EQ(a.src, b.src) << what << " n=" << n;
    EXPECT_EQ(a.misrouted_outputs, b.misrouted_outputs)
        << what << " n=" << n;
}

void
expectPackedParity(const FastEngine &eng, const SetupEngine &setup,
                   const Permutation &d, RoutingMode mode,
                   const char *what)
{
    const FastPlan plan = setup.plan(d, mode);
    expectSamePlan(plan, eng.routePlan(d, mode), eng.n(), what);

    const PackedStates scalar_ref = eng.planPackedStates(plan);
    const PackedStates sliced = setup.packedStates(plan);
    EXPECT_EQ(sliced.n, scalar_ref.n) << what;
    EXPECT_EQ(sliced.words_per_stage, scalar_ref.words_per_stage)
        << what;
    EXPECT_EQ(sliced.words, scalar_ref.words)
        << what << " n=" << eng.n();

    const SetupResult fused = setup.setupPacked(d, mode);
    EXPECT_EQ(fused.plan.success, plan.success) << what;
    EXPECT_EQ(fused.packed.words, scalar_ref.words) << what;

    // The success-only pass: a plan exactly when plan() succeeds,
    // and then that very plan.
    const std::optional<FastPlan> routed = setup.planIfRoutes(d, mode);
    EXPECT_EQ(routed.has_value(), plan.success)
        << what << " n=" << eng.n();
    if (routed)
        expectSamePlan(*routed, plan, eng.n(), what);
}

TEST(SetupEngine, ExhaustivePackedParityAtSmallN)
{
    KernelLevelGuard guard;
    for (unsigned n = 1; n <= 3; ++n) {
        const Word N = Word{1} << n;
        const FastEngine eng(n);
        const SetupEngine setup(eng);
        std::vector<Word> dest(N);
        for (Word i = 0; i < N; ++i)
            dest[i] = i;
        do {
            const Permutation d(dest);
            for (SimdLevel level : supportedLevels()) {
                setSimdLevel(level);
                for (RoutingMode mode :
                     {RoutingMode::SelfRouting, RoutingMode::OmegaBit})
                    expectPackedParity(eng, setup, d, mode,
                                       simdLevelName(level));
            }
        } while (std::next_permutation(dest.begin(), dest.end()));
    }
}

TEST(SetupEngine, RandomizedPackedParityIncludingMisroutes)
{
    KernelLevelGuard guard;
    Prng prng(91);
    for (unsigned n = 4; n <= 12; ++n) {
        const Word N = Word{1} << n;
        const SelfRoutingBenes net(n);
        const FastEngine eng(n);
        const SetupEngine setup(eng);
        for (int rep = 0, reps = randIters(n <= 8 ? 6 : 2); rep < reps; ++rep) {
            // An F member self-routes and an Omega member (a TwoPass
            // second factor) routes with the omega bit; an arbitrary
            // permutation usually does neither — all must plan and
            // pack identically to the scalar reference, rejection
            // included.
            const Permutation f = randomFMember(n, prng);
            const Permutation any = Permutation::random(N, prng);
            const Permutation omega = twoPassPlan(net, any).second;
            for (SimdLevel level : supportedLevels()) {
                setSimdLevel(level);
                expectPackedParity(eng, setup, f,
                                   RoutingMode::SelfRouting,
                                   simdLevelName(level));
                expectPackedParity(eng, setup, omega,
                                   RoutingMode::OmegaBit,
                                   simdLevelName(level));
                expectPackedParity(eng, setup, any,
                                   RoutingMode::SelfRouting,
                                   simdLevelName(level));
                expectPackedParity(eng, setup, any,
                                   RoutingMode::OmegaBit,
                                   simdLevelName(level));
            }
        }
    }
}

TEST(SetupEngine, NonFMembersAreRejectedIdentically)
{
    Prng prng(92);
    const unsigned n = 6;
    const Word N = Word{1} << n;
    const FastEngine eng(n);
    const SetupEngine setup(eng);
    unsigned rejected = 0;
    for (int rep = 0; rep < randIters(40); ++rep) {
        const Permutation any = Permutation::random(N, prng);
        const FastPlan a = setup.plan(any);
        const FastPlan b = eng.routePlan(any);
        EXPECT_EQ(a.success, b.success);
        EXPECT_EQ(a.misrouted_outputs, b.misrouted_outputs);
        if (!a.success)
            ++rejected;
    }
    // |F(n)| / (2^n)! is vanishing at n = 6: random draws must hit
    // the rejection path.
    EXPECT_GT(rejected, 0u);
}

TEST(SetupEngine, DisableSimdEnvKeepsParity)
{
    KernelLevelGuard guard;
    ASSERT_EQ(setenv("SRBENES_DISABLE_SIMD", "1", 1), 0);
    setSimdLevel(detectSimdLevel());
    ASSERT_EQ(activeSimdLevel(), SimdLevel::Scalar);

    Prng prng(93);
    for (unsigned n : {4u, 7u, 10u, 12u}) {
        const FastEngine eng(n);
        const SetupEngine setup(eng);
        for (int rep = 0; rep < randIters(4); ++rep) {
            expectPackedParity(eng, setup, randomFMember(n, prng),
                               RoutingMode::SelfRouting,
                               "SRBENES_DISABLE_SIMD");
            const Permutation any =
                Permutation::random(eng.numLines(), prng);
            for (RoutingMode mode :
                 {RoutingMode::SelfRouting, RoutingMode::OmegaBit})
                expectPackedParity(eng, setup, any, mode,
                                   "SRBENES_DISABLE_SIMD");
        }
    }
    ASSERT_EQ(unsetenv("SRBENES_DISABLE_SIMD"), 0);
}

TEST(SetupEngine, SetupManyMatchesPerItemPlansInOrder)
{
    Prng prng(94);
    const unsigned n = 7;
    const Word N = Word{1} << n;
    const FastEngine eng(n);
    const SetupEngine setup(eng);

    std::vector<Permutation> batch;
    for (int i = 0; i < 17; ++i) // odd size: uneven worker shards
        batch.push_back(i % 5 == 4 ? Permutation::random(N, prng)
                                   : randomFMember(n, prng));

    for (unsigned threads : {1u, 4u}) {
        const std::vector<FastPlan> plans =
            setup.setupMany(batch, RoutingMode::SelfRouting, threads);
        ASSERT_EQ(plans.size(), batch.size()) << threads;
        for (std::size_t i = 0; i < batch.size(); ++i)
            expectSamePlan(plans[i], eng.routePlan(batch[i]), n,
                           threads == 1 ? "serial batch"
                                        : "threaded batch");
    }

    EXPECT_TRUE(setup.setupMany({}).empty());
}

/**
 * The tiled differential oracle: setupTiled's arena-resident packed
 * bits must be bit-for-bit what the flat path would have produced
 * (packedStates over setupMany's FastPlans), success flags included.
 */
void
expectTiledMatchesFlat(const SetupEngine &setup,
                       const std::vector<Permutation> &batch,
                       RoutingMode mode, unsigned threads,
                       const std::shared_ptr<PlanArena> &arena,
                       const char *what)
{
    const TiledPlans tiled = setup.setupTiled(batch, mode, threads,
                                              arena);
    const std::vector<FastPlan> flat =
        setup.setupMany(batch, mode, threads);
    ASSERT_EQ(tiled.size(), batch.size()) << what;
    ASSERT_EQ(flat.size(), batch.size()) << what;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(tiled.success(i), flat[i].success)
            << what << " plan " << i;
        const PackedStates a = tiled.packedStates(i);
        const PackedStates b = setup.packedStates(flat[i]);
        EXPECT_EQ(a.n, b.n) << what;
        EXPECT_EQ(a.words_per_stage, b.words_per_stage) << what;
        EXPECT_EQ(a.words, b.words) << what << " plan " << i;
    }
}

TEST(SetupEngine, TiledMatchesFlatExhaustivelyAtSmallN)
{
    for (unsigned n = 1; n <= 3; ++n) {
        const Word N = Word{1} << n;
        const FastEngine eng(n);
        const SetupEngine setup(eng);
        // Every permutation of N lines in ONE batch, against a tiny
        // arena so even this small batch straddles tile boundaries.
        std::vector<Word> dest(N);
        for (Word i = 0; i < N; ++i)
            dest[i] = i;
        std::vector<Permutation> batch;
        do {
            batch.emplace_back(dest);
        } while (std::next_permutation(dest.begin(), dest.end()));
        const auto arena = std::make_shared<PlanArena>(64);
        expectTiledMatchesFlat(setup, batch,
                               RoutingMode::SelfRouting, 1, arena,
                               "exhaustive");
    }
}

TEST(SetupEngine, TiledMatchesFlatRandomizedAcrossTileBoundaries)
{
    Prng prng(97);
    for (unsigned n = 4; n <= 12; n += 2) {
        const Word N = Word{1} << n;
        const FastEngine eng(n);
        const SetupEngine setup(eng);
        // Odd batch sizes so the last tile is partial; a small arena
        // forces several tiles; a mix of F members (success) and
        // arbitrary permutations (mostly misroutes).
        for (const std::size_t B : {1u, 17u, 33u}) {
            std::vector<Permutation> batch;
            for (std::size_t i = 0; i < B; ++i)
                batch.push_back(i % 4 == 3
                                    ? Permutation::random(N, prng)
                                    : randomFMember(n, prng));
            const auto arena = std::make_shared<PlanArena>(
                (2 * n - 1) * (N / 2 / 8 + 8) * 3);
            for (unsigned threads : {1u, 4u}) {
                expectTiledMatchesFlat(setup, batch,
                                       RoutingMode::SelfRouting,
                                       threads, arena, "randomized");
                expectTiledMatchesFlat(setup, batch,
                                       RoutingMode::OmegaBit,
                                       threads, arena, "omega-bit");
            }
        }
    }
    const FastEngine eng(4);
    const SetupEngine setup(eng);
    EXPECT_TRUE(setup.setupTiled({}).empty());
}

TEST(SetupEngine, FusedSetupExecuteMatchesTheSeparatePhases)
{
    Prng prng(98);
    for (unsigned n : {3u, 5u, 8u, 12u}) {
        const Word N = Word{1} << n;
        const FastEngine eng(n);
        const SetupEngine setup(eng);
        // Odd batch straddling tile boundaries under a small arena.
        const std::size_t B = n <= 5 ? 11 : 65;
        std::vector<Permutation> batch;
        std::vector<std::vector<Word>> payloads;
        for (std::size_t i = 0; i < B; ++i) {
            batch.push_back(i % 4 == 3 ? Permutation::random(N, prng)
                                       : randomFMember(n, prng));
            std::vector<Word> payload(N);
            for (Word x = 0; x < N; ++x)
                payload[x] = (i << 20) + x;
            payloads.push_back(std::move(payload));
        }

        // Reference: flat plans, executed one by one.
        const std::vector<FastPlan> plans = setup.setupMany(batch);
        std::vector<std::vector<Word>> want(B);
        for (std::size_t i = 0; i < B; ++i)
            eng.executeInto(plans[i], payloads[i], want[i]);

        const auto arena = std::make_shared<PlanArena>(
            n >= 8 ? PlanArena::kDefaultTileBytes / 4 : 512);
        for (unsigned threads : {1u, 3u}) {
            TiledPlans tiled;
            const std::vector<std::vector<Word>> got =
                setup.setupExecuteMany(batch, payloads,
                                       RoutingMode::SelfRouting,
                                       threads, &tiled, arena);
            ASSERT_EQ(got.size(), B) << "n=" << n;
            for (std::size_t i = 0; i < B; ++i) {
                EXPECT_EQ(got[i], want[i])
                    << "n=" << n << " plan " << i
                    << " threads=" << threads;
                EXPECT_EQ(tiled.success(i), plans[i].success);
            }
        }
    }
}

TEST(SetupEngine, ConstructionVerifiesLargerFabrics)
{
    // The constructor re-derives and VERIFIES the per-stage bit
    // permutation on every switch (it fatal()s on any deviation), so
    // surviving construction at a large n is itself the assertion;
    // one routed spot-check confirms the schedules work end to end.
    Prng prng(95);
    const unsigned n = 16;
    const FastEngine eng(n);
    const SetupEngine setup(eng);
    const Permutation f = randomFMember(n, prng);
    const FastPlan plan = setup.plan(f);
    EXPECT_TRUE(plan.success);
    EXPECT_EQ(setup.packedStates(plan).words,
              eng.planPackedStates(plan).words);
}

TEST(SetupEngine, RouterColdPathUsesTheSetupEngine)
{
    // The Router owns a SetupEngine and cold planning flows through
    // it; exercise both the one-pass and two-pass routes end to end.
    Prng prng(96);
    const unsigned n = 5;
    const Word N = Word{1} << n;
    obs::MetricsRegistry reg;
    const Router router(n, false, 8, 2, &reg);
    (void)router.setupEngine();

    const Permutation f = randomFMember(n, prng);
    const RoutePlan plan = router.plan(f);
    EXPECT_EQ(plan.strategy, RouteStrategy::SelfRouting);
    ASSERT_TRUE(plan.fast);
    EXPECT_TRUE(plan.fast->success);

    // A non-F permutation goes two-pass: both passes still flow
    // through the setup engine and the result stays exact.
    const Permutation any = Permutation::random(N, prng);
    const RoutePlan plan2 = router.plan(any);
    std::vector<Word> data(N);
    for (Word i = 0; i < N; ++i)
        data[i] = 1000 + i;
    EXPECT_EQ(router.execute(plan2, data), any.applyTo(data));
}

} // namespace
