/**
 * @file
 * Differential proof for the bit-sliced SetupEngine: every plan()
 * must match the per-switch SelfRoutingBenes reference bit for bit
 * (switch states, realized mapping, misrouted outputs, success) —
 * exhaustively at n <= 3, randomized at n = 4..12 including non-F
 * permutations rejected identically, across every supported SIMD
 * level and under the SRBENES_DISABLE_SIMD escape hatch. The same
 * sweeps hold the verdict pass routes() to plan().success. Also
 * covers construction at larger n and the Router's cold path.
 */

#include <algorithm>
#include <cstdlib>
#include <numeric>
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
#include "perm/omega_class.hh"
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

/**
 * plan(d, mode) against the per-switch reference simulator, and the
 * verdict routes(d, mode) against plan(d, mode).success.
 */
void
expectPlanParity(const SelfRoutingBenes &net, const FastEngine &eng,
                 const SetupEngine &setup, const Permutation &d,
                 RoutingMode mode, const char *what)
{
    const FastPlan plan = setup.plan(d, mode);
    const RouteResult ref = net.route(d, mode);
    EXPECT_EQ(plan.n, eng.n()) << what;
    EXPECT_EQ(plan.success, ref.success) << what << " n=" << eng.n();
    EXPECT_EQ(eng.planStates(plan), ref.states)
        << what << " n=" << eng.n();
    EXPECT_EQ(plan.dest, ref.realized_dest)
        << what << " n=" << eng.n();
    EXPECT_EQ(plan.misrouted_outputs, ref.misrouted_outputs)
        << what << " n=" << eng.n();

    // The verdict pass: yes exactly when plan() succeeds.
    EXPECT_EQ(setup.routes(d, mode), plan.success)
        << what << " n=" << eng.n();
}

TEST(SetupEngine, ExhaustivePlanParityAtSmallN)
{
    KernelLevelGuard guard;
    for (unsigned n = 1; n <= 3; ++n) {
        const Word N = Word{1} << n;
        const SelfRoutingBenes net(n);
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
                    expectPlanParity(net, eng, setup, d, mode,
                                     simdLevelName(level));
            }
        } while (std::next_permutation(dest.begin(), dest.end()));
    }
}

TEST(SetupEngine, RandomizedPlanParityIncludingMisroutes)
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
            // permutation usually does neither. Each runs in both
            // modes, so every verdict is seen both ways, and all must
            // plan identically to the scalar reference, rejection
            // included.
            const Permutation f = randomFMember(n, prng);
            const Permutation any = Permutation::random(N, prng);
            const Permutation omega = twoPassPlan(net, any).second;
            for (SimdLevel level : supportedLevels()) {
                setSimdLevel(level);
                for (const Permutation *d : {&f, &omega, &any})
                    for (RoutingMode mode : {RoutingMode::SelfRouting,
                                             RoutingMode::OmegaBit})
                        expectPlanParity(net, eng, setup, *d, mode,
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
        const SelfRoutingBenes net(n);
        const FastEngine eng(n);
        const SetupEngine setup(eng);
        for (int rep = 0; rep < randIters(4); ++rep) {
            const Permutation f = randomFMember(n, prng);
            const Permutation any =
                Permutation::random(eng.numLines(), prng);
            const Permutation omega = twoPassPlan(net, any).second;
            for (const Permutation *d : {&f, &omega, &any})
                for (RoutingMode mode :
                     {RoutingMode::SelfRouting, RoutingMode::OmegaBit})
                    expectPlanParity(net, eng, setup, *d, mode,
                                     "SRBENES_DISABLE_SIMD");
        }
    }
    ASSERT_EQ(unsetenv("SRBENES_DISABLE_SIMD"), 0);
}

/**
 * The Router decides Omega membership with the omega-bit pass behind
 * Lawrie's t = 1 window, not with isOmega's full window test: the
 * pass must say yes exactly for isOmega's members, and the window
 * must hold for every member.
 */
void
expectOmegaVerdict(const SetupEngine &setup, const Permutation &d,
                   const char *what)
{
    const bool omega = isOmega(d);
    if (omega) {
        EXPECT_TRUE(omegaFirstWindowHolds(d))
            << what << " " << d.toString();
    }
    for (SimdLevel level : supportedLevels()) {
        setSimdLevel(level);
        EXPECT_EQ(setup.routes(d, RoutingMode::OmegaBit), omega)
            << what << " " << simdLevelName(level) << " "
            << d.toString();
    }
}

TEST(SetupEngine, OmegaBitPassIsOmegaMembershipExhaustively)
{
    KernelLevelGuard guard;
    for (unsigned n = 1; n <= 3; ++n) {
        const FastEngine eng(n, nullptr);
        const SetupEngine setup(eng);
        std::vector<Word> dest(eng.numLines());
        std::iota(dest.begin(), dest.end(), Word{0});
        std::size_t members = 0, others = 0;
        do {
            const Permutation d(dest);
            (isOmega(d) ? members : others) += 1;
            expectOmegaVerdict(setup, d, "exhaustive");
        } while (std::next_permutation(dest.begin(), dest.end()));
        EXPECT_GT(members, 0u) << "n=" << n;
        if (n >= 2) {
            EXPECT_GT(others, 0u) << "n=" << n;
        }
    }
}

TEST(SetupEngine, OmegaBitPassIsOmegaMembershipRandomized)
{
    // Omega members are TwoPass second factors, inverse-omega members
    // their inverses, and random permutations are almost never
    // either: all three sides of the verdict, at every SIMD level.
    KernelLevelGuard guard;
    Prng prng(97);
    for (unsigned n = 4; n <= 12; ++n) {
        const SelfRoutingBenes net(n);
        const FastEngine eng(n, nullptr);
        const SetupEngine setup(eng);
        for (int rep = 0; rep < randIters(6); ++rep) {
            const Permutation any =
                Permutation::random(eng.numLines(), prng);
            const Permutation omega = twoPassPlan(net, any).second;
            ASSERT_TRUE(isOmega(omega)) << "n=" << n;
            expectOmegaVerdict(setup, omega, "omega");
            expectOmegaVerdict(setup, omega.inverse(), "inverse omega");
            expectOmegaVerdict(setup, any, "random");
        }
    }
}

TEST(SetupEngine, ConstructionVerifiesLargerFabrics)
{
    // The engine's constructor VERIFIES the conjugated exchange
    // structure on every switch (it panic()s on any deviation), so
    // surviving construction at a large n is itself the assertion;
    // one routed spot-check confirms the pass works end to end.
    Prng prng(95);
    const unsigned n = 16;
    const FastEngine eng(n);
    const SetupEngine setup(eng);
    const Permutation f = randomFMember(n, prng);
    const FastPlan plan = setup.plan(f);
    EXPECT_TRUE(plan.success);
    EXPECT_EQ(std::vector<Word>(plan.src.begin(), plan.src.end()),
              f.inverse().dest());
    EXPECT_TRUE(setup.routes(f));
    const Permutation any = Permutation::random(eng.numLines(), prng);
    EXPECT_EQ(setup.routes(any), setup.plan(any).success);
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
    EXPECT_EQ(std::vector<Word>(plan.src.begin(), plan.src.end()),
              f.inverse().dest());

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
