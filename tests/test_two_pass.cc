/**
 * @file
 * Tests for two-pass universal routing: the factorization
 * D = P1 o P2 with P1 in InverseOmega(n) and P2 in Omega(n), and its
 * execution as two self-routed passes (pass 2 with the omega bit).
 * Checked exhaustively for N <= 8 and sampled to N = 4096; the
 * seeded factorizations are pinned by digest for N = 4..4096, and
 * every SIMD level of the factor's kernels yields the same ones.
 */

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "core/fast_kernels.hh"
#include "core/two_pass.hh"
#include "perm/f_class.hh"
#include "perm/omega_class.hh"

namespace srbenes
{
namespace
{

void
checkPlan(const SelfRoutingBenes &net, const Permutation &d)
{
    const TwoPassPlan plan = twoPassPlan(net, d);

    // Factorization identity.
    ASSERT_EQ(plan.first.then(plan.second), d) << d.toString();

    // Class memberships that make the two passes self-routable.
    EXPECT_TRUE(isInverseOmega(plan.first))
        << "P1 = " << plan.first.toString();
    EXPECT_TRUE(isOmega(plan.second))
        << "P2 = " << plan.second.toString();
    EXPECT_TRUE(inFClass(plan.first));

    // Operational check: both passes actually route.
    EXPECT_TRUE(net.route(plan.first).success);
    EXPECT_TRUE(
        net.route(plan.second, RoutingMode::OmegaBit).success);
}

TEST(TwoPass, ExhaustiveN4)
{
    const SelfRoutingBenes net(2);
    std::vector<Word> dest(4);
    std::iota(dest.begin(), dest.end(), 0);
    do {
        checkPlan(net, Permutation(dest));
    } while (std::next_permutation(dest.begin(), dest.end()));
}

TEST(TwoPass, ExhaustiveN8)
{
    const SelfRoutingBenes net(3);
    std::vector<Word> dest(8);
    std::iota(dest.begin(), dest.end(), 0);
    do {
        checkPlan(net, Permutation(dest));
    } while (std::next_permutation(dest.begin(), dest.end()));
}

class TwoPassSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TwoPassSweep, RandomPermutations)
{
    const unsigned n = GetParam();
    const SelfRoutingBenes net(n);
    Prng prng(n * 211);
    for (int trial = 0; trial < 10; ++trial)
        checkPlan(net,
                  Permutation::random(std::size_t{1} << n, prng));
}

TEST_P(TwoPassSweep, PayloadsDelivered)
{
    const unsigned n = GetParam();
    const SelfRoutingBenes net(n);
    Prng prng(n * 223);
    const auto d = Permutation::random(std::size_t{1} << n, prng);
    const TwoPassPlan plan = twoPassPlan(net, d);

    std::vector<Word> data(d.size());
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = 5000 + i;
    const auto out = twoPassPermute(net, plan, data);
    for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_EQ(out[d[i]], 5000 + i);
}

INSTANTIATE_TEST_SUITE_P(Widths, TwoPassSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u, 8u,
                                           10u, 12u));

TEST(TwoPass, FigFiveCounterexampleNowRoutes)
{
    // The permutation that defeats single-pass self-routing.
    const SelfRoutingBenes net(2);
    const Permutation d{1, 3, 2, 0};
    ASSERT_FALSE(net.route(d).success);
    const TwoPassPlan plan = twoPassPlan(net, d);
    const auto out =
        twoPassPermute(net, plan, {Word{10}, 11, 12, 13});
    EXPECT_EQ(out, (std::vector<Word>{13, 10, 12, 11}));
}

TEST(TwoPass, IdentityFactorsTrivially)
{
    const SelfRoutingBenes net(4);
    const auto id = Permutation::identity(16);
    const TwoPassPlan plan = twoPassPlan(net, id);
    EXPECT_EQ(plan.first.then(plan.second), id);
}

TEST(TwoPassSeeded, EverySeedIsAValidFactorization)
{
    // The factorization's loop colorings are free choices, so every
    // seed must produce class-correct factors that compose to d.
    const SelfRoutingBenes net(4);
    Prng prng(61);
    for (int trial = 0; trial < 5; ++trial) {
        const Permutation d = Permutation::random(16, prng);
        for (std::uint64_t seed = 0; seed < 10; ++seed) {
            const TwoPassPlan plan = twoPassPlanSeeded(net, d, seed);
            ASSERT_EQ(plan.first.then(plan.second), d)
                << "seed " << seed;
            EXPECT_TRUE(isInverseOmega(plan.first));
            EXPECT_TRUE(isOmega(plan.second));
            const auto out = twoPassPermute(
                net, plan, {Word{0}, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                            11, 12, 13, 14, 15});
            for (Word i = 0; i < 16; ++i)
                EXPECT_EQ(out[d[i]], i);
        }
    }
}

TEST(TwoPassSeeded, SeedZeroIsTheCanonicalPlan)
{
    const SelfRoutingBenes net(5);
    Prng prng(62);
    for (int trial = 0; trial < 5; ++trial) {
        const Permutation d = Permutation::random(32, prng);
        const TwoPassPlan canonical = twoPassPlan(net, d);
        const TwoPassPlan seeded = twoPassPlanSeeded(net, d, 0);
        EXPECT_EQ(seeded.first, canonical.first);
        EXPECT_EQ(seeded.second, canonical.second);
    }
}

TEST(TwoPassSeeded, SeedsExerciseDifferentFactors)
{
    // Reseeding must actually change the factorization, or the
    // resilient TwoPass tier would retry the same failing plan.
    const SelfRoutingBenes net(4);
    Prng prng(63);
    const Permutation d = Permutation::random(16, prng);
    const TwoPassPlan canonical = twoPassPlanSeeded(net, d, 0);
    bool varied = false;
    for (std::uint64_t seed = 1; seed < 10 && !varied; ++seed) {
        const TwoPassPlan plan = twoPassPlanSeeded(net, d, seed);
        varied = !(plan.first == canonical.first);
    }
    EXPECT_TRUE(varied);
}

/** FNV-1a over a factorization's two destination vectors. */
std::uint64_t
factorDigest(std::uint64_t h, const TwoPassPlan &plan)
{
    for (const Permutation *p : {&plan.first, &plan.second})
        for (Word w : p->dest()) {
            h ^= w;
            h *= 1099511628211ULL;
        }
    return h;
}

TEST(TwoPassSeeded, FactorizationsArePinned)
{
    // Digests of the factors of six fixed random inputs per width,
    // for seeds 0..8: the seeds the resilient TwoPass tier draws
    // (two_pass_seeds = 8) and one more. Every valid factorization
    // passes the class checks above; these pin WHICH one each seed
    // yields, so a faster factor must walk the same loops, color
    // them the same way, and key its seeded draws the same way.
    // clang-format off
    static constexpr std::uint64_t kDigest[11][9] = {
        // n = 2
        {0x8cc8b7396c1f292dULL, 0x8cc8b7396c1f292dULL, 0x721e6b767b5c4569ULL,
         0x8cc8b7396c1f292dULL, 0x2465f75ea32f06cdULL, 0x721e6b767b5c4569ULL,
         0x2465f75ea32f06cdULL, 0xd4d6ecc95d083e31ULL, 0x721e6b767b5c4569ULL},
        // n = 3
        {0x3b9ce7f5f263c377ULL, 0x4479d2f8a26c0c97ULL, 0xc03a1db5d176d667ULL,
         0xad62b9353052faebULL, 0x562f705b7b9de9afULL, 0x875086e27ca15907ULL,
         0x7f5a2fb902ac4583ULL, 0x2273364b27f2d1a7ULL, 0xa45bab6d2d214943ULL},
        // n = 4
        {0x09322280f924338dULL, 0x806b5e4972f98c71ULL, 0xe876df1c182ad2e9ULL,
         0x50b89e8969903f89ULL, 0x6ba01c4e74f6555dULL, 0x69269dbcea4e605dULL,
         0x93b5f1ec9b39304dULL, 0x6c4227453adf06e1ULL, 0xab5e26a9f8f15625ULL},
        // n = 5
        {0x2c0330afc4f33e8fULL, 0xa11068d112563ee3ULL, 0x924d3d48eb47527fULL,
         0x1583423939b1d187ULL, 0xf18245de402baf5fULL, 0xe7d9ecd7916ff403ULL,
         0xff6342fea2abf62bULL, 0x38962cb243bed57fULL, 0xa6ff3ec239a454f3ULL},
        // n = 6
        {0x169df41f70227791ULL, 0x929985809d9be47dULL, 0x04bbb94f08a8e3c5ULL,
         0x115f37a8499b60b9ULL, 0x16e0e6e7fbc04311ULL, 0x928ae3ef742c67f5ULL,
         0xe0ba66ffd66e7dddULL, 0x680297e5a546079dULL, 0xd655ef360dd30651ULL},
        // n = 7
        {0xfb86a4a3e182749bULL, 0x106d6c412989468bULL, 0x4e49c51dc2c8a907ULL,
         0x124b5bea07f03f9fULL, 0x29a54ee7d91610bfULL, 0xe2d4a432235bdaafULL,
         0xb5e8227531d5b897ULL, 0x604ce98daaf27893ULL, 0x758760fddb66107bULL},
        // n = 8
        {0x8cd3f6a94bd073d9ULL, 0x2df5ef80aa951165ULL, 0xf8dcd3396938c34dULL,
         0x9f55322c40def811ULL, 0x9087d2373ef423d1ULL, 0x99d87f07e10c8ea5ULL,
         0xb74c3c8d42293f65ULL, 0xfb4d9f11d1dcbd2dULL, 0x301d70bedcff67adULL},
        // n = 9
        {0x43f19a9851792bfbULL, 0x39012b45fba6f5c3ULL, 0x95183a184db24993ULL,
         0xd333e57ba2cb50efULL, 0x77abbb63f1836923ULL, 0x79b24bdf0251570bULL,
         0x07e94d16a5f6a553ULL, 0xccd1e2e0e62056cfULL, 0xb1596474f00bad93ULL},
        // n = 10
        {0x591871a0342abdafULL, 0xc577e3e7d187ef33ULL, 0x8405be1648dd457bULL,
         0xf897a96eb3a550a3ULL, 0xa1871c64c6d50923ULL, 0xf65685b8150d902fULL,
         0x33c36ed4d22e1123ULL, 0xd21e76c9fab5851bULL, 0x5aae8eb7c1b6b283ULL},
        // n = 11
        {0xc51b735c6574b297ULL, 0x2689737d2ab35c67ULL, 0xd0bfd0c4efa6af83ULL,
         0xd76b081e49fa991bULL, 0xce569db14fea6767ULL, 0xacfe8819a5f7ccb3ULL,
         0xa427de784f96a78bULL, 0xaeb82c5849f6b9d3ULL, 0xe895f8bc5cda0427ULL},
        // n = 12
        {0xefef834f5ed240c7ULL, 0x2283e6dbe8384c7fULL, 0xa03e19c530b53c07ULL,
         0xfa07f9df19f00063ULL, 0x5bac9f833e07d967ULL, 0x2bcf20a05a70c71fULL,
         0xbe36f2cfe2983ec3ULL, 0x6d903c7ecaad4cabULL, 0xc96563455af2d713ULL},
    };
    // clang-format on
    for (unsigned n = 2; n <= 12; ++n) {
        const SelfRoutingBenes net(n);
        Prng prng(0x7e57 + n);
        std::vector<Permutation> inputs;
        for (int k = 0; k < 6; ++k)
            inputs.push_back(
                Permutation::random(std::size_t{1} << n, prng));
        for (std::uint64_t seed = 0; seed <= 8; ++seed) {
            std::uint64_t h = 1469598103934665603ULL;
            for (const Permutation &d : inputs)
                h = factorDigest(h, twoPassPlanSeeded(net, d, seed));
            EXPECT_EQ(h, kDigest[n - 2][seed])
                << "n=" << n << " seed=" << seed;
        }
    }
}

TEST(TwoPassSeeded, FactorsAgreeAtEveryKernelLevel)
{
    // The factor's passes run through the kernel table; every
    // compiled level must yield the scalar reference's factors, so
    // the pinned digests above hold whichever level dispatch picks.
    struct Restore
    {
        ~Restore() { setSimdLevel(detectSimdLevel()); }
    } restore;
    std::vector<SimdLevel> levels;
    for (SimdLevel level :
         {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512})
        if (simdLevelSupported(level))
            levels.push_back(level);
    Prng prng(64);
    for (unsigned n = 1; n <= 12; ++n) {
        const SelfRoutingBenes net(n);
        const Permutation any =
            Permutation::random(std::size_t{1} << n, prng);
        const Permutation f = randomFMember(n, prng);
        const Permutation omega = twoPassPlan(net, any).second;
        for (const Permutation *d : {&any, &f, &omega}) {
            for (std::uint64_t seed = 0; seed <= 8; ++seed) {
                setSimdLevel(SimdLevel::Scalar);
                const TwoPassPlan want = twoPassPlanSeeded(net, *d, seed);
                for (SimdLevel level : levels) {
                    setSimdLevel(level);
                    const TwoPassPlan got =
                        twoPassPlanSeeded(net, *d, seed);
                    ASSERT_EQ(got.first, want.first)
                        << simdLevelName(level) << " n=" << n
                        << " seed=" << seed;
                    ASSERT_EQ(got.second, want.second)
                        << simdLevelName(level) << " n=" << n
                        << " seed=" << seed;
                }
            }
        }
    }
}

TEST(TwoPass, FMembersStillWorkInOnePassButPlanIsValid)
{
    // Two-pass is universal, so it must also handle F members.
    const SelfRoutingBenes net(5);
    Prng prng(5);
    const Permutation d = randomFMember(5, prng);
    checkPlan(net, d);
}

} // namespace
} // namespace srbenes
