/**
 * @file
 * Tests for F(n), the class realizable by the self-routing network:
 * the Theorem 1 recursive test is cross-validated exhaustively
 * against the full network simulation, the containment theorems
 * (BPC in F, InverseOmega in F) are property-tested, and the level-0
 * condition is checked to reject only non-members.
 */

#include <algorithm>
#include <numeric>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "core/fast_engine.hh"
#include "core/self_routing.hh"
#include "core/setup_engine.hh"
#include "core/two_pass.hh"
#include "perm/bpc.hh"
#include "perm/f_class.hh"
#include "perm/named_bpc.hh"
#include "perm/omega_class.hh"

namespace srbenes
{
namespace
{

TEST(FClass, AllOfSizeTwoIsInF)
{
    EXPECT_TRUE(inFClass(Permutation({0, 1})));
    EXPECT_TRUE(inFClass(Permutation({1, 0})));
}

TEST(FClass, PaperFigFiveCounterexample)
{
    // Fig. 5: D = (1, 3, 2, 0) cannot be performed on B(2) by the
    // self-routing scheme.
    EXPECT_FALSE(inFClass(Permutation({1, 3, 2, 0})));
}

TEST(FClass, SplitStageZeroEquations)
{
    // Eqs. (1) and (2) on a hand example: tags (2, 1, 3, 0).
    // Switch 0: upper tag 2 (bit0 = 0) -> straight: U_0 = 2, L_0 = 1.
    // Switch 1: upper tag 3 (bit0 = 1) -> crossed:  U_1 = 0, L_1 = 3.
    const auto [u, l] = splitStageZero({2, 1, 3, 0});
    EXPECT_EQ(u, (std::vector<Word>{2, 0}));
    EXPECT_EQ(l, (std::vector<Word>{1, 3}));
}

TEST(FClass, TheoremOneMatchesNetworkExhaustivelyN4)
{
    const SelfRoutingBenes net(2);
    std::vector<Word> dest(4);
    std::iota(dest.begin(), dest.end(), 0);
    do {
        const Permutation p(dest);
        ASSERT_EQ(net.route(p).success, inFClass(p)) << p.toString();
    } while (std::next_permutation(dest.begin(), dest.end()));
}

TEST(FClass, TheoremOneMatchesNetworkExhaustivelyN8)
{
    // The central cross-check of the reproduction: Theorem 1's
    // recursive characterization agrees with the simulated fabric on
    // all 40320 permutations of 8 elements.
    const SelfRoutingBenes net(3);
    std::vector<Word> dest(8);
    std::iota(dest.begin(), dest.end(), 0);
    do {
        const Permutation p(dest);
        ASSERT_EQ(net.route(p).success, inFClass(p)) << p.toString();
    } while (std::next_permutation(dest.begin(), dest.end()));
}

TEST(FClass, LevelZeroIsSoundExhaustivelyToN8)
{
    // Level 0 of Theorem 1 is necessary for F membership: it never
    // rejects a permutation the fabric self-routes, and everything it
    // rejects fails both Theorem 1 and the bit-sliced tag pass.
    for (unsigned n = 1; n <= 3; ++n) {
        const FastEngine eng(n, nullptr);
        const SetupEngine setup(eng);
        std::vector<Word> dest(std::size_t{1} << n);
        std::iota(dest.begin(), dest.end(), 0);
        std::size_t rejected = 0;
        do {
            const Permutation p(dest);
            const bool in_f = inFClass(p);
            ASSERT_EQ(setup.routes(p), in_f) << p.toString();
            if (!levelZero(p)) {
                ++rejected;
                ASSERT_FALSE(in_f) << p.toString();
            }
        } while (std::next_permutation(dest.begin(), dest.end()));
        // The test has teeth from n = 2 on: (1, 3, 2, 0) fails level 0.
        if (n >= 2) {
            EXPECT_GT(rejected, 0u) << "n=" << n;
        }
    }
    EXPECT_FALSE(levelZero(Permutation({1, 3, 2, 0})));
}

TEST(FClass, LevelZeroPassesFAndRejectsOnlyNonMembers)
{
    Prng prng(1001);
    for (unsigned n = 4; n <= 12; ++n) {
        const Word N = Word{1} << n;
        const SelfRoutingBenes net(n);
        const FastEngine eng(n, nullptr);
        const SetupEngine setup(eng);
        for (int trial = 0; trial < 8; ++trial) {
            // Every F member passes.
            const Permutation f = randomFMember(n, prng);
            ASSERT_TRUE(levelZero(f)) << "n=" << n;
            // An Omega member (the second TwoPass factor of a random
            // permutation) and an arbitrary permutation pass only if
            // they can: a rejection always means the pass fails.
            const Permutation any = Permutation::random(N, prng);
            const Permutation omega = twoPassPlan(net, any).second;
            ASSERT_TRUE(isOmega(omega));
            for (const Permutation *p : {&omega, &any}) {
                if (!levelZero(*p)) {
                    ASSERT_FALSE(setup.routes(*p)) << "n=" << n;
                }
            }
        }
        // From n = 6 on, uniformly random permutations essentially
        // never pass level 0: it takes N/2 distinct random output
        // pairs, about (N/2)! / (N/2)^(N/2) < 1e-12 of them.
        int passed = 0;
        for (int trial = 0; trial < 16; ++trial)
            passed += levelZero(Permutation::random(N, prng));
        if (n >= 6) {
            EXPECT_EQ(passed, 0) << "n=" << n;
        }
    }
}

class FContainment : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FContainment, TheoremTwoBpcSubsetOfF)
{
    const unsigned n = GetParam();
    Prng prng(n * 7 + 1);
    for (int trial = 0; trial < 60; ++trial) {
        const BpcSpec spec = BpcSpec::random(n, prng);
        EXPECT_TRUE(inFClass(spec.toPermutation()))
            << spec.toString();
    }
}

TEST_P(FContainment, TheoremThreeInverseOmegaSubsetOfF)
{
    const unsigned n = GetParam();
    Prng prng(n * 7 + 2);
    // Random inverse-omega permutations: route a random tag vector
    // backwards is hard to sample directly, so use the generators
    // plus random products of a p-ordering and a cyclic shift.
    for (int trial = 0; trial < 40; ++trial) {
        const Word p = 2 * prng.below(Word{1} << (n - 1)) + 1;
        const Word k = prng.below(Word{1} << n);
        const Permutation d = named::pOrderingShift(n, p, k);
        ASSERT_TRUE(isInverseOmega(d));
        EXPECT_TRUE(inFClass(d)) << d.toString();
    }
}

TEST_P(FContainment, TableOneRowsAreInF)
{
    const unsigned n = GetParam();
    if (n % 2 != 0)
        return;
    for (const auto &row : named::tableOne(n))
        EXPECT_TRUE(inFClass(row.spec.toPermutation())) << row.name;
}

INSTANTIATE_TEST_SUITE_P(Widths, FContainment,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 8u,
                                           10u));

TEST(FClass, InverseOmegaExhaustivelyInsideFN8)
{
    // Theorem 3 checked exhaustively at N = 8: every inverse-omega
    // permutation is in F, and the containment is strict.
    std::vector<Word> dest(8);
    std::iota(dest.begin(), dest.end(), 0);
    std::uint64_t inv_count = 0, f_count = 0;
    do {
        const Permutation p(dest);
        const bool in_f = inFClass(p);
        const bool in_inv = isInverseOmega(p);
        f_count += in_f;
        inv_count += in_inv;
        if (in_inv) {
            ASSERT_TRUE(in_f) << p.toString();
        }
    } while (std::next_permutation(dest.begin(), dest.end()));
    EXPECT_EQ(inv_count, 4096u);
    EXPECT_GT(f_count, inv_count); // strictly richer
}

TEST(FClass, NotClosedUnderProduct)
{
    // Section II closing remark: A, B in F(2) but A o B not in F(2).
    const Permutation a{3, 0, 1, 2};
    const Permutation b{0, 1, 3, 2};
    EXPECT_TRUE(inFClass(a));
    EXPECT_TRUE(inFClass(b));
    EXPECT_FALSE(inFClass(a.then(b)));
}

TEST(FClass, OmegaNotSubsetOfF)
{
    // (1,3,2,0) separates Omega(2) from F(2).
    const Permutation d{1, 3, 2, 0};
    EXPECT_TRUE(isOmega(d));
    EXPECT_FALSE(inFClass(d));
}

TEST(FClass, RejectionComesFromDuplicateHalf)
{
    // For the Fig. 5 counterexample the failure is visible at stage
    // 0: both upper outputs carry tags with high bit 1 (U = {3, 2}),
    // so the upper B(1) would need to deliver two signals to one
    // terminal.
    const auto [u, l] = splitStageZero({1, 3, 2, 0});
    EXPECT_EQ(u[0] >> 1, u[1] >> 1); // the collision
    EXPECT_TRUE(inFClassTags({0, 1, 2, 3}, 2));
}

TEST(FClass, FigFourBitReversalIsInF)
{
    EXPECT_TRUE(inFClass(named::bitReversal(3).toPermutation()));
}

class FSampler : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FSampler, AlwaysProducesMembers)
{
    const unsigned n = GetParam();
    Prng prng(n * 3 + 1);
    for (int trial = 0; trial < 50; ++trial) {
        const Permutation p = randomFMember(n, prng);
        ASSERT_TRUE(inFClass(p)) << p.toString();
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, FSampler,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u, 8u,
                                           10u));

TEST(FClass, SamplerHasFullSupportAtN4)
{
    // |F(2)| = 20 (exhaustive census); the constructive sampler must
    // be able to reach every member.
    Prng prng(999);
    std::set<std::string> seen;
    for (int trial = 0; trial < 5000; ++trial)
        seen.insert(randomFMember(2, prng).toString());
    EXPECT_EQ(seen.size(), 20u);
}

TEST(FClass, SamplerNeverEmitsFigFiveCounterexample)
{
    // ... and must never emit a non-member such as (1,3,2,0).
    Prng prng(1000);
    const Permutation bad{1, 3, 2, 0};
    for (int trial = 0; trial < 2000; ++trial)
        ASSERT_NE(randomFMember(2, prng), bad);
}

} // namespace
} // namespace srbenes
