/**
 * @file
 * Tests for the Permutation value type, including the paper's
 * composition convention (Section II closing example).
 */

#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "perm/permutation.hh"

namespace srbenes
{
namespace
{

TEST(Permutation, ValidityChecks)
{
    EXPECT_TRUE(Permutation::isValid({0, 1, 2, 3}));
    EXPECT_TRUE(Permutation::isValid({3, 1, 0, 2}));
    EXPECT_FALSE(Permutation::isValid({0, 0, 2, 3})); // duplicate
    EXPECT_FALSE(Permutation::isValid({0, 1, 2, 4})); // out of range
    EXPECT_FALSE(Permutation::isValid({}));           // empty

    // Sizes around the 64-bit words of the seen-bitmap: a duplicate
    // or an out-of-range tag in the last, partial word still counts.
    for (std::size_t n : {63u, 64u, 65u, 128u, 129u}) {
        std::vector<Word> d(n);
        for (std::size_t i = 0; i < n; ++i)
            d[i] = n - 1 - i;
        EXPECT_TRUE(Permutation::isValid(d)) << n;
        std::vector<Word> dup = d;
        dup[n - 1] = dup[0];
        EXPECT_FALSE(Permutation::isValid(dup)) << n;
        std::vector<Word> out = d;
        out[0] = n;
        EXPECT_FALSE(Permutation::isValid(out)) << n;
    }
}

TEST(Permutation, TryFromValidatesOnceWithoutDying)
{
    const std::optional<Permutation> p =
        Permutation::tryFrom({3, 1, 0, 2});
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, Permutation({3, 1, 0, 2}));
    // Malformed input is an answer (nullopt), not a fatal().
    EXPECT_FALSE(Permutation::tryFrom({0, 0, 2, 3}).has_value());
    EXPECT_FALSE(Permutation::tryFrom({0, 1, 2, 4}).has_value());
    EXPECT_FALSE(Permutation::tryFrom({}).has_value());
}

TEST(Permutation, IdentityMapsEachToItself)
{
    const auto id = Permutation::identity(8);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(id[i], i);
}

TEST(Permutation, Log2Size)
{
    EXPECT_EQ(Permutation::identity(8).log2Size(), 3u);
    EXPECT_EQ(Permutation::identity(1).log2Size(), 0u);
}

TEST(Permutation, InverseUndoes)
{
    const Permutation p{2, 0, 3, 1};
    const Permutation inv = p.inverse();
    for (std::size_t i = 0; i < p.size(); ++i)
        EXPECT_EQ(inv[p[i]], i);
    EXPECT_EQ(p.then(inv), Permutation::identity(4));
    EXPECT_EQ(inv.then(p), Permutation::identity(4));
}

TEST(Permutation, PaperProductExample)
{
    // Section II: A = (3,0,1,2), B = (0,1,3,2), A o B = (2,0,1,3).
    const Permutation a{3, 0, 1, 2};
    const Permutation b{0, 1, 3, 2};
    EXPECT_EQ(a.then(b), Permutation({2, 0, 1, 3}));
}

TEST(Permutation, ApplyToMovesDataToDestinations)
{
    const Permutation p{2, 0, 1};
    const std::vector<int> data{10, 20, 30};
    const auto out = p.applyTo(data);
    // Element at input i lands at position p[i].
    EXPECT_EQ(out, (std::vector<int>{20, 30, 10}));
}

TEST(Permutation, ApplyToIsInvertedByInverse)
{
    Prng prng(3);
    const auto p = Permutation::random(16, prng);
    std::vector<Word> data(16);
    for (std::size_t i = 0; i < 16; ++i)
        data[i] = 100 + i;
    EXPECT_EQ(p.inverse().applyTo(p.applyTo(data)), data);
}

TEST(Permutation, RandomIsValidAndDeterministic)
{
    Prng a(99), b(99);
    for (int trial = 0; trial < 20; ++trial) {
        const auto pa = Permutation::random(32, a);
        const auto pb = Permutation::random(32, b);
        EXPECT_EQ(pa, pb);
        EXPECT_TRUE(Permutation::isValid(pa.dest()));
    }
}

TEST(Permutation, RandomCoversAllPermutationsOfThree)
{
    // Fisher-Yates should reach every arrangement of a 3-element set.
    Prng prng(5);
    std::set<std::string> seen;
    for (int trial = 0; trial < 300; ++trial)
        seen.insert(Permutation::random(3, prng).toString());
    EXPECT_EQ(seen.size(), 6u);
}

TEST(Permutation, ToString)
{
    EXPECT_EQ(Permutation({1, 0}).toString(), "(1, 0)");
    EXPECT_EQ(Permutation::identity(3).toString(), "(0, 1, 2)");
}

TEST(Permutation, ThenAssociativity)
{
    Prng prng(17);
    const auto a = Permutation::random(16, prng);
    const auto b = Permutation::random(16, prng);
    const auto c = Permutation::random(16, prng);
    EXPECT_EQ(a.then(b).then(c), a.then(b.then(c)));
}

} // namespace
} // namespace srbenes
