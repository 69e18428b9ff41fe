/**
 * @file
 * Tests for the external Waksman/looping setup: the fabric with
 * self-setting disabled must realize EVERY permutation, exhaustively
 * for N <= 8 and sampled up to N = 4096. The canonical, reduced and
 * seed-0 pinned setups are pinned by digest to the recursive form
 * the level-flat factor replaced, at every SIMD level.
 */

#include <algorithm>
#include <numeric>
#include <optional>

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "core/fast_kernels.hh"
#include "core/self_routing.hh"
#include "core/waksman.hh"
#include "core/waksman_reduced.hh"
#include "perm/bpc.hh"
#include "perm/f_class.hh"

namespace srbenes
{
namespace
{

TEST(Waksman, SingleSwitch)
{
    const SelfRoutingBenes net(1);
    for (const Permutation &d : {Permutation({0, 1}),
                                 Permutation({1, 0})}) {
        const auto states = waksmanSetup(net.topology(), d);
        EXPECT_TRUE(net.routeWithStates(d, states).success);
    }
}

TEST(Waksman, AllPermutationsN4)
{
    const SelfRoutingBenes net(2);
    std::vector<Word> dest(4);
    std::iota(dest.begin(), dest.end(), 0);
    do {
        const Permutation d(dest);
        const auto states = waksmanSetup(net.topology(), d);
        ASSERT_TRUE(net.routeWithStates(d, states).success)
            << d.toString();
    } while (std::next_permutation(dest.begin(), dest.end()));
}

TEST(Waksman, AllPermutationsN8)
{
    const SelfRoutingBenes net(3);
    std::vector<Word> dest(8);
    std::iota(dest.begin(), dest.end(), 0);
    do {
        const Permutation d(dest);
        const auto states = waksmanSetup(net.topology(), d);
        ASSERT_TRUE(net.routeWithStates(d, states).success)
            << d.toString();
    } while (std::next_permutation(dest.begin(), dest.end()));
}

class WaksmanSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(WaksmanSweep, RandomPermutationsRealized)
{
    const unsigned n = GetParam();
    const SelfRoutingBenes net(n);
    Prng prng(n * 131);
    for (int trial = 0; trial < 15; ++trial) {
        const auto d = Permutation::random(std::size_t{1} << n, prng);
        const auto states = waksmanSetup(net.topology(), d);
        ASSERT_TRUE(net.routeWithStates(d, states).success);
    }
}

TEST_P(WaksmanSweep, HandlesPermutationsOutsideF)
{
    // The point of external setup: permutations the self-router
    // cannot do. Find a random non-F permutation and realize it.
    const unsigned n = GetParam();
    const SelfRoutingBenes net(n);
    Prng prng(n * 137);
    for (int trial = 0; trial < 200; ++trial) {
        const auto d = Permutation::random(std::size_t{1} << n, prng);
        if (inFClass(d))
            continue;
        EXPECT_FALSE(net.route(d).success);
        const auto states = waksmanSetup(net.topology(), d);
        EXPECT_TRUE(net.routeWithStates(d, states).success);
        return;
    }
    FAIL() << "no non-F permutation sampled (astronomically "
              "unlikely)";
}

INSTANTIATE_TEST_SUITE_P(Widths, WaksmanSweep,
                         ::testing::Values(2u, 3u, 4u, 5u, 7u, 10u));

TEST(Waksman, StateArrayShape)
{
    const BenesTopology topo(4);
    Prng prng(7);
    const auto states =
        waksmanSetup(topo, Permutation::random(16, prng));
    ASSERT_EQ(states.size(), topo.numStages());
    for (const auto &stage : states)
        ASSERT_EQ(stage.size(), topo.switchesPerStage());
}

TEST(WaksmanSeeded, EverySeedRealizesThePermutation)
{
    // The looping algorithm's free choices are POLICY: any coloring
    // realizes d, so every seed must yield a working setup.
    Prng prng(31);
    for (unsigned n = 1; n <= 12; ++n) {
        const SelfRoutingBenes net(n);
        for (int trial = 0; trial < 2; ++trial) {
            const Permutation d =
                Permutation::random(std::size_t{1} << n, prng);
            for (std::uint64_t seed = 0; seed <= 8; ++seed) {
                const auto states =
                    waksmanSetupSeeded(net.topology(), d, seed);
                EXPECT_TRUE(net.routeWithStates(d, states).success)
                    << "n=" << n << " seed=" << seed;
            }
        }
    }
}

TEST(WaksmanSeeded, SeedZeroIsTheCanonicalSetup)
{
    const BenesTopology topo(5);
    Prng prng(32);
    for (int trial = 0; trial < 5; ++trial) {
        const Permutation d = Permutation::random(32, prng);
        EXPECT_EQ(waksmanSetupSeeded(topo, d, 0),
                  waksmanSetup(topo, d));
    }
}

TEST(WaksmanSeeded, SeedsExerciseDifferentStates)
{
    // Distinct seeds must actually move some switch, or the Reroute
    // tier's reseeding would be a no-op.
    const BenesTopology topo(4);
    Prng prng(33);
    const Permutation d = Permutation::random(16, prng);
    const auto canonical = waksmanSetupSeeded(topo, d, 0);
    bool varied = false;
    for (std::uint64_t seed = 1; seed < 10 && !varied; ++seed)
        varied = waksmanSetupSeeded(topo, d, seed) != canonical;
    EXPECT_TRUE(varied);
}

TEST(WaksmanPinned, ExhaustiveSinglePinSweep)
{
    // Every non-center switch sits on a constraint loop with a free
    // coloring, so a single pin there is ALWAYS honorable; the
    // center stage (m == 1 subnetworks) is fully determined by the
    // sub-permutations, so a pin there may be unsatisfiable for a
    // given seed. Whenever setup succeeds the pin must be honored
    // bit-for-bit and the states must realize d.
    const unsigned n = 3;
    const SelfRoutingBenes net(n);
    const BenesTopology &topo = net.topology();
    Prng prng(34);
    const Permutation d = Permutation::random(8, prng);

    for (unsigned s = 0; s < topo.numStages(); ++s) {
        for (Word sw = 0; sw < topo.switchesPerStage(); ++sw) {
            for (std::uint8_t st : {std::uint8_t{0},
                                    std::uint8_t{1}}) {
                const StatePin pin{s, sw, st};
                bool satisfied = false;
                for (std::uint64_t seed = 0; seed < 8; ++seed) {
                    const auto states =
                        waksmanSetupPinned(topo, d, {pin}, seed);
                    if (!states)
                        continue;
                    satisfied = true;
                    EXPECT_EQ((*states)[s][sw], st);
                    EXPECT_TRUE(
                        net.routeWithStates(d, *states).success);
                }
                if (s != n - 1) {
                    EXPECT_TRUE(satisfied)
                        << "free pin (" << s << ", " << sw << ", "
                        << int(st) << ") refused";
                }
            }
        }
    }
}

TEST(WaksmanPinned, ConflictingPinsAreRefusedNotMisrouted)
{
    // Pinning one switch both ways cannot be satisfied; the setup
    // must answer nullopt rather than hand back a broken state set.
    const BenesTopology topo(3);
    Prng prng(35);
    const Permutation d = Permutation::random(8, prng);
    const std::vector<StatePin> pins{StatePin{0, 1, 0},
                                     StatePin{0, 1, 1}};
    EXPECT_FALSE(waksmanSetupPinned(topo, d, pins, 0).has_value());
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

/** FNV-1a over a setup's states, or over one marker for a refusal. */
std::uint64_t
statesDigest(std::uint64_t h, const std::optional<SwitchStates> &states)
{
    const auto feed = [&h](std::uint64_t w) {
        h ^= w;
        h *= 1099511628211ULL;
    };
    if (!states) {
        feed(0xff);
        return h;
    }
    for (const auto &stage : *states)
        for (std::uint8_t st : stage)
            feed(st);
    return h;
}

/** The digests' inputs: every permutation at n <= 3, else 32
 *  random ones. */
std::vector<Permutation>
digestInputs(unsigned n)
{
    const std::size_t size = std::size_t{1} << n;
    std::vector<Permutation> out;
    if (n <= 3) {
        std::vector<Word> dest(size);
        std::iota(dest.begin(), dest.end(), 0);
        do {
            out.emplace_back(dest);
        } while (std::next_permutation(dest.begin(), dest.end()));
        return out;
    }
    Prng prng(0xd16e57 + n);
    for (int k = 0; k < 32; ++k)
        out.push_back(Permutation::random(size, prng));
    return out;
}

/** Every SIMD level this host can run; restores dispatch on exit. */
struct EveryKernelLevel
{
    EveryKernelLevel()
    {
        for (SimdLevel level :
             {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512})
            if (simdLevelSupported(level))
                levels.push_back(level);
    }
    ~EveryKernelLevel() { setSimdLevel(detectSimdLevel()); }
    std::vector<SimdLevel> levels;
};

TEST(WaksmanDigest, CanonicalSetupsArePinned)
{
    // Digests of waksmanSetup and waksmanReducedSetup over
    // digestInputs(n), taken from the recursive looping setup before
    // the level-flat factor replaced it. The factor runs through the
    // kernel table, so every compiled level must reproduce them.
    // clang-format off
    static constexpr std::uint64_t kDigest[12][2] = {
        {0x9a691200c548b748ULL, 0x9a691200c548b748ULL}, // n = 1
        {0xd008e40492f78d23ULL, 0x142c7f71e9691df7ULL},
        {0xaf627c7b193cece3ULL, 0x34c8799db5a1d763ULL},
        {0xa060fdb9076ddfeeULL, 0xb1392802f2db1fecULL},
        {0x0a5fd4024d0e5a78ULL, 0x6a548935c5ec04dcULL},
        {0x0d7d644ce97fb0bcULL, 0xece4deddd5825f3cULL},
        {0xdfb74ace3054b0c8ULL, 0xf651cba997caab28ULL},
        {0xb54b63a0cab0629dULL, 0xcc89640cafe70a27ULL},
        {0xed1209f53c4af63cULL, 0xf4d092b9a02ba976ULL},
        {0xaa236a6a5ad85307ULL, 0x3c83f81b917f0129ULL},
        {0xd7b468ddb78645dcULL, 0xd52f88106998ccf8ULL},
        {0x95879a4bd7c82306ULL, 0x5af695b85a14f446ULL}, // n = 12
    };
    // clang-format on
    std::vector<std::vector<Permutation>> inputs;
    for (unsigned n = 1; n <= 12; ++n)
        inputs.push_back(digestInputs(n));
    const EveryKernelLevel every;
    for (SimdLevel level : every.levels) {
        setSimdLevel(level);
        for (unsigned n = 1; n <= 12; ++n) {
            const BenesTopology topo(n);
            std::uint64_t plain = kFnvBasis;
            std::uint64_t reduced = kFnvBasis;
            for (const Permutation &d : inputs[n - 1]) {
                plain = statesDigest(plain, waksmanSetup(topo, d));
                reduced =
                    statesDigest(reduced, waksmanReducedSetup(topo, d));
            }
            EXPECT_EQ(plain, kDigest[n - 1][0])
                << simdLevelName(level) << " n=" << n;
            EXPECT_EQ(reduced, kDigest[n - 1][1])
                << simdLevelName(level) << " n=" << n;
        }
    }
}

/** @p count random pins, any stage, switch and state. */
std::vector<StatePin>
randomPins(const BenesTopology &topo, Prng &prng, std::size_t count)
{
    std::vector<StatePin> pins;
    for (std::size_t k = 0; k < count; ++k)
        pins.push_back(StatePin{
            static_cast<unsigned>(prng.below(topo.numStages())),
            prng.below(topo.switchesPerStage()),
            static_cast<std::uint8_t>(prng.below(2))});
    return pins;
}

TEST(WaksmanDigest, SeedZeroPinnedSetupsArePinned)
{
    // waksmanSetupPinned at seed 0, states and refusals alike, from
    // the recursive setup: every single pin at n = 3 over eight
    // permutations (32 of the 320 refused), then 64 random sets of
    // one to six pins at each n = 4..8 (13 to 21 of each 64 refused).
    static constexpr std::uint64_t kSinglePins = 0x747c29fd486ca957ULL;
    static constexpr std::uint64_t kPinSets[5] = {
        0x1dfdfc33608d2be8ULL, 0xcb15c6fce533b217ULL, 0x28dc23044eef695cULL,
        0x7d0e58b36020d05eULL, 0x8c33204b29c3e117ULL};
    const EveryKernelLevel every;
    for (SimdLevel level : every.levels) {
        setSimdLevel(level);
        const BenesTopology topo3(3);
        Prng prng(0x5ee0);
        std::uint64_t h = kFnvBasis;
        for (int k = 0; k < 8; ++k) {
            const Permutation d = Permutation::random(8, prng);
            for (unsigned s = 0; s < topo3.numStages(); ++s)
                for (Word sw = 0; sw < topo3.switchesPerStage(); ++sw)
                    for (std::uint8_t st : {0, 1})
                        h = statesDigest(
                            h, waksmanSetupPinned(topo3, d,
                                                  {StatePin{s, sw, st}}));
        }
        EXPECT_EQ(h, kSinglePins) << simdLevelName(level);

        for (unsigned n = 4; n <= 8; ++n) {
            const BenesTopology topo(n);
            Prng draw(0x5ee0 + n);
            std::uint64_t hn = kFnvBasis;
            for (int k = 0; k < 64; ++k) {
                const Permutation d =
                    Permutation::random(std::size_t{1} << n, draw);
                const auto pins =
                    randomPins(topo, draw, 1 + draw.below(6));
                hn = statesDigest(hn, waksmanSetupPinned(topo, d, pins));
            }
            EXPECT_EQ(hn, kPinSets[n - 4])
                << simdLevelName(level) << " n=" << n;
        }
    }
}

TEST(WaksmanPinned, AcceptedPinSetsAreHonoredAtEverySeed)
{
    // Whatever a seed's descent accepts realizes d and keeps every
    // pin, many pins at once included.
    Prng prng(36);
    for (unsigned n = 2; n <= 8; ++n) {
        const SelfRoutingBenes net(n);
        const BenesTopology &topo = net.topology();
        for (int trial = 0; trial < 16; ++trial) {
            const Permutation d =
                Permutation::random(std::size_t{1} << n, prng);
            const auto pins = randomPins(topo, prng, 1 + prng.below(8));
            for (std::uint64_t seed = 0; seed <= 8; ++seed) {
                const auto states =
                    waksmanSetupPinned(topo, d, pins, seed);
                if (!states)
                    continue;
                EXPECT_TRUE(net.routeWithStates(d, *states).success)
                    << "n=" << n << " seed=" << seed;
                for (const StatePin &pin : pins)
                    EXPECT_EQ((*states)[pin.stage][pin.switch_index],
                              pin.state)
                        << "n=" << n << " seed=" << seed;
            }
        }
    }
}

TEST(WaksmanPinned, StateOtherThanZeroOrOneIsFatal)
{
    // A switch is straight or crossed; a pin asking for anything
    // else is refused outright, as an out-of-range one is, rather
    // than silently ignored.
    const BenesTopology topo(3);
    const Permutation d = Permutation::identity(8);
    EXPECT_DEATH(waksmanSetupPinned(topo, d, {StatePin{0, 1, 2}}),
                 "state 2");
    EXPECT_DEATH(waksmanSetupPinned(topo, d, {StatePin{2, 0, 255}}),
                 "state 255");
    EXPECT_DEATH(waksmanSetupPinned(topo, d, {StatePin{5, 0, 0}}),
                 "out of range");
}

TEST(Waksman, SelfRoutableInputsMayDifferInStatesButAgreeInEffect)
{
    // For a permutation in F both drive styles succeed; the realized
    // destinations must agree even if individual switch states
    // differ (the Benes decomposition is not unique).
    const SelfRoutingBenes net(4);
    Prng prng(23);
    const Permutation d = BpcSpec::random(4, prng).toPermutation();
    const auto self_res = net.route(d);
    const auto states = waksmanSetup(net.topology(), d);
    const auto ext_res = net.routeWithStates(d, states);
    ASSERT_TRUE(self_res.success);
    ASSERT_TRUE(ext_res.success);
    EXPECT_EQ(self_res.realized_dest, ext_res.realized_dest);
}

} // namespace
} // namespace srbenes
