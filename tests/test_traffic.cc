/**
 * @file
 * Tests for the traffic-matrix library (packet/traffic.hh):
 * determinism under reset (equal seeds replay equal streams), the
 * offered-load calibration of every generator, matrix-specific
 * shape (hot-spot skew, burstiness, partial injectivity, multicast
 * fanout), and the ScheduleTraffic playback the packet tag-routing
 * tests use to offer one whole permutation batch per cycle.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "packet/traffic.hh"
#include "perm/named_bpc.hh"
#include "perm/permutation.hh"
#include "rand_iters.hh"

namespace srbenes
{
namespace
{

using packet::Arrival;

std::vector<Arrival>
collect(packet::TrafficSource &src, std::uint64_t cycles)
{
    std::vector<Arrival> all;
    for (std::uint64_t c = 0; c < cycles; ++c)
        src.arrivals(c, all);
    return all;
}

bool
sameArrivals(const std::vector<Arrival> &a,
             const std::vector<Arrival> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].src != b[i].src || a[i].dst != b[i].dst)
            return false;
    return true;
}

std::vector<std::unique_ptr<packet::TrafficSource>>
allRandomMatrices(unsigned n, double load, std::uint64_t seed)
{
    std::vector<std::unique_ptr<packet::TrafficSource>> out;
    out.push_back(
        std::make_unique<packet::UniformTraffic>(n, load, seed));
    out.push_back(std::make_unique<packet::HotSpotTraffic>(
        n, load, 0.3, 2, seed));
    out.push_back(std::make_unique<packet::BurstyTraffic>(
        n, std::min(load, 0.8), 8.0, seed));
    out.push_back(std::make_unique<packet::PartialTraffic>(
        n, load, 0.5, seed));
    out.push_back(std::make_unique<packet::MulticastTraffic>(
        n, load, 4, seed));
    out.push_back(std::make_unique<packet::PermutationTraffic>(
        n, load, named::bitReversal(n).toPermutation(), seed));
    return out;
}

TEST(Traffic, ResetReplaysTheExactSameStream)
{
    for (auto &src : allRandomMatrices(5, 0.6, 77)) {
        const auto first = collect(*src, 200);
        src->reset();
        const auto second = collect(*src, 200);
        EXPECT_TRUE(sameArrivals(first, second)) << src->name();
        EXPECT_FALSE(first.empty()) << src->name();
    }
}

TEST(Traffic, DifferentSeedsDifferentStreams)
{
    for (std::size_t i = 0; i < allRandomMatrices(5, 0.6, 1).size();
         ++i) {
        auto a = std::move(allRandomMatrices(5, 0.6, 1)[i]);
        auto b = std::move(allRandomMatrices(5, 0.6, 2)[i]);
        EXPECT_FALSE(
            sameArrivals(collect(*a, 200), collect(*b, 200)))
            << a->name();
    }
}

TEST(Traffic, ArrivalsStayInRange)
{
    const unsigned n = 4;
    const Word size = Word{1} << n;
    for (auto &src : allRandomMatrices(n, 0.9, 131))
        for (const Arrival &a : collect(*src, 300)) {
            ASSERT_LT(a.src, size) << src->name();
            ASSERT_LT(a.dst, size) << src->name();
        }
}

TEST(Traffic, OfferedLoadIsCalibrated)
{
    // Long-run arrival rate per SENDING port tracks the load knob.
    // (Partial: half the ports send; multicast: fanout arrivals per
    // event at load/fanout events -- both normalize back to load.)
    const unsigned n = 6;
    const double size = static_cast<double>(Word{1} << n);
    const std::uint64_t cycles =
        static_cast<std::uint64_t>(randIters(3000));
    const double load = 0.5;
    for (auto &src : allRandomMatrices(n, load, 211)) {
        const double ports =
            std::string(src->name()) == "partial" ? size / 2 : size;
        const double rate =
            static_cast<double>(collect(*src, cycles).size()) /
            (static_cast<double>(cycles) * ports);
        EXPECT_NEAR(rate, load, 0.05) << src->name();
    }
}

TEST(Traffic, HotSpotConcentratesOnTheHotLine)
{
    const unsigned n = 6;
    const double hot_fraction = 0.3;
    packet::HotSpotTraffic src(n, 0.5, hot_fraction, 9, 307);
    const auto all = collect(src, 2000);
    std::uint64_t hot = 0;
    for (const Arrival &a : all)
        hot += a.dst == 9 ? 1 : 0;
    // hot_fraction aimed shots plus the uniform background's share.
    const double expect =
        hot_fraction +
        (1.0 - hot_fraction) / static_cast<double>(Word{1} << n);
    const double got = static_cast<double>(hot) /
                       static_cast<double>(all.size());
    EXPECT_NEAR(got, expect, 0.05);
}

TEST(Traffic, BurstySourcesSendInRuns)
{
    // A source that sent last cycle sends again with probability
    // 1 - 1/B, far above its stationary load -- that correlation IS
    // the burstiness (uniform traffic shows none).
    const unsigned n = 5;
    const Word size = Word{1} << n;
    const double load = 0.5, mean_burst = 8.0;
    packet::BurstyTraffic src(n, load, mean_burst, 401);
    const std::uint64_t cycles = 4000;
    std::vector<std::vector<std::uint8_t>> sent(
        cycles, std::vector<std::uint8_t>(size, 0));
    std::vector<Arrival> buf;
    for (std::uint64_t c = 0; c < cycles; ++c) {
        buf.clear();
        src.arrivals(c, buf);
        for (const Arrival &a : buf)
            sent[c][a.src] = 1;
    }
    std::uint64_t repeats = 0, prev_sends = 0;
    for (std::uint64_t c = 1; c < cycles; ++c)
        for (Word s = 0; s < size; ++s)
            if (sent[c - 1][s]) {
                ++prev_sends;
                repeats += sent[c][s];
            }
    const double cond = static_cast<double>(repeats) /
                        static_cast<double>(prev_sends);
    EXPECT_NEAR(cond, 1.0 - 1.0 / mean_burst, 0.05);
    EXPECT_GT(cond, load + 0.2); // visibly burstier than Bernoulli
}

TEST(Traffic, PartialIsAnInjectivePartialPermutation)
{
    const unsigned n = 5;
    const Word size = Word{1} << n;
    packet::PartialTraffic src(n, 1.0, 0.5, 503);
    EXPECT_EQ(src.activeSources(), size / 2);
    const auto all = collect(src, 50);
    std::set<Word> senders;
    std::vector<std::set<Word>> dsts_of(size);
    for (const Arrival &a : all) {
        senders.insert(a.src);
        dsts_of[a.src].insert(a.dst);
    }
    // At load 1.0 exactly the active half sends, each to ONE
    // destination, and no two sources share a destination.
    EXPECT_EQ(senders.size(), size / 2);
    std::set<Word> used;
    for (const Word s : senders) {
        ASSERT_EQ(dsts_of[s].size(), 1u);
        EXPECT_TRUE(used.insert(*dsts_of[s].begin()).second);
    }
}

TEST(Traffic, MulticastEmitsDistinctFanout)
{
    const unsigned n = 5;
    const Word fanout = 4;
    packet::MulticastTraffic src(n, 0.6, fanout, 601);
    std::vector<Arrival> buf;
    for (std::uint64_t c = 0; c < 500; ++c) {
        buf.clear();
        src.arrivals(c, buf);
        // Arrivals come in per-event groups of exactly fanout with
        // distinct destinations.
        ASSERT_EQ(buf.size() % fanout, 0u);
        for (std::size_t g = 0; g < buf.size(); g += fanout) {
            std::set<Word> dsts;
            for (Word k = 0; k < fanout; ++k) {
                EXPECT_EQ(buf[g + k].src, buf[g].src);
                dsts.insert(buf[g + k].dst);
            }
            EXPECT_EQ(dsts.size(), fanout);
        }
    }
}

TEST(Traffic, PermutationTrafficFollowsD)
{
    const unsigned n = 4;
    const Permutation d = named::bitReversal(n).toPermutation();
    packet::PermutationTraffic src(n, 0.7, d, 701);
    for (const Arrival &a : collect(src, 300))
        ASSERT_EQ(a.dst, d[a.src]);
}

TEST(Traffic, ScheduleReplaysVerbatimThenGoesQuiet)
{
    std::vector<std::vector<Arrival>> sched{
        {{0, 3}, {1, 2}},
        {},
        {{2, 0}},
    };
    packet::ScheduleTraffic src(sched);
    EXPECT_EQ(src.length(), 3u);
    std::vector<Arrival> buf;
    src.arrivals(0, buf);
    ASSERT_EQ(buf.size(), 2u);
    EXPECT_EQ(buf[1].dst, 2u);
    buf.clear();
    src.arrivals(1, buf);
    EXPECT_TRUE(buf.empty());
    src.arrivals(2, buf);
    ASSERT_EQ(buf.size(), 1u);
    EXPECT_EQ(buf[0].src, 2u);
    buf.clear();
    src.arrivals(3, buf); // exhausted
    EXPECT_TRUE(buf.empty());
    src.reset();
    src.arrivals(0, buf);
    EXPECT_EQ(buf.size(), 2u); // rewound
}

TEST(Traffic, RejectsBadParameters)
{
    EXPECT_DEATH(packet::UniformTraffic(4, 1.5), "load");
    EXPECT_DEATH(packet::HotSpotTraffic(4, 0.5, 2.0), "fraction");
    EXPECT_DEATH(packet::BurstyTraffic(4, 0.95, 8.0), "bursty");
    EXPECT_DEATH(packet::MulticastTraffic(4, 0.5, 0), "fanout");
}

} // namespace
} // namespace srbenes
