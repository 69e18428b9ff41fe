/**
 * @file
 * Tests for the packet-switched fabric (packet::Fabric): universal
 * delivery under every midpath policy (exhaustive at N = 8),
 * conservation accounting under every traffic-matrix/policy
 * combination, eventual delivery under backpressure (feed-forward
 * => deadlock-free), bit-exact payload delivery against
 * Permutation::applyTo, registry wiring, and plain tag routing (the
 * E17 packet-mode evidence: a fabric with TagBits midpath,
 * backpressure and shallow rings).
 */

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "packet/fabric.hh"
#include "packet/traffic.hh"
#include "perm/f_class.hh"
#include "perm/named_bpc.hh"
#include "perm/omega_class.hh"
#include "rand_iters.hh"

namespace srbenes
{
namespace
{

using packet::ContentionPolicy;
using packet::Fabric;
using packet::FabricStats;
using packet::MidpathPolicy;
using packet::PacketOptions;

constexpr MidpathPolicy kMidpaths[] = {
    MidpathPolicy::LeastOccupancy,
    MidpathPolicy::Random,
    MidpathPolicy::TagBits,
};

constexpr ContentionPolicy kPolicies[] = {
    ContentionPolicy::Backpressure,
    ContentionPolicy::Drop,
};

/** Every matrix in the traffic library, freshly built. */
std::vector<std::unique_ptr<packet::TrafficSource>>
allMatrices(unsigned n, double load, std::uint64_t seed)
{
    std::vector<std::unique_ptr<packet::TrafficSource>> out;
    out.push_back(
        std::make_unique<packet::UniformTraffic>(n, load, seed));
    out.push_back(std::make_unique<packet::HotSpotTraffic>(
        n, load, 0.25, 0, seed));
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

TEST(Fabric, IdentityTagBitsIsStallFreeAtStageCountLatency)
{
    for (unsigned n : {2u, 4u, 6u}) {
        PacketOptions opts;
        opts.midpath = MidpathPolicy::TagBits;
        Fabric fabric(n, opts, nullptr);
        const FabricStats st = fabric.runPermutation(
            Permutation::identity(std::size_t{1} << n));
        EXPECT_TRUE(st.allDelivered());
        EXPECT_TRUE(st.conserved);
        EXPECT_EQ(st.stalls, 0u);
        // One hop per stage after injection.
        EXPECT_EQ(st.min_latency, 2 * n - 1);
        EXPECT_EQ(st.max_latency, 2 * n - 1);
    }
}

TEST(Fabric, AllPermutationsDeliverN8UnderEveryMidpath)
{
    // Exhaustive proof (at N = 8) that the closing omega half
    // self-routes from ANY middle line: whatever port the first n-1
    // stages pick, every packet reaches its destination (a misroute
    // would panic inside deliver()).
    for (const MidpathPolicy mp : kMidpaths) {
        PacketOptions opts;
        opts.midpath = mp;
        Fabric fabric(3, opts, nullptr);
        std::vector<Word> dest(8);
        std::iota(dest.begin(), dest.end(), 0);
        do {
            const FabricStats st =
                fabric.runPermutation(Permutation(dest));
            ASSERT_TRUE(st.allDelivered())
                << midpathPolicyName(mp) << " "
                << Permutation(dest).toString();
            ASSERT_TRUE(st.conserved);
        } while (std::next_permutation(dest.begin(), dest.end()));
    }
}

TEST(Fabric, BitExactDeliveryMatchesApplyTo)
{
    // Under backpressure nothing is lost, so pushing payloads
    // through the wires must equal the algebraic permutation.
    const unsigned n = 5;
    const Word size = Word{1} << n;
    Prng prng(21);
    const int trials = randIters(12);
    for (const MidpathPolicy mp : kMidpaths) {
        PacketOptions opts;
        opts.midpath = mp;
        Fabric fabric(n, opts, nullptr);
        for (int t = 0; t < trials; ++t) {
            const Permutation d = Permutation::random(size, prng);
            std::vector<Word> data(size);
            for (Word i = 0; i < size; ++i)
                data[i] = prng();
            std::vector<Word> out;
            const FabricStats st =
                fabric.runPermutation(d, data, out);
            ASSERT_TRUE(st.allDelivered());
            EXPECT_EQ(out, d.applyTo(data))
                << midpathPolicyName(mp) << " " << d.toString();
        }
    }
}

TEST(Fabric, ConservationHoldsForEveryMatrixAndPolicy)
{
    // The tentpole invariant: offered == injected + rejected and
    // injected == delivered + dropped + in-flight, for every
    // traffic matrix under both contention policies (and a drained
    // fabric has nothing in flight).
    const unsigned n = 4;
    std::uint64_t seed = 97;
    for (const ContentionPolicy cp : kPolicies)
        for (const MidpathPolicy mp : kMidpaths)
            for (auto &matrix : allMatrices(n, 0.7, ++seed)) {
                PacketOptions opts;
                opts.contention = cp;
                opts.midpath = mp;
                Fabric fabric(n, opts, nullptr);
                const FabricStats st = fabric.run(*matrix, 300);
                ASSERT_TRUE(st.conserved)
                    << matrix->name() << " / "
                    << contentionPolicyName(cp) << " / "
                    << midpathPolicyName(mp);
                EXPECT_EQ(st.in_flight, 0u);
                EXPECT_EQ(st.injected,
                          st.delivered + st.dropped);
                if (cp == ContentionPolicy::Backpressure) {
                    EXPECT_EQ(st.dropped, 0u) << matrix->name();
                }
            }
}

TEST(Fabric, EventualDeliveryUnderBackpressure)
{
    // Feed-forward wires cannot deadlock: even one-slot rings under
    // a saturating hot-spot drain completely and lose nothing
    // (drainAll() panics if the fabric ever wedges).
    const unsigned n = 5;
    PacketOptions opts;
    opts.queue_capacity = 1;
    opts.ingress_capacity = 1;
    opts.contention = ContentionPolicy::Backpressure;
    Fabric fabric(n, opts, nullptr);
    packet::HotSpotTraffic matrix(n, 0.9, 0.5, 3, 17);
    const FabricStats st = fabric.run(matrix, 400);
    EXPECT_TRUE(st.conserved);
    EXPECT_EQ(st.dropped, 0u);
    EXPECT_EQ(st.delivered, st.injected);
    EXPECT_EQ(st.in_flight, 0u);
    EXPECT_GT(st.stalls, 0u);
}

TEST(Fabric, DropPolicyAccountsEveryLoss)
{
    const unsigned n = 5;
    PacketOptions opts;
    opts.contention = ContentionPolicy::Drop;
    Fabric fabric(n, opts, nullptr);
    packet::HotSpotTraffic matrix(n, 0.9, 0.5, 0, 23);
    const FabricStats st = fabric.run(matrix, 500);
    EXPECT_TRUE(st.conserved);
    EXPECT_GT(st.dropped, 0u); // a saturated hot-spot must shed
    EXPECT_EQ(st.injected, st.delivered + st.dropped);
    // Losses keep latency bounded: the drop fabric's worst packet
    // beats the queueing collapse backpressure would show here.
    EXPECT_LT(st.avg_latency, 10.0 * (2 * n - 1));
}

TEST(Fabric, OccupancyNeverExceedsRingCapacity)
{
    const unsigned n = 4;
    PacketOptions opts;
    opts.queue_capacity = 3;
    opts.ingress_capacity = 5;
    Fabric fabric(n, opts, nullptr);
    packet::UniformTraffic matrix(n, 0.9, 31);
    const FabricStats st = fabric.run(matrix, 300);
    EXPECT_TRUE(st.conserved);
    EXPECT_LE(st.max_occupancy, 3u);
    EXPECT_LE(st.max_ingress_occupancy, 5u);
    EXPECT_GT(st.max_occupancy, 0u);
}

TEST(Fabric, IngressFullMeansRejectedNeverLost)
{
    PacketOptions opts;
    opts.ingress_capacity = 1;
    Fabric fabric(3, opts, nullptr);
    EXPECT_TRUE(fabric.offer(0, 5));
    EXPECT_FALSE(fabric.offer(0, 6)); // same ring, still full
    fabric.drainAll();
    const FabricStats st = fabric.stats();
    EXPECT_TRUE(st.conserved);
    EXPECT_EQ(st.offered, 2u);
    EXPECT_EQ(st.injected, 1u);
    EXPECT_EQ(st.rejected, 1u);
    EXPECT_EQ(st.delivered, 1u);
}

TEST(Fabric, LoadBalancedMidpathBeatsTagBitsUnderCongestion)
{
    // The Huang & Walrand point: tag-bit routing follows ONE path
    // per (src, dst) pair, so a skewed-but-legal matrix like
    // sustained bit reversal piles every packet onto the same
    // middle trunks; spreading across the equivalent middle lines
    // removes the hot trunks. Same traffic, same seeds -- fewer
    // stalls, far shorter delays, and no ingress saturation.
    const unsigned n = 6;
    auto runWith = [&](MidpathPolicy mp) {
        PacketOptions opts;
        opts.midpath = mp;
        Fabric fabric(n, opts, nullptr);
        packet::PermutationTraffic matrix(
            n, 0.6, named::bitReversal(n).toPermutation(), 41);
        return fabric.run(matrix, 500);
    };
    const FabricStats tag = runWith(MidpathPolicy::TagBits);
    const FabricStats lo = runWith(MidpathPolicy::LeastOccupancy);
    EXPECT_TRUE(tag.conserved);
    EXPECT_TRUE(lo.conserved);
    EXPECT_LT(lo.stalls, tag.stalls);
    EXPECT_LT(lo.max_latency, tag.max_latency);
    EXPECT_LT(lo.avg_latency, tag.avg_latency);
    EXPECT_EQ(lo.rejected, 0u);   // balanced fabric keeps up
    EXPECT_GT(tag.rejected, 0u);  // single-path trunks back up
}

TEST(Fabric, RunHelpersReportPerRunDeltas)
{
    Fabric fabric(3, {}, nullptr);
    const Permutation d = Permutation::identity(8);
    const FabricStats first = fabric.runPermutation(d);
    const FabricStats second = fabric.runPermutation(d);
    EXPECT_EQ(first.injected, 8u);
    EXPECT_EQ(second.injected, 8u); // a delta, not a lifetime sum
    EXPECT_EQ(fabric.stats().injected, 16u);
    EXPECT_TRUE(fabric.stats().conserved);
}

TEST(Fabric, ResetFlushesInFlightIntoDropped)
{
    Fabric fabric(3, {}, nullptr);
    for (Word i = 0; i < 8; ++i)
        ASSERT_TRUE(fabric.offer(i, 7 - i));
    fabric.step();
    fabric.reset();
    EXPECT_TRUE(fabric.empty());
    EXPECT_EQ(fabric.cycle(), 0u);
    const FabricStats st = fabric.stats();
    EXPECT_TRUE(st.conserved); // the flush is accounted, not lost
    EXPECT_EQ(st.dropped, 8u);
}

TEST(Fabric, DeliverySinkSeesEveryPacketOnce)
{
    Fabric fabric(4, {}, nullptr);
    std::vector<std::uint64_t> hits(16, 0);
    fabric.setDeliverySink([&hits](const packet::Delivery &del) {
        ++hits[del.dst];
        EXPECT_GE(del.latency, 7u);
    });
    Prng prng(47);
    fabric.runPermutation(Permutation::random(16, prng));
    for (const std::uint64_t h : hits)
        EXPECT_EQ(h, 1u);
}

TEST(Fabric, RegistryMirrorsTheExactTallies)
{
    obs::MetricsRegistry reg;
    Fabric fabric(4, {}, &reg);
    packet::UniformTraffic matrix(4, 0.5, 53);
    fabric.run(matrix, 200);
    const FabricStats st = fabric.stats();

    std::uint64_t delivered = 0, injected = 0;
    reg.visit([&](const obs::MetricsRegistry::View &v) {
        if (v.name == "srbenes_packet_delivered_total")
            delivered = v.counter->value();
        if (v.name == "srbenes_packet_injected_total")
            injected = v.counter->value();
    });
    EXPECT_EQ(delivered, st.delivered);
    EXPECT_EQ(injected, st.injected);
    EXPECT_GT(st.p50_latency, 0u); // histogram attached
    EXPECT_GE(st.p99_latency, st.p50_latency);

    const std::string text = obs::exposeText(reg);
    EXPECT_NE(text.find("srbenes_packet_latency_cycles"),
              std::string::npos);
    EXPECT_NE(text.find("srbenes_packet_queue_depth"),
              std::string::npos);
}

TEST(Fabric, DarkFabricStaysExact)
{
    // metrics = nullptr turns exposition off, never the accounting;
    // only the histogram-backed percentiles read zero.
    Fabric fabric(4, {}, nullptr);
    packet::UniformTraffic matrix(4, 0.5, 59);
    const FabricStats st = fabric.run(matrix, 200);
    EXPECT_TRUE(st.conserved);
    EXPECT_GT(st.delivered, 0u);
    EXPECT_GT(st.avg_latency, 0.0);
    EXPECT_EQ(st.p50_latency, 0u);
    EXPECT_EQ(st.p99_latency, 0u);
}

TEST(Fabric, SameSeedReplaysSameSchedule)
{
    auto once = [] {
        PacketOptions opts;
        opts.midpath = MidpathPolicy::Random;
        Fabric fabric(4, opts, nullptr);
        packet::BurstyTraffic matrix(4, 0.6, 8.0, 61);
        return fabric.run(matrix, 250);
    };
    const FabricStats a = once();
    const FabricStats b = once();
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.stalls, b.stalls);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.max_latency, b.max_latency);
}

// --- Plain tag routing (E17): every stage steers by its tag bit --
// --- and a blocked head waits.                                   --

/**
 * A fabric run as plain tag routing: TagBits midpath, backpressure,
 * @p fifo-deep rings at stages >= 1, ingress room for @p batches
 * whole permutation batches (so no offer is ever refused), and
 * metrics off.
 */
Fabric
tagRoutedFabric(unsigned n, std::size_t fifo = 2, std::size_t batches = 1)
{
    PacketOptions opts;
    opts.queue_capacity = fifo;
    opts.ingress_capacity = batches;
    opts.contention = ContentionPolicy::Backpressure;
    opts.midpath = MidpathPolicy::TagBits;
    return Fabric(n, opts, nullptr);
}

TEST(PacketTagRouting, IdentityFlowsWithoutStalls)
{
    for (unsigned n : {2u, 4u, 6u}) {
        Fabric fabric = tagRoutedFabric(n);
        const FabricStats stats = fabric.runPermutation(
            Permutation::identity(std::size_t{1} << n));
        EXPECT_TRUE(stats.allDelivered());
        EXPECT_EQ(stats.stalls, 0u);
        EXPECT_EQ(stats.min_latency, 2 * n - 1);
        EXPECT_EQ(stats.max_latency, 2 * n - 1);
    }
}

TEST(PacketTagRouting, AllPermutationsDeliverN8)
{
    Fabric fabric = tagRoutedFabric(3);
    std::vector<Word> dest(8);
    std::iota(dest.begin(), dest.end(), 0);
    do {
        const FabricStats stats =
            fabric.runPermutation(Permutation(dest));
        ASSERT_TRUE(stats.allDelivered())
            << Permutation(dest).toString();
    } while (std::next_permutation(dest.begin(), dest.end()));
}

TEST(PacketTagRouting, LatencyLowerBoundIsStageCount)
{
    Fabric fabric = tagRoutedFabric(4);
    Prng prng(3);
    for (int trial = 0; trial < 20; ++trial) {
        const FabricStats stats = fabric.runPermutation(
            Permutation::random(16, prng));
        EXPECT_TRUE(stats.allDelivered());
        EXPECT_GE(stats.min_latency, 7u);
        EXPECT_GE(stats.max_latency, stats.min_latency);
        EXPECT_GE(stats.avg_latency,
                  static_cast<double>(stats.min_latency));
    }
}

TEST(PacketTagRouting, BitReversalStallsDespiteBeingInF)
{
    // The central comparison: the circuit-switched rule carries bit
    // reversal conflict-free (it is in F), but per-packet tag
    // routing collides (e.g.\ tags 0 and 4 at stage-0 switch 0 both
    // request port 0).
    const unsigned n = 4;
    const Permutation d = named::bitReversal(n).toPermutation();
    ASSERT_TRUE(inFClass(d));
    Fabric fabric = tagRoutedFabric(n);
    const FabricStats stats = fabric.runPermutation(d);
    EXPECT_TRUE(stats.allDelivered());
    EXPECT_GT(stats.max_latency, 2 * n - 1);
}

TEST(PacketTagRouting, StreamThroughputApproachesOneBatchPerCycle)
{
    // Identity batches stream at full rate: K batches in
    // (2n-1) + K cycles (one extra for the injection offset). One
    // whole batch is offered per cycle.
    const unsigned n = 3;
    const std::size_t batches = 32;
    Fabric fabric = tagRoutedFabric(n, 2, batches);
    std::vector<std::vector<packet::Arrival>> schedule(batches);
    for (auto &batch : schedule)
        for (Word i = 0; i < 8; ++i)
            batch.push_back(packet::Arrival{i, i});
    packet::ScheduleTraffic source(std::move(schedule));
    const FabricStats stats = fabric.run(source, batches);
    EXPECT_TRUE(stats.allDelivered());
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.stalls, 0u);
    EXPECT_LE(stats.cycles, (2 * n - 1) + batches + 1u);
}

TEST(PacketTagRouting, TinyFifosStillDeliver)
{
    Fabric fabric = tagRoutedFabric(4, /*fifo=*/1);
    Prng prng(5);
    for (int trial = 0; trial < 10; ++trial) {
        const FabricStats stats = fabric.runPermutation(
            Permutation::random(16, prng));
        EXPECT_TRUE(stats.allDelivered());
    }
}

TEST(PacketTagRouting, DeeperFifosReduceStalls)
{
    const unsigned n = 5;
    Prng prng(7);
    const auto d = Permutation::random(32, prng);

    const FabricStats s1 =
        tagRoutedFabric(n, /*fifo=*/1).runPermutation(d);
    const FabricStats s2 =
        tagRoutedFabric(n, /*fifo=*/8).runPermutation(d);
    EXPECT_TRUE(s1.allDelivered());
    EXPECT_TRUE(s2.allDelivered());
    EXPECT_LE(s2.stalls, s1.stalls);
}

TEST(PacketTagRouting, OccupancyBoundedByCapacity)
{
    Fabric fabric = tagRoutedFabric(4, /*fifo=*/3);
    Prng prng(11);
    const FabricStats stats =
        fabric.runPermutation(Permutation::random(16, prng));
    EXPECT_LE(stats.max_occupancy, 3u);
}

} // namespace
} // namespace srbenes
