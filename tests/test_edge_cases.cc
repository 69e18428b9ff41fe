/**
 * @file
 * Cross-module boundary and failure-path coverage: the degenerate
 * n = 1 fabric everywhere, size-mismatch and malformed-input
 * fatal()s, and API misuse that must die loudly rather than
 * corrupt a result.
 */

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "common/table.hh"
#include "core/pipeline.hh"
#include "core/self_routing.hh"
#include "core/waksman.hh"
#include "networks/gcn.hh"
#include "packet/fabric.hh"
#include "perm/bpc.hh"
#include "perm/compose.hh"
#include "simd/permute.hh"

namespace srbenes
{
namespace
{

TEST(EdgeCases, SmallestFabricEverywhere)
{
    // n = 1: a single switch. Every subsystem must handle it.
    const SelfRoutingBenes net(1);
    EXPECT_TRUE(net.route(Permutation({1, 0})).success);
    EXPECT_TRUE(net.route(Permutation({0, 1})).success);

    PipelinedBenes pipe(1);
    pipe.inject(Permutation({1, 0}), {7, 9});
    const auto out = pipe.clockTick();
    ASSERT_TRUE(out.has_value()); // latency 2*1-1 = 1
    EXPECT_TRUE(out->success);
    EXPECT_EQ(out->payloads, (std::vector<Word>{9, 7}));

    CubeMachine ccc(1);
    ccc.loadIota(Permutation({1, 0}));
    EXPECT_TRUE(cccPermute(ccc).success);
    EXPECT_EQ(ccc.unitRoutes(), 1u);

    ShuffleMachine psc(1);
    psc.loadIota(Permutation({1, 0}));
    EXPECT_TRUE(pscPermute(psc).success);

    const GcnNetwork gcn(1);
    EXPECT_EQ(gcn.routeMapping({1, 1}, {5, 6}),
              (std::vector<Word>{6, 6}));

    // Packet mode as plain tag routing: TagBits midpath,
    // backpressure, two-deep rings, metrics off.
    packet::PacketOptions popts;
    popts.queue_capacity = 2;
    popts.ingress_capacity = 1;
    popts.contention = packet::ContentionPolicy::Backpressure;
    popts.midpath = packet::MidpathPolicy::TagBits;
    packet::Fabric pkt(1, popts, nullptr);
    EXPECT_TRUE(pkt.runPermutation(Permutation({1, 0})).allDelivered());
}

TEST(EdgeCases, SizeMismatchesDie)
{
    const SelfRoutingBenes net(3);
    EXPECT_DEATH(net.route(Permutation::identity(4)),
                 "does not match");
    EXPECT_DEATH(net.permutePayloads(Permutation::identity(8),
                                     {1, 2, 3}),
                 "payload");
    EXPECT_DEATH(
        net.routeWithStates(Permutation::identity(8),
                            BenesTopology(2).makeStates()),
        "stages");
    EXPECT_DEATH(waksmanSetup(net.topology(),
                              Permutation::identity(16)),
                 "does not match");
}

TEST(EdgeCases, MalformedPermutationDies)
{
    EXPECT_DEATH(Permutation({0, 0, 1, 1}), "not a permutation");
    EXPECT_DEATH(Permutation({0, 1, 2, 9}), "not a permutation");
    EXPECT_DEATH(Permutation(std::vector<Word>{}),
                 "not a permutation");
}

TEST(EdgeCases, NonPowerOfTwoSizesRejectedWhereRequired)
{
    // The algebra allows any size; network classes need 2^n.
    const Permutation p{2, 0, 1};
    EXPECT_EQ(p.then(p).size(), 3u); // fine
    EXPECT_DEATH(p.log2Size(), "not a power of two");
}

TEST(EdgeCases, BadBpcSpecsDie)
{
    EXPECT_DEATH(BpcSpec::fromPaper({"0", "0"}),
                 "not a permutation");
    EXPECT_DEATH(BpcSpec::fromPaper({"2", "x"}), "malformed");
    EXPECT_DEATH(BpcSpec::fromPaper({}), "at least one");
}

TEST(EdgeCases, ComposeMaskValidation)
{
    // Wrong block-permutation sizes die rather than mis-map.
    EXPECT_DEATH(blockwisePermutation(
                     3, 0b100,
                     std::vector<Permutation>{
                         Permutation::identity(4)}),
                 "block permutations");
    EXPECT_DEATH(blockwisePermutation(3, 0b100,
                                      Permutation::identity(2)),
                 "block permutation size");
}

TEST(EdgeCases, TableMisuseDies)
{
    TextTable t({"one"});
    t.addRow({"a"});
    EXPECT_DEATH(t.addCell("overflow"), "more cells");
}

TEST(EdgeCases, TopologyBounds)
{
    EXPECT_DEATH(BenesTopology(0), "out of supported range");
    EXPECT_DEATH(BenesTopology(31), "out of supported range");
}

TEST(EdgeCases, MachineHintValidation)
{
    CubeMachine m(3);
    m.loadIota(Permutation::identity(8));
    const BpcSpec wrong = BpcSpec::identity(4);
    EXPECT_DEATH(cccPermute(m, PermClassHint::General, &wrong),
                 "does not match");
}

TEST(EdgeCases, RoutesPerInterchangeValidation)
{
    EXPECT_DEATH(CubeMachine(3, 0), "one or two");
    EXPECT_DEATH(CubeMachine(3, 3), "one or two");
}

TEST(EdgeCases, GcnSizeValidation)
{
    const GcnNetwork gcn(2);
    EXPECT_DEATH(gcn.routeMapping({0, 1}, {0, 1, 2, 3}),
                 "mismatch");
}

} // namespace
} // namespace srbenes
