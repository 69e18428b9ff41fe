/**
 * @file
 * Tests for the flattened B(n) topology: counts, control bits, the
 * closed-form wiring against the recursion of Fig. 1, the block
 * moves across a boundary, and the slot map FastEngine routes in.
 */

#include <cstdint>
#include <numeric>

#include <gtest/gtest.h>

#include "core/topology.hh"

namespace srbenes
{
namespace
{

/** The widest fabric the closed forms are checked at. */
constexpr unsigned kMaxCheckedN = 16;

/** wires[boundary][line], the table the recursion fills. */
using WiringTable = std::vector<std::vector<std::uint32_t>>;

/**
 * Fig. 1's recursion, the oracle for the closed form: B(m) on lines
 * [base_line, base_line + 2^m) is an opening stage at base_stage,
 * two B(m-1) halves, and a closing stage at base_stage + 2m - 2.
 */
void
figOneWiring(WiringTable &wires, unsigned m, Word base_line,
             unsigned base_stage)
{
    if (m == 1)
        return;
    const Word size = Word{1} << m;
    const Word half = size / 2;

    // Boundary after the opening stage: switch j>>1's upper (lower)
    // output feeds input j>>1 of the upper (lower) B(m-1) half.
    for (Word j = 0; j < size; ++j)
        wires[base_stage][base_line + j] = static_cast<std::uint32_t>(
            base_line + (j & 1) * half + (j >> 1));

    // Boundary before the closing stage: output j of the upper
    // (lower) half feeds the upper (lower) port of closing switch j.
    const unsigned last = base_stage + 2 * m - 3;
    for (Word j = 0; j < size; ++j)
        wires[last][base_line + j] = static_cast<std::uint32_t>(
            base_line + ((j < half) ? 2 * j : 2 * (j - half) + 1));

    figOneWiring(wires, m - 1, base_line, base_stage + 1);
    figOneWiring(wires, m - 1, base_line + half, base_stage + 1);
}

WiringTable
figOneWiring(unsigned n)
{
    WiringTable wires(2 * n - 2,
                      std::vector<std::uint32_t>(Word{1} << n));
    figOneWiring(wires, n, 0, 0);
    return wires;
}

TEST(Topology, CountsMatchPaperFormulas)
{
    for (unsigned n = 1; n <= kMaxCheckedN; ++n) {
        const BenesTopology topo(n);
        const Word size = Word{1} << n;
        EXPECT_EQ(topo.numLines(), size);
        EXPECT_EQ(topo.numStages(), 2 * n - 1);
        EXPECT_EQ(topo.switchesPerStage(), size / 2);
        // "The total number of binary switches in the network is
        // N log N - N/2."
        EXPECT_EQ(topo.numSwitches(), size * n - size / 2);
    }
}

TEST(Topology, ControlBitsPalindrome)
{
    // Stage b and stage 2n-2-b use bit b; B(3) reads 0 1 2 1 0.
    const BenesTopology topo(3);
    const std::vector<unsigned> expect{0, 1, 2, 1, 0};
    for (unsigned s = 0; s < topo.numStages(); ++s)
        EXPECT_EQ(topo.controlBit(s), expect[s]);
}

TEST(Topology, ControlBitsGeneral)
{
    for (unsigned n = 1; n <= 8; ++n) {
        const BenesTopology topo(n);
        for (unsigned s = 0; s < topo.numStages(); ++s) {
            EXPECT_EQ(topo.controlBit(s),
                      topo.controlBit(2 * n - 2 - s));
            EXPECT_LE(topo.controlBit(s), n - 1);
        }
        EXPECT_EQ(topo.controlBit(n - 1), n - 1); // middle stage
    }
}

TEST(Topology, WiringIsAPermutationAtEveryBoundary)
{
    for (unsigned n = 2; n <= kMaxCheckedN; ++n) {
        const BenesTopology topo(n);
        for (unsigned s = 0; s + 1 < topo.numStages(); ++s) {
            std::vector<bool> hit(topo.numLines(), false);
            for (Word line = 0; line < topo.numLines(); ++line) {
                const Word to = topo.wireToNext(s, line);
                ASSERT_LT(to, topo.numLines());
                ASSERT_FALSE(hit[to])
                    << "boundary " << s << " line " << line;
                hit[to] = true;
            }
        }
    }
}

TEST(Topology, WiringIsTheFigOneRecursion)
{
    for (unsigned n = 1; n <= kMaxCheckedN; ++n) {
        const BenesTopology topo(n);
        const WiringTable wires = figOneWiring(n);
        ASSERT_EQ(wires.size() + 1, topo.numStages());
        for (unsigned s = 0; s < wires.size(); ++s)
            for (Word line = 0; line < topo.numLines(); ++line)
                ASSERT_EQ(topo.wireToNext(s, line), wires[s][line])
                    << "n " << n << " boundary " << s << " line "
                    << line;
    }
}

TEST(Topology, CrossBoundaryMovesEveryLineAlongItsWire)
{
    for (unsigned n = 2; n <= kMaxCheckedN; ++n) {
        const BenesTopology topo(n);
        std::vector<Word> from(topo.numLines());
        std::iota(from.begin(), from.end(), Word{0});
        std::vector<Word> to(topo.numLines());
        for (unsigned s = 0; s + 1 < topo.numStages(); ++s) {
            topo.crossBoundary(s, from, to);
            for (Word line = 0; line < topo.numLines(); ++line)
                ASSERT_EQ(to[topo.wireToNext(s, line)], line)
                    << "n " << n << " boundary " << s;
        }
    }
}

TEST(Topology, SlotMapIsTheWiringComposedStageByStage)
{
    // Slot x enters stage 0 on line x; each boundary's wire carries
    // it to its line at the next stage.
    for (unsigned n = 1; n <= kMaxCheckedN; ++n) {
        const BenesTopology topo(n);
        std::vector<Word> line_of(topo.numLines());
        std::iota(line_of.begin(), line_of.end(), Word{0});
        for (unsigned s = 0; s < topo.numStages(); ++s) {
            for (Word x = 0; x < topo.numLines(); ++x)
                ASSERT_EQ(topo.lineOfSlot(s, x), line_of[x])
                    << "n " << n << " stage " << s << " slot " << x;
            if (s + 1 < topo.numStages())
                for (Word &line : line_of)
                    line = topo.wireToNext(s, line);
        }
    }
}

TEST(Topology, EveryConjugatedStageIsAnUpperFirstExchange)
{
    // In slot coordinates stage s pairs slots x and x ^ 2^b,
    // b = controlBit(s), the one with bit b clear on the upper port:
    // the structure FastEngine's delta swaps rely on. The slots on
    // each switch come from composing the wiring itself.
    for (unsigned n = 1; n <= kMaxCheckedN; ++n) {
        const BenesTopology topo(n);
        const Word size = topo.numLines();
        std::vector<Word> line_of(size), slot_on(size);
        std::iota(line_of.begin(), line_of.end(), Word{0});
        for (unsigned s = 0; s < topo.numStages(); ++s) {
            for (Word x = 0; x < size; ++x)
                slot_on[line_of[x]] = x;
            const Word d = Word{1} << topo.controlBit(s);
            for (Word i = 0; i < topo.switchesPerStage(); ++i) {
                const Word up = slot_on[2 * i];
                const Word lo = slot_on[2 * i + 1];
                ASSERT_EQ(up ^ lo, d)
                    << "n " << n << " stage " << s << " switch " << i;
                ASSERT_EQ(up & d, 0u)
                    << "n " << n << " stage " << s << " switch " << i;
            }
            if (s + 1 < topo.numStages())
                for (Word &line : line_of)
                    line = topo.wireToNext(s, line);
        }
        // After the last stage slot x sits on output x.
        for (Word x = 0; x < size; ++x)
            ASSERT_EQ(line_of[x], x) << "n " << n;
    }
}

TEST(Topology, B2WiringMatchesFigOne)
{
    // B(2): the two middle switches are the B(1) subnetworks; the
    // opening stage's upper outputs (lines 0, 2) must reach lines
    // 0 and 1 (upper B(1)), the lower outputs lines 2 and 3.
    const BenesTopology topo(2);
    EXPECT_EQ(topo.wireToNext(0, 0), 0u); // switch0 upper -> Bu in 0
    EXPECT_EQ(topo.wireToNext(0, 1), 2u); // switch0 lower -> Bl in 0
    EXPECT_EQ(topo.wireToNext(0, 2), 1u); // switch1 upper -> Bu in 1
    EXPECT_EQ(topo.wireToNext(0, 3), 3u); // switch1 lower -> Bl in 1
    // Closing boundary is the mirror image.
    EXPECT_EQ(topo.wireToNext(1, 0), 0u); // Bu out 0 -> switch0 upper
    EXPECT_EQ(topo.wireToNext(1, 1), 2u); // Bu out 1 -> switch1 upper
    EXPECT_EQ(topo.wireToNext(1, 2), 1u); // Bl out 0 -> switch0 lower
    EXPECT_EQ(topo.wireToNext(1, 3), 3u); // Bl out 1 -> switch1 lower
}

TEST(Topology, FirstBoundarySplitsParityHalves)
{
    // In B(n) the opening stage must send even lines of each switch
    // pair into the upper half [0, N/2) and odd lines into the lower
    // half [N/2, N).
    for (unsigned n = 2; n <= 6; ++n) {
        const BenesTopology topo(n);
        const Word half = topo.numLines() / 2;
        for (Word line = 0; line < topo.numLines(); ++line) {
            const Word to = topo.wireToNext(0, line);
            if (line % 2 == 0)
                EXPECT_LT(to, half);
            else
                EXPECT_GE(to, half);
        }
    }
}

TEST(Topology, SubnetworkBoundariesStayInTheirHalf)
{
    // Boundaries strictly inside the two B(n-1) halves never cross
    // the midline.
    for (unsigned n = 3; n <= 6; ++n) {
        const BenesTopology topo(n);
        const Word half = topo.numLines() / 2;
        for (unsigned s = 1; s + 2 < topo.numStages(); ++s) {
            for (Word line = 0; line < topo.numLines(); ++line) {
                const Word to = topo.wireToNext(s, line);
                EXPECT_EQ(line < half, to < half)
                    << "boundary " << s << " line " << line;
            }
        }
    }
}

TEST(Topology, MakeStatesShape)
{
    const BenesTopology topo(4);
    const SwitchStates states = topo.makeStates();
    ASSERT_EQ(states.size(), topo.numStages());
    for (const auto &stage : states) {
        ASSERT_EQ(stage.size(), topo.switchesPerStage());
        for (auto s : stage)
            EXPECT_EQ(s, 0);
    }
}

TEST(Topology, B1HasSingleSwitchNoWiring)
{
    const BenesTopology topo(1);
    EXPECT_EQ(topo.numStages(), 1u);
    EXPECT_EQ(topo.numSwitches(), 1u);
}

} // namespace
} // namespace srbenes
