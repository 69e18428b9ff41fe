#include "core/waksman_reduced.hh"

#include "common/logging.hh"
#include "core/waksman.hh"

namespace srbenes
{

namespace
{

void
collectFixed(unsigned m, Word base_line, unsigned base_stage,
             std::vector<FixedSwitch> &fixed)
{
    if (m < 2)
        return;
    // Closing switch of local output pair 0.
    fixed.push_back(
        FixedSwitch{base_stage + 2 * m - 2, base_line / 2});
    collectFixed(m - 1, base_line, base_stage + 1, fixed);
    collectFixed(m - 1, base_line + (Word{1} << (m - 1)),
                 base_stage + 1, fixed);
}

} // namespace

std::vector<FixedSwitch>
waksmanFixedSwitches(const BenesTopology &topo)
{
    std::vector<FixedSwitch> fixed;
    collectFixed(topo.n(), 0, 0, fixed);
    return fixed;
}

Word
waksmanReducedSwitchCount(unsigned n)
{
    const Word size = Word{1} << n;
    return size * n - size + 1;
}

SwitchStates
waksmanReducedSetup(const BenesTopology &topo, const Permutation &d)
{
    // Waksman's forced loops are pins: every fixed switch pinned
    // straight. Each binds the one loop through the input feeding
    // its subnetwork's output 0, and no two share a subnetwork, so
    // they never conflict.
    std::vector<StatePin> pins;
    for (const FixedSwitch &f : waksmanFixedSwitches(topo))
        pins.push_back(StatePin{f.stage, f.switch_index, 0});
    auto states = waksmanSetupPinned(topo, d, pins);
    if (!states)
        panic("Waksman reduction violated: fixed switch crossed");
    return std::move(*states);
}

} // namespace srbenes
