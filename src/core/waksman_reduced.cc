#include "core/waksman_reduced.hh"

#include "common/logging.hh"
#include "core/waksman.hh"

namespace srbenes
{

std::vector<FixedSwitch>
waksmanFixedSwitches(const BenesTopology &topo)
{
    // Level l's 2^l subnetworks B(n - l), those with n - l >= 2, each
    // fix the closing switch of their output pair 0: subnetwork k
    // spans lines k * 2^(n-l) up, and closes at stage 2n - 2 - l.
    // Listed by stage, the innermost level first.
    const unsigned n = topo.n();
    std::vector<FixedSwitch> fixed;
    if (n < 2)
        return fixed;
    fixed.reserve((Word{1} << (n - 1)) - 1);
    for (unsigned l = n - 1; l-- > 0;)
        for (Word k = 0; k < (Word{1} << l); ++k)
            fixed.push_back(FixedSwitch{2 * n - 2 - l, k << (n - l - 1)});
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
    const std::vector<FixedSwitch> fixed = waksmanFixedSwitches(topo);
    std::vector<StatePin> pins;
    pins.reserve(fixed.size());
    for (const FixedSwitch &f : fixed)
        pins.push_back(StatePin{f.stage, f.switch_index, 0});
    auto states = waksmanSetupPinned(topo, d, pins);
    if (!states)
        panic("Waksman reduction violated: fixed switch crossed");
    return std::move(*states);
}

} // namespace srbenes
