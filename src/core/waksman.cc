#include "core/waksman.hh"

#include "common/logging.hh"
#include "core/two_pass.hh"

namespace srbenes
{

SwitchStates
waksmanSetup(const BenesTopology &topo, const Permutation &d)
{
    return waksmanSetupSeeded(topo, d, 0);
}

SwitchStates
waksmanSetupSeeded(const BenesTopology &topo, const Permutation &d,
                   std::uint64_t seed)
{
    auto states = waksmanSetupPinned(topo, d, {}, seed);
    if (!states)
        panic("unpinned seeded setup cannot fail");
    return std::move(*states);
}

std::optional<SwitchStates>
waksmanSetupPinned(const BenesTopology &topo, const Permutation &d,
                   const std::vector<StatePin> &pins,
                   std::uint64_t seed)
{
    if (d.size() != topo.numLines())
        fatal("permutation size %zu does not match network N = %llu",
              d.size(),
              static_cast<unsigned long long>(topo.numLines()));
    for (const StatePin &pin : pins) {
        if (pin.stage >= topo.numStages() ||
            pin.switch_index >= topo.switchesPerStage())
            fatal("pin at stage %u switch %llu out of range",
                  pin.stage,
                  static_cast<unsigned long long>(pin.switch_index));
        if (pin.state > 1)
            fatal("pin at stage %u switch %llu asks for state %u; a "
                  "switch is straight (0) or crossed (1)",
                  pin.stage,
                  static_cast<unsigned long long>(pin.switch_index),
                  unsigned{pin.state});
    }

    SwitchStates states = topo.makeStates();
    if (!loopingStates(d, seed, pins, states))
        return std::nullopt;
    return states;
}

} // namespace srbenes
