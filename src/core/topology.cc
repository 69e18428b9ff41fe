#include "core/topology.hh"

#include "common/logging.hh"

namespace srbenes
{

BenesTopology::BenesTopology(unsigned n)
    : n_(n)
{
    if (n < 1 || n > 30)
        fatal("Benes network size n = %u out of supported range", n);
}

SwitchStates
BenesTopology::makeStates() const
{
    return SwitchStates(numStages(),
                        std::vector<std::uint8_t>(switchesPerStage(), 0));
}

} // namespace srbenes
