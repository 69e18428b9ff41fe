#include "core/half_network.hh"

#include "common/logging.hh"

namespace srbenes
{

namespace
{

/**
 * Push line positions through stages [lo, hi] of the fabric;
 * @p trailing_boundary includes the wiring after stage hi.
 */
Permutation
spanMapping(const BenesTopology &topo, const SwitchStates &states,
            unsigned lo, unsigned hi, bool trailing_boundary)
{
    if (states.size() != topo.numStages())
        fatal("state array has %zu stages, network has %u",
              states.size(), topo.numStages());
    const Word size = topo.numLines();

    std::vector<Word> cur(size), next(size);
    for (Word i = 0; i < size; ++i)
        cur[i] = i; // cur[line] = origin

    for (unsigned s = lo; s <= hi; ++s) {
        for (Word i = 0; i < topo.switchesPerStage(); ++i)
            if (states[s][i])
                std::swap(cur[2 * i], cur[2 * i + 1]);
        const bool apply = (s < hi) || trailing_boundary;
        if (apply && s + 1 < topo.numStages()) {
            topo.crossBoundary(s, cur, next);
            cur.swap(next);
        }
    }

    std::vector<Word> mapping(size);
    for (Word line = 0; line < size; ++line)
        mapping[cur[line]] = line;
    return Permutation(std::move(mapping));
}

} // namespace

Permutation
firstHalfMapping(const BenesTopology &topo, const SwitchStates &states)
{
    return spanMapping(topo, states, 0, topo.n() - 1, true);
}

Permutation
omegaHalfMapping(const BenesTopology &topo, const SwitchStates &states)
{
    return spanMapping(topo, states, topo.n() - 1,
                       topo.numStages() - 1, false);
}

Permutation
tailMapping(const BenesTopology &topo, const SwitchStates &states)
{
    if (topo.n() == 1) // single stage: the tail is empty
        return Permutation::identity(topo.numLines());
    return spanMapping(topo, states, topo.n(),
                       topo.numStages() - 1, false);
}

} // namespace srbenes
