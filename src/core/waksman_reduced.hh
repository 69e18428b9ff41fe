/**
 * @file
 * Waksman's reduced permutation network (the paper's reference
 * [10]).
 *
 * Waksman observed that the Benes construction over-provisions: in
 * every B(m) subnetwork with m >= 2, ONE closing-stage switch may
 * be hardwired straight and the network still realizes all (2^m)!
 * sub-permutations -- the looping 2-coloring simply starts each
 * affected loop from the forced constraint "output pair 0's even
 * output comes from the upper half". Applied recursively this
 * removes N/2 - 1 switches, giving N lg N - N + 1 against the Benes
 * N lg N - N/2.
 *
 * The reduced network shares the BenesTopology wiring; reduction is
 * expressed as a set of switches that the setup is guaranteed to
 * leave straight (so hardware could omit them). The setup is the
 * pinned looping setup (core/waksman.hh) at seed 0 with every fixed
 * switch pinned straight: each pin binds the one loop of its
 * subnetwork through the input feeding output 0, so the pins never
 * conflict and cost the level-flat factor O(N) per level. The
 * self-routing scheme of the paper does NOT apply to the reduced
 * fabric: the Fig. 3 rule needs the freedom Waksman removes (tests
 * demonstrate a BPC member whose self-route crosses a removed
 * switch).
 */

#ifndef SRBENES_CORE_WAKSMAN_REDUCED_HH
#define SRBENES_CORE_WAKSMAN_REDUCED_HH

#include <vector>

#include "core/topology.hh"
#include "perm/permutation.hh"

namespace srbenes
{

/** A hardwired-straight switch position. */
struct FixedSwitch
{
    unsigned stage;
    Word switch_index;

    bool operator==(const FixedSwitch &other) const = default;
};

/** The switches Waksman's reduction removes from B(n): the closing
 *  switch of output pair 0 of every subnetwork with m >= 2. */
std::vector<FixedSwitch> waksmanFixedSwitches(const BenesTopology &topo);

/** Switch count of the reduced network: N lg N - N + 1. */
Word waksmanReducedSwitchCount(unsigned n);

/**
 * Compute states realizing @p d that keep every reduced switch
 * straight (the reduced network's setup). Route the result with
 * SelfRoutingBenes::routeWithStates.
 */
SwitchStates waksmanReducedSetup(const BenesTopology &topo,
                                 const Permutation &d);

} // namespace srbenes

#endif // SRBENES_CORE_WAKSMAN_REDUCED_HH
