/**
 * @file
 * External Benes setup via the looping algorithm (Waksman [10]).
 *
 * The paper's baseline: before self-routing, the best known way to
 * realize an ARBITRARY permutation on B(n) was to compute all switch
 * states up front in O(N log N) serial time and load them into the
 * fabric. This module implements that algorithm against the flattened
 * BenesTopology so the same network object can be driven either way:
 *
 *     SelfRoutingBenes net(n);
 *     auto states = waksmanSetup(net.topology(), d);
 *     auto res = net.routeWithStates(d, states);   // any d succeeds
 *
 * The algorithm recursively 2-colors each input pair (which of the
 * two enters the upper subnetwork) subject to the output-pair
 * constraint (the two outputs of a closing switch must be fed from
 * different subnetworks), chasing the alternating constraint loops.
 *
 * The library runs that recursion once, level-flat, in the TwoPass
 * factor (core/two_pass.hh): recursion level l's subnetworks are
 * colored side by side, and their colors give the opening stage l
 * and the closing stage 2n-2-l; the B(1) blocks left at the end give
 * the middle stage. Every setup here is that read-out
 * (loopingStates). A pin binds one loop's coloring and flips the
 * loop if needed, and a seed draws the free colorings exactly as it
 * draws the factor's, so waksmanSetupSeeded(topo, d, seed) is the
 * two passes of twoPassPlanSeeded(net, d, seed) stitched at the
 * middle stage.
 */

#ifndef SRBENES_CORE_WAKSMAN_HH
#define SRBENES_CORE_WAKSMAN_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/topology.hh"
#include "perm/permutation.hh"

namespace srbenes
{

/**
 * Compute switch states realizing @p d on @p topo; O(N log N).
 * The returned states route input i to output d[i] for every i.
 */
SwitchStates waksmanSetup(const BenesTopology &topo,
                          const Permutation &d);

/**
 * A constraint on the realized decomposition: switch
 * (@p stage, @p switch_index) must end in @p state. The Benes
 * decomposition of a permutation is not unique — every constraint
 * loop of the looping algorithm has two valid 2-colorings — and a
 * pin asks the setup to spend that freedom deliberately. The
 * resilience layer uses pins to force a SUSPECT switch into its
 * stuck state, so the loaded configuration and the fault agree and
 * the faulty fabric routes exactly (DESIGN.md §7).
 */
struct StatePin
{
    unsigned stage;
    Word switch_index;
    std::uint8_t state;
};

/**
 * waksmanSetup with the free loop colorings drawn from @p seed
 * instead of taken canonically: every seed yields states that
 * realize @p d, generally differing switch-by-switch. Seed 0 is the
 * canonical choice (identical to waksmanSetup). The draws are the
 * TwoPass factor's (twoPassPlanSeeded), keyed on the seed, the level
 * and the loop's starting original input. Sampling seeds enumerates
 * distinct decompositions cheaply — the degraded-mode tiers use
 * this to hunt for one compatible with a faulty fabric.
 */
SwitchStates waksmanSetupSeeded(const BenesTopology &topo,
                                const Permutation &d,
                                std::uint64_t seed);

/**
 * Constrained setup: realize @p d while honoring every pin, spending
 * the free loop colorings greedily from the outermost recursion
 * level inward (tie-broken by @p seed): at each level the loop
 * through each pinned slot is flipped to agree with its pin. Returns
 * std::nullopt when the pins conflict — two pins land in one
 * constraint loop with opposite parities, or a pinned middle-stage
 * B(1) switch is forced the other way by the sub-permutation that
 * reaches it. A nullopt is a statement about THIS greedy descent,
 * not a proof that no satisfying decomposition exists; callers retry
 * with other seeds. fatal()s on a pin out of range or with a state
 * other than 0 or 1.
 */
std::optional<SwitchStates>
waksmanSetupPinned(const BenesTopology &topo, const Permutation &d,
                   const std::vector<StatePin> &pins,
                   std::uint64_t seed = 0);

} // namespace srbenes

#endif // SRBENES_CORE_WAKSMAN_HH
