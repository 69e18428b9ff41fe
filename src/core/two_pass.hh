/**
 * @file
 * Two-pass universal routing on the self-routing fabric.
 *
 * Section II observes that the first n stages of B(n) form an
 * inverse omega network and the last n stages an omega network. Any
 * permutation D therefore factors as D = P1 o P2 with P1 in
 * InverseOmega(n) and P2 in Omega(n). P1 is the signal's line at the
 * middle stage in the RECURSIVE numbering of B(n): bit l of P1_i is
 * the upper/lower decision the Waksman looping algorithm makes for
 * input i at recursion level l, and the top bit is its port at the
 * final B(1). That labeling separates every input pair and every
 * output pair at all granularities, which is exactly Lawrie's pair
 * of window conditions. Since InverseOmega(n) is inside F(n)
 * (Theorem 3) and Omega(n) permutations route with the omega bit,
 * BOTH factors run on the self-routing network -- two passes
 * through the fabric realize ALL N! permutations.
 *
 * Computing the factorization costs one looping pass (O(N log N),
 * the Waksman cost); the payoff over single-pass external routing is
 * operational: the fabric never needs its self-setting logic
 * disabled or its (2n-1) N/2 switch states loaded -- each pass is
 * driven by the N-word destination-tag vector alone.
 *
 * The looping pass runs level-flat: the 2^l sub-problems of
 * recursion level l sit side by side in flat per-thread arrays of
 * 32-bit indices, each level is one successor pass, one loop chase
 * and one split over those arrays, and nothing is allocated per
 * node. The chase and the split run through the SIMD kernel table
 * (core/fast_kernels.hh), whose scalar bodies are the reference. It
 * walks the same loops in the same order with the same colors as
 * the textbook recursion, so every seed's factorization is unchanged
 * at every SIMD level (tests/test_two_pass.cc pins them by digest).
 *
 * It is the library's one looping algorithm. loopingStates reads
 * the same levels out as Waksman's switch states, and every Waksman
 * setup (core/waksman.hh, core/waksman_reduced.hh) is that read-out.
 * The two views are one decomposition: for every seed, stages
 * 0..n-2 of pass 1 (first, self-routed) and stages n-1..2n-2 of
 * pass 2 (second, omega bit) are exactly
 * waksmanSetupSeeded(topo, d, seed), which FastEngine::planStitched
 * exploits to plan a Waksman route from the factors.
 */

#ifndef SRBENES_CORE_TWO_PASS_HH
#define SRBENES_CORE_TWO_PASS_HH

#include <cstdint>

#include "core/self_routing.hh"

namespace srbenes
{

/** The factorization D = first.then(second). */
struct TwoPassPlan
{
    Permutation first;  //!< InverseOmega(n) member; pass 1, self mode
    Permutation second; //!< Omega(n) member; pass 2, omega-bit mode
};

/**
 * Factor @p d into an inverse-omega and an omega permutation by
 * splitting a Waksman-routed pass through @p net at the middle
 * stage. Valid for every permutation of N = 2^n elements; the
 * factors compose to @p d by construction (second[first[i]] = d[i]).
 */
TwoPassPlan twoPassPlan(const SelfRoutingBenes &net,
                        const Permutation &d);

/**
 * twoPassPlan with the looping algorithm's free loop colorings
 * drawn from @p seed: every seed yields a valid factorization
 * (first in InverseOmega, second in Omega, composition == d), and
 * different seeds generally yield different factors — so the two
 * passes exercise DIFFERENT switch states on the fabric. Seed 0 is
 * canonical (identical to twoPassPlan). The draw for a loop keys on
 * the seed, the recursion level and the loop's starting original
 * input id, so it does not depend on the order loops are walked in.
 * The degraded-mode TwoPass tier samples seeds hunting for a
 * factorization whose two tag-driven passes both verify on a faulty
 * fabric.
 */
TwoPassPlan twoPassPlanSeeded(const SelfRoutingBenes &net,
                              const Permutation &d,
                              std::uint64_t seed);

struct StatePin;

/**
 * The looping pass of twoPassPlanSeeded(net, d, seed) read out as
 * the switch states of B(lg |d|) into @p states (shaped by
 * BenesTopology::makeStates). Each pin binds one loop's coloring at
 * its level; the loop is flipped if its color disagrees, so without
 * pins the states are the factorization's own. Returns false, with
 * @p states partly written, when two pins disagree within one loop
 * or a pinned middle-stage switch is forced the other way. Pins must
 * be in range with state 0 or 1; waksmanSetupPinned checks them.
 */
bool loopingStates(const Permutation &d, std::uint64_t seed,
                   const std::vector<StatePin> &pins,
                   SwitchStates &states);

/**
 * Execute the plan: pass 1 self-routed, pass 2 with the omega bit.
 * Returns the payloads in output order; panics if either pass fails
 * (the plan guarantees both must succeed).
 */
std::vector<Word> twoPassPermute(const SelfRoutingBenes &net,
                                 const TwoPassPlan &plan,
                                 const std::vector<Word> &data);

} // namespace srbenes

#endif // SRBENES_CORE_TWO_PASS_HH
