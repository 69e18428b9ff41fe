/**
 * @file
 * The class F(n) of self-routable permutations, Section II.
 *
 * F(n) is the set of permutations that the self-routing Benes network
 * B(n) realizes. Theorem 1 characterizes it recursively: D is in F(n)
 * iff the tag sequences U and L that the stage-0 switches deliver to
 * the upper and lower B(n-1) subnetworks (eqs. (1) and (2)) are, after
 * dropping their low bit, both permutations in F(n-1). This module
 * implements that test directly on tag vectors, independently of the
 * network simulator in src/core, so the two can cross-check each
 * other.
 */

#ifndef SRBENES_PERM_F_CLASS_HH
#define SRBENES_PERM_F_CLASS_HH

#include <utility>
#include <vector>

#include "perm/permutation.hh"

namespace srbenes
{

/**
 * Apply eqs. (1) and (2): run the tag vector @p tags (even length)
 * through one stage of self-set switches. Switch i sees tags[2i]
 * (upper) and tags[2i+1] (lower) and takes its state from bit 0 of
 * the upper tag. first = U (upper outputs), second = L (lower
 * outputs); both keep the full tag width (the caller drops bit 0).
 */
std::pair<std::vector<Word>, std::vector<Word>>
splitStageZero(const std::vector<Word> &tags);

/**
 * Theorem 1 membership test: true iff @p perm is in F(n),
 * N = 2^n = perm.size().
 */
bool inFClass(const Permutation &perm);

/**
 * Theorem 1's condition at level 0 alone, in O(N): stage 0 sends
 * d[2i] to the upper subnetwork when it is even, else d[2i+1], and
 * those N/2 tags must reach each output pair t >> 1 exactly once.
 * The condition is necessary for F(n) membership, so a false answer
 * proves @p d is not in F(n) and no self-routed pass of it can get
 * every tag home; a true answer decides nothing. (When the upper
 * tags cover every output pair once, the lower ones do too.)
 */
bool levelZero(const Permutation &d);

/**
 * Membership test on a raw tag vector of length 2^n whose entries are
 * interpreted as n-bit destination tags. Exposed so the recursion can
 * be exercised on the intermediate U/L vectors in tests.
 */
bool inFClassTags(const std::vector<Word> &tags, unsigned n);

/**
 * Sample a random member of F(n) constructively (rejection from S_N
 * is hopeless: F(n) is a vanishing fraction of N!). The sampler runs
 * Theorem 1 backwards: draw U, L from F(n-1), attach low tag bits,
 * and realize each stage-0 switch with a random valid orientation.
 * Every member of F(n) is reachable; the distribution is not exactly
 * uniform but has full support.
 */
Permutation randomFMember(unsigned n, Prng &prng);

} // namespace srbenes

#endif // SRBENES_PERM_F_CLASS_HH
