/**
 * @file
 * The omega and inverse-omega permutation classes (Lawrie), Section II.
 *
 * Omega(n) is the set of permutations realizable on Lawrie's omega
 * network (n shuffle-exchange stages); inverse-omega is the set
 * realizable running that network backwards. The paper proves
 * InverseOmega(n) is a subset of F(n) (Theorem 3) and that Omega(n)
 * permutations route through the self-routing Benes network when its
 * first n-1 stages are forced to state 0 (the "omega bit").
 *
 * Membership predicates here use Lawrie's window conditions:
 *
 *   D in Omega(n)        iff for all i != j and 1 <= t <= n-1, not
 *                        (i = j mod 2^t and D_i >> t = D_j >> t);
 *   D in InverseOmega(n) iff for all i != j and 1 <= t <= n-1, not
 *                        (D_i = D_j mod 2^t and i >> t = j >> t).
 *
 * The tests cross-validate both predicates against an actual omega
 * network simulation (src/networks/omega_network.hh).
 *
 * Also included: the paper's list of interesting inverse-omega
 * permutations -- cyclic shift, p-ordering, inverse p-ordering,
 * p-ordering-plus-shift (Lenfant's FUB lambda), cyclic shift within
 * segments (FUB delta), and conditional exchange (FUB eta).
 */

#ifndef SRBENES_PERM_OMEGA_CLASS_HH
#define SRBENES_PERM_OMEGA_CLASS_HH

#include "perm/permutation.hh"

namespace srbenes
{

/** True iff @p perm is realizable on an omega network. O(N log N). */
bool isOmega(const Permutation &perm);

/**
 * Lawrie's Omega condition at its first window, t = 1: no two
 * distinct i, j of equal parity with D_i >> 1 = D_j >> 1. Necessary
 * for isOmega, so a failure rejects. O(N) at worst, but it stops at
 * the first conflicting pair, which a random permutation reaches
 * within a few dozen elements. True for n <= 1.
 */
bool omegaFirstWindowHolds(const Permutation &perm);

/** True iff @p perm is realizable on an inverse omega network. */
bool isInverseOmega(const Permutation &perm);

namespace named
{

/** Cyclic shift: D_i = (i + k) mod N. */
Permutation cyclicShift(unsigned n, Word k);

/** p-ordering: D_i = (p * i) mod N; p must be odd. */
Permutation pOrdering(unsigned n, Word p);

/**
 * Inverse p-ordering: the q-ordering with p * q = 1 mod N, which
 * unscrambles pOrdering(n, p); p must be odd.
 */
Permutation inversePOrdering(unsigned n, Word p);

/**
 * p-ordering combined with a cyclic shift, Lenfant's FUB family
 * lambda(n): D_i = (p * i + k) mod N; p must be odd.
 */
Permutation pOrderingShift(unsigned n, Word p, Word k);

/**
 * Cyclic shift by @p k within each segment of size 2^seg_bits,
 * Lenfant's FUB family delta(n): the high n - seg_bits index bits are
 * fixed, the low seg_bits bits are shifted mod 2^seg_bits.
 */
Permutation segmentCyclicShift(unsigned n, unsigned seg_bits, Word k);

/**
 * Conditional exchange, Lenfant's eta: pairs (2i, 2i+1) are swapped
 * iff bit @p k of the index is one; 1 <= k <= n-1.
 */
Permutation conditionalExchange(unsigned n, unsigned k);

/** Modular inverse of odd @p p modulo 2^n (helper, exposed for
 *  tests). */
Word oddInverseMod2n(Word p, unsigned n);

} // namespace named

} // namespace srbenes

#endif // SRBENES_PERM_OMEGA_CLASS_HH
