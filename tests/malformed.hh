/**
 * @file
 * Malformed neighbours of a valid pattern, for the tests of every
 * path on which a Submit's tags must be refused when they are not a
 * permutation.
 */

#ifndef SRBENES_TESTS_MALFORMED_HH
#define SRBENES_TESTS_MALFORMED_HH

#include <string>
#include <utility>
#include <vector>

#include "perm/permutation.hh"

namespace srbenes
{

/**
 * Right-sized tag vectors that are no permutation, each named and
 * each one lane away from the valid @p d (N >= 8), every tag below
 * 2^32 so the wire carries it: a duplicate tag, a tag of N, @p d's
 * tag plus 2^16 (its low 16 bits still @p d's), and a far lane
 * repeating a middle lane's tag.
 */
inline std::vector<std::pair<std::string, std::vector<Word>>>
malformedNeighbours(const Permutation &d)
{
    const Word N = d.size();
    auto with = [&](std::size_t lane, Word tag) {
        std::vector<Word> v = d.dest();
        v[lane] = tag;
        return v;
    };
    return {
        {"duplicate tag", with(1, d[0])},
        {"tag of N", with(2, N)},
        {"tag plus 2^16", with(3, d[3] + (Word{1} << 16))},
        {"lane repeating another", with(N - 1, d[N / 2])},
    };
}

} // namespace srbenes

#endif // SRBENES_TESTS_MALFORMED_HH
