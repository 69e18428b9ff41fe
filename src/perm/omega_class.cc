#include "perm/omega_class.hh"

#include "common/logging.hh"

namespace srbenes
{

namespace
{

/**
 * Shared window test: no two distinct elements may agree on both
 * key(i) mod 2^t and tag(i) >> t for any t in [1, n-1]. For each t we
 * hash the pair into a dense table of size N and look for duplicates.
 */
template <typename KeyFn, typename TagFn>
bool
windowsAreConflictFree(std::size_t size, unsigned n, KeyFn key,
                       TagFn tag)
{
    std::vector<bool> seen(size);
    for (unsigned t = 1; t < n; ++t) {
        std::fill(seen.begin(), seen.end(), false);
        for (std::size_t i = 0; i < size; ++i) {
            const Word low = key(i) & lowMask(t);
            const Word high = tag(i) >> t;
            const Word slot = (low << (n - t)) | high;
            if (seen[slot])
                return false;
            seen[slot] = true;
        }
    }
    return true;
}

} // namespace

bool
isOmega(const Permutation &perm)
{
    const unsigned n = perm.log2Size();
    if (n <= 1)
        return true;
    return windowsAreConflictFree(
        perm.size(), n, [](std::size_t i) { return Word(i); },
        [&](std::size_t i) { return perm[i]; });
}

bool
omegaFirstWindowHolds(const Permutation &perm)
{
    const unsigned n = perm.log2Size();
    if (n <= 1)
        return true;
    // One bit per (i mod 2, D_i >> 1) slot, N slots in all.
    std::vector<Word> seen((perm.size() + 63) / 64);
    for (std::size_t i = 0; i < perm.size(); ++i) {
        const Word slot = ((Word(i) & 1) << (n - 1)) | (perm[i] >> 1);
        const Word m = Word{1} << (slot & 63);
        if (seen[slot >> 6] & m)
            return false;
        seen[slot >> 6] |= m;
    }
    return true;
}

bool
isInverseOmega(const Permutation &perm)
{
    const unsigned n = perm.log2Size();
    if (n <= 1)
        return true;
    return windowsAreConflictFree(
        perm.size(), n, [&](std::size_t i) { return perm[i]; },
        [](std::size_t i) { return Word(i); });
}

namespace named
{

Permutation
cyclicShift(unsigned n, Word k)
{
    const Word size = Word{1} << n;
    std::vector<Word> dest(size);
    for (Word i = 0; i < size; ++i)
        dest[i] = (i + k) & lowMask(n);
    return Permutation(std::move(dest));
}

Permutation
pOrdering(unsigned n, Word p)
{
    if (p % 2 == 0)
        fatal("p-ordering requires odd p, got %llu",
              static_cast<unsigned long long>(p));
    const Word size = Word{1} << n;
    std::vector<Word> dest(size);
    for (Word i = 0; i < size; ++i)
        dest[i] = (p * i) & lowMask(n);
    return Permutation(std::move(dest));
}

Word
oddInverseMod2n(Word p, unsigned n)
{
    if (p % 2 == 0)
        fatal("no inverse of even %llu mod 2^n",
              static_cast<unsigned long long>(p));
    // Newton iteration: q <- q (2 - p q), doubling correct bits.
    Word q = 1;
    for (unsigned round = 0; round < 6; ++round)
        q *= 2 - p * q;
    return q & lowMask(n);
}

Permutation
inversePOrdering(unsigned n, Word p)
{
    return pOrdering(n, oddInverseMod2n(p, n));
}

Permutation
pOrderingShift(unsigned n, Word p, Word k)
{
    if (p % 2 == 0)
        fatal("p-ordering requires odd p, got %llu",
              static_cast<unsigned long long>(p));
    const Word size = Word{1} << n;
    std::vector<Word> dest(size);
    for (Word i = 0; i < size; ++i)
        dest[i] = (p * i + k) & lowMask(n);
    return Permutation(std::move(dest));
}

Permutation
segmentCyclicShift(unsigned n, unsigned seg_bits, Word k)
{
    if (seg_bits > n)
        fatal("segment of 2^%u elements exceeds N = 2^%u", seg_bits, n);
    const Word size = Word{1} << n;
    const Word mask = lowMask(seg_bits);
    std::vector<Word> dest(size);
    for (Word i = 0; i < size; ++i)
        dest[i] = (i & ~mask) | ((i + k) & mask);
    return Permutation(std::move(dest));
}

Permutation
conditionalExchange(unsigned n, unsigned k)
{
    if (k < 1 || k >= n)
        fatal("conditional exchange needs 1 <= k <= n-1, got k = %u", k);
    const Word size = Word{1} << n;
    std::vector<Word> dest(size);
    for (Word i = 0; i < size; ++i)
        dest[i] = setBit(i, 0, bit(i, 0) ^ bit(i, k));
    return Permutation(std::move(dest));
}

} // namespace named

} // namespace srbenes
