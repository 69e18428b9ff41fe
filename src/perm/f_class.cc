#include "perm/f_class.hh"

#include <algorithm>
#include <cstdint>

#include "common/logging.hh"

namespace srbenes
{

std::pair<std::vector<Word>, std::vector<Word>>
splitStageZero(const std::vector<Word> &tags)
{
    if (tags.size() % 2 != 0)
        panic("splitStageZero needs an even tag count");
    const std::size_t half = tags.size() / 2;
    std::vector<Word> upper(half), lower(half);
    for (std::size_t i = 0; i < half; ++i) {
        // Eq. (1)/(2): state is bit 0 of the upper input's tag.
        if (bit(tags[2 * i], 0) == 0) {
            upper[i] = tags[2 * i];
            lower[i] = tags[2 * i + 1];
        } else {
            upper[i] = tags[2 * i + 1];
            lower[i] = tags[2 * i];
        }
    }
    return {std::move(upper), std::move(lower)};
}

namespace
{

/**
 * Check that dropping the low bit of each tag yields a permutation of
 * 0..half-1, writing the shifted tags into @p out.
 */
bool
shiftIsPermutation(const std::vector<Word> &tags, std::vector<Word> &out)
{
    out.resize(tags.size());
    std::vector<bool> seen(tags.size(), false);
    for (std::size_t i = 0; i < tags.size(); ++i) {
        const Word v = tags[i] >> 1;
        if (v >= tags.size() || seen[v])
            return false;
        seen[v] = true;
        out[i] = v;
    }
    return true;
}

bool
inFRecursive(const std::vector<Word> &tags, unsigned n)
{
    if (n <= 1)
        return true; // F(1) contains both permutations of (0, 1).

    auto [upper_full, lower_full] = splitStageZero(tags);

    std::vector<Word> upper, lower;
    if (!shiftIsPermutation(upper_full, upper))
        return false;
    if (!shiftIsPermutation(lower_full, lower))
        return false;

    return inFRecursive(upper, n - 1) && inFRecursive(lower, n - 1);
}

} // namespace

bool
inFClassTags(const std::vector<Word> &tags, unsigned n)
{
    if (tags.size() != (std::size_t{1} << n))
        panic("tag vector size %zu does not match n = %u", tags.size(),
              n);
    return inFRecursive(tags, n);
}

bool
inFClass(const Permutation &perm)
{
    return inFClassTags(perm.dest(), perm.log2Size());
}

bool
levelZero(const Permutation &d)
{
    const std::vector<Word> &tags = d.dest();
    // log2Size panics unless N is a power of two, as Theorem 1 needs.
    const std::size_t half = (std::size_t{1} << d.log2Size()) / 2;
    // One toggle per upper tag's output pair: N/2 toggles leave every
    // pair toggled once only if each is hit exactly once. A byte per
    // pair keeps consecutive toggles off one word.
    std::vector<std::uint8_t> hit(half, 0);
    for (std::size_t i = 0; i < half; ++i) {
        // Branch-free: which tag goes up is a coin flip.
        const Word a = tags[2 * i];
        const Word b = tags[2 * i + 1];
        const Word up = a ^ ((a ^ b) & (Word{0} - (a & 1)));
        hit[up >> 1] ^= 1;
    }
    return std::all_of(hit.begin(), hit.end(),
                       [](std::uint8_t h) { return h == 1; });
}

namespace
{

/** Recursive worker returning the destination-tag vector of a random
 *  F(n) member. */
std::vector<Word>
sampleF(unsigned n, Prng &prng)
{
    if (n == 1) {
        if (prng.below(2))
            return {1, 0};
        return {0, 1};
    }

    const std::size_t half = std::size_t{1} << (n - 1);
    const std::vector<Word> u = sampleF(n - 1, prng);
    const std::vector<Word> l = sampleF(n - 1, prng);

    // a[v] = low tag bit of the signal with high bits v entering the
    // UPPER subnetwork (the lower one with the same high bits gets
    // the complement). A stage-0 switch i can only be realized when
    // not both a[u[i]] and a[l[i]] are 1 (some orientation must obey
    // the Fig. 3 rule), so repair random bits by clearing one of any
    // offending pair -- clearing never creates new violations.
    std::vector<std::uint8_t> a(half);
    for (std::size_t v = 0; v < half; ++v)
        a[v] = static_cast<std::uint8_t>(prng.below(2));
    for (std::size_t i = 0; i < half; ++i)
        if (a[u[i]] && a[l[i]])
            a[prng.below(2) ? u[i] : l[i]] = 0;

    std::vector<Word> tags(2 * half);
    for (std::size_t i = 0; i < half; ++i) {
        const Word tu = 2 * u[i] + a[u[i]];           // upper input i
        const Word tl = 2 * l[i] + (1 - a[l[i]]);     // lower input i
        // Orientation A (switch straight) needs bit0(tu) = 0;
        // orientation B (crossed) needs bit0(tl) = 1.
        const bool a_ok = (tu & 1) == 0;
        const bool b_ok = (tl & 1) == 1;
        const bool crossed = a_ok && b_ok ? prng.below(2) : b_ok;
        if (crossed) {
            tags[2 * i] = tl;
            tags[2 * i + 1] = tu;
        } else {
            tags[2 * i] = tu;
            tags[2 * i + 1] = tl;
        }
    }
    return tags;
}

} // namespace

Permutation
randomFMember(unsigned n, Prng &prng)
{
    if (n == 0)
        panic("randomFMember requires n >= 1");
    return Permutation(sampleF(n, prng));
}

} // namespace srbenes
