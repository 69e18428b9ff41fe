#include "perm/permutation.hh"

#include <numeric>

#include "common/logging.hh"

namespace srbenes
{

Permutation
Permutation::identity(std::size_t n)
{
    std::vector<Word> d(n);
    std::iota(d.begin(), d.end(), Word{0});
    return Permutation(std::move(d));
}

Permutation
Permutation::random(std::size_t n, Prng &prng)
{
    std::vector<Word> d(n);
    std::iota(d.begin(), d.end(), Word{0});
    // Fisher-Yates with our deterministic generator.
    for (std::size_t i = n; i > 1; --i)
        std::swap(d[i - 1], d[prng.below(i)]);
    return Permutation(std::move(d));
}

Permutation::Permutation(std::vector<Word> dest)
    : dest_(std::move(dest))
{
    if (!isValid(dest_))
        fatal("vector of size %zu is not a permutation of 0..N-1",
              dest_.size());
}

Permutation::Permutation(std::initializer_list<Word> dest)
    : Permutation(std::vector<Word>(dest))
{
}

std::optional<Permutation>
Permutation::tryFrom(std::vector<Word> dest)
{
    if (!isValid(dest))
        return std::nullopt;
    return Permutation(Validated{}, std::move(dest));
}

bool
Permutation::isValid(const std::vector<Word> &dest)
{
    if (dest.empty())
        return false;
    // One bit per output in 64-bit words: a test-and-set per tag
    // without vector<bool>'s proxy arithmetic.
    std::vector<std::uint64_t> seen((dest.size() + 63) / 64, 0);
    for (Word d : dest) {
        if (d >= dest.size())
            return false;
        const std::uint64_t bit = std::uint64_t{1} << (d & 63);
        std::uint64_t &word = seen[d >> 6];
        if ((word & bit) != 0)
            return false;
        word |= bit;
    }
    return true;
}

unsigned
Permutation::log2Size() const
{
    return exactLog2(static_cast<Word>(dest_.size()));
}

Permutation
Permutation::inverse() const
{
    std::vector<Word> inv(dest_.size());
    for (std::size_t i = 0; i < dest_.size(); ++i)
        inv[dest_[i]] = static_cast<Word>(i);
    return Permutation(std::move(inv));
}

Permutation
Permutation::then(const Permutation &other) const
{
    if (other.size() != size())
        fatal("composing permutations of sizes %zu and %zu", size(),
              other.size());
    std::vector<Word> out(dest_.size());
    for (std::size_t i = 0; i < dest_.size(); ++i)
        out[i] = other.dest_[dest_[i]];
    return Permutation(std::move(out));
}

std::string
Permutation::toString() const
{
    std::string s = "(";
    for (std::size_t i = 0; i < dest_.size(); ++i) {
        if (i)
            s += ", ";
        s += std::to_string(dest_[i]);
    }
    s += ")";
    return s;
}

} // namespace srbenes
