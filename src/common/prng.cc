#include "common/prng.hh"

#include "common/logging.hh"

namespace srbenes
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    return mix64(x);
}

constexpr std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Prng::Prng(std::uint64_t seed)
{
    for (auto &s : state_)
        s = splitmix64(seed);
}

Prng::result_type
Prng::operator()()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

std::uint64_t
Prng::below(std::uint64_t bound)
{
    if (bound == 0)
        panic("Prng::below called with zero bound");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = max() - max() % bound;
    std::uint64_t v;
    do {
        v = (*this)();
    } while (v >= limit);
    return v % bound;
}

} // namespace srbenes
