/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Experiments sample uniform random permutations (class-density
 * estimates, property sweeps), so reproducibility across runs and
 * platforms matters. We use our own xoshiro256** implementation
 * rather than std::mt19937 so that seeds give identical streams
 * everywhere, independent of standard-library internals.
 */

#ifndef SRBENES_COMMON_PRNG_HH
#define SRBENES_COMMON_PRNG_HH

#include <array>
#include <cstdint>

namespace srbenes
{

/**
 * The splitmix64 finalizer: a bijective avalanche of 64 bits. It
 * seeds Prng, keys the looping setups' seeded loop colors and folds
 * the permutation hash.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

/**
 * xoshiro256** generator (Blackman & Vigna), seeded via splitmix64.
 * Satisfies std::uniform_random_bit_generator.
 */
class Prng
{
  public:
    using result_type = std::uint64_t;

    /** Seed the stream; equal seeds give equal streams. */
    explicit Prng(std::uint64_t seed = 0x5eed5eed5eedULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** Next raw 64-bit value. */
    result_type operator()();

    /** Uniform value in [0, bound); bound must be nonzero. */
    std::uint64_t below(std::uint64_t bound);

  private:
    std::array<std::uint64_t, 4> state_;
};

} // namespace srbenes

#endif // SRBENES_COMMON_PRNG_HH
