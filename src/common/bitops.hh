/**
 * @file
 * Bit-field utilities used throughout the library.
 *
 * The paper manipulates indices at the level of individual bits of
 * their binary representation: @c (i)_j is bit j of i (bit 0 the least
 * significant), and @c (i)_{j..k} is the integer formed by bits
 * j down to k. These helpers implement that notation plus the
 * bit-rotations behind the perfect shuffle / unshuffle and the bit
 * reversal of Fig. 4.
 *
 * All values are unsigned 64-bit; a "width" argument n means the value
 * is interpreted as an n-bit string, supporting networks up to
 * N = 2^63 inputs (far beyond anything simulated here).
 */

#ifndef SRBENES_COMMON_BITOPS_HH
#define SRBENES_COMMON_BITOPS_HH

#include <cstdint>

namespace srbenes
{

/** Index/tag type used for network lines and destination tags. */
using Word = std::uint64_t;

/** Extract bit @p b of @p v, i.e.\ the paper's (v)_b. */
constexpr Word
bit(Word v, unsigned b)
{
    return (v >> b) & 1u;
}

/** Return @p v with bit @p b set to the low bit of @p x. */
constexpr Word
setBit(Word v, unsigned b, Word x)
{
    return (v & ~(Word{1} << b)) | ((x & 1u) << b);
}

/** Return @p v with bit @p b complemented, the paper's v^(b). */
constexpr Word
flipBit(Word v, unsigned b)
{
    return v ^ (Word{1} << b);
}

/** Extract the bit field (v)_{hi..lo} as an integer (hi >= lo). */
constexpr Word
bits(Word v, unsigned hi, unsigned lo)
{
    const unsigned width = hi - lo + 1;
    const Word mask = (width >= 64) ? ~Word{0} : ((Word{1} << width) - 1);
    return (v >> lo) & mask;
}

/** A mask with the low @p n bits set. */
constexpr Word
lowMask(unsigned n)
{
    return (n >= 64) ? ~Word{0} : ((Word{1} << n) - 1);
}

/** Reverse the low @p n bits of @p v (bits above n are dropped). */
Word reverseBits(Word v, unsigned n);

/**
 * Rotate the low @p n bits of @p v left by one position: the perfect
 * shuffle sigma of the paper, i_{n-1} i_{n-2} ... i_0 ->
 * i_{n-2} ... i_0 i_{n-1}.
 */
constexpr Word
shuffle(Word v, unsigned n)
{
    return ((v << 1) & lowMask(n)) | bit(v, n - 1);
}

/** Rotate the low @p n bits right by one: the unshuffle sigma^-1. */
constexpr Word
unshuffle(Word v, unsigned n)
{
    return (v >> 1) | (bit(v, 0) << (n - 1));
}

/** Rotate the low @p n bits of @p v left by @p k positions. */
Word rotateLeft(Word v, unsigned n, unsigned k);

/** Rotate the low @p n bits of @p v right by @p k positions. */
Word rotateRight(Word v, unsigned n, unsigned k);

/**
 * Gather the bits of @p v selected by @p mask into a contiguous
 * low-order field, preserving their relative order (software PEXT).
 * Used by the J-partition machinery of Theorems 4-6.
 */
Word extractBits(Word v, Word mask);

/**
 * Scatter the low-order bits of @p v into the positions selected by
 * @p mask, preserving order (software PDEP). Inverse of extractBits
 * on the masked field.
 */
Word depositBits(Word v, Word mask);

/** Number of set bits in @p v. */
unsigned popCount(Word v);

/** Floor of log2(v); v must be nonzero. */
unsigned floorLog2(Word v);

/** True iff @p v is a power of two (v != 0). */
constexpr bool
isPowerOfTwo(Word v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/**
 * Exact log2 of a power of two; calls panic() if @p v is not a power
 * of two. Used to recover n from N = 2^n network sizes.
 */
unsigned exactLog2(Word v);

} // namespace srbenes

#endif // SRBENES_COMMON_BITOPS_HH
