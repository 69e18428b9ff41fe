/**
 * @file
 * Runtime-dispatched SIMD kernels for the FastEngine hot loops: the
 * per-stage bit-plane delta swap, the final payload gather, a plan
 * hit's keyed tag hash and identity check, the tag-to-bit-plane
 * transposition that seeds every cold plan, and the two hot passes
 * of the TwoPass looping factor (core/two_pass.cc).
 *
 * One binary serves any x86-64 host: scalar bodies are always
 * compiled, AVX2 and AVX-512 bodies are compiled with per-function
 * target attributes and selected at startup via cpuid
 * (__builtin_cpu_supports). The active implementation sits behind a
 * function-pointer table so the choice costs one indirect call per
 * stage / per payload vector, not per word.
 *
 * Dispatch can be overridden two ways:
 *
 *  - the SRBENES_DISABLE_SIMD environment variable (any value other
 *    than empty or "0") pins the scalar table — CI uses this to
 *    exercise the fallback on AVX hosts;
 *  - setSimdLevel() pins an explicit level at runtime — the
 *    differential tests use this to run the same route through every
 *    compiled-in kernel and compare bit-for-bit.
 *
 * Non-x86 builds (or compilers without the target attribute) compile
 * the scalar table only; detection then always answers Scalar.
 */

#ifndef SRBENES_CORE_FAST_KERNELS_HH
#define SRBENES_CORE_FAST_KERNELS_HH

#include <cstdint>
#include <cstring>

#include "common/bitops.hh"

namespace srbenes
{

enum class SimdLevel
{
    Scalar, //!< portable word-at-a-time loops
    Avx2,   //!< 256-bit: 4 lanes per op, vpgatherdq payload gather
    Avx512, //!< 512-bit: 8 lanes per op, masked tails
};

const char *simdLevelName(SimdLevel level);

/**
 * A 128-bit content hash of a pattern's tags (KernelTable::hashTags).
 * The low word is the plan cache's key (Router::hashPermutation); the
 * streaming layer computes the hash once per request and dispatches a
 * miss by the high word.
 */
struct Hash128
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    bool operator==(const Hash128 &other) const = default;
};

/** Tags per stripe of the tag hash, and its accumulator lanes: each
 *  lane takes one pair of tags per stripe. */
constexpr unsigned kHashStripe = 32;
constexpr unsigned kHashLanes = kHashStripe / 2;

/**
 * The tag hash's key: one word per accumulator lane, mixed into every
 * pair of tags the lane takes and into the lane after every stripe,
 * and the seeds of the final fold's two halves. Serving draws one per
 * process (servingHashKey, core/router.hh); tests pass their own.
 */
struct HashKey
{
    std::uint64_t lane[kHashLanes];
    std::uint64_t lo;
    std::uint64_t hi;
};

/**
 * Lane @p i of u32 tag lanes at any byte alignment (the lanes the
 * hash and the identity check take), loaded through memcpy. A
 * Submit's tags sit in its frame at offset 34, 2 mod 4, so lanes are
 * passed as untyped bytes, as the payload gather's are, and never
 * through a u32 pointer.
 */
inline std::uint32_t
tagLane(const void *tags, Word i)
{
    std::uint32_t v;
    std::memcpy(&v, static_cast<const unsigned char *>(tags) + 4 * i, 4);
    return v;
}

/**
 * One recursion level of the looping factor, as its two kernel passes
 * see it. The level's size / s sub-problems of s slots sit side by
 * side: sub-problem k owns slots [k*s, (k+1)*s), indices inside it
 * are local, in [0, s), and its children at the next level take the
 * upper and lower halves of the same range.
 */
struct FactorLevel
{
    std::uint32_t size;  //!< slots across the level, N = 2^n
    std::uint32_t s;     //!< sub-problem size, a power of two >= 4
    unsigned level;      //!< recursion level, keys the seeded draws
    std::uint64_t seed;  //!< loop-coloring seed; 0 = canonical
    const std::uint32_t *dinv; //!< local input feeding each output
    const std::uint32_t *ids;  //!< original input id of each slot
    const std::uint32_t *nxt;  //!< loop successor of each slot
    /** 0 = uncolored, 1 = upper subnetwork, 2 = lower; slots 2k and
     *  2k+1 share one 32-bit word, the lower slot in the low half. */
    std::uint16_t *color;
    std::uint32_t *dinv_next; //!< the children's dinv
    std::uint32_t *ids_next;  //!< the children's ids
};

/**
 * The dispatched operations. The bit-plane kernels treat `planes` as
 * `nplanes` bit-plane rows of `words` 64-bit words each, row r
 * starting at `planes + r * stride`.
 */
struct KernelTable
{
    /**
     * Payload gather: lane j of @p out takes lane src[j] of @p in, for
     * j in [0, count), over 16-bit indices (a plan's lane mapping;
     * FastEngine allows no fabric wider than 2^16 lines). A lane is 8
     * bytes, moved as they are, and both buffers may sit at any byte
     * alignment: srbd gathers a Submit's payload in place, from frame
     * offset 34 + 4N, into a SubmitResult frame at offset 27. `out`
     * must not alias `in`. The scalar body loads and stores through
     * memcpy; the SIMD bodies widen the indices to 32 bits
     * (vpmovzxwd), gather 64-bit lanes through them and store
     * unaligned, and AVX-512 finishes a tail of fewer than 16 lanes
     * with masked vpgatherqq.
     */
    void (*gather)(void *out, const void *in, const std::uint16_t *src,
                   Word count);

    /**
     * A plan hit's identity check through the plan's gather table:
     * true iff tags[src[j]] == j for every j in [0, count), over u32
     * tag lanes at any byte alignment (loaded through memcpy). @p src
     * must be a permutation of [0, count) (a plan's src always is),
     * so every lane of tags[0, count) is loaded exactly once, compared
     * whole, and nothing past count is read; the tags are then src's
     * inverse. A tag of 2^16 or more, a duplicate or a tag of count or
     * more matches nothing. Every table holds this one scalar loop: a
     * SIMD body gathering the tags as the payload gather does cut
     * srbench's CPU per request by less than its run-to-run spread.
     */
    bool (*matchesInverse)(const std::uint16_t *src, const void *tags,
                           Word count);

    /**
     * A request's hash over @p count u32 tag lanes at any byte
     * alignment: a Submit's tags in place, or a validated pattern's
     * tags narrowed to 32 bits (exact, since every tag is below
     * N <= 2^16). An XXH3-style stripe: the tags are taken
     * kHashStripe at a time, the last stripe zero-padded, as
     * kHashLanes pairs of adjacent lanes, the first in the low half
     * (on a little-endian host, one 64-bit load). Lane l XORs its
     * pair with key.lane[l], adds the 32x32->64 product of the
     * result's halves and the pair itself, and after every stripe is
     * scrambled: acc ^= acc >> 47; acc ^= key.lane[l];
     * acc *= 2654435761. Lanes start at their key words and fold
     * into two splitmix chains seeded by key.lo, key.hi and @p count.
     * Every body returns the same 128 bits; the SIMD ones use
     * vpmuludq for every multiply.
     */
    Hash128 (*hashTags)(const void *tags, Word count, const HashKey &key);

    /**
     * In-word conditional exchange at distance `dist` (1 <= dist <=
     * 32, a power of two): for every plane row and word w,
     *     t = (P[w] ^ (P[w] >> dist)) & ctrl[w];
     *     P[w] ^= t ^ (t << dist);
     */
    void (*deltaSwap)(Word *planes, unsigned nplanes, Word stride,
                      const Word *ctrl, Word words, unsigned dist);

    /**
     * Cross-word conditional exchange at distance `dw` words (a power
     * of two): for every plane row and every word w with (w & dw) == 0,
     *     t = (P[w] ^ P[w + dw]) & ctrl[w];
     *     P[w] ^= t; P[w + dw] ^= t;
     */
    void (*pairSwap)(Word *planes, unsigned nplanes, Word stride,
                     const Word *ctrl, Word words, Word dw);

    /**
     * Bit-plane transposition of destination tags: for every lane
     * j in [0, count) and plane b in [0, nplanes),
     *     bit j of row b  =  bit b of tags[j].
     * Each of the `nplanes` rows receives exactly ceil(count / 64)
     * words, tail bits zero; words beyond that are left untouched.
     * The scalar body runs an independent 64x64 bit-matrix
     * transpose per 64-lane block. The SIMD bodies narrow each block
     * to 32-bit lanes and emit plane b as one compare per vector of
     * lanes (vptestmd against 1 << b on AVX-512, bit b shifted into
     * the sign bit and movemask_ps on AVX2); they cover nplanes <= 32
     * that way, every n the fabric allows, and defer to the scalar
     * body above it.
     */
    void (*packTags)(Word *planes, unsigned nplanes, Word stride,
                     const Word *tags, Word count);

    /**
     * The looping factor's chase over @p lv's successor graph, with
     * lv.color zeroed by the caller. In every sub-problem the pairs
     * are taken in order; each still uncolored pair p starts a loop
     * whose slots take color 1 + draw and their partners the other
     * color, walking x = nxt[x] until the loop closes at p. The draw
     * is 0 for seed 0, else the top bit of the splitmix finalizer of
     * seed ^ (level << 48) ^ ids[p]. Loops never leave their
     * sub-problem, so the SIMD bodies may walk sub-problems side by
     * side; the colors they leave are the scalar body's exactly.
     */
    void (*factorChase)(const FactorLevel &lv);

    /**
     * The looping factor's split of every sub-problem into its two
     * children: output pair j sends the input of color 1 among its
     * two inputs to the upper child's output j and the other to the
     * lower child's, each as a pair index; input pair i sends the id
     * of its color-1 slot to the upper child's input i and the other
     * to the lower child's.
     */
    void (*factorSplit)(const FactorLevel &lv);

    const char *name;
};

/** True iff this binary carries kernels for @p level at all. */
bool simdLevelCompiled(SimdLevel level);

/** True iff @p level is compiled in AND this host's cpuid allows it. */
bool simdLevelSupported(SimdLevel level);

/**
 * The level startup dispatch would pick right now: the best
 * supported level, or Scalar when SRBENES_DISABLE_SIMD is set.
 * Re-reads the environment on every call (cheap; used at init and in
 * tests).
 */
SimdLevel detectSimdLevel();

/** The table behind the level; fatal()s if unsupported on this host. */
const KernelTable &kernelsFor(SimdLevel level);

/** The currently active table (detection runs on first use). */
const KernelTable &activeKernels();

/** The level of the currently active table. */
SimdLevel activeSimdLevel();

/**
 * Pin the active table to @p level (fatal()s if unsupported). Not a
 * hot-path call: intended for tests and benchmark setup, before
 * worker threads start.
 */
void setSimdLevel(SimdLevel level);

} // namespace srbenes

#endif // SRBENES_CORE_FAST_KERNELS_HH
