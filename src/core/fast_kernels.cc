#include "core/fast_kernels.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "common/prng.hh"
#include "obs/metrics.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SRBENES_X86_KERNELS 1
#include <immintrin.h>
#else
#define SRBENES_X86_KERNELS 0
#endif

namespace srbenes
{

namespace
{

// ---------------------------------------------------------------- scalar

void
gatherScalar(Word *out, const Word *in, const std::uint16_t *src,
             Word count)
{
    for (Word j = 0; j < count; ++j)
        out[j] = in[src[j]];
}

bool
matchesInverseScalar(const std::uint16_t *src, const Word *tags,
                     Word count)
{
    // No early exit: a hit compares every lane anyway, and a stored
    // plan under the right key almost never differs.
    Word diff = 0;
    for (Word j = 0; j < count; ++j)
        diff |= tags[src[j]] ^ j;
    return diff == 0;
}

/** The scramble's multiplier: XXH32's first prime, below 2^32 so a
 *  SIMD body multiplies by it with two vpmuludq. */
constexpr std::uint64_t kHashPrime32 = 2654435761u;

/** The accumulator lanes of the tag hash. */
using HashLanes = std::uint64_t[kHashLanes];

/** A level's stripe body: takes @p stripes full stripes of tags into
 *  the lanes. */
using HashStripes = void (*)(HashLanes &acc, const Word *tags,
                             Word stripes, const HashKey &key);

/**
 * The tag hash around a level's stripe body: lanes start at their key
 * words, @p stripes runs every full stripe and then the tail, padded
 * with zero tags to a stripe of its own, and the lanes fold into the
 * 128 bits. The fold pairs lane l with lane l + 8 turned by half a
 * word, then runs the splitmix chains, the high one over the pairs in
 * reverse.
 */
Hash128
hashTagsWith(const Word *tags, Word count, const HashKey &key,
             HashStripes stripes)
{
    HashLanes acc;
    std::copy(key.lane, key.lane + kHashLanes, acc);
    const Word full = count / kHashStripe;
    stripes(acc, tags, full, key);
    if (full * kHashStripe < count) {
        Word pad[kHashStripe] = {};
        std::copy(tags + full * kHashStripe, tags + count, pad);
        stripes(acc, pad, 1, key);
    }

    constexpr unsigned kPairs = kHashLanes / 2;
    std::uint64_t pair[kPairs];
    for (unsigned l = 0; l < kPairs; ++l)
        pair[l] = acc[l] ^ std::rotl(acc[l + kPairs], 32);
    Hash128 h;
    h.lo = mix64(key.lo ^ count);
    h.hi = mix64(key.hi ^ ~count);
    for (unsigned l = 0; l < kPairs; ++l) {
        h.lo = mix64(h.lo ^ pair[l]);
        h.hi = mix64(h.hi ^ pair[kPairs - 1 - l]);
    }
    return h;
}

void
hashStripesScalar(HashLanes &acc, const Word *tags, Word stripes,
                  const HashKey &key)
{
    for (Word s = 0; s < stripes; ++s, tags += kHashStripe) {
        for (unsigned l = 0; l < kHashLanes; ++l) {
            const std::uint64_t d =
                (tags[2 * l] & 0xffffffffu) | (tags[2 * l + 1] << 32);
            const std::uint64_t x = d ^ key.lane[l];
            std::uint64_t a = acc[l] + (x & 0xffffffffu) * (x >> 32) + d;
            a ^= a >> 47;
            a ^= key.lane[l];
            acc[l] = a * kHashPrime32;
        }
    }
}

Hash128
hashTagsScalar(const Word *tags, Word count, const HashKey &key)
{
    return hashTagsWith(tags, count, key, hashStripesScalar);
}

void
deltaSwapScalar(Word *planes, unsigned nplanes, Word stride,
                const Word *ctrl, Word words, unsigned dist)
{
    for (unsigned p = 0; p < nplanes; ++p) {
        Word *P = planes + Word{p} * stride;
        for (Word w = 0; w < words; ++w) {
            const Word v = P[w];
            const Word t = (v ^ (v >> dist)) & ctrl[w];
            P[w] = v ^ t ^ (t << dist);
        }
    }
}

void
pairSwapScalar(Word *planes, unsigned nplanes, Word stride,
               const Word *ctrl, Word words, Word dw)
{
    for (unsigned p = 0; p < nplanes; ++p) {
        Word *P = planes + Word{p} * stride;
        for (Word w = 0; w < words; ++w) {
            if (w & dw)
                continue;
            const Word t = (P[w] ^ P[w + dw]) & ctrl[w];
            P[w] ^= t;
            P[w + dw] ^= t;
        }
    }
}

/**
 * Column mask for transpose level k: bits at columns whose k-th
 * index bit is clear (the "left" column of each 2^k-wide pair).
 */
constexpr Word kColMask[6] = {
    0x5555555555555555ULL, 0x3333333333333333ULL,
    0x0f0f0f0f0f0f0f0fULL, 0x00ff00ff00ff00ffULL,
    0x0000ffff0000ffffULL, 0x00000000ffffffffULL,
};

/**
 * In-place 64x64 bit-matrix transpose, LSB-first orientation:
 * afterwards bit j of row b equals bit b of input row j. Each level
 * k exchanges sub-blocks across bit k of the (row, column) pair;
 * the levels act on disjoint index bits, so their order is free.
 */
void
transpose64(Word *m)
{
    for (unsigned k = 0; k < 6; ++k) {
        const unsigned j = 1u << k;
        const Word mask = kColMask[k];
        for (Word r = 0; r < 64; r = (r + j + 1) & ~Word{j}) {
            const Word t = ((m[r] >> j) ^ m[r + j]) & mask;
            m[r + j] ^= t;
            m[r] ^= t << j;
        }
    }
}

/** Load lanes [base, base+64) of @p tags into @p block, zero tail. */
void
loadBlock(Word *block, const Word *tags, Word base, Word count)
{
    const Word m = (count - base < 64) ? count - base : 64;
    for (Word r = 0; r < m; ++r)
        block[r] = tags[base + r];
    for (Word r = m; r < 64; ++r)
        block[r] = 0;
}

void
packTagsScalar(Word *planes, unsigned nplanes, Word stride,
               const Word *tags, Word count)
{
    const Word out_words = (count + 63) / 64;
    Word block[64];
    for (Word w = 0; w < out_words; ++w) {
        loadBlock(block, tags, w * 64, count);
        transpose64(block);
        for (unsigned b = 0; b < nplanes; ++b)
            planes[Word{b} * stride + w] = block[b];
    }
}

/** The color-1 draw of the loop starting at slot @p p (0 or 1). */
unsigned
loopDraw(const FactorLevel &lv, std::uint32_t p)
{
    // Top bit: the finalizer's low bit is visibly biased over these
    // small structured keys (consecutive seeds xor tiny ids), which
    // starves the reseeded searches of diversity; bit 63 passes
    // through all three avalanche rounds.
    return lv.seed == 0
               ? 0
               : static_cast<unsigned>(
                     mix64(lv.seed ^ (std::uint64_t{lv.level} << 48) ^
                           lv.ids[p]) >>
                     63);
}

void
factorChaseScalar(const FactorLevel &lv)
{
    // Each loop's starting color is the algorithm's free choice; the
    // seeded draw keys on the loop's starting ORIGINAL input id, which
    // is unique per loop across the whole level. Loops never leave
    // their sub-problem, so walking the level's pairs in order colors
    // every sub-problem exactly as a per-node recursion would.
    const std::uint32_t *nxt = lv.nxt;
    std::uint16_t *color = lv.color;
    for (std::uint32_t p = 0; p < lv.size; p += 2) {
        if (color[p])
            continue;
        const unsigned val = loopDraw(lv, p);
        const auto mine = static_cast<std::uint16_t>(1 + val);
        const auto other = static_cast<std::uint16_t>(2 - val);
        // nxt is a bijection whose cycles are the loops, and a loop
        // never reaches its start's partner (every permutation has a
        // valid coloring), so it closes at p.
        std::uint32_t x = p;
        do {
            color[x] = mine;
            color[x ^ 1] = other;
            x = nxt[x];
        } while (x != p);
    }
}

void
factorSplitScalar(const FactorLevel &lv)
{
    // The upper child takes the first half of each sub-problem's
    // range, the lower child the second. Input pair i becomes local
    // input i of both children, output pair j local output j.
    const std::uint32_t s = lv.s;
    const std::uint32_t half = s / 2;
    const std::uint32_t *dinv = lv.dinv;
    const std::uint32_t *ids = lv.ids;
    const std::uint16_t *color = lv.color;
    for (std::uint32_t o = 0; o < lv.size; o += s) {
        for (std::uint32_t j = 0; j < half; ++j) {
            // The upper one of the pair's inputs a and b feeds the
            // upper child. Select without a branch: which one it is,
            // is a coin flip.
            const std::uint32_t a = dinv[o + 2 * j];
            const std::uint32_t b = dinv[o + 2 * j + 1];
            const std::uint32_t swap =
                (a ^ b) & (0u - (color[o + a] == 1 ? 1u : 0u));
            lv.dinv_next[o + j] = (b ^ swap) >> 1;
            lv.dinv_next[o + half + j] = (a ^ swap) >> 1;
        }
        for (std::uint32_t i = 0; i < half; ++i) {
            const std::uint32_t x_up =
                o + 2 * i + (color[o + 2 * i] == 2 ? 1 : 0);
            lv.ids_next[o + i] = ids[x_up];
            lv.ids_next[o + half + i] = ids[x_up ^ 1];
        }
    }
}

constexpr KernelTable kScalarTable = {
    gatherScalar,      matchesInverseScalar, hashTagsScalar,
    deltaSwapScalar,   pairSwapScalar,       packTagsScalar,
    factorChaseScalar, factorSplitScalar,    "scalar"};

#if SRBENES_X86_KERNELS

// ----------------------------------------------------------------- AVX2

__attribute__((target("avx2"))) void
gatherAvx2(Word *out, const Word *in, const std::uint16_t *src,
           Word count)
{
    const auto *base = reinterpret_cast<const long long *>(in);
    const auto *idx16 = reinterpret_cast<const __m128i *>(src);
    auto *dst = reinterpret_cast<__m256i *>(out);
    Word j = 0;
    for (; j + 8 <= count; j += 8) {
        // vpmovzxwd: eight 16-bit indices to eight dwords, then two
        // four-lane vpgatherdq.
        const __m256i idx = _mm256_cvtepu16_epi32(
            _mm_loadu_si128(idx16 + j / 8));
        const __m128i idx_lo = _mm256_castsi256_si128(idx);
        const __m128i idx_hi = _mm256_extracti128_si256(idx, 1);
        _mm256_storeu_si256(dst + j / 4,
                            _mm256_i32gather_epi64(base, idx_lo, 8));
        _mm256_storeu_si256(dst + j / 4 + 1,
                            _mm256_i32gather_epi64(base, idx_hi, 8));
    }
    for (; j < count; ++j)
        out[j] = in[src[j]];
}

/**
 * The hash's pairs of adjacent tags from @p p's eight words, one
 * vshufps taking the low 32 bits of each: as 64-bit lanes, the pairs
 * of tags (0, 1), (4, 5), (2, 3), (6, 7), the order kPairOrder undoes.
 */
__attribute__((target("avx2"))) __m256i
tagPairsAvx2(const Word *p)
{
    const __m256 a = _mm256_loadu_ps(reinterpret_cast<const float *>(p));
    const __m256 b =
        _mm256_loadu_ps(reinterpret_cast<const float *>(p + 4));
    return _mm256_castps_si256(
        _mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0)));
}

/** One stripe step of four lanes: take @p d, then scramble. */
__attribute__((target("avx2"))) __m256i
hashStepAvx2(__m256i acc, __m256i d, __m256i k, __m256i prime)
{
    const __m256i x = _mm256_xor_si256(d, k);
    acc = _mm256_add_epi64(
        acc, _mm256_add_epi64(_mm256_mul_epu32(x, _mm256_srli_epi64(x, 32)),
                              d));
    acc = _mm256_xor_si256(acc, _mm256_srli_epi64(acc, 47));
    acc = _mm256_xor_si256(acc, k);
    // acc * prime, the 32-bit prime times each half of acc.
    const __m256i lo = _mm256_mul_epu32(acc, prime);
    const __m256i hi = _mm256_slli_epi64(
        _mm256_mul_epu32(_mm256_srli_epi64(acc, 32), prime), 32);
    return _mm256_add_epi64(lo, hi);
}

__attribute__((target("avx2"))) void
hashStripesAvx2(HashLanes &acc, const Word *tags, Word stripes,
                const HashKey &key)
{
    // Register lanes 1 and 2 of each vector hold hash lanes 4q + 2
    // and 4q + 1 (tagPairsAvx2's order): the keys and accumulators
    // are swapped to match on the way in and back on the way out.
    constexpr int kPairOrder = _MM_SHUFFLE(3, 1, 2, 0);
    constexpr unsigned kVecs = kHashLanes / 4;
    auto *a = reinterpret_cast<__m256i *>(acc);
    const auto *kv = reinterpret_cast<const __m256i *>(key.lane);
    const __m256i prime = _mm256_set1_epi64x(kHashPrime32);
    __m256i k[kVecs], v[kVecs];
    for (unsigned q = 0; q < kVecs; ++q) {
        k[q] = _mm256_permute4x64_epi64(_mm256_loadu_si256(kv + q),
                                        kPairOrder);
        v[q] = _mm256_permute4x64_epi64(_mm256_loadu_si256(a + q),
                                        kPairOrder);
    }
    for (Word s = 0; s < stripes; ++s, tags += kHashStripe)
#pragma GCC unroll 4
        for (unsigned q = 0; q < kVecs; ++q)
            v[q] = hashStepAvx2(v[q], tagPairsAvx2(tags + 8 * q), k[q],
                                prime);
    for (unsigned q = 0; q < kVecs; ++q)
        _mm256_storeu_si256(a + q,
                            _mm256_permute4x64_epi64(v[q], kPairOrder));
}

__attribute__((target("avx2"))) Hash128
hashTagsAvx2(const Word *tags, Word count, const HashKey &key)
{
    return hashTagsWith(tags, count, key, hashStripesAvx2);
}

__attribute__((target("avx2"))) void
deltaSwapAvx2(Word *planes, unsigned nplanes, Word stride,
              const Word *ctrl, Word words, unsigned dist)
{
    const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(dist));
    for (unsigned p = 0; p < nplanes; ++p) {
        Word *P = planes + Word{p} * stride;
        Word w = 0;
        for (; w + 4 <= words; w += 4) {
            const __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(P + w));
            const __m256i c = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(ctrl + w));
            const __m256i t = _mm256_and_si256(
                _mm256_xor_si256(v, _mm256_srl_epi64(v, shift)), c);
            const __m256i x =
                _mm256_xor_si256(t, _mm256_sll_epi64(t, shift));
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(P + w),
                                _mm256_xor_si256(v, x));
        }
        for (; w < words; ++w) {
            const Word v = P[w];
            const Word t = (v ^ (v >> dist)) & ctrl[w];
            P[w] = v ^ t ^ (t << dist);
        }
    }
}

__attribute__((target("avx2"))) void
pairSwapAvx2(Word *planes, unsigned nplanes, Word stride,
             const Word *ctrl, Word words, Word dw)
{
    if (dw < 4) {
        pairSwapScalar(planes, nplanes, stride, ctrl, words, dw);
        return;
    }
    for (unsigned p = 0; p < nplanes; ++p) {
        Word *P = planes + Word{p} * stride;
        for (Word base = 0; base + 2 * dw <= words; base += 2 * dw) {
            for (Word w = base; w < base + dw; w += 4) {
                const __m256i a = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(P + w));
                const __m256i b = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(P + w + dw));
                const __m256i c = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(ctrl + w));
                const __m256i t =
                    _mm256_and_si256(_mm256_xor_si256(a, b), c);
                _mm256_storeu_si256(reinterpret_cast<__m256i *>(P + w),
                                    _mm256_xor_si256(a, t));
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i *>(P + w + dw),
                    _mm256_xor_si256(b, t));
            }
        }
    }
}

/**
 * The 64 lanes from @p base on: @p tags itself for a whole block,
 * else @p tail, filled and zero-padded.
 */
const Word *
blockLanes(Word *tail, const Word *tags, Word base, Word count)
{
    if (count - base >= 64)
        return tags + base;
    loadBlock(tail, tags, base, count);
    return tail;
}

__attribute__((target("avx2"))) void
packTagsAvx2(Word *planes, unsigned nplanes, Word stride,
             const Word *tags, Word count)
{
    if (nplanes > 32) {
        packTagsScalar(planes, nplanes, stride, tags, count);
        return;
    }
    // Dword 2k of a 4-tag load is tag k's low half; gather the four
    // low halves of two loads into one vector of eight 32-bit lanes.
    const __m256i low_halves = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
    const Word out_words = (count + 63) / 64;
    Word tail[64];
    for (Word w = 0; w < out_words; ++w) {
        const Word *t = blockLanes(tail, tags, w * 64, count);
        __m256i lanes[8];
#pragma GCC unroll 8
        for (unsigned q = 0; q < 8; ++q) {
            const __m256i lo = _mm256_permutevar8x32_epi32(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(t + 8 * q)),
                low_halves);
            const __m256i hi = _mm256_permutevar8x32_epi32(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(t + 8 * q + 4)),
                low_halves);
            lanes[q] = _mm256_permute2x128_si256(lo, hi, 0x20);
        }
        // Plane b: bit b of every lane shifted into its sign bit and
        // collected eight lanes at a time.
        for (unsigned b = 0; b < nplanes; ++b) {
            const __m128i shift =
                _mm_cvtsi32_si128(static_cast<int>(31 - b));
            Word word = 0;
#pragma GCC unroll 8
            for (unsigned q = 0; q < 8; ++q)
                word |= Word{static_cast<unsigned>(_mm256_movemask_ps(
                            _mm256_castsi256_ps(
                                _mm256_sll_epi32(lanes[q], shift))))}
                        << (8 * q);
            planes[Word{b} * stride + w] = word;
        }
    }
}

constexpr KernelTable kAvx2Table = {
    gatherAvx2,        matchesInverseScalar, hashTagsAvx2,
    deltaSwapAvx2,     pairSwapAvx2,         packTagsAvx2,
    factorChaseScalar, factorSplitScalar,    "avx2"};

// --------------------------------------------------------------- AVX-512

// GCC's avx512fintrin.h trips -Wmaybe-uninitialized on its own
// undefined-passthrough idiom; the warnings point into the system
// header, not at this code.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/**
 * Up to eight 16-bit values from @p p, zero-padded to a full 128-bit
 * load: a masked 16-bit load needs AVX512BW, which this table does
 * not require, and reading past the end of @p p is not allowed.
 */
__attribute__((target("avx512f"))) __m128i
loadTail16(const std::uint16_t *p, Word left)
{
    std::uint16_t pad[8] = {};
    std::memcpy(pad, p, left * sizeof(std::uint16_t));
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(pad));
}

__attribute__((target("avx512f"))) void
gatherAvx512(Word *out, const Word *in, const std::uint16_t *src,
             Word count)
{
    const auto *idx16 = reinterpret_cast<const __m256i *>(src);
    Word j = 0;
    for (; j + 16 <= count; j += 16) {
        // vpmovzxwd: sixteen 16-bit indices to sixteen dwords, then
        // two eight-lane vpgatherdq.
        const __m512i idx = _mm512_cvtepu16_epi32(
            _mm256_loadu_si256(idx16 + j / 16));
        const __m256i idx_lo = _mm512_castsi512_si256(idx);
        const __m256i idx_hi = _mm512_extracti64x4_epi64(idx, 1);
        _mm512_storeu_si512(out + j, _mm512_i32gather_epi64(idx_lo, in, 8));
        _mm512_storeu_si512(out + j + 8,
                            _mm512_i32gather_epi64(idx_hi, in, 8));
    }
    // The tail, eight lanes at a time: vpmovzxwq to qwords and a
    // masked vpgatherqq.
    const __m512i zero = _mm512_setzero_si512();
    for (; j < count; j += 8) {
        const Word left = std::min<Word>(count - j, 8);
        const __mmask8 m = static_cast<__mmask8>((1u << left) - 1u);
        const __m512i idx =
            _mm512_cvtepu16_epi64(loadTail16(src + j, left));
        const __m512i v = _mm512_mask_i64gather_epi64(zero, m, idx, in, 8);
        _mm512_mask_storeu_epi64(out + j, m, v);
    }
}

/**
 * The low 32 bits of each of @p p's sixteen words, in order, in one
 * vpermt2d: as eight 64-bit lanes, the hash's pairs of adjacent tags.
 */
__attribute__((target("avx512f"))) __m512i
tagPairsAvx512(const Word *p)
{
    const __m512i low_dwords = _mm512_setr_epi32(
        0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
    return _mm512_permutex2var_epi32(_mm512_loadu_si512(p), low_dwords,
                                     _mm512_loadu_si512(p + 8));
}

/** One stripe step of eight lanes: take @p d, then scramble. */
__attribute__((target("avx512f"))) __m512i
hashStepAvx512(__m512i acc, __m512i d, __m512i k, __m512i prime)
{
    const __m512i x = _mm512_xor_si512(d, k);
    acc = _mm512_add_epi64(
        acc, _mm512_add_epi64(_mm512_mul_epu32(x, _mm512_srli_epi64(x, 32)),
                              d));
    acc = _mm512_xor_si512(acc, _mm512_srli_epi64(acc, 47));
    acc = _mm512_xor_si512(acc, k);
    // acc * prime, the 32-bit prime times each half of acc: vpmullq
    // would need AVX512DQ.
    const __m512i lo = _mm512_mul_epu32(acc, prime);
    const __m512i hi = _mm512_slli_epi64(
        _mm512_mul_epu32(_mm512_srli_epi64(acc, 32), prime), 32);
    return _mm512_add_epi64(lo, hi);
}

__attribute__((target("avx512f"))) void
hashStripesAvx512(HashLanes &acc, const Word *tags, Word stripes,
                  const HashKey &key)
{
    const __m512i prime = _mm512_set1_epi64(kHashPrime32);
    const __m512i k0 = _mm512_loadu_si512(key.lane);
    const __m512i k1 = _mm512_loadu_si512(key.lane + 8);
    __m512i a0 = _mm512_loadu_si512(acc);
    __m512i a1 = _mm512_loadu_si512(acc + 8);
    for (Word s = 0; s < stripes; ++s, tags += kHashStripe) {
        a0 = hashStepAvx512(a0, tagPairsAvx512(tags), k0, prime);
        a1 = hashStepAvx512(a1, tagPairsAvx512(tags + 16), k1, prime);
    }
    _mm512_storeu_si512(acc, a0);
    _mm512_storeu_si512(acc + 8, a1);
}

__attribute__((target("avx512f"))) Hash128
hashTagsAvx512(const Word *tags, Word count, const HashKey &key)
{
    return hashTagsWith(tags, count, key, hashStripesAvx512);
}

__attribute__((target("avx512f"))) void
deltaSwapAvx512(Word *planes, unsigned nplanes, Word stride,
                const Word *ctrl, Word words, unsigned dist)
{
    const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(dist));
    for (unsigned p = 0; p < nplanes; ++p) {
        Word *P = planes + Word{p} * stride;
        Word w = 0;
        for (; w + 8 <= words; w += 8) {
            const __m512i v = _mm512_loadu_si512(P + w);
            const __m512i c = _mm512_loadu_si512(ctrl + w);
            const __m512i t = _mm512_and_si512(
                _mm512_xor_si512(v, _mm512_srl_epi64(v, shift)), c);
            const __m512i x =
                _mm512_xor_si512(t, _mm512_sll_epi64(t, shift));
            _mm512_storeu_si512(P + w, _mm512_xor_si512(v, x));
        }
        for (; w < words; ++w) {
            const Word v = P[w];
            const Word t = (v ^ (v >> dist)) & ctrl[w];
            P[w] = v ^ t ^ (t << dist);
        }
    }
}

__attribute__((target("avx512f"))) void
pairSwapAvx512(Word *planes, unsigned nplanes, Word stride,
               const Word *ctrl, Word words, Word dw)
{
    if (dw < 8) {
        pairSwapAvx2(planes, nplanes, stride, ctrl, words, dw);
        return;
    }
    for (unsigned p = 0; p < nplanes; ++p) {
        Word *P = planes + Word{p} * stride;
        for (Word base = 0; base + 2 * dw <= words; base += 2 * dw) {
            for (Word w = base; w < base + dw; w += 8) {
                const __m512i a = _mm512_loadu_si512(P + w);
                const __m512i b = _mm512_loadu_si512(P + w + dw);
                const __m512i c = _mm512_loadu_si512(ctrl + w);
                const __m512i t =
                    _mm512_and_si512(_mm512_xor_si512(a, b), c);
                _mm512_storeu_si512(P + w, _mm512_xor_si512(a, t));
                _mm512_storeu_si512(P + w + dw,
                                    _mm512_xor_si512(b, t));
            }
        }
    }
}

__attribute__((target("avx512f"))) void
packTagsAvx512(Word *planes, unsigned nplanes, Word stride,
               const Word *tags, Word count)
{
    if (nplanes > 32) {
        packTagsScalar(planes, nplanes, stride, tags, count);
        return;
    }
    const Word out_words = (count + 63) / 64;
    Word tail[64];
    for (Word w = 0; w < out_words; ++w) {
        const Word *t = blockLanes(tail, tags, w * 64, count);
        // vpmovqd narrows eight tags to 32-bit lanes; two of them
        // fill one vector of sixteen. The lane loops unroll, so the
        // four vectors stay in registers across the planes.
        __m512i lanes[4];
#pragma GCC unroll 4
        for (unsigned q = 0; q < 4; ++q)
            lanes[q] = _mm512_inserti64x4(
                _mm512_castsi256_si512(_mm512_cvtepi64_epi32(
                    _mm512_loadu_si512(t + 16 * q))),
                _mm512_cvtepi64_epi32(_mm512_loadu_si512(t + 16 * q + 8)),
                1);
        // Plane b: one vptestmd against 1 << b per sixteen lanes.
        __m512i bit = _mm512_set1_epi32(1);
        for (unsigned b = 0; b < nplanes; ++b) {
            Word word = 0;
#pragma GCC unroll 4
            for (unsigned q = 0; q < 4; ++q)
                word |= Word{_mm512_test_epi32_mask(lanes[q], bit)}
                        << (16 * q);
            planes[Word{b} * stride + w] = word;
            bit = _mm512_add_epi32(bit, bit);
        }
    }
}

/**
 * @p flip with the lanes in @p m set to the draw (0 or 1) of the loop
 * starting at that lane's slot of @p start, one lane at a time.
 */
__attribute__((target("avx512f"))) __m512i
laneDraws(const FactorLevel &lv, __m512i flip, __mmask16 m,
          __m512i start)
{
    if (lv.seed == 0)
        return _mm512_mask_mov_epi32(flip, m, _mm512_setzero_si512());
    alignas(64) std::uint32_t slot[16];
    alignas(64) std::uint32_t draw[16];
    _mm512_store_si512(slot, start);
    _mm512_store_si512(draw, flip);
    for (unsigned i = 0; i < 16; ++i)
        if ((m >> i) & 1u)
            draw[i] = loopDraw(lv, slot[i]);
    return _mm512_load_si512(draw);
}

/**
 * The chase in lockstep: each of sixteen lanes owns one sub-problem
 * of at most 32 * W pairs and keeps the set of its pairs already
 * colored as a bitmap of W words in its lane. Every round, each
 * lane colors its walked slot's pair and steps to the slot's
 * successor; a lane whose loop closes starts the next loop at its
 * lowest uncolored pair, exactly where the scalar body's in-order
 * scan would, so every loop starts at the same pair with the same
 * draw. Each round colors one pair per lane, so the sixteen
 * sub-problems finish together after as many rounds as they have
 * pairs.
 */
template <unsigned W>
__attribute__((target("avx512f"))) void
chaseLockstep(const FactorLevel &lv)
{
    const std::uint32_t subs = lv.size / lv.s;
    const std::uint32_t npairs = lv.s / 2;
    // Slots 2k and 2k+1 share color word k; a walk step writes the
    // whole word: color 1 in the walked slot's half when its draw
    // is 0, the other color in its partner's.
    int *words = reinterpret_cast<int *>(lv.color);
    const int *nxt = reinterpret_cast<const int *>(lv.nxt);
    const __m512i zero = _mm512_setzero_si512();
    const __m512i one = _mm512_set1_epi32(1);
    const __m512i all = _mm512_set1_epi32(-1);
    const __m512i lower_one = _mm512_set1_epi32(0x00020001);
    const __m512i upper_one = _mm512_set1_epi32(0x00010002);
    // Bits past the sub-problem's pairs count as colored.
    const __m512i fresh_map = _mm512_set1_epi32(
        npairs >= 32 ? 0 : static_cast<int>(~0u << npairs));
    const __m128i log_s = _mm_cvtsi32_si128(__builtin_ctz(lv.s));
    const __m512i iota = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           10, 11, 12, 13, 14, 15);
    for (std::uint32_t g = 0; g < subs; g += 16) {
        const __m512i o = _mm512_sll_epi32(
            _mm512_add_epi32(iota, _mm512_set1_epi32(static_cast<int>(g))),
            log_s);
        __m512i x = o; // walked slot
        __m512i p = o; // the walked loop's start
        __m512i map[W];
        for (unsigned w = 0; w < W; ++w)
            map[w] = fresh_map;
        __m512i flip = laneDraws(lv, zero, 0xffff, o);
        for (std::uint32_t step = 0; step < npairs; ++step) {
            // Color the walked pair, mark it, and step. A shift by
            // 32 or more, or by a wrapped negative, marks nothing.
            const __mmask16 odd =
                _mm512_test_epi32_mask(_mm512_xor_si512(x, flip), one);
            _mm512_i32scatter_epi32(
                words, _mm512_srli_epi32(x, 1),
                _mm512_mask_blend_epi32(odd, lower_one, upper_one), 4);
            const __m512i pair =
                _mm512_srli_epi32(_mm512_sub_epi32(x, o), 1);
            for (unsigned w = 0; w < W; ++w)
                map[w] = _mm512_or_si512(
                    map[w],
                    _mm512_sllv_epi32(
                        one, _mm512_sub_epi32(
                                 pair, _mm512_set1_epi32(
                                           static_cast<int>(32 * w)))));
            x = _mm512_i32gather_epi32(x, nxt, 4);

            // A closed loop restarts at the lane's lowest uncolored
            // pair. Its bit is the lowest set bit of the first
            // non-zero complement word: an exact power of two as a
            // float, whose exponent is the bit's index.
            const __mmask16 closed = _mm512_cmpeq_epi32_mask(x, p);
            __m512i idx = zero;
            __mmask16 left = 0;
            for (unsigned w = W; w-- > 0;) {
                const __m512i free = _mm512_andnot_si512(map[w], all);
                const __m512i low =
                    _mm512_and_si512(free, _mm512_sub_epi32(zero, free));
                const __mmask16 has = _mm512_test_epi32_mask(free, free);
                idx = _mm512_mask_sub_epi32(
                    idx, has,
                    _mm512_srli_epi32(
                        _mm512_castps_si512(_mm512_cvtepu32_ps(low)), 23),
                    _mm512_set1_epi32(127 - static_cast<int>(32 * w)));
                left |= has;
            }
            p = _mm512_mask_add_epi32(p, closed, o,
                                      _mm512_slli_epi32(idx, 1));
            x = _mm512_mask_mov_epi32(x, closed, p);
            // After its last pair a lane has nothing to restart.
            const auto restart = static_cast<__mmask16>(closed & left);
            if (lv.seed != 0 && restart)
                flip = laneDraws(lv, flip, restart, p);
        }
    }
}

/**
 * The chase at levels with at least sixteen sub-problems of at most
 * 128 pairs runs in lockstep. The others run the scalar body: their
 * loops are long and their ends predictable.
 */
__attribute__((target("avx512f"))) void
factorChaseAvx512(const FactorLevel &lv)
{
    const std::uint32_t npairs = lv.s / 2;
    if (lv.size / lv.s < 16 || npairs > 128)
        factorChaseScalar(lv);
    else if (npairs <= 32)
        chaseLockstep<1>(lv);
    else if (npairs <= 64)
        chaseLockstep<2>(lv);
    else
        chaseLockstep<4>(lv);
}

/** Lane indices 0, 2, ..., 30: the even entries of two vectors. */
__attribute__((target("avx512f"))) __m512i
evenLanes()
{
    return _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22,
                             24, 26, 28, 30);
}

/**
 * The split sixteen pairs at a time: a deinterleave of dinv and ids
 * into their even and odd entries, one gather of the color of each
 * output pair's even input, and a blend. Lane l of a block of
 * sixteen pairs belongs to sub-problem o, the block's base plus
 * (l / half) * s; when a sub-problem has fewer than sixteen pairs,
 * a block covers several whole ones, and a fixed permutation lays
 * each one's upper child before its lower child.
 */
__attribute__((target("avx512f"))) void
factorSplitAvx512(const FactorLevel &lv)
{
    const std::uint32_t s = lv.s;
    const std::uint32_t half = s / 2;
    if (lv.size < 32) {
        factorSplitScalar(lv);
        return;
    }
    const int *words = reinterpret_cast<const int *>(lv.color);
    const __m512i even = evenLanes();
    const __m512i one = _mm512_set1_epi32(1);
    const __m512i odd = _mm512_add_epi32(even, one);
    const __m512i two = _mm512_set1_epi32(2);
    const __m512i low_half = _mm512_set1_epi32(0xffff);

    // Per lane: its sub-problem's offset in the block. place gives,
    // for each of a block's 32 child slots, the lane of the upper
    // (index < 16) or lower (16 + lane) vector that fills it.
    const std::uint32_t span = half < 16 ? half : 16;
    alignas(64) std::uint32_t lane_o[16];
    alignas(64) std::uint32_t place[32];
    for (std::uint32_t l = 0; l < 16; ++l)
        lane_o[l] = (l / span) * s;
    for (std::uint32_t q = 0; q < 32; ++q) {
        const std::uint32_t r = q % (2 * span);
        place[q] = (q / (2 * span)) * span + (r < span ? r : 16 + r - span);
    }
    const __m512i sub_o = _mm512_load_si512(lane_o);
    const __m512i place0 = _mm512_load_si512(place);
    const __m512i place1 = _mm512_load_si512(place + 16);

    for (std::uint32_t y = 0; y < lv.size; y += 32) {
        // This block's sixteen pairs; a sub-problem larger than the
        // block sends its children's halves half a range apart.
        const std::uint32_t o = y & ~(s - 1);
        const std::uint32_t j = (y - o) / 2;
        const __m512i base = _mm512_add_epi32(
            _mm512_set1_epi32(static_cast<int>(o)), sub_o);

        // Output pairs are fed by inputs a and b; the color of a is
        // half (a & 1) of color word (o + a) / 2.
        const __m512i d0 = _mm512_loadu_si512(lv.dinv + y);
        const __m512i d1 = _mm512_loadu_si512(lv.dinv + y + 16);
        const __m512i a = _mm512_permutex2var_epi32(d0, even, d1);
        const __m512i b = _mm512_permutex2var_epi32(d0, odd, d1);
        const __m512i wa = _mm512_i32gather_epi32(
            _mm512_srli_epi32(_mm512_add_epi32(base, a), 1), words, 4);
        const __m512i ca = _mm512_and_si512(
            _mm512_srlv_epi32(
                wa, _mm512_slli_epi32(_mm512_and_si512(a, one), 4)),
            low_half);
        const __mmask16 a_up = _mm512_cmpeq_epi32_mask(ca, one);
        const __m512i d_up =
            _mm512_srli_epi32(_mm512_mask_blend_epi32(a_up, b, a), 1);
        const __m512i d_down =
            _mm512_srli_epi32(_mm512_mask_blend_epi32(a_up, a, b), 1);

        // Input pairs carry ids e and f; the color of the even slot
        // is the low half of its pair's color word.
        const __m512i t0 = _mm512_loadu_si512(lv.ids + y);
        const __m512i t1 = _mm512_loadu_si512(lv.ids + y + 16);
        const __m512i e = _mm512_permutex2var_epi32(t0, even, t1);
        const __m512i f = _mm512_permutex2var_epi32(t0, odd, t1);
        const __m512i ce =
            _mm512_and_si512(_mm512_loadu_si512(words + y / 2), low_half);
        const __mmask16 f_up = _mm512_cmpeq_epi32_mask(ce, two);
        const __m512i i_up = _mm512_mask_blend_epi32(f_up, e, f);
        const __m512i i_down = _mm512_mask_blend_epi32(f_up, f, e);

        if (half >= 16) {
            _mm512_storeu_si512(lv.dinv_next + o + j, d_up);
            _mm512_storeu_si512(lv.dinv_next + o + half + j, d_down);
            _mm512_storeu_si512(lv.ids_next + o + j, i_up);
            _mm512_storeu_si512(lv.ids_next + o + half + j, i_down);
        } else {
            _mm512_storeu_si512(
                lv.dinv_next + y,
                _mm512_permutex2var_epi32(d_up, place0, d_down));
            _mm512_storeu_si512(
                lv.dinv_next + y + 16,
                _mm512_permutex2var_epi32(d_up, place1, d_down));
            _mm512_storeu_si512(
                lv.ids_next + y,
                _mm512_permutex2var_epi32(i_up, place0, i_down));
            _mm512_storeu_si512(
                lv.ids_next + y + 16,
                _mm512_permutex2var_epi32(i_up, place1, i_down));
        }
    }
}

#pragma GCC diagnostic pop

constexpr KernelTable kAvx512Table = {
    gatherAvx512,      matchesInverseScalar, hashTagsAvx512,
    deltaSwapAvx512,   pairSwapAvx512,       packTagsAvx512,
    factorChaseAvx512, factorSplitAvx512,    "avx512"};

#endif // SRBENES_X86_KERNELS

// ------------------------------------------------------------- dispatch

bool
simdDisabledByEnv()
{
    const char *env = std::getenv("SRBENES_DISABLE_SIMD");
    return env && env[0] != '\0' &&
           !(env[0] == '0' && env[1] == '\0');
}

std::atomic<const KernelTable *> g_active{nullptr};

/**
 * Record a kernel-table selection in the global registry. Dispatch
 * is rare (first use plus explicit setSimdLevel calls), so this
 * never touches the per-route hot path.
 */
void
recordDispatch(SimdLevel level)
{
    auto &reg = obs::MetricsRegistry::global();
    reg.counter("srbenes_simd_dispatch_total",
                {{"level", simdLevelName(level)}})
        .inc();
    reg.gauge("srbenes_simd_active_level")
        .set(static_cast<std::int64_t>(level));
}

} // namespace

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Scalar:
        return "scalar";
      case SimdLevel::Avx2:
        return "avx2";
      case SimdLevel::Avx512:
        return "avx512";
    }
    return "?";
}

bool
simdLevelCompiled(SimdLevel level)
{
#if SRBENES_X86_KERNELS
    (void)level;
    return true;
#else
    return level == SimdLevel::Scalar;
#endif
}

bool
simdLevelSupported(SimdLevel level)
{
    if (level == SimdLevel::Scalar)
        return true;
#if SRBENES_X86_KERNELS
    __builtin_cpu_init();
    if (level == SimdLevel::Avx2)
        return __builtin_cpu_supports("avx2");
    return __builtin_cpu_supports("avx512f");
#else
    return false;
#endif
}

SimdLevel
detectSimdLevel()
{
    if (simdDisabledByEnv())
        return SimdLevel::Scalar;
    if (simdLevelSupported(SimdLevel::Avx512))
        return SimdLevel::Avx512;
    if (simdLevelSupported(SimdLevel::Avx2))
        return SimdLevel::Avx2;
    return SimdLevel::Scalar;
}

const KernelTable &
kernelsFor(SimdLevel level)
{
    if (!simdLevelSupported(level))
        fatal("SIMD level %s is not supported on this host",
              simdLevelName(level));
    switch (level) {
      case SimdLevel::Scalar:
        return kScalarTable;
#if SRBENES_X86_KERNELS
      case SimdLevel::Avx2:
        return kAvx2Table;
      case SimdLevel::Avx512:
        return kAvx512Table;
#else
      default:
        break;
#endif
    }
    return kScalarTable;
}

const KernelTable &
activeKernels()
{
    // order: acquire pairs with the release stores below and in
    // setSimdLevel, publishing the table the pointer refers to.
    const KernelTable *t = g_active.load(std::memory_order_acquire);
    if (!t) {
        const SimdLevel level = detectSimdLevel();
        t = &kernelsFor(level);
        // order: release publishes the selected table; racing
        // detections pick identical tables, so the last store wins
        // harmlessly.
        g_active.store(t, std::memory_order_release);
        recordDispatch(level);
    }
    return *t;
}

SimdLevel
activeSimdLevel()
{
    const KernelTable *t = &activeKernels();
#if SRBENES_X86_KERNELS
    if (t == &kAvx512Table)
        return SimdLevel::Avx512;
    if (t == &kAvx2Table)
        return SimdLevel::Avx2;
#endif
    (void)t;
    return SimdLevel::Scalar;
}

void
setSimdLevel(SimdLevel level)
{
    // order: release pairs with the acquire in activeKernels().
    g_active.store(&kernelsFor(level), std::memory_order_release);
    recordDispatch(level);
}

} // namespace srbenes
