/**
 * @file
 * Differential tests for the runtime-dispatched SIMD kernels: every
 * compiled-and-supported level (scalar, AVX2, AVX-512) must agree
 * with the scalar kernel bit-for-bit — on raw kernel invocations
 * with awkward tails, on the keyed tag hash under two keys at every
 * stripe tail and fabric width, on the TwoPass factor's two kernel
 * passes at every level of every width, and on whole routes through
 * FastEngine, exhaustively at n <= 3 and randomized at n = 4..10.
 * Also covers the SRBENES_DISABLE_SIMD escape hatch.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "core/fast_engine.hh"
#include "core/fast_kernels.hh"
#include "core/self_routing.hh"
#include "core/waksman.hh"
#include "perm/f_class.hh"
#include "perm/permutation.hh"

namespace
{

using namespace srbenes;

std::vector<SimdLevel>
supportedLevels()
{
    std::vector<SimdLevel> levels{SimdLevel::Scalar};
    if (simdLevelSupported(SimdLevel::Avx2))
        levels.push_back(SimdLevel::Avx2);
    if (simdLevelSupported(SimdLevel::Avx512))
        levels.push_back(SimdLevel::Avx512);
    return levels;
}

/** Restores the startup dispatch choice when a test ends. */
class KernelLevelGuard
{
  public:
    ~KernelLevelGuard() { setSimdLevel(detectSimdLevel()); }
};

std::vector<Word>
randomWords(std::size_t count, Prng &prng)
{
    std::vector<Word> v(count);
    for (auto &w : v)
        w = prng();
    return v;
}

TEST(FastKernels, ScalarAlwaysAvailable)
{
    EXPECT_TRUE(simdLevelCompiled(SimdLevel::Scalar));
    EXPECT_TRUE(simdLevelSupported(SimdLevel::Scalar));
    EXPECT_STREQ(kernelsFor(SimdLevel::Scalar).name, "scalar");
}

TEST(FastKernels, GatherMatchesScalarIncludingTails)
{
    // Every count from 1 to 4096, so every tail length of the 8- and
    // 16-lane bodies shows up at many offsets. The input spans the
    // whole 16-bit index range, so the widened indices reach lanes
    // beyond 2^15 (a sign-extending widening would miss them).
    Prng prng(71);
    const KernelTable &ref = kernelsFor(SimdLevel::Scalar);
    const std::size_t span = std::size_t{1} << 16;
    const std::vector<Word> in = randomWords(span, prng);
    std::vector<std::uint16_t> src(4096);
    for (auto &s : src)
        s = static_cast<std::uint16_t>(prng.below(span));
    src[0] = 0xffff;
    src[1] = 0x8000;
    std::vector<Word> expect(src.size()), got(src.size());
    for (SimdLevel level : supportedLevels()) {
        const KernelTable &k = kernelsFor(level);
        for (std::size_t count = 1; count <= src.size(); ++count) {
            std::fill(got.begin(), got.end(), ~Word{0});
            ref.gather(expect.data(), in.data(), src.data(), count);
            k.gather(got.data(), in.data(), src.data(), count);
            ASSERT_TRUE(std::equal(expect.begin(),
                                   expect.begin() + count, got.begin()))
                << k.name << " count=" << count;
            // Nothing past count is written.
            ASSERT_TRUE(std::all_of(got.begin() + count, got.end(),
                                    [](Word w) { return w == ~Word{0}; }))
                << k.name << " count=" << count;
        }
    }
}

TEST(FastKernels, GatherWorksAtAnyByteAlignment)
{
    // srbd gathers a Submit's payload from frame offset 34 + 4N into
    // a SubmitResult frame at offset 27, so neither side is 8-byte
    // aligned. Every level must gather between buffers at every byte
    // offset mod 8, each sized exactly, so the asan-ubsan preset
    // catches an overread, an overwrite, or a misaligned Word access.
    Prng prng(72);
    const KernelTable &ref = kernelsFor(SimdLevel::Scalar);
    for (SimdLevel level : supportedLevels()) {
        const KernelTable &k = kernelsFor(level);
        for (std::size_t count : {1u, 7u, 8u, 15u, 16u, 17u, 31u, 256u,
                                  1031u}) {
            const std::vector<Word> in = randomWords(count, prng);
            std::vector<std::uint16_t> src(count);
            for (auto &s : src)
                s = static_cast<std::uint16_t>(prng.below(count));
            std::vector<Word> expect(count);
            ref.gather(expect.data(), in.data(), src.data(), count);
            for (std::size_t in_off = 0; in_off < 8; ++in_off) {
                for (std::size_t out_off = 0; out_off < 8; ++out_off) {
                    std::vector<std::uint8_t> ibuf(in_off + 8 * count);
                    std::memcpy(ibuf.data() + in_off, in.data(), 8 * count);
                    std::vector<std::uint8_t> obuf(out_off + 8 * count);
                    k.gather(obuf.data() + out_off, ibuf.data() + in_off,
                             src.data(), count);
                    ASSERT_EQ(std::memcmp(obuf.data() + out_off,
                                          expect.data(), 8 * count),
                              0)
                        << k.name << " count=" << count
                        << " in_off=" << in_off << " out_off=" << out_off;
                }
            }
        }
    }
}

/** A random permutation of [0, @p count) in 16-bit lanes: a plan's
 *  gather table. */
std::vector<std::uint16_t>
randomSrc(std::size_t count, Prng &prng)
{
    const Permutation p = Permutation::random(count, prng);
    return std::vector<std::uint16_t>(p.dest().begin(), p.dest().end());
}

/** The tags @p src gathers home, as u32 lanes: tags[src[j]] = j. */
std::vector<std::uint32_t>
tagsOf(const std::vector<std::uint16_t> &src)
{
    std::vector<std::uint32_t> tags(src.size());
    for (std::size_t j = 0; j < src.size(); ++j)
        tags[src[j]] = static_cast<std::uint32_t>(j);
    return tags;
}

/** @p lanes copied to byte offset @p off of an exactly sized buffer:
 *  how a Submit's tags sit in its frame. */
std::vector<std::uint8_t>
atOffset(const std::vector<std::uint32_t> &lanes, std::size_t off)
{
    std::vector<std::uint8_t> buf(off + 4 * lanes.size());
    std::memcpy(buf.data() + off, lanes.data(), 4 * lanes.size());
    return buf;
}

/** The u32 lanes at byte offset @p off of @p buf, as the untyped
 *  bytes the kernels take. */
const std::uint8_t *
lanesAt(const std::vector<std::uint8_t> &buf, std::size_t off)
{
    return buf.data() + off;
}

TEST(FastKernels, MatchesInverseFindsEverySingleDifferingLane)
{
    // The plan cache's identity check over u32 lanes, differential
    // against scalar: every level accepts the tags a gather table
    // inverts at every count (every tail of the 8- and 16-lane
    // bodies, those below 16 lanes included), and refuses one
    // differing lane at any position: a flip of bit 0 or 15, a flip of
    // bit 16 or 31 that the low 16 bits do not see, a tag equal to
    // count, and a neighbour's tag. Every buffer holds exactly count
    // lanes, so the asan-ubsan preset catches a body that reads past
    // count.
    Prng prng(78);
    std::vector<const KernelTable *> tables;
    for (SimdLevel level : supportedLevels())
        tables.push_back(&kernelsFor(level));
    for (std::size_t count = 1; count <= 4096; ++count) {
        const std::vector<std::uint16_t> src = randomSrc(count, prng);
        const std::vector<std::uint32_t> tags = tagsOf(src);
        for (const KernelTable *k : tables)
            ASSERT_TRUE(k->matchesInverse(src.data(), tags.data(), count))
                << k->name << " count=" << count;
    }
    for (Word count : {1u, 7u, 8u, 15u, 16u, 17u, 33u, 255u, 4095u, 4096u}) {
        const std::vector<std::uint16_t> src = randomSrc(count, prng);
        std::vector<std::uint32_t> tags = tagsOf(src);
        for (std::size_t pos = 0; pos < count; ++pos) {
            const std::uint32_t tag = tags[pos];
            std::vector<std::uint32_t> wrong = {
                static_cast<std::uint32_t>(count)};
            for (unsigned bit : {0u, 15u, 16u, 31u})
                wrong.push_back(tag ^ (std::uint32_t{1} << bit));
            if (count > 1)
                wrong.push_back(tags[pos == 0 ? 1 : pos - 1]);
            for (std::uint32_t w : wrong) {
                tags[pos] = w;
                for (const KernelTable *k : tables)
                    ASSERT_FALSE(
                        k->matchesInverse(src.data(), tags.data(), count))
                        << k->name << " count=" << count << " pos=" << pos
                        << " tag=" << w;
            }
            tags[pos] = tag;
        }
    }
}

TEST(FastKernels, MatchesInverseWidensIndicesAboveTwoToTheFifteen)
{
    // Fabrics up to n = 16 are served, so a gather table's indices
    // reach 65535. A body that sign-extended an index of 0x8000 or
    // more would load from before the tags, so every level must
    // accept the tags a full-width table inverts and refuse a single
    // differing lane behind such an index, both in whole 16-lane
    // blocks and in the tail a 16-lane body leaves: 32769 leaves a
    // one-lane tail and 65535 a fifteen-lane one, and each tail lane
    // is given an index of 0x8000 or more.
    Prng prng(79);
    std::vector<const KernelTable *> tables;
    for (SimdLevel level : supportedLevels())
        tables.push_back(&kernelsFor(level));
    for (Word count : {Word{32769}, Word{65535}, Word{65536}}) {
        std::vector<std::uint16_t> src = randomSrc(count, prng);
        const Word body = count / 16 * 16;
        Word from = 0;
        for (Word j = body; j < count; ++j) {
            if (src[j] >= 0x8000)
                continue;
            while (src[from] < 0x8000)
                ++from;
            std::swap(src[j], src[from++]);
        }
        std::vector<std::uint32_t> tags = tagsOf(src);
        for (const KernelTable *k : tables)
            ASSERT_TRUE(k->matchesInverse(src.data(), tags.data(), count))
                << k->name << " count=" << count;
        std::vector<Word> lanes;
        for (Word j = 0; j < body && lanes.size() < 8; ++j)
            if (src[j] >= 0x8000)
                lanes.push_back(j);
        for (Word j = body; j < count; ++j) {
            ASSERT_GE(src[j], 0x8000u) << "count=" << count << " j=" << j;
            lanes.push_back(j);
        }
        for (Word j : lanes) {
            const std::uint32_t tag = tags[src[j]];
            std::vector<std::uint32_t> wrong = {
                static_cast<std::uint32_t>(count)};
            for (unsigned bit : {0u, 15u, 16u, 31u})
                wrong.push_back(tag ^ (std::uint32_t{1} << bit));
            for (std::uint32_t w : wrong) {
                tags[src[j]] = w;
                for (const KernelTable *k : tables)
                    ASSERT_FALSE(
                        k->matchesInverse(src.data(), tags.data(), count))
                        << k->name << " count=" << count << " j=" << j
                        << " tag=" << w;
            }
            tags[src[j]] = tag;
        }
    }
}

/** A hash key of fresh random words. */
HashKey
randomKey(Prng &prng)
{
    HashKey key{};
    for (std::uint64_t &w : key.lane)
        w = prng();
    key.lo = prng();
    key.hi = prng();
    return key;
}

/** @p words narrowed to u32 lanes (exact for a permutation's tags). */
std::vector<std::uint32_t>
narrowed(const std::vector<Word> &words)
{
    return std::vector<std::uint32_t>(words.begin(), words.end());
}

/**
 * Tag lanes for the hash kernel: every count from 1 to 64 (every
 * tail of a 32-tag stripe, and two stripes), then every power of two
 * up to 2^16, each a random permutation of its count; and copies of
 * a few with lanes raised above 2^16 and to bit 31.
 */
std::vector<std::vector<std::uint32_t>>
hashInputs(Prng &prng)
{
    std::vector<std::vector<std::uint32_t>> inputs;
    for (std::size_t count = 1; count <= 64; ++count)
        inputs.push_back(narrowed(Permutation::random(count, prng).dest()));
    for (unsigned n = 0; n <= 16; ++n)
        inputs.push_back(narrowed(
            Permutation::random(std::size_t{1} << n, prng).dest()));
    for (std::size_t count : {std::size_t{5}, std::size_t{32},
                              std::size_t{33}, std::size_t{256},
                              std::size_t{4096}}) {
        std::vector<std::uint32_t> v =
            narrowed(Permutation::random(count, prng).dest());
        for (std::size_t i = 0; i < count; i += 3)
            v[i] += (i % 2 ? std::uint32_t{1} << 16
                           : std::uint32_t{1} << 31) +
                    static_cast<std::uint32_t>(prng() << 17);
        inputs.push_back(v);
    }
    return inputs;
}

TEST(FastKernels, HashTagsMatchesScalarUnderEveryKey)
{
    // The plan cache's key must not depend on the host's SIMD level:
    // every body returns the scalar body's 128 bits, under two keys,
    // at every stripe tail, at every fabric width, and on lanes wider
    // than any tag.
    Prng prng(79);
    const KernelTable &ref = kernelsFor(SimdLevel::Scalar);
    const std::vector<std::vector<std::uint32_t>> inputs = hashInputs(prng);
    for (int k = 0; k < 2; ++k) {
        const HashKey key = randomKey(prng);
        for (SimdLevel level : supportedLevels()) {
            const KernelTable &kt = kernelsFor(level);
            for (const std::vector<std::uint32_t> &v : inputs)
                ASSERT_EQ(kt.hashTags(v.data(), v.size(), key),
                          ref.hashTags(v.data(), v.size(), key))
                    << kt.name << " key=" << k << " count=" << v.size();
        }
    }
}

/**
 * The tag hash as it was defined over 64-bit tag words: the low 32
 * bits of each word, taken in pairs. Plan-cache keys are this hash of
 * the pattern, so the lane form must return it bit for bit.
 */
Hash128
wordFormHash(const std::vector<Word> &tags, const HashKey &key)
{
    std::uint64_t acc[kHashLanes];
    std::copy(key.lane, key.lane + kHashLanes, acc);
    const Word count = tags.size();
    const Word stripes = (count + kHashStripe - 1) / kHashStripe;
    for (Word s = 0; s < stripes; ++s) {
        for (unsigned l = 0; l < kHashLanes; ++l) {
            const Word i = s * kHashStripe + 2 * l;
            const Word t0 = i < count ? tags[i] : 0;
            const Word t1 = i + 1 < count ? tags[i + 1] : 0;
            const std::uint64_t d = (t0 & 0xffffffffu) | (t1 << 32);
            const std::uint64_t x = d ^ key.lane[l];
            std::uint64_t a = acc[l] + (x & 0xffffffffu) * (x >> 32) + d;
            a ^= a >> 47;
            a ^= key.lane[l];
            acc[l] = a * 2654435761u;
        }
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

TEST(FastKernels, HashOfLanesIsTheWordFormsHash)
{
    // Keys do not change with the lanes: for every pattern, every
    // level's hash of its u32 lanes equals the hash the tags had as
    // 64-bit words, at every count from 1 to 64 and every n to 16,
    // under two keys. A flip of lane bit 16 or 31, above every tag,
    // changes it.
    Prng prng(80);
    for (int k = 0; k < 2; ++k) {
        const HashKey key = randomKey(prng);
        std::vector<std::vector<Word>> patterns;
        for (std::size_t count = 1; count <= 64; ++count)
            patterns.push_back(Permutation::random(count, prng).dest());
        for (unsigned n = 0; n <= 16; ++n)
            patterns.push_back(
                Permutation::random(std::size_t{1} << n, prng).dest());
        for (const std::vector<Word> &d : patterns) {
            const Hash128 want = wordFormHash(d, key);
            std::vector<std::uint32_t> lanes = narrowed(d);
            for (SimdLevel level : supportedLevels()) {
                const KernelTable &kt = kernelsFor(level);
                ASSERT_EQ(kt.hashTags(lanes.data(), lanes.size(), key), want)
                    << kt.name << " count=" << d.size();
                for (unsigned bit : {16u, 31u}) {
                    lanes[d.size() / 2] ^= std::uint32_t{1} << bit;
                    EXPECT_NE(kt.hashTags(lanes.data(), lanes.size(), key),
                              want)
                        << kt.name << " count=" << d.size() << " bit=" << bit;
                    lanes[d.size() / 2] ^= std::uint32_t{1} << bit;
                }
            }
        }
    }
}

TEST(FastKernels, HashAndCheckReadLanesAtAnyByteAlignment)
{
    // A Submit's tag lanes start at frame offset 34, so the hash and
    // the identity check read them at any byte offset: every level
    // gives the aligned answer from a copy at each offset mod 8, in an
    // exactly sized buffer.
    Prng prng(82);
    const HashKey key = randomKey(prng);
    for (std::size_t count : {1u, 5u, 31u, 32u, 33u, 256u, 1024u}) {
        const std::vector<std::uint16_t> src = randomSrc(count, prng);
        std::vector<std::uint32_t> tags = tagsOf(src);
        std::vector<std::uint32_t> wrong = tags;
        wrong[count / 2] ^= std::uint32_t{1} << 16;
        for (SimdLevel level : supportedLevels()) {
            const KernelTable &kt = kernelsFor(level);
            const Hash128 want = kt.hashTags(tags.data(), count, key);
            for (std::size_t off = 0; off < 8; ++off) {
                const std::vector<std::uint8_t> buf = atOffset(tags, off);
                EXPECT_EQ(kt.hashTags(lanesAt(buf, off), count, key), want)
                    << kt.name << " count=" << count << " off=" << off;
                EXPECT_TRUE(
                    kt.matchesInverse(src.data(), lanesAt(buf, off), count))
                    << kt.name << " count=" << count << " off=" << off;
                const std::vector<std::uint8_t> bad = atOffset(wrong, off);
                EXPECT_FALSE(
                    kt.matchesInverse(src.data(), lanesAt(bad, off), count))
                    << kt.name << " count=" << count << " off=" << off;
            }
        }
    }
}

TEST(FastKernels, HashTagsDependsOnTheKey)
{
    // Another key hashes the same patterns to other values, in both
    // halves, at every width; the fold's seeds alone key a pattern
    // narrower than one stripe too.
    Prng prng(81);
    const HashKey a = randomKey(prng);
    const HashKey b = randomKey(prng);
    const KernelTable &kt = activeKernels();
    for (const std::vector<std::uint32_t> &v : hashInputs(prng)) {
        const Hash128 ha = kt.hashTags(v.data(), v.size(), a);
        const Hash128 hb = kt.hashTags(v.data(), v.size(), b);
        EXPECT_NE(ha.lo, hb.lo) << "count=" << v.size();
        EXPECT_NE(ha.hi, hb.hi) << "count=" << v.size();
    }
    HashKey seeds_only = a;
    seeds_only.lo ^= 1;
    seeds_only.hi ^= 1;
    const std::vector<std::uint32_t> v{1, 0};
    EXPECT_NE(kt.hashTags(v.data(), 2, a).lo,
              kt.hashTags(v.data(), 2, seeds_only).lo);
    EXPECT_NE(kt.hashTags(v.data(), 2, a).hi,
              kt.hashTags(v.data(), 2, seeds_only).hi);
}

TEST(FastKernels, DeltaSwapMatchesScalar)
{
    Prng prng(72);
    const KernelTable &ref = kernelsFor(SimdLevel::Scalar);
    for (SimdLevel level : supportedLevels()) {
        const KernelTable &k = kernelsFor(level);
        for (Word words : {Word{1}, Word{3}, Word{4}, Word{7},
                           Word{8}, Word{9}, Word{16}, Word{21}}) {
            for (unsigned dist : {1u, 2u, 4u, 8u, 16u, 32u}) {
                const unsigned nplanes = 5;
                std::vector<Word> expect =
                    randomWords(nplanes * words, prng);
                std::vector<Word> got = expect;
                const std::vector<Word> ctrl =
                    randomWords(words, prng);
                ref.deltaSwap(expect.data(), nplanes, words,
                              ctrl.data(), words, dist);
                k.deltaSwap(got.data(), nplanes, words, ctrl.data(),
                            words, dist);
                EXPECT_EQ(got, expect) << k.name << " words=" << words
                                       << " dist=" << dist;
            }
        }
    }
}

TEST(FastKernels, PairSwapMatchesScalar)
{
    Prng prng(73);
    const KernelTable &ref = kernelsFor(SimdLevel::Scalar);
    for (SimdLevel level : supportedLevels()) {
        const KernelTable &k = kernelsFor(level);
        for (Word dw : {Word{1}, Word{2}, Word{4}, Word{8},
                        Word{16}}) {
            for (Word pairs : {Word{1}, Word{2}, Word{4}}) {
                const Word words = 2 * dw * pairs;
                const unsigned nplanes = 4;
                std::vector<Word> expect =
                    randomWords(nplanes * words, prng);
                std::vector<Word> got = expect;
                const std::vector<Word> ctrl =
                    randomWords(words, prng);
                ref.pairSwap(expect.data(), nplanes, words,
                             ctrl.data(), words, dw);
                k.pairSwap(got.data(), nplanes, words, ctrl.data(),
                           words, dw);
                EXPECT_EQ(got, expect) << k.name << " words=" << words
                                       << " dw=" << dw;
            }
        }
    }
}

TEST(FastKernels, PackTagsMatchesScalarAndNaive)
{
    Prng prng(76);
    const KernelTable &ref = kernelsFor(SimdLevel::Scalar);
    for (SimdLevel level : supportedLevels()) {
        const KernelTable &k = kernelsFor(level);
        // Up to the widths srbd routes: 8..16 planes over 4096 lanes,
        // and the topology's limit of 30 planes.
        for (Word count : {Word{1}, Word{3}, Word{63}, Word{64},
                           Word{65}, Word{100}, Word{256}, Word{4095},
                           Word{4096}}) {
            for (unsigned nplanes : {1u, 4u, 9u, 12u, 16u, 17u, 30u}) {
                const Word used = (count + 63) / 64;
                const Word stride = used + 2; // canary tail words
                std::vector<Word> tags(count);
                for (auto &t : tags)
                    t = prng() & ((Word{1} << nplanes) - 1);
                constexpr Word kCanary = 0xdeadbeefdeadbeefULL;
                std::vector<Word> expect(nplanes * stride, kCanary);
                std::vector<Word> got = expect;
                ref.packTags(expect.data(), nplanes, stride,
                             tags.data(), count);
                k.packTags(got.data(), nplanes, stride, tags.data(),
                           count);
                ASSERT_EQ(got, expect)
                    << k.name << " count=" << count
                    << " nplanes=" << nplanes;
                // Pin the scalar reference itself to the contract:
                // bit j of plane b is bit b of tags[j], tail bits of
                // the last used word are zero, and words past the
                // used span are untouched.
                for (unsigned b = 0; b < nplanes; ++b) {
                    const Word *row = expect.data() + b * stride;
                    for (Word j = 0; j < count; ++j)
                        ASSERT_EQ((row[j >> 6] >> (j & 63)) & 1,
                                  (tags[j] >> b) & 1)
                            << "plane " << b << " lane " << j;
                    for (Word j = count; j < used * 64; ++j)
                        ASSERT_EQ((row[j >> 6] >> (j & 63)) & 1, 0u)
                            << "tail bit " << j << " plane " << b;
                    for (Word w = used; w < stride; ++w)
                        ASSERT_EQ(row[w], kCanary)
                            << "overwrote word " << w << " plane "
                            << b;
                }
            }
        }
    }
}

/** One level's factor state and the three passes' outputs. */
struct FactorState
{
    std::vector<std::uint32_t> dinv, ids, nxt, dinv_next, ids_next;
    std::vector<std::uint16_t> color;

    FactorLevel
    level(std::uint32_t s, unsigned lvl, std::uint64_t seed)
    {
        return {.size = static_cast<std::uint32_t>(dinv.size()),
                .s = s,
                .level = lvl,
                .seed = seed,
                .dinv = dinv.data(),
                .ids = ids.data(),
                .nxt = nxt.data(),
                .color = color.data(),
                .dinv_next = dinv_next.data(),
                .ids_next = ids_next.data()};
    }
};

TEST(FastKernels, FactorPassesMatchScalar)
{
    // Every level of every width: random sub-problems (each dinv a
    // local permutation, nxt the loop successors it implies, ids
    // distinct), the canonical seed and a seeded one. The colors
    // and both children must match the scalar reference bodies
    // exactly.
    Prng prng(77);
    const KernelTable &ref = kernelsFor(SimdLevel::Scalar);
    for (unsigned n = 2; n <= 12; ++n) {
        const std::uint32_t size = std::uint32_t{1} << n;
        for (unsigned lvl = 0; lvl + 1 < n; ++lvl) {
            const std::uint32_t s = size >> lvl;
            FactorState in;
            in.dinv.resize(size);
            for (std::uint32_t o = 0; o < size; o += s) {
                const Permutation local = Permutation::random(s, prng);
                for (std::uint32_t j = 0; j < s; ++j)
                    in.dinv[o + j] = static_cast<std::uint32_t>(local[j]);
            }
            in.nxt.resize(size);
            for (std::uint32_t y = 0; y < size; y += 2) {
                const std::uint32_t o = y & ~(s - 1);
                const std::uint32_t a = in.dinv[y];
                const std::uint32_t b = in.dinv[y + 1];
                in.nxt[o | (a ^ 1)] = o | b;
                in.nxt[o | (b ^ 1)] = o | a;
            }
            const Permutation ids = Permutation::random(size, prng);
            in.ids.assign(ids.dest().begin(), ids.dest().end());
            for (std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{7}}) {
                FactorState want = in;
                want.color.assign(size, 0);
                want.dinv_next.assign(size, 0);
                want.ids_next.assign(size, 0);
                FactorLevel lv = want.level(s, lvl, seed);
                ref.factorChase(lv);
                ref.factorSplit(lv);
                for (SimdLevel level : supportedLevels()) {
                    const KernelTable &k = kernelsFor(level);
                    FactorState got = in;
                    got.color.assign(size, 0);
                    got.dinv_next.assign(size, 0);
                    got.ids_next.assign(size, 0);
                    FactorLevel g = got.level(s, lvl, seed);
                    k.factorChase(g);
                    k.factorSplit(g);
                    const std::string what =
                        std::string(k.name) + " n=" + std::to_string(n) +
                        " level=" + std::to_string(lvl) +
                        " seed=" + std::to_string(seed);
                    ASSERT_EQ(got.color, want.color) << what;
                    ASSERT_EQ(got.dinv_next, want.dinv_next) << what;
                    ASSERT_EQ(got.ids_next, want.ids_next) << what;
                }
            }
        }
    }
}

void
expectSameRoute(const RouteResult &a, const RouteResult &b,
                const char *what)
{
    EXPECT_EQ(a.success, b.success) << what;
    EXPECT_EQ(a.states, b.states) << what;
    EXPECT_EQ(a.output_tags, b.output_tags) << what;
    EXPECT_EQ(a.realized_dest, b.realized_dest) << what;
    EXPECT_EQ(a.misrouted_outputs, b.misrouted_outputs) << what;
}

TEST(FastKernels, ExhaustiveRouteParityAtSmallN)
{
    KernelLevelGuard guard;
    for (unsigned n = 1; n <= 3; ++n) {
        const Word N = Word{1} << n;
        const SelfRoutingBenes net(n);
        const FastEngine engine(n);
        std::vector<Word> dest(N);
        for (Word i = 0; i < N; ++i)
            dest[i] = i;
        do {
            const Permutation d(dest);
            const RouteResult ref = net.route(d);
            for (SimdLevel level : supportedLevels()) {
                setSimdLevel(level);
                expectSameRoute(engine.route(d), ref,
                                simdLevelName(level));
            }
        } while (std::next_permutation(dest.begin(), dest.end()));
    }
}

TEST(FastKernels, RandomizedRouteParityAcrossLevels)
{
    KernelLevelGuard guard;
    Prng prng(74);
    for (unsigned n = 4; n <= 10; ++n) {
        const Word N = Word{1} << n;
        const SelfRoutingBenes net(n);
        const FastEngine engine(n);
        for (int rep = 0; rep < 3; ++rep) {
            // An F member (self-routes), an arbitrary permutation
            // (usually misroutes), and a Waksman-forced route all
            // must agree with the reference at every level.
            const Permutation f = randomFMember(n, prng);
            const Permutation any = Permutation::random(N, prng);
            const SwitchStates forced =
                waksmanSetup(net.topology(), any);
            const RouteResult ref_f = net.route(f);
            const RouteResult ref_any = net.route(any);
            const RouteResult ref_forced =
                net.routeWithStates(any, forced);
            for (SimdLevel level : supportedLevels()) {
                setSimdLevel(level);
                expectSameRoute(engine.route(f), ref_f,
                                simdLevelName(level));
                expectSameRoute(engine.route(any), ref_any,
                                simdLevelName(level));
                expectSameRoute(engine.routeWithStates(any, forced),
                                ref_forced, simdLevelName(level));
            }
        }
    }
}

TEST(FastKernels, ExecutePayloadParityAcrossLevels)
{
    KernelLevelGuard guard;
    Prng prng(75);
    for (unsigned n : {5u, 8u}) {
        const Word N = Word{1} << n;
        const FastEngine engine(n);
        const Permutation d = randomFMember(n, prng);
        const std::vector<Word> data = randomWords(N, prng);

        setSimdLevel(SimdLevel::Scalar);
        const FastPlan plan = engine.routePlan(d);
        const std::vector<Word> expect = engine.execute(plan, data);
        EXPECT_EQ(expect, d.applyTo(data));

        for (SimdLevel level : supportedLevels()) {
            setSimdLevel(level);
            EXPECT_EQ(engine.execute(plan, data), expect)
                << simdLevelName(level);
        }
    }
}

TEST(FastKernels, DisableSimdEnvForcesScalar)
{
    KernelLevelGuard guard;
    ASSERT_EQ(setenv("SRBENES_DISABLE_SIMD", "1", 1), 0);
    EXPECT_EQ(detectSimdLevel(), SimdLevel::Scalar);
    setSimdLevel(detectSimdLevel());
    EXPECT_EQ(activeSimdLevel(), SimdLevel::Scalar);
    EXPECT_STREQ(activeKernels().name, "scalar");

    // "0" and empty mean "not disabled".
    ASSERT_EQ(setenv("SRBENES_DISABLE_SIMD", "0", 1), 0);
    EXPECT_EQ(detectSimdLevel(), detectSimdLevel());
    ASSERT_EQ(unsetenv("SRBENES_DISABLE_SIMD"), 0);

    // With the variable gone, detection follows cpuid again.
    const SimdLevel host = detectSimdLevel();
    EXPECT_TRUE(simdLevelSupported(host));
}

} // namespace
