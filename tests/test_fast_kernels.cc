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
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <string>
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

TEST(FastKernels, EqualWidenedFindsEverySingleDifferingLane)
{
    // The plan cache's identity check, differential against scalar:
    // equal tables match at every count, and one differing lane at
    // any position is found, both when its low 16 bits differ and
    // when only a bit at or above 2^16 does.
    Prng prng(78);
    const KernelTable &ref = kernelsFor(SimdLevel::Scalar);
    const std::size_t max = 4096;
    std::vector<std::uint16_t> narrow(max);
    for (auto &v : narrow)
        v = static_cast<std::uint16_t>(prng.below(std::size_t{1} << 16));
    std::vector<Word> wide(narrow.begin(), narrow.end());
    const Word low_flips[] = {Word{1}, Word{1} << 15};
    const Word high_flips[] = {Word{1} << 16, Word{1} << 40,
                               Word{1} << 63};
    for (SimdLevel level : supportedLevels()) {
        const KernelTable &k = kernelsFor(level);
        for (std::size_t count = 1; count <= max; ++count) {
            ASSERT_TRUE(ref.equalWidened(narrow.data(), wide.data(), count));
            ASSERT_TRUE(k.equalWidened(narrow.data(), wide.data(), count))
                << k.name << " count=" << count;
        }
        for (std::size_t count :
             {std::size_t{1}, std::size_t{7}, std::size_t{8},
              std::size_t{15}, std::size_t{16}, std::size_t{17},
              std::size_t{33}, std::size_t{255}, std::size_t{4095},
              std::size_t{4096}}) {
            for (std::size_t pos = 0; pos < count; ++pos) {
                for (Word flip : {low_flips[pos % std::size(low_flips)],
                                  high_flips[pos % std::size(high_flips)]}) {
                    wide[pos] ^= flip;
                    EXPECT_FALSE(ref.equalWidened(narrow.data(),
                                                  wide.data(), count));
                    EXPECT_FALSE(
                        k.equalWidened(narrow.data(), wide.data(), count))
                        << k.name << " count=" << count << " pos=" << pos
                        << " flip=" << flip;
                    wide[pos] ^= flip;
                }
            }
            // A difference just past count is not looked at.
            if (count < max) {
                wide[count] ^= Word{1} << 16;
                EXPECT_TRUE(
                    k.equalWidened(narrow.data(), wide.data(), count))
                    << k.name << " count=" << count;
                wide[count] ^= Word{1} << 16;
            }
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

/**
 * Tag vectors for the hash kernel: every count from 1 to 64 (every
 * tail of a 32-tag stripe, and two stripes), then every power of two
 * up to 2^16, each a random permutation of its count; and copies of
 * a few with words raised above 2^16 and above 2^32.
 */
std::vector<std::vector<Word>>
hashInputs(Prng &prng)
{
    std::vector<std::vector<Word>> inputs;
    for (std::size_t count = 1; count <= 64; ++count)
        inputs.push_back(Permutation::random(count, prng).dest());
    for (unsigned n = 0; n <= 16; ++n)
        inputs.push_back(
            Permutation::random(std::size_t{1} << n, prng).dest());
    for (std::size_t count : {std::size_t{5}, std::size_t{32},
                              std::size_t{33}, std::size_t{256},
                              std::size_t{4096}}) {
        std::vector<Word> v = Permutation::random(count, prng).dest();
        for (std::size_t i = 0; i < count; i += 3)
            v[i] += (i % 2 ? Word{1} << 16 : Word{1} << 32) +
                    (prng() << 33);
        inputs.push_back(v);
    }
    return inputs;
}

TEST(FastKernels, HashTagsMatchesScalarUnderEveryKey)
{
    // The plan cache's key must not depend on the host's SIMD level:
    // every body returns the scalar body's 128 bits, under two keys,
    // at every stripe tail, at every fabric width, and on words wider
    // than any tag.
    Prng prng(79);
    const KernelTable &ref = kernelsFor(SimdLevel::Scalar);
    const std::vector<std::vector<Word>> inputs = hashInputs(prng);
    for (int k = 0; k < 2; ++k) {
        const HashKey key = randomKey(prng);
        for (SimdLevel level : supportedLevels()) {
            const KernelTable &kt = kernelsFor(level);
            for (const std::vector<Word> &v : inputs)
                ASSERT_EQ(kt.hashTags(v.data(), v.size(), key),
                          ref.hashTags(v.data(), v.size(), key))
                    << kt.name << " key=" << k << " count=" << v.size();
        }
    }
}

TEST(FastKernels, HashTagsReadsTheLow32BitsOfEachWord)
{
    // A bit at or above 2^32 is not hashed (the identity check still
    // sees it), while one in [2^16, 2^32), above every tag, is.
    Prng prng(80);
    const HashKey key = randomKey(prng);
    for (SimdLevel level : supportedLevels()) {
        const KernelTable &kt = kernelsFor(level);
        for (std::size_t count : {std::size_t{3}, std::size_t{64},
                                  std::size_t{1024}}) {
            std::vector<Word> v = Permutation::random(count, prng).dest();
            const Hash128 h = kt.hashTags(v.data(), count, key);
            for (std::size_t pos : {std::size_t{0}, count / 2, count - 1}) {
                v[pos] += Word{1} << 32;
                EXPECT_EQ(kt.hashTags(v.data(), count, key), h)
                    << kt.name << " count=" << count << " pos=" << pos;
                v[pos] -= Word{1} << 32;
                v[pos] += Word{1} << 16;
                EXPECT_NE(kt.hashTags(v.data(), count, key), h)
                    << kt.name << " count=" << count << " pos=" << pos;
                v[pos] -= Word{1} << 16;
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
    for (const std::vector<Word> &v : hashInputs(prng)) {
        const Hash128 ha = kt.hashTags(v.data(), v.size(), a);
        const Hash128 hb = kt.hashTags(v.data(), v.size(), b);
        EXPECT_NE(ha.lo, hb.lo) << "count=" << v.size();
        EXPECT_NE(ha.hi, hb.hi) << "count=" << v.size();
    }
    HashKey seeds_only = a;
    seeds_only.lo ^= 1;
    seeds_only.hi ^= 1;
    const std::vector<Word> v{1, 0};
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
