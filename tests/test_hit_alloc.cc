/**
 * @file
 * A plan hit allocates nothing: this binary replaces the global
 * operator new with a counting one, warms a StreamEngine's plan tier,
 * then serves 10,000 hits through Producer::serveHit from wire-shaped
 * lanes into a caller's reply buffer — with a payload and without —
 * and asserts the count did not move. Its own binary, because the
 * replacement is process-wide.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new> // srb-lint: allow(SRB004) std::bad_alloc, std::align_val_t
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "core/router.hh"
#include "core/stream.hh"
#include "perm/permutation.hh"
#include "sightings.hh"

namespace
{

std::atomic<std::uint64_t> g_allocations{0};

void *
counted(std::size_t size)
{
    // order: relaxed; a plain event count, read by the test thread
    // after the serves it brackets.
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size != 0 ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAligned(std::size_t size, std::align_val_t align)
{
    // order: relaxed; see counted().
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    if (void *p = std::aligned_alloc(a, (size + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

std::uint64_t
allocations()
{
    // order: relaxed; see counted().
    return g_allocations.load(std::memory_order_relaxed);
}

} // namespace

void *operator new(std::size_t size) { return counted(size); }
void *operator new[](std::size_t size) { return counted(size); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAligned(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAligned(size, align);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace srbenes;

TEST(HitAllocation, TenThousandHitsAllocateNothing)
{
    const unsigned n = 8;
    const Word N = Word{1} << n;
    obs::MetricsRegistry reg;
    StreamOptions opts;
    opts.metrics = &reg;
    StreamEngine eng(n, opts);
    Prng prng(90);
    const Permutation d = Permutation::random(N, prng);
    (void)sightTwice(eng.router(), d);
    auto &prod = eng.producer(0);

    // A Submit frame's lanes where srbd reads them (tags at offset
    // 34, the payload after them) and a SubmitResult's payload at
    // offset 27 of the reply.
    std::vector<std::uint8_t> frame(34 + 12 * N);
    std::vector<Word> payload(N);
    for (Word i = 0; i < N; ++i) {
        const auto t = static_cast<std::uint32_t>(d[i]);
        std::memcpy(frame.data() + 34 + 4 * i, &t, 4);
        payload[i] = prng();
    }
    std::memcpy(frame.data() + 34 + 4 * N, payload.data(), 8 * N);
    const std::uint8_t *tags = frame.data() + 34;
    const std::uint8_t *lanes = frame.data() + 34 + 4 * N;
    std::vector<std::uint8_t> reply(27 + 8 * N);

    auto serve = [&](const void *in) {
        const Hash128 h = hashTags128(tags, N);
        return prod.serveHit(tags, h, in, reply.data() + 27,
                             obs::monotonicNs(), 0) != 0;
    };
    for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(serve(lanes));
        ASSERT_TRUE(serve(nullptr));
    }

    const std::uint64_t before = allocations();
    bool all_served = true;
    for (int i = 0; i < 10000; ++i)
        all_served &= serve(lanes);
    for (int i = 0; i < 10000; ++i)
        all_served &= serve(nullptr);
    const std::uint64_t after = allocations();

    EXPECT_TRUE(all_served);
    EXPECT_EQ(after - before, 0u);
    std::vector<Word> routed(N);
    std::memcpy(routed.data(), reply.data() + 27, 8 * N);
    EXPECT_EQ(routed, d.applyTo(payload));
    EXPECT_EQ(eng.stats().inline_served, 20200u);
    EXPECT_EQ(prod.submitted(), 0u);
}

} // namespace
