/**
 * @file
 * Streaming-engine tests: the lock-free SPSC ring, the 128-bit
 * permutation hash, an 8-thread hammer on the Router's sharded plan
 * cache, and end-to-end StreamEngine runs checked payload-for-payload
 * against Permutation::applyTo and the reference simulator — over
 * the rings (plan tier disabled) and with plan hits served on the
 * producer thread, and the tag form's refusal of malformed tags on
 * every path a request can take.
 */

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "core/resilient.hh"
#include "core/router.hh"
#include "core/self_routing.hh"
#include "core/stream.hh"
#include "malformed.hh"
#include "perm/f_class.hh"
#include "perm/permutation.hh"
#include "sightings.hh"

namespace
{

using namespace srbenes;

std::vector<Word>
iotaPayload(std::size_t size, Word base)
{
    std::vector<Word> v(size);
    for (std::size_t i = 0; i < size; ++i)
        v[i] = base + i;
    return v;
}

// ------------------------------------------------------------ Hash128

TEST(Hash128Test, EqualPermutationsHashEqual)
{
    Prng prng(41);
    const Permutation d = Permutation::random(64, prng);
    const Permutation copy(d.dest());
    EXPECT_EQ(hashPermutation128(d), hashPermutation128(copy));
}

TEST(Hash128Test, DistinctPermutationsHashDistinct)
{
    // Not a collision-resistance proof, just a smoke check that the
    // lanes actually mix: many random and near-identical patterns
    // must produce unique 128-bit values.
    Prng prng(42);
    std::map<std::pair<std::uint64_t, std::uint64_t>,
             std::vector<Word>>
        seen;
    auto check = [&](const Permutation &d) {
        const Hash128 h = hashPermutation128(d);
        auto [it, inserted] =
            seen.try_emplace({h.lo, h.hi}, d.dest());
        if (!inserted) {
            EXPECT_EQ(it->second, d.dest()) << "128-bit collision";
        }
    };
    for (int rep = 0; rep < 200; ++rep)
        check(Permutation::random(64, prng));
    // Adjacent transpositions of the identity differ in two words.
    std::vector<Word> dest(64);
    for (Word i = 0; i < 64; ++i)
        dest[i] = i;
    check(Permutation(dest));
    for (Word i = 0; i + 1 < 64; ++i) {
        std::swap(dest[i], dest[i + 1]);
        check(Permutation(dest));
        std::swap(dest[i], dest[i + 1]);
    }
    EXPECT_GE(seen.size(), 200u);
}

TEST(Hash128Test, SizeIsPartOfTheHash)
{
    const Permutation a(std::vector<Word>{0, 1});
    const Permutation b(std::vector<Word>{0, 1, 2, 3});
    EXPECT_FALSE(hashPermutation128(a) == hashPermutation128(b));
}

// ----------------------------------------------------------- SpscRing

TEST(SpscRingTest, FillDrainAndWrap)
{
    SpscRing<int> ring(4);
    EXPECT_TRUE(ring.empty());
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 4; ++i)
            EXPECT_TRUE(ring.tryPush(round * 10 + i));
        int overflow = 99;
        EXPECT_FALSE(ring.tryPush(std::move(overflow)));
        for (int i = 0; i < 4; ++i) {
            int out = -1;
            ASSERT_TRUE(ring.tryPop(out));
            EXPECT_EQ(out, round * 10 + i);
        }
        int out = -1;
        EXPECT_FALSE(ring.tryPop(out));
        EXPECT_TRUE(ring.empty());
    }
}

TEST(SpscRingTest, FailedPushKeepsValueIntact)
{
    SpscRing<std::vector<int>> ring(2);
    EXPECT_TRUE(ring.tryPush(std::vector<int>{1}));
    EXPECT_TRUE(ring.tryPush(std::vector<int>{2}));
    std::vector<int> v{3, 4, 5};
    EXPECT_FALSE(ring.tryPush(std::move(v)));
    EXPECT_EQ(v, (std::vector<int>{3, 4, 5}));
}

TEST(SpscRingTest, TwoThreadStressPreservesFifo)
{
    // Yield when the ring pushes back: on a single-core host a bare
    // spin burns a whole scheduler quantum per failed attempt.
    constexpr std::uint64_t kCount = 100000;
    SpscRing<std::uint64_t> ring(64);
    std::thread producer([&] {
        for (std::uint64_t i = 0; i < kCount;) {
            std::uint64_t v = i;
            if (ring.tryPush(std::move(v)))
                ++i;
            else
                // srb-lint: allow(SRB005) the bare ring is under
                // test here, deliberately without a Doorbell.
                std::this_thread::yield();
        }
    });
    std::uint64_t expect = 0;
    bool ordered = true;
    while (expect < kCount) {
        std::uint64_t out;
        if (ring.tryPop(out)) {
            ordered = ordered && out == expect;
            ++expect;
        } else {
            // srb-lint: allow(SRB005) see above: ring-only test.
            std::this_thread::yield();
        }
    }
    producer.join();
    EXPECT_TRUE(ordered);
    EXPECT_TRUE(ring.empty());
}

// -------------------------------------------- Router under contention

TEST(RouterConcurrency, EightThreadsHammerThePlanCache)
{
    // 8 threads route a working set larger than the cache through one
    // shared Router while 2 more race findCached against their
    // inserts and evictions: every output and every found plan must
    // still be exact, and the sharded counters must balance (probes
    // == hits + misses, final size within capacity).
    //
    // A full tier evicts only for a newcomer the sketch counts more
    // frequent than the resident it draws, and a hammer spread evenly
    // over 12 patterns brings them all to the counters' ceiling, where
    // ties evict nothing. So the tier starts full of patterns 0..7
    // sighted twice, and the threads work over 4..11 only: the
    // newcomers 8..11 soon outcount the idle 0..3 and evict them
    // while the finders look up.
    const unsigned n = 5;
    const Word N = Word{1} << n;
    constexpr unsigned kThreads = 8;
    constexpr unsigned kFinders = 2;
    constexpr int kPatterns = 12;
    constexpr int kIdle = 4;
    constexpr int kIters = 60;
    constexpr std::size_t kCapacity = 8;
    const Router router(n, false, kCapacity, /*shards=*/4);

    Prng seed_prng(43);
    std::vector<Permutation> patterns;
    std::vector<std::uint64_t> keys;
    /** Each pattern's inverse: the gather table its plan must hold. */
    std::vector<std::vector<Word>> inverses;
    for (int i = 0; i < kPatterns; ++i) {
        patterns.push_back(randomFMember(n, seed_prng));
        keys.push_back(Router::hashPermutation(patterns.back()));
        inverses.push_back(patterns.back().inverse().dest());
    }
    for (std::size_t i = 0; i < kCapacity; ++i)
        (void)sightTwice(router, patterns[i]);
    ASSERT_EQ(router.planCacheSize(), kCapacity);
    auto hammered = [&](Prng &prng) {
        return kIdle + prng.below(kPatterns - kIdle);
    };

    std::vector<std::thread> threads;
    std::vector<int> failures(kThreads + kFinders, 0);
    std::vector<std::size_t> found(kFinders, 0);
    for (unsigned f = 0; f < kFinders; ++f) {
        threads.emplace_back([&, f] {
            Prng prng(200 + f);
            for (int it = 0; it < 4 * kIters; ++it) {
                const std::size_t pi = hammered(prng);
                const auto plan =
                    router.findCached(patterns[pi], keys[pi]);
                if (!plan)
                    continue;
                ++found[f];
                if (!std::equal(plan->src.begin(), plan->src.end(),
                                inverses[pi].begin(), inverses[pi].end()))
                    ++failures[kThreads + f];
            }
        });
    }
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Prng prng(100 + t);
            for (int it = 0; it < kIters; ++it) {
                const std::size_t pi = hammered(prng);
                const Permutation &d = patterns[pi];
                const auto plan = router.planCached(d);
                if (!std::equal(plan->src.begin(), plan->src.end(),
                                inverses[pi].begin(), inverses[pi].end())) {
                    ++failures[t];
                    continue;
                }
                if (it % 4 == 0) {
                    // A short run of vectors through one held plan,
                    // gathered into a reused buffer.
                    const std::vector<Word> data =
                        iotaPayload(N, t * 1000);
                    std::vector<Word> out;
                    for (int v = 0; v < 3; ++v) {
                        router.executeInto(*plan, data, out);
                        for (Word i = 0; i < N; ++i)
                            if (out[d[i]] != data[i])
                                ++failures[t];
                    }
                } else {
                    const auto out =
                        router.execute(*plan, iotaPayload(N, it));
                    for (Word i = 0; i < N; ++i)
                        if (out[d[i]] != Word(it) + i)
                            ++failures[t];
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (unsigned t = 0; t < kThreads + kFinders; ++t)
        EXPECT_EQ(failures[t], 0) << "thread " << t;

    const CacheStats stats = router.cacheStats();
    EXPECT_EQ(stats.hits, router.planCacheHits());
    EXPECT_EQ(stats.misses, router.planCacheMisses());
    // A findCached hit counts like planCached's; its miss counts
    // nothing.
    const std::size_t probes = 2 * kCapacity + std::size_t{kThreads} * kIters;
    EXPECT_EQ(stats.hits + stats.misses, probes + found[0] + found[1]);
    EXPECT_LE(stats.size, kCapacity);
    EXPECT_GT(stats.hits, 0u);
    EXPECT_GT(router.planCacheEvictions(), 0u);
}

// -------------------------------------------------------- StreamEngine

/**
 * Drives a StreamEngine from this thread: submits @p total requests
 * over @p patterns, polling whenever the ring pushes back, and
 * returns every result received.
 */
std::vector<StreamResult>
pump(StreamEngine &eng, StreamEngine::Producer &prod,
     const std::vector<std::shared_ptr<const Permutation>> &patterns,
     std::uint64_t total, Prng &prng)
{
    const Word N = eng.numLines();
    std::vector<StreamResult> results;
    results.reserve(total);
    StreamResult res;
    std::uint64_t id = 0;
    while (id < total) {
        const auto &perm = patterns[prng.below(patterns.size())];
        std::vector<Word> payload = iotaPayload(N, id * N);
        while (!prod.trySubmit(id, perm, payload))
            if (prod.tryPoll(res))
                results.push_back(std::move(res));
        ++id;
        if (prod.tryPoll(res))
            results.push_back(std::move(res));
    }
    while (prod.received() < prod.submitted())
        if (prod.tryPoll(res))
            results.push_back(std::move(res));
    return results;
}

TEST(StreamEngineTest, RoutesEveryRequestExactly)
{
    const unsigned n = 6;
    const Word N = Word{1} << n;
    StreamOptions opts;
    opts.workers = 2;
    opts.ring_capacity = 32;        // small: exercises backpressure
    opts.shared_cache_capacity = 0; // ring mechanics under test
    StreamEngine eng(n, opts);

    Prng prng(44);
    std::vector<std::shared_ptr<const Permutation>> patterns;
    for (int i = 0; i < 6; ++i)
        patterns.push_back(std::make_shared<const Permutation>(
            randomFMember(n, prng)));
    // Record which pattern each id used so results can be verified
    // after the fact (results may arrive out of order across
    // workers).
    std::vector<std::size_t> pattern_of;

    eng.start();
    auto &prod = eng.producer(0);
    constexpr std::uint64_t kTotal = 500;
    std::vector<StreamResult> results;
    {
        Prng choose(45);
        StreamResult res;
        for (std::uint64_t id = 0; id < kTotal; ++id) {
            const std::size_t pi = choose.below(patterns.size());
            pattern_of.push_back(pi);
            std::vector<Word> payload = iotaPayload(N, id * N);
            while (!prod.trySubmit(id, patterns[pi], payload))
                if (prod.tryPoll(res))
                    results.push_back(std::move(res));
            if (prod.tryPoll(res))
                results.push_back(std::move(res));
        }
        while (prod.received() < prod.submitted())
            if (prod.tryPoll(res))
                results.push_back(std::move(res));
    }
    eng.stop();
    EXPECT_FALSE(eng.running());

    ASSERT_EQ(results.size(), kTotal);
    std::vector<bool> seen(kTotal, false);
    for (const auto &res : results) {
        ASSERT_LT(res.id, kTotal);
        EXPECT_FALSE(seen[res.id]) << "duplicate id " << res.id;
        seen[res.id] = true;
        const Permutation &d = *patterns[pattern_of[res.id]];
        EXPECT_EQ(res.payload, d.applyTo(iotaPayload(N, res.id * N)))
            << "id " << res.id;
        EXPECT_GE(res.complete_ns, res.submit_ns);
    }

    const StreamStats st = eng.stats();
    EXPECT_EQ(st.requests, kTotal);
    EXPECT_EQ(st.payload_words, kTotal * N);
    // With no plan tier every request crossed a ring and was planned
    // on a worker; the disabled tier counts nothing.
    EXPECT_EQ(st.inline_served, 0u);
    EXPECT_EQ(eng.router().planCacheHits(), 0u);
    EXPECT_EQ(eng.router().planCacheMisses(), 0u);
    EXPECT_GT(st.perms_per_sec, 0.0);
    EXPECT_GE(st.p99_ns, st.p50_ns);
    EXPECT_EQ(st.shared_cache.hits + st.shared_cache.misses, 0u);
    EXPECT_EQ(st.shared_cache.size, 0u);
}

TEST(StreamEngineTest, MatchesReferenceSimulatorForFMembers)
{
    // Bit-for-bit parity of streamed payloads against the reference
    // SelfRoutingBenes simulator on every sampled request.
    const unsigned n = 4;
    const Word N = Word{1} << n;
    const SelfRoutingBenes net(n);
    StreamOptions opts;
    opts.shared_cache_capacity = 0; // ring mechanics under test
    StreamEngine eng(n, opts);

    Prng prng(46);
    std::vector<std::shared_ptr<const Permutation>> patterns;
    for (int i = 0; i < 4; ++i)
        patterns.push_back(std::make_shared<const Permutation>(
            randomFMember(n, prng)));

    eng.start();
    Prng choose(47);
    std::vector<std::size_t> pattern_of;
    auto &prod = eng.producer(0);
    std::vector<StreamResult> results;
    StreamResult res;
    constexpr std::uint64_t kTotal = 64;
    for (std::uint64_t id = 0; id < kTotal; ++id) {
        const std::size_t pi = choose.below(patterns.size());
        pattern_of.push_back(pi);
        std::vector<Word> payload = iotaPayload(N, id * 100);
        while (!prod.trySubmit(id, patterns[pi], payload))
            if (prod.tryPoll(res))
                results.push_back(std::move(res));
        if (prod.tryPoll(res))
            results.push_back(std::move(res));
    }
    while (prod.received() < prod.submitted())
        if (prod.tryPoll(res))
            results.push_back(std::move(res));
    eng.stop();

    ASSERT_EQ(results.size(), kTotal);
    for (const auto &r : results) {
        const auto ref = net.permutePayloads(
            *patterns[pattern_of[r.id]], iotaPayload(N, r.id * 100));
        ASSERT_TRUE(ref.has_value());
        EXPECT_EQ(r.payload, *ref) << "id " << r.id;
    }
}

TEST(StreamEngineTest, MultipleProducersAndColdPatterns)
{
    // Two producer threads, each mixing a hot set with freshly drawn
    // cold patterns: both producers serve hits from the plan tier
    // while the workers plan misses into it and evict.
    const unsigned n = 5;
    const Word N = Word{1} << n;
    StreamOptions opts;
    opts.workers = 2;
    opts.producers = 2;
    opts.shared_cache_capacity = 16;
    StreamEngine eng(n, opts);
    eng.start();

    constexpr std::uint64_t kPerProducer = 300;
    std::vector<std::vector<StreamResult>> got(2);
    std::vector<std::vector<Permutation>> used(2);
    std::vector<std::thread> pumps;
    for (unsigned p = 0; p < 2; ++p) {
        pumps.emplace_back([&, p] {
            Prng prng(48 + p);
            auto &prod = eng.producer(p);
            std::vector<std::shared_ptr<const Permutation>> hot;
            for (int i = 0; i < 3; ++i)
                hot.push_back(std::make_shared<const Permutation>(
                    randomFMember(n, prng)));
            StreamResult res;
            for (std::uint64_t id = 0; id < kPerProducer; ++id) {
                // The hot set goes first, twice, each planned before
                // the next submit, so its second sightings are
                // resident and later hot requests can hit.
                std::shared_ptr<const Permutation> perm;
                if (id < 2 * hot.size())
                    perm = hot[id % hot.size()];
                else if (prng.below(8) == 0) // cold draw
                    perm = std::make_shared<const Permutation>(
                        randomFMember(n, prng));
                else
                    perm = hot[prng.below(hot.size())];
                used[p].push_back(*perm);
                std::vector<Word> payload = iotaPayload(N, id);
                while (!prod.trySubmit(id, perm, payload))
                    if (prod.tryPoll(res))
                        got[p].push_back(std::move(res));
                if (id < 2 * hot.size()) {
                    while (prod.received() < prod.submitted()) {
                        prod.awaitResult(res);
                        got[p].push_back(std::move(res));
                    }
                } else if (prod.tryPoll(res)) {
                    got[p].push_back(std::move(res));
                }
            }
            while (prod.received() < prod.submitted())
                if (prod.tryPoll(res))
                    got[p].push_back(std::move(res));
        });
    }
    for (auto &t : pumps)
        t.join();
    eng.stop();

    for (unsigned p = 0; p < 2; ++p) {
        ASSERT_EQ(got[p].size(), kPerProducer) << "producer " << p;
        for (const auto &r : got[p]) {
            const Permutation &d = used[p][r.id];
            EXPECT_EQ(r.payload, d.applyTo(iotaPayload(N, r.id)));
        }
    }
    const StreamStats st = eng.stats();
    EXPECT_EQ(st.requests, 2 * kPerProducer);
    // Every request counts exactly one tier hit or miss, wherever it
    // was served; a producer-served request is always a hit.
    EXPECT_EQ(eng.router().planCacheHits() +
                  eng.router().planCacheMisses(),
              2 * kPerProducer);
    EXPECT_GT(st.inline_served, 0u);
    EXPECT_LE(st.inline_served, eng.router().planCacheHits());
    EXPECT_GT(eng.router().planCacheMisses(), 0u);
    EXPECT_EQ(st.shared_cache.hits, eng.router().planCacheHits());
    EXPECT_LE(st.shared_cache.size, opts.shared_cache_capacity);
}

TEST(StreamEngineTest, ResultsRemainPollableAfterStop)
{
    const unsigned n = 3;
    const Word N = Word{1} << n;
    StreamOptions opts;
    opts.shared_cache_capacity = 0; // ring mechanics under test
    StreamEngine eng(n, opts);
    auto perm = std::make_shared<const Permutation>(
        Permutation::identity(N));
    eng.start();
    auto &prod = eng.producer(0);
    for (std::uint64_t id = 0; id < 4; ++id) {
        std::vector<Word> payload = iotaPayload(N, id);
        ASSERT_TRUE(prod.trySubmit(id, perm, payload));
    }
    // Wait for completion without draining the result rings, then
    // stop; the four results must still be pollable.
    while (eng.stats().requests < 4)
        // srb-lint: allow(SRB005) no doorbell signals "processed
        // but undrained"; a bounded test-only poll is fine.
        std::this_thread::yield();
    eng.stop();
    StreamResult res;
    unsigned polled = 0;
    while (prod.tryPoll(res)) {
        EXPECT_EQ(res.payload, iotaPayload(N, res.id));
        ++polled;
    }
    EXPECT_EQ(polled, 4u);
}

TEST(StreamEngineTest, PumpHelperSurvivesRandomMix)
{
    // A denser randomized pass through the shared pump() helper.
    const unsigned n = 7;
    StreamOptions opts;
    opts.workers = 3;
    opts.shared_cache_capacity = 0; // ring mechanics under test
    StreamEngine eng(n, opts);
    Prng prng(49);
    std::vector<std::shared_ptr<const Permutation>> patterns;
    for (int i = 0; i < 8; ++i)
        patterns.push_back(std::make_shared<const Permutation>(
            randomFMember(n, prng)));
    eng.start();
    const auto results =
        pump(eng, eng.producer(0), patterns, 400, prng);
    eng.stop();
    EXPECT_EQ(results.size(), 400u);
    EXPECT_EQ(eng.stats().requests, 400u);
}

TEST(StreamEngineTest, StatsAreSafeAgainstLifecycleTransitions)
{
    // Regression: stats() is documented live at any time, but the
    // elapsed-time stamps (start_ns_/stop_ns_) and lifecycle flags
    // used to be plain fields, so a stats()/running() poll racing
    // with resetStats() or stop() was a data race (caught under
    // tsan). The stamps are atomic now; hammer the exact interleave.
    const unsigned n = 4;
    const Word N = Word{1} << n;
    StreamOptions opts;
    opts.shared_cache_capacity = 0; // worker threads must race stats()
    StreamEngine eng(n, opts);
    auto perm = std::make_shared<const Permutation>(
        Permutation::identity(N));
    eng.start();

    std::atomic<bool> done{false};
    std::thread observer([&] {
        // order: relaxed; the flag only bounds the poll loop, the
        // interesting synchronization is inside stats() itself.
        while (!done.load(std::memory_order_relaxed)) {
            const StreamStats st = eng.stats();
            EXPECT_GE(st.elapsed_sec, 0.0);
            (void)eng.running();
        }
    });

    auto &prod = eng.producer(0);
    StreamResult res;
    for (std::uint64_t id = 0; id < 64; ++id) {
        std::vector<Word> payload = iotaPayload(N, id);
        while (!prod.trySubmit(id, perm, payload))
            prod.tryPoll(res);
        if (id % 16 == 15) {
            while (prod.received() < prod.submitted())
                prod.tryPoll(res);
            eng.resetStats(); // races with the observer's stats()
        }
    }
    while (prod.received() < prod.submitted())
        prod.tryPoll(res);
    eng.stop(); // the stop_ns_/stopped_ publication also races
    // order: relaxed; thread join below is the synchronization.
    done.store(true, std::memory_order_relaxed);
    observer.join();

    EXPECT_FALSE(eng.running());
    EXPECT_GT(eng.stats().elapsed_sec, 0.0);
}

// --------------------------------------------- run to completion

TEST(StreamEngineTest, HitIsServedOnTheProducerWithNoWorker)
{
    // A pattern resident in the plan tier is served inside trySubmit:
    // the engine is not even started, yet tryPoll returns the result
    // at once. A first-seen pattern stays queued for a worker until
    // start().
    const unsigned n = 5;
    const Word N = Word{1} << n;
    StreamEngine eng(n, {});
    Prng prng(53);
    auto hot = std::make_shared<const Permutation>(
        randomFMember(n, prng));
    auto cold = std::make_shared<const Permutation>(
        Permutation::random(N, prng));
    (void)sightTwice(eng.router(), *hot);
    const std::size_t hits0 = eng.router().planCacheHits();

    auto &prod = eng.producer(0);
    StreamResult res;
    for (std::uint64_t id = 0; id < 8; ++id) {
        std::vector<Word> payload = iotaPayload(N, id);
        ASSERT_TRUE(prod.trySubmit(id, hot, payload));
        ASSERT_TRUE(prod.tryPoll(res)) << "a hit needs no worker";
        EXPECT_EQ(res.id, id);
        EXPECT_TRUE(res.ok());
        EXPECT_EQ(res.tier, ServeTier::Primary);
        EXPECT_EQ(res.payload, hot->applyTo(iotaPayload(N, id)));
    }
    EXPECT_EQ(eng.router().planCacheHits(), hits0 + 8);

    std::vector<Word> payload = iotaPayload(N, 100);
    ASSERT_TRUE(prod.trySubmit(100, cold, payload));
    EXPECT_FALSE(prod.tryPoll(res)) << "a miss waits for a worker";
    EXPECT_EQ(prod.inFlight(), 1u);

    eng.start();
    ASSERT_TRUE(prod.awaitResultFor(res, 2'000'000'000ull));
    EXPECT_EQ(res.id, 100u);
    EXPECT_EQ(res.payload, cold->applyTo(iotaPayload(N, 100)));
    eng.stop();

    const StreamStats st = eng.stats();
    EXPECT_EQ(st.inline_served, 8u);
    EXPECT_EQ(st.requests, 9u);
    EXPECT_EQ(st.sheds, 0u);
}

TEST(StreamEngineTest, PolledResultLeavesNoReferenceToItsPattern)
{
    // The engine holds a request's pattern only while the request is
    // in flight: once its result is polled, the caller's shared_ptr
    // is the last reference, on both serving paths.
    const unsigned n = 5;
    const Word N = Word{1} << n;
    StreamEngine eng(n, {});
    Prng prng(58);
    auto &prod = eng.producer(0);
    StreamResult res;

    // Producer-hit path: a resident plan is served inside trySubmit.
    auto hot = std::make_shared<const Permutation>(
        randomFMember(n, prng));
    (void)sightTwice(eng.router(), *hot);
    std::vector<Word> payload = iotaPayload(N, 0);
    ASSERT_TRUE(prod.trySubmit(0, hot, payload));
    ASSERT_TRUE(prod.tryPoll(res));
    EXPECT_EQ(res.payload, hot->applyTo(iotaPayload(N, 0)));
    EXPECT_EQ(eng.stats().inline_served, 1u);
    EXPECT_EQ(hot.use_count(), 1);

    // Worker path: a first-seen pattern is planned and served by a
    // worker, whose request slot outlives the request.
    auto cold = std::make_shared<const Permutation>(
        Permutation::random(N, prng));
    eng.start();
    payload = iotaPayload(N, 1);
    ASSERT_TRUE(prod.trySubmit(1, cold, payload));
    ASSERT_TRUE(prod.awaitResultFor(res, 2'000'000'000ull));
    EXPECT_EQ(res.payload, cold->applyTo(iotaPayload(N, 1)));
    EXPECT_EQ(eng.stats().inline_served, 1u);
    EXPECT_EQ(cold.use_count(), 1);
    eng.stop();
}

TEST(StreamEngineTest, MissPlanBecomesTheNextSubmitsHit)
{
    // The worker's plan for a pattern's second sighting goes into
    // the one tier, so the very next submit of that pattern is
    // served on the producer.
    const unsigned n = 6;
    const Word N = Word{1} << n;
    StreamEngine eng(n, {});
    Prng prng(54);
    auto perm = std::make_shared<const Permutation>(
        Permutation::random(N, prng));
    eng.start();
    auto &prod = eng.producer(0);

    std::vector<Word> payload;
    StreamResult res;
    for (std::uint64_t id = 0; id < 2; ++id) {
        payload = iotaPayload(N, id);
        ASSERT_TRUE(prod.trySubmit(id, perm, payload));
        ASSERT_TRUE(prod.awaitResultFor(res, 2'000'000'000ull));
        EXPECT_EQ(res.payload, perm->applyTo(iotaPayload(N, id)));
        EXPECT_EQ(eng.router().planCacheMisses(), id + 1);
        EXPECT_EQ(eng.stats().inline_served, 0u);
    }

    payload = iotaPayload(N, 2);
    ASSERT_TRUE(prod.trySubmit(2, perm, payload));
    ASSERT_TRUE(prod.tryPoll(res)) << "the planned miss is now a hit";
    EXPECT_EQ(res.id, 2u);
    EXPECT_EQ(res.payload, perm->applyTo(iotaPayload(N, 2)));
    eng.stop();

    EXPECT_EQ(eng.stats().inline_served, 1u);
    EXPECT_EQ(eng.router().planCacheMisses(), 2u);
    EXPECT_EQ(eng.router().planCacheHits(), 1u);
}

TEST(StreamEngineTest, FirstSightingIsServedButNotKept)
{
    // A request is one sighting however many lookups it takes: the
    // producer's findCached miss counts nothing, and the worker's
    // planCached counts the request once. So a first-seen pattern is
    // planned and served by a worker but not kept, its second
    // request is planned again and kept, and its third is a hit
    // served on the producer. Counting the producer's miss as a
    // sighting too would keep the first request's plan.
    const unsigned n = 6;
    const Word N = Word{1} << n;
    StreamEngine eng(n, {});
    Prng prng(55);
    auto perm = std::make_shared<const Permutation>(
        Permutation::random(N, prng));
    const Router &router = eng.router();
    eng.start();
    auto &prod = eng.producer(0);

    std::vector<Word> payload;
    StreamResult res;
    for (std::uint64_t id = 0; id < 2; ++id) {
        payload = iotaPayload(N, id);
        ASSERT_TRUE(prod.trySubmit(id, perm, payload));
        ASSERT_TRUE(prod.awaitResultFor(res, 2'000'000'000ull));
        EXPECT_TRUE(res.ok());
        EXPECT_EQ(res.payload, perm->applyTo(iotaPayload(N, id)));
        EXPECT_EQ(eng.stats().inline_served, 0u) << "request " << id;
        EXPECT_EQ(router.planCacheSize(), id) << "request " << id;
    }
    EXPECT_EQ(router.cacheStats().first_sightings, 1u);
    EXPECT_EQ(router.cacheStats().admitted, 1u);

    payload = iotaPayload(N, 2);
    ASSERT_TRUE(prod.trySubmit(2, perm, payload));
    ASSERT_TRUE(prod.tryPoll(res)) << "the second sighting's plan hits";
    EXPECT_EQ(res.payload, perm->applyTo(iotaPayload(N, 2)));
    eng.stop();

    EXPECT_EQ(eng.stats().inline_served, 1u);
    EXPECT_EQ(router.planCacheMisses(), 2u);
    EXPECT_EQ(router.planCacheHits(), 1u);
}

TEST(StreamEngineTest, HitWithFullResultQueueTakesARingThenSheds)
{
    // The producer's result queue holds ring_capacity results. A hit
    // that finds it full is not shed: it crosses to the affine
    // worker's ring, then spills to the neighbour's, and only when
    // both rings are full as well is it refused — leaving the payload
    // untouched. Nothing is started, so nothing drains.
    const unsigned n = 5;
    const Word N = Word{1} << n;
    StreamOptions opts;
    opts.workers = 2;
    opts.ring_capacity = 2; // the clamp floor
    StreamEngine eng(n, opts);
    Prng prng(50);
    auto perm = std::make_shared<const Permutation>(
        randomFMember(n, prng));
    (void)sightTwice(eng.router(), *perm);
    const std::size_t hits0 = eng.router().planCacheHits();

    auto &prod = eng.producer(0);
    for (std::uint64_t id = 0; id < 6; ++id) {
        std::vector<Word> payload = iotaPayload(N, id);
        ASSERT_TRUE(prod.trySubmit(id, perm, payload)) << "id " << id;
    }
    std::vector<Word> seventh = iotaPayload(N, 6);
    EXPECT_FALSE(prod.trySubmit(6, perm, seventh));
    EXPECT_EQ(seventh, iotaPayload(N, 6)) << "shed must not consume";
    EXPECT_EQ(eng.stats().sheds, 1u);
    EXPECT_EQ(eng.stats().inline_served, 2u);

    eng.start();
    StreamResult res;
    std::set<unsigned> ring_workers;
    for (unsigned got = 0; got < 6; ++got) {
        ASSERT_TRUE(prod.awaitResultFor(res, 2'000'000'000ull));
        EXPECT_TRUE(res.ok());
        EXPECT_EQ(res.payload, perm->applyTo(iotaPayload(N, res.id)));
        if (res.id >= 2)
            ring_workers.insert(res.worker);
    }
    EXPECT_EQ(ring_workers.size(), 2u)
        << "the spill must reach the second worker";
    // The queue has room again: the next hit is served at once.
    EXPECT_TRUE(prod.trySubmit(6, perm, seventh));
    ASSERT_TRUE(prod.tryPoll(res));
    EXPECT_EQ(res.id, 6u);
    eng.stop();

    const StreamStats st = eng.stats();
    EXPECT_EQ(st.sheds, 1u);
    EXPECT_EQ(st.requests, 7u);
    EXPECT_EQ(st.inline_served, 3u);
    // Producer and workers alike found the resident plan; the two
    // misses are the warm-up's sightings.
    EXPECT_EQ(eng.router().planCacheHits(), hits0 + 7);
    EXPECT_EQ(eng.router().planCacheMisses(), 2u);
    EXPECT_EQ(prod.submitted(), prod.received());
}

// ----------------------------------- a hit is its own validation

/**
 * malformedNeighbours (malformed.hh), and two the wire cannot carry:
 * @p d's tag plus 2^32, which the hash does not read, so its key is
 * @p d's own, and @p d one lane short.
 */
std::vector<std::pair<std::string, std::vector<Word>>>
everyMalformedNeighbour(const Permutation &d)
{
    auto all = malformedNeighbours(d);
    std::vector<Word> raised = d.dest();
    raised[4] += Word{1} << 32;
    all.emplace_back("tag plus 2^32", raised);
    std::vector<Word> short_by_one = d.dest();
    short_by_one.pop_back();
    all.emplace_back("one lane short", short_by_one);
    return all;
}

/**
 * Submit each of @p d's malformed neighbours through @p prod's tag
 * form: every one comes back Malformed with its payload untouched,
 * and none reaches the plan tier or a ring. The sketch records a
 * sighting only with a hit or a miss, so unchanged counts mean it
 * saw none either.
 */
void
expectEveryNeighbourRefused(const Router &router,
                            StreamEngine::Producer &prod,
                            const Permutation &d,
                            std::uint64_t deadline_ns = 0)
{
    const Word N = d.size();
    const CacheStats before = router.cacheStats();
    const std::uint64_t submitted = prod.submitted();
    for (const auto &[name, tags] : everyMalformedNeighbour(d)) {
        std::vector<Word> payload = iotaPayload(N, 7);
        EXPECT_EQ(prod.trySubmit(99, tags, payload, deadline_ns),
                  SubmitOutcome::Malformed)
            << name;
        EXPECT_EQ(payload, iotaPayload(N, 7)) << name;
    }
    const CacheStats after = router.cacheStats();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.size, before.size);
    EXPECT_EQ(prod.submitted(), submitted);
}

TEST(StreamEngineTest, MalformedTagsAreRefusedNearAResidentPlanOrNot)
{
    // The tag form looks a request up before validating it: a hit
    // proves the tags are a permutation, and anything else is
    // validated before it may take a ring. So malformed tags are
    // refused whether or not the valid pattern next to them is
    // resident, while that pattern itself is served on the producer
    // and a valid transposition of it is its own miss, planned by a
    // worker.
    const unsigned n = 6;
    const Word N = Word{1} << n;
    obs::MetricsRegistry reg;
    StreamOptions opts;
    opts.metrics = &reg;
    StreamEngine eng(n, opts);
    Prng prng(56);
    const Permutation d = Permutation::random(N, prng);
    auto &prod = eng.producer(0);

    expectEveryNeighbourRefused(eng.router(), prod, d);
    (void)sightTwice(eng.router(), d);
    expectEveryNeighbourRefused(eng.router(), prod, d);

    std::vector<Word> payload = iotaPayload(N, 1);
    EXPECT_EQ(prod.trySubmit(1, d.dest(), payload), SubmitOutcome::Accepted);
    StreamResult res;
    ASSERT_TRUE(prod.tryPoll(res)) << "a hit needs no worker";
    EXPECT_EQ(res.payload, d.applyTo(iotaPayload(N, 1)));

    std::vector<Word> swapped = d.dest();
    std::swap(swapped[0], swapped[N - 1]);
    const Permutation e(swapped);
    payload = iotaPayload(N, 2);
    EXPECT_EQ(prod.trySubmit(2, swapped, payload), SubmitOutcome::Accepted);
    EXPECT_FALSE(prod.tryPoll(res)) << "a miss waits for a worker";
    eng.start();
    ASSERT_TRUE(prod.awaitResultFor(res, 2'000'000'000ull));
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(res.payload, e.applyTo(iotaPayload(N, 2)));
    eng.stop();

    const StreamStats st = eng.stats();
    EXPECT_EQ(st.requests, 2u);
    EXPECT_EQ(st.inline_served, 1u);
    // d's two warm-up sightings and e's miss: no worker planned a
    // malformed request.
    EXPECT_EQ(eng.router().planCacheMisses(), 3u);
    EXPECT_EQ(eng.router().planCacheHits(), 1u);
}

TEST(StreamEngineTest, MalformedTagsPastTheirDeadlineAreRefused)
{
    // A request past its deadline skips the lookup and takes a ring,
    // so it is validated first: malformed tags are refused, not
    // expired, while the valid pattern expires on a worker.
    const unsigned n = 5;
    const Word N = Word{1} << n;
    obs::MetricsRegistry reg;
    StreamOptions opts;
    opts.metrics = &reg;
    StreamEngine eng(n, opts);
    Prng prng(57);
    const Permutation d = Permutation::random(N, prng);
    (void)sightTwice(eng.router(), d);
    auto &prod = eng.producer(0);
    expectEveryNeighbourRefused(eng.router(), prod, d, /*deadline_ns=*/1);

    std::vector<Word> payload = iotaPayload(N, 3);
    EXPECT_EQ(prod.trySubmit(3, d.dest(), payload, 1),
              SubmitOutcome::Accepted);
    eng.start();
    StreamResult res;
    ASSERT_TRUE(prod.awaitResultFor(res, 2'000'000'000ull));
    EXPECT_EQ(res.status, RouteErrc::DeadlineExceeded);
    EXPECT_EQ(res.payload, iotaPayload(N, 3));
    eng.stop();
    EXPECT_EQ(eng.stats().deadline_expired, 1u);
    EXPECT_EQ(eng.router().planCacheMisses(), 2u);
}

TEST(StreamEngineTest, MalformedTagsAreRefusedWithTheResultQueueFull)
{
    // With the producer's result queue full a hit takes a ring, so
    // every request is validated: malformed tags are refused, and
    // the valid pattern crosses to a worker.
    const unsigned n = 5;
    const Word N = Word{1} << n;
    obs::MetricsRegistry reg;
    StreamOptions opts;
    opts.metrics = &reg;
    opts.ring_capacity = 2;
    StreamEngine eng(n, opts);
    Prng prng(58);
    const Permutation d = Permutation::random(N, prng);
    (void)sightTwice(eng.router(), d);
    auto &prod = eng.producer(0);
    for (std::uint64_t id = 0; id < 2; ++id) {
        std::vector<Word> payload = iotaPayload(N, id);
        ASSERT_EQ(prod.trySubmit(id, d.dest(), payload),
                  SubmitOutcome::Accepted);
    }
    ASSERT_EQ(eng.stats().inline_served, 2u);
    expectEveryNeighbourRefused(eng.router(), prod, d);

    std::vector<Word> payload = iotaPayload(N, 2);
    EXPECT_EQ(prod.trySubmit(2, d.dest(), payload), SubmitOutcome::Accepted);
    EXPECT_EQ(eng.stats().inline_served, 2u);
    eng.start();
    StreamResult res;
    for (int got = 0; got < 3; ++got) {
        ASSERT_TRUE(prod.awaitResultFor(res, 2'000'000'000ull));
        EXPECT_TRUE(res.ok());
        EXPECT_EQ(res.payload, d.applyTo(iotaPayload(N, res.id)));
    }
    eng.stop();
    EXPECT_EQ(eng.stats().requests, 3u);
    EXPECT_EQ(eng.router().planCacheMisses(), 2u);
}

TEST(StreamEngineTest, MalformedTagsAreRefusedByAResilientEngine)
{
    // A resilient engine serves every request on a worker, so every
    // request is validated on the producer: malformed tags are
    // refused before the chain sees them, resident neighbour or not.
    const unsigned n = 5;
    const Word N = Word{1} << n;
    obs::MetricsRegistry reg;
    ResilientOptions ropts;
    ropts.metrics = &reg;
    ResilientRouter rr(n, ropts);
    StreamOptions opts;
    opts.metrics = &reg;
    opts.resilient = &rr;
    StreamEngine eng(n, opts);
    Prng prng(59);
    const Permutation d = Permutation::random(N, prng);
    auto &prod = eng.producer(0);

    expectEveryNeighbourRefused(eng.router(), prod, d);
    (void)sightTwice(eng.router(), d);
    expectEveryNeighbourRefused(eng.router(), prod, d);

    std::vector<Word> payload = iotaPayload(N, 4);
    EXPECT_EQ(prod.trySubmit(4, d.dest(), payload), SubmitOutcome::Accepted);
    eng.start();
    StreamResult res;
    ASSERT_TRUE(prod.awaitResultFor(res, 2'000'000'000ull));
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(res.tier, ServeTier::Primary);
    EXPECT_EQ(res.payload, d.applyTo(iotaPayload(N, 4)));
    eng.stop();
    EXPECT_EQ(eng.stats().requests, 1u);
    EXPECT_EQ(eng.stats().route_failures, 0u);
}

TEST(StreamEngineTest, ProducerHitsMatchRingOutcomes)
{
    // The same request sequence through a default engine (hits on
    // the producer, misses on workers) and through one with the plan
    // tier disabled (everything over the rings) must produce
    // identical outcomes: payloads, status, tier — and an expired
    // deadline's payload comes back unrouted on both.
    const unsigned n = 4;
    const Word N = Word{1} << n;

    Prng prng(51);
    std::vector<std::shared_ptr<const Permutation>> patterns;
    for (int i = 0; i < 4; ++i)
        patterns.push_back(std::make_shared<const Permutation>(
            randomFMember(n, prng)));

    StreamOptions ring_opts;
    ring_opts.shared_cache_capacity = 0;
    StreamEngine ring_eng(n, ring_opts);
    StreamEngine tier_eng(n, {});

    constexpr std::uint64_t kTotal = 200;
    // Each pattern is sighted twice in the warm-up.
    const std::uint64_t kWarm = 2 * patterns.size();
    Prng choose(52);
    std::vector<std::size_t> pattern_of;
    std::vector<std::uint64_t> deadline_of;
    for (std::uint64_t id = 0; id < kTotal; ++id) {
        pattern_of.push_back(id < kWarm ? id % patterns.size()
                                        : choose.below(patterns.size()));
        // Every 16th request carries a long-expired absolute
        // deadline; both engines must fail it identically.
        deadline_of.push_back(id % 16 == 15 ? 1 : 0);
    }

    auto run = [&](StreamEngine &eng) {
        eng.start();
        auto &prod = eng.producer(0);
        std::vector<StreamResult> results(kTotal);
        StreamResult res;
        for (std::uint64_t id = 0; id < kTotal; ++id) {
            std::vector<Word> payload = iotaPayload(N, id * N);
            while (!prod.trySubmit(id, patterns[pattern_of[id]],
                                   payload, deadline_of[id]))
                if (prod.tryPoll(res))
                    results[res.id] = std::move(res);
            if (id < kWarm) {
                // Warm-up: each pattern planned before the next
                // submit, so the tier engine's later requests hit.
                prod.awaitResult(res);
                results[res.id] = std::move(res);
            } else if (prod.tryPoll(res)) {
                results[res.id] = std::move(res);
            }
        }
        while (prod.received() < prod.submitted())
            if (prod.tryPoll(res))
                results[res.id] = std::move(res);
        eng.stop();
        return results;
    };
    const auto ring_results = run(ring_eng);
    const auto tier_results = run(tier_eng);

    for (std::uint64_t id = 0; id < kTotal; ++id) {
        const StreamResult &a = ring_results[id];
        const StreamResult &b = tier_results[id];
        EXPECT_EQ(a.status, b.status) << "id " << id;
        EXPECT_EQ(a.tier, b.tier) << "id " << id;
        EXPECT_EQ(a.payload, b.payload) << "id " << id;
        if (deadline_of[id] != 0) {
            // Expired before service in both engines: the original
            // payload comes back unrouted.
            EXPECT_EQ(b.status, RouteErrc::DeadlineExceeded);
            EXPECT_EQ(b.tier, ServeTier::Failed);
            EXPECT_EQ(b.payload, iotaPayload(N, id * N));
        } else {
            EXPECT_EQ(b.status, RouteErrc::Ok);
            EXPECT_EQ(b.tier, ServeTier::Primary);
            EXPECT_EQ(b.payload, patterns[pattern_of[id]]->applyTo(
                                     iotaPayload(N, id * N)));
        }
    }

    const StreamStats rs = ring_eng.stats();
    const StreamStats ts = tier_eng.stats();
    EXPECT_EQ(rs.inline_served, 0u);
    EXPECT_EQ(rs.requests, kTotal);
    EXPECT_EQ(ts.requests, kTotal);
    EXPECT_EQ(ts.deadline_expired, rs.deadline_expired);
    EXPECT_EQ(ts.deadline_expired, kTotal / 16);
    // Deadline-expired requests never reach the plan tier; every
    // other request counts exactly one tier hit or miss. After the
    // warm-up's eight misses, every live request was a hit served on
    // the producer.
    const Router &tier = tier_eng.router();
    EXPECT_EQ(tier.planCacheHits() + tier.planCacheMisses() +
                  ts.deadline_expired,
              ts.requests);
    EXPECT_EQ(tier.planCacheMisses(), kWarm);
    EXPECT_EQ(ts.inline_served, tier.planCacheHits());
    EXPECT_EQ(ts.inline_served, kTotal - kWarm - ts.deadline_expired);
}

} // namespace
