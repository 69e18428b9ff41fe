/**
 * @file
 * Model-checked invariants for the production components ported onto
 * the common/sync.hh shim (layer 3 of the srb_model subsystem):
 * SpscRing and Doorbell (core/stream.hh), the plan cache's
 * admission sketch (core/cache_admission.hh), the metrics instruments
 * (obs/metrics.hh), and the LifecycleStamps publication protocol.
 * Each test explores ALL schedules at 2-3 lanes under the configured
 * preemption bound (SRBENES_MODEL_PREEMPTIONS overrides for the
 * nightly sweep), so a green run is an exhaustive bounded proof, not
 * a lucky interleaving.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/cache_admission.hh"
#include "core/stream.hh"
#include "model/model.hh"
#include "obs/metrics.hh"

namespace srbenes
{
namespace
{

using model::explore;
using model::joinAll;
using model::modelAssert;
using model::Options;
using model::Result;
using model::spawn;

Options
boundedOpts(const char *name)
{
    Options opts;
    opts.name = name;
    opts.preemption_bound = model::preemptionBoundFromEnv(3);
    return opts;
}

/** Producer pushes 3 values through a capacity-4 ring while the
 *  consumer drains concurrently: nothing lost, nothing duplicated,
 *  FIFO order survives every interleaving. */
TEST(ModelComponents, SpscRingNoLostOrDuplicatedSlots)
{
    const Result res = explore(boundedOpts("spsc-no-loss"), [] {
        SpscRing<int> ring(4);
        std::vector<int> got;
        spawn([&] {
            int v = 0;
            for (int i = 0; i < 3; ++i)
                if (ring.tryPop(v))
                    got.push_back(v);
        });
        for (int i = 1; i <= 3; ++i)
            modelAssert(ring.tryPush(i + 0),
                        "capacity 4 never refuses 3 pushes");
        joinAll();
        int v = 0;
        while (ring.tryPop(v))
            got.push_back(v);
        modelAssert(got.size() == 3, "slot lost or duplicated");
        for (int i = 0; i < 3; ++i)
            modelAssert(got[static_cast<std::size_t>(i)] == i + 1,
                        "FIFO order broken");
    });
    EXPECT_TRUE(res.ok) << res.report();
    EXPECT_GT(res.schedules, 1u);
}

/** Full-ring wraparound at capacity 2: producer retries (bounded)
 *  against a concurrently draining consumer; every successfully
 *  pushed value comes back exactly once, in order, across the index
 *  wrap. */
TEST(ModelComponents, SpscRingFullRingWrap)
{
    const Result res = explore(boundedOpts("spsc-wrap"), [] {
        SpscRing<int> ring(2);
        std::vector<int> got;
        spawn([&] {
            int v = 0;
            for (int attempt = 0; attempt < 3; ++attempt)
                if (ring.tryPop(v))
                    got.push_back(v);
        });
        int pushed = 0;
        for (int i = 1; i <= 3; ++i) {
            bool ok = false;
            for (int attempt = 0; attempt < 2 && !ok; ++attempt)
                ok = ring.tryPush(i + 0);
            if (!ok)
                break;
            ++pushed;
        }
        joinAll();
        int v = 0;
        while (ring.tryPop(v))
            got.push_back(v);
        modelAssert(static_cast<int>(got.size()) == pushed,
                    "wrap lost or duplicated a slot");
        for (int i = 0; i < pushed; ++i)
            modelAssert(got[static_cast<std::size_t>(i)] == i + 1,
                        "wrap broke FIFO order");
        // The ring is capacity 2, so reaching 3+ pushes means the
        // indices wrapped at least once in this schedule.
        modelAssert(pushed >= 2, "bounded retries too tight");
    });
    EXPECT_TRUE(res.ok) << res.report();
}

/** The eventcount race: a consumer registering on the doorbell
 *  while the producer publishes-then-rings must never miss the wake
 *  (a miss would strand the futex waiter = deadlock failure). */
TEST(ModelComponents, DoorbellNeverLosesAWake)
{
    const Result res = explore(boundedOpts("doorbell-wake"), [] {
        Doorbell bell;
        sync::Atomic<int> work(0);
        spawn([&] {
            bell.waitUntil([&] {
                // order: acquire pairs with the producer's release
                // store of work below.
                return work.load(std::memory_order_acquire) != 0;
            });
            modelAssert(work.load() == 1,
                        "woken consumer must see the work");
        });
        // order: release publishes the work before the ring.
        work.store(1, std::memory_order_release);
        bell.ring();
        joinAll();
    });
    EXPECT_TRUE(res.ok) << res.report();
}

/** Wake ordering when the ring arrives before any waiter exists:
 *  the early ring must not be required, and the late registration
 *  must still see the published state instead of sleeping. */
TEST(ModelComponents, DoorbellEmptyRingWakeOrdering)
{
    const Result res = explore(boundedOpts("doorbell-early"), [] {
        Doorbell bell;
        sync::Atomic<int> work(0);
        // Ring with nobody registered: must be a harmless no-wake.
        bell.ring();
        spawn([&] {
            bell.waitUntil([&] {
                // order: acquire; see DoorbellNeverLosesAWake.
                return work.load(std::memory_order_acquire) != 0;
            });
        });
        // order: release publishes the work before the ring.
        work.store(1, std::memory_order_release);
        bell.ring();
        joinAll();
    });
    EXPECT_TRUE(res.ok) << res.report();
}

/** Sequence-epoch wraparound: with seq_ starting at UINT64_MAX - 1
 *  (test-only constructor), rings step it across zero while a
 *  waiter is in flight — the wake must still land. */
TEST(ModelComponents, DoorbellEpochWraparound)
{
    const Result res = explore(boundedOpts("doorbell-wrap"), [] {
        Doorbell bell(~std::uint64_t{0} - 1);
        sync::Atomic<int> work(0);
        spawn([&] {
            bell.waitUntil([&] {
                // order: acquire; see DoorbellNeverLosesAWake.
                return work.load(std::memory_order_acquire) != 0;
            });
            modelAssert(work.load() == 1,
                        "wake lost across the seq wrap");
        });
        // order: release publishes the work before the rings.
        work.store(1, std::memory_order_release);
        bell.ring(); // seq_: UINT64_MAX - 1 -> UINT64_MAX
        bell.ring(); // seq_: UINT64_MAX -> 0 (the wrap)
        joinAll();
    });
    EXPECT_TRUE(res.ok) << res.report();
}

/** Sketch increments racing a halving of the same counter word: a
 *  racing update may be lost, but none of the key's counters passes
 *  15 or wraps (a carry would drop it below the halved floor of 7),
 *  and the word's other counters stay 0. */
TEST(ModelComponents, SketchIncrementsRacingAHalvingNeverOverflow)
{
    const SketchProbes key(42);
    // The key's four counters, found outside the checker.
    std::vector<bool> mine(16, false);
    {
        FrequencySketch probe(1);
        probe.increment(key);
        for (std::size_t i = 0; i < 16; ++i)
            mine[i] = probe.counter(i) == 1;
    }
    ASSERT_EQ(std::count(mine.begin(), mine.end(), true),
              static_cast<long>(FrequencySketch::kRows));

    const Result res = explore(boundedOpts("sketch-halving"), [&] {
        // One word, so all four rows' counters share it; fourteen
        // sightings on the lone main lane (no schedules to explore
        // yet) put the key's counters one step from saturation when
        // two sightings race a halving.
        FrequencySketch sketch(1);
        for (unsigned i = 1; i < FrequencySketch::kMax; ++i)
            sketch.increment(key);
        spawn([&] { sketch.increment(key); });
        spawn([&] { sketch.increment(key); });
        sketch.halve();
        joinAll();
        unsigned key_c = 0;
        for (std::size_t i = 0; i < 16; ++i) {
            const unsigned c = sketch.counter(i);
            if (!mine[i]) {
                modelAssert(c == 0, "a sighting reached another counter");
                continue;
            }
            modelAssert(c <= FrequencySketch::kMax, "a counter passed 15");
            // A carry out of a saturated counter would wrap it to 0
            // and bump its neighbour: each of the key's counters
            // ends between the halved 7 and the saturated 15.
            modelAssert(c >= 7, "a counter wrapped");
            modelAssert(key_c == 0 || key_c == c,
                        "one store left the key's counters unequal");
            key_c = c;
        }
    });
    EXPECT_TRUE(res.ok) << res.report();
    EXPECT_GT(res.schedules, 1u);
}

/** Sharded counter folds are exact: concurrent inc()s from distinct
 *  lanes (distinct shards via the model's laneIndex seam) never
 *  lose an increment. Gauge add() likewise. */
TEST(ModelComponents, MetricsCounterFoldIsExact)
{
    const Result res = explore(boundedOpts("counter-fold"), [] {
        obs::Counter c;
        obs::Gauge g;
        spawn([&] {
            c.inc();
            c.inc(2);
            g.add(1);
        });
        spawn([&] {
            c.inc();
            g.add(-3);
        });
        c.inc();
        joinAll();
        modelAssert(c.value() == 5, "counter fold lost an inc");
        modelAssert(g.value() == -2, "gauge add lost a delta");
    });
    EXPECT_TRUE(res.ok) << res.report();
}

/** The stamp-before-flag publication protocol (LifecycleStamps):
 *  any reader that observes started() == true must see the stamp
 *  that transition certified. test_model_mutation re-breaks this
 *  under SRBENES_MODEL_MUTATE and asserts the checker catches it. */
TEST(ModelComponents, LifecycleStampPublicationIsSound)
{
    const Result res = explore(boundedOpts("lifecycle"), [] {
        LifecycleStamps life;
        spawn([&] {
            if (life.started())
                modelAssert(life.startNs() == 7,
                            "started() certified a stale stamp");
        });
        life.markStarted(7);
        joinAll();
        modelAssert(life.started() && !life.stopped(),
                    "flag state after markStarted");
        life.markStopped(9);
        modelAssert(life.stopNs() == 9, "stop stamp readback");
    });
    EXPECT_TRUE(res.ok) << res.report();
}

} // namespace
} // namespace srbenes
