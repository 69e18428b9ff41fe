/**
 * @file
 * Fault-tolerant serving tests: the RouteOutcome taxonomy, the
 * ResilientRouter fallback chain, health probing and diagnosis, and
 * the StreamEngine deadline/shed integration.
 *
 * The load-bearing test is the exhaustive n = 3 single-fault sweep:
 * every stuck-at fault on every switch, against F members and
 * general permutations alike, must either serve a bit-exact payload
 * or report fault_detected — never a silent misroute. That is the
 * serving-layer restatement of the paper's Section IV testability
 * claim.
 */

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.hh"
#include "core/resilient.hh"
#include "core/stream.hh"
#include "perm/f_class.hh"
#include "perm/named_bpc.hh"
#include "perm/permutation.hh"
#include "sightings.hh"

namespace
{

using namespace srbenes;

std::vector<Word>
iotaPayload(std::size_t size, Word base = 0)
{
    std::vector<Word> v(size);
    for (std::size_t i = 0; i < size; ++i)
        v[i] = base + i;
    return v;
}

/** Options with instrumentation off: these tests assert on the
 *  built-in stats() counters, not on a shared registry. */
ResilientOptions
quietOptions()
{
    ResilientOptions opts;
    opts.metrics = nullptr;
    return opts;
}

// -------------------------------------------------------- RouteOutcome

TEST(RouteOutcomeTest, SuccessCarriesPayloadAndTier)
{
    auto out = RouteOutcome::success({3, 1, 2}, ServeTier::Reroute);
    EXPECT_TRUE(out.ok());
    EXPECT_TRUE(static_cast<bool>(out));
    EXPECT_EQ(out.errc(), RouteErrc::Ok);
    EXPECT_EQ(out.tier(), ServeTier::Reroute);
    EXPECT_EQ(out.value(), (std::vector<Word>{3, 1, 2}));
    EXPECT_EQ(out.takeValue(), (std::vector<Word>{3, 1, 2}));
}

TEST(RouteOutcomeTest, FailureCarriesTaxonomy)
{
    RouteError err;
    err.code = RouteErrc::FaultDetected;
    err.tier = ServeTier::TwoPass;
    err.suspects = {StuckFault{1, 2, 1}};
    err.detail = "boom";
    const auto out = RouteOutcome::failure(std::move(err));
    EXPECT_FALSE(out.ok());
    EXPECT_EQ(out.errc(), RouteErrc::FaultDetected);
    EXPECT_EQ(out.tier(), ServeTier::TwoPass);
    ASSERT_EQ(out.error().suspects.size(), 1u);
    EXPECT_EQ(out.error().suspects[0], (StuckFault{1, 2, 1}));
    EXPECT_EQ(out.error().detail, "boom");
}

TEST(RouteOutcomeTest, FailureWithOkCodeIsCoerced)
{
    // An "error" whose code still says Ok would make ok() lie; the
    // constructor coerces it to the generic fault code.
    RouteError err;
    err.code = RouteErrc::Ok;
    const auto out = RouteOutcome::failure(std::move(err));
    EXPECT_FALSE(out.ok());
    EXPECT_EQ(out.errc(), RouteErrc::FaultDetected);
}

TEST(RouteOutcomeTest, Names)
{
    EXPECT_STREQ(routeErrcName(RouteErrc::Ok), "ok");
    EXPECT_STREQ(routeErrcName(RouteErrc::NotInF), "not_in_F");
    EXPECT_STREQ(routeErrcName(RouteErrc::FaultDetected),
                 "fault_detected");
    EXPECT_STREQ(routeErrcName(RouteErrc::DeadlineExceeded),
                 "deadline_exceeded");
    EXPECT_STREQ(routeErrcName(RouteErrc::Shed), "shed");
    EXPECT_STREQ(serveTierName(ServeTier::Primary), "primary");
    EXPECT_STREQ(serveTierName(ServeTier::Reroute), "reroute");
    EXPECT_STREQ(serveTierName(ServeTier::TwoPass), "two_pass");
    EXPECT_STREQ(serveTierName(ServeTier::Failed), "failed");
    EXPECT_STREQ(switchHealthName(SwitchHealth::Healthy), "healthy");
    EXPECT_STREQ(switchHealthName(SwitchHealth::Suspect), "suspect");
}

// ------------------------------------------------ Router::routeOutcome

TEST(RouterOutcome, MatchesApplyTo)
{
    const unsigned n = 4;
    const Word N = Word{1} << n;
    const Router router(n);
    Prng prng(72);
    for (int trial = 0; trial < 10; ++trial) {
        const Permutation d = Permutation::random(N, prng);
        const auto outcome = router.routeOutcome(d, iotaPayload(N));
        ASSERT_TRUE(outcome.ok());
        EXPECT_EQ(outcome.tier(), ServeTier::Primary);
        EXPECT_EQ(outcome.value(), d.applyTo(iotaPayload(N)));
    }
}

// --------------------------------------------------- healthy serving

TEST(ResilientRouterTest, HealthyFabricServesPrimaryExactly)
{
    // Both general strategies: the Primary tier re-derives the TwoPass
    // factors, or the Waksman states, from d on every serve.
    const unsigned n = 4;
    const Word N = Word{1} << n;
    for (bool prefer_waksman : {false, true}) {
        SCOPED_TRACE(prefer_waksman ? "waksman" : "two-pass");
        ResilientOptions opts = quietOptions();
        opts.prefer_waksman = prefer_waksman;
        ResilientRouter rr(n, opts);
        EXPECT_TRUE(rr.believedHealthy());

        Prng prng(73);
        for (int trial = 0; trial < 20; ++trial) {
            const Permutation d = trial % 2 == 0
                                      ? Permutation::random(N, prng)
                                      : randomFMember(n, prng);
            const auto payload = iotaPayload(N, trial * 100);
            const auto out = rr.route(d, payload);
            ASSERT_TRUE(out.ok()) << "trial " << trial;
            EXPECT_EQ(out.tier(), ServeTier::Primary);
            EXPECT_EQ(out.value(), d.applyTo(payload));
        }
        const ResilientStats st = rr.stats();
        EXPECT_EQ(st.serves_primary, 20u);
        EXPECT_EQ(st.serves_reroute + st.serves_two_pass, 0u);
        EXPECT_EQ(st.failures_fault + st.failures_deadline, 0u);
        // Healthy serving never needed a probe.
        EXPECT_EQ(st.probes, 0u);
    }
}

TEST(ResilientRouterTest, ProbeOnHealthyFabricFindsNothing)
{
    ResilientRouter rr(3, quietOptions());
    const ProbeReport report = rr.probe();
    EXPECT_TRUE(report.healthy);
    EXPECT_GT(report.tests_run, 0u);
    EXPECT_EQ(report.tests_mismatched, 0u);
    EXPECT_TRUE(report.suspects.empty());
    EXPECT_TRUE(rr.believedHealthy());
    EXPECT_TRUE(rr.suspects().empty());
}

// ------------------------------------------- exhaustive fault sweep

/**
 * The permutation battery for the fault sweeps: identity and bit
 * reversal (the classic witnesses), plus random F members (Primary
 * self-routes them) and random general permutations (Primary needs
 * two passes or Waksman).
 */
std::vector<Permutation>
sweepBattery(unsigned n, Prng &prng)
{
    const Word N = Word{1} << n;
    std::vector<Permutation> battery;
    battery.push_back(Permutation::identity(N));
    battery.push_back(named::bitReversal(n).toPermutation());
    for (int i = 0; i < 3; ++i)
        battery.push_back(randomFMember(n, prng));
    for (int i = 0; i < 3; ++i)
        battery.push_back(Permutation::random(N, prng));
    return battery;
}

TEST(FaultSweep, EverySingleFaultIsRoutedAroundOrReported)
{
    // Exhaustive at n = 3: all 5 stages x 4 switches x 2 stuck
    // values, against the full battery. The acceptance bar: a serve
    // either returns the bit-exact payload or fails with
    // fault_detected; a wrong payload is an instant failure. The
    // fallback chain should also actually engage (nonzero degraded
    // serves across the sweep). Primary's general strategy is TwoPass
    // or, preferred, Waksman.
    const unsigned n = 3;
    const Word N = Word{1} << n;
    for (bool prefer_waksman : {false, true}) {
        SCOPED_TRACE(prefer_waksman ? "waksman" : "two-pass");
        ResilientOptions opts = quietOptions();
        opts.max_retries = 1;
        opts.prefer_waksman = prefer_waksman;
        ResilientRouter rr(n, opts);
        const BenesTopology &topo = rr.fabric().topology();

        Prng prng(74);
        const auto battery = sweepBattery(n, prng);
        const auto payload = iotaPayload(N);
        const RouteStrategy general = prefer_waksman
                                          ? RouteStrategy::Waksman
                                          : RouteStrategy::TwoPass;
        EXPECT_TRUE(std::any_of(
            battery.begin(), battery.end(), [&](const Permutation &d) {
                return rr.router().plan(d).strategy == general;
            })) << "the battery never reaches the general strategy";

        std::uint64_t degraded = 0, failed = 0, total = 0;
        for (unsigned s = 0; s < topo.numStages(); ++s) {
            for (Word sw = 0; sw < topo.switchesPerStage(); ++sw) {
                for (std::uint8_t v :
                     {std::uint8_t{0}, std::uint8_t{1}}) {
                    rr.clearFaults();
                    rr.injectFault(StuckFault{s, sw, v});
                    for (const Permutation &d : battery) {
                        ++total;
                        const auto out = rr.route(d, payload);
                        if (out.ok()) {
                            // The whole point: a success is BIT-EXACT.
                            ASSERT_EQ(out.value(), d.applyTo(payload))
                                << "silent misroute under fault (" << s
                                << ", " << sw << ", " << int(v) << ")";
                            if (out.tier() != ServeTier::Primary)
                                ++degraded;
                        } else {
                            EXPECT_EQ(out.errc(),
                                      RouteErrc::FaultDetected);
                            ++failed;
                        }
                    }
                }
            }
        }
        // Sanity on scale: 5 stages x 4 switches x 2 values x battery.
        EXPECT_EQ(total, 5u * 4u * 2u * battery.size());
        // Faults must have actually bitten (a sweep where every serve
        // stayed Primary would mean the overlay is inert) ...
        EXPECT_GT(degraded, 0u);
        // ... and the chain must rescue the overwhelming majority. The
        // sweep is useless if everything just fails "honestly".
        EXPECT_LT(failed, total / 10);
        EXPECT_GT(rr.stats().serves_reroute, 0u);
    }
}

TEST(FaultSweep, TwoPassTierServesWhenRerouteIsDisabled)
{
    // Force the chain past Reroute (zero pinned attempts) so the
    // seeded re-factorization tier has to do the rescuing.
    const unsigned n = 3;
    const Word N = Word{1} << n;
    ResilientOptions opts = quietOptions();
    opts.reroute_seeds = 0;
    opts.two_pass_seeds = 16;
    ResilientRouter rr(n, opts);
    const BenesTopology &topo = rr.fabric().topology();

    Prng prng(75);
    const auto battery = sweepBattery(n, prng);
    const auto payload = iotaPayload(N);

    for (unsigned s = 0; s < topo.numStages(); ++s)
        for (Word sw = 0; sw < topo.switchesPerStage(); ++sw)
            for (std::uint8_t v :
                 {std::uint8_t{0}, std::uint8_t{1}}) {
                rr.clearFaults();
                rr.injectFault(StuckFault{s, sw, v});
                for (const Permutation &d : battery) {
                    const auto out = rr.route(d, payload);
                    if (out.ok())
                        ASSERT_EQ(out.value(), d.applyTo(payload));
                    else
                        EXPECT_EQ(out.errc(),
                                  RouteErrc::FaultDetected);
                }
            }
    EXPECT_GT(rr.stats().serves_two_pass, 0u);
    EXPECT_EQ(rr.stats().serves_reroute, 0u);
}

TEST(FaultSweep, ProbeDetectsAndLocalizesEveryFault)
{
    // Section IV, as a service: the probe must flag every single
    // stuck-at fault (the test set is a detection cover by
    // construction) and the diagnosis must keep the true fault in
    // its behaviorally-equivalent candidate set.
    const unsigned n = 3;
    ResilientRouter rr(n, quietOptions());
    const BenesTopology &topo = rr.fabric().topology();

    for (unsigned s = 0; s < topo.numStages(); ++s)
        for (Word sw = 0; sw < topo.switchesPerStage(); ++sw)
            for (std::uint8_t v :
                 {std::uint8_t{0}, std::uint8_t{1}}) {
                const StuckFault fault{s, sw, v};
                rr.clearFaults();
                rr.injectFault(fault);
                const ProbeReport report = rr.probe();
                EXPECT_FALSE(report.healthy)
                    << "undetected fault (" << s << ", " << sw
                    << ", " << int(v) << ")";
                EXPECT_NE(std::find(report.suspects.begin(),
                                    report.suspects.end(), fault),
                          report.suspects.end())
                    << "true fault missing from diagnosis";
                EXPECT_FALSE(rr.believedHealthy());
                EXPECT_EQ(rr.switchHealth(s, sw),
                          SwitchHealth::Suspect);
            }

    // Repair: clearing the fault and re-probing restores the
    // scoreboard to healthy.
    rr.clearFaults();
    const ProbeReport healed = rr.probe();
    EXPECT_TRUE(healed.healthy);
    EXPECT_TRUE(rr.believedHealthy());
    EXPECT_TRUE(rr.suspects().empty());
}

TEST(ResilientRouterTest, EpochAdvancesOnlyWhenTheScoreboardChanges)
{
    // Epoch churn would invalidate the degraded-plan cache on every
    // re-probe of a stable fault, so same picture => same epoch.
    ResilientRouter rr(3, quietOptions());
    const std::uint64_t e0 = rr.probeEpoch();
    rr.probe(); // healthy fabric, nothing changes
    rr.probe();
    EXPECT_EQ(rr.probeEpoch(), e0);

    rr.injectFault(StuckFault{0, 0, 1});
    rr.probe(); // scoreboard flips to suspect
    const std::uint64_t e1 = rr.probeEpoch();
    EXPECT_GT(e1, e0);
    rr.probe(); // same stable fault: no new generation
    EXPECT_EQ(rr.probeEpoch(), e1);

    rr.clearFaults();
    rr.probe(); // repaired: a new generation again
    EXPECT_GT(rr.probeEpoch(), e1);
}

TEST(ResilientRouterTest, DegradedPlanCacheShortCircuitsTheSearch)
{
    const unsigned n = 4;
    const Word N = Word{1} << n;
    ResilientRouter rr(n, quietOptions());
    rr.injectFault(StuckFault{0, 1, 1});

    Prng prng(76);
    Permutation d = Permutation::random(N, prng);
    // Find a permutation the fault actually disturbs, so the serve
    // goes degraded and caches a plan.
    for (int guard = 0; rr.route(d, iotaPayload(N)).tier() ==
                        ServeTier::Primary &&
                        guard < 50;
         ++guard)
        d = Permutation::random(N, prng);
    ASSERT_NE(rr.route(d, iotaPayload(N)).tier(),
              ServeTier::Primary);

    const std::uint64_t hits_before = rr.stats().degraded_cache_hits;
    const auto out = rr.route(d, iotaPayload(N, 500));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), d.applyTo(iotaPayload(N, 500)));
    EXPECT_GT(rr.stats().degraded_cache_hits, hits_before);
}

TEST(ResilientRouterTest, DegradedHitSkipsThePrimaryAttempt)
{
    // A degraded plan exists because d's Primary attempt already
    // failed in this probe epoch, so a degraded hit must not repeat
    // that attempt. tryPrimary's planCached is the only Router lookup
    // on the serving path, so the Router's hit count must stay put
    // while the degraded hit count rises.
    const unsigned n = 4;
    const Word N = Word{1} << n;
    obs::MetricsRegistry reg;
    ResilientOptions opts;
    opts.metrics = &reg;
    ResilientRouter rr(n, opts);
    rr.injectFault(StuckFault{0, 1, 1});

    Prng prng(79);
    Permutation d = Permutation::random(N, prng);
    for (int guard = 0; rr.route(d, iotaPayload(N)).tier() ==
                        ServeTier::Primary &&
                        guard < 50;
         ++guard)
        d = Permutation::random(N, prng);
    ASSERT_NE(rr.route(d, iotaPayload(N)).tier(), ServeTier::Primary);
    ASSERT_FALSE(rr.believedHealthy());

    const std::size_t router_hits = rr.router().planCacheHits();
    const std::uint64_t degraded_hits = rr.stats().degraded_cache_hits;
    const auto out = rr.route(d, iotaPayload(N, 700));
    ASSERT_TRUE(out.ok());
    EXPECT_NE(out.tier(), ServeTier::Primary);
    EXPECT_EQ(out.value(), d.applyTo(iotaPayload(N, 700)));
    EXPECT_EQ(rr.stats().degraded_cache_hits, degraded_hits + 1);
    EXPECT_EQ(rr.router().planCacheHits(), router_hits);

    // A repaired fabric climbs back to Primary once a probe publishes
    // the change: the new epoch retires the degraded entry.
    rr.clearFaults();
    rr.probe();
    ASSERT_TRUE(rr.believedHealthy());
    const auto healed = rr.route(d, iotaPayload(N, 900));
    ASSERT_TRUE(healed.ok());
    EXPECT_EQ(healed.tier(), ServeTier::Primary);
    EXPECT_EQ(healed.value(), d.applyTo(iotaPayload(N, 900)));
    EXPECT_EQ(rr.stats().degraded_cache_hits, degraded_hits + 1);
}

TEST(ResilientRouterTest, ExpiredDeadlineFailsFast)
{
    const unsigned n = 4;
    const Word N = Word{1} << n;
    ResilientRouter rr(n, quietOptions());
    const Permutation d = Permutation::identity(N);
    // An already-passed (but nonzero) absolute deadline.
    const auto out = rr.route(d, iotaPayload(N), 1);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.errc(), RouteErrc::DeadlineExceeded);
    EXPECT_EQ(rr.stats().failures_deadline, 1u);
}

TEST(ResilientRouterTest, RetryProbesBetweenAttempts)
{
    // With retries enabled, a degraded serve on a believed-healthy
    // fabric triggers the on-failure probe, so the scoreboard
    // reflects the fault after the first affected serve.
    const unsigned n = 3;
    ResilientRouter rr(n, quietOptions());
    rr.injectFault(StuckFault{2, 1, 1});
    EXPECT_TRUE(rr.believedHealthy()); // not yet probed

    Prng prng(77);
    const auto payload = iotaPayload(Word{1} << n);
    for (int trial = 0; trial < 20; ++trial) {
        const Permutation d =
            Permutation::random(Word{1} << n, prng);
        const auto out = rr.route(d, payload);
        if (out.ok()) {
            EXPECT_EQ(out.value(), d.applyTo(payload));
        }
    }
    // The center-stage fault disturbs some serve in 20 random draws;
    // by then the failure path has probed and localized it.
    EXPECT_FALSE(rr.believedHealthy());
    EXPECT_GT(rr.stats().probes, 0u);
}

// ------------------------------------------------ stream integration

TEST(ResilientStream, ServesThroughFaultsWithTierStamps)
{
    const unsigned n = 4;
    const Word N = Word{1} << n;
    ResilientRouter rr(n, quietOptions());
    rr.injectFault(StuckFault{0, 1, 1});

    StreamOptions opts;
    opts.workers = 2;
    opts.resilient = &rr;
    StreamEngine eng(n, opts);
    eng.start();

    Prng prng(78);
    std::vector<std::shared_ptr<const Permutation>> patterns;
    for (int i = 0; i < 4; ++i)
        patterns.push_back(std::make_shared<const Permutation>(
            Permutation::random(N, prng)));

    auto &prod = eng.producer(0);
    constexpr std::uint64_t kTotal = 120;
    std::vector<StreamResult> results;
    std::vector<std::size_t> pattern_of;
    StreamResult res;
    Prng choose(79);
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
    eng.stop();

    ASSERT_EQ(results.size(), kTotal);
    std::uint64_t degraded = 0;
    for (const auto &r : results) {
        ASSERT_TRUE(r.ok()) << "id " << r.id << " status "
                            << routeErrcName(r.status);
        const Permutation &d = *patterns[pattern_of[r.id]];
        EXPECT_EQ(r.payload, d.applyTo(iotaPayload(N, r.id * N)));
        if (r.tier != ServeTier::Primary)
            ++degraded;
    }
    EXPECT_GT(degraded, 0u);
    const StreamStats st = eng.stats();
    EXPECT_EQ(st.requests, kTotal);
    EXPECT_EQ(st.degraded, degraded);
    EXPECT_EQ(st.route_failures, 0u);
}

TEST(ResilientStream, ExpiredDeadlineComesBackStructured)
{
    const unsigned n = 3;
    const Word N = Word{1} << n;
    ResilientRouter rr(n, quietOptions());
    StreamOptions opts;
    opts.resilient = &rr;
    StreamEngine eng(n, opts);
    eng.start();

    auto perm = std::make_shared<const Permutation>(
        Permutation::identity(N));
    auto &prod = eng.producer(0);
    std::vector<Word> payload = iotaPayload(N, 40);
    // Absolute deadline of 1 ns after boot: long expired.
    ASSERT_TRUE(prod.trySubmit(7, perm, payload, 1));
    StreamResult res;
    ASSERT_TRUE(prod.awaitResultFor(res, 2'000'000'000ull));
    eng.stop();

    EXPECT_EQ(res.id, 7u);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.status, RouteErrc::DeadlineExceeded);
    EXPECT_EQ(res.tier, ServeTier::Failed);
    // The unrouted payload comes back with the failure.
    EXPECT_EQ(res.payload, iotaPayload(N, 40));
    EXPECT_EQ(eng.stats().deadline_expired, 1u);
}

TEST(ResilientStream, EveryRequestCrossesTheRingWithTierStamps)
{
    // A ResilientRouter engine serves nothing on the producer, not
    // even a pattern resident in the inner Router's tier: its chain
    // may probe and retry, so every request goes to a worker. Tier
    // stamps (including degraded fallbacks under a fault),
    // structured deadline failures, and the degraded/deadline
    // counters come back through the rings.
    const unsigned n = 4;
    const Word N = Word{1} << n;
    ResilientRouter rr(n, quietOptions());
    rr.injectFault(StuckFault{0, 1, 1});

    StreamOptions opts;
    opts.resilient = &rr;
    StreamEngine eng(n, opts);

    Prng prng(82);
    auto &prod = eng.producer(0);
    StreamResult res;
    std::vector<Permutation> sent;
    auto submit = [&](std::uint64_t deadline_ns) {
        const std::uint64_t id = sent.size();
        sent.push_back(Permutation::random(N, prng));
        // Resident in the tier: a fast-path engine would serve it on
        // this thread.
        (void)sightTwice(eng.router(), sent.back());
        auto perm = std::make_shared<const Permutation>(sent.back());
        std::vector<Word> payload = iotaPayload(N, id);
        ASSERT_TRUE(prod.trySubmit(id, perm, payload, deadline_ns));
    };
    // Not started: every request waits for a worker.
    for (int i = 0; i < 8; ++i) {
        submit(0);
        EXPECT_FALSE(prod.tryPoll(res)) << "served without a worker";
    }
    eng.start();
    for (int i = 0; i < 32; ++i)
        submit(0);
    // A long-expired deadline fails structured.
    submit(1);

    std::uint64_t degraded = 0, expired = 0;
    while (prod.received() < prod.submitted()) {
        ASSERT_TRUE(prod.awaitResultFor(res, 2'000'000'000ull));
        if (res.id == 40) {
            ++expired;
            EXPECT_EQ(res.status, RouteErrc::DeadlineExceeded);
            EXPECT_EQ(res.tier, ServeTier::Failed);
            EXPECT_EQ(res.payload, iotaPayload(N, 40));
            continue;
        }
        ASSERT_TRUE(res.ok()) << routeErrcName(res.status);
        EXPECT_EQ(res.payload, sent[res.id].applyTo(iotaPayload(N, res.id)));
        if (res.tier != ServeTier::Primary)
            ++degraded;
    }
    eng.stop();

    EXPECT_EQ(expired, 1u);
    EXPECT_GT(degraded, 0u) << "the stuck switch must force a "
                               "fallback tier on some request";
    const StreamStats st = eng.stats();
    EXPECT_EQ(st.inline_served, 0u);
    EXPECT_EQ(st.requests, 41u);
    EXPECT_EQ(st.degraded, degraded);
    EXPECT_EQ(st.deadline_expired, 1u);
    EXPECT_EQ(st.route_failures, 0u);
}

TEST(ResilientStream, FullRingShedsInsteadOfBlocking)
{
    const unsigned n = 3;
    const Word N = Word{1} << n;
    StreamOptions opts;
    opts.ring_capacity = 4;
    opts.shared_cache_capacity = 0; // ring mechanics under test
    StreamEngine eng(n, opts);
    // Deliberately NOT started: the rings fill and stay full. One
    // pattern targets one affine worker, whose full ring spills once
    // to the neighbour — so 2 rings' worth are accepted, then sheds.
    auto perm = std::make_shared<const Permutation>(
        Permutation::identity(N));
    auto &prod = eng.producer(0);
    std::uint64_t accepted = 0;
    for (std::uint64_t id = 0; id < 16; ++id) {
        std::vector<Word> payload = iotaPayload(N);
        if (prod.trySubmit(id, perm, payload, 0))
            ++accepted;
    }
    EXPECT_EQ(accepted, 8u);
    EXPECT_EQ(eng.stats().sheds, 8u);
}

TEST(ResilientStream, AwaitResultForTimesOutEmpty)
{
    const unsigned n = 3;
    StreamOptions opts;
    StreamEngine eng(n, opts);
    eng.start();
    StreamResult res;
    // Nothing submitted: a short relative timeout must return false
    // (and promptly enough for a unit test).
    EXPECT_FALSE(eng.producer(0).awaitResultFor(res, 2'000'000ull));
    eng.stop();
}

// --------------------------------------------------- concurrency

TEST(ResilientConcurrency, ProbesRaceInjectionAndServing)
{
    // tsan-targeted hammer: one thread flaps the fault overlay, one
    // probes, two serve through a shared engine. Every completed
    // result must still be exact-or-flagged.
    const unsigned n = 3;
    const Word N = Word{1} << n;
    ResilientOptions ropts = quietOptions();
    ropts.max_retries = 0; // keep the hammer fast
    ResilientRouter rr(n, ropts);

    StreamOptions opts;
    opts.workers = 2;
    opts.producers = 2;
    opts.resilient = &rr;
    StreamEngine eng(n, opts);
    eng.start();

    std::atomic<bool> done{false};
    std::thread chaos([&] {
        Prng prng(80);
        // order: relaxed; the flag only bounds the loop.
        while (!done.load(std::memory_order_relaxed)) {
            rr.injectFault(StuckFault{
                static_cast<unsigned>(prng.below(5)),
                prng.below(4),
                static_cast<std::uint8_t>(prng.below(2))});
            rr.clearFaults();
        }
    });
    std::thread prober([&] {
        // order: relaxed; see above.
        while (!done.load(std::memory_order_relaxed))
            rr.probe();
    });

    std::vector<std::thread> pumps;
    std::vector<int> bad(2, 0);
    for (unsigned p = 0; p < 2; ++p) {
        pumps.emplace_back([&, p] {
            Prng prng(81 + p);
            auto &prod = eng.producer(p);
            std::vector<std::shared_ptr<const Permutation>> pats;
            std::vector<Permutation> plain;
            for (int i = 0; i < 3; ++i) {
                plain.push_back(Permutation::random(N, prng));
                pats.push_back(std::make_shared<const Permutation>(
                    plain.back()));
            }
            StreamResult res;
            for (std::uint64_t id = 0; id < 200; ++id) {
                const std::size_t pi = prng.below(pats.size());
                std::vector<Word> payload = iotaPayload(N, id);
                while (!prod.trySubmit(id * 4 + pi, pats[pi],
                                       payload))
                    prod.tryPoll(res);
            }
            while (prod.received() < prod.submitted()) {
                if (!prod.tryPoll(res))
                    continue;
                if (res.ok()) {
                    const Permutation &d = plain[res.id % 4];
                    if (res.payload !=
                        d.applyTo(iotaPayload(N, res.id / 4)))
                        ++bad[p];
                } else if (res.status != RouteErrc::FaultDetected &&
                           res.status !=
                               RouteErrc::DeadlineExceeded) {
                    ++bad[p];
                }
            }
        });
    }
    for (auto &t : pumps)
        t.join();
    // order: relaxed; thread join below is the synchronization.
    done.store(true, std::memory_order_relaxed);
    chaos.join();
    prober.join();
    eng.stop();

    EXPECT_EQ(bad[0], 0);
    EXPECT_EQ(bad[1], 0);
    EXPECT_EQ(eng.stats().requests, 400u);
}

} // namespace
