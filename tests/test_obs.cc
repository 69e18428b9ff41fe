/**
 * @file
 * Tests for the observability layer: instrument primitives (sharded
 * counters, gauges, log2 histograms), the registry's get-or-create
 * identity, the trace ring's bounds, golden-text Prometheus
 * exposition, and a JSON round-trip over a real multithreaded
 * stream run whose StreamStats must be served from the registry.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/prng.hh"
#include "core/router.hh"
#include "core/stream.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "perm/bpc.hh"
#include "perm/f_class.hh"
#include "perm/named_bpc.hh"

namespace srbenes
{
namespace
{

// ------------------------------------------------------ primitives

TEST(ObsCounter, FoldsShardsAcrossThreads)
{
    obs::Counter c;
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kPerThread = 10000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&c] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                c.inc();
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(c.value(), kThreads * kPerThread);

    c.reset();
    EXPECT_EQ(c.value(), 0u);
    c.inc(7);
    EXPECT_EQ(c.value(), 7u);
}

TEST(ObsGauge, SetAddReset)
{
    obs::Gauge g;
    g.set(-5);
    EXPECT_EQ(g.value(), -5);
    g.add(12);
    EXPECT_EQ(g.value(), 7);
    g.reset();
    EXPECT_EQ(g.value(), 0);
}

TEST(ObsHistogram, BucketBoundsPartitionTheRange)
{
    // Buckets must tile [0, 2^64): each value lands in a bucket
    // whose bounds bracket it, and consecutive buckets are adjacent.
    for (unsigned i = 0; i + 1 < obs::Histogram::kBuckets; ++i) {
        EXPECT_EQ(obs::Histogram::bucketUpper(i) + 1,
                  obs::Histogram::bucketLower(i + 1))
            << "gap after bucket " << i;
    }
    EXPECT_EQ(obs::Histogram::bucketUpper(obs::Histogram::kBuckets - 1),
              ~std::uint64_t{0});

    for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                            std::uint64_t{3}, std::uint64_t{4},
                            std::uint64_t{5}, std::uint64_t{1000},
                            std::uint64_t{1} << 40,
                            ~std::uint64_t{0}}) {
        const unsigned idx = obs::Histogram::bucketIndex(v);
        ASSERT_LT(idx, obs::Histogram::kBuckets);
        EXPECT_LE(obs::Histogram::bucketLower(idx), v);
        EXPECT_GE(obs::Histogram::bucketUpper(idx), v);
    }
}

TEST(ObsHistogram, QuantilesAndMerge)
{
    obs::Histogram h;
    // Values 0..3 have exact single-value buckets.
    for (int i = 0; i < 100; ++i)
        h.observe(1);
    for (int i = 0; i < 100; ++i)
        h.observe(3);
    EXPECT_EQ(h.count(), 200u);
    EXPECT_EQ(h.sum(), 400u);
    EXPECT_EQ(h.quantile(0.0), 1u);
    EXPECT_EQ(h.quantile(1.0), 3u);
    EXPECT_LE(h.quantile(0.50), h.quantile(0.99));

    obs::Histogram other;
    other.observe(3);
    obs::Histogram::Snapshot merged = h.snapshot();
    merged.merge(other.snapshot());
    EXPECT_EQ(merged.count(), 201u);
    EXPECT_EQ(merged.sum, 403u);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(ObsHistogram, QuantileResolutionWithinABucket)
{
    // Above 4 a bucket spans [lo, hi] with hi < 2 * lo (quarter
    // octaves), so the estimate is within ~12% of any true value.
    obs::Histogram h;
    constexpr std::uint64_t kValue = 5000;
    for (int i = 0; i < 1000; ++i)
        h.observe(kValue);
    const std::uint64_t est = h.quantile(0.5);
    EXPECT_GE(est, kValue * 85 / 100);
    EXPECT_LE(est, kValue * 115 / 100);
}

// -------------------------------------------------------- registry

TEST(ObsRegistry, GetOrCreateIsIdentityAndLabelOrderInsensitive)
{
    obs::MetricsRegistry reg;
    obs::Counter &a = reg.counter("x_total", {{"a", "1"}, {"b", "2"}});
    obs::Counter &b = reg.counter("x_total", {{"b", "2"}, {"a", "1"}});
    EXPECT_EQ(&a, &b);
    obs::Counter &c = reg.counter("x_total", {{"a", "1"}});
    EXPECT_NE(&a, &c);
    EXPECT_EQ(reg.size(), 2u);

    a.inc(3);
    reg.resetAll();
    EXPECT_EQ(a.value(), 0u);
}

TEST(ObsRegistry, UniqueInstancesAreDistinct)
{
    obs::MetricsRegistry reg;
    const std::string i0 = reg.uniqueInstance("router");
    const std::string i1 = reg.uniqueInstance("router");
    EXPECT_NE(i0, i1);
    EXPECT_EQ(i0.rfind("router", 0), 0u);
}

// ---------------------------------------------------------- tracer

TEST(ObsTracer, RingStaysBoundedAndKeepsTheTail)
{
    obs::Tracer tracer(100); // rounds up to 128
    EXPECT_EQ(tracer.capacity(), 128u);

    for (std::uint64_t i = 0; i < 3 * 128; ++i) {
        auto span = tracer.span("unit.test");
        span.finish();
    }
    EXPECT_EQ(tracer.recorded(), 3u * 128);
    const auto spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 128u);
    for (const auto &r : spans)
        EXPECT_STREQ(r.name, "unit.test");

    tracer.clear();
    EXPECT_EQ(tracer.recorded(), 0u);
    EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(ObsTracer, NullTracerSpanIsANoOp)
{
    obs::Tracer::Span span(nullptr, "ignored");
    span.finish(); // must not crash or record anywhere
}

// ------------------------------------------------- text exposition

TEST(ObsExport, GoldenTextExposition)
{
    obs::MetricsRegistry reg;
    reg.counter("zz_total", {{"a", "x\"y"}}).inc(3);
    reg.gauge("aa_gauge").set(-7);
    obs::Histogram &h = reg.histogram("mm_hist", {{"k", "v"}});
    h.observe(0);
    h.observe(5);
    h.observe(5);

    // Families sorted by name; histogram emits cumulative non-empty
    // buckets plus +Inf/_sum/_count; the quote in the label value is
    // escaped. Pinned byte-for-byte.
    const std::string expected =
        "# TYPE aa_gauge gauge\n"
        "aa_gauge -7\n"
        "# TYPE mm_hist histogram\n"
        "mm_hist_bucket{k=\"v\",le=\"0\"} 1\n"
        "mm_hist_bucket{k=\"v\",le=\"5\"} 3\n"
        "mm_hist_bucket{k=\"v\",le=\"+Inf\"} 3\n"
        "mm_hist_sum{k=\"v\"} 10\n"
        "mm_hist_count{k=\"v\"} 3\n"
        "# TYPE zz_total counter\n"
        "zz_total{a=\"x\\\"y\"} 3\n";
    EXPECT_EQ(obs::exposeText(reg), expected);
}

TEST(ObsExport, SeriesOfOneFamilyStayContiguous)
{
    // The registry key is name + rendered labels, whose '{' sorts
    // after '_': families must still be grouped under one # TYPE.
    obs::MetricsRegistry reg;
    reg.counter("f_total", {{"w", "1"}}).inc();
    reg.counter("f_total_more").inc();
    reg.counter("f_total", {{"w", "0"}}).inc();

    const std::string text = obs::exposeText(reg);
    const std::string expected =
        "# TYPE f_total counter\n"
        "f_total{w=\"0\"} 1\n"
        "f_total{w=\"1\"} 1\n"
        "# TYPE f_total_more counter\n"
        "f_total_more 1\n";
    EXPECT_EQ(text, expected);
}

// ------------------------------------------------- JSON round-trip

/**
 * Minimal JSON syntax checker (objects, arrays, strings, numbers,
 * bools, null): enough to prove the exporter emits well-formed JSON
 * without a third-party parser.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &s) : s_(s) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\')
                ++pos_;
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_;
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        const std::string w(word);
        if (s_.compare(pos_, w.size(), w) != 0)
            return false;
        pos_ += w.size();
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                s_[pos_] == '\t' || s_[pos_] == '\r'))
            ++pos_;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

TEST(ObsExport, JsonIsWellFormedForMixedRegistry)
{
    obs::MetricsRegistry reg;
    reg.counter("c_total", {{"weird", "a\"b\\c\nd"}}).inc(2);
    reg.gauge("g").set(-3);
    reg.histogram("h").observe(42);

    obs::Tracer tracer(16);
    tracer.span("json.test").finish();

    const std::string json = obs::exportJson(reg, &tracer);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"benchmark\": \"obs_dump\""),
              std::string::npos);
    EXPECT_NE(json.find("\"spans\""), std::string::npos);
    EXPECT_NE(json.find("json.test"), std::string::npos);
}

// ------------------------------- registry-served component stats

TEST(ObsIntegration, RouterCacheStatsAreServedFromTheRegistry)
{
    obs::MetricsRegistry reg;
    Router router(4, false, 32, 4, &reg);

    const Permutation p = named::bitReversal(4).toPermutation();
    router.planCached(p); // first sighting: planned, not kept
    router.planCached(p);
    router.planCached(p);
    router.planCached(p);
    EXPECT_EQ(router.planCacheMisses(), 2u);
    EXPECT_EQ(router.planCacheHits(), 2u);

    // cacheStats() must be a view over the registry's counters, not
    // a second implementation: sum the registry series directly.
    std::uint64_t reg_hits = 0, reg_misses = 0;
    reg.visit([&](const obs::MetricsRegistry::View &v) {
        if (v.name == "srbenes_router_plan_cache_hits_total")
            reg_hits += v.counter->value();
        if (v.name == "srbenes_router_plan_cache_misses_total")
            reg_misses += v.counter->value();
    });
    EXPECT_EQ(reg_hits, router.planCacheHits());
    EXPECT_EQ(reg_misses, router.planCacheMisses());

    router.clearPlanCache();
    EXPECT_EQ(router.planCacheHits(), 0u);
    EXPECT_EQ(router.planCacheMisses(), 0u);
}

TEST(ObsIntegration, RouterAdmissionOutcomesSumToMisses)
{
    // Every planCached miss is counted once under
    // srbenes_router_plan_cache_admissions_total, by its fate: a
    // first sighting dropped, a repeat admitted, or a repeat that
    // lost to the full cache's drawn resident.
    obs::MetricsRegistry reg;
    const unsigned n = 4;
    const Word N = Word{1} << n;
    const Router router(n, false, /*capacity=*/4, /*shards=*/2, &reg);
    Prng prng(83);
    for (int i = 0; i < 5; ++i) {
        // Four fill the cache; the fifth's repeat ties the estimate
        // of whichever resident it is compared with, and loses.
        const Permutation d = Permutation::random(N, prng);
        router.planCached(d);
        router.planCached(d);
    }
    for (int i = 0; i < 3; ++i)
        router.planCached(Permutation::random(N, prng));

    std::map<std::string, std::uint64_t> by_outcome;
    std::uint64_t reg_misses = 0;
    reg.visit([&](const obs::MetricsRegistry::View &v) {
        if (v.name == "srbenes_router_plan_cache_misses_total")
            reg_misses += v.counter->value();
        if (v.name != "srbenes_router_plan_cache_admissions_total")
            return;
        for (const auto &[name, value] : v.labels)
            if (name == "outcome")
                by_outcome[value] += v.counter->value();
    });
    EXPECT_EQ(reg_misses, 13u);
    EXPECT_EQ(by_outcome["admitted"], 4u);
    EXPECT_EQ(by_outcome["first_sighting"], 8u);
    EXPECT_EQ(by_outcome["lost_to_victim"], 1u);
    EXPECT_EQ(by_outcome.size(), 3u);
    EXPECT_EQ(by_outcome["admitted"] + by_outcome["first_sighting"] +
                  by_outcome["lost_to_victim"],
              reg_misses);
    const CacheStats stats = router.cacheStats();
    EXPECT_EQ(stats.admitted, by_outcome["admitted"]);
    EXPECT_EQ(stats.first_sightings, by_outcome["first_sighting"]);
    EXPECT_EQ(stats.lost_to_victim, by_outcome["lost_to_victim"]);
    EXPECT_EQ(stats.misses, reg_misses);
    EXPECT_EQ(router.planCacheSize(), 4u);
    EXPECT_EQ(router.planCacheEvictions(), 0u);

    const std::string text = obs::exposeText(reg);
    for (const char *outcome :
         {"admitted", "first_sighting", "lost_to_victim"})
        EXPECT_NE(text.find(std::string("outcome=\"") + outcome + "\""),
                  std::string::npos)
            << outcome;
}

TEST(ObsIntegration, RouterRecordsEachColdPlanOnceByStrategy)
{
    // A cold plan is recorded once, by the strategy that won: its
    // count in srbenes_router_plans_total and its latency in
    // srbenes_router_setup_ns. No other series repeats either.
    obs::MetricsRegistry reg;
    const unsigned n = 5;
    const Word N = Word{1} << n;
    const Router router(n, false, 0, 1, &reg);
    const Router waksman(n, true, 0, 1, &reg);
    const Router small(2, false, 0, 1, &reg);
    Prng prng(13);
    std::map<RouteStrategy, std::uint64_t> planned;
    for (int i = 0; i < 3; ++i) {
        ++planned[router.plan(randomFMember(n, prng)).strategy];
        ++planned[router.plan(Permutation::random(N, prng)).strategy];
        ++planned[waksman.plan(Permutation::random(N, prng)).strategy];
    }
    // (1,3,2,0) is Omega(2) but not F(2).
    ++planned[small.plan(Permutation({1, 3, 2, 0})).strategy];
    ASSERT_EQ(planned.size(), 4u) << "every strategy must win a plan";

    std::map<std::string, std::uint64_t> counts, latencies;
    std::map<std::string, std::uint64_t> by_strategy;
    reg.visit([&](const obs::MetricsRegistry::View &v) {
        std::string key;
        std::string strategy;
        for (const auto &[name, value] : v.labels) {
            key += name + "=" + value + ";";
            if (name == "strategy")
                strategy = value;
        }
        if (v.name == "srbenes_router_plans_total") {
            counts[key] = v.counter->value();
            by_strategy[strategy] += v.counter->value();
        }
        if (v.name == "srbenes_router_setup_ns")
            latencies[key] = v.histogram->count();
    });
    EXPECT_EQ(counts.size(), 12u) << "3 routers x 4 strategies";
    EXPECT_EQ(counts, latencies);
    for (const auto &[strategy, plans] : planned)
        EXPECT_EQ(by_strategy[routeStrategyName(strategy)], plans)
            << routeStrategyName(strategy);

    const std::string text = obs::exposeText(reg);
    EXPECT_NE(text.find("srbenes_router_plans_total"), std::string::npos);
    EXPECT_NE(text.find("srbenes_router_setup_ns"), std::string::npos);
    EXPECT_EQ(text.find("srbenes_router_plan_cold_ns"), std::string::npos);
    EXPECT_EQ(text.find("srbenes_router_classification_total"),
              std::string::npos);
}

TEST(ObsIntegration, NullRegistryDisablesInstrumentation)
{
    Router router(3, false, 16, 2, nullptr);
    const Permutation p = named::bitReversal(3).toPermutation();
    router.planCached(p);
    router.planCached(p);
    // Counters are off; introspection reads zeros but routing works.
    EXPECT_EQ(router.planCacheHits(), 0u);
    EXPECT_EQ(router.planCacheMisses(), 0u);
    EXPECT_EQ(router.planCacheSize(), 1u);
}

TEST(ObsIntegration, StreamStatsRoundTripThroughRegistryAndJson)
{
    obs::MetricsRegistry reg;
    const unsigned n = 4;
    const Word N = Word{1} << n;

    StreamOptions opts;
    opts.workers = 2;
    opts.producers = 1;
    opts.metrics = &reg;
    StreamEngine eng(n, opts);

    std::vector<std::shared_ptr<const Permutation>> perms;
    Prng prng(7);
    for (int i = 0; i < 4; ++i)
        perms.push_back(std::make_shared<Permutation>(
            BpcSpec::random(n, prng).toPermutation()));

    eng.start();
    auto &prod = eng.producer(0);
    constexpr std::uint64_t kTotal = 2000;
    const std::uint64_t kWarm = 2 * perms.size();
    StreamResult res;
    for (std::uint64_t i = 0; i < kTotal; ++i) {
        std::vector<Word> payload(N);
        for (Word j = 0; j < N; ++j)
            payload[j] = i * N + j;
        while (!prod.trySubmit(i, perms[i % perms.size()], payload))
            while (prod.tryPoll(res)) {
            }
        // Each pattern's first two requests are planned by a worker
        // (the second sighting's plan is kept) before the rest are
        // submitted, so every later one is a hit served on this
        // thread.
        if (i < kWarm)
            prod.awaitResult(res);
        while (prod.tryPoll(res)) {
        }
    }
    while (prod.received() < kTotal)
        prod.awaitResult(res);
    eng.stop();

    const StreamStats st = eng.stats();
    EXPECT_EQ(st.requests, kTotal);
    // The four patterns' two warm-up sightings were the only misses;
    // every other request was a hit served on the producer.
    EXPECT_EQ(eng.router().planCacheMisses(), kWarm);
    EXPECT_EQ(eng.router().planCacheHits(), kTotal - kWarm);
    EXPECT_EQ(st.inline_served, kTotal - kWarm);
    EXPECT_GE(st.p99_ns, st.p50_ns);

    // StreamStats must be the registry's numbers, not a shadow copy.
    std::uint64_t reg_requests = 0, reg_wakes = 0, reg_inline = 0;
    reg.visit([&](const obs::MetricsRegistry::View &v) {
        if (v.name == "srbenes_stream_requests_total")
            reg_requests += v.counter->value();
        if (v.name == "srbenes_stream_doorbell_wakes_total")
            reg_wakes += v.counter->value();
        if (v.name == "srbenes_stream_inline_served_total")
            reg_inline += v.counter->value();
    });
    EXPECT_EQ(reg_requests, st.requests);
    EXPECT_EQ(reg_wakes, st.doorbell_wakes);
    EXPECT_EQ(reg_inline, st.inline_served);

    // And the whole run must export as well-formed JSON and text.
    const std::string json = obs::exportJson(reg);
    EXPECT_TRUE(JsonChecker(json).valid());
    EXPECT_NE(json.find("srbenes_stream_latency_ns"),
              std::string::npos);

    const std::string text = obs::exposeText(reg);
    EXPECT_NE(text.find("# TYPE srbenes_stream_requests_total "
                        "counter"),
              std::string::npos);
    EXPECT_NE(
        text.find("# TYPE srbenes_stream_latency_ns histogram"),
        std::string::npos);
}

} // namespace
} // namespace srbenes
