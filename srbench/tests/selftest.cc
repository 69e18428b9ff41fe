/**
 * @file
 * Self-tests of the benchmark itself: the Stats parser against a
 * captured srbd exposition, and the properties each workload claims.
 * Build and run:
 *
 *   cmake -S srbench -B .bench_build && cmake --build .bench_build \
 *       --target srbench_selftest && .bench_build/srbench_selftest
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>

#include "perm/f_class.hh"
#include "prom.hh"
#include "spans.hh"
#include "workload.hh"

namespace
{

using namespace srbench;

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

std::uint64_t
frameDigest(const std::vector<std::uint8_t> &f)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint8_t b : f) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

void
testParser()
{
    // Captured from srbd --n=10 after a traced zipf10 run (seed 1,
    // --seconds 2).
    const std::string text =
        slurp(std::string(SRBENCH_TEST_DATA) + "/stats_exposition.prom");
    check(!text.empty(), "captured exposition is readable");
    bool ok = false;
    const std::vector<PromSample> s = parsePrometheus(text, ok);
    check(ok && !s.empty(), "captured exposition parses");

    SrbdCounts c;
    check(scrapeCounts(text, c), "scrapeCounts accepts the capture");
    check(c.submits == 39314, "srbd_submits_total");
    check(c.responses_ok == c.submits, "every submit answered ok");
    check(c.cache_hits == 1281 && c.cache_misses == 12115 &&
              c.cache_evictions == 11603,
          "shared-tier hits/misses/evictions summed over shards");
    check(c.plans_self_routing == 5870 && c.plans_two_pass == 6245 &&
              c.coldPlans() == c.cache_misses,
          "cold plans by strategy");
    check(c.setup_ns_self_routing > 0 && c.setup_ns_two_pass > 0,
          "setup_ns sums by strategy");
    check(c.local_hits == 25918 &&
              c.local_hits + c.cache_hits + c.cache_misses == c.submits,
          "local hits summed over workers; every request resolved once");
    check(c.doorbell_wakes == 13985 && c.inline_served == 0,
          "doorbell wakes and inline count");
    check(c.resident_bytes == 15578624, "resident bytes gauge");

    SrbdCounts later = c;
    later.submits += 10;
    later.resident_bytes = 1;
    const SrbdCounts d = later.since(c);
    check(d.submits == 10 && d.cache_hits == 0 && d.resident_bytes == 1,
          "since(): counters subtract, gauges keep the later value");

    const std::vector<PromSample> one = parsePrometheus(
        "# TYPE x counter\nx{a=\"q\\\"uote\",b=\"2\"} 7\ny 1.5\n", ok);
    check(ok && one.size() == 2 && one[0].labels.at("a") == "q\"uote" &&
              promSum(one, "x", "b", "2") == 7 && promSum(one, "y") == 1.5,
          "labels, escapes and label filters");
    parsePrometheus("x{a=\"1\"\n", ok);
    check(!ok, "an unterminated label set fails the whole parse");
    parsePrometheus("x 12abc\n", ok);
    check(!ok, "a malformed value fails the whole parse");
    SrbdCounts none;
    check(!scrapeCounts("other_metric 1\n", none),
          "an exposition without srbd_submits_total is rejected");
}

void
testWorkloads()
{
    for (const char *name : {"hot8", "cold12", "zipf10"}) {
        const WorkloadSpec *spec = findWorkload(name);
        check(spec != nullptr, std::string(name) + " exists");
        if (spec == nullptr)
            continue;
        const std::size_t count = spec->kind == Kind::Cold ? 32 : 512;
        const std::uint64_t a = sequenceDigest(*spec, 7, count);
        check(a == sequenceDigest(*spec, 7, count),
              std::string(name) + ": same seed, same sequence digest");
        check(a != sequenceDigest(*spec, 8, count),
              std::string(name) + ": another seed, another digest");
    }
    check(findWorkload("mix10") == nullptr, "unknown names are refused");

    // cold12 never repeats a permutation within a run.
    {
        Workload wl(*findWorkload("cold12"), 3);
        std::unordered_set<std::uint64_t> seen;
        bool distinct = true;
        for (int i = 0; i < 1500; ++i)
            distinct = seen.insert(frameDigest(wl.next()->submit)).second &&
                       distinct;
        check(distinct,
              "cold12: 1500 requests, no permutation repeated");
    }

    // hot8 rotates 16 non-F patterns.
    {
        Workload wl(*findWorkload("hot8"), 3);
        bool non_f = wl.poolSize() == 16;
        for (std::size_t i = 0; i < wl.poolSize(); ++i) {
            const auto d = framePermutation(wl.poolPattern(i).submit);
            non_f = non_f && d && !srbenes::inFClass(*d);
        }
        check(non_f, "hot8: 16 patterns, none in F(8)");
        const auto first = wl.next();
        for (int i = 1; i < 16; ++i)
            wl.next();
        check(wl.next() == first, "hot8: the rotation repeats after 16");
    }

    // zipf10's pool is half F members, mixed across ranks.
    {
        Workload wl(*findWorkload("zipf10"), 3);
        std::size_t flagged = 0, top_half = 0;
        for (std::size_t i = 0; i < wl.poolSize(); ++i) {
            flagged += wl.poolPattern(i).f_member;
            top_half += i < wl.poolSize() / 2 && wl.poolPattern(i).f_member;
        }
        check(wl.poolSize() == 4096 && flagged == 2048,
              "zipf10: 4096 patterns, 2048 generated as F members");
        check(top_half > 900 && top_half < 1148,
              "zipf10: F members spread over the popular half");
        bool agree = true;
        for (std::size_t i = 0; i < wl.poolSize(); i += 64) {
            const auto d = framePermutation(wl.poolPattern(i).submit);
            agree = agree && d &&
                    srbenes::inFClass(*d) == wl.poolPattern(i).f_member;
        }
        check(agree, "zipf10: inFClass agrees on a 64-pattern sample");

        // Rank 1 is drawn about 1/H(4096) ~ 11% of the time.
        const Pattern *top = &wl.poolPattern(0);
        int hits = 0;
        for (int i = 0; i < 20000; ++i)
            hits += wl.next().get() == top;
        check(hits > 2000 && hits < 2500,
              "zipf10: rank 1 drawn ~11% of the time (" +
                  std::to_string(hits) + "/20000)");
    }
}

void
testSpans()
{
    SpanLog log;
    const std::uint64_t root = log.add("request", 100, 200, 1);
    log.add("a", 110, 130, 1, root);
    log.add("b", 120, 150, 1, root);  // overlaps a
    log.add("c", 190, 260, 1, root);  // runs past the root
    log.add("ref", 300, 400, 1, root); // outside the root
    const std::vector<std::uint64_t> self = log.selfTimes();
    check(self[0] == 100 - 40 - 10,
          "self time subtracts the union of children, clipped");
    check(median(std::vector<int>{5, 1, 3}) == 3 &&
              median(std::vector<int>{4, 1, 3, 2}) == 2.5 &&
              median(std::vector<int>{}) == 0,
          "median of odd, even and empty samples");
}

} // namespace

int
main()
{
    testParser();
    testWorkloads();
    testSpans();
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed",
                failures);
    return failures ? 1 : 0;
}
