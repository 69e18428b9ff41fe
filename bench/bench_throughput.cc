/**
 * @file
 * Streaming throughput: the StreamEngine's lock-free pipeline
 * against the same number of plain threads calling
 * Router::routeOutcome on a shared router.
 *
 * Workload (open loop, both sides identical): a pregenerated
 * schedule over a 16-pattern hot set of F(n) members with a
 * 1/kColdOneIn chance per request of a freshly drawn cold pattern,
 * payloads N words each, n = 8, 10, 12. Payload content is staged
 * by the client: buffers circulate untouched — this measures
 * routing throughput, not payload generation — except that every
 * kParityEvery-th request gets fresh deterministic content on both
 * sides, so the stream side's samples can be verified.
 *
 * The stream side runs one producer pumping submit/poll plus K
 * worker threads, holding a bounded number of requests in flight
 * (maxOutstandingFor) so circulating buffers stay cache-resident;
 * the baseline splits the same schedule across 1+K plain threads,
 * so both sides use the same total thread count. Both sides get an
 * untimed warm prefix.
 *
 *   baseline : per request, Router::routeOutcome — a 128-bit
 *              content hash of the destination vector, a locked
 *              plan-cache probe, and a freshly allocated result
 *              vector, on each of its 1+K threads;
 *   stream   : per request, a 128-bit content hash and a plan-tier
 *              probe; a hit (all but the cold draws once warm) is
 *              gathered into recycled storage on the ONE producer
 *              thread (the `inline_served` JSON field counts them),
 *              and only a miss crosses an SPSC ring to a worker and
 *              back. So the hot set runs on one thread against the
 *              baseline's three, and the speedup can fall below 1
 *              where per-request work is largest (n = 10 and 12).
 *
 * Every ~97th streamed result is checked bit-for-bit against the
 * reference SelfRoutingBenes simulator, outside the timed region.
 * Emits a fixed-width table and machine-readable
 * BENCH_throughput.json.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "sink.hh"
#include "common/prng.hh"
#include "common/table.hh"
#include "core/fast_kernels.hh"
#include "core/router.hh"
#include "core/self_routing.hh"
#include "core/stream.hh"
#include "perm/f_class.hh"

namespace
{

using namespace srbenes;


constexpr unsigned kWorkers = 2;
constexpr unsigned kHotSet = 16;
constexpr unsigned kColdOneIn = 256;
constexpr unsigned kParityEvery = 97;

/**
 * In-flight cap for the stream pump, chosen per payload size so the
 * circulating buffer set (max_out * N words in, the same out) stays
 * cache-resident; it also bounds submit->complete latency under
 * open-loop pressure. Larger payloads want a smaller window.
 */
std::uint64_t
maxOutstandingFor(Word N)
{
    if (N >= 4096)
        return 16;
    if (N >= 1024)
        return 32;
    return 128;
}

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<Word>
iotaPayload(Word size, Word base)
{
    std::vector<Word> v(size);
    for (Word i = 0; i < size; ++i)
        v[i] = base + i;
    return v;
}

/** The request schedule: shared hot patterns plus cold one-offs. */
std::vector<std::shared_ptr<const Permutation>>
makeSchedule(unsigned n, std::uint64_t requests, Prng &prng)
{
    std::vector<std::shared_ptr<const Permutation>> hot;
    for (unsigned i = 0; i < kHotSet; ++i)
        hot.push_back(std::make_shared<const Permutation>(
            randomFMember(n, prng)));
    std::vector<std::shared_ptr<const Permutation>> sched;
    sched.reserve(requests);
    for (std::uint64_t r = 0; r < requests; ++r) {
        if (prng.below(kColdOneIn) == 0)
            sched.push_back(std::make_shared<const Permutation>(
                randomFMember(n, prng)));
        else
            sched.push_back(hot[prng.below(kHotSet)]);
    }
    return sched;
}

/**
 * 1 + kWorkers plain threads splitting @p sched, each calling
 * Router::routeOutcome on one shared router. Returns aggregate
 * perms/sec.
 */
double
baselineRun(unsigned n,
            const std::vector<std::shared_ptr<const Permutation>> &sched)
{
    const Word N = Word{1} << n;
    const Router router(n, false, /*capacity=*/512, /*shards=*/8);
    const unsigned T = 1 + kWorkers;

    // Warm the cache with the hot prefix so both sides start warm:
    // two passes, since the cache keeps a pattern from its second
    // sighting.
    for (unsigned pass = 0; pass < 2; ++pass)
        for (std::uint64_t r = 0; r < std::min<std::uint64_t>(
                                      sched.size(), kHotSet);
             ++r)
            bench::sink(router.routeOutcome(*sched[r], iotaPayload(N, r))
                            .value()[0]);

    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < T; ++t) {
        threads.emplace_back([&, t] {
            std::vector<Word> payload(N);
            // order: acquire pairs with the release store of `go`,
            // so the start timestamp taken before it is visible.
            while (!go.load(std::memory_order_acquire))
                go.wait(false, std::memory_order_acquire);
            for (Word i = 0; i < N; ++i)
                payload[i] = t + i;
            for (std::size_t r = t; r < sched.size(); r += T) {
                // Payloads are staged by the client; only requests
                // the stream side parity-samples get fresh content,
                // so both sides do identical per-request work.
                if (r % kParityEvery == 0)
                    for (Word i = 0; i < N; ++i)
                        payload[i] = r + i;
                bench::sink(
                    router.routeOutcome(*sched[r], payload).value()[0]);
            }
        });
    }
    const double t0 = nowSec();
    // order: release publishes the start barrier to the acquire
    // loads in the workers.
    go.store(true, std::memory_order_release);
    go.notify_all();
    for (auto &t : threads)
        t.join();
    const double dt = nowSec() - t0;
    return sched.size() / dt;
}

struct StreamRun
{
    StreamStats stats;
    std::uint64_t parity_samples = 0;
    std::uint64_t parity_failures = 0;
};

/**
 * One producer (this thread) pumping the whole schedule through a
 * StreamEngine with kWorkers workers; payload storage is recycled
 * from polled results, so steady state allocates nothing.
 */
StreamRun
streamRun(unsigned n,
          const std::vector<std::shared_ptr<const Permutation>> &sched)
{
    const Word N = Word{1} << n;
    const std::uint64_t max_out = maxOutstandingFor(N);
    StreamOptions opts;
    opts.workers = kWorkers;
    opts.shared_cache_capacity = 512;
    opts.shared_cache_shards = 8;
    StreamEngine eng(n, opts);
    eng.start();
    auto &prod = eng.producer(0);

    StreamRun run;
    std::vector<std::vector<Word>> pool;
    std::vector<StreamResult> sampled; // verified after stop()
    sampled.reserve(sched.size() / kParityEvery + 1);
    StreamResult res;
    auto drainOne = [&](StreamResult &r) {
        bench::sink(r.payload[0]); // client touches its routed data
        if (r.id % kParityEvery == 0)
            sampled.push_back(std::move(r));
        else
            pool.push_back(std::move(r.payload));
    };

    // Untimed warmup, mirroring the baseline's warm prefix: the
    // workers plan the schedule's first patterns into the plan tier
    // (two passes, so each is sighted twice), then the stats clock
    // restarts on the drained (quiescent) engine.
    {
        std::uint64_t wid = 0;
        for (unsigned pass = 0; pass < 2; ++pass)
            for (std::uint64_t r = 0;
                 r < std::min<std::uint64_t>(sched.size(), kHotSet);
                 ++r) {
                std::vector<Word> payload = iotaPayload(N, wid);
                while (!prod.trySubmit(wid, sched[r], payload)) {
                    prod.awaitResult(res);
                    pool.push_back(std::move(res.payload));
                }
                ++wid;
                while (prod.tryPoll(res))
                    pool.push_back(std::move(res.payload));
            }
        while (prod.received() < prod.submitted()) {
            prod.awaitResult(res);
            pool.push_back(std::move(res.payload));
        }
        eng.resetStats();
    }

    for (std::uint64_t id = 0; id < sched.size(); ++id) {
        while (prod.submitted() - prod.received() >= max_out) {
            prod.awaitResult(res);
            drainOne(res);
        }
        std::vector<Word> payload;
        if (!pool.empty()) {
            payload = std::move(pool.back());
            pool.pop_back();
        } else {
            payload.resize(N);
        }
        // Staged payloads: recycled buffers ship as-is; only the
        // parity-sampled ids get fresh deterministic content so the
        // reference simulator can check them bit for bit.
        if (id % kParityEvery == 0)
            for (Word i = 0; i < N; ++i)
                payload[i] = id + i;
        while (!prod.trySubmit(id, sched[id], payload)) {
            prod.awaitResult(res);
            drainOne(res);
        }
        while (prod.tryPoll(res))
            drainOne(res);
    }
    while (prod.received() < prod.submitted()) {
        prod.awaitResult(res);
        drainOne(res);
    }
    eng.stop();
    run.stats = eng.stats();

    // Bit-for-bit parity of the sampled results against the
    // reference simulator, outside the timed region.
    const SelfRoutingBenes net(n);
    for (const StreamResult &r : sampled) {
        ++run.parity_samples;
        const auto ref =
            net.permutePayloads(*sched[r.id], iotaPayload(N, r.id));
        if (!ref || r.payload != *ref)
            ++run.parity_failures;
    }
    return run;
}

struct Row
{
    unsigned n;
    Word N;
    std::uint64_t requests;
    double baseline_ps;
    StreamRun stream;
};

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
}

std::string
fmt2(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
}

} // namespace

int
main()
{
    std::printf(
        "=== streaming throughput: StreamEngine vs plain threads on "
        "Router::routeOutcome ===\n"
        "(open-loop schedule: %u-pattern hot set of F members, 1/%u "
        "cold draws;\n both sides use %u threads total; kernels: "
        "%s)\n\n",
        kHotSet, kColdOneIn, 1 + kWorkers, activeKernels().name);

    Prng prng(2026);
    std::vector<Row> rows;
    TextTable table({"n", "N", "requests", "baseline p/s",
                     "stream p/s", "speedup", "GB/s", "p50 us",
                     "p99 us", "producer%", "tier hits"});

    struct Config
    {
        unsigned n;
        std::uint64_t requests;
    };
    // SRBENES_BENCH_SMOKE=1: the CI smoke configuration — the same
    // pipeline at a fraction of the schedule, proving the binary
    // and its JSON are healthy without tying up a runner.
    const char *smoke_env = std::getenv("SRBENES_BENCH_SMOKE");
    const bool smoke = smoke_env && smoke_env[0] != '\0' &&
                       !(smoke_env[0] == '0' && smoke_env[1] == '\0');
    std::vector<Config> configs{{8, 60000}, {10, 30000}, {12, 15000}};
    if (smoke)
        configs = {{8, 4000}, {10, 2000}, {12, 1000}};
    const auto emitRow = [&](const Row &row) {
        const StreamStats &st = row.stream.stats;
        table.newRow();
        table.addCell(row.n);
        table.addCell(row.N);
        table.addCell(row.requests);
        table.addCell(fmt(row.baseline_ps));
        table.addCell(fmt(st.perms_per_sec));
        table.addCell(fmt2(st.perms_per_sec / row.baseline_ps) + "x");
        table.addCell(fmt2(st.payload_gb_per_sec));
        table.addCell(fmt2(st.p50_ns / 1e3));
        table.addCell(fmt2(st.p99_ns / 1e3));
        table.addCell(
            fmt2(100.0 * st.inline_served / st.requests) + "%");
        table.addCell(st.shared_cache.hits);
        if (row.stream.parity_failures)
            std::fprintf(stderr,
                         "PARITY FAILURE: n=%u: %llu of %llu sampled "
                         "results differ from the reference\n",
                         row.n,
                         static_cast<unsigned long long>(
                             row.stream.parity_failures),
                         static_cast<unsigned long long>(
                             row.stream.parity_samples));
    };

    for (const Config cfg : configs) {
        const auto sched = makeSchedule(cfg.n, cfg.requests, prng);

        Row row;
        row.n = cfg.n;
        row.N = Word{1} << cfg.n;
        row.requests = cfg.requests;
        row.baseline_ps = baselineRun(cfg.n, sched);
        row.stream = streamRun(cfg.n, sched);
        rows.push_back(row);
        emitRow(row);
    }

    table.print(std::cout);

    const char *path = "BENCH_throughput.json";
    std::FILE *jf = std::fopen(path, "w");
    if (!jf) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        return 1;
    }
    std::fprintf(jf,
                 "{\n  \"benchmark\": \"throughput\",\n"
                 "  \"unit\": \"perms_per_sec\",\n"
                 "  \"workload\": \"%u-pattern hot set of F members, "
                 "1/%u cold draws, open loop; the stream side serves "
                 "plan hits on its one producer thread and sends only "
                 "misses to its workers\",\n"
                 "  \"threads_total\": %u,\n"
                 "  \"stream_workers\": %u,\n"
                 "  \"simd\": \"%s\",\n  \"results\": [\n",
                 kHotSet, kColdOneIn, 1 + kWorkers, kWorkers,
                 activeKernels().name);
    bool parity_ok = true;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        const StreamStats &st = r.stream.stats;
        const CacheStats &shared = st.shared_cache;
        parity_ok = parity_ok && r.stream.parity_failures == 0;
        std::fprintf(
            jf,
            "    {\"workload\": \"hotset\", \"n\": %u, \"N\": %llu, "
            "\"requests\": %llu, "
            "\"baseline_perms_per_sec\": %.0f, "
            "\"stream_perms_per_sec\": %.0f, \"speedup\": %.2f, "
            "\"payload_gb_per_sec\": %.3f, \"p50_ns\": %llu, "
            "\"p99_ns\": %llu, \"shared_hits\": %llu, "
            "\"shared_misses\": %llu, \"shared_evictions\": %llu, "
            "\"inline_served\": %llu, \"sheds\": %llu, "
            "\"parity_samples\": %llu, \"parity_ok\": %s}%s\n",
            r.n, static_cast<unsigned long long>(r.N),
            static_cast<unsigned long long>(r.requests),
            r.baseline_ps, st.perms_per_sec,
            st.perms_per_sec / r.baseline_ps, st.payload_gb_per_sec,
            static_cast<unsigned long long>(st.p50_ns),
            static_cast<unsigned long long>(st.p99_ns),
            static_cast<unsigned long long>(shared.hits),
            static_cast<unsigned long long>(shared.misses),
            static_cast<unsigned long long>(shared.evictions),
            static_cast<unsigned long long>(st.inline_served),
            static_cast<unsigned long long>(st.sheds),
            static_cast<unsigned long long>(r.stream.parity_samples),
            r.stream.parity_failures == 0 ? "true" : "false",
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(jf, "  ]\n}\n");
    std::fclose(jf);
    std::printf("\nwrote %s\n", path);
    return parity_ok ? 0 : 1;
}
