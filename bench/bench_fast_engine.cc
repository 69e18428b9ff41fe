/**
 * @file
 * The bit-sliced flat routing engine against the scalar reference
 * simulator: plan cost and end-to-end transport of a batch of
 * payload vectors across n = 4..16 and batch sizes 1/8/64, fresh
 * and through the Router's warm plan cache.
 *
 *   scalar    : SelfRoutingBenes::route per payload vector plus the
 *               realized-destination scatter (the pre-engine
 *               Router::execute behavior);
 *   bitsliced : FastEngine::routePlan once, then one executeInto
 *               (a contiguous gather) per payload vector;
 *   cached    : Router::planCached with a warm plan cache, then one
 *               Router::executeInto per payload vector (the paper's
 *               SIMD setting — a recurring pattern pays nothing but
 *               the gathers).
 *
 * Emits a fixed-width table on stdout and machine-readable
 * BENCH_fast_engine.json in the working directory so the perf
 * trajectory is tracked from PR to PR.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "sink.hh"
#include "common/prng.hh"
#include "common/table.hh"
#include "core/fast_engine.hh"
#include "core/router.hh"
#include "perm/f_class.hh"

namespace
{

using namespace srbenes;

/** Defeat dead-code elimination without perturbing the loop. */

/**
 * Best-of-5 wall time of one invocation of @p f, in nanoseconds,
 * with the iteration count chosen so each sample runs >= ~5 ms.
 */
template <typename F>
double
timeNs(F &&f)
{
    using clock = std::chrono::steady_clock;
    auto once = [&]() {
        const auto t0 = clock::now();
        f();
        return std::chrono::duration<double, std::nano>(clock::now() -
                                                        t0)
            .count();
    };
    const double probe = once();
    const double target = 5e6; // 5 ms per sample
    const unsigned iters =
        probe >= target
            ? 1
            : static_cast<unsigned>(target / (probe + 1.0)) + 1;
    double best = probe;
    for (int sample = 0; sample < 5; ++sample) {
        const auto t0 = clock::now();
        for (unsigned i = 0; i < iters; ++i)
            f();
        const double ns =
            std::chrono::duration<double, std::nano>(clock::now() - t0)
                .count() /
            iters;
        if (ns < best)
            best = ns;
    }
    return best;
}

struct Row
{
    unsigned n;
    Word N;
    std::size_t batch;
    double scalar_ns;
    double bitsliced_ns;
    double cached_ns;
    double plan_scalar_ns;
    double plan_fast_ns;
};

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
}

std::string
fmtX(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1fx", v);
    return buf;
}

} // namespace

int
main()
{
    std::printf("=== fast engine: bit-sliced routing vs the scalar "
                "reference ===\n"
                "(workload: random F(n) members, so both paths route "
                "in one self-set pass;\n ns are per batch, best of 5 "
                "samples)\n\n");

    std::vector<Row> rows;
    Prng prng(2026);

    TextTable table({"n", "N", "batch", "scalar ns", "bitsliced ns",
                     "cached ns", "speedup", "cached speedup"});

    // SRBENES_BENCH_SMOKE=1: the CI smoke configuration — fewer
    // sizes, so the run proves the binary and its JSON are healthy
    // without tying up a runner.
    const char *smoke_env = std::getenv("SRBENES_BENCH_SMOKE");
    const bool smoke = smoke_env && smoke_env[0] != '\0' &&
                       !(smoke_env[0] == '0' && smoke_env[1] == '\0');
    std::vector<unsigned> sizes{4u, 8u, 10u, 12u, 14u, 16u};
    if (smoke)
        sizes = {4u, 8u, 10u};

    for (unsigned n : sizes) {
        const Word N = Word{1} << n;
        const SelfRoutingBenes net(n);
        const FastEngine engine(n);
        const Router router(n);
        const Permutation d = randomFMember(n, prng);

        std::vector<std::size_t> batches{1, 8, 64};
        if (n >= 16 || smoke)
            batches = {1, 8}; // keep the total runtime bounded

        for (std::size_t B : batches) {
            std::vector<std::vector<Word>> batch(
                B, std::vector<Word>(N));
            for (std::size_t v = 0; v < B; ++v)
                for (Word i = 0; i < N; ++i)
                    batch[v][i] = v * N + i;

            Row row;
            row.n = n;
            row.N = N;
            row.batch = B;

            // Scalar reference: one full fabric simulation per
            // payload vector, then the realized-destination scatter.
            std::vector<Word> out(N);
            row.scalar_ns = timeNs([&]() {
                for (std::size_t v = 0; v < B; ++v) {
                    const RouteResult res = net.route(d);
                    for (Word i = 0; i < N; ++i)
                        out[res.realized_dest[i]] = batch[v][i];
                    bench::sink(out[0]);
                }
            });

            // Bit-sliced: plan once, gather per vector.
            row.bitsliced_ns = timeNs([&]() {
                const FastPlan plan = engine.routePlan(d);
                std::vector<std::vector<Word>> outs(B);
                for (std::size_t v = 0; v < B; ++v)
                    engine.executeInto(plan, batch[v], outs[v]);
                bench::sink(outs[0][0]);
            });

            // Warm plan cache: classification and planning skipped.
            // The cache keeps a pattern from its second sighting.
            (void)router.planCached(d);
            (void)router.planCached(d);
            row.cached_ns = timeNs([&]() {
                const auto plan = router.planCached(d);
                std::vector<std::vector<Word>> outs(B);
                for (std::size_t v = 0; v < B; ++v)
                    router.executeInto(*plan, batch[v], outs[v]);
                bench::sink(outs[0][0]);
            });

            // Plan-only comparison (batch independent; measured per
            // batch row anyway to keep the JSON flat).
            row.plan_scalar_ns = timeNs([&]() {
                const RouteResult res = net.route(d);
                bench::sink(res.realized_dest[0]);
            });
            row.plan_fast_ns = timeNs([&]() {
                const FastPlan plan = engine.routePlan(d);
                bench::sink(plan.src[0]);
            });

            rows.push_back(row);
            table.newRow();
            table.addCell(n);
            table.addCell(N);
            table.addCell(B);
            table.addCell(fmt(row.scalar_ns));
            table.addCell(fmt(row.bitsliced_ns));
            table.addCell(fmt(row.cached_ns));
            table.addCell(fmtX(row.scalar_ns / row.bitsliced_ns));
            table.addCell(fmtX(row.scalar_ns / row.cached_ns));
        }
    }

    table.print(std::cout);

    std::printf("\nplan-only (one route, no payloads):\n");
    TextTable plans({"n", "N", "scalar route ns", "fast plan ns",
                     "speedup"});
    for (const Row &row : rows) {
        if (row.batch != 1)
            continue;
        plans.newRow();
        plans.addCell(row.n);
        plans.addCell(row.N);
        plans.addCell(fmt(row.plan_scalar_ns));
        plans.addCell(fmt(row.plan_fast_ns));
        plans.addCell(fmtX(row.plan_scalar_ns / row.plan_fast_ns));
    }
    plans.print(std::cout);

    const char *path = "BENCH_fast_engine.json";
    std::FILE *jf = std::fopen(path, "w");
    if (!jf) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        return 1;
    }
    std::fprintf(jf, "{\n  \"benchmark\": \"fast_engine\",\n"
                     "  \"unit\": \"ns_per_batch\",\n"
                     "  \"workload\": \"random F(n) member, "
                     "self-routed\",\n  \"results\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(
            jf,
            "    {\"n\": %u, \"N\": %llu, \"batch\": %zu, "
            "\"scalar_ns\": %.0f, \"bitsliced_ns\": %.0f, "
            "\"cached_ns\": %.0f, "
            "\"plan_scalar_ns\": %.0f, \"plan_fast_ns\": %.0f, "
            "\"speedup_bitsliced\": %.2f, "
            "\"speedup_cached\": %.2f}%s\n",
            r.n, static_cast<unsigned long long>(r.N), r.batch,
            r.scalar_ns, r.bitsliced_ns, r.cached_ns,
            r.plan_scalar_ns, r.plan_fast_ns,
            r.scalar_ns / r.bitsliced_ns, r.scalar_ns / r.cached_ns,
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(jf, "  ]\n}\n");
    std::fclose(jf);
    std::printf("\nwrote %s\n", path);
    return 0;
}
