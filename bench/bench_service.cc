/**
 * @file
 * Service SLO bench: an in-process srbd server soaked by the
 * open-loop load generator over real loopback sockets.
 *
 * Phases, each a fresh loadgen run (16 patterns) against a server
 * with 2 workers:
 *
 *   sweep    : n = 8, 2 connections: offered-rate sweep — serves/s,
 *              p50/p99 client-side submit→response latency, and
 *              shed counts at each step, run past saturation (up to
 *              200K offered/s). Open loop, so overload shows up as
 *              latency and sheds, never as a silently throttled
 *              offered rate.
 *   deadline : n = 8, 50K offered/s with a tight per-request
 *              deadline, exercising the wire deadline plumbing
 *              (DeadlineExceeded responses are legal here).
 *   quota    : n = 8, per-tenant token buckets enabled at a rate
 *              below the offered load; a healthy run REFUSES work
 *              here (OverQuota), proving admission control holds
 *              the line before the fabric.
 *   capacity : n = 10 and n = 12, 4 connections, each on its own
 *              server: offered-rate sweeps whose last step is past
 *              the knee, so the best serves/s of each n is its
 *              saturation capacity. Every request after a pattern's
 *              first is a plan hit, served on srbd's event loop.
 *
 * Each row records its n and connection count; p99 is reported per
 * step, not gated (loopback p99 on a shared host swings by
 * milliseconds at any rate). The JSON's "saturation" list is the
 * best serves/s of each n's sweep.
 *
 * After its phases each server is drained mid-connection and must
 * come back clean (every request answered, every buffer flushed).
 * The bench exits nonzero on any lost request, payload mismatch,
 * protocol error, failed drain, or a quota phase that refused
 * nothing. Emits BENCH_service.json. SRBENES_BENCH_SMOKE=1 shrinks
 * rates and durations to CI scale.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/table.hh"
#include "net/loadgen.hh"
#include "net/server.hh"
#include "obs/metrics.hh"

namespace
{

using namespace srbenes;
using namespace srbenes::net;

struct Phase
{
    std::string name;
    unsigned n = 0;
    unsigned connections = 0;
    LoadgenReport report;
    bool expect_quota_refusals = false;
};

std::string
fmt(double v, const char *spec = "%.0f")
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), spec, v);
    return buf;
}

} // namespace

int
main()
{
    const char *smoke_env = std::getenv("SRBENES_BENCH_SMOKE");
    const bool smoke = smoke_env && smoke_env[0] != '\0' &&
                       !(smoke_env[0] == '0' && smoke_env[1] == '\0');

    constexpr unsigned kN = 8;
    constexpr unsigned kWorkers = 2;
    constexpr unsigned kCapacityConnections = 4;
    const std::uint64_t phase_ms = smoke ? 1000 : 5000;
    const std::vector<double> sweep_rates =
        smoke ? std::vector<double>{1000, 4000}
              : std::vector<double>{5000, 20000, 50000, 100000,
                                    200000};
    // The deadline and quota phases stay at one fixed rate, so their
    // rows compare across runs however far the sweep goes.
    const double phase_rate = smoke ? 4000 : 50000;
    struct CapacitySweep
    {
        unsigned n;
        std::vector<double> rates;
    };
    const std::vector<CapacitySweep> capacity =
        smoke ? std::vector<CapacitySweep>{{10, {2000}}, {12, {1000}}}
              : std::vector<CapacitySweep>{
                    {10, {20000, 40000, 80000}},
                    {12, {5000, 10000, 20000, 40000}}};

    std::printf("=== srbd service SLO: open-loop loadgen over "
                "loopback (n=%u, N=%u, then capacity at n=10 and "
                "12; %u workers, %llu ms/phase) ===\n\n",
                kN, 1u << kN, kWorkers,
                static_cast<unsigned long long>(phase_ms));

    obs::MetricsRegistry registry;
    ServerOptions sopts;
    sopts.n = kN;
    sopts.stream.workers = kWorkers;
    sopts.metrics = &registry;
    sopts.stream.metrics = &registry;
    auto server = std::make_unique<Server>(std::move(sopts));
    if (!server->valid()) {
        std::fprintf(stderr, "server failed to start\n");
        return 1;
    }
    server->start();

    std::vector<Phase> phases;
    const auto runPhase = [&](const std::string &name,
                              LoadgenOptions opts) {
        opts.port = server->port();
        opts.duration_ms = phase_ms;
        Phase p;
        p.name = name;
        p.n = server->n();
        p.connections = opts.connections;
        p.report = runLoadgen(opts);
        phases.push_back(p);
        return &phases.back();
    };

    for (double rate : sweep_rates) {
        LoadgenOptions opts;
        opts.rate_per_sec = rate;
        opts.connections = 2;
        runPhase("sweep@" + fmt(rate), opts);
    }
    {
        LoadgenOptions opts;
        opts.rate_per_sec = phase_rate;
        opts.connections = 2;
        // Tight but attainable: an order above the idle p99.
        opts.deadline_rel_ns = 20'000'000;
        runPhase("deadline", opts);
    }

    // Quota phase needs buckets, which live server-side: restart
    // with admission control set well below the offered rate.
    const bool first_drain_clean = [&] {
        server->requestDrain();
        return server->awaitStop();
    }();
    const ServerStats open_stats = server->stats();

    obs::MetricsRegistry quota_registry;
    ServerOptions qopts;
    qopts.n = kN;
    qopts.stream.workers = kWorkers;
    qopts.metrics = &quota_registry;
    qopts.stream.metrics = &quota_registry;
    qopts.quota.rate_per_sec = smoke ? 100 : 1000;
    qopts.quota.burst = 50;
    server = std::make_unique<Server>(std::move(qopts));
    if (!server->valid()) {
        std::fprintf(stderr, "quota server failed to start\n");
        return 1;
    }
    server->start();
    {
        LoadgenOptions opts;
        opts.rate_per_sec = phase_rate;
        opts.connections = 2;
        opts.tenants = 4;
        Phase *p = runPhase("quota", opts);
        p->expect_quota_refusals = true;
    }
    const bool second_drain_clean = [&] {
        server->requestDrain();
        return server->awaitStop();
    }();

    bool capacity_drains_clean = true;
    for (const CapacitySweep &sweep : capacity) {
        obs::MetricsRegistry cap_registry;
        ServerOptions copts;
        copts.n = sweep.n;
        copts.stream.workers = kWorkers;
        copts.metrics = &cap_registry;
        copts.stream.metrics = &cap_registry;
        server = std::make_unique<Server>(std::move(copts));
        if (!server->valid()) {
            std::fprintf(stderr, "n=%u server failed to start\n",
                         sweep.n);
            return 1;
        }
        server->start();
        for (double rate : sweep.rates) {
            LoadgenOptions opts;
            opts.rate_per_sec = rate;
            opts.connections = kCapacityConnections;
            runPhase("n" + std::to_string(sweep.n) + "@" + fmt(rate),
                     opts);
        }
        server->requestDrain();
        capacity_drains_clean =
            server->awaitStop() && capacity_drains_clean;
        server.reset(); // before cap_registry, which it reports into
    }

    // Saturation: the best serves/s of each n's sweep (the n = 8
    // sweep and each capacity sweep; not the deadline or quota
    // phases).
    struct Saturation
    {
        unsigned n;
        unsigned connections;
        double serves_per_sec;
    };
    std::vector<Saturation> saturation;
    for (const Phase &p : phases) {
        if (p.name == "deadline" || p.name == "quota")
            continue;
        if (saturation.empty() || saturation.back().n != p.n)
            saturation.push_back({p.n, p.connections, 0});
        saturation.back().serves_per_sec = std::max(
            saturation.back().serves_per_sec, p.report.serves_per_sec);
    }

    TextTable table({"phase", "n", "conns", "offered/s", "achieved/s",
                     "serves/s", "ok", "shed", "quota", "ddl", "lost",
                     "p50 us", "p99 us", "clean"});
    bool all_clean = true;
    bool quota_held = true;
    for (const Phase &p : phases) {
        const LoadgenReport &r = p.report;
        table.newRow();
        table.addCell(p.name);
        table.addCell(p.n);
        table.addCell(p.connections);
        table.addCell(fmt(r.offered_rps));
        table.addCell(fmt(r.achieved_rps));
        table.addCell(fmt(r.serves_per_sec));
        table.addCell(r.ok);
        table.addCell(r.shed);
        table.addCell(r.over_quota);
        table.addCell(r.deadline_exceeded);
        table.addCell(r.lost);
        table.addCell(fmt(r.p50_ns / 1e3, "%.1f"));
        table.addCell(fmt(r.p99_ns / 1e3, "%.1f"));
        table.addCell(r.clean() ? "yes" : "NO");
        all_clean = all_clean && r.clean();
        if (p.expect_quota_refusals && r.over_quota == 0)
            quota_held = false;
    }
    table.print(std::cout);
    std::printf("\nserver (open phases): submits=%llu ok=%llu "
                "sheds=%llu protocol_errors=%llu\n"
                "drain: open=%s quota=%s\n",
                static_cast<unsigned long long>(open_stats.submits),
                static_cast<unsigned long long>(open_stats.ok),
                static_cast<unsigned long long>(open_stats.sheds),
                static_cast<unsigned long long>(
                    open_stats.protocol_errors),
                first_drain_clean ? "clean" : "DIRTY",
                second_drain_clean ? "clean" : "DIRTY");
    std::printf("capacity drains: %s\nsaturation serves/s:",
                capacity_drains_clean ? "clean" : "DIRTY");
    for (const Saturation &sat : saturation)
        std::printf("  n=%u: %.0f", sat.n, sat.serves_per_sec);
    std::printf("\n");

    const char *path = "BENCH_service.json";
    std::FILE *jf = std::fopen(path, "w");
    if (!jf) {
        std::fprintf(stderr, "cannot open %s for writing\n", path);
        return 1;
    }
    std::fprintf(jf,
                 "{\n  \"benchmark\": \"service\",\n"
                 "  \"unit\": \"serves_per_sec\",\n"
                 "  \"n\": %u,\n  \"workers\": %u,\n"
                 "  \"phase_ms\": %llu,\n"
                 "  \"transport\": \"loopback tcp, srbd wire "
                 "protocol, open-loop loadgen\",\n"
                 "  \"results\": [\n",
                 kN, kWorkers,
                 static_cast<unsigned long long>(phase_ms));
    for (std::size_t i = 0; i < phases.size(); ++i) {
        const LoadgenReport &r = phases[i].report;
        std::fprintf(
            jf,
            "    {\"phase\": \"%s\", \"n\": %u, \"connections\": %u, "
            "\"offered_rps\": %.0f, "
            "\"achieved_rps\": %.0f, \"serves_per_sec\": %.0f, "
            "\"sent\": %llu, \"ok\": %llu, \"shed\": %llu, "
            "\"over_quota\": %llu, \"deadline_exceeded\": %llu, "
            "\"lost\": %llu, \"protocol_errors\": %llu, "
            "\"payload_mismatches\": %llu, \"p50_ns\": %llu, "
            "\"p99_ns\": %llu, \"clean\": %s}%s\n",
            phases[i].name.c_str(), phases[i].n,
            phases[i].connections, r.offered_rps, r.achieved_rps,
            r.serves_per_sec,
            static_cast<unsigned long long>(r.sent),
            static_cast<unsigned long long>(r.ok),
            static_cast<unsigned long long>(r.shed),
            static_cast<unsigned long long>(r.over_quota),
            static_cast<unsigned long long>(r.deadline_exceeded),
            static_cast<unsigned long long>(r.lost),
            static_cast<unsigned long long>(r.protocol_errors),
            static_cast<unsigned long long>(r.payload_mismatches),
            static_cast<unsigned long long>(r.p50_ns),
            static_cast<unsigned long long>(r.p99_ns),
            r.clean() ? "true" : "false",
            i + 1 < phases.size() ? "," : "");
    }
    std::fprintf(jf, "  ],\n  \"saturation\": [\n");
    for (std::size_t i = 0; i < saturation.size(); ++i)
        std::fprintf(jf,
                     "    {\"n\": %u, \"connections\": %u, "
                     "\"serves_per_sec\": %.0f}%s\n",
                     saturation[i].n, saturation[i].connections,
                     saturation[i].serves_per_sec,
                     i + 1 < saturation.size() ? "," : "");
    const bool drains_clean = first_drain_clean &&
                              second_drain_clean &&
                              capacity_drains_clean;
    std::fprintf(jf,
                 "  ],\n  \"drain_clean\": %s,\n"
                 "  \"quota_enforced\": %s\n}\n",
                 drains_clean ? "true" : "false",
                 quota_held ? "true" : "false");
    std::fclose(jf);
    std::printf("wrote %s\n", path);

    if (!all_clean)
        std::fprintf(stderr, "SERVICE FAILURE: a phase was not "
                             "clean (lost/mismatch/protocol)\n");
    if (!quota_held)
        std::fprintf(stderr, "QUOTA FAILURE: the quota phase "
                             "refused nothing\n");
    if (!drains_clean)
        std::fprintf(stderr, "DRAIN FAILURE: a drain was dirty\n");
    return all_clean && quota_held && drains_clean ? 0 : 1;
}
