/**
 * @file
 * srbench_harness: one benchmark run of one workload against a
 * fresh srbd.
 *
 *   srbench_harness --srbd=PATH --workload=NAME --seed=N --seconds=S
 *                   --trace=0|1 [--trace-dir=DIR] [--git-rev=REV]
 *
 * A run needs at least four usable CPUs (exit 2 otherwise): the
 * generator is pinned to one and srbd to the rest, where SCHED_IDLE
 * keeper threads stop the CPUs from halting after the set-up starts
 * (see CpuKeepers).
 *
 * Order of a run:
 *   1. (untraced) repeated fresh srbd starts -> setup_s
 *   2. spawn the measured srbd, then build the pattern pool
 *   3. windowed warm pass, untimed
 *   4. rtt phase: one request in flight, 40% of --seconds -> rtt_p50_us
 *   5. load phase: the workload's window in flight, 60% of --seconds;
 *      median over slices of srbd's thread run time over the requests
 *      the slice served -> cpu_us_per_req
 *      The two phases alternate in kRounds rounds of one rtt slice
 *      and one load slice each.
 *   6. Stats scrape, VmHWM, SIGTERM drain (must exit 0)
 *   7. (traced) in-process replay of the same sequence
 *
 * Every payload is verified; the last stdout line is the JSON result.
 * Exit 0 only when every request was answered correctly.
 */

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/fast_kernels.hh"
#include "host.hh"
#include "net/client.hh"
#include "obs/metrics.hh"
#include "prom.hh"
#include "replay.hh"
#include "spans.hh"
#include "wire.hh"
#include "workload.hh"

#ifndef SRBENCH_BUILD_TYPE
#define SRBENCH_BUILD_TYPE "unknown"
#endif

namespace
{

using namespace srbench;
using srbenes::obs::monotonicNs;

/** Fresh starts per run; setup_s is their median. */
constexpr int kColdStarts = 41;
/** Health round trips timed in a traced run. */
constexpr int kHealthProbes = 2000;
constexpr double kRttShare = 0.4;
/** Rounds of one rtt slice then one drained load slice. */
constexpr int kRounds = 12;
/** Replay wall budget, as a share of --seconds (warm prefix extra). */
constexpr double kReplayShare = 0.25;
/** Replayed requests' span ids start here, clear of the wire's. */
constexpr std::uint64_t kReplayRequestBase = 1ULL << 40;

struct Options
{
    std::string srbd;
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string trace_dir;
    std::string git_rev = "unknown";
};

bool
flag(const char *arg, const char *name, std::string &out)
{
    const std::size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) != 0 || arg[len] != '=')
        return false;
    out = arg + len + 1;
    return true;
}

bool
parse(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        std::string v;
        char *end = nullptr;
        if (flag(argv[i], "--srbd", v)) {
            o.srbd = v;
        } else if (flag(argv[i], "--workload", v)) {
            o.workload = v;
        } else if (flag(argv[i], "--seed", v)) {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                return false;
        } else if (flag(argv[i], "--seconds", v)) {
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(o.seconds > 0))
                return false;
        } else if (flag(argv[i], "--trace", v)) {
            if (v != "0" && v != "1")
                return false;
            o.trace = v == "1";
        } else if (flag(argv[i], "--trace-dir", v)) {
            o.trace_dir = v;
        } else if (flag(argv[i], "--git-rev", v)) {
            o.git_rev = v;
        } else {
            return false;
        }
    }
    return !o.srbd.empty() && !o.workload.empty() && o.seconds > 0 &&
           o.trace >= 0;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::string
cpuList(const cpu_set_t &set)
{
    std::string s;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set))
            s += (s.empty() ? "" : ",") + std::to_string(c);
    return s;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parse(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: %s --srbd=PATH --workload=NAME --seed=N "
                     "--seconds=S --trace=0|1 [--trace-dir=DIR] "
                     "[--git-rev=REV]\n",
                     argv[0]);
        return 2;
    }
    const WorkloadSpec *spec = findWorkload(opt.workload);
    if (spec == nullptr) {
        std::fprintf(stderr, "srbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    if (::access(opt.srbd.c_str(), X_OK) != 0) {
        std::fprintf(stderr, "srbench: no srbd binary at %s\n",
                     opt.srbd.c_str());
        return 2;
    }
    std::signal(SIGPIPE, SIG_IGN);

    const bool trace = opt.trace == 1;
    std::vector<std::string> problems;
    // Wall time of each stage, for the report.
    std::vector<std::pair<const char *, double>> stages;
    std::uint64_t stage_t = monotonicNs();
    auto stage = [&](const char *name) {
        const std::uint64_t now = monotonicNs();
        stages.push_back({name, static_cast<double>(now - stage_t) * 1e-9});
        stage_t = now;
    };
    const Placement place = Placement::choose();
    if (place.cpus < kMinCpus) {
        std::fprintf(stderr,
                     "srbench: needs at least %u usable CPUs, has %u\n",
                     kMinCpus, place.cpus);
        return 2;
    }
    const CpuJiffies jiffies0 = readCpuJiffies();
    Placement::apply(place.server); // children inherit srbd's CPUs

    // 1. Set-up time: fresh daemons from this still-small process.
    std::vector<double> starts;
    if (!trace) {
        for (int k = 0; k < kColdStarts; ++k) {
            const double s = measureColdStart(opt.srbd, spec->n);
            if (s < 0) {
                problems.push_back("fresh srbd start failed");
                break;
            }
            starts.push_back(s);
        }
    }
    stage("setup");

    // srbd's CPUs stay awake from here on, replay included. Not
    // during the fresh starts above: with the keepers spinning, host
    // preemption of our vCPUs made those starts bimodal.
    CpuKeepers keepers(place.server);

    // 2. The measured daemon, then the pool.
    std::string error;
    std::unique_ptr<Srbd> srbd = Srbd::spawn(opt.srbd, spec->n, error);
    if (!srbd) {
        std::fprintf(stderr, "srbench: %s\n", error.c_str());
        return 1;
    }
    Placement::apply(place.generator);
    Generator gen(srbd->port());
    srbenes::net::Client control;
    if (!gen.healthy() || !control.connect("127.0.0.1", srbd->port())) {
        std::fprintf(stderr, "srbench: cannot connect to srbd\n");
        return 1;
    }
    stage("spawn");
    Workload wl(*spec, opt.seed);
    stage("pool");

    // 3. Warm pass: plans, connection and allocator reach steady state.
    gen.run(wl, spec->window, 0, spec->warm_requests);
    stage("warm");
    SrbdCounts before;
    if (!scrapeCounts(scrapeStats(control), before))
        problems.push_back("Stats exposition before the timed phases "
                           "did not parse");

    // 4+5. rtt and load phases, interleaved in rounds so that both
    //      sample the whole run: the host's speed shifts over seconds,
    //      and back-to-back phases each caught a different spell.
    //      A load slice ends with the window drained, so its srbd run
    //      time pairs exactly with the requests it served; the median
    //      slice is robust to a burst of contention inside one run.
    const auto rtt_ns = static_cast<std::uint64_t>(opt.seconds * kRttShare *
                                                   1e9 / kRounds);
    const auto load_ns = static_cast<std::uint64_t>(
        opt.seconds * (1 - kRttShare) * 1e9 / kRounds);
    SpanLog spans;
    RttLog rtt;
    auto answered = [&gen] {
        const Tally &t = gen.tally();
        return t.ok + t.non_ok + t.mismatch;
    };
    std::vector<double> slice_cpu_us, round_rtt_us;
    std::uint64_t load_served = 0;
    for (int k = 0; k < kRounds && gen.healthy(); ++k) {
        const std::size_t rtt0 = rtt.rtt_ns.size();
        gen.run(wl, 1, monotonicNs() + rtt_ns, 0, &rtt,
                trace ? &spans : nullptr);
        round_rtt_us.push_back(
            median(std::vector<std::uint64_t>(rtt.rtt_ns.begin() + rtt0,
                                              rtt.rtt_ns.end())) /
            1e3);
        const std::uint64_t served0 = answered();
        const std::uint64_t cpu0 = processRunNs(srbd->pid());
        gen.run(wl, spec->window, monotonicNs() + load_ns, 0);
        const std::uint64_t cpu1 = processRunNs(srbd->pid());
        const std::uint64_t served = answered() - served0;
        if (served > 0)
            slice_cpu_us.push_back(static_cast<double>(cpu1 - cpu0) / 1e3 /
                                   static_cast<double>(served));
        load_served += served;
    }
    stage("timed");

    std::vector<std::uint64_t> health;
    for (int k = 0; trace && k < kHealthProbes; ++k) {
        const std::uint64_t ns = gen.healthRoundTripNs();
        if (ns == 0) {
            problems.push_back("Health round trip failed");
            break;
        }
        health.push_back(ns);
    }

    // 6. Counts, memory, drain.
    const std::string exposition = scrapeStats(control);
    SrbdCounts after;
    if (!scrapeCounts(exposition, after))
        problems.push_back("Stats exposition after the timed phases "
                           "did not parse");
    const double rss_mib = peakRssMiB(srbd->pid());
    const Tally tally = gen.tally();
    if (after.submits != static_cast<double>(tally.sent))
        problems.push_back("srbd_submits_total " +
                           std::to_string(after.submits) +
                           " != requests sent " + std::to_string(tally.sent));
    if (after.responses_ok != static_cast<double>(tally.ok + tally.mismatch))
        problems.push_back("srbd counted " +
                           std::to_string(after.responses_ok) +
                           " Ok responses, the generator " +
                           std::to_string(tally.ok + tally.mismatch));
    if (after.protocol_errors != 0)
        problems.push_back("srbd counted protocol errors");
    control.close();
    const int srbd_exit = srbd->stop();
    if (srbd_exit != 0)
        problems.push_back("srbd did not drain cleanly (exit " +
                           std::to_string(srbd_exit) + ")");
    const double steal = stealPct(jiffies0, readCpuJiffies());
    stage("drain");

    // 7. In-process replay.
    ReplayResult rep;
    if (trace) {
        Placement::apply(place.all);
        const auto budget = static_cast<std::uint64_t>(
            opt.seconds * kReplayShare * 1e9);
        rep = replayInProcess(*spec, opt.seed, budget, spans,
                              kReplayRequestBase);
        stage("replay");
    }

    std::uint64_t attempted = tally.sent + rep.requests;
    std::uint64_t failed = tally.failed() + rep.failures;
    if (rtt.rtt_ns.empty() || load_served == 0)
        problems.push_back("a timed phase served no requests");
    const bool correct = failed == 0 && problems.empty();

    std::vector<Metric> metrics;
    if (!trace) {
        metrics.push_back({"setup_s", median(starts), "s"});
        metrics.push_back({"rtt_p50_us", median(rtt.rtt_ns) / 1e3, "us"});
        metrics.push_back({"cpu_us_per_req", median(slice_cpu_us), "us"});
        metrics.push_back({"rss_mib", rss_mib, "MiB"});
    } else {
        const double rtt_us = median(rtt.rtt_ns) / 1e3;

        const std::vector<std::uint64_t> self = spans.selfTimes();
        std::vector<std::uint64_t> outside;
        for (std::size_t i = 0; i < spans.spans().size(); ++i)
            if (std::strcmp(spans.spans()[i].name, "wire.request") == 0)
                outside.push_back(self[i]);

        const SrbdCounts d = after.since(before);
        const double reqs = d.submits;
        // The request path: codec, admission and the producer's hash
        // (in-process replay) around the engine time srbd itself
        // reported on the wire in the same phase as rtt_us. The
        // replay's lookup, gather and handoff split that engine time;
        // they were measured later, possibly at another host speed,
        // so they are not summed.
        const double engine_us = median(rtt.server_ns) / 1e3;
        const double path_us = rep.decode_us + rep.validate_us +
                               rep.construct_us + rep.stream_hash_us +
                               engine_us + rep.encode_us;

        metrics = {
            {"net.health_rtt_us", median(health) / 1e3, "us"},
            {"net.outside_engine_us", median(outside) / 1e3, "us"},
            {"net.decode_us", rep.decode_us, "us"},
            {"net.encode_us", rep.encode_us, "us"},
            {"perm.validate_us", rep.validate_us, "us"},
            {"perm.construct_us", rep.construct_us, "us"},
            {"stream.hash_us", rep.stream_hash_us, "us"},
            {"router.hash_us", rep.hash_us, "us"},
            {"router.lookup_us", rep.lookup_us, "us"},
            {"router.hit_us", rep.hit_us, "us"},
            {"router.plan_us.two_pass", rep.plan_two_pass_us, "us"},
            {"router.plan_us.self_routing", rep.plan_self_routing_us, "us"},
            {"router.hit_ratio", 1 - ratio(d.coldPlans(), reqs), "ratio"},
            {"router.evictions_per_req", ratio(d.cache_evictions, reqs),
             "1/req"},
            {"router.cold_plans_per_req", ratio(d.coldPlans(), reqs),
             "1/req"},
            {"router.resident_mib", after.resident_bytes / (1 << 20), "MiB"},
            {"setup_engine.attempt_us", rep.attempt_us, "us"},
            {"setup_engine.attempt_yield",
             ratio(after.plans_self_routing, after.coldPlans()), "ratio"},
            {"setup_engine.pass_us", rep.pass_us, "us"},
            {"two_pass.factor_us", rep.factor_us, "us"},
            {"fast_engine.gather_us", rep.gather_us, "us"},
            {"stream.engine_us", engine_us, "us"},
            {"stream.handoff_us", rep.handoff_us, "us"},
            {"stream.wakes_per_req", ratio(d.doorbell_wakes, reqs), "1/req"},
            {"stream.local_hit_ratio", ratio(d.local_hits, reqs), "ratio"},
            {"stream.inline_share", ratio(d.inline_served, reqs), "ratio"},
            {"unattributed_us", rtt_us - path_us, "us"},
            {"trace.overhead_pct", rep.overhead_pct, "%"},
        };

        if (!opt.trace_dir.empty()) {
            ::mkdir(opt.trace_dir.c_str(), 0755);
            const std::string stem = opt.trace_dir + "/" + spec->name +
                                     "-seed" + std::to_string(opt.seed);
            if (!spans.write(stem + ".spans.tsv"))
                std::fprintf(stderr, "srbench: could not write %s\n",
                             (stem + ".spans.tsv").c_str());
            if (std::FILE *f = std::fopen((stem + ".stats.prom").c_str(), "w")) {
                std::fputs(exposition.c_str(), f);
                std::fclose(f);
            }
        }
    }

    // Human-readable report, then the one-line result.
    std::printf("srbench: workload=%s n=%u window=%u seed=%llu seconds=%g "
                "trace=%d\n",
                spec->name, spec->n, spec->window,
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace);
    std::printf("srbench: host cpus=%u generator_cpus=%s srbd_cpus=%s "
                "simd=%s build=%s rev=%s steal_pct=%.3f\n",
                place.cpus, cpuList(place.generator).c_str(),
                cpuList(place.server).c_str(),
                srbenes::simdLevelName(srbenes::activeSimdLevel()),
                SRBENCH_BUILD_TYPE, opt.git_rev.c_str(), steal);
    std::printf("srbench: sent=%llu ok=%llu non_ok=%llu mismatch=%llu "
                "lost=%llu protocol_errors=%llu srbd_submits_total=%.0f "
                "rtt_samples=%zu load_served=%llu replayed=%llu "
                "replay_failures=%llu\n",
                static_cast<unsigned long long>(tally.sent),
                static_cast<unsigned long long>(tally.ok),
                static_cast<unsigned long long>(tally.non_ok),
                static_cast<unsigned long long>(tally.mismatch),
                static_cast<unsigned long long>(tally.lost),
                static_cast<unsigned long long>(tally.protocol_errors),
                after.submits, rtt.rtt_ns.size(),
                static_cast<unsigned long long>(load_served),
                static_cast<unsigned long long>(rep.requests),
                static_cast<unsigned long long>(rep.failures));
    // Per round, so a run that caught a change of host speed shows it.
    std::printf("srbench: round_rtt_p50_us");
    for (const double v : round_rtt_us)
        std::printf(" %.1f", v);
    std::printf("\nsrbench: round_cpu_us_per_req");
    for (const double v : slice_cpu_us)
        std::printf(" %.1f", v);
    std::printf("\n");
    std::printf("srbench: stage_seconds");
    for (const auto &[name, sec] : stages)
        std::printf(" %s=%.3f", name, sec);
    std::printf("\n");
    for (const std::string &p : problems)
        std::printf("srbench: FAILED: %s\n", p.c_str());
    for (const Metric &m : metrics)
        std::printf("  %-30s %14.4f %s\n", m.name.c_str(), m.value, m.unit);

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit);
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
}
