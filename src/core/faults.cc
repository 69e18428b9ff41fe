#include "core/faults.hh"

#include "common/logging.hh"
#include "core/stats.hh"
#include "obs/metrics.hh"
#include "perm/f_class.hh"

namespace srbenes
{

namespace
{

/**
 * Fault tooling is free-function-shaped, so its counters live as
 * function-local statics in the global registry (registration is a
 * one-time cold path; the references stay valid for process life).
 */
obs::Counter &
faultCounter(const char *name)
{
    return obs::MetricsRegistry::global().counter(name);
}

/**
 * The faulty fabric's pass: the fabric's own scalar walk with the
 * stuck-at faults overlaid (SelfRoutingBenes::runInto), once they are
 * counted and range-checked. With @p loaded non-null the switches
 * take the loaded states (except where stuck); otherwise @p mode
 * picks the tag-driven rule.
 */
RouteResult
faultyPass(const SelfRoutingBenes &net, const Permutation &d,
           const std::vector<StuckFault> &faults, RoutingMode mode,
           const SwitchStates *loaded)
{
    const BenesTopology &topo = net.topology();
    static obs::Counter &injected =
        faultCounter("srbenes_faults_injected_total");
    injected.inc(faults.size());
    for (const auto &f : faults)
        if (f.stage >= topo.numStages() ||
            f.switch_index >= topo.switchesPerStage())
            fatal("fault at stage %u switch %llu out of range",
                  f.stage,
                  static_cast<unsigned long long>(f.switch_index));

    RouteResult res;
    net.runInto(d, faults, loaded, mode, nullptr, res);
    return res;
}

} // namespace

RouteResult
routeWithFaults(const SelfRoutingBenes &net, const Permutation &d,
                const std::vector<StuckFault> &faults,
                RoutingMode mode)
{
    return faultyPass(net, d, faults, mode, nullptr);
}

RouteResult
routeWithFaultsStates(const SelfRoutingBenes &net, const Permutation &d,
                      const std::vector<StuckFault> &faults,
                      const SwitchStates &states)
{
    return faultyPass(net, d, faults, RoutingMode::SelfRouting,
                      &states);
}

RouteOutcome
routeWithFaults(const SelfRoutingBenes &net, const Permutation &d,
                const std::vector<StuckFault> &faults,
                const std::vector<Word> &data, RoutingMode mode)
{
    if (data.size() != d.size())
        fatal("payload size %zu does not match permutation size %zu",
              data.size(), d.size());
    const RouteResult res = faultyPass(net, d, faults, mode, nullptr);
    if (!res.success) {
        RouteError err;
        err.code = RouteErrc::FaultDetected;
        err.tier = ServeTier::Primary;
        err.detail = std::to_string(res.misrouted_outputs.size()) +
                     " outputs received a wrong tag";
        return RouteOutcome::failure(std::move(err));
    }
    // Verified: every tag reached home, so realized_dest == d and
    // the payload lands exactly where the permutation sends it.
    std::vector<Word> out(data.size());
    for (Word i = 0; i < data.size(); ++i)
        out[res.realized_dest[i]] = data[i];
    return RouteOutcome::success(std::move(out));
}

std::vector<Permutation>
faultTestSet(const SelfRoutingBenes &net, Prng &prng)
{
    const BenesTopology &topo = net.topology();

    // Detection-driven greedy cover. State coverage alone is NOT
    // enough: the opening half of the fabric makes free decisions
    // that the tag-driven closing half can compensate, so a stuck
    // opening switch is masked on any test whose affected input
    // pair maps onto one output pair (the identity masks every
    // stage-0 fault, for example). A fault counts as covered only
    // when some test's OUTPUT TAGS actually change under it.
    std::vector<StuckFault> undetected;
    for (unsigned s = 0; s < topo.numStages(); ++s)
        for (Word i = 0; i < topo.switchesPerStage(); ++i)
            for (std::uint8_t v : {std::uint8_t{0}, std::uint8_t{1}})
                undetected.push_back(StuckFault{s, i, v});

    std::vector<Permutation> tests;
    auto absorb = [&](const Permutation &t) {
        const auto healthy = net.route(t).output_tags;
        std::vector<StuckFault> still;
        for (const auto &f : undetected)
            if (routeWithFaults(net, t, {f}).output_tags == healthy)
                still.push_back(f);
        if (still.size() < undetected.size()) {
            tests.push_back(t);
            undetected.swap(still);
        }
    };

    // The identity detects every stuck-crossed fault in the forced
    // (closing) half cheaply; random members cover the rest.
    absorb(Permutation::identity(topo.numLines()));
    const int kMaxDraws = 10000;
    for (int draw = 0; draw < kMaxDraws && !undetected.empty();
         ++draw)
        absorb(randomFMember(topo.n(), prng));
    if (!undetected.empty())
        panic("%zu faults undetected after the draw budget",
              undetected.size());
    return tests;
}

bool
testSetDetects(const SelfRoutingBenes &net,
               const std::vector<Permutation> &tests,
               const StuckFault &fault)
{
    static obs::Counter &checks =
        faultCounter("srbenes_faults_detect_checks_total");
    static obs::Counter &detected =
        faultCounter("srbenes_faults_detected_total");
    checks.inc();
    for (const auto &t : tests) {
        const auto healthy = net.route(t);
        const auto faulty = routeWithFaults(net, t, {fault});
        if (healthy.output_tags != faulty.output_tags) {
            detected.inc();
            return true;
        }
    }
    return false;
}

std::vector<StuckFault>
diagnoseSingleFault(const SelfRoutingBenes &net,
                    const std::vector<Permutation> &tests,
                    const std::vector<std::vector<Word>> &observed)
{
    const BenesTopology &topo = net.topology();
    if (observed.size() != tests.size())
        fatal("need one observation per test (%zu tests, %zu "
              "observations)", tests.size(), observed.size());

    static obs::Counter &diagnoses =
        faultCounter("srbenes_faults_diagnoses_total");
    diagnoses.inc();

    std::vector<StuckFault> candidates;
    for (unsigned s = 0; s < topo.numStages(); ++s) {
        for (Word i = 0; i < topo.switchesPerStage(); ++i) {
            for (std::uint8_t v : {std::uint8_t{0},
                                   std::uint8_t{1}}) {
                const StuckFault fault{s, i, v};
                bool consistent = true;
                for (std::size_t t = 0;
                     consistent && t < tests.size(); ++t) {
                    consistent =
                        routeWithFaults(net, tests[t], {fault})
                            .output_tags == observed[t];
                }
                if (consistent)
                    candidates.push_back(fault);
            }
        }
    }
    return candidates;
}

} // namespace srbenes
