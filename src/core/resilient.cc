#include "core/resilient.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/two_pass.hh"

namespace srbenes
{

namespace
{

bool
deadlinePassed(std::uint64_t deadline_ns)
{
    return deadline_ns != 0 && obs::monotonicNs() >= deadline_ns;
}

RouteOutcome
deadlineFailure(ServeTier deepest)
{
    RouteError err;
    err.code = RouteErrc::DeadlineExceeded;
    err.tier = deepest;
    err.detail = "deadline passed before a verified result";
    return RouteOutcome::failure(std::move(err));
}

} // namespace

const char *
switchHealthName(SwitchHealth h) noexcept
{
    switch (h) {
      case SwitchHealth::Healthy:
        return "healthy";
      case SwitchHealth::Suspect:
        return "suspect";
    }
    return "?";
}

ResilientRouter::ResilientRouter(unsigned n, ResilientOptions opts)
    : opts_(opts),
      router_(n, opts.prefer_waksman, opts.plan_cache_capacity,
              opts.cache_shards, opts.metrics),
      metrics_(opts.metrics)
{
    const BenesTopology &topo = fabric().topology();
    health_.assign(topo.numStages(),
                   std::vector<SwitchHealth>(topo.switchesPerStage(),
                                             SwitchHealth::Healthy));

    if (!metrics_)
        return;
    instance_ = metrics_->uniqueInstance("resilient");
    for (ServeTier t :
         {ServeTier::Primary, ServeTier::Reroute, ServeTier::TwoPass,
          ServeTier::Failed})
        m_serves_[static_cast<int>(t)] = &metrics_->counter(
            "srbenes_resilient_serves_total",
            {{"resilient", instance_}, {"tier", serveTierName(t)}});
    m_probes_ = &metrics_->counter("srbenes_resilient_probes_total",
                                   {{"resilient", instance_}});
    m_retries_ = &metrics_->counter(
        "srbenes_resilient_retries_total", {{"resilient", instance_}});
    m_healthy_ = &metrics_->gauge(
        "srbenes_resilient_believed_healthy",
        {{"resilient", instance_}});
    m_healthy_->set(1);
    m_suspect_count_ = &metrics_->gauge(
        "srbenes_resilient_suspect_switches",
        {{"resilient", instance_}});
    m_serve_ns_ = &metrics_->histogram("srbenes_resilient_serve_ns",
                                       {{"resilient", instance_}});
}

void
ResilientRouter::injectFault(const StuckFault &fault)
{
    const BenesTopology &topo = fabric().topology();
    if (fault.stage >= topo.numStages() ||
        fault.switch_index >= topo.switchesPerStage())
        fatal("fault at stage %u switch %llu out of range",
              fault.stage,
              static_cast<unsigned long long>(fault.switch_index));
    WriterLock lock(mu_);
    faults_.push_back(fault);
}

void
ResilientRouter::clearFaults()
{
    WriterLock lock(mu_);
    faults_.clear();
}

std::vector<StuckFault>
ResilientRouter::injectedFaults() const
{
    ReaderLock lock(mu_);
    return faults_;
}

void
ResilientRouter::publishScoreboard(
    const std::vector<StuckFault> &suspects, bool healthy) const
{
    // A re-probe that sees the same picture must NOT open a new
    // scoreboard generation: epoch churn would invalidate every
    // cached degraded plan and send each serve back into the
    // decomposition search.
    if (suspects == suspects_ && healthy == believed_healthy_)
        return;
    // Per-switch gauges are created lazily on FIRST suspicion: a
    // healthy fleet exports one boolean and one total, not
    // (2n-1) N/2 series. Old suspects are reset, not unregistered.
    auto switchGauge = [this](const StuckFault &f) -> obs::Gauge * {
        if (!metrics_)
            return nullptr;
        return &metrics_->gauge(
            "srbenes_resilient_switch_health",
            {{"resilient", instance_},
             {"stage", std::to_string(f.stage)},
             {"switch", std::to_string(f.switch_index)}});
    };
    for (const StuckFault &old : suspects_) {
        health_[old.stage][old.switch_index] = SwitchHealth::Healthy;
        if (obs::Gauge *g = switchGauge(old))
            g->set(static_cast<int>(SwitchHealth::Healthy));
    }
    for (const StuckFault &f : suspects) {
        health_[f.stage][f.switch_index] = SwitchHealth::Suspect;
        if (obs::Gauge *g = switchGauge(f))
            g->set(static_cast<int>(SwitchHealth::Suspect));
    }
    suspects_ = suspects;
    believed_healthy_ = healthy;
    ++epoch_;
    if (m_healthy_)
        m_healthy_->set(believed_healthy_ ? 1 : 0);
    if (m_suspect_count_)
        m_suspect_count_->set(
            static_cast<std::int64_t>(suspects.size()));
}

void
ResilientRouter::ensureTests() const
{
    // The detection test set and its healthy reference tags are
    // deterministic in the probe seed and immutable once published
    // by the once-flag, so every probe reuses them without locking.
    std::call_once(tests_once_, [this] {
        Prng prng(opts_.probe_prng_seed);
        tests_ = faultTestSet(fabric(), prng);
        healthy_tags_.reserve(tests_.size());
        for (const Permutation &t : tests_)
            healthy_tags_.push_back(fabric().route(t).output_tags);
    });
}

ProbeReport
ResilientRouter::probe() const
{
    ensureTests();
    probes_.inc();
    if (m_probes_)
        m_probes_->inc();

    const std::vector<StuckFault> hw = injectedFaults();

    // Drive the test set through the fabric and record what the
    // output-side observer sees. Only tags are consumed from here
    // on: the diagnosis reconstructs the fault hypothesis from them.
    ProbeReport report;
    report.tests_run = tests_.size();
    std::vector<std::vector<Word>> observed;
    observed.reserve(tests_.size());
    for (std::size_t i = 0; i < tests_.size(); ++i) {
        observed.push_back(
            routeWithFaults(fabric(), tests_[i], hw).output_tags);
        if (observed.back() != healthy_tags_[i])
            ++report.tests_mismatched;
    }
    report.healthy = report.tests_mismatched == 0;
    if (!report.healthy)
        report.suspects =
            diagnoseSingleFault(fabric(), tests_, observed);

    {
        WriterLock lock(mu_);
        publishScoreboard(report.suspects, report.healthy);
        report.epoch = epoch_;
    }
    // order: relaxed; the probe pacing counter is approximate by
    // design (racing serves may skip or double a tick).
    serves_since_probe_.store(0, std::memory_order_relaxed);
    return report;
}

SwitchHealth
ResilientRouter::switchHealth(unsigned stage, Word sw) const
{
    ReaderLock lock(mu_);
    if (stage >= health_.size() || sw >= health_[stage].size())
        fatal("switch (%u, %llu) out of range", stage,
              static_cast<unsigned long long>(sw));
    return health_[stage][sw];
}

std::vector<StuckFault>
ResilientRouter::suspects() const
{
    ReaderLock lock(mu_);
    return suspects_;
}

bool
ResilientRouter::believedHealthy() const
{
    ReaderLock lock(mu_);
    return believed_healthy_;
}

std::uint64_t
ResilientRouter::probeEpoch() const
{
    ReaderLock lock(mu_);
    return epoch_;
}

ResilientStats
ResilientRouter::stats() const
{
    ResilientStats s;
    s.serves_primary =
        serves_by_tier_[static_cast<int>(ServeTier::Primary)].value();
    s.serves_reroute =
        serves_by_tier_[static_cast<int>(ServeTier::Reroute)].value();
    s.serves_two_pass =
        serves_by_tier_[static_cast<int>(ServeTier::TwoPass)].value();
    s.failures_fault = failures_fault_.value();
    s.failures_deadline = failures_deadline_.value();
    s.probes = probes_.value();
    s.retries = retries_.value();
    s.degraded_cache_hits = degraded_hits_.value();
    return s;
}

ResilientRouter::DegradedEntry::DegradedEntry(std::uint64_t ep,
                                             ServeTier t,
                                             const Permutation &d)
    : epoch(ep), tier(t), src(d.size())
{
    for (Word i = 0; i < d.size(); ++i)
        src[d[i]] = static_cast<std::uint16_t>(i);
}

std::shared_ptr<const ResilientRouter::DegradedEntry>
ResilientRouter::degradedLookup(std::uint64_t hash,
                                std::uint64_t epoch) const
{
    if (opts_.degraded_cache_capacity == 0)
        return nullptr;
    MutexLock lock(degraded_mu_);
    auto it = degraded_.find(hash);
    if (it == degraded_.end() || it->second->epoch != epoch)
        return nullptr;
    return it->second;
}

void
ResilientRouter::degradedStore(
    std::uint64_t hash, std::shared_ptr<const DegradedEntry> e) const
{
    if (opts_.degraded_cache_capacity == 0)
        return;
    MutexLock lock(degraded_mu_);
    // Stale generations die on lookup, so blunt eviction (drop an
    // arbitrary entry) keeps the map bounded without an LRU chain.
    if (degraded_.size() >= opts_.degraded_cache_capacity &&
        degraded_.find(hash) == degraded_.end())
        degraded_.erase(degraded_.begin());
    degraded_[hash] = std::move(e);
}

RouteOutcome
ResilientRouter::tryPrimary(const Permutation &d,
                            const std::vector<Word> &data,
                            const std::vector<StuckFault> &hw) const
{
    // The plan keeps only its gather table. The factors and states
    // this tier replays are re-derived from d with the same
    // deterministic setups the Router verified them with.
    const auto plan = router_.planCached(d);
    switch (plan->strategy) {
      case RouteStrategy::SelfRouting:
        return routeWithFaults(fabric(), d, hw, data,
                               RoutingMode::SelfRouting);
      case RouteStrategy::OmegaBit:
        return routeWithFaults(fabric(), d, hw, data,
                               RoutingMode::OmegaBit);
      case RouteStrategy::TwoPass: {
        const TwoPassPlan tp = twoPassPlan(fabric(), d);
        RouteOutcome first = routeWithFaults(
            fabric(), tp.first, hw, data, RoutingMode::SelfRouting);
        if (!first)
            return first;
        return routeWithFaults(fabric(), tp.second, hw,
                               first.takeValue(),
                               RoutingMode::OmegaBit);
      }
      case RouteStrategy::Waksman: {
        const RouteResult res = routeWithFaultsStates(
            fabric(), d, hw, waksmanSetup(fabric().topology(), d));
        if (!res.success) {
            RouteError err;
            err.code = RouteErrc::FaultDetected;
            err.tier = ServeTier::Primary;
            err.detail =
                std::to_string(res.misrouted_outputs.size()) +
                " outputs received a wrong tag";
            return RouteOutcome::failure(std::move(err));
        }
        std::vector<Word> out(data.size());
        for (Word i = 0; i < data.size(); ++i)
            out[res.realized_dest[i]] = data[i];
        return RouteOutcome::success(std::move(out));
      }
    }
    panic("unreachable routing strategy");
}

RouteOutcome
ResilientRouter::tryReroute(const Permutation &d,
                            const std::vector<Word> &data,
                            const std::vector<StuckFault> &hw,
                            const std::vector<StuckFault> &suspect,
                            std::uint64_t deadline_ns) const
{
    const BenesTopology &topo = fabric().topology();

    // Candidate pin sets: one per diagnosed suspect (forcing the
    // stuck switch INTO its stuck value makes the fault a
    // don't-care), plus the unpinned set so plain re-seeded
    // decompositions get a shot when the diagnosis came back empty.
    std::vector<std::vector<StatePin>> pin_sets;
    for (const StuckFault &c : suspect)
        pin_sets.push_back(
            {StatePin{c.stage, c.switch_index, c.stuck_value}});
    pin_sets.emplace_back();

    for (const auto &pins : pin_sets) {
        for (unsigned seed = 0; seed < opts_.reroute_seeds; ++seed) {
            if (deadlinePassed(deadline_ns))
                return deadlineFailure(ServeTier::Reroute);
            const auto states =
                waksmanSetupPinned(topo, d, pins, seed);
            if (!states)
                continue; // this greedy descent failed; reseed
            const RouteResult res =
                routeWithFaultsStates(fabric(), d, hw, *states);
            if (!res.success)
                continue;
            auto entry = std::make_shared<DegradedEntry>(
                probeEpoch(), ServeTier::Reroute, d);
            entry->states =
                std::make_shared<const SwitchStates>(*states);
            degradedStore(Router::hashPermutation(d),
                          std::move(entry));
            std::vector<Word> out(data.size());
            for (Word i = 0; i < data.size(); ++i)
                out[res.realized_dest[i]] = data[i];
            return RouteOutcome::success(std::move(out),
                                         ServeTier::Reroute);
        }
    }
    RouteError err;
    err.code = RouteErrc::FaultDetected;
    err.tier = ServeTier::Reroute;
    err.detail = "no pinned decomposition verified";
    return RouteOutcome::failure(std::move(err));
}

RouteOutcome
ResilientRouter::tryTwoPass(const Permutation &d,
                            const std::vector<Word> &data,
                            const std::vector<StuckFault> &hw,
                            std::uint64_t deadline_ns) const
{
    for (unsigned seed = 0; seed < opts_.two_pass_seeds; ++seed) {
        if (deadlinePassed(deadline_ns))
            return deadlineFailure(ServeTier::TwoPass);
        const TwoPassPlan tp = twoPassPlanSeeded(fabric(), d, seed);
        RouteOutcome first = routeWithFaults(
            fabric(), tp.first, hw, data, RoutingMode::SelfRouting);
        if (!first)
            continue;
        RouteOutcome second =
            routeWithFaults(fabric(), tp.second, hw,
                            first.takeValue(), RoutingMode::OmegaBit);
        if (!second)
            continue;
        auto entry = std::make_shared<DegradedEntry>(
            probeEpoch(), ServeTier::TwoPass, d);
        entry->two_pass = std::make_shared<const TwoPassPlan>(tp);
        degradedStore(Router::hashPermutation(d), std::move(entry));
        return RouteOutcome::success(second.takeValue(),
                                     ServeTier::TwoPass);
    }
    RouteError err;
    err.code = RouteErrc::FaultDetected;
    err.tier = ServeTier::TwoPass;
    err.detail = "no re-factorization verified";
    return RouteOutcome::failure(std::move(err));
}

RouteOutcome
ResilientRouter::serveOnce(const Permutation &d,
                           const std::vector<Word> &data,
                           std::uint64_t deadline_ns) const
{
    if (deadlinePassed(deadline_ns))
        return deadlineFailure(ServeTier::Primary);

    // Probe pacing: while believed faulty, re-probe every
    // probe_every serves so a repaired fabric climbs back to the
    // Primary tier without an operator nudge.
    if (opts_.probe_every != 0 && !believedHealthy()) {
        // order: relaxed; the pacing counter is approximate by
        // design (racing serves may skip or double a tick).
        if (serves_since_probe_.fetch_add(
                1, std::memory_order_relaxed) +
                1 >=
            opts_.probe_every)
            probe();
    }

    const std::vector<StuckFault> hw = injectedFaults();

    // On a fabric believed healthy, Primary goes first. Its failure
    // is news: localize before falling back, so the Reroute tier has
    // suspects to pin.
    bool primary_tried = false;
    if (believedHealthy()) {
        RouteOutcome primary = tryPrimary(d, data, hw);
        if (primary)
            return primary;
        primary_tried = true;
        probe();
        if (deadlinePassed(deadline_ns))
            return deadlineFailure(ServeTier::Primary);
    }

    // A degraded plan verified this epoch serves before Primary: it
    // exists because d's Primary attempt already failed on the
    // fabric this scoreboard describes. Its pass is still
    // tag-verified every serve against the current faults, and a
    // repaired fabric gets a new epoch at its next probe, which
    // retires the entry and lets Primary serve again.
    // The entry is keyed as degradedStore keys it and confirmed by the
    // plan tier's identity check over d's narrowed tags.
    const std::uint64_t hash = Router::hashPermutation(d);
    if (auto entry = degradedLookup(hash, probeEpoch());
        entry && entry->src.size() == d.size() &&
        activeKernels().matchesInverse(entry->src.data(), narrowTags(d),
                                       d.size())) {
        if (entry->tier == ServeTier::Reroute && entry->states) {
            const RouteResult res = routeWithFaultsStates(
                fabric(), d, hw, *entry->states);
            if (res.success) {
                degraded_hits_.inc();
                std::vector<Word> out(data.size());
                for (Word i = 0; i < data.size(); ++i)
                    out[res.realized_dest[i]] = data[i];
                return RouteOutcome::success(std::move(out),
                                             ServeTier::Reroute);
            }
        } else if (entry->tier == ServeTier::TwoPass &&
                   entry->two_pass) {
            RouteOutcome first = routeWithFaults(
                fabric(), entry->two_pass->first, hw, data,
                RoutingMode::SelfRouting);
            if (first) {
                RouteOutcome second = routeWithFaults(
                    fabric(), entry->two_pass->second, hw,
                    first.takeValue(), RoutingMode::OmegaBit);
                if (second) {
                    degraded_hits_.inc();
                    return RouteOutcome::success(
                        second.takeValue(), ServeTier::TwoPass);
                }
            }
        }
    }

    // No verified degraded plan, or its pass failed: Primary may
    // still route d if the faults never touch its path.
    if (!primary_tried) {
        RouteOutcome primary = tryPrimary(d, data, hw);
        if (primary)
            return primary;
        if (deadlinePassed(deadline_ns))
            return deadlineFailure(ServeTier::Primary);
    }

    RouteOutcome reroute =
        tryReroute(d, data, hw, suspects(), deadline_ns);
    if (reroute || reroute.errc() == RouteErrc::DeadlineExceeded)
        return reroute;

    if (deadlinePassed(deadline_ns))
        return deadlineFailure(ServeTier::Reroute);

    RouteOutcome two_pass = tryTwoPass(d, data, hw, deadline_ns);
    if (two_pass || two_pass.errc() == RouteErrc::DeadlineExceeded)
        return two_pass;

    RouteError err;
    err.code = RouteErrc::FaultDetected;
    err.tier = ServeTier::TwoPass; // deepest tier attempted
    err.suspects = suspects();
    err.detail = "no fallback tier produced a verified result";
    return RouteOutcome::failure(std::move(err));
}

RouteOutcome
ResilientRouter::route(const Permutation &d,
                       const std::vector<Word> &data,
                       std::uint64_t deadline_ns) const
{
    if (d.size() != numLines())
        fatal("permutation size %zu does not match network N = %llu",
              d.size(), static_cast<unsigned long long>(numLines()));
    if (data.size() != d.size())
        fatal("payload size %zu does not match permutation size %zu",
              data.size(), d.size());

    const std::uint64_t t0 = m_serve_ns_ ? obs::monotonicNs() : 0;
    RouteOutcome out = serveOnce(d, data, deadline_ns);
    for (unsigned retry = 0;
         !out && out.errc() == RouteErrc::FaultDetected &&
         retry < opts_.max_retries;
         ++retry) {
        retries_.inc();
        if (m_retries_)
            m_retries_->inc();
        // A fresh probe between attempts is what makes the retry
        // worth anything: attempt k+1 pins a fresher suspect set.
        probe();
        out = serveOnce(d, data, deadline_ns);
    }

    if (out) {
        serves_by_tier_[static_cast<int>(out.tier())].inc();
        if (m_serves_[static_cast<int>(out.tier())])
            m_serves_[static_cast<int>(out.tier())]->inc();
    } else {
        if (out.errc() == RouteErrc::DeadlineExceeded)
            failures_deadline_.inc();
        else
            failures_fault_.inc();
        if (m_serves_[static_cast<int>(ServeTier::Failed)])
            m_serves_[static_cast<int>(ServeTier::Failed)]->inc();
    }
    if (m_serve_ns_)
        m_serve_ns_->observe(obs::monotonicNs() - t0);
    return out;
}

} // namespace srbenes
