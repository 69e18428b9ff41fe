// srb-lint: bitsliced — SRB008 forbids per-switch scalar walks here.

#include "core/setup_engine.hh"

namespace srbenes
{

SetupEngine::SetupEngine(const FastEngine &eng,
                         obs::MetricsRegistry *metrics)
    : eng_(eng)
{
    if (metrics)
        plans_ = &metrics->counter(
            "srbenes_setup_plans_total",
            {{"setup", metrics->uniqueInstance("setup")}});
}

FastPlan
SetupEngine::plan(const Permutation &d, RoutingMode mode) const
{
    FastPlan p = eng_.routePlan(d, mode);
    if (plans_)
        plans_->inc();
    return p;
}

bool
SetupEngine::routes(const Permutation &d, RoutingMode mode) const
{
    const bool home = eng_.routesHome(d, mode);
    if (plans_)
        plans_->inc();
    return home;
}

} // namespace srbenes
