// srb-lint: bitsliced — SRB008 forbids per-switch scalar walks here.

#include "core/setup_engine.hh"

namespace srbenes
{

SetupEngine::SetupEngine(const FastEngine &eng) : eng_(eng) {}

FastPlan
SetupEngine::plan(const Permutation &d, RoutingMode mode) const
{
    return eng_.routePlan(d, mode);
}

bool
SetupEngine::routes(const Permutation &d, RoutingMode mode) const
{
    return eng_.routesHome(d, mode);
}

} // namespace srbenes
