/**
 * @file
 * Bit-sliced setup engine: the cold-plan front end every Router plan
 * goes through.
 *
 * FastEngine routes the destination tags through the fabric
 * word-parallel; this class is the planning surface over that pass
 * (Section III's parallel-setup story applied to the setup path
 * itself). plan() keeps the full diagnostic result of a pass,
 * misrouted outputs included; planIfRoutes() is the success-only
 * variant the Router uses to test F (or Omega) membership and to
 * verify both TwoPass factor passes, paying nothing beyond the pass
 * when a tag misses home.
 */

#ifndef SRBENES_CORE_SETUP_ENGINE_HH
#define SRBENES_CORE_SETUP_ENGINE_HH

#include <optional>

#include "core/fast_engine.hh"
#include "obs/metrics.hh"

namespace srbenes
{

class SetupEngine
{
  public:
    /**
     * Plan through @p eng's fabric. The engine reference is
     * retained; it must outlive this object.
     *
     * @param metrics registry receiving this engine's instruments
     *        (plans produced). nullptr disables instrumentation.
     */
    explicit SetupEngine(const FastEngine &eng,
                         obs::MetricsRegistry *metrics =
                             obs::defaultRegistry());

    /**
     * Cold-plan @p d through the bit-sliced fabric. A failed pass
     * still yields the realized mapping and its misrouted outputs
     * (diagnostics read them).
     */
    FastPlan plan(const Permutation &d,
                  RoutingMode mode = RoutingMode::SelfRouting) const;

    /**
     * The same pass, success only: plan(d, mode) when every tag
     * reached home, nullopt otherwise — without unpacking the final
     * tags or collecting misrouted outputs. The cheap F-membership
     * attempt and pass verification the Router needs.
     */
    std::optional<FastPlan>
    planIfRoutes(const Permutation &d,
                 RoutingMode mode = RoutingMode::SelfRouting) const;

  private:
    const FastEngine &eng_;

    /** Plans produced (obs/metrics.hh); null when disabled. */
    obs::Counter *plans_ = nullptr;
};

} // namespace srbenes

#endif // SRBENES_CORE_SETUP_ENGINE_HH
