/**
 * @file
 * Bit-sliced setup engine: the cold-plan front end every Router plan
 * goes through.
 *
 * FastEngine routes the destination tags through the fabric
 * word-parallel; this class is the planning surface over that pass
 * (Section III's parallel-setup story applied to the setup path
 * itself). plan() keeps the full diagnostic result of a pass,
 * misrouted outputs included; routes() is the same pass as a verdict,
 * the one the Router uses to test F (or Omega) membership and to
 * verify both TwoPass factor passes. By Theorem 1 a pass that gets
 * every tag home realizes d exactly, so a yes is all the Router
 * needs: it builds the one gather table, d's inverse, itself.
 */

#ifndef SRBENES_CORE_SETUP_ENGINE_HH
#define SRBENES_CORE_SETUP_ENGINE_HH

#include "core/fast_engine.hh"

namespace srbenes
{

class SetupEngine
{
  public:
    /**
     * Plan through @p eng's fabric. The engine reference is
     * retained; it must outlive this object. The engine's own
     * instruments count the tag passes run.
     */
    explicit SetupEngine(const FastEngine &eng);

    /**
     * Cold-plan @p d through the bit-sliced fabric. A failed pass
     * still yields the realized mapping and its misrouted outputs
     * (diagnostics read them).
     */
    FastPlan plan(const Permutation &d,
                  RoutingMode mode = RoutingMode::SelfRouting) const;

    /**
     * The same pass as a verdict: plan(d, mode).success, without the
     * plan. The stages run over one stage of control scratch, and no
     * tag is unpacked and no table copied or inverted afterwards.
     */
    bool routes(const Permutation &d,
                RoutingMode mode = RoutingMode::SelfRouting) const;

  private:
    const FastEngine &eng_;
};

} // namespace srbenes

#endif // SRBENES_CORE_SETUP_ENGINE_HH
