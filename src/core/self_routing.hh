/**
 * @file
 * The self-routing Benes network (Sections I and II of the paper).
 *
 * Every input carries an n-bit destination tag. A switch in stage b
 * or stage 2n-2-b examines bit b of the tag on its UPPER input: bit 0
 * puts the switch in state 0 (straight), bit 1 in state 1 (crossed),
 * Fig. 3. The permutation D succeeds exactly when D is in F(n)
 * (Theorem 1); a failure is visible as some output receiving the
 * wrong tag (Fig. 5).
 *
 * Supported operating modes:
 *  - SelfRouting: the scheme above (class F);
 *  - OmegaBit:    switches in stages 0 .. n-2 are forced to state 0
 *                 (the paper's extra "omega" control bit), making all
 *                 of Lawrie's Omega(n) permutations routable;
 *  - external setup: self-setting logic disabled, switch states
 *                 supplied by the caller (e.g.\ WaksmanSetup), so the
 *                 fabric realizes all N! permutations.
 */

#ifndef SRBENES_CORE_SELF_ROUTING_HH
#define SRBENES_CORE_SELF_ROUTING_HH

#include <optional>
#include <vector>

#include "core/route_outcome.hh"
#include "core/topology.hh"
#include "perm/permutation.hh"

namespace srbenes
{

/** How the switches obtain their states during a route. */
enum class RoutingMode
{
    SelfRouting, //!< Fig. 3 destination-tag rule on every stage.
    OmegaBit,    //!< Stages 0 .. n-2 forced straight; rest self-set.
};

/** Everything observable from one pass through the fabric. */
struct RouteResult
{
    /** True iff every input signal reached its tagged destination. */
    bool success = false;
    /** Tag observed at each output terminal. */
    std::vector<Word> output_tags;
    /** Output terminal reached by each input's signal. */
    std::vector<Word> realized_dest;
    /** The switch states used, [stage][switch]. */
    SwitchStates states;
    /** Output terminals whose tag differs from their index. */
    std::vector<Word> misrouted_outputs;
    /** Stage count = gate-delay units through the fabric. */
    unsigned gate_delay = 0;
};

/**
 * Optional capture of the tag vector at the input of every stage plus
 * the final outputs (2n snapshots); drives the Fig. 4 rendering.
 */
struct RouteTrace
{
    std::vector<std::vector<Word>> tags_at_stage;
};

class SelfRoutingBenes
{
  public:
    explicit SelfRoutingBenes(unsigned n);

    const BenesTopology &topology() const { return topo_; }
    unsigned n() const { return topo_.n(); }
    Word numLines() const { return topo_.numLines(); }

    /**
     * Route the permutation @p d (input i tagged with destination
     * d[i]) with dynamically self-set switches.
     */
    RouteResult route(const Permutation &d,
                      RoutingMode mode = RoutingMode::SelfRouting,
                      RouteTrace *trace = nullptr) const;

    /**
     * As route(), but reusing the capacity of a caller-held result
     * (and a thread_local signal arena) instead of allocating: a
     * steady-state caller that keeps its RouteResult across calls
     * routes without touching the heap. route() and
     * permutePayloads() are thin wrappers over this.
     */
    void routeInto(const Permutation &d, RouteResult &res,
                   RoutingMode mode = RoutingMode::SelfRouting,
                   RouteTrace *trace = nullptr) const;

    /**
     * Route with the self-setting logic disabled and the switch
     * states supplied externally (Waksman setup path). The tags are
     * still carried through so the result can be verified.
     */
    RouteResult routeWithStates(const Permutation &d,
                                const SwitchStates &states,
                                RouteTrace *trace = nullptr) const;

    /**
     * Permute a payload vector through the fabric; returns the
     * payloads in output order if the route succeeded, std::nullopt
     * otherwise.
     */
    std::optional<std::vector<Word>>
    permutePayloads(const Permutation &d, const std::vector<Word> &data,
                    RoutingMode mode = RoutingMode::SelfRouting) const;

    /**
     * The one scalar walk: route(), routeInto(), routeWithStates(),
     * permutePayloads() and faults.hh's stuck-at probes all run it.
     * Each switch takes, in this order of precedence: the stuck value
     * of a fault in @p stuck that names it, its state in @p forced
     * when that is non-null, state 0 in OmegaBit mode's forced
     * stages, and otherwise Fig. 3's rule. Every fault in @p stuck
     * names a switch of this fabric (faults.hh checks). Reuses
     * @p res's capacity and per-thread signal arenas.
     */
    void runInto(const Permutation &d,
                 const std::vector<StuckFault> &stuck,
                 const SwitchStates *forced, RoutingMode mode,
                 RouteTrace *trace, RouteResult &res) const;

  private:
    BenesTopology topo_;
};

} // namespace srbenes

#endif // SRBENES_CORE_SELF_ROUTING_HH
