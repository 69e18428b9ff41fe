/**
 * @file
 * Bit-sliced flat routing engine: the software analogue of the
 * paper's hardware parallelism.
 *
 * The reference simulator (SelfRoutingBenes) moves one (tag, origin)
 * pair at a time through every switch and boundary: O(N log N)
 * branchy scalar work per route. This engine evaluates ALL N/2
 * switches of a stage with a handful of word operations per 64 lanes.
 *
 * Two observations make that possible:
 *
 * 1. Conjugation flattens the wiring away. Let C_s be the composition
 *    of the fixed inter-stage wirings up to the input of stage s
 *    (C_0 = identity). Tracking every signal in "stage-0 coordinates"
 *    — slot x holds the signal that entered on input x of the first
 *    stage if nothing had moved — each stage s becomes a CONDITIONAL
 *    EXCHANGE between slots x and x ^ 2^b, b = controlBit(s), with
 *    the physical upper input on the slot whose bit b is 0. (This is
 *    the same structure that makes B(n) an inverse-omega network
 *    followed by an omega network.) C_s maps slot x to the line
 *    BenesTopology::lineOfSlot(s, x), a fixed permutation of x's
 *    bits, and the last stage's map is the identity, so slot x ends
 *    on output x. No data is ever moved for a boundary, the engine
 *    stores no wiring, and a route's output order is its slot order.
 *    tests/test_topology.cc checks the exchange property against the
 *    composed wiring at every n <= 16.
 *
 * 2. Bit-slicing turns the Fig. 3 rule into word ops. Destination
 *    tags are stored as n bit-planes of N lanes packed into 64-bit
 *    words: bit x of plane b is bit b of the tag in slot x. The
 *    control mask of stage s is plane b restricted to lanes with
 *    slot-bit b clear (the upper inputs), read BEFORE the exchange —
 *    exactly "bit b of the tag on the upper input". The exchange
 *    itself is the classic delta swap
 *        t = (P ^ (P >> 2^b)) & ctrl;   P ^= t ^ (t << 2^b);
 *    applied to every plane (or an XOR swap of whole words when the
 *    exchange distance crosses word boundaries).
 *
 * Switch states come out of a route as per-stage control masks in
 * slot order; planStates converts them to physical-order
 * SwitchStates on demand (compatibility with the Waksman setups and
 * state_io), so the hot path never pays the scalar transposition.
 * A Waksman plan never needs SwitchStates at all: its states are
 * the masks of the two TwoPass passes, stitched (planStitched).
 *
 * The execution side is split from planning the way Router plans
 * are: routePlan() runs the fabric once bit-sliced and materializes
 * the realized lane mapping; every payload vector after that is one
 * contiguous gather through it (gatherInto).
 */

#ifndef SRBENES_CORE_FAST_ENGINE_HH
#define SRBENES_CORE_FAST_ENGINE_HH

#include <cstdint>
#include <vector>

#include "core/self_routing.hh"
#include "core/topology.hh"
#include "obs/metrics.hh"
#include "perm/permutation.hh"

namespace srbenes
{

/**
 * One routed configuration, kept in the engine's native form. The
 * realized lane mapping is always well defined (switches permute
 * lanes whether or not every tag reached its destination), so a plan
 * can be executed even when success is false — Router never does,
 * but diagnostics may.
 */
struct FastPlan
{
    unsigned n = 0;
    /** True iff every tag reached its numbered output. */
    bool success = false;
    /**
     * Per-stage switch control masks in SLOT order: (2n-1) stages x
     * laneWords() words; bit x of stage s's mask is the state of the
     * exchange on slots {x, x ^ 2^controlBit(s)} (only bits with
     * slot-bit controlBit(s) clear are used). Convert with
     * FastEngine::planStates.
     */
    std::vector<Word> ctrl;
    /** Output terminal reached by each input's signal. */
    std::vector<Word> dest;
    /** Inverse gather table: input whose signal reached output j,
     *  in 16-bit lanes (n <= 16). */
    std::vector<std::uint16_t> src;
    /** Outputs whose tag differs from their index, ascending. */
    std::vector<Word> misrouted_outputs;
};

class FastEngine
{
  public:
    /**
     * The widest fabric an engine serves: every lane index of a gather
     * table fits 16 bits. srbd enforces the same cap on the wire.
     */
    static constexpr unsigned kMaxN = 16;

    /**
     * @param n fabric size, 1 <= n <= kMaxN; fatal() otherwise.
     * @param metrics registry receiving this engine's instruments
     *        (routes planned, vectors executed). nullptr disables
     *        instrumentation.
     */
    explicit FastEngine(unsigned n,
                        obs::MetricsRegistry *metrics =
                            obs::defaultRegistry());

    unsigned n() const { return n_; }
    Word numLines() const { return num_lines_; }
    unsigned numStages() const { return 2 * n_ - 1; }
    Word switchesPerStage() const { return num_lines_ / 2; }
    /** 64-bit words per bit-plane of N lanes. */
    Word laneWords() const { return lane_words_; }

    /** Route @p d bit-sliced; the hot planning path. */
    FastPlan routePlan(const Permutation &d,
                       RoutingMode mode = RoutingMode::SelfRouting) const;

    /**
     * Route with externally supplied states: each switch's state is
     * written straight into its stage's control mask, then @p d's
     * tags run through the forced stages (the differential tests'
     * Waksman path).
     */
    FastPlan planWithStates(const Permutation &d,
                            const SwitchStates &states) const;

    /**
     * Waksman's single externally set pass, built from a TwoPass
     * factorization d = first.then(second) (core/two_pass.hh): stages
     * 0..n-2 take the masks of @p first self-routed and stages
     * n-1..2n-2 those of @p second with the omega bit, which holds
     * the stages before them straight. Then @p d's tags run through
     * that stitched set, forced. For the factors of
     * twoPassPlanSeeded(net, d, seed) the plan succeeds and its
     * planStates are waksmanSetupSeeded(topo, d, seed).
     */
    FastPlan planStitched(const Permutation &d, const Permutation &first,
                          const Permutation &second) const;

    /**
     * Drop-in equivalents of SelfRoutingBenes::route /
     * routeWithStates: bit-for-bit identical RouteResult (states,
     * output_tags, realized_dest, misrouted_outputs, success), built
     * from a bit-sliced pass plus the compatibility converters.
     */
    RouteResult route(const Permutation &d,
                      RoutingMode mode = RoutingMode::SelfRouting) const;
    RouteResult routeWithStates(const Permutation &d,
                                const SwitchStates &states) const;

    /** Apply a routed configuration to one payload vector. */
    std::vector<Word> execute(const FastPlan &plan,
                              const std::vector<Word> &data) const;

    /** Allocation-free variant; @p out is resized to N. */
    void executeInto(const FastPlan &plan, const std::vector<Word> &data,
                     std::vector<Word> &out) const;

    /**
     * The one transport kernel: out[j] = data[src[j]] for a lane
     * mapping @p src of N 16-bit entries, through the
     * runtime-dispatched gather; @p out is resized to N.
     */
    void gatherInto(const std::vector<std::uint16_t> &src,
                    const std::vector<Word> &data,
                    std::vector<Word> &out) const;

    /**
     * The same gather over raw lanes: @p data and @p out each hold N
     * 8-byte lanes at any byte alignment (KernelTable::gather), so a
     * payload moves from a received frame straight into a reply
     * frame.
     */
    void gatherInto(const std::vector<std::uint16_t> &src,
                    const void *data, void *out) const;

    /** Physical-order switch states of a routed plan. */
    SwitchStates planStates(const FastPlan &plan) const;

  private:
    /** SetupEngine's verdict pass is routesHome. */
    friend class SetupEngine;

    void checkSize(const Permutation &d) const;
    void loadTagPlanes(const Permutation &d,
                       std::vector<Word> &planes) const;
    /**
     * Stages [@p begin, @p end) over @p planes. Stage s's control
     * mask lives at @p ctrl + s * @p stride (stride 0: one stage of
     * scratch, reused by every stage). With @p forced the masks are
     * already there (externally set states) and only the exchanges
     * run; otherwise each stage computes its mask by the Fig. 3 rule
     * first.
     */
    void runPlanes(std::vector<Word> &planes, Word *ctrl, Word stride,
                   bool forced, RoutingMode mode, unsigned begin,
                   unsigned end) const;
    /** The forced pass of @p d through @p plan's masks, finished. */
    void runForced(FastPlan &plan, const Permutation &d) const;
    /** @{ One stage of runPlanes: the Fig. 3 control rule, then the
     *  conditional exchange it selects. */
    void stageCtrl(unsigned s, const Word *planes, RoutingMode mode,
                   Word *ctrl) const;
    void stageExchange(unsigned s, Word *planes,
                       const Word *ctrl) const;
    /** @} */
    /** True iff @p planes equal the all-tags-home pattern. */
    bool planesAtHome(const std::vector<Word> &planes) const;
    /**
     * The tag pass as a verdict: true iff every tag of @p d reaches
     * its own output under @p mode. Builds no plan: the stages run
     * over one stage of control scratch, and nothing is unpacked,
     * copied or inverted afterwards.
     */
    bool routesHome(const Permutation &d, RoutingMode mode) const;
    void finishPlan(FastPlan &plan, const Permutation &d,
                    const std::vector<Word> &planes) const;
    /** Lane mapping of a plan whose tags all reached home. */
    void finishHome(FastPlan &plan, const Permutation &d) const;
    RouteResult toRouteResult(const FastPlan &plan,
                              const Permutation &d) const;

    /** B(n)'s wiring and slot map, computed on demand. */
    BenesTopology topo_;
    unsigned n_;
    Word num_lines_;
    Word lane_words_;
    /** Expected final tag planes when every tag reaches home. */
    std::vector<Word> success_pattern_;

    /** @{ Observability (obs/metrics.hh); null when disabled. */
    obs::Counter *routes_planned_ = nullptr;
    obs::Counter *executes_ = nullptr;
    /** @} */
};

} // namespace srbenes

#endif // SRBENES_CORE_FAST_ENGINE_HH
