#include "core/fast_engine.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "core/fast_kernels.hh"

namespace srbenes
{

namespace
{

/**
 * Mask of lanes whose slot-bit @p b is clear — the physical upper
 * inputs of a bit-b exchange stage — for in-word distances (b < 6).
 */
constexpr Word kUpperMask[6] = {
    0x5555555555555555ULL, 0x3333333333333333ULL,
    0x0f0f0f0f0f0f0f0fULL, 0x00ff00ff00ff00ffULL,
    0x0000ffff0000ffffULL, 0x00000000ffffffffULL,
};

/** Reusable bit-plane arena; capacity persists across routes. */
thread_local std::vector<Word> t_planes;
/** One stage of control masks for a verdict pass. */
thread_local std::vector<Word> t_ctrl;

} // namespace

FastEngine::FastEngine(unsigned n, obs::MetricsRegistry *metrics)
    : topo_(n), n_(n), num_lines_(topo_.numLines()),
      lane_words_((num_lines_ + 63) / 64)
{
    // Gather tables hold 16-bit lane indices; the topology checks
    // n >= 1. The wiring is the topology's closed form, so the one
    // table built here is the home pattern, n bits a lane.
    if (n > kMaxN)
        fatal("fabric size n = %u exceeds the engine's 16-bit lanes "
              "(n <= %u)",
              n, kMaxN);

    // Slot x ends on output x, so home is the identity: bit x of
    // plane b is bit b of x. Below b = 6 every word of the plane is
    // one pattern (zero past N when n < 6); above, word w is all
    // ones or all zeros by bit b - 6 of w.
    const Word live =
        lowMask(static_cast<unsigned>(std::min<Word>(num_lines_, 64)));
    success_pattern_.resize(Word{n_} * lane_words_);
    for (unsigned b = 0; b < n_; ++b)
        for (Word w = 0; w < lane_words_; ++w)
            success_pattern_[Word{b} * lane_words_ + w] =
                b < 6 ? ~kUpperMask[b] & live : Word{0} - bit(w, b - 6);

    if (metrics) {
        const std::string inst = metrics->uniqueInstance("engine");
        routes_planned_ = &metrics->counter(
            "srbenes_engine_routes_planned_total", {{"engine", inst}});
        executes_ = &metrics->counter(
            "srbenes_engine_executes_total", {{"engine", inst}});
    }
}

void
FastEngine::checkSize(const Permutation &d) const
{
    if (d.size() != num_lines_)
        fatal("permutation size %zu does not match network N = %llu",
              d.size(), static_cast<unsigned long long>(num_lines_));
}

void
FastEngine::loadTagPlanes(const Permutation &d,
                          std::vector<Word> &planes) const
{
    // The transpose kernel writes every word of every plane row
    // (tail lanes zeroed), so a resize without zero-fill suffices.
    planes.resize(Word{n_} * lane_words_);
    activeKernels().packTags(planes.data(), n_, lane_words_,
                             d.dest().data(), num_lines_);
}

void
FastEngine::stageCtrl(unsigned s, const Word *planes, RoutingMode mode,
                      Word *ctrl) const
{
    const unsigned b = std::min(s, 2 * n_ - 2 - s);
    const Word W = lane_words_;
    const Word *pb = planes + Word{b} * W;

    // Control masks: bit b of the tag on each upper input, read
    // before any exchange of this stage (Fig. 3), unless the omega
    // bit holds the stage open.
    if (mode == RoutingMode::OmegaBit && s + 1 < n_) {
        std::memset(ctrl, 0, W * sizeof(Word));
    } else if (b < 6) {
        const Word m = kUpperMask[b];
        for (Word w = 0; w < W; ++w)
            ctrl[w] = pb[w] & m;
    } else {
        const Word dw = Word{1} << (b - 6);
        for (Word w = 0; w < W; ++w)
            ctrl[w] = (w & dw) ? 0 : pb[w];
    }
}

void
FastEngine::stageExchange(unsigned s, Word *planes,
                          const Word *ctrl) const
{
    // Conditional exchange of every plane at distance 2^b, through
    // the runtime-dispatched kernel table.
    const unsigned b = std::min(s, 2 * n_ - 2 - s);
    const KernelTable &kern = activeKernels();
    if (b < 6)
        kern.deltaSwap(planes, n_, lane_words_, ctrl, lane_words_,
                       1u << b);
    else
        kern.pairSwap(planes, n_, lane_words_, ctrl, lane_words_,
                      Word{1} << (b - 6));
}

bool
FastEngine::planesAtHome(const std::vector<Word> &planes) const
{
    return std::equal(planes.begin(), planes.end(),
                      success_pattern_.begin());
}

void
FastEngine::runPlanes(std::vector<Word> &planes, Word *ctrl, Word stride,
                      bool forced, RoutingMode mode, unsigned begin,
                      unsigned end) const
{
    for (unsigned s = begin; s < end; ++s) {
        Word *stage_ctrl = ctrl + Word{s} * stride;
        if (!forced)
            stageCtrl(s, planes.data(), mode, stage_ctrl);
        stageExchange(s, planes.data(), stage_ctrl);
    }
}

void
FastEngine::finishPlan(FastPlan &plan, const Permutation &d,
                       const std::vector<Word> &planes) const
{
    plan.n = n_;
    // Success iff the final planes equal the home pattern: every
    // output's tag is its own index.
    if (planesAtHome(planes)) {
        finishHome(plan, d);
        return;
    }

    const Word size = num_lines_;
    plan.success = false;
    plan.dest.resize(size);
    plan.src.resize(size);
    plan.misrouted_outputs.clear();

    // Misroute path (non-F self-routing attempts, fault studies):
    // unpack the tag on each output (slot x ends on output x) and
    // recover its origin through d^-1.
    std::vector<Word> dinv(size);
    for (Word i = 0; i < size; ++i)
        dinv[d[i]] = i;
    for (Word j = 0; j < size; ++j) {
        const Word w = j >> 6;
        const unsigned sh = j & 63;
        Word tag = 0;
        for (unsigned b = 0; b < n_; ++b)
            tag |= ((planes[Word{b} * lane_words_ + w] >> sh) & 1u) << b;
        const Word origin = dinv[tag];
        plan.src[j] = static_cast<std::uint16_t>(origin);
        plan.dest[origin] = j;
        if (tag != j)
            plan.misrouted_outputs.push_back(j);
    }
}

void
FastEngine::finishHome(FastPlan &plan, const Permutation &d) const
{
    // Tags ride with their signals, and d is a permutation, so
    // success pins the whole lane mapping to d itself.
    plan.success = true;
    plan.dest = d.dest();
    plan.src.resize(num_lines_);
    for (Word i = 0; i < num_lines_; ++i)
        plan.src[d[i]] = static_cast<std::uint16_t>(i);
    plan.misrouted_outputs.clear();
}

FastPlan
FastEngine::routePlan(const Permutation &d, RoutingMode mode) const
{
    checkSize(d);
    FastPlan plan;
    plan.ctrl.resize(Word{numStages()} * lane_words_);
    loadTagPlanes(d, t_planes);
    runPlanes(t_planes, plan.ctrl.data(), lane_words_, false, mode, 0,
              numStages());
    finishPlan(plan, d, t_planes);
    if (routes_planned_)
        routes_planned_->inc();
    return plan;
}

bool
FastEngine::routesHome(const Permutation &d, RoutingMode mode) const
{
    checkSize(d);
    t_ctrl.resize(lane_words_);
    loadTagPlanes(d, t_planes);
    runPlanes(t_planes, t_ctrl.data(), 0, false, mode, 0, numStages());
    if (routes_planned_)
        routes_planned_->inc();
    return planesAtHome(t_planes);
}

void
FastEngine::runForced(FastPlan &plan, const Permutation &d) const
{
    loadTagPlanes(d, t_planes);
    runPlanes(t_planes, plan.ctrl.data(), lane_words_, true,
              RoutingMode::SelfRouting, 0, numStages());
    finishPlan(plan, d, t_planes);
}

FastPlan
FastEngine::planWithStates(const Permutation &d,
                           const SwitchStates &states) const
{
    checkSize(d);
    if (states.size() != numStages())
        fatal("state array has %zu stages, network has %u",
              states.size(), numStages());

    // Gather the physical-order states onto upper-input slots once,
    // straight into the plan's control masks; the route itself then
    // runs exactly like the self-set case.
    FastPlan plan;
    plan.ctrl.assign(Word{numStages()} * lane_words_, 0);
    for (unsigned s = 0; s < numStages(); ++s) {
        if (states[s].size() != switchesPerStage())
            fatal("stage %u has %zu switches, network has %llu", s,
                  states[s].size(),
                  static_cast<unsigned long long>(switchesPerStage()));
        const Word lower = Word{1} << topo_.controlBit(s);
        Word *ctrl = plan.ctrl.data() + Word{s} * lane_words_;
        for (Word x = 0; x < num_lines_; ++x)
            if (!(x & lower) && states[s][topo_.lineOfSlot(s, x) >> 1])
                ctrl[x >> 6] |= Word{1} << (x & 63);
    }
    runForced(plan, d);
    return plan;
}

FastPlan
FastEngine::planStitched(const Permutation &d, const Permutation &first,
                         const Permutation &second) const
{
    checkSize(d);
    checkSize(first);
    checkSize(second);
    FastPlan plan;
    plan.ctrl.resize(Word{numStages()} * lane_words_);
    // Pass 1 sets the opening half. Pass 2's omega bit holds that
    // half straight, so its tags reach stage n-1 where they started,
    // and it sets the rest.
    loadTagPlanes(first, t_planes);
    runPlanes(t_planes, plan.ctrl.data(), lane_words_, false,
              RoutingMode::SelfRouting, 0, n_ - 1);
    loadTagPlanes(second, t_planes);
    runPlanes(t_planes, plan.ctrl.data(), lane_words_, false,
              RoutingMode::OmegaBit, n_ - 1, numStages());
    runForced(plan, d);
    return plan;
}

RouteResult
FastEngine::toRouteResult(const FastPlan &plan,
                          const Permutation &d) const
{
    RouteResult res;
    res.success = plan.success;
    res.gate_delay = numStages();
    res.states = planStates(plan);
    res.realized_dest = plan.dest;
    res.misrouted_outputs = plan.misrouted_outputs;
    res.output_tags.resize(num_lines_);
    for (Word j = 0; j < num_lines_; ++j)
        res.output_tags[j] = d[plan.src[j]];
    return res;
}

RouteResult
FastEngine::route(const Permutation &d, RoutingMode mode) const
{
    return toRouteResult(routePlan(d, mode), d);
}

RouteResult
FastEngine::routeWithStates(const Permutation &d,
                            const SwitchStates &states) const
{
    return toRouteResult(planWithStates(d, states), d);
}

void
FastEngine::gatherInto(const std::vector<std::uint16_t> &src,
                       const std::vector<Word> &data,
                       std::vector<Word> &out) const
{
    if (data.size() != num_lines_)
        fatal("payload vector size %zu != N = %llu", data.size(),
              static_cast<unsigned long long>(num_lines_));
    out.resize(num_lines_);
    gatherInto(src, data.data(), out.data());
}

void
FastEngine::gatherInto(const std::vector<std::uint16_t> &src,
                       const void *data, void *out) const
{
    if (src.size() != num_lines_)
        fatal("plan shaped for another network");
    activeKernels().gather(out, data, src.data(), num_lines_);
    if (executes_)
        executes_->inc();
}

void
FastEngine::executeInto(const FastPlan &plan,
                        const std::vector<Word> &data,
                        std::vector<Word> &out) const
{
    gatherInto(plan.src, data, out);
}

std::vector<Word>
FastEngine::execute(const FastPlan &plan,
                    const std::vector<Word> &data) const
{
    std::vector<Word> out;
    executeInto(plan, data, out);
    return out;
}

SwitchStates
FastEngine::planStates(const FastPlan &plan) const
{
    if (plan.ctrl.size() != Word{numStages()} * lane_words_)
        fatal("plan carries no per-stage control masks");
    SwitchStates out(numStages(),
                     std::vector<std::uint8_t>(switchesPerStage()));
    for (unsigned s = 0; s < numStages(); ++s) {
        const Word *ctrl = plan.ctrl.data() + Word{s} * lane_words_;
        const Word lower = Word{1} << topo_.controlBit(s);
        for (Word x = 0; x < num_lines_; ++x)
            if (!(x & lower))
                out[s][topo_.lineOfSlot(s, x) >> 1] =
                    static_cast<std::uint8_t>(
                        (ctrl[x >> 6] >> (x & 63)) & 1u);
    }
    return out;
}

} // namespace srbenes
