#include "core/self_routing.hh"

#include "common/logging.hh"

namespace srbenes
{

namespace
{

/** One in-flight signal: its destination tag and where it entered. */
struct Signal
{
    Word tag;
    Word origin;
};

/**
 * Reusable per-thread signal arenas; capacity persists across calls
 * so the steady state allocates nothing.
 */
thread_local std::vector<Signal> t_cur;
thread_local std::vector<Signal> t_next;

} // namespace

SelfRoutingBenes::SelfRoutingBenes(unsigned n)
    : topo_(n)
{
}

RouteResult
SelfRoutingBenes::route(const Permutation &d, RoutingMode mode,
                        RouteTrace *trace) const
{
    RouteResult res;
    runInto(d, {}, nullptr, mode, trace, res);
    return res;
}

void
SelfRoutingBenes::routeInto(const Permutation &d, RouteResult &res,
                            RoutingMode mode, RouteTrace *trace) const
{
    runInto(d, {}, nullptr, mode, trace, res);
}

RouteResult
SelfRoutingBenes::routeWithStates(const Permutation &d,
                                  const SwitchStates &states,
                                  RouteTrace *trace) const
{
    if (states.size() != topo_.numStages())
        fatal("state array has %zu stages, network has %u",
              states.size(), topo_.numStages());
    RouteResult res;
    runInto(d, {}, &states, RoutingMode::SelfRouting, trace, res);
    return res;
}

std::optional<std::vector<Word>>
SelfRoutingBenes::permutePayloads(const Permutation &d,
                                  const std::vector<Word> &data,
                                  RoutingMode mode) const
{
    if (data.size() != numLines())
        fatal("payload vector size %zu != N = %llu", data.size(),
              static_cast<unsigned long long>(numLines()));

    thread_local RouteResult res;
    routeInto(d, res, mode);
    if (!res.success)
        return std::nullopt;

    std::vector<Word> out(data.size());
    for (std::size_t i = 0; i < data.size(); ++i)
        out[res.realized_dest[i]] = data[i];
    return out;
}

void
SelfRoutingBenes::runInto(const Permutation &d,
                          const std::vector<StuckFault> &stuck,
                          const SwitchStates *forced, RoutingMode mode,
                          RouteTrace *trace, RouteResult &res) const
{
    const Word size = numLines();
    if (d.size() != size)
        fatal("permutation size %zu does not match network N = %llu",
              d.size(), static_cast<unsigned long long>(size));

    std::vector<Signal> &cur = t_cur;
    std::vector<Signal> &next = t_next;
    cur.resize(size);
    next.resize(size);
    for (Word i = 0; i < size; ++i)
        cur[i] = Signal{d[i], i};

    const unsigned stages = topo_.numStages();
    const Word switches = topo_.switchesPerStage();
    // Reshape in place: every element below is overwritten.
    res.states.resize(stages);
    for (auto &stage : res.states)
        stage.resize(switches);
    res.gate_delay = stages;
    res.misrouted_outputs.clear();

    auto snapshot = [&]() {
        if (!trace)
            return;
        std::vector<Word> tags(size);
        for (Word j = 0; j < size; ++j)
            tags[j] = cur[j].tag;
        trace->tags_at_stage.push_back(std::move(tags));
    };

    for (unsigned s = 0; s < stages; ++s) {
        snapshot();

        // Set the switches of stage s. A switch reads only the tag on
        // its own upper input, so the whole stage is set before any
        // switch moves a signal.
        const unsigned b = topo_.controlBit(s);
        std::vector<std::uint8_t> &state = res.states[s];
        for (Word i = 0; i < switches; ++i) {
            if (forced)
                state[i] = (*forced)[s][i];
            else if (mode == RoutingMode::OmegaBit && s + 1 < topo_.n())
                state[i] = 0; // the "omega" bit forces stages 0..n-2
            else
                state[i] =
                    static_cast<std::uint8_t>(bit(cur[2 * i].tag, b));
        }
        // A stuck state line overrides whatever set its switch, and
        // corrupts everything downstream of it.
        for (const StuckFault &f : stuck)
            if (f.stage == s)
                state[f.switch_index] = f.stuck_value;
        for (Word i = 0; i < switches; ++i)
            if (state[i])
                std::swap(cur[2 * i], cur[2 * i + 1]);

        // Apply the fixed wiring into the next stage.
        if (s + 1 < stages) {
            topo_.crossBoundary(s, cur, next);
            cur.swap(next);
        }
    }
    snapshot();

    res.output_tags.resize(size);
    res.realized_dest.resize(size);
    res.success = true;
    for (Word j = 0; j < size; ++j) {
        res.output_tags[j] = cur[j].tag;
        res.realized_dest[cur[j].origin] = j;
        if (cur[j].tag != j) {
            res.success = false;
            res.misrouted_outputs.push_back(j);
        }
    }
}

} // namespace srbenes
