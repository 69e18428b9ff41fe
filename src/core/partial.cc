#include "core/partial.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace srbenes
{

PartialMapping::PartialMapping(std::vector<Word> dest)
    : dest_(std::move(dest)), active_count_(0)
{
    if (dest_.empty())
        fatal("empty partial mapping");
    std::vector<bool> seen(dest_.size(), false);
    for (Word d : dest_) {
        if (d == kIdle)
            continue;
        if (d >= dest_.size())
            fatal("partial destination %llu out of range",
                  static_cast<unsigned long long>(d));
        if (seen[d])
            fatal("duplicate partial destination %llu",
                  static_cast<unsigned long long>(d));
        seen[d] = true;
        ++active_count_;
    }
}

PartialMapping
PartialMapping::restrict(const Permutation &perm,
                         const std::vector<bool> &active)
{
    if (active.size() != perm.size())
        fatal("mask size %zu != permutation size %zu", active.size(),
              perm.size());
    std::vector<Word> dest(perm.size(), kIdle);
    for (std::size_t i = 0; i < perm.size(); ++i)
        if (active[i])
            dest[i] = perm[i];
    return PartialMapping(std::move(dest));
}

PartialMapping
PartialMapping::random(std::size_t size, std::size_t active_count,
                       Prng &prng)
{
    if (active_count > size)
        fatal("cannot activate %zu of %zu inputs", active_count,
              size);
    // Random sources and random destinations, both without
    // replacement.
    std::vector<Word> src(size), dst(size);
    std::iota(src.begin(), src.end(), Word{0});
    std::iota(dst.begin(), dst.end(), Word{0});
    for (std::size_t i = size; i > 1; --i) {
        std::swap(src[i - 1], src[prng.below(i)]);
        std::swap(dst[i - 1], dst[prng.below(i)]);
    }
    std::vector<Word> dest(size, kIdle);
    for (std::size_t k = 0; k < active_count; ++k)
        dest[src[k]] = dst[k];
    return PartialMapping(std::move(dest));
}

PartialRouteResult
routePartial(const SelfRoutingBenes &net,
             const PartialMapping &mapping)
{
    const BenesTopology &topo = net.topology();
    const Word size = topo.numLines();
    if (mapping.size() != size)
        fatal("mapping size %zu does not match network N = %llu",
              mapping.size(), static_cast<unsigned long long>(size));

    std::vector<Word> cur(mapping.dest()), next(size);

    PartialRouteResult res;
    res.states = topo.makeStates();

    const unsigned stages = topo.numStages();
    for (unsigned s = 0; s < stages; ++s) {
        const unsigned b = topo.controlBit(s);
        for (Word i = 0; i < topo.switchesPerStage(); ++i) {
            const Word up = cur[2 * i];
            const Word lo = cur[2 * i + 1];
            std::uint8_t state = 0;
            if (up != PartialMapping::kIdle) {
                state = static_cast<std::uint8_t>(bit(up, b));
            } else if (lo != PartialMapping::kIdle) {
                // Route the lone lower signal out the correct port.
                state =
                    static_cast<std::uint8_t>(1 - bit(lo, b));
            }
            res.states[s][i] = state;
            if (state)
                std::swap(cur[2 * i], cur[2 * i + 1]);
        }
        if (s + 1 < stages) {
            topo.crossBoundary(s, cur, next);
            cur.swap(next);
        }
    }

    res.output_tags = cur;
    res.delivered = 0;
    for (Word j = 0; j < size; ++j)
        if (cur[j] == j)
            ++res.delivered;
    res.success = res.delivered == mapping.activeCount();
    return res;
}

} // namespace srbenes
