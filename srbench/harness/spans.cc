#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace srbench
{

std::vector<std::uint64_t>
SpanLog::selfTimes() const
{
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        children(spans_.size());
    for (const Span &s : spans_)
        if (s.parent != 0 && s.parent <= spans_.size())
            children[s.parent - 1].push_back({s.start_ns, s.end_ns});

    std::vector<std::uint64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &p = spans_[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the children's intervals, clipped to the parent.
        std::uint64_t covered = 0;
        std::uint64_t reach = p.start_ns;
        for (auto [b, e] : kids) {
            b = std::max(b, reach);
            e = std::min(e, p.end_ns);
            if (e > b) {
                covered += e - b;
                reach = e;
            }
        }
        self[i] = p.end_ns - p.start_ns - covered;
    }
    return self;
}

bool
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "id\tname\tstart_ns\tend_ns\trequest\tparent\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f, "%zu\t%s\t%llu\t%llu\t%llu\t%llu\n", i + 1, s.name,
                     static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns),
                     static_cast<unsigned long long>(s.request),
                     static_cast<unsigned long long>(s.parent));
    }
    return std::fclose(f) == 0;
}

} // namespace srbench
