/**
 * @file
 * In-memory span log of a traced run. Spans are recorded by the
 * benchmark around its calls into each layer (nothing inside the
 * program is instrumented), kept in memory, and written out once
 * the run ends.
 */

#ifndef SRBENCH_SPANS_HH
#define SRBENCH_SPANS_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace srbench
{

struct Span
{
    /** Static string: a layer name such as "net.decode". */
    const char *name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t request;
    /** Id of the causing span; 0 for a root. Ids are 1-based. */
    std::uint64_t parent;
};

class SpanLog
{
  public:
    /** Make room for @p count spans, so adding them never reallocates. */
    void reserve(std::size_t count) { spans_.reserve(count); }

    /** Record a span; returns its id. */
    std::uint64_t
    add(const char *name, std::uint64_t start_ns, std::uint64_t end_ns,
        std::uint64_t request, std::uint64_t parent = 0)
    {
        spans_.push_back({name, start_ns, end_ns, request, parent});
        return spans_.size();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time of every span: its duration minus the part of its
     * interval that its children cover.
     */
    std::vector<std::uint64_t> selfTimes() const;

    /** Write one tab-separated line per span; false on I/O error. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

/** Median of @p v (0 when empty). */
template <typename T>
double
median(std::vector<T> v)
{
    if (v.empty())
        return 0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    const double hi = static_cast<double>(v[mid]);
    if (v.size() % 2 == 1)
        return hi;
    const double lo =
        static_cast<double>(*std::max_element(v.begin(), v.begin() + mid));
    return (lo + hi) / 2.0;
}

} // namespace srbench

#endif // SRBENCH_SPANS_HH
