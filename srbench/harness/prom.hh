/**
 * @file
 * Reader for srbd's Stats exposition (Prometheus text format, as
 * written by obs::exposeText) and the per-layer counts the benchmark
 * takes from it.
 */

#ifndef SRBENCH_PROM_HH
#define SRBENCH_PROM_HH

#include <map>
#include <string>
#include <vector>

namespace srbench
{

struct PromSample
{
    std::string name;
    std::map<std::string, std::string> labels;
    double value = 0;
};

/**
 * Parse an exposition. Comment lines are skipped; a line that does
 * not parse makes the whole parse fail (@p ok false), so a format
 * change cannot silently zero a count.
 */
std::vector<PromSample> parsePrometheus(const std::string &text, bool &ok);

/**
 * Sum of every sample named @p name whose labels include
 * @p label = @p value (no filter when @p label is empty).
 */
double promSum(const std::vector<PromSample> &samples,
               const std::string &name, const std::string &label = "",
               const std::string &value = "");

/** The srbd counts one scrape yields. Gauges are point-in-time. */
struct SrbdCounts
{
    double submits = 0;
    double responses_ok = 0;
    double protocol_errors = 0;
    /** @{ Shared Router tier, summed over shards. */
    double cache_hits = 0;
    double cache_misses = 0;
    double cache_evictions = 0;
    double resident_bytes = 0; //!< gauge
    /** @} */
    /** @{ Cold plans and their setup_ns sums, by strategy. */
    double plans_self_routing = 0;
    double plans_omega_bit = 0;
    double plans_two_pass = 0;
    double plans_waksman = 0;
    double setup_ns_self_routing = 0;
    double setup_ns_two_pass = 0;
    /** @} */
    /** @{ StreamEngine, summed over workers. */
    double local_hits = 0;
    double doorbell_wakes = 0;
    double inline_served = 0;
    /** @} */

    double
    coldPlans() const
    {
        return plans_self_routing + plans_omega_bit + plans_two_pass +
               plans_waksman;
    }

    /** Counter deltas this - @p before; gauges keep this scrape. */
    SrbdCounts since(const SrbdCounts &before) const;
};

/** Extract the counts; false when the exposition did not parse. */
bool scrapeCounts(const std::string &text, SrbdCounts &out);

} // namespace srbench

#endif // SRBENCH_PROM_HH
