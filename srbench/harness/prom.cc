#include "prom.hh"

#include <cstdlib>
#include <sstream>

namespace srbench
{
namespace
{

bool
parseLine(const std::string &line, PromSample &out)
{
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ')
        ++i;
    out.name = line.substr(0, i);
    if (out.name.empty())
        return false;
    out.labels.clear();
    if (i < line.size() && line[i] == '{') {
        ++i;
        while (i < line.size() && line[i] != '}') {
            const std::size_t eq = line.find('=', i);
            if (eq == std::string::npos || eq + 1 >= line.size() ||
                line[eq + 1] != '"')
                return false;
            const std::string key = line.substr(i, eq - i);
            std::string value;
            std::size_t j = eq + 2;
            for (; j < line.size() && line[j] != '"'; ++j) {
                if (line[j] == '\\' && j + 1 < line.size())
                    ++j;
                value.push_back(line[j]);
            }
            if (j >= line.size())
                return false;
            out.labels[key] = value;
            i = j + 1;
            if (i < line.size() && line[i] == ',')
                ++i;
        }
        if (i >= line.size())
            return false;
        ++i; // '}'
    }
    if (i >= line.size() || line[i] != ' ')
        return false;
    const char *begin = line.c_str() + i + 1;
    char *end = nullptr;
    out.value = std::strtod(begin, &end);
    return end != begin && *end == '\0';
}

} // namespace

std::vector<PromSample>
parsePrometheus(const std::string &text, bool &ok)
{
    std::vector<PromSample> samples;
    ok = true;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        PromSample s;
        if (!parseLine(line, s)) {
            ok = false;
            return {};
        }
        samples.push_back(std::move(s));
    }
    return samples;
}

double
promSum(const std::vector<PromSample> &samples, const std::string &name,
        const std::string &label, const std::string &value)
{
    double sum = 0;
    for (const PromSample &s : samples) {
        if (s.name != name)
            continue;
        if (!label.empty()) {
            const auto it = s.labels.find(label);
            if (it == s.labels.end() || it->second != value)
                continue;
        }
        sum += s.value;
    }
    return sum;
}

SrbdCounts
SrbdCounts::since(const SrbdCounts &b) const
{
    SrbdCounts d = *this;
    d.submits -= b.submits;
    d.responses_ok -= b.responses_ok;
    d.protocol_errors -= b.protocol_errors;
    d.cache_hits -= b.cache_hits;
    d.cache_misses -= b.cache_misses;
    d.cache_evictions -= b.cache_evictions;
    d.plans_self_routing -= b.plans_self_routing;
    d.plans_omega_bit -= b.plans_omega_bit;
    d.plans_two_pass -= b.plans_two_pass;
    d.plans_waksman -= b.plans_waksman;
    d.setup_ns_self_routing -= b.setup_ns_self_routing;
    d.setup_ns_two_pass -= b.setup_ns_two_pass;
    d.local_hits -= b.local_hits;
    d.doorbell_wakes -= b.doorbell_wakes;
    d.inline_served -= b.inline_served;
    return d;
}

bool
scrapeCounts(const std::string &text, SrbdCounts &c)
{
    bool ok = false;
    const std::vector<PromSample> s = parsePrometheus(text, ok);
    if (!ok || s.empty())
        return false;
    c.submits = promSum(s, "srbd_submits_total");
    c.responses_ok = promSum(s, "srbd_responses_total", "status", "ok");
    c.protocol_errors = promSum(s, "srbd_protocol_errors_total");
    c.cache_hits = promSum(s, "srbenes_router_plan_cache_hits_total");
    c.cache_misses = promSum(s, "srbenes_router_plan_cache_misses_total");
    c.cache_evictions =
        promSum(s, "srbenes_router_plan_cache_evictions_total");
    c.resident_bytes =
        promSum(s, "srbenes_router_plan_cache_resident_bytes");
    c.plans_self_routing = promSum(s, "srbenes_router_plans_total",
                                   "strategy", "self-routing");
    c.plans_omega_bit =
        promSum(s, "srbenes_router_plans_total", "strategy", "omega-bit");
    c.plans_two_pass =
        promSum(s, "srbenes_router_plans_total", "strategy", "two-pass");
    c.plans_waksman =
        promSum(s, "srbenes_router_plans_total", "strategy", "waksman");
    c.setup_ns_self_routing = promSum(s, "srbenes_router_setup_ns_sum",
                                      "strategy", "self-routing");
    c.setup_ns_two_pass = promSum(s, "srbenes_router_setup_ns_sum",
                                  "strategy", "two-pass");
    c.local_hits = promSum(s, "srbenes_stream_local_hits_total");
    c.doorbell_wakes = promSum(s, "srbenes_stream_doorbell_wakes_total");
    c.inline_served = promSum(s, "srbenes_stream_inline_served_total");
    // A daemon that exported none of its submit series is not the
    // srbd this benchmark knows.
    for (const PromSample &x : s)
        if (x.name == "srbd_submits_total")
            return true;
    return false;
}

} // namespace srbench
