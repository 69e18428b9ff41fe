// srb-lint: modeled — SRB010: the plan cache's victim draw and
// admission sketch go through common/sync.hh
// (core/cache_admission.hh).
#include "core/router.hh"

#include <sys/random.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/logging.hh"
#include "common/prng.hh"
#include "core/fast_kernels.hh"
#include "core/two_pass.hh"
#include "obs/trace.hh"
#include "perm/f_class.hh"
#include "perm/omega_class.hh"

namespace srbenes
{

namespace
{

/** The admission outcome labels, indexed by Router::Admission. */
constexpr const char *kAdmissionLabels[] = {"admitted", "first_sighting",
                                            "lost_to_victim"};

/** A tier counter's value, 0 when metrics are off. */
std::size_t
count(const obs::Counter *c)
{
    return c ? static_cast<std::size_t>(c->value()) : 0;
}

} // namespace

Hash128
hashTags128(const void *tags, Word count)
{
    return activeKernels().hashTags(tags, count, servingHashKey());
}

const std::uint32_t *
narrowTags(const Permutation &d)
{
    thread_local std::vector<std::uint32_t> lanes;
    lanes.resize(d.size());
    for (Word i = 0; i < d.size(); ++i)
        lanes[i] = static_cast<std::uint32_t>(d[i]);
    return lanes.data();
}

Hash128
hashPermutation128(const Permutation &d)
{
    return hashTags128(narrowTags(d), d.size());
}

const HashKey &
servingHashKey()
{
    static const HashKey key = [] {
        HashKey k{};
        auto *bytes = reinterpret_cast<unsigned char *>(&k);
        for (std::size_t got = 0; got < sizeof(k);) {
            const ssize_t r = ::getrandom(bytes + got, sizeof(k) - got, 0);
            if (r < 0 && errno != EINTR)
                fatal("getrandom for the plan-cache hash key failed: %s",
                      std::strerror(errno));
            if (r > 0)
                got += static_cast<std::size_t>(r);
        }
        return k;
    }();
    return key;
}

/**
 * Collisions only cost a cache miss: every lookup reads the tags
 * through the resident plan's gather table, lane by lane, before
 * reuse.
 */
std::uint64_t
Router::hashPermutation(const Permutation &d)
{
    return hashPermutation128(d).lo;
}

const char *
routeStrategyName(RouteStrategy s)
{
    switch (s) {
      case RouteStrategy::SelfRouting:
        return "self-routing";
      case RouteStrategy::OmegaBit:
        return "omega-bit";
      case RouteStrategy::TwoPass:
        return "two-pass";
      case RouteStrategy::Waksman:
        return "waksman";
    }
    return "?";
}

Router::Router(unsigned n, bool prefer_waksman,
               std::size_t plan_cache_capacity, unsigned cache_shards,
               obs::MetricsRegistry *metrics,
               std::size_t plan_cache_bytes)
    : net_(n), engine_(n, metrics), setup_(engine_),
      prefer_waksman_(prefer_waksman),
      plan_bytes_(sizeof(RoutePlan) +
                  net_.numLines() * sizeof(std::uint16_t)),
      cache_bytes_budget_(plan_cache_bytes),
      cache_capacity_(plan_cache_bytes == 0
                          ? plan_cache_capacity
                          : std::min(plan_cache_capacity,
                                     plan_cache_bytes / plan_bytes_)),
      sketch_(cache_capacity_), metrics_(metrics)
{
    std::size_t nshards = std::max(1u, cache_shards);
    if (cache_capacity_ > 0)
        nshards = std::min(nshards, cache_capacity_);
    shards_.reserve(nshards);
    for (std::size_t i = 0; i < nshards; ++i)
        shards_.push_back(std::make_unique<CacheShard>());

    if (!metrics_)
        return;
    const std::string inst = metrics_->uniqueInstance("router");
    const obs::Labels labels{{"router", inst}};
    hits_ = &metrics_->counter("srbenes_router_plan_cache_hits_total",
                               labels);
    misses_ = &metrics_->counter(
        "srbenes_router_plan_cache_misses_total", labels);
    evictions_ = &metrics_->counter(
        "srbenes_router_plan_cache_evictions_total", labels);
    resident_bytes_ = &metrics_->gauge(
        "srbenes_router_plan_cache_resident_bytes", labels);
    for (int a = 0; a < 3; ++a)
        admissions_[a] = &metrics_->counter(
            "srbenes_router_plan_cache_admissions_total",
            {{"router", inst}, {"outcome", kAdmissionLabels[a]}});
    for (RouteStrategy s :
         {RouteStrategy::SelfRouting, RouteStrategy::OmegaBit,
          RouteStrategy::TwoPass, RouteStrategy::Waksman})
        plans_by_strategy_[static_cast<int>(s)] = &metrics_->counter(
            "srbenes_router_plans_total",
            {{"router", inst}, {"strategy", routeStrategyName(s)}});
    for (RouteStrategy s :
         {RouteStrategy::SelfRouting, RouteStrategy::OmegaBit,
          RouteStrategy::TwoPass, RouteStrategy::Waksman})
        setup_ns_by_strategy_[static_cast<int>(s)] =
            &metrics_->histogram(
                "srbenes_router_setup_ns",
                {{"router", inst},
                 {"strategy", routeStrategyName(s)}});
}

Router::CacheShard &
Router::shardFor(std::uint64_t hash) const
{
    // The low bits index buckets inside the shard's map; pick the
    // shard from well-mixed high bits so the two stay independent.
    return *shards_[(hash >> 32) % shards_.size()];
}

RoutePlan
Router::plan(const Permutation &d) const
{
    // The instrumented wrapper around the real planner: cold plans
    // are the expensive event worth a span, and each is recorded
    // once, by the strategy that won — its latency in setup_ns, its
    // count in plans_total. The strategy is also the classification
    // census: the tag pass IS the F-membership test, so SelfRouting
    // counts the engine-classified plans.
    obs::Tracer::Span span(
        metrics_ ? &obs::Tracer::global() : nullptr, "router.plan");
    const std::uint64_t t0 = metrics_ ? obs::monotonicNs() : 0;
    RoutePlan p = planImpl(d);
    if (metrics_) {
        const int s = static_cast<int>(p.strategy);
        setup_ns_by_strategy_[s]->observe(obs::monotonicNs() - t0);
        plans_by_strategy_[s]->inc();
    }
    return p;
}

RoutePlan
Router::planImpl(const Permutation &d) const
{
    if (d.size() != net_.numLines())
        fatal("permutation size %zu does not match router N = %llu",
              d.size(),
              static_cast<unsigned long long>(net_.numLines()));

    // Try the destination-tag pass directly instead of classifying
    // first: the pass IS the F-membership test (a permutation
    // self-routes iff it is in F), and one bit-sliced pass costs a
    // fraction of the structural inFClass check. Theorem 1's level-0
    // condition runs first: when it fails, d is not in F and the
    // pass could only fail, so it is skipped. Every self-routed pass
    // goes through the SetupEngine and answers only yes or no.
    //
    // Omega membership is decided the same way: a permutation routes
    // with the omega bit exactly when it is in Omega (Section II), so
    // the omega-bit pass is the test. Lawrie's t = 1 window runs
    // first as a cheap reject; a random permutation fails it within a
    // few dozen tags.
    RoutePlan p{.strategy = RouteStrategy::SelfRouting, .src = {}};
    if (levelZero(d) && setup_.routes(d)) {
        // In F: one self-routed pass, nothing else to keep.
    } else if (omegaFirstWindowHolds(d) &&
               setup_.routes(d, RoutingMode::OmegaBit)) {
        p.strategy = RouteStrategy::OmegaBit;
    } else {
        // The factorization composes to d by construction
        // (second[first[i]] = d[i]). Then the factors are dropped: the
        // resilient layer re-derives this same deterministic
        // factorization, or the same Waksman states, when it needs
        // them.
        const TwoPassPlan tp = twoPassPlan(net_, d);
        if (prefer_waksman_) {
            // Waksman's states are the two passes' masks stitched at
            // the middle stage; one forced pass verifies them.
            if (!engine_.planStitched(d, tp.first, tp.second).success)
                panic("waksman plan failed to realize its permutation");
            p.strategy = RouteStrategy::Waksman;
        } else {
            if (!setup_.routes(tp.first) ||
                !setup_.routes(tp.second, RoutingMode::OmegaBit))
                panic("two-pass plan failed one of its self-routed "
                      "passes");
            p.strategy = RouteStrategy::TwoPass;
        }
    }

    // Every strategy above was verified by passes that got every tag
    // home, so the fabric realizes d exactly (Theorem 1) and the
    // gather table is d's inverse: output d[i] takes input i, in 16-bit
    // lanes (FastEngine caps n at 16).
    const Word size = d.size();
    p.src.resize(size);
    for (Word i = 0; i < size; ++i)
        p.src[d[i]] = static_cast<std::uint16_t>(i);
    return p;
}

void
Router::CacheShard::erase(Map::iterator it)
{
    const std::uint32_t slot = it->second.slot;
    if (slot + 1 != keys.size()) {
        keys[slot] = keys.back();
        map.find(keys[slot])->second.slot = slot;
    }
    keys.pop_back();
    map.erase(it);
}

Router::Victim
Router::drawVictim() const
{
    // Capacity is the tier's, not a shard's, so the victim is any
    // resident: a fresh mixed draw picks a shard (the next non-empty
    // one when it is empty) and a slot in its key array. Every
    // decision draws anew, so a newcomer that lost once meets another
    // resident next time; hits never reach this path.
    // order: relaxed; the count only has to differ per draw.
    const std::uint64_t r =
        mix64(draws_.fetch_add(1, std::memory_order_relaxed));
    const std::size_t nshards = shards_.size();
    for (std::size_t i = 0; i < nshards; ++i) {
        CacheShard &sh = *shards_[(r + i) % nshards];
        ReaderLock lock(sh.mu);
        if (!sh.keys.empty())
            return {&sh, sh.keys[(r >> 32) % sh.keys.size()]};
    }
    return {};
}

Router::Admission
Router::admission(std::uint64_t key, bool seen, Victim &victim) const
{
    // TinyLFU's gate: a key seen once in the window is a scan until
    // proven otherwise, and a full cache trades a resident drawn at
    // random only for a key the sketch estimates strictly more
    // frequent. A racing admission can fill the cache after this
    // check; the eviction after the insert keeps the capacity either
    // way.
    if (!seen)
        return Admission::FirstSighting;
    if (planCacheSize() < cache_capacity_)
        return Admission::Admitted;
    victim = drawVictim();
    return victim.shard &&
                   sketch_.estimate(key) <= sketch_.estimate(victim.key)
               ? Admission::LostToVictim
               : Admission::Admitted;
}

void
Router::evictPastCapacity(Victim v) const
{
    // The first victim is the one admission() compared, when it drew
    // one; a racing admission that leaves the cache over capacity
    // draws again.
    while (planCacheSize() > cache_capacity_) {
        if (!v.shard)
            v = drawVictim();
        if (!v.shard)
            break;
        WriterLock lock(v.shard->mu);
        auto it = v.shard->map.find(v.key);
        if (it != v.shard->map.end()) {
            v.shard->erase(it);
            if (resident_bytes_)
                resident_bytes_->add(
                    -static_cast<std::int64_t>(plan_bytes_));
            if (evictions_)
                evictions_->inc();
        }
        v = {};
    }
}

std::shared_ptr<const RoutePlan>
Router::findCached(const Permutation &d, std::uint64_t key) const
{
    return findCached(narrowTags(d), d.size(), key);
}

std::shared_ptr<const RoutePlan>
Router::findCached(const void *tags, Word count, std::uint64_t key) const
{
    if (cache_capacity_ == 0)
        return nullptr;
    CacheShard &sh = shardFor(key);
    std::shared_ptr<const RoutePlan> hit;
    {
        ReaderLock lock(sh.mu);
        auto it = sh.map.find(key);
        if (it == sh.map.end())
            return nullptr;
        // A key match is never identity: the tags read through the
        // plan's gather table must give back every lane number, each
        // lane compared whole, so lanes that are not this permutation
        // never hit. The indices are the plan's, and with the sizes
        // equal they stay inside tags[0, count).
        const std::vector<std::uint16_t> &src = it->second.plan->src;
        if (src.size() != count ||
            !activeKernels().matchesInverse(src.data(), tags, count))
            return nullptr;
        hit = it->second.plan;
    }
    if (hits_)
        hits_->inc();
    // Outside the lock: a sighting that ends the sketch's window ages
    // it, and the shard's inserts need not wait for that. A stale
    // count only costs a suboptimal admission (cache_admission.hh).
    sketch_.record(key);
    return hit;
}

std::shared_ptr<const RoutePlan>
Router::planCached(const Permutation &d) const
{
    return planCached(d, hashPermutation(d));
}

std::shared_ptr<const RoutePlan>
Router::planCached(const Permutation &d, std::uint64_t key) const
{
    if (cache_capacity_ == 0)
        return std::make_shared<const RoutePlan>(plan(d));

    if (auto hit = findCached(d, key))
        return hit;
    if (misses_)
        misses_->inc();
    // The miss is this request's one sighting: findCached counts
    // only hits, so a producer's miss and the worker's planCached
    // that follows it record the request once.
    const bool seen = sketch_.record(key);

    // Plan outside the lock; concurrent misses on the same pattern
    // just plan twice and the later insert wins.
    auto planned = std::make_shared<const RoutePlan>(plan(d));
    Victim victim;
    const Admission fate = admission(key, seen, victim);
    if (obs::Counter *c = admissions_[static_cast<int>(fate)])
        c->inc();
    if (fate != Admission::Admitted)
        return planned;
    {
        CacheShard &sh = shardFor(key);
        WriterLock lock(sh.mu);
        auto [it, inserted] = sh.map.try_emplace(
            key, planned, static_cast<std::uint32_t>(sh.keys.size()));
        if (inserted) {
            sh.keys.push_back(key);
            if (resident_bytes_)
                resident_bytes_->add(
                    static_cast<std::int64_t>(plan_bytes_));
        } else {
            // Same hash: either a racing insert of this pattern or a
            // collision; either way the newcomer replaces the plan.
            it->second.plan = planned;
        }
    }

    evictPastCapacity(victim);
    return planned;
}

std::vector<Word>
Router::execute(const RoutePlan &plan,
                const std::vector<Word> &data) const
{
    std::vector<Word> out;
    executeInto(plan, data, out);
    return out;
}

void
Router::executeInto(const RoutePlan &plan,
                    const std::vector<Word> &data,
                    std::vector<Word> &out) const
{
    engine_.gatherInto(plan.src, data, out);
}

void
Router::executeInto(const RoutePlan &plan, const void *data,
                    void *out) const
{
    engine_.gatherInto(plan.src, data, out);
}

RouteOutcome
Router::routeOutcome(const Permutation &d,
                     const std::vector<Word> &data) const
{
    if (data.size() != d.size())
        fatal("payload size %zu does not match permutation size %zu",
              data.size(), d.size());
    return RouteOutcome::success(execute(*planCached(d), data));
}

CacheStats
Router::cacheStats() const
{
    const auto fates = [&](Admission a) {
        return count(admissions_[static_cast<int>(a)]);
    };
    CacheStats s;
    s.size = planCacheSize();
    s.bytes = s.size * plan_bytes_;
    s.hits = count(hits_);
    s.misses = count(misses_);
    s.evictions = count(evictions_);
    s.admitted = fates(Admission::Admitted);
    s.first_sightings = fates(Admission::FirstSighting);
    s.lost_to_victim = fates(Admission::LostToVictim);
    return s;
}

std::size_t
Router::planCacheBytes() const
{
    return planCacheSize() * plan_bytes_;
}

std::size_t
Router::planCacheSize() const
{
    // Runs on every miss a repeat sighting makes and again per
    // eviction: the map sizes under the reader locks, nothing else.
    std::size_t total = 0;
    for (const auto &sh : shards_) {
        ReaderLock lock(sh->mu);
        total += sh->map.size();
    }
    return total;
}

std::size_t
Router::planCacheHits() const
{
    return count(hits_);
}

std::size_t
Router::planCacheMisses() const
{
    return count(misses_);
}

std::size_t
Router::planCacheEvictions() const
{
    return count(evictions_);
}

void
Router::clearPlanCache() const
{
    for (const auto &sh : shards_) {
        WriterLock lock(sh->mu);
        sh->map.clear();
        sh->keys.clear();
    }
    if (resident_bytes_)
        resident_bytes_->set(0);
    for (obs::Counter *c : {hits_, misses_, evictions_})
        if (c)
            c->reset();
    for (obs::Counter *c : admissions_)
        if (c)
            c->reset();
    sketch_.clear();
}

} // namespace srbenes
