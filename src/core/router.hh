// srb-lint: modeled — SRB010: the plan cache's victim draw and
// admission sketch go through common/sync.hh
// (core/cache_admission.hh).
/**
 * @file
 * The one-stop routing facade.
 *
 * A downstream user has a permutation and data; which of the
 * library's mechanisms should carry it? This facade plans the
 * CHEAPEST strategy automatically:
 *
 *   SelfRouting  if D is in F(n)        -- 1 pass, zero setup;
 *   OmegaBit     else if D is in Omega  -- 1 pass, one mode wire;
 *   TwoPass      otherwise (default)    -- 2 self-routed passes,
 *                O(N log N) planning once, only tags move after;
 *   Waksman      otherwise (opt-in)     -- 1 pass, ships switch
 *                states to the fabric.
 *
 * Plans are immutable and reusable: plan once per communication
 * pattern, execute per data vector (the paper's SIMD setting, where
 * the same pattern recurs every iteration).
 *
 * Two layers make the reuse path near-free:
 *
 *  - every plan is verified through the bit-sliced tag pass at
 *    planning time and carries the realized lane mapping, so
 *    execute() is a single contiguous gather — no fabric
 *    re-simulation, no allocation beyond the result (and none at
 *    all via executeInto);
 *  - planCached() consults a sharded, read-mostly plan cache keyed
 *    by a permutation hash, so a recurring pattern skips
 *    classification and planning entirely once it is resident, and
 *    concurrent readers on different shards never serialize.
 *    findCached() is the same lookup without the planning: the
 *    streaming layer's producer serves a hit itself and hands only a
 *    miss to a worker.
 *
 * The cache admits by frequency (TinyLFU, core/cache_admission.hh):
 * a pattern's first sighting is planned and served but not kept, so
 * a scan of one-shot patterns leaves the resident set alone; a
 * pattern becomes resident on its second sighting, and once the cache
 * is full only when its estimated frequency beats that of a resident
 * drawn at random, which it then evicts.
 */

#ifndef SRBENES_CORE_ROUTER_HH
#define SRBENES_CORE_ROUTER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/sync.hh"
#include "common/thread_annotations.hh"
#include "core/cache_admission.hh"
#include "core/fast_engine.hh"
#include "core/fast_kernels.hh"
#include "core/route_outcome.hh"
#include "core/self_routing.hh"
#include "core/setup_engine.hh"
#include "obs/metrics.hh"

namespace srbenes
{

/** How a plan will drive the fabric. */
enum class RouteStrategy
{
    SelfRouting, //!< one pass, Fig. 3 rule only
    OmegaBit,    //!< one pass, stages 0..n-2 forced
    TwoPass,     //!< two self-routed passes
    Waksman,     //!< one pass, externally loaded states
};

const char *routeStrategyName(RouteStrategy s);

/**
 * The plan cache's hash of a request's tags: the kernel table's keyed
 * stripe hash (KernelTable::hashTags) over @p count tag words, under
 * this process's serving key. The producer, the worker, the resilient
 * layer and every Router lookup share it, so one pattern has one key.
 */
Hash128 hashTags128(const Word *tags, Word count);

/** hashTags128 over @p d's destination vector. */
Hash128 hashPermutation128(const Permutation &d);

/**
 * The serving hash key: drawn from getrandom once per process, at
 * first use, and never logged or exported. With the key unknown, a
 * tenant cannot craft a pattern whose hash matches another tenant's
 * resident plan and so replace it (planCached replaces an entry on a
 * key match); the identity check stops any misroute regardless.
 */
const HashKey &servingHashKey();

/**
 * An immutable, reusable routing plan for one permutation: what a
 * served request reads, and nothing else. Its one table holds 16-bit
 * lanes (a Router's n is at most FastEngine::kMaxN = 16), so every
 * plan at one n has the same size, sizeof(RoutePlan) plus 2N bytes.
 * The TwoPass factors and the Waksman states are verified at
 * planning time and then dropped; the resilient layer, the one
 * reader of either, re-derives them from the permutation (both
 * setups are deterministic).
 */
struct RoutePlan
{
    RouteStrategy strategy;
    /**
     * The verified lane mapping: output j gathers input src[j]. Every
     * strategy realizes the planned permutation d exactly, so this is
     * d's inverse; it is built once at planning time, after the tag
     * pass (both factor passes for TwoPass, the forced-state pass for
     * Waksman) has confirmed that every tag reached home. It is also
     * a cache hit's identity check: tags equal d exactly when
     * tags[src[j]] == j for every j (KernelTable::matchesInverse).
     */
    std::vector<std::uint16_t> src;
};

/** The plan tier's counters, as returned by cacheStats(). */
struct CacheStats
{
    std::size_t size = 0;
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    /** Each miss's fate: inserted, dropped as the key's first
     *  sighting in the window, or dropped because the full cache's
     *  drawn resident was estimated at least as frequent. They sum
     *  to misses. */
    std::size_t admitted = 0;
    std::size_t first_sightings = 0;
    std::size_t lost_to_victim = 0;
    /** Resident bytes of the cached plans: the entries times the one
     *  plan size. */
    std::size_t bytes = 0;
};

class Router
{
  public:
    /**
     * @param prefer_waksman resolve non-F/non-Omega permutations
     *        with a single externally-set pass instead of two
     *        self-routed ones.
     * @param plan_cache_capacity distinct recurring patterns kept
     *        hot across all shards; 0 disables the cache.
     * @param cache_shards independent cache shards; lookups take one
     *        shard's reader lock only, so K threads with disjoint
     *        working sets never serialize. Clamped to
     *        [1, capacity] when the cache is enabled.
     * @param metrics registry receiving this router's instruments
     *        (plan-cache hits, misses, evictions and admission
     *        outcomes, the resident-byte gauge, cold-plan counts and
     *        latency by strategy).
     *        nullptr disables instrumentation; the default is the
     *        process-global registry.
     * @param plan_cache_bytes resident-byte budget across all
     *        shards. Every plan at one n has one size, so a nonzero
     *        budget is the entry capacity it implies: the cache holds
     *        min(plan_cache_capacity, plan_cache_bytes / plan size)
     *        plans, and a budget below one plan disables the cache.
     *        0 leaves plan_cache_capacity as the only limit.
     */
    explicit Router(unsigned n, bool prefer_waksman = false,
                    std::size_t plan_cache_capacity = 64,
                    unsigned cache_shards = 8,
                    obs::MetricsRegistry *metrics =
                        obs::defaultRegistry(),
                    std::size_t plan_cache_bytes = 0);

    /** The scalar reference over the same B(n), which the resilient
     *  layer simulates faults on. It holds n alone: B(n)'s wiring is
     *  computed, not tabled. */
    const SelfRoutingBenes &fabric() const noexcept { return net_; }
    const FastEngine &engine() const noexcept { return engine_; }
    /** The bit-sliced cold-plan engine all planning goes through. */
    const SetupEngine &setupEngine() const noexcept { return setup_; }

    /** Plan the cheapest strategy for @p d. */
    RoutePlan plan(const Permutation &d) const;

    /**
     * Plan through the sharded plan cache: a resident pattern
     * returns the cached plan without re-classifying or re-routing.
     * A miss always plans and returns the plan, but the cache keeps
     * it only from the pattern's second sighting on (see the file
     * comment). Thread-safe; hits take one shard's reader lock only.
     * Computes the key and calls the two-argument form.
     */
    std::shared_ptr<const RoutePlan>
    planCached(const Permutation &d) const;

    /**
     * planCached with the key precomputed: @p key must be
     * hashPermutation(d) (equivalently hashPermutation128(d).lo), so
     * a caller that already hashed the pattern does not hash it
     * again. A hit is findCached(d, key). A miss counts one sighting
     * of @p key, plans, and inserts the plan only when the sighting
     * is not the key's first in the sketch's window and, with the
     * cache full, the key's estimate beats that of one resident drawn
     * at random, which it then evicts. Otherwise the plan is dropped
     * once the caller lets it go.
     */
    std::shared_ptr<const RoutePlan>
    planCached(const Permutation &d, std::uint64_t key) const;

    /**
     * The resident plan for the @p count tag words at @p tags under
     * @p key (hashTags128(tags, count).lo), or null; never plans, so
     * a miss changes neither the cache, nor its miss count, nor the
     * admission sketch: the planCached that follows a producer's miss
     * counts the request's one sighting. Identity is confirmed
     * through the plan's gather table, never by the key alone: @p count
     * must be the plan's N, and tags[src[j]] must equal j for every j,
     * each tag word compared whole (KernelTable::matchesInverse). The
     * indices come from the plan, so only tags[0, count) is read, each
     * word once. Plans are made only from validated permutations, so
     * a hit proves the words are one: a caller may look up words it
     * has not validated, and validate only a miss. A hit counts a hit
     * and a sighting, exactly like planCached's hit, and writes
     * nothing under the lock. Thread-safe; takes one shard's reader
     * lock.
     */
    std::shared_ptr<const RoutePlan>
    findCached(const Word *tags, Word count, std::uint64_t key) const;

    /** findCached over @p d's destination vector. */
    std::shared_ptr<const RoutePlan>
    findCached(const Permutation &d, std::uint64_t key) const;

    /** The plan-cache key: the low 64 bits of hashPermutation128. */
    static std::uint64_t hashPermutation(const Permutation &d);

    /** Move a data vector along a previously computed plan. */
    std::vector<Word> execute(const RoutePlan &plan,
                              const std::vector<Word> &data) const;

    /**
     * Allocation-free execute: one gather through plan.src into
     * @p out, reusing its capacity.
     */
    void executeInto(const RoutePlan &plan,
                     const std::vector<Word> &data,
                     std::vector<Word> &out) const;

    /**
     * Convenience: cached plan + execute in one call, answering in
     * the unified value-or-error taxonomy (core/route_outcome.hh).
     * A healthy Router can plan every permutation, so the outcome is
     * always ok with tier Primary — the shared signature is what the
     * resilient layer and the network adapters build on.
     */
    RouteOutcome routeOutcome(const Permutation &d,
                              const std::vector<Word> &data) const;

    /** @{ Plan-cache introspection (for tests and telemetry). */
    std::size_t planCacheSize() const;
    std::size_t planCacheHits() const;
    std::size_t planCacheMisses() const;
    std::size_t planCacheEvictions() const;
    /** Resident bytes of all cached plans: their count times the one
     *  plan size. */
    std::size_t planCacheBytes() const;
    std::size_t planCacheByteBudget() const noexcept
    {
        return cache_bytes_budget_;
    }
    /** Entries the cache holds: the capacity argument, lowered to
     *  what a nonzero byte budget implies. */
    std::size_t planCacheCapacity() const noexcept
    {
        return cache_capacity_;
    }
    std::size_t planCacheShards() const noexcept
    {
        return shards_.size();
    }
    /** The tier's size, hits, misses, evictions and miss fates. */
    CacheStats cacheStats() const;
    /** Drop every plan, zero the counters and forget every
     *  sighting. */
    void clearPlanCache() const;
    /** @} */

  private:
    /**
     * One lock stripe: a read-mostly hash -> plan map, and beside it
     * the entries' keys in one contiguous array, from which an
     * eviction draws its victim. Hits take only the shard's reader
     * lock and write nothing under it; inserts and removals take the
     * writer lock.
     */
    struct CacheShard
    {
        struct Entry
        {
            Entry(std::shared_ptr<const RoutePlan> p, std::uint32_t s)
                : plan(std::move(p)), slot(s)
            {
            }
            std::shared_ptr<const RoutePlan> plan;
            /** This entry's index in the shard's keys. */
            std::uint32_t slot;
        };
        using Map = std::unordered_map<std::uint64_t, Entry>;
        mutable SharedMutex mu;
        Map map SRB_GUARDED_BY(mu);
        /** keys[e.slot] is entry e's key, and only its. */
        std::vector<std::uint64_t> keys SRB_GUARDED_BY(mu);

        /** Remove @p it and its key; the last key fills the gap. */
        void erase(Map::iterator it) SRB_REQUIRES(mu);
    };

    CacheShard &shardFor(std::uint64_t hash) const;
    RoutePlan planImpl(const Permutation &d) const;
    /** A resident entry, named by its shard and key. */
    struct Victim
    {
        CacheShard *shard = nullptr;
        std::uint64_t key = 0;
    };
    /** One resident drawn at random, or none when the tier is
     *  empty. */
    Victim drawVictim() const;
    /** A miss's fate: the outcome label of
     *  srbenes_router_plan_cache_admissions_total. */
    enum class Admission
    {
        Admitted,
        FirstSighting,
        LostToVictim,
    };
    /** The fate of a miss on @p key; @p seen is whether the sketch
     *  had already seen the key in its window. A full cache's drawn
     *  resident, whose estimate the key was compared with, is left in
     *  @p victim. */
    Admission admission(std::uint64_t key, bool seen,
                        Victim &victim) const;
    /** Evict drawn residents until the cache fits its capacity,
     *  @p v (when set) first. */
    void evictPastCapacity(Victim v) const;

    SelfRoutingBenes net_;
    FastEngine engine_;
    SetupEngine setup_;
    bool prefer_waksman_;
    /** Resident bytes of any one plan at this n: sizeof(RoutePlan)
     *  plus src, 2 bytes a line. */
    std::size_t plan_bytes_;
    std::size_t cache_bytes_budget_;
    std::size_t cache_capacity_;
    mutable std::vector<std::unique_ptr<CacheShard>> shards_;
    /** Sightings of every key looked up: the admission gate. */
    mutable AdmissionSketch sketch_;
    /** Victim draws so far; mixed, each picks a fresh resident. */
    mutable sync::Atomic<std::uint64_t> draws_{0};

    /** @{ Observability (obs/metrics.hh); null when disabled. */
    obs::MetricsRegistry *metrics_;
    /** The tier's instruments: registry-served counters, one set per
     *  Router. */
    obs::Counter *hits_ = nullptr;
    obs::Counter *misses_ = nullptr;
    obs::Counter *evictions_ = nullptr;
    /** srbenes_router_plan_cache_admissions_total, by Admission. */
    obs::Counter *admissions_[3] = {};
    /** Resident plan bytes, one plan's worth per insert or erase. */
    obs::Gauge *resident_bytes_ = nullptr;
    /** Each cold plan is recorded once, by the strategy that won:
     *  its count here and its latency in setup_ns_by_strategy_. */
    obs::Counter *plans_by_strategy_[4] = {};
    obs::Histogram *setup_ns_by_strategy_[4] = {};
    /** @} */
};

} // namespace srbenes

#endif // SRBENES_CORE_ROUTER_HH
