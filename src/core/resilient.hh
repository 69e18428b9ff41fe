/**
 * @file
 * Fault-tolerant routing service: the degraded-mode serving layer.
 *
 * The paper's testability story (Section IV: a small destination-tag
 * test set detects any single stuck-at fault) and its setup
 * non-uniqueness (the Waksman looping algorithm's free choices) are
 * POLICY, not mechanism. This module turns them into a serving
 * layer: a ResilientRouter wraps the planning Router and keeps
 * serving verified permutations while a switch is stuck, walking a
 * degraded-mode fallback chain.
 *
 *   Primary  the planned fast strategy, run through the (possibly
 *            faulty) fabric with per-request output-tag
 *            verification;
 *   Reroute  an externally set pass whose decomposition is PINNED so
 *            the suspect switch's loaded state equals its stuck
 *            value — the fault becomes a don't-care and the pass
 *            routes exactly (waksmanSetupPinned);
 *   TwoPass  re-factored D = P1 o P2 drawn from fresh looping seeds
 *            until both tag-driven passes verify on the faulty
 *            fabric (twoPassPlanSeeded);
 *   Failed   fail-fast with a structured fault_detected error
 *            naming the diagnosed suspects.
 *
 * The honesty invariant: serving decisions read ONLY observable
 * signals — the output tags of each pass (the fabric carries
 * destination tags by construction, so tag verification is the
 * software analogue of an output-side comparator) and the
 * probe-and-diagnose results of faults.hh. Injected faults model the
 * hardware; the serving layer never peeks at them. A faulty fabric
 * is therefore DETECTED or routed around, never silently wrong.
 *
 * Health tracking: probe() runs the cached detection test set,
 * compares observed tags against healthy references, localizes
 * mismatches with diagnoseSingleFault, and publishes a per-switch
 * scoreboard (gauges created lazily per suspect switch, so a healthy
 * fleet exports one boolean and two totals).
 */

#ifndef SRBENES_CORE_RESILIENT_HH
#define SRBENES_CORE_RESILIENT_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/prng.hh"
#include "common/thread_annotations.hh"
#include "core/faults.hh"
#include "core/router.hh"
#include "core/two_pass.hh"
#include "core/waksman.hh"
#include "obs/metrics.hh"

namespace srbenes
{

/** One switch's standing in the health scoreboard. */
enum class SwitchHealth : std::uint8_t
{
    Healthy = 0, //!< consistent with every probe so far
    Suspect,     //!< in the latest diagnosis candidate set
};

const char *switchHealthName(SwitchHealth h) noexcept;

/** What one health probe observed. */
struct ProbeReport
{
    bool healthy = false;       //!< every test's tags matched
    std::size_t tests_run = 0;
    std::size_t tests_mismatched = 0;
    /** Behaviorally-equivalent single-fault candidates (empty when
     *  healthy, or when the evidence fits no single-fault model). */
    std::vector<StuckFault> suspects;
    /** Scoreboard generation in effect after this probe (bumped
     *  only when the published picture changed). */
    std::uint64_t epoch = 0;
};

/** Tuning knobs; the defaults serve small fabrics sensibly. */
struct ResilientOptions
{
    /** Serve the Primary tier this many requests between automatic
     *  re-probes of a believed-faulty fabric; 0 = probe only
     *  on-demand and on a Primary-tier verification failure. */
    std::uint64_t probe_every = 0;
    /** Pinned/seeded decompositions tried by the Reroute tier. 16
     *  keeps multi-fault fabrics servable: with two faults the
     *  diagnosis pins nothing and each unpinned seed must make BOTH
     *  stuck states don't-cares (~1/4 joint odds per draw). */
    unsigned reroute_seeds = 16;
    /** Fresh factorizations tried by the TwoPass tier. */
    unsigned two_pass_seeds = 8;
    /** Full fallback-chain re-runs after a transient failure (a
     *  probe ran between attempts, so attempt k+1 sees a fresher
     *  suspect set than attempt k). */
    unsigned max_retries = 1;
    /** Forwarded to the inner planning Router. */
    bool prefer_waksman = false;
    std::size_t plan_cache_capacity = 64;
    unsigned cache_shards = 8;
    /** Degraded-plan cache entries (verified Reroute states /
     *  TwoPass factorizations keyed by permutation hash, invalidated
     *  by probe epoch); 0 disables. */
    std::size_t degraded_cache_capacity = 64;
    /** Seed of the deterministic test-set construction. */
    std::uint64_t probe_prng_seed = 0x5eed5eed5eedULL;
    /** Instrument registry; nullptr disables instrumentation. */
    obs::MetricsRegistry *metrics = obs::defaultRegistry();
};

/** Monotonic serving totals, snapshot by stats(). */
struct ResilientStats
{
    std::uint64_t serves_primary = 0;
    std::uint64_t serves_reroute = 0;
    std::uint64_t serves_two_pass = 0;
    std::uint64_t failures_fault = 0;
    std::uint64_t failures_deadline = 0;
    std::uint64_t probes = 0;
    std::uint64_t retries = 0;
    std::uint64_t degraded_cache_hits = 0;
};

/**
 * The serving facade. Thread-safe: route() and probe() may race with
 * fault injection from other threads; the scoreboard and the fault
 * overlay sit behind one reader-writer lock and the counters are the
 * sharded obs primitives.
 */
class ResilientRouter
{
  public:
    explicit ResilientRouter(unsigned n,
                             ResilientOptions opts = {});

    const Router &router() const noexcept { return router_; }
    const SelfRoutingBenes &fabric() const noexcept
    {
        return router_.fabric();
    }
    Word numLines() const noexcept { return fabric().numLines(); }
    const ResilientOptions &options() const noexcept { return opts_; }

    /** @{
     * Chaos interface: model a hardware stuck-at fault. The serving
     * path treats these as the OPAQUE fabric — they shape observed
     * tags but are never read by routing decisions (see the file
     * comment's honesty invariant).
     */
    void injectFault(const StuckFault &fault);
    void clearFaults();
    std::vector<StuckFault> injectedFaults() const;
    /** @} */

    /**
     * Run the detection test set through the fabric, diagnose any
     * mismatch, and publish a new scoreboard generation. On-demand
     * here; route() also calls it when Primary verification fails on
     * a believed-healthy fabric, and every probe_every serves while
     * the fabric is believed faulty.
     */
    ProbeReport probe() const;

    /**
     * Serve @p data along @p d through the fallback chain. The
     * outcome is tag-verified whichever tier produced it; failures
     * carry the structured taxonomy of core/route_outcome.hh.
     *
     * @param deadline_ns absolute obs::monotonicNs() deadline; 0 =
     *        none. Checked between tier attempts (a started fabric
     *        pass always finishes).
     */
    RouteOutcome route(const Permutation &d,
                       const std::vector<Word> &data,
                       std::uint64_t deadline_ns = 0) const;

    /** @{ Scoreboard introspection. */
    SwitchHealth switchHealth(unsigned stage, Word sw) const;
    std::vector<StuckFault> suspects() const;
    bool believedHealthy() const;
    std::uint64_t probeEpoch() const;
    /** @} */

    ResilientStats stats() const;

  private:
    struct DegradedEntry
    {
        DegradedEntry(std::uint64_t ep, ServeTier t, const Permutation &d);
        std::uint64_t epoch;
        ServeTier tier;
        /** The pattern's inverse in 16-bit lanes, as a RoutePlan's src
         *  holds it (2N bytes, not the 8N of its 64-bit tags): a
         *  lookup confirms its tags with the plan tier's identity
         *  check, tags[src[j]] == j, so no key alone is identity. */
        std::vector<std::uint16_t> src;
        std::shared_ptr<const SwitchStates> states;  //!< Reroute
        std::shared_ptr<const TwoPassPlan> two_pass; //!< TwoPass
    };

    /** One full walk of the fallback chain; @p deadline_ns as in
     *  route(). */
    RouteOutcome serveOnce(const Permutation &d,
                           const std::vector<Word> &data,
                           std::uint64_t deadline_ns) const;

    /** @{ Tier attempts; @p hw is the injected-fault snapshot fed to
     *  the fabric simulation (the modeled hardware, not a serving
     *  input — results are judged by tags alone). */
    RouteOutcome tryPrimary(const Permutation &d,
                            const std::vector<Word> &data,
                            const std::vector<StuckFault> &hw) const;
    RouteOutcome tryReroute(const Permutation &d,
                            const std::vector<Word> &data,
                            const std::vector<StuckFault> &hw,
                            const std::vector<StuckFault> &suspect,
                            std::uint64_t deadline_ns) const;
    RouteOutcome tryTwoPass(const Permutation &d,
                            const std::vector<Word> &data,
                            const std::vector<StuckFault> &hw,
                            std::uint64_t deadline_ns) const;
    /** @} */

    /** Verified degraded plan at @p epoch, or nullptr. Entries are
     *  stored and looked up under one key, @p hash =
     *  Router::hashPermutation(d). */
    std::shared_ptr<const DegradedEntry>
    degradedLookup(std::uint64_t hash, std::uint64_t epoch) const;
    void degradedStore(std::uint64_t hash,
                       std::shared_ptr<const DegradedEntry> e) const;

    /** Publish a probe's verdict. @p healthy is the OBSERVED fabric
     *  health (all test tags matched), which can disagree with
     *  @p suspects being empty: a multiple-fault fabric fits no
     *  single-fault model, so diagnosis comes back empty while the
     *  fabric is demonstrably sick. The epoch advances only when the
     *  published picture actually changes, so a stable fault keeps
     *  degraded-plan cache entries valid across re-probes. */
    void publishScoreboard(const std::vector<StuckFault> &suspects,
                           bool healthy) const SRB_REQUIRES(mu_);

    /** Build tests_/healthy_tags_ on the first probe. Lazy because
     *  the greedy cover costs O(tests x faults x pass) — far more
     *  than a healthy serve, which never needs it. */
    void ensureTests() const;

    ResilientOptions opts_;
    Router router_;
    /** Detection test set and its healthy reference tags, built once
     *  on first use (deterministic in probe_prng_seed) and immutable
     *  afterwards; tests_once_ publishes them. */
    mutable std::once_flag tests_once_;
    mutable std::vector<Permutation> tests_;
    mutable std::vector<std::vector<Word>> healthy_tags_;

    mutable SharedMutex mu_;
    std::vector<StuckFault> faults_ SRB_GUARDED_BY(mu_);
    /** [stage][switch] scoreboard of the latest probe generation;
     *  mutable because probing is logically read-only serving work. */
    mutable std::vector<std::vector<SwitchHealth>> health_
        SRB_GUARDED_BY(mu_);
    mutable std::vector<StuckFault> suspects_ SRB_GUARDED_BY(mu_);
    mutable std::uint64_t epoch_ SRB_GUARDED_BY(mu_) = 0;
    mutable bool believed_healthy_ SRB_GUARDED_BY(mu_) = true;

    mutable Mutex degraded_mu_;
    mutable std::unordered_map<
        std::uint64_t, std::shared_ptr<const DegradedEntry>>
        degraded_ SRB_GUARDED_BY(degraded_mu_);

    /** Primary serves since the last probe (probe_every pacing). */
    mutable std::atomic<std::uint64_t> serves_since_probe_{0};

    /** @{ Monotonic totals behind stats(); obs mirrors optional. */
    mutable obs::Counter serves_by_tier_[3];
    mutable obs::Counter failures_fault_, failures_deadline_;
    mutable obs::Counter probes_, retries_, degraded_hits_;
    /** @} */

    /** @{ Registry instruments; null when metrics are off. */
    obs::MetricsRegistry *metrics_;
    std::string instance_;
    obs::Counter *m_serves_[4] = {};
    obs::Counter *m_probes_ = nullptr;
    obs::Counter *m_retries_ = nullptr;
    obs::Gauge *m_healthy_ = nullptr;
    obs::Gauge *m_suspect_count_ = nullptr;
    obs::Histogram *m_serve_ns_ = nullptr;
    /** @} */
};

} // namespace srbenes

#endif // SRBENES_CORE_RESILIENT_HH
