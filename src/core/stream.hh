// srb-lint: modeled — SRB010: concurrency here goes through the
// common/sync.hh shim and is exercised by the srb_model suite.
/**
 * @file
 * Streaming throughput engine: sustained routing of many independent
 * requests, the software analogue of Section IV's observation that a
 * registered B(n) accepts a new N-vector every clock.
 *
 * Shape of the machine:
 *
 *   producers ──SPSC──▶ K worker threads ──SPSC──▶ producers
 *
 *  - Run to completion: a plan-tier hit never leaves the producer
 *    thread. Producer::serveHit does a hit's whole job in one
 *    routine: the deadline check, the lookup in the Router's sharded
 *    plan tier (Router::findCached, keyed by the 128-bit hash the
 *    producer computes once per request), the gather into memory the
 *    caller provides, and the counters — no ring, no doorbell, no
 *    worker wakeup. srbd calls it with a Submit's tag and payload
 *    lanes read in place from its receive buffer and the payload
 *    lanes of a SubmitResult frame reserved in its send buffer, so a
 *    hit copies nothing out and allocates nothing; trySubmit, whose
 *    caller hands it a validated Permutation, calls it with a scratch
 *    vector and stages the result in a bounded queue that tryPoll
 *    drains. For a recurring pattern a lookup and one gather is the
 *    whole request, so a ring round-trip would cost more than the
 *    work.
 *  - A hit is its own validation: srbd looks a Submit up by its tag
 *    lanes as they arrived, before anything validates them. Plans
 *    are made only from validated permutations and the lookup
 *    compares every lane whole, so a hit proves the tags are a
 *    permutation, and the hit builds no Permutation. Only a Submit
 *    that takes a ring is validated (submitMiss, through
 *    Permutation::tryFrom), and a malformed one is refused there,
 *    before a worker sees it.
 *  - Only a miss crosses to a worker: each (producer, worker) pair
 *    owns one lock-free single-producer single-consumer ring for
 *    requests and one for results, so the aggregate is a
 *    multi-producer pipeline with no shared queue and no lock on
 *    the hot path. The worker plans through the same tier
 *    (Router::planCached with the producer's key) and answers
 *    through the result ring.
 *  - A miss is dispatched to the worker chosen by its hash, so two
 *    concurrent misses of one pattern reach one worker and the
 *    second finds the first's plan instead of planning it again.
 *    When that ring is full the request spills once to the next
 *    worker, then sheds. An in-process hit whose result queue is full
 *    takes the same ring path instead of being shed.
 *  - The one plan tier is the Router's: no plan is held outside it
 *    except by a request in flight, so its entry-count and byte
 *    budgets bound every resident plan.
 *  - Execution is one contiguous payload gather through the
 *    runtime-dispatched SIMD kernels: into the caller's memory for a
 *    hit, and on a worker into a thread-owned scratch buffer that is
 *    swapped with the request's payload storage — zero allocation per
 *    request in steady state.
 *
 * Each request carries its submit timestamp; the serving thread
 * stamps completion, so StreamStats reports true submit→complete
 * latency (p50/p99) along with perms/sec and payload GB/s.
 *
 * All accounting lives in an obs::MetricsRegistry
 * (StreamOptions::metrics): per-worker request/hit counters, a
 * submit→complete latency histogram, ring-occupancy gauges, and
 * doorbell wake counts. StreamStats is a merged view over those
 * instruments, and the same series are exportable as Prometheus
 * text or JSON via obs/export.hh. Passing metrics = nullptr turns
 * the instrumentation off (and stats() dark) for baseline runs.
 *
 * Contract: producers must keep polling their results; a worker
 * facing a full result ring waits (backpressure) rather than drop.
 * Call stop() only after draining (received == submitted), or keep
 * polling concurrently while stop() runs.
 */

#ifndef SRBENES_CORE_STREAM_HH
#define SRBENES_CORE_STREAM_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.hh"
#include "core/router.hh"

namespace srbenes
{

class ResilientRouter;

/**
 * Start/stop lifecycle for a component whose running()/stats() are
 * documented readable from any thread: each clock stamp is published
 * BEFORE its flag (release) and read back after it (acquire), so a
 * reader that observes a flag set also observes the stamp that
 * transition certified. This publication protocol regressed once
 * (the stamp's visibility no longer certified by the flag) — the
 * model suite pins it: test_model_mutation re-breaks it under
 * SRBENES_MODEL_MUTATE and asserts srb_model finds the stale-stamp
 * schedule.
 */
class LifecycleStamps
{
  public:
    bool
    started() const
    {
        // order: acquire pairs with markStarted()'s release, so a
        // true return certifies startNs().
        return started_.load(std::memory_order_acquire);
    }

    bool
    stopped() const
    {
        // order: acquire pairs with markStopped()'s release; see
        // started().
        return stopped_.load(std::memory_order_acquire);
    }

    /** Stamp the start clock, then raise the flag. */
    void
    markStarted(std::uint64_t ns)
    {
        // order: stamp relaxed, then flag release (kPublish) — a
        // reader that acquires started() == true sees this stamp.
        start_ns_.store(ns, std::memory_order_relaxed);
        started_.store(true, kPublish);
    }

    void
    markStopped(std::uint64_t ns)
    {
        // order: stamp relaxed, then flag release (kPublish); see
        // markStarted().
        stop_ns_.store(ns, std::memory_order_relaxed);
        stopped_.store(true, kPublish);
    }

    /**
     * Restart the elapsed-time clock (benchmark warmup exclusion).
     * The caller guarantees quiescence; a racing reader sees either
     * the old or the new epoch, both coherent windows.
     */
    void
    restartClock(std::uint64_t ns)
    {
        // order: relaxed; quiescent epoch restart, see above.
        start_ns_.store(ns, std::memory_order_relaxed);
    }

    std::uint64_t
    startNs() const
    {
        // order: relaxed; certified by the acquire in started().
        return start_ns_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    stopNs() const
    {
        // order: relaxed; certified by the acquire in stopped().
        return stop_ns_.load(std::memory_order_relaxed);
    }

  private:
    /**
     * Publication order of the flag stores. SRBENES_MODEL_MUTATE
     * reintroduces the historical regression (flag no longer
     * certifies its stamp) so the mutation suite can prove the
     * model checker catches it; never defined in production builds.
     */
#ifdef SRBENES_MODEL_MUTATE
    // order: deliberately broken publication for the mutation suite.
    static constexpr std::memory_order kPublish =
        std::memory_order_relaxed;
#else
    // order: release publishes the stamp stored just before the
    // flag; pairs with the acquire in started()/stopped().
    static constexpr std::memory_order kPublish =
        std::memory_order_release;
#endif

    sync::Atomic<bool> started_{false};
    sync::Atomic<bool> stopped_{false};
    sync::Atomic<std::uint64_t> start_ns_{0};
    sync::Atomic<std::uint64_t> stop_ns_{0};
};

/**
 * Eventcount doorbell: lets a consumer block (futex, via C++20
 * atomic wait) when its rings run dry, without the classic
 * single-core spin-yield pathology — sched_yield under CFS often
 * returns straight to the caller, burning a whole scheduler quantum
 * before the peer runs. ring() costs two uncontended atomic ops when
 * nobody is waiting.
 */
class Doorbell
{
  public:
    Doorbell() = default;

    /**
     * Test-only: start the sequence counter at @p initial_seq so
     * wraparound schedules (seq_ near its uint64 maximum) are
     * reachable in the model suite without 2^64 rings.
     */
    explicit Doorbell(std::uint64_t initial_seq) : seq_(initial_seq) {}

    /** Wake any sleeper; call after publishing work. */
    void
    ring()
    {
        // order: release publishes the work enqueued before ring();
        // pairs with the acquire loads of seq_ in waitUntil.
        seq_.fetch_add(1, std::memory_order_release);
        // order: acquire pairs with the waiter's seq_cst
        // registration: either this load sees the waiter (notify
        // runs) or the waiter's wait() sees the new seq_.
        if (waiters_.load(std::memory_order_acquire) > 0)
            seq_.notify_all();
    }

    /**
     * waitUntil bounded by an absolute obs::monotonicNs() deadline
     * (0 = unbounded); returns the predicate's final value. C++20
     * atomic wait has no timed variant, so the bounded path
     * sleep-polls at ~50us instead of futex-waiting — timed waits
     * sit on the slow path (deadline-near requests), never in the
     * steady-state throughput loop.
     */
    template <typename Pred>
    bool
    waitUntilFor(Pred pred, std::uint64_t deadline_ns)
    {
        if (deadline_ns == 0) {
            waitUntil(pred);
            return true;
        }
        while (!pred()) {
            if (obs::monotonicNs() >= deadline_ns)
                return pred();
            std::this_thread::sleep_for(
                std::chrono::microseconds(50));
        }
        return true;
    }

    /**
     * Block until @p pred() is true. The predicate is re-evaluated
     * after every ring; spurious wakes are harmless.
     */
    template <typename Pred>
    void
    waitUntil(Pred pred)
    {
        while (!pred()) {
            // order: acquire so state published before the last
            // ring() is visible to the pred() re-check below.
            const std::uint64_t s =
                seq_.load(std::memory_order_acquire);
            if (pred())
                return;
            // order: seq_cst — the registration must be globally
            // ordered against ring()'s seq_ increment, or both
            // sides could miss each other (lost wakeup).
            waiters_.fetch_add(1, std::memory_order_seq_cst);
            if (!pred())
                // order: acquire re-synchronizes with the ring()
                // that advanced seq_ past s.
                seq_.wait(s, std::memory_order_acquire);
            // order: release keeps the deregistration ordered after
            // the wait for ring()'s waiter count check.
            waiters_.fetch_sub(1, std::memory_order_release);
        }
    }

  private:
    sync::Atomic<std::uint64_t> seq_{0};
    sync::Atomic<std::uint32_t> waiters_{0};
};

/**
 * Lock-free single-producer single-consumer ring of fixed
 * power-of-two capacity. tryPush only consumes @p v on success.
 */
template <typename T>
class SpscRing
{
  public:
    explicit SpscRing(std::size_t capacity_pow2)
        : buf_(capacity_pow2), mask_(capacity_pow2 - 1)
    {
    }

    bool
    tryPush(T &&v)
    {
        // order: relaxed; tail_ is producer-owned, this reads our
        // own last store.
        const std::uint64_t t = tail_.load(std::memory_order_relaxed);
        if (t - head_cache_ >= buf_.size()) {
            // order: acquire pairs with the consumer's release
            // store of head_, so the freed slot is really empty.
            head_cache_ = head_.load(std::memory_order_acquire);
            if (t - head_cache_ >= buf_.size())
                return false;
        }
        buf_[t & mask_] = std::move(v);
        // order: release publishes the slot write above before the
        // new tail_; pairs with the consumer's acquire load.
        tail_.store(t + 1, std::memory_order_release);
        return true;
    }

    bool
    tryPop(T &out)
    {
        // order: relaxed; head_ is consumer-owned, this reads our
        // own last store.
        const std::uint64_t h = head_.load(std::memory_order_relaxed);
        if (h == tail_cache_) {
            // order: acquire pairs with the producer's release
            // store of tail_, so the slot contents are visible.
            tail_cache_ = tail_.load(std::memory_order_acquire);
            if (h == tail_cache_)
                return false;
        }
        out = std::move(buf_[h & mask_]);
        // order: release publishes the slot vacancy before the new
        // head_; pairs with the producer's acquire load.
        head_.store(h + 1, std::memory_order_release);
        return true;
    }

    bool
    empty() const
    {
        // order: acquire on both indices so cross-thread pollers
        // (doorbell predicates) see slots published before them.
        return head_.load(std::memory_order_acquire) ==
               tail_.load(std::memory_order_acquire);
    }

    bool
    full() const
    {
        // order: acquire on both indices; see empty().
        return tail_.load(std::memory_order_acquire) -
                   head_.load(std::memory_order_acquire) >=
               buf_.size();
    }

    /** Entries currently queued (approximate under concurrency). */
    std::size_t
    size() const
    {
        return static_cast<std::size_t>(
            // order: acquire on both indices; see empty().
            tail_.load(std::memory_order_acquire) -
            head_.load(std::memory_order_acquire));
    }

  private:
    std::vector<T> buf_;
    std::uint64_t mask_;
    alignas(64) sync::Atomic<std::uint64_t> head_{0}; //!< consumer
    alignas(64) std::uint64_t tail_cache_ = 0;        //!< consumer-owned
    alignas(64) sync::Atomic<std::uint64_t> tail_{0}; //!< producer
    alignas(64) std::uint64_t head_cache_ = 0;        //!< producer-owned
};

/** One routing request in flight. */
struct StreamRequest
{
    std::uint64_t id = 0;
    unsigned producer = 0;
    /** The tags' hash, computed once by the producer; a worker plans
     *  under its low word. */
    Hash128 hash;
    /** The validated pattern. A hit never becomes a request: it is
     *  served on its producer's thread and builds no Permutation. */
    std::shared_ptr<const Permutation> perm;
    std::vector<Word> payload;
    std::uint64_t submit_ns = 0;
    /** Absolute obs::monotonicNs() deadline; 0 = none. Checked when
     *  the request is served (queue expiry) and forwarded to the
     *  resilient serving path. */
    std::uint64_t deadline_ns = 0;
};

/** One completed request. */
struct StreamResult
{
    std::uint64_t id = 0;
    unsigned worker = 0;
    /** Ok: the payload routed into output order. Otherwise: the
     *  ORIGINAL payload handed back unrouted. */
    std::vector<Word> payload;
    /** Why the request failed; Ok on success. */
    RouteErrc status = RouteErrc::Ok;
    /** Tier that served it (resilient path; Primary otherwise). */
    ServeTier tier = ServeTier::Primary;
    std::uint64_t submit_ns = 0;
    std::uint64_t complete_ns = 0;

    bool ok() const { return status == RouteErrc::Ok; }
    std::uint64_t latencyNs() const { return complete_ns - submit_ns; }
};

/** How submitMiss answered. */
enum class SubmitOutcome
{
    /** Served on the producer's thread or queued for a worker: its
     *  result will be pollable. */
    Accepted,
    /** Refused on full rings, the shed-load signal; the payload is
     *  handed back. */
    Shed,
    /** The tags are the wrong size or not a permutation: refused
     *  before the plan tier, which neither serves nor sights it. */
    Malformed,
};

struct StreamOptions
{
    /** Router worker threads (K). */
    unsigned workers = 2;
    /** Producer handles that will submit (fixed up front). */
    unsigned producers = 1;
    /** Requests per (producer, worker) ring, and results per
     *  producer's queue of hits served on its own thread; power of
     *  two. */
    std::size_t ring_capacity = 1024;
    /** Plan-tier (Router plan cache) capacity / shards. 0 disables
     *  the tier: every request then crosses a ring and is planned
     *  afresh by a worker. */
    std::size_t shared_cache_capacity = 512;
    unsigned shared_cache_shards = 8;
    /** Plan-tier resident-byte budget (Router plan_cache_bytes). Every
     *  plan at one n has one size, so a nonzero budget lowers the
     *  tier's capacity to the plans it fits; 0 keeps
     *  shared_cache_capacity as the only limit. */
    std::size_t shared_cache_bytes = 0;
    bool prefer_waksman = false;
    /**
     * Registry receiving the engine's instruments (and, through it,
     * the Router plan tier's). nullptr disables instrumentation
     * and leaves stats() dark — the overhead bench's baseline.
     */
    obs::MetricsRegistry *metrics = obs::defaultRegistry();
    /**
     * Serve every request through this caller-owned resilient
     * router (its fabric size must equal the engine's) instead of
     * the bare fast-path Router: workers walk the degraded-mode
     * fallback chain per request and stamp the serving tier and
     * status into the StreamResult. The engine then builds no
     * Router of its own — plans come from the resilient router's
     * inner one — and every request crosses a ring, since the chain
     * may probe and retry. Must outlive the engine. nullptr = fast
     * path.
     */
    ResilientRouter *resilient = nullptr;
    /**
     * Called on the WORKER thread right after a result becomes
     * pollable for producer p (doorbell already rung). For callers
     * whose producer thread blocks somewhere other than
     * awaitResult — the srbd server sleeps in epoll_wait — this is
     * the hook that turns a completion into an external wakeup
     * (e.g. an eventfd write). Must be cheap and thread-safe.
     * Requests served on the producer thread never notify: serveHit
     * answers its caller directly, and a hit trySubmit serves is
     * pollable before it returns.
     */
    std::function<void(unsigned producer)> result_notify;
};

/**
 * Aggregate accounting over one start()..stop() run — a merged view
 * over the engine's registry instruments, not a separate counter
 * implementation. All zeros when StreamOptions::metrics was null.
 */
struct StreamStats
{
    std::uint64_t requests = 0;
    std::uint64_t payload_words = 0;
    double elapsed_sec = 0;
    double perms_per_sec = 0;
    double payload_gb_per_sec = 0;
    /**
     * Submit→complete latency percentiles, estimated from the
     * merged per-worker log2 histograms (~12% resolution).
     */
    std::uint64_t p50_ns = 0;
    std::uint64_t p99_ns = 0;
    /** Times a worker slept on its doorbell and was woken. */
    std::uint64_t doorbell_wakes = 0;
    /** Submits refused on full rings (the shed-load signal). */
    std::uint64_t sheds = 0;
    /** Plan-tier hits served on their producer's thread. */
    std::uint64_t inline_served = 0;
    /** Requests that expired (queued past their deadline, or the
     *  resilient chain ran out of time). */
    std::uint64_t deadline_expired = 0;
    /** Resilient serves from a fallback tier (not Primary). */
    std::uint64_t degraded = 0;
    /** Requests the resilient chain failed (fault_detected). */
    std::uint64_t route_failures = 0;
    /** The plan tier's counters. */
    CacheStats shared_cache;
};

class StreamEngine
{
  public:
    explicit StreamEngine(unsigned n, StreamOptions opts = {});
    ~StreamEngine();

    StreamEngine(const StreamEngine &) = delete;
    StreamEngine &operator=(const StreamEngine &) = delete;

    unsigned n() const { return router_.engine().n(); }
    Word numLines() const { return router_.engine().numLines(); }
    const Router &router() const { return router_; }
    const StreamOptions &options() const { return opts_; }

    /**
     * The submitting half of the pipeline. Each producer handle is
     * single-threaded: one thread per handle, fixed at construction
     * via StreamOptions::producers.
     */
    class Producer
    {
      public:
        /**
         * Submit the validated pattern @p perm: its tags are narrowed
         * (narrowTags, exact), hashed once (hashTags128) and stamped
         * with the submit time; @p deadline_ns is an ABSOLUTE
         * obs::monotonicNs() instant (0 = none). While this handle's
         * result queue has room, a hit is served right here by
         * serveHit, with the gather into this handle's scratch, and
         * its result staged for tryPoll. Anything else (a miss, a full
         * result queue, a request already past its deadline, or any
         * request to a ResilientRouter engine) is enqueued on the
         * hash-affine worker's ring, spilling once to the next
         * worker. @p perm and @p payload must have N entries (fatal()
         * otherwise); @p payload is consumed only when accepted. True
         * when accepted; false when both rings are full and the
         * request was refused, counted in StreamStats::sheds (the
         * shed-load signal): poll results, then retry. The engine
         * keeps no reference to @p perm once the request's result is
         * pollable.
         */
        bool trySubmit(std::uint64_t id,
                       std::shared_ptr<const Permutation> perm,
                       std::vector<Word> &payload,
                       std::uint64_t deadline_ns = 0);

        /**
         * A plan hit's whole job, on this handle's thread: the
         * deadline check, the lookup (Router::findCached over the N
         * u32 tag lanes at @p tags, under @p hash = their
         * hashTags128), the gather of the N u64 payload lanes at
         * @p payload into the 8N bytes at @p out, and the counters:
         * the hash-affine worker's request count and
         * submit-to-complete latency from @p submit_ns, and
         * srbenes_stream_inline_served_total. Every buffer may sit at
         * any byte alignment, so srbd serves a Submit from its receive
         * buffer straight into a SubmitResult frame it reserved in the
         * send buffer. A null @p payload (a Submit without one)
         * gathers nothing: the identity check already proved the
         * tags. Returns the completion time (obs::monotonicNs()), the
         * result's tier being Primary; or 0, having written nothing,
         * when the pattern is not resident, @p deadline_ns (absolute;
         * 0 = none) has already passed, or the engine serves through
         * a ResilientRouter. Takes no result-queue
         * slot and touches no ring, so it neither counts in
         * submitted() nor allocates.
         */
        std::uint64_t serveHit(const void *tags, const Hash128 &hash,
                               const void *payload, void *out,
                               std::uint64_t submit_ns,
                               std::uint64_t deadline_ns);

        /**
         * The ring half of a submit serveHit did not serve, for a
         * caller that already hashed its tags into @p hash and
         * stamped @p submit_ns (srbd, which copies a missing
         * Submit's tags out of its frame into @p dest): validates
         * @p dest once (Permutation::tryFrom), answering Malformed
         * when it is no permutation of N, and enqueues the request
         * with its hash on the hash-affine worker's ring, spilling
         * once to the next worker, or answering Shed when both rings
         * are full (counted in StreamStats::sheds). @p payload must
         * hold N words and is consumed only when Accepted.
         */
        SubmitOutcome submitMiss(std::uint64_t id, const Hash128 &hash,
                                 std::uint64_t submit_ns,
                                 std::vector<Word> dest,
                                 std::vector<Word> &payload,
                                 std::uint64_t deadline_ns);

        /** Pop one completed result from any worker, if available. */
        bool tryPoll(StreamResult &out);

        /**
         * Block (futex) until a result is available and pop it.
         * Requires received() < submitted(); with nothing in flight
         * this never returns.
         */
        void awaitResult(StreamResult &out);

        /**
         * awaitResult bounded by a RELATIVE timeout: false when no
         * result arrived within @p timeout_ns (the request itself
         * stays in flight — poll again later).
         */
        bool awaitResultFor(StreamResult &out,
                            std::uint64_t timeout_ns);

        std::uint64_t submitted() const { return submitted_; }
        std::uint64_t received() const { return received_; }

        /** Requests submitted but not yet polled back. */
        std::uint64_t inFlight() const { return submitted_ - received_; }

      private:
        friend class StreamEngine;

        /** Serve a hit of the lanes at @p tags into this handle's
         *  scratch and stage its result; false when serveHit did not
         *  serve it or the result queue is full. */
        bool serveInline(std::uint64_t id, const std::uint32_t *tags,
                         const Hash128 &hash, std::uint64_t submit_ns,
                         std::vector<Word> &payload,
                         std::uint64_t deadline_ns);

        /** Push a validated request onto its affine ring, spilling
         *  once, or shed it. */
        SubmitOutcome enqueue(std::uint64_t id, const Hash128 &hash,
                              std::uint64_t submit_ns,
                              std::shared_ptr<const Permutation> perm,
                              std::vector<Word> &payload,
                              std::uint64_t deadline_ns);

        StreamEngine *eng_ = nullptr;
        unsigned index_ = 0;
        unsigned poll_rr_ = 0;
        std::uint64_t submitted_ = 0;
        std::uint64_t received_ = 0;

        /**
         * @{ In-process submits: a scratch vector for a hit's gather,
         * swapped with each served request's payload; and a bounded
         * queue of completed hits drained by tryPoll (ring_capacity
         * slots; null on a ResilientRouter engine). When it is full,
         * hits take the ring path.
         */
        std::vector<Word> scratch_;
        std::unique_ptr<SpscRing<StreamResult>> inline_results_;
        /** @} */
    };

    /** Producer handle @p i (0 <= i < options().producers). */
    Producer &producer(unsigned i);

    /** Launch the K worker threads. */
    void start();

    /**
     * Signal the workers to finish every queued request and join
     * them. Producers must have stopped submitting; results still
     * waiting in completion rings remain pollable after stop().
     */
    void stop();

    bool
    running() const
    {
        // Acquire flag reads (LifecycleStamps); callers on other
        // threads see the transition (stats() is live at any time).
        return life_.started() && !life_.stopped();
    }

    /**
     * Merged accounting over the registry instruments. Counters and
     * latency estimates are live at any time; elapsed time is exact
     * once stop() returned.
     */
    StreamStats stats() const;

    /**
     * Zero the per-worker instruments (counters and latency
     * histograms) and restart the elapsed-time clock, so a benchmark
     * can exclude its warmup phase. The engine must be quiescent:
     * every submitted request drained and no concurrent submissions.
     * Cached plans survive; the plan tier's hit/miss/eviction
     * counters span the engine's whole lifetime.
     */
    void resetStats();

  private:
    struct alignas(64) WorkerState
    {
        std::vector<Word> scratch;
        /** Rung by producers on submit and on result-ring drain. */
        Doorbell bell;

        /** @{ Registry-served instruments; null when metrics off. */
        obs::Counter *requests = nullptr;
        obs::Counter *doorbell_wakes = nullptr;
        obs::Counter *deadline_expired = nullptr;
        obs::Counter *degraded = nullptr;
        obs::Counter *route_failures = nullptr;
        obs::Gauge *queue_depth = nullptr;
        obs::Histogram *latency_ns = nullptr;
        /** @} */
    };

    SpscRing<StreamRequest> &
    submitRing(unsigned producer, unsigned worker)
    {
        return *submit_rings_[std::size_t{producer} * opts_.workers +
                              worker];
    }
    SpscRing<StreamResult> &
    resultRing(unsigned producer, unsigned worker)
    {
        return *result_rings_[std::size_t{producer} * opts_.workers +
                              worker];
    }

    /** The worker a request of hash @p h is affine to. */
    unsigned
    affineWorker(const Hash128 &h) const
    {
        return static_cast<unsigned>(h.hi % opts_.workers);
    }

    void workerMain(unsigned w);
    void process(WorkerState &ws, unsigned w, StreamRequest &req);
    /**
     * A worker's serve of one request off its ring: deadline expiry,
     * resilient chain or planCached and gather into @p ws's scratch,
     * tier and timestamp stamping, counter attribution to @p ws.
     */
    void serve(WorkerState &ws, unsigned w, StreamRequest &req,
               StreamResult &res);

    /**
     * Fast path: the engine owns its Router. Resilient path: plans
     * and serving come from the caller's ResilientRouter and
     * owned_router_ stays empty; router_ then aliases its inner
     * Router (every use is const).
     */
    std::unique_ptr<Router> owned_router_;
    const Router &router_;
    ResilientRouter *resilient_ = nullptr;
    StreamOptions opts_;
    /** Submit refusals on full rings; null when metrics off. */
    obs::Counter *sheds_ = nullptr;
    /** Hits served on a producer thread (serveHit); null when
     *  metrics off. */
    obs::Counter *inline_served_ = nullptr;
    std::vector<std::unique_ptr<SpscRing<StreamRequest>>> submit_rings_;
    std::vector<std::unique_ptr<SpscRing<StreamResult>>> result_rings_;
    /** Rung by workers when they complete a result for producer i. */
    std::vector<std::unique_ptr<Doorbell>> producer_bells_;
    std::vector<Producer> producers_;
    std::vector<std::unique_ptr<WorkerState>> workers_;
    std::vector<std::thread> threads_;
    sync::Atomic<bool> stop_requested_{false};
    /**
     * Lifecycle flags and clock stamps are read by stats() and
     * running() from any thread while the owning thread runs
     * start()/stop()/resetStats(); LifecycleStamps carries the
     * stamp-before-flag publication protocol.
     */
    LifecycleStamps life_;
};

} // namespace srbenes

#endif // SRBENES_CORE_STREAM_HH
