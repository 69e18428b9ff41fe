// srb-lint: modeled — SRB010: concurrency here goes through the
// common/sync.hh shim and is exercised by the srb_model suite.
#include "core/stream.hh"

#include <algorithm>
#include <optional>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "core/resilient.hh"

namespace srbenes
{

namespace
{

std::size_t
ceilPow2(std::size_t v)
{
    std::size_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/** How many requests a worker pops from one ring before moving on. */
constexpr unsigned kBurst = 32;

/** Empty ring scans before a worker blocks on its doorbell. */
constexpr unsigned kIdleSpins = 16;

/** A caller's request vector must hold one entry a line. */
void
requireLines(const char *what, std::size_t size, Word N)
{
    if (size != N)
        fatal("stream request %s size %zu != N = %llu", what, size,
              static_cast<unsigned long long>(N));
}

} // namespace

StreamEngine::StreamEngine(unsigned n, StreamOptions opts)
    : owned_router_(opts.resilient
                        ? nullptr
                        : std::make_unique<Router>(
                              n, opts.prefer_waksman,
                              opts.shared_cache_capacity,
                              opts.shared_cache_shards, opts.metrics,
                              opts.shared_cache_bytes)),
      router_(opts.resilient ? opts.resilient->router()
                             : *owned_router_),
      resilient_(opts.resilient), opts_(opts)
{
    if (opts_.workers == 0)
        fatal("stream engine needs at least one worker");
    if (opts_.producers == 0)
        fatal("stream engine needs at least one producer");
    if (resilient_ && resilient_->numLines() != (Word{1} << n))
        fatal("resilient router N = %llu does not match engine n %u",
              static_cast<unsigned long long>(resilient_->numLines()),
              n);
    opts_.ring_capacity = ceilPow2(std::max<std::size_t>(
        2, opts_.ring_capacity));

    const std::size_t pairs =
        std::size_t{opts_.producers} * opts_.workers;
    submit_rings_.reserve(pairs);
    result_rings_.reserve(pairs);
    for (std::size_t i = 0; i < pairs; ++i) {
        submit_rings_.push_back(
            std::make_unique<SpscRing<StreamRequest>>(
                opts_.ring_capacity));
        result_rings_.push_back(
            std::make_unique<SpscRing<StreamResult>>(
                opts_.ring_capacity));
    }
    producer_bells_.reserve(opts_.producers);
    for (unsigned p = 0; p < opts_.producers; ++p)
        producer_bells_.push_back(std::make_unique<Doorbell>());

    producers_.resize(opts_.producers);
    for (unsigned p = 0; p < opts_.producers; ++p) {
        producers_[p].eng_ = this;
        producers_[p].index_ = p;
        if (!resilient_)
            producers_[p].inline_results_ =
                std::make_unique<SpscRing<StreamResult>>(
                    opts_.ring_capacity);
    }

    workers_.reserve(opts_.workers);
    const std::string inst =
        opts_.metrics ? opts_.metrics->uniqueInstance("stream")
                      : std::string();
    if (opts_.metrics) {
        sheds_ = &opts_.metrics->counter(
            "srbenes_stream_sheds_total", {{"stream", inst}});
        inline_served_ = &opts_.metrics->counter(
            "srbenes_stream_inline_served_total", {{"stream", inst}});
    }
    for (unsigned w = 0; w < opts_.workers; ++w) {
        auto ws = std::make_unique<WorkerState>();
        if (opts_.metrics) {
            obs::MetricsRegistry &reg = *opts_.metrics;
            const obs::Labels labels = {{"stream", inst},
                                        {"worker", std::to_string(w)}};
            ws->requests = &reg.counter(
                "srbenes_stream_requests_total", labels);
            ws->doorbell_wakes = &reg.counter(
                "srbenes_stream_doorbell_wakes_total", labels);
            ws->deadline_expired = &reg.counter(
                "srbenes_stream_deadline_expired_total", labels);
            ws->degraded = &reg.counter(
                "srbenes_stream_degraded_serves_total", labels);
            ws->route_failures = &reg.counter(
                "srbenes_stream_route_failures_total", labels);
            ws->queue_depth = &reg.gauge(
                "srbenes_stream_queue_depth", labels);
            ws->latency_ns = &reg.histogram(
                "srbenes_stream_latency_ns", labels);
        }
        workers_.push_back(std::move(ws));
    }
}

StreamEngine::~StreamEngine()
{
    if (life_.started() && !life_.stopped())
        stop();
}

StreamEngine::Producer &
StreamEngine::producer(unsigned i)
{
    if (i >= producers_.size())
        fatal("producer index %u out of range (%zu handles)", i,
              producers_.size());
    return producers_[i];
}

bool
StreamEngine::Producer::trySubmit(std::uint64_t id,
                                  std::shared_ptr<const Permutation> perm,
                                  std::vector<Word> &payload,
                                  std::uint64_t deadline_ns)
{
    const Word N = eng_->numLines();
    requireLines("permutation", perm->size(), N);
    requireLines("payload", payload.size(), N);
    // The lanes stay in this thread's buffer through the serve, whose
    // lookup narrows nothing.
    const std::uint32_t *tags = narrowTags(*perm);
    const Hash128 hash = hashTags128(tags, N);
    const std::uint64_t submit_ns = obs::monotonicNs();
    return serveInline(id, tags, hash, submit_ns, payload, deadline_ns) ||
           enqueue(id, hash, submit_ns, std::move(perm), payload,
                   deadline_ns) == SubmitOutcome::Accepted;
}

std::uint64_t
StreamEngine::Producer::serveHit(const void *tags, const Hash128 &hash,
                                 const void *payload, void *out,
                                 std::uint64_t submit_ns,
                                 std::uint64_t deadline_ns)
{
    StreamEngine &eng = *eng_;
    // A resilient engine serves every request on a worker, since its
    // chain may probe and retry. A request already past its deadline
    // is not looked up: like every request that reaches a worker
    // expired, it never touches the plan tier. Only a request with a
    // deadline reads the clock for it.
    if (eng.resilient_ ||
        (deadline_ns != 0 && obs::monotonicNs() >= deadline_ns))
        return 0;
    // The lookup compares every tag lane with a plan made from a
    // validated permutation, so a hit is valid by construction and
    // builds no Permutation.
    const std::shared_ptr<const RoutePlan> plan =
        eng.router_.findCached(tags, eng.numLines(), hash.lo);
    if (!plan)
        return 0;
    if (payload != nullptr)
        eng.router_.executeInto(*plan, payload, out);
    const std::uint64_t done = obs::monotonicNs();
    // Counters attribute to the hash-affine worker: its instruments
    // are thread-sharded.
    WorkerState &ws = *eng.workers_[eng.affineWorker(hash)];
    if (ws.requests)
        ws.requests->inc();
    if (ws.latency_ns)
        ws.latency_ns->observe(done - submit_ns);
    if (eng.inline_served_)
        eng.inline_served_->inc();
    return done;
}

bool
StreamEngine::Producer::serveInline(std::uint64_t id,
                                    const std::uint32_t *tags,
                                    const Hash128 &hash,
                                    std::uint64_t submit_ns,
                                    std::vector<Word> &payload,
                                    std::uint64_t deadline_ns)
{
    // Run to completion: a resident plan needs only the gather, so a
    // hit is served on this thread while its result queue has room.
    if (!inline_results_ || inline_results_->full())
        return false;
    scratch_.resize(eng_->numLines());
    const std::uint64_t done = serveHit(tags, hash, payload.data(),
                                        scratch_.data(), submit_ns,
                                        deadline_ns);
    if (done == 0)
        return false;
    StreamResult res;
    res.id = id;
    res.worker = eng_->affineWorker(hash);
    res.payload = std::move(scratch_);
    res.submit_ns = submit_ns;
    res.complete_ns = done;
    // The request's storage is the next hit's scratch: steady state
    // allocates nothing.
    scratch_ = std::move(payload);
    // Cannot fail: full() was false above and this handle is the
    // queue's only pusher.
    if (!inline_results_->tryPush(std::move(res)))
        fatal("inline result queue overflow");
    ++submitted_;
    return true;
}

SubmitOutcome
StreamEngine::Producer::submitMiss(std::uint64_t id, const Hash128 &hash,
                                   std::uint64_t submit_ns,
                                   std::vector<Word> dest,
                                   std::vector<Word> &payload,
                                   std::uint64_t deadline_ns)
{
    const Word N = eng_->numLines();
    requireLines("payload", payload.size(), N);
    // A worker plans only a valid permutation: the words are
    // validated here, once, and a malformed request goes no further.
    std::optional<Permutation> valid = Permutation::tryFrom(std::move(dest));
    if (!valid || valid->size() != N)
        return SubmitOutcome::Malformed;
    return enqueue(id, hash, submit_ns,
                   std::make_shared<const Permutation>(std::move(*valid)),
                   payload, deadline_ns);
}

SubmitOutcome
StreamEngine::Producer::enqueue(std::uint64_t id, const Hash128 &hash,
                                std::uint64_t submit_ns,
                                std::shared_ptr<const Permutation> perm,
                                std::vector<Word> &payload,
                                std::uint64_t deadline_ns)
{
    StreamEngine &eng = *eng_;
    StreamRequest req;
    req.id = id;
    req.producer = index_;
    req.hash = hash;
    req.perm = std::move(perm);
    req.payload = std::move(payload);
    req.submit_ns = submit_ns;
    req.deadline_ns = deadline_ns;

    // The hash-affine worker: two concurrent misses of one pattern
    // reach one worker, so the second finds the first's plan instead
    // of planning it again.
    const unsigned w = eng.affineWorker(hash);
    if (!eng.submitRing(index_, w).tryPush(std::move(req))) {
        // Affine ring full: spill once to the next worker before
        // shedding.
        const unsigned K = eng.opts_.workers;
        const unsigned spill = (w + 1) % K;
        if (K > 1 &&
            eng.submitRing(index_, spill).tryPush(std::move(req))) {
            ++submitted_;
            eng.workers_[spill]->bell.ring();
            return SubmitOutcome::Accepted;
        }
        payload = std::move(req.payload); // hand the storage back
        if (eng.sheds_)
            eng.sheds_->inc();
        return SubmitOutcome::Shed;
    }
    ++submitted_;
    eng.workers_[w]->bell.ring();
    return SubmitOutcome::Accepted;
}

bool
StreamEngine::Producer::tryPoll(StreamResult &out)
{
    StreamEngine &eng = *eng_;
    if (inline_results_ && inline_results_->tryPop(out)) {
        ++received_;
        return true;
    }
    const unsigned K = eng.opts_.workers;
    for (unsigned i = 0; i < K; ++i) {
        const unsigned w = (poll_rr_ + i) % K;
        if (eng.resultRing(index_, w).tryPop(out)) {
            poll_rr_ = (w + 1) % K;
            ++received_;
            // The pop freed result-ring space; a worker may be
            // blocked on it.
            eng.workers_[w]->bell.ring();
            return true;
        }
    }
    return false;
}

void
StreamEngine::Producer::awaitResult(StreamResult &out)
{
    StreamEngine &eng = *eng_;
    while (!tryPoll(out)) {
        eng.producer_bells_[index_]->waitUntil([&] {
            for (unsigned w = 0; w < eng.opts_.workers; ++w)
                if (!eng.resultRing(index_, w).empty())
                    return true;
            return false;
        });
    }
}

bool
StreamEngine::Producer::awaitResultFor(StreamResult &out,
                                       std::uint64_t timeout_ns)
{
    StreamEngine &eng = *eng_;
    const std::uint64_t deadline = obs::monotonicNs() + timeout_ns;
    while (!tryPoll(out)) {
        const bool ready = eng.producer_bells_[index_]->waitUntilFor(
            [&] {
                for (unsigned w = 0; w < eng.opts_.workers; ++w)
                    if (!eng.resultRing(index_, w).empty())
                        return true;
                return false;
            },
            deadline);
        // The handle is single-threaded: only this thread pops its
        // result rings, so a true predicate cannot be stolen.
        if (!ready)
            return tryPoll(out);
    }
    return true;
}

void
StreamEngine::serve(WorkerState &ws, unsigned w, StreamRequest &req,
                    StreamResult &res)
{
    res.id = req.id;
    res.worker = w;
    res.submit_ns = req.submit_ns;

    if (req.deadline_ns != 0 && obs::monotonicNs() >= req.deadline_ns) {
        // Expired before service: hand the payload back unrouted.
        res.status = RouteErrc::DeadlineExceeded;
        res.tier = ServeTier::Failed;
        res.payload = std::move(req.payload);
        if (ws.deadline_expired)
            ws.deadline_expired->inc();
    } else if (resilient_) {
        // Degraded-capable serving: the resilient router verifies
        // every pass by output tags and reports the tier that won.
        RouteOutcome out = resilient_->route(*req.perm, req.payload,
                                             req.deadline_ns);
        if (out) {
            res.tier = out.tier();
            res.payload = out.takeValue();
            if (res.tier != ServeTier::Primary && ws.degraded)
                ws.degraded->inc();
        } else {
            res.status = out.errc();
            res.tier = ServeTier::Failed;
            res.payload = std::move(req.payload);
            if (out.errc() == RouteErrc::DeadlineExceeded) {
                if (ws.deadline_expired)
                    ws.deadline_expired->inc();
            } else if (ws.route_failures) {
                ws.route_failures->inc();
            }
        }
    } else {
        const std::shared_ptr<const RoutePlan> plan =
            router_.planCached(*req.perm, req.hash.lo);
        // Gather into the worker's scratch, then swap storage with
        // the request payload: steady state allocates nothing.
        router_.executeInto(*plan, req.payload, ws.scratch);
        ws.scratch.swap(req.payload);
        res.payload = std::move(req.payload);
    }
    res.complete_ns = obs::monotonicNs();

    if (ws.requests)
        ws.requests->inc();
    if (ws.latency_ns)
        ws.latency_ns->observe(res.latencyNs());
}

void
StreamEngine::process(WorkerState &ws, unsigned w, StreamRequest &req)
{
    StreamResult res;
    serve(ws, w, req, res);
    // The slot is reused for the next request; drop this one's
    // pattern before the result is published, so the caller's
    // reference is the last one once it polls.
    req.perm.reset();

    SpscRing<StreamResult> &ring = resultRing(req.producer, w);
    if (!ring.tryPush(std::move(res))) {
        // Backpressure: block until the producer drains (it rings
        // this worker's bell on every pop). The contract stands:
        // producers must keep polling.
        do {
            ws.bell.waitUntil([&] { return !ring.full(); });
            if (ws.doorbell_wakes)
                ws.doorbell_wakes->inc();
        } while (!ring.tryPush(std::move(res)));
    }
    producer_bells_[req.producer]->ring();
    if (opts_.result_notify)
        opts_.result_notify(req.producer);
}

void
StreamEngine::workerMain(unsigned w)
{
    WorkerState &ws = *workers_[w];
    const unsigned P = opts_.producers;
    unsigned idle = 0;
    StreamRequest req;

    for (;;) {
        bool any = false;
        std::uint64_t depth = 0;
        for (unsigned p = 0; p < P; ++p) {
            SpscRing<StreamRequest> &ring = submitRing(p, w);
            depth += ring.size();
            for (unsigned burst = 0;
                 burst < kBurst && ring.tryPop(req); ++burst) {
                process(ws, w, req);
                any = true;
            }
        }
        if (ws.queue_depth)
            ws.queue_depth->set(static_cast<std::int64_t>(depth));
        if (any) {
            idle = 0;
            continue;
        }
        // order: acquire pairs with stop()'s release store, so
        // every request submitted before stop() is visible to the
        // drain check below.
        if (stop_requested_.load(std::memory_order_acquire)) {
            bool drained = true;
            for (unsigned p = 0; p < P && drained; ++p)
                drained = submitRing(p, w).empty();
            if (drained)
                return;
            continue;
        }
        if (++idle < kIdleSpins)
            continue;
        idle = 0;
        ws.bell.waitUntil([&] {
            // order: acquire; see the drain check above.
            if (stop_requested_.load(std::memory_order_acquire))
                return true;
            for (unsigned p = 0; p < P; ++p)
                if (!submitRing(p, w).empty())
                    return true;
            return false;
        });
        if (ws.doorbell_wakes)
            ws.doorbell_wakes->inc();
    }
}

void
StreamEngine::start()
{
    if (life_.started())
        fatal("stream engine started twice");
    // Stamp-then-flag publication: a stats() that observes
    // started() == true sees this start stamp (LifecycleStamps).
    life_.markStarted(obs::monotonicNs());
    threads_.reserve(opts_.workers);
    for (unsigned w = 0; w < opts_.workers; ++w)
        threads_.emplace_back([this, w] { workerMain(w); });
}

void
StreamEngine::stop()
{
    if (!life_.started() || life_.stopped())
        return;
    // order: release so work published before stop() is visible
    // to workers that observe the flag; pairs with their acquires.
    stop_requested_.store(true, std::memory_order_release);
    for (auto &ws : workers_)
        ws->bell.ring();
    for (std::thread &t : threads_)
        t.join();
    threads_.clear();
    // Stamp-then-flag publication: a stats() that observes
    // stopped() == true reads the final stop stamp, never a stale
    // or torn one (LifecycleStamps).
    life_.markStopped(obs::monotonicNs());
}

void
StreamEngine::resetStats()
{
    // Quiescence (see the header contract) makes this race-free:
    // idle workers never touch their instruments.
    for (auto &ws : workers_) {
        if (ws->requests)
            ws->requests->reset();
        if (ws->doorbell_wakes)
            ws->doorbell_wakes->reset();
        if (ws->deadline_expired)
            ws->deadline_expired->reset();
        if (ws->degraded)
            ws->degraded->reset();
        if (ws->route_failures)
            ws->route_failures->reset();
        if (ws->latency_ns)
            ws->latency_ns->reset();
    }
    if (sheds_)
        sheds_->reset();
    if (inline_served_)
        inline_served_->reset();
    // A stats() racing with the epoch restart sees either the old
    // or the new start — both are coherent windows.
    life_.restartClock(obs::monotonicNs());
}

StreamStats
StreamEngine::stats() const
{
    StreamStats st;
    obs::Histogram::Snapshot lat;
    for (const auto &ws : workers_) {
        if (ws->requests)
            st.requests += ws->requests->value();
        if (ws->doorbell_wakes)
            st.doorbell_wakes += ws->doorbell_wakes->value();
        if (ws->deadline_expired)
            st.deadline_expired += ws->deadline_expired->value();
        if (ws->degraded)
            st.degraded += ws->degraded->value();
        if (ws->route_failures)
            st.route_failures += ws->route_failures->value();
        if (ws->latency_ns)
            lat.merge(ws->latency_ns->snapshot());
    }
    if (sheds_)
        st.sheds = sheds_->value();
    if (inline_served_)
        st.inline_served = inline_served_->value();
    st.payload_words = st.requests * numLines();

    // The acquire flag reads certify the stamps they published
    // (LifecycleStamps' stamp-before-flag protocol).
    const bool stopped = life_.stopped();
    const std::uint64_t end = stopped ? life_.stopNs() : obs::monotonicNs();
    const std::uint64_t begin = life_.startNs();
    if (life_.started() && end > begin)
        st.elapsed_sec = (end - begin) * 1e-9;
    if (st.elapsed_sec > 0) {
        st.perms_per_sec = st.requests / st.elapsed_sec;
        st.payload_gb_per_sec =
            st.payload_words * 8.0 / st.elapsed_sec / 1e9;
    }

    if (lat.count() > 0) {
        st.p50_ns = lat.quantile(0.50);
        st.p99_ns = lat.quantile(0.99);
    }

    st.shared_cache = router_.cacheStats();
    return st;
}

} // namespace srbenes
