#include "replay.hh"

#include <memory>
#include <unordered_map>

#include "core/router.hh"
#include "core/stream.hh"
#include "core/two_pass.hh"
#include "net/protocol.hh"
#include "obs/metrics.hh"
#include "perm/f_class.hh"

namespace srbench
{

namespace net = srbenes::net;
using srbenes::obs::monotonicNs;
using srbenes::Permutation;
using srbenes::Word;

namespace
{

/** First-seen patterns that also get the reference plan spans. */
constexpr std::uint64_t kReferenceCap = 128;
/** Seeded extra patterns time each strategy at least this often. */
constexpr std::size_t kReferenceFloor = 32;
/** Bound on replayed requests (and so on span memory). */
constexpr std::uint64_t kMaxRequests = 20000;
/** Requests in flight while the in-process StreamEngine warms. */
constexpr std::uint64_t kWarmWindow = 16;

/** Spans one replayed request records, reference spans aside. */
constexpr std::uint64_t kSpansPerRequest = 11;

struct Samples
{
    std::vector<std::uint64_t> decode, validate, construct, stream_hash,
        hash, lookup, hit, gather, encode, plan_two_pass, plan_self_routing,
        attempt, pass, factor, path, record;
    std::vector<std::int64_t> handoff;
};

/**
 * Keep a result the compiler could otherwise discard untimed: a
 * compiler barrier that reads it (an asm without outputs is never
 * removed).
 */
template <typename T>
void
keep(const T &v)
{
    asm("" : : "r"(&v) : "memory");
}

double
us(double ns)
{
    return ns / 1000.0;
}

/** The reference spans of one first-seen pattern. */
void
referencePlan(const srbenes::Router &router, const Permutation &d,
              std::uint64_t req, std::uint64_t parent, SpanLog &log,
              Samples &smp)
{
    std::uint64_t t0 = monotonicNs();
    const srbenes::RoutePlan rp = router.plan(d);
    std::uint64_t t1 = monotonicNs();
    if (rp.strategy == srbenes::RouteStrategy::SelfRouting) {
        log.add("router.plan.self_routing", t0, t1, req, parent);
        smp.plan_self_routing.push_back(t1 - t0);
    } else if (rp.strategy == srbenes::RouteStrategy::TwoPass) {
        log.add("router.plan.two_pass", t0, t1, req, parent);
        smp.plan_two_pass.push_back(t1 - t0);
    } else {
        log.add("router.plan.other", t0, t1, req, parent);
    }

    const srbenes::SetupEngine &setup = router.setupEngine();
    t0 = monotonicNs();
    const srbenes::FastPlan attempt = setup.plan(d);
    t1 = monotonicNs();
    log.add("setup_engine.attempt", t0, t1, req, parent);
    smp.attempt.push_back(t1 - t0);
    if (rp.strategy != srbenes::RouteStrategy::TwoPass)
        return;

    t0 = monotonicNs();
    const srbenes::TwoPassPlan tp = srbenes::twoPassPlan(router.fabric(), d);
    t1 = monotonicNs();
    log.add("two_pass.factor", t0, t1, req, parent);
    smp.factor.push_back(t1 - t0);

    t0 = monotonicNs();
    const srbenes::FastPlan p1 = setup.plan(tp.first);
    const srbenes::FastPlan p2 =
        setup.plan(tp.second, srbenes::RoutingMode::OmegaBit);
    t1 = monotonicNs();
    log.add("setup_engine.pass", t0, t1, req, parent);
    smp.pass.push_back(t1 - t0);
    keep(attempt);
    keep(p1);
    keep(p2);
}

} // namespace

ReplayResult
replayInProcess(const WorkloadSpec &spec, std::uint64_t seed,
                std::uint64_t budget_ns, SpanLog &log,
                std::uint64_t request_base)
{
    ReplayResult out;
    Samples smp;

    // srbd's options: the defaults its main() keeps (two workers),
    // and the Router its StreamEngine builds for the shared tier.
    srbenes::obs::MetricsRegistry router_metrics;
    srbenes::obs::MetricsRegistry stream_metrics;
    srbenes::StreamOptions so;
    so.workers = 2;
    so.metrics = &stream_metrics;
    const srbenes::Router router(spec.n, so.prefer_waksman,
                                 so.shared_cache_capacity,
                                 so.shared_cache_shards, &router_metrics,
                                 so.shared_cache_bytes);
    srbenes::StreamEngine engine(spec.n, so);
    engine.start();
    srbenes::StreamEngine::Producer &producer = engine.producer(0);

    Workload wl(spec, seed);
    net::Decoder dec;
    net::Message msg;
    std::vector<std::uint8_t> encoded;
    std::vector<Word> routed;
    std::uint64_t stream_id = 0;

    // Expected StreamEngine outputs by request id, checked on poll.
    std::unordered_map<std::uint64_t, std::vector<Word>> want;
    srbenes::StreamResult sres;
    auto check = [&] {
        const auto it = want.find(sres.id);
        if (it == want.end() || !sres.ok() || sres.payload != it->second)
            ++out.failures;
        if (it != want.end())
            want.erase(it);
    };
    auto collect = [&] {
        producer.awaitResult(sres);
        check();
    };
    auto submit = [&](const std::shared_ptr<const Permutation> &perm,
                      const std::vector<Word> &payload,
                      const std::vector<Word> &routed_ok) {
        std::vector<Word> pl = payload;
        want.emplace(++stream_id, routed_ok);
        while (!producer.trySubmit(stream_id, perm, pl))
            collect();
    };

    const net::SubmitMsg *sub = nullptr;
    auto decode = [&](const Pattern &p) {
        dec.feed(p.submit.data(), p.submit.size());
        sub = dec.next(msg) == net::DecodeStatus::Ok
                  ? std::get_if<net::SubmitMsg>(&msg)
                  : nullptr;
    };

    for (std::size_t i = 0; i < spec.warm_requests; ++i) {
        const std::shared_ptr<const Pattern> p = wl.next();
        decode(*p);
        if (sub == nullptr || !Permutation::isValid(sub->dest)) {
            ++out.failures;
            continue;
        }
        auto perm = std::make_shared<const Permutation>(sub->dest);
        const auto plan = router.planCached(*perm);
        router.executeInto(*plan, sub->payload, routed);
        if (producer.inFlight() >= kWarmWindow)
            collect();
        submit(perm, sub->payload, routed);
    }
    while (producer.inFlight() > 0)
        collect();

    std::uint64_t references = 0;
    log.reserve(log.spans().size() + kMaxRequests * kSpansPerRequest);
    const std::uint64_t t_end = monotonicNs() + budget_ns;
    for (std::uint64_t i = 0; i < kMaxRequests && monotonicNs() < t_end;
         ++i) {
        const std::uint64_t req = request_base + i;
        const std::shared_ptr<const Pattern> p = wl.next();
        const std::size_t misses = router.planCacheMisses();

        const std::uint64_t t0 = monotonicNs();
        decode(*p);
        const std::uint64_t t1 = monotonicNs();
        if (sub == nullptr) {
            ++out.failures;
            continue;
        }
        const bool valid = Permutation::isValid(sub->dest);
        const std::uint64_t t2 = monotonicNs();
        if (!valid) {
            ++out.failures;
            continue;
        }
        auto perm = std::make_shared<const Permutation>(sub->dest);
        const std::uint64_t t3 = monotonicNs();
        const srbenes::Hash128 h128 = srbenes::hashPermutation128(*perm);
        const std::uint64_t t4 = monotonicNs();
        keep(h128);
        const std::uint64_t hash = srbenes::Router::hashPermutation(*perm);
        const std::uint64_t t5 = monotonicNs();
        keep(hash);
        const auto plan = router.planCached(*perm);
        const std::uint64_t t6 = monotonicNs();
        router.executeInto(*plan, sub->payload, routed);
        const std::uint64_t t7 = monotonicNs();
        const bool cold = router.planCacheMisses() != misses;
        net::SubmitResultMsg res;
        res.status = net::Status::Ok;
        res.tier = srbenes::ServeTier::Primary;
        res.payload = std::move(routed);
        net::Message reply{std::move(res)};
        encoded.clear();
        const std::uint64_t t8 = monotonicNs();
        net::encode(reply, encoded);
        const std::uint64_t t9 = monotonicNs();
        routed = std::move(std::get<net::SubmitResultMsg>(reply).payload);

        // The spans are recorded after the last stamp, so their cost
        // is in no layer's time; it is timed on its own instead.
        const std::uint64_t root = log.add("request", t0, t9, req);
        log.add("net.decode", t0, t1, req, root);
        log.add("perm.validate", t1, t2, req, root);
        log.add("perm.construct", t2, t3, req, root);
        log.add("stream.hash", t3, t4, req, root);
        log.add("router.hash", t4, t5, req, root);
        log.add("router.lookup", t5, t6, req, root);
        log.add("fast_engine.gather", t6, t7, req, root);
        log.add("net.encode", t8, t9, req, root);
        const std::uint64_t t10 = monotonicNs();
        smp.decode.push_back(t1 - t0);
        smp.validate.push_back(t2 - t1);
        smp.construct.push_back(t3 - t2);
        smp.stream_hash.push_back(t4 - t3);
        smp.hash.push_back(t5 - t4);
        smp.lookup.push_back(t6 - t5);
        smp.gather.push_back(t7 - t6);
        smp.encode.push_back(t9 - t8);
        smp.path.push_back(t9 - t0);
        smp.record.push_back(t10 - t9);
        if (encoded != p->expect)
            ++out.failures;
        ++out.requests;

        if (cold) {
            // The plan is resident now: time one hit on it, then the
            // reference spans of a first-seen pattern.
            const std::uint64_t h0 = monotonicNs();
            const auto again = router.planCached(*perm);
            const std::uint64_t h1 = monotonicNs();
            keep(again);
            log.add("router.hit", h0, h1, req, root);
            smp.hit.push_back(h1 - h0);
            if (references < kReferenceCap) {
                referencePlan(router, *perm, req, root, log, smp);
                ++references;
            }
        } else {
            smp.hit.push_back(t6 - t5);
        }

        // Nothing is in flight here, so the submit cannot shed. The
        // wait is the futex doorbell srbd's loop replaces with an
        // eventfd wakeup.
        std::vector<Word> pl = sub->payload;
        want.emplace(++stream_id, routed);
        const std::uint64_t failed = out.failures;
        const std::uint64_t s0 = monotonicNs();
        const bool submitted = producer.trySubmit(stream_id, perm, pl);
        if (submitted)
            producer.awaitResult(sres);
        const std::uint64_t s1 = monotonicNs();
        if (submitted)
            check();
        else
            ++out.failures;
        log.add("stream.submit_to_result", s0, s1, req, root);
        if (out.failures == failed)
            smp.handoff.push_back(static_cast<std::int64_t>(s1 - s0) -
                                  static_cast<std::int64_t>(t4 - t3) -
                                  static_cast<std::int64_t>(t7 - t5));
    }
    engine.stop();

    // Strategies the workload's own first-seen patterns did not
    // reach are timed on seeded patterns of their class.
    srbenes::Prng ref_prng(seed ^ 0x7ef5eedULL);
    const Word lines = Word{1} << spec.n;
    for (std::size_t k = 0; smp.plan_self_routing.size() < kReferenceFloor &&
                            k < 16 * kReferenceFloor;
         ++k)
        referencePlan(router, srbenes::randomFMember(spec.n, ref_prng), 0, 0,
                      log, smp);
    for (std::size_t k = 0; smp.plan_two_pass.size() < kReferenceFloor &&
                            k < 16 * kReferenceFloor;
         ++k)
        referencePlan(router, Permutation::random(lines, ref_prng), 0, 0, log,
                      smp);

    out.decode_us = us(median(smp.decode));
    out.validate_us = us(median(smp.validate));
    out.construct_us = us(median(smp.construct));
    out.stream_hash_us = us(median(smp.stream_hash));
    out.hash_us = us(median(smp.hash));
    out.lookup_us = us(median(smp.lookup));
    out.hit_us = us(median(smp.hit));
    out.gather_us = us(median(smp.gather));
    out.encode_us = us(median(smp.encode));
    out.plan_two_pass_us = us(median(smp.plan_two_pass));
    out.plan_self_routing_us = us(median(smp.plan_self_routing));
    out.attempt_us = us(median(smp.attempt));
    out.pass_us = us(median(smp.pass));
    out.factor_us = us(median(smp.factor));
    out.handoff_us = us(median(smp.handoff));
    const double path = median(smp.path);
    out.overhead_pct = path > 0 ? 100.0 * median(smp.record) / path : 0;
    return out;
}

} // namespace srbench
