/**
 * @file
 * In-process replay of a workload's request sequence through the
 * public calls on srbd's request path, each wrapped in a span:
 *
 *   net.decode      Decoder::feed + next on the Submit frame
 *   perm.validate   Permutation::isValid (srbd's admission check)
 *   perm.construct  the shared Permutation srbd builds per request
 *   stream.hash     hashPermutation128, which srbd's StreamEngine
 *                   producer computes on every request before it
 *                   stamps the engine's start (so outside server_ns)
 *   router.hash     Router::hashPermutation
 *   router.lookup   Router::planCached (a hit, or a cold plan)
 *   fast_engine.gather  Router::executeInto
 *   net.encode      net::encode of the SubmitResult
 *
 * all children of one in-process request span. srbd itself first
 * probes a worker-local plan table (the producer's own below
 * inline_max_n) and reaches the shared Router tier, and so
 * router.hash and router.lookup, only on a local miss: those two
 * spans time the shared tier as if every request reached it, on a
 * Router with srbd's shared-tier options and no local tier in front.
 *
 * First-seen patterns also get reference spans, timed as separate
 * calls after the request span closes: Router::plan (by the strategy
 * it returns), SetupEngine::plan (the tag pass every cold plan tries
 * first), twoPassPlan and the two factor passes, plus one planCached
 * of the now-resident plan. The same request then goes through an
 * in-process StreamEngine with srbd's options; its submit->result
 * time minus the producer hash, lookup and gather is the ring and
 * doorbell handoff.
 */

#ifndef SRBENCH_REPLAY_HH
#define SRBENCH_REPLAY_HH

#include <cstdint>

#include "spans.hh"
#include "workload.hh"

namespace srbench
{

/** Per-request medians (microseconds) and sample counts. */
struct ReplayResult
{
    double decode_us = 0;
    double validate_us = 0;
    double construct_us = 0;
    double stream_hash_us = 0;
    double hash_us = 0;
    double lookup_us = 0;
    double hit_us = 0;
    double plan_two_pass_us = 0;
    double plan_self_routing_us = 0;
    double attempt_us = 0;
    double pass_us = 0;
    double factor_us = 0;
    double gather_us = 0;
    double encode_us = 0;
    double handoff_us = 0;
    /** Recording one request's spans, as a share (%) of the
     *  request's decode-to-encode time. */
    double overhead_pct = 0;
    std::uint64_t requests = 0;
    /** Replayed outputs (in-process or StreamEngine) that differed
     *  from the expected SubmitResult bytes, or failed. */
    std::uint64_t failures = 0;
};

/**
 * Replay @p spec's sequence for @p seed: the warm prefix untimed,
 * then requests until @p budget_ns of wall time is spent. Spans go
 * to @p log with request ids offset by @p request_base.
 */
ReplayResult replayInProcess(const WorkloadSpec &spec, std::uint64_t seed,
                             std::uint64_t budget_ns, SpanLog &log,
                             std::uint64_t request_base);

} // namespace srbench

#endif // SRBENCH_REPLAY_HH
