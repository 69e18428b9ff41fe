/**
 * @file
 * The benchmark's workloads: seeded request sequences over srbd's
 * wire format. Each request is a pre-encoded Submit frame plus the
 * SubmitResult bytes srbd must answer with, both produced once per
 * pattern by net::encode so the per-request generator work is an id
 * patch, a write and a byte compare.
 *
 *   hot8    n=8,  16 uniformly random non-F patterns in rotation
 *   cold12  n=12, a fresh uniformly random permutation per request
 *           (one of 4096! equally likely, so none repeats in a run)
 *   zipf10  n=10, Zipf(s=1) popularity over 4096 patterns, half of
 *           them F members, mixed across popularity ranks
 */

#ifndef SRBENCH_WORKLOAD_HH
#define SRBENCH_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/prng.hh"
#include "perm/permutation.hh"

namespace srbench
{

enum class Kind
{
    Hot,
    Cold,
    Zipf,
};

struct WorkloadSpec
{
    const char *name;
    Kind kind;
    unsigned n;
    /** Requests in flight in the load phase. */
    unsigned window;
    /** Untimed requests sent (windowed) before the timed phases. */
    std::size_t warm_requests;
};

/** The spec named @p name, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Byte offsets inside an encoded frame (see net/protocol.hh). */
constexpr std::size_t kFrameIdOffset = 5;     //!< u64 id, both types
constexpr std::size_t kResultStatusOffset = 13; //!< u8 status, u8 tier
constexpr std::size_t kResultServerNsOffset = 15;
constexpr std::size_t kResultCountOffset = 23; //!< u32 count, payload

/** One routable pattern as it travels on the wire. */
struct Pattern
{
    /** Encoded Submit frame with id 0 (patched per request). */
    std::vector<std::uint8_t> submit;
    /** Encoded Ok SubmitResult carrying the routed payload, with id
     *  and server_ns 0 (the two fields a compare skips). */
    std::vector<std::uint8_t> expect;
    /** Generated as an F(n) member (zipf10's pool only). */
    bool f_member = false;
};

/**
 * The seeded request sequence of one workload. Equal seeds give
 * equal sequences; next() walks it. Pools are built by the
 * constructor (so srbd must already be running: the daemon is
 * spawned from a small parent).
 */
class Workload
{
  public:
    Workload(const WorkloadSpec &spec, std::uint64_t seed);

    const WorkloadSpec &spec() const { return spec_; }

    /**
     * The next request's pattern. A cold pattern is built here, so
     * callers stamp send times after this returns.
     */
    std::shared_ptr<const Pattern> next();

    /** Pool size (0 for cold12). */
    std::size_t poolSize() const { return pool_.size(); }
    const Pattern &poolPattern(std::size_t i) const { return *pool_[i]; }

  private:
    std::shared_ptr<Pattern> makePattern(const srbenes::Permutation &d,
                                         bool f_member) const;
    srbenes::Permutation randomNonF();

    WorkloadSpec spec_;
    srbenes::Prng prng_;
    std::vector<srbenes::Word> payload_;
    std::vector<std::shared_ptr<Pattern>> pool_;
    /** zipf10: cumulative popularity of ranks 1..pool size. */
    std::vector<double> zipf_cdf_;
    std::uint64_t next_ = 0;
};

/** The permutation carried by an encoded Submit frame, if it decodes. */
std::optional<srbenes::Permutation>
framePermutation(const std::vector<std::uint8_t> &submit);

/** 64-bit digest of the first @p count Submit frames of a sequence. */
std::uint64_t sequenceDigest(const WorkloadSpec &spec, std::uint64_t seed,
                             std::size_t count);

} // namespace srbench

#endif // SRBENCH_WORKLOAD_HH
