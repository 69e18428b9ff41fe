/**
 * @file
 * packet::Fabric -- the Benes wires run as a load-balanced packet
 * switch, in the style of Huang & Walrand's "A Benes Packet
 * Network" (PAPERS.md).
 *
 * The source paper's discipline is circuit-switched: a setup phase
 * (self-routing tags for F members, Waksman otherwise) configures
 * every switch, then a full permutation flows in lockstep. This
 * class keeps the exact same wires but treats each destination tag
 * as a PACKET that routes itself cycle by cycle, which lifts the two
 * restrictions that make circuit mode a poor traffic model:
 *
 *  - the workload no longer has to be a permutation (hot-spots,
 *    bursts, partial and multicast matrices all make sense), and
 *  - nothing has to be known in advance -- packets are offered at
 *    the inputs at any rate and contend for ports on the fly.
 *
 * Operating model (one step() = one cycle, every switch moves at
 * most one packet per input):
 *
 *  - Every switch input port owns a BOUNDED ring queue, allocated
 *    once at construction (no per-cycle allocation anywhere on the
 *    stepping path). Stage-0 rings are the ingress buffers that
 *    offer() fills; their depth is configurable separately.
 *  - In the first n-1 stages ANY output port still leads to every
 *    destination (the closing n stages form an omega-style banyan
 *    that self-routes from any middle line), so port choice there is
 *    a load-balancing decision, not a correctness one. That freedom
 *    is the Huang & Walrand multipath: MidpathPolicy picks randomly,
 *    by least downstream occupancy, or by tag bit (the degenerate
 *    single-path choice, kept for comparison).
 *  - In the last n stages the packet MUST exit on bit controlBit(s)
 *    of its tag; a delivery on the wrong line is a panic(), never a
 *    statistic.
 *  - When the queue a winning packet wants is full, the
 *    ContentionPolicy decides: Backpressure holds the packet in
 *    place (feed-forward wires cannot deadlock, so every packet
 *    eventually arrives), Drop discards it and accounts for it.
 *
 * Accounting is conservation-grade: every offered packet is exactly
 * one of rejected (ingress full), delivered, dropped, or in flight,
 * and stats().conserved checks the books every time it is called.
 * The same tallies are mirrored into an obs::MetricsRegistry
 * (counters, per-stage queue-depth gauges, a per-packet latency
 * histogram) so a live fabric exports through obs/export.hh exactly
 * like Router and StreamEngine; pass metrics = nullptr to run dark.
 */

#ifndef SRBENES_PACKET_FABRIC_HH
#define SRBENES_PACKET_FABRIC_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/prng.hh"
#include "core/topology.hh"
#include "obs/metrics.hh"
#include "perm/permutation.hh"

namespace srbenes
{
namespace packet
{

class TrafficSource;

/** What happens when a packet's next ring is full. */
enum class ContentionPolicy
{
    /** Hold the packet where it is (lossless; stalls accumulate). */
    Backpressure,
    /** Discard the packet and count it (lossy; latency stays flat). */
    Drop,
};

/**
 * How a packet picks its output port in the first n-1 stages, where
 * either port still reaches every destination.
 */
enum class MidpathPolicy
{
    /** The emptier downstream ring, ties broken by coin flip. */
    LeastOccupancy,
    /** Uniform coin flip (Valiant-style randomized balancing). */
    Random,
    /** Bit controlBit(s) of the tag: the single-path baseline of
     *  plain tag routing; no balancing, kept for comparison. */
    TagBits,
};

const char *contentionPolicyName(ContentionPolicy p) noexcept;
const char *midpathPolicyName(MidpathPolicy p) noexcept;

/** Tunables of the packet fabric. */
struct PacketOptions
{
    /** Ring depth per switch input port at stages >= 1 (>= 1).
     *  Eight slots keep the Drop policy loss-free through offered
     *  load 0.3 on uniform traffic at n = 8 (the bench gate). */
    std::size_t queue_capacity = 8;
    /** Ring depth of the stage-0 ingress buffers (>= 1). */
    std::size_t ingress_capacity = 8;
    ContentionPolicy contention = ContentionPolicy::Backpressure;
    MidpathPolicy midpath = MidpathPolicy::LeastOccupancy;
    /** Seed of the fabric's private Prng (midpath coin flips);
     *  equal seeds replay equal schedules. */
    std::uint64_t seed = 0x5eed5eed5eedULL;
};

/**
 * Aggregate accounting, either over the fabric's lifetime (stats())
 * or over one run helper call (the returned value). Tallies are the
 * simulator's own single-threaded bookkeeping -- exact with or
 * without a registry; only the latency percentiles come from the
 * registry histogram and read 0 when metrics is nullptr.
 */
struct FabricStats
{
    std::uint64_t offered = 0;   //!< offer() calls
    std::uint64_t injected = 0;  //!< accepted into an ingress ring
    std::uint64_t rejected = 0;  //!< refused at a full ingress ring
    std::uint64_t delivered = 0; //!< left on their destination line
    std::uint64_t dropped = 0;   //!< discarded in-fabric (Drop)
    std::uint64_t stalls = 0;    //!< head packets that failed to move
    std::uint64_t cycles = 0;    //!< step() calls
    std::uint64_t in_flight = 0; //!< currently queued in any ring
    /** Deepest stage>=1 ring ever observed. */
    std::uint64_t max_occupancy = 0;
    /** Deepest ingress (stage-0) ring ever observed. */
    std::uint64_t max_ingress_occupancy = 0;
    /** offered == injected + rejected and
     *  injected == delivered + dropped + in_flight. */
    bool conserved = false;
    /** @{ Per-packet delay in cycles, exact (min/max/avg) or from
     *  the log2 histogram (p50/p99, ~12% resolution; 0 w/o metrics). */
    double avg_latency = 0.0;
    std::uint64_t min_latency = 0;
    std::uint64_t max_latency = 0;
    std::uint64_t p50_latency = 0;
    std::uint64_t p99_latency = 0;
    /** @} */

    /** Every injected packet delivered (nothing dropped or queued). */
    bool
    allDelivered() const noexcept
    {
        return injected == delivered && dropped == 0 && in_flight == 0;
    }
};

/** One packet handed to a delivery sink. */
struct Delivery
{
    Word dst = 0;     //!< output line it left on (== its tag)
    Word payload = 0; //!< the word it carried
    std::uint64_t latency = 0; //!< cycles from injection, inclusive
};

/**
 * The packet-switched Benes fabric. Single-threaded by design: one
 * step() advances the whole fabric one cycle, so a caller (or a
 * driving loop like run()) owns the clock. All storage is allocated
 * at construction.
 */
class Fabric
{
  public:
    /**
     * Build the fabric for B(n). @p metrics follows the house
     * convention: default the process-global registry, nullptr
     * turns exposition off (the simulation itself stays exact).
     */
    explicit Fabric(unsigned n, PacketOptions opts = {},
                    obs::MetricsRegistry *metrics =
                        obs::defaultRegistry());

    const BenesTopology &topology() const { return topo_; }
    unsigned n() const { return topo_.n(); }
    Word numLines() const { return topo_.numLines(); }
    const PacketOptions &options() const { return opts_; }

    /**
     * Offer one packet at input line @p src for output line @p dst,
     * carrying @p payload. False means the ingress ring is full and
     * the packet was REJECTED (counted; never silently lost). The
     * packet first moves during the next step().
     */
    bool offer(Word src, Word dst, Word payload = 0);

    /** Advance every switch one cycle. */
    void step();

    /** Completed step() count since construction/reset(). */
    std::uint64_t cycle() const { return cycle_; }

    /** Packets currently queued anywhere in the fabric. */
    std::uint64_t inFlight() const { return acct_.in_flight; }

    bool empty() const { return acct_.in_flight == 0; }

    /**
     * step() until the fabric is empty. Feed-forward wires cannot
     * deadlock, so this terminates under both policies; a generous
     * internal cycle bound panic()s if that invariant ever breaks.
     */
    void drainAll();

    /**
     * Sink invoked on every delivery (after the line check). Keep it
     * cheap; pass nullptr (default) for none.
     */
    void setDeliverySink(std::function<void(const Delivery &)> sink);

    /**
     * Empty every ring and restart the cycle clock and the midpath
     * Prng (same seed -> same schedule). Lifetime tallies and
     * registry instruments are monotonic and survive, matching the
     * registry convention everywhere else in the tree.
     */
    void reset();

    /** Lifetime accounting (see FabricStats). */
    FabricStats stats() const;

    /**
     * Run one full-permutation load: packet i carries payload i to
     * d[i]. Requires an empty fabric; injects in one cycle (the
     * ingress rings must hold one packet, always true) and drains.
     * Returns the accounting of THIS run only.
     */
    FabricStats runPermutation(const Permutation &d);

    /**
     * runPermutation carrying @p data, scattering delivered payloads
     * into @p out (resized to N): out[d[i]] = data[i] on a lossless
     * run -- the bit-exact equivalence with Permutation::applyTo.
     * Slots of dropped packets are left at the @p fill value.
     */
    FabricStats runPermutation(const Permutation &d,
                               const std::vector<Word> &data,
                               std::vector<Word> &out,
                               Word fill = ~Word{0});

    /**
     * Drive the fabric from @p source for @p inject_cycles cycles
     * (asking it for arrivals before every step), then drain.
     * Returns the accounting of this run only.
     */
    FabricStats run(TrafficSource &source,
                    std::uint64_t inject_cycles);

  private:
    struct Pkt
    {
        Word dst = 0;
        Word payload = 0;
        std::uint64_t inject_cycle = 0;
    };

    /** Lifetime tallies (single-threaded; mirrored to metrics). */
    struct Accounting
    {
        std::uint64_t offered = 0;
        std::uint64_t injected = 0;
        std::uint64_t rejected = 0;
        std::uint64_t delivered = 0;
        std::uint64_t dropped = 0;
        std::uint64_t stalls = 0;
        std::uint64_t in_flight = 0;
        std::uint64_t max_occupancy = 0;
        std::uint64_t max_ingress_occupancy = 0;
        std::uint64_t lat_sum = 0;
        std::uint64_t lat_min = ~std::uint64_t{0};
        std::uint64_t lat_max = 0;
    };

    std::size_t qIndex(unsigned stage, Word line) const
    {
        return std::size_t{stage} * topo_.numLines() + line;
    }
    std::size_t qCapacity(unsigned stage) const
    {
        return stage == 0 ? opts_.ingress_capacity
                          : opts_.queue_capacity;
    }
    Pkt &slot(std::size_t q, std::uint32_t i)
    {
        return slots_[slot_base_[q] + i];
    }

    bool pushQueue(std::size_t q, unsigned stage, const Pkt &p);
    void popQueue(std::size_t q, unsigned stage);

    /** Move/deliver/drop the head of (stage, 2*sw + in); returns
     *  true when the input consumed its move for this cycle. */
    bool advanceHead(unsigned stage, Word sw, Word in,
                     bool port_used[2]);
    void deliver(unsigned stage, Word out_line, const Pkt &p);

    /** Begin/end-of-run snapshot helpers for the run*() APIs. */
    Accounting snapshot() const { return acct_; }
    FabricStats finishRun(const Accounting &before,
                          std::uint64_t cycles_before,
                          const obs::Histogram::Snapshot &hist_before)
        const;
    obs::Histogram::Snapshot latencySnapshot() const;

    BenesTopology topo_;
    PacketOptions opts_;
    /** First stage of the self-routing omega half: n-1. */
    unsigned first_delivery_stage_;
    Prng prng_;

    /** Ring storage: per-queue base offset into slots_, plus head
     *  index and length. Queue q = stage * N + line. */
    std::vector<Pkt> slots_;
    std::vector<std::size_t> slot_base_;
    std::vector<std::uint32_t> head_;
    std::vector<std::uint32_t> len_;
    /** Packets resident per stage (drives the depth gauges). */
    std::vector<std::int64_t> stage_occ_;

    std::uint64_t cycle_ = 0;
    Accounting acct_;
    /** Exact per-run latency/occupancy extremes (reset by the run
     *  helpers, updated alongside the lifetime tallies). */
    std::uint64_t run_lat_min_ = ~std::uint64_t{0};
    std::uint64_t run_lat_max_ = 0;
    std::uint64_t run_max_occ_ = 0;
    std::uint64_t run_max_ingress_occ_ = 0;

    std::function<void(const Delivery &)> sink_;

    /** @{ Registry-served instruments; null when metrics off. */
    obs::Counter *c_offered_ = nullptr;
    obs::Counter *c_injected_ = nullptr;
    obs::Counter *c_rejected_ = nullptr;
    obs::Counter *c_delivered_ = nullptr;
    obs::Counter *c_dropped_ = nullptr;
    obs::Counter *c_stalls_ = nullptr;
    obs::Gauge *g_in_flight_ = nullptr;
    obs::Gauge *g_max_occupancy_ = nullptr;
    obs::Histogram *h_latency_ = nullptr;
    std::vector<obs::Gauge *> g_stage_depth_;
    /** @} */
};

} // namespace packet
} // namespace srbenes

#endif // SRBENES_PACKET_FABRIC_HH
