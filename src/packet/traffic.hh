/**
 * @file
 * Traffic matrices for the packet fabric.
 *
 * One small interface, TrafficSource, shared by bench_packet,
 * test_packet, and (later) srb_loadgen so that "hot-spot at load
 * 0.6" means the same arrival process everywhere. A source is asked
 * once per cycle for that cycle's arrivals; everything is driven by
 * an owned xoshiro256** stream (seeded via splitmix64 like every
 * other Prng in the tree), so equal seeds replay equal traffic and
 * reset() rewinds a source to its first cycle.
 *
 * Offered load is normalized per input port: at load rho, each
 * SENDING port emits a packet with probability rho per cycle
 * (PartialTraffic normalizes over its active ports only, and
 * MulticastTraffic divides rho by the fanout so the DELIVERED load
 * per output port stays comparable across matrices).
 */

#ifndef SRBENES_PACKET_TRAFFIC_HH
#define SRBENES_PACKET_TRAFFIC_HH

#include <cstdint>
#include <vector>

#include "common/bitops.hh"
#include "common/prng.hh"
#include "perm/permutation.hh"

namespace srbenes
{
namespace packet
{

/** One packet's worth of demand: @p src wants to reach @p dst. */
struct Arrival
{
    Word src = 0;
    Word dst = 0;
};

/**
 * An arrival process over B(n)'s N input ports. Implementations are
 * deterministic functions of (seed, call sequence): callers invoke
 * arrivals() exactly once per simulated cycle.
 */
class TrafficSource
{
  public:
    virtual ~TrafficSource() = default;

    /** Short stable name for tables and JSON ("uniform", ...). */
    virtual const char *name() const noexcept = 0;

    /** Append this cycle's arrivals to @p out (not cleared). */
    virtual void arrivals(std::uint64_t cycle,
                          std::vector<Arrival> &out) = 0;

    /** Rewind to the first cycle; equal seeds then replay. */
    virtual void reset() = 0;
};

/**
 * Shared plumbing of the random matrices: geometry, a target load,
 * and the seeded Prng (reset() reseeds it and lets the subclass
 * rebuild any per-source state).
 */
class RandomTrafficBase : public TrafficSource
{
  public:
    double offeredLoad() const noexcept { return load_; }

    void
    reset() override
    {
        prng_ = Prng(seed_);
        onReset();
    }

  protected:
    RandomTrafficBase(unsigned n, double load, std::uint64_t seed);

    /** One biased coin flip from the owned stream. */
    bool coin(double p);

    /** Per-source state rebuild hook invoked by reset(). */
    virtual void onReset() {}

    Word size_;
    double load_;
    std::uint64_t seed_;
    Prng prng_;
};

/** Every port sends to an independently uniform destination. */
class UniformTraffic : public RandomTrafficBase
{
  public:
    UniformTraffic(unsigned n, double load,
                   std::uint64_t seed = 0x5eed5eed5eedULL);

    const char *name() const noexcept override { return "uniform"; }
    void arrivals(std::uint64_t cycle,
                  std::vector<Arrival> &out) override;
};

/**
 * Uniform background with a fraction of all packets aimed at one
 * hot output port -- the classic tree-saturation matrix.
 */
class HotSpotTraffic : public RandomTrafficBase
{
  public:
    /** @p hot_fraction of packets target line @p hot. */
    HotSpotTraffic(unsigned n, double load, double hot_fraction,
                   Word hot = 0,
                   std::uint64_t seed = 0x5eed5eed5eedULL);

    const char *name() const noexcept override { return "hotspot"; }
    void arrivals(std::uint64_t cycle,
                  std::vector<Arrival> &out) override;

    Word hotLine() const noexcept { return hot_; }

  private:
    double hot_fraction_;
    Word hot_;
};

/**
 * Two-state MMPP per source: ON sources emit every cycle toward one
 * burst-constant destination, OFF sources are silent. Mean burst
 * length is @p mean_burst cycles and the ON probability is chosen so
 * the stationary per-port load is @p load (which therefore must be
 * <= mean_burst / (mean_burst + 1)).
 */
class BurstyTraffic : public RandomTrafficBase
{
  public:
    BurstyTraffic(unsigned n, double load, double mean_burst = 8.0,
                  std::uint64_t seed = 0x5eed5eed5eedULL);

    const char *name() const noexcept override { return "bursty"; }
    void arrivals(std::uint64_t cycle,
                  std::vector<Arrival> &out) override;

  private:
    void onReset() override;

    double p_on_;  //!< OFF -> ON per cycle
    double p_off_; //!< ON -> OFF per cycle (1 / mean_burst)
    std::vector<std::uint8_t> on_;
    std::vector<Word> burst_dst_;
};

/**
 * A random partial permutation: a fixed subset of sources, each
 * bound to a distinct destination, offered at @p load per ACTIVE
 * source; the other ports stay silent.
 */
class PartialTraffic : public RandomTrafficBase
{
  public:
    /** round(@p active_fraction * N) sources are active. */
    PartialTraffic(unsigned n, double load, double active_fraction,
                   std::uint64_t seed = 0x5eed5eed5eedULL);

    const char *name() const noexcept override { return "partial"; }
    void arrivals(std::uint64_t cycle,
                  std::vector<Arrival> &out) override;

    Word activeSources() const noexcept { return active_; }

  private:
    void onReset() override;

    Word active_;
    /** dst_[src], or ~Word{0} when src is silent. */
    std::vector<Word> dst_;
};

/**
 * Each send event fans out to @p fanout distinct uniform
 * destinations (emitted as fanout unicast arrivals -- the fabric
 * itself stays unicast). Event probability is load / fanout so the
 * per-output offered load matches the unicast matrices.
 */
class MulticastTraffic : public RandomTrafficBase
{
  public:
    MulticastTraffic(unsigned n, double load, Word fanout = 4,
                     std::uint64_t seed = 0x5eed5eed5eedULL);

    const char *name() const noexcept override { return "multicast"; }
    void arrivals(std::uint64_t cycle,
                  std::vector<Arrival> &out) override;

  private:
    Word fanout_;
    std::vector<Word> pick_; //!< scratch for distinct-dst sampling
};

/** A fixed permutation matrix offered at @p load per port. */
class PermutationTraffic : public RandomTrafficBase
{
  public:
    PermutationTraffic(unsigned n, double load, Permutation d,
                       std::uint64_t seed = 0x5eed5eed5eedULL);

    const char *name() const noexcept override
    {
        return "permutation";
    }
    void arrivals(std::uint64_t cycle,
                  std::vector<Arrival> &out) override;

  private:
    Permutation d_;
};

/**
 * Deterministic playback: call k returns schedule[k] (nothing once
 * the schedule is exhausted). Used to inject whole permutation
 * batches one per cycle and by tests that need exact arrival
 * patterns.
 */
class ScheduleTraffic : public TrafficSource
{
  public:
    explicit ScheduleTraffic(
        std::vector<std::vector<Arrival>> schedule);

    const char *name() const noexcept override { return "schedule"; }
    void arrivals(std::uint64_t cycle,
                  std::vector<Arrival> &out) override;
    void reset() override { next_ = 0; }

    std::size_t length() const noexcept { return schedule_.size(); }

  private:
    std::vector<std::vector<Arrival>> schedule_;
    std::size_t next_ = 0;
};

} // namespace packet
} // namespace srbenes

#endif // SRBENES_PACKET_TRAFFIC_HH
