// srb-lint: modeled — SRB010: concurrency here goes through the
// common/sync.hh shim and is exercised by the srb_model suite.
/**
 * @file
 * Frequency-gated admission for the Router plan cache: its TinyLFU
 * gate (Einziger, Friedman & Manes, "TinyLFU: A Highly Efficient
 * Cache Admission Policy", ACM ToS 2017), in a header of its own so
 * the srb_model suite can check it in isolation. The sketch is the
 * cache's only eviction signal: a full cache keeps a newcomer only
 * when its estimate beats that of a resident drawn at random.
 *
 * An AdmissionSketch counts sightings of 64-bit keys within a window:
 *
 *  - a doorkeeper, a Bloom filter of bits. A key's first sighting in
 *    the window only sets its bits, so a key seen once never reaches
 *    the counters, and the cache never admits it;
 *  - a FrequencySketch, a count-min sketch of 4-bit counters, one to
 *    a key in each of four rows, which counts the later sightings.
 *
 * A sighting that changes either one is a sample. After a window of
 * samples every counter is halved and the doorkeeper cleared, so the
 * estimates follow recent frequency. A sighting of a key whose
 * counters are all saturated writes nothing: a hot set's hits only
 * load.
 *
 * Everything here is relaxed on purpose: the counts order nothing,
 * the cache entries are published by the shard locks, and an estimate
 * that is off by a racing sighting only costs one admission decision.
 * Counter words are updated by load, compute and store rather than by
 * a read-modify-write, so a racing sighting or halving of the same
 * word can be lost, but every stored word is computed whole from one
 * read: no counter ever passes 15 or carries into its neighbour (the
 * model suite pins this against a racing halving).
 */

#ifndef SRBENES_CORE_CACHE_ADMISSION_HH
#define SRBENES_CORE_CACHE_ADMISSION_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/prng.hh"
#include "common/sync.hh"

namespace srbenes
{

/**
 * The probe sequence of one key: g_i = a + i * b (Kirsch and
 * Mitzenmacher's double hashing), each probe reduced to a table index
 * by its high bits. The doorkeeper takes probes 0..5 and the counters
 * probes 6..9, so one key costs two mixes.
 */
struct SketchProbes
{
    explicit SketchProbes(std::uint64_t key)
        : a(mix64(key)), b(mix64(a) | 1)
    {
    }

    std::uint64_t probe(unsigned i) const { return a + i * b; }

    /** @p g reduced to [0, size) by its high 32 bits (Lemire's
     *  multiply-shift); @p size is below 2^32. */
    static std::size_t
    reduce(std::uint64_t g, std::size_t size)
    {
        return static_cast<std::size_t>(((g >> 32) * size) >> 32);
    }

    std::uint64_t a;
    std::uint64_t b;
};

/**
 * A count-min sketch of 4-bit counters, sixteen to a 64-bit word, in
 * four rows: row r is nibbles 4r..4r+3 of every word. A key has one
 * counter in each row, at the word its row's own probe picks by its
 * high bits and the nibble two middle bits pick. So a key's four
 * counters are distinct, and two keys share a row's counter in each
 * row independently, as count-min's error bound assumes. Its
 * estimate is their minimum.
 */
class FrequencySketch
{
  public:
    static constexpr unsigned kRows = 4;
    static constexpr unsigned kMax = 15;
    /** Row r reads the key's probe kFirstProbe + r. */
    static constexpr unsigned kFirstProbe = 6;

    /** @p words 64-bit words of counters (at least one), all 0. */
    explicit FrequencySketch(std::size_t words)
        : words_(std::max<std::size_t>(1, words))
    {
    }

    /** Add one to each of the key's counters that is below 15; true
     *  when any was. Rows whose counters share a word are updated by
     *  one load and one store of it. */
    bool
    increment(const SketchProbes &p)
    {
        std::size_t at[kRows];
        unsigned shift[kRows];
        for (unsigned row = 0; row < kRows; ++row) {
            const std::uint64_t g = p.probe(kFirstProbe + row);
            at[row] = wordOf(g);
            shift[row] = shiftOf(g, row);
        }
        bool changed = false;
        for (unsigned row = 0; row < kRows; ++row) {
            if (std::find(at, at + row, at[row]) != at + row)
                continue; // stored with an earlier row's counter
            sync::Atomic<std::uint64_t> &word = words_[at[row]];
            // order: relaxed; counts order nothing (see the file
            // comment). The word is stored whole from this one read.
            const std::uint64_t w = word.load(std::memory_order_relaxed);
            std::uint64_t next = w;
            for (unsigned r = row; r < kRows; ++r)
                if (at[r] == at[row] && ((w >> shift[r]) & kMax) != kMax)
                    next += std::uint64_t{1} << shift[r];
            if (next == w)
                continue;
            // order: relaxed; see the load above.
            word.store(next, std::memory_order_relaxed);
            changed = true;
        }
        return changed;
    }

    /** The minimum of the key's four counters, 0..15. */
    unsigned
    estimate(const SketchProbes &p) const
    {
        unsigned est = kMax;
        for (unsigned row = 0; row < kRows; ++row) {
            const std::uint64_t g = p.probe(kFirstProbe + row);
            // order: relaxed; see increment().
            const std::uint64_t w =
                words_[wordOf(g)].load(std::memory_order_relaxed);
            est = std::min(
                est, static_cast<unsigned>((w >> shiftOf(g, row)) & kMax));
        }
        return est;
    }

    /** Halve every counter (the periodic aging). */
    void
    halve()
    {
        for (sync::Atomic<std::uint64_t> &w : words_) {
            // order: relaxed; see increment(). Shifting right by one
            // and masking each nibble's top bit halves all sixteen.
            const std::uint64_t v = w.load(std::memory_order_relaxed);
            // order: relaxed; see the load above.
            w.store((v >> 1) & 0x7777777777777777ULL,
                    std::memory_order_relaxed);
        }
    }

    void
    clear()
    {
        for (sync::Atomic<std::uint64_t> &w : words_)
            // order: relaxed; see increment().
            w.store(0, std::memory_order_relaxed);
    }

    /** Counter @p i, 0..15, of the 16 * words() (tests). */
    unsigned
    counter(std::size_t i) const
    {
        // order: relaxed; a snapshot.
        return static_cast<unsigned>(
            (words_[i / 16].load(std::memory_order_relaxed) >>
             (4 * (i % 16))) &
            kMax);
    }

  private:
    /** A row's word, by its probe's high bits. */
    std::size_t
    wordOf(std::uint64_t g) const
    {
        return SketchProbes::reduce(g, words_.size());
    }

    /** Row @p row's counter in that word, by probe bits 30..31,
     *  which wordOf does not read. */
    static unsigned
    shiftOf(std::uint64_t g, unsigned row)
    {
        return 4 * (4 * row + static_cast<unsigned>((g >> 30) & 3));
    }

    std::vector<sync::Atomic<std::uint64_t>> words_;
};

/**
 * The doorkeeper and the counters of one cache, both sized from its
 * capacity C (raised to kMinCapacity): a window of 10 C samples, 32
 * doorkeeper bits a sample probed 6 times (a false-positive rate near
 * 2.5e-5 when the window is full of distinct keys, less before), and
 * C counter words, 4 C counters a row.
 */
class AdmissionSketch
{
  public:
    static constexpr std::size_t kWindowPerEntry = 10;
    static constexpr std::size_t kBitsPerSample = 32;
    static constexpr unsigned kDoorkeeperProbes =
        FrequencySketch::kFirstProbe;
    /** A smaller tier is sized as this many entries, so a tier of a
     *  few plans is not aged every few dozen lookups. */
    static constexpr std::size_t kMinCapacity = 64;

    explicit AdmissionSketch(std::size_t capacity)
        : window_(kWindowPerEntry * std::max(capacity, kMinCapacity)),
          bits_(kBitsPerSample * window_), doorkeeper_((bits_ + 63) / 64),
          counters_(std::max(capacity, kMinCapacity))
    {
    }

    /**
     * Record one sighting of @p key. True when the doorkeeper had
     * already seen it in this window: a second or later sighting,
     * which the counters then count.
     */
    bool
    record(std::uint64_t key)
    {
        const SketchProbes p(key);
        bool seen = true;
        for (unsigned i = 0; i < kDoorkeeperProbes; ++i) {
            const std::size_t bit = SketchProbes::reduce(p.probe(i), bits_);
            sync::Atomic<std::uint64_t> &w = doorkeeper_[bit / 64];
            const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
            // order: relaxed; see the file comment. The load keeps a
            // seen key's sighting from dirtying the line.
            if ((w.load(std::memory_order_relaxed) & mask) == 0 &&
                // order: relaxed; as above.
                (w.fetch_or(mask, std::memory_order_relaxed) & mask) ==
                    0)
                seen = false;
        }
        if (seen && !counters_.increment(p))
            return seen;
        // A sample: start a new window after window_ of them.
        // order: relaxed; the sample count only paces the aging.
        const std::uint64_t n =
            samples_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (n % window_ == 0) {
            counters_.halve();
            clearDoorkeeper();
        }
        return seen;
    }

    /** Sightings of @p key in the window as estimated: the counters'
     *  minimum plus the doorkeeper's bit, 0..16. */
    unsigned
    estimate(std::uint64_t key) const
    {
        const SketchProbes p(key);
        return counters_.estimate(p) + (doorkeeperHas(p) ? 1 : 0);
    }

    /** Forget every sighting. */
    void
    clear()
    {
        counters_.clear();
        clearDoorkeeper();
        // order: relaxed; see record().
        samples_.store(0, std::memory_order_relaxed);
    }

  private:
    bool
    doorkeeperHas(const SketchProbes &p) const
    {
        for (unsigned i = 0; i < kDoorkeeperProbes; ++i) {
            const std::size_t bit = SketchProbes::reduce(p.probe(i), bits_);
            // order: relaxed; see record().
            if ((doorkeeper_[bit / 64].load(std::memory_order_relaxed) &
                 (std::uint64_t{1} << (bit % 64))) == 0)
                return false;
        }
        return true;
    }

    void
    clearDoorkeeper()
    {
        for (sync::Atomic<std::uint64_t> &w : doorkeeper_)
            // order: relaxed; see record().
            w.store(0, std::memory_order_relaxed);
    }

    std::size_t window_;
    std::size_t bits_;
    std::vector<sync::Atomic<std::uint64_t>> doorkeeper_;
    FrequencySketch counters_;
    sync::Atomic<std::uint64_t> samples_{0};
};

} // namespace srbenes

#endif // SRBENES_CORE_CACHE_ADMISSION_HH
