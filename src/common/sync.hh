/**
 * @file
 * srbenes::sync — the production/model seam for every lock-free
 * kernel in the tree (layer 1 of the srb_model subsystem; see
 * docs/model-checking.md).
 *
 * Production builds (no SRBENES_MODEL): every type here is a
 * zero-overhead inline forward — sync::Atomic<T> IS std::atomic<T>
 * plus nothing, sync::Mutex is the annotated srbenes::Mutex, and
 * sync::Cell<T> is a bare T. The throughput benches gate that this
 * stays true.
 *
 * Model builds (-DSRBENES_MODEL, model test targets only): the same
 * API routes into the srb_model checker runtime (src/model), which
 * turns every operation into a scheduling point, explores all
 * bounded interleavings, models relaxed/acquire/release/seq_cst
 * visibility with per-location store buffers, and race-checks Cell
 * accesses with vector clocks.
 *
 * Files ported onto this shim are tagged `// srb-lint: modeled` on
 * one of their first three lines; srb_lint rule SRB010 then bans
 * raw std::atomic / std::mutex / SYS_futex in them, so a hot-path
 * edit cannot silently bypass the checker.
 *
 * Model-mode API subset (deliberate): integral/bool/enum atomics
 * with load/store/fetch_add/fetch_sub/fetch_or/exchange/wait/notify,
 * plain Mutex, and Cell. compare_exchange and SharedMutex are not modeled
 * — code that needs them either stays unported or grows checker
 * support first. SharedMutex/ReaderLock/WriterLock alias the
 * production types in both modes so modeled files can still name
 * them outside model-tested paths.
 */

#ifndef SRBENES_COMMON_SYNC_HH
#define SRBENES_COMMON_SYNC_HH

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "common/thread_annotations.hh"

#ifdef SRBENES_MODEL
#include "model/model.hh"
#endif

namespace srbenes
{
namespace sync
{

#ifndef SRBENES_MODEL

// ------------------------------------------------------- production

/** std::atomic<T> with the futex wait/wake hook; zero overhead. */
template <typename T>
class Atomic
{
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                  "sync::Atomic models integral-like values only");

  public:
    constexpr Atomic() noexcept : v_(T{}) {}
    constexpr Atomic(T init) noexcept : v_(init) {}
    Atomic(const Atomic &) = delete;
    Atomic &operator=(const Atomic &) = delete;

    T
    load(std::memory_order o = std::memory_order_seq_cst) const
        noexcept
    {
        return v_.load(o);
    }

    void
    store(T v,
          std::memory_order o = std::memory_order_seq_cst) noexcept
    {
        v_.store(v, o);
    }

    T
    fetch_add(T d,
              std::memory_order o = std::memory_order_seq_cst)
        noexcept
    {
        return v_.fetch_add(d, o);
    }

    T
    fetch_sub(T d,
              std::memory_order o = std::memory_order_seq_cst)
        noexcept
    {
        return v_.fetch_sub(d, o);
    }

    T
    fetch_or(T m,
             std::memory_order o = std::memory_order_seq_cst)
        noexcept
    {
        return v_.fetch_or(m, o);
    }

    T
    exchange(T v,
             std::memory_order o = std::memory_order_seq_cst)
        noexcept
    {
        return v_.exchange(v, o);
    }

    /** Futex wait: blocks while the value equals @p old. */
    void
    wait(T old, std::memory_order o = std::memory_order_seq_cst)
        const noexcept
    {
        v_.wait(old, o);
    }

    void
    notify_one() noexcept
    {
        v_.notify_one();
    }

    void
    notify_all() noexcept
    {
        v_.notify_all();
    }

    operator T() const noexcept { return load(); }

  private:
    std::atomic<T> v_;
};

/** Plain data in production; race-checked under the model. */
template <typename T>
class Cell
{
  public:
    Cell() = default;
    explicit Cell(T v) : v_(v) {}

    T
    read() const
    {
        return v_;
    }

    void
    write(T v)
    {
        v_ = v;
    }

  private:
    T v_{};
};

using Mutex = srbenes::Mutex;
using MutexLock = srbenes::MutexLock;

#else // SRBENES_MODEL

// ------------------------------------------------------- model mode

namespace detail
{

inline model::Order
toOrder(std::memory_order o)
{
    switch (o) {
      case std::memory_order_relaxed: // order: shim order mapping
        return model::Order::Relaxed;
      case std::memory_order_consume: // order: shim order mapping
      case std::memory_order_acquire: // order: shim order mapping
        return model::Order::Acquire;
      case std::memory_order_release: // order: shim order mapping
        return model::Order::Release;
      case std::memory_order_acq_rel: // order: shim order mapping
        return model::Order::AcqRel;
      default:
        return model::Order::SeqCst;
    }
}

} // namespace detail

/** sync::Atomic routed into the checker's store-buffer model. */
template <typename T>
class Atomic
{
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                  "sync::Atomic models integral-like values only");

  public:
    Atomic() noexcept : st_(toWord(T{})) {}
    Atomic(T init) noexcept : st_(toWord(init)) {}
    Atomic(const Atomic &) = delete;
    Atomic &operator=(const Atomic &) = delete;

    T
    load(std::memory_order o = std::memory_order_seq_cst) const
    {
        return fromWord(model::atomicLoad(st_, detail::toOrder(o)));
    }

    void
    store(T v, std::memory_order o = std::memory_order_seq_cst)
    {
        model::atomicStore(st_, toWord(v), detail::toOrder(o));
    }

    T
    fetch_add(T d, std::memory_order o = std::memory_order_seq_cst)
    {
        return fromWord(model::atomicRmw(st_, model::Rmw::Add,
                                         toWord(d),
                                         detail::toOrder(o)));
    }

    T
    fetch_sub(T d, std::memory_order o = std::memory_order_seq_cst)
    {
        return fromWord(model::atomicRmw(st_, model::Rmw::Sub,
                                         toWord(d),
                                         detail::toOrder(o)));
    }

    T
    fetch_or(T m, std::memory_order o = std::memory_order_seq_cst)
    {
        return fromWord(model::atomicRmw(st_, model::Rmw::Or,
                                         toWord(m),
                                         detail::toOrder(o)));
    }

    T
    exchange(T v, std::memory_order o = std::memory_order_seq_cst)
    {
        return fromWord(model::atomicRmw(st_, model::Rmw::Exchange,
                                         toWord(v),
                                         detail::toOrder(o)));
    }

    void
    wait(T old,
         std::memory_order o = std::memory_order_seq_cst) const
    {
        model::atomicWait(st_, toWord(old), detail::toOrder(o));
    }

    void
    notify_one()
    {
        model::atomicNotify(st_, false);
    }

    void
    notify_all()
    {
        model::atomicNotify(st_, true);
    }

    operator T() const { return load(); }

  private:
    static std::uint64_t
    toWord(T v)
    {
        return static_cast<std::uint64_t>(v);
    }

    static T
    fromWord(std::uint64_t w)
    {
        return static_cast<T>(w);
    }

    mutable model::AtomicState st_;
};

/** Race-checked plain data: every read/write is vector-clocked. */
template <typename T>
class Cell
{
  public:
    Cell() = default;
    explicit Cell(T v) : v_(v) {}

    T
    read() const
    {
        if (!model::cellRead(st_))
            return T{}; // aborting: v_ may be in a destroyed frame
        return v_;
    }

    void
    write(T v)
    {
        if (!model::cellWrite(st_))
            return; // aborting: v_ may be in a destroyed frame
        v_ = v;
    }

  private:
    mutable model::CellState st_;
    T v_{};
};

/**
 * Model-scheduled mutex. Carries the same capability annotations as
 * srbenes::Mutex so SRB_GUARDED_BY members and the tidy preset's
 * -Wthread-safety analysis keep working in model targets.
 */
class SRB_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() SRB_ACQUIRE() { model::mutexLock(st_); }
    void unlock() SRB_RELEASE() { model::mutexUnlock(st_); }

    bool
    try_lock() SRB_TRY_ACQUIRE(true)
    {
        return model::mutexTryLock(st_);
    }

  private:
    model::MutexState st_;
};

/** Scoped lock over the model Mutex, analysis-visible. */
class SRB_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) SRB_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }
    ~MutexLock() SRB_RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mu_;
};

#endif // SRBENES_MODEL

// Reader/writer locking is not modeled; modeled files may still name
// these for paths outside their model tests.
using SharedMutex = srbenes::SharedMutex;
using ReaderLock = srbenes::ReaderLock;
using WriterLock = srbenes::WriterLock;

} // namespace sync
} // namespace srbenes

#endif // SRBENES_COMMON_SYNC_HH
