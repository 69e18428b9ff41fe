/**
 * @file
 * srb_model: a loom/relacy-style deterministic concurrency model
 * checker for the repo's lock-free kernels — the runtime half of the
 * concurrency-correctness wall (clang thread-safety and srb-lint are
 * the static half, tsan the sampled-schedule half).
 *
 * tsan can only condemn the interleavings the OS happens to run;
 * this checker OWNS the scheduler. Code under test runs on virtual
 * threads (real std::threads coordinated so exactly one executes at
 * a time), every synchronization operation is a scheduling point,
 * and a DFS explorer re-executes the test body over all bounded
 * interleavings:
 *
 *  - thread schedules, enumerated with PREEMPTION BOUNDING (a
 *    context switch while the running thread is still enabled costs
 *    one unit of a configurable budget) and SLEEP-SET pruning
 *    (a sibling schedule that merely commutes independent operations
 *    is never re-executed);
 *  - load visibility, via per-location STORE BUFFERS: a relaxed or
 *    acquire load may read any coherence-allowed stale store, and
 *    each choice forks the exploration. RMWs and seq_cst stores
 *    write through (x86-TSO-flavored; a documented approximation of
 *    the full C++11 model — see docs/model-checking.md);
 *  - release/acquire edges and mutexes maintain VECTOR CLOCKS, which
 *    drive both staleness (what a load may legally return) and data
 *    race detection on plain `sync::Cell` data;
 *  - DEADLOCKS (including lost futex wakeups: a waiter that nobody
 *    will ever notify) and LIVELOCKS (step-budget exhaustion) are
 *    reported with the failing schedule.
 *
 * On failure the checker prints a replayable trace: the decision
 * vector (thread picks and load choices, replayable via
 * Options::replay) plus the per-step operation log.
 *
 * Code is ported onto the checker through `srbenes::sync`
 * (common/sync.hh): `sync::Atomic`, `sync::Mutex`, `sync::Cell`
 * compile to plain std::atomic/std::mutex/T in production and route
 * here under -DSRBENES_MODEL. Model test targets recompile the
 * component sources with that define; production targets never see
 * this header.
 *
 * Limits (all documented, all deliberate): at most kMaxThreads
 * virtual threads; test bodies must be deterministic (no wall
 * clock, no unseeded randomness); objects under test must be
 * constructed inside the body so each schedule starts fresh (state
 * constructed outside is reset to its current plain value on first
 * touch of a new schedule).
 */

#ifndef SRBENES_MODEL_MODEL_HH
#define SRBENES_MODEL_MODEL_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace srbenes
{
namespace model
{

/** Virtual threads per exploration (main body + spawned). */
constexpr unsigned kMaxThreads = 4;

/** One vector clock: component t counts thread t's executed steps. */
using Clock = std::array<std::uint32_t, kMaxThreads>;

/** Memory orders the shim forwards (seq_cst covers consume too). */
enum class Order
{
    Relaxed,
    Acquire,
    Release,
    AcqRel,
    SeqCst,
};

/** Read-modify-write flavors of Runtime::atomicRmw. */
enum class Rmw
{
    Add,
    Sub,
    Or,
    Exchange,
};

/**
 * Dependence signature of a pending operation, for sleep sets: two
 * ops commute iff neither is global and they touch different
 * locations or are both reads. Locations are stable per-schedule
 * ids (kind tag | first-touch index), not raw pointers, so sleep
 * entries stay meaningful across re-executions.
 */
struct OpSig
{
    std::uint32_t loc = 0;
    bool write = false;
    bool global = false;
};

/**
 * Model-side state of one sync::Atomic. Holds the full store
 * history of the current schedule; `plain` is the authoritative
 * value outside a model run (and mirrors the newest store inside
 * one). Reset lazily when touched under a new schedule epoch.
 */
struct AtomicState
{
    struct Store
    {
        std::uint64_t value = 0;
        /** Writing thread; kMaxThreads = the initial value. */
        unsigned thread = kMaxThreads;
        /** Writer's own clock component at the store (hb floor). */
        std::uint32_t self_stamp = 0;
        /** True when an acquire load of this store synchronizes. */
        bool has_sync = false;
        /** Clock an acquire reader joins (release/RMW chain). */
        Clock sync_clock{};
    };

    explicit AtomicState(std::uint64_t init) : plain(init) {}

    std::uint64_t plain;
    std::uint64_t epoch = 0;
    unsigned id = 0; //!< per-schedule display id; 0 = unassigned
    /** Modification order; absolute index = base + position. */
    std::vector<Store> stores;
    std::size_t base = 0;
    /** Oldest absolute index any load may still read (write-through
     *  floor: RMWs and seq_cst stores advance it). */
    std::size_t floor = 0;
    /** Per-thread coherence floor: last absolute index read. */
    std::array<std::size_t, kMaxThreads> last_read{};
    /** Lanes blocked in atomicWait on this location. */
    std::vector<unsigned> waiters;
};

/** Model-side state of one sync::Cell (plain, race-checked data). */
struct CellState
{
    std::uint64_t epoch = 0;
    unsigned id = 0;
    bool written = false;
    unsigned last_writer = 0;
    std::uint32_t write_stamp = 0;
    /** Per-thread own-component stamp of the last read. */
    std::array<std::uint32_t, kMaxThreads> read_stamps{};
};

/** Model-side state of one sync::Mutex. */
struct MutexState
{
    std::uint64_t epoch = 0;
    unsigned id = 0;
    int locked_by = -1;
    bool has_sync = false;
    Clock sync_clock{};
};

/** Exploration bounds and knobs. */
struct Options
{
    /** Schedule label used in failure reports. */
    const char *name = "";
    /** Max context switches away from a still-enabled thread. */
    unsigned preemption_bound = 3;
    /** Schedules explored before giving up (exhausted flag). */
    std::uint64_t max_schedules = 1u << 20;
    /** Scheduling points per schedule (livelock bound). */
    unsigned max_steps = 20000;
    /** Sleep-set pruning of commuting sibling schedules. */
    bool sleep_sets = true;
    /**
     * Comma-separated decision vector from a failure report; when
     * non-empty, runs exactly the one schedule it describes.
     */
    std::string replay;
};

/** Outcome of one explore() call. */
struct Result
{
    bool ok = true;
    /** Schedule budget ran out before the DFS finished. */
    bool exhausted = false;
    std::uint64_t schedules = 0;
    std::uint64_t steps = 0;
    /** Human-readable failure kind + message; empty when ok. */
    std::string failure;
    /** Replayable decision vector of the failing schedule. */
    std::string decisions;
    /** Per-step operation log of the failing schedule. */
    std::string trace;

    /** The failure report tests print on unexpected outcomes. */
    std::string report() const;
};

/**
 * Explore every bounded interleaving of @p body. The body runs on
 * virtual thread 0 and may spawn() up to kMaxThreads - 1 workers;
 * it is re-executed once per schedule, so all state under test must
 * be (re)constructed inside it. The first failing schedule stops
 * the exploration and is described in the Result.
 */
Result explore(const Options &opts,
               const std::function<void()> &body);

/** explore() with default options. */
Result explore(const std::function<void()> &body);

/** Spawn a virtual thread (inside a body only). */
void spawn(std::function<void()> fn);

/**
 * Block until every spawned thread finished (inside a body only).
 * The natural last statement before a body's invariant checks.
 */
void joinAll();

/**
 * Assert an invariant inside a model run: a false @p ok fails the
 * current schedule, records @p msg, and aborts the exploration.
 * Outside a run it is a fatal() assert.
 */
void modelAssert(bool ok, const char *msg);

/** True while the calling thread is a virtual thread of a run. */
bool active();

/**
 * Preemption bound for model suites: SRBENES_MODEL_PREEMPTIONS
 * (clamped to [1, 8]) when set — the nightly exhaustive sweep's
 * knob — else @p fallback.
 */
unsigned preemptionBoundFromEnv(unsigned fallback);

/**
 * Shim entry points. sync.hh calls these under SRBENES_MODEL; each
 * one is a scheduling point when the calling thread is a virtual
 * thread of an active exploration, and a plain sequential operation
 * on the stored `plain` value otherwise (so model-built code still
 * works outside explore(), e.g. in test setup and teardown).
 */
std::uint64_t atomicLoad(AtomicState &a, Order o);
void atomicStore(AtomicState &a, std::uint64_t v, Order o);

/** Returns the OLD value. */
std::uint64_t atomicRmw(AtomicState &a, Rmw op, std::uint64_t operand,
                        Order o);

/**
 * Kernel-futex semantics: blocks while the LATEST value still equals
 * @p old, woken only by atomicNotify — a plain store does not wake
 * (that is precisely what makes lost-wakeup bugs reproducible: a
 * waiter nobody will ever notify is reported as a deadlock).
 */
void atomicWait(AtomicState &a, std::uint64_t old, Order o);
void atomicNotify(AtomicState &a, bool all);

void mutexLock(MutexState &m);
bool mutexTryLock(MutexState &m);
void mutexUnlock(MutexState &m);

/**
 * A false return means the schedule is aborting and the caller must
 * not touch the guarded data either — during abort teardown the cell
 * may live in an already-unwound lane's destroyed stack frame.
 */
[[nodiscard]] bool cellRead(CellState &c);
[[nodiscard]] bool cellWrite(CellState &c);

/**
 * Dense virtual-thread index (0 when inactive): the model-mode
 * stand-in for per-real-thread sharding keys, so sharded structures
 * land on deterministic shards under exploration.
 */
unsigned laneIndex();

} // namespace model
} // namespace srbenes

#endif // SRBENES_MODEL_MODEL_HH
