/**
 * @file
 * srb_model implementation: cooperative virtual scheduler, DFS
 * interleaving explorer with preemption bounding and sleep sets,
 * store-buffer memory model with vector clocks, and the failure
 * machinery (trace, decisions, replay).
 *
 * Concurrency discipline of the checker itself: exactly one thread
 * of the exploration is ever executing — either the scheduler (the
 * explore() caller) or the single granted lane. All checker state
 * (store histories, clocks, the decision path, the trace) is
 * therefore owned by whoever holds the baton; the baton passes
 * through a per-lane mutex + condition_variable handshake, which
 * also provides the happens-before every handover needs. There are
 * no atomics in this file at all.
 */

#include "model/model.hh"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>

namespace srbenes
{
namespace model
{

namespace
{

/** Thrown through a lane to unwind an aborted schedule. */
struct AbortSchedule
{
};

constexpr unsigned kNoLane = std::numeric_limits<unsigned>::max();
constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

/** Stable location-id kind tags (high byte of OpSig::loc). */
constexpr std::uint32_t kLocAtomic = 1u << 24;
constexpr std::uint32_t kLocCell = 2u << 24;
constexpr std::uint32_t kLocMutex = 3u << 24;

bool
dependentOps(const OpSig &a, const OpSig &b)
{
    if (a.global || b.global)
        return true;
    if (a.loc != b.loc)
        return false;
    return a.write || b.write;
}

bool
acquiring(Order o)
{
    return o == Order::Acquire || o == Order::AcqRel ||
           o == Order::SeqCst;
}

bool
releasing(Order o)
{
    return o == Order::Release || o == Order::AcqRel ||
           o == Order::SeqCst;
}

const char *
ordName(Order o)
{
    switch (o) {
      case Order::Relaxed:
        return "rlx";
      case Order::Acquire:
        return "acq";
      case Order::Release:
        return "rel";
      case Order::AcqRel:
        return "acq_rel";
      case Order::SeqCst:
        return "sc";
    }
    return "?";
}

const char *
rmwName(Rmw op)
{
    switch (op) {
      case Rmw::Add:
        return "fetch_add";
      case Rmw::Sub:
        return "fetch_sub";
      case Rmw::Or:
        return "fetch_or";
      case Rmw::Exchange:
        return "exchange";
    }
    return "?";
}

std::uint64_t
applyRmw(Rmw op, std::uint64_t old, std::uint64_t operand)
{
    switch (op) {
      case Rmw::Add:
        return old + operand;
      case Rmw::Sub:
        return old - operand;
      case Rmw::Or:
        return old | operand;
      case Rmw::Exchange:
        return operand;
    }
    return old;
}

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

bool
parseReplay(const std::string &s,
            std::vector<std::pair<char, unsigned>> *out)
{
    std::stringstream ss(s);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
        const std::size_t b = tok.find_first_not_of(" \t");
        if (b == std::string::npos)
            continue;
        tok = tok.substr(b, tok.find_last_not_of(" \t") - b + 1);
        if (tok.size() < 2 || (tok[0] != 'T' && tok[0] != 'V'))
            return false;
        unsigned v = 0;
        for (std::size_t i = 1; i < tok.size(); ++i) {
            if (tok[i] < '0' || tok[i] > '9')
                return false;
            v = v * 10 + static_cast<unsigned>(tok[i] - '0');
        }
        out->push_back({tok[0], v});
    }
    return true;
}

struct Impl;

thread_local Impl *tls_impl = nullptr;
thread_local unsigned tls_lane = 0;

/**
 * The whole exploration state. Lives on the explore() caller's
 * stack; lane threads are created lazily and joined before explore
 * returns.
 */
struct Impl
{
    // ------------------------------------------------------- lanes

    struct Lane
    {
        enum class Phase
        {
            Idle,
            Ready,   //!< parked with a pending op, schedulable
            Running, //!< the one granted lane
            Done,    //!< body finished (or unwound) this schedule
        };
        enum class Block
        {
            None,
            Futex,
            Mutex,
            Join,
        };

        std::thread th;
        std::mutex m; // srb-lint: allow(SRB006) scheduler handshake
        std::condition_variable cv;
        Phase phase = Phase::Idle;
        bool quit = false;
        bool live = false;    //!< participates in current schedule
        bool blocked = false; //!< Ready but not runnable
        Block cause = Block::None;
        MutexState *wait_mutex = nullptr;
        std::function<void()> body;
        OpSig pending{};
        std::string pending_desc;
    };

    Options opts;
    std::function<void()> main_body;

    std::array<Lane, kMaxThreads> lanes;
    unsigned nlanes = 0;

    // -------------------------------------- per-schedule dynamics

    std::uint64_t epoch = 0;
    std::array<Clock, kMaxThreads> clk{};
    unsigned running = 0;
    unsigned steps = 0;
    unsigned preemptions = 0;
    bool aborting = false;
    bool failed = false;
    std::string failure;
    std::string fail_decisions;
    std::string fail_trace;
    unsigned names_atomic = 0;
    unsigned names_cell = 0;
    unsigned names_mutex = 0;

    struct Event
    {
        unsigned lane;
        std::string desc;
    };
    std::vector<Event> events;

    // --------------------------------------------- decision tree

    /**
     * One decision on the current DFS path. The path is persistent
     * across re-executions: the prefix below the deepest advanced
     * node replays stored choices (verified against recomputed
     * options — any mismatch means the body is nondeterministic and
     * is reported as a failure, not silently mis-explored).
     */
    struct Node
    {
        bool thread_node = true;
        std::vector<unsigned> options; //!< lane ids / value indices
        std::vector<OpSig> sigs;       //!< thread nodes only
        std::size_t chosen = 0;        //!< index into options
        unsigned running_before = 0;
        bool running_enabled = false;
        unsigned preemptions_before = 0;
        /** Sleep set at this node: (lane, its pending op). */
        std::vector<std::pair<unsigned, OpSig>> slept;
    };
    std::vector<Node> path;
    std::size_t depth = 0; //!< decision cursor of the current run

    std::vector<std::pair<char, unsigned>> forced;
    bool replay_mode = false;

    std::uint64_t schedules = 0;
    std::uint64_t total_steps = 0;

    // -------------------------------------------------- formatting

    static std::string
    atomicName(const AtomicState &a)
    {
        return "a" + std::to_string(a.id);
    }

    static std::string
    cellName(const CellState &c)
    {
        return "c" + std::to_string(c.id);
    }

    static std::string
    mutexName(const MutexState &m)
    {
        return "m" + std::to_string(m.id);
    }

    static const char *
    blockName(Lane::Block b)
    {
        switch (b) {
          case Lane::Block::Futex:
            return "futex wait (possible lost wakeup)";
          case Lane::Block::Mutex:
            return "mutex";
          case Lane::Block::Join:
            return "join";
          case Lane::Block::None:
            return "nothing (runnable)";
        }
        return "?";
    }

    std::string
    formatDecisions() const
    {
        std::string s;
        const std::size_t n = std::min(depth, path.size());
        for (std::size_t i = 0; i < n; ++i) {
            const Node &nd = path[i];
            if (i)
                s += ',';
            s += nd.thread_node ? 'T' : 'V';
            s += std::to_string(nd.options[nd.chosen]);
        }
        return s;
    }

    std::string
    formatTrace() const
    {
        std::ostringstream os;
        for (std::size_t i = 0; i < events.size(); ++i)
            os << "  #" << i << " t" << events[i].lane << " "
               << events[i].desc << "\n";
        return os.str();
    }

    std::string
    deadlockReport() const
    {
        std::string s = "deadlock: no runnable thread;";
        for (unsigned t = 0; t < nlanes; ++t) {
            const Lane &ln = lanes[t];
            if (!ln.live || ln.phase == Lane::Phase::Done)
                continue;
            s += " t" + std::to_string(t) + " blocked on " +
                 blockName(ln.cause) + " at [" + ln.pending_desc +
                 "];";
        }
        return s;
    }

    // ----------------------------------------------- fail machinery

    void
    fail(std::string what)
    {
        if (failed)
            return;
        failed = true;
        failure = std::move(what);
        fail_decisions = formatDecisions();
        fail_trace = formatTrace();
        aborting = true;
    }

    [[noreturn]] void
    failAndUnwind(std::string what)
    {
        fail(std::move(what));
        throw AbortSchedule{};
    }

    // ------------------------------------------------ lane plumbing

    static void
    laneMain(Impl *self, unsigned id)
    {
        tls_impl = self;
        tls_lane = id;
        Lane &ln = self->lanes[id];
        std::unique_lock<std::mutex> lk(ln.m);
        for (;;) {
            ln.cv.wait(lk, [&ln] {
                return ln.quit || ln.phase == Lane::Phase::Running;
            });
            if (ln.quit)
                return;
            lk.unlock();
            if (!self->aborting) {
                self->onResume(id);
                try {
                    ln.body();
                } catch (const AbortSchedule &) {
                }
            }
            lk.lock();
            ln.phase = Lane::Phase::Done;
            ln.cv.notify_all();
        }
    }

    void
    ensureThread(unsigned id)
    {
        if (!lanes[id].th.joinable())
            lanes[id].th = std::thread(&Impl::laneMain, this, id);
    }

    void
    armLane(unsigned id, std::function<void()> fn)
    {
        Lane &ln = lanes[id];
        ln.body = std::move(fn);
        ln.live = true;
        ln.blocked = false;
        ln.cause = Lane::Block::None;
        ln.wait_mutex = nullptr;
        ln.pending = OpSig{0, false, true};
        ln.pending_desc = "start";
        ensureThread(id);
        std::lock_guard<std::mutex> lk(ln.m);
        ln.phase = Lane::Phase::Ready;
    }

    /** Book-keeping on becoming the granted lane: clock + trace. */
    void
    onResume(unsigned id)
    {
        clk[id][id] += 1;
        events.push_back(Event{id, lanes[id].pending_desc});
    }

    enum class OnAbort
    {
        Throw, //!< blocking ops: unwind the lane
        Plain, //!< non-blocking ops: degrade to the plain value
    };

    /**
     * Yield the baton back to the scheduler with @p sig pending;
     * returns once this lane is granted again. A false return (only
     * with OnAbort::Plain) means the schedule is being aborted and
     * the caller must fall back to its plain-mode behavior — that
     * keeps destructors (mutex unlocks, stores) from throwing
     * during unwind.
     */
    bool
    park(const OpSig &sig, std::string desc, OnAbort mode)
    {
        if (aborting) {
            if (mode == OnAbort::Throw)
                throw AbortSchedule{};
            return false;
        }
        Lane &ln = lanes[tls_lane];
        {
            std::unique_lock<std::mutex> lk(ln.m);
            ln.pending = sig;
            ln.pending_desc = std::move(desc);
            ln.phase = Lane::Phase::Ready;
            ln.cv.notify_all();
            ln.cv.wait(lk, [&ln] {
                return ln.phase == Lane::Phase::Running;
            });
        }
        if (aborting) {
            if (mode == OnAbort::Throw)
                throw AbortSchedule{};
            return false;
        }
        onResume(tls_lane);
        return true;
    }

    /** Append detail to the current trace event. */
    void
    note(const std::string &s)
    {
        if (!events.empty())
            events.back().desc += s;
    }

    void
    grant(unsigned t)
    {
        Lane &ln = lanes[t];
        std::unique_lock<std::mutex> lk(ln.m);
        ln.phase = Lane::Phase::Running;
        ln.cv.notify_all();
        ln.cv.wait(lk, [&ln] {
            return ln.phase != Lane::Phase::Running;
        });
    }

    /**
     * Resume every live lane so it can unwind (or finish in plain
     * mode). Highest lane first: spawned workers reference objects
     * owned by the main body's frame (lane 0), so lane 0 — whose
     * unwind destroys those objects — must tear down last.
     */
    void
    abortAll()
    {
        aborting = true;
        for (unsigned t = nlanes; t-- > 0;) {
            Lane &ln = lanes[t];
            if (ln.live && ln.phase != Lane::Phase::Done)
                grant(t);
        }
    }

    void
    shutdownLanes()
    {
        for (Lane &ln : lanes) {
            if (!ln.th.joinable())
                continue;
            {
                std::lock_guard<std::mutex> lk(ln.m);
                ln.quit = true;
                ln.cv.notify_all();
            }
            ln.th.join();
        }
    }

    // ------------------------------------------------ DFS explorer

    /** Enabled lanes with the previously running lane first, so the
     *  default DFS path is the natural preemption-free schedule. */
    std::vector<unsigned>
    ordered(std::vector<unsigned> e) const
    {
        auto it = std::find(e.begin(), e.end(), running);
        if (it != e.end())
            std::rotate(e.begin(), it, it + 1);
        return e;
    }

    bool
    allowedOption(const Node &n, std::size_t j) const
    {
        const unsigned t = n.options[j];
        if (opts.sleep_sets)
            for (const auto &s : n.slept)
                if (s.first == t)
                    return false;
        const unsigned cost =
            (t != n.running_before && n.running_enabled) ? 1u : 0u;
        return n.preemptions_before + cost <= opts.preemption_bound;
    }

    std::size_t
    firstAllowed(const Node &n, std::size_t from) const
    {
        for (std::size_t j = from; j < n.options.size(); ++j)
            if (allowedOption(n, j))
                return j;
        return kNpos;
    }

    /** Sleep set a fresh node inherits: the previous thread node's
     *  set minus entries dependent with the op just executed. */
    void
    inheritSleep(Node &n) const
    {
        if (!opts.sleep_sets)
            return;
        for (std::size_t i = depth; i-- > 0;) {
            const Node &p = path[i];
            if (!p.thread_node)
                continue;
            const OpSig &executed = p.sigs[p.chosen];
            for (const auto &s : p.slept)
                if (!dependentOps(s.second, executed))
                    n.slept.push_back(s);
            return;
        }
    }

    /**
     * Pick the lane to grant. Returns kNoLane when the schedule is
     * abandoned: either every enabled lane is slept (the subtree is
     * a commutation of one already explored — prune) or a replay
     * mismatch failed the run (failed is set).
     */
    unsigned
    pickThread(const std::vector<unsigned> &enabled_ordered)
    {
        if (depth < path.size()) {
            Node &n = path[depth];
            if (!n.thread_node || n.options != enabled_ordered) {
                fail("nondeterministic replay: thread choices "
                     "diverged between executions — the test body "
                     "must be deterministic (no wall clock, no "
                     "unseeded randomness, state constructed inside "
                     "the body)");
                return kNoLane;
            }
            if (n.options[n.chosen] != n.running_before &&
                n.running_enabled)
                ++preemptions;
            ++depth;
            return n.options[n.chosen];
        }

        Node n;
        n.thread_node = true;
        n.running_before = running;
        n.preemptions_before = preemptions;
        n.options = enabled_ordered;
        n.running_enabled =
            std::find(n.options.begin(), n.options.end(), running) !=
            n.options.end();
        for (unsigned t : n.options)
            n.sigs.push_back(lanes[t].pending);
        inheritSleep(n);

        std::size_t pick = kNpos;
        if (replay_mode && depth < forced.size()) {
            if (forced[depth].first != 'T') {
                fail("replay: decision " + std::to_string(depth) +
                     " is a thread choice, replay says value");
                return kNoLane;
            }
            auto it = std::find(n.options.begin(), n.options.end(),
                                forced[depth].second);
            if (it == n.options.end()) {
                fail("replay: t" +
                     std::to_string(forced[depth].second) +
                     " not enabled at decision " +
                     std::to_string(depth));
                return kNoLane;
            }
            pick = static_cast<std::size_t>(it - n.options.begin());
        } else {
            pick = firstAllowed(n, 0);
            if (pick == kNpos)
                return kNoLane; // pruned: redundant interleaving
        }
        n.chosen = pick;
        if (n.options[pick] != n.running_before && n.running_enabled)
            ++preemptions;
        path.push_back(std::move(n));
        ++depth;
        return path.back().options[path.back().chosen];
    }

    /**
     * Fork the exploration over @p count alternatives of the op the
     * calling lane is executing (load visibility). Choice 0 is the
     * newest store; value choices cost no preemption budget.
     */
    unsigned
    choose(unsigned count)
    {
        if (count <= 1)
            return 0;
        if (depth < path.size()) {
            Node &n = path[depth];
            if (n.thread_node || n.options.size() != count)
                failAndUnwind(
                    "nondeterministic replay: value choices "
                    "diverged between executions");
            ++depth;
            return n.options[n.chosen];
        }
        Node n;
        n.thread_node = false;
        n.options.resize(count);
        for (unsigned i = 0; i < count; ++i)
            n.options[i] = i;
        n.chosen = 0;
        if (replay_mode && depth < forced.size()) {
            if (forced[depth].first != 'V' ||
                forced[depth].second >= count)
                failAndUnwind("replay: bad value decision " +
                              std::to_string(depth));
            n.chosen = forced[depth].second;
        }
        path.push_back(std::move(n));
        ++depth;
        return path.back().options[path.back().chosen];
    }

    /**
     * Backtrack after a completed (or pruned) schedule: sleep the
     * explored branch, advance the deepest node with an allowed
     * unexplored sibling, drop exhausted nodes. False = done.
     */
    bool
    advance()
    {
        while (!path.empty()) {
            Node &n = path.back();
            if (n.thread_node) {
                if (opts.sleep_sets)
                    n.slept.emplace_back(n.options[n.chosen],
                                         n.sigs[n.chosen]);
                const std::size_t j = firstAllowed(n, n.chosen + 1);
                if (j != kNpos) {
                    n.chosen = j;
                    return true;
                }
            } else if (n.chosen + 1 < n.options.size()) {
                ++n.chosen;
                return true;
            }
            path.pop_back();
        }
        return false;
    }

    // --------------------------------------------- schedule driver

    /** Clear Mutex/Join blocks whose condition now holds (futex
     *  blocks are cleared only by an explicit notify). */
    void
    refreshBlocked()
    {
        for (unsigned t = 0; t < nlanes; ++t) {
            Lane &ln = lanes[t];
            if (!ln.live || !ln.blocked)
                continue;
            bool wake = false;
            if (ln.cause == Lane::Block::Join) {
                wake = true;
                for (unsigned u = 0; u < nlanes && wake; ++u)
                    if (u != t && lanes[u].live &&
                        lanes[u].phase != Lane::Phase::Done)
                        wake = false;
            } else if (ln.cause == Lane::Block::Mutex) {
                wake = ln.wait_mutex && ln.wait_mutex->locked_by < 0;
            }
            if (wake) {
                ln.blocked = false;
                ln.cause = Lane::Block::None;
                ln.wait_mutex = nullptr;
            }
        }
    }

    /** Run one schedule to completion; false = it failed. */
    bool
    runOne()
    {
        ++epoch;
        ++schedules;
        steps = 0;
        preemptions = 0;
        depth = 0;
        running = 0;
        aborting = false;
        names_atomic = names_cell = names_mutex = 0;
        for (Clock &c : clk)
            c.fill(0);
        events.clear();
        for (Lane &ln : lanes) {
            ln.live = false;
            ln.blocked = false;
            ln.cause = Lane::Block::None;
            ln.wait_mutex = nullptr;
        }
        nlanes = 1;
        armLane(0, main_body);

        for (;;) {
            refreshBlocked();
            std::vector<unsigned> enabled;
            bool alive = false;
            for (unsigned t = 0; t < nlanes; ++t) {
                Lane &ln = lanes[t];
                if (!ln.live || ln.phase == Lane::Phase::Done)
                    continue;
                alive = true;
                if (!ln.blocked)
                    enabled.push_back(t);
            }
            if (!alive)
                break; // schedule ran to completion
            if (enabled.empty()) {
                fail(deadlockReport());
                abortAll();
                break;
            }
            if (steps >= opts.max_steps) {
                fail("livelock: schedule exceeded " +
                     std::to_string(opts.max_steps) +
                     " steps without completing");
                abortAll();
                break;
            }
            const unsigned t = pickThread(ordered(enabled));
            if (t == kNoLane) {
                abortAll(); // pruned, or failed replay verification
                break;
            }
            ++steps;
            running = t;
            grant(t);
            if (failed) {
                abortAll();
                break;
            }
        }
        total_steps += steps;
        return !failed;
    }

    // --------------------------------------------- memory model

    void
    ensure(AtomicState &a)
    {
        if (a.epoch == epoch)
            return;
        a.epoch = epoch;
        a.id = ++names_atomic;
        a.stores.clear();
        a.stores.push_back(AtomicState::Store{a.plain, kMaxThreads,
                                              0, false, Clock{}});
        a.base = 0;
        a.floor = 0;
        a.last_read.fill(0);
        a.waiters.clear();
    }

    void
    ensure(CellState &c)
    {
        if (c.epoch == epoch)
            return;
        c.epoch = epoch;
        c.id = ++names_cell;
        c.written = false;
        c.last_writer = 0;
        c.write_stamp = 0;
        c.read_stamps.fill(0);
    }

    void
    ensure(MutexState &m)
    {
        if (m.epoch == epoch)
            return;
        m.epoch = epoch;
        m.id = ++names_mutex;
        m.locked_by = -1;
        m.has_sync = false;
        m.sync_clock.fill(0);
    }

    static OpSig
    sigOf(const AtomicState &a, bool write)
    {
        return OpSig{kLocAtomic | a.id, write, false};
    }

    static OpSig
    sigOf(const CellState &c, bool write)
    {
        return OpSig{kLocCell | c.id, write, false};
    }

    static OpSig
    sigOf(const MutexState &m)
    {
        return OpSig{kLocMutex | m.id, true, false};
    }

    AtomicState::Store &
    storeAt(AtomicState &a, std::size_t abs)
    {
        return a.stores[abs - a.base];
    }

    std::size_t
    latestIndex(const AtomicState &a) const
    {
        return a.base + a.stores.size() - 1;
    }

    void
    joinClock(const Clock &other)
    {
        Clock &mine = clk[tls_lane];
        for (unsigned i = 0; i < kMaxThreads; ++i)
            mine[i] = std::max(mine[i], other[i]);
    }

    void
    pushStore(AtomicState &a, std::uint64_t v, bool rel, bool chain)
    {
        AtomicState::Store s;
        s.value = v;
        s.thread = tls_lane;
        s.self_stamp = clk[tls_lane][tls_lane];
        if (rel) {
            s.has_sync = true;
            s.sync_clock = clk[tls_lane];
            // An RMW continues the release sequence of the store it
            // replaced: an acquire reader syncs with both.
            if (chain && a.stores.back().has_sync) {
                const Clock &head = a.stores.back().sync_clock;
                for (unsigned i = 0; i < kMaxThreads; ++i)
                    s.sync_clock[i] =
                        std::max(s.sync_clock[i], head[i]);
            }
        } else if (chain) {
            s.has_sync = a.stores.back().has_sync;
            s.sync_clock = a.stores.back().sync_clock;
        }
        a.stores.push_back(s);
        a.plain = v;
    }

    /** Drop stores no load may read anymore (below the floor). */
    void
    trim(AtomicState &a)
    {
        while (a.base < a.floor && a.stores.size() > 1) {
            a.stores.erase(a.stores.begin());
            ++a.base;
        }
    }

    std::uint64_t
    atomicLoad(AtomicState &a, Order o)
    {
        // On abort the result is dead and @p a may be a destroyed
        // stack object of an already-unwound lane — don't touch it
        // (not even ensure()).
        if (aborting)
            return 0;
        ensure(a);
        if (!park(sigOf(a, false),
                  atomicName(a) + ".load(" + ordName(o) + ")",
                  OnAbort::Plain))
            return 0;
        const std::size_t latest = latestIndex(a);
        // Staleness window: bounded below by the write-through
        // floor, this thread's own coherence floor, and the newest
        // store that already happens-before the reader.
        std::size_t lo =
            std::max(a.floor, a.last_read[tls_lane]);
        std::size_t hb = a.base;
        for (std::size_t i = latest;; --i) {
            const AtomicState::Store &s = storeAt(a, i);
            if (s.thread >= kMaxThreads ||
                s.self_stamp <= clk[tls_lane][s.thread]) {
                hb = i;
                break;
            }
            if (i == a.base)
                break;
        }
        lo = std::max(lo, hb);
        const unsigned span = static_cast<unsigned>(latest - lo) + 1;
        const unsigned back = choose(span); // 0 = newest
        const std::size_t idx = latest - back;
        const AtomicState::Store &s = storeAt(a, idx);
        a.last_read[tls_lane] =
            std::max(a.last_read[tls_lane], idx);
        if (acquiring(o) && s.has_sync)
            joinClock(s.sync_clock);
        note(" = " + num(s.value) +
             (back ? " [stale, " + std::to_string(back) + " behind]"
                   : ""));
        return s.value;
    }

    void
    atomicStore(AtomicState &a, std::uint64_t v, Order o)
    {
        if (aborting)
            return; // @p a may already be destroyed
        ensure(a);
        if (!park(sigOf(a, true),
                  atomicName(a) + ".store(" + num(v) + ", " +
                      ordName(o) + ")",
                  OnAbort::Plain))
            return; // aborting: @p a may already be destroyed
        pushStore(a, v, releasing(o), false);
        if (o == Order::SeqCst)
            a.floor = latestIndex(a);
        trim(a);
    }

    std::uint64_t
    atomicRmw(AtomicState &a, Rmw op, std::uint64_t operand, Order o)
    {
        if (aborting)
            return 0; // @p a may already be destroyed
        ensure(a);
        if (!park(sigOf(a, true),
                  atomicName(a) + "." + rmwName(op) + "(" +
                      num(operand) + ", " + ordName(o) + ")",
                  OnAbort::Plain))
            return 0; // aborting: @p a may already be destroyed
        const std::uint64_t old = a.stores.back().value;
        if (acquiring(o) && a.stores.back().has_sync)
            joinClock(a.stores.back().sync_clock);
        pushStore(a, applyRmw(op, old, operand), releasing(o), true);
        a.floor = latestIndex(a); // RMWs write through (TSO approx)
        trim(a);
        note(" -> " + num(old));
        return old;
    }

    void
    atomicWait(AtomicState &a, std::uint64_t old, Order o)
    {
        if (aborting)
            throw AbortSchedule{}; // @p a may already be destroyed
        ensure(a);
        park(sigOf(a, true),
             atomicName(a) + ".wait(" + num(old) + ")",
             OnAbort::Throw);
        for (;;) {
            const AtomicState::Store &latest = a.stores.back();
            if (latest.value != old) {
                a.last_read[tls_lane] = std::max(
                    a.last_read[tls_lane], latestIndex(a));
                if (acquiring(o) && latest.has_sync)
                    joinClock(latest.sync_clock);
                note(" -> saw " + num(latest.value));
                return;
            }
            a.waiters.push_back(tls_lane);
            Lane &ln = lanes[tls_lane];
            ln.blocked = true;
            ln.cause = Lane::Block::Futex;
            park(sigOf(a, true),
                 atomicName(a) + ".wait(" + num(old) +
                     ") [recheck]",
                 OnAbort::Throw);
        }
    }

    void
    atomicNotify(AtomicState &a, bool all)
    {
        if (aborting)
            return; // @p a may already be destroyed
        ensure(a);
        if (!park(sigOf(a, true),
                  atomicName(a) +
                      (all ? ".notify_all()" : ".notify_one()"),
                  OnAbort::Plain))
            return;
        unsigned woken = 0;
        while (!a.waiters.empty()) {
            const unsigned t = a.waiters.front();
            a.waiters.erase(a.waiters.begin());
            lanes[t].blocked = false;
            lanes[t].cause = Lane::Block::None;
            ++woken;
            if (!all)
                break;
        }
        note(" -> woke " + std::to_string(woken));
    }

    void
    mutexLock(MutexState &m)
    {
        if (aborting)
            throw AbortSchedule{}; // @p m may already be destroyed
        ensure(m);
        park(sigOf(m), mutexName(m) + ".lock()", OnAbort::Throw);
        for (;;) {
            if (m.locked_by < 0) {
                m.locked_by = static_cast<int>(tls_lane);
                if (m.has_sync)
                    joinClock(m.sync_clock);
                note(" -> acquired");
                return;
            }
            if (m.locked_by == static_cast<int>(tls_lane))
                failAndUnwind("deadlock: t" +
                              std::to_string(tls_lane) +
                              " re-locks " + mutexName(m) +
                              " it already holds");
            Lane &ln = lanes[tls_lane];
            ln.blocked = true;
            ln.cause = Lane::Block::Mutex;
            ln.wait_mutex = &m;
            park(sigOf(m), mutexName(m) + ".lock() [retry]",
                 OnAbort::Throw);
        }
    }

    bool
    mutexTryLock(MutexState &m)
    {
        // Pretend success during abort: the caller proceeds into its
        // critical section (whose unlock also no-ops) instead of
        // spinning on retries that will never be scheduled.
        if (aborting)
            return true;
        ensure(m);
        if (!park(sigOf(m), mutexName(m) + ".try_lock()",
                  OnAbort::Plain))
            return true;
        if (m.locked_by < 0) {
            m.locked_by = static_cast<int>(tls_lane);
            if (m.has_sync)
                joinClock(m.sync_clock);
            note(" -> true");
            return true;
        }
        note(" -> false");
        return false;
    }

    void
    mutexUnlock(MutexState &m)
    {
        if (aborting)
            return; // @p m may already be destroyed
        ensure(m);
        if (!park(sigOf(m), mutexName(m) + ".unlock()",
                  OnAbort::Plain))
            return;
        if (m.locked_by != static_cast<int>(tls_lane))
            failAndUnwind("unlock of " + mutexName(m) +
                          " by t" + std::to_string(tls_lane) +
                          ", which does not hold it");
        m.locked_by = -1;
        m.has_sync = true;
        m.sync_clock = clk[tls_lane];
    }

    // ------------------------------------------- race detection

    bool
    cellRead(CellState &c)
    {
        // False = aborting: the caller must not touch the guarded
        // data either — the cell may live in a destroyed frame.
        if (aborting)
            return false;
        ensure(c);
        if (!park(sigOf(c, false), cellName(c) + ".read",
                  OnAbort::Plain))
            return false;
        const Clock &me = clk[tls_lane];
        if (c.written && c.last_writer != tls_lane &&
            c.write_stamp > me[c.last_writer])
            failAndUnwind("data race on " + cellName(c) + ": t" +
                          std::to_string(tls_lane) +
                          " reads concurrently with t" +
                          std::to_string(c.last_writer) +
                          "'s write");
        c.read_stamps[tls_lane] = me[tls_lane];
        return true;
    }

    bool
    cellWrite(CellState &c)
    {
        if (aborting)
            return false; // see cellRead
        ensure(c);
        if (!park(sigOf(c, true), cellName(c) + ".write",
                  OnAbort::Plain))
            return false;
        const Clock &me = clk[tls_lane];
        if (c.written && c.last_writer != tls_lane &&
            c.write_stamp > me[c.last_writer])
            failAndUnwind("data race on " + cellName(c) + ": t" +
                          std::to_string(tls_lane) +
                          " writes concurrently with t" +
                          std::to_string(c.last_writer) +
                          "'s write");
        for (unsigned u = 0; u < kMaxThreads; ++u)
            if (u != tls_lane && c.read_stamps[u] > me[u])
                failAndUnwind("data race on " + cellName(c) +
                              ": t" + std::to_string(tls_lane) +
                              " writes concurrently with t" +
                              std::to_string(u) + "'s read");
        c.written = true;
        c.last_writer = tls_lane;
        c.write_stamp = me[tls_lane];
        return true;
    }

    // ------------------------------------------- body-level verbs

    void
    spawnLane(std::function<void()> fn)
    {
        park(OpSig{0, false, true}, "spawn", OnAbort::Throw);
        if (nlanes >= kMaxThreads)
            failAndUnwind("spawn: more than " +
                          std::to_string(kMaxThreads) +
                          " virtual threads");
        const unsigned id = nlanes++;
        armLane(id, std::move(fn));
        clk[id] = clk[tls_lane]; // thread-start edge
        note(" -> t" + std::to_string(id));
    }

    void
    joinLanes()
    {
        park(OpSig{0, false, true}, "join", OnAbort::Throw);
        for (;;) {
            bool all_done = true;
            for (unsigned u = 0; u < nlanes; ++u)
                if (u != tls_lane && lanes[u].live &&
                    lanes[u].phase != Lane::Phase::Done)
                    all_done = false;
            if (all_done) {
                for (unsigned u = 0; u < nlanes; ++u)
                    if (u != tls_lane && lanes[u].live)
                        joinClock(clk[u]); // thread-join edge
                note(" -> all done");
                return;
            }
            Lane &ln = lanes[tls_lane];
            ln.blocked = true;
            ln.cause = Lane::Block::Join;
            park(OpSig{0, false, true}, "join [wait]",
                 OnAbort::Throw);
        }
    }
};

} // namespace

// ------------------------------------------------------ public API

std::string
Result::report() const
{
    std::ostringstream os;
    if (ok) {
        os << "ok: " << schedules << " schedules, " << steps
           << " steps" << (exhausted ? " (budget exhausted)" : "");
    } else {
        os << "FAILED: " << failure << "\n  decisions: ["
           << decisions << "]\n  trace:\n"
           << trace;
    }
    return os.str();
}

Result
explore(const Options &opts, const std::function<void()> &body)
{
    if (tls_impl != nullptr) {
        std::fprintf(stderr,
                     "srb_model: nested explore() is unsupported\n");
        std::abort();
    }
    Impl impl;
    impl.opts = opts;
    impl.main_body = body;
    Result res;
    if (!opts.replay.empty()) {
        impl.replay_mode = true;
        if (!parseReplay(opts.replay, &impl.forced)) {
            res.ok = false;
            res.failure = "unparsable replay string: " + opts.replay;
            return res;
        }
    }
    for (;;) {
        if (impl.schedules >= opts.max_schedules) {
            res.exhausted = true;
            break;
        }
        const bool good = impl.runOne();
        if (!good) {
            res.ok = false;
            res.failure = impl.failure;
            res.decisions = impl.fail_decisions;
            res.trace = impl.fail_trace;
            break;
        }
        if (impl.replay_mode)
            break;
        if (!impl.advance())
            break;
    }
    res.schedules = impl.schedules;
    res.steps = impl.total_steps;
    impl.shutdownLanes();
    return res;
}

Result
explore(const std::function<void()> &body)
{
    return explore(Options{}, body);
}

void
spawn(std::function<void()> fn)
{
    if (tls_impl == nullptr) {
        std::fprintf(stderr,
                     "srb_model: spawn() outside explore()\n");
        std::abort();
    }
    tls_impl->spawnLane(std::move(fn));
}

void
joinAll()
{
    if (tls_impl == nullptr) {
        std::fprintf(stderr,
                     "srb_model: joinAll() outside explore()\n");
        std::abort();
    }
    tls_impl->joinLanes();
}

void
modelAssert(bool ok, const char *msg)
{
    Impl *impl = tls_impl;
    if (impl == nullptr) {
        if (!ok) {
            std::fprintf(stderr, "srb_model: assert failed: %s\n",
                         msg);
            std::abort();
        }
        return;
    }
    if (ok || impl->aborting)
        return;
    impl->fail(std::string("assertion failed: ") + msg);
    throw AbortSchedule{};
}

bool
active()
{
    return tls_impl != nullptr;
}

unsigned
laneIndex()
{
    return tls_impl != nullptr ? tls_lane : 0u;
}

unsigned
preemptionBoundFromEnv(unsigned fallback)
{
    const char *env = std::getenv("SRBENES_MODEL_PREEMPTIONS");
    if (env == nullptr || *env == '\0')
        return fallback;
    char *end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end == env || *end != '\0')
        return fallback;
    return static_cast<unsigned>(std::min(8ul, std::max(1ul, v)));
}

// --------------------------------------------------- shim surface

std::uint64_t
atomicLoad(AtomicState &a, Order o)
{
    if (tls_impl == nullptr)
        return a.plain;
    return tls_impl->atomicLoad(a, o);
}

void
atomicStore(AtomicState &a, std::uint64_t v, Order o)
{
    if (tls_impl == nullptr) {
        a.plain = v;
        return;
    }
    tls_impl->atomicStore(a, v, o);
}

std::uint64_t
atomicRmw(AtomicState &a, Rmw op, std::uint64_t operand, Order o)
{
    if (tls_impl == nullptr) {
        const std::uint64_t old = a.plain;
        a.plain = applyRmw(op, old, operand);
        return old;
    }
    return tls_impl->atomicRmw(a, op, operand, o);
}

void
atomicWait(AtomicState &a, std::uint64_t old, Order o)
{
    if (tls_impl == nullptr)
        return; // sequential: nobody can change the value
    tls_impl->atomicWait(a, old, o);
}

void
atomicNotify(AtomicState &a, bool all)
{
    if (tls_impl != nullptr)
        tls_impl->atomicNotify(a, all);
}

void
mutexLock(MutexState &m)
{
    if (tls_impl != nullptr)
        tls_impl->mutexLock(m);
}

bool
mutexTryLock(MutexState &m)
{
    if (tls_impl == nullptr)
        return true;
    return tls_impl->mutexTryLock(m);
}

void
mutexUnlock(MutexState &m)
{
    if (tls_impl != nullptr)
        tls_impl->mutexUnlock(m);
}

bool
cellRead(CellState &c)
{
    if (tls_impl == nullptr)
        return true;
    return tls_impl->cellRead(c);
}

bool
cellWrite(CellState &c)
{
    if (tls_impl == nullptr)
        return true;
    return tls_impl->cellWrite(c);
}

} // namespace model
} // namespace srbenes
