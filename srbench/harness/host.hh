/**
 * @file
 * Host-side readings from /proc: the machine's steal time (so a run
 * taken under host contention can be recognised), a process's
 * summed thread run time, and its peak resident set.
 */

#ifndef SRBENCH_HOST_HH
#define SRBENCH_HOST_HH

#include <sched.h>
#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace srbench
{

/** Aggregate jiffies from the first line of /proc/stat. */
struct CpuJiffies
{
    std::uint64_t total = 0;
    std::uint64_t steal = 0;
};

CpuJiffies readCpuJiffies();

/** Steal as a percentage of all CPU time between two readings. */
double stealPct(const CpuJiffies &a, const CpuJiffies &b);

/**
 * Sum of the run time (ns) of every thread of @p pid, from
 * /proc/<pid>/task/<tid>/schedstat. 0 when the process is gone.
 */
std::uint64_t processRunNs(pid_t pid);

/** VmHWM of @p pid in MiB, or a negative value when unreadable. */
double peakRssMiB(pid_t pid);

/**
 * Usable CPUs a run needs: one for the generator, three for srbd's
 * epoll thread and two workers.
 */
constexpr unsigned kMinCpus = 4;

/**
 * CPU placement of one run: the generator on the first usable CPU,
 * srbd on the rest. Valid only when cpus >= kMinCpus.
 */
struct Placement
{
    cpu_set_t all{};
    cpu_set_t generator{};
    cpu_set_t server{};
    unsigned cpus = 0;

    static Placement choose();
    /** Make the calling thread (and children it spawns) use @p set. */
    static void apply(const cpu_set_t &set);
};

/**
 * One SCHED_IDLE busy-loop thread per CPU of @p cpus, for the
 * object's lifetime. They run only when nothing else on that CPU is
 * runnable, so srbd's threads preempt them at once; what they buy is
 * that those CPUs never halt. On a virtual machine a halted vCPU
 * gives its physical core back to the host, and waking it again
 * costs host scheduling latency that swings with other tenants'
 * load; that swing, not srbd, dominated round trips without them.
 */
class CpuKeepers
{
  public:
    explicit CpuKeepers(const cpu_set_t &cpus);
    ~CpuKeepers();
    CpuKeepers(const CpuKeepers &) = delete;
    CpuKeepers &operator=(const CpuKeepers &) = delete;

  private:
    std::atomic<bool> stop_{false};
    std::vector<std::thread> threads_;
};

} // namespace srbench

#endif // SRBENCH_HOST_HH
