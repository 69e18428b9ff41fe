#include "host.hh"

#include <dirent.h>

#include <fstream>
#include <sstream>
#include <thread>

namespace srbench
{

CpuJiffies
readCpuJiffies()
{
    CpuJiffies j;
    std::ifstream in("/proc/stat");
    std::string line;
    if (!std::getline(in, line) || line.compare(0, 4, "cpu ") != 0)
        return j;
    std::istringstream fields(line.substr(4));
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user, so only the first eight add.
    std::uint64_t v = 0;
    for (int i = 0; i < 8 && (fields >> v); ++i) {
        j.total += v;
        if (i == 7)
            j.steal = v;
    }
    return j;
}

double
stealPct(const CpuJiffies &a, const CpuJiffies &b)
{
    if (b.total <= a.total)
        return 0;
    return 100.0 * static_cast<double>(b.steal - a.steal) /
           static_cast<double>(b.total - a.total);
}

std::uint64_t
processRunNs(pid_t pid)
{
    const std::string dir = "/proc/" + std::to_string(pid) + "/task";
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return 0;
    std::uint64_t sum = 0;
    while (const dirent *e = ::readdir(d)) {
        if (e->d_name[0] == '.')
            continue;
        std::ifstream in(dir + "/" + e->d_name + "/schedstat");
        std::uint64_t run_ns = 0;
        if (in >> run_ns)
            sum += run_ns;
    }
    ::closedir(d);
    return sum;
}

double
peakRssMiB(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, 6, "VmHWM:") != 0)
            continue;
        std::istringstream fields(line.substr(6));
        double kib = -1;
        fields >> kib;
        return kib < 0 ? -1 : kib / 1024.0;
    }
    return -1;
}

Placement
Placement::choose()
{
    Placement p;
    CPU_ZERO(&p.all);
    if (::sched_getaffinity(0, sizeof(p.all), &p.all) != 0)
        return p;
    p.cpus = static_cast<unsigned>(CPU_COUNT(&p.all));
    CPU_ZERO(&p.generator);
    CPU_ZERO(&p.server);
    bool first = true;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (!CPU_ISSET(c, &p.all))
            continue;
        if (first)
            CPU_SET(c, &p.generator);
        else
            CPU_SET(c, &p.server);
        first = false;
    }
    return p;
}

void
Placement::apply(const cpu_set_t &set)
{
    ::sched_setaffinity(0, sizeof(set), &set);
}

CpuKeepers::CpuKeepers(const cpu_set_t &cpus)
{
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (!CPU_ISSET(c, &cpus))
            continue;
        threads_.emplace_back([this, c] {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(c, &one);
            ::sched_setaffinity(0, sizeof(one), &one);
            sched_param param{};
            ::sched_setscheduler(0, SCHED_IDLE, &param);
            // order: relaxed; the flag carries no data.
            while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
                __builtin_ia32_pause();
#endif
            }
        });
    }
}

CpuKeepers::~CpuKeepers()
{
    // order: relaxed; see the loop above.
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread &t : threads_)
        t.join();
}

} // namespace srbench
