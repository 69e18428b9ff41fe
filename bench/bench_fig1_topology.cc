/**
 * @file
 * Experiment F1 -- Fig. 1 of the paper: the recursive structure of
 * B(n). Prints the structural inventory (stages, switches per
 * stage, total switches = N log N - N/2) across sizes and dumps the
 * B(3) wiring so the two B(2) subnetworks are visible.
 *
 * Timed section: what a table of the wiring would serve, computed.
 * BenesTopology stores only n, so one N-line vector moved across all
 * 2n-2 stage boundaries with crossBoundary is the wiring's cost to a
 * scalar walk (SelfRoutingBenes::runInto moves its signals the same
 * way), at n = 8, 12, 16 and 20.
 */

#include <iostream>
#include <numeric>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/table.hh"
#include "core/topology.hh"

namespace
{

using namespace srbenes;

void
printStructure()
{
    std::cout << "=== Fig. 1: Benes network B(n) structure ===\n\n";

    TextTable table({"n", "N", "stages (2n-1)", "switches/stage",
                     "total switches", "N lg N - N/2"});
    for (unsigned n = 1; n <= 12; ++n) {
        const BenesTopology topo(n);
        const Word size = topo.numLines();
        table.newRow();
        table.addCell(n);
        table.addCell(size);
        table.addCell(topo.numStages());
        table.addCell(topo.switchesPerStage());
        table.addCell(topo.numSwitches());
        table.addCell(size * n - size / 2);
    }
    table.print(std::cout);

    std::cout << "\nB(3) inter-stage wiring (boundary: line -> "
                 "line), showing the two B(2) subnetworks on lines "
                 "0-3 / 4-7 of stages 1-3:\n";
    const BenesTopology topo(3);
    for (unsigned s = 0; s + 1 < topo.numStages(); ++s) {
        std::cout << "  boundary " << s << ":";
        for (Word line = 0; line < topo.numLines(); ++line)
            std::cout << " " << line << "->" << topo.wireToNext(s, line);
        std::cout << "\n";
    }
    std::cout << "\n";
}

void
BM_CrossAllBoundaries(benchmark::State &state)
{
    const BenesTopology topo(static_cast<unsigned>(state.range(0)));
    std::vector<Word> cur(topo.numLines()), next(topo.numLines());
    std::iota(cur.begin(), cur.end(), Word{0});
    for (auto _ : state) {
        for (unsigned s = 0; s + 1 < topo.numStages(); ++s) {
            topo.crossBoundary(s, cur, next);
            cur.swap(next);
        }
        benchmark::DoNotOptimize(cur.data());
        benchmark::ClobberMemory();
    }
    // Lines moved: N per boundary.
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(topo.numLines()) *
        (topo.numStages() - 1));
}
BENCHMARK(BM_CrossAllBoundaries)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

} // namespace

int
main(int argc, char **argv)
{
    printStructure();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
