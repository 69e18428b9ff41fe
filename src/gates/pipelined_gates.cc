#include "gates/pipelined_gates.hh"

#include "common/logging.hh"
#include "core/topology.hh"

namespace srbenes
{

PipelinedBenesGateModel::PipelinedBenesGateModel(unsigned n)
    : n_(n)
{
    if (n < 1 || n > 10)
        fatal("pipelined gate model size n = %u out of supported "
              "range", n);

    const BenesTopology topo(n);
    const Word size = topo.numLines();

    inputs_.assign(size, std::vector<NodeId>(n));
    for (Word line = 0; line < size; ++line)
        for (unsigned b = 0; b < n; ++b)
            inputs_[line][b] = net_.addInput();

    std::vector<std::vector<NodeId>> cur = inputs_;
    std::vector<std::vector<NodeId>> next(size,
                                          std::vector<NodeId>(n));

    for (unsigned s = 0; s < topo.numStages(); ++s) {
        const unsigned b = topo.controlBit(s);
        for (Word i = 0; i < topo.switchesPerStage(); ++i) {
            const NodeId control = cur[2 * i][b];
            for (unsigned t = 0; t < n; ++t) {
                const NodeId up = cur[2 * i][t];
                const NodeId lo = cur[2 * i + 1][t];
                // Mux, then the stage's register bank.
                next[2 * i][t] =
                    net_.addReg(net_.addMux(control, up, lo));
                next[2 * i + 1][t] =
                    net_.addReg(net_.addMux(control, lo, up));
            }
        }
        if (s + 1 < topo.numStages()) {
            topo.crossBoundary(s, next, cur);
        } else {
            cur = next;
        }
    }
    outputs_ = cur;
}

std::vector<std::vector<Word>>
PipelinedBenesGateModel::simulateStream(
    const std::vector<Permutation> &vectors,
    unsigned extra_cycles) const
{
    if (vectors.empty())
        fatal("simulateStream needs at least one vector");
    const Word size = numLines();
    std::vector<std::uint8_t> reg_state(net_.numRegs(), 0);
    std::vector<std::vector<Word>> per_cycle;

    const std::size_t cycles = vectors.size() + extra_cycles;
    for (std::size_t c = 0; c < cycles; ++c) {
        std::vector<std::uint8_t> in;
        in.reserve(size * n_);
        const Permutation &d =
            vectors[std::min(c, vectors.size() - 1)];
        const bool live = c < vectors.size();
        for (Word line = 0; line < size; ++line)
            for (unsigned b = 0; b < n_; ++b)
                in.push_back(static_cast<std::uint8_t>(
                    live ? bit(d[line], b) : 0));

        const auto values = net_.evaluateSeq(in, reg_state);

        std::vector<Word> tags(size, 0);
        for (Word line = 0; line < size; ++line)
            for (unsigned b = 0; b < n_; ++b)
                tags[line] |= Word{values[outputs_[line][b]]} << b;
        per_cycle.push_back(std::move(tags));
    }
    return per_cycle;
}

} // namespace srbenes
