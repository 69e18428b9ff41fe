#include "gates/benes_gates.hh"

#include "common/logging.hh"
#include "core/topology.hh"

namespace srbenes
{

BenesGateModel::BenesGateModel(unsigned n, bool with_omega_input)
    : n_(n), with_omega_(with_omega_input)
{
    if (n < 1 || n > 12)
        fatal("gate model size n = %u out of supported range "
              "(netlists get large)", n);

    const BenesTopology topo(n);
    const Word size = topo.numLines();

    // Primary inputs: the n tag bits of every line, then the omega
    // mode flag.
    inputs_.assign(size, std::vector<NodeId>(n));
    for (Word line = 0; line < size; ++line)
        for (unsigned b = 0; b < n; ++b)
            inputs_[line][b] = net_.addInput();
    NodeId not_omega = 0;
    if (with_omega_) {
        omega_input_ = net_.addInput();
        not_omega = net_.addNot(omega_input_);
    }

    // cur[line][bit]: the node currently driving that tag bit.
    std::vector<std::vector<NodeId>> cur = inputs_;
    std::vector<std::vector<NodeId>> next(size,
                                          std::vector<NodeId>(n));

    for (unsigned s = 0; s < topo.numStages(); ++s) {
        const unsigned b = topo.controlBit(s);
        const bool omega_forced = with_omega_ && s + 1 < n;
        for (Word i = 0; i < topo.switchesPerStage(); ++i) {
            // The self-setting "logic": the control is just the
            // upper tag's bit b, ANDed with !omega in the forced
            // stages.
            NodeId control = cur[2 * i][b];
            if (omega_forced)
                control = net_.addAnd(control, not_omega);

            for (unsigned t = 0; t < n; ++t) {
                const NodeId up = cur[2 * i][t];
                const NodeId lo = cur[2 * i + 1][t];
                next[2 * i][t] = net_.addMux(control, up, lo);
                next[2 * i + 1][t] = net_.addMux(control, lo, up);
            }
        }

        // Fixed wiring: pure renaming, no gates.
        if (s + 1 < topo.numStages()) {
            topo.crossBoundary(s, next, cur);
        } else {
            cur = next;
        }
    }
    outputs_ = cur;
}

std::vector<Word>
BenesGateModel::simulate(const Permutation &d, bool omega_mode) const
{
    const Word size = numLines();
    if (d.size() != size)
        fatal("permutation size %zu does not match gate model "
              "N = %llu", d.size(),
              static_cast<unsigned long long>(size));

    std::vector<std::uint8_t> in;
    in.reserve(size * n_ + (with_omega_ ? 1 : 0));
    for (Word line = 0; line < size; ++line)
        for (unsigned b = 0; b < n_; ++b)
            in.push_back(static_cast<std::uint8_t>(bit(d[line], b)));
    if (with_omega_)
        in.push_back(static_cast<std::uint8_t>(omega_mode));
    else if (omega_mode)
        fatal("omega mode requested on a model built without the "
              "omega input");

    const auto values = net_.evaluate(in);

    std::vector<Word> tags(size, 0);
    for (Word line = 0; line < size; ++line)
        for (unsigned b = 0; b < n_; ++b)
            tags[line] |= Word{values[outputs_[line][b]]} << b;
    return tags;
}

} // namespace srbenes
