#include "core/parallel_setup.hh"

#include "common/logging.hh"
#include "common/prng.hh"

namespace srbenes
{

SwitchStates
parallelSetup(const BenesTopology &topo, const Permutation &d,
              ParallelSetupStats *stats, std::uint64_t seed)
{
    const unsigned n = topo.n();
    const Word size = topo.numLines();
    if (d.size() != size)
        fatal("permutation size %zu does not match network N = %llu",
              d.size(), static_cast<unsigned long long>(size));

    SwitchStates states = topo.makeStates();
    CicMachine cic(size);

    if (n == 1) {
        states[0][0] = static_cast<std::uint8_t>(d[0] == 1);
        if (stats)
            *stats = ParallelSetupStats{0, 1};
        return states;
    }

    // Flat data-parallel state: every recursion level's subproblems
    // tile the PE array contiguously. cur[x] is the LOCAL
    // destination of the signal at flat position x within its
    // block.
    std::vector<Word> cur(d.dest());

    for (unsigned level = 0; level + 1 < n; ++level) {
        const Word block = size >> level; // current subproblem size
        const Word base_mask = ~(block - 1);

        auto base_of = [base_mask](Word x) { return x & base_mask; };

        // dinv (local) scattered to the output's flat slot.
        std::vector<Word> local(size), dest(size);
        for (Word x = 0; x < size; ++x) {
            local[x] = x & (block - 1);
            dest[x] = base_of(x) + cur[x];
        }
        cic.localStep();
        std::vector<Word> dinv(local);
        cic.scatter(dest, std::vector<bool>(size, true), dinv);

        // succ(x) = base + dinv[base + (cur[x^1] xor 1)]: the
        // color-preserving double hop along the constraint cycle.
        std::vector<Word> partner_dest(size);
        for (Word x = 0; x < size; ++x)
            partner_dest[x] = x ^ 1;
        std::vector<Word> t(cur);
        cic.gather(partner_dest, t); // t[x] = cur[x^1]
        std::vector<Word> from(size);
        for (Word x = 0; x < size; ++x)
            from[x] = base_of(x) + (t[x] ^ 1);
        cic.localStep();
        std::vector<Word> succ(dinv);
        cic.gather(from, succ); // succ[x] = dinv at sibling output
        for (Word x = 0; x < size; ++x)
            succ[x] += base_of(x);
        cic.localStep();

        // Orbit minima by pointer jumping; orbit length <= block/2.
        std::vector<Word> minima(size);
        for (Word x = 0; x < size; ++x)
            minima[x] = x;
        cic.localStep();
        for (Word reach = 1; reach < block / 2; reach *= 2) {
            std::vector<Word> m2(minima), s2(succ);
            cic.gather(succ, m2); // m2[x] = minima[succ[x]]
            cic.gather(succ, s2); // s2[x] = succ[succ[x]]
            for (Word x = 0; x < size; ++x)
                minima[x] = std::min(minima[x], m2[x]);
            cic.localStep();
            succ.swap(s2);
        }

        // Color: exactly one of each partner pair goes up. The
        // partner's orbit minimum arrives over the exchange link.
        // The seeded flip keys on the loop-invariant
        // min(own, partner) orbit minimum, so a constraint loop
        // flips wholesale and the coloring stays valid.
        std::vector<Word> partner_min(minima);
        cic.gather(partner_dest, partner_min);
        std::vector<Word> up(size);
        for (Word x = 0; x < size; ++x) {
            Word color = minima[x] > partner_min[x];
            // Top bit: bit 0 of the finalizer is biased over these
            // small structured keys (see fast_kernels.cc loopDraw).
            if (seed != 0)
                color ^= mix64(seed ^ (std::uint64_t{level} << 48) ^
                               std::min(minima[x], partner_min[x])) >>
                         63;
            up[x] = color;
        }
        cic.localStep();

        // Opening-stage states (stage = level).
        for (Word x = 0; x < size; x += 2)
            states[level][x >> 1] = static_cast<std::uint8_t>(up[x]);
        cic.localStep();

        // Closing-stage states (stage = 2n-2-level): output 2j of a
        // block comes from the upper subnetwork iff its feeding
        // input went up.
        std::vector<Word> up_at_output(up);
        std::vector<Word> dinv_flat(size);
        for (Word x = 0; x < size; ++x)
            dinv_flat[x] = base_of(x) + dinv[x];
        cic.localStep();
        cic.gather(dinv_flat, up_at_output);
        const unsigned closing = 2 * n - 2 - level;
        for (Word y = 0; y < size; y += 2)
            states[closing][y >> 1] =
                static_cast<std::uint8_t>(up_at_output[y]);
        cic.localStep();

        // Build the next level: signal x moves to the slot of its
        // half-size subproblem, carrying cur[x] >> 1.
        std::vector<Word> newpos(size), halved(size);
        for (Word x = 0; x < size; ++x) {
            const Word p = x & (block - 1);
            newpos[x] =
                base_of(x) + up[x] * (block / 2) + (p >> 1);
            halved[x] = cur[x] >> 1;
        }
        cic.localStep();
        cic.scatter(newpos, std::vector<bool>(size, true), halved);
        cur.swap(halved);
    }

    // Base level: blocks of 2 are the middle-stage switches.
    for (Word x = 0; x < size; x += 2)
        states[n - 1][x >> 1] =
            static_cast<std::uint8_t>(cur[x] == 1);
    cic.localStep();

    if (stats)
        *stats =
            ParallelSetupStats{cic.unitRoutes(), cic.computeSteps()};
    return states;
}

} // namespace srbenes
