#include "core/two_pass.hh"

#include <algorithm>
#include <cstdint>

#include "common/logging.hh"
#include "core/fast_kernels.hh"

namespace srbenes
{

namespace
{

/**
 * Flat scratch of the level-by-level factor, one set per thread;
 * capacity persists across plans. Level l holds its 2^l
 * sub-problems of size s = 2^(n-l) side by side: sub-problem k
 * occupies [k*s, (k+1)*s), and its children at level l+1 take the
 * upper and lower halves of that same range. Indices inside a
 * sub-problem are local, in [0, s).
 */
struct FactorScratch
{
    /** Input feeding each local output. */
    std::vector<std::uint32_t> dinv, dinv_next;
    /** Original input id carried by each slot. */
    std::vector<std::uint32_t> ids, ids_next;
    /** Loop successor of each slot, nxt[x] = dinv[d[x^1]^1]. */
    std::vector<std::uint32_t> nxt;
    /** 0 = uncolored, 1 = upper subnetwork, 2 = lower. */
    std::vector<std::uint16_t> color;
};

thread_local FactorScratch t_factor;

/**
 * The looping 2-coloring of the Waksman algorithm, run one whole
 * recursion level at a time: instead of emitting switch states, it
 * records for each original input the upper/lower decision at every
 * level. Those decision bits ARE the middle-stage line label M_i in
 * the recursive numbering of B(n):
 *
 *  - the level-l decision becomes bit l of M_i (which B(n-1-l)
 *    subnetwork the signal uses);
 *  - the port of the final B(1) block (the signal's local input
 *    index there) becomes the top bit.
 *
 * Because each level packs a parent's upper child into the first
 * half of its range and the lower child into the second, an input's
 * final slot spells its decisions from the top bit down: M_i is the
 * n-bit reversal of that slot.
 *
 * By construction M separates every input pair and every output
 * pair at every granularity, which is exactly Lawrie's pair of
 * window conditions: M is in InverseOmega(n) and D o M^-1 is in
 * Omega(n). Writes M into @p mid and D o M^-1 into @p second.
 *
 * @param seed loop-coloring seed; 0 = canonical (always pick 0).
 */
void
factorLevels(const std::vector<Word> &dest, unsigned n,
             std::uint64_t seed, std::vector<Word> &mid,
             std::vector<Word> &second)
{
    const std::uint32_t size = std::uint32_t{1} << n;
    FactorScratch &sc = t_factor;
    sc.dinv.resize(size);
    sc.dinv_next.resize(size);
    sc.ids.resize(size);
    sc.ids_next.resize(size);
    sc.nxt.resize(size);
    sc.color.resize(size);

    for (std::uint32_t x = 0; x < size; ++x) {
        sc.dinv[dest[x]] = x;
        sc.ids[x] = x;
    }

    const KernelTable &kern = activeKernels();

    for (unsigned level = 0; level + 1 < n; ++level) {
        const std::uint32_t s = size >> level;
        const std::uint32_t *dinv = sc.dinv.data();
        std::uint32_t *nxt = sc.nxt.data();

        // The alternating loop of the Waksman setup: inputs of one
        // pair must part ways, and so must the inputs a and b
        // feeding one output pair — so the loop leaving a's partner
        // continues at b, and the one leaving b's partner at a.
        // Precomputing those successors leaves a single dependent
        // load per step of the chase below.
        for (std::uint32_t y = 0; y < size; y += 2) {
            const std::uint32_t o = y & ~(s - 1);
            const std::uint32_t a = dinv[y];
            const std::uint32_t b = dinv[y + 1];
            nxt[o | (a ^ 1)] = o | b;
            nxt[o | (b ^ 1)] = o | a;
        }

        // The chase colors every loop and the split builds the
        // children from the colors, both through the kernel table,
        // whose scalar bodies are the reference.
        std::fill(sc.color.begin(), sc.color.end(), 0);
        const FactorLevel lv{.size = size,
                             .s = s,
                             .level = level,
                             .seed = seed,
                             .dinv = dinv,
                             .ids = sc.ids.data(),
                             .nxt = nxt,
                             .color = sc.color.data(),
                             .dinv_next = sc.dinv_next.data(),
                             .ids_next = sc.ids_next.data()};
        kern.factorChase(lv);
        kern.factorSplit(lv);
        sc.dinv.swap(sc.dinv_next);
        sc.ids.swap(sc.ids_next);
    }

    // Every sub-problem is now a final B(1). The bit reversal of
    // each slot is built in the spent successor array.
    std::uint32_t *rev = sc.nxt.data();
    rev[0] = 0;
    for (std::uint32_t x = 1; x < size; ++x)
        rev[x] = (rev[x >> 1] >> 1) | ((x & 1) << (n - 1));
    for (std::uint32_t x = 0; x < size; ++x) {
        const std::uint32_t id = sc.ids[x];
        mid[id] = rev[x];
        second[rev[x]] = dest[id];
    }
}

} // namespace

TwoPassPlan
twoPassPlan(const SelfRoutingBenes &net, const Permutation &d)
{
    return twoPassPlanSeeded(net, d, 0);
}

TwoPassPlan
twoPassPlanSeeded(const SelfRoutingBenes &net, const Permutation &d,
                  std::uint64_t seed)
{
    const unsigned n = net.topology().n();
    const Word size = net.numLines();
    if (d.size() != size)
        fatal("permutation size %zu does not match network N = %llu",
              d.size(), static_cast<unsigned long long>(size));

    if (n == 1) {
        // Omega(1) is everything; one real pass suffices.
        return {Permutation::identity(size), d};
    }

    std::vector<Word> mid(size);
    std::vector<Word> second(size);
    factorLevels(d.dest(), n, seed, mid, second);
    return {Permutation(std::move(mid)),
            Permutation(std::move(second))};
}

std::vector<Word>
twoPassPermute(const SelfRoutingBenes &net, const TwoPassPlan &plan,
               const std::vector<Word> &data)
{
    const auto mid = net.permutePayloads(plan.first, data,
                                         RoutingMode::SelfRouting);
    if (!mid)
        panic("two-pass plan: first pass not self-routable");
    const auto out = net.permutePayloads(plan.second, *mid,
                                         RoutingMode::OmegaBit);
    if (!out)
        panic("two-pass plan: second pass not omega-routable");
    return *out;
}

} // namespace srbenes
