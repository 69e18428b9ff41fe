#include "core/two_pass.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/logging.hh"
#include "core/fast_kernels.hh"
#include "core/waksman.hh"

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
    /** Slots whose loop a pin of the level has bound. */
    std::vector<std::uint8_t> bound;
    /** Sub-problems holding a pin of the level, one bit each. */
    std::vector<std::uint64_t> pinned;
};

thread_local FactorScratch t_factor;

bool
stageLess(const StatePin &a, const StatePin &b)
{
    return a.stage < b.stage;
}

/**
 * Where a Waksman read-out of the factor goes: the switch states,
 * and the pins they must honor, sorted by stage.
 */
struct WaksmanSink
{
    SwitchStates &states;
    std::span<const StatePin> pins;

    /** Stage @p t's pins, one run of the sorted list. */
    std::span<const StatePin>
    stage(unsigned t) const
    {
        const auto [lo, hi] = std::equal_range(
            pins.begin(), pins.end(), StatePin{t, 0, 0}, stageLess);
        return {lo, hi};
    }
};

/**
 * Bind every pin of the level's opening stage and of its mirror
 * closing stage 2n-2-level to one slot's color: an opening pin to
 * the upper input of its switch, a closing pin to the input feeding
 * its switch's even output, color 1 + state either way. The loop
 * through a slot of the wrong color is flipped whole.
 *
 * Loops never leave their sub-problem, so when no two pins fall in
 * one sub-problem (2 * switch >> (n - level)), as with the reduced
 * setup's one fixed switch per subnetwork, no two share a loop: a
 * pinned loop is walked only to flip it, and nothing is marked.
 * Otherwise each loop is walked at most once, to flip it or to mark
 * it bound in @p sc's N-byte array, so a level costs O(N) however
 * many pins it has. Returns false when a pin disagrees with a loop
 * an earlier pin bound.
 */
bool
bindPins(const WaksmanSink &sink, const FactorLevel &lv, unsigned n,
         FactorScratch &sc)
{
    const std::span<const StatePin> open = sink.stage(lv.level);
    const std::span<const StatePin> close = sink.stage(2 * n - 2 - lv.level);
    if (open.empty() && close.empty())
        return true;
    std::uint16_t *color = lv.color;
    // Calls @p bind(slot, state) for every pin until one refuses.
    const auto each = [&](auto &&bind) {
        for (const StatePin &pin : open)
            if (!bind(static_cast<std::uint32_t>(2 * pin.switch_index),
                      pin.state))
                return false;
        for (const StatePin &pin : close) {
            const auto y =
                static_cast<std::uint32_t>(2 * pin.switch_index);
            if (!bind((y & ~(lv.s - 1)) + lv.dinv[y], pin.state))
                return false;
        }
        return true;
    };

    sc.pinned.assign((lv.size / lv.s + 63) / 64, 0);
    const bool apart = each([&](std::uint32_t x, std::uint8_t) {
        const std::uint32_t k = x / lv.s;
        const std::uint64_t bit = std::uint64_t{1} << (k % 64);
        const bool fresh = (sc.pinned[k / 64] & bit) == 0;
        sc.pinned[k / 64] |= bit;
        return fresh;
    });
    if (apart)
        return each([&](std::uint32_t x, std::uint8_t state) {
            if (color[x] != 1 + state) {
                // A pair's two colors are 1 and 2, side by side in
                // one 32-bit word: XOR with 3 in both halves swaps
                // them in one load and one store.
                std::uint32_t y = x;
                do {
                    std::uint32_t pair;
                    std::memcpy(&pair, color + (y & ~1u), sizeof pair);
                    pair ^= 0x00030003u;
                    std::memcpy(color + (y & ~1u), &pair, sizeof pair);
                    y = lv.nxt[y];
                } while (y != x);
            }
            return true;
        });

    std::vector<std::uint8_t> &bound = sc.bound;
    bound.assign(lv.size, 0);
    return each([&](std::uint32_t x, std::uint8_t state) {
        const auto want = static_cast<std::uint16_t>(1 + state);
        if (bound[x])
            return color[x] == want;
        const bool flip = color[x] != want;
        std::uint32_t y = x;
        do {
            bound[y] = bound[y ^ 1] = 1;
            if (flip)
                std::swap(color[y], color[y ^ 1]);
            y = lv.nxt[y];
        } while (y != x);
        return true;
    });
}

/**
 * The looping 2-coloring of the Waksman algorithm, run one whole
 * recursion level at a time: the library's one looping
 * implementation. It leaves, in the scratch, each original input's
 * upper/lower decision at every level spelled by its final slot
 * (middleLabels reads them out).
 *
 * With a @p sink, the same levels are read out as Waksman's switch
 * states. Level l's sub-problems are the B(n-l) subnetworks whose
 * opening switches sit in stage l and closing switches in stage
 * 2n-2-l, both numbered by the sub-problem's slots, and color 2
 * sends a signal to the lower child. So after level l's chase and
 * its pins, switch w of stage l is color[2w] == 2, and switch w of
 * stage 2n-2-l, in sub-problem o = 2w & ~(s-1), is the color of
 * the input feeding its even output, color[o + dinv[2w]] == 2.
 * After the last split every sub-problem is a B(1) switch k of the
 * middle stage, crossed iff dinv[2k] == 1. Returns false, with the
 * states partly written, when the sink's pins conflict.
 *
 * @param seed loop-coloring seed; 0 = canonical (always pick 0).
 */
bool
factorLevels(const std::vector<Word> &dest, unsigned n,
             std::uint64_t seed, WaksmanSink *sink)
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
        // whose scalar bodies are the reference. A Waksman read-out
        // spends the pins' loops and reads its two stages in
        // between.
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
        if (sink) {
            if (!bindPins(*sink, lv, n, sc))
                return false;
            std::uint8_t *open = sink->states[level].data();
            std::uint8_t *close = sink->states[2 * n - 2 - level].data();
            for (std::uint32_t w = 0; w < size / 2; ++w) {
                const std::uint32_t o = (2 * w) & ~(s - 1);
                open[w] = sc.color[2 * w] == 2;
                close[w] = sc.color[o + dinv[2 * w]] == 2;
            }
        }
        kern.factorSplit(lv);
        sc.dinv.swap(sc.dinv_next);
        sc.ids.swap(sc.ids_next);
    }

    // Every sub-problem is now a final B(1). It has no freedom
    // left: the sub-permutation the outer colorings delivered sets
    // it.
    if (sink) {
        std::uint8_t *middle = sink->states[n - 1].data();
        for (std::uint32_t k = 0; k < size / 2; ++k)
            middle[k] = sc.dinv[2 * k] == 1;
        for (const StatePin &pin : sink->stage(n - 1))
            if (middle[pin.switch_index] != pin.state)
                return false;
    }
    return true;
}

/**
 * The factor's decision bits, after factorLevels: they ARE the
 * middle-stage line label M_i in the recursive numbering of B(n):
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
 */
void
middleLabels(const std::vector<Word> &dest, unsigned n,
             std::vector<Word> &mid, std::vector<Word> &second)
{
    const std::uint32_t size = std::uint32_t{1} << n;
    FactorScratch &sc = t_factor;
    // The bit reversal of each slot is built in the spent successor
    // array.
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
    factorLevels(d.dest(), n, seed, nullptr);
    middleLabels(d.dest(), n, mid, second);
    return {Permutation(std::move(mid)),
            Permutation(std::move(second))};
}

bool
loopingStates(const Permutation &d, std::uint64_t seed,
              const std::vector<StatePin> &pins, SwitchStates &states)
{
    const unsigned n = d.log2Size();
    // Each level finds its pins in one run of a stage-sorted list:
    // the caller's own when it is sorted already, as the reduced
    // setup's is, else a sorted copy.
    std::vector<StatePin> sorted;
    WaksmanSink sink{states, pins};
    if (!std::is_sorted(pins.begin(), pins.end(), stageLess)) {
        sorted = pins;
        std::stable_sort(sorted.begin(), sorted.end(), stageLess);
        sink.pins = sorted;
    }
    return factorLevels(d.dest(), n, seed, &sink);
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
