// srb-lint: bitsliced — SRB008 forbids per-switch scalar walks here.

#include "core/setup_engine.hh"

#include <algorithm>
#include <thread>
#include <unordered_map>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "core/fast_kernels.hh"

namespace srbenes
{

namespace
{

/**
 * Mask of lanes whose index bit @p k is clear, for k < 6 (the same
 * pattern family fast_engine uses for its upper-input masks).
 */
constexpr Word kBitClear[6] = {
    0x5555555555555555ULL, 0x3333333333333333ULL,
    0x0f0f0f0f0f0f0f0fULL, 0x00ff00ff00ff00ffULL,
    0x0000ffff0000ffffULL, 0x00000000ffffffffULL,
};

/**
 * Compress the bit-@p b-clear lanes of @p x to a contiguous rank
 * field in the low 32 bits (software PEXT for this regular mask
 * family): after each fold level j, rank r sits at position
 * ((r >> j) << (j + 1)) | (r & lowMask(j)).
 */
Word
compressUpper(Word x, unsigned b)
{
    x &= kBitClear[b];
    for (unsigned j = b; j < 5; ++j)
        x = (x | (x >> (1u << j))) & kBitClear[j + 1];
    return (x | (x >> 32)) & 0xffffffffULL;
}

/** Drop bit @p b of @p x, closing the gap. */
Word
dropBit(Word x, unsigned b)
{
    return ((x >> (b + 1)) << b) | (x & lowMask(b));
}

} // namespace

SetupEngine::SetupEngine(const FastEngine &eng,
                         obs::MetricsRegistry *metrics)
    : eng_(eng)
{
    const unsigned n = eng_.n_;
    const unsigned stages = eng_.numStages();
    // srb-lint: allow(SRB008) construction-time schedule derivation
    const Word S = eng_.switchesPerStage();
    packed_words_ = (S + 63) / 64;
    swaps_.resize(stages);

    // Stage s pairs slots {x, x ^ 2^b}; the upper slot of physical
    // switch i has bit b clear, and its rank among bit-b-clear slots
    // is a bit permutation of i's n-1 index bits (the inter-stage
    // wirings of B(n) are pure bit permutations of the line index).
    // Derive that permutation from the basis switches, verify it on
    // every switch — once, at construction — and factor it into
    // transpositions for the word-parallel producer.
    const unsigned nb = n - 1;
    std::vector<unsigned> perm(nb);
    for (unsigned s = 0; s < stages; ++s) {
        const unsigned b = std::min(s, 2 * n - 2 - s);
        const Word *slot = eng_.switch_slot_.data() + Word{s} * S;

        for (unsigned k = 0; k < nb; ++k) {
            const Word img = dropBit(slot[Word{1} << k], b);
            if (!isPowerOfTwo(img))
                panic("stage %u: rank of basis switch 2^%u is %llu, "
                      "not a power of two",
                      s, k, static_cast<unsigned long long>(img));
            perm[k] = floorLog2(img);
        }
        // srb-lint: allow(SRB008) one-time constructor verification
        for (Word i = 0; i < S; ++i) {
            Word expect = 0;
            for (unsigned k = 0; k < nb; ++k)
                expect |= bit(i, k) << perm[k];
            if (dropBit(slot[i], b) != expect)
                panic("stage %u switch %llu: rank map deviates from "
                      "the derived bit permutation",
                      s, static_cast<unsigned long long>(i));
        }

        // Factor each cycle (c0 c1 ... cm-1) of the permutation as
        // (c0 c1)(c1 c2)...(cm-2 cm-1); applying the lane swaps in
        // that order realizes out[i] = compressed[rank(i)].
        auto &sched = swaps_[s];
        std::vector<bool> seen(nb, false);
        for (unsigned c0 = 0; c0 < nb; ++c0) {
            if (seen[c0])
                continue;
            seen[c0] = true;
            unsigned prev = c0;
            for (unsigned cur = perm[c0]; cur != c0; cur = perm[cur]) {
                seen[cur] = true;
                sched.emplace_back(std::min(prev, cur),
                                   std::max(prev, cur));
                prev = cur;
            }
        }
    }

    if (metrics) {
        const std::string inst = metrics->uniqueInstance("setup");
        plans_ = &metrics->counter("srbenes_setup_plans_total",
                                   {{"setup", inst}});
        batch_perms_ = &metrics->histogram("srbenes_setup_batch_perms",
                                           {{"setup", inst}});
    }
}

void
SetupEngine::compressStage(unsigned s, const Word *ctrl,
                           Word *out) const
{
    const unsigned b = std::min(s, 2 * eng_.n_ - 2 - s);
    if (b >= 6) {
        // Upper lanes fill whole words; dropping slot-bit b drops
        // bit (b - 6) of the word index.
        const unsigned k = b - 6;
        for (Word w2 = 0; w2 < packed_words_; ++w2)
            out[w2] = ctrl[((w2 >> k) << (k + 1)) | (w2 & lowMask(k))];
        return;
    }
    // Each input word contributes 32 ranks; word pairs concatenate.
    const Word W = eng_.lane_words_;
    for (Word w2 = 0; w2 < packed_words_; ++w2) {
        const Word lo = compressUpper(ctrl[2 * w2], b);
        const Word hi = (2 * w2 + 1 < W)
                            ? compressUpper(ctrl[2 * w2 + 1], b)
                            : 0;
        out[w2] = lo | (hi << 32);
    }
}

void
SetupEngine::applySwap(Word *x, unsigned p, unsigned q) const
{
    const Word W2 = packed_words_;
    if (q < 6) {
        // In-word: lanes with bit p set / bit q clear move up by
        // 2^q - 2^p to the mirrored lane; the mask selects the
        // lower lane of each exchanged pair.
        const unsigned d = (1u << q) - (1u << p);
        const Word m = ~kBitClear[p] & kBitClear[q];
        for (Word w = 0; w < W2; ++w) {
            const Word t = (x[w] ^ (x[w] >> d)) & m;
            x[w] ^= t ^ (t << d);
        }
        return;
    }
    if (p >= 6) {
        // Both bits select the word index: swap whole words whose
        // indices differ in bits (p - 6) and (q - 6).
        const Word dp = Word{1} << (p - 6);
        const Word dq = Word{1} << (q - 6);
        for (Word w = 0; w < W2; ++w)
            if ((w & dp) && !(w & dq))
                std::swap(x[w], x[w - dp + dq]);
        return;
    }
    // Mixed: bit-p-set lanes of the low word of each pair trade
    // places with bit-p-clear lanes of the word 2^(q-6) above it.
    const unsigned sp = 1u << p;
    const Word dq = Word{1} << (q - 6);
    const Word m = kBitClear[p];
    for (Word w = 0; w < W2; ++w) {
        if (w & dq)
            continue;
        const Word lo = x[w];
        const Word hi = x[w + dq];
        const Word t = ((lo >> sp) ^ hi) & m;
        x[w + dq] = hi ^ t;
        x[w] = lo ^ (t << sp);
    }
}

FastPlan
SetupEngine::plan(const Permutation &d, RoutingMode mode) const
{
    FastPlan p = eng_.routePlan(d, mode);
    if (plans_)
        plans_->inc();
    return p;
}

std::optional<FastPlan>
SetupEngine::planIfRoutes(const Permutation &d, RoutingMode mode) const
{
    std::optional<FastPlan> p = eng_.routePlanIfHome(d, mode);
    if (plans_)
        plans_->inc();
    return p;
}

PackedStates
SetupEngine::packedStates(const FastPlan &plan) const
{
    const unsigned stages = eng_.numStages();
    if (plan.n != eng_.n_)
        fatal("plan shaped for another network");
    if (plan.ctrl.size() != Word{stages} * eng_.lane_words_)
        fatal("plan carries no per-stage control masks");

    PackedStates packed;
    packed.n = eng_.n_;
    packed.words_per_stage = packed_words_;
    packed.words.resize(Word{stages} * packed_words_);
    for (unsigned s = 0; s < stages; ++s) {
        Word *out = packed.words.data() + Word{s} * packed_words_;
        compressStage(s, plan.ctrl.data() + Word{s} * eng_.lane_words_,
                      out);
        for (const auto &pq : swaps_[s])
            applySwap(out, pq.first, pq.second);
    }
    return packed;
}

SetupResult
SetupEngine::setupPacked(const Permutation &d, RoutingMode mode) const
{
    SetupResult res;
    res.plan = plan(d, mode);
    res.packed = packedStates(res.plan);
    return res;
}

std::vector<FastPlan>
SetupEngine::setupMany(const std::vector<Permutation> &batch,
                       RoutingMode mode, unsigned num_threads) const
{
    std::vector<FastPlan> out(batch.size());
    if (batch_perms_)
        batch_perms_->observe(batch.size());
    if (plans_)
        plans_->inc(batch.size());

    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    const unsigned T = static_cast<unsigned>(std::min<std::size_t>(
        std::min(num_threads, hw), batch.size()));
    if (T <= 1) {
        for (std::size_t i = 0; i < batch.size(); ++i)
            out[i] = eng_.routePlan(batch[i], mode);
        return out;
    }

    // Validate on the calling thread so shape errors fatal() here,
    // not inside a worker.
    for (const Permutation &d : batch)
        if (d.size() != eng_.numLines())
            fatal("permutation size %zu does not match network "
                  "N = %llu",
                  d.size(),
                  static_cast<unsigned long long>(eng_.numLines()));

#if defined(_OPENMP)
    #pragma omp parallel for num_threads(static_cast<int>(T)) \
        schedule(dynamic)
    for (std::size_t i = 0; i < batch.size(); ++i)
        out[i] = eng_.routePlan(batch[i], mode);
#else
    // Strided sharding in the executeMany / routeBatch spirit:
    // worker t plans items t, t + T, t + 2T, ...
    std::vector<std::thread> threads;
    threads.reserve(T);
    for (unsigned t = 0; t < T; ++t)
        threads.emplace_back([&, t] {
            for (std::size_t i = t; i < batch.size(); i += T)
                out[i] = eng_.routePlan(batch[i], mode);
        });
    for (auto &th : threads)
        th.join();
#endif
    return out;
}

Word
SetupEngine::tileCapacity(const PlanArena &arena) const
{
    const Word plan_words = Word{eng_.numStages()} * packed_words_;
    return std::max<Word>(1, arena.tileWords() / plan_words);
}

TiledPlans
SetupEngine::makeTiled(std::size_t count,
                       std::shared_ptr<PlanArena> arena) const
{
    if (!arena)
        arena = std::make_shared<PlanArena>();
    TiledPlans out;
    out.n_ = eng_.n_;
    out.stages_ = eng_.numStages();
    out.words_per_stage_ = packed_words_;
    // A short batch never pays for a full tile's worth of rows.
    out.tile_cap_ = std::min<Word>(
        tileCapacity(*arena), std::max<std::size_t>(1, count));
    out.arena_ = std::move(arena);
    out.success_.assign(count, 0);
    if (count == 0)
        return out;

    const std::size_t tiles =
        (count + out.tile_cap_ - 1) / out.tile_cap_;
    const std::size_t block_words = std::size_t{out.stages_} *
                                    out.tile_cap_ * packed_words_;
    out.tile_base_.reserve(tiles);
    for (std::size_t t = 0; t < tiles; ++t)
        out.tile_base_.push_back(out.arena_->alloc(block_words));
    return out;
}

void
SetupEngine::setupPlanRows(const Permutation &d, RoutingMode mode,
                           std::vector<Word> &planes,
                           std::vector<Word> &ctrl, Word *rows,
                           Word row_stride, bool &success) const
{
    const unsigned stages = eng_.numStages();
    eng_.loadTagPlanes(d, planes);
    ctrl.resize(eng_.lane_words_);
    for (unsigned s = 0; s < stages; ++s) {
        // Control masks read before the exchange (Fig. 3), then
        // compressed and rank-permuted straight into the tile row —
        // the succinct form is the ONLY one ever written.
        eng_.stageCtrl(s, planes.data(), mode, ctrl.data());
        Word *row = rows + Word{s} * row_stride;
        compressStage(s, ctrl.data(), row);
        for (const auto &pq : swaps_[s])
            applySwap(row, pq.first, pq.second);
        eng_.stageExchange(s, planes.data(), ctrl.data());
    }
    success = eng_.planesAtHome(planes);
}

TiledPlans
SetupEngine::setupTiled(const std::vector<Permutation> &batch,
                        RoutingMode mode, unsigned num_threads,
                        std::shared_ptr<PlanArena> arena) const
{
    for (const Permutation &d : batch)
        if (d.size() != eng_.numLines())
            fatal("permutation size %zu does not match network "
                  "N = %llu",
                  d.size(),
                  static_cast<unsigned long long>(eng_.numLines()));

    TiledPlans out = makeTiled(batch.size(), std::move(arena));
    if (batch.empty())
        return out;
    if (plans_)
        plans_->inc(batch.size());
    if (batch_perms_)
        batch_perms_->observe(batch.size());

    const Word cap = out.tile_cap_;
    const std::size_t tiles = out.tile_base_.size();
    const Word row_stride = cap * packed_words_;
    auto runTiles = [&](std::size_t t0, std::size_t step) {
        std::vector<Word> planes;
        std::vector<Word> ctrl;
        for (std::size_t t = t0; t < tiles; t += step) {
            Word *base = out.tile_base_[t];
            const std::size_t lo = t * cap;
            const std::size_t hi = std::min(batch.size(), lo + cap);
            for (std::size_t i = lo; i < hi; ++i) {
                // One-plan prefetch lead on the tag stream.
                if (i + 1 < hi)
                    prefetchWords(batch[i + 1].dest().data(),
                                  eng_.numLines());
                bool ok = false;
                setupPlanRows(batch[i], mode, planes, ctrl,
                              base + (i - lo) * packed_words_,
                              row_stride, ok);
                out.success_[i] = ok ? 1 : 0;
            }
        }
    };

    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    const unsigned T = static_cast<unsigned>(std::min<std::size_t>(
        std::min(num_threads, hw), tiles));
    if (T <= 1) {
        runTiles(0, 1);
        return out;
    }
    std::vector<std::thread> threads;
    threads.reserve(T);
    for (unsigned t = 0; t < T; ++t)
        threads.emplace_back(runTiles, t, T);
    for (auto &th : threads)
        th.join();
    return out;
}

std::vector<std::vector<Word>>
SetupEngine::setupExecuteMany(const std::vector<Permutation> &batch,
                              const std::vector<std::vector<Word>> &payloads,
                              RoutingMode mode, unsigned num_threads,
                              TiledPlans *plans_out,
                              std::shared_ptr<PlanArena> arena) const
{
    const Word N = eng_.numLines();
    if (payloads.size() != batch.size())
        fatal("fused batch: %zu payloads for %zu permutations",
              payloads.size(), batch.size());
    for (const Permutation &d : batch)
        if (d.size() != N)
            fatal("permutation size %zu does not match network "
                  "N = %llu",
                  d.size(), static_cast<unsigned long long>(N));
    for (const std::vector<Word> &p : payloads)
        if (p.size() != N)
            fatal("payload vector size %zu != N = %llu", p.size(),
                  static_cast<unsigned long long>(N));

    TiledPlans plans = makeTiled(batch.size(), std::move(arena));
    std::vector<std::vector<Word>> outs(batch.size());
    if (batch.empty()) {
        if (plans_out)
            *plans_out = std::move(plans);
        return outs;
    }
    if (plans_)
        plans_->inc(batch.size());
    if (batch_perms_)
        batch_perms_->observe(batch.size());

    const Word cap = plans.tile_cap_;
    const std::size_t tiles = plans.tile_base_.size();
    const Word row_stride = cap * packed_words_;
    const KernelTable &kern = activeKernels();
    auto runTiles = [&](std::size_t t0, std::size_t step) {
        std::vector<Word> planes;
        std::vector<Word> ctrl;
        std::vector<Word> src;
        // Realized gather tables of the (rare) misrouting plans,
        // captured while their final tag planes are still in scratch.
        std::unordered_map<std::size_t, std::vector<Word>> miss_src;
        for (std::size_t t = t0; t < tiles; t += step) {
            Word *base = plans.tile_base_[t];
            const std::size_t lo = t * cap;
            const std::size_t hi = std::min(batch.size(), lo + cap);

            // Setup half of the tile.
            for (std::size_t i = lo; i < hi; ++i) {
                if (i + 1 < hi)
                    prefetchWords(batch[i + 1].dest().data(), N);
                bool ok = false;
                setupPlanRows(batch[i], mode, planes, ctrl,
                              base + (i - lo) * packed_words_,
                              row_stride, ok);
                plans.success_[i] = ok ? 1 : 0;
                if (!ok)
                    eng_.srcFromPlanes(batch[i], planes, miss_src[i]);
            }

            // Transport half: the tile's permutations are still
            // resident, so a success plan's gather table is just the
            // inverse of its permutation — no plan bytes re-read, no
            // dest/src ever stored. Prefetch leads one payload.
            for (std::size_t i = lo; i < hi; ++i) {
                if (i + 1 < batch.size())
                    prefetchWords(payloads[i + 1].data(), N);
                const Word *sp;
                if (plans.success_[i]) {
                    eng_.inverseInto(batch[i], src);
                    sp = src.data();
                } else {
                    sp = miss_src[i].data();
                }
                outs[i].resize(N);
                kern.gather(outs[i].data(), payloads[i].data(), sp, N);
            }
            miss_src.clear();
        }
    };

    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    const unsigned T = static_cast<unsigned>(std::min<std::size_t>(
        std::min(num_threads, hw), tiles));
    if (T <= 1) {
        runTiles(0, 1);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(T);
        for (unsigned t = 0; t < T; ++t)
            threads.emplace_back(runTiles, t, T);
        for (auto &th : threads)
            th.join();
    }
    if (eng_.executes_)
        eng_.executes_->inc(batch.size());
    if (plans_out)
        *plans_out = std::move(plans);
    return outs;
}

} // namespace srbenes
