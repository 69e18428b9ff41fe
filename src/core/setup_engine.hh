/**
 * @file
 * Bit-sliced batched setup engine: plan production at plane speed.
 *
 * FastEngine already routes tags through the fabric word-parallel,
 * but everything AROUND that pass — seeding the tag planes,
 * emitting the physical-order PackedStates a plan consumer wants —
 * historically fell back to per-lane / per-switch scalar walks.
 * This class is the cold-plan counterpart of the execution engine:
 * Section III's parallel-setup story applied to the setup path
 * itself.
 *
 * The structural fact it exploits: stage s pairs slots {x, x ^ 2^b}
 * with the physical upper input on the slot whose bit b is clear
 * (see fast_engine.hh). Because every inter-stage wiring of B(n) is
 * a pure bit permutation of the line index, the map from a switch's
 * physical index i to the RANK of its upper slot among all
 * bit-b-clear slots is itself a bit permutation of the n-1 index
 * bits of i. The constructor derives that permutation per stage
 * (and verifies it switch-by-switch rather than assuming it), then
 * factors it into transpositions. Producing PackedStates from a
 * plan's slot-order control masks is then:
 *
 *   1. compress each stage's mask to its upper lanes (drop bit b):
 *      a handful of shift-or folds per 64-bit word;
 *   2. apply the stage's transposition schedule as masked delta
 *      swaps / word swaps over the compressed vector.
 *
 * Both steps touch O(S / 64) words per stage — no per-switch loop
 * ever runs (enforced by srb-lint rule SRB008 on the .cc file).
 *
 * setupMany() amortizes dispatch over a batch of B independent
 * permutations, sharding the batch across worker threads in the
 * same spirit as FastEngine::executeMany (OpenMP when compiled in,
 * std::thread otherwise).
 *
 * setupTiled() / setupExecuteMany() are the cache-conscious batch
 * path. setupMany materializes a full FastPlan per permutation —
 * slot-order control masks plus dest/src gather tables, ~76 KiB at
 * n = 12 — so a 64-plan batch writes ~5 MiB and falls out of L2
 * (BENCH_setup.json's batch cliff). The tiled path writes each plan
 * once, already in its succinct switch-packed form ((2n-1) * N/2
 * bits, within a word-rounding of Waksman's N lg N - N + 1 bound),
 * stage-major inside cache-budget-sized PlanArena tiles, and never
 * allocates per plan. The fused variant then routes one payload per
 * permutation tile-by-tile — a tile's plans are set up, then its
 * payloads are transported while the tile's working set is still
 * resident, with the next tile's permutation/payload streams
 * prefetched under the current tile's compute.
 */

#ifndef SRBENES_CORE_SETUP_ENGINE_HH
#define SRBENES_CORE_SETUP_ENGINE_HH

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/fast_engine.hh"
#include "core/plan_arena.hh"
#include "obs/metrics.hh"

namespace srbenes
{

/** A cold plan together with its packed physical switch settings. */
struct SetupResult
{
    FastPlan plan;
    PackedStates packed;
};

class SetupEngine
{
  public:
    /**
     * Build the per-stage compression/permutation schedules for
     * @p eng's fabric. The engine reference is retained; it must
     * outlive this object.
     *
     * @param metrics registry receiving this engine's instruments
     *        (plans produced, batch-size histogram). nullptr
     *        disables instrumentation.
     */
    explicit SetupEngine(const FastEngine &eng,
                         obs::MetricsRegistry *metrics =
                             obs::defaultRegistry());

    const FastEngine &engine() const { return eng_; }

    /**
     * Cold-plan @p d through the bit-sliced fabric. A failed pass
     * still yields the realized mapping and its misrouted outputs
     * (diagnostics read them).
     */
    FastPlan plan(const Permutation &d,
                  RoutingMode mode = RoutingMode::SelfRouting) const;

    /**
     * The same pass, success only: plan(d, mode) when every tag
     * reached home, nullopt otherwise — without unpacking the final
     * tags or collecting misrouted outputs. The cheap F-membership
     * attempt and pass verification the Router needs.
     */
    std::optional<FastPlan>
    planIfRoutes(const Permutation &d,
                 RoutingMode mode = RoutingMode::SelfRouting) const;

    /**
     * Physical-order PackedStates of @p plan, produced word-parallel
     * from its slot-order control masks. Bit-for-bit equal to
     * FastEngine::planPackedStates (the scalar reference), which the
     * differential tests assert.
     */
    PackedStates packedStates(const FastPlan &plan) const;

    /** Fused cold plan + packed-state production. */
    SetupResult setupPacked(const Permutation &d,
                            RoutingMode mode =
                                RoutingMode::SelfRouting) const;

    /**
     * Plan a batch of independent permutations. With
     * @p num_threads > 1 the batch is sharded across workers
     * (OpenMP when available, std::thread otherwise); results are
     * returned in input order either way.
     */
    std::vector<FastPlan>
    setupMany(const std::vector<Permutation> &batch,
              RoutingMode mode = RoutingMode::SelfRouting,
              unsigned num_threads = 1) const;

    /**
     * Plan a batch straight into arena-resident succinct form: one
     * switch-packed row per stage, stage-major inside tiles of
     * @p arena (a fresh default-budget arena when null). No FastPlan
     * and no per-plan heap allocation is ever materialized; each
     * plan's packed bits are produced word-parallel as the planes
     * pass each stage. success(i) records whether permutation i
     * self-routed exactly. With @p num_threads > 1, workers each own
     * whole tiles (a resident tile per shard). Results are
     * bit-for-bit identical to packedStates(setupMany(...)[i]),
     * which the differential tests assert.
     */
    TiledPlans
    setupTiled(const std::vector<Permutation> &batch,
               RoutingMode mode = RoutingMode::SelfRouting,
               unsigned num_threads = 1,
               std::shared_ptr<PlanArena> arena = nullptr) const;

    /**
     * Fused setup→execute tile pipeline: route payloads[i] by a
     * fresh plan for batch[i], processing the batch as cache-sized
     * tiles — a tile's plans are set up, then its payloads
     * transported while the tile is resident, with the next tile's
     * permutation and payload streams prefetched under the current
     * tile's compute. Outputs are bit-for-bit what
     * executeMany-after-setupMany produces. @p plans_out (optional)
     * receives the batch's TiledPlans for reuse/inspection.
     */
    std::vector<std::vector<Word>>
    setupExecuteMany(const std::vector<Permutation> &batch,
                     const std::vector<std::vector<Word>> &payloads,
                     RoutingMode mode = RoutingMode::SelfRouting,
                     unsigned num_threads = 1,
                     TiledPlans *plans_out = nullptr,
                     std::shared_ptr<PlanArena> arena = nullptr) const;

    /** Plans per tile for this fabric under @p arena's tile budget. */
    Word tileCapacity(const PlanArena &arena) const;

  private:
    /** Allocate the tile skeleton of a @p count-plan batch. */
    TiledPlans makeTiled(std::size_t count,
                         std::shared_ptr<PlanArena> arena) const;
    /**
     * Plan one permutation, writing stage s's switch-packed row at
     * rows + s * row_stride (the stage-major tile layout); @p planes
     * and @p ctrl are reusable scratch. On return @p planes holds
     * the final tag planes (the misroute-execute fallback reads
     * them) and @p success says whether every tag reached home.
     */
    void setupPlanRows(const Permutation &d, RoutingMode mode,
                       std::vector<Word> &planes,
                       std::vector<Word> &ctrl, Word *rows,
                       Word row_stride, bool &success) const;
    /** Compress stage @p s's slot-order mask to upper-lane ranks. */
    void compressStage(unsigned s, const Word *ctrl, Word *out) const;
    /** Apply transposition (p, q), p < q, to a compressed vector. */
    void applySwap(Word *x, unsigned p, unsigned q) const;

    const FastEngine &eng_;
    /** Words per compressed stage vector, ceil((N/2) / 64). */
    Word packed_words_;
    /**
     * Per-stage factorization of the rank -> switch-index bit
     * permutation into transpositions (p, q) of the n-1 index bits,
     * to be applied in order.
     */
    std::vector<std::vector<std::pair<unsigned, unsigned>>> swaps_;

    /** @{ Observability (obs/metrics.hh); null when disabled. */
    obs::Counter *plans_ = nullptr;
    obs::Histogram *batch_perms_ = nullptr;
    /** @} */
};

} // namespace srbenes

#endif // SRBENES_CORE_SETUP_ENGINE_HH
