#include "networks/multicast.hh"

#include "common/logging.hh"

namespace srbenes
{

namespace
{

constexpr Word kNone = ~Word{0};

/** One level of the backtracking setup. */
class LevelSolver
{
  public:
    LevelSolver(const BenesTopology &topo, McStates &states,
                unsigned m, Word base_line, unsigned base_stage,
                const std::vector<Word> &requests)
        : topo_(topo), states_(states), m_(m),
          base_line_(base_line), base_stage_(base_stage),
          requests_(requests), half_(Word{1} << (m - 1)),
          need_u_(half_ / 2 ? half_ / 2 : 1, kNone),
          need_l_(half_ / 2 ? half_ / 2 : 1, kNone),
          uval_(half_, kNone), lval_(half_, kNone)
    {
        need_u_.assign(half_, kNone);
        need_l_.assign(half_, kNone);
    }

    bool
    solve()
    {
        if (m_ == 1)
            return solveSwitch();
        return choosePair(0);
    }

  private:
    bool solveSwitch();
    bool choosePair(Word j);
    bool finish();

    const BenesTopology &topo_;
    McStates &states_;
    unsigned m_;
    Word base_line_;
    unsigned base_stage_;
    const std::vector<Word> &requests_;
    Word half_;
    /** need_x_[i]: the (single) value subnet x must receive from
     *  opening switch i; kNone if unconstrained so far. */
    std::vector<Word> need_u_, need_l_;
    /** Chosen per-closing-pair values each subnet must present. */
    std::vector<Word> uval_, lval_;
};

bool
LevelSolver::solveSwitch()
{
    const Word a = requests_[0], b = requests_[1];
    const Word sw = base_line_ / 2;
    auto ok0 = [&](Word r) { return r == kNone || r == 0; };
    auto ok1 = [&](Word r) { return r == kNone || r == 1; };

    McState state;
    if (ok0(a) && ok1(b))
        state = McState::Through;
    else if (ok1(a) && ok0(b))
        state = McState::Cross;
    else if (ok0(a) && ok0(b))
        state = McState::BcastUpper;
    else if (ok1(a) && ok1(b))
        state = McState::BcastLower;
    else
        return false; // unreachable for well-formed requests
    states_[base_stage_][sw] = state;
    return true;
}

bool
LevelSolver::choosePair(Word j)
{
    if (j == half_)
        return finish();

    const Word a = requests_[2 * j], b = requests_[2 * j + 1];

    // Try a closing-switch state; on success recurse to the next
    // pair, undoing the need[] bookkeeping on backtrack.
    auto attempt = [&](McState state, Word uv, Word lv) -> bool {
        Word saved_u = kNone, saved_l = kNone;
        Word ui = kNone, li = kNone;
        if (uv != kNone) {
            ui = uv >> 1;
            saved_u = need_u_[ui];
            if (saved_u != kNone && saved_u != uv)
                return false;
            need_u_[ui] = uv;
        }
        if (lv != kNone) {
            li = lv >> 1;
            saved_l = need_l_[li];
            if (saved_l != kNone && saved_l != lv) {
                if (ui != kNone)
                    need_u_[ui] = saved_u;
                return false;
            }
            need_l_[li] = lv;
        }
        uval_[j] = uv;
        lval_[j] = lv;
        states_[base_stage_ + 2 * m_ - 2][base_line_ / 2 + j] = state;
        if (choosePair(j + 1))
            return true;
        if (ui != kNone)
            need_u_[ui] = saved_u;
        if (li != kNone)
            need_l_[li] = saved_l;
        return false;
    };

    // Orders chosen so permutation-like cases resolve first.
    if (attempt(McState::Through, a, b))
        return true;
    if (attempt(McState::Cross, b, a))
        return true;
    const bool compat = a == kNone || b == kNone || a == b;
    if (compat) {
        const Word v = a != kNone ? a : b;
        if (v != kNone) {
            if (attempt(McState::BcastUpper, v, kNone))
                return true;
            if (attempt(McState::BcastLower, kNone, v))
                return true;
        }
    }
    return false;
}

bool
LevelSolver::finish()
{
    // Opening-stage states from the need[] assignments.
    for (Word i = 0; i < half_; ++i) {
        const Word u = need_u_[i], l = need_l_[i];
        McState state;
        if (u == 2 * i && l == 2 * i)
            state = McState::BcastUpper;
        else if (u == 2 * i + 1 && l == 2 * i + 1)
            state = McState::BcastLower;
        else if ((u == kNone || u == 2 * i) &&
                 (l == kNone || l == 2 * i + 1))
            state = McState::Through;
        else
            state = McState::Cross;
        states_[base_stage_][base_line_ / 2 + i] = state;
    }

    // Sub-requests: the sub-input index carrying each needed value.
    std::vector<Word> sub_u(half_), sub_l(half_);
    for (Word j = 0; j < half_; ++j) {
        sub_u[j] = uval_[j] == kNone ? kNone : uval_[j] >> 1;
        sub_l[j] = lval_[j] == kNone ? kNone : lval_[j] >> 1;
    }
    LevelSolver upper(topo_, states_, m_ - 1, base_line_,
                      base_stage_ + 1, sub_u);
    if (!upper.solve())
        return false;
    LevelSolver lower(topo_, states_, m_ - 1, base_line_ + half_,
                      base_stage_ + 1, sub_l);
    return lower.solve();
}

} // namespace

MulticastBenes::MulticastBenes(unsigned n)
    : topo_(n)
{
}

std::vector<Word>
MulticastBenes::routeWithStates(const McStates &states) const
{
    if (states.size() != topo_.numStages())
        fatal("state array has %zu stages, network has %u",
              states.size(), topo_.numStages());
    const Word size = topo_.numLines();

    std::vector<Word> cur(size), next(size);
    for (Word i = 0; i < size; ++i)
        cur[i] = i; // each line carries its source input index

    for (unsigned s = 0; s < topo_.numStages(); ++s) {
        for (Word i = 0; i < topo_.switchesPerStage(); ++i) {
            const Word up = cur[2 * i], lo = cur[2 * i + 1];
            switch (states[s][i]) {
              case McState::Through:
                break;
              case McState::Cross:
                cur[2 * i] = lo;
                cur[2 * i + 1] = up;
                break;
              case McState::BcastUpper:
                cur[2 * i + 1] = up;
                break;
              case McState::BcastLower:
                cur[2 * i] = lo;
                break;
            }
        }
        if (s + 1 < topo_.numStages()) {
            topo_.crossBoundary(s, cur, next);
            cur.swap(next);
        }
    }
    return cur;
}

std::optional<McStates>
MulticastBenes::setupMapping(const std::vector<Word> &src) const
{
    const Word size = topo_.numLines();
    if (src.size() != size)
        fatal("mapping size %zu != N = %llu", src.size(),
              static_cast<unsigned long long>(size));
    for (Word s : src)
        if (s >= size)
            fatal("multicast request for input %llu out of range",
                  static_cast<unsigned long long>(s));

    McStates states(topo_.numStages(),
                    std::vector<McState>(topo_.switchesPerStage(),
                                         McState::Through));
    LevelSolver solver(topo_, states, topo_.n(), 0, 0, src);
    if (!solver.solve())
        return std::nullopt;

    // The solver is conservative-complete within its choice space;
    // verify the realization before handing it out.
    const auto delivered = routeWithStates(states);
    for (Word j = 0; j < size; ++j)
        if (delivered[j] != src[j])
            panic("multicast setup verified false at output %llu",
                  static_cast<unsigned long long>(j));
    return states;
}

} // namespace srbenes
