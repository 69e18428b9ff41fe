/**
 * @file
 * The Benes network topology B(n), Fig. 1 of the paper.
 *
 * B(n) has N = 2^n terminals and 2n-1 stages of N/2 binary switches.
 * Recursively, it is a stage of switches, two copies of B(n-1), and a
 * closing stage of switches; B(1) is a single switch. Flattened, that
 * recursion wires every boundary between two stages as a rotation of
 * the low bits of a line number, so this class computes the wiring
 * and stores no table. The whole fabric can still be simulated
 * iteratively, set up externally (WaksmanSetup), and pipelined
 * (PipelinedBenes):
 *
 *  - stages are numbered 0 .. 2n-2 left to right;
 *  - within a stage, lines 2i and 2i+1 enter switch i (top to
 *    bottom), line 2i on the upper port;
 *  - boundary s (0 <= s <= 2n-3) is the fixed wiring between the
 *    outputs of stage s and the inputs of stage s+1.
 *
 * The wiring realizes Fig. 1: after the first stage of a (sub)network
 * spanning 2^m lines, the upper/lower switch outputs fan out to the
 * upper/lower B(m-1) halves (an unshuffle of the m local index bits);
 * the boundary before the closing stage is the corresponding shuffle.
 * Boundary s <= n-2 opens every sub-network of 2^(n-s) lines, and
 * boundary s >= n-1 closes every sub-network of 2^(s-n+3) lines.
 */

#ifndef SRBENES_CORE_TOPOLOGY_HH
#define SRBENES_CORE_TOPOLOGY_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitops.hh"

namespace srbenes
{

/** Per-switch binary states, indexed [stage][switch]; 0 = straight
 *  (through), 1 = crossed (exchange), Fig. 2. */
using SwitchStates = std::vector<std::vector<std::uint8_t>>;

class BenesTopology
{
  public:
    /** B(n); 1 <= n <= 30, N = 2^n terminals. */
    explicit BenesTopology(unsigned n);

    unsigned n() const { return n_; }
    /** Number of input (and output) terminals, N = 2^n. */
    Word numLines() const { return Word{1} << n_; }
    /** 2n - 1 stages of switches. */
    unsigned numStages() const { return 2 * n_ - 1; }
    /** N/2 switches per stage. */
    Word switchesPerStage() const { return numLines() / 2; }
    /** Total binary switches, N log N - N/2. */
    Word numSwitches() const { return numStages() * switchesPerStage(); }

    /**
     * The destination-tag bit that self-sets switches of @p stage:
     * bit b for stage b and stage 2n-2-b (Fig. 3).
     */
    unsigned
    controlBit(unsigned stage) const
    {
        return std::min(stage, 2 * n_ - 2 - stage);
    }

    /**
     * Fixed wiring: the line position at the input of stage
     * @p boundary + 1 fed by line position @p line at the output of
     * stage @p boundary. An opening boundary rotates the low m bits
     * of @p line right by one, a closing boundary left by one.
     */
    Word
    wireToNext(unsigned boundary, Word line) const
    {
        const unsigned m = boundaryWidth(boundary);
        const Word low = line & lowMask(m);
        return (line ^ low) |
               (opens(boundary) ? unshuffle(low, m) : shuffle(low, m));
    }

    /**
     * Carry a whole stage of lines across @p boundary:
     * to[wireToNext(boundary, line)] = from[line] for every line.
     * Each 2^m-line sub-network moves as a block, its lines dealt
     * into two halves by an opening boundary and its halves
     * interleaved by a closing one. @p from and @p to hold
     * numLines() elements each and are distinct.
     */
    template <class T>
    void
    crossBoundary(unsigned boundary, const std::vector<T> &from,
                  std::vector<T> &to) const
    {
        const Word half = Word{1} << (boundaryWidth(boundary) - 1);
        const Word size = numLines();
        if (opens(boundary)) {
            for (Word base = 0; base < size; base += 2 * half)
                for (Word j = 0; j < half; ++j) {
                    to[base + j] = from[base + 2 * j];
                    to[base + half + j] = from[base + 2 * j + 1];
                }
        } else {
            for (Word base = 0; base < size; base += 2 * half)
                for (Word j = 0; j < half; ++j) {
                    to[base + 2 * j] = from[base + j];
                    to[base + 2 * j + 1] = from[base + half + j];
                }
        }
    }

    /**
     * The line that carries slot @p slot into @p stage. Slot x names
     * the signal that entered on line x of stage 0, as if no switch
     * had moved it (FastEngine's coordinates). With
     * k = controlBit(stage), the low k bits of x, reversed, are the
     * line's high k bits and x >> k its low bits. So the stage pairs
     * slots x and x ^ 2^k on one switch, the slot with bit k clear
     * on its upper port.
     */
    Word
    lineOfSlot(unsigned stage, Word slot) const
    {
        const unsigned k = controlBit(stage);
        return (reverseBits(slot, k) << (n_ - k)) | (slot >> k);
    }

    /** Freshly allocated all-zero switch-state array. */
    SwitchStates makeStates() const;

  private:
    /** True iff @p boundary follows an opening stage (an unshuffle). */
    bool opens(unsigned boundary) const { return boundary + 2 <= n_; }
    /** The m of the B(m) sub-networks @p boundary opens or closes. */
    unsigned
    boundaryWidth(unsigned boundary) const
    {
        return opens(boundary) ? n_ - boundary : boundary + 3 - n_;
    }

    unsigned n_;
};

} // namespace srbenes

#endif // SRBENES_CORE_TOPOLOGY_HH
