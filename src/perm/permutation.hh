/**
 * @file
 * The Permutation value type.
 *
 * A permutation D = (D_0, ..., D_{N-1}) of (0, ..., N-1) is stored in
 * the paper's destination-tag convention: input (or PE) i is sent to
 * output D_i. All permutation classes (BPC, omega, inverse omega, F)
 * and all fabrics consume this type.
 */

#ifndef SRBENES_PERM_PERMUTATION_HH
#define SRBENES_PERM_PERMUTATION_HH

#include <cstddef>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bitops.hh"
#include "common/prng.hh"

namespace srbenes
{

/**
 * An immutable-size permutation of (0, ..., N-1) in destination-tag
 * form. Construction validates the vector; a malformed vector is a
 * user error and calls fatal(). tryFrom() is the non-fatal way in
 * for untrusted input.
 */
class Permutation
{
  public:
    /** The identity permutation on @p n elements. */
    static Permutation identity(std::size_t n);

    /** A uniform random permutation (Fisher-Yates) on @p n elements. */
    static Permutation random(std::size_t n, Prng &prng);

    /**
     * Build from a destination vector; validates that @p dest is a
     * permutation of (0, ..., dest.size()-1).
     */
    explicit Permutation(std::vector<Word> dest);
    Permutation(std::initializer_list<Word> dest);

    /**
     * Build from untrusted input: validates @p dest once and returns
     * nullopt instead of calling fatal() when it is not a
     * permutation. For callers (srbd's submit path) that must answer
     * a malformed request rather than die, and that would otherwise
     * pay for isValid() and the checking constructor's second pass.
     */
    static std::optional<Permutation> tryFrom(std::vector<Word> dest);

    /** Check whether @p dest is a valid permutation vector. */
    static bool isValid(const std::vector<Word> &dest);

    std::size_t size() const { return dest_.size(); }

    /**
     * log2(size()); the paper's n with N = 2^n. panic()s if the size
     * is not a power of two (network classes require it; generic
     * algebra does not).
     */
    unsigned log2Size() const;

    /** Destination of input @p i. */
    Word operator[](std::size_t i) const { return dest_[i]; }

    const std::vector<Word> &dest() const { return dest_; }

    /** The inverse permutation: output j receives input inverse()[j]. */
    Permutation inverse() const;

    /**
     * Sequential composition in the paper's product convention
     * (Section II closing remark): (A.then(B))_i = B_{A_i}, i.e.\
     * perform A first, then B.
     */
    Permutation then(const Permutation &other) const;

    /**
     * Permute a data vector: element at position i moves to position
     * D_i of the result. @p data must have size() elements.
     */
    template <typename T>
    std::vector<T>
    applyTo(const std::vector<T> &data) const
    {
        std::vector<T> out(data.size());
        for (std::size_t i = 0; i < dest_.size(); ++i)
            out[dest_[i]] = data[i];
        return out;
    }

    bool operator==(const Permutation &other) const = default;

    /** Render as "(d0, d1, ..., dN-1)". */
    std::string toString() const;

  private:
    struct Validated
    {
    };
    /** Adopt @p dest, which the caller has already validated. */
    Permutation(Validated, std::vector<Word> dest)
        : dest_(std::move(dest))
    {
    }

    std::vector<Word> dest_;
};

} // namespace srbenes

#endif // SRBENES_PERM_PERMUTATION_HH
