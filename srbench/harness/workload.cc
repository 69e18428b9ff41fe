/**
 * @file
 * Workload generation. Everything derives from one Prng seeded with
 * the run's seed, in a fixed order: payload words, then the pool,
 * then the request stream.
 */

#include "workload.hh"

#include <algorithm>

#include "net/protocol.hh"
#include "perm/f_class.hh"

namespace srbench
{

using srbenes::Permutation;
using srbenes::Word;

namespace
{

// Why each workload exists is recorded in srbench/README.md and
// BENCHMARK.json; the numbers here are the ones those documents
// name.
const WorkloadSpec kSpecs[] = {
    // Inline small-N path: the net layer dominates a request.
    {"hot8", Kind::Hot, 8, 32, 4096},
    // Every request is a TwoPass cold plan and a cache eviction.
    {"cold12", Kind::Cold, 12, 8, 64},
    // Ring handoff, two-tier cache policy, both cold strategies.
    {"zipf10", Kind::Zipf, 10, 16, 16384},
};

constexpr std::size_t kHotPool = 16;
constexpr std::size_t kZipfPool = 4096;

std::uint64_t
fnv1a(std::uint64_t h, const std::uint8_t *p, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &s : kSpecs)
        if (name == s.name)
            return &s;
    return nullptr;
}

Workload::Workload(const WorkloadSpec &spec, std::uint64_t seed)
    : spec_(spec), prng_(seed ^ 0x5eedb3ae5ULL)
{
    const Word lines = Word{1} << spec_.n;
    payload_.resize(lines);
    for (Word &w : payload_)
        w = prng_();

    if (spec_.kind == Kind::Hot) {
        for (std::size_t i = 0; i < kHotPool; ++i)
            pool_.push_back(makePattern(randomNonF(), false));
    } else if (spec_.kind == Kind::Zipf) {
        // Exactly half F members, their ranks drawn at random so F
        // and non-F patterns mix across popularity.
        std::vector<bool> f_member(kZipfPool, false);
        std::fill(f_member.begin(), f_member.begin() + kZipfPool / 2,
                  true);
        std::shuffle(f_member.begin(), f_member.end(), prng_);
        pool_.reserve(kZipfPool);
        for (std::size_t i = 0; i < kZipfPool; ++i) {
            if (f_member[i])
                pool_.push_back(makePattern(
                    srbenes::randomFMember(spec_.n, prng_), true));
            else
                pool_.push_back(makePattern(
                    Permutation::random(lines, prng_), false));
        }
        zipf_cdf_.resize(kZipfPool);
        double sum = 0;
        for (std::size_t r = 0; r < kZipfPool; ++r) {
            sum += 1.0 / static_cast<double>(r + 1);
            zipf_cdf_[r] = sum;
        }
        for (double &c : zipf_cdf_)
            c /= sum;
    }
}

Permutation
Workload::randomNonF()
{
    for (;;) {
        Permutation d = Permutation::random(Word{1} << spec_.n, prng_);
        if (!srbenes::inFClass(d))
            return d;
    }
}

std::shared_ptr<Pattern>
Workload::makePattern(const Permutation &d, bool f_member) const
{
    auto p = std::make_shared<Pattern>();
    p->f_member = f_member;

    srbenes::net::SubmitMsg sub;
    sub.dest = d.dest();
    sub.has_payload = true;
    sub.payload = payload_;
    srbenes::net::encode(sub, p->submit);

    srbenes::net::SubmitResultMsg res;
    res.status = srbenes::net::Status::Ok;
    res.tier = srbenes::ServeTier::Primary;
    res.payload = d.applyTo(payload_);
    srbenes::net::encode(res, p->expect);
    return p;
}

std::shared_ptr<const Pattern>
Workload::next()
{
    const std::uint64_t i = next_++;
    switch (spec_.kind) {
      case Kind::Hot:
        return pool_[i % pool_.size()];
      case Kind::Zipf: {
        // Inverse-CDF draw of a popularity rank.
        const double u =
            static_cast<double>(prng_() >> 11) * 0x1.0p-53;
        const auto it =
            std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
        const std::size_t rank = std::min<std::size_t>(
            it - zipf_cdf_.begin(), pool_.size() - 1);
        return pool_[rank];
      }
      case Kind::Cold:
        break;
    }
    return makePattern(Permutation::random(Word{1} << spec_.n, prng_),
                       false);
}

std::optional<Permutation>
framePermutation(const std::vector<std::uint8_t> &submit)
{
    srbenes::net::Decoder dec;
    dec.feed(submit.data(), submit.size());
    srbenes::net::Message m;
    if (dec.next(m) != srbenes::net::DecodeStatus::Ok)
        return std::nullopt;
    const auto *sub = std::get_if<srbenes::net::SubmitMsg>(&m);
    if (sub == nullptr || !Permutation::isValid(sub->dest))
        return std::nullopt;
    return Permutation(sub->dest);
}

std::uint64_t
sequenceDigest(const WorkloadSpec &spec, std::uint64_t seed,
               std::size_t count)
{
    Workload wl(spec, seed);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < count; ++i) {
        const std::shared_ptr<const Pattern> p = wl.next();
        h = fnv1a(h, p->submit.data(), p->submit.size());
    }
    return h;
}

} // namespace srbench
