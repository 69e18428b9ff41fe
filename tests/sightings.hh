/**
 * @file
 * Sighting helpers for tests that need a pattern resident in a
 * Router's plan cache. The cache admits by frequency: a pattern's
 * first sighting is planned and served but not kept, its second is
 * kept while the cache has room, and once the cache is full a pattern
 * is kept only when its estimated frequency beats that of a resident
 * drawn at random, which it evicts.
 */

#ifndef SRBENES_TESTS_SIGHTINGS_HH
#define SRBENES_TESTS_SIGHTINGS_HH

#include <cstddef>
#include <memory>

#include "core/router.hh"

namespace srbenes
{

/** Sight @p d twice; with room in the cache the second sighting's
 *  plan, returned, is resident. */
inline std::shared_ptr<const RoutePlan>
sightTwice(const Router &router, const Permutation &d)
{
    (void)router.planCached(d);
    return router.planCached(d);
}

/** Plans admitted so far (needs the Router's metrics registry). */
inline std::size_t
planAdmissions(const Router &router)
{
    return router.cacheStats().admitted;
}

/**
 * Sight the non-resident @p d until the cache admits it: each lost
 * sighting raises its estimate by one, and each repeat is compared
 * with a freshly drawn resident, which a full cache evicts when @p d
 * wins. Returns the sightings it took, or 0 if @p limit were not
 * enough.
 */
inline unsigned
sightUntilResident(const Router &router, const Permutation &d,
                   unsigned limit = 16)
{
    for (unsigned k = 1; k <= limit; ++k) {
        const std::size_t before = planAdmissions(router);
        (void)router.planCached(d);
        if (planAdmissions(router) > before)
            return k;
    }
    return 0;
}

} // namespace srbenes

#endif // SRBENES_TESTS_SIGHTINGS_HH
