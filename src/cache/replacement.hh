/**
 * @file
 * Replacement policies for the set-associative cache model, and the
 * reference model of its victim choice.
 *
 * The paper's L3 is plain LRU; Random is provided for sensitivity tests.
 * chooseVictim() states the decision procedure plainly, scanning every
 * way of one set: SetAssocCache reaches the same victims in O(1) per
 * access through its fingerprint and recency-list index (DESIGN.md §8),
 * and tests/test_cache.cc drives a tag array built on chooseVictim()
 * side by side with the cache as its reference model.
 */

#ifndef CAMEO_CACHE_REPLACEMENT_HH
#define CAMEO_CACHE_REPLACEMENT_HH

#include <cstdint>
#include <span>

#include "util/rng.hh"

namespace cameo
{

/** Per-way replacement metadata kept by the cache. */
struct WayMeta
{
    bool valid = false;
    std::uint64_t lastUse = 0; ///< LRU timestamp (monotone counter).
};

/** Which policy a cache instance uses. */
enum class ReplPolicy
{
    Lru,
    Random,
};

/**
 * Choose a victim way for a set.
 *
 * Invalid ways are always preferred (lowest index first). Otherwise LRU
 * picks the smallest lastUse; Random picks uniformly.
 *
 * @param ways  Metadata for every way in the set.
 * @param policy Replacement policy.
 * @param rng   Randomness source (used by Random only).
 * @return Victim way index.
 */
std::uint32_t chooseVictim(std::span<const WayMeta> ways, ReplPolicy policy,
                           Rng &rng);

} // namespace cameo

#endif // CAMEO_CACHE_REPLACEMENT_HH
