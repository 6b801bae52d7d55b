/**
 * @file
 * Deterministic shard planning for cross-process sweeps.
 *
 * A sweep's job list is partitioned over N worker processes by *stable
 * job key*, not by arrival order: each job's key is a pure function of
 * its label (and its occurrence index, for duplicate labels), and its
 * shard is that key reduced modulo the shard count. Two consequences,
 * both load-bearing for the byte-identity guarantee (DESIGN.md §15):
 *
 *  - Every process that enumerates the same sweep spec computes the
 *    same plan — orchestrator and workers never exchange job lists,
 *    only (shard index, shard count).
 *  - The assignment is invariant under permutation of the job list:
 *    reordering the spec moves jobs between submission slots but never
 *    between shards, so per-shard caches (trace arenas) stay stable
 *    across spec refactorings.
 *
 * Within a shard, jobs run in global submission order; the merged
 * result vector is indexed by global submission index, which is what
 * makes the merge independent of shard completion interleaving.
 */

#ifndef CAMEO_EXP_SHARD_PLAN_HH
#define CAMEO_EXP_SHARD_PLAN_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cameo
{

/**
 * Stable 64-bit key of one job: FNV-1a over "label#occurrence".
 * @p occurrence distinguishes duplicate labels (the i-th duplicate
 * keeps its key when the list around it changes).
 */
std::uint64_t shardJobKey(std::string_view label,
                          std::uint64_t occurrence);

/** Shard owning @p key in an @p shards-way fleet (key mod shards). */
unsigned shardOfKey(std::uint64_t key, unsigned shards);

/** One sweep's partition over a fleet. */
struct ShardPlan
{
    unsigned shards = 1;

    /** Owning shard per job, indexed by submission order. */
    std::vector<unsigned> shardOf;

    /** Global submission indices per shard, each list ascending. */
    std::vector<std::vector<std::size_t>> jobsOf;
};

/**
 * Partition @p labels (the sweep's job labels in submission order)
 * over @p shards workers. Every index appears in exactly one shard's
 * list. @p shards of 0 is clamped to 1.
 */
ShardPlan planShards(const std::vector<std::string> &labels,
                     unsigned shards);

} // namespace cameo

#endif // CAMEO_EXP_SHARD_PLAN_HH
