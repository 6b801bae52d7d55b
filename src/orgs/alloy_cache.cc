#include "orgs/alloy_cache.hh"

#include <algorithm>
#include <cassert>
#include <string>

#include "util/bitops.hh"

namespace cameo
{

namespace
{

/** Stacked timings adjusted for the 28-TADs-per-row layout. */
DramTimings
tadTimings(DramTimings t)
{
    t.linesPerRow = AlloyCacheOrg::kTadsPerRow;
    return t;
}

} // namespace

AlloyCacheOrg::AlloyCacheOrg(const OrgConfig &config,
                             std::uint64_t backing_bytes, std::string name)
    : MemoryOrganization(std::move(name), config, backing_bytes,
                         tadTimings(config.stacked), config.stackedBytes),
      tags_(config.stackedBytes / kLineBytes / 32 * kTadsPerRow),
      map_(std::size_t{config.numCores} * kMapEntries, 0),
      hits_("alloy.hits", "DRAM cache hits"),
      misses_("alloy.misses", "DRAM cache misses"),
      mapCorrect_("alloy.mapCorrect", "MAP predictions correct"),
      mapWrong_("alloy.mapWrong", "MAP predictions wrong"),
      wastedFetches_("alloy.wastedFetches",
                     "parallel off-chip fetches that were not needed")
{
}

std::size_t
AlloyCacheOrg::mapIndex(std::uint32_t core, InstAddr pc) const
{
    return std::size_t{core} * kMapEntries + (mix64(pc) % kMapEntries);
}

bool
AlloyCacheOrg::predictHit(std::uint32_t core, InstAddr pc) const
{
    return map_[mapIndex(core, pc)] >= kMapThreshold;
}

void
AlloyCacheOrg::trainPredictor(std::uint32_t core, InstAddr pc, bool hit)
{
    std::uint8_t &counter = map_[mapIndex(core, pc)];
    if (hit) {
        if (counter < kMapMax)
            ++counter;
    } else {
        if (counter > 0)
            --counter;
    }
}

Tick
AlloyCacheOrg::access(Tick now, LineAddr line, bool is_write, InstAddr pc,
                      std::uint32_t core)
{
    assert(line < offchip_.capacityLines());
    const std::uint64_t set_idx = line % tags_.size();
    TagEntry &set = tags_[set_idx];
    const bool hit = set.valid && set.tag == line;

    if (is_write) {
        // L3 writeback: update in place on hit; on miss, install the
        // line (evicted L3 lines are recently used and likely to be
        // re-referenced — stacked caches allocate on writeback).
        if (!hit && set.valid && set.dirty)
            offchip_.request(now, set.tag, true, kLineBytes);
        const Tick done =
            stacked_->request(now, set_idx, true, kTadBurstBytes);
        set.tag = line;
        set.valid = true;
        set.dirty = true;
        return done;
    }

    const bool pred_hit = predictHit(core, pc);
    // The TAD read doubles as tag check and (on hit) data delivery.
    const Tick t_tad = stacked_->request(now, set_idx, false, kTadBurstBytes);

    Tick done = t_tad;
    if (hit) {
        hits_.inc();
        // Predicted miss but hit: the speculative off-chip fetch is
        // squashed once the TAD verifies the hit, unless the memory
        // would already have serviced it by then. That depends on
        // queue occupancy, so an untimed module counts none.
        if (!pred_hit && offchip_.timed() &&
            offchip_.earliestServiceStart(line) <= t_tad) {
            offchip_.request(now, line, false, kLineBytes);
            wastedFetches_.inc();
        }
    } else {
        misses_.inc();
        // Off-chip fetch: parallel with the TAD read when predicted
        // miss, serialized behind the tag check otherwise.
        const Tick issue = pred_hit ? t_tad : now;
        const Tick t_off = offchip_.request(issue, line, false, kLineBytes);
        done = std::max(t_tad, t_off);

        // Fill: install the TAD; evict dirty victim to off-chip. The
        // fill/writeback queues drain opportunistically, so their
        // traffic is billed at request time (they contend for the
        // buses but are not on the demand critical path).
        if (set.valid && set.dirty)
            offchip_.request(now, set.tag, true, kLineBytes);
        stacked_->request(now, set_idx, true, kTadBurstBytes);
        set.tag = line;
        set.valid = true;
        set.dirty = false;
    }

    (pred_hit == hit ? mapCorrect_ : mapWrong_).inc();
    trainPredictor(core, pc, hit);
    return done;
}

double
AlloyCacheOrg::hitRate() const
{
    const std::uint64_t total = hits_.value() + misses_.value();
    if (total == 0)
        return 0.0;
    return static_cast<double>(hits_.value()) / static_cast<double>(total);
}

void
AlloyCacheOrg::registerStats(StatRegistry &registry)
{
    MemoryOrganization::registerStats(registry);
    registry.add(hits_);
    registry.add(misses_);
    registry.add(mapCorrect_);
    registry.add(mapWrong_);
    registry.add(wastedFetches_);
}

void
AlloyCacheOrg::save(SnapshotWriter &w) const
{
    MemoryOrganization::save(w);
    w.u64(tags_.size());
    for (const TagEntry &s : tags_) {
        w.u64(s.tag);
        w.b(s.valid);
        w.b(s.dirty);
    }
    w.vecU8(map_);
}

void
AlloyCacheOrg::restore(SnapshotReader &r)
{
    MemoryOrganization::restore(r);
    const std::uint64_t sets = r.u64();
    if (!r.ok())
        return;
    if (sets != tags_.size()) {
        r.fail("cache org: set count mismatch: snapshot has " +
               std::to_string(sets) + ", this cache has " +
               std::to_string(tags_.size()));
        return;
    }
    for (TagEntry &s : tags_) {
        s.tag = r.u64();
        s.valid = r.b();
        s.dirty = r.b();
    }
    if (!r.ok())
        return;
    std::vector<std::uint8_t> map;
    r.vecU8(map);
    if (!r.ok())
        return;
    if (map.size() != map_.size()) {
        r.fail("cache org: MAP-I table size mismatch");
        return;
    }
    map_ = std::move(map);
}

} // namespace cameo
