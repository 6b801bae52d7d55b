#include "core/line_location_table.hh"

#include <cassert>

#include "check/audit.hh"
#include "util/bitops.hh"

namespace cameo
{

const char *
lltKindName(LltKind kind)
{
    switch (kind) {
      case LltKind::Ideal:
        return "Ideal-LLT";
      case LltKind::Embedded:
        return "Embedded-LLT";
      case LltKind::CoLocated:
        return "CoLocated-LLT";
    }
    return "Unknown";
}

LineLocationTable::LineLocationTable(std::uint64_t num_groups,
                                     std::uint32_t group_size)
    : numGroups_(num_groups), groupSize_(group_size)
{
    assert(num_groups != 0);
    assert(group_size >= 2 && group_size <= 16);
    loc_.resize(num_groups * group_size);
    for (std::uint64_t g = 0; g < num_groups; ++g) {
        for (std::uint32_t s = 0; s < group_size; ++s)
            loc_[index(g, s)] = static_cast<std::uint8_t>(s);
    }
    CAMEO_AUDIT(verifyGroup(0),
                "LLT identity initialization is not a permutation");
}

std::uint32_t
LineLocationTable::locationOf(std::uint64_t group, std::uint32_t slot) const
{
    assert(group < numGroups_ && slot < groupSize_);
    return loc_[index(group, slot)];
}

std::uint32_t
LineLocationTable::slotAt(std::uint64_t group, std::uint32_t loc) const
{
    assert(group < numGroups_ && loc < groupSize_);
    for (std::uint32_t s = 0; s < groupSize_; ++s) {
        if (loc_[index(group, s)] == loc)
            return s;
    }
    assert(false && "LLT entry is not a permutation");
    return 0;
}

void
LineLocationTable::swapSlots(std::uint64_t group, std::uint32_t slot_a,
                             std::uint32_t slot_b)
{
    assert(group < numGroups_ && slot_a < groupSize_ && slot_b < groupSize_);
    std::swap(loc_[index(group, slot_a)], loc_[index(group, slot_b)]);
    // Incremental audit: a swap permutes an entry that was a
    // permutation, so the entry must still be one afterwards.
    CAMEO_AUDIT(verifyGroup(group),
                "LLT entry is not a permutation after swapSlots");
}

void
LineLocationTable::poke(std::uint64_t group, std::uint32_t slot,
                        std::uint32_t loc)
{
    assert(group < numGroups_ && slot < groupSize_);
    loc_[index(group, slot)] = static_cast<std::uint8_t>(loc);
}

bool
LineLocationTable::verifyGroup(std::uint64_t group) const
{
    assert(group < numGroups_);
    std::uint32_t seen = 0;
    for (std::uint32_t s = 0; s < groupSize_; ++s) {
        const std::uint32_t l = loc_[index(group, s)];
        if (l >= groupSize_)
            return false;
        if (seen & (1u << l))
            return false;
        seen |= 1u << l;
    }
    return seen == (1u << groupSize_) - 1;
}

std::uint64_t
LineLocationTable::encodedBytes() const
{
    const unsigned bits_per_field =
        isPowerOfTwo(groupSize_) ? exactLog2(groupSize_)
                                 : floorLog2(groupSize_) + 1;
    const std::uint64_t bits =
        numGroups_ * std::uint64_t{groupSize_} * bits_per_field;
    return divCeil(bits, 8);
}

void
LineLocationTable::save(SnapshotWriter &w) const
{
    w.u64(numGroups_);
    w.u32(groupSize_);
    w.vecU8(loc_);
}

void
LineLocationTable::restore(SnapshotReader &r)
{
    const std::uint64_t groups = r.u64();
    const std::uint32_t k = r.u32();
    if (!r.ok())
        return;
    if (groups != numGroups_ || k != groupSize_) {
        r.fail("llt: geometry mismatch: snapshot has " +
               std::to_string(groups) + " groups of " + std::to_string(k) +
               ", this table has " + std::to_string(numGroups_) +
               " groups of " + std::to_string(groupSize_));
        return;
    }
    std::vector<std::uint8_t> loc;
    r.vecU8(loc);
    if (!r.ok())
        return;
    if (loc.size() != loc_.size()) {
        r.fail("llt: location array size mismatch");
        return;
    }
    loc_ = std::move(loc);
    // A snapshot written by save() holds only audited entries, but the
    // bytes may have been hand-edited between save and restore: re-check
    // every group before trusting the table.
    for (std::uint64_t g = 0; g < numGroups_; ++g) {
        if (!verifyGroup(g)) {
            r.fail("llt: restored entry for group " + std::to_string(g) +
                   " is not a permutation");
            return;
        }
    }
}

std::uint64_t
LineLocationTable::permutedGroups() const
{
    std::uint64_t count = 0;
    for (std::uint64_t g = 0; g < numGroups_; ++g) {
        for (std::uint32_t s = 0; s < groupSize_; ++s) {
            if (loc_[index(g, s)] != s) {
                ++count;
                break;
            }
        }
    }
    return count;
}

} // namespace cameo
