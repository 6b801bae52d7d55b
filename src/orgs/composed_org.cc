/**
 * @file
 * ComposedOrg driver implementation — the routing path shared by every
 * page-granular composition.
 */

#include "orgs/composed_org.hh"

#include <cassert>
#include <utility>

namespace cameo
{

ComposedOrg::ComposedOrg(const OrgConfig &config, std::string name,
                         std::unique_ptr<PageMappingPolicy> mapping,
                         std::unique_ptr<PagePlacementPolicy> placement)
    : MemoryOrganization(std::move(name), config, config.offchipBytes,
                         config.stacked, config.stackedBytes),
      stackedPages_(config.stackedBytes / kPageBytes),
      totalPages_((config.stackedBytes + config.offchipBytes) / kPageBytes),
      servicedStacked_("tlm.servicedStacked",
                       "accesses serviced by stacked DRAM"),
      servicedOffchip_("tlm.servicedOffchip",
                       "accesses serviced by off-chip DRAM"),
      pageMigrations_("tlm.pageMigrations", "4KB page swaps performed"),
      mapping_(std::move(mapping)), placement_(std::move(placement))
{
    assert(stackedPages_ != 0 && totalPages_ > stackedPages_);
    assert(mapping_ != nullptr && placement_ != nullptr);
}

ComposedOrg::~ComposedOrg() = default;

Tick
ComposedOrg::routeLine(Tick now, std::uint64_t device_page,
                       std::uint32_t line_in_page, bool is_write)
{
    assert(device_page < totalPages_);
    const bool stacked = inStacked(device_page);
    (stacked ? servicedStacked_ : servicedOffchip_).inc();
    if (stacked) {
        return stacked_->request(now,
                                 device_page * kLinesPerPage + line_in_page,
                                 is_write, kLineBytes);
    }
    const std::uint64_t off_line =
        (device_page - stackedPages_) * kLinesPerPage + line_in_page;
    return offchip_.request(now, off_line, is_write, kLineBytes);
}

Tick
ComposedOrg::access(Tick now, LineAddr line, bool is_write, InstAddr pc,
                    std::uint32_t core)
{
    (void)pc;
    const PageAddr phys_page = lineToPage(line);
    // Translation first: mappings whose metadata lives in memory (the
    // Banshee PTE cache) may bill a walk and delay the data access.
    const Tick start = mapping_->beginAccess(now, phys_page, core, offchip_);
    const std::uint64_t dev = mapping_->devicePageOf(phys_page);
    const auto line_in_page =
        static_cast<std::uint32_t>(line & (kLinesPerPage - 1));
    const Tick done = routeLine(start, dev, line_in_page, is_write);
    // Migration traffic drains through writeback/fill queues; bill it
    // at request time, off the demand critical path.
    placement_->onAccess(*this, start, phys_page, dev, is_write);
    return done;
}

void
ComposedOrg::billPageSwap(Tick when, std::uint64_t offchip_dev_page,
                          std::uint64_t stacked_dev_page)
{
    assert(!inStacked(offchip_dev_page) && inStacked(stacked_dev_page));
    const std::uint64_t off_base =
        (offchip_dev_page - stackedPages_) * kLinesPerPage;
    const std::uint64_t stk_base = stacked_dev_page * kLinesPerPage;
    for (std::uint32_t i = 0; i < kLinesPerPage; ++i) {
        // Page coming in: read off-chip, write stacked.
        offchip_.request(when, off_base + i, false, kLineBytes);
        stacked_->request(when, stk_base + i, true, kLineBytes);
        // Victim going out: read stacked, write off-chip.
        stacked_->request(when, stk_base + i, false, kLineBytes);
        offchip_.request(when, off_base + i, true, kLineBytes);
    }
    pageMigrations_.inc();
}

void
ComposedOrg::onPageMapped(std::uint32_t frame, std::uint32_t core,
                          PageAddr vpage)
{
    placement_->onPageMapped(*this, frame, core, vpage);
}

bool
ComposedOrg::setPageHeat(PageHeatMap heat)
{
    return placement_->setPageHeat(std::move(heat));
}

void
ComposedOrg::registerStats(StatRegistry &registry)
{
    MemoryOrganization::registerStats(registry);
    registry.add(servicedStacked_);
    registry.add(servicedOffchip_);
    registry.add(pageMigrations_);
    // Legacy compositions register nothing here, keeping the snapshot
    // stats section byte-identical to the pre-refactor orgs.
    mapping_->registerStats(registry);
    placement_->registerStats(registry);
}

void
ComposedOrg::save(SnapshotWriter &w) const
{
    MemoryOrganization::save(w);
    mapping_->save(w);
    placement_->save(w);
}

void
ComposedOrg::restore(SnapshotReader &r)
{
    MemoryOrganization::restore(r);
    mapping_->restore(r);
    placement_->restore(r);
}

} // namespace cameo
