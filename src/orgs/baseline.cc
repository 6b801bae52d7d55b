#include "orgs/baseline.hh"

namespace cameo
{

BaselineOrg::BaselineOrg(const OrgConfig &config)
    : MemoryOrganization("Baseline"),
      offchip_("dram.offchip", config.offchip, config.offchipBytes)
{
    applyTimingConfig(config);
}

Tick
BaselineOrg::access(Tick now, LineAddr line, bool is_write, InstAddr pc,
                    std::uint32_t core)
{
    (void)pc;
    (void)core;
    // Off-chip DRAM holds every line and keeps no architectural state;
    // an access only advances timing.
    return offchip_.request(now, line, is_write, kLineBytes);
}

void
BaselineOrg::registerStats(StatRegistry &registry)
{
    offchip_.registerStats(registry);
}

} // namespace cameo
