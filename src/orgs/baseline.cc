#include "orgs/baseline.hh"

namespace cameo
{

BaselineOrg::BaselineOrg(const OrgConfig &config)
    : MemoryOrganization("Baseline", config, config.offchipBytes,
                         config.stacked, /*stacked_bytes=*/0)
{
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

} // namespace cameo
