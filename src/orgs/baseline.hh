/**
 * @file
 * Baseline organization: commodity off-chip DRAM only, no stacked
 * memory. All speedups in the paper are reported relative to this
 * system's execution time.
 */

#ifndef CAMEO_ORGS_BASELINE_HH
#define CAMEO_ORGS_BASELINE_HH

#include "orgs/memory_organization.hh"

namespace cameo
{

/** Off-chip-only memory system. */
class BaselineOrg : public MemoryOrganization
{
  public:
    explicit BaselineOrg(const OrgConfig &config);

    Tick access(Tick now, LineAddr line, bool is_write, InstAddr pc,
                std::uint32_t core) override;
};

} // namespace cameo

#endif // CAMEO_ORGS_BASELINE_HH
