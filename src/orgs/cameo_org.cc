#include "orgs/cameo_org.hh"

#include <cassert>

#include "core/lead_layout.hh"
#include "util/bitops.hh"

namespace cameo
{

DramTimings
CameoOrg::stackedTimingsFor(const OrgConfig &config)
{
    DramTimings t = config.stacked;
    if (config.llt.kind == LltKind::CoLocated) {
        // 31 LEADs per 2KB row (Figure 7).
        t.linesPerRow = LeadLayout::kLeadsPerRow;
    }
    return t;
}

std::uint64_t
CameoOrg::stackedModuleBytes(const OrgConfig &config)
{
    if (config.llt.kind == LltKind::Embedded) {
        // Model the reserved LLT region as additional device lines so
        // LLT lookups contend for real banks and buses; the capacity
        // cost is charged against visible bytes instead.
        const std::uint64_t data_lines = config.stackedBytes / kLineBytes;
        const std::uint64_t k =
            (config.stackedBytes + config.offchipBytes) /
            config.stackedBytes;
        const std::uint64_t reserve = CameoController::lltReserveLines(
            data_lines, static_cast<std::uint32_t>(k));
        return config.stackedBytes + reserve * kLineBytes;
    }
    return config.stackedBytes;
}

std::uint64_t
CameoOrg::computeVisibleBytes(const OrgConfig &config)
{
    const std::uint64_t total = config.stackedBytes + config.offchipBytes;
    std::uint64_t reserve = 0;
    switch (config.llt.kind) {
      case LltKind::Ideal:
        reserve = 0;
        break;
      case LltKind::Embedded: {
        const std::uint64_t data_lines = config.stackedBytes / kLineBytes;
        const std::uint64_t k = total / config.stackedBytes;
        reserve = CameoController::lltReserveLines(
                      data_lines, static_cast<std::uint32_t>(k)) *
                  kLineBytes;
        break;
      }
      case LltKind::CoLocated:
        reserve = config.stackedBytes / 32;
        break;
    }
    return (total - reserve) / kPageBytes * kPageBytes;
}

CameoOrg::CameoOrg(const OrgConfig &config, std::string name)
    : MemoryOrganization(name.empty() ? variantName(config.llt.kind,
                                                    config.llt.predictor)
                                      : std::move(name)),
      stacked_("dram.stacked", stackedTimingsFor(config),
               stackedModuleBytes(config)),
      offchip_("dram.offchip", config.offchip, config.offchipBytes),
      controller_(
          CameoParams{config.llt.kind, config.llt.predictor,
                      config.numCores, config.llt.llpTableEntries},
          stacked_, offchip_, config.stackedBytes / kLineBytes,
          (config.stackedBytes + config.offchipBytes) / kLineBytes),
      visibleBytes_(computeVisibleBytes(config))
{
    assert(isPowerOfTwo(config.stackedBytes / kLineBytes));
    assert((config.stackedBytes + config.offchipBytes) %
               config.stackedBytes ==
           0);
    applyTimingConfig(config);
}

Tick
CameoOrg::access(Tick now, LineAddr line, bool is_write, InstAddr pc,
                 std::uint32_t core, Fidelity fidelity)
{
    return controller_.access(now, line, is_write, pc, core, fidelity);
}

void
CameoOrg::registerStats(StatRegistry &registry)
{
    stacked_.registerStats(registry);
    offchip_.registerStats(registry);
    controller_.registerStats(registry);
}

std::string
CameoOrg::variantName(LltKind llt, PredictorKind pred)
{
    std::string name = "CAMEO";
    if (llt != LltKind::CoLocated || pred != PredictorKind::Llp) {
        name += std::string("(") + lltKindName(llt) + "+" +
                predictorKindName(pred) + ")";
    }
    return name;
}

void
CameoOrg::save(SnapshotWriter &w) const
{
    MemoryOrganization::save(w);
    controller_.save(w);
}

void
CameoOrg::restore(SnapshotReader &r)
{
    MemoryOrganization::restore(r);
    controller_.restore(r);
}

} // namespace cameo
