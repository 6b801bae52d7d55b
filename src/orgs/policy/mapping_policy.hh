/**
 * @file
 * PageMappingPolicy: the composable answer to "which device page holds
 * OS-physical page X" (DESIGN.md §14).
 *
 * A ComposedOrg pairs one mapping policy with one placement policy.
 * The mapping owns the translation state (page remap tables, PTE
 * caches) and is independently Checkpointable. It bills its metadata
 * walks through the DRAM module it is handed, so it needs no notion
 * of fidelity (DESIGN.md §13): an untimed module makes the walk free.
 */

#ifndef CAMEO_ORGS_POLICY_MAPPING_POLICY_HH
#define CAMEO_ORGS_POLICY_MAPPING_POLICY_HH

#include <cstdint>

#include "dram/dram_module.hh"
#include "snapshot/snapshot.hh"
#include "stats/registry.hh"
#include "util/types.hh"

namespace cameo
{

/**
 * Base of every composable mapping policy: a bijection between
 * OS-physical pages and device pages (device pages < stackedPages live
 * in stacked DRAM).
 */
class PageMappingPolicy : public Checkpointable
{
  public:
    ~PageMappingPolicy() override;

    PageMappingPolicy() = default;
    PageMappingPolicy(const PageMappingPolicy &) = delete;
    PageMappingPolicy &operator=(const PageMappingPolicy &) = delete;

    /** Stable policy name (the composition table in DESIGN.md §14). */
    virtual const char *policyName() const = 0;

    /** Register policy-owned statistics (default: none). */
    virtual void registerStats(StatRegistry &registry);

    /** Device page currently holding OS-physical @p phys_page. */
    virtual std::uint64_t devicePageOf(PageAddr phys_page) const = 0;

    /** OS-physical page currently held by @p device_page. */
    virtual PageAddr physPageAt(std::uint64_t device_page) const = 0;

    /** Swap the device pages of two OS-physical pages. */
    virtual void swapMapping(PageAddr phys_a, PageAddr phys_b) = 0;

    /**
     * Translation cost hook, called once per access before routing.
     * Policies whose translation metadata itself lives in memory (the
     * Banshee PTE cache) update that state here and bill the metadata
     * walk against @p offchip. Returns the tick at which the data
     * access may start (== @p now for zero-cost mappings).
     */
    virtual Tick beginAccess(Tick now, PageAddr phys_page,
                             std::uint32_t core, DramModule &offchip);
};

/**
 * Identity mapping: OS-physical page == device page (TLM-Static's
 * random-at-allocation placement needs no org-side translation state).
 */
class IdentityMapping final : public PageMappingPolicy
{
  public:
    const char *policyName() const override { return "identity"; }

    std::uint64_t devicePageOf(PageAddr phys_page) const override
    {
        return phys_page;
    }

    PageAddr physPageAt(std::uint64_t device_page) const override
    {
        return device_page;
    }

    void swapMapping(PageAddr phys_a, PageAddr phys_b) override;

    /** Stateless: nothing to checkpoint. */
    void save(SnapshotWriter &w) const override;
    void restore(SnapshotReader &r) override;
};

} // namespace cameo

#endif // CAMEO_ORGS_POLICY_MAPPING_POLICY_HH
