/**
 * @file
 * LEAD (Location Entry And Data) row layout for the Co-Located LLT
 * (Section IV-D, Figure 7).
 *
 * Each 2KB stacked row holds 31 LEADs of 66 bytes (64B data + 1B
 * location-table entry + 1B reserved); the 32nd line's worth of space
 * funds the location entries. Reads use a burst of five on the 16-byte
 * stacked bus (80 bytes, of which 66 are used).
 *
 * The paper remaps a stacked line address X to its LEAD position with
 * [(X + X/31) - LinesIn32MB], computing the division by 31 with a few
 * adders via residue arithmetic (31 = 32 - 1). Both the remap and the
 * adder-only division are implemented and cross-checked here; the
 * timing path in CameoOrg models the same row-occupancy effect
 * by configuring the stacked module with 31 lines per row.
 */

#ifndef CAMEO_CORE_LEAD_LAYOUT_HH
#define CAMEO_CORE_LEAD_LAYOUT_HH

#include <cstdint>

#include "util/types.hh"

namespace cameo
{

/** Geometry and address remapping of the Co-Located LLT. */
class LeadLayout
{
  public:
    /** Data lines per physical stacked row before LEAD overhead. */
    static constexpr std::uint32_t kLinesPerRow = 32;

    /** LEADs that fit in a row after reserving location-entry space. */
    static constexpr std::uint32_t kLeadsPerRow = 31;

    /** Bytes in one LEAD: 64 data + 1 LTE + 1 reserved. */
    static constexpr std::uint32_t kLeadBytes = 66;

    /** Bus burst that fetches one LEAD: 5 beats x 16B = 80 bytes. */
    static constexpr std::uint32_t kLeadBurstBytes = 80;

    /**
     * @param stacked_lines Physical stacked capacity in lines.
     */
    explicit LeadLayout(std::uint64_t stacked_lines);

    /**
     * Usable stacked capacity in LEAD slots: 31/32 of physical
     * (the 97% useful capacity of the paper).
     */
    std::uint64_t usableLines() const { return usableLines_; }

    /** Physical lines sacrificed to hold location entries. */
    std::uint64_t overheadLines() const
    {
        return stackedLines_ - usableLines_;
    }

    /**
     * Physical stacked line that stores LEAD slot @p x (the paper's
     * X + X/31 remap, before the OS-visibility offset).
     * Precondition: x < usableLines().
     */
    std::uint64_t physicalLineOf(std::uint64_t x) const;

    /**
     * Division by 31 using only shifts and adds, exploiting
     * 31 = 32 - 1: since x = 31q + r, q = (x - r)/31 where
     * r = x mod 31 is computable by summing base-32 digits (residue
     * arithmetic). Returns x / 31 exactly.
     */
    static std::uint64_t adderOnlyDivideBy31(std::uint64_t x);

    /** x mod 31 via base-32 digit summing (no division). */
    static std::uint32_t adderOnlyMod31(std::uint64_t x);

  private:
    std::uint64_t stackedLines_;
    std::uint64_t usableLines_;
};

} // namespace cameo

#endif // CAMEO_CORE_LEAD_LAYOUT_HH
