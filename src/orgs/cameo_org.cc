#include "orgs/cameo_org.hh"

#include <algorithm>
#include <cassert>
#include <utility>

#include "check/llt_auditor.hh"
#include "util/bitops.hh"

namespace cameo
{

namespace
{

/** Bytes of one LLT entry for a group of size K. */
std::uint32_t
entryBytes(std::uint32_t group_size)
{
    const unsigned bits_per_loc = isPowerOfTwo(group_size)
                                      ? exactLog2(group_size)
                                      : floorLog2(group_size) + 1;
    return static_cast<std::uint32_t>(
        divCeil(std::uint64_t{group_size} * bits_per_loc, 8));
}

/** Stacked data lines (= congruence groups) of @p config. */
std::uint64_t
dataLines(const OrgConfig &config)
{
    return config.stackedBytes / kLineBytes;
}

/** Congruence-group size K of @p config. */
std::uint32_t
groupSize(const OrgConfig &config)
{
    return static_cast<std::uint32_t>(
        (config.stackedBytes + config.offchipBytes) / config.stackedBytes);
}

DramTimings
stackedTimingsFor(const OrgConfig &config)
{
    DramTimings t = config.stacked;
    if (config.llt.kind == LltKind::CoLocated) {
        // 31 LEADs per 2KB row (Figure 7).
        t.linesPerRow = LeadLayout::kLeadsPerRow;
    }
    return t;
}

std::uint64_t
stackedModuleBytes(const OrgConfig &config)
{
    if (config.llt.kind == LltKind::Embedded) {
        // Model the reserved LLT region as additional device lines so
        // LLT lookups contend for real banks and buses; the capacity
        // cost is charged against visible bytes instead.
        return config.stackedBytes +
               CameoOrg::lltReserveLines(dataLines(config),
                                         groupSize(config)) *
                   kLineBytes;
    }
    return config.stackedBytes;
}

std::uint64_t
visibleBytesOf(const OrgConfig &config)
{
    const std::uint64_t total = config.stackedBytes + config.offchipBytes;
    std::uint64_t reserve = 0;
    switch (config.llt.kind) {
      case LltKind::Ideal:
        reserve = 0;
        break;
      case LltKind::Embedded:
        reserve = CameoOrg::lltReserveLines(dataLines(config),
                                            groupSize(config)) *
                  kLineBytes;
        break;
      case LltKind::CoLocated:
        reserve = config.stackedBytes / 32;
        break;
    }
    return (total - reserve) / kPageBytes * kPageBytes;
}

} // namespace

std::uint64_t
CameoOrg::lltReserveLines(std::uint64_t data_lines, std::uint32_t group_size)
{
    const std::uint32_t per_line = kLineBytes / entryBytes(group_size);
    return divCeil(data_lines, per_line);
}

CameoOrg::CameoOrg(const OrgConfig &config, bool freq_admission)
    : MemoryOrganization(freq_admission
                             ? "CAMEO-Freq"
                             : variantName(config.llt.kind,
                                           config.llt.predictor),
                         config, config.offchipBytes,
                         stackedTimingsFor(config),
                         stackedModuleBytes(config)),
      lltKind_(config.llt.kind),
      groups_(dataLines(config),
              (config.stackedBytes + config.offchipBytes) / kLineBytes),
      llt_(dataLines(config), groups_.groupSize()),
      predictor_(config.llt.predictor, config.numCores, groups_.groupSize(),
                 config.llt.llpTableEntries),
      lltRegionBase_(dataLines(config)),
      lltEntriesPerLine_(kLineBytes / entryBytes(groups_.groupSize())),
      visibleBytes_(visibleBytesOf(config)),
      servicedStacked_("cameo.servicedStacked",
                       "accesses whose line was in stacked DRAM"),
      servicedOffchip_("cameo.servicedOffchip",
                       "accesses whose line was in off-chip DRAM"),
      swaps_("cameo.swaps", "line swaps performed"),
      lltLookups_("cameo.lltLookups",
                  "separate LLT reads (Embedded design)"),
      wastedFetches_("cameo.wastedFetches",
                     "mispredicted off-chip fetches (bandwidth waste)"),
      squashedFetches_("cameo.squashedFetches",
                       "mispredicted fetches squashed before issue"),
      swapsFiltered_("cameo.swapsFiltered",
                     "off-chip services that skipped the swap (cold page)"),
      freqAdmission_(freq_admission),
      pageCount_(freq_admission ? (config.stackedBytes + config.offchipBytes) /
                                      kPageBytes
                                : 0,
                 0),
      epochLength_(config.freq.epochAccesses),
      hotPages_("cameofreq.hotAdmissions",
                "swap admissions from the hot-page filter")
{
    // Off-chip must hold the K-1 non-stacked members of every group,
    // and stacked DRAM every group's resident (plus an Embedded LLT's
    // reserved region, which stackedModuleBytes added).
    assert(offchip_.capacityLines() >=
           (groups_.groupSize() - 1) * groups_.numGroups());
    assert(stacked_->capacityLines() >= dataLines(config));
}

Tick
CameoOrg::access(Tick now, LineAddr line, bool is_write, InstAddr pc,
                 std::uint32_t core)
{
    if (freqAdmission_)
        noteAccess(line);

    assert(line < groups_.totalLines());
    const std::uint64_t group = groups_.groupOf(line);
    const std::uint32_t slot = groups_.slotOf(line);
    const std::uint32_t loc = llt_.locationOf(group, slot);

    if (loc == 0)
        servicedStacked_.inc();
    else
        servicedOffchip_.inc();

    // Writebacks update data in place: DRAM traffic only, no LLT or
    // predictor state changes.
    if (is_write)
        return writeback(now, group, loc);

    switch (lltKind_) {
      case LltKind::Ideal:
        return accessIdeal(now, group, slot, loc);
      case LltKind::Embedded:
        return accessEmbedded(now, group, slot, loc);
      case LltKind::CoLocated:
      default:
        return accessCoLocated(now, group, slot, loc, pc, core);
    }
}

void
CameoOrg::noteAccess(LineAddr line)
{
    const PageAddr page = lineToPage(line);
    if (page < pageCount_.size() && pageCount_[page] < 255)
        ++pageCount_[page];
    if (++accessesThisEpoch_ >= epochLength_) {
        accessesThisEpoch_ = 0;
        // Halve all counters every epoch of demand accesses.
        for (auto &c : pageCount_)
            c = static_cast<std::uint8_t>(c >> 1);
    }
}

bool
CameoOrg::shouldSwap(std::uint64_t group, std::uint32_t slot)
{
    if (!freqAdmission_)
        return true;
    const PageAddr page = lineToPage(groups_.lineOf(group, slot));
    if (page >= pageCount_.size())
        return true; // defensive: unknown pages swap as stock CAMEO
    if (pageCount_[page] >= kHotThreshold) {
        hotPages_.inc();
        return true;
    }
    swapsFiltered_.inc();
    return false;
}

Tick
CameoOrg::writeback(Tick now, std::uint64_t group, std::uint32_t loc)
{
    // L3 writebacks carry data for a line that was fetched earlier and
    // has since left the L3 — it is not "recently used", so CAMEO
    // updates it in place rather than swapping it in. The location
    // check and the data write both drain through the memory
    // controller's write queue (billed as write/bus traffic):
    //  - Ideal: location is free; write data at its current location.
    //  - Embedded / Co-Located: the LLT consultation is one stacked
    //    access folded into the write drain (for Co-Located it is the
    //    read half of the LEAD read-modify-write).
    if (lltKind_ != LltKind::Ideal)
        stacked_->request(now, stackedDataLine(group), true, stackedBurst());

    if (loc == 0)
        return stacked_->request(now, stackedDataLine(group), true,
                                 stackedBurst());
    return offchip_.request(now, groups_.offchipLineOf(group, loc), true,
                           kLineBytes);
}

void
CameoOrg::swapIn(Tick when, std::uint64_t group, std::uint32_t slot,
                 std::uint32_t loc, bool victim_in_hand)
{
    assert(loc != 0);
    // Read the outgoing stacked resident unless the caller already has
    // it (Co-Located: the LEAD read returned it).
    if (!victim_in_hand)
        stacked_->request(when, stackedDataLine(group), false, stackedBurst());
    // Victim takes the incoming line's old off-chip location.
    offchip_.request(when, groups_.offchipLineOf(group, loc), true,
                     kLineBytes);
    // Incoming line is installed in the group's stacked slot (the LEAD
    // write also refreshes the co-located location entry).
    stacked_->request(when, stackedDataLine(group), true, stackedBurst());

    const std::uint32_t victim_slot = llt_.slotAt(group, 0);
    llt_.swapSlots(group, slot, victim_slot);
    swaps_.inc();
}

Tick
CameoOrg::accessIdeal(Tick now, std::uint64_t group, std::uint32_t slot,
                      std::uint32_t loc)
{
    if (loc == 0) {
        return stacked_->request(now, stackedDataLine(group), false,
                                 kLineBytes);
    }
    const Tick done = offchip_.request(
        now, groups_.offchipLineOf(group, loc), false, kLineBytes);
    // Swap traffic goes through the writeback/fill queues; bill it at
    // request time (off the demand critical path).
    if (shouldSwap(group, slot))
        swapIn(now, group, slot, loc, /*victim_in_hand=*/false);
    return done;
}

Tick
CameoOrg::accessEmbedded(Tick now, std::uint64_t group, std::uint32_t slot,
                         std::uint32_t loc)
{
    // Serial LLT lookup from the reserved stacked region.
    const Tick t_llt =
        stacked_->request(now, lltLine(group), false, kLineBytes);
    lltLookups_.inc();

    if (loc == 0) {
        return stacked_->request(t_llt, stackedDataLine(group), false,
                                 kLineBytes);
    }
    const Tick done = offchip_.request(
        t_llt, groups_.offchipLineOf(group, loc), false, kLineBytes);
    if (shouldSwap(group, slot)) {
        swapIn(t_llt, group, slot, loc, /*victim_in_hand=*/false);
        // The swap moved lines, so the LLT entry must be rewritten.
        stacked_->request(t_llt, lltLine(group), true, kLineBytes);
    }
    return done;
}

Tick
CameoOrg::accessCoLocated(Tick now, std::uint64_t group, std::uint32_t slot,
                          std::uint32_t loc, InstAddr pc, std::uint32_t core)
{
    // The LEAD read is the LLT lookup; it also returns the data of
    // whatever line currently occupies the group's stacked slot.
    const Tick t_lead = stacked_->request(now, stackedDataLine(group), false,
                                          stackedBurst());

    const std::uint32_t pred = predictor_.predict(core, pc, loc);
    if (pred != 0 && pred != loc && offchip_.timed()) {
        // Wrong off-chip guess (case 2 if the line is stacked, case 5
        // if elsewhere off-chip). The LEAD read verifies the
        // prediction at t_lead; a speculative fetch still queued at
        // that point is squashed before it touches the bus, so it only
        // wastes bandwidth when the off-chip memory could have
        // serviced it immediately. That depends on queue occupancy,
        // so an untimed module counts neither outcome.
        const std::uint64_t spec = groups_.offchipLineOf(group, pred);
        if (offchip_.earliestServiceStart(spec) <= t_lead) {
            offchip_.request(now, spec, false, kLineBytes);
            wastedFetches_.inc();
        } else {
            squashedFetches_.inc();
        }
    }

    // Data came with the LEAD when the line is stacked.
    Tick done = t_lead;
    if (loc != 0) {
        const std::uint64_t off_line = groups_.offchipLineOf(group, loc);
        if (pred == loc) {
            // Correct prediction: off-chip fetch ran in parallel with
            // the LEAD read; completion still waits for the LLT
            // verification (the LEAD read).
            const Tick t_off =
                offchip_.request(now, off_line, false, kLineBytes);
            done = std::max(t_lead, t_off);
        } else {
            // Serialized: correct location only known after the LEAD.
            done = offchip_.request(t_lead, off_line, false, kLineBytes);
        }
        if (shouldSwap(group, slot))
            swapIn(now, group, slot, loc, /*victim_in_hand=*/true);
    }

    predictor_.update(core, pc, pred, loc);
    return done;
}

std::uint64_t
CameoOrg::auditLlt() const
{
    LltAuditor auditor;
    return auditor.auditAll(llt_);
}

void
CameoOrg::registerStats(StatRegistry &registry)
{
    MemoryOrganization::registerStats(registry);
    registry.add(servicedStacked_);
    registry.add(servicedOffchip_);
    registry.add(swaps_);
    registry.add(lltLookups_);
    registry.add(wastedFetches_);
    registry.add(squashedFetches_);
    registry.add(swapsFiltered_);
    predictor_.registerStats(registry, "cameo");
    if (freqAdmission_)
        registry.add(hotPages_);
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
    llt_.save(w);
    predictor_.save(w);
    if (freqAdmission_) {
        w.vecU8(pageCount_);
        w.u64(accessesThisEpoch_);
    }
}

void
CameoOrg::restore(SnapshotReader &r)
{
    MemoryOrganization::restore(r);
    llt_.restore(r);
    predictor_.restore(r);
    if (!freqAdmission_)
        return;
    std::vector<std::uint8_t> counts;
    r.vecU8(counts);
    if (!r.ok())
        return;
    if (counts.size() != pageCount_.size()) {
        r.fail("cameo-freq: page counter table size mismatch");
        return;
    }
    pageCount_ = std::move(counts);
    accessesThisEpoch_ = r.u64();
}

} // namespace cameo
