#include "orgs/memory_organization.hh"

#include <algorithm>
#include <cassert>
#include <cctype>

#include "orgs/alloy_cache.hh"
#include "orgs/baseline.hh"
#include "orgs/cameo_org.hh"
#include "orgs/composed_org.hh"
#include "orgs/policy/epoch_freq_placement.hh"
#include "orgs/policy/nth_touch_placement.hh"
#include "orgs/policy/oracle_heat_placement.hh"
#include "orgs/policy/page_remap_mapping.hh"
#include "orgs/policy/pte_cached_mapping.hh"
#include "orgs/policy/sampling_freq_placement.hh"
#include "util/bitops.hh"

namespace cameo
{

MemoryOrganization::MemoryOrganization(std::string name,
                                       const OrgConfig &config,
                                       std::uint64_t offchip_bytes,
                                       const DramTimings &stacked_timings,
                                       std::uint64_t stacked_bytes)
    : offchip_("dram.offchip", config.offchip, offchip_bytes),
      name_(std::move(name))
{
    if (stacked_bytes != 0) {
        stacked_.emplace("dram.stacked", stacked_timings, stacked_bytes);
        stacked_->setTimingMode(config.timingMode, config.dramQueues);
    }
    offchip_.setTimingMode(config.timingMode, config.dramQueues);
#if CAMEO_AUDIT_ENABLED
    // The event queue fires in tick order, so queued-mode deliveries
    // are monotone; blocking completions fire in submission order with
    // freely interleaved ticks.
    queueAudit_.setMonotonicDelivery(config.timingMode ==
                                     TimingMode::Queued);
#endif
}

MemoryOrganization::~MemoryOrganization() = default;

void
MemoryOrganization::registerStats(StatRegistry &registry)
{
    if (stacked_)
        stacked_->registerStats(registry);
    offchip_.registerStats(registry);
}

Tick
MemoryOrganization::submit(Tick now, LineAddr line, bool is_write,
                           InstAddr pc, std::uint32_t core,
                           std::uint64_t tag, MemClient *client)
{
    MemRequest req;
    req.id = ++lastRequestId_;
    req.tag = tag;
    req.line = line;
    req.isWrite = is_write;
    req.pc = pc;
    req.core = core;
    req.issueTick = now;

    assert(offchip_.timed() && "submit() is the timed entry point");
    const Tick done = access(now, line, is_write, pc, core);
#if CAMEO_AUDIT_ENABLED
    queueAudit_.onSubmit(req.id, now);
#endif
    if (timingMode() == TimingMode::Queued && events_ != nullptr &&
        client != nullptr) {
        std::uint32_t slot;
        if (freeInflight_.empty()) {
            slot = static_cast<std::uint32_t>(inflight_.size());
            inflight_.push_back({req, done, client});
        } else {
            slot = freeInflight_.back();
            freeInflight_.pop_back();
            inflight_[slot] = {req, done, client};
        }
        scheduleCompletion(slot);
        return done;
    }
#if CAMEO_AUDIT_ENABLED
    queueAudit_.onComplete(req.id, done, /*ordered=*/false);
#endif
    if (client != nullptr)
        client->onMemComplete(req, done);
    return done;
}

void
MemoryOrganization::scheduleCompletion(std::uint32_t slot)
{
    // Two words of capture fit std::function's inline buffer, so the
    // completion event allocates nothing.
    events_->schedule(inflight_[slot].done, [this, slot](Tick when) {
        completeInflight(slot, when);
    });
}

void
MemoryOrganization::completeInflight(std::uint32_t slot, Tick when)
{
    // Copy out first: the client may submit, which can grow the slab.
    const MemRequest req = inflight_[slot].req;
    MemClient *const client = inflight_[slot].client;
    // Retire from the in-flight registry before delivery so a
    // snapshot taken from inside the callback (not a supported call
    // site, but cheap to get right) never replays this completion.
    inflight_[slot].req.id = 0;
    freeInflight_.push_back(slot);
#if CAMEO_AUDIT_ENABLED
    queueAudit_.onComplete(req.id, when);
#endif
    client->onMemComplete(req, when);
}

void
MemoryOrganization::save(SnapshotWriter &w) const
{
    w.u64(lastRequestId_);
    // Live slots in request-id order: ids rise with submission, so this
    // is the submission order rescheduleInflight() replays.
    std::vector<const InflightRequest *> live;
    live.reserve(inflightCount());
    for (const InflightRequest &f : inflight_) {
        if (f.req.id != 0)
            live.push_back(&f);
    }
    std::sort(live.begin(), live.end(),
              [](const InflightRequest *a, const InflightRequest *b) {
                  return a->req.id < b->req.id;
              });
    w.u64(live.size());
    for (const InflightRequest *f : live) {
        w.u64(f->req.id);
        w.u64(f->req.tag);
        w.u64(f->req.line);
        w.b(f->req.isWrite);
        w.u64(f->req.pc);
        w.u32(f->req.core);
        w.u64(f->req.issueTick);
        w.u64(f->done);
    }
    if (stacked_)
        stacked_->save(w);
    offchip_.save(w);
}

void
MemoryOrganization::restore(SnapshotReader &r)
{
    lastRequestId_ = r.u64();
    const std::uint64_t n = r.u64();
    inflight_.clear();
    freeInflight_.clear();
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
        InflightRequest f;
        f.req.id = r.u64();
        f.req.tag = r.u64();
        f.req.line = r.u64();
        f.req.isWrite = r.b();
        f.req.pc = r.u64();
        f.req.core = r.u32();
        f.req.issueTick = r.u64();
        f.done = r.u64();
        if (!r.ok())
            break;
        // save() writes issued ids in ascending order; anything else
        // could not come from a live pipeline (and id 0 marks a free
        // slot).
        if (f.req.id == 0 || f.req.id > lastRequestId_ ||
            (!inflight_.empty() && f.req.id <= inflight_.back().req.id)) {
            r.fail("org: snapshot's in-flight request ids are not "
                   "ascending issued ids");
            break;
        }
        inflight_.push_back(f);
    }
    if (r.ok() && !inflight_.empty() &&
        timingMode() != TimingMode::Queued) {
        r.fail("org: snapshot carries in-flight requests but this "
               "organization uses Blocking timing");
        return;
    }
#if CAMEO_AUDIT_ENABLED
    // Re-shadow the restored transactions so their (re-scheduled)
    // deliveries balance the books.
    for (const InflightRequest &f : inflight_)
        queueAudit_.onSubmit(f.req.id, f.req.issueTick);
#endif
    if (stacked_)
        stacked_->restore(r);
    offchip_.restore(r);
}

void
MemoryOrganization::rescheduleInflight(
    const std::function<MemClient *(std::uint32_t)> &client_of)
{
    if (inflightCount() == 0)
        return;
    assert(events_ != nullptr &&
           "bind the event queue before rescheduling");
    assert(freeInflight_.empty() &&
           "reschedule only a freshly restored in-flight slab");
    // restore() filled slots 0..n-1 in submission order, which
    // reproduces the original scheduling order, so same-tick
    // completions keep their FIFO sequence numbers.
    for (std::uint32_t slot = 0; slot < inflight_.size(); ++slot) {
        InflightRequest &f = inflight_[slot];
        f.client = client_of(f.req.core);
        assert(f.client != nullptr);
        scheduleCompletion(slot);
    }
}

void
MemoryOrganization::setFidelity(Fidelity fidelity)
{
    const bool timed = fidelity == Fidelity::Detailed;
    if (stacked_)
        stacked_->setTimed(timed);
    offchip_.setTimed(timed);
}

void
MemoryOrganization::resetTiming()
{
    assert(inflightCount() == 0 &&
           "drain in-flight transactions before a timing reset");
    lastRequestId_ = 0;
    if (stacked_)
        stacked_->reset();
    offchip_.reset();
#if CAMEO_AUDIT_ENABLED
    // Request ids and delivery ticks restart with the cores' clocks.
    queueAudit_.reset();
#endif
}

void
MemoryOrganization::onPageMapped(std::uint32_t frame, std::uint32_t core,
                                 PageAddr vpage)
{
    (void)frame;
    (void)core;
    (void)vpage;
}

bool
MemoryOrganization::setPageHeat(PageHeatMap heat)
{
    (void)heat;
    return false;
}

const char *
OrgConfig::validate(OrgKind kind) const
{
    if (stackedBytes == 0)
        return "stackedBytes must be nonzero";
    if (offchipBytes == 0)
        return "offchipBytes must be nonzero";
    if (stackedBytes % kPageBytes != 0)
        return "stackedBytes must be a whole number of pages";
    if (offchipBytes % kPageBytes != 0)
        return "offchipBytes must be a whole number of pages";
    if (kind == OrgKind::Cameo || kind == OrgKind::CameoFreq) {
        // Congruence groups (Section IV-A): one group per stacked line,
        // selected by the low line-address bits, each holding K lines.
        if (!isPowerOfTwo(stackedBytes / kLineBytes))
            return "stackedBytes must be a power-of-two number of lines "
                   "(CAMEO congruence groups)";
        const std::uint64_t total = stackedBytes + offchipBytes;
        if (total % stackedBytes != 0 || total / stackedBytes > 16)
            return "(stackedBytes + offchipBytes) / stackedBytes must be "
                   "a whole number in [2, 16] (CAMEO congruence group "
                   "size)";
    }
    if (numCores == 0)
        return "numCores must be nonzero";
    if (const char *err = llt.validate())
        return err;
    if (const char *err = freq.validate())
        return err;
    if (const char *err = migrate.validate())
        return err;
    if (const char *err = banshee.validate())
        return err;
    return nullptr;
}

const char *
orgKindName(OrgKind kind)
{
    switch (kind) {
      case OrgKind::Baseline:
        return "Baseline";
      case OrgKind::AlloyCache:
        return "Cache";
      case OrgKind::TlmStatic:
        return "TLM-Static";
      case OrgKind::TlmDynamic:
        return "TLM-Dynamic";
      case OrgKind::TlmFreq:
        return "TLM-Freq";
      case OrgKind::TlmOracle:
        return "TLM-Oracle";
      case OrgKind::DoubleUse:
        return "DoubleUse";
      case OrgKind::Cameo:
        return "CAMEO";
      case OrgKind::CameoFreq:
        return "CAMEO-Freq";
      case OrgKind::Banshee:
        return "Banshee";
    }
    return "Unknown";
}

namespace
{

/** ASCII case-insensitive string equality (CLI org spellings). */
bool
iequals(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto la = std::tolower(static_cast<unsigned char>(a[i]));
        const auto lb = std::tolower(static_cast<unsigned char>(b[i]));
        if (la != lb)
            return false;
    }
    return true;
}

} // namespace

std::optional<OrgKind>
orgKindFromName(std::string_view name)
{
    for (const OrgKind kind : allOrgKinds()) {
        if (iequals(name, orgKindName(kind)))
            return kind;
    }
    return std::nullopt;
}

const std::vector<OrgKind> &
allOrgKinds()
{
    static const std::vector<OrgKind> kinds = {
        OrgKind::Baseline,  OrgKind::AlloyCache, OrgKind::TlmStatic,
        OrgKind::TlmDynamic, OrgKind::TlmFreq,   OrgKind::TlmOracle,
        OrgKind::DoubleUse, OrgKind::Cameo,      OrgKind::CameoFreq,
        OrgKind::Banshee,
    };
    return kinds;
}

OrgComposition
orgComposition(OrgKind kind)
{
    switch (kind) {
      case OrgKind::Baseline:
        return {"identity", "none"};
      case OrgKind::AlloyCache:
        return {"tad-tags", "install-on-miss"};
      case OrgKind::TlmStatic:
        return {"identity", "static"};
      case OrgKind::TlmDynamic:
        return {"page-remap", "nth-touch-migrate"};
      case OrgKind::TlmFreq:
        return {"page-remap", "epoch-frequency"};
      case OrgKind::TlmOracle:
        return {"page-remap", "oracle-heat"};
      case OrgKind::DoubleUse:
        return {"tad-tags", "install-on-miss"};
      case OrgKind::Cameo:
        return {"llt-line-swap", "mru-swap"};
      case OrgKind::CameoFreq:
        return {"llt-line-swap", "freq-admission"};
      case OrgKind::Banshee:
        return {"pte-cached-remap", "sampling-frequency"};
    }
    return {"unknown", "unknown"};
}

std::unique_ptr<MemoryOrganization>
makeOrganization(OrgKind kind, const OrgConfig &config)
{
    assert(config.validate(kind) == nullptr &&
           "invalid organization config");
    const std::uint64_t stacked_pages = config.stackedBytes / kPageBytes;
    const std::uint64_t total_pages =
        (config.stackedBytes + config.offchipBytes) / kPageBytes;
    switch (kind) {
      case OrgKind::Baseline:
        return std::make_unique<BaselineOrg>(config);
      case OrgKind::AlloyCache:
        return std::make_unique<AlloyCacheOrg>(config,
                                               config.offchipBytes);
      case OrgKind::TlmStatic:
        return std::make_unique<ComposedOrg>(
            config, orgKindName(kind), std::make_unique<IdentityMapping>(),
            std::make_unique<StaticPlacement>());
      case OrgKind::TlmDynamic:
        return std::make_unique<ComposedOrg>(
            config, orgKindName(kind),
            std::make_unique<PageRemapMapping>(total_pages),
            std::make_unique<NthTouchMigratePlacement>(
                stacked_pages, total_pages, config.migrate, config.seed));
      case OrgKind::TlmFreq:
        return std::make_unique<ComposedOrg>(
            config, orgKindName(kind),
            std::make_unique<PageRemapMapping>(total_pages),
            std::make_unique<EpochFrequencyPlacement>(
                stacked_pages, total_pages, config.freq.epochAccesses));
      case OrgKind::TlmOracle:
        return std::make_unique<ComposedOrg>(
            config, orgKindName(kind),
            std::make_unique<PageRemapMapping>(total_pages),
            std::make_unique<OracleHeatPlacement>(stacked_pages,
                                                  total_pages));
      case OrgKind::DoubleUse:
        // The cache stays, and the backing memory magically gains the
        // stacked capacity (Section II-D).
        return std::make_unique<AlloyCacheOrg>(
            config, config.offchipBytes + config.stackedBytes,
            orgKindName(kind));
      case OrgKind::Cameo:
        return std::make_unique<CameoOrg>(config);
      case OrgKind::CameoFreq:
        return std::make_unique<CameoOrg>(config, /*freq_admission=*/true);
      case OrgKind::Banshee:
        return std::make_unique<ComposedOrg>(
            config, orgKindName(kind),
            std::make_unique<PteCachedPageMapping>(
                total_pages, config.numCores, config.banshee),
            std::make_unique<SamplingFrequencyPlacement>(
                stacked_pages, total_pages, config.banshee,
                config.freq.epochAccesses, config.seed));
    }
    return nullptr;
}

} // namespace cameo
