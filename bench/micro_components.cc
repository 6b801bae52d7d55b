/**
 * @file
 * google-benchmark microbenchmarks of the hot simulator components:
 * DRAM timing model, LLT operations, LLP prediction, cache access, and
 * the synthetic generator. These guard the simulator's own performance
 * (the figure benches run hundreds of millions of these operations).
 */

#include <benchmark/benchmark.h>

#include "cache/set_assoc_cache.hh"
#include "core/cameo_controller.hh"
#include "dram/dram_module.hh"
#include "trace/generator.hh"
#include "trace/workloads.hh"
#include "util/rng.hh"

namespace
{

using namespace cameo;

void
BM_DramAccess(benchmark::State &state)
{
    DramModule mod("bm", offchipTimings(), 24ull << 20);
    Rng rng(1);
    Tick now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mod.access(now, rng.next(mod.capacityLines()), false, 64));
        now += 20;
    }
}
BENCHMARK(BM_DramAccess);

void
BM_LltSwap(benchmark::State &state)
{
    LineLocationTable llt(1 << 17, 4);
    Rng rng(2);
    for (auto _ : state) {
        const std::uint64_t g = rng.next(llt.numGroups());
        llt.swapSlots(g, rng.next(4u), rng.next(4u));
        benchmark::DoNotOptimize(llt.locationOf(g, 0));
    }
}
BENCHMARK(BM_LltSwap);

void
BM_LlpPredictUpdate(benchmark::State &state)
{
    LineLocationPredictor llp(PredictorKind::Llp, 8, 4);
    Rng rng(3);
    for (auto _ : state) {
        const auto core = static_cast<std::uint32_t>(rng.next(8));
        const InstAddr pc = 0x400000 + 4 * rng.next(256);
        const auto actual = static_cast<std::uint32_t>(rng.next(4));
        const std::uint32_t pred = llp.predict(core, pc, actual);
        llp.update(core, pc, pred, actual);
        benchmark::DoNotOptimize(pred);
    }
}
BENCHMARK(BM_LlpPredictUpdate);

void
BM_L3Access(benchmark::State &state)
{
    SetAssocCache cache("bm.l3", 64 << 10, 16, 24);
    Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.next(1 << 18), rng.chance(0.3)));
    }
}
BENCHMARK(BM_L3Access);

void
BM_Generator(benchmark::State &state)
{
    const WorkloadProfile *wl = findWorkload("milc");
    GeneratorParams gp;
    gp.footprintBytes = 4 << 20;
    SyntheticGenerator gen(*wl, gp, 5);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_Generator);

void
BM_CameoAccess(benchmark::State &state)
{
    DramTimings st = stackedTimings();
    st.linesPerRow = LeadLayout::kLeadsPerRow;
    DramModule stacked("bm.stk", st, 8 << 20);
    DramModule offchip("bm.off", offchipTimings(), 24 << 20);
    CameoController ctrl(
        CameoParams{LltKind::CoLocated, PredictorKind::Llp, 8}, stacked,
        offchip, (8 << 20) / 64, (32 << 20) / 64);
    Rng rng(6);
    Tick now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ctrl.access(now, rng.next((32ull << 20) / 64), false,
                        0x400000 + 4 * rng.next(64),
                        static_cast<std::uint32_t>(rng.next(8)),
                        Fidelity::Detailed));
        now += 25;
    }
}
BENCHMARK(BM_CameoAccess);

} // namespace

BENCHMARK_MAIN();
