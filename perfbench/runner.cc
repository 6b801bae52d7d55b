/**
 * @file
 * perfbench-runner: the in-process half of the benchmark (README.md).
 *
 * One invocation runs one workload in one mode and writes a JSON report
 * that perfbench/run.py turns into metrics:
 *
 *   --mode=setup  build every job's System once, as a fresh sweep does
 *                 (recording streams, profiling TLM-Oracle page heat),
 *                 and report the seconds that took;
 *   --mode=run    one pass over the job list on one sweep thread: build
 *                 a System, run it, record its result row and host
 *                 time, start the next job;
 *   --mode=trace  the traced run: the real run with every core's stream
 *                 wrapped, a staged replay of the same streams through
 *                 the layers System calls, and isolated replays of the
 *                 recorded miss stream. Spans go to --trace-out as
 *                 Chrome trace-event JSON.
 *
 * Spans cover batches of calls, never a single call: one clock read
 * costs about as much as an L3 access (the report carries the measured
 * cost as clock_read_ns).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exp/result_frame.hh"
#include "exp/shard_plan.hh"
#include "shard/fleet.hh"
#include "sim/event_queue.hh"
#include "sim/kernel.hh"
#include "snapshot/snapshot.hh"
#include "system/system.hh"
#include "trace/generator.hh"
#include "trace/packed_trace.hh"
#include "trace/workloads.hh"

namespace
{

using namespace cameo;
using Clock = std::chrono::steady_clock;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** One benchmark workload: a job matrix and the config it runs. */
struct WorkloadSpec
{
    std::string name;
    std::vector<std::string> streams; ///< Table II workload names.
    TimingMode timing = TimingMode::Blocking;
    std::uint64_t accessesPerCore = 0;
    std::uint64_t warmupPerCore = 0;
    WarmupPolicy warmupPolicy = WarmupPolicy::Skip;
};

const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<WorkloadSpec> specs{
        {"queued-detailed", {"mcf", "milc"}, TimingMode::Queued, 25'000, 0,
         WarmupPolicy::Skip},
        {"functional-warmup", {"mcf", "libquantum"}, TimingMode::Blocking,
         25'000, 200'000, WarmupPolicy::Functional},
        // The in-process image of the shard-fleet workload: the fleet
        // itself runs in cameo-shard processes; the traced run replays
        // its layers here.
        {"shard-fleet", {"mcf", "milc"}, TimingMode::Blocking, 25'000, 0,
         WarmupPolicy::Skip},
    };
    return specs;
}

/** Warm-start prefix of the shard-fleet command, accesses per core. */
constexpr std::uint64_t kFleetWarmPrefix = 2'500;

/**
 * Sweeps replay recorded streams from the trace-arena cache. The field
 * is set only where it exists, so the benchmark keeps building if the
 * cache is folded away.
 */
template <class Config>
void
enableTraceArena(Config &config)
{
    if constexpr (requires { config.useTraceArena = true; })
        config.useTraceArena = true;
}

SystemConfig
configFor(const WorkloadSpec &spec, std::uint64_t seed)
{
    SystemConfig config = defaultConfig();
    config.seed = seed;
    config.timingMode = spec.timing;
    config.accessesPerCore = spec.accessesPerCore;
    config.warmupAccessesPerCore = spec.warmupPerCore;
    config.warmupPolicy = spec.warmupPolicy;
    enableTraceArena(config);
    return config;
}

struct Job
{
    std::string label; ///< "<workload>/<org>", as cameo-shard names it.
    OrgKind kind;
    const WorkloadProfile *profile;
};

std::vector<Job>
jobsFor(const WorkloadSpec &spec)
{
    std::vector<Job> jobs;
    for (const std::string &name : spec.streams) {
        const WorkloadProfile *profile = findWorkload(name);
        if (profile == nullptr)
            throw std::runtime_error("unknown workload " + name);
        for (const OrgKind kind : allOrgKinds()) {
            jobs.push_back({profile->name + "/" + orgKindName(kind), kind,
                            profile});
        }
    }
    return jobs;
}

std::string
csvRow(const RunResult &r)
{
    std::ostringstream os;
    writeShardResultsCsv(os, {r});
    std::string text = os.str();
    const std::size_t header_end = text.find('\n');
    text = text.substr(header_end + 1);
    while (!text.empty() && text.back() == '\n')
        text.pop_back();
    return text;
}

std::string
csvHeader()
{
    std::ostringstream os;
    writeShardResultsCsv(os, {});
    std::string text = os.str();
    while (!text.empty() && text.back() == '\n')
        text.pop_back();
    return text;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Median cost of one steady_clock read, in ns. */
double
clockReadNs()
{
    std::vector<double> samples;
    for (int rep = 0; rep < 7; ++rep) {
        constexpr int kReads = 200'000;
        const std::int64_t t0 = nowNs();
        for (int i = 0; i < kReads; ++i)
            nowNs();
        samples.push_back(static_cast<double>(nowNs() - t0) / kReads);
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/** A job's outcome in the report. */
struct JobRecord
{
    std::string label;
    double constructSeconds = 0.0;
    double runSeconds = 0.0;
    std::uint64_t simAccesses = 0;
    std::string row;
    std::string error;
};

std::string
jobsJson(const std::vector<JobRecord> &records)
{
    std::string out = "[";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const JobRecord &r = records[i];
        out += i ? ",\n  " : "\n  ";
        out += "{\"label\": " + jsonString(r.label) +
               ", \"construct_s\": " + jsonNumber(r.constructSeconds) +
               ", \"run_s\": " + jsonNumber(r.runSeconds) +
               ", \"sim_accesses\": " + std::to_string(r.simAccesses) +
               ", \"row\": " + jsonString(r.row) +
               ", \"error\": " + jsonString(r.error) + "}";
    }
    return out + "]";
}

// --- Timed modes ----------------------------------------------------

/** Build every job's System once, as a fresh sweep process does. */
double
runSetup(const WorkloadSpec &spec, std::uint64_t seed)
{
    const SystemConfig config = configFor(spec, seed);
    const std::int64_t t0 = nowNs();
    for (const Job &job : jobsFor(spec)) {
        const System system(config, job.kind, *job.profile);
    }
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

/**
 * One pass of the closed loop: the sweep thread starts the next job
 * when the previous one finishes. Only System::run is timed.
 */
std::vector<JobRecord>
runTimed(const WorkloadSpec &spec, std::uint64_t seed)
{
    const SystemConfig config = configFor(spec, seed);
    std::vector<JobRecord> records;
    for (const Job &job : jobsFor(spec)) {
        JobRecord rec;
        rec.label = job.label;
        try {
            const std::int64_t t0 = nowNs();
            System system(config, job.kind, *job.profile);
            const std::int64_t t1 = nowNs();
            const RunResult result = system.run();
            const std::int64_t t2 = nowNs();
            rec.constructSeconds = static_cast<double>(t1 - t0) * 1e-9;
            rec.runSeconds = static_cast<double>(t2 - t1) * 1e-9;
            rec.simAccesses = result.accesses + result.warmupAccesses;
            rec.row = csvRow(result);
        } catch (const std::exception &e) {
            rec.error = e.what();
        }
        records.push_back(std::move(rec));
    }
    return records;
}

// --- Traced mode ----------------------------------------------------

/** Spans kept in memory and written as Chrome trace-event JSON. */
class SpanLog
{
  public:
    int open(const std::string &name, int parent, int job)
    {
        spans_.push_back({name, nowNs(), 0, parent, job, {}});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** A span whose interval was measured by the caller. */
    int add(const std::string &name, std::int64_t start, std::int64_t end,
            int parent, int job)
    {
        spans_.push_back({name, start, end, parent, job, {}});
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int id) { spans_[static_cast<std::size_t>(id)].end = nowNs(); }

    std::int64_t startOf(int id) const
    {
        return spans_[static_cast<std::size_t>(id)].start;
    }

    void arg(int id, const std::string &key, double value)
    {
        spans_[static_cast<std::size_t>(id)].args.emplace_back(key, value);
    }

    void write(std::ostream &os, const std::string &meta) const
    {
        const std::int64_t origin = spans_.empty() ? 0 : spans_[0].start;
        os << "{\"displayTimeUnit\": \"ns\", \"otherData\": " << meta
           << ",\n\"traceEvents\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? ",\n" : "\n") << "{\"name\": " << jsonString(s.name)
               << ", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1"
               << ", \"tid\": " << (s.job < 0 ? 0 : s.job + 1)
               << ", \"ts\": "
               << jsonNumber(static_cast<double>(s.start - origin) / 1e3)
               << ", \"dur\": "
               << jsonNumber(static_cast<double>(s.end - s.start) / 1e3)
               << ", \"args\": {\"id\": " << i << ", \"parent\": "
               << s.parent << ", \"job\": " << s.job
               << ", \"start_ns\": " << (s.start - origin)
               << ", \"end_ns\": " << (s.end - origin);
            for (const auto &[key, value] : s.args)
                os << ", " << jsonString(key) << ": " << jsonNumber(value);
            os << "}}";
        }
        os << "\n]}\n";
    }

  private:
    struct Span
    {
        std::string name;
        std::int64_t start;
        std::int64_t end;
        int parent;
        int job;
        std::vector<std::pair<std::string, double>> args;
    };
    std::vector<Span> spans_;
};

/** Streams recorded once per (workload, core seed, length). */
class StreamStore
{
  public:
    StreamStore(SpanLog &log, int parent) : log_(log), parent_(parent) {}

    /** Recording spans become children of @p parent from now on. */
    void setParent(int parent) { parent_ = parent; }

    const PackedTrace &get(const WorkloadProfile &profile,
                           const GeneratorParams &params,
                           std::uint64_t seed, std::uint64_t count)
    {
        const std::string key = profile.name + "#" + std::to_string(seed) +
                                "#" + std::to_string(count);
        auto it = traces_.find(key);
        if (it != traces_.end())
            return it->second;
        // The same recording loop the trace-arena cache runs.
        const int span = log_.open("trace.record", parent_, -1);
        SyntheticGenerator generator(profile, params, seed);
        PackedTraceEncoder encoder;
        std::vector<Access> chunk(1024);
        for (std::uint64_t left = count; left > 0;) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(left, chunk.size()));
            generator.refill(chunk.data(), n);
            encoder.append(chunk.data(), n);
            left -= n;
        }
        PackedTrace trace = encoder.take();
        log_.close(span);
        log_.arg(span, "records", static_cast<double>(count));
        return traces_.emplace(key, std::move(trace)).first->second;
    }

  private:
    SpanLog &log_;
    int parent_;
    std::map<std::string, PackedTrace> traces_;
};

/** Decode time of the real run, split at the warmup switch. */
struct DecodeAccount
{
    std::int64_t busyNs[2] = {0, 0};
    std::uint64_t calls[2] = {0, 0};
    std::uint64_t records[2] = {0, 0};
    std::int64_t switchNs = -1; ///< First refill past the warmup.
};

/**
 * A core's stream with its refill() calls timed. Each call decodes a
 * batch (64 records from CpuCore, up to 1024 in functional warmup).
 */
class TimedSource : public AccessSource
{
  public:
    TimedSource(const PackedTrace &trace, std::uint64_t warmup,
                DecodeAccount &account)
        : cursor_(trace.view()), warmup_(warmup), account_(account)
    {
    }

    void refill(Access *buf, std::size_t n) override
    {
        const std::int64_t t0 = nowNs();
        cursor_.refill(buf, n);
        const std::int64_t t1 = nowNs();
        const int phase = position_ < warmup_ ? 0 : 1;
        if (phase == 1 && warmup_ > 0 &&
            (account_.switchNs < 0 || t0 < account_.switchNs))
            account_.switchNs = t0;
        account_.busyNs[phase] += t1 - t0;
        ++account_.calls[phase];
        account_.records[phase] += n;
        position_ += n;
    }

    void skip(std::uint64_t n) override
    {
        cursor_.skip(n);
        position_ += n;
    }

  private:
    PackedTraceCursor cursor_;
    std::uint64_t warmup_;
    std::uint64_t position_ = 0;
    DecodeAccount &account_;
};

/** A core's stream replayed without timing. */
class ReplaySource : public AccessSource
{
  public:
    explicit ReplaySource(const PackedTrace &trace) : cursor_(trace.view())
    {
    }

    void refill(Access *buf, std::size_t n) override
    {
        cursor_.refill(buf, n);
    }

    void skip(std::uint64_t n) override { cursor_.skip(n); }

  private:
    PackedTraceCursor cursor_;
};

/** Completion sink for staged submits. */
class CountingClient : public MemClient
{
  public:
    void onMemComplete(const MemRequest &, Tick) override { ++completions; }
    std::uint64_t completions = 0;
};

/** One recorded request of the staged replay's miss stream. */
struct MissRecord
{
    Tick now;
    LineAddr line;
    bool isWrite;
};

/** Miss-stream records kept per job for the isolated DRAM replay. */
constexpr std::size_t kMissStreamCap = 200'000;

/**
 * Replays a recorded per-core stream as kernel steps: each step
 * advances the clock by the record's compute gap and, when @p events
 * is set, an L3 miss schedules one completion event.
 */
class ReplayAgent : public Agent
{
  public:
    ReplayAgent(const std::vector<std::uint32_t> &gaps,
                const std::vector<std::uint8_t> &misses, EventQueue *events,
                std::uint64_t &fired)
        : gaps_(gaps), misses_(misses), events_(events), fired_(fired)
    {
    }

    Tick nextReadyTick() const override { return clock_; }
    bool done() const override { return next_ >= gaps_.size(); }
    void step() override
    {
        clock_ += gaps_[next_];
        if (events_ != nullptr && misses_[next_] != 0) {
            std::uint64_t *fired = &fired_;
            events_->schedule(clock_ + 150,
                              [fired](Tick) { ++*fired; });
        }
        ++next_;
    }

  private:
    const std::vector<std::uint32_t> &gaps_;
    const std::vector<std::uint8_t> &misses_;
    EventQueue *events_;
    std::uint64_t &fired_;
    Tick clock_ = 0;
    std::size_t next_ = 0;
};

struct TraceOutput
{
    std::vector<JobRecord> jobs;
    std::map<std::string, unsigned> shardOf;
};

/** The traced run (README.md, "Traced run"). */
TraceOutput
runTraced(const WorkloadSpec &spec, std::uint64_t seed, SpanLog &log)
{
    TraceOutput out;
    const SystemConfig base = configFor(spec, seed);
    const std::vector<Job> jobs = jobsFor(spec);
    const std::uint64_t per_core =
        base.warmupAccessesPerCore + base.accessesPerCore;
    const bool queued = spec.timing == TimingMode::Queued;

    const int top = log.open("traced", -1, -1);
    StreamStore store(log, top);

    // Part 1: the real run, streams wrapped through sourceFactory.
    std::vector<Tick> exec_time(jobs.size(), 0);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const Job &job = jobs[j];
        const int jid = static_cast<int>(j);
        JobRecord rec;
        rec.label = job.label;
        DecodeAccount account;
        SystemConfig config = base;
        config.sourceFactory = [&store, &account, per_core,
                                warmup = base.warmupAccessesPerCore](
                                   std::uint32_t, const WorkloadProfile &p,
                                   const GeneratorParams &gp,
                                   std::uint64_t core_seed)
            -> std::unique_ptr<AccessSource> {
            return std::make_unique<TimedSource>(
                store.get(p, gp, core_seed, per_core), warmup, account);
        };
        const int job_span = log.open("job", top, jid);
        try {
            const int construct = log.open("system.construct", job_span, jid);
            store.setParent(construct);
            System system(config, job.kind, *job.profile);
            log.close(construct);
            store.setParent(top);
            // TLM-Oracle's profiling pass reads the streams while the
            // System is built; that is set-up, not decode work.
            account = DecodeAccount{};
            const int run = log.open("system.run", job_span, jid);
            const RunResult result = system.run();
            log.close(run);
            rec.simAccesses = result.accesses + result.warmupAccesses;
            rec.row = csvRow(result);
            exec_time[j] = result.execTime;
            std::uint64_t dram_cmds =
                system.org().offchipModule().reads().value() +
                system.org().offchipModule().writes().value();
            if (const DramModule *stacked = system.org().stackedModule())
                dram_cmds +=
                    stacked->reads().value() + stacked->writes().value();
            log.arg(run, "accesses", static_cast<double>(result.accesses));
            log.arg(run, "warmup_accesses",
                    static_cast<double>(result.warmupAccesses));
            log.arg(run, "kernel_steps",
                    static_cast<double>(result.kernelSteps));
            log.arg(run, "l3_misses", static_cast<double>(result.l3Misses));
            log.arg(run, "dram_cmds", static_cast<double>(dram_cmds));
            for (int phase = 0; phase < 2; ++phase) {
                const std::string suffix =
                    phase == 0 ? ".warmup" : ".measured";
                log.arg(run, "decode_busy_ns" + suffix,
                        static_cast<double>(account.busyNs[phase]));
                log.arg(run, "decode_calls" + suffix,
                        static_cast<double>(account.calls[phase]));
                log.arg(run, "decode_records" + suffix,
                        static_cast<double>(account.records[phase]));
            }
            if (account.switchNs >= 0) {
                // The functional phase: from run() until the first
                // refill of the measured region.
                log.add("run.warmup", log.startOf(run), account.switchNs,
                        run, jid);
            }
        } catch (const std::exception &e) {
            store.setParent(top);
            rec.error = e.what();
        }
        log.close(job_span);
        out.jobs.push_back(std::move(rec));
    }

    // Part 2: staged replay. The same streams go through a fresh
    // System's translate, L3 and submit in the order System calls
    // them, one layer at a time over a batch of records. Records are
    // interleaved record-major across cores, as the functional warmup
    // interleaves them; measured-region submits are spread evenly over
    // the real run's simulated time, so the memory pipeline sees the
    // real run's average load.
    std::vector<const PackedTrace *> core_trace(base.numCores, nullptr);
    SystemConfig plain = base;
    plain.sourceFactory = [&store, &core_trace, per_core](
                              std::uint32_t core, const WorkloadProfile &p,
                              const GeneratorParams &gp,
                              std::uint64_t core_seed)
        -> std::unique_ptr<AccessSource> {
        const PackedTrace &trace = store.get(p, gp, core_seed, per_core);
        core_trace[core] = &trace;
        return std::make_unique<ReplaySource>(trace);
    };

    const std::uint32_t cores = base.numCores;
    const std::uint64_t warm = base.warmupAccessesPerCore;
    const std::uint64_t measured_total = base.accessesPerCore * cores;
    std::vector<std::vector<MissRecord>> miss_streams(jobs.size());
    // Per-stream kernel replay inputs, from the first job of each
    // stream: compute gap ticks and L3-miss flags of the measured
    // region, per core.
    std::map<std::string, std::vector<std::vector<std::uint32_t>>> gaps;
    std::map<std::string, std::vector<std::vector<std::uint8_t>>> misses;

    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const Job &job = jobs[j];
        const int jid = static_cast<int>(j);
        const int job_span = log.open("staged", top, jid);
        try {
            const int construct = log.open("staged.construct", job_span, jid);
            System system(plain, job.kind, *job.profile);
            log.close(construct);
            EventQueue events;
            CountingClient sink;
            if (queued)
                system.org().bindEventQueue(&events);

            const bool want_kernel = !gaps.count(job.profile->name);
            auto &job_gaps = gaps[job.profile->name];
            auto &job_misses = misses[job.profile->name];
            if (want_kernel) {
                job_gaps.assign(cores, {});
                job_misses.assign(cores, {});
            }

            std::vector<PackedTraceCursor> cursors;
            for (std::uint32_t c = 0; c < cores; ++c)
                cursors.emplace_back(core_trace[c]->view());
            constexpr std::uint64_t kBatch = 2048;
            std::vector<Access> acc(cores * kBatch);
            std::vector<std::uint32_t> frame(cores * kBatch);
            std::vector<LineAddr> phys(cores * kBatch);
            std::vector<CacheAccessResult> res(cores * kBatch);
            std::vector<Tick> when(cores * kBatch, 0);
            std::uint64_t measured_seen = 0;
            // Tags count submitted demand fills (from 1, as CpuCore's do).
            std::uint64_t tag = 1;
            const std::uint64_t window =
                std::uint64_t{cores} *
                std::min(base.maxMlp, job.profile->mlp);

            for (std::uint64_t pos = 0; pos < per_core;) {
                const bool warmup_phase = pos < warm;
                const std::uint64_t len = std::min<std::uint64_t>(
                    kBatch, (warmup_phase ? warm : per_core) - pos);
                const std::size_t n = static_cast<std::size_t>(len) * cores;
                const double phase = warmup_phase ? 0.0 : 1.0;

                const int decode = log.open("staged.decode", job_span, jid);
                for (std::uint32_t c = 0; c < cores; ++c)
                    cursors[c].refill(&acc[c * len], len);
                log.close(decode);
                log.arg(decode, "records", static_cast<double>(n));
                log.arg(decode, "phase", phase);

                // Record-major order: k = r * cores + c.
                const auto at = [&](std::size_t k) -> const Access & {
                    return acc[(k % cores) * len + k / cores];
                };
                if (!warmup_phase) {
                    for (std::size_t k = 0; k < n; ++k) {
                        when[k] = static_cast<Tick>(
                            static_cast<double>(exec_time[j]) *
                            static_cast<double>(measured_seen + k) /
                            static_cast<double>(measured_total));
                    }
                }

                const int translate = log.open("vm.translate", job_span, jid);
                for (std::size_t k = 0; k < n; ++k) {
                    const Access &a = at(k);
                    frame[k] = system.vm()
                                   .translate(when[k],
                                              static_cast<std::uint32_t>(
                                                  k % cores),
                                              pageOf(a.vaddr), a.isWrite)
                                   .frame;
                }
                log.close(translate);
                log.arg(translate, "calls", static_cast<double>(n));
                log.arg(translate, "phase", phase);

                for (std::size_t k = 0; k < n; ++k) {
                    phys[k] = std::uint64_t{frame[k]} * kLinesPerPage +
                              (lineOf(at(k).vaddr) & (kLinesPerPage - 1));
                }
                const int llc = log.open("cache.access", job_span, jid);
                for (std::size_t k = 0; k < n; ++k)
                    res[k] = system.llc().access(phys[k], at(k).isWrite);
                log.close(llc);
                std::uint64_t n_miss = 0;
                std::uint64_t n_wb = 0;
                for (std::size_t k = 0; k < n; ++k) {
                    n_miss += res[k].hit ? 0 : 1;
                    n_wb += (!res[k].hit && res[k].hasWriteback) ? 1 : 0;
                }
                log.arg(llc, "calls", static_cast<double>(n));
                log.arg(llc, "misses", static_cast<double>(n_miss));
                log.arg(llc, "writebacks", static_cast<double>(n_wb));
                log.arg(llc, "phase", phase);

                if (!warmup_phase) {
                    if (want_kernel) {
                        for (std::size_t k = 0; k < n; ++k) {
                            const std::size_t c = k % cores;
                            job_gaps[c].push_back(static_cast<std::uint32_t>(
                                static_cast<double>(at(k).gapInstructions) *
                                base.cyclesPerInstruction));
                            job_misses[c].push_back(res[k].hit ? 0 : 1);
                        }
                    }
                    auto &stream = miss_streams[j];
                    const int submit = log.open("orgs.submit", job_span, jid);
                    for (std::size_t k = 0; k < n; ++k) {
                        if (res[k].hit)
                            continue;
                        const Access &a = at(k);
                        const auto core = static_cast<std::uint32_t>(k % cores);
                        if (queued) {
                            // Deliver what is due; with every miss window
                            // full, wait for the next completion, as parked
                            // cores do.
                            events.runUntil(when[k]);
                            while (tag - sink.completions > window &&
                                   !events.empty())
                                events.runOne();
                            when[k] = std::max(when[k], events.curTick());
                        }
                        if (res[k].hasWriteback) {
                            system.org().submit(when[k], res[k].writebackLine,
                                                true, a.pc, core);
                        }
                        system.org().submit(when[k], phys[k], false, a.pc,
                                            core, tag++, &sink);
                    }
                    log.close(submit);
                    log.arg(submit, "calls",
                            static_cast<double>(n_miss + n_wb));
                    for (std::size_t k = 0;
                         k < n && stream.size() < kMissStreamCap; ++k) {
                        if (res[k].hit)
                            continue;
                        if (res[k].hasWriteback) {
                            stream.push_back(
                                {when[k], res[k].writebackLine, true});
                        }
                        stream.push_back({when[k], phys[k], false});
                    }
                    measured_seen += n;
                }
                pos += len;
            }
            if (queued) {
                const int drain = log.open("staged.drain", job_span, jid);
                events.runAll();
                system.org().bindEventQueue(nullptr);
                log.close(drain);
            }
            log.arg(job_span, "translations",
                    static_cast<double>(per_core * cores));
            log.arg(job_span, "faults",
                    static_cast<double>(system.vm().majorFaults().value() +
                                        system.vm().minorFaults().value()));
            log.arg(job_span, "completions",
                    static_cast<double>(sink.completions));
        } catch (const std::exception &e) {
            if (out.jobs[j].error.empty())
                out.jobs[j].error = std::string("staged replay: ") + e.what();
        }
        log.close(job_span);
    }

    // Part 3a: DRAM request replay of each job's recorded miss stream
    // on a module the benchmark owns, in the workload's timing mode.
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const int jid = static_cast<int>(j);
        DramModule dram("perfbench.dram", base.offchip, base.offchipBytes);
        dram.setTimingMode(spec.timing, base.dramQueues);
        const std::uint64_t lines = dram.capacityLines();
        const auto &stream = miss_streams[j];
        constexpr std::size_t kChunk = 4096;
        for (std::size_t i = 0; i < stream.size(); i += kChunk) {
            const std::size_t end = std::min(stream.size(), i + kChunk);
            const int span = log.open("dram.request", top, jid);
            for (std::size_t k = i; k < end; ++k) {
                dram.request(stream[k].now, stream[k].line % lines,
                             stream[k].isWrite);
            }
            log.close(span);
            log.arg(span, "calls", static_cast<double>(end - i));
            log.arg(span, "queued", queued ? 1.0 : 0.0);
        }
    }

    // Part 3b: SimKernel driving agents the benchmark owns, replaying
    // each stream's compute gaps; under Queued timing a second run
    // also schedules one completion event per L3 miss.
    for (int rep = 0; rep < 3; ++rep) {
        for (const auto &[name, stream_gaps] : gaps) {
            for (int with_events = 0; with_events < (queued ? 2 : 1);
                 ++with_events) {
                SimKernel kernel;
                std::uint64_t fired = 0;
                std::vector<std::unique_ptr<ReplayAgent>> agents;
                std::uint64_t steps = 0;
                std::uint64_t scheduled = 0;
                for (std::uint32_t c = 0; c < cores; ++c) {
                    agents.push_back(std::make_unique<ReplayAgent>(
                        stream_gaps[c], misses[name][c],
                        with_events ? &kernel.events() : nullptr, fired));
                    kernel.addAgent(agents.back().get());
                    steps += stream_gaps[c].size();
                    for (const std::uint8_t m : misses[name][c])
                        scheduled += m;
                }
                const int span = log.open(
                    with_events ? "sim.kernel_events" : "sim.kernel", top, -1);
                kernel.run();
                log.close(span);
                log.arg(span, "steps", static_cast<double>(steps));
                log.arg(span, "events",
                        with_events ? static_cast<double>(fired) : 0.0);
                log.arg(span, "rep", rep);
                if (with_events && fired != scheduled)
                    throw std::runtime_error("kernel replay lost events");
            }
        }
    }

    // Part 3c (shard-fleet): warm-start's snapshot round trip and the
    // result-frame codec, on every job. The restored System runs to
    // completion, so its row is checked like any other.
    if (spec.name == "shard-fleet") {
        std::vector<std::string> labels;
        for (const Job &job : jobs)
            labels.push_back(job.label);
        const ShardPlan plan = planShards(labels, 2);
        for (std::size_t j = 0; j < jobs.size(); ++j)
            out.shardOf[jobs[j].label] = plan.shardOf[j];

        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const Job &job = jobs[j];
            const int jid = static_cast<int>(j);
            JobRecord rec;
            rec.label = job.label;
            try {
                System prefix(plain, job.kind, *job.profile);
                if (!prefix.runUntil(kFleetWarmPrefix * cores))
                    throw std::runtime_error("prefix run finished early");
                const int save = log.open("snapshot.save", top, jid);
                SnapshotWriter writer;
                prefix.save(writer);
                std::vector<std::uint8_t> bytes = writer.finish();
                log.close(save);
                log.arg(save, "bytes", static_cast<double>(bytes.size()));

                System resumed(plain, job.kind, *job.profile);
                const double size = static_cast<double>(bytes.size());
                const int restore = log.open("snapshot.restore", top, jid);
                SnapshotReader reader;
                if (reader.open(std::move(bytes)))
                    resumed.restore(reader);
                log.close(restore);
                log.arg(restore, "bytes", size);
                if (!reader.ok())
                    throw std::runtime_error("restore: " + reader.error());
                const RunResult result = resumed.run();
                rec.simAccesses = result.accesses + result.warmupAccesses;
                rec.row = csvRow(result);

                ShardResultFrame frame;
                frame.jobIndex = j;
                frame.label = job.label;
                frame.result = result;
                constexpr int kCodecReps = 500;
                std::uint64_t decoded = 0;
                const int codec = log.open("shard.frame_codec", top, jid);
                for (int i = 0; i < kCodecReps; ++i) {
                    ShardFrameKind kind{};
                    ShardResultFrame back;
                    ShardDoneFrame done;
                    std::string error;
                    if (decodeShardFrame(encodeShardResult(frame), &kind,
                                         &back, &done, &error))
                        decoded += back.result.accesses == result.accesses;
                }
                log.close(codec);
                log.arg(codec, "calls", kCodecReps);
                if (decoded != kCodecReps)
                    throw std::runtime_error("frame codec round trip failed");
            } catch (const std::exception &e) {
                rec.error = e.what();
            }
            out.jobs.push_back(std::move(rec));
        }
    }
    log.close(top);
    return out;
}

int
usage()
{
    std::cerr << "usage: perfbench-runner --workload=<name> --seed=<n> "
                 "--mode=<list|setup|run|trace> --out=<json> "
                 "[--trace-out=<json>]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const std::size_t eq = a.find('=');
        if (a.rfind("--", 0) != 0 || eq == std::string::npos)
            return usage();
        args[a.substr(2, eq - 2)] = a.substr(eq + 1);
    }
    const WorkloadSpec *spec = nullptr;
    for (const WorkloadSpec &s : workloadSpecs()) {
        if (s.name == args["workload"])
            spec = &s;
    }
    if (spec == nullptr || args["out"].empty() || args["seed"].empty())
        return usage();
    std::uint64_t seed = 0;
    try {
        seed = std::stoull(args["seed"]);
    } catch (const std::exception &) {
        return usage();
    }
    const std::string mode = args["mode"];

    std::string body;
    try {
        if (mode == "list") {
            std::string orgs;
            for (const OrgKind kind : allOrgKinds()) {
                orgs += (orgs.empty() ? "" : ", ") +
                        jsonString(orgKindName(kind));
            }
            std::string labels;
            for (const Job &job : jobsFor(*spec)) {
                labels += (labels.empty() ? "" : ", ") +
                          jsonString(job.label);
            }
            body = "\"orgs\": [" + orgs + "], \"labels\": [" + labels + "]";
        } else if (mode == "setup") {
            body = "\"setup_s\": " + jsonNumber(runSetup(*spec, seed));
        } else if (mode == "run") {
            body = "\"jobs\": " + jobsJson(runTimed(*spec, seed));
        } else if (mode == "trace") {
            if (args["trace-out"].empty())
                return usage();
            SpanLog log;
            const TraceOutput traced = runTraced(*spec, seed, log);
            std::string shard_of;
            for (const auto &[label, shard] : traced.shardOf) {
                shard_of += (shard_of.empty() ? "" : ", ") +
                            jsonString(label) + ": " +
                            std::to_string(shard);
            }
            body = "\"jobs\": " + jobsJson(traced.jobs) +
                   ",\n\"shard_of\": {" + shard_of + "}";
            std::ofstream trace(args["trace-out"], std::ios::binary);
            log.write(trace, "{\"workload\": " + jsonString(spec->name) +
                                 ", \"seed\": " + std::to_string(seed) + "}");
            if (!trace) {
                std::cerr << "error: cannot write " << args["trace-out"]
                          << "\n";
                return 1;
            }
        } else {
            return usage();
        }
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }

    std::ofstream out(args["out"], std::ios::binary);
    out << "{\"workload\": " << jsonString(spec->name)
        << ", \"seed\": " << seed << ", \"mode\": " << jsonString(mode)
        << ", \"clock_read_ns\": " << jsonNumber(clockReadNs())
        << ", \"csv_header\": " << jsonString(csvHeader()) << ",\n"
        << body << "}\n";
    if (!out) {
        std::cerr << "error: cannot write " << args["out"] << "\n";
        return 1;
    }
    return 0;
}
