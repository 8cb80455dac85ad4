/**
 * @file
 * The three campaign workloads: mc_fig07, mc_stress (reliability) and
 * detect_table2 (detection). The untraced run is runCampaign() with
 * the forensics sidecar on, as `xed_campaign run <spec> --out <store>
 * --quiet` does (mc_fig07 adds --no-fsync, see durableStore below). The traced run replays the same
 * shard plan through the public calls runCampaign() is made of, with a
 * span around each, and must write the same store and sidecar bytes.
 */

#include <array>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "campaign/forensics.hh"
#include "campaign/runner.hh"
#include "campaign/telemetry.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "ecc/crc8atm.hh"
#include "ecc/error_patterns.hh"
#include "ecc/hamming7264.hh"
#include "faultsim/fault_model.hh"
#include "faultsim/zero_filter.hh"
#include "workloads.hh"

namespace xedbench
{

using namespace xed;
using namespace xed::campaign;

namespace
{

/**
 * Workload sizes. mc_fig07 and detect_table2 scale the paper specs up
 * (specs/fig07.json: 1M systems, specs/table2.json: 200k trials) so one
 * campaign takes a few tenths of a second here and a run repeats it
 * dozens of times; mc_stress has ten times the fault rate, so fewer
 * systems give a similar time.
 */
struct Size
{
    std::uint64_t units;
    std::uint64_t shard;
};

Size
sizeOf(const std::string &workload)
{
    if (workload == "mc_fig07")
        return {2000000, 10000};
    if (workload == "mc_stress")
        return {400000, 10000};
    return {2000000, 50000};
}

/** Digests of the simulated outputs at defaultSeed. */
const std::map<std::string, std::string> &
recordedDigests()
{
    static const std::map<std::string, std::string> digests{
        {"mc_fig07", "5f92462e2745f6cb"},
        {"mc_stress", "289f03cb0b63bdc6"},
        {"detect_table2", "800dfbe81e27cbe5"},
    };
    return digests;
}

const char *schemeLabels[] = {"secded", "xed", "chipkill"};

struct ReplayOutput
{
    bool ok = false;
    std::string error;
    double wall = 0;
    std::string store;
    std::string forensics;
    LayerSample layers;
    std::unique_ptr<Recorder> recorder;
};

/** Detection shard, as runDetectionShard computes it, with spans. */
ShardResult
replayDetectionShard(const CampaignSpec &spec, const ShardTask &task,
                     faultsim::McProgress &progress, ThreadLog &log)
{
    const DetectionCell cell = detectionCell(spec, task.cell);
    std::unique_ptr<ecc::Secded7264> code;
    {
        Scope span(log, "ecc.make_code", task.index);
        if (cell.code == "crc8atm")
            code = std::make_unique<ecc::Crc8Atm>();
        else
            code = std::make_unique<ecc::Hamming7264>();
    }
    const ecc::Word72 clean = code->encode(0x0123456789ABCDEFull);
    Rng rng = Rng::stream(spec.seed,
                          (static_cast<std::uint64_t>(task.cell) << 40) +
                              task.begin / spec.shardTrials);
    ShardResult out;
    out.trials = task.end - task.begin;
    constexpr std::size_t batchSize = 512;
    std::array<ecc::Word72, batchSize> batch;
    std::uint64_t remaining = out.trials;
    while (remaining > 0) {
        const std::size_t count = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining, batchSize));
        const std::span<ecc::Word72> span(batch.data(), count);
        {
            Scope fill(log, "ecc.pattern_fill", task.index);
            if (cell.burst)
                ecc::solidBurstPatternsInto(rng, cell.weight, span);
            else
                ecc::randomPatternsInto(rng, cell.weight, span);
        }
        for (ecc::Word72 &word : span)
            word = clean ^ word;
        {
            Scope detect(log, "ecc.detect", task.index);
            out.detected += code->detectMany(span);
        }
        remaining -= count;
    }
    progress.systemsDone.fetch_add(out.trials, std::memory_order_relaxed);
    progress.failedSystems.fetch_add(out.trials - out.detected,
                                     std::memory_order_relaxed);
    return out;
}

ShardResult
replayReliabilityShard(const CampaignSpec &spec, const ShardTask &task,
                       faultsim::McProgress &progress, ThreadLog &log)
{
    faultsim::McConfig cfg;
    std::unique_ptr<faultsim::Scheme> scheme;
    {
        Scope span(log, "faultsim.make_scheme", task.index);
        cfg = mcConfigFor(spec, task.point);
        cfg.progress = &progress;
        scheme = makeScheme(spec.schemes[task.cell],
                            onDieFor(spec, task.point));
    }
    ShardResult out;
    Scope span(log, "faultsim.shard", task.index);
    out.mc = runMonteCarloShard(*scheme, cfg, task.begin, task.end);
    return out;
}

/** A descriptor kept open for fsync, as StoreWriter keeps one. */
struct FsyncDescriptor
{
    int fd = -1;
    ~FsyncDescriptor()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

/**
 * The traced replay of runCampaign(): same records, same order, same
 * files, with durability (when @p durableStore) done as an explicit
 * fsync per record on a descriptor opened once per file, as
 * StoreWriter does, so the write and the fsync are timed apart.
 */
ReplayOutput
replayCampaign(const CampaignSpec &spec, const std::string &storePath,
               unsigned threads, bool durableStore)
{
    ReplayOutput out;
    out.recorder = std::make_unique<Recorder>();
    Recorder &rec = *out.recorder;
    ThreadLog main(rec, 0);
    const bool reliability = spec.kind == CampaignKind::Reliability;
    const bool durable = durableStore && durableWritesEnabled();
    const std::string sidecarPath = forensicsPath(storePath);

    const auto t0 = Clock::now();
    const std::size_t root = main.open("bench.replay");
    Plan plan;
    std::string hash;
    {
        Scope span(main, "campaign.plan");
        plan = buildPlan(spec);
        hash = specHash(spec);
    }
    std::vector<CellSummary> cells(
        static_cast<std::size_t>(plan.points) * plan.cells);
    for (unsigned point = 0; point < plan.points; ++point) {
        for (unsigned cell = 0; cell < plan.cells; ++cell) {
            auto &summary = cells[point * plan.cells + cell];
            summary.point = point;
            summary.cell = cell;
            summary.label = cellLabel(spec, cell);
        }
    }

    bool ok = true;
    std::string error;
    std::uint64_t bytes = 0, fsyncs = 0;
    StoreWriter store, sidecar;
    FsyncDescriptor storeFd, sidecarFd;
    {
        Scope span(main, "campaign.open");
        ok = store.open(storePath, -1, &error, false) &&
             (!reliability || sidecar.open(sidecarPath, -1, &error, false));
        if (ok && durable) {
            storeFd.fd = ::open(storePath.c_str(), O_WRONLY | O_CLOEXEC);
            if (reliability)
                sidecarFd.fd =
                    ::open(sidecarPath.c_str(), O_WRONLY | O_CLOEXEC);
            ok = storeFd.fd >= 0 && (!reliability || sidecarFd.fd >= 0);
            if (!ok)
                error = "cannot open fsync descriptor";
        }
    }
    const auto append = [&](StoreWriter &writer, const FsyncDescriptor &fd,
                            const std::string &line) {
        {
            Scope span(main, "campaign.write");
            ok = ok && writer.writeLine(line, &error);
        }
        bytes += line.size() + 1;
        if (durable && ok) {
            Scope span(main, "campaign.fsync");
            ok = ::fsync(fd.fd) == 0;
            if (!ok)
                error = "fsync failed";
            ++fsyncs;
        }
    };
    const auto serialize = [&](const char *name, const auto &makeRecord) {
        Scope span(main, name);
        json::Value record;
        {
            Scope build(main, "campaign.record");
            record = makeRecord();
        }
        Scope dump(main, "json.dump");
        return json::dump(record);
    };
    append(store, storeFd, serialize("campaign.serialize", [&] {
               return manifestRecord(spec, plan, hash);
           }));

    MetricsRegistry registry;
    faultsim::McProgress progress;
    registry.counter("shards.total").add(plan.tasks.size());
    registry.counter("shards.done").add(0);
    registry.counter("units.total")
        .add(static_cast<std::uint64_t>(plan.points) * plan.cells *
             spec.unitsPerCell());
    registry.counter("units.replayed").add(0);
    for (unsigned cell = 0; cell < plan.cells; ++cell)
        registry.counter("failed." + cellLabel(spec, cell)).add(0);
    ProgressReporter::Setup telemetry;
    telemetry.intervalSeconds = 1.0;
    telemetry.sidecarPath = storePath + ".telemetry.jsonl";
    std::optional<ProgressReporter> reporter;
    {
        Scope span(main, "campaign.telemetry");
        reporter.emplace(telemetry, registry, progress);
        reporter->start(runMetadata(spec.name, hash, threads, 0));
    }

    const std::uint64_t shards = plan.tasks.size();
    std::atomic<std::uint64_t> next{0};
    std::atomic<bool> abort{false};
    std::mutex mutex;
    std::condition_variable readyCv;
    std::map<std::uint64_t, ShardResult> ready; // guarded by mutex
    std::string workerError;                    // guarded by mutex
    std::vector<std::thread> workers;
    std::optional<Scope> spawn(std::in_place, main, "campaign.workers");
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            ThreadLog log(rec, t + 1);
            log.setCause(0, static_cast<std::int64_t>(root));
            try {
                while (!abort.load(std::memory_order_relaxed)) {
                    const std::uint64_t i = next.fetch_add(1);
                    if (i >= shards)
                        break;
                    const ShardTask &task = plan.tasks[i];
                    ShardResult result;
                    {
                        Scope span(log, "campaign.shard", i);
                        result = reliability
                                     ? replayReliabilityShard(
                                           spec, task, progress, log)
                                     : replayDetectionShard(
                                           spec, task, progress, log);
                    }
                    {
                        std::lock_guard<std::mutex> lock(mutex);
                        ready.emplace(i, std::move(result));
                    }
                    readyCv.notify_one();
                }
            } catch (const std::exception &e) {
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    if (workerError.empty())
                        workerError = e.what();
                }
                abort.store(true);
                readyCv.notify_all();
            }
            rec.adopt(std::move(log));
        });
    }
    spawn.reset();

    for (std::uint64_t i = 0; i < shards && ok; ++i) {
        ShardResult result;
        {
            Scope span(main, reliability ? "faultsim.wait" : "ecc.wait", i);
            std::unique_lock<std::mutex> lock(mutex);
            readyCv.wait(lock, [&] {
                return ready.count(i) != 0 || abort.load();
            });
            if (ready.count(i) == 0)
                break;
            result = std::move(ready.at(i));
            ready.erase(i);
        }
        const ShardTask &task = plan.tasks[i];
        if (reliability)
            append(sidecar, sidecarFd,
                   serialize("campaign.forensics_serialize", [&] {
                       return forensicsShardRecord(task, result.mc);
                   }));
        append(store, storeFd, serialize("campaign.serialize", [&] {
                   return shardRecord(spec, task, result);
               }));
        Scope span(main, "campaign.merge");
        cells[task.point * plan.cells + task.cell].result.merge(result);
        registry.counter("shards.done").add(1);
        registry.counter("failed." + cellLabel(spec, task.cell))
            .add(failedSystemsOf(spec, result));
    }
    if (!ok)
        abort.store(true);
    spawn.emplace(main, "campaign.workers");
    for (auto &worker : workers)
        worker.join();
    spawn.reset();
    if (!workerError.empty()) {
        ok = false;
        error = workerError;
    }
    if (ok && reliability) {
        for (const auto &cell : cells)
            append(sidecar, sidecarFd,
                   serialize("campaign.forensics_serialize", [&] {
                       return forensicsSummaryRecord(cell.point, cell.cell,
                                                     cell.label,
                                                     cell.result.mc);
                   }));
    }
    if (ok)
        append(store, storeFd, serialize("campaign.serialize", [&] {
                   return summaryRecord(spec, cells);
               }));
    {
        Scope span(main, "campaign.telemetry");
        reporter->finish(ok);
    }
    main.close(root);
    out.wall = secondsSince(t0);
    rec.adopt(std::move(main));

    out.ok = ok;
    out.error = error;
    out.store = readFile(storePath);
    if (reliability)
        out.forensics = readFile(sidecarPath);

    // Per-layer values of this replay.
    LayerSample &l = out.layers;
    const std::vector<double> shardSeconds = rec.durations("campaign.shard");
    double computeSeconds = 0;
    for (const double s : shardSeconds)
        computeSeconds += s;
    l["campaign.shard_compute_s"] = computeSeconds;
    l["campaign.shard_ms_p50"] = quantile(shardSeconds, 0.5) * 1e3;
    l["campaign.shard_ms_p90"] = quantile(shardSeconds, 0.9) * 1e3;
    l["campaign.serialize_s"] = rec.totalSeconds("campaign.serialize");
    l["campaign.forensics_serialize_s"] =
        rec.totalSeconds("campaign.forensics_serialize");
    l["campaign.write_s"] = rec.totalSeconds("campaign.write");
    l["campaign.fsync_s"] = rec.totalSeconds("campaign.fsync");
    l["campaign.fsyncs"] = static_cast<double>(fsyncs);
    l["campaign.bytes_written"] = static_cast<double>(bytes);
    l["campaign.thread_util"] = computeSeconds / (out.wall * threads);
    const auto self = rec.layerSelfSeconds(0);
    l["bench.unattributed_frac"] =
        (self.count("bench") ? self.at("bench") : 0.0) / out.wall;

    // Layer work split by cell: span ids are shard indices.
    std::map<std::string, double> shardNs, detectNs, fillNs;
    for (const auto &log : rec.logs()) {
        for (const auto &span : log.spans()) {
            const std::string_view name = span.name;
            const unsigned cell = plan.tasks[span.id].cell;
            const double ns = static_cast<double>(span.durNs());
            if (name == "faultsim.shard")
                shardNs[cellLabel(spec, cell)] += ns;
            else if (name == "ecc.detect")
                detectNs[detectionCell(spec, cell).code] += ns;
            else if (name == "ecc.pattern_fill")
                fillNs[detectionCell(spec, cell).burst ? "burst" : "random"] +=
                    ns;
        }
    }
    const double cellUnits =
        static_cast<double>(spec.unitsPerCell()) * plan.points;
    for (const auto &[label, ns] : shardNs)
        l["faultsim.shard_ns_per_system." + label] = ns / cellUnits;
    // Detection cells split evenly over codes and over patterns.
    for (const auto &[code, ns] : detectNs)
        l["ecc.detect_ns_per_word." + code] =
            ns / (cellUnits * plan.cells / spec.codes.size());
    for (const auto &[pattern, ns] : fillNs)
        l["ecc.pattern_fill_ns_per_word." + pattern] =
            ns / (cellUnits * plan.cells / spec.patterns.size());
    return out;
}

/** Survivors and time of the zero-fault filter, per scheme cell. */
struct FilterProbe
{
    std::vector<std::uint64_t> survivors;
    std::vector<double> seconds;
};

/**
 * Drive faultsim::zeroFaultMask over every system of the plan exactly
 * as the engine's shard loop does (same batches, same tail), counting
 * the systems it cannot prove fault-free.
 */
FilterProbe
probeZeroFilter(const CampaignSpec &spec, const Plan &plan)
{
    FilterProbe probe;
    probe.survivors.assign(plan.cells, 0);
    probe.seconds.assign(plan.cells, 0.0);
    const SimdLevel level = simdLevel();
    const unsigned width = spec.sampler == faultsim::PoissonSampler::Knuth
                               ? faultsim::zeroFilterWidth(level)
                               : 0;
    for (unsigned cell = 0; cell < plan.cells; ++cell) {
        const faultsim::McConfig cfg = mcConfigFor(spec, 0);
        const auto scheme = makeScheme(spec.schemes[cell], onDieFor(spec, 0));
        const faultsim::AddressLayout layout(cfg.geometry);
        const faultsim::SampleContext ctx(
            cfg.fit, layout, scheme->dimmShape(), cfg.years * hoursPerYear,
            cfg.scrubIntervalHours, cfg.sampler);
        const std::uint64_t mixed = Rng::mixSeed(cfg.seed);
        std::uint64_t survivors = 0;
        const auto t0 = Clock::now();
        for (const ShardTask &task : plan.tasks) {
            if (task.cell != cell)
                continue;
            std::uint64_t s = task.begin;
            if (width != 0) {
                for (; s + width <= task.end; s += width) {
                    const std::uint32_t mask = faultsim::zeroFaultMask(
                        level, mixed, s, width, cfg.channels,
                        ctx.knuthZeroMax());
                    survivors += width - __builtin_popcount(mask);
                }
            }
            survivors += task.end - s;
        }
        probe.seconds[cell] = secondsSince(t0);
        probe.survivors[cell] = survivors;
    }
    return probe;
}

/**
 * Delete the previous run's store and sidecars, then commit the
 * filesystem journal, so block frees (and discards) of the old files
 * are not paid inside the next timed run.
 */
void
removeStoreFiles(const std::string &store)
{
    std::error_code ec;
    for (const std::string &path :
         {store, forensicsPath(store), store + ".telemetry.jsonl"})
        std::filesystem::remove(path, ec);
    syncFilesystem(std::filesystem::path(store).parent_path().string());
}

/** True when the store holds the manifest, @p shards shard records
 *  and, last, the summary record. */
bool
storeHasSummary(const std::string &bytes, std::uint64_t shards)
{
    std::uint64_t lines = 0;
    std::size_t lastStart = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        if (bytes[i] == '\n') {
            ++lines;
            if (i + 1 < bytes.size())
                lastStart = i + 1;
        }
    }
    if (lines != shards + 2 || bytes.empty() || bytes.back() != '\n')
        return false;
    std::string error;
    const auto last = json::parse(
        std::string_view(bytes).substr(lastStart,
                                       bytes.size() - 1 - lastStart),
        &error);
    const json::Value *type = last ? last->find("type") : nullptr;
    return type && type->isString() && type->asString() == "summary";
}

/** Output checks, digest and paper deviation of a finished run. */
void
checkReliability(const Options &options, const CampaignSpec &spec,
                 const RunOutcome &run, Outcome &out, LayerSample &fixed)
{
    Digest digest;
    std::vector<double> pfail;
    for (unsigned cell = 0; cell < spec.schemes.size(); ++cell) {
        const auto &mc = run.mc(0, cell, spec.schemes.size());
        const std::string label = cellLabel(spec, cell);
        digest.add(label);
        bool monotone = true;
        for (unsigned y = 1; y <= 7; ++y) {
            digest.add(mc.failByYear[y].successes());
            monotone = monotone && mc.failByYear[y].trials() == spec.systems;
            if (y > 1)
                monotone = monotone && mc.failByYear[y].successes() >=
                                           mc.failByYear[y - 1].successes();
        }
        out.checks.check(monotone, label + ": failByYear is monotone");
        pfail.push_back(mc.probFailure());
        fixed["faultsim.failures." + label] =
            static_cast<double>(mc.failByYear[7].successes());
    }
    // schemes are secded, xed, chipkill (campaignSpecJson).
    out.checks.check(pfail[1] < pfail[2] && pfail[2] < pfail[0],
                     "P(fail) orders XED < Chipkill < SECDED");
    out.digest = digest.hex();
    if (options.workload == "mc_fig07" && pfail[1] > 0 && pfail[2] > 0)
        fixed["paper_dev"] = paperDeviation(
            {pfail[0] / pfail[1], pfail[0] / pfail[2], pfail[2] / pfail[1]},
            {172.0, 43.0, 4.0});
}

void
checkDetection(const CampaignSpec &spec, const RunOutcome &run,
               Outcome &out, LayerSample &fixed)
{
    Digest digest;
    std::uint64_t escapes = 0;
    std::map<std::string, double> rate;
    for (unsigned cell = 0; cell < spec.cellCount(); ++cell) {
        const ShardResult &r = run.cells[cell].result;
        const DetectionCell d = detectionCell(spec, cell);
        const std::uint64_t cellEscapes = r.trials - r.detected;
        escapes += cellEscapes;
        const std::string label = cellLabel(spec, cell);
        digest.add(label);
        digest.add(cellEscapes);
        rate[label] = static_cast<double>(r.detected) /
                      static_cast<double>(r.trials);
        // Exact properties of both (72,64) codes: distance >= 4 and an
        // even-weight (odd-error-detecting) code space; CRC8-ATM also
        // catches every burst up to its degree.
        if (d.weight % 2 == 1 || d.weight == 2 ||
            (d.code == "crc8atm" && d.burst))
            out.checks.check(cellEscapes == 0,
                             label + ": no escapes expected");
        out.checks.check(r.trials == spec.trials, label + ": all trials run");
    }
    out.digest = digest.hex();
    fixed["ecc.escapes"] = static_cast<double>(escapes);
    double crcBurst = 0;
    for (unsigned w = 1; w <= spec.maxWeight; ++w)
        crcBurst += rate["crc8atm/burst/w" + std::to_string(w)];
    crcBurst /= spec.maxWeight;
    fixed["paper_dev"] = paperDeviation(
        {rate["hamming7264/burst/w4"], rate["hamming7264/burst/w8"],
         crcBurst, rate["crc8atm/random/w4"], rate["crc8atm/random/w6"],
         rate["crc8atm/random/w8"]},
        {0.507, 0.507, 1.0, 0.992, 0.992, 0.992});
}

} // namespace

json::Value
campaignSpecJson(const std::string &workload, std::uint64_t seed,
                 unsigned threads)
{
    const Size size = sizeOf(workload);
    auto doc = json::Value::object();
    doc.set("name", workload);
    if (workload == "detect_table2") {
        doc.set("kind", "detection");
        doc.set("seed", mixSeed(2738, seed)); // specs/table2.json
        auto codes = json::Value::array();
        codes.push("hamming7264");
        codes.push("crc8atm");
        doc.set("codes", std::move(codes));
        auto patterns = json::Value::array();
        patterns.push("random");
        patterns.push("burst");
        doc.set("patterns", std::move(patterns));
        doc.set("maxWeight", 8u);
        doc.set("trials", size.units);
        doc.set("shardTrials", size.shard);
    } else {
        doc.set("kind", "reliability");
        doc.set("seed", mixSeed(61799, seed)); // specs/fig07.json
        auto schemes = json::Value::array();
        for (const char *label : schemeLabels)
            schemes.push(label);
        doc.set("schemes", std::move(schemes));
        doc.set("systems", size.units);
        doc.set("shardSystems", size.shard);
        auto onDie = json::Value::object();
        onDie.set("present", true);
        onDie.set("scalingRate", 0.0);
        onDie.set("detectionEscapeProb", 0.008);
        doc.set("onDie", std::move(onDie));
        if (workload == "mc_stress") {
            // Field-data sensitivity study: every Table I rate x10.
            const faultsim::FitTable table;
            auto overrides = json::Value::object();
            for (unsigned k = 0; k < faultsim::numFaultKinds; ++k) {
                const auto kind = static_cast<faultsim::FaultKind>(k);
                auto entry = json::Value::object();
                entry.set("transient", table.entry(kind).transient * 10);
                entry.set("permanent", table.entry(kind).permanent * 10);
                overrides.set(faultsim::faultKindName(kind),
                              std::move(entry));
            }
            doc.set("fitOverrides", std::move(overrides));
        }
    }
    doc.set("threads", threads);
    return doc;
}

Outcome
runCampaignWorkload(const Options &options)
{
    Outcome out;
    const std::string specPath = options.workDir + "/spec.json";
    const std::string storePath = options.workDir + "/store.jsonl";
    writeFile(specPath, json::dumpPretty(campaignSpecJson(
                            options.workload, options.seed,
                            options.threads)));

    // Set-up: what the CLI does before the first shard -- read and
    // validate the spec, hash it, expand the plan -- plus building the
    // scheme evaluators or codes the shards use.
    std::optional<CampaignSpec> spec;
    std::string error;
    const auto setUp = [&] {
        const auto t0 = Clock::now();
        spec = loadSpecFile(specPath, &error);
        if (!spec)
            return secondsSince(t0);
        const std::string hash = specHash(*spec);
        const Plan plan = buildPlan(*spec);
        if (spec->kind == CampaignKind::Reliability) {
            for (const auto kind : spec->schemes)
                makeScheme(kind, spec->onDie);
        } else {
            ecc::Hamming7264 hamming;
            ecc::Crc8Atm crc;
        }
        return secondsSince(t0);
    };
    setUp();
    if (!out.checks.check(spec.has_value(), "spec parses: " + error))
        return out;
    const Plan plan = buildPlan(*spec);
    const double units = static_cast<double>(plan.points) * plan.cells *
                         spec->unitsPerCell();
    out.provenance.set("specHash", specHash(*spec));
    out.provenance.set("specSeed", spec->seed);
    out.provenance.set("shards", static_cast<std::uint64_t>(plan.tasks.size()));
    out.provenance.set("units", static_cast<std::uint64_t>(units));

    RepTimes times;
    RunOutcome last;
    std::string refStore, refForensics;
    std::vector<LayerSample> samples;
    std::unique_ptr<Recorder> lastTrace;
    const bool reliability = spec->kind == CampaignKind::Reliability;
    // mc_fig07 runs as `xed_campaign run --no-fsync`: with a per-record
    // fsync its wall time follows the shared disk's latency, whose
    // run-to-run spread exceeds any usable bound. Its critical path is
    // then forensics and store serialization. The other two campaigns
    // keep the durable store; their wall time is set by worker CPU.
    const bool durableStore = options.workload != "mc_fig07";
    out.provenance.set("durableStore", durableStore);

    const auto untraced = [&](bool timed) {
        removeStoreFiles(storePath);
        RunOptions run;
        run.outPath = storePath;
        run.threads = options.threads;
        run.progressIntervalSeconds = 1.0;
        run.durableStore = durableStore;
        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        last = runCampaign(*spec, run);
        const double wall = secondsSince(t0);
        const double cpu = processCpuSeconds() - cpu0;
        out.checks.check(last.ok && last.complete,
                         "campaign completes: " + last.error);
        const std::string store = readFile(storePath);
        const std::string forensics =
            reliability ? readFile(forensicsPath(storePath)) : "";
        if (refStore.empty()) {
            refStore = store;
            refForensics = forensics;
            Digest bytes;
            bytes.add(store);
            bytes.add(forensics);
            out.runOutputs = bytes.hex();
            out.checks.check(storeHasSummary(store, plan.tasks.size()),
                             "store holds every shard and the summary");
            out.checks.check(!reliability || last.forensicsWritten,
                             "forensics sidecar written");
        } else {
            out.checks.check(store == refStore && forensics == refForensics,
                             "store bytes repeat across runs");
        }
        if (timed) {
            times.wall.push_back(wall);
            times.cpu.push_back(cpu);
        }
    };
    const auto traced = [&] {
        removeStoreFiles(storePath);
        ReplayOutput replay =
            replayCampaign(*spec, storePath, options.threads, durableStore);
        out.checks.check(replay.ok, "traced replay completes: " +
                                        replay.error);
        out.checks.check(replay.store == refStore,
                         "traced replay store bytes equal the run's");
        out.checks.check(replay.forensics == refForensics,
                         "traced replay sidecar bytes equal the run's");
        out.checks.check(replay.layers["bench.unattributed_frac"] <=
                             layerSumSlack,
                         "layer self times sum to the traced wall time");
        Digest bytes;
        bytes.add(replay.store);
        bytes.add(replay.forensics);
        out.replayOutputs = bytes.hex();
        times.traced.push_back(replay.wall);
        samples.push_back(std::move(replay.layers));
        lastTrace = std::move(replay.recorder);
    };
    repeatFor(options, 3, setUp, untraced, traced, times);
    removeStoreFiles(storePath);

    LayerSample fixed;
    if (reliability)
        checkReliability(options, *spec, last, out, fixed);
    else
        checkDetection(*spec, last, out, fixed);
    if (options.seed == defaultSeed)
        out.checks.check(out.digest == recordedDigests().at(options.workload),
                         "outputs match the recorded digest (got " +
                             out.digest + ")");

    if (!options.trace) {
        emitEndToEnd(out, times, units);
        return out;
    }
    if (reliability) {
        const FilterProbe probe = probeZeroFilter(*spec, plan);
        double filterSeconds = 0;
        std::uint64_t survivors = 0;
        for (unsigned cell = 0; cell < plan.cells; ++cell) {
            filterSeconds += probe.seconds[cell];
            survivors += probe.survivors[cell];
        }
        fixed["faultsim.zero_filter_ns_per_system"] =
            filterSeconds * 1e9 / units;
        fixed["faultsim.survivor_frac"] = survivors / units;
        fixed["faultsim.systems"] = units;
        // Scheme evaluation per survivor: shard time minus the filter's
        // share, over the systems the filter let through.
        for (unsigned cell = 0; cell < plan.cells; ++cell) {
            const std::string label = cellLabel(*spec, cell);
            std::vector<double> shardNs;
            for (const auto &sample : samples)
                shardNs.push_back(
                    sample.at("faultsim.shard_ns_per_system." + label));
            const double perCell = static_cast<double>(spec->systems);
            const double evalNs =
                median(shardNs) * perCell - probe.seconds[cell] * 1e9;
            fixed["faultsim.eval_ns_per_survivor." + label] =
                probe.survivors[cell]
                    ? evalNs / static_cast<double>(probe.survivors[cell])
                    : 0.0;
        }
    }
    emitPerLayer(out, samples, fixed, times);
    if (lastTrace && !options.spansPath.empty())
        lastTrace->writeJsonl(options.spansPath);
    return out;
}

} // namespace xedbench
