#include "campaign/worker.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>

#include "campaign/forensics.hh"
#include "campaign/store.hh"
#include "campaign/telemetry.hh"
#include "obs/trace.hh"

namespace xed::campaign
{

namespace fs = std::filesystem;

namespace
{

/**
 * Lease heartbeat: renews the shard currently being executed so a
 * slow-but-alive worker keeps its claim; only a dead worker's lease
 * ages past the lifetime and gets broken. Renewal runs at a quarter
 * of the lease lifetime, leaving three missed beats of slack before
 * anyone may break us.
 */
class Heartbeat
{
  public:
    Heartbeat(ShardQueue &queue, double leaseSeconds) : queue_(queue)
    {
        const double interval =
            std::max(leaseSeconds / 4.0, 0.01);
        thread_ = std::thread([this, interval] {
            std::unique_lock<std::mutex> lock(mutex_);
            while (!stop_) {
                cv_.wait_for(lock,
                             std::chrono::duration<double>(interval),
                             [this] { return stop_; });
                if (stop_)
                    break;
                const std::int64_t shard =
                    current_.load(std::memory_order_relaxed);
                if (shard >= 0) {
                    lock.unlock();
                    queue_.renew(static_cast<std::uint64_t>(shard),
                                 nullptr);
                    lock.lock();
                }
            }
        });
    }

    ~Heartbeat()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    void beating(std::uint64_t shard)
    {
        current_.store(static_cast<std::int64_t>(shard),
                       std::memory_order_relaxed);
    }
    void idle() { current_.store(-1, std::memory_order_relaxed); }

  private:
    ShardQueue &queue_;
    std::atomic<std::int64_t> current_{-1};
    std::thread thread_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

std::string
fragmentBytesFor(const CampaignSpec &spec, const ShardTask &task,
                 const ShardResult &result, bool forensics)
{
    std::string bytes = json::dump(shardRecord(spec, task, result));
    bytes += '\n';
    if (forensics) {
        bytes += json::dump(forensicsShardRecord(task, result.mc));
        bytes += '\n';
    }
    return bytes;
}

} // namespace

WorkerOutcome
runWorker(const CampaignSpec &spec, const WorkerOptions &options)
{
    WorkerOutcome outcome;
    const Plan plan = buildPlan(spec);
    const std::string hash = specHash(spec);

    auto &recorder = obs::TraceRecorder::instance();
    if (options.trace)
        recorder.setEnabled(true);

    ShardQueue queue;
    QueueOptions queueOptions;
    queueOptions.dir = options.queueDir;
    queueOptions.workerId = options.workerId;
    queueOptions.leaseSeconds = options.leaseSeconds;
    queueOptions.durable = options.durable;
    queueOptions.forensics = options.forensics;
    if (!queue.open(spec, plan, queueOptions, &outcome.error))
        return outcome;
    const bool wantForensics =
        options.forensics && spec.kind == CampaignKind::Reliability;
    if (queue.forensics() != wantForensics) {
        outcome.error =
            "queue " + queue.dir() +
            (queue.forensics()
                 ? " expects forensics fragments; this worker was "
                   "started with forensics disabled"
                 : " was created without forensics; this worker would "
                   "write forensics fragments") +
            " -- all workers of one queue must agree";
        return outcome;
    }

    if (recorder.enabled())
        recorder.setProcessLabel("worker:" + queue.workerId());
    XED_TRACE_SPAN("campaign.worker", "campaign");

    // -- Per-worker telemetry: same schema as the single-process
    // runner, provenance-tagged with the worker id, streamed to
    // `<queueDir>/worker-<id>.telemetry.jsonl`. Totals describe the
    // whole campaign; done/units counters cover this worker's share.
    MetricsRegistry registry;
    faultsim::McProgress progress;
    registry.counter("shards.total").add(plan.tasks.size());
    registry.counter("units.total")
        .add(static_cast<std::uint64_t>(plan.points) * plan.cells *
             spec.unitsPerCell());
    for (unsigned cell = 0; cell < plan.cells; ++cell)
        registry.counter("failed." + cellLabel(spec, cell)).add(0);
    ProgressReporter::Setup telemetry;
    telemetry.intervalSeconds = options.progressIntervalSeconds;
    telemetry.statusOut = options.progressOut;
    if (options.telemetrySidecar)
        telemetry.sidecarPath =
            (fs::path(queue.dir()) /
             ("worker-" + queue.workerId() + ".telemetry.jsonl"))
                .string();
    ProgressReporter reporter(telemetry, registry, progress);
    reporter.start(
        runMetadata(spec.name, hash, 1, 0, queue.workerId()));

    const auto exportTrace = [&] {
        if (!recorder.enabled())
            return;
        const std::string path =
            (fs::path(queue.dir()) /
             ("worker-" + queue.workerId() + ".trace.json"))
                .string();
        std::string traceError;
        if (recorder.exportTo(path, &traceError))
            outcome.tracePath = path;
        else if (options.progressOut)
            *options.progressOut
                << "trace export failed: " << traceError << "\n";
    };

    Heartbeat heartbeat(queue, options.leaseSeconds);

    // Same shard-time distributions the single-process runner feeds:
    // the per-worker telemetry carries their exact buckets, and the
    // fleet status scanner merges every worker's into the fleet-wide
    // p50/p90/p99.
    Histogram &shardSeconds = registry.histogram("shard.seconds");
    Histogram &shardRate = registry.histogram("shard.unitsPerSec");

    // -- Claim loop. Scans the plan repeatedly: committed shards are
    // skipped, leased shards are left to their holder, and the first
    // claimable shard is executed. When a full scan finds only
    // committed shards the queue is drained; when it finds live
    // leases but nothing claimable, sleep and rescan (an expired
    // lease becomes claimable on a later pass).
    std::uint64_t doneBelow = 0; // shards [0, doneBelow) committed
    std::uint64_t jitterState = pollJitterSeed(queue.workerId());
    bool reachedLimit = false;
    while (!reachedLimit) {
        bool claimedAny = false;
        bool sawBusy = false;
        for (std::uint64_t i = doneBelow;
             i < plan.tasks.size() && !reachedLimit; ++i) {
            const auto claim = queue.tryClaim(i, &outcome.error);
            if (claim == ShardQueue::Claim::Done) {
                if (i == doneBelow)
                    ++doneBelow;
                continue;
            }
            if (claim == ShardQueue::Claim::Busy) {
                sawBusy = true;
                continue;
            }
            const ShardTask &task = plan.tasks[i];
            heartbeat.beating(i);
            ShardResult result;
            const auto t0 = std::chrono::steady_clock::now();
            try {
                XED_TRACE_SPAN_ARG(
                    spec.kind == CampaignKind::Reliability
                        ? "reliability-shard"
                        : spec.kind == CampaignKind::Fleet
                              ? "fleet-shard"
                              : "detection-shard",
                    "campaign", "index", i);
                result = runShard(spec, task, &progress);
            } catch (const std::exception &e) {
                heartbeat.idle();
                queue.release(i);
                outcome.error =
                    "shard execution failed: " + std::string(e.what());
                exportTrace();
                return outcome;
            }
            heartbeat.idle();
            const double dt =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            shardSeconds.update(dt);
            if (dt > 0)
                shardRate.update(
                    static_cast<double>(task.end - task.begin) / dt);
            bool duplicate = false;
            if (!queue.commit(i,
                              fragmentBytesFor(spec, task, result,
                                               wantForensics),
                              &outcome.error, &duplicate)) {
                queue.release(i);
                exportTrace();
                return outcome;
            }
            ++outcome.shardsRun;
            if (duplicate)
                ++outcome.duplicates;
            claimedAny = true;
            registry.counter("shards.done").add(1);
            registry.counter("failed." + cellLabel(spec, task.cell))
                .add(failedSystemsOf(spec, result));
            if (options.maxShards &&
                outcome.shardsRun >= options.maxShards)
                reachedLimit = true;
        }
        if (reachedLimit)
            break;
        if (!sawBusy) {
            outcome.queueDrained = true;
            break;
        }
        if (!claimedAny)
            std::this_thread::sleep_for(std::chrono::duration<double>(
                jitteredPollSeconds(options.pollSeconds, jitterState)));
    }
    if (reachedLimit)
        outcome.queueDrained =
            queue.fragmentsPresent() == plan.tasks.size();

    reporter.finish(outcome.queueDrained);
    exportTrace();
    outcome.ok = true;
    return outcome;
}

MergeOutcome
mergeFragments(const CampaignSpec &spec, const MergeOptions &options)
{
    MergeOutcome outcome;
    const Plan plan = buildPlan(spec);
    const std::string hash = specHash(spec);
    XED_TRACE_SPAN("campaign.merge", "campaign");

    ShardQueue queue;
    QueueOptions queueOptions;
    queueOptions.dir = options.queueDir;
    queueOptions.workerId = "merge";
    queueOptions.durable = options.durable;
    if (!queue.open(spec, plan, queueOptions, &outcome.error))
        return outcome;

    // -- Readiness: every shard must have a committed fragment.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(options.timeoutSeconds));
    for (;;) {
        std::uint64_t missing = plan.tasks.size();
        for (std::uint64_t i = 0; i < plan.tasks.size(); ++i) {
            if (!queue.fragmentExists(i)) {
                missing = i;
                break;
            }
        }
        if (missing == plan.tasks.size())
            break;
        if (!options.waitForFragments) {
            outcome.error = "queue " + queue.dir() + ": shard " +
                            std::to_string(missing) +
                            " has no committed fragment yet (workers "
                            "still running? use --wait to poll)";
            return outcome;
        }
        if (options.timeoutSeconds > 0 &&
            std::chrono::steady_clock::now() >= deadline) {
            outcome.error = "queue " + queue.dir() +
                            ": timed out waiting for shard " +
                            std::to_string(missing) + "'s fragment";
            return outcome;
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::max(options.pollSeconds, 0.01)));
    }

    if (fs::exists(options.outPath)) {
        outcome.error = options.outPath +
                        " already exists; remove it (the merge always "
                        "assembles the full store from fragments)";
        return outcome;
    }

    StoreWriter writer;
    if (!writer.open(options.outPath, -1, &outcome.error,
                     options.durable))
        return outcome;
    if (!writer.write(manifestRecord(spec, plan, hash), &outcome.error))
        return outcome;

    const bool useForensics =
        queue.forensics() && spec.kind == CampaignKind::Reliability;
    StoreWriter forensicsWriter;
    if (useForensics &&
        !forensicsWriter.open(forensicsPath(options.outPath), -1,
                              &outcome.error, options.durable))
        return outcome;

    outcome.cells.resize(
        static_cast<std::size_t>(plan.points) * plan.cells);
    for (unsigned point = 0; point < plan.points; ++point) {
        for (unsigned cell = 0; cell < plan.cells; ++cell) {
            auto &summary = outcome.cells[point * plan.cells + cell];
            summary.point = point;
            summary.cell = cell;
            summary.label = cellLabel(spec, cell);
        }
    }

    // Autopsy type strings decoded from fragments live here; the
    // merged exemplars are serialized into the summary records before
    // this function returns, and the returned cells drop their
    // autopsy vectors (the pointers would dangle otherwise).
    std::vector<std::unique_ptr<std::string>> strings;

    // -- Assemble: fragment record lines are appended VERBATIM, in
    // plan order, so the store/sidecar bytes cannot be perturbed by a
    // parse/re-serialize round trip; parsing below is validation and
    // summary bookkeeping only.
    for (std::uint64_t i = 0; i < plan.tasks.size(); ++i) {
        const ShardTask &task = plan.tasks[i];
        const std::string path = queue.fragmentPath(i);
        const auto bytes = slurpFile(path);
        if (!bytes) {
            outcome.error = "cannot read fragment " + path;
            return outcome;
        }
        if (bytes->empty() || bytes->back() != '\n') {
            outcome.error = path + ": truncated fragment";
            return outcome;
        }
        std::vector<std::string> lines;
        std::size_t start = 0;
        while (start < bytes->size()) {
            const std::size_t newline = bytes->find('\n', start);
            lines.push_back(bytes->substr(start, newline - start));
            start = newline + 1;
        }
        const std::size_t expectLines = useForensics ? 2 : 1;
        if (lines.size() != expectLines) {
            outcome.error = path + ": expected " +
                            std::to_string(expectLines) +
                            " record line(s), found " +
                            std::to_string(lines.size());
            return outcome;
        }

        std::string parseError;
        const auto record = json::parse(lines[0], &parseError);
        if (!record || !record->isObject()) {
            outcome.error = path + ": invalid shard record: " +
                            parseError;
            return outcome;
        }
        const json::Value *type = record->find("type");
        const json::Value *index = record->find("index");
        const bool matches =
            type && type->isString() && type->asString() == "shard" &&
            index && index->isIntegral() && index->asUint() == i &&
            shardRecordMatches(*record, task);
        if (!matches) {
            outcome.error = path +
                            ": shard record does not match the spec's "
                            "plan (foreign or corrupt fragment)";
            return outcome;
        }
        ShardResult result = shardResultFromJson(spec, *record);

        if (useForensics) {
            const auto forensics = json::parse(lines[1], &parseError);
            if (!forensics || !forensics->isObject()) {
                outcome.error = path + ": invalid forensics record: " +
                                parseError;
                return outcome;
            }
            const json::Value *ftype = forensics->find("type");
            const json::Value *findex = forensics->find("index");
            if (!ftype || !ftype->isString() ||
                ftype->asString() != "forensics" || !findex ||
                !findex->isIntegral() || findex->asUint() != i) {
                outcome.error = path +
                                ": forensics record does not match "
                                "its shard";
                return outcome;
            }
            if (!parseAttribution(*forensics, result.mc.attribution,
                                  &parseError)) {
                outcome.error = path + ": " + parseError;
                return outcome;
            }
            parseAutopsy(*forensics, result.mc.autopsy, strings);
            // Sidecar record strictly before the store record,
            // mirroring the single-process runner's write order.
            if (!forensicsWriter.writeLine(lines[1], &outcome.error))
                return outcome;
        }
        if (!writer.writeLine(lines[0], &outcome.error))
            return outcome;
        outcome.cells[task.point * plan.cells + task.cell].result.merge(
            result);
        ++outcome.shardsMerged;
    }

    // -- Summaries: recomputed from the decoded shard payloads, the
    // same path a resumed single-process run takes -- so these bytes
    // match an uninterrupted run's exactly.
    if (useForensics) {
        for (const auto &cell : outcome.cells) {
            if (!forensicsWriter.write(
                    forensicsSummaryRecord(cell.point, cell.cell,
                                           cell.label, cell.result.mc),
                    &outcome.error))
                return outcome;
        }
    }
    if (!writer.write(summaryRecord(spec, outcome.cells),
                      &outcome.error))
        return outcome;

    // The autopsy exemplars' type strings are owned by this frame;
    // drop them from the returned cells rather than dangle.
    for (auto &cell : outcome.cells)
        cell.result.mc.autopsy.clear();

    outcome.forensicsWritten = useForensics;
    outcome.ok = true;
    return outcome;
}

} // namespace xed::campaign
