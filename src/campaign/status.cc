#include "campaign/status.hh"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <ostream>
#include <set>
#include <sstream>

#include "campaign/queue.hh"
#include "common/metrics.hh"
#include "common/table.hh"
#include "obs/telemetry.hh"

namespace xed::campaign
{

namespace fs = std::filesystem;

namespace
{

/** Seconds since @p path was last written; 0 when unreadable (a file
 *  racing deletion mid-scan must not be classified dead on that
 *  evidence alone -- the next scan settles it). */
double
ageOrZero(const fs::path &path)
{
    return std::max(fileAgeSeconds(path.string()).value_or(0.0), 0.0);
}

/** name == prefix + middle + suffix with nonempty middle. */
bool
splitName(const std::string &name, std::string_view prefix,
          std::string_view suffix, std::string &middle)
{
    if (name.size() <= prefix.size() + suffix.size())
        return false;
    if (name.compare(0, prefix.size(), prefix) != 0)
        return false;
    if (name.compare(name.size() - suffix.size(), suffix.size(),
                     suffix) != 0)
        return false;
    middle = name.substr(prefix.size(),
                         name.size() - prefix.size() - suffix.size());
    return true;
}

/** Plain decimal digits that fit in 64 bits; anything else (signs,
 *  junk, an index past 2^64) is a foreign file name the scan skips. */
bool
parseShardIndex(const std::string &digits, std::uint64_t &index)
{
    const char *end = digits.data() + digits.size();
    const auto [ptr, ec] = std::from_chars(digits.data(), end, index);
    return ec == std::errc() && ptr == end;
}

void
tallyOutcomes(const json::Value &record, FleetStatus &status)
{
    const json::Value *outcomes = record.find("outcomes");
    if (!outcomes || !outcomes->isObject())
        return;
    for (const auto &[name, count] : outcomes->members())
        if (count.isIntegral())
            status.outcomes[name] += count.asUint();
}

/**
 * Fold one committed "shard" record into the fleet totals. Extraction
 * is shape-based -- no spec needed -- and mirrors the runner's
 * failedSystemsOf() exactly, so the totals match what `report` prints
 * for the merged store:
 *
 *   result.failureTypes {name: n}   reliability: failed = sum(n)
 *   result.cohorts [{due, sdc,...}] fleet: failed = sum(due) + sum(sdc)
 *   result.{detected, trials}       detection: failed = trials-detected
 *                                   (escapes)
 */
bool
tallyShardRecord(const json::Value &record, FleetStatus &status)
{
    if (!record.isObject() || !obs::recordIsType(record, "shard"))
        return false;
    const json::Value *begin = record.find("begin");
    const json::Value *end = record.find("end");
    const json::Value *result = record.find("result");
    if (!begin || !begin->isIntegral() || !end || !end->isIntegral() ||
        !result || !result->isObject())
        return false;
    const std::uint64_t b = begin->asUint();
    const std::uint64_t e = end->asUint();
    if (e < b)
        return false;
    status.unitsDone += e - b;

    std::uint64_t failed = 0;
    if (const json::Value *types = result->find("failureTypes");
        types && types->isObject()) {
        for (const auto &[name, count] : types->members()) {
            if (!count.isIntegral())
                return false;
            failed += count.asUint();
            status.failuresByType[name] += count.asUint();
        }
    } else if (const json::Value *cohorts = result->find("cohorts");
               cohorts && cohorts->isArray()) {
        for (const json::Value &entry : cohorts->items()) {
            if (!entry.isObject())
                return false;
            for (const char *key : {"due", "sdc"}) {
                const json::Value *series = entry.find(key);
                if (!series || !series->isArray())
                    return false;
                std::uint64_t sum = 0;
                for (const json::Value &delta : series->items())
                    if (delta.isIntegral())
                        sum += delta.asUint();
                failed += sum;
                status.failuresByType[key] += sum;
            }
            tallyOutcomes(entry, status);
        }
    } else {
        const json::Value *detected = result->find("detected");
        const json::Value *trials = result->find("trials");
        if (!detected || !detected->isIntegral() || !trials ||
            !trials->isIntegral() ||
            trials->asUint() < detected->asUint())
            return false;
        failed = trials->asUint() - detected->asUint();
        status.failuresByType["escape"] += failed;
    }
    status.failedUnits += failed;

    // Every committed cell appears in byCell, zero failures included
    // -- same convention as the run summary's failure map.
    if (const json::Value *label = record.find("label");
        label && label->isString())
        status.failuresByCell[label->asString()] += failed;
    return true;
}

std::uint64_t
u64Field(const json::Value &record, const char *key)
{
    const json::Value *v = record.find(key);
    return v && v->isIntegral() ? v->asUint() : 0;
}

double
f64Field(const json::Value &record, const char *key)
{
    const json::Value *v = record.find(key);
    return v && v->isNumber() ? v->asDouble() : 0;
}

WorkerLiveness
classifyAge(double ageSeconds, double leaseSeconds)
{
    if (ageSeconds <= leaseSeconds * 0.5)
        return WorkerLiveness::Live;
    if (ageSeconds <= leaseSeconds)
        return WorkerLiveness::Stale;
    return WorkerLiveness::Dead;
}

/**
 * Digest one worker's telemetry sidecar: identity from the "run"
 * record, cumulative counters from the newest progress/terminal
 * record, exact histogram buckets merged into the fleet histograms.
 * Liveness is provisional (Dead) for a non-terminal worker until the
 * caller folds in lease ages and classifies.
 */
WorkerStatus
workerFromTelemetry(const std::string &id,
                    const obs::TelemetryRecords &telemetry,
                    double sidecarAgeSeconds, FleetStatus &status,
                    Histogram &shardSeconds, Histogram &shardUnitsPerSec)
{
    WorkerStatus worker;
    worker.id = id;
    if (const json::Value *run = obs::lastRecordOfType(telemetry, "run"))
        if (const json::Value *host = run->find("host");
            host && host->isString())
            worker.host = host->asString();

    // The newest cumulative sample, whatever kind of record carried it.
    const json::Value *latest = nullptr;
    for (const json::Value &record : telemetry.records)
        if (obs::recordIsType(record, "progress") ||
            obs::recordIsType(record, "done") ||
            obs::recordIsType(record, "aborted"))
            latest = &record;
    if (latest) {
        worker.shardsDone = u64Field(*latest, "shardsDone");
        worker.unitsDone = u64Field(*latest, "unitsDone");
        worker.failedUnits = u64Field(*latest, "failedSystems");
        worker.unitsPerSec = f64Field(*latest, "unitsPerSec");
        const std::uint64_t total = u64Field(*latest, "unitsTotal");
        if (total > 0 &&
            (!status.unitsTotal || total > *status.unitsTotal))
            status.unitsTotal = total;
        if (const json::Value *hist = latest->find("hist");
            hist && hist->isObject()) {
            if (const json::Value *payload = hist->find("shardSeconds"))
                obs::histogramFromJson(*payload, shardSeconds);
            if (const json::Value *payload =
                    hist->find("shardUnitsPerSec"))
                obs::histogramFromJson(*payload, shardUnitsPerSec);
        }
    }

    if (obs::lastRecordOfType(telemetry, "done"))
        worker.liveness = WorkerLiveness::Done;
    else if (obs::lastRecordOfType(telemetry, "aborted"))
        worker.liveness = WorkerLiveness::Aborted;
    else
        worker.heartbeatAgeSeconds = sidecarAgeSeconds;
    return worker;
}

HistogramSummary
summarize(const Histogram &histogram)
{
    HistogramSummary summary;
    summary.count = histogram.count();
    if (summary.count > 0) {
        summary.p50 = histogram.quantile(0.50);
        summary.p90 = histogram.quantile(0.90);
        summary.p99 = histogram.quantile(0.99);
    }
    for (unsigned i = 0; i < Histogram::bucketCount; ++i)
        if (const std::uint64_t c = histogram.bucket(i))
            summary.approxSum +=
                static_cast<double>(c) * Histogram::bucketValue(i);
    return summary;
}

/** Fleet rate, ETA and histogram summaries, shared by both scanners. */
void
finalizeThroughput(FleetStatus &status, const Histogram &shardSeconds,
                   const Histogram &shardUnitsPerSec)
{
    for (const WorkerStatus &worker : status.workers)
        if (worker.liveness == WorkerLiveness::Live ||
            worker.liveness == WorkerLiveness::Stale)
            status.unitsPerSec += worker.unitsPerSec;
    if (!status.complete && status.unitsPerSec > 0 &&
        status.unitsTotal && *status.unitsTotal > status.unitsDone)
        status.etaSeconds =
            static_cast<double>(*status.unitsTotal - status.unitsDone) /
            status.unitsPerSec;
    status.shardSeconds = summarize(shardSeconds);
    status.shardUnitsPerSec = summarize(shardUnitsPerSec);
}

} // namespace

const char *
workerLivenessName(WorkerLiveness liveness)
{
    switch (liveness) {
    case WorkerLiveness::Live: return "live";
    case WorkerLiveness::Stale: return "stale";
    case WorkerLiveness::Dead: return "dead";
    case WorkerLiveness::Done: return "done";
    case WorkerLiveness::Aborted: return "aborted";
    }
    return "unknown";
}

FleetStatus
scanQueueDir(const std::string &dir, const StatusOptions &options)
{
    FleetStatus status;
    status.source = "queue";
    status.path = dir;

    const auto manifest =
        json::parse(slurpFile(dir + "/queue.json").value_or(""));
    if (!manifest || !manifest->isObject() ||
        !obs::recordIsType(*manifest, "queue")) {
        status.error =
            "not a queue directory (queue.json missing or invalid): " +
            dir;
        return status;
    }
    if (const json::Value *name = manifest->find("name");
        name && name->isString())
        status.name = name->asString();
    if (const json::Value *hash = manifest->find("specHash");
        hash && hash->isString())
        status.specHash = hash->asString();
    status.shardsTotal = u64Field(*manifest, "shards");

    Histogram shardSeconds;
    Histogram shardUnitsPerSec;
    std::map<std::string, WorkerStatus> workers;
    struct LeaseInfo
    {
        std::string worker;
        std::uint64_t shard;
        double ageSeconds;
    };
    std::vector<LeaseInfo> leases;
    std::set<std::uint64_t> doneShards;

    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        std::string middle;
        std::uint64_t index = 0;
        if (splitName(name, "shard-", ".jsonl", middle) &&
            parseShardIndex(middle, index)) {
            // A committed fragment: line 1 is the store's shard
            // record, line 2 (reliability campaigns) the forensics
            // record. The fragment counts as done even when damaged
            // -- the commit rename happened -- but its totals can
            // only come from a parseable record.
            doneShards.insert(index);
            const std::string bytes =
                slurpFile(entry.path().string()).value_or("");
            std::size_t pos = 0;
            bool first = true;
            bool tallied = false;
            while (pos < bytes.size()) {
                std::size_t eol = bytes.find('\n', pos);
                if (eol == std::string::npos)
                    eol = bytes.size();
                const std::string_view line(bytes.data() + pos,
                                            eol - pos);
                pos = eol + 1;
                if (line.empty())
                    continue;
                const auto record = json::parse(line);
                if (record && first)
                    tallied = tallyShardRecord(*record, status);
                else if (record &&
                         obs::recordIsType(*record, "forensics"))
                    tallyOutcomes(*record, status);
                first = false;
            }
            if (!tallied)
                ++status.damagedFragments;
        } else if (splitName(name, "lease-", ".json", middle) &&
                   parseShardIndex(middle, index)) {
            // Tombstoned leases are `lease-N.json.broken-<breaker>`
            // and never match the suffix. A lease torn mid-write
            // (claim in progress) parses as garbage; skip it, the
            // next scan sees it whole.
            const auto lease = json::parse(
                slurpFile(entry.path().string()).value_or(""));
            if (!lease || !lease->isObject())
                continue;
            const json::Value *worker = lease->find("worker");
            if (!worker || !worker->isString())
                continue;
            leases.push_back({worker->asString(), index,
                              ageOrZero(entry.path())});
        } else if (splitName(name, "worker-", ".telemetry.jsonl",
                             middle)) {
            const auto telemetry =
                obs::readTelemetryRecords(entry.path().string());
            if (!telemetry.ok)
                continue;
            ++status.telemetryFiles;
            status.skippedTelemetryLines += telemetry.skippedLines;
            workers.emplace(
                middle, workerFromTelemetry(
                            middle, telemetry,
                            ageOrZero(entry.path()), status,
                            shardSeconds, shardUnitsPerSec));
        }
    }

    for (const LeaseInfo &lease : leases) {
        if (doneShards.count(lease.shard))
            continue; // committed while we scanned; the lease is moot
        ++status.shardsClaimed;
        // A worker with no sidecar (telemetry disabled) still shows
        // up through its leases.
        WorkerStatus &worker =
            workers.emplace(lease.worker, WorkerStatus{})
                .first->second;
        if (worker.id.empty())
            worker.id = lease.worker;
        worker.leasedShards.push_back(lease.shard);
        if (worker.liveness != WorkerLiveness::Done &&
            worker.liveness != WorkerLiveness::Aborted) {
            // Freshest evidence wins: a lease renewed after the last
            // telemetry flush proves the worker lives.
            if (!worker.heartbeatAgeSeconds ||
                lease.ageSeconds < *worker.heartbeatAgeSeconds)
                worker.heartbeatAgeSeconds = lease.ageSeconds;
        }
    }

    status.shardsDone = doneShards.size();
    const std::uint64_t accounted =
        status.shardsDone + status.shardsClaimed;
    status.shardsPending = status.shardsTotal > accounted
                               ? status.shardsTotal - accounted
                               : 0;
    status.complete = status.shardsTotal > 0 &&
                      status.shardsDone >= status.shardsTotal;

    for (auto &[id, worker] : workers) {
        std::sort(worker.leasedShards.begin(),
                  worker.leasedShards.end());
        if (worker.liveness != WorkerLiveness::Done &&
            worker.liveness != WorkerLiveness::Aborted)
            worker.liveness = classifyAge(
                worker.heartbeatAgeSeconds.value_or(0),
                options.leaseSeconds);
        status.workers.push_back(std::move(worker));
    }

    finalizeThroughput(status, shardSeconds, shardUnitsPerSec);
    status.ok = true;
    return status;
}

FleetStatus
scanStore(const std::string &storePath, const StatusOptions &options)
{
    FleetStatus status;
    status.source = "store";
    std::string path = storePath;
    constexpr std::string_view sidecarSuffix = ".telemetry.jsonl";
    if (path.size() > sidecarSuffix.size() &&
        path.compare(path.size() - sidecarSuffix.size(),
                     sidecarSuffix.size(), sidecarSuffix) == 0)
        path.resize(path.size() - sidecarSuffix.size());
    status.path = path;

    // The tolerant JSONL reader serves stores just as well as
    // telemetry: same append-only discipline, same torn-tail mode.
    const auto store = obs::readTelemetryRecords(path);
    if (!store.ok) {
        status.error = store.error;
        return status;
    }
    status.damagedFragments += store.skippedLines;

    bool sawManifest = false;
    for (const json::Value &record : store.records) {
        if (obs::recordIsType(record, "manifest") && !sawManifest) {
            sawManifest = true;
            status.shardsTotal = u64Field(record, "shards");
            if (const json::Value *hash = record.find("specHash");
                hash && hash->isString())
                status.specHash = hash->asString();
            if (const json::Value *spec = record.find("spec"))
                if (const json::Value *name = spec->find("name");
                    name && name->isString())
                    status.name = name->asString();
        } else if (obs::recordIsType(record, "shard")) {
            if (tallyShardRecord(record, status))
                ++status.shardsDone;
            else
                ++status.damagedFragments;
        } else if (obs::recordIsType(record, "summary")) {
            status.complete = true;
        }
    }
    if (!sawManifest) {
        status.error = "not a result store (no manifest record): " + path;
        return status;
    }
    status.shardsPending = status.shardsTotal > status.shardsDone
                               ? status.shardsTotal - status.shardsDone
                               : 0;

    Histogram shardSeconds;
    Histogram shardUnitsPerSec;
    const std::string telemetryPath = path + ".telemetry.jsonl";
    if (fs::exists(telemetryPath)) {
        const auto telemetry = obs::readTelemetryRecords(telemetryPath);
        if (telemetry.ok) {
            ++status.telemetryFiles;
            status.skippedTelemetryLines += telemetry.skippedLines;
            std::string id = "local";
            if (const json::Value *run =
                    obs::lastRecordOfType(telemetry, "run"))
                if (const json::Value *worker = run->find("worker");
                    worker && worker->isString())
                    id = worker->asString();
            WorkerStatus worker = workerFromTelemetry(
                id, telemetry, ageOrZero(telemetryPath), status,
                shardSeconds, shardUnitsPerSec);
            if (worker.liveness != WorkerLiveness::Done &&
                worker.liveness != WorkerLiveness::Aborted)
                worker.liveness =
                    classifyAge(worker.heartbeatAgeSeconds.value_or(0),
                                options.leaseSeconds);
            status.workers.push_back(std::move(worker));
        }
    }

    // Detection-outcome counters live in the forensics sidecar for a
    // single-process reliability run (per-shard records only -- the
    // per-cell summaries would double-count).
    const std::string forensics = path + ".forensics.jsonl";
    if (fs::exists(forensics)) {
        const auto records = obs::readTelemetryRecords(forensics);
        if (records.ok)
            for (const json::Value &record : records.records)
                if (obs::recordIsType(record, "forensics"))
                    tallyOutcomes(record, status);
    }

    finalizeThroughput(status, shardSeconds, shardUnitsPerSec);
    status.ok = true;
    return status;
}

FleetStatus
scanStatusSource(const std::string &path, const StatusOptions &options)
{
    std::error_code ec;
    if (fs::is_directory(path, ec))
        return scanQueueDir(path, options);
    return scanStore(path, options);
}

namespace
{

json::Value
countsJson(const std::map<std::string, std::uint64_t> &counts)
{
    auto out = json::Value::object(); // std::map order: deterministic
    for (const auto &[name, count] : counts)
        out.set(name, count);
    return out;
}

json::Value
summaryJson(const HistogramSummary &summary)
{
    auto out = json::Value::object();
    out.set("count", summary.count);
    out.set("p50", summary.p50);
    out.set("p90", summary.p90);
    out.set("p99", summary.p99);
    return out;
}

} // namespace

json::Value
statusJson(const FleetStatus &status)
{
    auto out = json::Value::object();
    out.set("type", "status");
    if (!status.ok) {
        out.set("error", status.error);
        return out;
    }
    out.set("source", status.source);
    out.set("name", status.name);
    out.set("specHash", status.specHash);
    out.set("complete", status.complete);

    auto shards = json::Value::object();
    shards.set("total", status.shardsTotal);
    shards.set("done", status.shardsDone);
    shards.set("claimed", status.shardsClaimed);
    shards.set("pending", status.shardsPending);
    out.set("shards", std::move(shards));

    auto units = json::Value::object();
    units.set("done", status.unitsDone);
    if (status.unitsTotal)
        units.set("total", *status.unitsTotal);
    out.set("units", std::move(units));

    auto failures = json::Value::object();
    failures.set("total", status.failedUnits);
    failures.set("byCell", countsJson(status.failuresByCell));
    failures.set("byType", countsJson(status.failuresByType));
    failures.set("outcomes", countsJson(status.outcomes));
    out.set("failures", std::move(failures));

    auto throughput = json::Value::object();
    throughput.set("unitsPerSec", status.unitsPerSec);
    if (status.etaSeconds)
        throughput.set("etaSeconds", *status.etaSeconds);
    throughput.set("shardSeconds", summaryJson(status.shardSeconds));
    throughput.set("shardUnitsPerSec",
                   summaryJson(status.shardUnitsPerSec));
    out.set("throughput", std::move(throughput));

    auto workers = json::Value::array();
    for (const WorkerStatus &worker : status.workers) {
        auto entry = json::Value::object();
        entry.set("id", worker.id);
        entry.set("state", workerLivenessName(worker.liveness));
        if (!worker.host.empty())
            entry.set("host", worker.host);
        entry.set("shardsDone", worker.shardsDone);
        entry.set("unitsDone", worker.unitsDone);
        entry.set("failedUnits", worker.failedUnits);
        entry.set("unitsPerSec", worker.unitsPerSec);
        if (worker.heartbeatAgeSeconds)
            entry.set("heartbeatAgeSeconds",
                      *worker.heartbeatAgeSeconds);
        if (!worker.leasedShards.empty()) {
            auto shardList = json::Value::array();
            for (const std::uint64_t shard : worker.leasedShards)
                shardList.push(shard);
            entry.set("leases", std::move(shardList));
        }
        workers.push(std::move(entry));
    }
    out.set("workers", std::move(workers));

    auto telemetry = json::Value::object();
    telemetry.set("files", status.telemetryFiles);
    telemetry.set("skippedLines", status.skippedTelemetryLines);
    telemetry.set("damagedFragments", status.damagedFragments);
    out.set("telemetry", std::move(telemetry));
    return out;
}

void
printStatus(const FleetStatus &status, std::ostream &os)
{
    if (!status.ok) {
        os << "status: " << status.error << "\n";
        return;
    }
    os << "campaign " << status.name << " (" << status.specHash
       << ")  [" << status.source << " " << status.path << "]\n";
    os << "shards: " << status.shardsDone << "/" << status.shardsTotal
       << " done, " << status.shardsClaimed << " claimed, "
       << status.shardsPending << " pending"
       << (status.complete ? "  -- complete" : "") << "\n";
    os << "units:  " << status.unitsDone;
    if (status.unitsTotal) {
        os << "/" << *status.unitsTotal;
        if (*status.unitsTotal > 0)
            os << " ("
               << Table::pct(static_cast<double>(status.unitsDone) /
                                 static_cast<double>(*status.unitsTotal),
                             1)
               << ")";
    }
    os << ", " << status.failedUnits << " failed\n";
    os << "rate:   " << Table::fmt(status.unitsPerSec, 1)
       << " units/s";
    if (status.etaSeconds)
        os << ", eta " << Table::fmt(*status.etaSeconds, 1) << " s";
    os << "\n";
    if (status.shardSeconds.count > 0)
        os << "shard seconds: p50 "
           << Table::fmt(status.shardSeconds.p50, 3) << "  p90 "
           << Table::fmt(status.shardSeconds.p90, 3) << "  p99 "
           << Table::fmt(status.shardSeconds.p99, 3) << "  (n="
           << status.shardSeconds.count << ")\n";
    if (status.skippedTelemetryLines > 0 || status.damagedFragments > 0)
        os << "warnings: " << status.skippedTelemetryLines
           << " skipped telemetry lines, " << status.damagedFragments
           << " damaged fragments\n";

    if (!status.workers.empty()) {
        Table table({"worker", "state", "beat(s)", "shards", "units",
                     "failed", "units/s", "leases"});
        for (const WorkerStatus &worker : status.workers) {
            std::string leases;
            for (const std::uint64_t shard : worker.leasedShards)
                leases += (leases.empty() ? "" : ",") +
                          std::to_string(shard);
            table.addRow(
                {worker.id, workerLivenessName(worker.liveness),
                 worker.heartbeatAgeSeconds
                     ? Table::fmt(*worker.heartbeatAgeSeconds, 1)
                     : "-",
                 std::to_string(worker.shardsDone),
                 std::to_string(worker.unitsDone),
                 std::to_string(worker.failedUnits),
                 Table::fmt(worker.unitsPerSec, 1),
                 leases.empty() ? "-" : leases});
        }
        os << "\n";
        table.print(os, "workers");
    }

    if (!status.failuresByCell.empty()) {
        Table table({"cell", "failed"});
        for (const auto &[label, failed] : status.failuresByCell)
            table.addRow({label, std::to_string(failed)});
        os << "\n";
        table.print(os, "failures by cell");
    }
}

namespace
{

/** Prometheus label-value escaping: backslash, quote, newline. */
std::string
escapeLabel(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '"')
            out += "\\\"";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

void
metricHeader(std::ostringstream &os, const char *name, const char *help,
             const char *type)
{
    os << "# HELP " << name << " " << help << "\n";
    os << "# TYPE " << name << " " << type << "\n";
}

void
summaryMetric(std::ostringstream &os, const char *name,
              const char *help, const HistogramSummary &summary)
{
    metricHeader(os, name, help, "summary");
    os << name << "{quantile=\"0.5\"} " << json::formatDouble(summary.p50)
       << "\n";
    os << name << "{quantile=\"0.9\"} " << json::formatDouble(summary.p90)
       << "\n";
    os << name << "{quantile=\"0.99\"} "
       << json::formatDouble(summary.p99) << "\n";
    os << name << "_sum " << json::formatDouble(summary.approxSum)
       << "\n";
    os << name << "_count " << summary.count << "\n";
}

void
labeledCounts(std::ostringstream &os, const char *name,
              const char *help, const char *label,
              const std::map<std::string, std::uint64_t> &counts)
{
    metricHeader(os, name, help, "counter");
    for (const auto &[key, count] : counts)
        os << name << "{" << label << "=\"" << escapeLabel(key)
           << "\"} " << count << "\n";
}

} // namespace

std::string
prometheusText(const FleetStatus &status)
{
    std::ostringstream os;
    metricHeader(os, "xed_campaign_info",
                 "Campaign identity; the value is always 1.", "gauge");
    os << "xed_campaign_info{name=\"" << escapeLabel(status.name)
       << "\",specHash=\"" << escapeLabel(status.specHash)
       << "\",source=\"" << escapeLabel(status.source) << "\"} 1\n";

    metricHeader(os, "xed_campaign_complete",
                 "1 when every planned shard is committed.", "gauge");
    os << "xed_campaign_complete " << (status.complete ? 1 : 0) << "\n";

    metricHeader(os, "xed_shards_planned",
                 "Shards in the campaign plan.", "gauge");
    os << "xed_shards_planned " << status.shardsTotal << "\n";

    metricHeader(os, "xed_shards",
                 "Shards by state (done / claimed / pending).", "gauge");
    os << "xed_shards{state=\"done\"} " << status.shardsDone << "\n";
    os << "xed_shards{state=\"claimed\"} " << status.shardsClaimed
       << "\n";
    os << "xed_shards{state=\"pending\"} " << status.shardsPending
       << "\n";

    metricHeader(os, "xed_units_done_total",
                 "Simulated units committed to the store.", "counter");
    os << "xed_units_done_total " << status.unitsDone << "\n";
    if (status.unitsTotal) {
        metricHeader(os, "xed_units_planned",
                     "Units in the campaign plan.", "gauge");
        os << "xed_units_planned " << *status.unitsTotal << "\n";
    }

    metricHeader(os, "xed_failed_units_total",
                 "Failed (or detection-escaped) units committed.",
                 "counter");
    os << "xed_failed_units_total " << status.failedUnits << "\n";
    labeledCounts(os, "xed_cell_failures_total",
                  "Failed units per campaign cell.", "cell",
                  status.failuresByCell);
    labeledCounts(os, "xed_failure_type_total",
                  "Failed units per failure type.", "type",
                  status.failuresByType);
    labeledCounts(os, "xed_detection_outcome_total",
                  "Forensics detection-outcome counts.", "outcome",
                  status.outcomes);

    metricHeader(os, "xed_units_per_second",
                 "Summed last-reported rate of live and stale workers.",
                 "gauge");
    os << "xed_units_per_second "
       << json::formatDouble(status.unitsPerSec) << "\n";
    if (status.etaSeconds) {
        metricHeader(os, "xed_eta_seconds",
                     "Estimated seconds until the plan completes.",
                     "gauge");
        os << "xed_eta_seconds " << json::formatDouble(*status.etaSeconds)
           << "\n";
    }

    metricHeader(os, "xed_workers", "Workers by liveness state.",
                 "gauge");
    std::map<std::string, std::uint64_t> byState = {
        {"live", 0}, {"stale", 0}, {"dead", 0},
        {"done", 0}, {"aborted", 0},
    };
    for (const WorkerStatus &worker : status.workers)
        ++byState[workerLivenessName(worker.liveness)];
    for (const auto &[state, count] : byState)
        os << "xed_workers{state=\"" << state << "\"} " << count << "\n";

    metricHeader(os, "xed_worker_up",
                 "1 while a worker's heartbeat is within the lease "
                 "lifetime.",
                 "gauge");
    for (const WorkerStatus &worker : status.workers)
        os << "xed_worker_up{worker=\"" << escapeLabel(worker.id)
           << "\"} "
           << (worker.liveness == WorkerLiveness::Live ||
                       worker.liveness == WorkerLiveness::Stale
                   ? 1
                   : 0)
           << "\n";
    metricHeader(os, "xed_worker_heartbeat_age_seconds",
                 "Seconds since a worker's freshest heartbeat.",
                 "gauge");
    for (const WorkerStatus &worker : status.workers)
        if (worker.heartbeatAgeSeconds)
            os << "xed_worker_heartbeat_age_seconds{worker=\""
               << escapeLabel(worker.id) << "\"} "
               << json::formatDouble(*worker.heartbeatAgeSeconds)
               << "\n";
    metricHeader(os, "xed_worker_shards_done_total",
                 "Shards committed per worker (self-reported).",
                 "counter");
    for (const WorkerStatus &worker : status.workers)
        os << "xed_worker_shards_done_total{worker=\""
           << escapeLabel(worker.id) << "\"} " << worker.shardsDone
           << "\n";
    metricHeader(os, "xed_worker_units_per_second",
                 "Last-reported per-worker simulation rate.", "gauge");
    for (const WorkerStatus &worker : status.workers)
        os << "xed_worker_units_per_second{worker=\""
           << escapeLabel(worker.id) << "\"} "
           << json::formatDouble(worker.unitsPerSec) << "\n";

    metricHeader(os, "xed_telemetry_skipped_lines_total",
                 "Torn or unknown telemetry lines skipped by the "
                 "tolerant reader.",
                 "counter");
    os << "xed_telemetry_skipped_lines_total "
       << status.skippedTelemetryLines << "\n";
    metricHeader(os, "xed_damaged_fragments_total",
                 "Committed fragments or store lines that failed to "
                 "parse.",
                 "counter");
    os << "xed_damaged_fragments_total " << status.damagedFragments
       << "\n";

    summaryMetric(os, "xed_shard_seconds",
                  "Exact cross-worker shard wall-time distribution "
                  "(merged histogram buckets).",
                  status.shardSeconds);
    summaryMetric(os, "xed_shard_units_per_second",
                  "Exact cross-worker per-shard simulation rate "
                  "distribution.",
                  status.shardUnitsPerSec);
    return os.str();
}

std::string
dashboardHtml()
{
    // Static page; all live data arrives via fetch("status.json"), so
    // the server never renders HTML from campaign state.
    return R"HTML(<!doctype html>
<html>
<head>
<meta charset="utf-8">
<title>xed fleet status</title>
<style>
body { font-family: ui-monospace, monospace; margin: 2em; background: #111; color: #ddd; }
h1 { font-size: 1.2em; } h1 small { color: #888; font-weight: normal; }
table { border-collapse: collapse; margin-top: 1em; }
th, td { padding: 0.25em 0.9em; text-align: left; border-bottom: 1px solid #333; }
th { color: #888; font-weight: normal; }
.bar { width: 28em; height: 1em; background: #333; margin: 0.6em 0; }
.bar div { height: 100%; background: #4a8; }
.live { color: #6c6; } .stale { color: #cc6; } .dead { color: #c66; }
.done { color: #69c; } .aborted { color: #c69; }
#error { color: #c66; }
</style>
</head>
<body>
<h1>xed fleet <small id="ident"></small></h1>
<div id="error"></div>
<div id="summary"></div>
<div class="bar"><div id="fill" style="width:0"></div></div>
<div id="rate"></div>
<table id="workers"></table>
<script>
function cell(tag, text, cls) {
  const el = document.createElement(tag);
  el.textContent = text;
  if (cls) el.className = cls;
  return el;
}
async function refresh() {
  try {
    const response = await fetch("status.json");
    const s = await response.json();
    document.getElementById("error").textContent = s.error || "";
    if (!s.error) {
      document.getElementById("ident").textContent =
        s.name + " (" + s.specHash + ")";
      document.getElementById("summary").textContent =
        "shards " + s.shards.done + "/" + s.shards.total +
        " done, " + s.shards.claimed + " claimed, " +
        s.shards.pending + " pending" +
        (s.complete ? " — complete" : "") +
        " · units " + s.units.done +
        (s.units.total ? "/" + s.units.total : "") +
        " · failures " + s.failures.total;
      const frac = s.shards.total ? s.shards.done / s.shards.total : 0;
      document.getElementById("fill").style.width =
        (100 * frac).toFixed(1) + "%";
      document.getElementById("rate").textContent =
        s.throughput.unitsPerSec.toFixed(1) + " units/s" +
        (s.throughput.etaSeconds !== undefined
          ? " · eta " + s.throughput.etaSeconds.toFixed(0) + " s" : "") +
        " · shard p50/p90/p99 " +
        s.throughput.shardSeconds.p50.toFixed(2) + "/" +
        s.throughput.shardSeconds.p90.toFixed(2) + "/" +
        s.throughput.shardSeconds.p99.toFixed(2) + " s";
      const table = document.getElementById("workers");
      table.replaceChildren();
      if (s.workers.length) {
        const head = document.createElement("tr");
        for (const h of ["worker", "state", "beat", "shards",
                         "units", "failed", "units/s"])
          head.appendChild(cell("th", h));
        table.appendChild(head);
        for (const w of s.workers) {
          const row = document.createElement("tr");
          row.appendChild(cell("td", w.id));
          row.appendChild(cell("td", w.state, w.state));
          row.appendChild(cell("td",
            w.heartbeatAgeSeconds !== undefined
              ? w.heartbeatAgeSeconds.toFixed(1) + "s" : "—"));
          row.appendChild(cell("td", w.shardsDone));
          row.appendChild(cell("td", w.unitsDone));
          row.appendChild(cell("td", w.failedUnits));
          row.appendChild(cell("td", w.unitsPerSec.toFixed(1)));
          table.appendChild(row);
        }
      }
    }
  } catch (e) {
    document.getElementById("error").textContent = String(e);
  }
  setTimeout(refresh, 2000);
}
refresh();
</script>
</body>
</html>
)HTML";
}

bool
statusEndpoint(const std::string &httpPath,
               const std::string &sourcePath,
               const StatusOptions &options, int *statusCode,
               std::string *contentType, std::string *body)
{
    if (httpPath == "/" || httpPath == "/index.html") {
        *statusCode = 200;
        *contentType = "text/html; charset=utf-8";
        *body = dashboardHtml();
        return true;
    }
    if (httpPath == "/status.json") {
        const FleetStatus status =
            scanStatusSource(sourcePath, options);
        *statusCode = status.ok ? 200 : 503;
        *contentType = "application/json";
        *body = json::dump(statusJson(status)) + "\n";
        return true;
    }
    if (httpPath == "/metrics") {
        const FleetStatus status =
            scanStatusSource(sourcePath, options);
        if (!status.ok) {
            *statusCode = 503;
            *contentType = "text/plain; charset=utf-8";
            *body = status.error + "\n";
            return true;
        }
        *statusCode = 200;
        // The Prometheus text exposition format's registered type.
        *contentType = "text/plain; version=0.0.4; charset=utf-8";
        *body = prometheusText(status);
        return true;
    }
    return false;
}

} // namespace xed::campaign
