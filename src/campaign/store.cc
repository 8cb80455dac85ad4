#include "campaign/store.hh"

#include <cstring>
#include <filesystem>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "campaign/forensics.hh"
#include "obs/trace.hh"

namespace xed::campaign
{

namespace
{

/** Per-cohort series fields, in the fleet payload's canonical order. */
constexpr const char *cohortSeriesKeys[] = {
    "installs", "removals", "due", "sdc", "replacements", "retirements",
};

const std::vector<std::uint64_t> *
cohortSeriesField(const fleet::CohortSeries &series, std::size_t field)
{
    const std::vector<std::uint64_t> *fields[] = {
        &series.installs,     &series.removals,     &series.due,
        &series.sdc,          &series.replacements, &series.retirements,
    };
    return fields[field];
}

std::vector<std::uint64_t> *
cohortSeriesField(fleet::CohortSeries &series, std::size_t field)
{
    return const_cast<std::vector<std::uint64_t> *>(cohortSeriesField(
        static_cast<const fleet::CohortSeries &>(series), field));
}

json::Value
fleetResultToJson(const fleet::FleetResult &fleet)
{
    auto result = json::Value::object();
    auto cohorts = json::Value::array();
    for (const auto &series : fleet.cohorts) {
        auto entry = json::Value::object();
        for (std::size_t f = 0; f < std::size(cohortSeriesKeys); ++f) {
            auto deltas = json::Value::array();
            for (const std::uint64_t v : *cohortSeriesField(series, f))
                deltas.push(v);
            entry.set(cohortSeriesKeys[f], std::move(deltas));
        }
        const auto attribution = attributionJson(series.attribution);
        entry.set("failures", *attribution.find("failures"));
        entry.set("outcomes", *attribution.find("outcomes"));
        cohorts.push(std::move(entry));
    }
    result.set("cohorts", std::move(cohorts));
    return result;
}

bool
fleetResultFromJson(const json::Value &result, const CampaignSpec &spec,
                    fleet::FleetResult &fleet)
{
    const unsigned epochs = fleetConfigFor(spec).epochs();
    const json::Value *cohorts = result.find("cohorts");
    if (!cohorts || !cohorts->isArray() ||
        cohorts->size() != spec.fleet.cohorts.size())
        return false;
    fleet.cohorts.resize(cohorts->size());
    for (std::size_t c = 0; c < cohorts->size(); ++c) {
        const json::Value &entry = cohorts->at(c);
        if (!entry.isObject())
            return false;
        fleet::CohortSeries &series = fleet.cohorts[c];
        series.resize(epochs);
        for (std::size_t f = 0; f < std::size(cohortSeriesKeys); ++f) {
            const json::Value *deltas = entry.find(cohortSeriesKeys[f]);
            if (!deltas || !deltas->isArray() ||
                deltas->size() != epochs)
                return false;
            std::vector<std::uint64_t> &field =
                *cohortSeriesField(series, f);
            for (unsigned e = 0; e < epochs; ++e) {
                if (!deltas->at(e).isIntegral())
                    return false;
                field[e] = deltas->at(e).asUint();
            }
        }
        if (!parseAttribution(entry, series.attribution, nullptr))
            return false;
    }
    return true;
}

json::Value
mcResultToJson(const faultsim::McResult &mc)
{
    auto result = json::Value::object();
    auto years = json::Value::array();
    for (unsigned y = 1; y <= 7; ++y) {
        auto pair = json::Value::array();
        pair.push(mc.failByYear[y].successes());
        pair.push(mc.failByYear[y].trials());
        years.push(std::move(pair));
    }
    result.set("failByYear", std::move(years));
    auto types = json::Value::object();
    for (const auto &[name, count] : mc.failureTypes.all())
        types.set(name, count);
    result.set("failureTypes", std::move(types));
    return result;
}

bool
mcResultFromJson(const json::Value &result, faultsim::McResult &mc)
{
    const json::Value *years = result.find("failByYear");
    if (!years || !years->isArray() || years->size() != 7)
        return false;
    for (unsigned y = 1; y <= 7; ++y) {
        const json::Value &pair = years->at(y - 1);
        if (!pair.isArray() || pair.size() != 2 ||
            !pair.at(0).isIntegral() || !pair.at(1).isIntegral())
            return false;
        mc.failByYear[y].addMany(pair.at(0).asUint(),
                                 pair.at(1).asUint());
    }
    const json::Value *types = result.find("failureTypes");
    if (!types || !types->isObject())
        return false;
    for (const auto &[name, count] : types->members()) {
        if (!count.isIntegral())
            return false;
        mc.failureTypes.inc(name, count.asUint());
    }
    return true;
}

} // namespace

json::Value
manifestRecord(const CampaignSpec &spec, const Plan &plan,
               const std::string &hash)
{
    auto record = json::Value::object();
    record.set("type", "manifest");
    record.set("format", storeFormatVersion);
    record.set("specHash", hash);
    record.set("spec", specToJson(spec));
    record.set("points", plan.points);
    record.set("cells", plan.cells);
    record.set("shards", std::uint64_t{plan.tasks.size()});
    return record;
}

json::Value
shardRecord(const CampaignSpec &spec, const ShardTask &task,
            const ShardResult &result)
{
    auto record = json::Value::object();
    record.set("type", "shard");
    record.set("index", task.index);
    record.set("point", task.point);
    record.set("cell", task.cell);
    record.set("label", cellLabel(spec, task.cell));
    record.set("begin", task.begin);
    record.set("end", task.end);
    if (spec.kind == CampaignKind::Reliability) {
        record.set("result", mcResultToJson(result.mc));
    } else if (spec.kind == CampaignKind::Fleet) {
        record.set("result", fleetResultToJson(result.fleet));
    } else {
        auto payload = json::Value::object();
        payload.set("detected", result.detected);
        payload.set("trials", result.trials);
        record.set("result", std::move(payload));
    }
    return record;
}

bool
shardRecordMatches(const json::Value &record, const ShardTask &task)
{
    const json::Value *point = record.find("point");
    const json::Value *cell = record.find("cell");
    const json::Value *begin = record.find("begin");
    const json::Value *end = record.find("end");
    return point && point->isIntegral() && point->asUint() == task.point &&
           cell && cell->isIntegral() && cell->asUint() == task.cell &&
           begin && begin->isIntegral() && begin->asUint() == task.begin &&
           end && end->isIntegral() && end->asUint() == task.end;
}

ShardResult
shardResultFromJson(const CampaignSpec &spec, const json::Value &record)
{
    ShardResult out;
    const json::Value *result = record.find("result");
    if (!result || !result->isObject())
        return out;
    if (spec.kind == CampaignKind::Reliability) {
        faultsim::McResult mc;
        if (mcResultFromJson(*result, mc))
            out.mc = mc;
    } else if (spec.kind == CampaignKind::Fleet) {
        fleet::FleetResult fleet;
        if (fleetResultFromJson(*result, spec, fleet))
            out.fleet = std::move(fleet);
    } else {
        const json::Value *detected = result->find("detected");
        const json::Value *trials = result->find("trials");
        if (detected && detected->isIntegral() && trials &&
            trials->isIntegral()) {
            out.detected = detected->asUint();
            out.trials = trials->asUint();
        }
    }
    return out;
}

bool
durableWritesEnabled()
{
    const char *knob = std::getenv("XED_NO_FSYNC");
    return !(knob && std::strcmp(knob, "1") == 0);
}

bool
fsyncPath(const std::string &path, std::string *error)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0 || ::fsync(fd) != 0) {
        if (fd >= 0)
            ::close(fd);
        if (error)
            *error = "fsync failed on " + path;
        return false;
    }
    ::close(fd);
    return true;
}

bool
fsyncParentDir(const std::string &path, std::string *error)
{
    std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (parent.empty())
        parent = ".";
    return fsyncPath(parent.string(), error);
}

StoreWriter::~StoreWriter()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
StoreWriter::open(const std::string &path, long long appendAt,
                  std::string *error, bool durable)
{
    path_ = path;
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    if (appendAt >= 0) {
        std::error_code ec;
        std::filesystem::resize_file(path, appendAt, ec);
        if (ec) {
            if (error)
                *error = "cannot truncate " + path + ": " + ec.message();
            return false;
        }
        out_.open(path, std::ios::binary | std::ios::app);
    } else {
        out_.open(path, std::ios::binary | std::ios::trunc);
    }
    if (!out_) {
        if (error)
            *error = "cannot open result file " + path;
        return false;
    }
    if (durable && durableWritesEnabled()) {
        fd_ = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
        if (fd_ < 0) {
            if (error)
                *error = "cannot open fsync descriptor for " + path;
            return false;
        }
    }
    return true;
}

bool
StoreWriter::write(const json::Value &record, std::string *error)
{
    return writeLine(json::dump(record), error);
}

bool
StoreWriter::writeLine(const std::string &line, std::string *error)
{
    XED_TRACE_SPAN("store.write", "io");
    out_ << line << '\n';
    out_.flush();
    if (!out_) {
        if (error)
            *error = "write failed on " + path_;
        return false;
    }
    // The ofstream flush only moves the record into the page cache; a
    // host crash there would break the documented kill-safe contract
    // (store.hh), so push it to stable storage before reporting the
    // record as written.
    if (fd_ >= 0 && ::fsync(fd_) != 0) {
        if (error)
            *error = "fsync failed on " + path_;
        return false;
    }
    return true;
}

LoadedStore
loadStore(const std::string &path, const std::string &expectedHash,
          const CampaignSpec &spec, const Plan &plan)
{
    LoadedStore loaded;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        loaded.error = "cannot open " + path;
        return loaded;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    loaded.shardResults.resize(plan.tasks.size());
    bool sawManifest = false;
    std::size_t lineStart = 0;
    while (lineStart < text.size()) {
        const std::size_t newline = text.find('\n', lineStart);
        if (newline == std::string::npos) {
            // Torn final line (killed mid-write): resume from here.
            break;
        }
        const std::string_view line(text.data() + lineStart,
                                    newline - lineStart);
        std::string parseError;
        const auto record = json::parse(line, &parseError);
        if (!record || !record->isObject()) {
            if (!sawManifest) {
                loaded.error = path + ": first line is not a valid "
                               "manifest record";
                return loaded;
            }
            // A malformed *interior* line means the file was edited or
            // corrupted, not torn by a kill; refuse to guess.
            loaded.error = path + ": corrupt record at byte " +
                           std::to_string(lineStart) + ": " + parseError;
            return loaded;
        }
        const json::Value *type = record->find("type");
        const std::string typeName =
            type && type->isString() ? type->asString() : "";
        if (!sawManifest) {
            if (typeName != "manifest") {
                loaded.error = path + ": first record must be a manifest";
                return loaded;
            }
            const json::Value *format = record->find("format");
            if (!format || !format->isIntegral() ||
                format->asInt() != storeFormatVersion) {
                loaded.error = path + ": unsupported store format";
                return loaded;
            }
            const json::Value *hash = record->find("specHash");
            if (!hash || !hash->isString() ||
                hash->asString() != expectedHash) {
                loaded.error =
                    path + ": spec hash mismatch (file " +
                    (hash && hash->isString() ? hash->asString() : "?") +
                    ", spec " + expectedHash +
                    "); refusing to resume a different campaign";
                return loaded;
            }
            const json::Value *shards = record->find("shards");
            if (!shards || !shards->isIntegral() ||
                shards->asUint() != plan.tasks.size()) {
                loaded.error = path + ": manifest shard count does not "
                               "match the spec's plan";
                return loaded;
            }
            sawManifest = true;
        } else if (typeName == "shard") {
            const json::Value *index = record->find("index");
            if (!index || !index->isIntegral() ||
                index->asUint() != loaded.completedShards) {
                loaded.error = path + ": shard records out of order at "
                               "byte " + std::to_string(lineStart);
                return loaded;
            }
            if (loaded.completedShards >= plan.tasks.size()) {
                loaded.error = path + ": more shard records than the "
                               "plan has shards";
                return loaded;
            }
            const ShardTask &task = plan.tasks[loaded.completedShards];
            if (!shardRecordMatches(*record, task)) {
                loaded.error = path + ": shard record " +
                               std::to_string(task.index) +
                               " does not match the spec's plan";
                return loaded;
            }
            loaded.shardResults[loaded.completedShards] =
                shardResultFromJson(spec, *record);
            ++loaded.completedShards;
        } else if (typeName == "summary") {
            loaded.hasSummary = true;
        } else {
            loaded.error = path + ": unknown record type \"" + typeName +
                           "\" at byte " + std::to_string(lineStart);
            return loaded;
        }
        lineStart = newline + 1;
        loaded.validBytes = static_cast<long long>(lineStart);
        if (loaded.hasSummary)
            break;
    }
    if (!sawManifest) {
        loaded.error = path + ": no complete manifest record";
        return loaded;
    }
    if (loaded.hasSummary && loaded.completedShards != plan.tasks.size()) {
        loaded.error = path + ": summary present but shards missing";
        return loaded;
    }
    loaded.ok = true;
    return loaded;
}

} // namespace xed::campaign
