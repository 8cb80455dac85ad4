/**
 * @file
 * xedbench: runs one benchmark workload and prints its result.
 *
 *   xedbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            --work-dir <dir> [--spans <file>]
 *   xedbench --print-spec <workload> --seed <n>
 *   xedbench --list-metrics
 *
 * stdout: one provenance line, then the result as the last line:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
 * --trace 0 emits the end-to-end metrics, --trace 1 the per-layer ones.
 */

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "common/build_info.hh"
#include "common/simd.hh"

using namespace xedbench;
using xed::json::Value;

namespace
{

std::uint64_t
parseU64(const std::string &flag, const std::string &text)
{
    std::uint64_t value = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || end != text.data() + text.size())
        throw std::runtime_error(flag + ": not a whole number: " + text);
    return value;
}

Value
provenance(const Options &options)
{
    auto p = Value::object();
    p.set("workload", options.workload);
    p.set("seed", options.seed);
    p.set("gitDescribe", xed::buildGitDescribe());
    p.set("buildType", xed::buildType());
    p.set("compiler", xed::buildCompiler());
    p.set("flags", xed::buildFlags());
    p.set("simdResolved", xed::simdLevelName(xed::simdLevel()));
    p.set("simdDetected", xed::simdLevelName(xed::simdDetectedLevel()));
    p.set("simdOverride", xed::simdOverride());
    p.set("nproc", std::thread::hardware_concurrency());
    p.set("threads", options.threads);
    p.set("seconds", options.seconds);
    p.set("trace", options.trace);
    return p;
}

int
run(int argc, char **argv)
{
    Options options;
    std::string printSpec;
    bool listMetrics = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--list-metrics") {
            listMetrics = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::runtime_error(flag + ": missing value");
        const std::string value = argv[++i];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = parseU64(flag, value);
        else if (flag == "--seconds")
            options.seconds = static_cast<double>(parseU64(flag, value));
        else if (flag == "--trace")
            options.trace = parseU64(flag, value) != 0;
        else if (flag == "--work-dir")
            options.workDir = value;
        else if (flag == "--spans")
            options.spansPath = value;
        else if (flag == "--print-spec")
            printSpec = value;
        else
            throw std::runtime_error("unknown flag " + flag);
    }
    options.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

    if (listMetrics) {
        auto doc = Value::object();
        for (const auto &[key, defs] :
             {std::pair{"end_to_end", &endToEndMetrics()},
              std::pair{"per_layer", &perLayerMetrics()}}) {
            auto list = Value::array();
            for (const MetricDef &def : *defs) {
                auto entry = Value::object();
                entry.set("name", def.name);
                entry.set("unit", def.unit);
                list.push(std::move(entry));
            }
            doc.set(key, std::move(list));
        }
        auto names = Value::array();
        for (const auto &name : workloadNames())
            names.push(name);
        doc.set("workloads", std::move(names));
        std::cout << xed::json::dump(doc) << "\n";
        return 0;
    }
    if (!printSpec.empty()) {
        std::cout << xed::json::dump(campaignSpecJson(
                         printSpec, options.seed, options.threads))
                  << "\n";
        return 0;
    }
    if (options.workload.empty() || options.workDir.empty())
        throw std::runtime_error("--workload and --work-dir are required");

    std::filesystem::remove_all(options.workDir);
    std::filesystem::create_directories(options.workDir);
    syncFilesystem(options.workDir);
    Outcome outcome = runWorkload(options);
    std::filesystem::remove_all(options.workDir);
    syncFilesystem(std::filesystem::path(options.workDir)
                       .parent_path()
                       .string());

    auto head = Value::object();
    Value prov = provenance(options);
    for (const auto &[key, value] : outcome.provenance.members())
        prov.set(key, value);
    head.set("provenance", std::move(prov));
    head.set("digest", outcome.digest);
    auto outputs = Value::object();
    outputs.set("run", outcome.runOutputs);
    outputs.set("replay", outcome.replayOutputs);
    head.set("outputs", std::move(outputs));
    std::cout << xed::json::dump(head) << "\n";

    auto result = Value::object();
    result.set("correct", outcome.checks.failed() == 0);
    result.set("attempted", outcome.checks.attempted());
    result.set("failed", outcome.checks.failed());
    result.set("metrics", outcome.metrics);
    std::cout << xed::json::dump(result) << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "xedbench: " << e.what() << "\n";
        return 2;
    }
}
