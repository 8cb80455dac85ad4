#include "workloads.hh"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace xedbench
{

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "mc_fig07", "mc_stress", "detect_table2", "perf_fig11"};
    return names;
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs{
        {"setup_s", "s"},
        {"units_per_s", "units/s"},
        {"cpu_s_per_munit", "s/Munit"},
        {"peak_rss_mb", "MiB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs{
        {"campaign.shard_compute_s", "s"},
        {"campaign.shard_ms_p50", "ms"},
        {"campaign.shard_ms_p90", "ms"},
        {"campaign.serialize_s", "s"},
        {"campaign.forensics_serialize_s", "s"},
        {"campaign.write_s", "s"},
        {"campaign.fsync_s", "s"},
        {"campaign.fsyncs", "count"},
        {"campaign.bytes_written", "count"},
        {"campaign.thread_util", "fraction"},
        {"faultsim.zero_filter_ns_per_system", "ns"},
        {"faultsim.survivor_frac", "fraction"},
        {"faultsim.systems", "count"},
        {"faultsim.shard_ns_per_system.secded", "ns"},
        {"faultsim.shard_ns_per_system.xed", "ns"},
        {"faultsim.shard_ns_per_system.chipkill", "ns"},
        {"faultsim.eval_ns_per_survivor.secded", "ns"},
        {"faultsim.eval_ns_per_survivor.xed", "ns"},
        {"faultsim.eval_ns_per_survivor.chipkill", "ns"},
        {"faultsim.failures.secded", "count"},
        {"faultsim.failures.xed", "count"},
        {"faultsim.failures.chipkill", "count"},
        {"ecc.detect_ns_per_word.hamming7264", "ns"},
        {"ecc.detect_ns_per_word.crc8atm", "ns"},
        {"ecc.pattern_fill_ns_per_word.random", "ns"},
        {"ecc.pattern_fill_ns_per_word.burst", "ns"},
        {"ecc.escapes", "count"},
        {"perfsim.simulate_ms.baseline", "ms"},
        {"perfsim.simulate_ms.xed", "ms"},
        {"perfsim.simulate_ms.chipkill", "ms"},
        {"perfsim.simulate_ms.xed_chipkill", "ms"},
        {"perfsim.simulate_ms.double_chipkill", "ms"},
        {"perfsim.host_ns_per_cycle.low_mpki", "ns"},
        {"perfsim.host_ns_per_cycle.high_mpki", "ns"},
        {"perfsim.memsys_ns_per_cycle.idle", "ns"},
        {"perfsim.memsys_ns_per_cycle.busy", "ns"},
        {"perfsim.tracegen_ns_per_op", "ns"},
        {"perfsim.power_us_per_run", "us"},
        {"perfsim.sim_cycles", "count"},
        {"perfsim.bus_util.low_mpki", "fraction"},
        {"perfsim.bus_util.high_mpki", "fraction"},
        {"perfsim.row_hit_rate", "fraction"},
        {"sim_cycles_per_s", "cycles/s"},
        {"paper_dev", "log-ratio"},
        {"bench.trace_overhead_frac", "fraction"},
        {"bench.unattributed_frac", "fraction"},
    };
    return defs;
}

void
repeatFor(const Options &options, unsigned minReps,
          const std::function<double()> &setUp,
          const std::function<void(bool timed)> &untraced,
          const std::function<void()> &traced, RepTimes &times)
{
    constexpr unsigned setUpsPerRep = 50;
    std::vector<double> setups(setUpsPerRep);
    const auto t0 = Clock::now();
    for (unsigned rep = 0;
         rep <= minReps || secondsSince(t0) < options.seconds; ++rep) {
        const double before = referenceSeconds();
        for (double &seconds : setups)
            seconds = setUp();
        untraced(rep > 0);
        const double speed =
            (before + referenceSeconds()) / (2 * referenceNominalSeconds);
        if (rep > 0) {
            times.speed.push_back(speed);
            for (const double seconds : setups)
                times.setup.push_back(seconds / speed);
        }
        if (options.trace && rep > 0)
            traced();
    }
}

namespace
{

/** Set every metric of @p defs, with its unit, from @p values. A
 *  per-layer metric the workload does not run reads 0, and paper_dev
 *  reads -1 where there is no paper value. */
void
setMetrics(Outcome &out, const std::vector<MetricDef> &defs,
           const LayerSample &values)
{
    for (const MetricDef &def : defs) {
        const auto it = values.find(def.name);
        auto entry = xed::json::Value::object();
        entry.set("value", it != values.end()
                               ? it->second
                               : std::string_view(def.name) == "paper_dev"
                                     ? -1.0
                                     : 0.0);
        entry.set("unit", def.unit);
        out.metrics.set(def.name, std::move(entry));
    }
}

} // namespace

void
emitEndToEnd(Outcome &out, const RepTimes &times, double units)
{
    std::vector<double> rates, cpuPerMunit, rawRates, rawCpu;
    for (std::size_t i = 0; i < times.wall.size(); ++i) {
        const double speed = times.speed[i];
        rates.push_back(units / (times.wall[i] / speed));
        cpuPerMunit.push_back(times.cpu[i] / speed / units * 1e6);
        rawRates.push_back(units / times.wall[i]);
        rawCpu.push_back(times.cpu[i] / units * 1e6);
    }
    setMetrics(out, endToEndMetrics(),
               {{"setup_s", median(times.setup)},
                {"units_per_s", median(rates)},
                {"cpu_s_per_munit", median(cpuPerMunit)},
                {"peak_rss_mb", peakRssMb()}});
    const auto array = [](const std::vector<double> &values) {
        auto out = xed::json::Value::array();
        for (const double v : values)
            out.push(v);
        return out;
    };
    out.provenance.set("repWallSeconds", array(times.wall));
    out.provenance.set("repSpeedFactors", array(times.speed));
    out.provenance.set("rawUnitsPerS", median(rawRates));
    out.provenance.set("rawCpuSPerMunit", median(rawCpu));
}

void
emitPerLayer(Outcome &out, const std::vector<LayerSample> &samples,
             const LayerSample &fixed, const RepTimes &times)
{
    LayerSample values = fixed;
    values["bench.trace_overhead_frac"] =
        median(times.traced) / median(times.wall) - 1.0;
    std::map<std::string, std::vector<double>> sampled;
    for (const auto &sample : samples)
        for (const auto &[name, value] : sample)
            sampled[name].push_back(value);
    for (const auto &[name, series] : sampled)
        values.emplace(name, median(series));
    setMetrics(out, perLayerMetrics(), values);
}

double
paperDeviation(const std::vector<double> &measured,
               const std::vector<double> &paper)
{
    double sum = 0;
    for (std::size_t i = 0; i < measured.size(); ++i)
        sum += std::fabs(std::log(measured[i] / paper[i]));
    return measured.empty() ? 0.0 : sum / static_cast<double>(measured.size());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    return static_cast<bool>(out);
}

Outcome
runWorkload(const Options &options)
{
    if (options.workload == "perf_fig11")
        return runPerfWorkload(options);
    for (const auto &name : workloadNames())
        if (name == options.workload)
            return runCampaignWorkload(options);
    throw std::runtime_error("unknown workload " + options.workload);
}

} // namespace xedbench
