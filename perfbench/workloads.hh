/**
 * @file
 * Internal helpers shared by the campaign and perfsim workloads.
 */

#ifndef XEDBENCH_WORKLOADS_HH
#define XEDBENCH_WORKLOADS_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench.hh"

namespace xedbench
{

/** Raw times of each measured repetition, and the machine speed
 *  measured around it. */
struct RepTimes
{
    std::vector<double> setup;  ///< set-up samples, already normalized
    std::vector<double> wall;   ///< untraced walls (the workload pushes)
    std::vector<double> cpu;    ///< untraced CPU seconds (the workload pushes)
    std::vector<double> speed;  ///< referenceFactor() around each rep
    std::vector<double> traced; ///< traced-replay walls (trace mode)
};

/**
 * One warm-up repetition (untimed but checked), then repetitions until
 * @p seconds have passed, at least @p minReps of them. Each repetition
 * is preceded by 50 timed set-ups, so the set-up median covers the
 * same stretch of time as the throughput median, and bracketed by the
 * reference job, whose mean time sets that repetition's speed factor.
 * In trace mode every untraced repetition is followed by one traced
 * replay, so both see the same machine conditions.
 */
void repeatFor(const Options &options, unsigned minReps,
               const std::function<double()> &setUp,
               const std::function<void(bool timed)> &untraced,
               const std::function<void()> &traced, RepTimes &times);

/** Per-layer metric values of one traced replay. */
using LayerSample = std::map<std::string, double>;

/**
 * Emit the end-to-end metrics (untraced mode) from the set-up samples
 * and measured repetitions, @p units of work per repetition, with every
 * time normalized by its repetition's speed factor.
 */
void emitEndToEnd(Outcome &out, const RepTimes &times, double units);

/**
 * Emit every per-layer metric (traced mode): @p fixed values (exact
 * counts and probes) as given, otherwise the median over the traced
 * replays' samples.
 */
void emitPerLayer(Outcome &out, const std::vector<LayerSample> &samples,
                  const LayerSample &fixed, const RepTimes &times);

/** Mean |ln(measured / paper)| over paired values. */
double paperDeviation(const std::vector<double> &measured,
                      const std::vector<double> &paper);

std::string readFile(const std::string &path);
bool writeFile(const std::string &path, const std::string &text);

Outcome runCampaignWorkload(const Options &options);
Outcome runPerfWorkload(const Options &options);

} // namespace xedbench

#endif // XEDBENCH_WORKLOADS_HH
