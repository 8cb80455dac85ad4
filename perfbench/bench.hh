/**
 * @file
 * Shared pieces of the xedbench program: run options, the correctness
 * ledger, the metric sheet, the in-memory span recorder the traced
 * replays write into, and the entry point of each workload.
 *
 * The benchmark measures the library from the outside: every span is
 * recorded here, around calls into the modules' public functions, and
 * nothing inside src/ is instrumented for it.
 */

#ifndef XEDBENCH_BENCH_HH
#define XEDBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hh"

namespace xedbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory for stores and sidecars (created, emptied). */
    std::string workDir;
    /** Where the traced replay's spans are written at the end. */
    std::string spansPath;
    /** Worker threads for campaigns: min(4, hardware threads). */
    unsigned threads = 1;
};

/** The seed at which each workload's outputs must match its digest. */
constexpr std::uint64_t defaultSeed = 1;

/**
 * The seed a workload's simulation gets at benchmark seed @p seed: a
 * splitmix64 finalizer over the paper setup's own seed @p base and
 * @p seed, kept below 2^53 so it round-trips through a JSON spec.
 */
std::uint64_t mixSeed(std::uint64_t base, std::uint64_t seed);

/** Correctness ledger: every check is one attempted operation. */
class Checks
{
  public:
    /** Record one check; a failure is reported on stderr. */
    bool check(bool ok, const std::string &what);
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** What one workload run hands back to main(). */
struct Outcome
{
    Checks checks;
    /** {name: {"value": v, "unit": u}} in declaration order. */
    xed::json::Value metrics = xed::json::Value::object();
    /** FNV-1a digest of the simulated results (the correctness gate). */
    std::string digest;
    /** Digests of the untraced run's output bytes (store + sidecar, or
     *  every run's cycles and MemStats) and of the last traced replay's. */
    std::string runOutputs;
    std::string replayOutputs;
    /** Provenance fields this workload adds (spec hash etc.). */
    xed::json::Value provenance = xed::json::Value::object();
};

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);
/** Process CPU time, all threads, user + system. */
double processCpuSeconds();
/** Peak resident set of this process in MiB. */
double peakRssMb();
/**
 * The reference job: a fixed mix of integer hashing, dependent loads
 * over a 256 KiB table and small-object allocation churn, independent
 * of the library. Its time tracks how fast this machine runs right now
 * (a shared host speeds up and slows down by tens of percent over
 * tens of seconds); end-to-end times are divided by its time relative
 * to referenceNominalSeconds, measured around each repetition.
 */
double referenceSeconds();
/** The reference job's median time on the machine the benchmark was
 *  defined on (4-vCPU KVM guest, Xeon at 2.1 GHz, g++ 12 -O3). */
constexpr double referenceNominalSeconds = 0.0100;

/** Commit the filesystem holding @p dir (syncfs), so earlier writes
 *  and deletes are not paid inside a later timed run. */
void syncFilesystem(const std::string &dir);
double median(std::vector<double> values);
/** Linear-interpolated quantile, q in [0, 1]. */
double quantile(std::vector<double> values, double q);

/** 64-bit FNV-1a, streamed. */
class Digest
{
  public:
    void add(const std::string &text);
    void add(std::uint64_t value);
    std::string hex() const;

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

// ---------------------------------------------------------------------
// Spans.

/** One closed span; times are ns since the recorder's epoch. */
struct Span
{
    const char *name = nullptr;
    std::uint64_t id = 0;       ///< shard index or run index
    std::uint32_t thread = 0;   ///< index of the owning ThreadLog
    std::int64_t parent = -1;   ///< index in the same log, -1 = none
    /** Cross-thread cause: (thread, index) of the spawning span. */
    std::uint32_t causeThread = 0;
    std::int64_t cause = -1;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;

    std::uint64_t durNs() const { return endNs - startNs; }
};

class Recorder;

/**
 * Spans of one thread. Not thread-safe: each thread owns its log and
 * hands it to the Recorder when it finishes.
 */
class ThreadLog
{
  public:
    ThreadLog(const Recorder &recorder, std::uint32_t thread);

    /** Open a span under the innermost open one; returns its index. */
    std::size_t open(const char *name, std::uint64_t id = 0);
    void close(std::size_t index);
    /** Link the next root span of this log to a span of another log. */
    void setCause(std::uint32_t thread, std::int64_t index);

    std::uint32_t thread() const { return thread_; }
    const std::vector<Span> &spans() const { return spans_; }
    std::vector<Span> &spans() { return spans_; }

  private:
    const Recorder &recorder_;
    std::uint32_t thread_;
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
    std::uint32_t causeThread_ = 0;
    std::int64_t cause_ = -1;
};

/** RAII span on a ThreadLog. */
class Scope
{
  public:
    Scope(ThreadLog &log, const char *name, std::uint64_t id = 0)
        : log_(log), index_(log.open(name, id))
    {
    }
    ~Scope() { log_.close(index_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    ThreadLog &log_;
    std::size_t index_;
};

/** Collects the logs of one traced replay. */
class Recorder
{
  public:
    Recorder();
    std::uint64_t nowNs() const;
    /** Adopt a finished worker log (thread-safe). */
    void adopt(ThreadLog &&log);
    std::vector<ThreadLog> &logs() { return logs_; }
    const std::vector<ThreadLog> &logs() const { return logs_; }

    /** Sum of durations of spans named @p name, all threads. */
    double totalSeconds(const std::string &name) const;
    /** Durations (s) of every span named @p name. */
    std::vector<double> durations(const std::string &name) const;
    /**
     * Self time (duration minus the part covered by same-thread child
     * spans) summed per layer, over the spans of log @p thread. The
     * layer of a span is its name up to the first '.'.
     */
    std::map<std::string, double> layerSelfSeconds(
        std::uint32_t thread) const;
    /** Write every span as one JSON line. */
    bool writeJsonl(const std::string &path) const;

  private:
    Clock::time_point epoch_;
    std::mutex mutex_;
    std::vector<ThreadLog> logs_;
};

// ---------------------------------------------------------------------
// Workloads (workloads.cc).

/** Names accepted by --workload, in documentation order. */
const std::vector<std::string> &workloadNames();
/** The generated spec document of a campaign workload at a seed. */
xed::json::Value campaignSpecJson(const std::string &workload,
                                  std::uint64_t seed, unsigned threads);
/** Run one workload; fills checks, metrics, digest, provenance. */
Outcome runWorkload(const Options &options);

/**
 * Every end-to-end (untraced) and per-layer (traced) metric the
 * benchmark emits, with its unit. Each workload emits all of them:
 * a layer the workload does not exercise reads 0 (no time spent, no
 * work done), and paper_dev reads -1 where there is no paper value.
 */
struct MetricDef
{
    const char *name;
    const char *unit;
};
const std::vector<MetricDef> &endToEndMetrics();
const std::vector<MetricDef> &perLayerMetrics();

/** Slack on the traced-replay layer sum: unattributed critical-path
 *  time must stay below this share of the traced wall time. */
constexpr double layerSumSlack = 0.05;

} // namespace xedbench

#endif // XEDBENCH_BENCH_HH
