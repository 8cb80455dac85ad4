#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <deque>
#include <fstream>
#include <iostream>

#include "bench.hh"

namespace xedbench
{

std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t seed)
{
    std::uint64_t z = base + seed * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return (z ^ (z >> 31)) & ((std::uint64_t{1} << 53) - 1);
}

bool
Checks::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::cerr << "xedbench: check failed: " << what << "\n";
    }
    return ok;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    // VmHWM belongs to this program's address space; getrusage's
    // ru_maxrss would also count the parent's pages before exec.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    return 0;
}

namespace
{
/** Keeps the reference job's result alive past the optimizer. */
volatile std::uint64_t referenceSink = 0;
} // namespace

double
referenceSeconds()
{
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(1 << 16);
        for (std::size_t i = 0; i < t.size(); ++i)
            t[i] = static_cast<std::uint32_t>(i * 2654435761u) &
                   static_cast<std::uint32_t>(t.size() - 1);
        return t;
    }();
    const auto t0 = Clock::now();
    std::uint64_t x = 88172645463325252ull, acc = 0;
    for (unsigned round = 0; round < 40; ++round) {
        std::uint32_t p = round;
        std::deque<std::unique_ptr<std::uint64_t>> queue;
        for (unsigned i = 0; i < 20000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            p = table[(p + static_cast<std::uint32_t>(x)) &
                      (table.size() - 1)];
            acc += p;
            if ((x & 3) == 0)
                queue.push_back(std::make_unique<std::uint64_t>(x));
            if (queue.size() > 32)
                queue.pop_front();
        }
    }
    referenceSink = acc;
    return secondsSince(t0);
}

void
syncFilesystem(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd >= 0) {
        ::syncfs(fd);
        ::close(fd);
    }
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

void
Digest::add(const std::string &text)
{
    for (const unsigned char c : text) {
        hash_ ^= c;
        hash_ *= 0x100000001b3ull;
    }
    // Field separator, so ("ab","c") and ("a","bc") differ.
    hash_ ^= 0xff;
    hash_ *= 0x100000001b3ull;
}

void
Digest::add(std::uint64_t value)
{
    add(std::to_string(value));
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
}

// ---------------------------------------------------------------------

ThreadLog::ThreadLog(const Recorder &recorder, std::uint32_t thread)
    : recorder_(recorder), thread_(thread)
{
}

std::size_t
ThreadLog::open(const char *name, std::uint64_t id)
{
    Span span;
    span.name = name;
    span.id = id;
    span.thread = thread_;
    if (!stack_.empty()) {
        span.parent = static_cast<std::int64_t>(stack_.back());
    } else {
        span.causeThread = causeThread_;
        span.cause = cause_;
    }
    span.startNs = recorder_.nowNs();
    spans_.push_back(span);
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
ThreadLog::close(std::size_t index)
{
    spans_[index].endNs = recorder_.nowNs();
    stack_.pop_back();
}

void
ThreadLog::setCause(std::uint32_t thread, std::int64_t index)
{
    causeThread_ = thread;
    cause_ = index;
}

Recorder::Recorder() : epoch_(Clock::now()) {}

std::uint64_t
Recorder::nowNs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_)
            .count());
}

void
Recorder::adopt(ThreadLog &&log)
{
    std::lock_guard<std::mutex> lock(mutex_);
    logs_.push_back(std::move(log));
}

double
Recorder::totalSeconds(const std::string &name) const
{
    double total = 0;
    for (const double d : durations(name))
        total += d;
    return total;
}

std::vector<double>
Recorder::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const auto &log : logs_)
        for (const auto &span : log.spans())
            if (name == span.name)
                out.push_back(static_cast<double>(span.durNs()) * 1e-9);
    return out;
}

std::map<std::string, double>
Recorder::layerSelfSeconds(std::uint32_t thread) const
{
    std::map<std::string, double> out;
    for (const auto &log : logs_) {
        if (log.thread() != thread)
            continue;
        const auto &spans = log.spans();
        std::vector<std::uint64_t> childNs(spans.size(), 0);
        for (const auto &span : spans)
            if (span.parent >= 0)
                childNs[static_cast<std::size_t>(span.parent)] +=
                    span.durNs();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const std::string name = spans[i].name;
            const std::string layer = name.substr(0, name.find('.'));
            out[layer] +=
                static_cast<double>(spans[i].durNs() - childNs[i]) * 1e-9;
        }
    }
    return out;
}

bool
Recorder::writeJsonl(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (const auto &log : logs_) {
        for (std::size_t i = 0; i < log.spans().size(); ++i) {
            const Span &span = log.spans()[i];
            auto rec = xed::json::Value::object();
            rec.set("name", span.name);
            rec.set("thread", span.thread);
            rec.set("index", static_cast<std::uint64_t>(i));
            rec.set("id", span.id);
            rec.set("parent", span.parent);
            if (span.cause >= 0) {
                rec.set("causeThread", span.causeThread);
                rec.set("cause", span.cause);
            }
            rec.set("startNs", span.startNs);
            rec.set("endNs", span.endNs);
            out << xed::json::dump(rec) << '\n';
        }
    }
    return static_cast<bool>(out);
}

} // namespace xedbench
