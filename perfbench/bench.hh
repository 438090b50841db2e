/**
 * @file
 * Shared pieces of the repository benchmark (perfbench/README.md):
 * command-line options, the metric report, the in-memory span log of
 * the traced mode, and small statistics helpers.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/types.hh"

namespace perfbench
{

using pimstm::u64;
using pimstm::u32;

/** Parsed command line: --workload W --seed N --seconds S --trace 0|1. */
struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spans_out; ///< traced mode: where to write the spans
};

/** A correctness check failed: the run prints no result and exits 1. */
struct CheckFailed : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

inline void
check(bool ok, const std::string &what)
{
    if (!ok)
        throw CheckFailed(what);
}

/** Host wall clock, seconds since an arbitrary epoch. */
inline double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::string note; ///< sample count or provenance, printed only
};

/** Everything one run reports. */
struct Report
{
    std::vector<Metric> metrics;
    u64 attempted = 0;
    u64 failed = 0;

    void
    add(const std::string &name, double value, const std::string &unit,
        const std::string &note = "")
    {
        metrics.push_back({name, value, unit, note});
    }
};

/**
 * In-memory span log for the traced mode: each span has a name, host
 * start/end, the span that encloses it and an optional request id
 * (the serving round or grid point it belongs to). Disabled logs
 * record nothing, so the timed mode pays one branch per boundary.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start = 0;
        double end = 0;
        int parent = -1;
        long long request = -1;
    };

    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    int
    begin(const char *name, long long request = -1)
    {
        if (!enabled_)
            return -1;
        Span s;
        s.name = name;
        s.parent = open_.empty() ? -1 : open_.back();
        s.request = request;
        s.start = hostNow();
        spans_.push_back(std::move(s));
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void
    end(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<size_t>(id)].end = hostNow();
        open_.pop_back();
    }

    /** Summed duration and summed self time (duration minus the
     * duration of direct children) per span name. */
    struct Totals
    {
        u64 count = 0;
        double total_s = 0;
        double self_s = 0;
    };
    std::map<std::string, Totals> totals() const;

    /** Write every span as one JSON array to @p path. */
    void write(const std::string &path) const;

    /** Print one "span NAME count total_s self_s" line per name. */
    void printTotals() const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: begin on construction, end on destruction. */
class Scope
{
  public:
    Scope(SpanLog &log, const char *name, long long request = -1)
        : log_(log), id_(log.begin(name, request))
    {}
    ~Scope() { log_.end(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &log_;
    int id_;
};

inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double
geomean(const std::vector<double> &v)
{
    double log_sum = 0;
    for (double x : v)
        log_sum += std::log(x);
    return v.empty() ? 0 : std::exp(log_sum / static_cast<double>(v.size()));
}

/**
 * Exact nearest-rank quantile of @p sorted (ascending): the smallest
 * sample with at least ceil(q * n) samples at or below it.
 */
template <typename T>
T
nearestRank(const std::vector<T> &sorted, double q)
{
    const size_t n = sorted.size();
    size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<size_t>(rank, 1, n);
    return sorted[rank - 1];
}

/** Timed passes every run makes, however long they take. */
constexpr size_t kMinPasses = 2;

/** "fastest of N passes of WHAT (median M s, slowest S s)". */
inline std::string
passNote(const std::vector<double> &times, const std::string &what)
{
    const double slowest = *std::max_element(times.begin(), times.end());
    char buf[128];
    std::snprintf(buf, sizeof buf, " (median %.4g s, slowest %.4g s)",
                  median(times), slowest);
    return "fastest of " + std::to_string(times.size()) + " passes of "
        + what + buf;
}

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** @{ Workload entry points (grid.cc, kv.cc). */
void runGrid(const Options &opt, Report &rep);
void runKv(const Options &opt, bool two_pc, Report &rep);
/** @} */

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
