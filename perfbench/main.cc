/**
 * @file
 * perfbench: the repository benchmark (perfbench/README.md).
 *
 *   perfbench --workload stm-grid|kv-read|kv-2pc --seed N --seconds S
 *             --trace 0|1 [--spans PATH]
 *
 * Prints a host fingerprint, every metric with its unit and sample
 * note, and as its last line one JSON object
 * {"correct", "attempted", "failed", "metrics"} holding the end-to-end
 * metrics (--trace 0) or the per-layer metrics (--trace 1). Exits 1
 * without that line when a correctness check fails, 2 on a bad flag.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "util/thread_pool.hh"

namespace perfbench
{

std::map<std::string, SpanLog::Totals>
SpanLog::totals() const
{
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child_s[static_cast<size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        Totals &t = out[spans_[i].name];
        const double d = spans_[i].end - spans_[i].start;
        ++t.count;
        t.total_s += d;
        t.self_s += d - child_s[i];
    }
    return out;
}

void
SpanLog::write(const std::string &path) const
{
    std::ofstream os(path);
    check(static_cast<bool>(os), "cannot write spans to " + path);
    const double t0 = spans_.empty() ? 0 : spans_.front().start;
    os.precision(9);
    os << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n " : "") << "{\"id\": " << i << ", \"name\": \""
           << s.name << "\", \"start_s\": " << s.start - t0
           << ", \"end_s\": " << s.end - t0 << ", \"parent\": " << s.parent
           << ", \"request\": " << s.request << "}";
    }
    os << "]\n";
}

void
SpanLog::printTotals() const
{
    for (const auto &[name, t] : totals())
        std::cout << "span " << name << " count=" << t.count
                  << " total_s=" << t.total_s << " self_s=" << t.self_s
                  << "\n";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace
{

/** The metrics every run reports, with units, in BENCHMARK.json order. */
using MetricSpec = std::pair<std::string, std::string>;

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},           {"peak_rss_mb", "MiB"},
    {"sim_tx_per_s", "1/s"},    {"capacity_rps", "1/s"},
    {"p50_ms.low", "ms"},       {"p99_ms.low", "ms"},
    {"p999_ms.low", "ms"},      {"p50_ms.high", "ms"},
    {"p99_ms.high", "ms"},      {"p999_ms.high", "ms"},
};

/** Per-layer metrics. The first two are the whole pass's host time:
 * on a shared host it drifts by more than any bound allows (README),
 * so it is reported here, without a bound, beside the layers' shares. */
const std::vector<MetricSpec> kPerLayer = {
    {"wall_s", "s"},
    {"sim_cycles_per_host_s", "1/s"},
    {"sim.cycles", "count"},
    {"sim.sched_switches", "count"},
    {"sim.sched_elisions", "count"},
    {"sim.elision_frac", "ratio"},
    {"sim.mram_bytes", "B"},
    {"sim.atomic_stall_cycles", "count"},
    {"sim.host_ns_per_switch", "ns"},
    {"core.starts", "count"},
    {"core.commits", "count"},
    {"core.commit_frac", "ratio"},
    {"core.aborts.read-conflict", "count"},
    {"core.aborts.write-conflict", "count"},
    {"core.aborts.upgrade-conflict", "count"},
    {"core.aborts.validation-fail", "count"},
    {"core.aborts.commit-conflict", "count"},
    {"core.validations", "count"},
    {"core.phase.non-tx", "ratio"},
    {"core.phase.start", "ratio"},
    {"core.phase.read", "ratio"},
    {"core.phase.write", "ratio"},
    {"core.phase.validate", "ratio"},
    {"core.phase.commit", "ratio"},
    {"core.phase.other", "ratio"},
    {"core.phase.wasted", "ratio"},
    {"runtime.driver.run_s", "s"},
    {"runtime.stream.gen_s", "s"},
    {"runtime.serving.self_s", "s"},
    {"runtime.serving.rounds", "count"},
    {"runtime.serving.mean_batch", "count"},
    {"runtime.serving.shed", "count"},
    {"runtime.serving.peak_queue", "count"},
    {"runtime.serving.queue_wait_ms", "ms"},
    {"bench.adapter.self_s", "s"},
    {"hostapp.setup_s", "s"},
    {"hostapp.execute_s", "s"},
    {"hostapp.round_ms", "ms"},
    {"hostapp.round_dpu_frac", "ratio"},
    {"hostapp.occupancy", "ratio"},
    {"hostapp.launches_per_round", "count"},
    {"hostapp.bytes_per_req", "B"},
    {"hostapp.2pc.tx_commits", "count"},
    {"hostapp.2pc.retry_frac", "ratio"},
    {"hostapp.2pc.serial_fallbacks", "count"},
    {"hostapp.2pc.commit_rounds", "count"},
    {"workloads.construct_s", "s"},
    {"trace.overhead_s", "s"},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload stm-grid|kv-read|kv-2pc "
                 "--seed N --seconds S --trace 0|1 [--spans PATH]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        std::string value;
        if (const auto eq = flag.find('='); eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usage("missing value for " + flag);
        }
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end || value[0] == '-')
                usage("bad --seed " + value);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(opt.seconds > 0)
                || opt.seconds > 3600)
                usage("bad --seconds " + value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opt.trace = value == "1";
        } else if (flag == "--spans") {
            opt.spans_out = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (opt.workload != "stm-grid" && opt.workload != "kv-read"
        && opt.workload != "kv-2pc")
        usage("unknown workload " + opt.workload);
    return opt;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);)
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

int
run(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    // Timed passes run with one pool thread: DistributedKv fans shards
    // out over the global pool, and host noise grows with threads.
    pimstm::util::ThreadPool::setGlobalJobs(1);

    const char *rev = std::getenv("PERFBENCH_REVISION");
    std::cout << "# host: cpu=\"" << cpuModel()
              << "\" nproc=" << std::thread::hardware_concurrency()
              << " compiler=\"gcc " << __VERSION__ << "\" build="
              << PERFBENCH_BUILD_TYPE
              << " revision=" << (rev && *rev ? rev : "unknown") << "\n";
    std::cout << "# workload=" << opt.workload << " seed=" << opt.seed
              << " seconds=" << opt.seconds << " trace=" << opt.trace
              << " pool_threads=1\n";

    Report rep;
    if (opt.workload == "stm-grid")
        runGrid(opt, rep);
    else
        runKv(opt, opt.workload == "kv-2pc", rep);

    // Every metric a workload reports must be a known one, in its
    // unit; a per-layer metric a workload does not report is idle (or
    // not observable) there and reads 0.
    const auto &wanted = opt.trace ? kPerLayer : kEndToEnd;
    std::map<std::string, std::string> unit_of(kEndToEnd.begin(),
                                               kEndToEnd.end());
    unit_of.insert(kPerLayer.begin(), kPerLayer.end());
    std::map<std::string, const Metric *> by_name;
    for (const Metric &m : rep.metrics) {
        check(unit_of.count(m.name) == 1, "unknown metric " + m.name);
        check(unit_of[m.name] == m.unit, "metric " + m.name + " in "
                  + m.unit + ", expected " + unit_of[m.name]);
        check(by_name.emplace(m.name, &m).second,
              "metric reported twice: " + m.name);
        check(std::isfinite(m.value), "metric " + m.name + " is not finite");
    }
    std::vector<Metric> idle;
    for (const auto &[name, unit] : wanted)
        if (!by_name.count(name)) {
            check(opt.trace, "end-to-end metric missing: " + name);
            idle.push_back({name, 0.0, unit,
                            "layer idle or not observable here"});
        }
    for (const Metric &m : idle)
        by_name.emplace(m.name, &m);

    for (const Metric &m : rep.metrics)
        std::cout << "metric " << m.name << " = " << jsonNumber(m.value)
                  << " " << m.unit
                  << (m.note.empty() ? "" : "  (" + m.note + ")") << "\n";
    for (const Metric &m : idle)
        std::cout << "metric " << m.name << " = 0 " << m.unit << "  ("
                  << m.note << ")\n";
    std::cout << "metric fail_frac = "
              << jsonNumber(static_cast<double>(rep.failed)
                            / static_cast<double>(rep.attempted))
              << " ratio  (" << rep.failed << " failed of " << rep.attempted
              << " attempted)\n";

    std::ostringstream js;
    js << "{\"correct\": true, \"attempted\": " << rep.attempted
       << ", \"failed\": " << rep.failed << ", \"metrics\": {";
    for (size_t i = 0; i < wanted.size(); ++i) {
        const Metric &m = *by_name.at(wanted[i].first);
        js << (i ? ", " : "") << "\"" << m.name
           << "\": {\"value\": " << jsonNumber(m.value) << ", \"unit\": \""
           << m.unit << "\"}";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const perfbench::CheckFailed &e) {
        std::cerr << "perfbench: CHECK FAILED: " << e.what() << "\n";
    } catch (const std::exception &e) {
        std::cerr << "perfbench: error: " << e.what() << "\n";
    }
    return 1;
}
