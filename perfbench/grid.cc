/**
 * @file
 * The `stm-grid` workload: the paper's Fig. 6 experiment as a closed
 * loop. Every paper workload runs on every paper STM, with metadata in
 * MRAM and in WRAM, at 1 and 11 tasklets, each point through
 * runtime::runWorkload on one host thread.
 */

#include <array>
#include <iostream>
#include <memory>

#include "bench.hh"
#include "core/stats.hh"
#include "runtime/driver.hh"
#include "sim/phase.hh"
#include "util/logging.hh"
#include "workloads/arraybench.hh"
#include "workloads/kmeans.hh"
#include "workloads/labyrinth.hh"
#include "workloads/linkedlist.hh"

namespace perfbench
{

namespace
{

using namespace pimstm;

struct GridWorkload
{
    const char *name;
    runtime::WorkloadFactory make;
};

/** The paper workloads at the figure harnesses' --quick sizes. */
std::vector<GridWorkload>
gridWorkloads()
{
    using namespace pimstm::workloads;
    return {
        {"ArrayBench A",
         [] {
             return std::make_unique<ArrayBench>(
                 ArrayBenchParams::workloadA(6));
         }},
        {"ArrayBench B",
         [] {
             return std::make_unique<ArrayBench>(
                 ArrayBenchParams::workloadB(80));
         }},
        {"Linked-List LC",
         [] {
             return std::make_unique<LinkedList>(
                 LinkedListParams::lowContention(30));
         }},
        {"Linked-List HC",
         [] {
             return std::make_unique<LinkedList>(
                 LinkedListParams::highContention(30));
         }},
        {"KMeans LC",
         [] {
             return std::make_unique<KMeans>(
                 KMeansParams::lowContention(6));
         }},
        {"KMeans HC",
         [] {
             return std::make_unique<KMeans>(
                 KMeansParams::highContention(6));
         }},
        {"Labyrinth small",
         [] {
             return std::make_unique<Labyrinth>(LabyrinthParams::small(32));
         }},
    };
}

/** Closed-loop load levels: clients per DPU. */
constexpr unsigned kLowTasklets = 1;
constexpr unsigned kHighTasklets = 11;

struct Point
{
    size_t workload = 0;
    core::StmKind kind = core::StmKind::NOrec;
    core::MetadataTier tier = core::MetadataTier::Mram;
    unsigned tasklets = 1;
};

/**
 * Every (workload, kind, tier, tasklets) combination except the
 * paper's infeasible placements: at 11 tasklets Labyrinth's read/write
 * sets do not fit in WRAM for the Tiny and VR kinds, so only NOrec
 * runs it with WRAM metadata. Any other point that throws is a failure.
 */
std::vector<Point>
gridPoints(const std::vector<GridWorkload> &wls)
{
    std::vector<Point> pts;
    for (size_t w = 0; w < wls.size(); ++w)
        for (core::StmKind kind : core::allStmKinds())
            for (auto tier :
                 {core::MetadataTier::Mram, core::MetadataTier::Wram})
                for (unsigned t : {kLowTasklets, kHighTasklets}) {
                    const bool infeasible =
                        std::string(wls[w].name) == "Labyrinth small"
                        && tier == core::MetadataTier::Wram
                        && t == kHighTasklets
                        && kind != core::StmKind::NOrec;
                    if (!infeasible)
                        pts.push_back({w, kind, tier, t});
                }
    return pts;
}

/** What one point simulated. Must repeat bit for bit in every pass. */
struct Outcome
{
    bool ok = false;
    std::string error;
    core::StmStats stm;
    sim::DpuStats dpu;
    double host_s = 0; ///< host time of its runWorkload call
};

bool
sameSimulation(const Outcome &a, const Outcome &b)
{
    return a.ok == b.ok && a.error == b.error
        && a.stm.starts == b.stm.starts && a.stm.commits == b.stm.commits
        && a.stm.aborts == b.stm.aborts
        && a.stm.abort_reasons == b.stm.abort_reasons
        && a.stm.reads == b.stm.reads && a.stm.writes == b.stm.writes
        && a.stm.validations == b.stm.validations
        && a.dpu.total_cycles == b.dpu.total_cycles
        && a.dpu.phase_cycles == b.dpu.phase_cycles
        && a.dpu.instructions == b.dpu.instructions
        && a.dpu.mram_bytes_read == b.dpu.mram_bytes_read
        && a.dpu.mram_bytes_written == b.dpu.mram_bytes_written
        && a.dpu.atomic_stall_cycles == b.dpu.atomic_stall_cycles
        && a.dpu.sched_switches == b.dpu.sched_switches
        && a.dpu.sched_elisions == b.dpu.sched_elisions;
}

/** Per point, its transactions' simulated latencies in cycles: from
 * the first attempt's start to the commit, retries included. */
using Latencies = std::vector<std::vector<u64>>;

void
collectLatencies(const core::TraceBuffer &trace, std::vector<u64> &out)
{
    check(trace.dropped() == 0,
          "grid latency pass: trace ring overflowed; raise its capacity");
    std::array<Cycles, 256> first_start{};
    std::array<bool, 256> pending{};
    for (const core::TraceRecord &r : trace.snapshot()) {
        if (r.event == core::TxEvent::Start && !pending[r.tasklet]) {
            pending[r.tasklet] = true;
            first_start[r.tasklet] = r.time;
        } else if (r.event == core::TxEvent::Commit) {
            check(pending[r.tasklet], "grid: commit without a start");
            out.push_back(r.time - first_start[r.tasklet]);
            pending[r.tasklet] = false;
        }
    }
}

struct Pass
{
    std::vector<Outcome> points;
    double run_s = 0; ///< host time inside runWorkload
};

/** One fresh workload instance per point (the grid's set-up). */
std::vector<std::unique_ptr<runtime::Workload>>
construct(const std::vector<GridWorkload> &wls, const std::vector<Point> &pts)
{
    std::vector<std::unique_ptr<runtime::Workload>> inst;
    inst.reserve(pts.size());
    for (const Point &p : pts)
        inst.push_back(wls[p.workload].make());
    return inst;
}

Pass
runPass(const std::vector<GridWorkload> &wls, const std::vector<Point> &pts,
        u64 seed, SpanLog &spans, Latencies *lat)
{
    Pass pass;
    pass.points.resize(pts.size());

    std::vector<std::unique_ptr<runtime::Workload>> inst;
    {
        Scope s(spans, "workloads.construct");
        inst = construct(wls, pts);
    }

    const double t0 = hostNow();
    for (size_t i = 0; i < pts.size(); ++i) {
        const Point &p = pts[i];
        runtime::RunSpec spec;
        spec.kind = p.kind;
        spec.tier = p.tier;
        spec.tasklets = p.tasklets;
        spec.seed = seed;
        spec.mram_bytes = 8u << 20;
        if (lat) {
            spec.trace = true;
            spec.trace_buffer_capacity = 1u << 22;
        }
        Outcome &o = pass.points[i];
        try {
            Scope s(spans, "runtime.runWorkload", static_cast<long long>(i));
            const double p0 = hostNow();
            const runtime::RunResult r = runtime::runWorkload(*inst[i], spec);
            o.host_s = hostNow() - p0;
            o.ok = true;
            o.stm = r.stm;
            o.dpu = r.dpu;
            if (lat)
                collectLatencies(*r.trace, (*lat)[i]);
        } catch (const FatalError &e) {
            // Infeasible placement or a failed Workload::verify.
            o.error = e.what();
        }
    }
    pass.run_s = hostNow() - t0;
    return pass;
}

/**
 * Host seconds of one pass as the sum over points of each point's
 * fastest runWorkload time across @p passes: a lower envelope that
 * shrugs off bursts of host noise shorter than a pass.
 */
double
fastestPerPoint(const std::vector<Pass> &passes)
{
    double sum = 0;
    for (size_t i = 0; i < passes.front().points.size(); ++i) {
        double best = 1e300;
        for (const Pass &p : passes)
            best = std::min(best, p.points[i].host_s);
        sum += best;
    }
    return sum;
}

/** Committed transactions per simulated second, geometric mean over
 * the feasible points with @p tasklets (0 = all). */
double
txPerSimSecond(const std::vector<Point> &pts, const Pass &ref,
               unsigned tasklets)
{
    const sim::TimingConfig timing;
    std::vector<double> rates;
    for (size_t i = 0; i < pts.size(); ++i) {
        const Outcome &o = ref.points[i];
        if (!o.ok || (tasklets && pts[i].tasklets != tasklets))
            continue;
        rates.push_back(static_cast<double>(o.stm.commits)
                        / timing.cyclesToSeconds(o.dpu.total_cycles));
    }
    return geomean(rates);
}

} // namespace

void
runGrid(const Options &opt, Report &rep)
{
    const auto wls = gridWorkloads();
    const auto pts = gridPoints(wls);

    // Set-up takes microseconds: time it in batches of grids kept
    // alive together, many times over, before any pass has shaped the
    // heap (how many passes run depends on the host's speed).
    constexpr int kBatch = 50;
    std::vector<double> construct_times;
    for (int k = 0; k < 32; ++k) {
        std::vector<std::vector<std::unique_ptr<runtime::Workload>>> batch;
        batch.reserve(kBatch);
        const double t0 = hostNow();
        for (int b = 0; b < kBatch; ++b)
            batch.push_back(construct(wls, pts));
        construct_times.push_back((hostNow() - t0) / kBatch);
    }

    // The first pass is the warm-up (it fills the DPU pool) and its
    // simulated outcome the reference every later pass must repeat.
    SpanLog off(false);
    const double t_start = hostNow();
    const Pass ref = runPass(wls, pts, opt.seed, off, nullptr);
    // Leave room for the closing latency pass, which traces every
    // transaction and takes about twice as long as a plain pass.
    const double budget_end =
        t_start + opt.seconds - 3 * (hostNow() - t_start);

    std::vector<Pass> timed;      // untraced passes
    std::vector<Pass> traced;     // traced passes (--trace 1 only)
    SpanLog best_spans(true);     // spans of the fastest traced pass
    double best_traced = 1e300;
    double rss_mb = 0;
    while (timed.size() < kMinPasses
           || (opt.trace && traced.size() < kMinPasses)
           || hostNow() < budget_end) {
        const bool trace_this = opt.trace && traced.size() < timed.size();
        SpanLog pass_spans(trace_this);
        Pass p = runPass(wls, pts, opt.seed, trace_this ? pass_spans : off,
                         nullptr);
        for (size_t i = 0; i < pts.size(); ++i)
            check(sameSimulation(p.points[i], ref.points[i]),
                  "grid: point " + std::to_string(i)
                      + " simulated differently in a repeated pass");
        if (trace_this && p.run_s < best_traced) {
            best_traced = p.run_s;
            best_spans = std::move(pass_spans);
        }
        (trace_this ? traced : timed).push_back(std::move(p));
        // Peak memory at a fixed point of the run, so that it does not
        // depend on how many passes the host's speed allows.
        if (timed.size() == kMinPasses && rss_mb == 0)
            rss_mb = peakRssMb();
    }

    u64 failed = 0;
    for (size_t i = 0; i < pts.size(); ++i) {
        if (!ref.points[i].ok) {
            ++failed;
            std::cerr << "grid: point " << i << " ("
                      << wls[pts[i].workload].name << ", "
                      << core::stmKindName(pts[i].kind) << ") failed: "
                      << ref.points[i].error << "\n";
        }
    }
    rep.attempted = pts.size();
    rep.failed = failed;

    std::vector<double> run_times;
    for (const Pass &p : timed)
        run_times.push_back(p.run_s);
    const double wall = fastestPerPoint(timed);
    const std::string passes = "sum of per-point fastest; "
        + passNote(run_times, std::to_string(pts.size()) + " points");

    sim::DpuStats dpu;
    core::StmStats stm;
    for (const Outcome &o : ref.points) {
        dpu += o.dpu;
        stm += o.stm;
    }

    rep.add("setup_s", median(construct_times), "s",
            "median of " + std::to_string(construct_times.size())
                + " batches of " + std::to_string(kBatch)
                + " constructions of every point's workload");
    rep.add("wall_s", wall, "s", passes);
    rep.add("sim_cycles_per_host_s",
            static_cast<double>(dpu.total_cycles) / wall, "1/s", passes);

    // Transaction latencies come from a last, traced pass. Tracing is
    // host-only, so it too must repeat the reference.
    Latencies lat(pts.size());
    const Pass lat_pass = runPass(wls, pts, opt.seed, off, &lat);
    for (size_t i = 0; i < pts.size(); ++i)
        check(sameSimulation(lat_pass.points[i], ref.points[i]),
              "grid: tracing changed the simulation of point "
                  + std::to_string(i));

    const sim::TimingConfig timing;
    const auto ms = [&](u64 cycles) {
        return timing.cyclesToSeconds(cycles) * 1e3;
    };
    // A level's latency quantile is the geometric mean over its points
    // of each point's own quantile, so every workload and STM weighs
    // the same however many transactions it commits.
    const auto levelQuantile = [&](unsigned tasklets, double q) {
        std::vector<double> per_point;
        for (size_t i = 0; i < pts.size(); ++i)
            if (pts[i].tasklets == tasklets)
                per_point.push_back(ms(nearestRank(lat[i], q)));
        return geomean(per_point);
    };
    u64 samples[2] = {0, 0}, points[2] = {0, 0};
    for (size_t i = 0; i < pts.size(); ++i) {
        check(!lat[i].empty(), "grid: a point committed nothing");
        std::sort(lat[i].begin(), lat[i].end());
        samples[pts[i].tasklets == kHighTasklets] += lat[i].size();
        ++points[pts[i].tasklets == kHighTasklets];
    }

    rep.add("peak_rss_mb", rss_mb, "MiB");
    rep.add("sim_tx_per_s", txPerSimSecond(pts, ref, 0), "1/s",
            "geomean over " + std::to_string(pts.size() - failed)
                + " points");
    rep.add("capacity_rps", txPerSimSecond(pts, ref, kHighTasklets), "1/s",
            "closed loop: geomean tx/s over the 11-tasklet points");
    for (const auto &[level, tasklets] :
         {std::pair{"low", kLowTasklets}, std::pair{"high", kHighTasklets}}) {
        const std::string n = "geomean over "
            + std::to_string(points[tasklets == kHighTasklets]) + " points at " + std::to_string(tasklets) + " tasklet(s), n="
            + std::to_string(samples[tasklets == kHighTasklets])
            + " transactions";
        rep.add(std::string("p50_ms.") + level, levelQuantile(tasklets, 0.5),
                "ms", n);
        rep.add(std::string("p99_ms.") + level,
                levelQuantile(tasklets, 0.99), "ms", n);
        rep.add(std::string("p999_ms.") + level,
                levelQuantile(tasklets, 0.999), "ms", n);
    }

    if (!opt.trace)
        return;

    // Per-layer metrics: simulated counts from the reference pass,
    // host times from the fastest traced pass.
    const auto totals = best_spans.totals();
    const auto spanTotal = [&](const char *name) {
        auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.total_s;
    };

    const double switches = static_cast<double>(dpu.sched_switches);
    const double elisions = static_cast<double>(dpu.sched_elisions);
    rep.add("sim.cycles", static_cast<double>(dpu.total_cycles), "count");
    rep.add("sim.sched_switches", switches, "count");
    rep.add("sim.sched_elisions", elisions, "count");
    rep.add("sim.elision_frac", elisions / (switches + elisions), "ratio");
    rep.add("sim.mram_bytes",
            static_cast<double>(dpu.mram_bytes_read + dpu.mram_bytes_written),
            "B");
    rep.add("sim.atomic_stall_cycles",
            static_cast<double>(dpu.atomic_stall_cycles), "count");
    rep.add("sim.host_ns_per_switch",
            spanTotal("runtime.runWorkload") * 1e9 / switches, "ns");

    rep.add("core.starts", static_cast<double>(stm.starts), "count");
    rep.add("core.commits", static_cast<double>(stm.commits), "count");
    rep.add("core.commit_frac",
            static_cast<double>(stm.commits) / static_cast<double>(stm.starts),
            "ratio");
    for (auto reason :
         {core::AbortReason::ReadConflict, core::AbortReason::WriteConflict,
          core::AbortReason::UpgradeConflict,
          core::AbortReason::ValidationFail,
          core::AbortReason::CommitConflict})
        rep.add("core.aborts." + std::string(core::abortReasonName(reason)),
                static_cast<double>(
                    stm.abort_reasons[static_cast<size_t>(reason)]),
                "count");
    rep.add("core.validations", static_cast<double>(stm.validations),
            "count");
    static constexpr const char *kPhaseNames[sim::kNumPhases] = {
        "non-tx", "start",  "read",  "write",
        "validate", "commit", "other", "wasted"};
    const double busy = static_cast<double>(dpu.busyCycles());
    for (size_t p = 0; p < sim::kNumPhases; ++p)
        rep.add(std::string("core.phase.") + kPhaseNames[p],
                static_cast<double>(dpu.phase_cycles[p]) / busy, "ratio");

    rep.add("runtime.driver.run_s", spanTotal("runtime.runWorkload"), "s");
    rep.add("workloads.construct_s", spanTotal("workloads.construct"), "s");
    rep.add("trace.overhead_s",
            fastestPerPoint(traced) - wall, "s",
            "traced minus untraced wall_s, both summed per-point fastest");
    best_spans.printTotals();
    if (!opt.spans_out.empty())
        best_spans.write(opt.spans_out);
}

} // namespace perfbench
