/**
 * @file
 * The `kv-read` and `kv-2pc` workloads: open-loop Poisson traffic into
 * a 64-shard hostapp::DistributedKv fleet through runtime::runServing.
 *
 * The fleet sits behind KvBackend, a benchmark-owned
 * runtime::ServingBackend. Besides executing rounds it rebuilds every
 * served request's exact simulated latency from the dispatch rule the
 * harness follows, and the run fails unless the rebuilt count, sum and
 * max equal ServingReport::e2e_ns bit for bit.
 */

#include <iostream>
#include <memory>

#include "bench.hh"
#include "hostapp/distributed_kv.hh"
#include "runtime/serving.hh"
#include "util/logging.hh"

namespace perfbench
{

namespace
{

using namespace pimstm;

/** Op classes of the request stream (StreamConfig::op_weights). */
enum ReqOp : u8
{
    kGet = 0,
    kPut = 1,
    kMove = 2, ///< cross-shard relocation through 2PC
};

constexpr unsigned kShards = 64;
constexpr u32 kRanksPerShard = 32;
constexpr u32 kRanks = kShards * kRanksPerShard;
/** Requests per fixed-rate run (p999 has 40 beyond it) and per
 * capacity probe (p99 has 100 beyond it). */
constexpr u64 kRequests = 40000;
constexpr u64 kProbeRequests = 10000;

/** Fixed offered rates (requests per simulated second). */
struct Rates
{
    double low;
    double high;
};

u64
toNs(double seconds)
{
    // The harness's rounding (runtime/serving.cc).
    return seconds <= 0 ? 0 : static_cast<u64>(std::llround(seconds * 1e9));
}

hostapp::DistributedKvConfig
fleetConfig(u64 seed)
{
    hostapp::DistributedKvConfig c;
    c.shards = kShards;
    c.capacity_per_shard = 256;
    c.tasklets_per_dpu = 4;
    c.mram_bytes = 1u << 20;
    c.seed = seed;
    return c;
}

u32
homeKey(u32 rank)
{
    return rank + 1; // key 0 stays clear
}

u32
shadowKey(u32 rank)
{
    return homeKey(rank) + kRanks;
}

/** What every served request's latency splits into, rebuilt outside
 * the harness. */
struct Ledger
{
    std::vector<u64> e2e_ns;
    u64 wait_ns_sum = 0;
    u64 max_identity_gap_ns = 0;
};

class KvBackend final : public runtime::ServingBackend
{
  public:
    KvBackend(const hostapp::DistributedKvConfig &cfg,
              const runtime::ServingConfig &serving, bool moves,
              SpanLog &spans)
        : kv_(cfg), serving_(serving), moves_(moves), spans_(spans)
    {
        if (!moves_)
            return;
        // With moves, a put on a home key whose rank has moved away
        // would insert it a second time. So puts go to a value key of
        // their own, on the same shard as the rank's home key, that no
        // move touches.
        std::vector<std::vector<u32>> by_shard(kv_.numShards());
        for (u32 r = 0; r < kRanks; ++r)
            by_shard[kv_.shardOf(homeKey(r))].push_back(r);
        std::vector<size_t> next(kv_.numShards(), 0);
        value_key_.assign(kRanks, 0);
        u32 left = kRanks;
        for (u32 k = 2 * kRanks + 1; left > 0; ++k) {
            const unsigned s = kv_.shardOf(k);
            if (next[s] < by_shard[s].size()) {
                value_key_[by_shard[s][next[s]++]] = k;
                --left;
            }
        }
    }

    /** Preload every rank at its home key (and its value key). */
    void
    seed()
    {
        std::vector<hostapp::KvOp> ops;
        ops.reserve(2 * kRanks);
        for (u32 r = 0; r < kRanks; ++r) {
            ops.push_back(hostapp::KvOp::put(homeKey(r), 0x10000u + r));
            if (moves_)
                ops.push_back(hostapp::KvOp::put(value_key_[r], r));
        }
        for (const hostapp::KvResult &res : kv_.execute(ops))
            check(res.ok, "kv: seeding put failed");
    }

    unsigned numShards() const override { return kv_.numShards(); }

    unsigned
    shardOf(const runtime::ServingRequest &req) const override
    {
        return kv_.shardOf(homeKey(req.key));
    }

    runtime::RoundCost
    executeRound(
        const std::vector<std::vector<runtime::ServingRequest>> &batches)
        override
    {
        Scope round(spans_, "runtime.executeRound",
                    static_cast<long long>(rounds_));
        const double host0 = hostNow();
        std::vector<hostapp::KvOp> ops;
        std::vector<bool> is_get;
        std::vector<hostapp::CrossShardTx> txs;
        double oldest = 1e300, latest = -1e300;
        bool full = false;
        for (const auto &batch : batches) {
            full = full || batch.size() == serving_.max_batch_per_shard;
            for (const runtime::ServingRequest &r : batch) {
                oldest = std::min(oldest, r.arrival_s);
                latest = std::max(latest, r.arrival_s);
                const u32 home = homeKey(r.key);
                if (r.op == kGet) {
                    ops.push_back(hostapp::KvOp::get(home));
                    is_get.push_back(true);
                } else if (r.op == kPut) {
                    ops.push_back(hostapp::KvOp::put(
                        moves_ ? value_key_[r.key] : home, r.value | 1));
                    is_get.push_back(false);
                } else {
                    // Ping-pong the rank between its home key and a
                    // shadow key (another shard), following the
                    // store's current state.
                    u32 v = 0;
                    txs.push_back(kv_.peek(home, v)
                            ? hostapp::CrossShardTx::move(
                                home, shadowKey(r.key))
                            : hostapp::CrossShardTx::move(
                                shadowKey(r.key), home));
                }
            }
        }

        const double elapsed0 = kv_.elapsedSeconds();
        std::vector<double> busy0(kv_.numShards());
        for (unsigned s = 0; s < kv_.numShards(); ++s)
            busy0[s] = kv_.shardBusySeconds(s);
        hostapp::KvBatchResult res;
        {
            Scope ex(spans_, "hostapp.execute",
                     static_cast<long long>(rounds_));
            res = kv_.execute(ops, txs);
        }
        // Without moves every rank stays at its home key, so every
        // get must find it.
        if (!moves_)
            for (size_t i = 0; i < ops.size(); ++i)
                check(!is_get[i] || res.ops[i].ok,
                      "kv: get missed a key that is always present");

        runtime::RoundCost cost;
        cost.round_seconds = kv_.elapsedSeconds() - elapsed0;
        cost.shard_busy_seconds.resize(kv_.numShards());
        double slowest = 0;
        for (unsigned s = 0; s < kv_.numShards(); ++s) {
            cost.shard_busy_seconds[s] = kv_.shardBusySeconds(s) - busy0[s];
            slowest = std::max(slowest, cost.shard_busy_seconds[s]);
        }
        ++rounds_;
        round_s_sum_ += cost.round_seconds;
        dpu_frac_sum_ += slowest / cost.round_seconds;

        // The harness dispatches as soon as a shard batch is full
        // (then the newest request in the round is the one that filled
        // it), otherwise when the oldest request's batch budget
        // expires; never before the previous round completed.
        const double dispatch = std::max(
            prev_done_, full ? latest : oldest + serving_.batch_budget_s);
        const double done = dispatch + cost.round_seconds;
        const u64 round_ns = toNs(cost.round_seconds);
        for (const auto &batch : batches) {
            for (const runtime::ServingRequest &r : batch) {
                const u64 e2e = toNs(done - r.arrival_s);
                const u64 wait = toNs(dispatch - r.arrival_s);
                const u64 parts = wait + round_ns;
                ledger_.e2e_ns.push_back(e2e);
                ledger_.wait_ns_sum += wait;
                ledger_.max_identity_gap_ns = std::max(
                    ledger_.max_identity_gap_ns,
                    parts > e2e ? parts - e2e : e2e - parts);
            }
        }
        prev_done_ = done;
        round_host_s_.push_back(hostNow() - host0);
        return cost;
    }

    /** After a run: the fleet is quiescent, every rank is present
     * exactly once, at its home key or its shadow key, and every value
     * key is present. */
    void
    verify() const
    {
        check(kv_.livePins() == 0, "kv: pins outstanding after the run");
        for (u32 r = 0; r < kRanks; ++r) {
            u32 v = 0;
            const bool home = kv_.peek(homeKey(r), v);
            const bool shadow = kv_.peek(shadowKey(r), v);
            check(home != shadow,
                  "kv: rank " + std::to_string(r) + " is present "
                      + (home ? "twice" : "nowhere"));
        }
        for (u32 k : value_key_) {
            u32 v = 0;
            check(kv_.peek(k, v), "kv: a value key went missing");
        }
        check(kv_.population() == kRanks + value_key_.size(),
              "kv: population changed");
    }

    const hostapp::DistributedKv &kv() const { return kv_; }
    hostapp::DistributedKv &kv() { return kv_; }
    Ledger &ledger() { return ledger_; }
    double roundSecondsSum() const { return round_s_sum_; }
    const std::vector<double> &roundHostSeconds() const
    {
        return round_host_s_;
    }
    double dpuFracSum() const { return dpu_frac_sum_; }

  private:
    hostapp::DistributedKv kv_;
    runtime::ServingConfig serving_;
    bool moves_; ///< the stream carries cross-shard moves
    std::vector<u32> value_key_; ///< per rank, puts' key (moves only)
    SpanLog &spans_;
    Ledger ledger_;
    double prev_done_ = 0;
    u64 rounds_ = 0;
    double round_s_sum_ = 0;
    std::vector<double> round_host_s_; ///< host time of each executeRound
    double dpu_frac_sum_ = 0;
};

/** Sum of every shard STM's counters. */
core::StmStats
fleetStm(hostapp::DistributedKv &kv)
{
    core::StmStats s;
    for (unsigned i = 0; i < kv.numShards(); ++i)
        s += kv.shardStm(i).aggregateStats();
    return s;
}

/** One serving run at a fixed rate: set-up, serve, check. */
struct Served
{
    runtime::ServingReport rep;
    std::vector<u64> e2e_ns; ///< sorted, exact
    double mean_wait_ms = 0;
    double setup_s = 0; ///< host: fleet + seeding + stream
    double serve_s = 0; ///< host: runServing
    std::vector<double> round_host_s; ///< host: each executeRound in it
    u64 sim_cycles = 0;
    u64 switches = 0;
    u64 elisions = 0;
    core::StmStats stm; ///< during serving only
    hostapp::TwoPcStats twopc; ///< during serving only
    double round_s_sum = 0;   ///< sim: summed round makespans
    double dpu_frac_sum = 0;  ///< summed slowest-shard share per round
};

Served
serveOnce(const runtime::StreamConfig &stream_cfg, double rate, u64 seed,
          u64 requests, SpanLog &spans)
{
    runtime::StreamConfig sc = stream_cfg;
    sc.arrival.rate_per_s = rate;
    sc.seed = seed;
    const runtime::ServingConfig serving;

    Served out;
    const double setup0 = hostNow();
    std::unique_ptr<KvBackend> backend;
    {
        Scope s(spans, "hostapp.construct");
        backend = std::make_unique<KvBackend>(
            fleetConfig(seed), serving, sc.op_weights.at(kMove) > 0, spans);
    }
    {
        Scope s(spans, "hostapp.seed");
        backend->seed();
    }
    std::vector<runtime::ServingRequest> stream;
    {
        Scope s(spans, "runtime.makeStream");
        stream = runtime::makeStream(sc, requests);
    }
    out.setup_s = hostNow() - setup0;

    hostapp::DistributedKv &kv = backend->kv();
    const u64 cycles0 = kv.simCycles(), sw0 = kv.schedSwitches(),
              el0 = kv.schedElisions();
    const core::StmStats stm0 = fleetStm(kv);
    const hostapp::TwoPcStats tp0 = kv.stats();

    const double t0 = hostNow();
    {
        Scope s(spans, "runtime.runServing");
        out.rep = runtime::runServing(*backend, stream, serving);
    }
    out.serve_s = hostNow() - t0;

    backend->verify();
    check(out.rep.offered == out.rep.completed + out.rep.shed,
          "kv: offered != completed + shed");

    Ledger &lg = backend->ledger();
    u64 sum = 0, max = 0;
    for (u64 v : lg.e2e_ns) {
        sum += v;
        max = std::max(max, v);
    }
    check(lg.e2e_ns.size() == out.rep.e2e_ns.count
              && sum == out.rep.e2e_ns.sum
              && (lg.e2e_ns.empty() || max == out.rep.e2e_ns.max),
          "kv: rebuilt latencies do not match ServingReport::e2e_ns");
    // queue wait + round time == end-to-end latency, per request, up
    // to the 1 ns rounding of the two parts.
    check(lg.max_identity_gap_ns <= 1,
          "kv: queue wait + round time != end-to-end latency");
    std::sort(lg.e2e_ns.begin(), lg.e2e_ns.end());
    out.e2e_ns = std::move(lg.e2e_ns);
    out.mean_wait_ms = out.rep.completed
        ? static_cast<double>(lg.wait_ns_sum) * 1e-6
            / static_cast<double>(out.rep.completed)
        : 0;

    out.sim_cycles = kv.simCycles() - cycles0;
    out.switches = kv.schedSwitches() - sw0;
    out.elisions = kv.schedElisions() - el0;
    const core::StmStats stm1 = fleetStm(kv);
    out.stm.starts = stm1.starts - stm0.starts;
    out.stm.commits = stm1.commits - stm0.commits;
    out.stm.aborts = stm1.aborts - stm0.aborts;
    for (size_t i = 0; i < core::kNumAbortReasons; ++i)
        out.stm.abort_reasons[i] =
            stm1.abort_reasons[i] - stm0.abort_reasons[i];
    out.stm.validations = stm1.validations - stm0.validations;
    const hostapp::TwoPcStats &tp1 = kv.stats();
    out.twopc.prepare_rounds = tp1.prepare_rounds - tp0.prepare_rounds;
    out.twopc.commit_rounds = tp1.commit_rounds - tp0.commit_rounds;
    out.twopc.tx_commits = tp1.tx_commits - tp0.tx_commits;
    out.twopc.tx_predicate_fails =
        tp1.tx_predicate_fails - tp0.tx_predicate_fails;
    out.twopc.tx_conflict_retries =
        tp1.tx_conflict_retries - tp0.tx_conflict_retries;
    out.twopc.serial_fallbacks = tp1.serial_fallbacks - tp0.serial_fallbacks;
    out.twopc.bytes_down = tp1.bytes_down - tp0.bytes_down;
    out.twopc.bytes_up = tp1.bytes_up - tp0.bytes_up;
    out.round_host_s = backend->roundHostSeconds();
    out.round_s_sum = backend->roundSecondsSum();
    out.dpu_frac_sum = backend->dpuFracSum();
    return out;
}

/** Exact p99 over every offered request, a shed request counting as
 * missing any limit. */
double
p99WithShed(const Served &s)
{
    const u64 n = s.rep.offered;
    const u64 rank = static_cast<u64>(std::ceil(0.99 * static_cast<double>(n)));
    return rank > s.e2e_ns.size() ? 1e300
                                  : static_cast<double>(s.e2e_ns[rank - 1])
            * 1e-9;
}

/**
 * Highest offered rate meeting @p slo, by the harness's own search
 * shape (runtime::findCapacity): double from @p lo until the SLO
 * breaks, then bisect. Judged on the exact p99, not the log2
 * histogram findCapacity uses.
 */
double
searchCapacity(const runtime::StreamConfig &sc, u64 seed,
               const runtime::SloSpec &slo, double lo, double max_rate,
               unsigned refine, unsigned &probes)
{
    SpanLog off(false);
    auto ok = [&](double rate) {
        ++probes;
        const Served s = serveOnce(sc, rate, seed, kProbeRequests, off);
        if (slo.require_zero_shed && s.rep.shed > 0)
            return false;
        return p99WithShed(s) <= slo.p99_s;
    };
    check(ok(lo), "kv: even the lowest probed rate misses the SLO");
    double good = lo, bad = 0;
    for (double r = lo * 2; r <= max_rate; r *= 2) {
        if (!ok(r)) {
            bad = r;
            break;
        }
        good = r;
    }
    if (bad == 0)
        return good;
    for (unsigned i = 0; i < refine; ++i) {
        const double mid = 0.5 * (good + bad);
        (ok(mid) ? good : bad) = mid;
    }
    return good;
}

/** Both fixed-rate runs of one pass. */
struct PassResult
{
    Served low, high;
    double serve_s() const { return low.serve_s + high.serve_s; }
};

/**
 * Host seconds of one runServing call, as a lower envelope over
 * @p runs of the same (deterministic) run: each round's fastest
 * executeRound time, plus the fastest time spent outside the rounds.
 * A burst of host noise drops out unless it hits the same round in
 * every pass.
 */
double
fastestServe(const std::vector<const Served *> &runs)
{
    double outside = 1e300;
    std::vector<double> best(runs.front()->round_host_s.size(), 1e300);
    for (const Served *s : runs) {
        check(s->round_host_s.size() == best.size(),
              "kv: repeated runs differ in round count");
        double in_rounds = 0;
        for (size_t r = 0; r < best.size(); ++r) {
            best[r] = std::min(best[r], s->round_host_s[r]);
            in_rounds += s->round_host_s[r];
        }
        outside = std::min(outside, s->serve_s - in_rounds);
    }
    double sum = outside;
    for (double b : best)
        sum += b;
    return sum;
}

/** Host seconds of one pass (both rates), per fastestServe. */
double
fastestPass(const std::vector<PassResult> &passes)
{
    std::vector<const Served *> low, high;
    for (const PassResult &p : passes) {
        low.push_back(&p.low);
        high.push_back(&p.high);
    }
    return fastestServe(low) + fastestServe(high);
}

bool
sameSimulation(const Served &a, const Served &b)
{
    return a.e2e_ns == b.e2e_ns && a.rep.shed == b.rep.shed
        && a.rep.rounds == b.rep.rounds && a.sim_cycles == b.sim_cycles
        && a.rep.busy_seconds == b.rep.busy_seconds
        && a.stm.commits == b.stm.commits
        && a.twopc.commit_rounds == b.twopc.commit_rounds;
}

} // namespace

void
runKv(const Options &opt, bool two_pc, Report &rep)
{
    runtime::StreamConfig sc;
    sc.arrival.kind = runtime::ArrivalKind::Poisson;
    sc.keys = kRanks;
    sc.zipf_theta = 0.99;
    sc.op_weights = two_pc ? std::vector<double>{0.40, 0.30, 0.30}
                           : std::vector<double>{0.90, 0.10, 0.00};
    const Rates rates = two_pc ? Rates{100e3, 150e3} : Rates{200e3, 1000e3};
    const u64 seed = opt.seed;
    const double t_start = hostNow();

    // The capacity search doubles as the warm-up: set-up is timed only
    // after a dozen fleets have come and gone, so the allocator is warm
    // (a cold process's set-ups took twice as long).
    unsigned probes = 0;
    const runtime::SloSpec slo;
    const double capacity =
        searchCapacity(sc, seed, slo, 100e3, 12.8e6, 7, probes);

    SpanLog off(false);
    std::vector<PassResult> timed, traced;
    SpanLog best_spans(true);
    double best_traced = 1e300;
    std::vector<double> setups;
    const double budget_end = t_start + opt.seconds;
    double rss_mb = 0;
    while (timed.size() < kMinPasses
           || (opt.trace && traced.size() < kMinPasses)
           || hostNow() < budget_end) {
        const bool trace_this = opt.trace && traced.size() < timed.size();
        SpanLog pass_spans(trace_this);
        SpanLog &sp = trace_this ? pass_spans : off;
        PassResult p{serveOnce(sc, rates.low, seed, kRequests, sp),
                     serveOnce(sc, rates.high, seed, kRequests, sp)};
        if (!timed.empty())
            check(sameSimulation(p.low, timed[0].low)
                      && sameSimulation(p.high, timed[0].high),
                  "kv: a repeated pass simulated differently");
        if (!trace_this) {
            setups.push_back(p.low.setup_s);
            setups.push_back(p.high.setup_s);
        }
        if (trace_this && p.serve_s() < best_traced) {
            best_traced = p.serve_s();
            best_spans = std::move(pass_spans);
        }
        (trace_this ? traced : timed).push_back(std::move(p));
        // Peak memory at a fixed point of the run, so that it does not
        // depend on how many passes the host's speed allows.
        if (timed.size() == kMinPasses && rss_mb == 0)
            rss_mb = peakRssMb();
    }

    const PassResult &ref = timed[0];
    std::vector<double> pass_times;
    for (const PassResult &p : timed)
        pass_times.push_back(p.serve_s());
    const double wall = fastestPass(timed);
    const u64 pass_cycles = ref.low.sim_cycles + ref.high.sim_cycles;
    const std::string passes = "sum of per-round fastest; "
        + passNote(pass_times, "2 rates x " + std::to_string(kRequests)
                                   + " requests");

    rep.attempted = ref.low.rep.offered + ref.high.rep.offered;
    rep.failed = ref.low.rep.shed + ref.high.rep.shed;

    rep.add("setup_s", median(setups), "s",
            "median of " + std::to_string(setups.size())
                + " fleet+seed+stream set-ups");
    rep.add("wall_s", wall, "s", passes);
    rep.add("sim_cycles_per_host_s", static_cast<double>(pass_cycles) / wall,
            "1/s", passes);
    rep.add("peak_rss_mb", rss_mb, "MiB");
    rep.add("sim_tx_per_s",
            static_cast<double>(ref.high.stm.commits)
                / ref.high.rep.busy_seconds,
            "1/s", "fleet commits per busy shard-second at the high rate");
    rep.add("capacity_rps", capacity, "1/s",
            std::to_string(probes) + " probes x "
                + std::to_string(kProbeRequests) + " requests, exact p99 <= "
                + std::to_string(slo.p99_s * 1e3) + " ms, no shed");
    for (const auto &[level, s] :
         {std::pair{"low", &ref.low}, std::pair{"high", &ref.high}}) {
        const double r = level == std::string("low") ? rates.low : rates.high;
        const std::string n = "n=" + std::to_string(s->e2e_ns.size())
            + " at " + std::to_string(static_cast<long>(r)) + " req/s";
        rep.add(std::string("p50_ms.") + level,
                static_cast<double>(nearestRank(s->e2e_ns, 0.5)) * 1e-6,
                "ms", n);
        rep.add(std::string("p99_ms.") + level,
                static_cast<double>(nearestRank(s->e2e_ns, 0.99)) * 1e-6,
                "ms", n);
        rep.add(std::string("p999_ms.") + level,
                static_cast<double>(nearestRank(s->e2e_ns, 0.999)) * 1e-6,
                "ms", n);
    }

    if (!opt.trace)
        return;

    // Per-layer metrics of one pass (both fixed-rate runs).
    const auto totals = best_spans.totals();
    const auto span = [&](const char *name) {
        auto it = totals.find(name);
        return it == totals.end() ? SpanLog::Totals{} : it->second;
    };
    const Served *both[] = {&ref.low, &ref.high};
    u64 cycles = 0, switches = 0, elisions = 0, completed = 0, shed = 0,
        rounds = 0, batches = 0, bytes = 0, launches = 0;
    u32 peak_queue = 0;
    double wait_ms = 0, round_ms = 0, dpu_frac = 0, busy = 0, capacity_s = 0;
    core::StmStats stm;
    hostapp::TwoPcStats tp;
    for (const Served *s : both) {
        cycles += s->sim_cycles;
        switches += s->switches;
        elisions += s->elisions;
        completed += s->rep.completed;
        shed += s->rep.shed;
        rounds += s->rep.rounds;
        batches += s->rep.batches;
        for (const auto &sh : s->rep.shards)
            peak_queue = std::max(peak_queue, sh.peak_queue);
        wait_ms += s->mean_wait_ms * static_cast<double>(s->rep.completed);
        round_ms += s->round_s_sum * 1e3;
        dpu_frac += s->dpu_frac_sum;
        busy += s->rep.busy_seconds;
        capacity_s += s->rep.capacity_seconds;
        bytes += s->twopc.bytes_down + s->twopc.bytes_up;
        launches += s->twopc.prepare_rounds + s->twopc.commit_rounds;
        stm.starts += s->stm.starts;
        stm.commits += s->stm.commits;
        for (size_t i = 0; i < core::kNumAbortReasons; ++i)
            stm.abort_reasons[i] += s->stm.abort_reasons[i];
        stm.validations += s->stm.validations;
        tp.tx_commits += s->twopc.tx_commits;
        tp.tx_conflict_retries += s->twopc.tx_conflict_retries;
        tp.tx_predicate_fails += s->twopc.tx_predicate_fails;
        tp.serial_fallbacks += s->twopc.serial_fallbacks;
        tp.commit_rounds += s->twopc.commit_rounds;
    }
    const double dr = static_cast<double>(rounds);

    rep.add("sim.cycles", static_cast<double>(cycles), "count");
    rep.add("sim.sched_switches", static_cast<double>(switches), "count");
    rep.add("sim.sched_elisions", static_cast<double>(elisions), "count");
    rep.add("sim.elision_frac",
            static_cast<double>(elisions)
                / static_cast<double>(switches + elisions),
            "ratio");
    rep.add("sim.host_ns_per_switch",
            span("hostapp.execute").total_s * 1e9
                / static_cast<double>(switches),
            "ns");
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

    rep.add("runtime.stream.gen_s", span("runtime.makeStream").total_s, "s");
    rep.add("runtime.serving.self_s", span("runtime.runServing").self_s, "s",
            "runServing minus its executeRound children");
    rep.add("runtime.serving.rounds", dr, "count");
    rep.add("runtime.serving.mean_batch",
            static_cast<double>(completed) / static_cast<double>(batches),
            "count", "requests per non-empty shard batch");
    rep.add("runtime.serving.shed", static_cast<double>(shed), "count");
    rep.add("runtime.serving.peak_queue", peak_queue, "count");
    rep.add("runtime.serving.queue_wait_ms",
            wait_ms / static_cast<double>(completed), "ms");
    rep.add("bench.adapter.self_s", span("runtime.executeRound").self_s, "s",
            "executeRound minus its DistributedKv::execute child");

    rep.add("hostapp.setup_s",
            span("hostapp.construct").total_s + span("hostapp.seed").total_s,
            "s");
    rep.add("hostapp.execute_s", span("hostapp.execute").total_s, "s");
    rep.add("hostapp.round_ms", round_ms / dr, "ms");
    rep.add("hostapp.round_dpu_frac", dpu_frac / dr, "ratio");
    rep.add("hostapp.occupancy", busy / capacity_s, "ratio");
    rep.add("hostapp.launches_per_round",
            static_cast<double>(launches) / dr, "count");
    rep.add("hostapp.bytes_per_req",
            static_cast<double>(bytes) / static_cast<double>(completed), "B");
    rep.add("hostapp.2pc.tx_commits", static_cast<double>(tp.tx_commits),
            "count");
    const u64 prepares =
        tp.tx_commits + tp.tx_predicate_fails + tp.tx_conflict_retries;
    rep.add("hostapp.2pc.retry_frac",
            prepares ? static_cast<double>(tp.tx_conflict_retries)
                    / static_cast<double>(prepares)
                     : 0.0,
            "ratio", "pin-conflict retries over prepare attempts");
    rep.add("hostapp.2pc.serial_fallbacks",
            static_cast<double>(tp.serial_fallbacks), "count");
    rep.add("hostapp.2pc.commit_rounds",
            static_cast<double>(tp.commit_rounds), "count");

    rep.add("trace.overhead_s", fastestPass(traced) - wall, "s",
            "traced minus untraced wall_s, both summed per-round fastest");
    best_spans.printTotals();
    if (!opt.spans_out.empty())
        best_spans.write(opt.spans_out);
}

} // namespace perfbench
