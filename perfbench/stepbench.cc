/**
 * @file
 * The repository benchmark's measuring program. One process serves one
 * workload through the public runtime API and prints one JSON line as
 * the last line of its standard output; perfbench/run.py builds this
 * program, starts it once per round, and turns the rounds into the
 * benchmark's metrics.
 *
 *   stepbench --workload NAME --seed N --seconds S --mode timed
 *             [--round I --rounds R]
 *   stepbench --workload NAME --seed N --seconds S --mode traced
 *             [--spans PATH]
 *
 * A workload is a number of independent instances (a trace, and for
 * cluster_chaos a fault plan) generated from the seed; S fixes how many.
 *
 * timed:  set up every instance (trace, fault plan, engine or cluster),
 *         then serve instances I, I + R, ... once each, timing each
 *         simulation call. Each call is checked; the line carries setup
 *         time, per-call timings and digests, peak RSS, outcome counts
 *         and the raw latency samples.
 * traced: one pass of per-layer measurements on instance 0. Every call
 *         into a layer's public functions is wrapped in a host-time span
 *         recorded here, so nothing inside src/ is instrumented; the
 *         spans are written to PATH at the end and printed as a
 *         self-time table.
 *
 * Workloads (all open loop in simulated time; cluster runs use one
 * worker thread except where the traced run measures thread scaling):
 *  - engine_bursty:   one ServingEngine, bursty single-turn trace;
 *  - cluster_chaos:   4 replicas, crashes + slowdowns, full resilience
 *                     tier with telemetry breakers;
 *  - prefix_sessions: 4 fault-free replicas, prefix-affinity routing,
 *                     multi-turn sessions, a small per-replica cache.
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "derive.hh"
#include "obs/metrics.hh"
#include "obs/sink.hh"
#include "runtime/cluster.hh"
#include "runtime/engine.hh"
#include "support/error.hh"
#include "support/rng.hh"
#include "trace/trace.hh"
#include "verify/verifier.hh"
#include "workloads/decoder.hh"

// ---- counting allocator -------------------------------------------------
// Counts global allocations while g_count_allocs is set (the graph
// replay only; it runs on one thread). Off, the hook is one relaxed load.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

inline void
countAlloc()
{
    if (g_count_allocs.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
}
} // namespace

void*
operator new(std::size_t n)
{
    countAlloc();
    if (void* p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n)
{
    countAlloc();
    if (void* p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void*
operator new(std::size_t n, std::align_val_t align)
{
    countAlloc();
    if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), n))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n, std::align_val_t align)
{
    countAlloc();
    if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), n))
        return p;
    throw std::bad_alloc();
}

void*
operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    countAlloc();
    return std::malloc(n);
}

void*
operator new[](std::size_t n, const std::nothrow_t&) noexcept
{
    countAlloc();
    return std::malloc(n);
}

// Both sides are this file's malloc/free replacements (see bench_hotpath).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop

namespace {

using namespace step;
using namespace step::runtime;
using perfbench::SpanRecorder;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Peak resident set of this process image, from VmHWM. getrusage's
 * ru_maxrss is not used: Linux carries it across exec, so it would
 * report the launching interpreter's footprint when that is larger.
 */
double
peakRssMb()
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof line, f))
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kib = std::atof(line + 6);
    std::fclose(f);
    return kib / 1024.0;
}

// ---- workloads ----------------------------------------------------------

/**
 * One workload: its configuration and, once generated, its inputs. Not
 * movable: the cluster template points at `brownout`.
 */
struct Workload
{
    std::string name;
    TraceConfig tc;
    bool cluster = false;
    EngineConfig ec; ///< engine_bursty's engine
    ClusterConfig cc; ///< cluster workloads
    bool faults = false;
    FaultPlanConfig fc;
    QueueDepthPolicy policy;
    BrownoutPolicy brownout;
    /**
     * Instances a timed run serves per second of --seconds: its four
     * rounds run at once, one per CPU, so about four times one
     * instance's serving rate on a 4-core x86 box (Release). The
     * instance count depends on --seconds only, never on measured speed,
     * so two commits run with the same arguments serve identical inputs.
     */
    double instancesPerSecond = 1;
    int64_t instances = 1;
    uint64_t seed = 0; ///< --seed
    std::vector<std::vector<Request>> traces;
    std::vector<FaultPlan> plans;

    /** Instance @p i's cluster configuration (its own fault plan). */
    ClusterConfig
    clusterConfig(size_t i) const
    {
        ClusterConfig c = cc;
        if (faults)
            c.faults = plans[i];
        return c;
    }

    Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;
};

/** serving_sim's bursty arrivals, scaled by @p rate_scale, with
 *  cluster_sim's heavy-tailed lengths. */
void
burstyArrivals(TraceConfig& tc, double rate_scale)
{
    tc.arrivalsPerKcycle = 0.0012 * rate_scale;
    tc.burstPeriod = 16'000'000;
    tc.burstDuty = 0.3;
    tc.burstFactor = 4.0;
    tc.promptSigma = 1.1;
    tc.outputSigma = 0.9;
}

/** @p min_instances: at least one instance per timed round. */
std::unique_ptr<Workload>
makeWorkload(const std::string& name, double seconds, int64_t min_instances)
{
    auto w = std::make_unique<Workload>();
    w->name = name;
    if (name == "engine_bursty") {
        w->tc.numRequests = 480;
        burstyArrivals(w->tc, 1.0);
        w->ec.seed = deriveSeed(1);
        w->instancesPerSecond = 4.0;
    } else if (name == "cluster_chaos") {
        w->cluster = true;
        // 240 requests per instance: with fewer, some instances see no
        // crash at all and the per-instance cost spread doubles.
        w->tc.numRequests = 240;
        burstyArrivals(w->tc, 4.0);
        // As cluster_sim --resilience --breaker-source telemetry
        // --mtbf 30000000 --slowdown-mtbf 20000000 configures it.
        w->tc.lowPriorityFrac = 0.2;
        w->tc.highPriorityFrac = 0.1;
        w->cc.replicas = 4;
        w->cc.routing = RouteKind::LeastQueued;
        w->faults = true;
        w->fc.mtbfCycles = 30'000'000;
        w->fc.mttrCycles = 30'000'000 / 4;
        w->fc.slowdownMtbfCycles = 20'000'000;
        w->cc.resilience.enabled = true;
        w->cc.resilience.breakerSource = BreakerSource::Telemetry;
        w->cc.resilience.remotePrefix.enabled = true;
        w->cc.resilience.autoscale.enabled = true;
        w->cc.engine.admission = &w->brownout;
        w->instancesPerSecond = 1.3;
    } else if (name == "prefix_sessions") {
        w->cluster = true;
        // prefix_cache_sim's conversation model at its 4-replica scale.
        w->tc.numSessions = 96;
        w->tc.turnsPerSession = 5;
        w->tc.sharedSystemPromptLen = 96;
        w->tc.turnDeltaMean = 96;
        w->tc.outputMean = 48;
        w->tc.arrivalsPerKcycle = 0.0008;
        w->tc.turnGapMean = 6'000'000;
        w->cc.replicas = 4;
        w->cc.routing = RouteKind::PrefixAffinity;
        // Small enough to force eviction: lookups, pins, inserts and
        // evictions all run.
        w->cc.engine.prefixCache.capacityTokens = 2048;
        w->instancesPerSecond = 2.8;
    } else {
        return nullptr;
    }
    w->cc.threads = 1;
    w->instances = std::max<int64_t>(
        min_instances, std::llround(seconds * w->instancesPerSecond));
    return w;
}

/**
 * Fault scenarios do not follow --seed: instance i always draws its plan
 * from prefixHashMix(kFaultScenarioSeed, i). Which crashes a plan holds
 * moves the cost of serving an instance by ~0.25 (CV), so seeded plans
 * made the run-to-run spread of sim_req_per_s on cluster_chaos approach
 * the format's 0.25 bound; fixed scenarios under seeded traffic keep
 * the seed's influence to the traces and the engines' streams.
 */
constexpr uint64_t kFaultScenarioSeed = 3;

/**
 * Make instance @p i's seed the global seed. Instance 0 runs under --seed
 * itself; every other instance under an independent mix of it, so each
 * instance draws its own trace and engine streams (the engines' and the
 * replicas' seeds derive from the global seed). Called between
 * simulation calls only, when no cluster worker exists.
 */
void
useInstanceSeed(const Workload& w, size_t i)
{
    setGlobalSeed(i == 0 ? w.seed : prefixHashMix(w.seed, i));
}

/**
 * Generate every instance's trace under its own seed (deriveSeed(2), the
 * examples' trace stream) and its fault plan from its fixed scenario;
 * leaves --seed as the global seed.
 */
void
generateInputs(Workload& w)
{
    w.traces.clear();
    w.plans.clear();
    for (int64_t i = 0; i < w.instances; ++i) {
        useInstanceSeed(w, static_cast<size_t>(i));
        w.traces.push_back(generateTrace(w.tc, deriveSeed(2)));
        if (w.faults) {
            // Horizon: twice the trace span, so late crashes are possible.
            const std::vector<Request>& t = w.traces.back();
            FaultPlanConfig fc = w.fc;
            fc.horizonCycles = t.empty() ? 0 : t.back().arrival * 2;
            w.plans.push_back(generateFaultPlan(
                fc, w.cc.replicas,
                prefixHashMix(kFaultScenarioSeed, static_cast<uint64_t>(i))));
        }
    }
    setGlobalSeed(w.seed);
}

// ---- output checks --------------------------------------------------------

struct SimOutputs
{
    double ttftP50 = 0, ttftP95 = 0, tpotP95 = 0, goodput = 0,
           availability = 0;
    int64_t completed = 0, failed = 0, shed = 0;
    uint64_t digest = 0;
};

/**
 * Check one finished simulation and extract its outputs. Every request
 * must end exactly once as Finished, Failed or Shed (migrated and
 * retried incarnations are in transit), the summary's counts must match
 * the per-request states, and availability must re-derive from them.
 * Returns an empty string when every check holds.
 */
std::string
checkRun(const std::vector<Request>& reqs, const ServingSummary& s,
         SimOutputs* out)
{
    int64_t done = 0, failed = 0, shed = 0;
    for (const Request& r : reqs) {
        switch (r.state) {
          case ReqState::Finished:
            ++done;
            if (r.firstTokenAt < r.arrival || r.finishedAt < r.firstTokenAt)
                return "request " + std::to_string(r.id) +
                       " finished out of order";
            break;
          case ReqState::Failed:
            ++failed;
            break;
          case ReqState::Shed:
            ++shed;
            break;
          default:
            return "request " + std::to_string(r.id) +
                   " ended in a non-terminal state";
        }
    }
    const auto submitted = static_cast<int64_t>(reqs.size());
    if (s.completed + s.failedRequests + s.shedRequests != submitted)
        return "summary: completed + failed + shed != submitted";
    if (s.completed != done || s.failedRequests != failed ||
        s.shedRequests != shed)
        return "summary counts (" + std::to_string(s.completed) + "/" +
               std::to_string(s.failedRequests) + "/" +
               std::to_string(s.shedRequests) +
               ") disagree with request states (" + std::to_string(done) +
               "/" + std::to_string(failed) + "/" + std::to_string(shed) +
               ")";
    const double avail =
        submitted == 0 ? 1.0
                       : static_cast<double>(done) /
                             static_cast<double>(submitted);
    if (std::fabs(avail - s.availability) > 1e-12)
        return "availability does not re-derive from the counts";
    if (static_cast<int64_t>(s.ttftSamples.size()) != done)
        return "TTFT sample count != completed";
    if (done == 0)
        return "no request completed";
    out->ttftP50 = s.ttftP50 / 1000.0;
    out->ttftP95 = s.ttftP95 / 1000.0;
    out->tpotP95 = s.tpotP95 / 1000.0;
    out->goodput = s.goodputTokensPerKcycle;
    out->availability = s.availability;
    out->completed = done;
    out->failed = failed;
    out->shed = shed;
    out->digest = perfbench::outcomeDigest(reqs);
    return {};
}

std::string
jsonEscape(const std::string& s)
{
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        o += c;
    }
    return o;
}

void
printSamples(const char* key, const std::vector<double>& xs)
{
    std::printf(",\"%s\":[", key);
    for (size_t i = 0; i < xs.size(); ++i)
        std::printf("%s%.17g", i ? "," : "", xs[i]);
    std::printf("]");
}

/**
 * CPU seconds this process has run, all threads. The timed mode measures
 * with it rather than the wall clock: the kernel charges a task only for
 * time it actually ran (CONFIG_PARAVIRT_TIME_ACCOUNTING leaves the
 * hypervisor's steal time out), so neither another guest process nor the
 * host descheduling the vCPU lengthens a call or a probe pass. For the
 * single-threaded simulation calls it equals their wall time whenever the
 * process is not descheduled.
 */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---- host-speed probe -----------------------------------------------------

std::atomic<uint64_t> g_probe_sink{0};

uint64_t
splitmix(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/**
 * CPU seconds of one pass of a fixed workload of the benchmark's own,
 * which calls no simulator code: a bounded binary-heap event queue and a
 * small allocation per event. On the shared 4-core box the host's speed
 * drifts by up to 2x over minutes; in 15-second windows this pass's time
 * tracked a repeated engine run's with correlation 0.94-0.99 (a pointer
 * chase over 4 MiB: 0.65-0.89; pure arithmetic: 0.90), so the timed
 * mode runs it between simulation calls and run.py rescales host time by
 * it.
 */
double
probeSeconds()
{
    const double c0 = cpuSeconds();
    uint64_t acc = 1;
    std::vector<uint64_t> heap;
    for (uint64_t i = 0; i < 80000; ++i) {
        heap.push_back(splitmix(acc + i));
        std::push_heap(heap.begin(), heap.end());
        if (heap.size() > 512) {
            std::pop_heap(heap.begin(), heap.end());
            acc ^= heap.back();
            heap.pop_back();
        }
        std::vector<uint32_t> small(1 + (acc + i) % 13, 7);
        acc += small.back();
    }
    const double secs = cpuSeconds() - c0;
    g_probe_sink.store(acc, std::memory_order_relaxed); // keeps the work
    return secs;
}

// ---- timed mode -----------------------------------------------------------

/**
 * A timed round repeats the full set-up at least kSetupReps times and
 * until kSetupSeconds of CPU time are spent (at most kSetupMaxReps
 * times); setup_s is the median. cluster_chaos sets up in ~1.3 ms, so
 * five set-ups alone are a few milliseconds of CPU time, short enough
 * for one slow spell of the host to cover most of them.
 */
constexpr int kSetupReps = 5;
constexpr int kSetupMaxReps = 400;
constexpr double kSetupSeconds = 0.25;

/** Probe time after each simulation call, as a share of the call's. */
constexpr double kProbeShare = 0.05;

/**
 * Serve the first quarter of instance @p i's trace on an engine or
 * cluster of its own, untimed: a process's first simulation call ran
 * ~25% slower than the next ones (code and allocator still cold), and
 * that penalty would otherwise land on whichever instance comes first.
 * Its outcome is discarded; the timed call checks the instance itself.
 */
void
warmUp(const Workload& w, size_t i)
{
    const std::vector<Request>& t = w.traces[i];
    std::vector<Request> reqs(t.begin(),
                              t.begin() + static_cast<std::ptrdiff_t>(
                                              (t.size() + 3) / 4));
    useInstanceSeed(w, i);
    try {
        if (w.cluster) {
            ServingCluster c(w.clusterConfig(i), w.policy);
            (void)c.run(reqs);
        } else {
            EngineConfig ec = w.ec;
            ec.seed = deriveSeed(1);
            ServingEngine e(ec, w.policy);
            (void)e.run(reqs);
        }
    } catch (const std::exception&) {
    }
}

/**
 * Round @p round of @p rounds: set up the whole workload (every
 * instance's trace and fault plan, its engine or cluster) repeatedly
 * (kSetupReps), keeping the last, warm up on the round's first instance, then
 * serve instances round, round + rounds, ... once each, timing each
 * simulation call and releasing the instance's engine or cluster after
 * it. Set-up, calls and probe are measured in CPU seconds (cpuSeconds);
 * each call's wall seconds are reported beside them. After every call
 * the host-speed probe runs for kProbeShare of the call's time (at least
 * once), so its mean follows the host through the run. A call that
 * throws or fails a check counts all of its requests as failed and
 * contributes no timing. The line carries the raw latency samples so
 * run.py can pool percentiles over rounds.
 */
int
runTimed(Workload& w, int64_t round, int64_t rounds)
{
    std::vector<std::unique_ptr<ServingEngine>> engines;
    std::vector<std::unique_ptr<ServingCluster>> clusters;
    std::vector<double> setups;
    double setup_total = 0;
    for (int k = 0; k < kSetupMaxReps &&
                    (k < kSetupReps || setup_total < kSetupSeconds);
         ++k) {
        engines.clear();
        clusters.clear();
        const double c0 = cpuSeconds();
        generateInputs(w);
        for (size_t i = 0; i < w.traces.size(); ++i) {
            if (w.cluster) {
                clusters.push_back(std::make_unique<ServingCluster>(
                    w.clusterConfig(i), w.policy));
            } else {
                useInstanceSeed(w, i);
                EngineConfig ec = w.ec;
                ec.seed = deriveSeed(1);
                engines.push_back(
                    std::make_unique<ServingEngine>(ec, w.policy));
            }
        }
        setups.push_back(cpuSeconds() - c0);
        setup_total += setups.back();
    }
    std::sort(setups.begin(), setups.end());
    const double setup_s = setups[setups.size() / 2];

    std::vector<std::string> calls, errors;
    std::vector<double> ttft, tpot;
    int64_t attempted = 0, failed_ops = 0, done = 0, failed = 0, shed = 0;
    double good_tokens = 0, makespan_kcyc = 0;
    double probe_s = 0;
    int64_t probes = 0;
    if (static_cast<size_t>(round) < w.traces.size())
        warmUp(w, static_cast<size_t>(round));
    (void)probeSeconds(); // warm-up
    for (auto i = static_cast<size_t>(round); i < w.traces.size();
         i += static_cast<size_t>(rounds)) {
        std::vector<Request> reqs = w.traces[i];
        const auto n = static_cast<int64_t>(reqs.size());
        attempted += n;
        std::string err;
        SimOutputs o;
        ServingSummary s;
        double secs = 0, wall = 0;
        useInstanceSeed(w, i);
        try {
            const double c0 = cpuSeconds();
            const Clock::time_point t0 = Clock::now();
            if (!w.cluster)
                s = engines[i]->run(reqs).summary;
            else
                s = clusters[i]->run(reqs).aggregate;
            secs = cpuSeconds() - c0;
            wall = secondsSince(t0);
            err = checkRun(reqs, s, &o);
        } catch (const std::exception& e) {
            err = std::string("simulation threw: ") + e.what();
        }
        if (w.cluster)
            clusters[i].reset();
        else
            engines[i].reset();
        double probed = 0;
        do {
            const double p = probeSeconds();
            probed += p;
            probe_s += p;
            ++probes;
        } while (probed < kProbeShare * secs);
        if (!err.empty()) {
            failed_ops += n;
            errors.push_back("instance " + std::to_string(i) + ": " + err);
            continue;
        }
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "[%zu,%" PRId64 ",%.17g,\"%016" PRIx64 "\",%.17g]", i, n,
                      secs, o.digest, wall);
        calls.push_back(buf);
        done += o.completed;
        failed += o.failed;
        shed += o.shed;
        good_tokens += static_cast<double>(s.sloGoodTokens);
        makespan_kcyc += static_cast<double>(s.makespan) / 1000.0;
        ttft.insert(ttft.end(), s.ttftSamples.begin(), s.ttftSamples.end());
        tpot.insert(tpot.end(), s.tpotSamples.begin(), s.tpotSamples.end());
    }

    std::printf("{\"mode\":\"timed\",\"workload\":\"%s\",\"instances\":%" PRId64
                ",\"setup_s\":%.17g,\"peak_rss_mb\":%.17g,\"attempted\":%" PRId64
                ",\"failed\":%" PRId64 ",\"completed\":%" PRId64
                ",\"sim_failed\":%" PRId64 ",\"shed\":%" PRId64
                ",\"slo_good_tokens\":%.17g,\"makespan_kcyc\":%.17g"
                ",\"probe_s\":%.17g,\"probes\":%" PRId64 ",\"calls\":[",
                w.name.c_str(), w.instances, setup_s, peakRssMb(), attempted,
                failed_ops, done, failed, shed, good_tokens, makespan_kcyc,
                probes ? probe_s / static_cast<double>(probes) : 0.0, probes);
    for (size_t i = 0; i < calls.size(); ++i)
        std::printf("%s%s", i ? "," : "", calls[i].c_str());
    std::printf("],\"errors\":[");
    for (size_t i = 0; i < errors.size(); ++i)
        std::printf("%s\"%s\"", i ? "," : "", jsonEscape(errors[i]).c_str());
    std::printf("]");
    printSamples("ttft_cycles", ttft);
    printSamples("tpot_cycles", tpot);
    std::printf("}\n");
    return 0;
}

// ---- traced mode ----------------------------------------------------------

/** Run @p f inside a span named @p name; returns its host seconds. */
template <typename F>
double
timed(SpanRecorder& rec, const char* name, F&& f)
{
    int64_t id = 0;
    {
        auto s = rec.span(name);
        id = s.id();
        f();
    }
    return rec.seconds(id);
}

struct Metric
{
    const char* name;
    double value;
    const char* unit;
};

/**
 * Each traced variant runs this many times, interleaved with the other
 * variants, and keeps its fastest run: on a shared host a ratio of two
 * single runs can land on opposite sides of a slow spell.
 */
constexpr int kVariantReps = 2;

/** Keep the fastest of the repetitions (0 = none yet). */
void
keepMin(double& best, double secs)
{
    best = best > 0 ? std::min(best, secs) : secs;
}

/** What the traced run learned from one engine input (one shard). */
struct EngineLayer
{
    /** Fastest run: plain, +trace, +metrics, +verify. */
    double secs[4] = {};
    int64_t iterations = 0;
    int64_t counterSwitches = 0;
    std::vector<int64_t> batchSeq;
};

/** Totals of the graph-layer replay. */
struct ReplayStats
{
    int64_t iters = 0, rearms = 0, rebuilds = 0;
    double buildS = 0, rearmS = 0, verifyS = 0, runS = 0;
    uint64_t buildAllocs = 0, runAllocs = 0, tokens = 0, switches = 0;
};

/** The DecoderParams the engine derives from @p ec for one iteration. */
DecoderParams
engineDecoderParams(const EngineConfig& ec)
{
    DecoderParams dp;
    dp.cfg = ec.model;
    dp.attnStrategy = ec.attnStrategy;
    dp.attnRegions = ec.attnRegions;
    dp.kvTileRows = ec.kvTileRows;
    dp.moeRegions = ec.moeRegions;
    dp.moeTile = ec.moeTile;
    dp.denseTile = ec.denseTile;
    dp.weightTileCols = ec.weightTileCols;
    dp.seed = ec.seed;
    // Half the pool to decode, spread like the engine spreads it.
    const int64_t units =
        2 + ec.attnRegions +
        (ec.moeRegions > 0 ? ec.moeRegions : ec.model.numExperts);
    dp.computeBwPerMatmul =
        std::max<int64_t>(16, ec.totalComputeBw / 2 / units);
    dp.cfg.moeMatmulBw = dp.computeBwPerMatmul;
    return dp;
}

/**
 * Replay a recorded decode-batch sequence through one reused graph and
 * rearm handles, timing recycle+build, rearm, verify and the drain
 * separately. KV lengths come from @p reqs (a request's prompt plus a
 * seeded share of its output) and expert traces from @p rng. A second,
 * untimed pass replays the same iterations through runDecoderIteration
 * and must take the same rearm/rebuild path to the same cycles.
 */
std::string
replayGraph(const EngineConfig& ec, const std::vector<Request>& reqs,
            const std::vector<int64_t>& seq, Rng& rng, SpanRecorder& rec,
            ReplayStats& st)
{
    DecoderParams p = engineDecoderParams(ec);
    std::vector<IterationSpec> specs;
    for (int64_t b : seq) {
        if (b <= 0)
            continue;
        IterationSpec spec;
        for (int64_t i = 0; i < b; ++i) {
            const Request& r = reqs[rng.uniformInt(reqs.size())];
            spec.kvLens.push_back(r.promptLen +
                                  rng.uniformRange(1, r.outputLen));
        }
        spec.trace = generateExpertTrace(rng, b, p.cfg.numExperts,
                                         p.cfg.topK);
        specs.push_back(std::move(spec));
    }
    if (specs.empty())
        return {};

    GraphArena arena;
    Graph g(SimConfig{}, &arena);
    DecoderRearmHandles h;
    dam::Scheduler sched;
    static constexpr verify::VerifyOptions kVerifyAll{};
    std::vector<dam::Cycle> cycles;
    cycles.reserve(specs.size());

    // Warm-up: one untimed build+run of the first iteration, then
    // invalidate the handles so the sequence starts with a rebuild,
    // as the engine's does.
    {
        const auto b = static_cast<int64_t>(specs[0].kvLens.size());
        p.batch = b;
        g.recycle(iterationSimConfig(b));
        buildDecoderLayer(g, p, specs[0].trace, specs[0].kvLens, &h);
        (void)g.run(sched);
        h.valid = false;
    }

    auto alloc_now = [] { return g_allocs.load(std::memory_order_relaxed); };
    g_count_allocs.store(true, std::memory_order_relaxed);
    std::string err;
    for (const IterationSpec& spec : specs) {
        const auto b = static_cast<int64_t>(spec.kvLens.size());
        p.batch = b;
        const DecoderStructKey key = decoderStructKey(p, b);
        if (h.valid && h.key == key) {
            ++h.rearms;
            st.rearmS += timed(rec, "graph.rearm",
                               [&] { rearmDecoderLayer(g, h, p, spec); });
        } else {
            ++h.rebuilds;
            const uint64_t a0 = alloc_now();
            st.buildS += timed(rec, "graph.build", [&] {
                g.recycle(iterationSimConfig(b));
                buildDecoderLayer(g, p, spec.trace, spec.kvLens, &h);
            });
            st.buildAllocs += alloc_now() - a0;
            h.key = key;
            h.valid = true;
            st.verifyS += timed(rec, "verify.graph", [&] {
                const verify::VerifyReport rep = g.verify(kVerifyAll);
                if (rep.errors() > 0 && err.empty())
                    err = "graph verification failed: " + rep.toText();
            });
        }
        SimResult sim;
        const uint64_t a0 = alloc_now();
        st.runS += timed(rec, "dam.run", [&] { sim = g.run(sched); });
        st.runAllocs += alloc_now() - a0;
        st.tokens += g.totalChannelTokens();
        st.switches += sim.contextSwitches;
        cycles.push_back(sim.cycles);
    }
    g_count_allocs.store(false, std::memory_order_relaxed);
    st.iters += static_cast<int64_t>(specs.size());
    st.rearms += static_cast<int64_t>(h.rearms);
    st.rebuilds += static_cast<int64_t>(h.rebuilds);
    if (!err.empty())
        return err;

    // Cross-check through the public one-call path.
    GraphArena arena2;
    Graph g2(SimConfig{}, &arena2);
    DecoderRearmHandles h2;
    dam::Scheduler sched2;
    {
        auto s = rec.span("graph.crosscheck");
        for (size_t i = 0; i < specs.size(); ++i) {
            p.batch = static_cast<int64_t>(specs[i].kvLens.size());
            const SimResult r =
                runDecoderIteration(p, specs[i], &sched2, &g2, &h2);
            if (r.cycles != cycles[i])
                return "replay cycles differ from runDecoderIteration";
        }
    }
    if (h2.rearms != h.rearms || h2.rebuilds != h.rebuilds)
        return "replay rearm/rebuild path differs from "
               "runDecoderIteration";
    return {};
}

int64_t
counterValue(const ServingSummary& s, const char* name)
{
    for (const obs::CounterSample& c : s.counters)
        if (c.name == name)
            return c.value;
    return 0;
}

int
runTraced(Workload& w, uint64_t seed, const std::string& spans_path)
{
    SpanRecorder rec(w.name + "-seed" + std::to_string(seed));
    std::vector<std::string> errors;
    int64_t attempted = 0, failed_ops = 0;
    auto note = [&](const std::string& what, int64_t requests) {
        errors.push_back(what);
        failed_ops += requests;
    };

    // Inputs for every instance (setup_s covers them all); the per-layer
    // measurements serve instance 0.
    const double gen_s =
        timed(rec, "setup.trace_gen", [&] { generateInputs(w); });
    const std::vector<Request>& trace = w.traces[0];
    // Cluster-layer view: the workload's cluster, or for engine_bursty a
    // one-replica cluster of its engine (the bypass case).
    ClusterConfig cview;
    if (w.cluster) {
        cview = w.clusterConfig(0);
    } else {
        cview.engine = w.ec;
        cview.replicas = 1;
        cview.threads = 1;
    }
    const auto n = static_cast<int64_t>(trace.size());

    // ---- engine layer: plain, traced, metered and verified runs of
    // each engine input (the whole trace, or each replica's shard from
    // the cluster's routing pre-pass, fault-free).
    struct Shard
    {
        EngineConfig ec;
        std::vector<Request> reqs;
    };
    std::vector<Shard> shards;
    double route_s = 0;
    {
        ServingCluster router(cview, w.policy);
        std::vector<int64_t> assign;
        route_s = timed(rec, "cluster.route",
                        [&] { assign = router.routeTrace(trace); });
        if (!w.cluster) {
            shards.push_back({w.ec, trace});
        } else {
            shards.resize(static_cast<size_t>(cview.replicas));
            for (size_t r = 0; r < shards.size(); ++r) {
                shards[r].ec = cview.engine;
                shards[r].ec.seed = deriveSeed(r);
            }
            for (size_t i = 0; i < trace.size(); ++i)
                shards[static_cast<size_t>(assign[i])].reqs.push_back(
                    trace[i]);
        }
    }
    // Simulated outputs of instance 0 as the timed run serves it.
    SimOutputs sim;
    std::vector<EngineLayer> layers(shards.size());
    {
        auto top = rec.span("runtime.engine");
        for (size_t i = 0; i < shards.size(); ++i) {
            const Shard& sh = shards[i];
            if (sh.reqs.empty())
                continue;
            EngineLayer& el = layers[i];
            const auto sn = static_cast<int64_t>(sh.reqs.size());
            uint64_t digest0 = 0;
            for (int k = 0; k < 4 * kVariantReps; ++k) {
                const int variant = k % 4, rep = k / 4;
                EngineConfig ec = sh.ec;
                if (variant == 3)
                    ec.verifyGraphs = true;
                ServingEngine engine(ec, w.policy);
                obs::TraceSink sink(obs::TraceOptions{
                    obs::TraceLevel::Request, size_t{1} << 22});
                obs::MetricsRegistry registry(obs::MetricsConfig{true});
                if (variant == 1)
                    engine.attachTrace(&sink);
                if (variant == 2)
                    engine.attachMetrics(&registry);
                static const char* const kNames[] = {
                    "engine.run", "engine.run+trace", "engine.run+metrics",
                    "engine.run+verify"};
                std::vector<Request> reqs = sh.reqs;
                attempted += sn;
                EngineResult r;
                std::string err;
                double secs = 0;
                try {
                    secs = timed(rec, kNames[variant],
                                 [&] { r = engine.run(reqs); });
                    SimOutputs o;
                    err = checkRun(reqs, r.summary, &o);
                    if (err.empty() && variant == 0 && !w.cluster)
                        sim = o;
                    if (err.empty() && variant == 0 && rep == 0)
                        digest0 = o.digest;
                    else if (err.empty() && o.digest != digest0)
                        err = std::string(kNames[variant]) +
                              " changed the simulated outcome";
                } catch (const std::exception& e) {
                    err = std::string("engine run threw: ") + e.what();
                }
                if (!err.empty()) {
                    note(err, sn);
                    continue;
                }
                keepMin(el.secs[variant], secs);
                if (variant == 0) {
                    el.iterations = r.iterations;
                } else if (variant == 1) {
                    el.batchSeq = perfbench::decodeBatchSequence(sink);
                    el.counterSwitches =
                        counterValue(r.summary, "context_switches");
                    if (static_cast<int64_t>(el.batchSeq.size()) !=
                        r.iterations)
                        note("decode-batch sequence length != iterations",
                             sn);
                }
            }
        }
    }
    double plain = 0, traced = 0, metered = 0, verified = 0;
    int64_t iters = 0, decode_iters = 0, counter_switches = 0;
    for (const EngineLayer& el : layers) {
        plain += el.secs[0];
        traced += el.secs[1];
        metered += el.secs[2];
        verified += el.secs[3];
        iters += el.iterations;
        counter_switches += el.counterSwitches;
        for (int64_t b : el.batchSeq)
            decode_iters += b > 0;
    }

    // ---- graph layer + DAM: replay each shard's decode-batch sequence.
    ReplayStats rs;
    {
        auto top = rec.span("workloads.replay");
        Rng rng(deriveSeed(7));
        for (size_t i = 0; i < shards.size(); ++i) {
            if (layers[i].batchSeq.empty())
                continue;
            std::string err;
            try {
                err = replayGraph(shards[i].ec, shards[i].reqs,
                                  layers[i].batchSeq, rng, rec, rs);
            } catch (const std::exception& e) {
                err = std::string("graph replay threw: ") + e.what();
            }
            if (!err.empty())
                note(err, 0);
        }
    }
    // The replay's KV lengths are sampled, so its switch count only
    // approximates the engine's own counter; a wide gap means the replay
    // no longer models the engine's graphs.
    const double replay_switches =
        rs.iters ? static_cast<double>(rs.switches) /
                       static_cast<double>(rs.iters)
                 : 0;
    const double counter_per_iter =
        decode_iters ? static_cast<double>(counter_switches) /
                           static_cast<double>(decode_iters)
                     : 0;
    if (counter_per_iter > 0 &&
        (replay_switches < 0.5 * counter_per_iter ||
         replay_switches > 2.0 * counter_per_iter))
        note("replay switches/iter far from the context_switches counter",
             0);

    // ---- cluster layer: 1 vs 2 worker threads, and a fault-free twin.
    ClusterResult r1;
    // Fastest run: 1 thread, 2 threads, fault-free twin.
    double tc[3] = {};
    {
        auto top = rec.span("runtime.cluster");
        uint64_t d1 = 0;
        for (int k = 0; k < 3 * kVariantReps; ++k) {
            const int variant = k % 3, rep = k / 3;
            ClusterConfig cfg = cview;
            cfg.threads = variant == 1 ? 2 : 1;
            if (variant == 2) {
                cfg.faults = FaultPlan{};
                cfg.resilience.enabled = false;
                cfg.engine.admission = nullptr;
            }
            static const char* const kNames[] = {
                "cluster.run.threads1", "cluster.run.threads2",
                "cluster.run.faultfree"};
            std::vector<Request> reqs = trace;
            attempted += n;
            ClusterResult r;
            std::string err;
            double secs = 0;
            try {
                ServingCluster cluster(cfg, w.policy);
                secs = timed(rec, kNames[variant],
                             [&] { r = cluster.run(reqs); });
                SimOutputs o;
                err = checkRun(reqs, r.aggregate, &o);
                if (err.empty() && variant == 0 && w.cluster)
                    sim = o;
                if (err.empty() && variant == 0 && rep == 0)
                    d1 = o.digest;
                else if (err.empty() && variant < 2 && o.digest != d1)
                    err = "outcome digest differs between runs or between "
                          "1 and 2 threads";
            } catch (const std::exception& e) {
                err = std::string("cluster run threw: ") + e.what();
            }
            if (!err.empty()) {
                note(err, n);
                continue;
            }
            keepMin(tc[variant], secs);
            if (variant == 0 && rep == 0)
                r1 = std::move(r);
        }
    }
    double imbalance = 0;
    if (!r1.replicas.empty()) {
        int64_t mx = 0, sum = 0;
        for (const ReplicaResult& rr : r1.replicas) {
            mx = std::max(mx, rr.result.iterations);
            sum += rr.result.iterations;
        }
        const double mean =
            static_cast<double>(sum) / static_cast<double>(r1.replicas.size());
        imbalance = mean > 0 ? static_cast<double>(mx) / mean : 0;
    }
    const ServingSummary& agg = r1.aggregate;

    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    auto per = [](double a, int64_t b) {
        return b > 0 ? a / static_cast<double>(b) : 0.0;
    };
    const std::vector<Metric> m = {
        {"engine.us_per_iter", 1e6 * per(plain, iters), "us"},
        {"engine.decode_iter_frac",
         per(static_cast<double>(decode_iters), iters), "frac"},
        {"graph.rebuild_frac",
         per(static_cast<double>(rs.rebuilds), rs.rearms + rs.rebuilds),
         "frac"},
        {"graph.build_us", 1e6 * per(rs.buildS, rs.rebuilds), "us"},
        {"graph.rearm_us", 1e6 * per(rs.rearmS, rs.rearms), "us"},
        {"graph.allocs_per_build",
         per(static_cast<double>(rs.buildAllocs), rs.rebuilds), "count"},
        {"verify.us_per_build", 1e6 * per(rs.verifyS, rs.rebuilds), "us"},
        {"verify.overhead", ratio(verified, plain), "ratio"},
        {"dam.drain_us_per_iter", 1e6 * per(rs.runS, rs.iters), "us"},
        {"dam.events_per_s", ratio(static_cast<double>(rs.tokens), rs.runS),
         "1/s"},
        {"dam.switches_per_iter", replay_switches, "count"},
        {"dam.allocs_per_event",
         rs.tokens ? static_cast<double>(rs.runAllocs) /
                         static_cast<double>(rs.tokens)
                   : 0,
         "count"},
        {"cluster.route_s", route_s, "s"},
        {"cluster.fault_cost_ratio", ratio(tc[0], tc[2]), "ratio"},
        {"cluster.retries", static_cast<double>(r1.retriesIssued), "count"},
        {"cluster.migrations", static_cast<double>(r1.migrationsIssued),
         "count"},
        {"cluster.thread_speedup", ratio(tc[0], tc[1]), "ratio"},
        {"cluster.replica_iter_imbalance", imbalance, "ratio"},
        {"prefix.hit_rate", agg.prefixHitRate, "frac"},
        {"prefix.tokens_saved_frac", agg.prefillTokensSavedFrac, "frac"},
        {"prefix.peak_occupancy_tokens",
         static_cast<double>(agg.prefixPeakOccupancyTokens), "tokens"},
        {"obs.trace_overhead", ratio(traced, plain), "ratio"},
        {"obs.metrics_overhead", ratio(metered, plain), "ratio"},
        {"setup.trace_gen_s", gen_s, "s"},
        {"sim.ttft_p50_kcyc", sim.ttftP50, "kcyc"},
        {"sim.ttft_p95_kcyc", sim.ttftP95, "kcyc"},
        {"sim.tpot_p95_kcyc", sim.tpotP95, "kcyc"},
        {"sim.goodput_tok_per_kcyc", sim.goodput, "tok/kcyc"},
        {"sim.availability", sim.availability, "frac"},
    };

    // ---- report: cross-checks, self-time table, spans, metrics line.
    std::printf("traced run %s: %zu spans\n", rec.runId().c_str(),
                rec.spans().size());
    std::printf("  decode iterations %" PRId64 " of %" PRId64
                "; graph replay %" PRId64 " iterations, %" PRId64
                " rebuilds (%" PRId64 " batch-size changes)\n",
                decode_iters, iters, rs.iters, rs.rebuilds,
                [&] {
                    int64_t c = 0;
                    for (const EngineLayer& el : layers)
                        c += perfbench::batchChanges(el.batchSeq);
                    return c;
                }());
    std::printf("  switches/iter: replay %.1f, context_switches counter "
                "%.1f\n",
                replay_switches, counter_per_iter);
    std::printf("  self time by span (s):\n  %-24s %8s %10s %10s\n", "span",
                "count", "total", "self");
    for (const perfbench::SelfTimeRow& row :
         perfbench::selfTimes(rec.spans()))
        std::printf("  %-24s %8" PRId64 " %10.4f %10.4f\n", row.name.c_str(),
                    row.count, row.total, row.self);
    if (!spans_path.empty() && !rec.writeJsonl(spans_path))
        note("cannot write spans to " + spans_path, 0);
    for (const std::string& e : errors)
        std::printf("  CHECK FAILED: %s\n", e.c_str());

    std::printf("{\"mode\":\"traced\",\"workload\":\"%s\",\"correct\":%s,"
                "\"attempted\":%" PRId64 ",\"failed\":%" PRId64
                ",\"metrics\":{",
                w.name.c_str(), errors.empty() ? "true" : "false", attempted,
                failed_ops);
    for (size_t i = 0; i < m.size(); ++i)
        std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                    i ? "," : "", m[i].name, m[i].value, m[i].unit);
    std::printf("}}\n");
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: stepbench --workload NAME --seed N --seconds S "
                 "(--mode timed [--round I --rounds N] | "
                 "--mode traced [--spans PATH])\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload, mode = "timed", spans;
    uint64_t seed = 0;
    double seconds = 0;
    int64_t round = 0, rounds = 1;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string a = argv[i];
        const char* v = argv[i + 1];
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            char* end = nullptr;
            seed = std::strtoull(v, &end, 10);
            have_seed = end && *end == '\0' && *v != '\0';
        } else if (a == "--seconds") {
            seconds = std::atof(v);
        } else if (a == "--mode") {
            mode = v;
        } else if (a == "--round") {
            round = std::atoll(v);
        } else if (a == "--rounds") {
            rounds = std::atoll(v);
        } else if (a == "--spans") {
            spans = v;
        } else {
            return usage();
        }
    }
    if (!have_seed || seconds <= 0 || rounds < 1 || round < 0 ||
        round >= rounds || (mode != "timed" && mode != "traced"))
        return usage();
    // Every component derives its stream seeds from the global seed; set
    // it before any cluster worker exists.
    step::setGlobalSeed(seed);
    std::unique_ptr<Workload> w = makeWorkload(workload, seconds, rounds);
    if (!w) {
        std::fprintf(stderr, "stepbench: unknown workload '%s'\n",
                     workload.c_str());
        return 2;
    }
    w->seed = seed;
    return mode == "timed" ? runTimed(*w, round, rounds)
                           : runTraced(*w, seed, spans);
}
