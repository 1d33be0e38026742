/**
 * @file
 * Serving-runtime demo: a Poisson workload with bursty on/off
 * modulation served by the continuous-batching engine, once under
 * a static prefill/decode bandwidth split and once under queue-depth-
 * driven reallocation. Prints TTFT/TPOT p50/p99, throughput, SLO
 * goodput, compute utilization, and a bucketed utilization timeline.
 *
 *   ./serving_sim [--seed N] [--requests N] [--verify]
 *                 [--trace out.json] [--trace-level off|request|op|full]
 *                 [--metrics out.json] [--metrics-window N]
 *
 * --metrics exports the dynamic-policy run's streaming-metrics
 * artifact (windowed TTFT/TPOT histograms, per-iteration gauges,
 * lifecycle counts — see obs/metrics.hh) plus a per-window JSONL, and
 * the summary gains a windowed SLO-attainment line. Sampling never
 * changes engine behavior: every other output byte matches a
 * metrics-less run.
 *
 * --verify statically checks every freshly built iteration graph
 * (structure, shape/dtype flow, deadlock-freedom, determinism — see
 * src/verify) before running it. Verification is read-only: output
 * bytes are identical with and without the flag.
 *
 * Tracing covers the queue-depth-policy run (the interesting one):
 * request lifecycle instants and counters at level `request`, plus
 * per-op spans and the context-switch attribution table at `op`, plus
 * per-resume scheduler spans at `full`. The trace is Perfetto-loadable
 * Chrome JSON; a per-request JSONL lands next to it.
 */
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "obs/export.hh"
#include "obs/metrics.hh"
#include "runtime/engine.hh"
#include "support/cli.hh"
#include "support/rng.hh"
#include "support/table.hh"

using namespace step;
using namespace step::runtime;

/**
 * Utilization, mean decode batch and prefill share per time bucket of
 * the run (the serving-level counterpart of the Figure 12 utilization
 * traces): shows bursts pulling bandwidth around.
 */
static Table
bucketReport(const EngineResult& r, int64_t total_bw)
{
    constexpr int kBuckets = 12;
    Table t({"t (kcycle)", "util %", "decode batch", "prefill share %",
             "prefill tok"});
    // The makespan is where the last iteration ends.
    const dam::Cycle end = r.summary.makespan;
    if (!end)
        return t;
    const dam::Cycle width = (end + kBuckets - 1) / kBuckets;

    struct Acc
    {
        double flops = 0, batch = 0, share = 0, len = 0;
        int64_t prefillTok = 0;
    };
    std::vector<Acc> acc(kBuckets);
    for (const IterationSample& s : r.samples) {
        // Attribute the iteration to the bucket containing its start;
        // iterations are short relative to buckets, so overlap splitting
        // would change nothing visible.
        Acc& a = acc[std::min<size_t>(s.start / width, kBuckets - 1)];
        a.flops += static_cast<double>(s.usefulFlops);
        a.batch += static_cast<double>(s.decodeBatch) *
                   static_cast<double>(s.length);
        int64_t bw = s.prefillBw + s.decodeBw;
        if (bw > 0)
            a.share += static_cast<double>(s.prefillBw) /
                       static_cast<double>(bw) *
                       static_cast<double>(s.length);
        a.len += static_cast<double>(s.length);
        a.prefillTok += s.prefillTokens;
    }
    const double cap =
        static_cast<double>(width) * static_cast<double>(total_bw);
    for (int b = 0; b < kBuckets; ++b) {
        const Acc& a = acc[static_cast<size_t>(b)];
        t.row()
            .cellF(static_cast<double>(static_cast<dam::Cycle>(b) * width) /
                       1000.0, 0)
            .cellF(cap > 0.0 ? 100.0 * a.flops / cap : 0.0, 1)
            .cellF(a.len > 0.0 ? a.batch / a.len : 0.0, 1)
            .cellF(a.len > 0.0 ? 100.0 * a.share / a.len : 0.0, 1)
            .cell(a.prefillTok);
    }
    return t;
}

int
main(int argc, char** argv)
{
    Cli cli(argc, argv);
    uint64_t seed = 0;
    TraceConfig tc;
    tc.numRequests = 240;
    EngineConfig ec;
    cli.seed(&seed);
    cli.number("--requests", &tc.numRequests, 1);
    cli.flag("--verify", &ec.verifyGraphs);
    obs::TraceCli trace_cli(cli);
    obs::MetricsCli metrics_cli(cli);
    cli.parse();

    tc.arrivalsPerKcycle = 0.0012;
    tc.burstPeriod = 16'000'000;
    tc.burstDuty = 0.3;
    tc.burstFactor = 4.0;

    ec.seed = deriveSeed(1);

    std::cout << "serving " << tc.numRequests
              << " requests (Poisson with on/off bursts, seed " << seed
              << ") on " << ec.model.name << ", bw pool "
              << ec.totalComputeBw << " FLOPs/cycle, KV budget "
              << ec.batcher.kvBudgetBytes / (1 << 20) << " MiB\n";

    for (bool dynamic : {false, true}) {
        StaticSplitPolicy static_policy(0.3);
        QueueDepthPolicy dynamic_policy;
        const Policy& policy =
            dynamic ? static_cast<const Policy&>(dynamic_policy)
                    : static_cast<const Policy&>(static_policy);

        auto reqs = generateTrace(tc, deriveSeed(2));
        ServingEngine engine(ec, policy);
        // Trace the dynamic-policy run: it is the configuration the
        // other tooling (cluster, prefix cache) builds on.
        std::unique_ptr<obs::TraceSink> sink;
        if (dynamic && trace_cli.enabled()) {
            sink = std::make_unique<obs::TraceSink>(trace_cli.options);
            engine.attachTrace(sink.get());
        }
        // Meter the dynamic-policy run for the same reason.
        std::unique_ptr<obs::MetricsRegistry> registry;
        if (dynamic && metrics_cli.enabled()) {
            registry = std::make_unique<obs::MetricsRegistry>(
                metrics_cli.config());
            engine.attachMetrics(registry.get());
        }
        EngineResult r = engine.run(reqs);

        std::cout << "\n--- policy: " << policy.name() << " ("
                  << r.iterations << " iterations) ---\n";
        printSummary(r.summary, std::cout);
        std::cout << "\nutilization timeline:\n";
        bucketReport(r, ec.totalComputeBw).print();

        if (sink &&
            !trace_cli.write(std::cout, {sink.get()},
                             std::to_string(sink->eventCount()) +
                                 " events, " +
                                 std::to_string(sink->droppedEvents()) +
                                 " dropped",
                             "engine"))
            return 1;
        if (registry &&
            !metrics_cli.write(
                std::cout, {registry.get()}, nullptr,
                std::to_string(registry->config().windowCycles / 1000) +
                    " kcycle windows"))
            return 1;
    }
    return 0;
}
