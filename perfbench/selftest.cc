/**
 * @file
 * Fast self-test of the benchmark's own derivations (derive.hh):
 * decode-batch sequence extraction from counter events, self-time
 * arithmetic, and the outcome digest, on hand-made inputs and on a tiny
 * engine trace. Prints one line per check and exits nonzero on failure.
 *
 *   python3 perfbench/run.py --selftest
 */
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "derive.hh"
#include "runtime/engine.hh"
#include "support/rng.hh"

namespace {

using namespace step;
using namespace step::runtime;

int g_failures = 0;

void
expect(bool ok, const std::string& what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++g_failures;
}

bool
near(double a, double b)
{
    return a - b < 1e-12 && b - a < 1e-12;
}

void
testSequenceFromHandMadeCounters()
{
    obs::TraceSink sink(obs::TraceOptions{obs::TraceLevel::Request});
    obs::CounterRegistry& c = sink.counters();
    const auto batch = c.gauge("decode_batch");
    const auto iters = c.monotonic("iterations");
    // Iterations with decode batches 0, 3, 3, 2, 0: the unchanged 3 is
    // not re-emitted, yet the sequence must still carry it.
    dam::Cycle t = 0;
    for (int64_t b : {0, 3, 3, 2, 0}) {
        c.set(batch, b);
        c.add(iters, 1);
        sink.sampleCounters(t += 10);
    }
    const std::vector<int64_t> seq = perfbench::decodeBatchSequence(sink);
    expect(seq == std::vector<int64_t>{0, 3, 3, 2, 0},
           "batch sequence from hand-made counter samples");
    expect(perfbench::batchChanges({0, 2, 2, 0, 2, 3, 3, 1}) == 3,
           "batch changes skip prefill-only iterations");
}

void
testSequenceFromTinyEngine()
{
    setGlobalSeed(5);
    TraceConfig tc;
    tc.numRequests = 12;
    tc.arrivalsPerKcycle = 0.0012;
    tc.promptMax = 256;
    tc.outputMax = 16;
    std::vector<Request> reqs = generateTrace(tc, deriveSeed(2));
    EngineConfig ec;
    ec.seed = deriveSeed(1);
    QueueDepthPolicy policy;
    ServingEngine engine(ec, policy);
    obs::TraceSink sink(obs::TraceOptions{obs::TraceLevel::Request});
    engine.attachTrace(&sink);
    const EngineResult r = engine.run(reqs);
    const std::vector<int64_t> seq = perfbench::decodeBatchSequence(sink);
    expect(static_cast<int64_t>(seq.size()) == r.iterations,
           "tiny engine: one sequence entry per iteration");
    // Fault-free, every request finishes: each output token after the
    // first is one decode slot in some iteration.
    int64_t slots = 0;
    for (const Request& q : reqs)
        slots += q.outputLen - 1;
    expect(std::accumulate(seq.begin(), seq.end(), int64_t{0}) == slots,
           "tiny engine: decode slots sum to output tokens after the first");

    // The digest pins outcomes: a rerun matches, a moved stamp does not.
    std::vector<Request> again = generateTrace(tc, deriveSeed(2));
    ServingEngine engine2(ec, policy);
    (void)engine2.run(again);
    const uint64_t d = perfbench::outcomeDigest(reqs);
    expect(d == perfbench::outcomeDigest(again),
           "digest equal across identical runs");
    again[3].finishedAt += 1;
    expect(d != perfbench::outcomeDigest(again),
           "digest changes with one finish cycle");
    again[3].finishedAt -= 1;
    again[5].attempt = 1;
    expect(d != perfbench::outcomeDigest(again),
           "digest changes with one attempt number");
}

void
testSelfTime()
{
    perfbench::SpanRecorder rec("selftest");
    // root [0,10]: children a [1,4] and b [3,6] overlap (union [1,6]);
    // a has a child [2,3]; c [9,12] sticks out of root and is clipped.
    const int64_t root = rec.add("root", 0, 10, -1);
    const int64_t a = rec.add("a", 1, 4, root);
    rec.add("b", 3, 6, root);
    rec.add("a.child", 2, 3, a);
    rec.add("c", 9, 12, root);
    double root_self = -1, a_self = -1, b_self = -1, c_self = -1;
    for (const perfbench::SelfTimeRow& row :
         perfbench::selfTimes(rec.spans())) {
        if (row.name == "root")
            root_self = row.self;
        else if (row.name == "a")
            a_self = row.self;
        else if (row.name == "b")
            b_self = row.self;
        else if (row.name == "c")
            c_self = row.self;
    }
    expect(near(root_self, 10 - 5 - 1), "self time subtracts the union of "
                                        "children, clipped to the parent");
    expect(near(a_self, 2) && near(b_self, 3) && near(c_self, 3),
           "self time of leaves and partly covered spans");

    // Scoped spans nest by scope.
    perfbench::SpanRecorder live("selftest");
    int64_t outer = 0, inner = 0;
    {
        auto o = live.span("outer");
        outer = o.id();
        {
            auto i = live.span("inner");
            inner = i.id();
        }
    }
    const auto& sp = live.spans();
    expect(sp[static_cast<size_t>(inner)].parent == outer &&
               sp[static_cast<size_t>(outer)].parent == -1 &&
               sp[static_cast<size_t>(inner)].end <=
                   sp[static_cast<size_t>(outer)].end,
           "scoped spans record their parent");
}

} // namespace

int
main()
{
    testSequenceFromHandMadeCounters();
    testSequenceFromTinyEngine();
    testSelfTime();
    std::printf("%s: %d failure(s)\n", g_failures ? "FAIL" : "PASS",
                g_failures);
    return g_failures ? 1 : 0;
}
