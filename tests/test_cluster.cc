/**
 * @file
 * Sharded serving-cluster tests. The correctness bar for the cluster is
 * thread-count independence: per-replica simulations are shared-nothing
 * and merging is ordered by replica index, so the aggregate must be
 * bit-identical whether the replicas run on 1 worker thread or N. On
 * top of that: routing-policy behavior (least-queued beats round-robin
 * on a skewed trace, hash affinity is sticky), raw-sample percentile
 * merging, and per-replica seed decorrelation.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "runtime/cluster.hh"
#include "support/rng.hh"
#include "support/stats.hh"

using namespace step;
using namespace step::runtime;

namespace {

TraceConfig
clusterTrace(int64_t n)
{
    TraceConfig tc;
    tc.numRequests = n;
    // Roughly 4x a single engine's bursty test load: the point of the
    // cluster is serving traffic one replica cannot.
    tc.arrivalsPerKcycle = 0.0045;
    tc.burstPeriod = 16'000'000;
    tc.burstDuty = 0.3;
    tc.burstFactor = 4.0;
    return tc;
}

/** Heavy-tailed prompt/output lengths: equal request *counts* carry very
 *  unequal work, which is what separates work-aware routing from
 *  round-robin. */
TraceConfig
skewedTrace(int64_t n)
{
    TraceConfig tc = clusterTrace(n);
    tc.promptSigma = 1.3;
    tc.promptMean = 160;
    tc.outputSigma = 1.0;
    return tc;
}

void
expectSummariesBitIdentical(const ServingSummary& a, const ServingSummary& b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.generatedTokens, b.generatedTokens);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.sloCompliant, b.sloCompliant);
    EXPECT_EQ(a.sloGoodTokens, b.sloGoodTokens);
    // EXPECT_EQ on doubles is exact comparison — bit-identity, not
    // almost-equal: the merge must not depend on worker scheduling.
    EXPECT_EQ(a.ttftP50, b.ttftP50);
    EXPECT_EQ(a.ttftP99, b.ttftP99);
    EXPECT_EQ(a.ttftMean, b.ttftMean);
    EXPECT_EQ(a.tpotP50, b.tpotP50);
    EXPECT_EQ(a.tpotP99, b.tpotP99);
    EXPECT_EQ(a.tpotMean, b.tpotMean);
    EXPECT_EQ(a.throughputTokensPerKcycle, b.throughputTokensPerKcycle);
    EXPECT_EQ(a.goodputTokensPerKcycle, b.goodputTokensPerKcycle);
    EXPECT_EQ(a.computeUtilization, b.computeUtilization);
    EXPECT_EQ(a.ttftSamples, b.ttftSamples);
    EXPECT_EQ(a.tpotSamples, b.tpotSamples);
}

} // namespace

TEST(Cluster, AggregateBitIdenticalAcrossWorkerThreadCounts)
{
    TraceConfig tc = clusterTrace(120);
    auto base = generateTrace(tc, 5);
    QueueDepthPolicy policy;

    auto run_with = [&](int64_t threads, RouteKind routing) {
        auto reqs = base;
        ClusterConfig cc;
        cc.replicas = 4;
        cc.threads = threads;
        cc.routing = routing;
        ServingCluster cluster(cc, policy);
        return cluster.run(reqs);
    };

    for (RouteKind routing :
         {RouteKind::RoundRobin, RouteKind::LeastQueued}) {
        SCOPED_TRACE(routeKindName(routing));
        ClusterResult serial = run_with(1, routing);
        ClusterResult two = run_with(2, routing);
        ClusterResult four = run_with(4, routing);

        EXPECT_EQ(serial.aggregate.completed, 120);
        expectSummariesBitIdentical(serial.aggregate, two.aggregate);
        expectSummariesBitIdentical(serial.aggregate, four.aggregate);
        EXPECT_EQ(serial.totalIterations, four.totalIterations);
        for (size_t r = 0; r < serial.replicas.size(); ++r) {
            EXPECT_TRUE(serial.replicas[r].result.samples ==
                        four.replicas[r].result.samples);
            EXPECT_EQ(serial.replicas[r].engine.seed,
                      four.replicas[r].engine.seed);
            EXPECT_EQ(serial.replicas[r].requests.size(),
                      four.replicas[r].requests.size());
            EXPECT_EQ(serial.replicas[r].result.summary.makespan,
                      four.replicas[r].result.summary.makespan);
        }
    }
}

TEST(Cluster, CompletesEveryRequestAndReflectsStateToCaller)
{
    TraceConfig tc = clusterTrace(96);
    auto reqs = generateTrace(tc, 11);
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 3;
    ServingCluster cluster(cc, policy);
    ClusterResult r = cluster.run(reqs);

    EXPECT_EQ(r.aggregate.completed, 96);
    size_t assigned = 0;
    for (const ReplicaResult& rr : r.replicas)
        assigned += rr.requests.size();
    EXPECT_EQ(assigned, 96u);
    for (const Request& req : reqs) {
        EXPECT_TRUE(req.done());
        EXPECT_EQ(req.generated, req.outputLen);
        EXPECT_GT(req.firstTokenAt, req.arrival);
    }
    // Aggregate spans the slowest replica; utilization is against the
    // cluster's full provisioned bandwidth.
    dam::Cycle max_span = 0;
    for (const ReplicaResult& rr : r.replicas)
        max_span = std::max(max_span, rr.result.summary.makespan);
    EXPECT_EQ(r.aggregate.makespan, max_span);
    EXPECT_GT(r.aggregate.computeUtilization, 0.0);
    EXPECT_LE(r.aggregate.computeUtilization, 1.0);
}

TEST(Cluster, LeastQueuedBeatsRoundRobinGoodputOnSkewedTrace)
{
    TraceConfig tc = skewedTrace(160);
    auto base = generateTrace(tc, 21);
    QueueDepthPolicy policy;

    auto goodput = [&](RouteKind routing) {
        auto reqs = base;
        ClusterConfig cc;
        cc.replicas = 4;
        cc.routing = routing;
        ServingCluster cluster(cc, policy);
        return cluster.run(reqs).aggregate.goodputTokensPerKcycle;
    };

    double rr = goodput(RouteKind::RoundRobin);
    double lq = goodput(RouteKind::LeastQueued);
    // Work-aware routing strictly beats count-fair routing when equal
    // counts mean unequal work — deterministically, since everything is
    // seeded.
    EXPECT_GT(lq, rr);
}

TEST(Cluster, PercentileMergeMatchesSingleVectorRecompute)
{
    // Hand-built replica summaries whose raw samples are known: the
    // merged percentile must equal a recompute over the concatenated
    // vector, not any combination of the per-replica percentiles.
    ServingSummary a;
    a.ttftSamples = {100, 200, 600};
    a.tpotSamples = {200, 200};
    a.completed = 3;
    a.makespan = 1100;
    ServingSummary b;
    b.ttftSamples = {50, 900, 1000, 1200};
    b.tpotSamples = {300};
    b.completed = 4;
    b.makespan = 900;

    ServingSummary m = mergeSummaries({a, b});
    std::vector<double> all_ttft = {100, 200, 600, 50, 900, 1000, 1200};
    std::vector<double> all_tpot = {200, 200, 300};
    EXPECT_EQ(m.ttftSamples, all_ttft);
    EXPECT_DOUBLE_EQ(m.ttftP50, percentile(all_ttft, 50.0));
    EXPECT_DOUBLE_EQ(m.ttftP99, percentile(all_ttft, 99.0));
    EXPECT_DOUBLE_EQ(m.ttftMean, mean(all_ttft));
    EXPECT_DOUBLE_EQ(m.tpotP50, percentile(all_tpot, 50.0));
    EXPECT_DOUBLE_EQ(m.tpotP99, percentile(all_tpot, 99.0));
    EXPECT_EQ(m.makespan, 1100u);
    EXPECT_EQ(m.completed, 7);

    // The broken alternative this API exists to rule out: percentiles
    // of per-replica percentiles. Here the p50 of the two replica p50s
    // is 200, while the true merged p50 is 600.
    double p50_of_p50s = percentile({percentile(a.ttftSamples, 50.0),
                                     percentile(b.ttftSamples, 50.0)},
                                    50.0);
    EXPECT_DOUBLE_EQ(m.ttftP50, 600.0);
    EXPECT_DOUBLE_EQ(p50_of_p50s, 200.0);
    EXPECT_NE(m.ttftP50, p50_of_p50s);
}

TEST(Cluster, MergeHandlesZeroRequestReplicaWithoutNaN)
{
    // A replica that was assigned nothing contributes empty sample
    // vectors and a zero makespan; the merge must stay finite (no 0/0
    // percentiles or rates) and reproduce the busy replica's stats.
    ServingSummary busy;
    busy.completed = 2;
    busy.generatedTokens = 8;
    busy.sloCompliant = 2;
    busy.sloGoodTokens = 8;
    busy.makespan = 1000;
    busy.ttftSamples = {100, 300};
    busy.tpotSamples = {50, 70};
    ServingSummary idle; // default: zero requests, empty samples

    for (const auto& parts :
         {std::vector<ServingSummary>{busy, idle},
          std::vector<ServingSummary>{idle, busy},
          std::vector<ServingSummary>{idle, idle}}) {
        ServingSummary m = mergeSummaries(parts);
        for (double v : {m.ttftP50, m.ttftP99, m.ttftMean, m.tpotP50,
                         m.tpotP99, m.tpotMean, m.prefixHitRate,
                         m.prefillTokensSavedFrac,
                         m.throughputTokensPerKcycle,
                         m.goodputTokensPerKcycle}) {
            EXPECT_TRUE(std::isfinite(v));
        }
    }
    ServingSummary m = mergeSummaries({busy, idle});
    EXPECT_EQ(m.completed, 2);
    EXPECT_DOUBLE_EQ(m.ttftP50, 100.0);
    EXPECT_DOUBLE_EQ(m.ttftP99, 300.0);
    EXPECT_DOUBLE_EQ(m.tpotMean, 60.0);
    EXPECT_EQ(m.makespan, 1000u);
    ServingSummary empty = mergeSummaries({idle, idle});
    EXPECT_EQ(empty.completed, 0);
    EXPECT_DOUBLE_EQ(empty.ttftP50, 0.0);
    EXPECT_DOUBLE_EQ(empty.throughputTokensPerKcycle, 0.0);
}

TEST(Cluster, MergeHandlesReplicaWithNoDecodedTokensWithoutNaN)
{
    // Single-output-token requests produce TTFT samples but no TPOT
    // samples; the merged TPOT percentiles must come from the replicas
    // that decoded, not degenerate to NaN.
    ServingSummary no_decode;
    no_decode.completed = 3;
    no_decode.generatedTokens = 3;
    no_decode.makespan = 500;
    no_decode.ttftSamples = {10, 20, 30};
    ServingSummary decodes;
    decodes.completed = 1;
    decodes.generatedTokens = 6;
    decodes.makespan = 800;
    decodes.ttftSamples = {40};
    decodes.tpotSamples = {90};

    ServingSummary m = mergeSummaries({no_decode, decodes});
    EXPECT_TRUE(std::isfinite(m.tpotP50));
    EXPECT_TRUE(std::isfinite(m.tpotP99));
    EXPECT_TRUE(std::isfinite(m.tpotMean));
    EXPECT_DOUBLE_EQ(m.tpotP50, 90.0);
    EXPECT_DOUBLE_EQ(m.tpotP99, 90.0);
    EXPECT_DOUBLE_EQ(m.ttftP50, 20.0);
    EXPECT_EQ(m.completed, 4);
}

TEST(Cluster, MoreReplicasThanRequestsLeavesIdleReplicasWellFormed)
{
    // End-to-end version of the zero-request edge case: 4 replicas, 3
    // requests, round-robin — replica 3 simulates an empty shard.
    TraceConfig tc = clusterTrace(3);
    auto reqs = generateTrace(tc, 19);
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.routing = RouteKind::RoundRobin;
    ServingCluster cluster(cc, policy);
    ClusterResult r = cluster.run(reqs);

    EXPECT_EQ(r.aggregate.completed, 3);
    EXPECT_TRUE(r.replicas[3].requests.empty());
    EXPECT_EQ(r.replicas[3].result.summary.completed, 0);
    EXPECT_EQ(r.replicas[3].result.summary.makespan, 0u);
    for (double v :
         {r.aggregate.ttftP50, r.aggregate.ttftP99, r.aggregate.tpotP50,
          r.aggregate.tpotP99, r.aggregate.computeUtilization}) {
        EXPECT_TRUE(std::isfinite(v));
    }
    for (const Request& req : reqs)
        EXPECT_TRUE(req.done());
}

TEST(Cluster, MergedSamplesEqualUnionOfReplicaSamples)
{
    TraceConfig tc = clusterTrace(80);
    auto reqs = generateTrace(tc, 31);
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.routing = RouteKind::LeastQueued;
    ServingCluster cluster(cc, policy);
    ClusterResult r = cluster.run(reqs);

    std::vector<double> union_ttft;
    for (const ReplicaResult& rr : r.replicas)
        union_ttft.insert(union_ttft.end(),
                          rr.result.summary.ttftSamples.begin(),
                          rr.result.summary.ttftSamples.end());
    EXPECT_EQ(r.aggregate.ttftSamples, union_ttft);
    EXPECT_DOUBLE_EQ(r.aggregate.ttftP99, percentile(union_ttft, 99.0));
    EXPECT_DOUBLE_EQ(r.aggregate.ttftP50, percentile(union_ttft, 50.0));
}

TEST(Cluster, HashAffinityRoutesSameIdToSameReplica)
{
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 5;
    cc.routing = RouteKind::HashAffinity;
    ServingCluster cluster(cc, policy);

    TraceConfig tc = clusterTrace(60);
    auto a = generateTrace(tc, 3);
    // A different trace with the same ids (generateTrace numbers them
    // 0..n-1): the mapping must depend on the id alone.
    TraceConfig tc2 = skewedTrace(60);
    auto b = generateTrace(tc2, 77);

    auto route_a = cluster.routeTrace(a);
    auto route_b = cluster.routeTrace(b);
    ASSERT_EQ(route_a.size(), route_b.size());
    for (size_t i = 0; i < route_a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(route_a[i], route_b[i]) << "request id " << a[i].id;
    }
    // ... and it actually spreads load rather than collapsing onto one
    // replica.
    std::set<int64_t> used(route_a.begin(), route_a.end());
    EXPECT_GT(used.size(), 1u);
}

TEST(Cluster, RoundRobinSplitsCountsEvenly)
{
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 4;
    cc.routing = RouteKind::RoundRobin;
    ServingCluster cluster(cc, policy);
    TraceConfig tc = clusterTrace(103);
    auto reqs = generateTrace(tc, 13);
    auto route = cluster.routeTrace(reqs);
    std::vector<int64_t> counts(4, 0);
    for (int64_t r : route)
        ++counts[static_cast<size_t>(r)];
    for (int64_t c : counts) {
        EXPECT_GE(c, 103 / 4);
        EXPECT_LE(c, 103 / 4 + 1);
    }
}

TEST(Cluster, PerReplicaSeedsDeriveFromReplicaIdAndDecorrelate)
{
    TraceConfig tc = clusterTrace(40);
    auto reqs = generateTrace(tc, 17);
    QueueDepthPolicy policy;
    ClusterConfig cc;
    cc.replicas = 4;
    ServingCluster cluster(cc, policy);
    ClusterResult r = cluster.run(reqs);

    std::set<uint64_t> seeds;
    for (const ReplicaResult& rr : r.replicas) {
        EXPECT_EQ(rr.engine.seed,
                  deriveSeed(static_cast<uint64_t>(rr.replica)));
        seeds.insert(rr.engine.seed);
    }
    EXPECT_EQ(seeds.size(), 4u); // decorrelated, not copies of the base
}

// ---- heterogeneous replica capacity ------------------------------------

TEST(Cluster, MixedFleetBwScalesShiftLoadTowardFastReplicas)
{
    TraceConfig tc = skewedTrace(96);
    QueueDepthPolicy policy;

    ClusterConfig uniform;
    uniform.replicas = 4;
    uniform.routing = RouteKind::LeastQueued;

    ClusterConfig mixed = uniform;
    mixed.bwScales = {2.0, 2.0, 0.5, 0.5};

    auto reqs = generateTrace(tc, deriveSeed(2));
    const std::vector<int64_t> ua =
        ServingCluster(uniform, policy).routeTrace(reqs);
    const std::vector<int64_t> ma =
        ServingCluster(mixed, policy).routeTrace(reqs);
    ASSERT_EQ(ua.size(), reqs.size());
    ASSERT_EQ(ma.size(), reqs.size());

    auto tokens_on = [&](const std::vector<int64_t>& a, int64_t lo,
                         int64_t hi) {
        int64_t t = 0;
        for (size_t i = 0; i < reqs.size(); ++i)
            if (a[i] >= lo && a[i] <= hi)
                t += reqs[i].promptLen + reqs[i].outputLen;
        return t;
    };
    // The shadow router models per-replica service bandwidth, so the
    // 2x replicas drain faster and absorb more of the token stream
    // than the 0.5x pair — and more than they get in a uniform fleet.
    EXPECT_GT(tokens_on(ma, 0, 1), tokens_on(ma, 2, 3));
    EXPECT_GT(tokens_on(ma, 0, 1), tokens_on(ua, 0, 1));
}

TEST(Cluster, MixedFleetRunsThreadInvariantAndUnitScalesAreIdentity)
{
    TraceConfig tc = clusterTrace(64);
    QueueDepthPolicy policy;

    auto run_with = [&](std::vector<double> scales, int64_t threads) {
        ClusterConfig cc;
        cc.replicas = 4;
        cc.threads = threads;
        cc.routing = RouteKind::LeastQueued;
        cc.bwScales = std::move(scales);
        auto reqs = generateTrace(tc, deriveSeed(2));
        return ServingCluster(cc, policy).run(reqs);
    };

    // The aggregate utilization is every replica's useful FLOPs over
    // the merged span (the last end of any replica's samples) times
    // the fleet's provisioned bandwidth, sum(scale_r * bw).
    auto expect_utilization = [](const ClusterResult& r, double bw_sum) {
        int64_t flops = 0;
        dam::Cycle span = 0;
        for (const ReplicaResult& rr : r.replicas)
            for (const IterationSample& s : rr.result.samples) {
                flops += s.usefulFlops;
                span = std::max(span, s.start + s.length);
            }
        EXPECT_EQ(r.aggregate.makespan, span);
        EXPECT_GT(flops, 0);
        EXPECT_EQ(r.aggregate.computeUtilization,
                  static_cast<double>(flops) /
                      (static_cast<double>(span) * bw_sum));
    };
    const double bw = static_cast<double>(EngineConfig().totalComputeBw);

    // All-unit scales are the documented identity: bit-identical to a
    // scale-less fleet, not just close.
    const ClusterResult plain = run_with({}, 1);
    const ClusterResult ones = run_with({1.0, 1.0, 1.0, 1.0}, 1);
    expectSummariesBitIdentical(plain.aggregate, ones.aggregate);
    expect_utilization(plain, 4 * bw);

    // A genuinely mixed fleet still merges bit-identically whatever
    // the worker-thread count, and slower hardware shows up in the
    // makespan-level numbers rather than breaking accounting.
    const ClusterResult m1 = run_with({2.0, 1.0, 0.5, 0.25}, 1);
    const ClusterResult m4 = run_with({2.0, 1.0, 0.5, 0.25}, 4);
    expectSummariesBitIdentical(m1.aggregate, m4.aggregate);
    EXPECT_EQ(m1.aggregate.completed, plain.aggregate.completed);
    expect_utilization(m1, (2.0 + 1.0 + 0.5 + 0.25) * bw);

    // Config validation: the scale vector must match the fleet size
    // and stay positive.
    ClusterConfig bad;
    bad.replicas = 4;
    bad.bwScales = {1.0, 1.0};
    EXPECT_THROW(ServingCluster(bad, policy), PanicError);
    bad.bwScales = {1.0, 1.0, 0.0, 1.0};
    EXPECT_THROW(ServingCluster(bad, policy), PanicError);
}
