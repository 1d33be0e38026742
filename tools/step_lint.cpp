/**
 * @file
 * step_lint: build every registered workload graph (attention under all
 * three parallelization strategies, MoE under both tilings with and
 * without time-multiplexed regions, the full decoder layer across batch
 * sizes and strategies) and run the static verifier over each — the
 * well-formedness oracle for the graph library, runnable without
 * simulating a single cycle.
 *
 *   ./step_lint [--json]
 *
 * Default output is a table (graph, ops, channels, findings) followed
 * by the rendered findings of any graph that fails; --json emits one
 * machine-readable object per graph (the schema documented in README
 * under "Static verification"). Exit status is 0 only when every graph
 * lints clean — the contract the CI lint step enforces.
 */
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "ops/source_sink.hh"
#include "support/cli.hh"
#include "support/rng.hh"
#include "support/table.hh"
#include "trace/trace.hh"
#include "verify/verifier.hh"
#include "workloads/attention.hh"
#include "workloads/decoder.hh"
#include "workloads/model_config.hh"
#include "workloads/moe.hh"

using namespace step;

namespace {

struct LintCase
{
    std::string name;
    std::function<void(Graph&)> build;
    size_t batch;
};

std::vector<LintCase>
registry()
{
    std::vector<LintCase> cases;

    const ModelConfig cfg = servingSimConfig();

    for (ParStrategy s : {ParStrategy::StaticCoarse,
                          ParStrategy::StaticInterleaved,
                          ParStrategy::Dynamic}) {
        const char* sn = s == ParStrategy::StaticCoarse ? "static-coarse"
                         : s == ParStrategy::StaticInterleaved
                             ? "static-interleaved"
                             : "dynamic";
        cases.push_back(
            {std::string("attention/") + sn,
             [cfg, s](Graph& g) {
                 AttnParams p;
                 p.cfg = cfg;
                 p.batch = 32;
                 p.strategy = s;
                 p.regions = 4;
                 p.coarseBlock = p.batch / p.regions;
                 auto lens = sampleKvBatch(7, p.batch, KvVarClass::Med);
                 AttnBuild ab = buildAttentionLayer(g, p, lens);
                 g.add<SinkOp>("lint.out", ab.out);
             },
             32});
    }

    for (Tiling t : {Tiling::Static, Tiling::Dynamic}) {
        for (int64_t regions : {int64_t{0}, int64_t{4}}) {
            std::string name = std::string("moe/") +
                               (t == Tiling::Static ? "static" : "dynamic") +
                               (regions ? "-timemux" : "-dedicated");
            cases.push_back(
                {name,
                 [cfg, t, regions](Graph& g) {
                     MoeParams p;
                     p.cfg = cfg;
                     p.batch = 32;
                     p.tiling = t;
                     p.parallelRegions = regions;
                     Rng rng(11);
                     ExpertTrace trace = generateExpertTrace(
                         rng, p.batch, p.cfg.numExperts, p.cfg.topK);
                     MoeBuild mb = buildMoeLayer(g, p, trace);
                     g.add<SinkOp>("lint.out", mb.out);
                 },
                 32});
        }
    }

    // The serving engine's per-iteration graph, at the batch sizes the
    // continuous batcher actually produces, with both attention
    // strategies (Dynamic exercises the Figure-16 dispatcher loop).
    for (int64_t b : {int64_t{1}, int64_t{8}, int64_t{64}}) {
        for (ParStrategy s :
             {ParStrategy::StaticInterleaved, ParStrategy::Dynamic}) {
            std::string name =
                "decoder/b" + std::to_string(b) +
                (s == ParStrategy::Dynamic ? "-dynattn" : "");
            cases.push_back(
                {name,
                 [cfg, b, s](Graph& g) {
                     DecoderParams p;
                     p.cfg = cfg;
                     p.batch = b;
                     p.attnStrategy = s;
                     p.moeRegions = 4;
                     IterationSpec spec;
                     spec.kvLens =
                         sampleKvBatch(13, b, KvVarClass::Med);
                     Rng rng(17);
                     spec.trace = generateExpertTrace(
                         rng, b, p.cfg.numExperts, p.cfg.topK);
                     buildDecoderLayer(g, p, spec.trace, spec.kvLens);
                 },
                 static_cast<size_t>(b)});
        }
    }
    return cases;
}

} // namespace

int
main(int argc, char** argv)
{
    Cli cli(argc, argv);
    bool json = false;
    cli.flag("--json", &json);
    cli.parse();

    const verify::VerifyOptions opts; // all passes
    size_t dirty = 0;
    std::vector<std::pair<std::string, verify::VerifyReport>> failed;
    Table t({"graph", "ops", "channels", "findings", "errors",
             "warnings", "status"});
    std::string json_out = "{\"graphs\":[";
    bool first = true;

    for (const LintCase& c : registry()) {
        Graph g(iterationSimConfig(static_cast<int64_t>(c.batch)));
        c.build(g);
        verify::VerifyReport r = g.verify(opts);
        if (!r.clean()) {
            ++dirty;
            failed.emplace_back(c.name, r);
        }
        t.row()
            .cell(c.name)
            .cell(static_cast<int64_t>(r.opsChecked))
            .cell(static_cast<int64_t>(r.channelsChecked))
            .cell(static_cast<int64_t>(r.findings.size()))
            .cell(static_cast<int64_t>(r.errors()))
            .cell(static_cast<int64_t>(r.warnings()))
            .cell(r.clean() ? "clean" : "DIRTY");
        if (json) {
            if (!first)
                json_out += ",";
            first = false;
            json_out += "{\"name\":\"" + c.name +
                        "\",\"report\":" + r.toJson() + "}";
        }
    }

    if (json) {
        json_out += "],\"dirty\":" + std::to_string(dirty) + "}";
        std::cout << json_out << "\n";
    } else {
        t.print();
        for (const auto& [name, r] : failed) {
            std::cout << "\n" << name << ":\n";
            r.renderText(std::cout);
        }
        std::cout << (dirty ? "\nlint FAILED\n" : "\nall graphs clean\n");
    }
    return dirty ? 1 : 0;
}
