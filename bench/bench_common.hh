/**
 * @file
 * Shared plumbing for the figure/table benches: configured runs of the
 * MoE and attention workloads and result records. Every bench prints the
 * rows/series of its paper artifact; absolute numbers differ from the
 * paper's testbed, the reproduced quantity is the shape (orderings,
 * ratios, crossovers) — see EXPERIMENTS.md.
 */
#pragma once

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hh"
#include "ops/source_sink.hh"
#include "support/table.hh"
#include "trace/trace.hh"
#include "workloads/decoder.hh"

namespace step::bench {

/**
 * Minimal JSON artifact writer for bench outputs (BENCH_*.json). CI
 * uploads these so the performance trajectory accumulates run over run,
 * and the regression-threshold script (bench/check_bench_regression.py)
 * compares them against bench/baseline.json.
 *
 * Schema v2: the artifact always carries a top-level "schema_version"
 * integer, and every numeric metric is an object {"value": N, "unit":
 * "..."} so consumers select metrics by key and unit instead of
 * parsing by position. String entries stay plain strings. All string
 * content (keys, values, units) is JSON-escaped, so a config string
 * with quotes or backslashes cannot corrupt the artifact.
 */
class JsonReport
{
  public:
    static constexpr int kSchemaVersion = 2;

    /** Numeric metric with an explicit unit (e.g. "events/sec"). */
    void
    set(const std::string& key, double v, const std::string& unit)
    {
        std::ostringstream os;
        os << "{\"value\": " << v << ", \"unit\": \""
           << obs::jsonEscape(unit) << "\"}";
        kv_.emplace_back(key, os.str());
    }

    void
    set(const std::string& key, const std::string& v)
    {
        std::string quoted = "\"";
        quoted += obs::jsonEscape(v);
        quoted += '"';
        kv_.emplace_back(key, std::move(quoted));
    }

    bool
    writeTo(const std::string& path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\n";
        out << "  \"schema_version\": " << kSchemaVersion
            << (kv_.empty() ? "" : ",") << "\n";
        for (size_t i = 0; i < kv_.size(); ++i) {
            out << "  \"" << obs::jsonEscape(kv_[i].first)
                << "\": " << kv_[i].second
                << (i + 1 < kv_.size() ? "," : "") << "\n";
        }
        out << "}\n";
        return out.good();
    }

  private:
    std::vector<std::pair<std::string, std::string>> kv_;
};

/** One MoE-layer simulation under the given tiling/regions. */
inline SimResult
runMoe(const ModelConfig& cfg, int64_t batch, Tiling tiling, int64_t tile,
       int64_t regions, const ExpertTrace& trace,
       int64_t* useful_flops = nullptr)
{
    MoeParams p;
    p.cfg = cfg;
    p.batch = batch;
    p.tiling = tiling;
    p.tileRows = tile;
    p.parallelRegions = regions;
    p.computeBwPerMatmul = cfg.moeMatmulBw;
    Graph g(iterationSimConfig(batch));
    MoeBuild mb = buildMoeLayer(g, p, trace);
    g.add<SinkOp>("out", mb.out);
    if (useful_flops)
        *useful_flops = moeUsefulFlops(p, trace);
    return g.run();
}

/** One attention-layer simulation under the given strategy. */
inline SimResult
runAttention(const ModelConfig& cfg, const std::vector<int64_t>& lens,
             ParStrategy strategy, int64_t regions = 4,
             const std::vector<uint32_t>* assign = nullptr)
{
    AttnParams p;
    p.cfg = cfg;
    p.batch = static_cast<int64_t>(lens.size());
    p.strategy = strategy;
    p.regions = regions;
    p.kvTileRows = 32;
    p.computeBw = 1024;
    p.coarseBlock = std::max<int64_t>(1, p.batch / regions);
    if (assign)
        p.staticAssign = *assign;
    Graph g(iterationSimConfig(p.batch));
    AttnBuild ab = buildAttentionLayer(g, p, lens);
    g.add<SinkOp>("out", ab.out);
    return g.run();
}

inline void
banner(const std::string& title)
{
    std::cout << "\n=== " << title << " ===\n\n";
}

} // namespace step::bench
