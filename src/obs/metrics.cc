#include "obs/metrics.hh"

#include <fstream>
#include <iostream>
#include <optional>

#include "obs/export.hh"
#include "obs/json.hh"
#include "support/cli.hh"
#include "support/error.hh"

namespace step::obs {

MetricsRegistry::MetricsRegistry(MetricsConfig cfg) : cfg_(cfg) {}

MetricsRegistry::Handle
MetricsRegistry::ensure(std::string_view name, bool is_histogram)
{
    for (size_t i = 0; i < instruments_.size(); ++i) {
        if (instruments_[i].name == name) {
            if (instruments_[i].isHistogram != is_histogram)
                throw step::FatalError(
                    "metrics instrument '" + std::string(name) +
                    "' re-registered with a different kind");
            return i;
        }
    }
    instruments_.emplace_back(std::string(name), is_histogram,
                              cfg_.windowCycles);
    return instruments_.size() - 1;
}

MetricsRegistry::Handle
MetricsRegistry::histogram(std::string_view name)
{
    return ensure(name, /*is_histogram=*/true);
}

MetricsRegistry::Handle
MetricsRegistry::series(std::string_view name)
{
    return ensure(name, /*is_histogram=*/false);
}

void
MetricsRegistry::record(Handle h, dam::Cycle at, uint64_t value)
{
    Instrument& ins = instruments_[h];
    if (ins.isHistogram)
        ins.total.record(value);
    ins.series.record(at, value);
}

const MetricsRegistry::Instrument*
MetricsRegistry::find(std::string_view name) const
{
    for (const Instrument& ins : instruments_)
        if (ins.name == name)
            return &ins;
    return nullptr;
}

void
MetricsRegistry::mergeFrom(const MetricsRegistry& o)
{
    for (size_t i = 0; i < o.instruments_.size(); ++i) {
        const Instrument& src = o.instruments_[i];
        const Handle h = ensure(src.name, src.isHistogram);
        instruments_[h].total.merge(src.total);
        instruments_[h].series.merge(src.series);
    }
}

namespace {

void
appendWindowAgg(std::string& buf, const WindowAgg& agg)
{
    buf += "\"count\":";
    buf += std::to_string(agg.count);
    buf += ",\"sum\":";
    buf += std::to_string(agg.sum);
    buf += ",\"min\":";
    buf += std::to_string(agg.min);
    buf += ",\"max\":";
    buf += std::to_string(agg.max);
}

void
appendPercentiles(std::string& buf, const LogHistogram& h)
{
    buf += ",\"p50\":";
    buf += std::to_string(h.percentile(50.0));
    buf += ",\"p95\":";
    buf += std::to_string(h.percentile(95.0));
    buf += ",\"p99\":";
    buf += std::to_string(h.percentile(99.0));
}

void
appendInstrumentJson(std::string& buf, const MetricsRegistry::Instrument& ins,
                     dam::Cycle window_cycles)
{
    buf += "{\"name\":\"";
    appendJsonEscaped(buf, ins.name);
    buf += "\",\"type\":\"";
    buf += ins.isHistogram ? "histogram" : "series";
    buf += "\",";
    appendWindowAgg(buf, ins.series.total());
    if (ins.isHistogram) {
        appendPercentiles(buf, ins.total);
        buf += ",\"buckets\":[";
        bool first = true;
        const std::vector<uint64_t>& counts = ins.total.buckets();
        for (size_t i = 0; i < counts.size(); ++i) {
            if (counts[i] == 0)
                continue;
            if (!first)
                buf += ',';
            first = false;
            buf += '[';
            buf += std::to_string(LogHistogram::bucketLower(i));
            buf += ',';
            buf += std::to_string(counts[i]);
            buf += ']';
        }
        buf += ']';
    }
    buf += ",\"windows\":[";
    bool first = true;
    ins.series.forEachWindow([&](size_t w, const WindowAgg& agg) {
        if (!first)
            buf += ',';
        first = false;
        buf += "{\"window\":";
        buf += std::to_string(w);
        buf += ",\"start\":";
        buf += std::to_string(uint64_t(w) * window_cycles);
        buf += ',';
        appendWindowAgg(buf, agg);
        if (const LogHistogram* wh = ins.series.windowHistogram(w))
            appendPercentiles(buf, *wh);
        buf += '}';
    });
    buf += "]}";
}

void
appendRegistryJson(std::string& buf, const MetricsRegistry& reg)
{
    buf += "\"instruments\":[";
    for (size_t i = 0; i < reg.size(); ++i) {
        if (i)
            buf += ',';
        appendInstrumentJson(buf, reg.at(i), reg.config().windowCycles);
    }
    buf += ']';
}

/** Fold all replica registries in index order (the deterministic
 *  cluster-merge convention). */
MetricsRegistry
foldReplicas(const std::vector<const MetricsRegistry*>& replicas)
{
    MetricsConfig cfg;
    if (!replicas.empty())
        cfg = replicas.front()->config();
    MetricsRegistry merged(cfg);
    for (const MetricsRegistry* r : replicas)
        merged.mergeFrom(*r);
    return merged;
}

} // namespace

bool
writeMetricsJson(std::ostream& os,
                 const std::vector<const MetricsRegistry*>& replicas,
                 const MetricsRegistry* merged)
{
    MetricsRegistry fold{MetricsConfig{}};
    if (merged == nullptr) {
        fold = foldReplicas(replicas);
        merged = &fold;
    }
    std::string buf;
    buf.reserve(1 << 16);
    buf += "{\n  \"schema_version\": 2,\n  \"kind\": \"step-metrics\",\n";
    buf += "  \"window_cycles\": ";
    buf += std::to_string(merged->config().windowCycles);
    buf += ",\n  \"replicas\": [\n";
    for (size_t r = 0; r < replicas.size(); ++r) {
        buf += "    {\"replica\":";
        buf += std::to_string(r);
        buf += ',';
        appendRegistryJson(buf, *replicas[r]);
        buf += r + 1 < replicas.size() ? "},\n" : "}\n";
    }
    buf += "  ],\n  \"merged\": {";
    appendRegistryJson(buf, *merged);
    buf += "}\n}\n";
    os << buf;
    return os.good();
}

namespace {

void
appendWindowJsonl(std::string& buf, int64_t replica,
                  const MetricsRegistry::Instrument& ins,
                  dam::Cycle window_cycles)
{
    ins.series.forEachWindow([&](size_t w, const WindowAgg& agg) {
        buf += "{\"replica\":";
        buf += std::to_string(replica);
        buf += ",\"instrument\":\"";
        appendJsonEscaped(buf, ins.name);
        buf += "\",\"window\":";
        buf += std::to_string(w);
        buf += ",\"start\":";
        buf += std::to_string(uint64_t(w) * window_cycles);
        buf += ',';
        appendWindowAgg(buf, agg);
        if (const LogHistogram* wh = ins.series.windowHistogram(w))
            appendPercentiles(buf, *wh);
        buf += "}\n";
    });
}

} // namespace

bool
writeMetricsWindowsJsonl(std::ostream& os,
                         const std::vector<const MetricsRegistry*>& replicas,
                         const MetricsRegistry* merged)
{
    MetricsRegistry fold{MetricsConfig{}};
    if (merged == nullptr) {
        fold = foldReplicas(replicas);
        merged = &fold;
    }
    std::string buf;
    buf.reserve(1 << 16);
    for (size_t r = 0; r < replicas.size(); ++r)
        for (size_t i = 0; i < replicas[r]->size(); ++i)
            appendWindowJsonl(buf, int64_t(r), replicas[r]->at(i),
                              replicas[r]->config().windowCycles);
    for (size_t i = 0; i < merged->size(); ++i)
        appendWindowJsonl(buf, -1, merged->at(i),
                          merged->config().windowCycles);
    os << buf;
    return os.good();
}

MetricsCli::MetricsCli(Cli& cli) : prog_(cli.program())
{
    cli.text("--metrics", &path);
    cli.number("--metrics-window", &windowCycles, 1);
    cli.needs("--metrics-window", "--metrics");
}

bool
MetricsCli::write(std::ostream& out,
                  const std::vector<const MetricsRegistry*>& registries,
                  const MetricsRegistry* merged, std::string_view note) const
{
    // Both files carry the merge: fold the replicas once for the two.
    std::optional<MetricsRegistry> fold;
    if (merged == nullptr)
        merged = &fold.emplace(foldReplicas(registries));
    std::ofstream json(path, std::ios::binary);
    if (!writeMetricsJson(json, registries, merged)) {
        std::cerr << prog_ << ": cannot write metrics to " << path << "\n";
        return false;
    }
    const std::string mw = sidecarPath(path, ".windows.jsonl");
    std::ofstream windows(mw, std::ios::binary);
    if (!writeMetricsWindowsJsonl(windows, registries, merged)) {
        std::cerr << prog_ << ": cannot write " << mw << "\n";
        return false;
    }
    out << "\nmetrics (" << note << ") -> " << path
        << "\nper-window series -> " << mw << "\n";
    return true;
}

} // namespace step::obs
