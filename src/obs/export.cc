#include "obs/export.hh"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <ostream>

#include "obs/json.hh"
#include "support/cli.hh"
#include "support/table.hh"

namespace step::obs {

namespace {

void
appendCommonFields(std::string& out, const char* ph, std::string_view name,
                   size_t pid, unsigned tid, dam::Cycle ts)
{
    out += "{\"ph\":\"";
    out += ph;
    out += "\",\"name\":\"";
    appendJsonEscaped(out, name);
    out += "\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":";
    out += std::to_string(tid);
    out += ",\"ts\":";
    out += std::to_string(ts);
}

void
appendMetaEvent(std::string& out, const char* meta_name, size_t pid,
                int tid, std::string_view label)
{
    out += "{\"ph\":\"M\",\"name\":\"";
    out += meta_name;
    out += "\",\"pid\":";
    out += std::to_string(pid);
    if (tid >= 0) {
        out += ",\"tid\":";
        out += std::to_string(tid);
    }
    out += ",\"args\":{\"name\":\"";
    appendJsonEscaped(out, label);
    out += "\"}},\n";
}

/**
 * Merge the sinks' switch-attribution histograms by op name and print
 * the top 16 rows (resumes, share, cumulative share). This is the
 * work-list for trivial-op fusion: names that dominate the table are
 * the chains to fuse first.
 */
void
printSwitchAttribution(std::ostream& os,
                       const std::vector<const TraceSink*>& sinks)
{
    // Merge by name across sinks (ordered map: deterministic and
    // replica-order independent).
    std::map<std::string_view, uint64_t> merged;
    uint64_t total = 0;
    for (const TraceSink* s : sinks) {
        for (const SwitchAttribution& a : s->switchAttribution()) {
            merged[a.name] += a.switches;
            total += a.switches;
        }
    }
    std::vector<SwitchAttribution> rows;
    rows.reserve(merged.size());
    for (const auto& [name, n] : merged)
        rows.push_back(SwitchAttribution{name, n});
    std::sort(rows.begin(), rows.end(),
              [](const SwitchAttribution& a, const SwitchAttribution& b) {
                  return a.switches != b.switches
                             ? a.switches > b.switches
                             : a.name < b.name;
              });

    os << "context-switch attribution (" << total << " resumes over "
       << rows.size() << " op names; fusion candidates lead):\n";
    Table t({"op", "resumes", "share %", "cum %"});
    double cum = 0.0;
    for (size_t i = 0; i < rows.size() && i < 16; ++i) {
        double share = total
                           ? 100.0 * static_cast<double>(rows[i].switches) /
                                 static_cast<double>(total)
                           : 0.0;
        cum += share;
        t.row()
            .cell(std::string(rows[i].name))
            .cell(static_cast<int64_t>(rows[i].switches))
            .cellF(share, 1)
            .cellF(cum, 1);
    }
    t.print(os);
}

} // namespace

bool
writeChromeTrace(std::ostream& os,
                 const std::vector<const TraceSink*>& sinks,
                 const std::string& process_label)
{
    os << "{\"traceEvents\":[\n";
    std::string buf;
    bool first = true;
    for (size_t pid = 0; pid < sinks.size(); ++pid) {
        const TraceSink& sink = *sinks[pid];
        buf.clear();
        appendMetaEvent(buf, "process_name", pid, -1,
                        process_label + " " + std::to_string(pid));
        appendMetaEvent(buf, "thread_name", pid, kTidLifecycle,
                        "requests+counters");
        appendMetaEvent(buf, "thread_name", pid, kTidSched, "scheduler");
        appendMetaEvent(buf, "thread_name", pid, kTidOps, "ops");
        if (!sink.clusterTrack().empty())
            appendMetaEvent(buf, "thread_name", pid, kTidCluster, "cluster");

        // B spans dropped off the ring front can leave orphan E events;
        // skip those (depth tracking) so every exported track stays
        // balanced, and close any span still open at the end of the
        // stream at its last timestamp.
        int64_t depth = 0;
        dam::Cycle last_sched_ts = 0;
        std::vector<uint32_t> open;
        const auto event = [&](const TraceEvent& e) {
            switch (e.kind) {
              case EventKind::SpanBegin:
                appendCommonFields(buf, "B", sink.name(e.name), pid,
                                   e.tid, e.ts);
                buf += "},\n";
                ++depth;
                last_sched_ts = e.ts;
                open.push_back(e.name);
                break;
              case EventKind::SpanEnd:
                if (depth == 0)
                    break; // orphan: begin was dropped by the ring
                appendCommonFields(buf, "E", sink.name(e.name), pid,
                                   e.tid, e.ts);
                buf += ",\"args\":{\"block\":\"";
                buf += blockKindName(e.detail);
                buf += "\"";
                if (e.arg0 >= 0) {
                    buf += ",\"ch\":\"";
                    appendJsonEscaped(
                        buf, sink.name(static_cast<uint32_t>(e.arg0)));
                    buf += "\"";
                }
                buf += "}},\n";
                --depth;
                last_sched_ts = e.ts;
                open.pop_back();
                break;
              case EventKind::Complete:
                appendCommonFields(buf, "X", sink.name(e.name), pid,
                                   e.tid, e.ts);
                buf += ",\"dur\":";
                buf += std::to_string(e.arg0);
                buf += "},\n";
                break;
              case EventKind::Instant:
                appendCommonFields(buf, "i", sink.name(e.name), pid,
                                   e.tid, e.ts);
                buf += ",\"s\":\"t\",\"args\":{\"req\":";
                buf += std::to_string(e.arg0);
                buf += ",\"v\":";
                buf += std::to_string(e.arg1);
                buf += "}},\n";
                break;
              case EventKind::Counter:
                appendCommonFields(buf, "C", sink.name(e.name), pid,
                                   e.tid, e.ts);
                buf += ",\"args\":{\"value\":";
                buf += std::to_string(e.arg0);
                buf += "}},\n";
                break;
            }
        };
        sink.forEachEvent(event);
        for (const TraceEvent& e : sink.clusterTrack())
            event(e);
        while (!open.empty()) {
            appendCommonFields(buf, "E", sink.name(open.back()), pid,
                               kTidSched, last_sched_ts);
            buf += "},\n";
            open.pop_back();
        }
        if (sink.droppedEvents() > 0) {
            appendCommonFields(buf, "i", "trace.ring_dropped_events", pid,
                               kTidLifecycle, last_sched_ts);
            buf += ",\"s\":\"p\",\"args\":{\"req\":-1,\"v\":";
            buf += std::to_string(sink.droppedEvents());
            buf += "}},\n";
        }
        if (!buf.empty()) {
            if (!first)
                os << ",\n";
            // Trim the trailing ",\n" so the JSON array stays valid.
            buf.resize(buf.size() - 2);
            os << buf;
            first = false;
        }
    }
    os << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{"
          "\"clock\":\"simulated-cycles\"}}\n";
    return os.good();
}

bool
writeRequestJsonl(std::ostream& os,
                  const std::vector<const TraceSink*>& sinks)
{
    std::string buf;
    for (size_t pid = 0; pid < sinks.size(); ++pid) {
        for (const RequestLifecycle& r : sinks[pid]->requests()) {
            buf.clear();
            buf += "{\"id\":" + std::to_string(r.id);
            buf += ",\"replica\":" + std::to_string(pid);
            buf += ",\"session\":" + std::to_string(r.sessionId);
            buf += ",\"turn\":" + std::to_string(r.turn);
            buf += ",\"prompt_len\":" + std::to_string(r.promptLen);
            buf += ",\"output_len\":" + std::to_string(r.outputLen);
            buf += ",\"cached_prefix_tokens\":" +
                   std::to_string(r.cachedPrefixTokens);
            buf += ",\"attempt\":" + std::to_string(r.attempt);
            buf += ",\"arrival\":" + std::to_string(r.arrival);
            buf += ",\"admitted\":" +
                   (r.admitted ? std::to_string(r.admittedAt)
                               : std::string("-1"));
            buf += ",\"first_token\":" +
                   (r.sawFirstToken ? std::to_string(r.firstTokenAt)
                                    : std::string("-1"));
            buf += ",\"finished\":" +
                   (r.finished ? std::to_string(r.finishedAt)
                               : std::string("-1"));
            buf += ",\"failed\":" +
                   (r.failed ? std::to_string(r.failedAt)
                             : std::string("-1"));
            buf += ",\"shed\":" + (r.shed ? std::to_string(r.shedAt)
                                          : std::string("-1"));
            // Only present on migrated incarnations: lifecycles from a
            // resilience-free run keep their exact historical bytes.
            if (r.migrated)
                buf += ",\"migrated\":" + std::to_string(r.migratedAt);
            buf += ",\"ttft\":" +
                   (r.sawFirstToken
                        ? std::to_string(static_cast<int64_t>(
                              r.firstTokenAt - r.arrival))
                        : std::string("-1"));
            buf += "}\n";
            os << buf;
        }
    }
    return os.good();
}

std::string
sidecarPath(const std::string& path, std::string_view suffix)
{
    std::string_view stem = path;
    constexpr std::string_view json = ".json";
    if (stem.size() > json.size() && stem.ends_with(json))
        stem.remove_suffix(json.size());
    return std::string(stem).append(suffix);
}

TraceCli::TraceCli(Cli& cli) : prog_(cli.program())
{
    cli.text("--trace", &path);
    cli.choice("--trace-level",
               {{"off", TraceLevel::Off},
                {"request", TraceLevel::Request},
                {"op", TraceLevel::Op},
                {"full", TraceLevel::Full}},
               &options.level);
    cli.needs("--trace-level", "--trace");
}

bool
TraceCli::write(std::ostream& out, const std::vector<const TraceSink*>& sinks,
                std::string_view note, const std::string& process_label) const
{
    std::ofstream trace(path, std::ios::binary);
    if (!writeChromeTrace(trace, sinks, process_label)) {
        std::cerr << prog_ << ": cannot write trace to " << path << "\n";
        return false;
    }
    const std::string jsonl = sidecarPath(path, ".requests.jsonl");
    std::ofstream lifecycle(jsonl, std::ios::binary);
    if (!writeRequestJsonl(lifecycle, sinks)) {
        std::cerr << prog_ << ": cannot write " << jsonl << "\n";
        return false;
    }
    if (options.level >= TraceLevel::Op) {
        out << "\n";
        printSwitchAttribution(out, sinks);
    }
    out << "\ntrace (" << traceLevelName(options.level) << ", " << note
        << ") -> " << path << "\nrequest lifecycle -> " << jsonl << "\n";
    return true;
}

} // namespace step::obs
