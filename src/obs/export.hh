/**
 * @file
 * Trace exporters: Chrome trace-event JSON (loadable in Perfetto or
 * chrome://tracing) and a per-request lifecycle JSONL, both produced
 * from one or more TraceSinks — one sink per replica, exported in
 * replica-index order, so output bytes are bit-identical for a seeded
 * run regardless of worker-thread count. All values are integers
 * (simulated cycles, token counts), so no float-formatting ambiguity
 * can creep into the byte stream.
 *
 * Also provides the `--trace <path> --trace-level {off,request,op,full}`
 * CLI convention shared by the example sims, and the switch-attribution
 * table printer (the fusion-planning histogram).
 */
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/sink.hh"

namespace step {
class Cli;
}

namespace step::obs {

/**
 * Write a Chrome trace-event JSON document. Sink i becomes pid i
 * (Perfetto renders it as one process track group) labeled
 * "<processLabel> i"; sub-tracks follow the kTid* layout. Returns
 * false on stream failure.
 */
bool writeChromeTrace(std::ostream& os,
                      const std::vector<const TraceSink*>& sinks,
                      const std::string& process_label = "replica");

bool writeChromeTraceFile(const std::string& path,
                          const std::vector<const TraceSink*>& sinks,
                          const std::string& process_label = "replica");

/**
 * Write one JSON object per request per line: identity, lengths,
 * cache-hit annotation, and the lifecycle stamps (arrival / admitted /
 * first token / finished, -1 when the phase was never reached). The
 * "replica" field is the owning sink's index.
 */
bool writeRequestJsonl(std::ostream& os,
                       const std::vector<const TraceSink*>& sinks);

bool writeRequestJsonlFile(const std::string& path,
                           const std::vector<const TraceSink*>& sinks);

/**
 * Merge the sinks' switch-attribution histograms by op name and print
 * the top @p top_n rows (resumes, share, cumulative share). This is the
 * work-list for trivial-op fusion: names that dominate the table are
 * the chains to fuse first.
 */
void printSwitchAttribution(std::ostream& os,
                            const std::vector<const TraceSink*>& sinks,
                            size_t top_n = 16);

/** Derive the lifecycle JSONL path from a trace path:
 *  "out.json" -> "out.requests.jsonl". */
std::string requestJsonlPath(const std::string& trace_path);

/** The `--trace <path>` and `--trace-level off|request|op|full` flags. */
struct TraceCli
{
    std::string path; ///< empty = tracing not requested
    TraceOptions options{TraceLevel::Request}; ///< level: --trace-level

    /** Declare both flags on @p cli; `--trace-level` needs `--trace`.
     *  The fields hold the values once @p cli has parsed. */
    explicit TraceCli(Cli& cli);

    /** Tracing requested: a path was given and the level is not `off`. */
    bool
    enabled() const
    {
        return !path.empty() && options.level != TraceLevel::Off;
    }
};

} // namespace step::obs
