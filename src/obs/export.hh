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
 * flags shared by the example sims and the one writer that lays a trace
 * out as files: `out.json` plus `out.requests.jsonl`, after the
 * switch-attribution table (the fusion-planning histogram) at op level.
 */
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
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

/**
 * Write one JSON object per request per line: identity, lengths,
 * cache-hit annotation, and the lifecycle stamps (arrival / admitted /
 * first token / finished, -1 when the phase was never reached). The
 * "replica" field is the owning sink's index.
 */
bool writeRequestJsonl(std::ostream& os,
                       const std::vector<const TraceSink*>& sinks);

/**
 * The sidecar file of an artifact: @p path without a trailing ".json",
 * plus @p suffix. sidecarPath("out.json", ".requests.jsonl") and
 * sidecarPath("out", ".requests.jsonl") are both "out.requests.jsonl".
 */
std::string sidecarPath(const std::string& path, std::string_view suffix);

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

    /**
     * Write @p sinks as the Chrome trace at `path` (pids labeled
     * @p process_label) and the lifecycle JSONL beside it, then report
     * on @p out: the switch-attribution table when the level is `op` or
     * higher, and "trace (<level>, @p note) -> <path>" with the
     * "request lifecycle -> <jsonl>" line. A file that cannot be
     * written prints "<prog>: cannot write ..." on stderr and returns
     * false, with nothing written to @p out.
     */
    bool write(std::ostream& out, const std::vector<const TraceSink*>& sinks,
               std::string_view note,
               const std::string& process_label = "replica") const;

  private:
    std::string prog_; ///< names the program in write errors
};

} // namespace step::obs
