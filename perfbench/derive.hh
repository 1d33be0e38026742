/**
 * @file
 * Derivations the benchmark computes from the simulator's public
 * outputs, kept apart from stepbench.cc so the self-test can check them
 * on tiny inputs:
 *
 *  - the decode-batch sequence of an engine run, read back from the
 *    request-level counter events of its TraceSink;
 *  - host-time spans recorded around the benchmark's own calls into each
 *    layer, and their self-time table;
 *  - the per-request outcome digest that pins a run's simulated result.
 */
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/sink.hh"
#include "runtime/request.hh"

namespace perfbench {

// ---- decode-batch sequence -------------------------------------------

/**
 * One entry per engine iteration: the decode batch that iteration ran (0
 * for a prefill-only iteration). The engine samples its counters once
 * per iteration and the sink emits only counters whose value changed;
 * `iterations` grows every iteration, so each of its events closes one
 * iteration, and `decode_batch` is emitted before it in the same sample
 * whenever it changed. Throws when the ring dropped events, since the
 * sequence would then be incomplete.
 */
inline std::vector<int64_t>
decodeBatchSequence(const step::obs::TraceSink& sink)
{
    if (sink.droppedEvents() != 0)
        throw std::runtime_error("trace ring dropped events; decode-batch "
                                 "sequence incomplete");
    constexpr uint32_t kNone = UINT32_MAX;
    uint32_t batch_id = kNone, iter_id = kNone;
    for (uint32_t i = 0; i < sink.nameCount(); ++i) {
        if (sink.name(i) == "decode_batch")
            batch_id = i;
        else if (sink.name(i) == "iterations")
            iter_id = i;
    }
    std::vector<int64_t> seq;
    if (iter_id == kNone)
        return seq;
    int64_t batch = 0;
    sink.forEachEvent([&](const step::obs::TraceEvent& e) {
        if (e.kind != step::obs::EventKind::Counter)
            return;
        if (e.name == batch_id)
            batch = e.arg0;
        else if (e.name == iter_id)
            seq.push_back(batch);
    });
    return seq;
}

/** Rebuilds a graph-reusing engine pays for @p seq: one per change of
 *  a nonzero batch size (prefill-only iterations leave the graph
 *  alone). */
inline int64_t
batchChanges(const std::vector<int64_t>& seq)
{
    int64_t changes = 0, last = 0;
    for (int64_t b : seq) {
        if (b <= 0)
            continue;
        if (b != last)
            ++changes;
        last = b;
    }
    return changes;
}

// ---- spans ----------------------------------------------------------

/** One host-time interval around a call into a layer. */
struct Span
{
    const char* name = ""; ///< string literal: recording never allocates
    double start = 0;      ///< seconds since the recorder's epoch
    double end = 0;
    int64_t parent = -1; ///< index of the enclosing span, -1 at the root
};

/**
 * Single-threaded span recorder. Spans nest by scope: a span opened
 * while another is open becomes its child. Everything stays in memory
 * until writeJsonl at the end of the run.
 */
class SpanRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit SpanRecorder(std::string run_id)
        : runId_(std::move(run_id)), epoch_(Clock::now())
    {
        spans_.reserve(1 << 16);
    }

    SpanRecorder(const SpanRecorder&) = delete;
    SpanRecorder& operator=(const SpanRecorder&) = delete;

    class Scope
    {
      public:
        Scope(SpanRecorder& rec, int64_t id) : rec_(rec), id_(id) {}
        ~Scope() { rec_.close(id_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        int64_t id() const { return id_; }

      private:
        SpanRecorder& rec_;
        int64_t id_;
    };

    /** Open a span named @p name (a string literal) until the returned
     *  scope ends. */
    [[nodiscard]] Scope
    span(const char* name)
    {
        const auto id = static_cast<int64_t>(spans_.size());
        spans_.push_back(Span{name, now(), 0, open_});
        open_ = id;
        return Scope(*this, id);
    }

    /** Append an already-measured span (the self-test's hand-made
     *  spans). */
    int64_t
    add(const char* name, double start, double end, int64_t parent)
    {
        spans_.push_back(Span{name, start, end, parent});
        return static_cast<int64_t>(spans_.size()) - 1;
    }

    double
    seconds(int64_t id) const
    {
        const Span& s = spans_[static_cast<size_t>(id)];
        return s.end - s.start;
    }

    const std::vector<Span>& spans() const { return spans_; }
    const std::string& runId() const { return runId_; }

    /** One JSON object per line: name, start, end, id, parent, run. */
    bool
    writeJsonl(const std::string& path) const
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::fprintf(f,
                         "{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                         "\"id\":%zu,\"parent\":%lld,\"run\":\"%s\"}\n",
                         s.name, s.start, s.end, i,
                         static_cast<long long>(s.parent), runId_.c_str());
        }
        return std::fclose(f) == 0;
    }

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - epoch_).count();
    }

    void
    close(int64_t id)
    {
        Span& s = spans_[static_cast<size_t>(id)];
        s.end = now();
        open_ = s.parent;
    }

    std::string runId_;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    int64_t open_ = -1;
};

/** Per-name totals; self time excludes the time child spans cover. */
struct SelfTimeRow
{
    std::string name;
    int64_t count = 0;
    double total = 0;
    double self = 0;
};

/**
 * Self time of every span: its duration minus the union of its
 * children's intervals clipped to it, summed per span name. Rows are
 * sorted by self time, largest first (ties by name).
 */
inline std::vector<SelfTimeRow>
selfTimes(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span& s : spans)
        if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size())
            kids[static_cast<size_t>(s.parent)].push_back({s.start, s.end});
    std::map<std::string, SelfTimeRow> rows;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0, cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.start);
            hi = std::min(hi, s.end);
            if (hi <= lo)
                continue;
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        SelfTimeRow& r = rows[s.name];
        r.name = s.name;
        ++r.count;
        r.total += s.end - s.start;
        r.self += (s.end - s.start) - covered;
    }
    std::vector<SelfTimeRow> out;
    for (auto& [name, r] : rows)
        out.push_back(r);
    std::sort(out.begin(), out.end(),
              [](const SelfTimeRow& a, const SelfTimeRow& b) {
                  if (a.self != b.self)
                      return a.self > b.self;
                  return a.name < b.name;
              });
    return out;
}

// ---- outcome digest ---------------------------------------------------

/**
 * FNV-1a over every request's (id, attempt, state, first-token cycle,
 * finish cycle), in trace order: equal digests mean the same simulated
 * outcome for every request.
 */
inline uint64_t
outcomeDigest(const std::vector<step::runtime::Request>& reqs)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const step::runtime::Request& r : reqs) {
        mix(static_cast<uint64_t>(r.id));
        mix(static_cast<uint64_t>(r.attempt));
        mix(static_cast<uint64_t>(r.state));
        mix(static_cast<uint64_t>(r.firstTokenAt));
        mix(static_cast<uint64_t>(r.finishedAt));
    }
    return h;
}

} // namespace perfbench
