/**
 * @file
 * TraceSink: the per-replica event recorder behind every tracing hook.
 * One sink is written by exactly one simulation thread (a ServingEngine
 * and its dam::Scheduler), so recording needs no synchronization; a
 * cluster creates one sink per replica before workers spawn and the
 * exporter merges them in replica-index order — which makes the merged
 * trace bit-identical whatever the worker-thread count.
 *
 * Storage is a bounded ring of fixed-size, string-free events (names
 * are interned ids); per-request lifecycle records and the counter
 * registry live outside the ring so they survive even when a long run
 * wraps it. Per-track B/E/i/C timestamps are clamped monotone at append
 * time (deterministically), so exported tracks always satisfy the
 * trace-validator contract.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/counters.hh"
#include "obs/trace.hh"

namespace step::dam {
class Channel;
}

namespace step::obs {

/** Lifecycle of one served request, assembled from engine hooks. */
struct RequestLifecycle
{
    int64_t id = 0;
    int64_t sessionId = -1;
    int64_t turn = 0;
    int64_t promptLen = 0;
    int64_t outputLen = 0;
    /** Prompt tokens served from the prefix cache at admission. */
    int64_t cachedPrefixTokens = 0;
    /** Submission attempt (0 = original, >0 = cluster retry). */
    int64_t attempt = 0;
    dam::Cycle arrival = 0;
    dam::Cycle admittedAt = 0;
    dam::Cycle firstTokenAt = 0;
    dam::Cycle finishedAt = 0;
    dam::Cycle failedAt = 0;
    dam::Cycle shedAt = 0;
    dam::Cycle migratedAt = 0;
    bool admitted = false;
    bool sawFirstToken = false;
    bool finished = false;
    bool failed = false;   ///< replica crashed under it
    bool shed = false;     ///< dropped by the admission policy
    bool migrated = false; ///< drained to another replica mid-flight
};

/** One row of the switch-attribution histogram (sorted for export). */
struct SwitchAttribution
{
    std::string_view name; ///< op (context) name, owned by the sink
    uint64_t switches = 0;
};

class TraceSink
{
  public:
    explicit TraceSink(TraceOptions opts = {});

    TraceLevel level() const { return opts_.level; }
    const TraceOptions& options() const { return opts_; }

    // ---- name interning ---------------------------------------------
    uint32_t intern(std::string_view s);
    const std::string& name(uint32_t id) const { return *names_[id]; }
    size_t nameCount() const { return names_.size(); }

    // ---- simulated-time base ----------------------------------------
    /**
     * Graph runs stamp events in graph-local cycles; the engine sets
     * the base to its global clock before each iteration's graph run so
     * scheduler events land on the serving timeline.
     */
    void setTimeBase(dam::Cycle base) { base_ = base; }
    dam::Cycle timeBase() const { return base_; }

    // ---- scheduler hooks (graph-local cycles; base applied) ----------
    /**
     * A context is about to be resumed at scheduler virtual time @p at
     * (its ready-heap key — never earlier than any previously issued
     * resume, which keeps the sched track monotone by construction).
     */
    void schedResume(const void* ctx, const std::string& ctx_name,
                     dam::Cycle at);
    /** The resumed context suspended (blocked or yielded) at @p at. */
    void schedSuspend(const void* ctx, dam::Cycle at, uint8_t block_kind,
                      const dam::Channel* ch);
    /** The resumed context ran to completion at @p at. */
    void schedFinish(const void* ctx, const std::string& ctx_name,
                     dam::Cycle at);

    // ---- request lifecycle hooks (engine-global cycles) --------------
    /**
     * @p attempt > 0 marks a cluster retry incarnation: a "req.retry"
     * instant is emitted alongside the arrival. Lifecycle records are
     * keyed by (id, attempt) — the fault tier's failover waves can
     * leave a superseded incarnation and its successor concurrently
     * simulated on one replica, and each hooks into its own record —
     * so every later hook passes the incarnation's attempt too. The
     * JSONL reports one line per incarnation, so a failed first
     * attempt stays visible.
     */
    void reqArrived(int64_t id, int64_t session, int64_t turn,
                    int64_t prompt_len, int64_t output_len, dam::Cycle at,
                    int64_t attempt = 0);
    void reqAdmitted(int64_t id, int64_t attempt,
                     int64_t cached_prefix_tokens, dam::Cycle at);
    void reqFirstToken(int64_t id, int64_t attempt, dam::Cycle at);
    void reqFinished(int64_t id, int64_t attempt, dam::Cycle at);
    /** The request's replica crashed under it at @p at. */
    void reqFailed(int64_t id, int64_t attempt, dam::Cycle at);
    /** The admission policy dropped the request at @p at. */
    void reqShed(int64_t id, int64_t attempt, dam::Cycle at);
    /** The resilience tier drained the request off this replica at
     *  @p at, handing off @p kv_tokens of computed KV. */
    void reqMigrated(int64_t id, int64_t attempt, dam::Cycle at,
                     int64_t kv_tokens);
    /** Admission capped the request's output budget to @p cap tokens
     *  (brown-out middle rung). */
    void reqCapped(int64_t id, dam::Cycle at, int64_t cap);

    /**
     * Generic named instant on the lifecycle track — cluster-scope
     * decisions (breaker flips, autoscale steps) the engine emits on
     * the coordinator's behalf. Unknown names pass the trace validator
     * untouched (it ignores instants it has no rules for).
     */
    void instant(std::string_view name, dam::Cycle at, int64_t arg0 = -1,
                 int64_t arg1 = 0);

    // ---- fault hooks (engine-global cycles) --------------------------
    /** Replica crash processed at @p at (scripted cycle @p fail_at;
     *  @p recover_at 0 = permanent). */
    void faultDown(dam::Cycle at, dam::Cycle fail_at, dam::Cycle recover_at);
    /** Replica back up at @p at. */
    void faultUp(dam::Cycle at);

    // ---- counters ----------------------------------------------------
    CounterRegistry& counters() { return counters_; }
    const CounterRegistry& counters() const { return counters_; }
    /** Emit a Counter event for every counter whose value changed. */
    void sampleCounters(dam::Cycle at);

    // ---- export access ----------------------------------------------
    /** Visit the events surviving in the ring, oldest first. */
    template <typename F>
    void
    forEachEvent(F&& f) const
    {
        for (size_t i = 0; i < ring_.size(); ++i)
            f(ring_[(head_ + i) % ring_.size()]);
    }
    size_t eventCount() const { return ring_.size(); }
    uint64_t droppedEvents() const { return dropped_; }

    const std::vector<RequestLifecycle>& requests() const
    {
        return requests_;
    }

    /**
     * Context-switch attribution: resumes per op name, accumulated at
     * level >= Op, sorted by (count desc, name asc) — the work-list for
     * trivial-op fusion. Views point into the sink's name table.
     */
    std::vector<SwitchAttribution> switchAttribution() const;
    uint64_t attributedSwitches() const { return attributedSwitches_; }

  private:
    void append(const TraceEvent& e);
    /** Append an instant on the lifecycle track. */
    void lifecycle(uint32_t name, dam::Cycle at, int64_t arg0,
                   int64_t arg1 = 0);
    /** (id, attempt)'s lifecycle record; null if it never arrived. */
    RequestLifecycle* record(int64_t id, int64_t attempt);

    struct OpOpen
    {
        uint32_t name = 0;
        dam::Cycle firstResume = 0;
    };

    TraceOptions opts_;
    dam::Cycle base_ = 0;

    /**
     * Interned names. The map owns the strings (node-based, so key
     * addresses are stable); names_ indexes them by id for O(1) lookup
     * and exported string_views point at the map keys.
     */
    struct SvHash
    {
        using is_transparent = void;
        size_t
        operator()(std::string_view s) const
        {
            return std::hash<std::string_view>{}(s);
        }
    };
    std::unordered_map<std::string, uint32_t, SvHash, std::equal_to<>>
        nameIds_;
    std::vector<const std::string*> names_;

    std::vector<TraceEvent> ring_;
    size_t head_ = 0; ///< oldest element once the ring wrapped
    uint64_t dropped_ = 0;
    /** Per-tid monotone clamp cursor for B/E/i/C appends. */
    dam::Cycle lastTs_[3] = {0, 0, 0};

    std::vector<RequestLifecycle> requests_;
    /** (id, attempt) -> requests_ slot. Ids are dense trace indices
     *  and attempts are bounded by the retry/migration caps, so a
     *  shifted pack cannot collide. */
    static uint64_t
    lifeKey(int64_t id, int64_t attempt)
    {
        return (static_cast<uint64_t>(id) << 20) ^
               static_cast<uint64_t>(attempt);
    }
    std::unordered_map<uint64_t, size_t> reqIndex_;

    CounterRegistry counters_;
    std::vector<uint32_t> counterNameIds_; ///< lazily interned

    /** Op-name switch counts, first-seen order for determinism. */
    std::vector<std::pair<uint32_t, uint64_t>> switchCounts_;
    std::unordered_map<uint32_t, size_t> switchIndex_;
    uint64_t attributedSwitches_ = 0;

    std::unordered_map<const void*, OpOpen> activeOps_;

    // Pre-interned hook names (stable ids, interned in ctor).
    uint32_t nameArrive_, nameAdmit_, nameFirstToken_, nameFinish_;
    uint32_t nameRetry_, nameFailed_, nameShed_, nameFaultDown_,
        nameFaultUp_;
    uint32_t nameMigrated_, nameCapped_;
};

} // namespace step::obs
