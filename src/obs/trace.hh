/**
 * @file
 * Deterministic tracing & telemetry: core types. A trace is a stream of
 * cycle-timestamped events — spans, instants, counters — recorded into
 * per-replica TraceSinks and exported as Chrome trace-event JSON (loads
 * in Perfetto / chrome://tracing) plus a per-request lifecycle JSONL.
 *
 * Timestamps are *simulated* cycles, never wall clock, so a trace of a
 * seeded run is bit-identical under replay and independent of worker-
 * thread count. Every instrumentation hook in the hot layers (scheduler
 * resume loop, engine iteration loop) gates on a single sink-pointer
 * branch, so tracing off costs one predicted-not-taken branch per hook.
 */
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "dam/task.hh"

namespace step::obs {

/**
 * How much the sink records. Each level is a superset of the previous:
 *  - Off:     nothing; hooks are dead branches.
 *  - Request: request lifecycle instants (arrive/admit/first-token/
 *             finish, with prefix-cache-hit annotations) + per-iteration
 *             counter samples.
 *  - Op:      + per-op lifetime spans per graph run and context-switch
 *             attribution per op name (the fusion-planning histogram).
 *  - Full:    + one span per coroutine resume, with the block kind and
 *             channel that suspended it. Verbose: ~500 spans per decoder
 *             iteration.
 */
enum class TraceLevel : uint8_t { Off = 0, Request = 1, Op = 2, Full = 3 };

const char* traceLevelName(TraceLevel level);

struct TraceOptions
{
    TraceLevel level = TraceLevel::Off;
    /**
     * Events retained per sink (ring buffer). When a run emits more,
     * the oldest are dropped — deterministically, since the event
     * stream itself is deterministic — and the drop count is exported
     * as metadata. Request lifecycle records and counter finals are
     * kept out of the ring, so they are never dropped.
     */
    size_t ringCapacity = size_t{1} << 20;
};

/** Event kinds; each maps onto one Chrome trace-event phase. */
enum class EventKind : uint8_t {
    SpanBegin, ///< ph "B"
    SpanEnd,   ///< ph "E" (detail = block kind, arg0 = channel name id)
    Complete,  ///< ph "X" (arg0 = duration, arg1 = busy cycles)
    Instant,   ///< ph "i" (arg0 = request id, arg1 = kind-specific)
    Counter,   ///< ph "C" (arg0 = sampled value)
};

/**
 * Sub-track ("tid") layout inside one sink. One sink is one Chrome
 * "process" (pid = replica index), with fixed threads:
 */
enum : uint8_t {
    kTidLifecycle = 0, ///< request instants + counter samples
    kTidSched = 1,     ///< per-resume spans (Full)
    kTidOps = 2,       ///< per-op lifetime Complete spans (Op+)
    kTidCluster = 3,   ///< cluster decisions: breaker flips, autoscale
};

/**
 * One recorded event. Fixed-size and string-free: names are interned
 * ids into the sink's append-only name table, so recording never
 * allocates once the ring has grown and the names are warm.
 */
struct TraceEvent
{
    dam::Cycle ts = 0; ///< simulated cycle (engine-global time base)
    int64_t arg0 = 0;
    int64_t arg1 = 0;
    uint32_t name = 0; ///< interned name id
    EventKind kind = EventKind::Instant;
    uint8_t tid = kTidLifecycle;
    uint8_t detail = 0; ///< SpanEnd: dam::BlockInfo::Kind of the suspend
};

/** Render a BlockInfo::Kind ordinal for export ("read", "write", ...;
 *  None, which ends a finished context's span, renders "done"). */
const char* blockKindName(uint8_t kind);

} // namespace step::obs
