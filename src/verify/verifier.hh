/**
 * @file
 * Static analysis over a built ops::Graph — the machine-checkable
 * well-formedness oracle the graph-rewrite/fusion pass will invoke
 * after every rewrite. The verifier never executes the graph: it walks
 * the channel endpoint tables and each operator's port table
 * (OpBase::ports(), filled by the same calls that bind the channel
 * endpoints) and emits structured findings.
 *
 * Passes (each independently toggleable via VerifyOptions):
 *
 *  - structural well-formedness: every channel has exactly one producer
 *    and one consumer endpoint registered in the owning graph, no
 *    dangling ports, positive capacities, and each op's port table
 *    agrees with the channel endpoint tables (the property
 *    recycle()/rearm() must preserve; a second op binding the same
 *    endpoint shows up here against the first op's table).
 *
 *  - shape/dtype flow: for every channel, the producer's declared
 *    output view must be compatible (StreamShape::compatibleWith +
 *    dtype equality) with the consumer's declared input view.
 *
 *  - deadlock-freedom: build the op-level channel dependency graph,
 *    find its strongly connected components, and for each cycle
 *    conservatively check the initial credits (PortDecl::priming on
 *    the cycle's output ports, the static counterpart of initial tokens
 *    on a marked dataflow graph) against the cycle's buffering; a cycle with no initial
 *    tokens, or more initial tokens than its channels can buffer, is
 *    reported with a minimal cycle witness — the static counterpart of
 *    the scheduler's runtime deadlock report.
 */
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace step::verify {

enum class Severity
{
    Warning,
    Error,
};

[[nodiscard]] const char* severityName(Severity s);

/** One verification finding, pinned to an op and/or channel. */
struct Finding
{
    Severity severity = Severity::Error;
    /** Stable rule identifier, e.g. "structural.no-consumer". */
    std::string ruleId;
    /** Operator the finding is attached to ("" when channel-only). */
    std::string opName;
    /** Channel the finding is attached to ("" when op-only). */
    std::string channelName;
    /**
     * Machine-checkable evidence: for deadlock findings the minimal
     * cycle as "ch1 -> ch2 -> ... -> ch1"; for shape findings the two
     * disagreeing views; for structural findings the endpoint state.
     */
    std::string witness;
    /** What to do about it. */
    std::string hint;
};

/** Pass toggles; default-constructed runs everything. */
struct VerifyOptions
{
    bool structural = true;
    bool shapeFlow = true;
    bool deadlock = true;
};

struct VerifyReport
{
    std::vector<Finding> findings;
    /** Ops / channels examined (for the step_lint table). */
    size_t opsChecked = 0;
    size_t channelsChecked = 0;

    [[nodiscard]] size_t errors() const;
    [[nodiscard]] size_t warnings() const;
    [[nodiscard]] bool clean() const { return findings.empty(); }

    /** Human-readable rendering, one finding per line. */
    void renderText(std::ostream& os) const;
    [[nodiscard]] std::string toText() const;

    /** JSON rendering (the schema documented in README). */
    [[nodiscard]] std::string toJson() const;
};

} // namespace step::verify
