/**
 * @file
 * Tensor <-> token-stream codec plus the stop-coalescing writer state
 * machine. These implement the stream protocol described in
 * core/token.hh and are the backbone of the operator unit tests: every
 * operator's output is decoded back into nested tensors and compared with
 * a dense reference.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/token.hh"

namespace step {

/**
 * Nested (possibly ragged) tensor-of-values used to build and inspect
 * streams in tests. A Nested is either a leaf Value or a list of Nested.
 */
class Nested
{
  public:
    Nested() : node_(std::vector<Nested>{}) {}
    Nested(Value v) : node_(std::move(v)) {}                // NOLINT
    static Nested list(std::vector<Nested> xs)
    {
        Nested n;
        n.node_ = std::move(xs);
        return n;
    }

    bool isLeaf() const { return std::holds_alternative<Value>(node_); }
    const Value& leaf() const { return std::get<Value>(node_); }
    const std::vector<Nested>&
    children() const
    {
        return std::get<std::vector<Nested>>(node_);
    }
    std::vector<Nested>&
    children()
    {
        return std::get<std::vector<Nested>>(node_);
    }

    /** Depth below this node (leaf = 0). Ragged trees use max depth. */
    size_t depth() const;

    std::string toString() const;

  private:
    std::variant<Value, std::vector<Nested>> node_;
};

/**
 * Writer-side stop coalescing: at the end of nested dimensions only the
 * highest-level stop is written (section 3.1). The coalescer holds back
 * the most recent stop. A higher-level stop closing the same position
 * upgrades it; a stop of the same or lower level releases it, since the
 * new stop then closes an empty group. A writer passes each stop it
 * would write through stop(), writes the stop that returns, and writes
 * take() before its next data or Done token (STEP_STOP, STEP_FLUSH and
 * STEP_PASS in ops/common.hh).
 */
class StopCoalescer
{
  public:
    /** Hold stop @p level. Returns the stop to write now, or 0 when
     *  none was held or @p level upgraded the held one. */
    uint32_t
    stop(uint32_t level)
    {
        const uint32_t out = pending_ < level ? 0 : pending_;
        pending_ = level;
        return out;
    }

    /** Whether a stop is held. */
    bool pending() const { return pending_ != 0; }

    /** Return the held stop (0 if none) and stop holding it. */
    uint32_t take() { return std::exchange(pending_, 0); }

  private:
    /** Held stop level; 0 = none (stop levels start at 1). */
    uint32_t pending_ = 0;
};

/**
 * Encode a nested tensor of depth @p rank into a token stream ending in
 * Done. Leaves at depth 0; ragged children are fine; empty groups encode
 * as repeated stops.
 */
std::vector<Token> encodeNested(const Nested& n, size_t rank);

/** Decode a well-formed rank-@p rank token stream back into a Nested. */
Nested decodeNested(const std::vector<Token>& toks, size_t rank);

/**
 * Check protocol invariants for a rank-@p rank stream. Returns an error
 * description, or std::nullopt if well-formed.
 */
std::optional<std::string> checkWellFormed(const std::vector<Token>& toks,
                                           size_t rank);

/** Count data tokens. */
size_t countData(const std::vector<Token>& toks);

/** Printable "1, 2, S1, 3, S2, D" form (paper notation). */
std::string tokensToString(const std::vector<Token>& toks);

} // namespace step
