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
#include <new>
#include <optional>
#include <string>
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
 * Writer-side stop coalescing: buffers the most recent stop and upgrades
 * it when a higher-level stop closes the same position, so "only the
 * highest-level stop token" is emitted at nested dimension ends, while
 * stops at the same-or-lower level flush through (empty groups).
 *
 * Coroutine-friendly: each call returns the tokens to physically emit.
 * One writer event emits at most two tokens (a flushed stop plus the
 * new token), so the result is an inline fixed-capacity range — the
 * coalescer sits on every operator's emit path and must not allocate.
 * Its slots are raw storage: only the tokens an event actually emits
 * are constructed, and a data token is built in place from the value.
 */
class StopCoalescer
{
  public:
    /** Up to two tokens produced by one coalescer event; no heap. */
    class Emit
    {
      public:
        Emit() noexcept = default;
        Emit(Emit&& o) noexcept : n_(o.n_)
        {
            for (uint8_t i = 0; i < n_; ++i)
                new (slot(i)) Token(std::move(*o.slot(i)));
        }
        Emit& operator=(Emit&&) = delete;
        ~Emit()
        {
            for (uint8_t i = 0; i < n_; ++i)
                slot(i)->~Token();
        }

        Token* begin() { return slot(0); }
        Token* end() { return slot(n_); }
        const Token* begin() const { return slot(0); }
        const Token* end() const { return slot(n_); }
        size_t size() const { return n_; }
        bool empty() const { return n_ == 0; }
        const Token& operator[](size_t i) const { return *slot(i); }

      private:
        friend class StopCoalescer;

        Token*
        slot(size_t i)
        {
            return std::launder(reinterpret_cast<Token*>(buf_)) + i;
        }
        const Token*
        slot(size_t i) const
        {
            return std::launder(reinterpret_cast<const Token*>(buf_)) + i;
        }

        // Each token is built in place in its slot.
        void pushStop(uint32_t level)
        {
            new (slot(n_++)) Token(Token::stop(level));
        }
        void pushDone() { new (slot(n_++)) Token(Token::done()); }
        void
        pushData(Value&& v)
        {
            new (slot(n_++)) Token(Token::data(std::move(v)));
        }

        alignas(Token) std::byte buf_[2 * sizeof(Token)];
        uint8_t n_ = 0;
    };

    /** A data value; an rvalue reaches its Emit slot with one
     *  relocation. */
    Emit
    onData(Value&& v)
    {
        Emit out = flush();
        out.pushData(std::move(v));
        return out;
    }
    Emit onData(const Value& v) { return onData(Value(v)); }

    /** Re-emit a spent token, moving its value. */
    Emit
    onToken(Token&& t)
    {
        if (t.isData())
            return onData(t.takeValue());
        if (t.isStop())
            return onStop(t.level());
        return onDone();
    }

    Emit
    onStop(uint32_t level)
    {
        if (pending_ != 0 && pending_ < level) {
            pending_ = level;           // upgrade: nested ends coincide
            return Emit();
        }
        Emit out = flush();             // same/lower level: genuine stop
        pending_ = level;
        return out;
    }

    Emit
    onDone()
    {
        Emit out = flush();
        out.pushDone();
        return out;
    }

    /** Whether a stop is buffered (flush() would emit it). */
    bool pending() const { return pending_ != 0; }

    /** Force out any buffered stop (used before Done or at barriers). */
    Emit
    flush()
    {
        Emit out;
        if (pending_ != 0) {
            out.pushStop(pending_);
            pending_ = 0;
        }
        return out;
    }

  private:
    /** Buffered stop level; 0 = none (stop levels start at 1). */
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
