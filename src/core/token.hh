/**
 * @file
 * Stream tokens. A STeP stream is a sequence of data values interleaved
 * with stop tokens S_N (N >= 1) that annotate the ends of tensor
 * dimensions, terminated by a Done token (section 3.1 "Stop Tokens").
 *
 * Protocol for a rank-r stream (see DESIGN.md section 5.2):
 *  - stop levels lie in [1, r-1];
 *  - at the end of multiple nested dimensions only the highest stop is
 *    emitted (writers enforce this via StopCoalescer);
 *  - a stop following a stop of greater-or-equal level encodes an empty
 *    group;
 *  - a non-empty stream's final tokens are S_{r-1}, Done; an empty stream
 *    is just Done.
 */
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "core/value.hh"

namespace step {

class Token
{
  public:
    enum class Kind : uint8_t { Data, Stop, Done };

    Token() noexcept = default;

    /** Relocate out of @p o, leaving it dead (see RelocateTag). */
    Token(RelocateTag, Token& o) noexcept
        : value_(relocate, o.value_), level_(o.level_), kind_(o.kind_)
    {}

    /** Relocate out of @p o, leaving it a husk (see HuskTag). */
    Token(HuskTag, Token& o) noexcept
        : value_(husk, o.value_), level_(o.level_), kind_(o.kind_)
    {}

    /** Data token whose value is built in place from @p v: a Value (an
     *  rvalue is relocated in), or a Tile, Selector, BufferRef or
     *  TupleVal, with no intermediate Value. */
    template <typename V>
    static Token
    data(V&& v) noexcept
    {
        return Token(DataTag{}, std::forward<V>(v));
    }
    static Token stop(uint32_t level) noexcept { return Token(level); }
    static Token done() noexcept { return Token(); }

    Kind kind() const { return kind_; }
    bool isData() const { return kind_ == Kind::Data; }
    bool isStop() const { return kind_ == Kind::Stop; }
    bool isDone() const { return kind_ == Kind::Done; }

    /** Stop level; only meaningful for stop tokens. */
    uint32_t level() const { return level_; }

    const Value& value() const { return value_; }

    /** Move the payload out (hot paths; the token is spent afterwards). */
    Value&& takeValue() { return std::move(value_); }

    /** Wire size used for FIFO bandwidth modeling. */
    int64_t
    bytes() const
    {
        return isData() ? value_.bytes() : 1;
    }

    std::string
    toString() const
    {
        if (isData())
            return value_.toString();
        if (!isStop())
            return "D";
        std::string s = "S";
        s += std::to_string(level_);
        return s;
    }

  private:
    struct DataTag {};

    template <typename V>
    Token(DataTag, V&& v) noexcept
        : value_(std::forward<V>(v)), kind_(Kind::Data)
    {}
    explicit Token(uint32_t level) noexcept
        : level_(level), kind_(Kind::Stop)
    {}

    Value value_;
    uint32_t level_ = 0;
    Kind kind_ = Kind::Done;
};

// Tokens live in every FIFO slot and are relocated several times per
// simulated transfer: keep them to six words.
static_assert(sizeof(Token) <= 48, "Token must stay within 48 bytes");

} // namespace step
