#include "core/codec.hh"

#include <sstream>

#include "support/error.hh"

namespace step {

size_t
Nested::depth() const
{
    if (isLeaf())
        return 0;
    size_t d = 0;
    for (const auto& c : children())
        d = std::max(d, c.depth());
    return d + 1;
}

std::string
Nested::toString() const
{
    if (isLeaf())
        return leaf().toString();
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < children().size(); ++i)
        os << (i ? ", " : "") << children()[i].toString();
    os << "]";
    return os.str();
}

namespace {

/** Append @p coal's held stop, if any. */
void
flushStop(StopCoalescer& coal, std::vector<Token>& out)
{
    if (coal.pending())
        out.push_back(Token::stop(coal.take()));
}

void
encodeRec(const Nested& n, size_t depth, StopCoalescer& coal,
          std::vector<Token>& out)
{
    if (depth == 0) {
        STEP_ASSERT(n.isLeaf(), "nested value deeper than declared rank");
        flushStop(coal, out);
        out.push_back(Token::data(n.leaf()));
        return;
    }
    STEP_ASSERT(!n.isLeaf(), "leaf at depth " << depth
                << "; nested value shallower than declared rank");
    for (const auto& c : n.children()) {
        encodeRec(c, depth - 1, coal, out);
        if (depth - 1 >= 1) {
            if (uint32_t l = coal.stop(static_cast<uint32_t>(depth - 1)))
                out.push_back(Token::stop(l));
        }
    }
}

} // namespace

std::vector<Token>
encodeNested(const Nested& n, size_t rank)
{
    STEP_ASSERT(rank >= 1, "streams have rank >= 1");
    std::vector<Token> out;
    StopCoalescer coal;
    encodeRec(n, rank, coal, out);
    flushStop(coal, out);
    out.push_back(Token::done());
    return out;
}

Nested
decodeNested(const std::vector<Token>& toks, size_t rank)
{
    auto err = checkWellFormed(toks, rank);
    if (err)
        stepFatal("decode of malformed stream: " << *err);

    // acc[d] collects the children of the depth-(d+1) group being built.
    std::vector<std::vector<Nested>> acc(rank);
    for (const auto& t : toks) {
        if (t.isData()) {
            acc[0].push_back(Nested(t.value()));
        } else if (t.isStop()) {
            for (uint32_t d = 1; d <= t.level(); ++d) {
                acc[d].push_back(Nested::list(std::move(acc[d - 1])));
                acc[d - 1].clear();
            }
        } else {
            break; // Done
        }
    }
    return Nested::list(std::move(acc[rank - 1]));
}

std::optional<std::string>
checkWellFormed(const std::vector<Token>& toks, size_t rank)
{
    if (rank < 1)
        return "rank must be >= 1";
    if (toks.empty())
        return "stream has no Done token";

    // Mirror the decoder: track how many elements are pending per level.
    std::vector<size_t> pending(rank, 0);
    bool done_seen = false;
    for (size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (done_seen)
            return "token after Done at position " + std::to_string(i);
        if (t.isData()) {
            pending[0]++;
        } else if (t.isStop()) {
            if (t.level() < 1 || t.level() > rank - 1) {
                return "stop level " + std::to_string(t.level()) +
                       " outside [1," + std::to_string(rank - 1) +
                       "] for rank " + std::to_string(rank);
            }
            for (uint32_t d = 1; d <= t.level(); ++d) {
                pending[d]++;
                pending[d - 1] = 0;
            }
        } else {
            done_seen = true;
            for (size_t d = 0; d + 1 < rank; ++d) {
                if (pending[d] != 0) {
                    return "Done with " + std::to_string(pending[d]) +
                           " unclosed element(s) at depth " +
                           std::to_string(d);
                }
            }
        }
    }
    if (!done_seen)
        return "stream has no Done token";
    return std::nullopt;
}

size_t
countData(const std::vector<Token>& toks)
{
    size_t n = 0;
    for (const auto& t : toks)
        n += t.isData();
    return n;
}

std::string
tokensToString(const std::vector<Token>& toks)
{
    std::ostringstream os;
    for (size_t i = 0; i < toks.size(); ++i)
        os << (i ? ", " : "") << toks[i].toString();
    return os.str();
}

} // namespace step
