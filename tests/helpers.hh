/**
 * @file
 * Shared test helpers: compact constructors for value tokens and a
 * one-operator harness that runs Source -> Op -> Sink and returns the
 * captured output stream; a command line to hand to a Cli.
 */
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/codec.hh"
#include "core/token.hh"
#include "ops/graph.hh"
#include "ops/source_sink.hh"
#include "support/cli.hh"

namespace step::test {

/** 1x1 data tile carrying @p v. */
inline Value
val(float v)
{
    return Tile::withData(1, 1, {v}, 1);
}

inline Nested
leaf(float v)
{
    return Nested(val(v));
}

/** Nested list of scalar leaves. */
inline Nested
vec(std::initializer_list<float> xs)
{
    std::vector<Nested> kids;
    for (float x : xs)
        kids.push_back(leaf(x));
    return Nested::list(std::move(kids));
}

inline Nested
list(std::initializer_list<Nested> xs)
{
    return Nested::list(std::vector<Nested>(xs));
}

/** Flatten a decoded nested tree of 1x1 tiles back to floats (by DFS). */
inline void
collectLeaves(const Nested& n, std::vector<float>& out)
{
    if (n.isLeaf()) {
        out.push_back(n.leaf().tile().at(0, 0));
        return;
    }
    for (const auto& c : n.children())
        collectLeaves(c, out);
}

inline std::vector<float>
leavesOf(const Nested& n)
{
    std::vector<float> out;
    collectLeaves(n, out);
    return out;
}

/** Shape of a stream of 1x1 scalar tiles. */
inline DataType
scalarTile()
{
    return DataType::tile(1, 1, 1);
}

/**
 * Drives a single already-constructed operator whose input sources and
 * output sink were registered on the same graph; convenience wrapper
 * that runs the graph and returns the sink capture.
 */
struct SingleOpResult
{
    std::vector<Token> toks;
    SimResult sim;
};

/** The bytes of the file at @p path ("" when it cannot be read). */
inline std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/** A command line that owns its strings, as main's argv would. */
class Args
{
  public:
    explicit Args(std::vector<std::string> args) : strings_(std::move(args))
    {
        for (std::string& s : strings_)
            argv_.push_back(s.data());
    }

    // argv_ points into strings_.
    Args(const Args&) = delete;
    Args& operator=(const Args&) = delete;

    /** A parser over this command line; it must not outlive *this. */
    Cli
    cli()
    {
        return Cli(static_cast<int>(argv_.size()), argv_.data());
    }

  private:
    std::vector<std::string> strings_;
    std::vector<char*> argv_;
};

} // namespace step::test
