/**
 * @file
 * Shape operators (section 3.2.5): Flatten, Reshape, Promote, Expand
 * (reference-driven and static variants), Repeat, Zip — plus Filter, the
 * companion of Reshape's padding stream that drops padded elements after
 * compute. Shape operators only manipulate stop tokens; data contents are
 * untouched.
 */
#pragma once

#include <optional>

#include "ops/common.hh"
#include "ops/graph.hh"

namespace step {

/** Flatten the paper-indexed inner dimension range [lo, hi] into one. */
class FlattenOp : public OpBase
{
  public:
    FlattenOp(Graph& g, const std::string& name, StreamPort in, size_t lo,
              size_t hi);

    StreamPort out() const { return out_; }
    dam::SimTask run() override;
    void rearm(const RearmSpec& spec) override;

  private:
    StreamPort in_;
    size_t lo_;
    size_t hi_;
    StreamPort out_;
    StopCoalescer coal_;
};

/**
 * Reshape splits dimension @p rank into chunks of @p chunk elements. For
 * rank 0 (the innermost dimension) a padding value pads the final chunk
 * and a boolean padding stream marks padded elements; higher dimensions
 * must be statically divisible.
 */
class ReshapeOp : public OpBase
{
  public:
    ReshapeOp(Graph& g, const std::string& name, StreamPort in, size_t rank,
              int64_t chunk, std::optional<Value> pad = std::nullopt);

    StreamPort out() const { return out_; }
    /** Padding indicator stream (only when a pad value was supplied). */
    StreamPort padOut() const { return padOut_; }
    bool hasPadStream() const { return padOut_.ch != nullptr; }

    dam::SimTask run() override;
    void rearm(const RearmSpec& spec) override;

  private:
    StreamPort in_;
    size_t rank_;
    int64_t chunk_;
    std::optional<Value> pad_;
    StreamPort out_;
    StreamPort padOut_;
    StopCoalescer coal_;
    StopCoalescer padCoal_;
};

/** Promote adds a new outermost dimension of extent (D_a > 0 ? 1 : 0). */
class PromoteOp : public OpBase
{
  public:
    PromoteOp(Graph& g, const std::string& name, StreamPort in);

    StreamPort out() const { return out_; }
    dam::SimTask run() override;

  private:
    StreamPort in_;
    StreamPort out_;
};

/**
 * Expand repeats each input element following the reference stream's
 * structure (Figure 5); the input's dims below @p rank must be unit.
 */
class ExpandOp : public OpBase
{
  public:
    ExpandOp(Graph& g, const std::string& name, StreamPort in,
             StreamPort ref, size_t rank);

    StreamPort out() const { return out_; }
    dam::SimTask run() override;

  private:
    StreamPort in_;
    StreamPort ref_;
    size_t rank_;
    StreamPort out_;
};

/** Static Expand: widens the innermost dimension by emitting each
 *  element @p count times (the static variant noted in footnote 6). */
class ExpandStaticOp : public OpBase
{
  public:
    ExpandStaticOp(Graph& g, const std::string& name, StreamPort in,
                   int64_t count);

    StreamPort out() const { return out_; }
    dam::SimTask run() override;

  private:
    StreamPort in_;
    int64_t count_;
    StreamPort out_;
};

/** Repeat adds a new innermost dimension of extent @p count (Fig. 18). */
class RepeatOp : public OpBase
{
  public:
    RepeatOp(Graph& g, const std::string& name, StreamPort in,
             int64_t count);

    StreamPort out() const { return out_; }
    dam::SimTask run() override;
    void rearm(const RearmSpec& spec) override;

  private:
    StreamPort in_;
    int64_t count_;
    StreamPort out_;
    StopCoalescer coal_;
};

/** Zip groups 2+ same-shape streams into a tuple-typed stream. */
class ZipOp : public OpBase
{
  public:
    ZipOp(Graph& g, const std::string& name, std::vector<StreamPort> ins);

    StreamPort out() const { return out_; }
    dam::SimTask run() override;

  private:
    std::vector<StreamPort> ins_;
    StreamPort out_;
};

/**
 * Filter drops data elements whose mask-stream counterpart is nonzero
 * (used to discard Reshape padding after compute); the innermost
 * dimension becomes ragged.
 */
class FilterOp : public OpBase
{
  public:
    FilterOp(Graph& g, const std::string& name, StreamPort in,
             StreamPort mask);

    StreamPort out() const { return out_; }
    dam::SimTask run() override;
    void rearm(const RearmSpec& spec) override;

  private:
    StreamPort in_;
    StreamPort mask_;
    StreamPort out_;
    StopCoalescer coal_;
};

} // namespace step
