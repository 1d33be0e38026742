/**
 * @file
 * Aligned-column table printer used by every bench binary so that the
 * regenerated rows of each paper figure/table are easy to read and to diff,
 * plus a CSV emitter for machine consumption.
 */
#pragma once

#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace step {

/** Collects rows of strings and prints them with aligned columns. */
class Table
{
  public:
    explicit Table(std::vector<std::string> header)
        : header_(std::move(header))
    {}

    /** Begin a new row. */
    Table& row() { rows_.emplace_back(); return *this; }

    /** Append a cell to the current row. */
    template <typename T>
    Table&
    cell(const T& v)
    {
        std::ostringstream os;
        os << v;
        rows_.back().push_back(os.str());
        return *this;
    }

    /** Append a floating cell with fixed precision. */
    Table&
    cellF(double v, int prec = 3)
    {
        std::ostringstream os;
        os << std::fixed << std::setprecision(prec) << v;
        rows_.back().push_back(os.str());
        return *this;
    }

    /** Print aligned columns to @p os. */
    void print(std::ostream& os = std::cout) const;

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

inline void
Table::print(std::ostream& os) const
{
    std::vector<size_t> width(header_.size(), 0);
    for (size_t c = 0; c < header_.size(); ++c)
        width[c] = header_[c].size();
    for (const auto& r : rows_)
        for (size_t c = 0; c < r.size() && c < width.size(); ++c)
            width[c] = std::max(width[c], r[c].size());

    auto emit = [&](const std::vector<std::string>& r) {
        for (size_t c = 0; c < r.size(); ++c)
            os << std::left << std::setw(static_cast<int>(width[c]) + 2)
               << r[c];
        os << "\n";
    };
    emit(header_);
    for (size_t c = 0; c < header_.size(); ++c)
        os << std::string(width[c], '-') << "  ";
    os << "\n";
    for (const auto& r : rows_)
        emit(r);
}

} // namespace step
