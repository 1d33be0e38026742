/**
 * @file
 * Whole-string number parsing for input from outside the program
 * (command-line flags, scripted fault plans): a value is accepted only
 * when every character belongs to it, so "3e7" or "4000000x" is an
 * error rather than a silent 3 or 4000000.
 */
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <limits>
#include <string_view>

namespace step {

/** Parse @p s, blanks around it aside, as a whole unsigned decimal
 *  that fits @p T: no sign, no fraction or exponent, nothing after the
 *  digits. Leaves @p out alone and returns false otherwise. */
template <typename T>
bool
parseUnsigned(std::string_view s, T* out)
{
    s.remove_prefix(std::min(s.find_first_not_of(" \t"), s.size()));
    s = s.substr(0, s.find_last_not_of(" \t") + 1);
    const char* end = s.data() + s.size();
    uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || ptr != end ||
        v > uint64_t(std::numeric_limits<T>::max()))
        return false;
    *out = T(v);
    return true;
}

} // namespace step
