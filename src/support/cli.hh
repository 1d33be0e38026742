/**
 * @file
 * The one command-line parser. A program declares each flag it takes,
 * bound to the variable that receives its value, then parses argv once:
 *
 *   Cli cli(argc, argv);
 *   uint64_t seed = 0;
 *   int64_t threads = 0;
 *   cli.seed(&seed);
 *   cli.number("--threads", &threads);
 *   cli.parse();
 *
 * Every argument must be a declared flag. An unknown flag, a missing
 * value or a malformed value prints one line, "<prog>: <flag> ...", on
 * stderr and exits 2, so a run is always the configuration its command
 * line names. A value follows its flag (`--name value`) or is attached
 * (`--name=value`); an empty value counts as missing. A repeated flag
 * takes its last value. Flag names are string literals.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/parse.hh"

namespace step {

class Cli
{
  public:
    /** A parser over @p argv; argv[0] names the program in messages. */
    Cli(int argc, char** argv);

    // Declared flags hold pointers into this object.
    Cli(const Cli&) = delete;
    Cli& operator=(const Cli&) = delete;

    /** A switch: `--name` sets @p *on; it takes no value. */
    void flag(std::string_view name, bool* on);

    /** A whole unsigned decimal (parseUnsigned) of at least @p least
     *  that fits @p T. */
    template <typename T>
    void
    number(std::string_view name, T* out,
           std::type_identity_t<T> least = 0)
    {
        add(name, Arity::One,
            "a whole unsigned decimal" +
                (least ? " >= " + std::to_string(least) : ""),
            [out, least](std::string_view v) {
                T x{};
                if (!parseUnsigned(v, &x) || x < least)
                    return false;
                *out = x;
                return true;
            });
    }

    /** Any non-empty text, e.g. a path or a fault-plan spec. */
    void text(std::string_view name, std::string* out);

    /** One name of @p names; sets @p *out to the value paired with it. */
    template <typename E>
    void
    choice(std::string_view name,
           std::initializer_list<
               std::pair<std::string_view, std::type_identity_t<E>>>
               names,
           E* out)
    {
        std::string want;
        for (const auto& [n, value] : names)
            want.append(want.empty() ? "one of " : "|").append(n);
        add(name, Arity::One, std::move(want),
            [table = std::vector(names), out](std::string_view v) {
                for (const auto& [n, value] : table)
                    if (n == v) {
                        *out = value;
                        return true;
                    }
                return false;
            });
    }

    /** Comma-separated positive finite decimals, e.g. "1,0.5,2". */
    void factors(std::string_view name, std::vector<double>* out);

    /**
     * `--seed N`, over the STEP_SEED environment variable: either is a
     * whole unsigned decimal (a malformed STEP_SEED is an error even
     * when --seed is given), and the flag wins. parse() applies the
     * result with setGlobalSeed and leaves the global seed in @p *out.
     */
    void seed(uint64_t* out);

    /** `--json[=path]`: a bare `--json` writes to @p default_path. */
    void json(std::string* path, std::string default_path);

    /** Giving @p flag without @p other is an error. */
    void needs(std::string_view flag, std::string_view other);

    /**
     * Walk argv once, setting each given flag's variable. Returns ""
     * on success, or the error message without the program name; the
     * variables of flags given before the error may have been set.
     */
    std::string tryParse();

    /** tryParse(); on an error, fail() with its message. */
    void parse();

    /** Print "<prog>: @p message" on stderr and exit 2. For checks that
     *  link flag values, run after parse(). */
    [[noreturn]] void fail(std::string_view message) const;

    /** The program's name (argv[0] without its directory). */
    const std::string& program() const { return prog_; }

  private:
    enum class Arity : uint8_t { None, One, Optional };

    struct Flag
    {
        std::string_view name;
        Arity arity;
        std::string want; ///< "a whole unsigned decimal", ...
        std::function<bool(std::string_view)> set;
        bool given = false;
    };

    void add(std::string_view name, Arity arity, std::string want,
             std::function<bool(std::string_view)> set);
    Flag* find(std::string_view name);

    std::string prog_;
    std::vector<std::string_view> args_;
    std::vector<Flag> flags_;
    std::vector<std::pair<std::string_view, std::string_view>> needs_;
    uint64_t* seed_ = nullptr;
};

} // namespace step
