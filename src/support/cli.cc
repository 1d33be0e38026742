#include "support/cli.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "support/error.hh"
#include "support/rng.hh"

namespace step {

Cli::Cli(int argc, char** argv) : args_(argv, argv + argc)
{
    std::string_view prog = argc > 0 ? args_[0] : "step";
    prog_ = prog.substr(prog.rfind('/') + 1);
}

void
Cli::add(std::string_view name, Arity arity, std::string want,
         std::function<bool(std::string_view)> set)
{
    STEP_ASSERT(!find(name), "flag " << name << " declared twice");
    flags_.push_back({name, arity, std::move(want), std::move(set)});
}

Cli::Flag*
Cli::find(std::string_view name)
{
    for (Flag& f : flags_)
        if (f.name == name)
            return &f;
    return nullptr;
}

void
Cli::flag(std::string_view name, bool* on)
{
    add(name, Arity::None, "", [on](std::string_view) {
        *on = true;
        return true;
    });
}

void
Cli::text(std::string_view name, std::string* out)
{
    add(name, Arity::One, "", [out](std::string_view v) {
        *out = v;
        return true;
    });
}

void
Cli::factors(std::string_view name, std::vector<double>* out)
{
    add(name, Arity::One, "comma-separated positive finite decimals",
        [out](std::string_view v) {
            std::vector<double> xs;
            for (size_t at = 0; at <= v.size();) {
                const size_t comma = std::min(v.find(',', at), v.size());
                const char* end = v.data() + comma;
                double x = 0.0;
                const auto [ptr, ec] = std::from_chars(v.data() + at, end, x);
                if (ec != std::errc() || ptr != end || !std::isfinite(x) ||
                    x <= 0.0)
                    return false;
                xs.push_back(x);
                at = comma + 1;
            }
            *out = std::move(xs);
            return true;
        });
}

void
Cli::seed(uint64_t* out)
{
    *out = globalSeed();
    seed_ = out;
    number("--seed", out);
}

void
Cli::json(std::string* path, std::string default_path)
{
    add("--json", Arity::Optional, "",
        [path, def = std::move(default_path)](std::string_view v) {
            *path = v.empty() ? def : std::string(v);
            return true;
        });
}

void
Cli::needs(std::string_view flag, std::string_view other)
{
    STEP_ASSERT(find(flag) && find(other),
                flag << " or " << other << " is not declared yet");
    needs_.emplace_back(flag, other);
}

std::string
Cli::tryParse()
{
    const char* env = seed_ ? std::getenv("STEP_SEED") : nullptr;
    if (env && !parseUnsigned(env, seed_))
        return "STEP_SEED takes a whole unsigned decimal, got '" +
               std::string(env) + "'";
    for (size_t i = 1; i < args_.size(); ++i) {
        const std::string_view arg = args_[i];
        const size_t eq = arg.starts_with("--") ? arg.find('=') : arg.npos;
        const std::string name(arg.substr(0, eq));
        Flag* f = find(name);
        if (!f) {
            std::string known;
            for (const Flag& k : flags_)
                known.append(" ").append(k.name);
            return name + " is not a flag of this program (" +
                   (known.empty() ? "it takes none" : "flags:" + known) +
                   ")";
        }
        if (eq != arg.npos && f->arity == Arity::None)
            return name + " takes no value";
        std::string_view value;
        if (eq != arg.npos)
            value = arg.substr(eq + 1);
        else if (f->arity == Arity::One && i + 1 < args_.size())
            value = args_[++i];
        // A bare switch or `--json` has no value; anything else needs one.
        if (value.empty() && (eq != arg.npos || f->arity == Arity::One))
            return name + " needs a value";
        if (!f->set(value))
            return name + " takes " + f->want + ", got '" +
                   std::string(value) + "'";
        f->given = true;
    }
    for (const auto& [flag, other] : needs_)
        if (find(flag)->given && !find(other)->given)
            return std::string(flag) + " needs " + std::string(other);
    if (seed_)
        setGlobalSeed(*seed_);
    return "";
}

void
Cli::parse()
{
    const std::string error = tryParse();
    if (!error.empty())
        fail(error);
}

void
Cli::fail(std::string_view message) const
{
    std::cerr << prog_ << ": " << message << "\n";
    std::exit(2);
}

} // namespace step
