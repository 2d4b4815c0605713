#include "sim/args.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>

namespace snpu
{

namespace
{

/** Parse @p text as an unsigned integer no greater than @p max. */
bool
parseUnsigned(const char *text, std::uint64_t max, std::uint64_t &out)
{
    if (*text == '+')
        ++text;
    const bool hex = text[0] == '0' && (text[1] == 'x' || text[1] == 'X');
    const char *digits = hex ? text + 2 : text;
    // strtoull would skip blanks and take a minus sign, wrapping "-1"
    // to the maximum; demand a digit up front instead.
    const auto first = static_cast<unsigned char>(*digits);
    if (!(hex ? std::isxdigit(first) : std::isdigit(first)))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v =
        std::strtoull(digits, &end, hex ? 16 : 10);
    if (*end != '\0' || errno == ERANGE || v > max)
        return false;
    out = v;
    return true;
}

/** Store @p text into @p out; false when it does not parse as its type. */
bool
parseInto(const char *text, std::string &out)
{
    out = text;
    return true;
}

bool
parseInto(const char *text, bool &out)
{
    const std::string v = text;
    if (v == "true" || v == "1" || v == "yes")
        out = true;
    else if (v == "false" || v == "0" || v == "no")
        out = false;
    else
        return false;
    return true;
}

bool
parseInto(const char *text, double &out)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
parseInto(const char *text, unsigned &out)
{
    std::uint64_t v = 0;
    if (!parseUnsigned(text, std::numeric_limits<unsigned>::max(), v))
        return false;
    out = static_cast<unsigned>(v);
    return true;
}

bool
parseInto(const char *text, std::uint64_t &out)
{
    return parseUnsigned(text, std::numeric_limits<std::uint64_t>::max(),
                         out);
}

} // namespace

ArgSpec &
ArgSpec::option(std::string key, std::string help, Target out)
{
    opts_.push_back({std::move(key), std::move(help), out});
    return *this;
}

ArgSpec &
ArgSpec::json(std::string *out)
{
    return option("--json", "also write machine-readable results to FILE",
                  out);
}

ArgSpec &
ArgSpec::jobs(unsigned *out)
{
    return option("--jobs", "sweep worker threads (0 = one per core)",
                  out);
}

ArgSpec &
ArgSpec::protection(std::string *out)
{
    return option("--protection",
                  "run only the named protection backend "
                  "(passthrough|iommu|guarder|crypto)",
                  out);
}

ArgSpec &
ArgSpec::seed(std::uint64_t *out)
{
    return option("--seed", "override the experiment's base RNG seed",
                  out);
}

ArgSpec &
ArgSpec::passthrough(std::string note)
{
    passthrough_ = true;
    passthrough_note_ = std::move(note);
    return *this;
}

std::vector<char *>
ArgSpec::parse(int argc, char **argv) const
{
    std::vector<char *> rest{argv[0]};
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const Opt *match = nullptr;
        for (const Opt &o : opts_) {
            const std::size_t n = o.key.size();
            if (std::strncmp(arg, o.key.c_str(), n) == 0 &&
                arg[n] == '=') {
                match = &o;
                break;
            }
        }
        if (!match) {
            if (!passthrough_)
                reject("unknown argument", arg);
            rest.push_back(argv[i]);
            continue;
        }
        const char *value = arg + match->key.size() + 1;
        const auto store = [value](auto *out) {
            return parseInto(value, *out);
        };
        if (!std::visit(store, match->out))
            reject("malformed value in", arg);
    }
    return rest;
}

void
ArgSpec::reject(const char *why, const char *arg) const
{
    std::fprintf(stderr, "%s: %s '%s'\nsupported arguments:\n",
                 program_.c_str(), why, arg);
    // Indexed like the alternatives of Target.
    static const char *const value_names[] = {"VALUE", "N", "N", "X",
                                              "0|1"};
    static_assert(std::size(value_names) == std::variant_size_v<Target>);
    for (const Opt &o : opts_) {
        std::fprintf(stderr, "  %s=%s\n      %s\n", o.key.c_str(),
                     value_names[o.out.index()], o.help.c_str());
    }
    if (passthrough_)
        std::fprintf(stderr, "  %s\n", passthrough_note_.c_str());
    std::exit(2);
}

} // namespace snpu
