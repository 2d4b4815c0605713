/**
 * @file
 * Declarative command-line parsing shared by every bench and example
 * binary. A binary declares each key it reads, bound to a typed
 * variable that already holds the default, then calls parse().
 *
 * A key is just a string, so benches spell `--key=value` and the
 * examples `key=value`. Value rules: integers are base 10 unless
 * prefixed `0x` (a leading zero stays decimal, never octal);
 * booleans are true/1/yes or false/0/no; the whole value must parse
 * as its type, and an unsigned key takes no sign and nothing out of
 * range. An undeclared key, a missing `=`, or a malformed value
 * prints the supported list to stderr and exits 2. A binary that
 * fronts another parser (simspeed forwards to google-benchmark)
 * enables passthrough(), which returns unmatched arguments for
 * forwarding instead of rejecting them.
 *
 * A default that depends on another key is computed after parse(),
 * from a variable whose initial value means "not given".
 */

#ifndef SNPU_SIM_ARGS_HH
#define SNPU_SIM_ARGS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace snpu
{

class ArgSpec
{
  public:
    /** Where a declared key stores its parsed value. */
    using Target = std::variant<std::string *, unsigned *,
                                std::uint64_t *, double *, bool *>;

    explicit ArgSpec(std::string program)
        : program_(std::move(program))
    {
    }

    /** Declare `KEY=VALUE`, parsed as @p out's type into @p out. */
    ArgSpec &option(std::string key, std::string help, Target out);

    /** `--json=FILE`: machine-readable results next to stdout. */
    ArgSpec &json(std::string *out);

    /** `--jobs=N`: sweep worker threads (0 = hardware default). */
    ArgSpec &jobs(unsigned *out);

    /** `--protection=NAME`: restrict to one protection backend. */
    ArgSpec &protection(std::string *out);

    /** `--seed=N`: override the experiment's arrival/plan seed. */
    ArgSpec &seed(std::uint64_t *out);

    /** Forward unmatched arguments instead of rejecting them. */
    ArgSpec &passthrough(std::string note);

    /**
     * Parse @p argv. Declared keys are consumed; anything else exits
     * 2 with the supported list (or, under passthrough, is returned
     * for forwarding — argv[0] leads the returned vector).
     */
    std::vector<char *> parse(int argc, char **argv) const;

  private:
    struct Opt
    {
        std::string key;
        std::string help;
        Target out;
    };

    [[noreturn]] void reject(const char *why, const char *arg) const;

    std::string program_;
    std::vector<Opt> opts_;
    bool passthrough_ = false;
    std::string passthrough_note_;
};

} // namespace snpu

#endif // SNPU_SIM_ARGS_HH
