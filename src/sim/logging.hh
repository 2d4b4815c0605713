/**
 * @file
 * Error and status reporting, following the gem5 convention:
 * panic() for simulator bugs (aborts), fatal() for user errors
 * (throws so tests can observe it), warn() for status.
 */

#ifndef SNPU_SIM_LOGGING_HH
#define SNPU_SIM_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace snpu
{

/** Thrown by fatal(): the simulation cannot continue (user error). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Thrown by panic(): an internal invariant was violated (our bug). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg)
    {}
};

namespace logging
{

void emit(const char *level, const std::string &msg);

template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace logging

/** Report a condition that is the user's fault and stop. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    auto msg = logging::format(std::forward<Args>(args)...);
    logging::emit("fatal", msg);
    throw FatalError(msg);
}

/** Report an internal simulator bug and stop. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    auto msg = logging::format(std::forward<Args>(args)...);
    logging::emit("panic", msg);
    throw PanicError(msg);
}

/** Report suspicious but survivable behaviour. */
template <typename... Args>
void
warn(Args &&...args)
{
    logging::emit("warn", logging::format(std::forward<Args>(args)...));
}

} // namespace snpu

#endif // SNPU_SIM_LOGGING_HH
