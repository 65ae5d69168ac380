/**
 * @file
 * Minimal error handling, modelled on gem5's panic()/fatal()
 * conventions:
 *
 *  - panic():  an internal invariant was violated — a bug in this
 *              library. Aborts (so tests and debuggers catch it).
 *  - fatal():  the user asked for something impossible (bad config).
 *              Exits with status 1.
 */

#ifndef COMMON_LOGGING_HH
#define COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace common {

class Logger
{
  public:
    [[noreturn]] static void panic(const std::string &msg);
    [[noreturn]] static void fatal(const std::string &msg);
};

/** Stream-style helpers: PANIC("bad " << x). */
#define PANIC(expr)                                                      \
    do {                                                                 \
        std::ostringstream os_;                                          \
        os_ << expr;                                                     \
        ::common::Logger::panic(os_.str());                              \
    } while (0)

#define FATAL(expr)                                                      \
    do {                                                                 \
        std::ostringstream os_;                                          \
        os_ << expr;                                                     \
        ::common::Logger::fatal(os_.str());                              \
    } while (0)

} // namespace common

#endif // COMMON_LOGGING_HH
