#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace common {

void
Logger::panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
Logger::fatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

} // namespace common
