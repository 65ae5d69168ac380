/**
 * @file
 * Interposed heap-allocation counter shared by the layer benches
 * (sim_core, store_core). alloc_counter.cc replaces the global
 * operator new/delete of the binary it is compiled into, so
 * allocs/event and allocs/op are exact counts, not samples. Compile it
 * into a binary once; a second copy would define the operators twice.
 */

#ifndef BENCH_ALLOC_COUNTER_HH
#define BENCH_ALLOC_COUNTER_HH

#include <chrono>
#include <cstdint>

namespace bench {

/** Cumulative allocation calls and bytes; read deltas around the
 *  measured window. */
struct AllocSnapshot
{
    std::uint64_t calls;
    std::uint64_t bytes;

    static AllocSnapshot take();
};

inline double
wallSeconds(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

} // namespace bench

#endif // BENCH_ALLOC_COUNTER_HH
