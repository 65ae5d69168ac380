/**
 * @file
 * Per-thread free-list allocator for short-lived DES bookkeeping:
 * coroutine frames (sim::Task's promise) and future states.
 *
 * The simulator allocates and frees the same handful of object sizes
 * millions of times per run (one frame per handler call, one
 * FutureState per RPC, ...). Routing them through a size-classed free
 * list turns the steady state into pointer pops: a block is only ever
 * malloc'd the first time its size class grows, then recycled for the
 * rest of the thread's life.
 *
 * One pool per thread. A coroutine frame has no simulator pointer, so
 * the pool cannot hang off the Simulator; it matches the execution
 * model instead — one simulator per thread, and bench::SweepRunner
 * runs each cell entirely on one worker — so no pool is ever touched
 * by two threads at once. A block freed on another thread than the
 * one that allocated it joins that thread's free list, which is safe:
 * every pooled block is a plain heap block of its class size.
 *
 * Thread exit: the thread's pool frees its free lists when it is
 * destroyed. A block released after that point (a frame or future
 * state destroyed by a later thread_local or static destructor) goes
 * straight to ::operator delete; the check reads only a trivially
 * destructible thread_local, never the destroyed pool.
 *
 * Under AddressSanitizer a block is poisoned while it sits on a free
 * list, so a use of a destroyed frame or future state is still
 * reported (as use-after-poison) until the block is reused.
 */

#ifndef SIM_POOL_HH
#define SIM_POOL_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define SIM_POOL_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define SIM_POOL_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define SIM_POOL_POISON(p, n) ((void)(p), (void)(n))
#define SIM_POOL_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace sim::detail {

class BlockPool
{
  public:
    /** Free lists cover [1, kMaxBlock] bytes in kGranularity steps —
     *  every hot coroutine frame fits (the largest, an SSD page
     *  program, is ~1.6 KiB); larger requests pass through to the
     *  global heap. */
    static constexpr std::size_t kGranularity = 16;
    static constexpr std::size_t kMaxBlock = 2048;

    BlockPool(const BlockPool &) = delete;
    BlockPool &operator=(const BlockPool &) = delete;
    ~BlockPool();

    /** The calling thread's pool; nullptr once it has been destroyed
     *  (thread exit). */
    static BlockPool *
    local()
    {
        if (BlockPool *p = current_)
            return p;
        return attach();
    }

    /** Allocate @p size bytes from the calling thread's pool. */
    static void *
    allocate(std::size_t size)
    {
        if (size <= kMaxBlock) {
            if (BlockPool *pool = local())
                return pool->take(size);
            return ::operator new(classSize(size));
        }
        return ::operator new(size);
    }

    /** Return a block from allocate(@p size). */
    static void
    deallocate(void *p, std::size_t size) noexcept
    {
        if (size <= kMaxBlock) {
            if (BlockPool *pool = local()) {
                pool->give(p, size);
                return;
            }
        }
        ::operator delete(p);
    }

    /** Blocks that had to come from the global heap (pool misses). */
    std::uint64_t freshAllocations() const { return fresh_; }
    /** Blocks served from a free list (steady-state hits). */
    std::uint64_t reusedAllocations() const { return reused_; }

  private:
    constexpr BlockPool() = default;

    static std::size_t
    classIndex(std::size_t size)
    {
        return (size + kGranularity - 1) / kGranularity - 1;
    }

    static std::size_t
    classSize(std::size_t size)
    {
        return (classIndex(size) + 1) * kGranularity;
    }

    /** Slow path of local(): first use on this thread, or after the
     *  thread's pool was destroyed. */
    static BlockPool *attach();

    void *
    take(std::size_t size)
    {
        const std::size_t cls = classIndex(size);
        if (void *p = free_[cls]) {
            SIM_POOL_UNPOISON(p, classSize(size));
            free_[cls] = *static_cast<void **>(p);
            ++reused_;
            return p;
        }
        ++fresh_;
        return ::operator new(classSize(size));
    }

    void
    give(void *p, std::size_t size) noexcept
    {
        const std::size_t cls = classIndex(size);
        *static_cast<void **>(p) = free_[cls];
        free_[cls] = p;
        SIM_POOL_POISON(p, classSize(size));
    }

    /** The calling thread's live pool (nullptr before first use and
     *  after thread exit). Trivially destructible on purpose: it stays
     *  readable while other thread_locals are being destroyed. */
    static inline constinit thread_local BlockPool *current_ = nullptr;
    /** Set once the calling thread's pool has been destroyed. */
    static inline constinit thread_local bool exited_ = false;
    /** The per-thread pool itself (constructed on first use). */
    static thread_local BlockPool threadPool_;

    std::array<void *, kMaxBlock / kGranularity> free_{};
    std::uint64_t fresh_ = 0;
    std::uint64_t reused_ = 0;
};

} // namespace sim::detail

#endif // SIM_POOL_HH
