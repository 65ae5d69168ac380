/**
 * @file
 * The free-space pool shared by the three log-structured FTLs: MFTL
 * and SFTL over erase blocks, VFTL over SFTL's logical blocks. A
 * *unit* is what one collection reclaims — an erase block or an LBA.
 *
 * The pool owns the free-unit list (FIFO, or least-worn-first behind a
 * block cursor for wear-levelling), per-unit live and pending-write
 * counts, and the GC trigger: below the high-water mark kick() starts
 * the owner's collector pass loop, which runs until the mark is
 * restored or a pass finds no victim (hysteresis above the low-water
 * reserve). Waiters for space wake on every release and PANIC after
 * 30 s of simulated time. Victims are greedy: fewest live records,
 * then least wear; a fully-live unit frees nothing and is never chosen.
 */

#ifndef FTL_FREE_POOL_HH
#define FTL_FREE_POOL_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <vector>

#include "common/logging.hh"
#include "flash/ssd.hh"
#include "sim/future.hh"
#include "sim/task.hh"

namespace ftl {

/** How much one collection pass may take on. */
struct PassLimits
{
    std::size_t maxVictims;
    /** Stop selecting once the pass nets this many free units. */
    std::uint64_t netGain;
    /** Live records in a full unit. */
    std::uint64_t perUnit;
    /** Relocations fill units through a block cursor, which may hold a
     *  partly filled block: budget one unit more, rounded up. */
    bool viaCursor;
};

/** A log head filling one erase block page by page. */
struct Cursor
{
    std::int64_t block = -1;
    std::uint32_t next = 0;
};

class FreePool
{
  public:
    using Unit = std::uint32_t;

    /**
     * All @p units start free. GC triggers below max(lowWater + 2,
     * highFraction x units) free units, where lowWater = max(3,
     * lowFraction x units). @p pass runs one collection pass and
     * resolves false when it found no victim.
     */
    FreePool(sim::Simulator &sim, std::uint32_t units, double lowFraction,
             double highFraction, std::function<sim::Task<bool>()> pass);

    std::size_t freeCount() const { return free_.size(); }
    std::uint64_t lowWater() const { return lowWater_; }
    /** Live records in @p unit (maintained by the owner). */
    std::uint32_t &live(Unit unit) { return live_[unit]; }
    /** A write to @p unit is in flight until endWrite: GC skips it. */
    void endWrite(Unit unit) { --pending_[unit]; }

    /** Oldest free unit, once at least @p minFree are free. */
    sim::Task<Unit> take(std::size_t minFree, const char *fullPanic);

    /** Next page at @p cursor; a full cursor opens the least-worn free
     *  block of @p device, once at least @p minFree are free. */
    sim::Task<flash::PageAddr> nextPage(Cursor &cursor,
                                        const flash::SsdDevice &device,
                                        std::size_t minFree,
                                        const char *fullPanic);

    /** Kick GC and await the next release for at most @p poll;
     *  PANIC once the caller has waited 30 s since @p since. */
    auto
    waitForSpace(common::Time since, common::Duration poll,
                 const char *fullPanic)
    {
        kick();
        if (sim_.now() - since > 30 * common::kSecond)
            PANIC(fullPanic);
        return spaceFreed_.future().withTimeout(poll);
    }

    /** Start the collector if free units are below target. */
    void kick();

    /** Select and mark this pass's victims. @p collectable vetoes
     *  units the owner is still filling; @p wear breaks ties. */
    template <typename Collectable, typename Wear>
    std::vector<Unit> selectVictims(const PassLimits &limits,
                                    Collectable collectable, Wear wear);

    /** Return a reclaimed victim to the free list and wake waiters. */
    void release(Unit unit);

    /** Rebuild: forget all state, then addFree() each free unit. */
    void reset();
    void addFree(Unit unit);

  private:
    sim::Task<void> collect();
    void beginWrite(Unit unit);

    sim::Simulator &sim_;
    std::function<sim::Task<bool>()> pass_;
    std::deque<Unit> free_;
    std::vector<bool> isFree_;
    std::vector<bool> victim_;
    std::vector<std::uint32_t> live_;
    std::vector<std::uint32_t> pending_;
    std::uint64_t lowWater_;
    std::uint64_t highWater_;
    bool collecting_ = false;
    /** Resolved (and replaced) each time a unit is released. */
    sim::Promise<bool> spaceFreed_;
};

template <typename Collectable, typename Wear>
std::vector<FreePool::Unit>
FreePool::selectVictims(const PassLimits &limits, Collectable collectable,
                        Wear wear)
{
    // Victims are collected in batches: their live records re-pack
    // tightly together, so a pass reclaiming V units consumes only
    // about live_total / perUnit fresh ones. Selection is bounded by
    // the current free pool so the relocation writes can never
    // exhaust it (keeping one unit spare).
    std::vector<Unit> victims;
    std::uint64_t live_total = 0;
    const std::uint64_t per = limits.perUnit;
    while (victims.size() < limits.maxVictims) {
        std::int64_t victim = -1;
        std::uint64_t best_cost = std::numeric_limits<std::uint64_t>::max();
        for (Unit u = 0; u < live_.size(); ++u) {
            if (isFree_[u] || victim_[u] || pending_[u] != 0 ||
                live_[u] >= per || !collectable(u))
                continue;
            const std::uint64_t cost =
                (static_cast<std::uint64_t>(live_[u]) << 20) + wear(u);
            if (cost < best_cost) {
                best_cost = cost;
                victim = u;
            }
        }
        if (victim < 0)
            break;
        const auto u = static_cast<Unit>(victim);
        const std::uint64_t live = live_total + live_[u];
        const std::uint64_t projected = limits.viaCursor
                                            ? (live + per) / per + 1
                                            : (live + per - 1) / per;
        if (projected + 1 > free_.size() && !victims.empty())
            break;
        victim_[u] = true;
        victims.push_back(u);
        live_total = live;
        if (victims.size() >= (live_total + per - 1) / per + limits.netGain)
            break;
    }
    return victims;
}

} // namespace ftl

#endif // FTL_FREE_POOL_HH
