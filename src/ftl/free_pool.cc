#include "ftl/free_pool.hh"

#include <algorithm>

namespace ftl {

FreePool::FreePool(sim::Simulator &sim, std::uint32_t units,
                   double lowFraction, double highFraction,
                   std::function<sim::Task<bool>()> pass)
    : sim_(sim),
      pass_(std::move(pass)),
      isFree_(units, true),
      victim_(units, false),
      live_(units, 0),
      pending_(units, 0),
      spaceFreed_(sim)
{
    for (Unit u = 0; u < units; ++u)
        free_.push_back(u);
    lowWater_ = std::max<std::uint64_t>(
        3, static_cast<std::uint64_t>(lowFraction *
                                      static_cast<double>(units)));
    // Hysteresis: once triggered, collect up to the high-water mark so
    // occupancy does not ratchet up to the trigger level and stay
    // there (which would leave every victim nearly fully live).
    highWater_ = std::max<std::uint64_t>(
        lowWater_ + 2, static_cast<std::uint64_t>(
                           highFraction * static_cast<double>(units)));
}

void
FreePool::kick()
{
    // Proactive collection: pursue the high-water mark whenever
    // reclaimable space exists, instead of waiting for the cliff.
    if (!collecting_ && free_.size() < highWater_) {
        collecting_ = true;
        sim::spawn(collect());
    }
}

sim::Task<void>
FreePool::collect()
{
    while (free_.size() < highWater_) {
        const bool collected = co_await pass_();
        if (!collected)
            break; // no victim: nothing reclaimable right now
    }
    collecting_ = false;
}

void
FreePool::beginWrite(Unit unit)
{
    ++pending_[unit];
    kick();
}

sim::Task<FreePool::Unit>
FreePool::take(std::size_t minFree, const char *fullPanic)
{
    const common::Time start = sim_.now();
    while (free_.size() < minFree)
        co_await waitForSpace(start, common::kSecond, fullPanic);
    const Unit unit = free_.front();
    free_.pop_front();
    isFree_[unit] = false;
    beginWrite(unit);
    co_return unit;
}

sim::Task<flash::PageAddr>
FreePool::nextPage(Cursor &cursor, const flash::SsdDevice &device,
                   std::size_t minFree, const char *fullPanic)
{
    const common::Time start = sim_.now();
    while (cursor.block < 0 ||
           cursor.next >= device.geometry().pagesPerBlock) {
        if (free_.size() < minFree) {
            co_await waitForSpace(start, common::kSecond, fullPanic);
            continue;
        }
        // Wear-levelling: open the least-worn free block.
        auto best = free_.begin();
        for (auto it = free_.begin(); it != free_.end(); ++it) {
            if (device.eraseCount(*it) < device.eraseCount(*best))
                best = it;
        }
        cursor = Cursor{*best, 0};
        isFree_[*best] = false;
        free_.erase(best);
    }
    const flash::PageAddr addr{static_cast<std::uint32_t>(cursor.block),
                               cursor.next++};
    beginWrite(addr.block);
    co_return addr;
}

void
FreePool::release(Unit unit)
{
    victim_[unit] = false;
    isFree_[unit] = true;
    free_.push_back(unit);
    auto freed = spaceFreed_;
    spaceFreed_ = sim::Promise<bool>(sim_);
    freed.set(true);
}

void
FreePool::reset()
{
    free_.clear();
    std::fill(isFree_.begin(), isFree_.end(), false);
    std::fill(victim_.begin(), victim_.end(), false);
    std::fill(live_.begin(), live_.end(), 0);
    std::fill(pending_.begin(), pending_.end(), 0);
}

void
FreePool::addFree(Unit unit)
{
    isFree_[unit] = true;
    free_.push_back(unit);
}

} // namespace ftl
