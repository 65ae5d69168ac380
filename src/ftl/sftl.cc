#include "ftl/sftl.hh"

#include "common/logging.hh"

namespace ftl {

namespace {

constexpr std::size_t kStripes = 64;
/** Fraction of physical pages reserved for GC headroom. */
constexpr double kReserveFraction = 0.10;
/** Free-space fraction the collector restores per pass (hysteresis
 *  target above the trigger). */
constexpr double kGcTargetFraction = 0.08;

} // namespace

Sftl::Sftl(sim::Simulator &sim, flash::SsdDevice &device)
    : sim_(sim),
      device_(device),
      pool_(sim, device.geometry().numBlocks, 0.05,
            kGcTargetFraction, [this] { return collectOnce(); })
{
    const auto &geo = device.geometry();
    logicalBlocks_ = static_cast<std::uint64_t>(
        static_cast<double>(geo.totalPages()) *
        (1.0 - kReserveFraction));
    lbaMap_.assign(logicalBlocks_, flash::kNoPage);
    owners_.assign(geo.totalPages(), -1);
}

std::int64_t &
Sftl::owner(flash::PageAddr addr)
{
    return owners_[static_cast<std::size_t>(addr.block) *
                       device_.geometry().pagesPerBlock +
                   addr.page];
}

bool
Sftl::mapped(Lba lba) const
{
    return lbaMap_[static_cast<std::size_t>(lba)] != flash::kNoPage;
}

const flash::PageData *
Sftl::peek(Lba lba) const
{
    const flash::PageAddr addr = lbaMap_[static_cast<std::size_t>(lba)];
    if (addr == flash::kNoPage)
        return nullptr;
    return &device_.peekPage(addr);
}

sim::Task<flash::PageAddr>
Sftl::allocatePage(bool for_gc)
{
    return pool_.nextPage(for_gc ? gcCursor_ : cursor_, device_,
                          for_gc ? 1 : 2,
                          "sftl: device full — GC cannot free space");
}

sim::Task<std::optional<flash::PageData>>
Sftl::read(Lba lba)
{
    stats_.counter("sftl.reads").inc();
    const flash::PageAddr addr = lbaMap_[static_cast<std::size_t>(lba)];
    if (addr == flash::kNoPage)
        co_return std::nullopt;
    device_.pinBlock(addr.block);
    const flash::PageData *page = co_await device_.readPage(addr);
    flash::PageData copy = *page;
    device_.unpinBlock(addr.block);
    co_return copy;
}

sim::Task<PutStatus>
Sftl::write(Lba lba, flash::PageData data)
{
    stats_.counter("sftl.writes").inc();
    const flash::PageAddr addr = co_await allocatePage(false);
    co_await device_.programPage(addr, std::move(data));
    pool_.endWrite(addr.block);

    const flash::PageAddr old = lbaMap_[static_cast<std::size_t>(lba)];
    if (old != flash::kNoPage) {
        owner(old) = -1;
        --pool_.live(old.block);
    }
    lbaMap_[static_cast<std::size_t>(lba)] = addr;
    owner(addr) = lba;
    ++pool_.live(addr.block);
    pool_.kick();
    co_return PutStatus::Ok;
}

sim::Task<void>
Sftl::trim(Lba lba)
{
    stats_.counter("sftl.trims").inc();
    const flash::PageAddr old = lbaMap_[static_cast<std::size_t>(lba)];
    if (old != flash::kNoPage) {
        owner(old) = -1;
        --pool_.live(old.block);
        lbaMap_[static_cast<std::size_t>(lba)] = flash::kNoPage;
    }
    co_return;
}

sim::Task<void>
Sftl::moveValidPage(std::uint32_t vb, std::uint32_t pg,
                    std::shared_ptr<sim::Quorum> done)
{
    const auto pages = device_.geometry().pagesPerBlock;
    const flash::PageAddr addr{vb, pg};
    const Lba lba = owners_[static_cast<std::size_t>(vb) * pages + pg];
    if (lba >= 0 &&
        device_.pageState(addr) == flash::PageState::Programmed) {
        const flash::PageData *page = co_await device_.readPage(addr);
        flash::PageData copy = *page;
        stats_.counter("sftl.gc_page_reads").inc();

        const flash::PageAddr dst = co_await allocatePage(true);
        co_await device_.programPage(dst, std::move(copy));
        pool_.endWrite(dst.block);
        stats_.counter("sftl.gc_page_writes").inc();

        // The LBA may have been overwritten or trimmed while the copy
        // was in flight; only remap if we still own it.
        if (lbaMap_[static_cast<std::size_t>(lba)] == addr) {
            owner(addr) = -1;
            --pool_.live(vb);
            lbaMap_[static_cast<std::size_t>(lba)] = dst;
            owner(dst) = lba;
            ++pool_.live(dst.block);
        }
    }
    done->arrive();
}

sim::Task<bool>
Sftl::collectOnce()
{
    // Take a batch of victims whose valid pages fit in the free pool,
    // then move all their valid pages in parallel: a serial collector
    // cannot outpace the write stream through a saturated device. The
    // blocks either cursor is filling are not collectable.
    const auto pages = device_.geometry().pagesPerBlock;
    const std::vector<FreePool::Unit> victims = pool_.selectVictims(
        PassLimits{32, 12, pages, true},
        [this](FreePool::Unit b) {
            const auto block = static_cast<std::int64_t>(b);
            return block != cursor_.block && block != gcCursor_.block;
        },
        [this](FreePool::Unit b) { return device_.eraseCount(b); });
    if (victims.empty())
        co_return false;

    std::uint32_t move_count = 0;
    for (const std::uint32_t vb : victims) {
        stats_.counter("sftl.gc_victims").inc();
        device_.pinBlock(vb);
        move_count += pages;
    }
    auto done = std::make_shared<sim::Quorum>(sim_, move_count);
    for (const std::uint32_t vb : victims) {
        for (std::uint32_t pg = 0; pg < pages; ++pg)
            sim::spawn(moveValidPage(vb, pg, done));
    }
    co_await done->wait();

    for (const std::uint32_t vb : victims) {
        device_.unpinBlock(vb);
        if (pool_.live(vb) != 0)
            PANIC("sftl: victim still has " << pool_.live(vb)
                                            << " valid pages");
        co_await device_.eraseBlock(vb);
        pool_.release(vb);
        stats_.counter("sftl.gc_erases").inc();
    }
    co_return true;
}

SingleVersionKv::SingleVersionKv(sim::Simulator &sim, Sftl &sftl,
                                 std::uint64_t capacityKeys)
    : sim_(sim),
      sftl_(sftl),
      capacityKeys_(capacityKeys),
      recordsPerPage_(sftl.pageSize() / kRecordSize)
{
    const std::uint64_t lbas_needed =
        (capacityKeys + recordsPerPage_ - 1) / recordsPerPage_;
    if (lbas_needed > sftl.logicalBlocks())
        FATAL("SingleVersionKv: " << capacityKeys
                                  << " keys exceed device capacity");
    for (std::size_t i = 0; i < kStripes; ++i)
        stripes_.push_back(std::make_unique<sim::Mutex>(sim));
}

Lba
SingleVersionKv::lbaOf(Key key) const
{
    return static_cast<Lba>(key / recordsPerPage_);
}

std::uint32_t
SingleVersionKv::slotOf(Key key) const
{
    return static_cast<std::uint32_t>(key % recordsPerPage_);
}

sim::Mutex &
SingleVersionKv::stripe(Lba lba)
{
    return *stripes_[static_cast<std::size_t>(lba) % kStripes];
}

sim::Task<GetResult>
SingleVersionKv::get(Key key, Version /* at: single version only */)
{
    const Time start = sim_.now();
    stats_.counter("svkv.gets").inc();
    if (key >= capacityKeys_)
        co_return GetResult::miss();
    auto page = co_await sftl_.read(lbaOf(key));
    if (!page.has_value())
        co_return GetResult::miss();
    const auto slot = slotOf(key);
    if (slot >= page->records.size() || page->records[slot].tombstone)
        co_return GetResult::miss();
    const auto &rec = page->records[slot];
    GetResult result;
    result.found = true;
    result.version = rec.version;
    result.value = rec.value;
    stats_.histogram("svkv.get_latency").record(sim_.now() - start);
    co_return result;
}

sim::Task<PutStatus>
SingleVersionKv::put(Key key, Value value, Version version)
{
    const Time start = sim_.now();
    stats_.counter("svkv.puts").inc();
    if (key >= capacityKeys_)
        co_return PutStatus::DeviceFull;
    const Lba lba = lbaOf(key);

    co_await stripe(lba).lock();
    sim::LockGuard guard(stripe(lba));

    auto page = co_await sftl_.read(lba);
    flash::PageData data;
    if (page.has_value()) {
        data = std::move(*page);
    } else {
        data.records.assign(recordsPerPage_, flash::Record{});
        for (auto &r : data.records) {
            r.tombstone = true;
            r.sizeBytes = kRecordSize;
        }
    }
    auto &rec = data.records[slotOf(key)];
    if (!rec.tombstone && rec.version >= version) {
        // At-most-once / stale rejection (section 3.3): a
        // single-version store must not overwrite newer data.
        stats_.counter("svkv.stale_rejects").inc();
        co_return PutStatus::StaleVersion;
    }
    rec.key = key;
    rec.version = version;
    rec.value = std::move(value);
    rec.tombstone = false;
    rec.sizeBytes = kRecordSize;
    co_await sftl_.write(lba, std::move(data));
    stats_.histogram("svkv.put_latency").record(sim_.now() - start);
    co_return PutStatus::Ok;
}

sim::Task<void>
SingleVersionKv::erase(Key key)
{
    if (key >= capacityKeys_)
        co_return;
    const Lba lba = lbaOf(key);
    co_await stripe(lba).lock();
    sim::LockGuard guard(stripe(lba));
    auto page = co_await sftl_.read(lba);
    if (!page.has_value())
        co_return;
    auto &rec = page->records[slotOf(key)];
    rec.tombstone = true;
    rec.value.clear();
    co_await sftl_.write(lba, std::move(*page));
}

void
SingleVersionKv::setWatermark(Time)
{
    // Single-version: nothing to prune.
}

} // namespace ftl
