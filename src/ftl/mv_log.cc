#include "ftl/mv_log.hh"

#include <algorithm>
#include <memory>
#include <string>

#include "common/logging.hh"
#include "ftl/mftl.hh"
#include "ftl/vftl.hh"
#include "sim/sync.hh"

namespace ftl {

template <typename Medium>
MvLog<Medium>::MvLog(sim::Simulator &sim, Medium medium,
                     const LogConfig &config)
    : sim_(sim),
      medium_(std::move(medium)),
      config_(config),
      limits_(medium_.passLimits(config.recordSize)),
      pool_(sim, medium_.units(), config.reserveFraction,
            config.gcTargetFraction, [this] { return collectOnce(); }),
      map_(config.expectedKeys),
      packLog_(sim, medium_.pageBytes(), config.packTimeout,
               [this](std::vector<Pending> batch) {
                   sim::spawn(flush(std::move(batch)));
               }),
      gets_(stats_.counter(statName("gets"))),
      puts_(stats_.counter(statName("puts"))),
      deletes_(stats_.counter(statName("deletes"))),
      written_(stats_.counter(statName(Medium::kWritten))),
      remapped_(stats_.counter(statName("gc_remapped"))),
      pruned_(stats_.counter(statName("versions_pruned"))),
      gcVictims_(stats_.counter(statName("gc_victims"))),
      gcReads_(stats_.counter(statName(Medium::kGcReads))),
      reclaimed_(stats_.counter(statName(Medium::kReclaimed))),
      getLatency_(stats_.histogram(statName("get_latency"))),
      putLatency_(stats_.histogram(statName("put_latency")))
{
}

template <typename Medium>
void
MvLog<Medium>::start()
{
    sim::spawn(watermarkSweep());
}

template <typename Medium>
sim::Task<void>
MvLog<Medium>::admitUserWrite()
{
    // Backpressure at the API: while free space is critically low,
    // user tuples must not even enter the pack buffer — otherwise they
    // ride in relocation batches and consume the units the collector
    // needs to make progress (the flash write cliff).
    const Time start = sim_.now();
    const std::size_t floor = std::min<std::size_t>(
        pool_.lowWater(), std::max<std::size_t>(2, pool_.lowWater() / 4));
    while (pool_.freeCount() < floor)
        co_await pool_.waitForSpace(start, 100 * common::kMillisecond,
                                    Medium::kAdmitPanic);
}

template <typename Medium>
sim::Task<void>
MvLog<Medium>::flush(std::vector<Pending> batch)
{
    bool has_relocation = false;
    for (const auto &p : batch)
        has_relocation |= p.relocation;

    // Relocation batches (GC progress) may take the last free unit;
    // user-only batches throttle earlier so the collector always has
    // working room (write-cliff backpressure, as real FTLs apply).
    const Addr addr = co_await medium_.allocate(pool_, has_relocation);

    flash::PageData page;
    page.records.reserve(batch.size());
    for (const auto &p : batch)
        page.records.push_back(p.record);

    co_await medium_.write(addr, std::move(page));
    const Unit unit = Medium::unitOf(addr);
    pool_.endWrite(unit);
    written_.inc();

    // Publish the new locations in the mapping table.
    for (std::size_t i = 0; i < batch.size(); ++i) {
        auto &p = batch[i];
        const Loc loc{addr, static_cast<std::uint16_t>(i)};
        if (p.record.tombstone) {
            // A durable delete: drop the whole chain.
            if (auto chain = map_.find(p.record.key)) {
                for (const auto &e : chain)
                    dropEntry(e);
                map_.erase(p.record.key);
            }
        } else if (p.relocation) {
            auto chain = map_.find(p.record.key);
            auto *entry =
                chain ? chain.find(p.record.version) : nullptr;
            if (entry != nullptr) {
                --pool_.live(Medium::unitOf(entry->loc.addr));
                entry->loc = loc;
                ++pool_.live(unit);
                remapped_.inc();
            }
            // else: the version was pruned while in flight — the new
            // copy is dead on arrival, which is fine.
        } else {
            auto chain = map_.getOrCreate(p.record.key);
            if (chain.append(p.record.version, loc)) {
                ++pool_.live(unit);
                pruneChain(chain);
            }
            // else: idempotent duplicate; dead on arrival.
        }
        p.ack.set(PutStatus::Ok);
    }
    pool_.kick();
}

template <typename Medium>
sim::Task<GetResult>
MvLog<Medium>::get(Key key, Version at)
{
    const Time start = sim_.now();
    gets_.inc();

    auto chain = map_.find(key);
    if (!chain)
        co_return GetResult::miss();
    pruneChain(chain);
    const auto *entry = chain.findAt(at);
    if (entry == nullptr)
        co_return GetResult::miss();

    // Copy the locator, then pin before any suspension: between the
    // lookup and the pin no other coroutine can run, so the mapping
    // cannot move under us, and the pin blocks GC's reclaim afterwards.
    const Loc loc = entry->loc;
    const Version version = entry->version;
    const Unit unit = Medium::unitOf(loc.addr);
    medium_.pin(unit);
    const auto page = co_await medium_.read(loc.addr);
    const flash::PageData &data = Medium::mapped(page);
    if (loc.slot >= data.records.size() ||
        data.records[loc.slot].key != key ||
        !(data.records[loc.slot].version == version))
        PANIC(Medium::kName << ": mapping points at wrong tuple");
    GetResult result;
    result.found = true;
    result.version = version;
    result.value = data.records[loc.slot].value;
    medium_.unpin(unit);
    getLatency_.record(sim_.now() - start);
    co_return result;
}

template <typename Medium>
sim::Task<PutStatus>
MvLog<Medium>::put(Key key, Value value, Version version)
{
    const Time start = sim_.now();
    puts_.inc();
    co_await admitUserWrite();
    flash::Record record;
    record.key = key;
    record.version = version;
    record.value = std::move(value);
    record.sizeBytes = config_.recordSize;
    auto ack = packLog_.append(std::move(record), false);
    const PutStatus status = co_await ack;
    putLatency_.record(sim_.now() - start);
    co_return status;
}

template <typename Medium>
sim::Task<void>
MvLog<Medium>::erase(Key key)
{
    deletes_.inc();
    co_await admitUserWrite();
    flash::Record record;
    record.key = key;
    record.sizeBytes = config_.recordSize;
    record.tombstone = true;
    auto ack = packLog_.append(std::move(record), false);
    co_await ack;
}

template <typename Medium>
void
MvLog<Medium>::setWatermark(Time watermark)
{
    watermark_ = std::max(watermark_, watermark);
}

template <typename Medium>
std::optional<Version>
MvLog<Medium>::versionAt(Key key, Version at)
{
    auto chain = map_.find(key);
    if (!chain)
        return std::nullopt;
    pruneChain(chain);
    const auto *entry = chain.findAt(at);
    return entry == nullptr ? std::nullopt
                            : std::optional<Version>(entry->version);
}

template <typename Medium>
void
MvLog<Medium>::pruneChain(ChainRef chain)
{
    chain.pruneBelowWatermark(
        watermark_,
        [this](const typename Store::Entry &e) { dropEntry(e); });
}

template <typename Medium>
void
MvLog<Medium>::dropEntry(const typename Store::Entry &entry)
{
    --pool_.live(Medium::unitOf(entry.loc.addr));
    pruned_.inc();
}

template <typename Medium>
sim::Task<void>
MvLog<Medium>::watermarkSweep()
{
    while (!sim_.stopRequested()) {
        co_await sim::sleepFor(sim_, config_.watermarkSweepInterval);
        map_.forEach(
            [this](Key, ChainRef chain) { pruneChain(chain); });
        pool_.kick();
    }
}

template <typename Medium>
sim::Task<bool>
MvLog<Medium>::collectOnce()
{
    const std::vector<Unit> victims = pool_.selectVictims(
        limits_, [this](Unit u) { return medium_.collectable(u); },
        [this](Unit u) { return medium_.wear(u); });
    if (victims.empty())
        co_return false;

    // Read every victim page in parallel (pins held across the scan):
    // a serial collector cannot outpace the user write stream through
    // a saturated device.
    struct Scan
    {
        Addr addr;
        typename Medium::Page page;
    };
    auto scans = std::make_shared<std::vector<Scan>>();
    std::vector<Unit> pinned;
    for (const Unit victim : victims) {
        gcVictims_.inc();
        if (pool_.live(victim) == 0)
            continue;
        medium_.pin(victim);
        pinned.push_back(victim);
        medium_.forEachPage(victim, [&](Addr addr, const flash::PageData *) {
            scans->push_back(Scan{addr, {}});
        });
    }
    if (!scans->empty()) {
        auto done = std::make_shared<sim::Quorum>(
            sim_, static_cast<std::uint32_t>(scans->size()));
        for (std::size_t i = 0; i < scans->size(); ++i) {
            sim::spawn([](MvLog *self,
                          std::shared_ptr<std::vector<Scan>> scans,
                          std::size_t index,
                          std::shared_ptr<sim::Quorum> done)
                           -> sim::Task<void> {
                (*scans)[index].page =
                    co_await self->medium_.read((*scans)[index].addr);
                self->gcReads_.inc();
                done->arrive();
            }(this, scans, i, done));
        }
        co_await done->wait();
    }

    std::vector<sim::Future<PutStatus>> acks;
    for (const Scan &scan : *scans) {
        const flash::PageData &page = Medium::scanned(scan.page);
        for (std::uint16_t slot = 0; slot < page.records.size(); ++slot) {
            const auto &rec = page.records[slot];
            if (rec.tombstone)
                continue;
            auto chain = map_.find(rec.key);
            if (!chain)
                continue;
            const auto *entry = chain.find(rec.version);
            if (entry == nullptr || entry->loc.addr != scan.addr ||
                entry->loc.slot != slot)
                continue; // dead or already moved
            // Live: remap through the shared pack buffer
            // ("puts or remapped keys", section 5).
            acks.push_back(packLog_.append(rec, true));
        }
    }
    for (const Unit victim : pinned)
        medium_.unpin(victim);
    packLog_.flushNow();
    for (auto &ack : acks)
        co_await ack;

    for (const Unit victim : victims) {
        if (pool_.live(victim) != 0)
            Medium::stillLive(victim, pool_.live(victim));
        co_await medium_.reclaim(victim);
        pool_.release(victim);
        reclaimed_.inc();
    }
    co_return true;
}

template <typename Medium>
std::size_t
MvLog<Medium>::rebuild()
{
    map_.clear();
    pool_.reset();
    medium_.reset();

    std::size_t recovered = 0;
    for (Unit u = 0; u < medium_.units(); ++u) {
        bool stored = false;
        medium_.forEachPage(u, [&](Addr addr, const flash::PageData *page) {
            if (page == nullptr)
                return;
            stored = true;
            for (std::uint16_t slot = 0; slot < page->records.size();
                 ++slot) {
                const auto &rec = page->records[slot];
                if (rec.tombstone)
                    continue; // tombstones are not replayed
                auto chain = map_.getOrCreate(rec.key);
                if (chain.append(rec.version, Loc{addr, slot})) {
                    ++pool_.live(u);
                    ++recovered;
                }
            }
        });
        if (!stored)
            pool_.addFree(u);
    }
    return recovered;
}

template class MvLog<EraseBlocks>;
template class MvLog<LogicalBlocks>;

} // namespace ftl
