/**
 * @file
 * VFTL: the paper's baseline — a multi-version key-value layer built
 * *on top of* a generic single-version FTL (section 5.1), with its own
 * lookup, request handling and garbage collection, separate from the
 * FTL's. It is the same multi-version log as MFTL (mv_log.hh), run on
 * SFTL's logical blocks instead of flash erase blocks.
 *
 * The stacking costs are exactly the ones Table 1 measures:
 *
 *  - two mapping steps (key -> LBA -> physical page) instead of one;
 *  - 10% capacity reserved at *two* levels (the KV layer holds back
 *    LBAs for its GC, and SFTL holds back physical pages for its GC),
 *    so less usable space and hotter garbage collection;
 *  - two garbage collectors generating device traffic: the KV layer
 *    rewrites logical blocks to compact dead versions, and SFTL then
 *    remaps physical pages underneath — the write amplification that
 *    depresses VFTL's GET latency and throughput under mixed
 *    workloads;
 *  - remapped tuples share the pack buffer with user puts, so heavier
 *    GC *shortens* the packing delay, which is why VFTL's PUT latency
 *    in Table 1 is lower than MFTL's.
 */

#ifndef FTL_VFTL_HH
#define FTL_VFTL_HH

#include <cstdint>
#include <optional>

#include "common/logging.hh"
#include "ftl/free_pool.hh"
#include "ftl/mv_log.hh"
#include "ftl/sftl.hh"

namespace ftl {

/**
 * VFTL's medium. A unit is one LBA of SFTL, taken FIFO from the free
 * list; GC takes at most 256 victims a pass, stops once it nets 64
 * LBAs, skips unmapped LBAs, reads each victim with one Sftl::read copy
 * and trims it.
 */
class LogicalBlocks
{
  public:
    using Addr = Lba;
    using Unit = FreePool::Unit;
    /** A copy of the logical block; empty if the LBA is unmapped. */
    using Page = std::optional<flash::PageData>;

    static constexpr const char *kName = "vftl";
    static constexpr const char *kWritten = "lbas_written";
    static constexpr const char *kGcReads = "gc_lba_reads";
    static constexpr const char *kReclaimed = "gc_trims";
    static constexpr const char *kAdmitPanic =
        "vftl: device full — writes cannot be admitted";

    explicit LogicalBlocks(Sftl &sftl) : sftl_(sftl) {}

    std::uint32_t units() const
    {
        return static_cast<std::uint32_t>(sftl_.logicalBlocks());
    }
    std::uint32_t pageBytes() const { return sftl_.pageSize(); }
    PassLimits
    passLimits(std::uint32_t recordSize) const
    {
        return {256, 64, sftl_.pageSize() / recordSize, false};
    }
    static Unit unitOf(Addr lba) { return static_cast<Unit>(lba); }

    sim::Task<Unit>
    allocate(FreePool &pool, bool relocation)
    {
        return pool.take(relocation ? 1 : 3,
                         "vftl: out of logical blocks — KV-layer GC "
                         "cannot free space");
    }
    sim::Task<PutStatus>
    write(Addr lba, flash::PageData page)
    {
        return sftl_.write(lba, std::move(page));
    }
    /** Second mapping step: LBA -> physical page, inside SFTL. */
    sim::Task<Page> read(Addr lba) { return sftl_.read(lba); }
    void pin(Unit) {}
    void unpin(Unit) {}
    static const flash::PageData &
    mapped(const Page &page)
    {
        if (!page.has_value())
            PANIC("vftl: mapped LBA has no data");
        return *page;
    }
    static const flash::PageData &
    scanned(const Page &page)
    {
        if (!page.has_value())
            PANIC("vftl: victim LBA vanished");
        return *page;
    }

    /** Calls @p fn(lba, contents); contents is null when unmapped. */
    template <typename Fn>
    void
    forEachPage(Unit lba, Fn &&fn) const
    {
        fn(static_cast<Addr>(lba), sftl_.peek(static_cast<Addr>(lba)));
    }

    bool collectable(Unit lba) const { return sftl_.mapped(lba); }
    /** SFTL levels wear below; every LBA counts as unworn. */
    std::uint32_t wear(Unit) const { return 0; }
    sim::Task<void> reclaim(Unit lba) { return sftl_.trim(lba); }
    static void
    stillLive(Unit, std::uint32_t)
    {
        PANIC("vftl: victim LBA still live after remap");
    }
    void reset() {}

  private:
    Sftl &sftl_;
};

extern template class MvLog<LogicalBlocks>;

class Vftl : public MvLog<LogicalBlocks>
{
  public:
    struct Config : LogConfig
    {
        /** Free-LBA fraction the collector restores per pass. The
         *  split stack keeps only its 10% reserve working room (the
         *  paper's configuration); compare MFTL's integrated
         *  watermark-driven target. */
        Config() { gcTargetFraction = 0.15; }
    };

    Vftl(sim::Simulator &sim, Sftl &sftl, const Config &config)
        : MvLog(sim, LogicalBlocks(sftl), config)
    {
    }

    std::size_t freeLbas() const { return freeUnits(); }

    /** Rebuild the KV layer's mapping by scanning every mapped logical
     *  block below (timing-free: models a restarted server's scan). */
    std::size_t rebuildFromStore() { return rebuild(); }
};

} // namespace ftl

#endif // FTL_VFTL_HH
