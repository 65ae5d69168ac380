/**
 * @file
 * MFTL: the paper's unified multi-version flash translation layer
 * (section 3.1, Contribution 3) — the multi-version log (mv_log.hh)
 * running directly on flash erase blocks.
 *
 * One in-DRAM mapping table maps each key straight to the physical
 * pages of its versions (no LBA indirection), and version management
 * is fused with flash garbage collection: when free blocks fall below
 * the reserve (10% of capacity), the blocks with the fewest live
 * tuples are victimized (ties broken toward least-worn, providing
 * wear-leveling), their live tuples re-packed with user writes, and
 * each block erased once they are durable.
 */

#ifndef FTL_MFTL_HH
#define FTL_MFTL_HH

#include <cstdint>

#include "common/logging.hh"
#include "flash/ssd.hh"
#include "ftl/free_pool.hh"
#include "ftl/mv_log.hh"

namespace ftl {

/**
 * MFTL's medium. A unit is an erase block, filled page by page through
 * one cursor that opens the least-worn free block; GC takes at most 32
 * victims a pass, stops once it nets 12 blocks, reads a pinned victim's
 * programmed pages zero-copy and erases it.
 */
class EraseBlocks
{
  public:
    using Addr = flash::PageAddr;
    using Unit = FreePool::Unit;
    /** A page read zero-copy; valid while its block is pinned. */
    using Page = const flash::PageData *;

    static constexpr const char *kName = "mftl";
    static constexpr const char *kWritten = "pages_written";
    static constexpr const char *kGcReads = "gc_page_reads";
    static constexpr const char *kReclaimed = "gc_erases";
    static constexpr const char *kAdmitPanic =
        "mftl: device full — writes cannot be admitted";

    explicit EraseBlocks(flash::SsdDevice &device) : device_(device) {}

    std::uint32_t units() const { return device_.geometry().numBlocks; }
    std::uint32_t pageBytes() const { return device_.geometry().pageSize; }
    PassLimits
    passLimits(std::uint32_t recordSize) const
    {
        const auto &geo = device_.geometry();
        return {32, 12,
                std::uint64_t{geo.pagesPerBlock} * (geo.pageSize / recordSize),
                true};
    }
    static Unit unitOf(Addr addr) { return addr.block; }

    sim::Task<Addr>
    allocate(FreePool &pool, bool relocation)
    {
        return pool.nextPage(cursor_, device_, relocation ? 1 : 3,
                             "mftl: device full — GC cannot free space "
                             "(live data exceeds usable capacity)");
    }
    sim::Task<void>
    write(Addr addr, flash::PageData page)
    {
        return device_.programPage(addr, std::move(page));
    }
    sim::Task<Page> read(Addr addr) { return device_.readPage(addr); }
    void pin(Unit block) { device_.pinBlock(block); }
    void unpin(Unit block) { device_.unpinBlock(block); }
    static const flash::PageData &mapped(Page page) { return *page; }
    static const flash::PageData &scanned(Page page) { return *page; }

    /** Calls @p fn(addr, contents) for every programmed page;
     *  contents is a timing-free peek, read only by recovery. */
    template <typename Fn>
    void
    forEachPage(Unit block, Fn &&fn) const
    {
        for (std::uint32_t pg = 0; pg < device_.geometry().pagesPerBlock;
             ++pg) {
            const Addr addr{block, pg};
            if (device_.pageState(addr) == flash::PageState::Programmed)
                fn(addr, &device_.peekPage(addr));
        }
    }

    /** The block the cursor is filling is not collectable. */
    bool collectable(Unit block) const
    {
        return static_cast<std::int64_t>(block) != cursor_.block;
    }
    std::uint32_t wear(Unit block) const { return device_.eraseCount(block); }
    sim::Task<void> reclaim(Unit block) { return device_.eraseBlock(block); }
    static void
    stillLive(Unit block, std::uint32_t live)
    {
        PANIC("mftl: victim block " << block << " still has " << live
                                    << " live tuples after remap");
    }
    void reset() { cursor_ = Cursor{}; }

  private:
    flash::SsdDevice &device_;
    Cursor cursor_;
};

extern template class MvLog<EraseBlocks>;

class Mftl : public MvLog<EraseBlocks>
{
  public:
    struct Config : LogConfig
    {
        /** Free-block fraction the integrated collector maintains:
         *  version management is fused with flash GC, so dead versions
         *  are reclaimed eagerly as the watermark advances. */
        Config() { gcTargetFraction = 0.25; }
    };

    Mftl(sim::Simulator &sim, flash::SsdDevice &device,
         const Config &config)
        : MvLog(sim, EraseBlocks(device), config)
    {
    }

    /** Number of free (erased, unallocated) blocks. */
    std::size_t freeBlocks() const { return freeUnits(); }

    /** Rebuild the mapping table by scanning all programmed pages
     *  (timing-free: models a restarted server's offline scan). */
    std::size_t rebuildFromFlash() { return rebuild(); }
};

} // namespace ftl

#endif // FTL_MFTL_HH
